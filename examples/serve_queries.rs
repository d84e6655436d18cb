//! Serving a persisted structure: generate once, `--save`-style persist,
//! load it through the hot-swappable registry, and answer a query stream
//! through the structure's query index and the line protocol — the full
//! `mps-serve` pipeline, in-process.
//!
//! Run with:
//! ```sh
//! cargo run --release --example serve_queries
//! ```

use analog_mps::mps::{GeneratorConfig, MpsGenerator};
use analog_mps::netlist::benchmarks;
use analog_mps::serve::{CompiledQueryIndex, QueryScratch, Server, StructureRegistry};
use std::sync::Arc;
use std::time::Instant;
#[path = "shared/effort.rs"]
mod shared;
use shared::effort;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Generate once, persist (the offline side) -----------------
    let circuit = benchmarks::circ02();
    let config = GeneratorConfig::builder()
        .outer_iterations(((300.0 * effort()) as usize).max(10))
        .inner_iterations(((120.0 * effort()) as usize).max(10))
        .seed(2005)
        .build();
    let mps = MpsGenerator::new(&circuit, config).generate()?;
    println!(
        "generated circ02 structure: {} placements, {:.1}% coverage",
        mps.placement_count(),
        100.0 * mps.coverage()
    );
    let dir = std::env::temp_dir().join(format!("mps_serve_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    mps.save_json(dir.join("circ02.mps.json"))?;

    // --- 2. Load through the registry (the serving side) --------------
    // Every artifact is re-validated on load, which builds its query
    // index from the stored placements.
    let registry = Arc::new(StructureRegistry::open(&dir)?);
    println!("registry serves: {:?}", registry.names());

    // --- 3. The query index: no allocation per query ------------------
    let served = registry.get("circ02").expect("just loaded");
    let index: &CompiledQueryIndex = served.index();
    println!(
        "query index: {} segments, {} bitset words, {} bytes",
        index.segment_count(),
        index.bitset_words(),
        index.heap_bytes()
    );
    let queries: Vec<analog_mps::Dims> = {
        use analog_mps::geom::Coord;
        let bounds = circuit.dim_bounds();
        let n = 20_000usize;
        (0..n)
            .map(|k| {
                bounds
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        let w = b.w.lo() + ((k * 7919 + i * 104729) as Coord % b.w.len() as Coord);
                        let h = b.h.lo() + ((k * 6007 + i * 31337) as Coord % b.h.len() as Coord);
                        (w, h)
                    })
                    .collect()
            })
            .collect()
    };
    let mut scratch = QueryScratch::new();
    let t = Instant::now();
    let answers: Vec<_> = queries
        .iter()
        .map(|d| index.query_with_scratch(d, &mut scratch))
        .collect();
    let elapsed = t.elapsed();
    // Each answer is the one stored placement whose validity box covers
    // the vector (Eq. 5), or none.
    for (dims, id) in queries.iter().zip(&answers) {
        let covering = served.structure().iter().find(|(_, e)| e.covers(dims));
        assert_eq!(*id, covering.map(|(id, _)| id), "{dims:?}");
    }
    println!(
        "{} queries in {elapsed:?} through one reused scratch, {} hit covered space",
        queries.len(),
        answers.iter().flatten().count()
    );

    // --- 4. The wire protocol (what `mps-serve` speaks) ---------------
    let server = Server::new(Arc::clone(&registry), 2);
    let dims = circuit.min_dims();
    let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
    for line in [
        "{\"kind\":\"list_structures\"}".to_owned(),
        // Tagged requests carry a strictly increasing `id` and get it
        // echoed back as `req` — that is what lets a client pipeline
        // many requests per connection and match responses out of order
        // (full contract: crates/serve/PROTOCOL.md).
        format!(
            "{{\"id\":1,\"kind\":\"query\",\"structure\":\"circ02\",\"dims\":[{}]}}",
            pairs.join(",")
        ),
        format!(
            "{{\"id\":2,\"kind\":\"instantiate\",\"structure\":\"circ02\",\"dims\":[{}]}}",
            pairs.join(",")
        ),
        // The same instantiate again: answered from the sharded LRU
        // answer cache — byte-identical, no recompute, no re-render.
        format!(
            "{{\"id\":3,\"kind\":\"instantiate\",\"structure\":\"circ02\",\"dims\":[{}]}}",
            pairs.join(",")
        ),
        // Hot-swap the registry from the artifact directory; the cache
        // is invalidated all-or-nothing.
        "{\"id\":4,\"kind\":\"reload\"}".to_owned(),
        // Malformed input is answered with a typed error, never fatal.
        "{\"kind\":\"query\",\"structure\":\"circ02\",\"dims\":[[1,2,3]]}".to_owned(),
        "{\"id\":5,\"kind\":\"metrics\"}".to_owned(),
    ] {
        let response = server.handle_line(&line).expect("non-blank line");
        println!("→ {line}");
        println!("← {response}");
    }
    let cache = server.cache().stats();
    println!(
        "answer cache: {} hit(s), {} miss(es), {} invalidation(s)",
        cache.hits, cache.misses, cache.invalidations
    );
    assert_eq!(cache.hits, 1, "the repeated instantiate must hit");
    assert_eq!(cache.invalidations, 1, "the reload must invalidate");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
