//! Serving-throughput baseline: the structure's flat query index versus
//! the paper's Fig. 3 rows queried as written, measured on uniform and
//! hot-spot query streams over a circ02-sized structure. Writes
//! `out/BENCH_serve.json` — the perf-trajectory artifact CI records from
//! every run.
//!
//! ```sh
//! cargo run --release -p mps-bench --bin serve_bench -- \
//!     [--effort F] [--queries N] [--hot FRAC] [--min-speedup S] \
//!     [--circuit NAME] [--save DIR | --load DIR] [--starts K] [--threads T]
//! ```
//!
//! Engines measured on each stream:
//!
//! * `baseline` — a row engine local to this bench: one
//!   `IntervalMap` per block and axis built from the entries, queried by
//!   intersecting sorted id arrays (`retain` + binary search), with a
//!   fresh candidate vector per call;
//! * `scratch`  — the same row engine with one reused candidate buffer;
//! * `compiled` — the structure's own `query_with_scratch` (flat arrays
//!   + bitset AND, zero allocation per query).
//!
//! Both engines must answer every vector of both streams alike before
//! anything is timed.
//!
//! With `--min-speedup S` the run fails (exit 1) unless the compiled
//! engine beats `baseline` by at least `S`× QPS on the uniform stream —
//! CI passes 2 per the serving subsystem's acceptance bar.

use mps_bench::cli::{arg_value, obtain_structure, BenchArgs, StructureSource};
use mps_bench::{fmt_duration, markdown_table, random_dims, write_artifact};
use mps_core::{MultiPlacementStructure, PlacementId, QueryScratch};
use mps_geom::{Axis, Coord, Dims, IntervalMap};
use mps_netlist::benchmarks;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Map, Serialize, Value};
use std::time::{Duration, Instant};

/// Queries sampled for per-query latency percentiles (QPS is measured
/// over the whole stream without per-query clocking).
const LATENCY_SAMPLES: usize = 20_000;

struct EngineResult {
    name: &'static str,
    qps: f64,
    p50: Duration,
    p99: Duration,
}

/// The paper's Fig. 3 rows queried as written: row `2i` is block `i`'s
/// width row `W_i`, row `2i + 1` its height row `H_i`, each an
/// `IntervalMap` of sorted id arrays.
struct RowEngine {
    rows: Vec<IntervalMap<u32>>,
}

impl RowEngine {
    fn new(mps: &MultiPlacementStructure) -> Self {
        let rows = (0..mps.block_count())
            .flat_map(|i| [Axis::Width, Axis::Height].map(|axis| (i, axis)))
            .map(|(i, axis)| {
                IntervalMap::from_iter(
                    mps.iter()
                        .map(|(id, e)| (e.dims_box.ranges()[i].along(axis), id.0)),
                )
            })
            .collect();
        Self { rows }
    }

    /// Eq. 4: the candidates of the first row, refined by every other
    /// row in turn. `scratch` holds the candidates.
    fn query(&self, dims: &[(Coord, Coord)], scratch: &mut Vec<u32>) -> Option<PlacementId> {
        scratch.clear();
        if 2 * dims.len() != self.rows.len() {
            return None;
        }
        let mut values = dims.iter().flat_map(|&(w, h)| [w, h]);
        let mut rows = self.rows.iter();
        scratch.extend_from_slice(rows.next()?.query(values.next()?));
        for (row, v) in rows.zip(values) {
            if scratch.is_empty() {
                return None;
            }
            let ids = row.query(v);
            scratch.retain(|c| ids.binary_search(c).is_ok());
        }
        scratch.first().map(|&c| PlacementId(c))
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Measures one engine over a stream: a warm-up + full-stream QPS pass
/// (no per-query clocking), then an instrumented pass over a sample for
/// p50/p99.
fn measure<F>(name: &'static str, stream: &[Dims], mut engine: F) -> EngineResult
where
    F: FnMut(&Dims) -> Option<PlacementId>,
{
    let mut sink = 0usize;
    for dims in stream.iter().take(stream.len() / 10) {
        sink = sink.wrapping_add(usize::from(engine(dims).is_some()));
    }
    let start = Instant::now();
    for dims in stream {
        sink = sink.wrapping_add(usize::from(engine(dims).is_some()));
    }
    let elapsed = start.elapsed();
    let qps = stream.len() as f64 / elapsed.as_secs_f64();

    let mut latencies: Vec<Duration> = stream
        .iter()
        .take(LATENCY_SAMPLES)
        .map(|dims| {
            let t = Instant::now();
            sink = sink.wrapping_add(usize::from(engine(dims).is_some()));
            t.elapsed()
        })
        .collect();
    latencies.sort_unstable();
    assert!(sink < usize::MAX, "keep the sink observable");
    EngineResult {
        name,
        qps,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    }
}

/// A hot-spot stream: `hot_fraction` of the probes cycle through 16
/// fixed vectors (the synthesis-loop pattern: an optimizer hammering the
/// same sizing neighborhood), the rest stay uniform.
fn hotspot_stream(
    uniform: &[Dims],
    mps: &MultiPlacementStructure,
    hot_fraction: f64,
    seed: u64,
) -> Vec<Dims> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Prefer covered vectors as hot spots so the hot path exercises full
    // intersections, not early misses.
    let mut hot: Vec<&Dims> = uniform
        .iter()
        .filter(|d| mps.query(d).is_some())
        .take(16)
        .collect();
    if hot.is_empty() {
        hot = uniform.iter().take(16).collect();
    }
    (0..uniform.len())
        .map(|k| {
            if rng.random_range(0.0..1.0) < hot_fraction {
                hot[k % hot.len()].clone()
            } else {
                uniform[k].clone()
            }
        })
        .collect()
}

fn engine_value(r: &EngineResult) -> Value {
    let mut m = Map::new();
    m.insert("qps", r.qps.round().to_value());
    m.insert(
        "p50_ns",
        u64::try_from(r.p50.as_nanos())
            .unwrap_or(u64::MAX)
            .to_value(),
    );
    m.insert(
        "p99_ns",
        u64::try_from(r.p99.as_nanos())
            .unwrap_or(u64::MAX)
            .to_value(),
    );
    m.insert(
        "allocations_per_query",
        match r.name {
            "baseline" => Value::String("per-call candidate vector".to_owned()),
            _ => Value::String("zero (reused scratch)".to_owned()),
        },
    );
    Value::Object(m)
}

fn main() {
    let args = BenchArgs::parse();
    let effort = args.effort;
    let queries: usize = arg_value("queries").unwrap_or(100_000);
    let hot_fraction: f64 = arg_value("hot").unwrap_or(0.9);
    let min_speedup: f64 = arg_value("min-speedup").unwrap_or(0.0);
    let circuit_name: String = arg_value("circuit").unwrap_or_else(|| "circ02".to_owned());

    let Some(bm) = benchmarks::by_name(&circuit_name) else {
        eprintln!("error: unknown benchmark circuit `{circuit_name}`");
        std::process::exit(2);
    };
    eprintln!("generating {circuit_name} structure (effort {effort}) ...");
    let config = args.config_for(&bm.circuit, 20050307);
    let (mps, source) = obtain_structure(bm.name, &bm.circuit, config, &args.persist);
    eprintln!(
        "  {} placements, {:.1}% coverage{}",
        mps.placement_count(),
        100.0 * mps.coverage(),
        match &source {
            StructureSource::Generated(r) => format!(", generated in {}", fmt_duration(r.duration)),
            StructureSource::Loaded(p) => format!(", loaded from {}", p.display()),
        }
    );

    let index = mps.index();
    eprintln!(
        "  index: {} segments, {} bitset word(s), {} bytes",
        index.segment_count(),
        index.bitset_words(),
        index.heap_bytes()
    );
    let row_engine = RowEngine::new(&mps);

    let mut rng = StdRng::seed_from_u64(0x5EED ^ 20050307);
    let uniform: Vec<Dims> = (0..queries.max(1))
        .map(|_| random_dims(&bm.circuit, &mut rng))
        .collect();
    let hotspot = hotspot_stream(&uniform, &mps, hot_fraction, 0x1407);
    // The engines must agree on every vector before anything is timed.
    let mut candidates = Vec::new();
    for dims in uniform.iter().chain(&hotspot) {
        assert_eq!(
            row_engine.query(dims, &mut candidates),
            index.query(dims),
            "the row engine and the index diverge at {dims:?}"
        );
    }

    let mut streams = Map::new();
    let mut rows = Vec::new();
    let mut uniform_speedup = 0.0;
    for (stream_name, stream) in [("uniform", &uniform), ("hotspot", &hotspot)] {
        let mut scratch_u32 = Vec::new();
        let mut scratch_bits = QueryScratch::new();
        let results = [
            measure("baseline", stream, |d| row_engine.query(d, &mut Vec::new())),
            measure("scratch", stream, |d| row_engine.query(d, &mut scratch_u32)),
            measure("compiled", stream, |d| {
                index.query_with_scratch(d, &mut scratch_bits)
            }),
        ];
        let speedup = results[2].qps / results[0].qps;
        if stream_name == "uniform" {
            uniform_speedup = speedup;
        }
        let mut engines = Map::new();
        for r in &results {
            engines.insert(r.name, engine_value(r));
        }
        let mut s = Map::new();
        s.insert("engines", Value::Object(engines));
        s.insert(
            "speedup_compiled_vs_baseline",
            ((speedup * 100.0).round() / 100.0).to_value(),
        );
        streams.insert(stream_name, Value::Object(s));
        for r in &results {
            rows.push(vec![
                stream_name.to_owned(),
                r.name.to_owned(),
                format!("{:.0}", r.qps),
                format!("{:?}", r.p50),
                format!("{:?}", r.p99),
                format!("{:.2}x", r.qps / results[0].qps),
            ]);
        }
    }

    println!("\nServing throughput ({circuit_name}, {queries} queries per stream)");
    println!(
        "{}",
        markdown_table(
            &["Stream", "Engine", "QPS", "p50", "p99", "vs baseline"],
            &rows
        )
    );

    let mut top = Map::new();
    top.insert("bench", Value::String("serve".to_owned()));
    top.insert("circuit", Value::String(circuit_name.clone()));
    top.insert("effort", effort.to_value());
    top.insert("queries_per_stream", queries.to_value());
    top.insert("hot_fraction", hot_fraction.to_value());
    top.insert("placements", mps.placement_count().to_value());
    top.insert("coverage", mps.coverage().to_value());
    top.insert("compiled_segments", index.segment_count().to_value());
    top.insert("compiled_heap_bytes", index.heap_bytes().to_value());
    top.insert(
        "equivalence_probes",
        (uniform.len() + hotspot.len()).to_value(),
    );
    top.insert("streams", Value::Object(streams));
    let path = write_artifact(
        "BENCH_serve.json",
        &serde_json::to_string_pretty(&Value::Object(top)).expect("value trees serialize"),
    );
    eprintln!("wrote {}", path.display());

    if min_speedup > 0.0 && uniform_speedup < min_speedup {
        eprintln!(
            "error: compiled index QPS speedup {uniform_speedup:.2}x on the uniform stream \
             is below the required {min_speedup}x"
        );
        std::process::exit(1);
    }
}
