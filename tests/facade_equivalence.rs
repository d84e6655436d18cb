//! The redesign's acceptance battery: the facade path — `Workspace`
//! handles answering typed `Dims` queries — must be **bit-identical** to
//! the structure's own query path, on the committed golden fixture and
//! on ≥ 1,000 random probes per circuit.
//!
//! Two paths are diffed on every probe, both fed the same raw tuple
//! vector wrapped as a `Dims`:
//!
//! 1. `mps.query(&Dims)` — the structure in hand;
//! 2. `ws.query(name, &Dims)` — the full facade (a persisted and
//!    reloaded copy behind a `Workspace` handle).
#![cfg(feature = "serde")]

use analog_mps::api::Workspace;
use analog_mps::mps::{GeneratorConfig, MpsGenerator, MultiPlacementStructure, QueryScratch};
use analog_mps::netlist::benchmarks;
use analog_mps::{Coord, Dims};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FIXTURE: &str = include_str!("fixtures/circ02_mps.json");

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mps_facade_eq_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A mixed probe stream over (and beyond) the circuit's bounds: uniform
/// in-bounds vectors salted with out-of-bounds values, which every path
/// must answer `None` for.
fn probe_stream(mps: &MultiPlacementStructure, n: usize, seed: u64) -> Vec<Vec<(Coord, Coord)>> {
    let bounds = mps.bounds();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| {
            let mut dims: Vec<(Coord, Coord)> = bounds
                .iter()
                .map(|b| {
                    (
                        rng.random_range(b.w.lo()..=b.w.hi()),
                        rng.random_range(b.h.lo()..=b.h.hi()),
                    )
                })
                .collect();
            if k % 11 == 3 {
                let i = k % bounds.len();
                dims[i].0 = bounds[i].w.hi() + 1 + rng.random_range(0..40);
            }
            dims
        })
        .collect()
}

/// Diffs the three paths on `n` probes; panics on the first divergence.
fn assert_facade_matches_raw(name: &str, mps: &MultiPlacementStructure, n: usize, seed: u64) {
    let dir = temp_dir(name);
    std::fs::write(dir.join(format!("{name}.mps.json")), mps.to_json()).unwrap();
    let mut ws = Workspace::open(&dir).unwrap();
    ws.load(name).unwrap();

    let mut covered = 0usize;
    for (k, raw) in probe_stream(mps, n, seed).into_iter().enumerate() {
        let typed = Dims::from_vec_unchecked(raw.clone());
        let old = mps.query(&typed);
        assert_eq!(
            old,
            ws.query(name, &typed).unwrap(),
            "probe {k} ({raw:?}): facade path diverges from the typed path"
        );
        covered += usize::from(old.is_some());

        // In-bounds probes also instantiate identically (facade
        // instantiation rejects out-of-bounds with a typed error).
        if typed.within_bounds(mps.bounds()) {
            assert_eq!(
                mps.instantiate_or_fallback(&typed),
                ws.instantiate(name, &typed).unwrap(),
                "probe {k}: facade instantiation diverges"
            );
        }
    }
    assert!(
        covered > 0,
        "probe stream never hit covered space — the battery proves nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed golden fixture, diffed on ≥ 1,000 probes: the facade
/// must answer the pinned on-disk format exactly like the raw path.
#[test]
fn facade_matches_raw_on_the_golden_fixture() {
    let mps = MultiPlacementStructure::from_json(FIXTURE).expect("fixture loads");
    assert_facade_matches_raw("circ02", &mps, 1_500, 0xFACADE);
}

/// Freshly generated structures, ≥ 1,000 probes each.
#[test]
fn facade_matches_raw_on_generated_structures() {
    for (name, seed) in [("circ01", 11u64), ("Mixer", 12u64)] {
        let bm = benchmarks::by_name(name).unwrap();
        let config = GeneratorConfig::builder()
            .outer_iterations(70)
            .inner_iterations(50)
            .seed(seed)
            .build();
        let mps = MpsGenerator::new(&bm.circuit, config).generate().unwrap();
        let ws_name = name.replace(' ', "_");
        assert_facade_matches_raw(&ws_name, &mps, 1_200, seed ^ 0xD1FF);
    }
}

/// The scratch, batch and instantiate entry points agree with the
/// single typed query.
#[test]
fn scratch_and_batch_paths_agree_with_query() {
    let bm = benchmarks::by_name("circ02").unwrap();
    let config = GeneratorConfig::builder()
        .outer_iterations(60)
        .inner_iterations(40)
        .seed(5)
        .build();
    let mps = MpsGenerator::new(&bm.circuit, config).generate().unwrap();
    let typed_stream: Vec<Dims> = probe_stream(&mps, 500, 0xBA7C4)
        .into_iter()
        .map(Dims::from_vec_unchecked)
        .collect();
    let singles: Vec<_> = typed_stream.iter().map(|typed| mps.query(typed)).collect();

    assert_eq!(mps.query_batch(&typed_stream), singles);
    let mut scratch = QueryScratch::new();
    for (typed, &id) in typed_stream.iter().zip(&singles) {
        assert_eq!(mps.query_with_scratch(typed, &mut scratch), id);
        assert_eq!(
            mps.instantiate(typed),
            id.and_then(|id| mps.entry(id)).map(|e| e.placement.clone())
        );
        assert_eq!(mps.instantiate_compacted(typed).is_some(), id.is_some());
    }
}
