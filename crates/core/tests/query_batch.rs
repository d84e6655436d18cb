//! Equivalence battery for the scratch/batch query APIs: `query` is the
//! semantic reference; `query_with_scratch` (allocation-free candidate
//! intersection) and `query_batch` (one scratch buffer per stream) must
//! answer element-for-element identically on any probe stream, including
//! out-of-bounds values and wrong-arity vectors.

use mps_core::{GeneratorConfig, MpsGenerator, MultiPlacementStructure, QueryScratch};
use mps_geom::{Coord, Dims};
use mps_netlist::benchmarks::{self, random_circuit};
use mps_netlist::Circuit;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn generate(circuit: &Circuit, seed: u64) -> MultiPlacementStructure {
    let config = GeneratorConfig::builder()
        .outer_iterations(30)
        .inner_iterations(30)
        .seed(seed)
        .build();
    MpsGenerator::new(circuit, config)
        .generate()
        .expect("test circuits are valid")
}

/// A mixed probe stream: mostly uniform in-bounds vectors, salted with
/// out-of-bounds values (query must answer `None`, not panic) and
/// wrong-arity vectors (likewise).
fn probe_stream(circuit: &Circuit, n: usize, seed: u64) -> Vec<Dims> {
    let bounds = circuit.dim_bounds();
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
            match k % 13 {
                7 => dims[0].0 = bounds[0].w.hi() + 1 + k as Coord,
                11 => {
                    dims.pop();
                }
                _ => {}
            }
            // Unchecked: the stream deliberately carries out-of-bounds
            // and wrong-arity mutants both paths must answer None for.
            Dims::from_vec_unchecked(dims)
        })
        .collect()
}

fn assert_all_paths_agree(mps: &MultiPlacementStructure, queries: &[Dims]) {
    let batch = mps.query_batch(queries);
    assert_eq!(batch.len(), queries.len());
    let mut scratch = QueryScratch::new();
    for (k, (dims, batched)) in queries.iter().zip(&batch).enumerate() {
        let reference = mps.query(dims);
        assert_eq!(reference, *batched, "query_batch diverges at probe {k}");
        assert_eq!(
            reference,
            mps.query_with_scratch(dims, &mut scratch),
            "query_with_scratch diverges at probe {k} (reused scratch)"
        );
    }
}

#[test]
fn batch_equals_sequential_on_benchmark_circuits() {
    for name in ["circ01", "circ02"] {
        let bm = benchmarks::by_name(name).unwrap();
        let mps = generate(&bm.circuit, 20050307);
        assert!(mps.placement_count() > 0, "{name} generated no placements");
        let queries = probe_stream(&bm.circuit, 2_000, 0xC0FFEE);
        assert_all_paths_agree(&mps, &queries);
    }
}

#[test]
fn empty_batch_yields_empty_answers() {
    let bm = benchmarks::by_name("circ01").unwrap();
    let mps = generate(&bm.circuit, 1);
    assert!(mps.query_batch(&[]).is_empty());
}

#[test]
fn stale_scratch_state_never_leaks_into_answers() {
    let bm = benchmarks::by_name("circ01").unwrap();
    let mps = generate(&bm.circuit, 2);
    let wide = benchmarks::by_name("circ02").unwrap();
    let other = generate(&wide.circuit, 2);
    // One scratch alternates between two structures: whatever the last
    // query left in it must not change the next answer.
    let mut scratch = QueryScratch::new();
    let others = probe_stream(&wide.circuit, 500, 4);
    for (dims, other_dims) in probe_stream(&bm.circuit, 500, 3).iter().zip(&others) {
        assert_eq!(mps.query_with_scratch(dims, &mut scratch), mps.query(dims));
        assert_eq!(
            other.query_with_scratch(other_dims, &mut scratch),
            other.query(other_dims)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Element-wise equivalence of `query_batch` (and the scratch path it
    /// is built on) to sequential `query`, over arbitrary generated
    /// structures and probe streams.
    #[test]
    fn batch_matches_sequential_query(
        seed in 0u64..50_000,
        blocks in 2usize..6,
        nets in 2usize..7,
    ) {
        let circuit = random_circuit(blocks, nets, seed);
        let mps = generate(&circuit, seed);
        let queries = probe_stream(&circuit, 300, seed ^ 0x5EED);
        let batch = mps.query_batch(&queries);
        let mut scratch = QueryScratch::new();
        for (dims, batched) in queries.iter().zip(&batch) {
            let reference = mps.query(dims);
            prop_assert_eq!(reference, *batched);
            prop_assert_eq!(reference, mps.query_with_scratch(dims, &mut scratch));
        }
    }
}
