//! Property-based tests of Resolve Overlaps + Store Placement: feeding an
//! arbitrary stream of validity boxes through the structure must always
//! leave it satisfying Eq. 5 (pairwise-disjoint boxes, well-formed rows),
//! regardless of cost ordering or fork setting.
//!
//! The resolver itself is crate-private; this suite drives it through the
//! public generation path plus `insert_unchecked`-based micro-structures.
//!
//! The structure caches each stored box's log-volume for the coverage
//! check; the last properties pin `coverage()` to the bit against a sum
//! recomputed from the boxes, after resolution, persistence round trips
//! and a refinement merge.

use mps_core::{refine_region, GeneratorConfig, MpsGenerator, MultiPlacementStructure};
use mps_geom::{BlockRanges, Interval};
use mps_netlist::benchmarks::random_circuit;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Full-path property: arbitrary circuit, arbitrary budget and flags —
    /// the generated structure always satisfies every invariant, and the
    /// fallback always answers.
    #[test]
    fn generation_never_violates_eq5(
        seed in 0u64..100_000,
        blocks in 2usize..6,
        nets in 2usize..7,
        outer in 10usize..60,
        inner in 10usize..50,
        fork in prop::bool::ANY,
        optimize_ranges in prop::bool::ANY,
    ) {
        let circuit = random_circuit(blocks, nets, seed);
        let config = GeneratorConfig::builder()
            .outer_iterations(outer)
            .inner_iterations(inner)
            .fork_on_containment(fork)
            .optimize_ranges(optimize_ranges)
            .seed(seed)
            .build();
        let mps = MpsGenerator::new(&circuit, config)
            .generate()
            .expect("random circuits validate");
        mps.check_invariants().map_err(TestCaseError::fail)?;

        // Uniqueness probe: the intersection-of-rows query never returns a
        // dead id and the owner always covers the point.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        for _ in 0..40 {
            let dims: mps_geom::Dims = circuit
                .dim_bounds()
                .iter()
                .map(|b| {
                    (
                        rng.random_range(b.w.lo()..=b.w.hi()),
                        rng.random_range(b.h.lo()..=b.h.hi()),
                    )
                })
                .collect();
            if let Some(id) = mps.query(&dims) {
                let entry = mps.entry(id).expect("live id");
                prop_assert!(entry.covers(&dims));
            }
            let p = mps.instantiate_or_fallback(&dims);
            prop_assert!(p.is_legal(&dims, None));
            let pc = mps.instantiate_compacted_or_fallback(&dims);
            prop_assert!(pc.is_legal(&dims, None));
        }
    }
}

/// Volume coverage recomputed from the boxes: every live box's
/// `log_volume`, summed in id order as `volume_coverage` sums its cache.
fn reference_coverage(mps: &MultiPlacementStructure) -> f64 {
    let total_log: f64 = mps
        .bounds()
        .iter()
        .flat_map(|b| [b.w.len(), b.h.len()])
        .map(|l| (l as f64).ln())
        .sum();
    let covered: f64 = mps
        .iter()
        .map(|(_, e)| (e.dims_box.log_volume() - total_log).exp())
        .sum();
    covered.min(1.0)
}

/// `coverage()` equals the recomputed sum to the bit, on the structure
/// and on its JSON and mps-v2 round trips.
fn assert_cached_coverage_exact(mps: &MultiPlacementStructure) -> Result<(), TestCaseError> {
    let expected = reference_coverage(mps).to_bits();
    prop_assert_eq!(mps.coverage().to_bits(), expected);
    #[cfg(feature = "serde")]
    {
        let json =
            MultiPlacementStructure::from_json(&mps.to_json()).map_err(TestCaseError::fail)?;
        prop_assert_eq!(json.coverage().to_bits(), expected);
        let bin = MultiPlacementStructure::from_bin(&mps.to_bin()).map_err(TestCaseError::fail)?;
        prop_assert_eq!(bin.coverage().to_bits(), expected);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Generation shrinks, forks and annihilates stored boxes in every
    /// walk and again in the multi-start merge; the cached log-volumes
    /// must follow every one of those edits.
    #[test]
    fn cached_coverage_is_exact_after_resolution_and_round_trips(
        seed in 0u64..100_000,
        blocks in 2usize..6,
        outer in 10usize..60,
        starts in 1usize..4,
        fork in prop::bool::ANY,
    ) {
        let circuit = random_circuit(blocks, blocks + 1, seed);
        let config = GeneratorConfig::builder()
            .outer_iterations(outer)
            .inner_iterations(20)
            .fork_on_containment(fork)
            .num_starts(starts)
            .threads(1)
            .seed(seed)
            .build();
        let (mps, report) = MpsGenerator::new(&circuit, config)
            .generate_with_report()
            .expect("random circuits validate");
        prop_assert_eq!(report.coverage.to_bits(), reference_coverage(&mps).to_bits());
        assert_cached_coverage_exact(&mps)?;
    }
}

#[test]
fn cached_coverage_streams_reach_every_resolution_outcome() {
    // The property above is only as strong as its streams: over a few
    // seeds the walks and merges must shrink, fork and annihilate.
    let (mut shrunk, mut forked, mut annihilated) = (0, 0, 0);
    for seed in 0..6u64 {
        let circuit = random_circuit(3, 4, seed);
        let config = GeneratorConfig::builder()
            .outer_iterations(60)
            .inner_iterations(20)
            .num_starts(2)
            .threads(1)
            .seed(seed)
            .build();
        let (mps, report) = MpsGenerator::new(&circuit, config)
            .generate_with_report()
            .expect("random circuits validate");
        for stats in report.per_start.iter().chain([&report.explorer]) {
            shrunk += stats.stored_shrunk;
            forked += stats.stored_forked;
            annihilated += stats.stored_annihilated;
        }
        assert_cached_coverage_exact(&mps).unwrap();
    }
    assert!(
        shrunk > 0 && forked > 0 && annihilated > 0,
        "{shrunk} {forked} {annihilated}"
    );
}

#[test]
fn cached_coverage_is_exact_after_a_refinement_merge() {
    let circuit = random_circuit(3, 4, 11);
    let config = GeneratorConfig::builder()
        .outer_iterations(20)
        .inner_iterations(15)
        .seed(11)
        .build();
    let mps = MpsGenerator::new(&circuit, config).generate().unwrap();
    // The lower half of every axis.
    let region: Vec<BlockRanges> = mps
        .bounds()
        .iter()
        .map(|b| {
            let half = |i: &Interval| Interval::new(i.lo(), i.lo() + (i.hi() - i.lo()) / 2);
            BlockRanges::new(half(&b.w), half(&b.h))
        })
        .collect();
    let refine = GeneratorConfig::builder()
        .outer_iterations(40)
        .inner_iterations(20)
        .num_starts(2)
        .threads(1)
        .seed(12)
        .build();
    let (refined, report) = refine_region(&mps, &region, &refine).unwrap();
    assert!(report.region_boxes > 0, "the region walks stored nothing");
    assert_cached_coverage_exact(&refined).unwrap();
}
