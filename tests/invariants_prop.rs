//! Property-based tests of the workspace-wide invariants (DESIGN.md §6).

use analog_mps::geom::{Coord, Interval, IntervalMap, Point};
use analog_mps::mps::{GeneratorConfig, MpsGenerator};
use analog_mps::netlist::benchmarks::random_circuit;
use analog_mps::placer::{Placement, SequencePair, Template};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// Invariant 2: interval rows stay sorted, non-overlapping and consistent
// with a naive point-wise model as registrations come and go. A row is
// collected from its live registrations, the way a structure builds its
// rows from its live entries.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RowOp {
    Insert(Coord, Coord, u32),
    /// Drops the live registration at this position (modulo their count).
    Remove(usize),
}

fn row_op() -> impl Strategy<Value = RowOp> {
    (0i64..80, 0i64..40, 0u32..6, prop::bool::ANY).prop_map(|(lo, len, id, add)| {
        if add {
            RowOp::Insert(lo, lo + len, id)
        } else {
            RowOp::Remove(lo as usize)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interval_rows_match_naive_model(ops in prop::collection::vec(row_op(), 1..60)) {
        let mut live: Vec<(Interval, u32)> = Vec::new();
        let mut row: IntervalMap<u32> = IntervalMap::new();
        for op in &ops {
            match *op {
                RowOp::Insert(lo, hi, id) => live.push((Interval::new(lo, hi), id)),
                RowOp::Remove(k) if !live.is_empty() => {
                    live.remove(k % live.len());
                }
                RowOp::Remove(_) => {}
            }
            row = live.iter().copied().collect();
            row.check_invariants().unwrap();
            let mut inserted: IntervalMap<u32> = IntervalMap::new();
            for &(iv, id) in &live {
                inserted.insert(iv, id);
            }
            prop_assert_eq!(&row, &inserted);
        }
        // Point-wise cross-check against a naive set model.
        for v in -2..130 {
            let mut expect: Vec<u32> = live
                .iter()
                .filter(|(iv, _)| iv.contains(v))
                .map(|&(_, id)| id)
                .collect();
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(row.query(v), expect.as_slice());
        }
    }

    // -------------------------------------------------------------------
    // Invariant 7: sequence-pair packing is legal for arbitrary pairs and
    // dimensions, and extraction→packing stays legal.
    // -------------------------------------------------------------------

    #[test]
    fn sequence_pair_packing_is_legal(
        seed in 0u64..1_000,
        n in 1usize..18,
        dims in prop::collection::vec((1i64..60, 1i64..60), 18),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sp = SequencePair::random(n, &mut rng);
        let dims = &dims[..n];
        let p = sp.pack(dims);
        prop_assert!(p.is_legal(dims, None));
        // Bounding box hugs the origin.
        let bb = p.bounding_box(dims).expect("non-empty");
        prop_assert_eq!(bb.origin(), Point::origin());
        // Extraction round-trip stays legal.
        let extracted = SequencePair::from_placement(&p, dims);
        prop_assert!(extracted.pack(dims).is_legal(dims, None));
    }

    // -------------------------------------------------------------------
    // Invariant 4 on templates: a template instantiation is legal for any
    // dimension vector.
    // -------------------------------------------------------------------

    #[test]
    fn template_instantiation_always_legal(
        seed in 0u64..200,
        scale_w in 1i64..5,
        scale_h in 1i64..5,
    ) {
        let circuit = random_circuit(6, 8, seed);
        let template = Template::expert_default(&circuit, 2);
        let dims: Vec<(Coord, Coord)> = circuit
            .blocks()
            .iter()
            .map(|b| {
                (
                    (b.min_width() * scale_w).min(b.max_width()),
                    (b.min_height() * scale_h).min(b.max_height()),
                )
            })
            .collect();
        let p = template.instantiate(&dims);
        prop_assert!(p.is_legal(&dims, None));
    }
}

// ---------------------------------------------------------------------
// Invariants 1–4 on generated structures over random circuits: Eq.-5
// uniqueness, disjointness, legality. Smaller case count — each case runs
// a full (tiny) generation.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_structures_hold_all_invariants(
        seed in 0u64..10_000,
        blocks in 2usize..7,
        nets in 2usize..8,
    ) {
        let circuit = random_circuit(blocks, nets, seed);
        let config = GeneratorConfig::builder()
            .outer_iterations(25)
            .inner_iterations(25)
            .seed(seed ^ 0xF00D)
            .build();
        let mps = MpsGenerator::new(&circuit, config)
            .generate()
            .expect("random circuits validate");
        mps.check_invariants().map_err(TestCaseError::fail)?;

        // Eq. 5 per query: the owner covers the query point.
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let dims = analog_mps_random_dims(&circuit, &mut rng);
            if let Some(id) = mps.query(&dims) {
                let entry = mps.entry(id).expect("live id");
                prop_assert!(entry.covers(&dims));
                let p = mps.instantiate(&dims).expect("entry exists");
                prop_assert!(p.is_legal(&dims, Some(&mps.floorplan())));
            }
        }
    }
}

fn analog_mps_random_dims(
    circuit: &analog_mps::netlist::Circuit,
    rng: &mut StdRng,
) -> analog_mps::Dims {
    use rand::Rng;
    circuit
        .dim_bounds()
        .iter()
        .map(|b| {
            (
                rng.random_range(b.w.lo()..=b.w.hi()),
                rng.random_range(b.h.lo()..=b.h.hi()),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Anchoring property: shrinking dimensions never makes a legal placement
// illegal (the property instantiate() relies on).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shrinking_dims_preserves_legality(
        seed in 0u64..1_000,
        n in 2usize..10,
        dims in prop::collection::vec((2i64..50, 2i64..50), 10),
        shrink in prop::collection::vec((0.1f64..=1.0, 0.1f64..=1.0), 10),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sp = SequencePair::random(n, &mut rng);
        let dims = &dims[..n];
        let placement: Placement = sp.pack(dims);
        prop_assert!(placement.is_legal(dims, None));
        let smaller: Vec<(Coord, Coord)> = dims
            .iter()
            .zip(&shrink[..n])
            .map(|(&(w, h), &(fw, fh))| {
                (((w as f64 * fw).ceil() as Coord).max(1), ((h as f64 * fh).ceil() as Coord).max(1))
            })
            .collect();
        prop_assert!(placement.is_legal(&smaller, None));
    }
}
