//! Property-based tests of the placement substrate.

use mps_geom::{BlockRanges, Coord, DimsBox, Interval, Point, Rect};
use mps_netlist::benchmarks::{self, random_circuit};
use mps_netlist::{modgen, BlockId, Circuit, Net, Pad, PadSide, Pin};
use mps_placer::{
    expand_placement, BStarTree, CostCalculator, CostWeights, ExpandPlacementError,
    ExpansionConfig, Placement, SequencePair, SymmetryConstraints, SymmetryGroup, Template,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ------------------------------------------------------------------
    // Both topological representations always produce legal, compacted
    // floorplans — for any tree/pair shape and any dimensions.
    // ------------------------------------------------------------------

    #[test]
    fn bstar_and_seqpair_packings_are_legal(
        seed in 0u64..10_000,
        n in 1usize..22,
        dims in prop::collection::vec((1i64..60, 1i64..60), 22),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = &dims[..n];

        let tree = BStarTree::random(n, &mut rng);
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let pt = tree.pack(dims);
        prop_assert!(pt.is_legal(dims, None));

        let sp = SequencePair::random(n, &mut rng);
        let ps = sp.pack(dims);
        prop_assert!(ps.is_legal(dims, None));

        // Both packers anchor at the origin.
        prop_assert_eq!(pt.bounding_box(dims).unwrap().origin(), mps_geom::Point::origin());
        prop_assert_eq!(ps.bounding_box(dims).unwrap().origin(), mps_geom::Point::origin());
    }

    #[test]
    fn bstar_moves_never_break_legality(
        seed in 0u64..5_000,
        n in 2usize..15,
        moves in prop::collection::vec(0u8..3, 1..40),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = BStarTree::random(n, &mut rng);
        let dims: Vec<(Coord, Coord)> = (0..n)
            .map(|_| (rng.random_range(1..40), rng.random_range(1..40)))
            .collect();
        for &m in &moves {
            match m {
                0 => tree.swap_blocks(&mut rng),
                1 => tree.move_subtree(&mut rng),
                _ => tree.rotate(&mut rng),
            }
            tree.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert!(tree.pack(&dims).is_legal(&dims, None));
        }
    }

    // ------------------------------------------------------------------
    // Expansion: the box's upper corner is always simultaneously legal —
    // the anchoring guarantee everything else relies on.
    // ------------------------------------------------------------------

    #[test]
    fn expansion_upper_corner_is_legal(
        seed in 0u64..5_000,
        blocks in 2usize..8,
    ) {
        let circuit = random_circuit(blocks, blocks + 2, seed);
        let fp = circuit.suggested_floorplan(1.6);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let min_dims = circuit.min_dims();
        // Start from a packed (hence legal) placement spread by 2x.
        let packed = SequencePair::random(blocks, &mut rng).pack(&min_dims);
        let spread = Placement::new(
            packed
                .coords()
                .iter()
                .map(|p| mps_geom::Point::new(p.x * 2, p.y * 2))
                .collect(),
        );
        if !spread.is_legal(&min_dims, Some(&fp)) {
            // Spreading can escape small floorplans; skip those cases.
            return Ok(());
        }
        let dbox = expand_placement(&circuit, &spread, &fp, &ExpansionConfig::default())
            .expect("legal at minima");
        let top: Vec<(Coord, Coord)> = dbox
            .ranges()
            .iter()
            .map(|r| (r.w.hi(), r.h.hi()))
            .collect();
        prop_assert!(spread.is_legal(&top, Some(&fp)));
        dbox.check_within_bounds(&circuit.dim_bounds())
            .map_err(TestCaseError::fail)?;
        // Maximality along each axis: growing any single ended dimension by
        // one grid unit must violate legality or the block bound.
        for (i, r) in dbox.ranges().iter().enumerate() {
            let block = &circuit.blocks()[i];
            for (axis_is_w, hi, max) in [
                (true, r.w.hi(), block.max_width()),
                (false, r.h.hi(), block.max_height()),
            ] {
                if hi >= max {
                    continue; // capped by the designer bound
                }
                let mut grown = top.clone();
                if axis_is_w {
                    grown[i].0 += 1;
                } else {
                    grown[i].1 += 1;
                }
                prop_assert!(
                    !spread.is_legal(&grown, Some(&fp)),
                    "block {i} axis {} not expanded to the limit",
                    if axis_is_w { "w" } else { "h" }
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Cost function sanity over random circuits.
    // ------------------------------------------------------------------

    #[test]
    fn cost_is_finite_nonnegative_and_translation_invariant(
        seed in 0u64..5_000,
        blocks in 2usize..8,
        dx in -40i64..40,
        dy in -40i64..40,
    ) {
        let circuit = random_circuit(blocks, blocks + 3, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = circuit.min_dims();
        let p = SequencePair::random(blocks, &mut rng).pack(&dims);
        let calc = CostCalculator::new(&circuit);
        let cost = calc.cost(&p, &dims);
        prop_assert!(cost.is_finite() && cost >= 0.0);
        // Without a floorplan bound the cost is translation invariant
        // (wirelength and bbox half-perimeter are relative measures).
        let shifted = Placement::new(
            p.coords()
                .iter()
                .map(|c| mps_geom::Point::new(c.x + dx, c.y + dy))
                .collect(),
        );
        let shifted_cost = calc.cost(&shifted, &dims);
        prop_assert!((cost - shifted_cost).abs() < 1e-6,
            "cost {cost} vs shifted {shifted_cost}");
    }

    // ------------------------------------------------------------------
    // The incremental evaluator is the full cost, bit for bit, through
    // any stream of one-block moves — overlapping and escaping states,
    // pad nets on every side, multi-pin nets at off-centre offsets,
    // weighted nets, with and without floorplan and symmetry — and inside
    // a box from `expand_placement`, where it keeps no penalty terms.
    // ------------------------------------------------------------------

    #[test]
    fn incremental_cost_matches_full_cost_bit_for_bit(
        seed in 0u64..5_000,
        blocks in 2usize..9,
        bounded in 0u8..2,
        symmetric in 0u8..2,
        within in 0u8..2,
        steps in 1usize..60,
    ) {
        let circuit = circuit_with_pads(blocks, blocks + 3, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1C05);
        let fp = circuit.suggested_floorplan(1.0);
        let (placement, dims_box) = if within == 1 {
            // A packing at minimum dimensions, spread so blocks can grow.
            let packed = SequencePair::random(blocks, &mut rng).pack(&circuit.min_dims());
            let spread: Placement =
                packed.coords().iter().map(|p| Point::new(p.x * 2, p.y * 2)).collect();
            let Ok(dims_box) = expand_placement(&circuit, &spread, &fp, &ExpansionConfig::default())
            else {
                return Ok(()); // the spread escaped the floorplan
            };
            (spread, dims_box)
        } else {
            // Coordinates reach past the floorplan's lower-left corner
            // and are dense enough that blocks overlap. Any two blocks
            // overlap at the box's upper corner, so the evaluator tracks
            // the penalty terms.
            let placement: Placement = (0..blocks)
                .map(|_| {
                    Point::new(
                        rng.random_range(-20..fp.width()),
                        rng.random_range(-20..fp.height()),
                    )
                })
                .collect();
            let wide = BlockRanges::new(Interval::new(1, 1_000), Interval::new(1, 1_000));
            (placement, DimsBox::new(vec![wide; blocks]))
        };
        let symmetry = SymmetryConstraints::new(vec![SymmetryGroup {
            pairs: vec![(BlockId(0), BlockId(1))],
            self_symmetric: (2..blocks.min(4)).map(BlockId).collect(),
        }]);
        let mut calc = CostCalculator::new(&circuit);
        if bounded == 1 {
            calc = calc.with_floorplan(fp);
        }
        if symmetric == 1 {
            calc = calc
                .with_weights(CostWeights { symmetry: 2.5, ..CostWeights::default() })
                .with_symmetry(&symmetry);
        }
        // Random dimensions, clamped into the box.
        let ranges = dims_box.ranges();
        let random_dims = |i: usize, rng: &mut StdRng| {
            let (w, h) = (rng.random_range(1..80), rng.random_range(1..80));
            (ranges[i].w.clamp_value(w), ranges[i].h.clamp_value(h))
        };
        let mut dims: Vec<(Coord, Coord)> = (0..blocks).map(|i| random_dims(i, &mut rng)).collect();
        let upper: Vec<(Coord, Coord)> = ranges.iter().map(|r| (r.w.hi(), r.h.hi())).collect();
        prop_assert_eq!(placement.is_legal(&upper, Some(&fp)), within == 1);

        let mut eval = calc.incremental(&placement, &dims, &dims_box);
        prop_assert_eq!(eval.energy().to_bits(), calc.cost(&placement, &dims).to_bits());
        let mut bb_moves = 0;
        for step in 0..steps {
            let (i, d) = if step == 0 {
                // Resize the block reaching the right edge: the bounding
                // box moves, so every pad net must be recosted.
                let i = (0..blocks)
                    .max_by_key(|&i| placement.rect(i, &dims).right())
                    .unwrap();
                let w = match within {
                    1 if dims[i].0 == ranges[i].w.hi() => ranges[i].w.lo(),
                    1 => ranges[i].w.hi(),
                    _ => dims[i].0 + 7,
                };
                (i, (w, dims[i].1))
            } else if rng.random_bool(0.1) {
                let i = rng.random_range(0..blocks);
                (i, dims[i])
            } else {
                let i = rng.random_range(0..blocks);
                (i, random_dims(i, &mut rng))
            };
            let mut proposed = dims.clone();
            proposed[i] = d;
            if placement.bounding_box(&proposed) != placement.bounding_box(&dims) {
                bb_moves += 1;
            }
            if within == 1 {
                prop_assert!(placement.is_legal(&proposed, Some(&fp)));
            }
            let energy = eval.propose(i, d);
            prop_assert_eq!(
                energy.to_bits(),
                calc.cost(&placement, &proposed).to_bits(),
                "step {}: proposal of block {} to {:?}", step, i, d
            );
            if rng.random_bool(0.5) {
                eval.commit();
                dims = proposed;
            }
            prop_assert_eq!(
                eval.energy().to_bits(),
                calc.cost(&placement, &dims).to_bits(),
                "step {}: current state after accept/reject", step
            );
        }
        let sides: Vec<PadSide> = circuit.nets().iter().filter_map(|n| n.pad().map(|p| p.side)).collect();
        for side in [PadSide::Left, PadSide::Right, PadSide::Bottom, PadSide::Top] {
            prop_assert!(sides.contains(&side));
        }
        // Inside a box the first move may leave the bounding box where it
        // was (the block cannot resize, or another block shares its right
        // edge); `tests/bdio_differential.rs` in mps-core covers box moves
        // there.
        if within == 0 {
            prop_assert!(bb_moves > 0, "no move changed the bounding box");
        }
    }

    // ------------------------------------------------------------------
    // Templates freeze an arrangement but always stay legal.
    // ------------------------------------------------------------------

    #[test]
    fn template_from_any_legal_placement_instantiates_legally(
        seed in 0u64..5_000,
        blocks in 2usize..10,
        scale in 1i64..4,
    ) {
        let circuit = random_circuit(blocks, blocks + 1, seed);
        let mut rng = StdRng::seed_from_u64(!seed);
        let base_dims = circuit.min_dims();
        let source = SequencePair::random(blocks, &mut rng).pack(&base_dims);
        let template = Template::from_placement(&source, &base_dims);
        let big_dims: Vec<(Coord, Coord)> = circuit
            .blocks()
            .iter()
            .map(|b| {
                (
                    (b.min_width() * scale).min(b.max_width()),
                    (b.min_height() * scale).min(b.max_height()),
                )
            })
            .collect();
        prop_assert!(template.instantiate(&big_dims).is_legal(&big_dims, None));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // ------------------------------------------------------------------
    // Expansion against cached rectangles returns exactly what the
    // clone-per-probe expansion returned, on the nine benchmark circuits
    // and on ladders, for placements legal and illegal at the minima.
    // ------------------------------------------------------------------

    #[test]
    fn expansion_matches_clone_per_probe_reference(
        seed in 0u64..100_000,
        which in 0usize..12,
        mode in 0u8..3,
        slack in 1.1f64..2.2,
        divisor in 1i64..12,
    ) {
        let circuit = differential_circuit(which);
        let fp = circuit.suggested_floorplan(slack);
        let mut rng = StdRng::seed_from_u64(seed);
        let placement = draw_placement(&circuit, &fp, mode, &mut rng);
        let config = ExpansionConfig { step_divisor: divisor };
        prop_assert_eq!(
            expand_placement(&circuit, &placement, &fp, &config),
            reference_expand_placement(&circuit, &placement, &fp, &config)
        );
    }
}

/// The nine Table-1 circuits (`which < 9`), then ladders of 1, 4 and 12
/// rungs.
fn differential_circuit(which: usize) -> Circuit {
    match which.checked_sub(9) {
        None => benchmarks::all().swap_remove(which).circuit,
        Some(k) => modgen::ladder_circuit([1, 4, 12][k], 1.0).0,
    }
}

/// A placement at minimum dimensions: scattered at random over the
/// floorplan (mostly illegal), a packed random sequence pair (legal unless
/// it escapes the floorplan), or that packing spread apart and jittered
/// (either), sometimes pushed past the floorplan's edge.
fn draw_placement(circuit: &Circuit, fp: &Rect, mode: u8, rng: &mut StdRng) -> Placement {
    let n = circuit.block_count();
    let min_dims = circuit.min_dims();
    let coords: Vec<Point> = match mode {
        0 => (0..n)
            .map(|_| {
                Point::new(
                    rng.random_range(fp.left()..fp.right()),
                    rng.random_range(fp.bottom()..fp.top()),
                )
            })
            .collect(),
        _ => {
            let packed = SequencePair::random(n, rng).pack(&min_dims);
            if mode == 1 {
                packed.coords().to_vec()
            } else {
                let spread = rng.random_range(1..4);
                packed
                    .coords()
                    .iter()
                    .map(|p| {
                        Point::new(
                            p.x * spread + rng.random_range(-3..=3),
                            p.y * spread + rng.random_range(-3..=3),
                        )
                    })
                    .collect()
            }
        }
    };
    let shift = if rng.random_bool(0.1) { -1 } else { 0 };
    Placement::new(
        coords
            .into_iter()
            .map(|p| Point::new(p.x + shift, p.y))
            .collect(),
    )
}

/// `expand_placement` as it was before it cached the block rectangles:
/// every probe clones the whole end-dimension vector and rebuilds all n
/// rectangles from it. Same probe sequence: round-robin over `(block,
/// axis)`, halving steps, moving on after each success.
fn reference_expand_placement(
    circuit: &Circuit,
    placement: &Placement,
    floorplan: &Rect,
    config: &ExpansionConfig,
) -> Result<DimsBox, ExpandPlacementError> {
    let n = circuit.block_count();
    let mut end_dims: Vec<(Coord, Coord)> = circuit.min_dims().into_vec();
    if !placement.is_legal(&end_dims, Some(floorplan)) {
        return Err(ExpandPlacementError);
    }
    let divisor = config.step_divisor.max(1);
    let mut steps: Vec<[Coord; 2]> = circuit
        .blocks()
        .iter()
        .map(|b| {
            let wr = (b.max_width() - b.min_width()) / divisor;
            let hr = (b.max_height() - b.min_height()) / divisor;
            [wr.max(1), hr.max(1)]
        })
        .collect();
    let legal_for = |i: usize, end_dims: &[(Coord, Coord)]| -> bool {
        let r = placement.rect(i, end_dims);
        if !r.fits_inside(floorplan) {
            return false;
        }
        (0..n)
            .filter(|&j| j != i)
            .all(|j| !r.overlaps(&placement.rect(j, end_dims)))
    };
    let mut any_active = true;
    while any_active {
        any_active = false;
        for i in 0..n {
            let block = &circuit.blocks()[i];
            for (axis, max_dim) in [(0usize, block.max_width()), (1, block.max_height())] {
                while steps[i][axis] > 0 {
                    let current = if axis == 0 {
                        end_dims[i].0
                    } else {
                        end_dims[i].1
                    };
                    if current >= max_dim {
                        steps[i][axis] = 0;
                        break;
                    }
                    let step = steps[i][axis].min(max_dim - current);
                    let mut trial = end_dims.clone();
                    if axis == 0 {
                        trial[i].0 += step;
                    } else {
                        trial[i].1 += step;
                    }
                    if legal_for(i, &trial) {
                        end_dims = trial;
                        any_active = true;
                        break;
                    }
                    steps[i][axis] /= 2;
                }
            }
        }
    }
    let ranges = circuit
        .min_dims()
        .iter()
        .zip(&end_dims)
        .map(|(&(w_min, h_min), &(w_end, h_end))| {
            BlockRanges::new(Interval::new(w_min, w_end), Interval::new(h_min, h_end))
        })
        .collect();
    Ok(DimsBox::new(ranges))
}

#[test]
fn expansion_differential_draws_reach_both_outcomes() {
    // The differential property above is only as strong as its draws:
    // each kind of circuit must see placements legal and illegal at the
    // minima.
    for which in [0, 8, 11] {
        let circuit = differential_circuit(which);
        let fp = circuit.suggested_floorplan(1.5);
        let mut rng = StdRng::seed_from_u64(which as u64);
        let (mut ok, mut err) = (0, 0);
        for k in 0..60u8 {
            let placement = draw_placement(&circuit, &fp, k % 3, &mut rng);
            match expand_placement(&circuit, &placement, &fp, &ExpansionConfig::default()) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        assert!(
            ok >= 5 && err >= 5,
            "circuit {which}: {ok} legal, {err} illegal"
        );
    }
}

#[test]
fn expansion_inside_tight_floorplan_stays_inside() {
    // Deterministic guard: floorplan exactly one block's max size.
    let circuit = random_circuit(1, 1, 3);
    let b = &circuit.blocks()[0];
    let fp = Rect::from_xywh(0, 0, b.max_width() + 1, b.max_height() + 1);
    let p = Placement::new(vec![mps_geom::Point::new(0, 0)]);
    let dbox = expand_placement(&circuit, &p, &fp, &ExpansionConfig::default()).unwrap();
    assert!(dbox.ranges()[0].w.hi() <= b.max_width());
    assert!(dbox.ranges()[0].h.hi() <= b.max_height());
}

/// `random_circuit` with its pins moved to random off-centre offsets,
/// pads on four nets in five (nets 0 to 3 cover the four sides) and
/// non-unit weights on every third, so that the wirelength sum mixes
/// weights and depends on the bounding box.
fn circuit_with_pads(blocks: usize, nets: usize, seed: u64) -> Circuit {
    let base = random_circuit(blocks, nets, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9AD5);
    let sides = [PadSide::Left, PadSide::Right, PadSide::Bottom, PadSide::Top];
    let fraction = |rng: &mut StdRng| rng.random_range(0..=20) as f32 / 20.0;
    let nets = base
        .nets()
        .iter()
        .enumerate()
        .map(|(k, net)| {
            let pins = net
                .pins()
                .iter()
                .map(|pin| Pin::at(pin.block, fraction(&mut rng), fraction(&mut rng)))
                .collect();
            let mut net = Net::new(net.name(), pins);
            if k % 5 != 4 {
                net = net.with_pad(Pad::new(sides[k % 4], fraction(&mut rng)));
            }
            if k % 3 == 1 {
                net = net.with_weight(f64::from(rng.random_range(1..40)) / 7.0);
            }
            net
        })
        .collect();
    Circuit::new(base.name(), base.blocks().to_vec(), nets).expect("pads keep the circuit valid")
}
