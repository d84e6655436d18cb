//! Deterministic synthetic structures with an exact region budget.
//!
//! The annealing generator produces realistic structures, but its region
//! count is an *outcome* — wall-clock grows superlinearly with scale and
//! two runs at different sizes differ in every distributional respect.
//! Scaling experiments (the benchmark's 10x-region structure, which
//! measures compiled-index cost far beyond the Table-1 sizes) need the
//! opposite: structures that differ **only** in region count, cheap
//! enough to manufacture at 10x scale inside a CI budget.
//!
//! [`grid_structure`] builds one by construction instead of by search:
//! it slices a few leading dimension axes into equal sub-ranges and
//! takes the cross product, yielding pairwise-disjoint validity boxes
//! (distinct slices of the same axis cannot overlap) that tile the
//! entire designer-bounds space — Eq. 5 holds by construction and
//! coverage is exactly 100%. Every region's placement is the row packing
//! at its box's upper corner, which is legal on the (sufficiently wide)
//! synthetic floorplan, so [`MultiPlacementStructure::check_invariants`]
//! passes in full. Unsliced axes keep one full-range segment shared by
//! every region — the fully-overlapping-row degenerate case the
//! compiled-index equivalence tests also want covered.

use crate::{MultiPlacementStructure, StoredPlacement};
use mps_geom::{BlockRanges, Coord, Dims, DimsBox, Interval, Rect};
use mps_netlist::Circuit;
use mps_placer::SequencePair;

/// Builds a structure over `circuit`'s designer bounds with close to
/// `target_regions` pairwise-disjoint validity regions (the exact count
/// is the nearest achievable grid product; read it back with
/// [`MultiPlacementStructure::placement_count`]).
///
/// `seed` perturbs the stored cost metadata only — the geometry is fully
/// determined by the circuit and the target, so two calls with the same
/// arguments produce identical structures.
///
/// # Panics
///
/// Panics if `target_regions == 0`.
#[must_use]
pub fn grid_structure(
    circuit: &Circuit,
    target_regions: usize,
    seed: u64,
) -> MultiPlacementStructure {
    assert!(target_regions > 0, "need at least one region");
    let bounds = circuit.dim_bounds();
    let blocks = bounds.len();
    // Flatten the 2N axes in block order (w then h per block) and slice
    // leading axes as deeply as each axis allows before touching the
    // next — the shape real structures take, where region growth comes
    // from subdividing the most sensitive dimensions more finely rather
    // than coarsely bisecting every axis. Keeping the first axis
    // outermost in the region enumeration makes ids contiguous within
    // each first-axis slice, mirroring how real rows cluster candidates.
    let axis_lens: Vec<u64> = bounds.iter().flat_map(|b| [b.w.len(), b.h.len()]).collect();
    let mut slices: Vec<u64> = vec![1; axis_lens.len()];
    let mut remaining = target_regions as u64;
    for (i, &len) in axis_lens.iter().enumerate() {
        if remaining <= 1 {
            break;
        }
        let n = remaining.min(len.max(1));
        slices[i] = n;
        remaining = remaining.div_ceil(n);
    }
    let regions: u64 = slices.iter().product();

    // Floorplan wide enough for a single row of every block at its
    // maximal dimensions: the upper-corner packing is legal by
    // construction for every region.
    let total_w: Coord = bounds.iter().map(|b| b.w.hi()).sum();
    let max_h: Coord = bounds.iter().map(|b| b.h.hi()).max().unwrap_or(1);
    let floorplan = Rect::from_xywh(0, 0, total_w.max(1), max_h.max(1));
    let mut mps = MultiPlacementStructure::new(circuit, floorplan);

    // Equal integer slicing of a closed interval into n sub-ranges.
    let slice_of = |iv: Interval, n: u64, j: u64| -> Interval {
        let len = iv.len();
        let lo = iv.lo() + (j * len / n) as Coord;
        let hi = iv.lo() + ((j + 1) * len / n) as Coord - 1;
        Interval::new(lo, hi)
    };

    let pair = SequencePair::row(blocks);
    let mut cost_state = seed | 1;
    let mut next_cost = move || {
        cost_state ^= cost_state << 13;
        cost_state ^= cost_state >> 7;
        cost_state ^= cost_state << 17;
        1.0 + (cost_state % 1024) as f64 / 1024.0
    };
    // Mixed-radix enumeration, first axis outermost.
    let mut digits: Vec<u64> = vec![0; slices.len()];
    for _ in 0..regions {
        let ranges: Vec<BlockRanges> = (0..blocks)
            .map(|b| {
                BlockRanges::new(
                    slice_of(bounds[b].w, slices[2 * b], digits[2 * b]),
                    slice_of(bounds[b].h, slices[2 * b + 1], digits[2 * b + 1]),
                )
            })
            .collect();
        let top: Vec<(Coord, Coord)> = ranges.iter().map(|r| (r.w.hi(), r.h.hi())).collect();
        let best_dims: Dims = top.iter().copied().collect();
        let best_cost = next_cost();
        mps.insert_unchecked(StoredPlacement {
            placement: pair.pack(&top),
            dims_box: DimsBox::new(ranges),
            avg_cost: best_cost + 0.25,
            best_cost,
            best_dims,
        });
        // Increment the mixed-radix counter, last axis fastest.
        for d in (0..digits.len()).rev() {
            digits[d] += 1;
            if digits[d] < slices[d] {
                break;
            }
            digits[d] = 0;
        }
    }
    mps
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_netlist::benchmarks;

    #[test]
    fn grid_structure_hits_the_budget_and_holds_every_invariant() {
        let circuit = benchmarks::circ01();
        let mps = grid_structure(&circuit, 200, 9);
        let count = mps.placement_count();
        assert!(
            (200..=400).contains(&count),
            "grid product {count} strayed from the 200-region target"
        );
        mps.check_invariants().unwrap();
        // The grid tiles the whole bounds: full coverage.
        assert!((mps.coverage() - 1.0).abs() < 1e-9, "{}", mps.coverage());
    }

    #[test]
    fn every_region_answers_at_its_upper_corner() {
        let circuit = benchmarks::circ01();
        let mps = grid_structure(&circuit, 64, 1);
        for (id, entry) in mps.iter() {
            let top: Dims = entry
                .dims_box
                .ranges()
                .iter()
                .map(|r| (r.w.hi(), r.h.hi()))
                .collect();
            assert_eq!(mps.query(&top), Some(id));
        }
    }

    #[test]
    fn same_arguments_reproduce_the_same_structure() {
        let circuit = benchmarks::circ02();
        let a = grid_structure(&circuit, 100, 42);
        let b = grid_structure(&circuit, 100, 42);
        assert_eq!(a.placement_count(), b.placement_count());
        let probe = circuit.min_dims();
        assert_eq!(a.query(&probe), b.query(&probe));
    }

    #[test]
    fn region_count_scales_an_order_of_magnitude() {
        let circuit = benchmarks::circ02();
        let small = grid_structure(&circuit, 150, 3);
        let big = grid_structure(&circuit, 1500, 3);
        assert!(big.placement_count() >= 10 * small.placement_count() / 2);
        big.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn zero_budget_is_rejected() {
        let _ = grid_structure(&benchmarks::circ01(), 0, 1);
    }
}
