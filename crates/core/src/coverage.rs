//! Coverage of the dimension space (the explorer's stopping criterion).
//!
//! §3.1.4: "a value representing the percentage coverage of the widths and
//! heights ranges space is calculated and updated. The placement explorer
//! algorithm keeps running until an acceptable value (set by the user) of
//! that percentage is reached knowing that the ideal 100% value can never
//! be reached."
//!
//! Two measures are provided:
//!
//! * [`volume_coverage`] — the fraction of the 2N-dimensional dimension
//!   space covered by the (pairwise disjoint) validity boxes. This is the
//!   stopping criterion: because Eq.-6 shrinking keeps each box a modest
//!   fraction of every axis, a single box covers an exponentially small
//!   volume in 2N, so large circuits need many placements and never
//!   approach 100% — exactly the behaviour (and the placement counts
//!   growing with block count) reported in Table 2.
//! * [`row_coverage`] — the average per-row covered fraction; a cheap
//!   diagnostic of how much of each block's size range is served by at
//!   least one placement (uncovered remainders fall through to the backup
//!   template).

use crate::MultiPlacementStructure;
use mps_geom::Axis;

/// Fraction of the dimension-space volume covered by live validity boxes,
/// in `[0, 1]`.
///
/// Computed in log space: each box contributes
/// `exp(Σ_d ln len_d(box) − Σ_d ln len_d(bounds))`. Boxes are pairwise
/// disjoint (Eq. 5), so the contributions sum without double-counting.
///
/// The box terms `Σ_d ln len_d(box)` are the log-volumes the structure
/// caches per entry whenever a box is stored, shrunk or loaded, so a call
/// costs one `exp` per live entry (the explorer checks coverage before
/// every proposal). The contributions are summed in id order, exactly as
/// recomputing each `DimsBox::log_volume` would, so the result is the
/// same to the bit.
#[must_use]
pub fn volume_coverage(mps: &MultiPlacementStructure) -> f64 {
    let total_log: f64 = mps
        .bounds()
        .iter()
        .flat_map(|b| [b.w.len(), b.h.len()])
        .map(|l| (l as f64).ln())
        .sum();
    let covered: f64 = mps
        .live_log_volumes()
        .map(|lv| (lv - total_log).exp())
        .sum();
    covered.min(1.0)
}

/// Average per-row covered fraction of the structure, in `[0, 1]`.
///
/// Returns 0 for an empty structure and 1 when every row's full designer
/// range carries at least one placement.
#[must_use]
pub fn row_coverage(mps: &MultiPlacementStructure) -> f64 {
    let n = mps.block_count();
    if n == 0 {
        return 0.0;
    }
    let index = mps.index();
    let mut total = 0.0;
    for (i, bounds) in mps.bounds().iter().enumerate() {
        for axis in [Axis::Width, Axis::Height] {
            let range_len = bounds.along(axis).len() as f64;
            total += (index.covered_len(i, axis) as f64 / range_len).min(1.0);
        }
    }
    total / (2 * n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultiPlacementStructure, StoredPlacement};
    use mps_geom::{BlockRanges, DimsBox, Interval, Point, Rect};
    use mps_netlist::{Block, Circuit};
    use mps_placer::Placement;

    fn circuit() -> Circuit {
        Circuit::builder("c")
            .block(Block::new("A", 10, 109, 10, 109))
            .build()
            .unwrap()
    }

    fn entry(w: (i64, i64), h: (i64, i64)) -> StoredPlacement {
        StoredPlacement {
            placement: Placement::new(vec![Point::new(0, 0)]),
            dims_box: DimsBox::new(vec![BlockRanges::new(
                Interval::new(w.0, w.1),
                Interval::new(h.0, h.1),
            )]),
            avg_cost: 1.0,
            best_cost: 1.0,
            best_dims: mps_geom::dims![(w.0, h.0)],
        }
    }

    #[test]
    fn empty_structure_has_zero_coverage() {
        let mps = MultiPlacementStructure::new(&circuit(), Rect::from_xywh(0, 0, 500, 500));
        assert_eq!(volume_coverage(&mps), 0.0);
        assert_eq!(row_coverage(&mps), 0.0);
    }

    #[test]
    fn half_width_box_covers_half_volume() {
        let mut mps = MultiPlacementStructure::new(&circuit(), Rect::from_xywh(0, 0, 500, 500));
        // Width covered [10,59] = 50 of 100; height fully [10,109].
        mps.insert_unchecked(entry((10, 59), (10, 109)));
        assert!((volume_coverage(&mps) - 0.5).abs() < 1e-9);
        assert!((row_coverage(&mps) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn disjoint_boxes_accumulate_volume() {
        let mut mps = MultiPlacementStructure::new(&circuit(), Rect::from_xywh(0, 0, 500, 500));
        mps.insert_unchecked(entry((10, 59), (10, 59)));
        mps.insert_unchecked(entry((60, 109), (10, 59)));
        // Each box is a quarter of the space.
        assert!((volume_coverage(&mps) - 0.5).abs() < 1e-9);
        // Rows: width fully covered, height half covered.
        assert!((row_coverage(&mps) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn full_box_covers_everything() {
        let mut mps = MultiPlacementStructure::new(&circuit(), Rect::from_xywh(0, 0, 500, 500));
        mps.insert_unchecked(entry((10, 109), (10, 109)));
        assert!((volume_coverage(&mps) - 1.0).abs() < 1e-9);
        assert!((row_coverage(&mps) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn volume_coverage_shrinks_exponentially_with_dims() {
        // Two blocks, each box half of each axis: volume fraction 1/16.
        let c = Circuit::builder("c2")
            .block(Block::new("A", 10, 109, 10, 109))
            .block(Block::new("B", 10, 109, 10, 109))
            .build()
            .unwrap();
        let mut mps = MultiPlacementStructure::new(&c, Rect::from_xywh(0, 0, 900, 900));
        mps.insert_unchecked(StoredPlacement {
            placement: Placement::new(vec![Point::new(0, 0), Point::new(300, 300)]),
            dims_box: DimsBox::new(vec![
                BlockRanges::new(Interval::new(10, 59), Interval::new(10, 59)),
                BlockRanges::new(Interval::new(10, 59), Interval::new(10, 59)),
            ]),
            avg_cost: 1.0,
            best_cost: 1.0,
            best_dims: mps_geom::dims![(10, 10), (10, 10)],
        });
        assert!((volume_coverage(&mps) - 1.0 / 16.0).abs() < 1e-9);
    }
}
