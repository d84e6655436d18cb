//! Placement Expansion (§3.1.2).
//!
//! "This step takes in the selected placement with its blocks' dimensions
//! ranges set to their minimum and expands them on the floor-plan while
//! keeping them from overlapping. Blocks have their dimensions incremented
//! one by one until no further expansion is possible due to overlapping or
//! out-of-bounds constraints. This expansion would form an interval of
//! widths and heights for the blocks."

use crate::Placement;
use mps_geom::{BlockRanges, Coord, DimsBox, Interval, Rect};
use mps_netlist::Circuit;
use std::fmt;

/// Tuning knobs for [`expand_placement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpansionConfig {
    /// Initial growth step as a fraction of each dimension's full range:
    /// `step = max(1, range / step_divisor)`. The step halves on failure,
    /// so expansion is `O(log range)` probes per dimension rather than one
    /// probe per grid unit.
    pub step_divisor: Coord,
}

impl Default for ExpansionConfig {
    fn default() -> Self {
        Self { step_divisor: 8 }
    }
}

/// Error returned by [`expand_placement`] when the candidate placement
/// overlaps (or escapes the floorplan) even with every block at its
/// designer minimum — such a placement covers no dimension space at all and
/// must be rejected by the explorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpandPlacementError;

impl fmt::Display for ExpandPlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "placement is illegal at minimum block dimensions")
    }
}

impl std::error::Error for ExpandPlacementError {}

/// Expands block dimensions from their minima until overlap or
/// out-of-bounds, returning the validity box `[w_min, w_end] × [h_min,
/// h_end]` per block.
///
/// The returned box carries the anchoring guarantee the multi-placement
/// structure relies on: the floorplan is overlap-free and in bounds with
/// *every* block simultaneously at its expanded maximum, hence (lower-left
/// anchored blocks) for every dimension vector inside the box.
///
/// Growth is round-robin over `(block, axis)` with a halving step, so each
/// dimension converges to its true maximum (the final probes have step 1)
/// while large ranges are covered in logarithmic time.
///
/// # Errors
///
/// Returns [`ExpandPlacementError`] if the placement is already illegal at
/// minimum dimensions.
///
/// # Panics
///
/// Panics if `placement.block_count()` differs from the circuit's.
pub fn expand_placement(
    circuit: &Circuit,
    placement: &Placement,
    floorplan: &Rect,
    config: &ExpansionConfig,
) -> Result<DimsBox, ExpandPlacementError> {
    let n = circuit.block_count();
    assert_eq!(placement.block_count(), n, "placement arity mismatch");
    let mut end_dims: Vec<(Coord, Coord)> = circuit.min_dims().into_vec();
    if !placement.is_legal(&end_dims, Some(floorplan)) {
        return Err(ExpandPlacementError);
    }

    // Per-(block, axis) adaptive steps; 0 marks an exhausted dimension.
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

    // Every block's rectangle at its current end dimensions. A probe
    // builds only the grown block's trial rectangle and tests it against
    // these; the others cannot move while block `i` grows.
    let mut rects = placement.rects(&end_dims);
    let fits = |i: usize, trial: &Rect, rects: &[Rect]| -> bool {
        trial.fits_inside(floorplan)
            && !rects[..i].iter().any(|r| trial.overlaps(r))
            && !rects[i + 1..].iter().any(|r| trial.overlaps(r))
    };

    let mut any_active = true;
    while any_active {
        any_active = false;
        for i in 0..n {
            let block = &circuit.blocks()[i];
            for (axis, max_dim) in [(0usize, block.max_width()), (1, block.max_height())] {
                while steps[i][axis] > 0 {
                    let (w, h) = end_dims[i];
                    let current = if axis == 0 { w } else { h };
                    if current >= max_dim {
                        steps[i][axis] = 0;
                        break;
                    }
                    let step = steps[i][axis].min(max_dim - current);
                    let grown = if axis == 0 {
                        (w + step, h)
                    } else {
                        (w, h + step)
                    };
                    let trial = Rect::new(placement.coords()[i], grown.0, grown.1);
                    if fits(i, &trial, &rects) {
                        end_dims[i] = grown;
                        rects[i] = trial;
                        any_active = true;
                        break; // move on round-robin; retry this dim next pass
                    }
                    steps[i][axis] /= 2;
                }
            }
        }
    }

    debug_assert!(placement.is_legal(&end_dims, Some(floorplan)));
    let min_dims = circuit.min_dims();
    let ranges: Vec<BlockRanges> = min_dims
        .iter()
        .zip(&end_dims)
        .map(|(&(w_min, h_min), &(w_end, h_end))| {
            BlockRanges::new(Interval::new(w_min, w_end), Interval::new(h_min, h_end))
        })
        .collect();
    Ok(DimsBox::new(ranges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_geom::Point;
    use mps_netlist::{benchmarks, Block, Circuit};

    fn two_block_circuit() -> Circuit {
        Circuit::builder("t")
            .block(Block::new("A", 10, 100, 10, 100))
            .block(Block::new("B", 10, 100, 10, 100))
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn expansion_fills_available_space() {
        let c = two_block_circuit();
        let fp = Rect::from_xywh(0, 0, 200, 100);
        // Side by side with a 100-unit-wide floorplan half each.
        let p = Placement::new(vec![Point::new(0, 0), Point::new(100, 0)]);
        let dbox = expand_placement(&c, &p, &fp, &ExpansionConfig::default()).unwrap();
        // Block 0 can grow to w=100 (until block 1) and h=100.
        assert_eq!(dbox.ranges()[0].w, Interval::new(10, 100));
        assert_eq!(dbox.ranges()[0].h, Interval::new(10, 100));
        assert_eq!(dbox.ranges()[1].w, Interval::new(10, 100));
    }

    #[test]
    fn expansion_is_blocked_by_neighbor() {
        let c = two_block_circuit();
        let fp = Rect::from_xywh(0, 0, 300, 300);
        // Block 1 sits 40 to the right: block 0 width caps at 40 unless it
        // grows around — it cannot, origins are fixed and y-ranges overlap.
        let p = Placement::new(vec![Point::new(0, 0), Point::new(40, 0)]);
        let dbox = expand_placement(&c, &p, &fp, &ExpansionConfig::default()).unwrap();
        assert_eq!(dbox.ranges()[0].w.hi(), 40);
    }

    #[test]
    fn expansion_is_blocked_by_floorplan() {
        let c = two_block_circuit();
        let fp = Rect::from_xywh(0, 0, 150, 60);
        let p = Placement::new(vec![Point::new(0, 0), Point::new(80, 0)]);
        let dbox = expand_placement(&c, &p, &fp, &ExpansionConfig::default()).unwrap();
        assert!(dbox.ranges()[0].h.hi() <= 60);
        assert!(dbox.ranges()[1].w.hi() <= 70); // 150 - 80
    }

    #[test]
    fn illegal_at_minima_is_rejected() {
        let c = two_block_circuit();
        let fp = Rect::from_xywh(0, 0, 300, 300);
        let p = Placement::new(vec![Point::new(0, 0), Point::new(5, 5)]);
        assert_eq!(
            expand_placement(&c, &p, &fp, &ExpansionConfig::default()),
            Err(ExpandPlacementError)
        );
    }

    #[test]
    fn out_of_floorplan_minima_rejected() {
        let c = two_block_circuit();
        let fp = Rect::from_xywh(0, 0, 300, 300);
        let p = Placement::new(vec![Point::new(-5, 0), Point::new(100, 0)]);
        assert!(expand_placement(&c, &p, &fp, &ExpansionConfig::default()).is_err());
    }

    #[test]
    fn expanded_box_end_corner_is_legal() {
        // The anchoring guarantee: all blocks at (w_end, h_end)
        // simultaneously must be overlap-free and in bounds.
        let c = benchmarks::two_stage_opamp();
        let fp = c.suggested_floorplan(1.5);
        // A spread-out diagonal placement.
        let coords: Vec<Point> = (0..c.block_count())
            .map(|i| Point::new((i as Coord) * 80, (i as Coord) * 60))
            .collect();
        let p = Placement::new(coords);
        if let Ok(dbox) = expand_placement(&c, &p, &fp, &ExpansionConfig::default()) {
            let end: Vec<(Coord, Coord)> =
                dbox.ranges().iter().map(|r| (r.w.hi(), r.h.hi())).collect();
            assert!(p.is_legal(&end, Some(&fp)));
        }
    }

    #[test]
    fn expansion_reaches_exact_obstacle_boundary() {
        // Step-halving must converge to the exact limit, not quit early.
        let c = Circuit::builder("t")
            .block(Block::new("A", 10, 1000, 10, 1000))
            .block(Block::new("B", 10, 1000, 10, 1000))
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap();
        let fp = Rect::from_xywh(0, 0, 2000, 2000);
        let p = Placement::new(vec![Point::new(0, 0), Point::new(537, 0)]);
        let dbox = expand_placement(&c, &p, &fp, &ExpansionConfig::default()).unwrap();
        assert_eq!(dbox.ranges()[0].w.hi(), 537);
    }

    #[test]
    fn expansion_respects_block_maxima() {
        let c = Circuit::builder("t")
            .block(Block::new("A", 10, 25, 10, 25))
            .build()
            .unwrap();
        let fp = Rect::from_xywh(0, 0, 1000, 1000);
        let p = Placement::new(vec![Point::new(0, 0)]);
        let dbox = expand_placement(&c, &p, &fp, &ExpansionConfig::default()).unwrap();
        assert_eq!(dbox.ranges()[0].w, Interval::new(10, 25));
        assert_eq!(dbox.ranges()[0].h, Interval::new(10, 25));
    }

    #[test]
    fn box_stays_within_circuit_bounds() {
        let c = benchmarks::circ01();
        let fp = c.suggested_floorplan(2.0);
        let p = Placement::new(vec![
            Point::new(0, 0),
            Point::new(200, 0),
            Point::new(0, 200),
            Point::new(200, 200),
        ]);
        if let Ok(dbox) = expand_placement(&c, &p, &fp, &ExpansionConfig::default()) {
            dbox.check_within_bounds(&c.dim_bounds()).unwrap();
        }
    }
}
