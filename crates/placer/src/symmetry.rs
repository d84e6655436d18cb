//! Analog symmetry constraints (extension).
//!
//! Analog layout quality depends on matched devices being placed
//! symmetrically about a common axis (differential pairs, mirror loads).
//! The DATE'05 paper folds such concerns into its "customizable" cost
//! function without detailing them; this module supplies the standard
//! formulation — symmetry *groups* of mirrored block pairs and
//! self-symmetric blocks about a shared vertical axis — as a soft penalty
//! that any of the placers (and the BDIO cost) can enable through
//! [`crate::CostWeights::symmetry`].

use crate::Placement;
use mps_geom::Coord;
use mps_netlist::BlockId;

/// One symmetry group: block pairs mirrored about a common vertical axis
/// plus blocks centered on it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymmetryGroup {
    /// Pairs `(left, right)` that must mirror each other.
    pub pairs: Vec<(BlockId, BlockId)>,
    /// Blocks whose center must lie on the axis.
    pub self_symmetric: Vec<BlockId>,
}

impl SymmetryGroup {
    /// A group from mirrored pairs only.
    #[must_use]
    pub fn of_pairs(pairs: Vec<(BlockId, BlockId)>) -> Self {
        Self {
            pairs,
            self_symmetric: Vec::new(),
        }
    }

    /// Number of constrained blocks in the group.
    #[must_use]
    pub fn block_count(&self) -> usize {
        2 * self.pairs.len() + self.self_symmetric.len()
    }

    /// Deviation of a placement from perfect symmetry, in grid units.
    ///
    /// The axis is not fixed a priori: for each group the best-fitting
    /// vertical axis (the mean of all pair midlines and self-symmetric
    /// centers) is computed, then the L1 deviation of every constraint from
    /// that axis is summed. Pairs additionally pay for vertical
    /// misalignment (`|y_a − y_b|` of their centers).
    #[must_use]
    pub fn deviation(&self, placement: &Placement, dims: &[(Coord, Coord)]) -> f64 {
        let samples = self.pairs.len() + self.self_symmetric.len();
        if samples == 0 {
            return 0.0;
        }
        let center_x = |b: BlockId| {
            let (w, _) = dims[b.index()];
            placement.coords()[b.index()].x as f64 + w as f64 / 2.0
        };
        let center_y = |b: BlockId| {
            let (_, h) = dims[b.index()];
            placement.coords()[b.index()].y as f64 + h as f64 / 2.0
        };
        let midline = |&(a, b): &(BlockId, BlockId)| (center_x(a) + center_x(b)) / 2.0;
        let axis = self
            .pairs
            .iter()
            .map(midline)
            .chain(self.self_symmetric.iter().map(|&s| center_x(s)))
            .sum::<f64>()
            / samples as f64;
        let mut dev = 0.0;
        for pair @ &(a, b) in &self.pairs {
            dev += (midline(pair) - axis).abs();
            dev += (center_y(a) - center_y(b)).abs();
        }
        for &s in &self.self_symmetric {
            dev += (center_x(s) - axis).abs();
        }
        dev
    }
}

/// A set of independent symmetry groups.
///
/// # Example
///
/// ```
/// use mps_geom::Point;
/// use mps_netlist::BlockId;
/// use mps_placer::{Placement, SymmetryConstraints, SymmetryGroup};
///
/// let sym = SymmetryConstraints::new(vec![SymmetryGroup::of_pairs(vec![
///     (BlockId(0), BlockId(1)),
/// ])]);
/// let dims = [(10, 10), (10, 10)];
/// let mirrored = Placement::new(vec![Point::new(0, 0), Point::new(30, 0)]);
/// assert_eq!(sym.deviation(&mirrored, &dims), 0.0);
/// let skewed = Placement::new(vec![Point::new(0, 0), Point::new(30, 7)]);
/// assert!(sym.deviation(&skewed, &dims) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymmetryConstraints {
    groups: Vec<SymmetryGroup>,
}

impl SymmetryConstraints {
    /// Creates constraints from groups.
    #[must_use]
    pub fn new(groups: Vec<SymmetryGroup>) -> Self {
        Self { groups }
    }

    /// No constraints: deviation is always zero.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// The groups.
    #[must_use]
    pub fn groups(&self) -> &[SymmetryGroup] {
        &self.groups
    }

    /// Total deviation over all groups.
    ///
    /// # Panics
    ///
    /// Panics if a constrained block index is outside `dims`.
    #[must_use]
    pub fn deviation(&self, placement: &Placement, dims: &[(Coord, Coord)]) -> f64 {
        self.groups
            .iter()
            .map(|g| g.deviation(placement, dims))
            .sum()
    }

    /// Whether any constraints are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(|g| g.block_count() == 0)
    }
}

#[cfg(feature = "serde")]
serde::impl_serde_struct!(SymmetryGroup {
    pairs,
    self_symmetric,
});

#[cfg(feature = "serde")]
serde::impl_serde_struct!(SymmetryConstraints { groups });

#[cfg(test)]
mod tests {
    use super::*;
    use mps_geom::Point;

    #[test]
    fn empty_constraints_cost_nothing() {
        let sym = SymmetryConstraints::none();
        let p = Placement::new(vec![Point::new(3, 4)]);
        assert_eq!(sym.deviation(&p, &[(5, 5)]), 0.0);
        assert!(sym.is_empty());
    }

    #[test]
    fn perfect_pair_has_zero_deviation() {
        let sym = SymmetryConstraints::new(vec![SymmetryGroup::of_pairs(vec![(
            BlockId(0),
            BlockId(1),
        )])]);
        let dims = [(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(0, 0), Point::new(40, 0)]);
        assert_eq!(sym.deviation(&p, &dims), 0.0);
    }

    #[test]
    fn vertical_misalignment_is_penalized() {
        let sym = SymmetryConstraints::new(vec![SymmetryGroup::of_pairs(vec![(
            BlockId(0),
            BlockId(1),
        )])]);
        let dims = [(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(0, 0), Point::new(40, 6)]);
        assert_eq!(sym.deviation(&p, &dims), 6.0);
    }

    #[test]
    fn self_symmetric_off_axis_is_penalized() {
        let group = SymmetryGroup {
            pairs: vec![(BlockId(0), BlockId(1))],
            self_symmetric: vec![BlockId(2)],
        };
        let sym = SymmetryConstraints::new(vec![group]);
        let dims = [(10, 10), (10, 10), (10, 10)];
        // Pair midline at x=25; tail block centered at x=25 → perfect.
        let aligned = Placement::new(vec![
            Point::new(0, 0),
            Point::new(40, 0),
            Point::new(20, 20),
        ]);
        assert_eq!(sym.deviation(&aligned, &dims), 0.0);
        // Tail block shifted right by 9: axis becomes the mean, both the
        // pair and the tail deviate from it.
        let shifted = Placement::new(vec![
            Point::new(0, 0),
            Point::new(40, 0),
            Point::new(29, 20),
        ]);
        assert!(sym.deviation(&shifted, &dims) > 0.0);
    }

    #[test]
    fn groups_sum_independently() {
        let g1 = SymmetryGroup::of_pairs(vec![(BlockId(0), BlockId(1))]);
        let g2 = SymmetryGroup::of_pairs(vec![(BlockId(2), BlockId(3))]);
        let sym = SymmetryConstraints::new(vec![g1.clone(), g2.clone()]);
        let dims = [(10, 10); 4];
        let p = Placement::new(vec![
            Point::new(0, 0),
            Point::new(40, 3),
            Point::new(0, 50),
            Point::new(40, 58),
        ]);
        let total = sym.deviation(&p, &dims);
        let separate = g1.deviation(&p, &dims) + g2.deviation(&p, &dims);
        assert!((total - separate).abs() < 1e-12);
        assert!(total > 0.0);
    }

    #[test]
    fn block_count_counts_members() {
        let g = SymmetryGroup {
            pairs: vec![(BlockId(0), BlockId(1)), (BlockId(2), BlockId(3))],
            self_symmetric: vec![BlockId(4)],
        };
        assert_eq!(g.block_count(), 5);
    }
}
