//! Hyper-rectangular validity regions in block-dimension space.

use crate::{Coord, Dims, Interval};
use std::fmt;

/// The width/height validity intervals of one block inside one stored
/// placement: the `(w_start, w_end, h_start, h_end)` 4-tuple of Eq. 2.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRanges {
    /// Valid width interval `[w_start, w_end]`.
    pub w: Interval,
    /// Valid height interval `[h_start, h_end]`.
    pub h: Interval,
}

impl BlockRanges {
    /// Creates the 4-tuple from the two axis intervals.
    #[must_use]
    pub fn new(w: Interval, h: Interval) -> Self {
        Self { w, h }
    }

    /// The degenerate region containing exactly one `(w, h)` point.
    #[must_use]
    pub fn point(w: Coord, h: Coord) -> Self {
        Self {
            w: Interval::point(w),
            h: Interval::point(h),
        }
    }

    /// Interval along the requested axis.
    #[must_use]
    pub fn along(&self, axis: Axis) -> Interval {
        match axis {
            Axis::Width => self.w,
            Axis::Height => self.h,
        }
    }

    /// Mutable access to the interval along the requested axis.
    pub fn along_mut(&mut self, axis: Axis) -> &mut Interval {
        match axis {
            Axis::Width => &mut self.w,
            Axis::Height => &mut self.h,
        }
    }

    /// Whether the `(w, h)` point lies inside both intervals.
    #[must_use]
    pub fn contains(&self, w: Coord, h: Coord) -> bool {
        self.w.contains(w) && self.h.contains(h)
    }
}

impl fmt::Debug for BlockRanges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{:?} h{:?}", self.w, self.h)
    }
}

/// One of the two dimension axes of a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    /// The block width `w_i`.
    Width,
    /// The block height `h_i`.
    Height,
}

impl Axis {
    /// Both axes, in `(Width, Height)` order.
    pub const ALL: [Axis; 2] = [Axis::Width, Axis::Height];
}

/// Identifies one scalar dimension of the 2N-dimensional size space:
/// block `block`'s width or height.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DimIndex {
    /// Index of the block within the circuit.
    pub block: usize,
    /// Which of the block's two dimensions.
    pub axis: Axis,
}

/// A hyper-rectangular region of the 2N-dimensional block-dimension space:
/// one width interval and one height interval per block.
///
/// Each placement stored in a multi-placement structure owns exactly one
/// `DimsBox` — the region of size space over which it is *the* placement the
/// structure returns. Eq. 5 (`|M(V)| = 1`) is maintained by keeping the
/// boxes of all stored placements pairwise disjoint; the Resolve-Overlaps
/// routine (§3.1.3) operates on these boxes through
/// [`DimsBox::smallest_overlap_dim`] and [`DimsBox::subtract_along`].
///
/// # Example
///
/// ```
/// use mps_geom::{BlockRanges, DimsBox, Interval};
/// let a = DimsBox::new(vec![
///     BlockRanges::new(Interval::new(0, 10), Interval::new(0, 10)),
/// ]);
/// let b = DimsBox::new(vec![
///     BlockRanges::new(Interval::new(5, 15), Interval::new(3, 7)),
/// ]);
/// assert!(a.overlaps(&b));
/// let common = a.intersect(&b).expect("they overlap");
/// assert!(common.contains(&[(7, 5)]));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DimsBox {
    ranges: Vec<BlockRanges>,
}

impl DimsBox {
    /// Creates a box from per-block ranges.
    #[must_use]
    pub fn new(ranges: Vec<BlockRanges>) -> Self {
        Self { ranges }
    }

    /// The degenerate box containing exactly the given `(w, h)` vector.
    #[must_use]
    pub fn point(dims: &[(Coord, Coord)]) -> Self {
        Self {
            ranges: dims
                .iter()
                .map(|&(w, h)| BlockRanges::point(w, h))
                .collect(),
        }
    }

    /// Number of blocks (the box spans `2 * block_count()` scalar dims).
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.ranges.len()
    }

    /// Per-block ranges, in block order.
    #[must_use]
    pub fn ranges(&self) -> &[BlockRanges] {
        &self.ranges
    }

    /// Mutable per-block ranges.
    pub fn ranges_mut(&mut self) -> &mut [BlockRanges] {
        &mut self.ranges
    }

    /// The interval along one scalar dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim.block` is out of range.
    #[must_use]
    pub fn along(&self, dim: DimIndex) -> Interval {
        self.ranges[dim.block].along(dim.axis)
    }

    /// Replaces the interval along one scalar dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim.block` is out of range.
    pub fn set_along(&mut self, dim: DimIndex, iv: Interval) {
        *self.ranges[dim.block].along_mut(dim.axis) = iv;
    }

    /// Whether the dimension vector `dims` (one `(w, h)` pair per block)
    /// lies inside the box.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.block_count()`.
    #[must_use]
    pub fn contains(&self, dims: &[(Coord, Coord)]) -> bool {
        assert_eq!(
            dims.len(),
            self.ranges.len(),
            "dimension vector length mismatch"
        );
        self.ranges
            .iter()
            .zip(dims)
            .all(|(r, &(w, h))| r.contains(w, h))
    }

    /// The vector of the box nearest to `dims`: each width and height
    /// clamped into its block's interval. Keeps a placement's recorded
    /// best dimensions inside a validity box that was shrunk or split.
    #[must_use]
    pub fn clamp_dims(&self, dims: &Dims) -> Dims {
        Dims::from_vec_unchecked(
            self.ranges
                .iter()
                .zip(dims)
                .map(|(r, &(w, h))| (r.w.clamp_value(w), r.h.clamp_value(h)))
                .collect(),
        )
    }

    /// Whether the two boxes share at least one dimension vector
    /// (i.e. every one of the 2N scalar intervals overlaps).
    ///
    /// # Panics
    ///
    /// Panics if the boxes have different block counts.
    #[must_use]
    pub fn overlaps(&self, other: &DimsBox) -> bool {
        assert_eq!(
            self.ranges.len(),
            other.ranges.len(),
            "block count mismatch"
        );
        self.ranges
            .iter()
            .zip(&other.ranges)
            .all(|(a, b)| a.w.overlaps(&b.w) && a.h.overlaps(&b.h))
    }

    /// The common sub-box, or `None` when disjoint in at least one dim.
    ///
    /// # Panics
    ///
    /// Panics if the boxes have different block counts.
    #[must_use]
    pub fn intersect(&self, other: &DimsBox) -> Option<DimsBox> {
        assert_eq!(
            self.ranges.len(),
            other.ranges.len(),
            "block count mismatch"
        );
        let mut ranges = Vec::with_capacity(self.ranges.len());
        for (a, b) in self.ranges.iter().zip(&other.ranges) {
            ranges.push(BlockRanges::new(a.w.intersect(&b.w)?, a.h.intersect(&b.h)?));
        }
        Some(DimsBox { ranges })
    }

    /// Natural-log volume of the box: `Σ ln(len(interval))` over all 2N
    /// scalar intervals. Degenerate (single-point) intervals contribute 0.
    ///
    /// Used by the coverage tracker, where raw volumes of 2N-dimensional
    /// integer boxes overflow any fixed-width integer.
    #[must_use]
    pub fn log_volume(&self) -> f64 {
        self.ranges
            .iter()
            .flat_map(|r| [r.w.len(), r.h.len()])
            .map(|l| (l as f64).ln())
            .sum()
    }

    /// Among the scalar dimensions in which the two boxes overlap, returns
    /// the one with the *smallest* overlap length, together with the
    /// overlapping interval.
    ///
    /// This implements the Resolve-Overlap victim-dimension selection
    /// (§3.1.3: "searches for the smallest dimension (row) in which the two
    /// placements are overlapping") — shrinking along the dimension of
    /// minimal overlap sacrifices the least validity volume.
    ///
    /// Returns `None` when the boxes do not overlap at all.
    ///
    /// # Panics
    ///
    /// Panics if the boxes have different block counts.
    #[must_use]
    pub fn smallest_overlap_dim(&self, other: &DimsBox) -> Option<(DimIndex, Interval)> {
        if !self.overlaps(other) {
            return None;
        }
        let mut best: Option<(DimIndex, Interval)> = None;
        for (block, (a, b)) in self.ranges.iter().zip(&other.ranges).enumerate() {
            for axis in Axis::ALL {
                let overlap = a
                    .along(axis)
                    .intersect(&b.along(axis))
                    .expect("overlaps() guarantees per-dim overlap");
                let better = match &best {
                    None => true,
                    Some((_, cur)) => overlap.len() < cur.len(),
                };
                if better {
                    best = Some((DimIndex { block, axis }, overlap));
                }
            }
        }
        best
    }

    /// Removes `cut` from the interval along `dim`, producing the 0, 1 or 2
    /// boxes that remain. Two boxes are returned exactly when `cut` lies
    /// strictly inside the interval — the *fork* case of §3.1.3, where a
    /// shrunk placement "is forked into two placements, each assuming new
    /// shrunk intervals on each side of the un-changed placement".
    ///
    /// All other dimensions are copied unchanged into every returned box.
    ///
    /// # Panics
    ///
    /// Panics if `dim.block` is out of range.
    #[must_use]
    pub fn subtract_along(&self, dim: DimIndex, cut: Interval) -> Vec<DimsBox> {
        let current = self.along(dim);
        current
            .subtract(&cut)
            .into_vec()
            .into_iter()
            .map(|piece| {
                let mut b = self.clone();
                b.set_along(dim, piece);
                b
            })
            .collect()
    }

    /// Verifies that every per-block range is well-formed relative to the
    /// provided per-block dimension bounds (min/max width and height).
    ///
    /// # Errors
    ///
    /// Describes the first block whose range escapes its bounds.
    pub fn check_within_bounds(&self, bounds: &[BlockRanges]) -> Result<(), String> {
        if bounds.len() != self.ranges.len() {
            return Err(format!(
                "bounds for {} blocks but box has {}",
                bounds.len(),
                self.ranges.len()
            ));
        }
        for (i, (r, b)) in self.ranges.iter().zip(bounds).enumerate() {
            if !b.w.contains_interval(&r.w) {
                return Err(format!(
                    "block {i} width {:?} outside bounds {:?}",
                    r.w, b.w
                ));
            }
            if !b.h.contains_interval(&r.h) {
                return Err(format!(
                    "block {i} height {:?} outside bounds {:?}",
                    r.h, b.h
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Debug for DimsBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.ranges).finish()
    }
}

impl FromIterator<BlockRanges> for DimsBox {
    fn from_iter<I: IntoIterator<Item = BlockRanges>>(iter: I) -> Self {
        DimsBox::new(iter.into_iter().collect())
    }
}

#[cfg(feature = "serde")]
serde::impl_serde_struct!(BlockRanges { w, h });

#[cfg(feature = "serde")]
serde::impl_serde_unit_enum!(Axis { Width, Height });

#[cfg(feature = "serde")]
serde::impl_serde_struct!(DimIndex { block, axis });

#[cfg(feature = "serde")]
serde::impl_serde_struct!(DimsBox { ranges });

mod binfmt_impls {
    use super::*;
    use binfmt::{Decode, Decoder, Encode, Encoder, Error};
    use std::io::Write;

    /// Allocation cap for decoded per-block sections: far above any real
    /// circuit (the paper's largest benchmark has 24 blocks), far below
    /// anything that could hurt the allocator.
    pub(crate) const MAX_BLOCKS: usize = 1 << 20;

    impl Encode for BlockRanges {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            self.w.encode(enc)?;
            self.h.encode(enc)
        }
    }

    impl Decode for BlockRanges {
        fn decode(dec: &mut Decoder<'_>) -> Result<Self, Error> {
            Ok(BlockRanges::new(
                Interval::decode(dec)?,
                Interval::decode(dec)?,
            ))
        }
    }

    impl Encode for DimsBox {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            enc.seq(&self.ranges)
        }
    }

    impl Decode for DimsBox {
        fn decode(dec: &mut Decoder<'_>) -> Result<Self, Error> {
            Ok(DimsBox::new(dec.seq(MAX_BLOCKS, "DimsBox ranges")?))
        }
    }
}

pub(crate) use binfmt_impls::MAX_BLOCKS;

#[cfg(test)]
mod tests {
    use super::*;

    fn br(wl: Coord, wh: Coord, hl: Coord, hh: Coord) -> BlockRanges {
        BlockRanges::new(Interval::new(wl, wh), Interval::new(hl, hh))
    }

    #[test]
    fn contains_point() {
        let b = DimsBox::new(vec![br(0, 10, 0, 10), br(5, 8, 2, 4)]);
        assert!(b.contains(&[(5, 5), (6, 3)]));
        assert!(!b.contains(&[(11, 5), (6, 3)]));
        assert!(!b.contains(&[(5, 5), (6, 5)]));
    }

    #[test]
    fn clamp_dims_moves_each_coordinate_into_its_interval() {
        let b = DimsBox::new(vec![br(0, 10, 0, 10), br(5, 8, 2, 4)]);
        let clamped = b.clamp_dims(&crate::dims![(12, 5), (3, 3)]);
        assert_eq!(clamped, crate::dims![(10, 5), (5, 3)]);
        assert!(b.contains(&clamped));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn contains_rejects_wrong_arity() {
        let b = DimsBox::new(vec![br(0, 10, 0, 10)]);
        let _ = b.contains(&[(1, 1), (2, 2)]);
    }

    #[test]
    fn point_box_is_degenerate() {
        let b = DimsBox::point(&[(3, 4), (5, 6)]);
        assert!(b.contains(&[(3, 4), (5, 6)]));
        assert!(!b.contains(&[(3, 4), (5, 7)]));
        assert_eq!(b.log_volume(), 0.0);
    }

    #[test]
    fn overlap_requires_all_dims() {
        let a = DimsBox::new(vec![br(0, 10, 0, 10), br(0, 10, 0, 10)]);
        let b = DimsBox::new(vec![br(5, 15, 5, 15), br(5, 15, 5, 15)]);
        let c = DimsBox::new(vec![br(5, 15, 5, 15), br(20, 25, 5, 15)]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // block 1 width disjoint
    }

    #[test]
    fn intersect_matches_overlap() {
        let a = DimsBox::new(vec![br(0, 10, 0, 10)]);
        let b = DimsBox::new(vec![br(5, 15, 8, 20)]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.ranges()[0], br(5, 10, 8, 10));
        let c = DimsBox::new(vec![br(11, 15, 0, 10)]);
        assert!(a.intersect(&c).is_none());
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn smallest_overlap_dim_picks_minimum() {
        let a = DimsBox::new(vec![br(0, 100, 0, 100), br(0, 100, 0, 100)]);
        // Overlaps: b0.w -> [50,100] (51), b0.h -> [0,100] (101),
        //           b1.w -> [98,100] (3),  b1.h -> [40,60] (21)
        let b = DimsBox::new(vec![br(50, 200, 0, 150), br(98, 130, 40, 60)]);
        let (dim, overlap) = a.smallest_overlap_dim(&b).unwrap();
        assert_eq!(
            dim,
            DimIndex {
                block: 1,
                axis: Axis::Width
            }
        );
        assert_eq!(overlap, Interval::new(98, 100));
    }

    #[test]
    fn smallest_overlap_dim_none_when_disjoint() {
        let a = DimsBox::new(vec![br(0, 10, 0, 10)]);
        let b = DimsBox::new(vec![br(20, 30, 0, 10)]);
        assert!(a.smallest_overlap_dim(&b).is_none());
    }

    #[test]
    fn subtract_along_edge_shrinks() {
        let a = DimsBox::new(vec![br(0, 10, 0, 10)]);
        let dim = DimIndex {
            block: 0,
            axis: Axis::Width,
        };
        let out = a.subtract_along(dim, Interval::new(7, 12));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].along(dim), Interval::new(0, 6));
        // Height untouched.
        assert_eq!(out[0].ranges()[0].h, Interval::new(0, 10));
    }

    #[test]
    fn subtract_along_interior_forks() {
        let a = DimsBox::new(vec![br(0, 10, 0, 10)]);
        let dim = DimIndex {
            block: 0,
            axis: Axis::Height,
        };
        let out = a.subtract_along(dim, Interval::new(4, 6));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].along(dim), Interval::new(0, 3));
        assert_eq!(out[1].along(dim), Interval::new(7, 10));
        // The two forks are disjoint and disjoint from the cut.
        assert!(!out[0].overlaps(&out[1]));
    }

    #[test]
    fn subtract_along_covering_annihilates() {
        let a = DimsBox::new(vec![br(3, 5, 0, 10)]);
        let dim = DimIndex {
            block: 0,
            axis: Axis::Width,
        };
        assert!(a.subtract_along(dim, Interval::new(0, 9)).is_empty());
    }

    #[test]
    fn log_volume_accumulates() {
        let a = DimsBox::new(vec![br(0, 9, 0, 9)]); // two intervals of len 10
        let lv = a.log_volume();
        assert!((lv - 2.0 * (10f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn check_within_bounds_detects_escape() {
        let bounds = vec![br(1, 10, 1, 10)];
        let good = DimsBox::new(vec![br(2, 8, 3, 9)]);
        let bad = DimsBox::new(vec![br(0, 8, 3, 9)]);
        assert!(good.check_within_bounds(&bounds).is_ok());
        assert!(bad.check_within_bounds(&bounds).is_err());
        let wrong_arity = DimsBox::new(vec![br(2, 8, 3, 9), br(2, 8, 3, 9)]);
        assert!(wrong_arity.check_within_bounds(&bounds).is_err());
    }

    #[test]
    fn from_iterator_collects() {
        let b: DimsBox = [br(0, 1, 0, 1), br(2, 3, 2, 3)].into_iter().collect();
        assert_eq!(b.block_count(), 2);
    }
}
