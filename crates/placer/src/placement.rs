//! Block placements on the floorplan surface.

use mps_geom::{Coord, Point, Rect};
use std::fmt;

/// A placement: "a set of `x_i` and `y_i` values representing the
/// coordinates of blocks on the floor-plan" (§2.1).
///
/// A `Placement` stores *only* the coordinates — the block dimensions come
/// from the module generators at instantiation time. The same placement is
/// therefore reusable across the whole dimension interval the
/// multi-placement structure attaches to it: with lower-left-anchored
/// blocks, shrinking any block's dimensions can never introduce an overlap,
/// so legality at the interval's upper corner implies legality everywhere
/// in the validity box.
///
/// # Example
///
/// ```
/// use mps_geom::Point;
/// use mps_placer::Placement;
///
/// let p = Placement::new(vec![Point::new(0, 0), Point::new(30, 0)]);
/// let dims = [(30, 20), (10, 10)];
/// assert!(p.is_legal(&dims, None));
/// assert_eq!(p.bounding_box(&dims).unwrap().area(), 40 * 20);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Placement {
    coords: Vec<Point>,
}

impl Placement {
    /// Creates a placement from per-block lower-left corners.
    #[must_use]
    pub fn new(coords: Vec<Point>) -> Self {
        Self { coords }
    }

    /// All blocks at the origin (a deliberately illegal starting point for
    /// optimizers).
    #[must_use]
    pub fn zeroed(block_count: usize) -> Self {
        Self {
            coords: vec![Point::origin(); block_count],
        }
    }

    /// Number of blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.coords.len()
    }

    /// Per-block lower-left corners.
    #[must_use]
    pub fn coords(&self) -> &[Point] {
        &self.coords
    }

    /// Mutable access for optimizers.
    pub fn coords_mut(&mut self) -> &mut [Point] {
        &mut self.coords
    }

    /// The rectangle of block `i` under the given dimension vector.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the dimensions are non-positive.
    #[must_use]
    #[inline]
    pub fn rect(&self, i: usize, dims: &[(Coord, Coord)]) -> Rect {
        let (w, h) = dims[i];
        Rect::new(self.coords[i], w, h)
    }

    /// All block rectangles under the given dimension vector.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.block_count()`.
    #[must_use]
    pub fn rects(&self, dims: &[(Coord, Coord)]) -> Vec<Rect> {
        assert_eq!(
            dims.len(),
            self.coords.len(),
            "dimension vector length mismatch"
        );
        self.coords
            .iter()
            .zip(dims)
            .map(|(&p, &(w, h))| Rect::new(p, w, h))
            .collect()
    }

    /// Smallest rectangle containing every block, or `None` for an empty
    /// placement.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.block_count()`.
    #[must_use]
    pub fn bounding_box(&self, dims: &[(Coord, Coord)]) -> Option<Rect> {
        let rects = self.rects(dims);
        Rect::bounding_box_of(&rects)
    }

    /// Whether no two blocks overlap and (when `floorplan` is given) every
    /// block fits inside it.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.block_count()`.
    #[must_use]
    pub fn is_legal(&self, dims: &[(Coord, Coord)], floorplan: Option<&Rect>) -> bool {
        assert_eq!(
            dims.len(),
            self.coords.len(),
            "dimension vector length mismatch"
        );
        // Every rectangle is built (its dimensions checked) before any
        // verdict, and the floorplan check runs before the pair check.
        let mut inside = true;
        for i in 0..dims.len() {
            let r = self.rect(i, dims);
            inside &= floorplan.is_none_or(|fp| r.fits_inside(fp));
        }
        if !inside {
            return false;
        }
        // One branch per block, not per pair: a legal placement, the
        // common case, tests every pair anyway.
        for i in 0..dims.len() {
            let a = self.rect(i, dims);
            let mut hit = false;
            for j in (i + 1)..dims.len() {
                hit |= a.overlaps(&self.rect(j, dims));
            }
            if hit {
                return false;
            }
        }
        true
    }

    /// Total pairwise overlap area (the penalty term optimization-based
    /// placers anneal away).
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.block_count()`.
    #[must_use]
    pub fn total_overlap_area(&self, dims: &[(Coord, Coord)]) -> u64 {
        pairwise_overlap_area(&self.rects(dims))
    }

    /// Area outside the floorplan, summed over blocks (out-of-bounds
    /// penalty).
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.block_count()`.
    #[must_use]
    pub fn out_of_bounds_area(&self, dims: &[(Coord, Coord)], floorplan: &Rect) -> u64 {
        self.rects(dims)
            .iter()
            .map(|r| escape_area(r, floorplan))
            .sum()
    }

    /// Returns a copy translated so the bounding box's lower-left corner
    /// sits at the origin (canonical form for comparing placements).
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.block_count()`.
    #[must_use]
    pub fn normalized(&self, dims: &[(Coord, Coord)]) -> Placement {
        match self.bounding_box(dims) {
            None => self.clone(),
            Some(bb) => {
                let dx = -bb.left();
                let dy = -bb.bottom();
                Placement {
                    coords: self
                        .coords
                        .iter()
                        .map(|p| Point::new(p.x + dx, p.y + dy))
                        .collect(),
                }
            }
        }
    }
}

/// Σ over block pairs of their overlap area.
pub(crate) fn pairwise_overlap_area(rects: &[Rect]) -> u64 {
    let mut total = 0u64;
    for i in 0..rects.len() {
        for j in (i + 1)..rects.len() {
            total += rects[i].overlap_area(&rects[j]);
        }
    }
    total
}

/// Area of `rect` outside `floorplan`.
pub(crate) fn escape_area(rect: &Rect, floorplan: &Rect) -> u64 {
    rect.area() - rect.overlap_area(floorplan)
}

impl fmt::Debug for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.coords).finish()
    }
}

impl FromIterator<Point> for Placement {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        Placement::new(iter.into_iter().collect())
    }
}

#[cfg(feature = "serde")]
serde::impl_serde_struct!(Placement { coords });

mod binfmt_impls {
    use super::*;
    use binfmt::{Decode, Decoder, Encode, Encoder, Error};
    use std::io::Write;

    /// Allocation cap for decoded coordinate vectors (one per block).
    const MAX_BLOCKS: usize = 1 << 20;

    impl Encode for Placement {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            enc.seq(&self.coords)
        }
    }

    impl Decode for Placement {
        fn decode(dec: &mut Decoder<'_>) -> Result<Self, Error> {
            Ok(Placement::new(dec.seq(MAX_BLOCKS, "Placement coords")?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims2() -> Vec<(Coord, Coord)> {
        vec![(10, 10), (20, 5)]
    }

    #[test]
    fn rects_follow_coords_and_dims() {
        let p = Placement::new(vec![Point::new(0, 0), Point::new(10, 0)]);
        let rects = p.rects(&dims2());
        assert_eq!(rects[0], Rect::from_xywh(0, 0, 10, 10));
        assert_eq!(rects[1], Rect::from_xywh(10, 0, 20, 5));
    }

    #[test]
    fn legality_detects_overlap() {
        let apart = Placement::new(vec![Point::new(0, 0), Point::new(10, 0)]);
        let together = Placement::new(vec![Point::new(0, 0), Point::new(5, 5)]);
        assert!(apart.is_legal(&dims2(), None));
        assert!(!together.is_legal(&dims2(), None));
    }

    #[test]
    fn legality_respects_floorplan() {
        let p = Placement::new(vec![Point::new(0, 0), Point::new(10, 0)]);
        let small = Rect::from_xywh(0, 0, 25, 25);
        let big = Rect::from_xywh(0, 0, 100, 100);
        assert!(!p.is_legal(&dims2(), Some(&small))); // block 1 right edge at 30
        assert!(p.is_legal(&dims2(), Some(&big)));
    }

    #[test]
    fn shrinking_preserves_legality() {
        // The anchoring property the multi-placement structure relies on.
        let p = Placement::new(vec![Point::new(0, 0), Point::new(10, 0)]);
        assert!(p.is_legal(&dims2(), None));
        let smaller = vec![(9, 9), (15, 3)];
        assert!(p.is_legal(&smaller, None));
    }

    #[test]
    fn overlap_area_accumulates() {
        let p = Placement::new(vec![Point::new(0, 0), Point::new(5, 5)]);
        assert_eq!(p.total_overlap_area(&dims2()), 25);
        let apart = Placement::new(vec![Point::new(0, 0), Point::new(50, 50)]);
        assert_eq!(apart.total_overlap_area(&dims2()), 0);
    }

    #[test]
    fn out_of_bounds_area_counts_escape() {
        let p = Placement::new(vec![Point::new(-5, 0), Point::new(20, 0)]);
        let fp = Rect::from_xywh(0, 0, 100, 100);
        // Block 0 (10x10 at x=-5): 5x10 = 50 outside.
        assert_eq!(p.out_of_bounds_area(&dims2(), &fp), 50);
    }

    #[test]
    fn bounding_box_covers_all() {
        let p = Placement::new(vec![Point::new(0, 0), Point::new(10, 0)]);
        let bb = p.bounding_box(&dims2()).unwrap();
        assert_eq!(bb, Rect::from_xywh(0, 0, 30, 10));
    }

    #[test]
    fn normalized_moves_to_origin() {
        let p = Placement::new(vec![Point::new(7, 9), Point::new(17, 9)]);
        let n = p.normalized(&dims2());
        let bb = n.bounding_box(&dims2()).unwrap();
        assert_eq!(bb.origin(), Point::origin());
        // Relative geometry preserved.
        assert_eq!(n.coords()[1] - n.coords()[0], p.coords()[1] - p.coords()[0]);
    }

    #[test]
    fn zeroed_is_all_origin() {
        let p = Placement::zeroed(3);
        assert_eq!(p.block_count(), 3);
        assert!(p.coords().iter().all(|&c| c == Point::origin()));
    }

    #[test]
    fn from_iterator() {
        let p: Placement = [Point::new(1, 2), Point::new(3, 4)].into_iter().collect();
        assert_eq!(p.block_count(), 2);
    }
}
