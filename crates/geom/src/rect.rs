//! Axis-aligned rectangles on the floorplan surface.

use crate::{Coord, Interval, Point};
use std::fmt;

/// An axis-aligned rectangle with integer lower-left origin and positive
/// integer dimensions.
///
/// A placed block is a `Rect`: its origin is the block's `(x, y)` coordinate
/// chosen by the placement, its `w`/`h` come from the module generator for
/// the current device sizes.
///
/// The rectangle occupies the half-open region
/// `[x, x + w) × [y, y + h)`; two rectangles that merely *touch* along an
/// edge do **not** overlap (abutment is legal and common in analog layout).
///
/// # Example
///
/// ```
/// use mps_geom::{Point, Rect};
/// let a = Rect::new(Point::new(0, 0), 10, 5);
/// let b = Rect::new(Point::new(10, 0), 4, 4); // abuts `a` on the right
/// assert!(!a.overlaps(&b));
/// assert_eq!(a.area(), 50);
/// assert_eq!(a.center(), Point::new(5, 2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    origin: Point,
    w: Coord,
    h: Coord,
}

impl Rect {
    /// Creates a rectangle with lower-left corner `origin`, width `w` and
    /// height `h`.
    ///
    /// # Panics
    ///
    /// Panics if `w <= 0` or `h <= 0`; blocks always have positive extent.
    #[must_use]
    #[inline]
    pub fn new(origin: Point, w: Coord, h: Coord) -> Self {
        assert!(
            w > 0 && h > 0,
            "rectangle dimensions must be positive (got {w}x{h})"
        );
        Self { origin, w, h }
    }

    /// Convenience constructor from raw coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `w <= 0` or `h <= 0`.
    #[must_use]
    pub fn from_xywh(x: Coord, y: Coord, w: Coord, h: Coord) -> Self {
        Self::new(Point::new(x, y), w, h)
    }

    /// Lower-left corner.
    #[must_use]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Width (always positive).
    #[must_use]
    pub fn width(&self) -> Coord {
        self.w
    }

    /// Height (always positive).
    #[must_use]
    pub fn height(&self) -> Coord {
        self.h
    }

    /// Left edge x (inclusive).
    #[must_use]
    pub fn left(&self) -> Coord {
        self.origin.x
    }

    /// Right edge x (exclusive).
    #[must_use]
    pub fn right(&self) -> Coord {
        self.origin.x + self.w
    }

    /// Bottom edge y (inclusive).
    #[must_use]
    pub fn bottom(&self) -> Coord {
        self.origin.y
    }

    /// Top edge y (exclusive).
    #[must_use]
    pub fn top(&self) -> Coord {
        self.origin.y + self.h
    }

    /// Area in grid units.
    #[must_use]
    pub fn area(&self) -> u64 {
        (self.w as u64) * (self.h as u64)
    }

    /// Geometric center (rounded down); the default pin location for
    /// center-connected blocks.
    #[must_use]
    pub fn center(&self) -> Point {
        Point::new(self.origin.x + self.w / 2, self.origin.y + self.h / 2)
    }

    /// Whether the point lies inside the half-open region.
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        self.left() <= p.x && p.x < self.right() && self.bottom() <= p.y && p.y < self.top()
    }

    /// Whether the interiors of the two rectangles intersect.
    ///
    /// Edge abutment is *not* overlap.
    #[must_use]
    #[inline]
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.left() < other.right()
            && other.left() < self.right()
            && self.bottom() < other.top()
            && other.bottom() < self.top()
    }

    /// Area of the intersection of the two rectangles (0 when disjoint).
    ///
    /// Used as the overlap penalty term by optimization-based placers.
    #[must_use]
    pub fn overlap_area(&self, other: &Rect) -> u64 {
        let ox = (self.right().min(other.right()) - self.left().max(other.left())).max(0);
        let oy = (self.top().min(other.top()) - self.bottom().max(other.bottom())).max(0);
        (ox as u64) * (oy as u64)
    }

    /// Smallest rectangle containing both operands.
    #[must_use]
    pub fn bounding_union(&self, other: &Rect) -> Rect {
        let left = self.left().min(other.left());
        let bottom = self.bottom().min(other.bottom());
        let right = self.right().max(other.right());
        let top = self.top().max(other.top());
        Rect::from_xywh(left, bottom, right - left, top - bottom)
    }

    /// Whether `self` lies entirely inside `other`.
    #[must_use]
    #[inline]
    pub fn fits_inside(&self, other: &Rect) -> bool {
        other.left() <= self.left()
            && self.right() <= other.right()
            && other.bottom() <= self.bottom()
            && self.top() <= other.top()
    }

    /// The x-extent as a closed interval `[left, right - 1]` of occupied
    /// columns.
    #[must_use]
    pub fn x_span(&self) -> Interval {
        Interval::new(self.left(), self.right() - 1)
    }

    /// The y-extent as a closed interval `[bottom, top - 1]` of occupied
    /// rows.
    #[must_use]
    pub fn y_span(&self) -> Interval {
        Interval::new(self.bottom(), self.top() - 1)
    }

    /// Returns a copy translated by `(dx, dy)`.
    #[must_use]
    pub fn translated(&self, dx: Coord, dy: Coord) -> Rect {
        Rect::new(
            Point::new(self.origin.x + dx, self.origin.y + dy),
            self.w,
            self.h,
        )
    }

    /// Returns a copy with the same origin and new dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `w <= 0` or `h <= 0`.
    #[must_use]
    pub fn resized(&self, w: Coord, h: Coord) -> Rect {
        Rect::new(self.origin, w, h)
    }

    /// Smallest rectangle containing every rectangle in `rects`, or `None`
    /// for an empty iterator. This is the floorplan bounding box whose area
    /// enters the paper's cost function.
    pub fn bounding_box_of<'a, I>(rects: I) -> Option<Rect>
    where
        I: IntoIterator<Item = &'a Rect>,
    {
        rects
            .into_iter()
            .copied()
            .reduce(|acc, r| acc.bounding_union(&r))
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rect[{}+{}x{}]", self.origin, self.w, self.h)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}x{}", self.origin, self.w, self.h)
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Field, Map, Reader, Serialize, Value};

    impl Serialize for Rect {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("origin", self.origin.to_value());
            map.insert("w", self.w.to_value());
            map.insert("h", self.h.to_value());
            Value::Object(map)
        }
    }

    // Hand-written so positive extent is re-validated on load.
    impl Deserialize for Rect {
        fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
            let mut origin = Field::<Point>::new("origin");
            let (mut w, mut h) = (Field::<Coord>::new("w"), Field::<Coord>::new("h"));
            serde::read_object(r, |key, r| match key {
                "origin" => origin.read(r),
                "w" => w.read(r),
                "h" => h.read(r),
                _ => r.skip_value(),
            })?;
            let origin = origin.take("Rect")?;
            let w = w.take("Rect")?;
            let h = h.take("Rect")?;
            if w <= 0 || h <= 0 {
                return Err(Error::custom(format!(
                    "rectangle dimensions must be positive (got {w}x{h})"
                )));
            }
            Ok(Rect { origin, w, h })
        }
    }
}

mod binfmt_impls {
    use super::*;
    use binfmt::{malformed, Decode, Decoder, Encode, Encoder, Error};
    use std::io::Write;

    impl Encode for Rect {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            self.origin.encode(enc)?;
            enc.zigzag(self.w)?;
            enc.zigzag(self.h)
        }
    }

    // Positive extent is re-validated, exactly like the JSON path.
    impl Decode for Rect {
        fn decode(dec: &mut Decoder<'_>) -> Result<Self, Error> {
            let origin = Point::decode(dec)?;
            let w = dec.zigzag()?;
            let h = dec.zigzag()?;
            if w <= 0 || h <= 0 {
                return Err(malformed(format!(
                    "rectangle dimensions must be positive (got {w}x{h})"
                )));
            }
            Ok(Rect { origin, w, h })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let r = Rect::from_xywh(2, 3, 10, 4);
        assert_eq!(r.left(), 2);
        assert_eq!(r.right(), 12);
        assert_eq!(r.bottom(), 3);
        assert_eq!(r.top(), 7);
        assert_eq!(r.area(), 40);
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 4);
        assert_eq!(r.center(), Point::new(7, 5));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_width_rejected() {
        let _ = Rect::from_xywh(0, 0, 0, 5);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn negative_height_rejected() {
        let _ = Rect::from_xywh(0, 0, 5, -1);
    }

    #[test]
    fn contains_is_half_open() {
        let r = Rect::from_xywh(0, 0, 4, 4);
        assert!(r.contains(Point::new(0, 0)));
        assert!(r.contains(Point::new(3, 3)));
        assert!(!r.contains(Point::new(4, 0)));
        assert!(!r.contains(Point::new(0, 4)));
    }

    #[test]
    fn abutment_is_not_overlap() {
        let a = Rect::from_xywh(0, 0, 5, 5);
        let b = Rect::from_xywh(5, 0, 5, 5);
        let c = Rect::from_xywh(0, 5, 5, 5);
        assert!(!a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.overlap_area(&b), 0);
    }

    #[test]
    fn genuine_overlap() {
        let a = Rect::from_xywh(0, 0, 5, 5);
        let b = Rect::from_xywh(3, 3, 5, 5);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert_eq!(a.overlap_area(&b), 4);
    }

    #[test]
    fn containment_counts_as_overlap() {
        let a = Rect::from_xywh(0, 0, 10, 10);
        let b = Rect::from_xywh(2, 2, 3, 3);
        assert!(a.overlaps(&b));
        assert_eq!(a.overlap_area(&b), 9);
        assert!(b.fits_inside(&a));
        assert!(!a.fits_inside(&b));
    }

    #[test]
    fn bounding_union_covers_both() {
        let a = Rect::from_xywh(0, 0, 2, 2);
        let b = Rect::from_xywh(5, 7, 3, 1);
        let u = a.bounding_union(&b);
        assert!(a.fits_inside(&u));
        assert!(b.fits_inside(&u));
        assert_eq!(u, Rect::from_xywh(0, 0, 8, 8));
    }

    #[test]
    fn bounding_box_of_collection() {
        let rects = vec![
            Rect::from_xywh(0, 0, 1, 1),
            Rect::from_xywh(9, 9, 1, 1),
            Rect::from_xywh(4, 4, 2, 2),
        ];
        let bb = Rect::bounding_box_of(&rects).unwrap();
        assert_eq!(bb, Rect::from_xywh(0, 0, 10, 10));
        assert!(Rect::bounding_box_of(&[]).is_none());
    }

    #[test]
    fn spans() {
        let r = Rect::from_xywh(3, 5, 4, 2);
        assert_eq!(r.x_span(), Interval::new(3, 6));
        assert_eq!(r.y_span(), Interval::new(5, 6));
    }

    #[test]
    fn translate_and_resize() {
        let r = Rect::from_xywh(1, 1, 2, 3);
        assert_eq!(r.translated(4, -1), Rect::from_xywh(5, 0, 2, 3));
        assert_eq!(r.resized(7, 8), Rect::from_xywh(1, 1, 7, 8));
    }

    #[test]
    fn fits_inside_itself() {
        let r = Rect::from_xywh(0, 0, 3, 3);
        assert!(r.fits_inside(&r));
    }
}
