//! Closed integer intervals.

use crate::Coord;
use std::fmt;

/// A closed integer interval `[lo, hi]` with `lo <= hi`.
///
/// Intervals are the atoms of the multi-placement structure: every stored
/// placement carries one width interval and one height interval per block
/// (the `(w_start, w_end, h_start, h_end)` 4-tuple of Eq. 2), and every row
/// of the lookup structure (Fig. 3) is a sorted list of disjoint intervals.
///
/// The interval is *closed*: both endpoints are contained. A single point
/// `v` is represented as `Interval::point(v)` with length 1.
///
/// # Example
///
/// ```
/// use mps_geom::Interval;
/// let a = Interval::new(2, 8);
/// let b = Interval::new(5, 12);
/// assert!(a.overlaps(&b));
/// assert_eq!(a.intersect(&b), Some(Interval::new(5, 8)));
/// assert_eq!(a.len(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    lo: Coord,
    hi: Coord,
}

/// Error returned by [`Interval::try_new`] when `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TryNewIntervalError {
    /// The offending lower bound.
    pub lo: Coord,
    /// The offending upper bound.
    pub hi: Coord,
}

impl fmt::Display for TryNewIntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interval lower bound {} exceeds upper bound {}",
            self.lo, self.hi
        )
    }
}

impl std::error::Error for TryNewIntervalError {}

impl Interval {
    /// Creates the closed interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`. Use [`Interval::try_new`] for fallible
    /// construction.
    #[must_use]
    pub fn new(lo: Coord, hi: Coord) -> Self {
        assert!(
            lo <= hi,
            "interval lower bound {lo} exceeds upper bound {hi}"
        );
        Self { lo, hi }
    }

    /// Fallible constructor: returns an error instead of panicking when
    /// `lo > hi`.
    ///
    /// # Errors
    ///
    /// Returns [`TryNewIntervalError`] if `lo > hi`.
    pub fn try_new(lo: Coord, hi: Coord) -> Result<Self, TryNewIntervalError> {
        if lo <= hi {
            Ok(Self { lo, hi })
        } else {
            Err(TryNewIntervalError { lo, hi })
        }
    }

    /// The degenerate single-point interval `[v, v]`.
    #[must_use]
    pub fn point(v: Coord) -> Self {
        Self { lo: v, hi: v }
    }

    /// Lower (inclusive) endpoint.
    #[must_use]
    pub fn lo(&self) -> Coord {
        self.lo
    }

    /// Upper (inclusive) endpoint.
    #[must_use]
    pub fn hi(&self) -> Coord {
        self.hi
    }

    /// Number of integer points contained (`hi - lo + 1`).
    #[must_use]
    pub fn len(&self) -> u64 {
        (self.hi - self.lo + 1) as u64
    }

    /// A closed interval is never empty; provided for clippy-style symmetry
    /// with [`Interval::len`] and always `false`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `v` lies inside the interval.
    #[must_use]
    pub fn contains(&self, v: Coord) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether `other` is entirely inside `self`.
    #[must_use]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether `other` is *strictly* inside `self` on both sides
    /// (`self.lo < other.lo && other.hi < self.hi`).
    ///
    /// This is the containment test used by the Resolve-Overlaps fork rule
    /// (§3.1.3): when the interval to be shrunk contains the other
    /// placement's interval "from the start and the end sides", the shrunk
    /// placement is forked into two.
    #[must_use]
    pub fn strictly_contains(&self, other: &Interval) -> bool {
        self.lo < other.lo && other.hi < self.hi
    }

    /// Whether the two intervals share at least one point.
    #[must_use]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// The common part of two intervals, or `None` if they are disjoint.
    #[must_use]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Number of integer points in the intersection (0 when disjoint).
    #[must_use]
    pub fn overlap_len(&self, other: &Interval) -> u64 {
        self.intersect(other).map_or(0, |i| i.len())
    }

    /// Smallest interval containing both operands.
    #[must_use]
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Removes `other` from `self`, returning the (0, 1 or 2) remaining
    /// pieces in ascending order.
    ///
    /// This is the primitive behind both interval-row splitting (Store
    /// Placement, §3.1.3) and validity-region shrinking (Resolve Overlap).
    #[must_use]
    pub fn subtract(&self, other: &Interval) -> SubtractResult {
        match self.intersect(other) {
            None => SubtractResult::Unchanged(*self),
            Some(cut) => {
                let left = (self.lo < cut.lo).then(|| Interval::new(self.lo, cut.lo - 1));
                let right = (cut.hi < self.hi).then(|| Interval::new(cut.hi + 1, self.hi));
                match (left, right) {
                    (None, None) => SubtractResult::Empty,
                    (Some(l), None) => SubtractResult::One(l),
                    (None, Some(r)) => SubtractResult::One(r),
                    (Some(l), Some(r)) => SubtractResult::Two(l, r),
                }
            }
        }
    }

    /// Splits `self` at `v` into `[lo, v]` and `[v+1, hi]`.
    ///
    /// Returns `None` when `v` is outside `[lo, hi-1]` (i.e. when one side
    /// would be empty).
    #[must_use]
    pub fn split_at(&self, v: Coord) -> Option<(Interval, Interval)> {
        (self.lo <= v && v < self.hi)
            .then(|| (Interval::new(self.lo, v), Interval::new(v + 1, self.hi)))
    }

    /// Clamps `v` into the interval.
    #[must_use]
    pub fn clamp_value(&self, v: Coord) -> Coord {
        v.clamp(self.lo, self.hi)
    }

    /// The midpoint (rounded down).
    #[must_use]
    pub fn midpoint(&self) -> Coord {
        self.lo + (self.hi - self.lo) / 2
    }

    /// Whether the two intervals are adjacent (`self.hi + 1 == other.lo` or
    /// vice versa), i.e. their union is a single interval with no gap.
    #[must_use]
    pub fn adjacent(&self, other: &Interval) -> bool {
        self.hi + 1 == other.lo || other.hi + 1 == self.lo
    }
}

/// Result of [`Interval::subtract`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubtractResult {
    /// The subtrahend did not overlap; the original interval is returned.
    Unchanged(Interval),
    /// The subtrahend covered everything; nothing remains.
    Empty,
    /// One piece remains.
    One(Interval),
    /// Two pieces remain (the subtrahend was strictly inside).
    Two(Interval, Interval),
}

impl SubtractResult {
    /// Collects the remaining pieces into a vector (0–2 elements, ascending).
    #[must_use]
    pub fn into_vec(self) -> Vec<Interval> {
        match self {
            SubtractResult::Unchanged(i) | SubtractResult::One(i) => vec![i],
            SubtractResult::Empty => vec![],
            SubtractResult::Two(a, b) => vec![a, b],
        }
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl From<(Coord, Coord)> for Interval {
    fn from((lo, hi): (Coord, Coord)) -> Self {
        Interval::new(lo, hi)
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Field, Map, Reader, Serialize, Value};

    impl Serialize for Interval {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("lo", self.lo.to_value());
            map.insert("hi", self.hi.to_value());
            Value::Object(map)
        }
    }

    // Hand-written so `lo <= hi` is re-validated: a loaded interval must
    // satisfy the same invariant a constructed one does.
    impl Deserialize for Interval {
        fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
            let (mut lo, mut hi) = (Field::<Coord>::new("lo"), Field::<Coord>::new("hi"));
            serde::read_object(r, |key, r| match key {
                "lo" => lo.read(r),
                "hi" => hi.read(r),
                _ => r.skip_value(),
            })?;
            Interval::try_new(lo.take("Interval")?, hi.take("Interval")?).map_err(Error::custom)
        }
    }
}

mod binfmt_impls {
    use super::*;
    use binfmt::{malformed, Decode, Decoder, Encode, Encoder, Error};
    use std::io::Write;

    impl Encode for Interval {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            enc.zigzag(self.lo)?;
            enc.zigzag(self.hi)
        }
    }

    // `lo <= hi` is re-validated, exactly like the JSON path.
    impl Decode for Interval {
        fn decode(dec: &mut Decoder<'_>) -> Result<Self, Error> {
            Interval::try_new(dec.zigzag()?, dec.zigzag()?).map_err(|e| malformed(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_accessors() {
        let i = Interval::new(3, 9);
        assert_eq!(i.lo(), 3);
        assert_eq!(i.hi(), 9);
        assert_eq!(i.len(), 7);
        assert!(!i.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn new_panics_on_inverted_bounds() {
        let _ = Interval::new(5, 4);
    }

    #[test]
    fn try_new_rejects_inverted_bounds() {
        assert!(Interval::try_new(5, 4).is_err());
        assert_eq!(Interval::try_new(4, 4), Ok(Interval::point(4)));
        let err = Interval::try_new(7, 2).unwrap_err();
        assert_eq!(
            err.to_string(),
            "interval lower bound 7 exceeds upper bound 2"
        );
    }

    #[test]
    fn point_interval() {
        let p = Interval::point(5);
        assert_eq!(p.len(), 1);
        assert!(p.contains(5));
        assert!(!p.contains(4));
    }

    #[test]
    fn containment() {
        let outer = Interval::new(0, 10);
        let inner = Interval::new(3, 7);
        assert!(outer.contains_interval(&inner));
        assert!(!inner.contains_interval(&outer));
        assert!(outer.contains_interval(&outer));
        assert!(outer.strictly_contains(&inner));
        assert!(!outer.strictly_contains(&Interval::new(0, 7)));
        assert!(!outer.strictly_contains(&Interval::new(3, 10)));
    }

    #[test]
    fn overlap_and_intersection() {
        let a = Interval::new(0, 5);
        let b = Interval::new(5, 9);
        let c = Interval::new(6, 9);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.intersect(&b), Some(Interval::point(5)));
        assert_eq!(a.intersect(&c), None);
        assert_eq!(a.overlap_len(&b), 1);
        assert_eq!(a.overlap_len(&c), 0);
        assert_eq!(b.overlap_len(&c), 4);
    }

    #[test]
    fn hull_covers_both() {
        let a = Interval::new(0, 2);
        let b = Interval::new(8, 9);
        assert_eq!(a.hull(&b), Interval::new(0, 9));
        assert_eq!(b.hull(&a), Interval::new(0, 9));
    }

    #[test]
    fn subtract_disjoint_is_unchanged() {
        let a = Interval::new(0, 4);
        let b = Interval::new(6, 8);
        assert_eq!(a.subtract(&b), SubtractResult::Unchanged(a));
    }

    #[test]
    fn subtract_covering_is_empty() {
        let a = Interval::new(3, 4);
        let b = Interval::new(0, 8);
        assert_eq!(a.subtract(&b), SubtractResult::Empty);
        assert_eq!(a.subtract(&a), SubtractResult::Empty);
    }

    #[test]
    fn subtract_edge_leaves_one() {
        let a = Interval::new(0, 9);
        assert_eq!(
            a.subtract(&Interval::new(0, 3)),
            SubtractResult::One(Interval::new(4, 9))
        );
        assert_eq!(
            a.subtract(&Interval::new(7, 12)),
            SubtractResult::One(Interval::new(0, 6))
        );
    }

    #[test]
    fn subtract_middle_leaves_two() {
        let a = Interval::new(0, 9);
        assert_eq!(
            a.subtract(&Interval::new(4, 5)),
            SubtractResult::Two(Interval::new(0, 3), Interval::new(6, 9))
        );
    }

    #[test]
    fn subtract_result_into_vec() {
        let a = Interval::new(0, 9);
        assert_eq!(a.subtract(&Interval::new(4, 5)).into_vec().len(), 2);
        assert_eq!(a.subtract(&a).into_vec().len(), 0);
        assert_eq!(a.subtract(&Interval::new(20, 30)).into_vec(), vec![a]);
    }

    #[test]
    fn split_at_interior() {
        let a = Interval::new(0, 9);
        let (l, r) = a.split_at(4).unwrap();
        assert_eq!(l, Interval::new(0, 4));
        assert_eq!(r, Interval::new(5, 9));
        assert!(a.split_at(9).is_none());
        assert!(a.split_at(-1).is_none());
        assert!(Interval::point(3).split_at(3).is_none());
    }

    #[test]
    fn clamp_and_midpoint() {
        let a = Interval::new(10, 20);
        assert_eq!(a.clamp_value(5), 10);
        assert_eq!(a.clamp_value(25), 20);
        assert_eq!(a.clamp_value(15), 15);
        assert_eq!(a.midpoint(), 15);
        assert_eq!(Interval::new(10, 21).midpoint(), 15);
        assert_eq!(Interval::point(7).midpoint(), 7);
    }

    #[test]
    fn adjacency() {
        let a = Interval::new(0, 4);
        assert!(a.adjacent(&Interval::new(5, 9)));
        assert!(Interval::new(5, 9).adjacent(&a));
        assert!(!a.adjacent(&Interval::new(6, 9)));
        assert!(!a.adjacent(&Interval::new(4, 9))); // overlapping, not adjacent
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Interval::new(0, 5) < Interval::new(1, 2));
        assert!(Interval::new(0, 2) < Interval::new(0, 5));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_roundtrip() {
        let a = Interval::new(-3, 12);
        let json = serde_json::to_string(&a).unwrap();
        let b: Interval = serde_json::from_str(&json).unwrap();
        assert_eq!(a, b);
    }
}
