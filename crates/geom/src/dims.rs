//! Typed dimension vectors: one `(w, h)` pair per block.
//!
//! Every seam of the multi-placement workflow — queries, instantiation,
//! the serve protocol — consumes *one dimension pair per block*. Passing
//! those vectors around as bare `&[(Coord, Coord)]` slices loses the two
//! facts the seams keep re-checking by hand: the arity (how many blocks
//! the vector spans) and the well-formedness of each pair. [`Dims`] is
//! the validated carrier for that data: constructing one through
//! [`Dims::new`] (or the [`crate::dims!`] macro) guarantees the vector is
//! non-empty and every dimension is a positive size, so downstream code
//! can spend its error handling on the *semantic* failures (wrong arity
//! for a structure, out of designer bounds) instead of re-validating
//! shape.
//!
//! On the wire a `Dims` is indistinguishable from the raw vector: it
//! serializes as the same `[[w, h], ...]` nested-array form the artifact
//! envelope and the serve protocol have always used, so persisted
//! artifacts and protocol clients are unaffected by the typed API.

use crate::{BlockRanges, Coord};
use std::fmt;
use std::ops::Deref;

/// Why a dimension vector was rejected by [`Dims::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimsError {
    /// The vector holds no pairs at all — no circuit has zero blocks.
    Empty,
    /// A pair carries a zero or negative width/height. Block dimensions
    /// are physical sizes on an integer grid; the smallest legal value
    /// is 1.
    NonPositive {
        /// Index of the offending block.
        block: usize,
        /// The offending width.
        width: Coord,
        /// The offending height.
        height: Coord,
    },
}

impl fmt::Display for DimsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimsError::Empty => write!(f, "dimension vector holds no (w, h) pairs"),
            DimsError::NonPositive {
                block,
                width,
                height,
            } => write!(
                f,
                "block {block} dimensions ({width}, {height}) are not positive sizes"
            ),
        }
    }
}

impl std::error::Error for DimsError {}

/// A validated dimension vector: one `(w, h)` pair per block, in block
/// order — the argument *V* of the paper's Eq. 4.
///
/// # Validation
///
/// [`Dims::new`] enforces what every dimension vector must satisfy
/// regardless of circuit: at least one pair, and every width and height
/// at least 1 (sizes are positive integers on the manufacturing grid).
/// Circuit-*specific* validation (arity, designer bounds) happens at the
/// consuming seam, where the circuit or structure is known — see
/// [`Dims::clamp_to_bounds`] and the facade's query errors.
///
/// # Interop
///
/// `Dims` derefs to `[(Coord, Coord)]`, so it flows into every API that
/// still takes a raw slice (packing, legality checks, cost functions)
/// without copying:
///
/// ```
/// use mps_geom::{dims, Dims};
/// let v = dims![(30, 40), (25, 25)];
/// assert_eq!(v.arity(), 2);
/// assert_eq!(v[1], (25, 25));
/// let raw: &[(i64, i64)] = &v; // deref coercion
/// assert_eq!(raw.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Dims {
    pairs: Vec<(Coord, Coord)>,
}

impl Dims {
    /// Creates a validated dimension vector.
    ///
    /// # Errors
    ///
    /// Returns [`DimsError::Empty`] for a zero-length vector and
    /// [`DimsError::NonPositive`] for the first pair whose width or
    /// height is below 1.
    pub fn new(pairs: Vec<(Coord, Coord)>) -> Result<Self, DimsError> {
        if pairs.is_empty() {
            return Err(DimsError::Empty);
        }
        for (block, &(width, height)) in pairs.iter().enumerate() {
            if width < 1 || height < 1 {
                return Err(DimsError::NonPositive {
                    block,
                    width,
                    height,
                });
            }
        }
        Ok(Self { pairs })
    }

    /// [`Dims::new`] from a borrowed slice (clones the pairs).
    ///
    /// # Errors
    ///
    /// Same as [`Dims::new`].
    pub fn from_pairs(pairs: &[(Coord, Coord)]) -> Result<Self, DimsError> {
        Self::new(pairs.to_vec())
    }

    /// Wraps a vector *without* validating it.
    ///
    /// This exists for trusted in-process construction (probe
    /// generators, tests, adversarial fuzzing inputs) where the caller
    /// either guarantees validity or deliberately wants an invalid
    /// vector. Untrusted data — the serve wire protocol, persisted
    /// artifacts — must go through [`Dims::new`] instead, so degenerate
    /// vectors are refused at the trust boundary.
    #[must_use]
    pub fn from_vec_unchecked(pairs: Vec<(Coord, Coord)>) -> Self {
        Self { pairs }
    }

    /// Number of blocks the vector spans (its arity).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.pairs.len()
    }

    /// The pairs as a raw slice (also available through deref).
    #[must_use]
    pub fn as_pairs(&self) -> &[(Coord, Coord)] {
        &self.pairs
    }

    /// Consumes the vector, returning the raw pairs.
    #[must_use]
    pub fn into_vec(self) -> Vec<(Coord, Coord)> {
        self.pairs
    }

    /// Whether every pair lies inside the corresponding per-block bounds.
    ///
    /// Returns `false` (rather than panicking) on arity mismatch: a
    /// vector for a different circuit is simply not admitted.
    #[must_use]
    pub fn within_bounds(&self, bounds: &[BlockRanges]) -> bool {
        self.pairs.len() == bounds.len()
            && self
                .pairs
                .iter()
                .zip(bounds)
                .all(|(&(w, h), b)| b.w.contains(w) && b.h.contains(h))
    }

    /// Clamps every pair into the corresponding per-block bounds,
    /// returning a new vector that [`Dims::within_bounds`] admits.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.len()` differs from the vector's arity — bounds
    /// for a different circuit cannot clamp this vector meaningfully.
    #[must_use]
    pub fn clamp_to_bounds(&self, bounds: &[BlockRanges]) -> Dims {
        assert_eq!(
            self.pairs.len(),
            bounds.len(),
            "dimension vector arity mismatch"
        );
        Dims {
            pairs: self
                .pairs
                .iter()
                .zip(bounds)
                .map(|(&(w, h), b)| (b.w.clamp_value(w), b.h.clamp_value(h)))
                .collect(),
        }
    }
}

impl Deref for Dims {
    type Target = [(Coord, Coord)];

    fn deref(&self) -> &Self::Target {
        &self.pairs
    }
}

impl AsRef<[(Coord, Coord)]> for Dims {
    fn as_ref(&self) -> &[(Coord, Coord)] {
        &self.pairs
    }
}

impl TryFrom<Vec<(Coord, Coord)>> for Dims {
    type Error = DimsError;

    fn try_from(pairs: Vec<(Coord, Coord)>) -> Result<Self, Self::Error> {
        Self::new(pairs)
    }
}

impl From<Dims> for Vec<(Coord, Coord)> {
    fn from(dims: Dims) -> Self {
        dims.pairs
    }
}

impl PartialEq<[(Coord, Coord)]> for Dims {
    fn eq(&self, other: &[(Coord, Coord)]) -> bool {
        self.pairs == other
    }
}

impl PartialEq<Vec<(Coord, Coord)>> for Dims {
    fn eq(&self, other: &Vec<(Coord, Coord)>) -> bool {
        &self.pairs == other
    }
}

impl PartialEq<Dims> for Vec<(Coord, Coord)> {
    fn eq(&self, other: &Dims) -> bool {
        self == &other.pairs
    }
}

impl<const N: usize> PartialEq<[(Coord, Coord); N]> for Dims {
    fn eq(&self, other: &[(Coord, Coord); N]) -> bool {
        self.pairs == other
    }
}

impl<'a> IntoIterator for &'a Dims {
    type Item = &'a (Coord, Coord);
    type IntoIter = std::slice::Iter<'a, (Coord, Coord)>;

    fn into_iter(self) -> Self::IntoIter {
        self.pairs.iter()
    }
}

/// Collects pairs into a **validated** vector, panicking on invalid
/// input (the iterator spelling of the [`crate::dims!`] macro — a
/// malformed collected vector is a bug at the collection site). Streams
/// that deliberately carry malformed probes collect into a
/// `Vec<(Coord, Coord)>` and wrap with [`Dims::from_vec_unchecked`].
impl FromIterator<(Coord, Coord)> for Dims {
    fn from_iter<I: IntoIterator<Item = (Coord, Coord)>>(iter: I) -> Self {
        Dims::new(iter.into_iter().collect())
            .expect("collected dimension vector must be non-empty with positive sizes")
    }
}

impl fmt::Debug for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.pairs).finish()
    }
}

/// Builds a validated [`Dims`] from pair literals.
///
/// Expands to `Dims::new(vec![...])` and unwraps: a literal violating the
/// validation rules is a bug at the call site, so the macro panics there.
///
/// ```
/// use mps_geom::dims;
/// let v = dims![(10, 20), (30, 40)];
/// assert_eq!(v.arity(), 2);
/// ```
#[macro_export]
macro_rules! dims {
    ($($pair:expr),+ $(,)?) => {
        $crate::Dims::new(vec![$($pair),+]).expect("dims! literal must be a valid dimension vector")
    };
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Reader, Serialize, Value};

    // Wire-format transparent: a `Dims` is the same `[[w, h], ...]`
    // nested array a `Vec<(Coord, Coord)>` has always been, so the
    // artifact envelope and the serve protocol are unchanged by the typed
    // API.
    impl Serialize for Dims {
        fn to_value(&self) -> Value {
            self.pairs.to_value()
        }
    }

    // Decoding is lenient (`from_vec_unchecked`): wire values are
    // validated against the *structure* they address (arity, designer
    // bounds) by the consuming seam, exactly as raw vectors were; only
    // shape errors (not arrays, not pairs, not integers) fail here.
    impl Deserialize for Dims {
        fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
            Vec::<(Coord, Coord)>::deserialize(r).map(Dims::from_vec_unchecked)
        }
    }
}

mod binfmt_impls {
    use super::*;
    use crate::dims_box::MAX_BLOCKS;
    use binfmt::{malformed, Decode, Decoder, Encode, Encoder, Error};
    use std::io::Write;

    impl Encode for Dims {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            enc.varint(self.pairs.len() as u64)?;
            for &(w, h) in &self.pairs {
                enc.zigzag(w)?;
                enc.zigzag(h)?;
            }
            Ok(())
        }
    }

    // Binary `Dims` only occur inside persisted artifacts (a stored
    // placement's `best_dims`), never on the wire, so decoding goes
    // through the *checked* constructor: a persisted vector is always a
    // valid one.
    impl Decode for Dims {
        fn decode(dec: &mut Decoder<'_>) -> Result<Self, Error> {
            let n = dec.len(MAX_BLOCKS, "Dims pairs")?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((dec.zigzag()?, dec.zigzag()?));
            }
            Dims::new(pairs).map_err(|e| malformed(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interval;

    #[test]
    fn validation_accepts_positive_pairs() {
        let v = Dims::new(vec![(1, 1), (30, 40)]).unwrap();
        assert_eq!(v.arity(), 2);
        assert_eq!(v.as_pairs(), &[(1, 1), (30, 40)]);
    }

    #[test]
    fn validation_rejects_empty_and_non_positive() {
        assert_eq!(Dims::new(vec![]), Err(DimsError::Empty));
        assert_eq!(
            Dims::new(vec![(10, 10), (0, 5)]),
            Err(DimsError::NonPositive {
                block: 1,
                width: 0,
                height: 5
            })
        );
        assert_eq!(
            Dims::from_pairs(&[(-3, 7)]),
            Err(DimsError::NonPositive {
                block: 0,
                width: -3,
                height: 7
            })
        );
    }

    #[test]
    fn unchecked_wraps_anything() {
        let v = Dims::from_vec_unchecked(vec![(-5, 7)]);
        assert_eq!(v.arity(), 1);
        assert_eq!(v[0], (-5, 7));
    }

    #[test]
    fn deref_and_conversions() {
        let v = dims![(10, 20), (30, 40)];
        let raw: &[(Coord, Coord)] = &v;
        assert_eq!(raw, v.as_pairs());
        let back: Vec<(Coord, Coord)> = v.clone().into();
        assert_eq!(Dims::try_from(back).unwrap(), v);
        assert_eq!((&v).into_iter().count(), 2);
        assert_eq!(format!("{v:?}"), "[(10, 20), (30, 40)]");
    }

    #[test]
    fn bounds_admission_and_clamping() {
        let bounds = vec![
            BlockRanges::new(Interval::new(10, 100), Interval::new(10, 100)),
            BlockRanges::new(Interval::new(5, 50), Interval::new(5, 50)),
        ];
        let inside = dims![(20, 20), (30, 30)];
        assert!(inside.within_bounds(&bounds));
        let outside = dims![(200, 20), (30, 3)];
        assert!(!outside.within_bounds(&bounds));
        let clamped = outside.clamp_to_bounds(&bounds);
        assert_eq!(clamped.as_pairs(), &[(100, 20), (30, 5)]);
        assert!(clamped.within_bounds(&bounds));
        // Arity mismatch is inadmissible, not a panic.
        assert!(!inside.within_bounds(&bounds[..1]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn clamp_rejects_wrong_arity() {
        let bounds = vec![BlockRanges::new(
            Interval::new(10, 100),
            Interval::new(10, 100),
        )];
        let _ = dims![(20, 20), (30, 30)].clamp_to_bounds(&bounds);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_matches_raw_vector_wire_format() {
        use serde::Serialize;
        let v = dims![(30, 40), (25, 25)];
        let raw: Vec<(Coord, Coord)> = v.as_pairs().to_vec();
        assert_eq!(v.to_value(), raw.to_value());
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, "[[30,40],[25,25]]");
        let back: Dims = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
