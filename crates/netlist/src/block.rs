//! Blocks: the placeable modules of a circuit.

use mps_geom::{BlockRanges, Coord, Interval};
use std::fmt;

/// Index of a block within its circuit.
///
/// Blocks are stored densely in a [`crate::Circuit`]; a `BlockId` is simply
/// the position in that vector, wrapped for type safety so net pins cannot
/// be confused with raw indices.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

impl BlockId {
    /// The underlying dense index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl From<usize> for BlockId {
    fn from(i: usize) -> Self {
        BlockId(i)
    }
}

/// A placeable module: "any module defined by its module generator
/// functions" (§2.1).
///
/// The designer-set constants `w_m, h_m` (minimum) and `w_M, h_M` (maximum)
/// bound the dimensions the module generator can produce; the
/// multi-placement structure's coverage space is the product of these
/// per-block ranges.
///
/// # Example
///
/// ```
/// use mps_netlist::Block;
/// let b = Block::new("M1", 20, 80, 10, 40);
/// assert_eq!(b.min_width(), 20);
/// assert_eq!(b.dim_ranges().w.len(), 61);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    name: String,
    w_min: Coord,
    w_max: Coord,
    h_min: Coord,
    h_max: Coord,
}

impl Block {
    /// Creates a block with the given dimension bounds.
    ///
    /// # Panics
    ///
    /// Panics if any bound is non-positive or a minimum exceeds its maximum.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        w_min: Coord,
        w_max: Coord,
        h_min: Coord,
        h_max: Coord,
    ) -> Self {
        assert!(
            w_min > 0 && h_min > 0,
            "minimum dimensions must be positive"
        );
        assert!(w_min <= w_max, "w_min {w_min} exceeds w_max {w_max}");
        assert!(h_min <= h_max, "h_min {h_min} exceeds h_max {h_max}");
        Self {
            name: name.into(),
            w_min,
            w_max,
            h_min,
            h_max,
        }
    }

    /// A convenience square block with bounds `[min, max]` on both axes.
    #[must_use]
    pub fn square(name: impl Into<String>, min: Coord, max: Coord) -> Self {
        Self::new(name, min, max, min, max)
    }

    /// Human-readable block name (e.g. `"M1"`, `"Cc"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Designer-set minimum width `w_m`.
    #[must_use]
    pub fn min_width(&self) -> Coord {
        self.w_min
    }

    /// Designer-set maximum width `w_M`.
    #[must_use]
    pub fn max_width(&self) -> Coord {
        self.w_max
    }

    /// Designer-set minimum height `h_m`.
    #[must_use]
    pub fn min_height(&self) -> Coord {
        self.h_min
    }

    /// Designer-set maximum height `h_M`.
    #[must_use]
    pub fn max_height(&self) -> Coord {
        self.h_max
    }

    /// Both bounds as a [`BlockRanges`] (the block's full coverage region).
    #[must_use]
    pub fn dim_ranges(&self) -> BlockRanges {
        BlockRanges::new(
            Interval::new(self.w_min, self.w_max),
            Interval::new(self.h_min, self.h_max),
        )
    }

    /// Clamps an arbitrary `(w, h)` request into the block's bounds —
    /// module generators saturate at the designer limits.
    #[must_use]
    pub fn clamp_dims(&self, w: Coord, h: Coord) -> (Coord, Coord) {
        (
            w.clamp(self.w_min, self.w_max),
            h.clamp(self.h_min, self.h_max),
        )
    }

    /// Whether `(w, h)` lies within bounds.
    #[must_use]
    pub fn admits(&self, w: Coord, h: Coord) -> bool {
        self.w_min <= w && w <= self.w_max && self.h_min <= h && h <= self.h_max
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Field, Map, Reader, Serialize, Value};

    impl Serialize for BlockId {
        fn to_value(&self) -> Value {
            self.0.to_value()
        }
    }

    impl Deserialize for BlockId {
        fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
            usize::deserialize(r).map(BlockId)
        }
    }

    impl Serialize for Block {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("name", self.name.to_value());
            map.insert("w_min", self.w_min.to_value());
            map.insert("w_max", self.w_max.to_value());
            map.insert("h_min", self.h_min.to_value());
            map.insert("h_max", self.h_max.to_value());
            Value::Object(map)
        }
    }

    // Hand-written so the dimension-bound invariants are re-validated on
    // load (positive minima, min <= max on both axes).
    impl Deserialize for Block {
        fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
            let mut name = Field::<String>::new("name");
            let mut w_min = Field::<Coord>::new("w_min");
            let mut w_max = Field::<Coord>::new("w_max");
            let mut h_min = Field::<Coord>::new("h_min");
            let mut h_max = Field::<Coord>::new("h_max");
            serde::read_object(r, |key, r| match key {
                "name" => name.read(r),
                "w_min" => w_min.read(r),
                "w_max" => w_max.read(r),
                "h_min" => h_min.read(r),
                "h_max" => h_max.read(r),
                _ => r.skip_value(),
            })?;
            let name = name.take("Block")?;
            let w_min = w_min.take("Block")?;
            let w_max = w_max.take("Block")?;
            let h_min = h_min.take("Block")?;
            let h_max = h_max.take("Block")?;
            if w_min <= 0 || h_min <= 0 {
                return Err(Error::custom(format!(
                    "block `{name}`: minimum dimensions must be positive"
                )));
            }
            if w_min > w_max || h_min > h_max {
                return Err(Error::custom(format!(
                    "block `{name}`: inverted dimension bounds"
                )));
            }
            Ok(Block {
                name,
                w_min,
                w_max,
                h_min,
                h_max,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let b = Block::new("M1", 10, 50, 20, 60);
        assert_eq!(b.name(), "M1");
        assert_eq!(b.min_width(), 10);
        assert_eq!(b.max_width(), 50);
        assert_eq!(b.min_height(), 20);
        assert_eq!(b.max_height(), 60);
    }

    #[test]
    fn square_block() {
        let b = Block::square("C1", 5, 25);
        assert_eq!(b.min_width(), 5);
        assert_eq!(b.max_height(), 25);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_min_rejected() {
        let _ = Block::new("x", 0, 5, 1, 5);
    }

    #[test]
    #[should_panic(expected = "exceeds w_max")]
    fn inverted_width_bounds_rejected() {
        let _ = Block::new("x", 10, 5, 1, 5);
    }

    #[test]
    fn clamp_saturates() {
        let b = Block::new("M1", 10, 50, 20, 60);
        assert_eq!(b.clamp_dims(1, 100), (10, 60));
        assert_eq!(b.clamp_dims(30, 30), (30, 30));
    }

    #[test]
    fn admits_boundaries() {
        let b = Block::new("M1", 10, 50, 20, 60);
        assert!(b.admits(10, 20));
        assert!(b.admits(50, 60));
        assert!(!b.admits(9, 20));
        assert!(!b.admits(10, 61));
    }

    #[test]
    fn dim_ranges_roundtrip() {
        let b = Block::new("M1", 10, 50, 20, 60);
        let r = b.dim_ranges();
        assert_eq!(r.w, Interval::new(10, 50));
        assert_eq!(r.h, Interval::new(20, 60));
    }

    #[test]
    fn block_id_display_and_conversion() {
        let id: BlockId = 3.into();
        assert_eq!(id.index(), 3);
        assert_eq!(format!("{id}"), "B3");
        assert_eq!(format!("{id:?}"), "B3");
    }
}
