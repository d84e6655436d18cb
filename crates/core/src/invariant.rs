//! Typed structural-invariant violations.
//!
//! [`MultiPlacementStructure::check_invariants`] used to describe the
//! first violated invariant as a bare `String`; callers that wanted to
//! react differently to an Eq.-5 overlap versus a corrupt row had to
//! parse prose. This module is the typed replacement: one variant per
//! invariant class, carrying the identifiers a caller can act on, with
//! the prose preserved in the `Display` impl.
//!
//! [`MultiPlacementStructure::check_invariants`]: crate::MultiPlacementStructure::check_invariants

use crate::PlacementId;
use mps_geom::Axis;
use std::fmt;

/// The first structural invariant a [`crate::MultiPlacementStructure`]
/// was found to violate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantError {
    /// A stored interval row differs from the row the live entries'
    /// validity boxes derive.
    Row {
        /// The block whose row is corrupt.
        block: usize,
        /// Which of the block's two rows.
        axis: Axis,
        /// Where the stored row departs from the derived one.
        detail: String,
    },
    /// A validity box escapes the per-block coverage bounds.
    OutOfBounds {
        /// The out-of-bounds entry.
        id: PlacementId,
        /// Which bound is escaped.
        detail: String,
    },
    /// A stored placement overlaps itself or the floorplan boundary with
    /// every block at its validity box's upper corner.
    IllegalPlacement {
        /// The illegal entry.
        id: PlacementId,
    },
    /// Two live validity boxes overlap — the Eq.-5 uniqueness guarantee
    /// is broken.
    BoxOverlap {
        /// One of the overlapping entries.
        a: PlacementId,
        /// The other overlapping entry.
        b: PlacementId,
    },
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let axis_label = |axis: &Axis| match axis {
            Axis::Width => "w",
            Axis::Height => "h",
        };
        match self {
            InvariantError::Row {
                block,
                axis,
                detail,
            } => write!(f, "{}_row {block}: {detail}", axis_label(axis)),
            InvariantError::OutOfBounds { id, detail } => write!(f, "{id:?}: {detail}"),
            InvariantError::IllegalPlacement { id } => {
                write!(f, "{id:?}: illegal at box upper corner")
            }
            InvariantError::BoxOverlap { a, b } => {
                write!(f, "{a:?} and {b:?} validity boxes overlap")
            }
        }
    }
}

impl std::error::Error for InvariantError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_identifiers() {
        let e = InvariantError::BoxOverlap {
            a: PlacementId(3),
            b: PlacementId(7),
        };
        assert_eq!(e.to_string(), "P3 and P7 validity boxes overlap");
        let e = InvariantError::IllegalPlacement { id: PlacementId(1) };
        assert!(e.to_string().contains("illegal"));
        let e = InvariantError::Row {
            block: 2,
            axis: Axis::Height,
            detail: "descending".into(),
        };
        assert_eq!(e.to_string(), "h_row 2: descending");
    }
}
