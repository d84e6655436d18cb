//! Integer geometry substrate for analog placement.
//!
//! This crate provides the low-level geometric machinery that the
//! multi-placement structure of Badaoui & Vemuri (DATE 2005) is built on:
//!
//! * [`Interval`] — closed integer intervals `[lo, hi]`, the unit of the
//!   per-block dimension ranges `[w_start, w_end]` / `[h_start, h_end]`
//!   (Eq. 2 of the paper).
//! * [`Rect`] / [`Point`] — axis-aligned rectangles on the floorplan surface.
//! * [`IntervalMap`] — a sorted, non-overlapping linked-list-of-intervals row
//!   mapping dimension values to arrays of placement indices (one row of
//!   Fig. 3 of the paper). The multi-placement structure holds its rows
//!   only as one flat index; this form is what the legacy artifact readers
//!   decode into and what tests and benches check that index against.
//! * [`DimsBox`] — a product of per-block `(w, h)` intervals: the
//!   hyper-rectangular validity region of one stored placement in the
//!   2N-dimensional block-dimension space.
//! * [`Dims`] — a validated dimension vector (one `(w, h)` pair per
//!   block): the typed argument of every query/instantiation seam,
//!   wire-compatible with the raw `[[w, h], ...]` arrays it replaced.
//! * [`svg`] — a tiny renderer producing floorplan pictures (Figs. 5 and 7).
//!
//! Everything is integer-based: the paper's interval objects are integer
//! intervals, and analog module generators snap shapes to a manufacturing
//! grid anyway. Coordinates and dimensions use [`Coord`] (`i64`), which is
//! wide enough that overflow is never a practical concern for micrometer- or
//! nanometer-grid layouts.
//!
//! # Example
//!
//! ```
//! use mps_geom::{Interval, IntervalMap};
//!
//! // A row of the Fig.-3 structure for one block's width axis.
//! let mut row = IntervalMap::new();
//! row.insert(Interval::new(10, 20), 0); // placement 0 valid for w in [10,20]
//! row.insert(Interval::new(15, 30), 1); // placement 1 valid for w in [15,30]
//! assert_eq!(row.query(12), &[0]);
//! assert_eq!(row.query(18), &[0, 1]);
//! assert_eq!(row.query(25), &[1]);
//! assert!(row.query(40).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dims;
mod dims_box;
mod interval;
mod interval_map;
mod point;
mod rect;
pub mod svg;

pub use dims::{Dims, DimsError};
pub use dims_box::{Axis, BlockRanges, DimIndex, DimsBox};
pub use interval::{Interval, SubtractResult, TryNewIntervalError};
pub use interval_map::IntervalMap;
pub use point::Point;
pub use rect::Rect;

/// Integer coordinate / dimension type used throughout the workspace.
///
/// Layout geometry lives on an integer grid (the paper's interval objects are
/// integer intervals). `i64` leaves ample headroom for nanometer grids.
pub type Coord = i64;
