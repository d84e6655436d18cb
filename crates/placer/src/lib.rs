//! Placement substrate for analog circuit synthesis.
//!
//! Everything below the multi-placement structure proper lives here:
//!
//! * [`Placement`] — block coordinates on the floorplan, legality checks.
//! * [`CostCalculator`] — the paper's customizable cost "based on the
//!   wire-lengths and area" (§3.2.2): weighted half-perimeter wirelength
//!   plus bounding-box half-perimeter, with an optional overlap penalty for
//!   optimization-based placers and an optional symmetry penalty.
//! * [`IncrementalCost`] — the same cost, bit for bit, for a placement
//!   whose block dimensions move one block at a time (the BDIO's inner
//!   anneal) inside a box legal at its upper corner: a move recomputes
//!   only what the moved block touches, and no state needs a penalty term.
//! * [`expand_placement`] — the *Placement Expansion* step (§3.1.2): grow
//!   block dimensions from their minima until overlap or out-of-bounds,
//!   producing the initial validity box of a candidate placement.
//! * [`SequencePair`] — the classic topological floorplan representation,
//!   used by the template baseline and as a legalizer.
//! * [`Template`] — the template-based baseline placer (§1): one fixed
//!   relative arrangement instantiated for any sizes.
//! * [`SaPlacer`] — the optimization-based baseline placer (KOAN/ANAGRAM
//!   class, §1): per-query flat simulated annealing over coordinates.
//! * [`SymmetryConstraints`] — analog symmetry groups (extension).
//!
//! # Example
//!
//! ```
//! use mps_netlist::benchmarks;
//! use mps_placer::{CostCalculator, SaPlacer, SaPlacerConfig};
//!
//! let circuit = benchmarks::circ01();
//! let dims = circuit.min_dims();
//! let placer = SaPlacer::new(&circuit, SaPlacerConfig { iterations: 500, ..Default::default() });
//! let outcome = placer.place(&dims, 42);
//! assert!(outcome.placement.is_legal(&dims, None));
//! let cost = CostCalculator::new(&circuit).cost(&outcome.placement, &dims);
//! assert!(cost.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod expansion;
mod placement;
mod sa_placer;
mod seqpair;
mod symmetry;
mod template;

pub use cost::{CostBreakdown, CostCalculator, CostWeights, IncrementalCost};
pub use expansion::{expand_placement, ExpandPlacementError, ExpansionConfig};
pub use placement::Placement;
pub use sa_placer::{SaOutcome, SaPlacer, SaPlacerConfig};
pub use seqpair::SequencePair;
pub use symmetry::{SymmetryConstraints, SymmetryGroup};
pub use template::Template;
