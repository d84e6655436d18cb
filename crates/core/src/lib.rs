//! Multi-placement structures for analog circuit synthesis.
//!
//! This crate implements the contribution of *"Multi-Placement Structures
//! for Fast and Optimized Placement in Analog Circuit Synthesis"* (Badaoui
//! & Vemuri, DATE 2005):
//!
//! * [`MultiPlacementStructure`] — the generate-once, query-many structure:
//!   a set Π of placements, each valid over a disjoint hyper-rectangular
//!   region of block-dimension space, looked up through per-block interval
//!   rows (the function *M* of Eqs. 1/4, with the uniqueness guarantee of
//!   Eq. 5), held in one flat [`CompiledQueryIndex`].
//! * [`MpsGenerator`] — the one-time nested simulated-annealing generation
//!   algorithm (§3): the outer *Placement Explorer* walks placement space;
//!   the inner *Block Dimensions-Interval Optimizer* shrinks each
//!   placement's validity region around its best dimensions (Eq. 6);
//!   *Resolve Overlaps* keeps regions disjoint.
//! * [`SynthesisLoop`] — the layout-inclusive sizing loop of Fig. 1b, which
//!   exercises the structure the way a synthesis tool would.
//! * [`parallel`] — multi-start generation: K independently seeded
//!   explorer walks on a scoped thread pool, merged deterministically
//!   through Resolve Overlaps. Enabled via
//!   [`GeneratorConfig::num_starts`] / [`GeneratorConfig::threads`].
//!
//! # Quickstart
//!
//! ```
//! use mps_core::{GeneratorConfig, MpsGenerator};
//! use mps_netlist::benchmarks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = benchmarks::circ01();
//! let config = GeneratorConfig::builder()
//!     .outer_iterations(40)
//!     .inner_iterations(40)
//!     .seed(1)
//!     .build();
//! let structure = MpsGenerator::new(&circuit, config).generate()?;
//! assert!(structure.placement_count() > 0);
//!
//! // Synthesis-time use: sizes in, floorplan out, microseconds.
//! let dims = circuit.min_dims();
//! let placement = structure.instantiate_or_fallback(&dims);
//! assert!(placement.is_legal(&dims, None));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdio;
mod compiled;
mod coverage;
mod entry;
mod explorer;
mod generator;
mod invariant;
pub mod parallel;
#[cfg(feature = "serde")]
mod persist;
mod refine;
mod resolve;
mod structure;
mod synthesis;
mod synthetic;

pub use bdio::{Bdio, BdioConfig, BdioResult};
#[doc(hidden)]
pub use compiled::IndexPlan;
pub use compiled::{CompiledQueryIndex, QueryScratch};
pub use coverage::{row_coverage, volume_coverage};
pub use entry::{PlacementId, StoredPlacement};
pub use explorer::{ExplorerConfig, ExplorerStats};
pub use generator::{
    GenerateError, GenerationReport, GeneratorConfig, GeneratorConfigBuilder, MpsGenerator,
    PhaseTimings,
};
pub use invariant::InvariantError;
#[cfg(feature = "serde")]
pub use persist::{
    PersistError, BIN_MAGIC as PERSIST_BIN_MAGIC, BIN_VERSION as PERSIST_BIN_VERSION,
    FORMAT as PERSIST_FORMAT,
};
pub use refine::{refine_region, refine_region_with_circuit, RefineError, RefineReport};
pub use structure::MultiPlacementStructure;
pub use synthesis::{PerformanceModel, SynthesisLoop, SynthesisOutcome};
pub use synthetic::grid_structure;
