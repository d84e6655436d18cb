//! # analog-mps — multi-placement structures for analog circuit synthesis
//!
//! Umbrella crate for the reproduction of *"Multi-Placement Structures for
//! Fast and Optimized Placement in Analog Circuit Synthesis"* (Badaoui &
//! Vemuri, DATE 2005). It hosts the user-facing facade ([`api`]) and
//! re-exports the public API of every workspace crate:
//!
//! * [`api`] — **start here**: the [`Workspace`](api::Workspace) session
//!   object spanning generate → persist → compile → serve, the one
//!   [`MpsError`](api::MpsError) every facade call returns, and the typed
//!   [`Dims`] dimension vectors the whole query surface speaks.
//! * [`geom`] — integer geometry: intervals, rectangles, interval-row maps,
//!   dimension-space boxes, typed dimension vectors.
//! * [`netlist`] — circuits, blocks, nets, module generators, and the nine
//!   Table-1 benchmark circuits.
//! * [`anneal`] — the generic simulated-annealing engine used by both levels
//!   of the paper's nested annealer and by the baseline placers.
//! * [`placer`] — placement substrate: cost functions (wirelength + area),
//!   placement expansion, template baseline, flat-SA baseline, sequence
//!   pairs, symmetry constraints.
//! * [`mps`] — the paper's contribution: the multi-placement structure, its
//!   nested-SA generator, and the layout-inclusive synthesis loop.
//! * [`serve`] — the query-serving subsystem: compiled allocation-free
//!   query indexes, a hot-swappable registry of persisted structures, and
//!   the line-protocol engine behind the `mps-serve` binary.
//!
//! # Quickstart
//!
//! The [`api::Workspace`] owns the paper's *generate once, query many*
//! lifecycle: the first run generates and persists; every later run loads
//! the artifact and answers through the compiled query plan.
//!
//! ```
//! use analog_mps::api::Workspace;
//! use analog_mps::mps::GeneratorConfig;
//! use analog_mps::netlist::benchmarks;
//!
//! # fn main() -> Result<(), analog_mps::api::MpsError> {
//! let dir = std::env::temp_dir().join(format!("mps_quickstart_{}", std::process::id()));
//! let mut ws = Workspace::open(&dir)?;
//!
//! // Resolve a structure by name: load the artifact if present,
//! // generate (tiny budget to keep doctests fast) and persist otherwise.
//! let circuit = benchmarks::circ01();
//! let config = GeneratorConfig::builder()
//!     .outer_iterations(40)
//!     .inner_iterations(30)
//!     .seed(7)
//!     .build();
//! ws.generate_or_load("circ01", &circuit, config)?;
//!
//! // Iterative use in a synthesis loop: typed sizes in, floorplan out,
//! // answered by the compiled query plan in microseconds.
//! let sizing = circuit.min_dims();
//! let placement = ws.instantiate("circ01", &sizing)?;
//! assert!(placement.is_legal(&sizing, None));
//!
//! // The same directory serves heavy traffic behind `mps-serve`:
//! let registry = ws.serve_registry()?;
//! assert_eq!(registry.names(), vec!["circ01"]);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! Typed dimension vectors are built with [`Dims::new`], the
//! [`dims!`] macro, or circuit helpers (`circuit.min_dims()`,
//! `circuit.clamp_dims(..)`); they deref to `[(Coord, Coord)]`, so
//! packing, legality and cost APIs keep working on them unchanged.
//!
//! # Migrating from the raw (PR ≤ 3) APIs
//!
//! See the [`api`] module docs for the old → new migration table. The
//! raw-slice `*_pairs` shims had their one release and are gone: wrap a
//! raw slice with [`Dims::from_pairs`] and call the typed method.

#![forbid(unsafe_code)]

pub use mps_anneal as anneal;
pub use mps_core as mps;
pub use mps_geom as geom;
pub use mps_netlist as netlist;
pub use mps_placer as placer;
pub use mps_serve as serve;

#[cfg(feature = "serde")]
pub mod api;

// The facade's working vocabulary, promoted to the crate root.
pub use mps_geom::{dims, Coord, Dims, DimsError};
