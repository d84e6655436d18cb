//! The unified facade: typed dimension vectors, one error type, and a
//! session [`Workspace`] spanning generate → persist → compile → serve.
//!
//! The lower crates stay precise — `mps-core` speaks
//! [`GenerateError`](mps_core::GenerateError) /
//! [`PersistError`](mps_core::PersistError), `mps-serve` speaks
//! [`ServeError`](mps_serve::ServeError) — and this module is where they
//! compose: every public fallible function here returns
//! `Result<_, `[`MpsError`]`>`, every dimension vector is a typed
//! [`Dims`], and the [`Workspace`] owns the whole artifact lifecycle
//! that bench binaries and applications previously re-stitched by hand.
//!
//! # Migration from the raw APIs
//!
//! | Old (PR ≤ 3)                                        | New                                            |
//! |-----------------------------------------------------|------------------------------------------------|
//! | `mps.query(&[(w, h), ...])`                         | `mps.query(&dims![(w, h), ...])`               |
//! | `mps.query_pairs(&raw_slice)` *(removed)*           | `mps.query(&Dims::from_pairs(&raw_slice)?)`    |
//! | `mps.query_with_scratch_pairs(&raw, &mut s)` *(removed)* | `mps.query_with_scratch(&Dims::from_pairs(&raw)?, &mut s)` |
//! | every other `*_pairs` shim *(removed)*              | its typed namesake over [`Dims::from_pairs`](mps_geom::Dims::from_pairs) |
//! | `check_invariants() -> Result<(), String>`          | `-> Result<(), InvariantError>`                |
//! | `MpsGenerator` + `save_json` + `load_json` by hand  | [`Workspace::generate_or_load`]                |
//! | `CompiledQueryIndex::build` + `verify_against` *(removed)* | `mps.index()`: the structure's own index, built once from its entries |
//! | `StructureRegistry::open(dir)`                      | [`Workspace::serve_registry`]                  |
//! | `GenerateError` / `PersistError` / `ServeError` / `String` | one [`MpsError`] with `From` impls       |
//!
//! [`Dims`]: mps_geom::Dims

mod error;
mod workspace;

pub use error::{MpsError, QueryError};
pub use mps_serve::ServerConfig;
pub use workspace::{ArtifactSource, StructureHandle, Workspace};
