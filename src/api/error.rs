//! The unified error hierarchy of the facade.
//!
//! Every stage of the workflow has its own precise error type —
//! [`GenerateError`] from generation, [`PersistError`] from the artifact
//! loaders, [`InvariantError`] from the Eq.-5 battery, [`ServeError`]
//! from the registry — and code composing the stages used to juggle all
//! of them. [`MpsError`] is the sum type the facade speaks: every public
//! fallible function in [`crate::api`] returns `Result<_, MpsError>`,
//! and `From` impls from each stage error make `?` compose across the
//! whole generate → persist → compile → serve pipeline.

use mps_core::{GenerateError, InvariantError, PersistError, RefineError};
use mps_geom::{Coord, DimsError};
use mps_serve::ServeError;
use std::fmt;

/// Why a facade query or instantiation was refused before it ever
/// reached a structure.
#[derive(Debug)]
pub enum QueryError {
    /// The dimension vector itself is malformed (empty, non-positive
    /// sizes).
    InvalidDims(DimsError),
    /// The vector's arity differs from the structure's block count.
    BadArity {
        /// The addressed structure.
        structure: String,
        /// The structure's block count.
        expected: usize,
        /// The vector's arity.
        got: usize,
    },
    /// A dimension pair escapes the structure's designer bounds (only
    /// instantiation rejects this — the fallback packing guarantees
    /// legality only inside the bounds; queries answer `None`).
    OutOfBounds {
        /// The addressed structure.
        structure: String,
        /// The offending block index.
        block: usize,
        /// The offending `(w, h)` pair.
        dims: (Coord, Coord),
    },
    /// No structure of that name in the workspace.
    UnknownStructure {
        /// The requested name.
        name: String,
        /// The names actually available.
        available: Vec<String>,
    },
    /// A loaded artifact belongs to a different circuit than the one the
    /// caller is working with (dimension bounds differ).
    CircuitMismatch {
        /// The artifact's workspace name.
        name: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::InvalidDims(e) => write!(f, "invalid dimension vector: {e}"),
            QueryError::BadArity {
                structure,
                expected,
                got,
            } => write!(
                f,
                "structure `{structure}` covers {expected} blocks, got {got} dimension pairs"
            ),
            QueryError::OutOfBounds {
                structure,
                block,
                dims: (w, h),
            } => write!(
                f,
                "block {block} dimensions ({w}, {h}) escape the designer bounds of \
                 structure `{structure}`"
            ),
            QueryError::UnknownStructure { name, available } => write!(
                f,
                "no structure `{name}` in the workspace (available: {})",
                available.join(", ")
            ),
            QueryError::CircuitMismatch { name } => write!(
                f,
                "structure `{name}` was generated for a different circuit \
                 (dimension bounds differ)"
            ),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::InvalidDims(e) => Some(e),
            _ => None,
        }
    }
}

/// The one error type of the `analog_mps` facade.
///
/// One variant per pipeline stage, each wrapping that stage's precise
/// error; `From` impls let `?` lift any stage error into an `MpsError`,
/// so application code handles one type end to end:
///
/// ```
/// use analog_mps::api::MpsError;
///
/// fn stage() -> Result<(), MpsError> {
///     let circuit = analog_mps::netlist::benchmarks::circ01();
///     let config = analog_mps::mps::GeneratorConfig::builder()
///         .outer_iterations(20)
///         .build();
///     // GenerateError lifts via From:
///     let mps = analog_mps::mps::MpsGenerator::new(&circuit, config).generate()?;
///     // InvariantError lifts via From:
///     mps.check_invariants()?;
///     Ok(())
/// }
/// # stage().unwrap();
/// ```
#[derive(Debug)]
pub enum MpsError {
    /// One-time structure generation failed.
    Generate(GenerateError),
    /// Loading or saving an artifact failed.
    Persist(PersistError),
    /// A structure violates the Eq.-5 invariant battery.
    Invariant(InvariantError),
    /// A query/instantiation was refused (bad dims, arity, bounds,
    /// unknown name, circuit mismatch).
    Query(QueryError),
    /// The serving layer refused (directory scan, artifact load,
    /// duplicate names).
    Serve(ServeError),
    /// A region refinement pass was refused (malformed region, or the
    /// merged result failed the invariant battery).
    Refine(RefineError),
}

impl fmt::Display for MpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpsError::Generate(e) => write!(f, "generation failed: {e}"),
            MpsError::Persist(e) => write!(f, "persistence failed: {e}"),
            MpsError::Invariant(e) => write!(f, "invariant violated: {e}"),
            MpsError::Query(e) => write!(f, "query refused: {e}"),
            MpsError::Serve(e) => write!(f, "serving failed: {e}"),
            MpsError::Refine(e) => write!(f, "refinement refused: {e}"),
        }
    }
}

impl std::error::Error for MpsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpsError::Generate(e) => Some(e),
            MpsError::Persist(e) => Some(e),
            MpsError::Invariant(e) => Some(e),
            MpsError::Query(e) => Some(e),
            MpsError::Serve(e) => Some(e),
            MpsError::Refine(e) => Some(e),
        }
    }
}

impl From<GenerateError> for MpsError {
    fn from(e: GenerateError) -> Self {
        MpsError::Generate(e)
    }
}

impl From<PersistError> for MpsError {
    fn from(e: PersistError) -> Self {
        MpsError::Persist(e)
    }
}

impl From<InvariantError> for MpsError {
    fn from(e: InvariantError) -> Self {
        MpsError::Invariant(e)
    }
}

impl From<QueryError> for MpsError {
    fn from(e: QueryError) -> Self {
        MpsError::Query(e)
    }
}

impl From<DimsError> for MpsError {
    fn from(e: DimsError) -> Self {
        MpsError::Query(QueryError::InvalidDims(e))
    }
}

impl From<ServeError> for MpsError {
    fn from(e: ServeError) -> Self {
        MpsError::Serve(e)
    }
}

impl From<RefineError> for MpsError {
    fn from(e: RefineError) -> Self {
        MpsError::Refine(e)
    }
}

/// File I/O at the facade seam is persistence I/O.
impl From<std::io::Error> for MpsError {
    fn from(e: std::io::Error) -> Self {
        MpsError::Persist(PersistError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_pick_the_right_variant() {
        let e: MpsError = DimsError::Empty.into();
        assert!(matches!(e, MpsError::Query(QueryError::InvalidDims(_))));
        let e: MpsError = std::io::Error::other("boom").into();
        assert!(matches!(e, MpsError::Persist(PersistError::Io(_))));
        let e: MpsError = mps_core::InvariantError::IllegalPlacement {
            id: mps_core::PlacementId(0),
        }
        .into();
        assert!(matches!(e, MpsError::Invariant(_)));
    }

    #[test]
    fn display_is_prefixed_by_stage() {
        let e: MpsError = DimsError::Empty.into();
        assert!(e.to_string().starts_with("query refused:"), "{e}");
        let source = std::error::Error::source(&e);
        assert!(source.is_some(), "stage error preserved as source");
    }
}
