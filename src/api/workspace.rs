//! The workspace: one session object spanning generate → persist →
//! compile → serve.
//!
//! The paper's economics are *generate once, query many* (Fig. 1); the
//! repo grew each stage separately — [`MpsGenerator`] for generation,
//! `save_json`/`load_json` for persistence, [`CompiledQueryIndex`] for
//! the serving hot path, [`StructureRegistry`] for hot-swappable
//! serving — and every consumer re-stitched them by hand. A
//! [`Workspace`] is that stitching done once, behind one directory:
//!
//! * [`Workspace::generate_or_load`] resolves a structure by name:
//!   an existing `mps-v1` artifact is loaded (re-validated, circuit
//!   cross-checked), otherwise the structure is generated **and
//!   persisted** so the next session loads instead;
//! * every handle auto-compiles a [`CompiledQueryIndex`], cross-checked
//!   against the interpretive path before first use, so
//!   [`Workspace::query`] always runs the fast plan with bit-identical
//!   answers;
//! * [`Workspace::serve_registry`] opens the same directory as a
//!   hot-swappable [`StructureRegistry`], ready to put behind
//!   `mps-serve`.
//!
//! [`MpsGenerator`]: mps_core::MpsGenerator
//! [`CompiledQueryIndex`]: mps_serve::CompiledQueryIndex

use crate::api::{MpsError, QueryError};
use mps_core::{
    refine_region, GenerationReport, GeneratorConfig, MpsGenerator, MultiPlacementStructure,
    PlacementId, RefineReport,
};
use mps_geom::{BlockRanges, Dims};
use mps_netlist::Circuit;
use mps_placer::Placement;
use mps_serve::{ServedStructure, Server, ServerConfig, StructureRegistry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A structure handle: the validated structure plus its compiled query
/// index, immutable for its whole life (the same type the serving
/// registry hands out).
pub type StructureHandle = ServedStructure;

/// How [`Workspace::generate_or_load`] came by a structure.
#[derive(Debug)]
pub enum ArtifactSource {
    /// Freshly generated (and persisted); the report carries timing and
    /// explorer counters.
    Generated(GenerationReport),
    /// Loaded and re-validated from this artifact file; no generation
    /// happened.
    Loaded(PathBuf),
}

/// A directory of named `mps-v1` artifacts plus the compiled handles
/// over them — the facade's session object.
///
/// # Example
///
/// ```
/// use analog_mps::api::Workspace;
/// use analog_mps::mps::GeneratorConfig;
/// use analog_mps::netlist::benchmarks;
///
/// # fn main() -> Result<(), analog_mps::api::MpsError> {
/// let dir = std::env::temp_dir().join(format!("mps_ws_doc_{}", std::process::id()));
/// let mut ws = Workspace::open(&dir)?;
/// let circuit = benchmarks::circ01();
/// let config = GeneratorConfig::builder().outer_iterations(25).seed(7).build();
///
/// // First call generates and persists; a rerun loads the artifact.
/// ws.generate_or_load("circ01", &circuit, config)?;
///
/// // Typed queries through the compiled plan:
/// let sizing = circuit.min_dims();
/// let id = ws.query("circ01", &sizing)?;
/// let placement = ws.instantiate("circ01", &sizing)?;
/// assert!(placement.is_legal(&sizing, None));
/// assert_eq!(id.is_some(), ws.handle("circ01")?.structure().query(&sizing).is_some());
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Workspace {
    dir: PathBuf,
    handles: BTreeMap<String, Arc<ServedStructure>>,
}

impl Workspace {
    /// Opens (creating if necessary) a workspace directory.
    ///
    /// Opening is lazy: no artifact is read until it is addressed by
    /// name, so a workspace over a large artifact store costs nothing
    /// up front.
    ///
    /// # Errors
    ///
    /// Returns [`MpsError::Persist`] when the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, MpsError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            handles: BTreeMap::new(),
        })
    }

    /// The backing directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the artifact for `name` lives:
    /// `<dir>/<name>.mps.json` — the same layout the bench bins'
    /// `--save` flag and the `mps-serve` registry use.
    #[must_use]
    pub fn artifact_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.mps.json"))
    }

    /// Names with a live handle in this session (loaded or generated),
    /// sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.handles.keys().cloned().collect()
    }

    /// The live handle behind `name`.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownStructure`] when `name` has not been
    /// loaded or generated in this session.
    pub fn handle(&self, name: &str) -> Result<&StructureHandle, MpsError> {
        self.handles
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| self.unknown(name))
    }

    /// A shareable reference to the handle behind `name` (for worker
    /// pools and registries).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownStructure`] when `name` has not been
    /// loaded or generated in this session.
    pub fn handle_arc(&self, name: &str) -> Result<Arc<StructureHandle>, MpsError> {
        self.handles
            .get(name)
            .cloned()
            .ok_or_else(|| self.unknown(name))
    }

    /// Resolves `name` for `circuit`: loads the artifact if present
    /// (re-validating the envelope, the Eq.-5 battery, the compiled
    /// index, *and* the circuit's dimension bounds), otherwise generates
    /// under `config` and persists the result for future sessions.
    ///
    /// # Errors
    ///
    /// Any stage error: [`MpsError::Persist`] on a corrupt artifact or
    /// unwritable directory, [`QueryError::CircuitMismatch`] when the
    /// artifact belongs to a different circuit, [`MpsError::Generate`]
    /// on invalid circuits, [`MpsError::Serve`] when the compiled index
    /// diverges.
    pub fn generate_or_load(
        &mut self,
        name: &str,
        circuit: &Circuit,
        config: GeneratorConfig,
    ) -> Result<(&StructureHandle, ArtifactSource), MpsError> {
        let path = self.artifact_path(name);
        if path.is_file() {
            // Validate fully *before* installing: a wrong-circuit
            // artifact must not become (or replace) a live handle.
            let served = ServedStructure::open(name, &path)?;
            if served.structure().bounds() != circuit.dim_bounds() {
                return Err(QueryError::CircuitMismatch { name: name.into() }.into());
            }
            self.handles.insert(name.to_owned(), Arc::new(served));
            return Ok((self.handles[name].as_ref(), ArtifactSource::Loaded(path)));
        }
        let (mps, report) = MpsGenerator::new(circuit, config).generate_with_report()?;
        let handle = self.install(name, mps)?;
        Ok((handle, ArtifactSource::Generated(report)))
    }

    /// Loads the artifact for `name`, replacing any live handle.
    ///
    /// # Errors
    ///
    /// Returns [`MpsError::Serve`] (wrapping the persist-layer
    /// rejection) when the artifact is missing, malformed, wrong-format
    /// or invariant-violating, or when its compiled index diverges.
    pub fn load(&mut self, name: &str) -> Result<&StructureHandle, MpsError> {
        let served = ServedStructure::open(name, self.artifact_path(name))?;
        self.handles.insert(name.to_owned(), Arc::new(served));
        Ok(self.handles[name].as_ref())
    }

    /// Generates a structure for `name` under `config` (regardless of
    /// any existing artifact), persists it, and compiles its handle.
    ///
    /// # Errors
    ///
    /// [`MpsError::Generate`] on invalid circuits, [`MpsError::Persist`]
    /// when the artifact cannot be written, [`MpsError::Serve`] when the
    /// compiled index diverges.
    pub fn generate(
        &mut self,
        name: &str,
        circuit: &Circuit,
        config: GeneratorConfig,
    ) -> Result<(&StructureHandle, GenerationReport), MpsError> {
        let (mps, report) = MpsGenerator::new(circuit, config).generate_with_report()?;
        let handle = self.install(name, mps)?;
        Ok((handle, report))
    }

    /// Adopts an already-generated structure under `name`: persists it
    /// and compiles its handle (the bridge for structures produced
    /// outside the workspace).
    ///
    /// # Errors
    ///
    /// [`MpsError::Persist`] when the artifact cannot be written,
    /// [`MpsError::Serve`] when the compiled index diverges.
    pub fn adopt(
        &mut self,
        name: &str,
        mps: MultiPlacementStructure,
    ) -> Result<&StructureHandle, MpsError> {
        self.install(name, mps)
    }

    /// Persists `mps` to the artifact path, compiles + cross-checks the
    /// handle, and installs it.
    fn install(
        &mut self,
        name: &str,
        mps: MultiPlacementStructure,
    ) -> Result<&StructureHandle, MpsError> {
        mps.save_json(self.artifact_path(name))?;
        let served = ServedStructure::try_from_structure(name, mps)?;
        self.handles.insert(name.to_owned(), Arc::new(served));
        Ok(self.handles[name].as_ref())
    }

    /// Re-anneals a region of dims-space for `name` and installs the
    /// result — the facade over [`mps_core::refine_region`], the same
    /// entry point `mps-serve`'s traffic-adaptive refinement worker
    /// drives from live heatmaps. Here the caller names the region
    /// (one [`BlockRanges`] per block, each inside the structure's
    /// designer bounds); the deterministic multi-start walks explore
    /// it under `config`, the merged structure passes the full
    /// invariant battery, and — exactly like [`Workspace::generate`] —
    /// the winner is persisted (atomically) and recompiled before it
    /// replaces the live handle. Entries outside the region are
    /// untouched, so existing answers elsewhere are preserved.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownStructure`] for unknown names,
    /// [`MpsError::Refine`] on a malformed region (wrong arity, outside
    /// bounds) or when the merged structure fails the invariant
    /// battery, [`MpsError::Persist`]/[`MpsError::Serve`] when the
    /// refined artifact cannot be written or its compiled index
    /// diverges.
    pub fn refine(
        &mut self,
        name: &str,
        region: &[BlockRanges],
        config: GeneratorConfig,
    ) -> Result<(&StructureHandle, RefineReport), MpsError> {
        let (refined, report) = refine_region(self.handle(name)?.structure(), region, &config)?;
        let handle = self.install(name, refined)?;
        Ok((handle, report))
    }

    /// Re-persists the live handle for `name` (after an external edit of
    /// the artifact directory, or to repair a deleted file).
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownStructure`] for unknown names,
    /// [`MpsError::Persist`] when the file cannot be written.
    pub fn save(&self, name: &str) -> Result<PathBuf, MpsError> {
        let handle = self.handle(name)?;
        let path = self.artifact_path(name);
        handle.structure().save_json(&path)?;
        Ok(path)
    }

    /// Answers one typed query through the compiled plan — bit-identical
    /// to the structure's own interpretive path (the handle cross-checked
    /// that at construction).
    ///
    /// `Ok(None)` means the vector is in-arity but uncovered (or outside
    /// the designer bounds) — exactly the structure's `query` semantics.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownStructure`] for unknown names,
    /// [`QueryError::BadArity`] on arity mismatch.
    pub fn query(&self, name: &str, dims: &Dims) -> Result<Option<PlacementId>, MpsError> {
        let handle = self.handle(name)?;
        self.check_arity(handle, dims)?;
        Ok(handle.index().query(dims))
    }

    /// Answers a whole stream through one compiled scratch buffer;
    /// element `k` equals `self.query(name, &queries[k])`.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownStructure`] for unknown names,
    /// [`QueryError::BadArity`] on the first arity mismatch.
    pub fn query_batch(
        &self,
        name: &str,
        queries: &[Dims],
    ) -> Result<Vec<Option<PlacementId>>, MpsError> {
        let handle = self.handle(name)?;
        for dims in queries {
            self.check_arity(handle, dims)?;
        }
        Ok(handle.index().query_batch(queries))
    }

    /// Materializes the placement for `dims`, falling back to the backup
    /// packing in uncovered space — the synthesis-loop entry point.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownStructure`] for unknown names,
    /// [`QueryError::BadArity`] on arity mismatch, and
    /// [`QueryError::OutOfBounds`] when a pair escapes the designer
    /// bounds (the fallback packing guarantees legality only inside
    /// them) — the same refusals the `mps-serve` protocol makes.
    pub fn instantiate(&self, name: &str, dims: &Dims) -> Result<Placement, MpsError> {
        let handle = self.handle(name)?;
        self.check_arity(handle, dims)?;
        for (block, (&pair, b)) in dims.iter().zip(handle.structure().bounds()).enumerate() {
            if !b.w.contains(pair.0) || !b.h.contains(pair.1) {
                return Err(QueryError::OutOfBounds {
                    structure: name.into(),
                    block,
                    dims: pair,
                }
                .into());
            }
        }
        // One compiled lookup decides both id and placement; only
        // uncovered space falls through to the structure's fallback path
        // (the same dispatch the server performs).
        let placement = match handle
            .index()
            .query(dims)
            .and_then(|id| handle.structure().entry(id))
        {
            Some(entry) => entry.placement.clone(),
            None => handle.structure().instantiate_or_fallback(dims),
        };
        Ok(placement)
    }

    /// Opens the workspace directory as a hot-swappable serving
    /// registry: every persisted artifact is re-validated, compiled and
    /// cross-checked, ready to put behind a [`mps_serve::Server`].
    ///
    /// # Errors
    ///
    /// [`MpsError::Serve`] when the scan or any artifact load fails.
    pub fn serve_registry(&self) -> Result<StructureRegistry, MpsError> {
        Ok(StructureRegistry::open(&self.dir)?)
    }

    /// Opens the workspace directory as a ready-to-pump [`Server`]:
    /// [`Workspace::serve_registry`] plus the serving knobs — worker
    /// pool size, the sharded LRU answer cache (capacity / shard
    /// count; `cache_entries` 0 disables caching) and the telemetry
    /// layer (`telemetry`, default on: per-stage latency histograms,
    /// query-dimension heatmaps and the slow-request ring behind the
    /// `metrics`/`trace` protocol requests). The returned server
    /// speaks the full `mps-serve` protocol (pipelined tagged requests,
    /// `reload` hot-swaps with all-or-nothing cache invalidation) over
    /// any `BufRead`/`Write` pair or a TCP listener.
    ///
    /// ```no_run
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use analog_mps::api::{ServerConfig, Workspace};
    /// let ws = Workspace::open("out/structures")?;
    /// let server = std::sync::Arc::new(ws.serve_server(ServerConfig {
    ///     workers: 4,
    ///     cache_entries: 65_536,
    ///     cache_shards: 16,
    ///     ..ServerConfig::default()
    /// })?);
    /// let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    /// // Accepts connections forever; fails only when the shards cannot
    /// // start (no unix readiness backend, or a thread cannot spawn).
    /// server.serve_tcp(listener)?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`MpsError::Serve`] when the scan or any artifact load fails.
    pub fn serve_server(&self, config: ServerConfig) -> Result<Server, MpsError> {
        let registry = self.serve_registry()?;
        Ok(Server::with_config(Arc::new(registry), config))
    }

    fn check_arity(&self, handle: &ServedStructure, dims: &Dims) -> Result<(), MpsError> {
        let expected = handle.structure().block_count();
        if dims.arity() != expected {
            return Err(QueryError::BadArity {
                structure: handle.name().to_owned(),
                expected,
                got: dims.arity(),
            }
            .into());
        }
        Ok(())
    }

    fn unknown(&self, name: &str) -> MpsError {
        QueryError::UnknownStructure {
            name: name.to_owned(),
            available: self.names(),
        }
        .into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_core::GeneratorConfig;
    use mps_netlist::benchmarks;

    fn temp_ws(tag: &str) -> Workspace {
        let dir = std::env::temp_dir().join(format!("mps_api_ws_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Workspace::open(dir).unwrap()
    }

    fn quick_config(seed: u64) -> GeneratorConfig {
        GeneratorConfig::builder()
            .outer_iterations(30)
            .inner_iterations(30)
            .seed(seed)
            .build()
    }

    #[test]
    fn generate_then_load_roundtrip() {
        let mut ws = temp_ws("roundtrip");
        let circuit = benchmarks::circ01();
        let (_, source) = ws
            .generate_or_load("circ01", &circuit, quick_config(1))
            .unwrap();
        assert!(matches!(source, ArtifactSource::Generated(_)));
        assert!(ws.artifact_path("circ01").is_file(), "generation persists");

        // A second resolution loads instead of regenerating.
        let mut ws2 = Workspace::open(ws.dir()).unwrap();
        let (_, source) = ws2
            .generate_or_load("circ01", &circuit, quick_config(999))
            .unwrap();
        assert!(matches!(source, ArtifactSource::Loaded(_)));
        assert_eq!(ws2.names(), vec!["circ01"]);

        // Both sessions answer identically.
        let dims = circuit.min_dims();
        assert_eq!(
            ws.query("circ01", &dims).unwrap(),
            ws2.query("circ01", &dims).unwrap()
        );
        let _ = std::fs::remove_dir_all(ws.dir());
    }

    #[test]
    fn typed_refusals() {
        let mut ws = temp_ws("refusals");
        let circuit = benchmarks::circ01();
        ws.generate_or_load("circ01", &circuit, quick_config(2))
            .unwrap();

        let err = ws.query("nope", &circuit.min_dims()).unwrap_err();
        assert!(matches!(
            err,
            MpsError::Query(QueryError::UnknownStructure { .. })
        ));

        let err = ws.query("circ01", &mps_geom::dims![(10, 10)]).unwrap_err();
        assert!(matches!(err, MpsError::Query(QueryError::BadArity { .. })));

        let mut out = circuit.min_dims().into_vec();
        out[0].0 = 1_000_000;
        let err = ws
            .instantiate("circ01", &Dims::from_vec_unchecked(out))
            .unwrap_err();
        assert!(matches!(
            err,
            MpsError::Query(QueryError::OutOfBounds { .. })
        ));
        let _ = std::fs::remove_dir_all(ws.dir());
    }

    #[test]
    fn circuit_mismatch_is_detected() {
        let mut ws = temp_ws("mismatch");
        let circuit = benchmarks::circ01();
        ws.generate_or_load("shared", &circuit, quick_config(3))
            .unwrap();
        let other = benchmarks::circ02();
        let err = ws
            .generate_or_load("shared", &other, quick_config(3))
            .unwrap_err();
        assert!(matches!(
            err,
            MpsError::Query(QueryError::CircuitMismatch { .. })
        ));
        // The rejected artifact must not have replaced the live handle:
        // the original circ01 structure keeps answering.
        assert_eq!(
            ws.handle("shared").unwrap().structure().bounds(),
            circuit.dim_bounds()
        );
        assert!(ws.query("shared", &circuit.min_dims()).is_ok());
        let _ = std::fs::remove_dir_all(ws.dir());
    }

    #[test]
    fn serve_registry_spans_the_workspace() {
        let mut ws = temp_ws("registry");
        let c1 = benchmarks::circ01();
        let c2 = benchmarks::circ02();
        ws.generate_or_load("circ01", &c1, quick_config(4)).unwrap();
        ws.generate_or_load("circ02", &c2, quick_config(5)).unwrap();
        let registry = ws.serve_registry().unwrap();
        assert_eq!(registry.names(), vec!["circ01", "circ02"]);
        // Registry answers match workspace answers (both compiled).
        let dims = c2.min_dims();
        assert_eq!(
            registry.get("circ02").unwrap().index().query(&dims),
            ws.query("circ02", &dims).unwrap()
        );
        let _ = std::fs::remove_dir_all(ws.dir());
    }

    #[test]
    fn serve_server_applies_cache_knobs() {
        let mut ws = temp_ws("server");
        let circuit = benchmarks::circ01();
        ws.generate_or_load("circ01", &circuit, quick_config(9))
            .unwrap();
        let server = ws
            .serve_server(ServerConfig {
                workers: 1,
                cache_entries: 32,
                cache_shards: 2,
                ..ServerConfig::default()
            })
            .unwrap();
        let dims = circuit.min_dims();
        let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
        let line = format!(
            r#"{{"kind":"query","structure":"circ01","dims":[{}]}}"#,
            pairs.join(",")
        );
        let first = server.handle_line(&line).unwrap();
        let second = server.handle_line(&line).unwrap();
        assert_eq!(first, second, "cache hit replays the identical answer");
        let stats = server.cache().stats();
        assert_eq!((stats.hits, stats.capacity), (1, 32));
        // cache_entries 0 turns the cache off entirely.
        let uncached = ws
            .serve_server(ServerConfig {
                workers: 1,
                cache_entries: 0,
                cache_shards: 2,
                ..ServerConfig::default()
            })
            .unwrap();
        assert!(!uncached.cache().enabled());
        let _ = std::fs::remove_dir_all(ws.dir());
    }

    #[test]
    fn refine_improves_a_region_and_persists_the_result() {
        let mut ws = temp_ws("refine");
        let circuit = benchmarks::circ01();
        ws.generate_or_load("circ01", &circuit, quick_config(7))
            .unwrap();
        let before = ws.handle("circ01").unwrap().structure().clone();
        // The low quarter of every axis — the kind of region the serve
        // worker would pick from a concentrated heatmap.
        let region: Vec<mps_geom::BlockRanges> = before
            .bounds()
            .iter()
            .map(|b| {
                let quarter = |i: &mps_geom::Interval| {
                    mps_geom::Interval::new(i.lo(), i.lo() + (i.len() as i64 - 1) / 4)
                };
                mps_geom::BlockRanges::new(quarter(&b.w), quarter(&b.h))
            })
            .collect();
        let (_, report) = ws.refine("circ01", &region, quick_config(8)).unwrap();
        assert!(report.inserted_boxes > 0, "{report:?}");
        let after = ws.handle("circ01").unwrap();
        after.structure().check_invariants().unwrap();
        assert_ne!(after.structure().to_json(), before.to_json());
        // The refined artifact was persisted: a fresh session loads the
        // refined structure, bit-identical.
        let mut ws2 = Workspace::open(ws.dir()).unwrap();
        ws2.load("circ01").unwrap();
        assert_eq!(
            ws2.handle("circ01").unwrap().structure().to_json(),
            after.structure().to_json()
        );
        // A malformed region (outside the designer bounds) is a typed
        // refusal, and the live handle is untouched.
        let bad = vec![
            mps_geom::BlockRanges::new(
                mps_geom::Interval::new(0, 1_000_000),
                mps_geom::Interval::new(0, 1_000_000),
            );
            before.block_count()
        ];
        let err = ws.refine("circ01", &bad, quick_config(8)).unwrap_err();
        assert!(matches!(err, MpsError::Refine(_)), "{err}");
        let _ = std::fs::remove_dir_all(ws.dir());
    }

    #[test]
    fn save_repairs_a_deleted_artifact() {
        let mut ws = temp_ws("save");
        let circuit = benchmarks::circ01();
        ws.generate_or_load("circ01", &circuit, quick_config(6))
            .unwrap();
        std::fs::remove_file(ws.artifact_path("circ01")).unwrap();
        let path = ws.save("circ01").unwrap();
        assert!(path.is_file());
        let _ = std::fs::remove_dir_all(ws.dir());
    }
}
