//! The structure registry: persisted artifacts (`mps-v3` in JSON or
//! binary, or a legacy `mps-v1` JSON or version-2 binary artifact,
//! freely mixed in one directory) loaded, validated, and hot-swapped
//! behind an `Arc`.
//!
//! Serving follows the paper's *generate once, use everywhere* economics:
//! structures are generated (and `--save`d) elsewhere; the serving
//! process only ever loads, validates and answers. The registry
//! keeps one immutable [`ServedStructure`] per artifact and publishes the
//! whole directory as an `Arc<HashMap<..>>` snapshot:
//!
//! * readers call [`StructureRegistry::snapshot`] (or
//!   [`StructureRegistry::get`]) and keep answering from their snapshot
//!   without ever taking a lock on the hot path;
//! * [`StructureRegistry::reload`] rescans the directory, loads and
//!   re-validates every artifact *off to the side*, and only then swaps
//!   the published `Arc` — in-flight queries keep their old snapshot
//!   alive until they finish (no torn state, no serving pause).

use mps_core::{CompiledQueryIndex, MultiPlacementStructure, PersistError};
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Why the registry could not load or reload artifacts.
#[derive(Debug)]
pub enum ServeError {
    /// Reading the artifact directory failed.
    Io(std::io::Error),
    /// One artifact failed to load or validate.
    Load {
        /// The offending artifact file.
        path: PathBuf,
        /// The loader's rejection.
        source: PersistError,
    },
    /// Two artifact files normalize to the same registry name (e.g.
    /// `circ02.mps.json` and `circ02.json`). Serving either one silently
    /// would mask a deployment mistake, so the whole load is refused.
    DuplicateName {
        /// The contested registry name.
        name: String,
        /// The two files claiming it.
        paths: [PathBuf; 2],
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "cannot scan artifact directory: {e}"),
            ServeError::Load { path, source } => {
                write!(f, "cannot serve {}: {source}", path.display())
            }
            ServeError::DuplicateName { name, paths } => write!(
                f,
                "artifacts {} and {} both claim the name `{name}`; \
                 rename one so every structure has an unambiguous address",
                paths[0].display(),
                paths[1].display()
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Load { source, .. } => Some(source),
            ServeError::DuplicateName { .. } => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// One loaded artifact: the validated structure with its query index,
/// immutable for its whole serving life.
#[derive(Debug)]
pub struct ServedStructure {
    name: String,
    path: Option<PathBuf>,
    structure: MultiPlacementStructure,
}

impl ServedStructure {
    /// Loads an artifact in either encoding (JSON or binary, of the
    /// current or a legacy layout, auto-detected by content),
    /// re-validating every invariant; the load builds the structure's
    /// query index.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Load`] when the artifact is missing,
    /// malformed, wrong-format or invariant-violating.
    pub fn open(name: impl Into<String>, path: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let path = path.into();
        let structure =
            MultiPlacementStructure::load_auto(&path).map_err(|source| ServeError::Load {
                path: path.clone(),
                source,
            })?;
        Ok(Self::from_structure(name, structure).with_path(path))
    }

    /// Wraps an in-memory structure (tests, examples, freshly generated
    /// or refined structures served without a save/load cycle), building
    /// its query index before the first query needs it.
    #[must_use]
    pub fn from_structure(name: impl Into<String>, structure: MultiPlacementStructure) -> Self {
        let _ = structure.index();
        Self {
            name: name.into(),
            path: None,
            structure,
        }
    }

    /// [`ServedStructure::from_structure`] under the fallible name the
    /// repository benchmark calls; it cannot fail.
    #[doc(hidden)]
    pub fn try_from_structure(
        name: impl Into<String>,
        structure: MultiPlacementStructure,
    ) -> Result<Self, Infallible> {
        Ok(Self::from_structure(name, structure))
    }

    /// Attaches (or replaces) the backing artifact path. The refinement
    /// worker rebuilds a served structure in memory via
    /// [`ServedStructure::from_structure`] — which can't know the
    /// path — and then re-binds the original artifact file so the
    /// improved structure persists to the same place its predecessor
    /// was loaded from.
    #[must_use]
    pub fn with_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// The name clients address the structure by (the artifact file stem,
    /// `circ02` for `circ02.mps.json`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The artifact file this structure was loaded from, if any.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The validated structure (fallback instantiation and stats).
    #[must_use]
    pub fn structure(&self) -> &MultiPlacementStructure {
        &self.structure
    }

    /// The structure's query index (the serving hot path).
    #[must_use]
    pub fn index(&self) -> &CompiledQueryIndex {
        self.structure.index()
    }
}

/// What a [`StructureRegistry::reload`] changed.
#[derive(Debug, Default)]
pub struct ReloadReport {
    /// Names now being served (post-swap).
    pub serving: usize,
    /// Names that were not served before this reload.
    pub added: Vec<String>,
    /// Names that were served before and are gone now.
    pub removed: Vec<String>,
    /// How long the reload held the registry's commit lock, in
    /// milliseconds: the directory rescan (load, invariant check, index
    /// build and verify of every artifact) plus the swap. Refinement
    /// commits wait this long behind a reload; readers never do.
    pub load_ms: f64,
}

type Snapshot = Arc<HashMap<String, Arc<ServedStructure>>>;

/// The set of structures a server answers for, hot-swappable as a whole.
///
/// See the module docs for the snapshot discipline. All methods are
/// `&self`; the registry is shared as `Arc<StructureRegistry>` between
/// the stdin loop, TCP connection threads and the worker pool.
#[derive(Debug)]
pub struct StructureRegistry {
    dir: Option<PathBuf>,
    map: RwLock<Snapshot>,
    /// Serializes whole commits — `publish`, `publish_if_generation`,
    /// `reload` — without ever blocking readers: the map's write lock is
    /// only held for the final pointer swap, while this lock spans a
    /// commit end to end (a reload's directory rescan, a refinement's
    /// generation check + artifact persist), so two commits can never
    /// interleave their check/persist/swap steps.
    commit_lock: Mutex<()>,
    /// Bumped on every successful snapshot swap (`publish`/`reload`) —
    /// a cheap change detector for observers (`metrics` surfaces it, so
    /// a scraper can tell "same structure set" without diffing names).
    generation: AtomicU64,
}

impl StructureRegistry {
    /// Loads every `*.json` artifact in `dir` (the layout `--save`
    /// writes: one `<name>.mps.json` per structure).
    ///
    /// An empty directory yields an empty registry — valid, it serves
    /// `list_structures`/`metrics` and typed errors until a reload finds
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the directory cannot be scanned or any
    /// artifact fails validation: serving a subset silently would mask
    /// deployment mistakes.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let dir = dir.into();
        let map = scan_dir(&dir)?;
        Ok(Self {
            dir: Some(dir),
            map: RwLock::new(Arc::new(map)),
            commit_lock: Mutex::new(()),
            generation: AtomicU64::new(0),
        })
    }

    /// An empty registry with no backing directory (tests, examples;
    /// populate with [`StructureRegistry::publish`]).
    #[must_use]
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            map: RwLock::new(Arc::new(HashMap::new())),
            commit_lock: Mutex::new(()),
            generation: AtomicU64::new(0),
        }
    }

    /// The current immutable snapshot. Hold it for the duration of one
    /// request; a concurrent reload swaps the registry without
    /// invalidating snapshots already taken.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Arc::clone(&self.map.read().expect("registry lock poisoned"))
    }

    /// The served structure behind `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<ServedStructure>> {
        self.snapshot().get(name).cloned()
    }

    /// Sorted names of every served structure.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.snapshot().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Number of structures currently served.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether the registry serves no structures.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Publishes (or replaces) one structure by name: copy-on-write on
    /// the snapshot map, single `Arc` swap, readers never blocked.
    /// Accepts both a bare [`ServedStructure`] and an
    /// `Arc<ServedStructure>` already shared elsewhere (e.g. a
    /// `Workspace` handle).
    ///
    /// Publishing *replaces* silently: if a `Server` with an answer
    /// cache is already serving this registry, use
    /// [`Server::reload`](crate::Server::reload) (or invalidate its
    /// cache yourself) — the registry has no back-pointer to caches
    /// over it.
    pub fn publish(&self, served: impl Into<Arc<ServedStructure>>) {
        let served = served.into();
        let _commit = self
            .commit_lock
            .lock()
            .expect("registry commit lock poisoned");
        self.swap_in(served);
    }

    /// Commits `served` only if the registry generation still equals
    /// `base_generation`, running `persist` between the check and the
    /// snapshot swap — all inside the commit lock shared with
    /// [`StructureRegistry::publish`] and [`StructureRegistry::reload`],
    /// so no concurrent commit can land between the three steps.
    ///
    /// This is the refinement pass's compare-and-swap publish: a pass
    /// anneals from a base snapshot for a while, and a `reload` that
    /// committed meanwhile must win — the stale candidate is rejected
    /// *before* `persist` runs, so a rejected pass leaves the artifact
    /// file exactly as the reload's operator put it. Conversely a
    /// reload's directory rescan also sits inside the commit lock, so it
    /// can never read an artifact this method is about to overwrite and
    /// then swap in the stale bytes.
    ///
    /// Returns `Ok(Some(generation))` — the post-swap generation — when
    /// the commit landed, and `Ok(None)` when the generation had moved
    /// (neither `persist` nor the swap ran).
    ///
    /// # Errors
    ///
    /// Propagates the `persist` closure's error; nothing was published.
    /// `persist` is responsible for leaving disk intact when it fails
    /// (the atomic temp-file + rename writers in `mps_core` do).
    pub fn publish_if_generation<E>(
        &self,
        base_generation: u64,
        served: impl Into<Arc<ServedStructure>>,
        persist: impl FnOnce(&ServedStructure) -> Result<(), E>,
    ) -> Result<Option<u64>, E> {
        let served = served.into();
        let _commit = self
            .commit_lock
            .lock()
            .expect("registry commit lock poisoned");
        if self.generation.load(Ordering::Relaxed) != base_generation {
            return Ok(None);
        }
        persist(&served)?;
        self.swap_in(served);
        Ok(Some(self.generation.load(Ordering::Relaxed)))
    }

    /// The snapshot swap behind every publish path. Callers must hold
    /// `commit_lock`.
    fn swap_in(&self, served: Arc<ServedStructure>) {
        let mut guard = self.map.write().expect("registry lock poisoned");
        let mut next: HashMap<String, Arc<ServedStructure>> = (**guard).clone();
        next.insert(served.name().to_owned(), served);
        *guard = Arc::new(next);
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// How many snapshot swaps (publishes + successful reloads) this
    /// registry has seen. Monotonic; equal values between two reads mean
    /// the served set did not change in between.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Rescans the backing directory, loads and validates every artifact
    /// off to the side, then swaps the published snapshot in one step.
    /// On any error the old snapshot stays live untouched.
    ///
    /// A registry without a backing directory reloads to itself.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the scan or any artifact load fails;
    /// the registry then keeps serving its previous snapshot.
    pub fn reload(&self) -> Result<ReloadReport, ServeError> {
        let Some(dir) = &self.dir else {
            return Ok(ReloadReport {
                serving: self.len(),
                ..ReloadReport::default()
            });
        };
        // The whole rescan sits inside the commit lock: a refinement
        // commit can neither overwrite an artifact between this scan
        // reading it and the swap below publishing it, nor observe a
        // stale generation after the swap. Readers are unaffected — the
        // map's write lock is only taken for the pointer swap itself.
        let _commit = self
            .commit_lock
            .lock()
            .expect("registry commit lock poisoned");
        let locked_at = Instant::now();
        let next = Arc::new(scan_dir(dir)?);
        let prev = {
            let mut guard = self.map.write().expect("registry lock poisoned");
            std::mem::replace(&mut *guard, Arc::clone(&next))
        };
        self.generation.fetch_add(1, Ordering::Relaxed);
        let mut added: Vec<String> = next
            .keys()
            .filter(|n| !prev.contains_key(*n))
            .cloned()
            .collect();
        let mut removed: Vec<String> = prev
            .keys()
            .filter(|n| !next.contains_key(*n))
            .cloned()
            .collect();
        added.sort_unstable();
        removed.sort_unstable();
        Ok(ReloadReport {
            serving: next.len(),
            added,
            removed,
            load_ms: locked_at.elapsed().as_secs_f64() * 1e3,
        })
    }
}

/// Loads every JSON artifact in `dir` into a fresh map.
fn scan_dir(dir: &Path) -> Result<HashMap<String, Arc<ServedStructure>>, ServeError> {
    let mut map = HashMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        // A directory may mix formats freely: `.json` carries a JSON
        // envelope, `.mpsb` a binary artifact. The loader
        // dispatches on file *content* (magic sniff), so a mislabeled
        // file fails validation instead of being skipped silently.
        if !path.is_file() || path.extension().is_none_or(|e| e != "json" && e != "mpsb") {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let name = stem.strip_suffix(".mps").unwrap_or(stem).to_owned();
        if name.is_empty() {
            continue;
        }
        let served = ServedStructure::open(name.clone(), &path)?;
        if let Some(prev) = map.insert(name.clone(), Arc::new(served)) {
            return Err(ServeError::DuplicateName {
                name,
                paths: [prev.path().map(PathBuf::from).unwrap_or_default(), path],
            });
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_core::{GeneratorConfig, MpsGenerator};
    use mps_netlist::benchmarks;

    fn tiny_structure(seed: u64) -> MultiPlacementStructure {
        let circuit = benchmarks::circ01();
        let config = GeneratorConfig::builder()
            .outer_iterations(25)
            .inner_iterations(25)
            .seed(seed)
            .build();
        MpsGenerator::new(&circuit, config).generate().unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mps_serve_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn open_loads_and_reload_hot_swaps() {
        let dir = temp_dir("swap");
        tiny_structure(1)
            .save_json(dir.join("alpha.mps.json"))
            .unwrap();
        let registry = StructureRegistry::open(&dir).unwrap();
        assert_eq!(registry.names(), vec!["alpha"]);

        // A reader takes a snapshot before the swap ...
        let before = registry.get("alpha").unwrap();

        tiny_structure(2)
            .save_json(dir.join("beta.mps.json"))
            .unwrap();
        std::fs::remove_file(dir.join("alpha.mps.json")).unwrap();
        let report = registry.reload().unwrap();
        assert_eq!(report.serving, 1);
        assert_eq!(report.added, vec!["beta"]);
        assert_eq!(report.removed, vec!["alpha"]);
        assert!(report.load_ms > 0.0, "{}", report.load_ms);
        assert_eq!(registry.names(), vec!["beta"]);

        // ... and the old snapshot keeps answering after the swap.
        let dims = benchmarks::circ01().min_dims();
        assert_eq!(before.index().query(&dims), before.structure().query(&dims));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_artifact_is_refused_and_old_snapshot_survives() {
        let dir = temp_dir("bad");
        tiny_structure(3)
            .save_json(dir.join("good.mps.json"))
            .unwrap();
        let registry = StructureRegistry::open(&dir).unwrap();
        std::fs::write(dir.join("evil.mps.json"), "{\"format\":\"mps-v1\",").unwrap();
        let err = registry.reload().unwrap_err();
        assert!(matches!(err, ServeError::Load { .. }), "{err}");
        // Failed reload leaves the previous snapshot serving.
        assert_eq!(registry.names(), vec!["good"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn colliding_artifact_names_are_refused() {
        let dir = temp_dir("collide");
        tiny_structure(7)
            .save_json(dir.join("alpha.mps.json"))
            .unwrap();
        // A second file normalizing to the same name: refusing beats
        // silently serving whichever one read_dir yields last.
        tiny_structure(8).save_json(dir.join("alpha.json")).unwrap();
        let err = StructureRegistry::open(&dir).unwrap_err();
        assert!(matches!(err, ServeError::DuplicateName { .. }), "{err}");
        assert!(err.to_string().contains("alpha"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_format_directory_serves_both_and_answers_identically() {
        let dir = temp_dir("mixed");
        let alpha = tiny_structure(11);
        let beta = tiny_structure(12);
        alpha.save_json(dir.join("alpha.mps.json")).unwrap();
        beta.save_bin(dir.join("beta.mpsb")).unwrap();
        let registry = StructureRegistry::open(&dir).unwrap();
        assert_eq!(registry.names(), vec!["alpha", "beta"]);
        // The binary-loaded structure answers exactly like its in-memory
        // original.
        let dims = benchmarks::circ01().min_dims();
        let served_beta = registry.get("beta").unwrap();
        assert_eq!(served_beta.structure().query(&dims), beta.query(&dims));
        assert_eq!(served_beta.structure().to_json(), beta.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_format_name_collision_is_refused() {
        let dir = temp_dir("xcollide");
        tiny_structure(13)
            .save_json(dir.join("alpha.mps.json"))
            .unwrap();
        tiny_structure(14).save_bin(dir.join("alpha.mpsb")).unwrap();
        let err = StructureRegistry::open(&dir).unwrap_err();
        assert!(matches!(err, ServeError::DuplicateName { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_binary_artifact_is_refused() {
        let dir = temp_dir("truncbin");
        let bytes = tiny_structure(15).to_bin();
        std::fs::write(dir.join("cut.mpsb"), &bytes[..bytes.len() / 2]).unwrap();
        let err = StructureRegistry::open(&dir).unwrap_err();
        assert!(matches!(err, ServeError::Load { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_json_files_are_ignored() {
        let dir = temp_dir("ignore");
        tiny_structure(4)
            .save_json(dir.join("only.mps.json"))
            .unwrap();
        std::fs::write(dir.join("README.txt"), "not an artifact").unwrap();
        let registry = StructureRegistry::open(&dir).unwrap();
        assert_eq!(registry.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_if_generation_is_a_compare_and_swap() {
        use std::sync::atomic::AtomicBool;

        let registry = StructureRegistry::in_memory();
        let structure = tiny_structure(20);
        registry.publish(ServedStructure::from_structure("mem", structure.clone()));
        let base = registry.generation();

        // A commit from the observed generation lands, reports the
        // bumped generation, and ran its persist step.
        let persisted = AtomicBool::new(false);
        let committed = registry
            .publish_if_generation(
                base,
                ServedStructure::from_structure("mem", structure.clone()),
                |_| {
                    persisted.store(true, Ordering::Relaxed);
                    Ok::<(), std::convert::Infallible>(())
                },
            )
            .unwrap();
        assert_eq!(committed, Some(base + 1));
        assert!(persisted.load(Ordering::Relaxed));

        // A stale commit is rejected *before* its persist step runs:
        // nothing on disk, nothing in memory, generation unchanged.
        let stale_persisted = AtomicBool::new(false);
        let stale = registry
            .publish_if_generation(
                base,
                ServedStructure::from_structure("mem", structure.clone()),
                |_| {
                    stale_persisted.store(true, Ordering::Relaxed);
                    Ok::<(), std::convert::Infallible>(())
                },
            )
            .unwrap();
        assert_eq!(stale, None);
        assert!(!stale_persisted.load(Ordering::Relaxed));
        assert_eq!(registry.generation(), base + 1);

        // A persist failure blocks the publish: same snapshot, same
        // generation, and the error surfaces to the caller.
        let before = registry.get("mem").unwrap();
        let failed = registry.publish_if_generation(
            registry.generation(),
            ServedStructure::from_structure("mem", structure),
            |_| Err("disk full"),
        );
        assert_eq!(failed, Err("disk full"));
        assert_eq!(registry.generation(), base + 1);
        assert!(Arc::ptr_eq(&registry.get("mem").unwrap(), &before));
    }

    #[test]
    fn stale_refinement_commit_never_touches_the_operator_artifact() {
        // The reload-vs-refine race: an operator drops a replacement
        // artifact and reloads while a refinement pass (annealed from
        // the pre-reload snapshot) is still running. The stale commit
        // must be rejected without overwriting the operator's file.
        let dir = temp_dir("staleref");
        let path = dir.join("alpha.mps.json");
        tiny_structure(21).save_json(&path).unwrap();
        let registry = StructureRegistry::open(&dir).unwrap();
        let base = registry.generation();

        let replacement = tiny_structure(22);
        replacement.save_json(&path).unwrap();
        registry.reload().unwrap();
        let bytes_after_reload = std::fs::read(&path).unwrap();

        let stale = ServedStructure::from_structure("alpha", tiny_structure(23)).with_path(&path);
        let committed = registry
            .publish_if_generation(base, stale, |candidate| {
                candidate
                    .structure()
                    .save_json(candidate.path().expect("path was bound"))
            })
            .unwrap();
        assert_eq!(committed, None, "a stale commit must lose to the reload");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes_after_reload,
            "a rejected pass must not touch the artifact file"
        );
        assert_eq!(
            registry.get("alpha").unwrap().structure().to_json(),
            replacement.to_json(),
            "the reload's structure must keep serving"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_start_over_many_artifacts_stays_fast() {
        // Regression guard for the load wall-clock: a directory of many
        // small artifacts must open in bounded time. The bound is
        // generous (debug builds, loaded CI runners) but catches
        // order-of-magnitude regressions.
        let dir = temp_dir("coldstart");
        let structure = tiny_structure(31);
        for i in 0..24 {
            structure
                .save_json(dir.join(format!("s{i:02}.mps.json")))
                .unwrap();
        }
        let t = std::time::Instant::now();
        let registry = StructureRegistry::open(&dir).unwrap();
        let elapsed = t.elapsed();
        assert_eq!(registry.len(), 24);
        assert!(
            elapsed < std::time::Duration::from_secs(20),
            "cold start over 24 artifacts took {elapsed:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_publish_and_empty_dir() {
        let registry = StructureRegistry::in_memory();
        assert!(registry.is_empty());
        registry.publish(ServedStructure::from_structure("mem", tiny_structure(5)));
        assert_eq!(registry.names(), vec!["mem"]);
        assert!(registry.get("mem").unwrap().path().is_none());
        let report = registry.reload().unwrap();
        assert_eq!(report.serving, 1);

        let dir = temp_dir("empty");
        let empty = StructureRegistry::open(&dir).unwrap();
        assert!(empty.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
