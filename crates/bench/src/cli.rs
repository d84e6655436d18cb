//! One CLI vocabulary for every bench binary.
//!
//! `table2`, `quality`, `fig5`, `fig6`, `fig7`, `ablation`,
//! `parallel_speedup`, `serve_bench` and `serve_smoke` all accept the
//! same measurement knobs; this module is the single implementation of
//! that flag surface:
//!
//! * `--effort F` — scales every generation budget (default 1.0);
//! * `--starts K` / `--threads T` — multi-start parallel generation;
//! * `--save DIR` / `--load DIR` — the generate-once / use-everywhere
//!   persistence workflow, routed through the
//!   [`analog_mps::api::Workspace`] facade.
//!
//! Parse once with [`BenchArgs::parse`]; derive per-circuit configs with
//! [`BenchArgs::config_for`]; resolve structures with
//! [`obtain_structure`].

use crate::scaled_config;
use mps_core::{GeneratorConfig, MultiPlacementStructure};
use mps_netlist::Circuit;
use std::path::{Path, PathBuf};

/// The value following `--<name>` on the CLI (`--name value` or
/// `--name=value`), parsed, if the flag is present. Shared by every
/// binary's lightweight flag handling.
///
/// # Panics
///
/// Exits with an error if the flag is present but its value is missing
/// or unparsable — a measurement run must never silently fall back to a
/// default the user believes they overrode.
#[must_use]
pub fn arg_value<T: std::str::FromStr>(name: &str) -> Option<T> {
    let flag = format!("--{name}");
    let prefix = format!("--{name}=");
    let args: Vec<String> = std::env::args().collect();
    let raw = args.iter().enumerate().find_map(|(i, a)| {
        if *a == flag {
            Some(args.get(i + 1).cloned())
        } else {
            a.strip_prefix(&prefix).map(|v| Some(v.to_owned()))
        }
    })?;
    let Some(raw) = raw else {
        eprintln!("error: {flag} requires a value");
        std::process::exit(2);
    };
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("error: invalid value {raw:?} for {flag}");
            std::process::exit(2);
        }
    }
}

/// Parses the optional CLI effort argument (`--effort 0.5`, default 1.0).
#[must_use]
pub fn effort_from_args() -> f64 {
    arg_value("effort").unwrap_or(1.0)
}

/// Applies the optional CLI parallel-generation knobs to a config:
/// `--starts K` (default: keep the config's start count) and
/// `--threads T` (`0` = one per core; default: keep the config's count).
/// Every binary that generates a structure accepts them, so any paper
/// artefact can be regenerated with multi-start diversity and all cores.
#[must_use]
pub fn parallel_from_args(mut config: GeneratorConfig) -> GeneratorConfig {
    if let Some(starts) = arg_value::<usize>("starts") {
        config.num_starts = starts.max(1);
    }
    if let Some(threads) = arg_value::<usize>("threads") {
        config.threads = threads;
    }
    config
}

/// The `--save DIR` / `--load DIR` persistence knobs shared by every
/// structure-generating binary: `--load` skips regeneration and reads the
/// structure from `DIR/<circuit>.mps.json`; `--save` writes each generated
/// structure there for later `--load` runs (the paper's generate-once /
/// use-everywhere workflow across processes).
#[derive(Debug, Clone, Default)]
pub struct PersistArgs {
    /// Directory to load pre-generated structures from.
    pub load: Option<PathBuf>,
    /// Directory to save generated structures into.
    pub save: Option<PathBuf>,
}

/// Parses the optional `--load DIR` and `--save DIR` CLI flags.
#[must_use]
pub fn persist_from_args() -> PersistArgs {
    PersistArgs {
        load: arg_value::<PathBuf>("load"),
        save: arg_value::<PathBuf>("save"),
    }
}

/// The common measurement knobs, parsed once per binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Budget multiplier (`--effort`, default 1.0).
    pub effort: f64,
    /// The `--save`/`--load` directories.
    pub persist: PersistArgs,
}

impl BenchArgs {
    /// Parses `--effort`, `--save`, `--load` (the `--starts`/`--threads`
    /// knobs are applied per config by [`BenchArgs::config_for`]).
    #[must_use]
    pub fn parse() -> Self {
        Self {
            effort: effort_from_args(),
            persist: persist_from_args(),
        }
    }

    /// The size-scaled generation budget for `circuit` at this run's
    /// effort, with the `--starts`/`--threads` knobs applied.
    #[must_use]
    pub fn config_for(&self, circuit: &Circuit, seed: u64) -> GeneratorConfig {
        parallel_from_args(scaled_config(circuit, self.effort, seed))
    }
}

/// Where [`obtain_structure`] stores / finds the structure for a circuit
/// (the same `<name>.mps.json` layout the `Workspace` facade and the
/// `mps-serve` registry use).
#[must_use]
pub fn structure_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.mps.json"))
}

/// How [`obtain_structure`] came by its structure.
#[derive(Debug)]
pub enum StructureSource {
    /// Freshly generated; the report carries timing and explorer counters.
    Generated(mps_core::GenerationReport),
    /// Loaded (and invariant-revalidated) from this file; no generation
    /// happened.
    Loaded(PathBuf),
}

/// Generates the structure for `name`/`circuit` under `config`, honoring
/// the [`PersistArgs`] knobs through the [`analog_mps::api::Workspace`]
/// facade: with `--load` the structure is read from disk (validated
/// against the artifact envelope, the Eq.-5 invariants, the compiled
/// query index, *and* the circuit's dimension bounds); with `--save` the
/// generated structure is persisted for future `--load` runs.
///
/// # Panics
///
/// Exits with an error message when a `--load` file is missing, malformed
/// or belongs to a different circuit, and panics on invalid benchmark
/// circuits or unwritable `--save` directories — measurement runs have no
/// useful recovery.
#[cfg(feature = "serde")]
#[must_use]
pub fn obtain_structure(
    name: &str,
    circuit: &Circuit,
    config: GeneratorConfig,
    args: &PersistArgs,
) -> (MultiPlacementStructure, StructureSource) {
    use analog_mps::api::Workspace;

    let open = |dir: &Path| {
        Workspace::open(dir).unwrap_or_else(|e| {
            eprintln!("error: cannot open workspace {}: {e}", dir.display());
            std::process::exit(2);
        })
    };
    if let Some(dir) = &args.load {
        // --load demands a pre-generated artifact: regenerating silently
        // would invalidate the measurement.
        let mut ws = open(dir);
        let handle = ws.load(name).unwrap_or_else(|e| {
            eprintln!("error: cannot load structure `{name}`: {e}");
            std::process::exit(2);
        });
        if handle.structure().bounds() != circuit.dim_bounds() {
            eprintln!(
                "error: structure {} was generated for a different circuit \
                 than `{name}` (dimension bounds differ)",
                structure_path(dir, name).display()
            );
            std::process::exit(2);
        }
        let path = structure_path(dir, name);
        return (handle.structure().clone(), StructureSource::Loaded(path));
    }
    if let Some(dir) = &args.save {
        let mut ws = open(dir);
        let path = ws.artifact_path(name);
        let (handle, report) = ws.generate(name, circuit, config).unwrap_or_else(|e| {
            eprintln!("error: cannot generate/save structure `{name}`: {e}");
            std::process::exit(2);
        });
        eprintln!("  saved {}", path.display());
        return (
            handle.structure().clone(),
            StructureSource::Generated(report),
        );
    }
    let (mps, report) = mps_core::MpsGenerator::new(circuit, config)
        .generate_with_report()
        .expect("benchmark circuits are valid");
    (mps, StructureSource::Generated(report))
}

/// Without the `serde` feature there is no persistence layer; the flags
/// are rejected instead of silently ignored.
#[cfg(not(feature = "serde"))]
#[must_use]
pub fn obtain_structure(
    name: &str,
    circuit: &Circuit,
    config: GeneratorConfig,
    args: &PersistArgs,
) -> (MultiPlacementStructure, StructureSource) {
    if args.load.is_some() || args.save.is_some() {
        eprintln!(
            "error: --load/--save require mps-bench to be built with the \
             `serde` feature (on by default)"
        );
        std::process::exit(2);
    }
    let _ = name;
    let (mps, report) = mps_core::MpsGenerator::new(circuit, config)
        .generate_with_report()
        .expect("benchmark circuits are valid");
    (mps, StructureSource::Generated(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_path_layout_matches_workspace() {
        let p = structure_path(Path::new("/tmp/arts"), "circ02");
        assert_eq!(p, PathBuf::from("/tmp/arts/circ02.mps.json"));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn obtain_generates_and_saves_through_the_workspace() {
        use mps_netlist::benchmarks;
        let dir = std::env::temp_dir().join(format!("mps_cli_obtain_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bm = benchmarks::by_name("circ01").unwrap();
        let config = scaled_config(&bm.circuit, 0.1, 1);
        let args = PersistArgs {
            load: None,
            save: Some(dir.clone()),
        };
        let (mps, source) = obtain_structure("circ01", &bm.circuit, config.clone(), &args);
        assert!(matches!(source, StructureSource::Generated(_)));
        assert!(structure_path(&dir, "circ01").is_file());

        // And the --load path resolves to the identical structure.
        let args = PersistArgs {
            load: Some(dir.clone()),
            save: None,
        };
        let (loaded, source) = obtain_structure("circ01", &bm.circuit, config, &args);
        assert!(matches!(source, StructureSource::Loaded(_)));
        assert_eq!(loaded.to_json(), mps.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
