//! Artifact-format benchmark: `mps-v2` binary versus `mps-v1` JSON over
//! a whole structures directory. Converts every `.json` artifact to
//! `.mpsb`, measures total on-disk size and cold-load wall-clock for
//! both formats, differentially verifies that both loads answer
//! identically, and writes `out/BENCH_format.json` — the artifact CI
//! gates on.
//!
//! ```sh
//! cargo run --release -p mps-bench --bin format_bench -- \
//!     [--dir DIR] [--rounds N] [--probes N] \
//!     [--min-size-ratio R] [--min-load-speedup S]
//! ```
//!
//! With the gates set, the run fails (exit 1) unless the binary format
//! is at least `R`× smaller and at least `S`× faster to cold-load than
//! JSON — CI passes 3 and 2 per the format's acceptance bar.

use mps_bench::{markdown_table, write_artifact};
use mps_core::MultiPlacementStructure;
use mps_serve::CompiledQueryIndex;
use serde::{Map, Serialize, Value};
use std::path::PathBuf;
use std::time::Instant;

use mps_bench::cli::arg_value;

/// Probes per structure for the differential answer check.
const DEFAULT_PROBES: usize = 1000;

/// Load rounds per format; the fastest round is reported (standard
/// min-of-N to shed scheduler noise).
const DEFAULT_ROUNDS: usize = 20;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// One format's artifact files and the loader that reads one of them.
type Format<'a> = (&'a [PathBuf], fn(&PathBuf) -> MultiPlacementStructure);

/// Per format, the total wall-clock of the fastest round of loading
/// every file of its set through its loader. The formats take turns
/// round by round, so interference lasting a few rounds slows both
/// alike instead of every round of one.
fn best_round_secs(rounds: usize, formats: [Format<'_>; 2]) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds {
        for ((paths, load), best) in formats.iter().zip(&mut best) {
            let start = Instant::now();
            for path in *paths {
                std::hint::black_box(load(path));
            }
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    best
}

fn total_bytes(paths: &[PathBuf]) -> u64 {
    paths
        .iter()
        .map(|p| std::fs::metadata(p).expect("artifact metadata").len())
        .sum()
}

fn main() {
    let dir: String = arg_value("dir").unwrap_or_else(|| "out/structures".to_owned());
    let rounds: usize = arg_value("rounds").unwrap_or(DEFAULT_ROUNDS).max(1);
    let probes: usize = arg_value("probes").unwrap_or(DEFAULT_PROBES);
    let min_size_ratio: f64 = arg_value("min-size-ratio").unwrap_or(0.0);
    let min_load_speedup: f64 = arg_value("min-load-speedup").unwrap_or(0.0);

    let mut json_paths: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect(),
        Err(e) => fail(&format!("cannot read structures directory {dir}: {e}")),
    };
    json_paths.sort();
    if json_paths.is_empty() {
        fail(&format!(
            "no .json artifacts in {dir}; generate some first (e.g. table2 --save {dir})"
        ));
    }

    // Convert the whole directory. The binary twins live in a sibling
    // directory so registry-scanning steps over `dir` are unaffected.
    let bin_dir = PathBuf::from(format!("{}_mpsb", dir.trim_end_matches('/')));
    std::fs::create_dir_all(&bin_dir).expect("create binary artifact directory");
    let mut bin_paths = Vec::with_capacity(json_paths.len());
    for path in &json_paths {
        let mps = MultiPlacementStructure::load_json(path)
            .unwrap_or_else(|e| fail(&format!("cannot load {}: {e}", path.display())));
        let bin_path = bin_dir
            .join(path.file_name().expect("artifact file name"))
            .with_extension("mpsb");
        mps.save_bin(&bin_path)
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", bin_path.display())));
        bin_paths.push(bin_path);
    }
    eprintln!(
        "converted {} artifact(s): {dir} -> {}",
        json_paths.len(),
        bin_dir.display()
    );

    // Differential check before anything is timed: each pair of loads
    // must answer bit-identically over a deep probe battery.
    for (json_path, bin_path) in json_paths.iter().zip(&bin_paths) {
        let from_json = MultiPlacementStructure::load_json(json_path).expect("JSON load");
        let from_bin = MultiPlacementStructure::load_bin(bin_path).expect("binary load");
        assert_eq!(
            from_bin.to_json(),
            from_json.to_json(),
            "{}: binary twin must re-serialize identically",
            json_path.display()
        );
        CompiledQueryIndex::build(&from_bin)
            .verify_against(&from_json, probes, 0xF0F0)
            .unwrap_or_else(|e| {
                fail(&format!(
                    "{}: binary load diverges from JSON load: {e}",
                    json_path.display()
                ));
            });
    }
    eprintln!(
        "differential check passed ({probes} probes x {} structure(s))",
        json_paths.len()
    );

    let json_bytes = total_bytes(&json_paths);
    let bin_bytes = total_bytes(&bin_paths);
    let size_ratio = json_bytes as f64 / bin_bytes as f64;

    let [json_secs, bin_secs] = best_round_secs(
        rounds,
        [
            (&json_paths, |p| {
                MultiPlacementStructure::load_json(p).expect("JSON load")
            }),
            (&bin_paths, |p| {
                MultiPlacementStructure::load_bin(p).expect("binary load")
            }),
        ],
    );
    let load_speedup = json_secs / bin_secs;

    println!(
        "\nArtifact format comparison ({} structures)",
        json_paths.len()
    );
    println!(
        "{}",
        markdown_table(
            &["Format", "Total bytes", "Cold load (best of N)", "vs JSON"],
            &[
                vec![
                    "mps-v1 JSON".to_owned(),
                    json_bytes.to_string(),
                    format!("{:.2}ms", json_secs * 1e3),
                    "1.00x".to_owned(),
                ],
                vec![
                    "mps-v2 binary".to_owned(),
                    bin_bytes.to_string(),
                    format!("{:.2}ms", bin_secs * 1e3),
                    format!("{size_ratio:.2}x smaller, {load_speedup:.2}x faster"),
                ],
            ],
        )
    );

    let mut top = Map::new();
    top.insert("bench", Value::String("format".to_owned()));
    top.insert("structures", json_paths.len().to_value());
    top.insert("rounds", rounds.to_value());
    top.insert("differential_probes_per_structure", probes.to_value());
    top.insert("json_bytes", json_bytes.to_value());
    top.insert("bin_bytes", bin_bytes.to_value());
    top.insert(
        "size_ratio",
        ((size_ratio * 100.0).round() / 100.0).to_value(),
    );
    top.insert("json_cold_load_ms", (json_secs * 1e3).to_value());
    top.insert("bin_cold_load_ms", (bin_secs * 1e3).to_value());
    top.insert(
        "load_speedup",
        ((load_speedup * 100.0).round() / 100.0).to_value(),
    );
    let path = write_artifact(
        "BENCH_format.json",
        &serde_json::to_string_pretty(&Value::Object(top)).expect("value trees serialize"),
    );
    eprintln!("wrote {}", path.display());

    if min_size_ratio > 0.0 && size_ratio < min_size_ratio {
        eprintln!(
            "error: binary artifacts are only {size_ratio:.2}x smaller than JSON, \
             below the required {min_size_ratio}x"
        );
        std::process::exit(1);
    }
    if min_load_speedup > 0.0 && load_speedup < min_load_speedup {
        eprintln!(
            "error: binary cold-load is only {load_speedup:.2}x faster than JSON, \
             below the required {min_load_speedup}x"
        );
        std::process::exit(1);
    }
}
