//! Runs every workload at smoke size through `run.py` and checks the
//! result line against `BENCHMARK.json`: every named metric is printed
//! with its unit, and nothing failed.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = serde_json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, seed: &str, trace: &str) -> Value {
    let root = repo_root();
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join(".bench_build"), PathBuf::from);
    let out = Command::new("python3")
        .arg("perfbench/run.py")
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("python3 runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse(last).expect("the result line is JSON")
}

fn check(result: &Value, metrics: &[(String, String)]) {
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let printed = result.get("metrics").expect("metrics object");
    let count = printed.as_object().map_or(0, |o| o.len());
    assert_eq!(
        count,
        metrics.len(),
        "exactly the declared metrics are printed"
    );
    for (name, unit) in metrics {
        let metric = printed
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not printed"));
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = metric.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{name} has no finite value"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_fails_nothing() {
    let metrics = declared("end_to_end");
    for workload in ["walk", "sweep", "generate"] {
        check(&run(workload, "7", "0"), &metrics);
    }
}

#[test]
fn the_traced_run_prints_every_per_layer_metric() {
    check(&run("walk", "8", "1"), &declared("per_layer"));
}
