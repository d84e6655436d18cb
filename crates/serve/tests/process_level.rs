//! Process-level tests of the real `mps-serve` binary: the oversized
//! request-line defense over actual TCP, the `convert` subcommand
//! round-tripping artifacts between the JSON and binary encodings, and
//! the usage refusal of unknown flags.
#![cfg(feature = "serde")]

use mps_core::{GeneratorConfig, MpsGenerator, MultiPlacementStructure};
use mps_netlist::benchmarks;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// A fresh scratch directory plus the server's artifact for it.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mps-serve-proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_structure(seed: u64) -> MultiPlacementStructure {
    let circuit = benchmarks::circ01();
    let config = GeneratorConfig::builder()
        .outer_iterations(30)
        .inner_iterations(30)
        .seed(seed)
        .build();
    MpsGenerator::new(&circuit, config).generate().unwrap()
}

/// Spawns the real server binary on an ephemeral port and returns the
/// child plus the announced address.
fn spawn_server(dir: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mps-serve"))
        .arg(dir)
        .args(["--tcp", "0", "--shards", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the mps-serve binary spawns");
    let stdout = child.stdout.as_mut().expect("stdout is piped");
    let mut announce = String::new();
    BufReader::new(stdout).read_line(&mut announce).unwrap();
    let addr = announce
        .split("\"addr\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("no addr in announce line: {announce}"))
        .to_owned();
    (child, addr)
}

/// Regression for the oversized-line path (`MAX_LINE_BYTES` in
/// `crates/serve/src/shard.rs`): a 9 MiB line with a valid request
/// smuggled behind it must never garble the protocol. The server
/// refuses the line and closes the connection — the smuggled request is
/// never answered — and a fresh connection serves normally.
#[test]
fn oversized_line_closes_the_connection_without_garbling() {
    let dir = scratch_dir("oversize");
    tiny_structure(21)
        .save_json(dir.join("circ01.json"))
        .unwrap();
    let (mut child, addr) = spawn_server(&dir);

    let attack = TcpStream::connect(&addr).unwrap();
    let mut read_half = attack.try_clone().unwrap();
    // Write from a helper thread: once the server gives up on the line
    // it stops reading and closes, so the tail of the write may fail
    // with EPIPE/ECONNRESET — expected, not a test failure.
    let writer = std::thread::spawn(move || {
        let mut attack = attack;
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..(9 * 1024 * 1024 / chunk.len()) {
            if attack.write_all(&chunk).is_err() {
                return;
            }
        }
        // The smuggled request: if the server ever answered this, the
        // oversize path would have desynchronized the stream.
        let _ = attack.write_all(b"\n{\"kind\":\"list_structures\"}\n");
        let _ = attack.flush();
    });
    // Drain everything the server says before closing. Depending on
    // how fast the reset lands, the typed error line may or may not
    // survive the trip — but a successful answer must never appear.
    let mut response = Vec::new();
    let _ = read_half.read_to_end(&mut response);
    writer.join().unwrap();
    let text = String::from_utf8_lossy(&response);
    assert!(
        !text.contains("\"ok\":true"),
        "no request on the poisoned connection may succeed: {text}"
    );
    for line in text.lines().filter(|l| !l.is_empty()) {
        assert!(
            line.contains("exceeds"),
            "the only permissible response is the typed oversize error: {line}"
        );
    }

    // The refused connection cost the server nothing: a fresh
    // connection gets clean answers.
    let mut fresh = TcpStream::connect(&addr).unwrap();
    fresh
        .write_all(b"{\"kind\":\"list_structures\"}\n")
        .unwrap();
    let mut reader = BufReader::new(fresh.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"ok\":true") && line.contains("circ01"),
        "fresh connection must serve normally: {line}"
    );

    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mps-serve convert` round-trips an artifact both directions, and the
/// JSON that comes back is byte-identical to the original save.
#[test]
fn convert_subcommand_roundtrips_both_directions() {
    let dir = scratch_dir("convert");
    let mps = tiny_structure(22);
    let json_path = dir.join("circ01.json");
    let bin_path = dir.join("circ01.mpsb");
    let back_path = dir.join("circ01_back.json");
    mps.save_json(&json_path).unwrap();

    let convert = |from: &std::path::Path, to: &std::path::Path| {
        let status = Command::new(env!("CARGO_BIN_EXE_mps-serve"))
            .arg("convert")
            .arg(from)
            .arg(to)
            .stderr(Stdio::null())
            .status()
            .unwrap();
        assert!(status.success(), "convert {from:?} -> {to:?} failed");
    };
    convert(&json_path, &bin_path);
    convert(&bin_path, &back_path);

    let original = std::fs::read(&json_path).unwrap();
    let roundtripped = std::fs::read(&back_path).unwrap();
    assert_eq!(
        original, roundtripped,
        "JSON -> binary -> JSON must re-serialize byte-identically"
    );
    let binary = std::fs::read(&bin_path).unwrap();
    assert!(binary.starts_with(b"MPSB"), "the artifact is binary");
    assert!(
        binary.len() * 3 <= original.len(),
        "binary should be at least 3x smaller ({} vs {} bytes)",
        binary.len(),
        original.len()
    );
    // And the loaded-back structure answers identically.
    let back = MultiPlacementStructure::load_auto(&back_path).unwrap();
    assert_eq!(back.to_json(), mps.to_json());

    // Bad inputs fail loudly, not silently.
    let status = Command::new(env!("CARGO_BIN_EXE_mps-serve"))
        .arg("convert")
        .arg(dir.join("missing.json"))
        .arg(dir.join("out.mpsb"))
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(!status.success(), "converting a missing file must fail");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Refinement runs only on a `refine` request and has no flags:
/// `--refine` and `--refine-interval` are refused with the usage line
/// and exit code 2 before any artifact is read.
#[test]
fn removed_refine_flags_exit_with_usage() {
    let dir = scratch_dir("flags");
    for args in [["--refine", "on"], ["--refine-interval", "30"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_mps-serve"))
            .arg(&dir)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.starts_with("usage: mps-serve"), "{args:?}: {stderr}");
        assert!(!stderr.contains("--refine"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
