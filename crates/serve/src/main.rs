//! `mps-serve` — serve persisted multi-placement structures over a
//! line-delimited JSON protocol.
//!
//! ```sh
//! mps-serve <ARTIFACT_DIR> [--tcp PORT] [--workers N] [--shards N]
//!           [--max-connections N] [--cache-entries N] [--cache-shards N]
//!           [--telemetry on|off] [--refine on|off] [--refine-interval SECS]
//! mps-serve convert <IN> <OUT>
//! ```
//!
//! Loads every `*.json` (`mps-v1` JSON envelope) and `*.mpsb`
//! (`mps-v2` binary) artifact in `ARTIFACT_DIR` — mixed freely, format
//! detected per file — re-validating each envelope and cross-checking
//! the compiled query index against the structure's own query path,
//! then answers one JSON request per stdin line with one JSON response
//! per stdout line, in request order (`batch_query` may opt into a
//! binary response frame with `"encoding":"bin"`). `convert` re-encodes
//! one artifact between the two formats, direction chosen by the output
//! extension. With `--tcp PORT` the same protocol is additionally
//! served on `127.0.0.1:PORT` with pipelining, connections owned by
//! `--shards N` shard event loops (default: one per core). TCP needs a
//! unix readiness backend (epoll on Linux, `poll(2)` elsewhere); without
//! one the process reports the error and exits non-zero. `PORT` 0 picks
//! a free ephemeral port. The bound address is announced **on stdout,
//! before any serving**, as a protocol-shaped line —
//!
//! ```text
//! {"ok":true,"kind":"listening","addr":"127.0.0.1:40123"}
//! ```
//!
//! — so parallel CI jobs and test harnesses can always pass port 0 and
//! read the real address instead of racing for a fixed port. Diagnostics
//! go to stderr; stdout carries nothing but the announce line and
//! response lines.
//!
//! `--max-connections N` caps concurrently open TCP connections
//! (default 4096; 0 = unlimited): an accept beyond the cap is answered
//! with one typed `overloaded` error line and closed. `--cache-entries
//! N` sizes the sharded LRU answer cache (default 4096; 0 disables it),
//! `--cache-shards N` its shard count (default 8).
//!
//! `--telemetry off` disables the telemetry layer (per-stage latency
//! histograms, per-structure query tallies and dimension heatmaps, the
//! slow-request ring; default on). The `metrics` and `trace` protocol
//! requests answer either way, and the request counters and gauges in
//! `metrics` keep counting.
//!
//! `--refine on` starts the traffic-adaptive refinement worker: every
//! `--refine-interval SECS` (default 30) it reads the query-dimension
//! heatmaps, picks the hottest structure whose traffic concentrates in
//! a region of dims-space, re-anneals that region, and — only when the
//! hot-set instantiated-placement cost strictly improves and the full
//! invariant battery passes — persists the winner back to its artifact
//! (atomically) and hot-swaps it into serving. Default off; the
//! synchronous `refine` protocol request works regardless. See
//! `crates/serve/PROTOCOL.md` for the full wire contract.

use mps_core::MultiPlacementStructure;
use mps_serve::{Server, ServerConfig, StructureRegistry};
use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: mps-serve <ARTIFACT_DIR> [--tcp PORT] [--workers N] [--shards N] \
                     [--max-connections N] [--cache-entries N] [--cache-shards N]\n\
                     \x20                [--telemetry on|off] [--refine on|off] \
                     [--refine-interval SECS]\n\
                     \x20      mps-serve convert <IN> <OUT>   (artifact format by extension: \
                     .json = mps-v1, .mpsb = mps-v2)";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// `mps-serve convert <IN> <OUT>`: re-encode one artifact between the
/// mps-v1 JSON envelope and the mps-v2 binary format. The input format
/// is sniffed from the file content; the output format follows the
/// output extension (`.mpsb` = binary, anything else = JSON). Both
/// directions run the full validation funnel on load, so a convert is
/// also a verification pass.
fn convert(input: &str, output: &str) -> ExitCode {
    let structure = match MultiPlacementStructure::load_auto(input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mps-serve: cannot load {input}: {e}");
            return ExitCode::from(2);
        }
    };
    let binary = std::path::Path::new(output)
        .extension()
        .is_some_and(|e| e == "mpsb");
    let result = if binary {
        structure.save_bin(output)
    } else {
        structure.save_json(output)
    };
    if let Err(e) = result {
        eprintln!("mps-serve: cannot write {output}: {e}");
        return ExitCode::from(2);
    }
    eprintln!(
        "mps-serve: converted {input} -> {output} ({})",
        if binary {
            "mps-v2 binary"
        } else {
            "mps-v1 JSON"
        }
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("convert") {
        return match args.as_slice() {
            [_, input, output] => convert(input, output),
            _ => usage(),
        };
    }
    let mut dir: Option<String> = None;
    let mut tcp_port: Option<u16> = None;
    let mut config = ServerConfig::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tcp" => match it.next().as_deref().map(str::parse) {
                Some(Ok(port)) => tcp_port = Some(port),
                _ => return usage(),
            },
            "--workers" => match it.next().as_deref().map(str::parse) {
                Some(Ok(n)) => config.workers = n,
                _ => return usage(),
            },
            "--shards" => match it.next().as_deref().map(str::parse) {
                Some(Ok(n)) => config.shards = n,
                _ => return usage(),
            },
            "--max-connections" => match it.next().as_deref().map(str::parse) {
                Some(Ok(n)) => config.max_connections = n,
                _ => return usage(),
            },
            "--cache-entries" => match it.next().as_deref().map(str::parse) {
                Some(Ok(n)) => config.cache_entries = n,
                _ => return usage(),
            },
            "--cache-shards" => match it.next().as_deref().map(str::parse) {
                Some(Ok(n)) => config.cache_shards = n,
                _ => return usage(),
            },
            "--telemetry" => match it.next().as_deref() {
                Some("on") => config.telemetry = true,
                Some("off") => config.telemetry = false,
                _ => return usage(),
            },
            "--refine" => match it.next().as_deref() {
                Some("on") => config.refine = true,
                Some("off") => config.refine = false,
                _ => return usage(),
            },
            "--refine-interval" => match it.next().as_deref().map(str::parse) {
                Some(Ok(secs)) => config.refine_interval_secs = secs,
                _ => return usage(),
            },
            "--help" | "-h" => {
                // An explicit help request is a success, not an error.
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ if dir.is_none() && !arg.starts_with("--") => dir = Some(arg),
            _ => return usage(),
        }
    }
    let Some(dir) = dir else {
        return usage();
    };

    let registry = match StructureRegistry::open(&dir) {
        Ok(registry) => Arc::new(registry),
        Err(e) => {
            eprintln!("mps-serve: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "mps-serve: serving {} structure(s) from {dir}: {}",
        registry.len(),
        registry.names().join(", ")
    );
    let cache_note = if config.cache_entries == 0 {
        "answer cache disabled".to_owned()
    } else {
        format!(
            "answer cache: {} entries over {} shard(s)",
            config.cache_entries, config.cache_shards
        )
    };
    eprintln!(
        "mps-serve: {} worker(s), {} connection shard(s), {cache_note}",
        config.workers.max(1),
        config.effective_shards()
    );
    let server = Arc::new(Server::with_config(Arc::clone(&registry), config));

    // The background refinement worker (a no-op unless `--refine on`):
    // detached; it holds only a weak server reference and exits when
    // the server drops.
    if server.spawn_refiner().is_some() {
        eprintln!(
            "mps-serve: refinement worker on ({}s interval)",
            server.config().refine_interval_secs.max(1)
        );
    }

    // Optional localhost TCP side: connections owned by shard event
    // loops, all sharing the same registry snapshots, pool and cache.
    let tcp_thread = match tcp_port {
        Some(port) => {
            let listener = match TcpListener::bind(("127.0.0.1", port)) {
                Ok(listener) => listener,
                Err(e) => {
                    eprintln!("mps-serve: cannot bind 127.0.0.1:{port}: {e}");
                    return ExitCode::from(2);
                }
            };
            let local = listener
                .local_addr()
                .expect("bound listener has an address");
            // The stdout announce line, flushed before any serving:
            // with `--tcp 0` this is the only place the chosen port is
            // machine-readable.
            println!("{{\"ok\":true,\"kind\":\"listening\",\"addr\":\"{local}\"}}");
            let _ = std::io::stdout().flush();
            eprintln!("mps-serve: tcp listening on {local}");
            let tcp_server = Arc::clone(&server);
            Some(std::thread::spawn(move || {
                if let Err(e) = tcp_server.serve_tcp(listener) {
                    eprintln!("mps-serve: cannot serve tcp: {e}");
                    std::process::exit(1);
                }
            }))
        }
        None => None,
    };

    if let Err(e) = server.serve(std::io::stdin().lock(), std::io::stdout().lock()) {
        eprintln!("mps-serve: stdin stream failed: {e}");
        return ExitCode::FAILURE;
    }

    // stdin is done; if a TCP listener is up, keep serving it until the
    // process is killed.
    if let Some(handle) = tcp_thread {
        let _ = handle.join();
    }
    ExitCode::SUCCESS
}
