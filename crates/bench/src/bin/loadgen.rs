//! Closed-loop load generator for `mps-serve`: N client threads drive
//! the **real binary** over TCP with pipelined tagged requests, verify
//! every answer against direct queries on the same artifacts, and write
//! `out/BENCH_loadgen.json` — the serving-performance trajectory record
//! CI extends on every push.
//!
//! ```sh
//! cargo run --release -p mps-bench --bin loadgen -- out/structures \
//!     [--server target/release/mps-serve] [--clients 1,4,16] \
//!     [--requests N] [--pipeline D] [--hot FRAC] [--batch N] \
//!     [--reload-interval-ms M] [--min-qps Q] [--require-cache-speedup S] \
//!     [--scale-clients 64,256,1024] [--min-scaling X] \
//!     [--max-telemetry-overhead R] [--require-refine-gain] \
//!     [--refine-attempts N]
//! ```
//!
//! Measured scenarios (each against a freshly spawned server on an
//! ephemeral port, so counters are scenario-scoped and parallel CI jobs
//! never collide):
//!
//! * `uniform` at every `--clients` level — per-concurrency scaling on
//!   uniformly random in-bounds queries;
//! * `hotspot` at the highest level — 90% of probes cycle a 16-vector
//!   hot set, half `query` / half `instantiate` (the synthesis-loop
//!   pattern the answer cache targets; instantiate is where a hit saves
//!   the placement copy or fallback packing + coordinate rendering) — and
//!   `hotspot_uncached`, the same stream against a server started with
//!   `--cache-entries 0`: the cached/uncached comparison the
//!   `--require-cache-speedup` gate judges;
//! * `churn` at the highest level — the hotspot stream while a writer
//!   connection hot-reloads the registry every few milliseconds
//!   (adversarial: every reload invalidates the cache all-or-nothing);
//! * `batch_hotspot` — 64-vector batch requests over the hot sets,
//!   exercising the per-element batch cache path (recorded, not gated:
//!   batch lines are JSON-bound on the wire);
//! * `conn_scaling` at every `--scale-clients` level (default
//!   64/256/1024) — the connection-count ceiling probe: far more open
//!   connections than cores, few requests each, the regime where a
//!   thread-per-connection server drowns in context switches and the
//!   shard event loops must not;
//! * `batch_large` — 512-vector batches, above the server's 256-vector
//!   heavy threshold, so each one runs as one worker-pool job and its
//!   answer comes back through the shard's completion path (recorded,
//!   not gated);
//! * `telemetry_on` / `telemetry_off` — a diverse uniform stream
//!   against two cache-disabled servers (`--cache-entries 0`, so every
//!   request takes the full parse → dispatch → index → render pipeline
//!   and the two sides differ by nothing but recording), one default
//!   and one `--telemetry off`, an unmeasured warmup burst then
//!   best-of-3 each side: what the telemetry layer's recording costs,
//!   which `--max-telemetry-overhead R` caps (fail when the
//!   telemetry-off QPS exceeds `R` times the telemetry-on QPS; skipped
//!   with a warning on single-core machines, where the ratio measures
//!   scheduling);
//! * `refinement_before` / `refinement_after` — traffic-adaptive
//!   refinement end to end in a scenario-private artifact directory: a
//!   deliberately under-annealed structure takes concentrated hot-set
//!   traffic, synchronous `refine` passes run until one is accepted
//!   (the pass re-anneals the hot region, persists the winner
//!   atomically and hot-swaps it), then the *refined* structure serves
//!   the same stream, every answer diffed against the reloaded
//!   artifact. The record — hot-set instantiation cost before/after
//!   (server- and client-side), publish count, divergences — goes to
//!   `out/BENCH_refine.json`; `--require-refine-gain` fails the run
//!   unless ≥ 1 pass was accepted with a strict cost improvement
//!   (skipped with a warning on single-core machines).
//!
//! After every scenario the server's own `metrics` snapshot is fetched
//! and its dispatch-stage p99 cross-checked against the client-observed
//! p99 (both on the same histogram bucket grid): the server's interior
//! view of a request can never be slower than the client's end-to-end
//! view of the same traffic, so a violation means the telemetry layer
//! is lying. The server-side figure rides along in every scenario
//! record as `server_p99_ns`.
//!
//! Every response is matched by its `req` tag and diffed against the
//! reference answer; any divergence or refusal fails the run. `--min-qps`
//! fails the run when the highest-concurrency uniform scenario is slower.
//! `--min-scaling X` fails the run unless uniform QPS at `<cores>`
//! clients is at least `X` times the 1-client figure; the gate skips
//! with a warning on single-core machines, where there is nothing to
//! scale onto. The
//! scaling curve is additionally written to `out/BENCH_scaling.json`
//! for CI artifact upload.

use mps_bench::cli::arg_value;
use mps_bench::{markdown_table, random_dims, write_artifact};
use mps_core::MultiPlacementStructure;
use mps_geom::Dims;
use mps_netlist::benchmarks;
use mps_serve::LatencyHistogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Map, Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Vectors per `batch_large` request: past the server's 256-vector heavy
/// threshold.
const LARGE_BATCH: usize = 512;

fn fail(msg: &str) -> ! {
    eprintln!("loadgen: FAIL: {msg}");
    std::process::exit(1);
}

/// What the reference path says a pool entry must answer.
enum Expect {
    Query(Option<u64>),
    Batch(Vec<Option<u64>>),
    Instantiate {
        id: Option<u64>,
        coords: Vec<(i64, i64)>,
    },
}

/// One reusable request: everything after the `id` tag, plus the
/// reference answer. Clients render `{"id":<k>,<suffix>` at send time so
/// ids stay strictly increasing per connection.
struct PoolEntry {
    suffix: String,
    expect: Expect,
}

fn dims_json(dims: &Dims) -> String {
    let pairs: Vec<String> = dims.iter().map(|&(w, h)| format!("[{w},{h}]")).collect();
    format!("[{}]", pairs.join(","))
}

fn query_entry(name: &str, mps: &MultiPlacementStructure, dims: &Dims) -> PoolEntry {
    PoolEntry {
        suffix: format!(
            r#""kind":"query","structure":"{name}","dims":{}}}"#,
            dims_json(dims)
        ),
        expect: Expect::Query(mps.query(dims).map(|id| u64::from(id.0))),
    }
}

/// Mirrors the server's instantiate dispatch: one index lookup decides
/// both the id and the placement; uncovered space falls
/// through to the deterministic fallback packing.
fn instantiate_entry(name: &str, mps: &MultiPlacementStructure, dims: &Dims) -> PoolEntry {
    let id = mps.query(dims);
    let placement = match id.and_then(|id| mps.entry(id)) {
        Some(entry) => entry.placement.clone(),
        None => mps.instantiate_or_fallback(dims),
    };
    PoolEntry {
        suffix: format!(
            r#""kind":"instantiate","structure":"{name}","dims":{}}}"#,
            dims_json(dims)
        ),
        expect: Expect::Instantiate {
            id: id.map(|id| u64::from(id.0)),
            coords: placement.coords().iter().map(|p| (p.x, p.y)).collect(),
        },
    }
}

fn batch_entry(name: &str, mps: &MultiPlacementStructure, batch: &[Dims]) -> PoolEntry {
    let vectors: Vec<String> = batch.iter().map(dims_json).collect();
    PoolEntry {
        suffix: format!(
            r#""kind":"batch_query","structure":"{name}","dims_list":[{}]}}"#,
            vectors.join(",")
        ),
        expect: Expect::Batch(
            mps.query_batch(batch)
                .into_iter()
                .map(|id| id.map(|id| u64::from(id.0)))
                .collect(),
        ),
    }
}

/// A spawned `mps-serve --tcp 0` child, killed on drop. The stdin handle
/// is held open so the server keeps serving TCP for the process's life.
struct ServerProc {
    child: Child,
    addr: String,
    _stdin: std::process::ChildStdin,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(server_bin: &PathBuf, dir: &PathBuf, extra_args: &[&str]) -> ServerProc {
    let mut cmd = Command::new(server_bin);
    cmd.arg(dir).args(["--tcp", "0"]).args(extra_args);
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("cannot start {}: {e}", server_bin.display())));
    let stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    // The port-0 contract: the bound address is the first stdout line,
    // announced before any serving.
    let mut announce = String::new();
    stdout
        .read_line(&mut announce)
        .unwrap_or_else(|e| fail(&format!("no announce line from the server: {e}")));
    let value: Value = serde_json::parse(announce.trim())
        .unwrap_or_else(|e| fail(&format!("unparsable announce line: {e}: {announce}")));
    if value.get("kind").and_then(Value::as_str) != Some("listening") {
        fail(&format!(
            "first stdout line is not the announce: {announce}"
        ));
    }
    let addr = value
        .get("addr")
        .and_then(Value::as_str)
        .unwrap_or_else(|| fail("announce line carries no addr"))
        .to_owned();
    ServerProc {
        child,
        addr,
        _stdin: stdin,
    }
}

/// One `metrics` request over a fresh connection: the server's own
/// counters and telemetry snapshot, fetched after a scenario's traffic
/// has drained.
fn metrics_snapshot(addr: &str) -> Value {
    let stream =
        TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("metrics connect: {e}")));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    writeln!(writer, r#"{{"kind":"metrics"}}"#).unwrap_or_else(|e| fail(&format!("metrics: {e}")));
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .unwrap_or_else(|e| fail(&format!("metrics response: {e}")));
    serde_json::parse(line.trim_end())
        .unwrap_or_else(|e| fail(&format!("unparsable metrics: {e}: {line}")))
}

struct ScenarioOutcome {
    qps: f64,
    p50: Duration,
    p99: Duration,
    p999: Duration,
    requests: u64,
    divergences: u64,
    refusals: u64,
    hit_rate: f64,
    reloads: u64,
    /// The server's own dispatch-stage p99 from its `metrics` response
    /// (0 when telemetry is off or nothing went through `dispatch`).
    server_p99_ns: u64,
    /// The client-observed p99 pushed through the same log-linear
    /// histogram grid the server uses, so the two percentiles round
    /// identically and `server_p99_ns <= client_p99_grid_ns` is exact.
    client_p99_grid_ns: u64,
}

fn percentile(sorted: &[u64], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    Duration::from_nanos(sorted[idx])
}

/// Drives `clients` closed-loop client threads against `addr`, each
/// sending `requests` pipelined tagged requests drawn round-robin from
/// `pool`, and verifies every tagged response against its pool entry.
/// With `reload_every`, a writer connection hot-reloads the registry on
/// that interval for the whole scenario.
fn run_scenario(
    addr: &str,
    clients: usize,
    requests: usize,
    pipeline: usize,
    pool: &Arc<Vec<PoolEntry>>,
    reload_every: Option<Duration>,
) -> ScenarioOutcome {
    let stop = Arc::new(AtomicBool::new(false));
    let reloads = Arc::new(AtomicU64::new(0));
    let reloader = reload_every.map(|interval| {
        let addr = addr.to_owned();
        let stop = Arc::clone(&stop);
        let reloads = Arc::clone(&reloads);
        std::thread::spawn(move || {
            let stream =
                TcpStream::connect(&*addr).unwrap_or_else(|e| fail(&format!("reloader: {e}")));
            let _ = stream.set_nodelay(true);
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut writer = stream;
            while !stop.load(Ordering::Relaxed) {
                writeln!(writer, r#"{{"kind":"reload"}}"#).expect("reload request");
                let mut line = String::new();
                reader.read_line(&mut line).expect("reload response");
                let value: Value = serde_json::parse(line.trim_end())
                    .unwrap_or_else(|e| fail(&format!("unparsable reload response: {e}")));
                if value.get("ok").and_then(Value::as_bool) != Some(true) {
                    fail(&format!("reload refused mid-traffic: {line}"));
                }
                reloads.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(interval);
            }
        })
    });

    let start = Instant::now();
    let mut handles = Vec::new();
    for client in 0..clients {
        let addr = addr.to_owned();
        let pool = Arc::clone(pool);
        handles.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(&*addr)
                .unwrap_or_else(|e| fail(&format!("client {client}: {e}")));
            let _ = stream.set_nodelay(true);
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut writer = stream;
            let mut latencies = Vec::with_capacity(requests);
            let mut divergences = 0u64;
            let mut refusals = 0u64;
            // id → (pool index, send instant); ids are the request
            // sequence numbers, strictly increasing per connection.
            let mut in_flight: Vec<Option<(usize, Instant)>> = vec![None; requests];
            let mut outstanding = 0usize;
            let mut read_one = |in_flight: &mut Vec<Option<(usize, Instant)>>,
                                latencies: &mut Vec<u64>,
                                divergences: &mut u64,
                                refusals: &mut u64| {
                let mut line = String::new();
                reader
                    .read_line(&mut line)
                    .unwrap_or_else(|e| fail(&format!("client {client} read: {e}")));
                let value: Value = serde_json::parse(line.trim_end())
                    .unwrap_or_else(|e| fail(&format!("client {client}: bad JSON: {e}")));
                let req = value
                    .get("req")
                    .and_then(Value::as_u64)
                    .unwrap_or_else(|| fail(&format!("untagged response: {line}")))
                    as usize;
                let (pool_idx, sent_at) = in_flight[req]
                    .take()
                    .unwrap_or_else(|| fail(&format!("response for unknown id {req}")));
                latencies.push(u64::try_from(sent_at.elapsed().as_nanos()).unwrap_or(u64::MAX));
                if value.get("ok").and_then(Value::as_bool) != Some(true) {
                    *refusals += 1;
                    eprintln!("loadgen: client {client} refused: {line}");
                    return;
                }
                let matches =
                    match &pool[pool_idx].expect {
                        Expect::Query(want) => value.get("id").and_then(Value::as_u64) == *want,
                        Expect::Batch(want) => value
                            .get("ids")
                            .and_then(Value::as_array)
                            .is_some_and(|ids| {
                                ids.len() == want.len()
                                    && ids.iter().zip(want).all(|(got, w)| got.as_u64() == *w)
                            }),
                        Expect::Instantiate { id, coords } => {
                            value.get("id").and_then(Value::as_u64) == *id
                                && value.get("coords").and_then(Value::as_array).is_some_and(
                                    |got| {
                                        got.len() == coords.len()
                                            && got.iter().zip(coords).all(|(p, &(x, y))| {
                                                p.as_array().is_some_and(|xy| {
                                                    xy.len() == 2
                                                        && xy[0].as_i64() == Some(x)
                                                        && xy[1].as_i64() == Some(y)
                                                })
                                            })
                                    },
                                )
                        }
                    };
                if !matches {
                    *divergences += 1;
                    eprintln!("loadgen: client {client} answer diverges: {line}");
                }
            };
            for k in 0..requests {
                let pool_idx = (client * 7919 + k) % pool.len();
                let line = format!("{{\"id\":{k},{}", pool[pool_idx].suffix);
                in_flight[k] = Some((pool_idx, Instant::now()));
                writeln!(writer, "{line}")
                    .unwrap_or_else(|e| fail(&format!("client {client} write: {e}")));
                outstanding += 1;
                if outstanding == pipeline.max(1) {
                    read_one(
                        &mut in_flight,
                        &mut latencies,
                        &mut divergences,
                        &mut refusals,
                    );
                    outstanding -= 1;
                }
            }
            while outstanding > 0 {
                read_one(
                    &mut in_flight,
                    &mut latencies,
                    &mut divergences,
                    &mut refusals,
                );
                outstanding -= 1;
            }
            (latencies, divergences, refusals)
        }));
    }
    let mut latencies = Vec::with_capacity(clients * requests);
    let mut divergences = 0u64;
    let mut refusals = 0u64;
    for handle in handles {
        let (lat, div, refused) = handle.join().expect("client thread");
        latencies.extend(lat);
        divergences += div;
        refusals += refused;
    }
    let wall = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = reloader {
        handle.join().expect("reloader thread");
    }
    let metrics = metrics_snapshot(addr);
    let hit_rate = metrics
        .get("cache")
        .and_then(|c| c.get("hit_rate"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let server_p99_ns = metrics
        .get("stages")
        .and_then(|s| s.get("dispatch"))
        .and_then(|d| d.get("p99_ns"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let grid = LatencyHistogram::new();
    for &ns in &latencies {
        grid.record(ns);
    }
    latencies.sort_unstable();
    let total = (clients * requests) as u64;
    ScenarioOutcome {
        qps: total as f64 / wall.as_secs_f64(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        p999: percentile(&latencies, 0.999),
        requests: total,
        divergences,
        refusals,
        hit_rate,
        reloads: reloads.load(Ordering::Relaxed),
        server_p99_ns,
        client_p99_grid_ns: grid.snapshot().percentile(0.99),
    }
}

fn outcome_value(mix: &str, clients: usize, o: &ScenarioOutcome) -> Value {
    let mut m = Map::new();
    m.insert("mix", Value::String(mix.to_owned()));
    m.insert("clients", clients.to_value());
    m.insert("requests", o.requests.to_value());
    m.insert("qps", o.qps.round().to_value());
    m.insert(
        "p50_ns",
        u64::try_from(o.p50.as_nanos())
            .unwrap_or(u64::MAX)
            .to_value(),
    );
    m.insert(
        "p99_ns",
        u64::try_from(o.p99.as_nanos())
            .unwrap_or(u64::MAX)
            .to_value(),
    );
    m.insert(
        "p999_ns",
        u64::try_from(o.p999.as_nanos())
            .unwrap_or(u64::MAX)
            .to_value(),
    );
    m.insert("server_p99_ns", o.server_p99_ns.to_value());
    m.insert("cache_hit_rate", o.hit_rate.to_value());
    m.insert("reloads", o.reloads.to_value());
    m.insert("divergences", o.divergences.to_value());
    m.insert("refusals", o.refusals.to_value());
    Value::Object(m)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            eprintln!(
                "usage: loadgen <ARTIFACT_DIR> [--server PATH] [--clients 1,4,16] \
                 [--requests N] [--pipeline D] [--hot FRAC] [--batch N] \
                 [--reload-interval-ms M] [--min-qps Q] [--require-cache-speedup S] \
                 [--scale-clients 64,256,1024] [--min-scaling X] \
                 [--max-telemetry-overhead R] [--require-refine-gain] [--refine-attempts N]"
            );
            std::process::exit(2);
        });
    let server_bin: PathBuf =
        arg_value("server").unwrap_or_else(|| PathBuf::from("target/release/mps-serve"));
    let clients_arg: String = arg_value("clients").unwrap_or_else(|| "1,4,16".to_owned());
    let mut client_levels: Vec<usize> = clients_arg
        .split(',')
        .map(|c| {
            c.trim().parse().unwrap_or_else(|_| {
                eprintln!("error: invalid --clients element {c:?}");
                std::process::exit(2);
            })
        })
        .collect();
    let requests: usize = arg_value("requests").unwrap_or(400);
    let pipeline: usize = arg_value("pipeline").unwrap_or(4);
    let hot_fraction: f64 = arg_value("hot").unwrap_or(0.9);
    let batch_len: usize = arg_value("batch").unwrap_or(64);
    let reload_ms: u64 = arg_value("reload-interval-ms").unwrap_or(10);
    let min_qps: f64 = arg_value("min-qps").unwrap_or(0.0);
    let require_cache_speedup: f64 = arg_value("require-cache-speedup").unwrap_or(0.0);
    let scale_arg: String = arg_value("scale-clients").unwrap_or_else(|| "64,256,1024".to_owned());
    let scale_levels: Vec<usize> = if scale_arg.trim().is_empty() || scale_arg.trim() == "none" {
        Vec::new()
    } else {
        scale_arg
            .split(',')
            .map(|c| {
                c.trim().parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --scale-clients element {c:?}");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let min_scaling: f64 = arg_value("min-scaling").unwrap_or(0.0);
    let max_telemetry_overhead: f64 = arg_value("max-telemetry-overhead").unwrap_or(0.0);
    let require_refine_gain = std::env::args().any(|a| a == "--require-refine-gain");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    // The scaling gate compares uniform QPS at `cores` clients to the
    // 1-client figure, so both levels must be measured regardless of
    // what `--clients` asked for.
    if min_scaling > 0.0 {
        client_levels.push(1);
        client_levels.push(cores);
    }
    client_levels.sort_unstable();
    client_levels.dedup();
    let max_clients = *client_levels.last().unwrap_or(&1);

    // --- Reference structures (the answers every response is diffed
    //     against) and the request pools -------------------------------
    let mut structures: Vec<(String, MultiPlacementStructure)> = Vec::new();
    for entry in std::fs::read_dir(&dir)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", dir.display())))
    {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let name = stem.strip_suffix(".mps").unwrap_or(stem).to_owned();
        let mps = MultiPlacementStructure::load_json(&path)
            .unwrap_or_else(|e| fail(&format!("cannot load {}: {e}", path.display())));
        structures.push((name, mps));
    }
    structures.sort_by(|a, b| a.0.cmp(&b.0));
    if structures.is_empty() {
        fail(&format!("no artifacts in {}", dir.display()));
    }
    eprintln!(
        "loadgen: {} artifact(s): {}",
        structures.len(),
        structures
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let pool_len = 1024usize;
    let mut rng = StdRng::seed_from_u64(0x10AD);
    let uniform_dims = |rng: &mut StdRng, name: &str, mps: &MultiPlacementStructure| -> Dims {
        match benchmarks::by_name(name) {
            Some(bm) => random_dims(&bm.circuit, rng),
            None => mps
                .bounds()
                .iter()
                .map(|b| {
                    (
                        rng.random_range(b.w.lo()..=b.w.hi()),
                        rng.random_range(b.h.lo()..=b.h.hi()),
                    )
                })
                .collect(),
        }
    };
    // Per-structure hot sets, covered vectors preferred (a synthesis
    // loop hammers neighborhoods that exist).
    let hot_sets: Vec<Vec<Dims>> = structures
        .iter()
        .map(|(name, mps)| {
            let mut hot: Vec<Dims> = Vec::new();
            for _ in 0..4096 {
                if hot.len() >= 16 {
                    break;
                }
                let dims = uniform_dims(&mut rng, name, mps);
                if mps.query(&dims).is_some() {
                    hot.push(dims);
                }
            }
            while hot.len() < 16 {
                hot.push(uniform_dims(&mut rng, name, mps));
            }
            hot
        })
        .collect();

    let uniform_pool: Arc<Vec<PoolEntry>> = Arc::new(
        (0..pool_len)
            .map(|k| {
                let (name, mps) = &structures[k % structures.len()];
                let dims = uniform_dims(&mut rng, name, mps);
                query_entry(name, mps, &dims)
            })
            .collect(),
    );
    // The hot-spot mix is half `query`, half `instantiate`: instantiate
    // responses carry the full coordinate vector, which is where the
    // answer cache saves real work (packing + clone + render).
    let hotspot_pool: Arc<Vec<PoolEntry>> = Arc::new(
        (0..pool_len)
            .map(|k| {
                let s = k % structures.len();
                let (name, mps) = &structures[s];
                let dims = if rng.random_range(0.0..1.0) < hot_fraction {
                    hot_sets[s][rng.random_range(0..hot_sets[s].len())].clone()
                } else {
                    uniform_dims(&mut rng, name, mps)
                };
                if k % 2 == 0 {
                    query_entry(name, mps, &dims)
                } else {
                    instantiate_entry(name, mps, &dims)
                }
            })
            .collect(),
    );
    let batch_pool: Arc<Vec<PoolEntry>> = Arc::new(
        (0..256)
            .map(|k| {
                let s = k % structures.len();
                let (name, mps) = &structures[s];
                let batch: Vec<Dims> = (0..batch_len)
                    .map(|_| {
                        if rng.random_range(0.0..1.0) < hot_fraction {
                            hot_sets[s][rng.random_range(0..hot_sets[s].len())].clone()
                        } else {
                            uniform_dims(&mut rng, name, mps)
                        }
                    })
                    .collect();
                batch_entry(name, mps, &batch)
            })
            .collect(),
    );
    // Batches big enough to cross the server's heavy threshold, so each
    // request takes a worker-pool slot instead of the shard thread.
    let large_pool: Arc<Vec<PoolEntry>> = Arc::new(
        (0..64)
            .map(|k| {
                let s = k % structures.len();
                let (name, mps) = &structures[s];
                let batch: Vec<Dims> = (0..LARGE_BATCH)
                    .map(|_| {
                        if rng.random_range(0.0..1.0) < hot_fraction {
                            hot_sets[s][rng.random_range(0..hot_sets[s].len())].clone()
                        } else {
                            uniform_dims(&mut rng, name, mps)
                        }
                    })
                    .collect();
                batch_entry(name, mps, &batch)
            })
            .collect(),
    );

    // --- Scenarios ----------------------------------------------------
    let mut scenario_rows: Vec<Vec<String>> = Vec::new();
    let mut scenario_values: Vec<Value> = Vec::new();
    let mut scaling = Map::new();
    let mut total_divergences = 0u64;
    let mut total_refusals = 0u64;
    let mut record = |mix: &str, clients: usize, o: &ScenarioOutcome| {
        // Server-vs-client percentile cross-check: the server's interior
        // dispatch p99 must fit inside the client's end-to-end p99 for
        // the same traffic. Both sides round on the same bucket grid, so
        // this holds exactly — a violation means the telemetry is wrong.
        if o.server_p99_ns > 0 && o.server_p99_ns > o.client_p99_grid_ns {
            fail(&format!(
                "{mix} x{clients}: server-side dispatch p99 ({} ns) exceeds the \
                 client-observed p99 ({} ns, same bucket grid) — the server's interior \
                 span cannot be slower than the wire round-trip that contains it",
                o.server_p99_ns, o.client_p99_grid_ns
            ));
        }
        scenario_rows.push(vec![
            mix.to_owned(),
            clients.to_string(),
            format!("{:.0}", o.qps),
            format!("{:?}", o.p50),
            format!("{:?}", o.p99),
            format!("{:?}", o.p999),
            format!("{:?}", Duration::from_nanos(o.server_p99_ns)),
            format!("{:.1}%", 100.0 * o.hit_rate),
            o.reloads.to_string(),
        ]);
        scenario_values.push(outcome_value(mix, clients, o));
    };

    let mut uniform_qps_at_max = 0.0;
    let mut uniform_qps_at_1 = 0.0;
    let mut uniform_qps_at_cores = 0.0;
    for &clients in &client_levels {
        let server = spawn_server(&server_bin, &dir, &[]);
        eprintln!("loadgen: uniform x{clients} against {}", server.addr);
        let o = run_scenario(
            &server.addr,
            clients,
            requests,
            pipeline,
            &uniform_pool,
            None,
        );
        total_divergences += o.divergences;
        total_refusals += o.refusals;
        if clients == max_clients {
            uniform_qps_at_max = o.qps;
        }
        if clients == 1 {
            uniform_qps_at_1 = o.qps;
        }
        if clients == cores {
            uniform_qps_at_cores = o.qps;
        }
        scaling.insert(clients.to_string(), o.qps.round().to_value());
        record("uniform", clients, &o);
    }

    // The connection-ceiling probe: far more open connections than
    // cores, a short burst each. Thread-per-connection serving falls
    // over here (memory + context-switch storm); shard event loops must
    // hold QPS roughly flat across the levels.
    let scale_requests = requests.div_ceil(12).max(20);
    let mut conn_scaling = Map::new();
    for &clients in &scale_levels {
        let server = spawn_server(&server_bin, &dir, &["--max-connections", "0"]);
        eprintln!(
            "loadgen: conn_scaling x{clients} ({scale_requests} reqs each) against {}",
            server.addr
        );
        let o = run_scenario(
            &server.addr,
            clients,
            scale_requests,
            pipeline,
            &uniform_pool,
            None,
        );
        total_divergences += o.divergences;
        total_refusals += o.refusals;
        conn_scaling.insert(clients.to_string(), o.qps.round().to_value());
        record("conn_scaling", clients, &o);
    }

    // The hotspot scenario doubles as the cached side of the
    // cached/uncached comparison: same pool, same concurrency, the only
    // difference is the server's `--cache-entries`.
    let server = spawn_server(&server_bin, &dir, &[]);
    eprintln!("loadgen: hotspot x{max_clients} against {}", server.addr);
    let cached = run_scenario(
        &server.addr,
        max_clients,
        requests,
        pipeline,
        &hotspot_pool,
        None,
    );
    total_divergences += cached.divergences;
    total_refusals += cached.refusals;
    record("hotspot", max_clients, &cached);
    drop(server);

    let server = spawn_server(&server_bin, &dir, &["--cache-entries", "0"]);
    eprintln!("loadgen: hotspot (cache disabled) x{max_clients}");
    let uncached = run_scenario(
        &server.addr,
        max_clients,
        requests,
        pipeline,
        &hotspot_pool,
        None,
    );
    total_divergences += uncached.divergences;
    total_refusals += uncached.refusals;
    record("hotspot_uncached", max_clients, &uncached);
    drop(server);
    let cache_speedup = cached.qps / uncached.qps.max(1e-9);

    let server = spawn_server(&server_bin, &dir, &[]);
    eprintln!(
        "loadgen: churn x{max_clients} (reload every {reload_ms}ms) against {}",
        server.addr
    );
    let o = run_scenario(
        &server.addr,
        max_clients,
        requests,
        pipeline,
        &hotspot_pool,
        Some(Duration::from_millis(reload_ms)),
    );
    if o.reloads == 0 {
        fail("churn scenario finished without a single hot-reload");
    }
    total_divergences += o.divergences;
    total_refusals += o.refusals;
    record("churn", max_clients, &o);
    drop(server);

    // Batched hot-spot traffic: exercises the per-element batch cache
    // path under concurrency (throughput here is JSON-bound — 64
    // vectors per line — so it is recorded, not gated).
    let batch_requests = requests.div_ceil(4).max(50);
    let server = spawn_server(&server_bin, &dir, &[]);
    eprintln!("loadgen: batch_hotspot x{max_clients}");
    let o = run_scenario(
        &server.addr,
        max_clients,
        batch_requests,
        pipeline,
        &batch_pool,
        None,
    );
    total_divergences += o.divergences;
    total_refusals += o.refusals;
    record("batch_hotspot", max_clients, &o);
    drop(server);

    // Over-threshold batches: every answer verified after its trip
    // through the worker pool and the shard's completion path.
    let large_clients = 2.min(max_clients.max(1));
    let server = spawn_server(&server_bin, &dir, &[]);
    eprintln!("loadgen: batch_large x{large_clients} ({LARGE_BATCH}-vector batches)");
    let o = run_scenario(
        &server.addr,
        large_clients,
        requests.div_ceil(16).max(10),
        2,
        &large_pool,
        None,
    );
    total_divergences += o.divergences;
    total_refusals += o.refusals;
    record("batch_large", large_clients, &o);
    drop(server);

    // Telemetry overhead: the same uniform stream against a default
    // server (telemetry on) and one started with `--telemetry off`,
    // best-of-3 per side — max-of-N is the standard noise filter for a
    // ratio gate this tight (the claim is "under 5%", and OS jitter
    // alone exceeds that in a single short run). Each round warms the
    // fresh server with an unmeasured burst first: the measured window
    // must be steady state, not allocator/page-cache/accept-path
    // startup, or the ratio measures boot noise instead of recording.
    let overhead_requests = requests.max(2000);
    let overhead_clients = max_clients;
    // A pool larger than the total request count: near-zero replay hit
    // rate, so the measured path is the full parse → dispatch → index →
    // render pipeline. Reusing the 1024-entry uniform pool here would
    // turn the run into mostly cached-line replay — the cheapest path
    // the server has, which overstates the *relative* cost of recording
    // on the traffic nobody optimizes for.
    let overhead_pool: Arc<Vec<PoolEntry>> = Arc::new(
        (0..(overhead_clients * overhead_requests).next_power_of_two())
            .map(|k| {
                let (name, mps) = &structures[k % structures.len()];
                let dims = uniform_dims(&mut rng, name, mps);
                query_entry(name, mps, &dims)
            })
            .collect(),
    );
    let mut best_of_3 = |extra_args: &[&str], label: &str| -> ScenarioOutcome {
        let mut best: Option<ScenarioOutcome> = None;
        for round in 1..=3 {
            let server = spawn_server(&server_bin, &dir, extra_args);
            eprintln!(
                "loadgen: {label} x{overhead_clients} round {round}/3 against {}",
                server.addr
            );
            let warmup = run_scenario(
                &server.addr,
                overhead_clients,
                200,
                pipeline,
                &overhead_pool,
                None,
            );
            total_divergences += warmup.divergences;
            total_refusals += warmup.refusals;
            let o = run_scenario(
                &server.addr,
                overhead_clients,
                overhead_requests,
                pipeline,
                &overhead_pool,
                None,
            );
            total_divergences += o.divergences;
            total_refusals += o.refusals;
            if best.as_ref().is_none_or(|b| o.qps > b.qps) {
                best = Some(o);
            }
        }
        best.expect("three rounds ran")
    };
    // Both sides run cache-disabled: with the answer cache on, the
    // measured mix depends on how the client index stride happens to
    // overlap the pool, and the cheapest (replay) path dominates. With
    // it off every request takes the full pipeline on both servers —
    // the paths being compared are identical except for recording.
    let telemetry_on = best_of_3(&["--cache-entries", "0"], "telemetry_on");
    let telemetry_off = best_of_3(
        &["--cache-entries", "0", "--telemetry", "off"],
        "telemetry_off",
    );
    record("telemetry_on", overhead_clients, &telemetry_on);
    record("telemetry_off", overhead_clients, &telemetry_off);
    // > 1 means recording costs throughput; the gate caps the ratio.
    let telemetry_overhead = telemetry_off.qps / telemetry_on.qps.max(1e-9);

    // --- Refinement scenario ------------------------------------------
    // Traffic-adaptive refinement end to end against the real binary: a
    // scenario-private directory gets a deliberately under-annealed
    // structure (the refiner rewrites artifacts on disk, so the shared
    // directory must stay untouched), clients concentrate their traffic
    // on one region of dims-space, refinement passes run until one is
    // accepted, and the refined structure then serves the same stream —
    // zero divergence, zero interruption, improved hot-set cost.
    let refine_attempts_cap: usize = arg_value("refine-attempts").unwrap_or(12);
    let refine_dir = std::env::temp_dir().join(format!("loadgen_refine_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&refine_dir);
    std::fs::create_dir_all(&refine_dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", refine_dir.display())));
    let refine_circuit = benchmarks::circ01();
    let weak = mps_core::MpsGenerator::new(
        &refine_circuit,
        mps_core::GeneratorConfig::builder()
            .outer_iterations(10)
            .inner_iterations(10)
            .seed(0x0EF1)
            .build(),
    )
    .generate()
    .unwrap_or_else(|e| {
        fail(&format!(
            "cannot generate the refinement seed structure: {e}"
        ))
    });
    let refine_path = refine_dir.join("circ01.mps.json");
    weak.save_json(&refine_path)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", refine_path.display())));

    // The hot set: every axis pinned to its lowest tenth, so the
    // server's heatmap concentrates in one bin per axis — the signal
    // the refiner keys on.
    let refine_hot: Vec<Dims> = (0..16)
        .map(|k: i64| {
            weak.bounds()
                .iter()
                .map(|b| {
                    let probe = |i: &mps_geom::Interval| {
                        let tenth = (i64::try_from(i.len()).unwrap_or(i64::MAX) / 10).max(1);
                        i.lo() + (k * 5) % tenth
                    };
                    (probe(&b.w), probe(&b.h))
                })
                .collect()
        })
        .collect();
    // The client-side view of the server's acceptance metric: summed
    // instantiated-placement bounding-box area over the hot set.
    let hot_cost = |mps: &MultiPlacementStructure| -> u64 {
        refine_hot
            .iter()
            .map(|dims| {
                let placement = mps.instantiate_or_fallback(dims);
                placement.bounding_box(dims).map_or(0, |bbox| bbox.area())
            })
            .fold(0u64, u64::saturating_add)
    };
    let client_cost_before = hot_cost(&weak);

    // A pass runs only when triggered through the protocol below, so no
    // publish lands inside a measured phase and every response can be
    // diffed against a known version.
    let server = spawn_server(&server_bin, &refine_dir, &[]);
    eprintln!("loadgen: refinement x2 against {}", server.addr);
    let refine_pool_before: Arc<Vec<PoolEntry>> = Arc::new(
        (0..pool_len)
            .map(|k| query_entry("circ01", &weak, &refine_hot[k % refine_hot.len()]))
            .collect(),
    );
    let before = run_scenario(
        &server.addr,
        2,
        requests,
        pipeline,
        &refine_pool_before,
        None,
    );
    total_divergences += before.divergences;
    total_refusals += before.refusals;
    record("refinement_before", 2, &before);

    let mut refine_attempts = 0u64;
    let mut refine_publishes = 0u64;
    let (mut server_cost_before, mut server_cost_after, mut refine_gain_ppm) = (0u64, 0u64, 0u64);
    {
        let stream = TcpStream::connect(&*server.addr)
            .unwrap_or_else(|e| fail(&format!("refine trigger: {e}")));
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        for _ in 0..refine_attempts_cap {
            refine_attempts += 1;
            writeln!(writer, r#"{{"kind":"refine","structure":"circ01"}}"#)
                .unwrap_or_else(|e| fail(&format!("refine trigger: {e}")));
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .unwrap_or_else(|e| fail(&format!("refine response: {e}")));
            let value: Value = serde_json::parse(line.trim_end())
                .unwrap_or_else(|e| fail(&format!("unparsable refine response: {e}: {line}")));
            if value.get("ok").and_then(Value::as_bool) != Some(true) {
                fail(&format!("refine refused: {line}"));
            }
            match value.get("outcome").and_then(Value::as_str) {
                Some("accepted") => {
                    refine_publishes += 1;
                    server_cost_before = value
                        .get("cost_before")
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                    server_cost_after =
                        value.get("cost_after").and_then(Value::as_u64).unwrap_or(0);
                    refine_gain_ppm = value.get("gain_ppm").and_then(Value::as_u64).unwrap_or(0);
                    break;
                }
                Some("rejected" | "no_candidate") => {}
                other => fail(&format!("unexpected refine outcome {other:?}: {line}")),
            }
        }
    }

    // The accepted pass persisted the winner before publishing it, so
    // the scenario-private artifact now *is* the served structure: the
    // reloaded reference must answer the second measured phase.
    let refined = MultiPlacementStructure::load_json(&refine_path)
        .unwrap_or_else(|e| fail(&format!("cannot reload {}: {e}", refine_path.display())));
    let client_cost_after = hot_cost(&refined);
    let refine_pool_after: Arc<Vec<PoolEntry>> = Arc::new(
        (0..pool_len)
            .map(|k| query_entry("circ01", &refined, &refine_hot[k % refine_hot.len()]))
            .collect(),
    );
    let after = run_scenario(
        &server.addr,
        2,
        requests,
        pipeline,
        &refine_pool_after,
        None,
    );
    total_divergences += after.divergences;
    total_refusals += after.refusals;
    record("refinement_after", 2, &after);
    let refinement_counters = metrics_snapshot(&server.addr)
        .get("refinement")
        .cloned()
        .unwrap_or(Value::Null);
    drop(server);

    let mut refine_record = Map::new();
    refine_record.insert("bench", Value::String("refinement".to_owned()));
    refine_record.insert("structure", Value::String("circ01".to_owned()));
    refine_record.insert("hot_set", refine_hot.len().to_value());
    refine_record.insert("attempts", refine_attempts.to_value());
    refine_record.insert("publishes", refine_publishes.to_value());
    refine_record.insert("server_cost_before", server_cost_before.to_value());
    refine_record.insert("server_cost_after", server_cost_after.to_value());
    refine_record.insert("gain_ppm", refine_gain_ppm.to_value());
    refine_record.insert("client_cost_before", client_cost_before.to_value());
    refine_record.insert("client_cost_after", client_cost_after.to_value());
    refine_record.insert("qps_before", before.qps.round().to_value());
    refine_record.insert("qps_after", after.qps.round().to_value());
    refine_record.insert(
        "divergences",
        (before.divergences + after.divergences).to_value(),
    );
    refine_record.insert("refusals", (before.refusals + after.refusals).to_value());
    refine_record.insert("require_refine_gain", require_refine_gain.to_value());
    refine_record.insert("cores", cores.to_value());
    refine_record.insert("refinement", refinement_counters);
    let path = write_artifact(
        "BENCH_refine.json",
        &serde_json::to_string_pretty(&Value::Object(refine_record))
            .expect("value trees serialize"),
    );
    eprintln!("wrote {}", path.display());
    let _ = std::fs::remove_dir_all(&refine_dir);

    // --- Report -------------------------------------------------------
    println!(
        "\nServing load ({} structure(s), {requests} reqs/client, pipeline depth {pipeline})",
        structures.len()
    );
    println!(
        "{}",
        markdown_table(
            &[
                "Mix",
                "Clients",
                "QPS",
                "p50",
                "p99",
                "p999",
                "Server p99",
                "Hit rate",
                "Reloads"
            ],
            &scenario_rows
        )
    );
    println!(
        "cached vs uncached hot-spot stream: {:.0} vs {:.0} req/s ({cache_speedup:.2}x)",
        cached.qps, uncached.qps
    );
    println!(
        "telemetry on vs off (best of 3): {:.0} vs {:.0} req/s \
         (off/on {telemetry_overhead:.3}x)",
        telemetry_on.qps, telemetry_off.qps
    );
    println!(
        "refinement: {refine_publishes} publish(es) in {refine_attempts} attempt(s), \
         hot-set cost {server_cost_before} -> {server_cost_after} \
         (gain {refine_gain_ppm} ppm, client-side {client_cost_before} -> {client_cost_after})"
    );
    if uniform_qps_at_1 > 0.0 && uniform_qps_at_cores > 0.0 {
        println!(
            "uniform scaling 1 -> {cores} client(s): {:.0} -> {:.0} req/s ({:.2}x)",
            uniform_qps_at_1,
            uniform_qps_at_cores,
            uniform_qps_at_cores / uniform_qps_at_1
        );
    }

    let mut top = Map::new();
    top.insert("bench", Value::String("loadgen".to_owned()));
    top.insert("artifact_dir", Value::String(dir.display().to_string()));
    top.insert(
        "structures",
        Value::Array(
            structures
                .iter()
                .map(|(n, _)| Value::String(n.clone()))
                .collect(),
        ),
    );
    top.insert("requests_per_client", requests.to_value());
    top.insert("pipeline_depth", pipeline.to_value());
    top.insert("hot_fraction", hot_fraction.to_value());
    top.insert("batch_len", batch_len.to_value());
    top.insert("cores", cores.to_value());
    top.insert("scenarios", Value::Array(scenario_values));
    top.insert("uniform_qps_by_clients", Value::Object(scaling.clone()));
    top.insert(
        "conn_scaling_qps_by_clients",
        Value::Object(conn_scaling.clone()),
    );
    let mut comparison = Map::new();
    comparison.insert("cached_qps", cached.qps.round().to_value());
    comparison.insert("uncached_qps", uncached.qps.round().to_value());
    comparison.insert(
        "speedup",
        ((cache_speedup * 100.0).round() / 100.0).to_value(),
    );
    comparison.insert("cached_hit_rate", cached.hit_rate.to_value());
    top.insert("cache_comparison", Value::Object(comparison));
    let mut overhead = Map::new();
    overhead.insert("on_qps", telemetry_on.qps.round().to_value());
    overhead.insert("off_qps", telemetry_off.qps.round().to_value());
    overhead.insert(
        "off_over_on",
        ((telemetry_overhead * 1000.0).round() / 1000.0).to_value(),
    );
    overhead.insert("on_server_p99_ns", telemetry_on.server_p99_ns.to_value());
    top.insert("telemetry_overhead", Value::Object(overhead));
    let mut gates = Map::new();
    gates.insert("min_qps", min_qps.to_value());
    gates.insert("measured_qps", uniform_qps_at_max.round().to_value());
    gates.insert("require_cache_speedup", require_cache_speedup.to_value());
    gates.insert(
        "measured_cache_speedup",
        ((cache_speedup * 100.0).round() / 100.0).to_value(),
    );
    let scaling_ratio = if uniform_qps_at_1 > 0.0 {
        uniform_qps_at_cores / uniform_qps_at_1
    } else {
        0.0
    };
    gates.insert("min_scaling", min_scaling.to_value());
    gates.insert(
        "measured_scaling",
        ((scaling_ratio * 100.0).round() / 100.0).to_value(),
    );
    gates.insert("max_telemetry_overhead", max_telemetry_overhead.to_value());
    gates.insert(
        "measured_telemetry_overhead",
        ((telemetry_overhead * 1000.0).round() / 1000.0).to_value(),
    );
    gates.insert("require_refine_gain", require_refine_gain.to_value());
    gates.insert("measured_refine_publishes", refine_publishes.to_value());
    gates.insert("measured_refine_gain_ppm", refine_gain_ppm.to_value());
    top.insert("gates", Value::Object(gates.clone()));
    let path = write_artifact(
        "BENCH_loadgen.json",
        &serde_json::to_string_pretty(&Value::Object(top)).expect("value trees serialize"),
    );
    eprintln!("wrote {}", path.display());

    // The scaling curve as its own artifact — small, stable-shaped,
    // what CI uploads so a regression is visible as a curve, not a
    // single number.
    let mut curve = Map::new();
    curve.insert("bench", Value::String("scaling".to_owned()));
    curve.insert("cores", cores.to_value());
    curve.insert("requests_per_client", requests.to_value());
    curve.insert("uniform_qps_by_clients", Value::Object(scaling));
    curve.insert("conn_scaling_qps_by_clients", Value::Object(conn_scaling));
    curve.insert("gates", Value::Object(gates));
    let path = write_artifact(
        "BENCH_scaling.json",
        &serde_json::to_string_pretty(&Value::Object(curve)).expect("value trees serialize"),
    );
    eprintln!("wrote {}", path.display());

    // --- Gates --------------------------------------------------------
    if total_divergences > 0 || total_refusals > 0 {
        fail(&format!(
            "{total_divergences} divergence(s) and {total_refusals} refusal(s) across all \
             scenarios — served answers must be bit-identical to the direct query path"
        ));
    }
    if min_qps > 0.0 && uniform_qps_at_max < min_qps {
        fail(&format!(
            "uniform QPS at {max_clients} clients is {uniform_qps_at_max:.0}, \
             below the required {min_qps:.0}"
        ));
    }
    if require_cache_speedup > 0.0 && cache_speedup < require_cache_speedup {
        fail(&format!(
            "the cached hot-spot stream is only {cache_speedup:.2}x the uncached run, \
             below the required {require_cache_speedup:.2}x"
        ));
    }
    if min_scaling > 0.0 {
        if cores < 2 {
            eprintln!(
                "loadgen: WARN: --min-scaling {min_scaling} skipped — only {cores} core(s), \
                 nothing to scale onto"
            );
        } else if scaling_ratio < min_scaling {
            fail(&format!(
                "uniform QPS at {cores} clients is only {scaling_ratio:.2}x the 1-client \
                 figure, below the required {min_scaling:.2}x"
            ));
        }
    }
    if max_telemetry_overhead > 0.0 {
        if cores < 2 {
            // On one core the server and the closed-loop clients fight
            // for the same CPU, so the off/on ratio measures scheduler
            // perturbation, not recording cost — same self-skip as the
            // other parallelism-dependent gates.
            eprintln!(
                "loadgen: WARN: --max-telemetry-overhead {max_telemetry_overhead} skipped — \
                 only {cores} core(s), the ratio would measure scheduling, not recording"
            );
        } else if telemetry_overhead > max_telemetry_overhead {
            fail(&format!(
                "telemetry recording costs too much: the telemetry-off server is \
                 {telemetry_overhead:.3}x the telemetry-on throughput, above the allowed \
                 {max_telemetry_overhead:.3}x"
            ));
        }
    }
    if require_refine_gain {
        if cores < 2 {
            // On one core the re-anneal contends with the serving
            // threads whose traffic it is supposed to improve — same
            // self-skip as the other parallelism-dependent gates.
            eprintln!(
                "loadgen: WARN: --require-refine-gain skipped — only {cores} core(s), \
                 the refinement pass would measure scheduler contention"
            );
        } else if refine_publishes == 0 {
            fail(&format!(
                "no refinement pass was accepted in {refine_attempts} attempt(s) against \
                 the deliberately under-annealed scenario structure"
            ));
        } else if server_cost_after >= server_cost_before {
            fail(&format!(
                "the accepted refinement pass did not improve the hot-set instantiation \
                 cost ({server_cost_before} -> {server_cost_after})"
            ));
        }
    }
    println!(
        "loadgen: OK — {} scenario(s), 0 divergences, uniform@{max_clients} {:.0} QPS, \
         cache speedup {cache_speedup:.2}x",
        scenario_rows.len(),
        uniform_qps_at_max
    );
}
