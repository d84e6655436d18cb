//! End-to-end serve smoke: start the real `mps-serve` binary over a
//! directory of `--save`d artifacts, pipe a query stream through its
//! stdin/stdout, and diff every answer against direct
//! `MultiPlacementStructure::query` calls on the same artifacts. The
//! stream ends with tagged traffic — `instantiate` lines per structure
//! and one batch of 300 vectors, which the TCP shards would hand to the
//! worker pool as one job — whose `req` echoes must come back in request order
//! (stdin answers everything inline) and whose answers must equal
//! `instantiate_or_fallback` and `query`. Exits non-zero on the first divergence — this is the CI gate
//! proving the whole serving pipeline (persist → load → compile →
//! protocol) answers exactly like the in-process structure.
//!
//! ```sh
//! cargo run --release -p mps-bench --bin serve_smoke -- out/structures \
//!     [--server target/release/mps-serve] [--queries N]
//! ```

use mps_bench::cli::arg_value;
use mps_bench::random_dims;
use mps_core::MultiPlacementStructure;
use mps_geom::Dims;
use mps_netlist::benchmarks;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Tagged `instantiate` lines sent per structure.
const TAGGED_INSTANTIATES: usize = 5;

/// Vectors in the one tagged batch: past the server's 256-vector
/// heavy threshold.
const TAGGED_BATCH: usize = 300;

fn fail(msg: &str) -> ! {
    eprintln!("serve_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// One dimension vector as its wire JSON array of `[w,h]` pairs.
fn dims_json(dims: &Dims) -> String {
    let pairs: Vec<String> = dims.iter().map(|&(w, h)| format!("[{w},{h}]")).collect();
    format!("[{}]", pairs.join(","))
}

fn main() {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            eprintln!("usage: serve_smoke <ARTIFACT_DIR> [--server PATH] [--queries N]");
            std::process::exit(2);
        });
    let server_bin: PathBuf =
        arg_value("server").unwrap_or_else(|| PathBuf::from("target/release/mps-serve"));
    let queries: usize = arg_value("queries").unwrap_or(300);

    // Load every artifact directly — the reference answers.
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
        "serve_smoke: {} artifact(s): {}",
        structures.len(),
        structures
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // The query streams, one per structure, from the circuit's bounds
    // when the benchmark is known (else from the structure's own bounds).
    let mut streams: Vec<Vec<Dims>> = Vec::new();
    for (name, mps) in &structures {
        let mut rng = StdRng::seed_from_u64(0x500C ^ name.len() as u64);
        let stream: Vec<Dims> = match benchmarks::by_name(name) {
            Some(bm) => (0..queries)
                .map(|_| random_dims(&bm.circuit, &mut rng))
                .collect(),
            None => {
                let bounds = mps.bounds().to_vec();
                use rand::Rng;
                (0..queries)
                    .map(|_| {
                        bounds
                            .iter()
                            .map(|b| {
                                (
                                    rng.random_range(b.w.lo()..=b.w.hi()),
                                    rng.random_range(b.h.lo()..=b.h.hi()),
                                )
                            })
                            .collect()
                    })
                    .collect()
            }
        };
        streams.push(stream);
    }

    // The tagged tail: in-bounds instantiates per structure (tagged ids
    // 1, 2, ...), then one batch over the first structure's stream.
    let instantiates: Vec<(usize, Dims)> = structures
        .iter()
        .zip(&streams)
        .enumerate()
        .flat_map(|(s, ((_, mps), stream))| {
            stream
                .iter()
                .filter(|dims| dims.within_bounds(mps.bounds()))
                .take(TAGGED_INSTANTIATES)
                .map(move |dims| (s, dims.clone()))
        })
        .collect();
    let tagged_batch: Vec<Dims> = streams[0]
        .iter()
        .cycle()
        .take(TAGGED_BATCH)
        .cloned()
        .collect();
    let batch_id = instantiates.len() as u64 + 1;

    // Start the server and pipe the whole stream through it.
    let mut child = Command::new(&server_bin)
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("cannot start {}: {e}", server_bin.display())));
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));

    let request_streams = streams.clone();
    let request_names: Vec<String> = structures.iter().map(|(n, _)| n.clone()).collect();
    let request_instantiates = instantiates.clone();
    let request_batch = tagged_batch.clone();
    let writer = std::thread::spawn(move || {
        writeln!(stdin, "{{\"kind\":\"list_structures\"}}").expect("server accepts requests");
        for (name, stream) in request_names.iter().zip(&request_streams) {
            for dims in stream {
                writeln!(
                    stdin,
                    "{{\"kind\":\"query\",\"structure\":\"{name}\",\"dims\":{}}}",
                    dims_json(dims)
                )
                .expect("server accepts requests");
            }
            // The same stream again as one batch request.
            let vectors: Vec<String> = stream.iter().map(dims_json).collect();
            writeln!(
                stdin,
                "{{\"kind\":\"batch_query\",\"structure\":\"{name}\",\"dims_list\":[{}]}}",
                vectors.join(",")
            )
            .expect("server accepts requests");
        }
        writeln!(stdin, "{{\"kind\":\"metrics\"}}").expect("server accepts requests");
        // Tagged traffic last: the first tagged line makes the stream
        // tagged for good.
        for (k, (s, dims)) in request_instantiates.iter().enumerate() {
            writeln!(
                stdin,
                "{{\"id\":{},\"kind\":\"instantiate\",\"structure\":\"{}\",\"dims\":{}}}",
                k + 1,
                request_names[*s],
                dims_json(dims)
            )
            .expect("server accepts requests");
        }
        let vectors: Vec<String> = request_batch.iter().map(dims_json).collect();
        writeln!(
            stdin,
            "{{\"id\":{batch_id},\"kind\":\"batch_query\",\"structure\":\"{}\",\"dims_list\":[{}]}}",
            request_names[0],
            vectors.join(",")
        )
        .expect("server accepts requests");
        // dropping stdin ends the session
    });

    let mut lines = stdout.lines().map(|l| l.expect("server stays alive"));
    let mut next = |context: &str| -> Value {
        let line = lines
            .next()
            .unwrap_or_else(|| fail(&format!("server closed before answering {context}")));
        let value = serde_json::parse(&line)
            .unwrap_or_else(|e| fail(&format!("unparsable response for {context}: {e}: {line}")));
        if value.get("ok").and_then(Value::as_bool) != Some(true) {
            fail(&format!("refusal for {context}: {line}"));
        }
        value
    };

    // list_structures must name every artifact.
    let listed = next("list_structures");
    let listed: Vec<&str> = listed
        .get("names")
        .and_then(Value::as_array)
        .map(|names| names.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default();
    for (name, _) in &structures {
        if !listed.contains(&name.as_str()) {
            fail(&format!(
                "structure `{name}` missing from list_structures: {listed:?}"
            ));
        }
    }

    // Diff the full stream: every wire answer equals the direct query.
    let mut diffed = 0usize;
    let mut covered = 0usize;
    for ((name, mps), stream) in structures.iter().zip(&streams) {
        for (k, dims) in stream.iter().enumerate() {
            let response = next(&format!("query {k} on {name}"));
            let got = response.get("id").and_then(Value::as_u64);
            let expected = mps.query(dims).map(|id| u64::from(id.0));
            if got != expected {
                fail(&format!(
                    "{name} probe {k} ({dims:?}): server answered {got:?}, direct query {expected:?}"
                ));
            }
            diffed += 1;
            covered += usize::from(expected.is_some());
        }
        let batch = next(&format!("batch_query on {name}"));
        let ids = batch
            .get("ids")
            .and_then(Value::as_array)
            .unwrap_or_else(|| fail(&format!("batch response without ids on {name}")));
        let expected = mps.query_batch(stream);
        if ids.len() != expected.len() {
            fail(&format!(
                "{name} batch arity: {} answers for {} vectors",
                ids.len(),
                expected.len()
            ));
        }
        for (k, (got, want)) in ids.iter().zip(&expected).enumerate() {
            if got.as_u64() != want.map(|id| u64::from(id.0)) {
                fail(&format!("{name} batch element {k} diverges"));
            }
            diffed += 1;
        }
    }
    let metrics = next("metrics");
    let served_queries = metrics
        .get("counters")
        .and_then(|c| c.get("queries"))
        .and_then(Value::as_u64)
        .unwrap_or(0);

    // The tagged tail comes back in request order, each reply echoing
    // its id as `req`.
    let expect_req = |response: &Value, req: u64, context: &str| {
        let got = response.get("req").and_then(Value::as_u64);
        if got != Some(req) {
            fail(&format!("{context}: expected req {req}, got {got:?}"));
        }
    };
    for (k, (s, dims)) in instantiates.iter().enumerate() {
        let (name, mps) = &structures[*s];
        let context = format!("tagged instantiate {} on {name}", k + 1);
        let response = next(&context);
        expect_req(&response, k as u64 + 1, &context);
        let id = response.get("id").and_then(Value::as_u64);
        let expected_id = mps.query(dims).map(|id| u64::from(id.0));
        let coords: Option<Vec<(i64, i64)>> = response
            .get("coords")
            .and_then(Value::as_array)
            .and_then(|coords| {
                coords
                    .iter()
                    .map(|p| match p.as_array()?.as_slice() {
                        [x, y] => Some((x.as_i64()?, y.as_i64()?)),
                        _ => None,
                    })
                    .collect()
            });
        let expected: Vec<(i64, i64)> = mps
            .instantiate_or_fallback(dims)
            .coords()
            .iter()
            .map(|p| (p.x, p.y))
            .collect();
        if id != expected_id || coords.as_ref() != Some(&expected) {
            fail(&format!(
                "{context} ({dims:?}): server answered id {id:?} coords {coords:?}, \
                 direct instantiate_or_fallback id {expected_id:?} coords {expected:?}"
            ));
        }
        diffed += 1;
    }
    let context = format!("tagged batch of {TAGGED_BATCH}");
    let batch = next(&context);
    expect_req(&batch, batch_id, &context);
    let ids = batch
        .get("ids")
        .and_then(Value::as_array)
        .unwrap_or_else(|| fail(&format!("{context}: no ids")));
    let expected = structures[0].1.query_batch(&tagged_batch);
    if ids.len() != expected.len()
        || ids
            .iter()
            .zip(&expected)
            .any(|(got, want)| got.as_u64() != want.map(|id| u64::from(id.0)))
    {
        fail(&format!("{context} diverges from query_batch"));
    }
    diffed += ids.len();

    writer.join().expect("writer thread");
    let status = child.wait().expect("server exit status");
    if !status.success() {
        fail(&format!("server exited with {status}"));
    }
    let untagged = diffed - instantiates.len() - TAGGED_BATCH;
    if served_queries != untagged as u64 {
        fail(&format!(
            "metrics counted {served_queries} queries, the smoke diffed {untagged} before it"
        ));
    }
    println!(
        "serve_smoke: OK — {} structure(s), {diffed} answers diffed against direct query \
         ({covered} in covered space), 0 mismatches",
        structures.len()
    );
}
