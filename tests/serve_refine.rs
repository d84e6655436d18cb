//! Refinement-under-live-load e2e: pipelined TCP clients hammer a hot
//! set of dimension vectors while the refiner re-anneals the hot region
//! and hot-swaps the improvement mid-stream. Every answer must be
//! bit-identical to a direct compiled-index query against *some
//! published version* of the structure (the consistency model: each
//! request is answered entirely by one snapshot — old or new — never a
//! blend), zero requests may be dropped or errored, the registry
//! generation must be monotone across publishes, and the refined
//! artifact on disk must reload bit-identically after a "restart".
#![cfg(feature = "serde")]

use analog_mps::api::{ServerConfig, Workspace};
use analog_mps::mps::GeneratorConfig;
use analog_mps::netlist::benchmarks;
use analog_mps::serve::ServedStructure;
use analog_mps::Dims;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const CLIENTS: usize = 3;
const REQUESTS_PER_CLIENT: usize = 240;
const PIPELINE_DEPTH: usize = 4;
const MAX_REFINE_ATTEMPTS: usize = 12;

fn dims_json(dims: &Dims) -> String {
    let pairs: Vec<String> = dims.iter().map(|&(w, h)| format!("[{w},{h}]")).collect();
    format!("[{}]", pairs.join(","))
}

#[test]
fn refinement_under_live_load_never_diverges_and_survives_restart() {
    let dir = std::env::temp_dir().join(format!("mps_serve_refine_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ws = Workspace::open(&dir).unwrap();
    let circuit = benchmarks::circ01();
    // Deliberately under-annealed so the refiner has room to win.
    let config = GeneratorConfig::builder()
        .outer_iterations(10)
        .inner_iterations(10)
        .seed(0x0EF1)
        .build();
    ws.generate_or_load("circ01", &circuit, config).unwrap();

    let server = Arc::new(
        ws.serve_server(ServerConfig {
            workers: 3,
            cache_entries: 512,
            cache_shards: 4,
            ..ServerConfig::default()
        })
        .unwrap(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(listener));
    }

    // The hot set: every axis stays in its lowest tenth, so the heatmap
    // concentrates in one bin per axis — exactly the signal the refiner
    // keys on.
    let bounds = circuit.dim_bounds();
    let hot: Vec<Dims> = (0..16)
        .map(|k| {
            bounds
                .iter()
                .map(|b| {
                    let probe = |i: &analog_mps::geom::Interval| {
                        let tenth = (i.len() as i64 / 10).max(1);
                        i.lo() + (k * 5) % tenth
                    };
                    (probe(&b.w), probe(&b.h))
                })
                .collect()
        })
        .collect();

    // Every version the registry ever serves, captured around each
    // publish: answers are validated against this set after the fact, so
    // a response that raced a publish can match either side of the swap.
    let versions: Mutex<Vec<Arc<ServedStructure>>> =
        Mutex::new(vec![server.registry().get("circ01").unwrap()]);
    let accepted_publishes = AtomicU64::new(0);
    // (client, hot index, answered id) triples, validated after join.
    let answers: Mutex<Vec<(usize, usize, Option<u64>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // The refiner: waits for enough recorded traffic, then triggers
        // synchronous refine passes over the wire until one is accepted
        // (each pass re-seeds, so retries explore new walks).
        let (server_ref, versions_ref) = (&server, &versions);
        let accepted_ref = &accepted_publishes;
        scope.spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let _ = stream.set_nodelay(true);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let last_generation = server_ref.registry().generation();
            for _ in 0..MAX_REFINE_ATTEMPTS {
                writeln!(writer, r#"{{"kind":"refine"}}"#).unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let value: Value = serde_json::parse(line.trim_end()).unwrap();
                assert_eq!(
                    value.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "refine refused mid-stream: {line}"
                );
                match value.get("outcome").and_then(Value::as_str) {
                    Some("accepted") => {
                        // Generation is monotone across publishes.
                        let generation = server_ref.registry().generation();
                        assert!(
                            generation > last_generation,
                            "publish must bump the generation ({last_generation} -> {generation})"
                        );
                        versions_ref
                            .lock()
                            .unwrap()
                            .push(server_ref.registry().get("circ01").unwrap());
                        accepted_ref.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Some("rejected") | Some("no_candidate") => {
                        // Not enough traffic yet, or an unlucky seed —
                        // give the clients time to feed the heatmap.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                    }
                    other => panic!("unexpected refine outcome {other:?}: {line}"),
                }
            }
        });

        for client in 0..CLIENTS {
            let (hot, answers) = (&hot, &answers);
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let _ = stream.set_nodelay(true);
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut sent: Vec<usize> = Vec::new(); // req id -> hot index
                let mut outstanding = 0usize;
                let mut answered = 0usize;

                let mut read_one = |sent: &Vec<usize>| {
                    let mut line = String::new();
                    assert!(
                        reader.read_line(&mut line).unwrap() > 0,
                        "client {client}: dropped mid-stream"
                    );
                    let value: Value =
                        serde_json::parse(line.trim_end()).expect("response is JSON");
                    assert_eq!(
                        value.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "client {client} refused: {line}"
                    );
                    let req = value.get("req").and_then(Value::as_u64).expect("tagged") as usize;
                    answers.lock().unwrap().push((
                        client,
                        sent[req],
                        value.get("id").and_then(Value::as_u64),
                    ));
                };

                for n in 0..REQUESTS_PER_CLIENT {
                    let id = sent.len();
                    let hot_index = (client * 11 + n * 3) % hot.len();
                    sent.push(hot_index);
                    writeln!(
                        writer,
                        r#"{{"id":{id},"kind":"query","structure":"circ01","dims":{}}}"#,
                        dims_json(&hot[hot_index])
                    )
                    .unwrap();
                    outstanding += 1;
                    if outstanding == PIPELINE_DEPTH {
                        read_one(&sent);
                        outstanding -= 1;
                        answered += 1;
                    }
                    // Pace the stream a little so publishes land while
                    // requests are genuinely in flight.
                    if n % 32 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                while outstanding > 0 {
                    read_one(&sent);
                    outstanding -= 1;
                    answered += 1;
                }
                assert_eq!(
                    answered, REQUESTS_PER_CLIENT,
                    "client {client} dropped requests"
                );
            });
        }
        // If every client finishes before the refiner lands an accepted
        // pass, it keeps trying against the (now complete) heat signal;
        // the scope joins it for us.
    });

    assert!(
        accepted_publishes.load(Ordering::Relaxed) >= 1,
        "at least one refinement pass must be accepted under hot traffic"
    );

    // Zero divergence: every answer matches some published version's
    // compiled index (and the versions themselves are self-consistent).
    let versions = versions.into_inner().unwrap();
    for served in &versions {
        served.structure().check_invariants().unwrap();
    }
    let answers = answers.into_inner().unwrap();
    assert_eq!(answers.len(), CLIENTS * REQUESTS_PER_CLIENT);
    for (client, hot_index, got) in &answers {
        let dims = &hot[*hot_index];
        let matches = versions
            .iter()
            .any(|served| served.index().query(dims).map(|id| u64::from(id.0)) == *got);
        assert!(
            matches,
            "client {client} hot[{hot_index}] answered {got:?}, which no published \
             version of the structure would produce"
        );
    }

    // Restart: the refined artifact reloads from disk bit-identically —
    // ServedStructure::open re-runs the full validation funnel.
    let live = server.registry().get("circ01").unwrap();
    let reloaded = ServedStructure::open("circ01", ws.artifact_path("circ01")).unwrap();
    assert_eq!(
        reloaded.structure().to_json(),
        live.structure().to_json(),
        "the persisted artifact must be the exact structure being served"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
