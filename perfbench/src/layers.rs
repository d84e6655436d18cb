//! The traced run's per-layer metrics, measured from outside: each
//! layer's public functions are called directly on the seed's inputs
//! and timed here, and the server's own `metrics` stage means and its
//! `/proc` counters are read beside them. No span is added inside the
//! program.

use crate::inputs::{self, Generated};
use crate::report::{median, Metrics, Tally};
use crate::serve::ServerProc;
use crate::{instantiate_stream, paired, sweep_lines, Ctx, InstantiateStream, SweepLines};
use mps_core::{parallel, Bdio, MultiPlacementStructure};
use mps_netlist::Circuit;
use mps_placer::{expand_placement, CostCalculator};
use mps_serve::{
    frame, parse_envelope, AnswerCache, CacheClass, CacheLookup, IndexPlan, QueryScratch,
    ServedStructure, Server, ServerConfig, StructureRegistry, WorkerPool,
};
use serde_json::Value;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server stages whose means the `metrics` request reports.
const STAGES: [&str; 8] = [
    "recv", "parse", "dispatch", "index", "cache", "pool", "render", "write",
];

/// Walk steps replayed in process and sent in the reconciliation
/// window, and empty pool jobs timed.
const REPLAY_STEPS: usize = 20_000;
const HANDOFFS: usize = 5_000;

/// Stored entries per structure replayed through BDIO and expansion.
const ENTRY_SAMPLE: usize = 8;

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Calls `f` once per item and returns the mean time per call in ns.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    for item in items {
        f(item);
    }
    ns(started.elapsed()) / items.len().max(1) as f64
}

/// Median of three timings of `f`, in ms.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            f();
            ns(started.elapsed()) / 1e6
        })
        .collect();
    median(&times)
}

/// Runs every layer measurement; the tally counts the answers checked
/// on the way, and that generation does not depend on the thread count.
pub fn battery(ctx: &Ctx) -> (Metrics, Tally) {
    let mut m = Metrics::default();
    let dirs = ctx.artifacts();
    let structures = dirs.load_or_generate(ctx.seed, ctx.sizes.effort);
    let circuits = inputs::circuits();
    let pairs = paired(&circuits, &structures);
    let names: Vec<&str> = structures.iter().map(|(n, _)| n.as_str()).collect();
    let steps = REPLAY_STEPS.min(ctx.sizes.walk_steps_per_sec * 2);
    let walk = instantiate_stream(&names, &pairs, steps, ctx.seed);

    // Set-up side: what a server does before it announces `listening`.
    m.put(
        "registry.open_ms",
        median_ms(|| {
            black_box(StructureRegistry::open(&dirs.bench9).expect("open artifacts"));
        }),
        "ms",
    );
    m.put(
        "persist.load_ms",
        median_ms(|| {
            for name in &names {
                let path = dirs.bench9.join(format!("{name}.json"));
                black_box(MultiPlacementStructure::load_auto(&path).expect("load artifact"));
            }
        }),
        "ms",
    );
    let mut build_ms = Vec::new();
    for _ in 0..3 {
        let copies = structures.clone();
        let started = Instant::now();
        for (name, mps) in copies {
            black_box(ServedStructure::try_from_structure(name, mps).expect("index verifies"));
        }
        build_ms.push(ns(started.elapsed()) / 1e6);
    }
    m.put("index.build_verify_ms", median(&build_ms), "ms");

    let handle_us = walk_layers(&mut m, &dirs.bench9, &names, &walk, &pairs);
    sweep_layers(&mut m, ctx, &dirs.with_grid, &names, &pairs);
    let mut tally = reconcile(&mut m, ctx, &dirs.bench9, &walk, handle_us);
    tally.add(neighbour(&mut m, ctx));
    tally.add(generation_layers(&mut m, ctx));
    (m, tally)
}

/// Replays the walk stream through each serving layer in process and
/// returns the mean `Server::handle_line` time in µs.
fn walk_layers(
    m: &mut Metrics,
    dir: &Path,
    names: &[&str],
    walk: &InstantiateStream,
    pairs: &[(&Circuit, &MultiPlacementStructure)],
) -> f64 {
    let lines: Vec<String> = walk
        .stream
        .steps
        .iter()
        .map(|st| walk.lines.untagged(st.dims))
        .collect();
    let registry = Arc::new(StructureRegistry::open(dir).expect("open artifacts"));
    // A fresh server with the binary's defaults replays the stream, so
    // its answer cache sees the walk's revisits exactly as served.
    let server = Server::with_config(Arc::clone(&registry), ServerConfig::default());
    let handle_ns = mean_ns(&lines, |line| {
        black_box(server.handle_line(line));
    });
    let stats = server.cache().stats();
    m.put(
        "cache.hit_share",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
    let parse_ns = mean_ns(&lines, |line| {
        black_box(parse_envelope(line).ok());
    });
    m.put("protocol.parse_us", parse_ns / 1e3, "us");

    let steps = &walk.stream.steps;
    let vectors = &walk.stream.vectors;
    let get_ns = mean_ns(steps, |st| {
        black_box(registry.get(names[st.structure]));
    });
    m.put("registry.get_ns", get_ns, "ns");

    let cache = AnswerCache::new(4096, 8);
    let mut lookup_total = Duration::ZERO;
    for st in steps {
        let dims = &vectors[st.dims];
        let started = Instant::now();
        let looked_up = cache.lookup(CacheClass::Instantiate, names[st.structure], dims);
        lookup_total += started.elapsed();
        if let CacheLookup::Miss(token) = looked_up {
            cache.insert(
                token,
                CacheClass::Instantiate,
                names[st.structure],
                dims,
                "{}",
            );
        }
    }
    let lookup_ns = ns(lookup_total) / steps.len().max(1) as f64;
    m.put("cache.lookup_ns", lookup_ns, "ns");

    let (mut covered, mut fallback) = (Vec::new(), Vec::new());
    for st in steps {
        let mps = pairs[st.structure].1;
        let dims = &vectors[st.dims];
        let started = Instant::now();
        black_box(mps.instantiate_or_fallback(dims));
        let took = ns(started.elapsed());
        if mps.query(dims).is_some() {
            covered.push(took);
        } else {
            fallback.push(took);
        }
    }
    let all_ns =
        (covered.iter().sum::<f64>() + fallback.iter().sum::<f64>()) / steps.len().max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.put("structure.covered_ns", mean(&covered), "ns");
    m.put("structure.fallback_ns", mean(&fallback), "ns");
    m.put(
        "structure.fallback_share",
        fallback.len() as f64 / steps.len().max(1) as f64,
        "ratio",
    );
    // What `handle_line` spends beyond the layers timed above: rendering
    // the reply, plus the bounds checks and counters around them.
    let render_ns = handle_ns - parse_ns - get_ns - lookup_ns - all_ns;
    m.put("protocol.render_us", render_ns / 1e3, "us");
    m.put("server.handle_us", handle_ns / 1e3, "us");
    handle_ns / 1e3
}

/// Replays the sweep's batches through parse, the compiled indexes, the
/// worker pool and the frame encoder.
fn sweep_layers(
    m: &mut Metrics,
    ctx: &Ctx,
    dir: &Path,
    names: &[&str],
    pairs: &[(&Circuit, &MultiPlacementStructure)],
) {
    let (grid_circuit, grid) = inputs::grid10x();
    let mut names = names.to_vec();
    names.push(inputs::GRID_NAME);
    let mut all = pairs.to_vec();
    all.push((&grid_circuit, &grid));
    let SweepLines { lines, batches, .. } = sweep_lines(&names, &all, ctx.sizes, ctx.seed);
    let vectors: usize = batches.iter().map(|(_, b)| b.len()).sum();

    let texts: Vec<String> = (0..lines.len()).map(|i| lines.untagged(i)).collect();
    let parse_ns = mean_ns(&texts, |line| {
        black_box(parse_envelope(line).ok());
    }) * texts.len() as f64
        / vectors.max(1) as f64;
    m.put("protocol.parse_ns_per_vector", parse_ns, "ns");

    let registry = StructureRegistry::open(dir).expect("open artifacts");
    let served: Vec<Arc<ServedStructure>> = names
        .iter()
        .map(|n| registry.get(n).expect("every structure is served"))
        .collect();
    let mut scratch = QueryScratch::new();
    let (mut bench9, mut grid10x) = ((Duration::ZERO, 0usize), (Duration::ZERO, 0usize));
    let mut v2_vectors = 0usize;
    let mut answers = Vec::with_capacity(batches.len());
    for (s, batch) in &batches {
        let index = served[*s].index();
        let started = Instant::now();
        let ids: Vec<_> = batch
            .iter()
            .map(|d| index.query_with_scratch(d, &mut scratch))
            .collect();
        let took = started.elapsed();
        let slot = if names[*s] == inputs::GRID_NAME {
            &mut grid10x
        } else {
            &mut bench9
        };
        slot.0 += took;
        slot.1 += batch.len();
        if index.plan() == IndexPlan::V2 {
            v2_vectors += batch.len();
        }
        answers.push(ids);
    }
    m.put(
        "index.query_ns.bench9",
        ns(bench9.0) / bench9.1.max(1) as f64,
        "ns",
    );
    m.put(
        "index.query_ns.grid10x",
        ns(grid10x.0) / grid10x.1.max(1) as f64,
        "ns",
    );
    m.put(
        "index.v2_share",
        v2_vectors as f64 / vectors.max(1) as f64,
        "ratio",
    );

    let encode_ns = mean_ns(&answers, |ids| {
        black_box(frame::encode_batch_ids(Some(7), ids));
    }) * answers.len() as f64
        / vectors.max(1) as f64;
    m.put("frame.encode_ns_per_vector", encode_ns, "ns");

    let pool = WorkerPool::new(ServerConfig::default().workers);
    let handoffs: Vec<()> = vec![(); HANDOFFS];
    let handoff_ns = mean_ns(&handoffs, |()| {
        pool.run(|| ()).expect("empty job");
    });
    m.put("pool.handoff_us", handoff_ns / 1e3, "us");
    let started = Instant::now();
    for (s, batch) in &batches {
        let served = Arc::clone(&served[*s]);
        black_box(
            pool.map_in_order(batch.clone(), move |d| served.index().query(&d))
                .expect("pool jobs do not panic"),
        );
    }
    m.put(
        "pool.map_ns_per_vector",
        ns(started.elapsed()) / vectors.max(1) as f64,
        "ns",
    );
}

/// A short walk window against the real server, set beside the
/// in-process layer times: the server's own stage means, its context
/// switches per request, and the client round trip no layer accounts
/// for.
fn reconcile(
    m: &mut Metrics,
    ctx: &Ctx,
    dir: &Path,
    walk: &InstantiateStream,
    handle_us: f64,
) -> Tally {
    let (server, _) = ServerProc::spawn(&ctx.server, dir, &[]);
    let before = server.sample();
    let window = ctx.window.min(Duration::from_secs(3));
    let run = crate::serve::run_walk(&server.addr, &walk.lines, &walk.stream.steps, window, true);
    let after = server.sample();
    let metrics = server.metrics();
    drop(server);
    let n = run.rtt_ns.len().max(1) as f64;
    let rtt_us = run.rtt_ns.iter().sum::<u64>() as f64 / n / 1e3;
    m.put("wire.rtt_mean_us", rtt_us, "us");
    let rtt = crate::report::sub_windows(
        run.done_ns
            .iter()
            .zip(&run.rtt_ns)
            .map(|(&at, &ns)| (at, ns as f64)),
        crate::WALK_SUB_WINDOW,
        run.wall,
    );
    m.put(
        "wire.rtt_p99_us",
        crate::report::windowed_quantile(&rtt, 0.99) / 1e3,
        "us",
    );
    m.put("wire.unaccounted_us", rtt_us - handle_us, "us");
    m.put(
        "shard.ctx_switches_per_req",
        after.ctx_switches.saturating_sub(before.ctx_switches) as f64 / n,
        "count",
    );
    for stage in STAGES {
        let hist = metrics.get("stages").and_then(|s| s.get(stage));
        let field = |k: &str| {
            hist.and_then(|h| h.get(k))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let mean_ns = field("sum_ns") / field("count").max(1.0);
        m.put(&format!("server.stage.{stage}.mean_ns"), mean_ns, "ns");
    }
    crate::serve::verify_walk(&run.replies, &walk.want, &walk.stream.steps).0
}

/// The sweep's paced neighbour over a short window: its latency from
/// due time under the batch load, and the share answered within 1 ms.
fn neighbour(m: &mut Metrics, ctx: &Ctx) -> Tally {
    let short = Ctx {
        window: ctx.window.min(Duration::from_secs(3)),
        ..ctx.clone()
    };
    let outcome = crate::sweep(&short, false);
    for name in [
        "neighbour.latency_p50_us",
        "neighbour.latency_p99_us",
        "neighbour.slo_share",
    ] {
        let unit = if name.ends_with("_us") { "us" } else { "ratio" };
        m.put(name, outcome.detail.get(name).unwrap_or(f64::NAN), unit);
    }
    outcome.tally
}

/// Generation from outside: the explorer counters of the report, timed
/// replays of BDIO, cost evaluation and expansion on stored entries,
/// and generation at one and two threads and per single start.
fn generation_layers(m: &mut Metrics, ctx: &Ctx) -> Tally {
    let (seed, effort) = (ctx.seed, ctx.sizes.effort);
    let timed = |starts, threads| {
        let started = Instant::now();
        let generated = inputs::generate_all(seed, effort, starts, threads);
        (started.elapsed().as_secs_f64(), generated)
    };
    let (two_threads_s, generated) = timed(inputs::STARTS, inputs::THREADS);
    let (one_thread_s, serial) = timed(inputs::STARTS, 1);
    let mut tally = Tally::default();
    for (a, b) in generated.iter().zip(&serial) {
        tally.attempted += 1;
        if a.structure.to_json() != b.structure.to_json() {
            tally.failed += 1;
            eprintln!("perfbench: {} differs between one and two threads", a.name);
        }
    }
    let circuits = inputs::circuits();
    let mut single_starts_s = 0.0;
    for (i, c) in circuits.iter().enumerate() {
        let master = inputs::config(&c.circuit, effort, seed, i, 1, 1);
        for start in 0..inputs::STARTS {
            let mut config = master.clone();
            config.seed = parallel::start_seed(master.seed, start);
            let started = Instant::now();
            black_box(
                mps_core::MpsGenerator::new(&c.circuit, config)
                    .generate()
                    .expect("benchmark circuits are valid"),
            );
            single_starts_s += started.elapsed().as_secs_f64();
        }
    }

    let sum = |f: &dyn Fn(&Generated) -> usize| generated.iter().map(f).sum::<usize>() as f64;
    let proposals = sum(&|g| g.report.explorer.proposals);
    let rejected = sum(&|g| g.report.explorer.rejected_illegal);
    let boxes = sum(&|g| g.report.explorer.boxes_stored);
    m.put("explorer.proposals", proposals, "count");
    m.put(
        "explorer.accepted",
        sum(&|g| g.report.explorer.accepted),
        "count",
    );
    m.put("explorer.rejected_illegal", rejected, "count");
    m.put("explorer.boxes_stored", boxes, "count");
    m.put(
        "explorer.stored_annihilated",
        sum(&|g| g.report.explorer.stored_annihilated),
        "count",
    );
    m.put(
        "explorer.live_share",
        sum(&|g| g.report.placements) / boxes.max(1.0),
        "ratio",
    );

    let (mut bdio_ns, mut cost_ns, mut expand_ns) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (c, g)) in circuits.iter().zip(&generated).enumerate() {
        let config = inputs::config(&c.circuit, effort, seed, i, 1, 1);
        let floorplan = g.structure.floorplan();
        let calc = CostCalculator::new(&c.circuit)
            .with_weights(config.weights)
            .with_floorplan(floorplan);
        let bdio = Bdio::new(&calc, config.bdio);
        for (_, entry) in g.structure.iter().take(ENTRY_SAMPLE) {
            let started = Instant::now();
            black_box(bdio.optimize(&entry.placement, &entry.dims_box, seed));
            bdio_ns.push(ns(started.elapsed()));
            let started = Instant::now();
            black_box(
                expand_placement(&c.circuit, &entry.placement, &floorplan, &config.expansion).ok(),
            );
            expand_ns.push(ns(started.elapsed()));
        }
        let entries: Vec<_> = g.structure.iter().map(|(_, e)| e).collect();
        cost_ns.push(mean_ns(&entries, |e| {
            black_box(calc.cost(&e.placement, &e.best_dims));
        }));
    }
    let bdio_us = crate::report::mean(&bdio_ns) / 1e3;
    let expand_us = crate::report::mean(&expand_ns) / 1e3;
    m.put("bdio.optimize_us", bdio_us, "us");
    m.put("cost.eval_ns", crate::report::mean(&cost_ns), "ns");
    m.put("expansion.expand_us", expand_us, "us");

    let merge_s = one_thread_s - single_starts_s;
    m.put(
        "parallel.thread_speedup",
        one_thread_s / two_threads_s,
        "ratio",
    );
    m.put("parallel.merge_s", merge_s, "s");
    // Every proposal is expanded once and every legal one again after
    // compaction, then optimized by BDIO once: the time those replays
    // predict, against the single-thread run they come from.
    let legal = proposals - rejected;
    let accounted_s = (bdio_us * legal + expand_us * (proposals + legal)) / 1e6 + merge_s;
    m.put("generator.gen_s", two_threads_s, "s");
    m.put("generator.unaccounted_s", one_thread_s - accounted_s, "s");

    let pairs: Vec<(&Circuit, &MultiPlacementStructure)> = circuits
        .iter()
        .zip(&generated)
        .map(|(c, g)| (&c.circuit, &g.structure))
        .collect();
    let quality = inputs::quality(&pairs, seed);
    m.put("quality.covered_share", quality.covered_share, "ratio");
    tally
}
