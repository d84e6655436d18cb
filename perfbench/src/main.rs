//! The repository benchmark. Runs one workload against the real
//! `mps-serve` binary or the public generation API, checks every
//! answer, and prints one JSON result line last on stdout.
//!
//! ```text
//! perfbench --workload walk|sweep|generate --seed N --seconds S --trace 0|1
//!           --server PATH/TO/mps-serve --work DIR [--smoke]
//! ```
//!
//! `run.py` builds both binaries and supplies `--server` and `--work`.
//! See README.md for the workloads, the metrics and the layer map.

mod inputs;
mod layers;
mod report;
mod serve;
mod sys;

use inputs::{ArtifactDirs, Generated};
use mps_core::MultiPlacementStructure;
use mps_geom::Dims;
use mps_netlist::Circuit;
use report::{median, Metrics, Tally};
use serve::{Lines, ServerProc};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Sizes of one run; `--smoke` shrinks them so the package's own test
/// finishes in seconds.
#[derive(Clone, Copy)]
pub struct Sizes {
    /// Generation budget multiplier (`scaled_config` effort).
    pub effort: f64,
    /// Server spawns whose set-up times give the `setup_s` median.
    pub spawns: usize,
    /// Walk steps rendered per second of window (an upper bound on the
    /// closed loop's rate; the window ends early if they run out).
    pub walk_steps_per_sec: usize,
    /// Distinct batch lines the sweep cycles through.
    pub sweep_batches: usize,
    /// Vectors per batch.
    pub batch_size: usize,
    /// The sweep neighbour's request rate.
    pub neighbour_rate: f64,
}

const FULL: Sizes = Sizes {
    effort: 1.0,
    spawns: 7,
    walk_steps_per_sec: 20_000,
    sweep_batches: 80,
    batch_size: 512,
    neighbour_rate: 1000.0,
};

const SMOKE: Sizes = Sizes {
    effort: 0.05,
    spawns: 2,
    walk_steps_per_sec: 2_000,
    sweep_batches: 10,
    batch_size: 64,
    neighbour_rate: 200.0,
};

#[derive(Clone)]
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub server: PathBuf,
    pub work: PathBuf,
    pub sizes: Sizes,
}

impl Ctx {
    fn artifacts(&self) -> ArtifactDirs {
        ArtifactDirs::new(&self.work, self.seed, self.sizes.effort)
    }
}

fn parse_args() -> Result<(String, Ctx, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut work = None;
    let mut sizes = FULL;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value()? == "1"),
            "--server" => server = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--smoke" => sizes = SMOKE,
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["walk", "sweep", "generate"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        window: Duration::try_from_secs_f64(seconds.ok_or("--seconds is required")?)
            .map_err(|e| format!("--seconds: {e}"))?,
        server: server.ok_or("--server is required")?,
        work: work.ok_or("--work is required")?,
        sizes,
    };
    Ok((workload, ctx, trace.unwrap_or(false)))
}

/// The figure the tracing overhead compares.
fn throughput(outcome: &Outcome) -> f64 {
    outcome.metrics.get("throughput_per_s").unwrap_or(f64::NAN)
}

/// What one workload window produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// Spans recorded in a traced window, one line each.
    pub spans: Vec<String>,
    /// Figures behind the metrics, printed to stderr only.
    pub detail: Metrics,
}

fn main() -> ExitCode {
    let (workload, ctx, trace) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(&ctx.work).expect("create work directory");
    let run = |traced: bool| match workload.as_str() {
        "walk" => walk(&ctx, traced),
        "sweep" => sweep(&ctx, traced),
        _ => generate(&ctx, traced),
    };
    let (metrics, tally) = if trace {
        // The traced run: the workload once with the benchmark's spans
        // off and once with them on (their throughput ratio is the
        // tracing overhead), then the outside-in layer replays.
        let plain = run(false);
        let traced = run(true);
        let path = ctx
            .work
            .join(format!("trace-{workload}-seed{}.tsv", ctx.seed));
        std::fs::write(&path, traced.spans.join("\n")).expect("write spans");
        eprintln!("perfbench: spans written to {}", path.display());
        traced
            .metrics
            .print_table("traced window (end-to-end, spans on)");
        traced.detail.print_table("traced window detail");
        let (mut metrics, mut tally) = layers::battery(&ctx);
        metrics.put(
            "trace.slowdown",
            throughput(&plain) / throughput(&traced),
            "ratio",
        );
        tally.add(plain.tally);
        tally.add(traced.tally);
        (metrics, tally)
    } else {
        let outcome = run(false);
        outcome.detail.print_table("detail");
        (outcome.metrics, outcome.tally)
    };
    metrics.print_table(&format!("{workload} seed {}", ctx.seed));
    let finite = metrics.all_finite();
    let correct = tally.failed == 0 && finite;
    eprintln!(
        "perfbench: {} attempted, {} failed (failed_share {:.6})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    println!(
        "{}",
        metrics.result_line(correct, tally.attempted.max(1), tally.failed)
    );
    ExitCode::SUCCESS
}

/// The nine generated structures paired with their circuits.
fn paired<'a>(
    circuits: &'a [inputs::NamedCircuit],
    structures: &'a [(String, MultiPlacementStructure)],
) -> Vec<(&'a Circuit, &'a MultiPlacementStructure)> {
    circuits
        .iter()
        .zip(structures)
        .map(|(c, (_, mps))| (&c.circuit, mps))
        .collect()
}

/// A rendered `instantiate` stream: per distinct vector its request
/// line and the fingerprint of its reference answer, and the steps that
/// order them.
pub struct InstantiateStream {
    pub lines: Lines,
    pub want: Vec<u64>,
    pub stream: inputs::Stream,
}

/// Renders a `walk`-shaped stream of `len` steps over `structures`.
pub fn instantiate_stream(
    names: &[&str],
    structures: &[(&Circuit, &MultiPlacementStructure)],
    len: usize,
    seed: u64,
) -> InstantiateStream {
    let circuits: Vec<&Circuit> = structures.iter().map(|(c, _)| *c).collect();
    let stream = inputs::walk_stream(&circuits, len, seed);
    let mut owner = vec![0; stream.vectors.len()];
    for step in &stream.steps {
        owner[step.dims] = step.structure;
    }
    let mut lines = Lines::default();
    let mut want = Vec::with_capacity(stream.vectors.len());
    for (dims, &s) in stream.vectors.iter().zip(&owner) {
        lines.push(&format!(
            "\"kind\":\"instantiate\",\"structure\":\"{}\",\"dims\":{}}}",
            names[s],
            inputs::dims_json(dims)
        ));
        let answer = inputs::reference_instantiate(structures[s].1, dims);
        want.push(serve::reference_hash(&answer));
    }
    InstantiateStream {
        lines,
        want,
        stream,
    }
}

/// Latency sub-window width: short enough that a burst of outside
/// interference spoils few of them, long enough that each holds more
/// than ten samples beyond its 99th percentile.
pub const WALK_SUB_WINDOW: Duration = Duration::from_millis(500);
const NEIGHBOUR_SUB_WINDOW: Duration = Duration::from_secs(1);
/// Batches complete at a few hundred per second, so their sub-windows
/// are longer; throughput uses the same ones.
const BATCH_SUB_WINDOW: Duration = Duration::from_secs(4);

/// `latency_p50_us` from per-sub-window latencies in ns, and the p99
/// beside it. The p99 is detail, not a bounded metric: a host that
/// shares a core with the load for a whole run moved it sevenfold.
fn latency_metrics(m: &mut Metrics, detail: &mut Metrics, windows: &[Vec<f64>]) {
    m.put(
        "latency_p50_us",
        report::windowed_quantile(windows, 0.5) / 1e3,
        "us",
    );
    detail.put(
        "latency_p99_us",
        report::windowed_quantile(windows, 0.99) / 1e3,
        "us",
    );
}

fn server_metrics(m: &mut Metrics, before: sys::ProcSample, after: sys::ProcSample, ops: u64) {
    m.put(
        "cpu_ns_per_op",
        after.cpu_ns.saturating_sub(before.cpu_ns) as f64 / ops.max(1) as f64,
        "ns",
    );
    m.put("rss_mb", after.hwm_kib as f64 / 1024.0, "MB");
}

fn walk(ctx: &Ctx, traced: bool) -> Outcome {
    let dirs = ctx.artifacts();
    let structures = dirs.load_or_generate(ctx.seed, ctx.sizes.effort);
    let circuits = inputs::circuits();
    let pairs = paired(&circuits, &structures);
    let names: Vec<&str> = structures.iter().map(|(n, _)| n.as_str()).collect();
    let len = (ctx.sizes.walk_steps_per_sec as f64 * ctx.window.as_secs_f64()) as usize;
    let mut stream = instantiate_stream(&names, &pairs, len.max(1), ctx.seed);
    let distinct = std::mem::take(&mut stream.stream.vectors).len();
    let quality = inputs::quality(&pairs, ctx.seed);

    let (server, setups) =
        ServerProc::spawn_repeated(&ctx.server, &dirs.bench9, &[], ctx.sizes.spawns);
    let before = server.sample();
    let run = serve::run_walk(
        &server.addr,
        &stream.lines,
        &stream.stream.steps,
        ctx.window,
        traced,
    );
    let after = server.sample();
    drop(server);

    let (tally, covered) = serve::verify_walk(&run.replies, &stream.want, &stream.stream.steps);
    let n = run.rtt_ns.len() as u64;
    let rtt = report::sub_windows(
        run.done_ns
            .iter()
            .zip(&run.rtt_ns)
            .map(|(&at, &ns)| (at, ns as f64)),
        WALK_SUB_WINDOW,
        run.wall,
    );
    let completions = report::sub_windows(
        run.done_ns.iter().map(|&at| (at, 1.0)),
        WALK_SUB_WINDOW,
        run.wall,
    );
    let throughput = report::windowed_rate(&completions, run.wall);
    let mut m = Metrics::default();
    let mut detail = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    latency_metrics(&mut m, &mut detail, &rtt);
    m.put("throughput_per_s", throughput, "1/s");
    server_metrics(&mut m, before, after, n);
    m.put("placement_cost", quality.cost_ratio, "ratio");
    detail.put("requests", n as f64, "count");
    detail.put("distinct_vectors", distinct as f64, "count");
    detail.put("covered_share", covered as f64 / n.max(1) as f64, "ratio");
    let spans = run
        .spans
        .iter()
        .enumerate()
        .map(|(k, [s, w, d])| {
            format!(
                "walk.request\t{k}\t{s}\t{d}\nwalk.send\t{k}\t{s}\t{w}\nwalk.wait\t{k}\t{w}\t{d}"
            )
        })
        .collect();
    Outcome {
        metrics: m,
        tally,
        spans,
        detail,
    }
}

/// The sweep's batches: per batch its structure index and vectors, its
/// rendered line, and the ids it must answer.
pub struct SweepLines {
    pub batches: Vec<(usize, Vec<Dims>)>,
    pub lines: Lines,
    pub want: Vec<Vec<Option<u32>>>,
}

pub fn sweep_lines(
    names: &[&str],
    structures: &[(&Circuit, &MultiPlacementStructure)],
    sizes: Sizes,
    seed: u64,
) -> SweepLines {
    let circuits: Vec<&Circuit> = structures.iter().map(|(c, _)| *c).collect();
    let batches = inputs::sweep_batches(&circuits, sizes.sweep_batches, sizes.batch_size, seed);
    let mut lines = Lines::default();
    let mut want = Vec::with_capacity(batches.len());
    for (s, batch) in &batches {
        let vectors: Vec<String> = batch.iter().map(inputs::dims_json).collect();
        lines.push(&format!(
            "\"kind\":\"batch_query\",\"structure\":\"{}\",\"encoding\":\"bin\",\"dims_list\":[{}]}}",
            names[*s],
            vectors.join(",")
        ));
        want.push(
            batch
                .iter()
                .map(|d| structures[*s].1.query(d).map(|id| id.0))
                .collect(),
        );
    }
    SweepLines {
        batches,
        lines,
        want,
    }
}

/// The pacer has fallen behind when its sends trail their due times by
/// a whole period on average: past that the neighbour no longer offers
/// its rate. Smaller lateness is the load process waiting for a core,
/// and counts in the latency from due time.
const PACER_MAX_MEAN_LATENESS_NS: f64 = 1e6;

pub fn sweep(ctx: &Ctx, traced: bool) -> Outcome {
    let dirs = ctx.artifacts();
    let structures = dirs.load_or_generate(ctx.seed, ctx.sizes.effort);
    let circuits = inputs::circuits();
    let pairs = paired(&circuits, &structures);
    let (grid_circuit, grid) = inputs::grid10x();
    let mut names: Vec<&str> = structures.iter().map(|(n, _)| n.as_str()).collect();
    let neighbour_len = (ctx.sizes.neighbour_rate * ctx.window.as_secs_f64()).ceil() as usize;
    let neighbour = instantiate_stream(&names, &pairs, neighbour_len.max(1), ctx.seed ^ 0xB1C7);
    names.push(inputs::GRID_NAME);
    let mut all = pairs.clone();
    all.push((&grid_circuit, &grid));
    let SweepLines {
        lines: batches,
        want,
        ..
    } = sweep_lines(&names, &all, ctx.sizes, ctx.seed);
    let quality = inputs::quality(&pairs, ctx.seed);

    let (server, setups) = ServerProc::spawn_repeated(
        &ctx.server,
        &dirs.with_grid,
        &["--shards", "1"],
        ctx.sizes.spawns,
    );
    let before = server.sample();
    let run = serve::run_sweep(
        &server.addr,
        &batches,
        (&neighbour.lines, &neighbour.stream.steps),
        ctx.sizes.neighbour_rate,
        ctx.window,
    );
    let after = server.sample();
    drop(server);

    let (mut tally, vectors, covered) = serve::verify_batches(&run, &want);
    let (paced_tally, latency, _) =
        serve::verify_paced(&run.neighbour, &neighbour.want, &neighbour.stream.steps);
    tally.add(paced_tally);
    let lateness = run.neighbour.lateness_ns();
    let late_mean = report::mean(&lateness);
    let batch_vectors = run
        .batch_done_ns
        .iter()
        .map(|&at| (at, ctx.sizes.batch_size as f64));
    let throughput = report::windowed_rate(
        &report::sub_windows(batch_vectors, BATCH_SUB_WINDOW, run.batch_wall),
        run.batch_wall,
    );
    let batch_rtt = report::sub_windows(
        run.batch_done_ns
            .iter()
            .zip(&run.batch_rtt_ns)
            .map(|(&at, &ns)| (at, ns as f64)),
        BATCH_SUB_WINDOW,
        run.batch_wall,
    );
    let mut m = Metrics::default();
    let mut detail = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    latency_metrics(&mut m, &mut detail, &batch_rtt);
    m.put("throughput_per_s", throughput, "1/s");
    let answered = vectors + latency.len() as u64;
    server_metrics(&mut m, before, after, answered);
    m.put("placement_cost", quality.cost_ratio, "ratio");

    let neighbour_windows =
        report::sub_windows(latency.iter().copied(), NEIGHBOUR_SUB_WINDOW, ctx.window);
    let within_1ms = latency.iter().filter(|&&(_, ns)| ns <= 1e6).count();
    detail.put("batches", run.batch_rtt_ns.len() as f64, "count");
    detail.put(
        "covered_share",
        covered as f64 / vectors.max(1) as f64,
        "ratio",
    );
    detail.put(
        "neighbour.requests",
        run.neighbour.due_ns.len() as f64,
        "count",
    );
    detail.put(
        "neighbour.latency_p50_us",
        report::windowed_quantile(&neighbour_windows, 0.5) / 1e3,
        "us",
    );
    detail.put(
        "neighbour.latency_p99_us",
        report::windowed_quantile(&neighbour_windows, 0.99) / 1e3,
        "us",
    );
    detail.put(
        "neighbour.slo_share",
        within_1ms as f64 / run.neighbour.due_ns.len().max(1) as f64,
        "ratio",
    );
    detail.put("pacer.lateness_mean_us", late_mean / 1e3, "us");
    detail.put(
        "pacer.lateness_max_us",
        lateness.iter().copied().fold(0.0, f64::max) / 1e3,
        "us",
    );
    // The open loop is only an open loop while the pacer keeps its
    // schedule; a run where it fell behind measures the client, not the
    // server, and is refused rather than reported.
    if late_mean > PACER_MAX_MEAN_LATENESS_NS {
        eprintln!("perfbench: invalid run: the neighbour pacer fell behind its schedule");
        std::process::exit(3);
    }
    let mut spans: Vec<String> = Vec::new();
    if traced {
        for (i, (done, rtt)) in run.batch_done_ns.iter().zip(&run.batch_rtt_ns).enumerate() {
            spans.push(format!("sweep.batch\t{i}\t{}\t{done}", done - rtt));
        }
        for (k, (due, sent)) in run
            .neighbour
            .due_ns
            .iter()
            .zip(&run.neighbour.sent_ns)
            .enumerate()
        {
            spans.push(format!("sweep.neighbour.lateness\t{k}\t{due}\t{sent}"));
        }
    }
    Outcome {
        metrics: m,
        tally,
        spans,
        detail,
    }
}

/// Seconds of window per generation repetition: a repetition of the
/// nine at effort 1 takes 3-5 s on a 2-core machine. The repetition count
/// follows from `--seconds` alone, so every run of one length does the
/// same work.
const SECONDS_PER_REPETITION: f64 = 4.0;

fn generate(ctx: &Ctx, traced: bool) -> Outcome {
    let dirs = ctx.artifacts();
    let repetitions = (ctx.window.as_secs_f64() / SECONDS_PER_REPETITION)
        .ceil()
        .max(1.0) as usize;
    let before = sys::sample("self");
    let mut reps: Vec<Vec<Generated>> = Vec::new();
    let mut totals = Vec::new();
    for r in 0..repetitions {
        let started = Instant::now();
        // Repetition 0 generates the seed's artifacts; later ones other
        // sets, so the figures are medians over several structure sets.
        reps.push(inputs::generate_all(
            mps_core::parallel::start_seed(ctx.seed, r),
            ctx.sizes.effort,
            inputs::STARTS,
            inputs::THREADS,
        ));
        totals.push(started.elapsed().as_secs_f64());
    }
    let after = sys::sample("self");

    // Every structure must pass the invariant battery, and the saved
    // artifacts must load back as the same structures.
    let mut tally = Tally::default();
    for g in reps.iter().flatten() {
        tally.attempted += 1;
        if g.structure.check_invariants().is_err() {
            tally.failed += 1;
            eprintln!("perfbench: {} violates its invariants", g.name);
        }
    }
    dirs.save(&reps[0]);
    for g in &reps[0] {
        tally.attempted += 1;
        let path = dirs.bench9.join(format!("{}.json", g.name));
        let loaded = MultiPlacementStructure::load_auto(&path).map(|s| s.to_json());
        if loaded.ok() != Some(g.structure.to_json()) {
            tally.failed += 1;
            eprintln!(
                "perfbench: {} does not load back as generated",
                path.display()
            );
        }
    }
    let circuits = inputs::circuits();
    let pairs: Vec<(&Circuit, &MultiPlacementStructure)> = circuits
        .iter()
        .zip(&reps[0])
        .map(|(c, g)| (&c.circuit, &g.structure))
        .collect();
    let quality = inputs::quality(&pairs, ctx.seed);
    // The generated set must come up in the real server.
    let (server, setups) =
        ServerProc::spawn_repeated(&ctx.server, &dirs.bench9, &[], ctx.sizes.spawns);
    drop(server);

    // The wait for one structure: the median over every structure of
    // every repetition, and the median over repetitions of the slowest
    // structure (the highest percentile the nine can resolve).
    let per_structure: Vec<f64> = reps
        .iter()
        .flatten()
        .map(|g| g.wall.as_secs_f64() * 1e9)
        .collect();
    let slowest: Vec<f64> = reps
        .iter()
        .map(|rep| {
            rep.iter()
                .map(|g| g.wall.as_secs_f64() * 1e9)
                .fold(0.0, f64::max)
        })
        .collect();
    let structures = per_structure.len() as u64;
    let throughput = inputs::circuits().len() as f64 / median(&totals);
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("latency_p50_us", median(&per_structure) / 1e3, "us");
    m.put("throughput_per_s", throughput, "1/s");
    m.put(
        "cpu_ns_per_op",
        after.cpu_ns.saturating_sub(before.cpu_ns) as f64 / structures as f64,
        "ns",
    );
    m.put("rss_mb", after.hwm_kib as f64 / 1024.0, "MB");
    m.put("placement_cost", quality.cost_ratio, "ratio");
    let mut detail = Metrics::default();
    detail.put("latency_p99_us", median(&slowest) / 1e3, "us");
    detail.put("repetitions", reps.len() as f64, "count");
    detail.put("gen_s", median(&totals), "s");
    detail.put("covered_share", quality.covered_share, "ratio");
    let mut spans = Vec::new();
    if traced {
        for (r, rep) in reps.iter().enumerate() {
            for g in rep {
                spans.push(format!(
                    "generate.structure\t{r}\t{}\t{}",
                    g.name,
                    g.wall.as_nanos()
                ));
            }
        }
    }
    Outcome {
        metrics: m,
        tally,
        spans,
        detail,
    }
}
