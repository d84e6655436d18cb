//! Regenerates Table 2: generation time, stored placements, instantiation
//! time per benchmark circuit.
//!
//! Run with `--effort <f>` to scale the generation budget (default 1.0).
//! Absolute times differ from the paper's 2005 SUN-Blade numbers; the
//! shape to verify is (a) generation cost grows with block count into the
//! "coffee-break" range at full effort, (b) instantiation stays at
//! micro/milliseconds regardless of circuit size, and (c) placement counts
//! land in the same tens-to-hundreds band.

use mps_bench::cli::{obtain_structure, BenchArgs, StructureSource};
use mps_bench::{fmt_bdio_step, fmt_duration, fmt_phases, markdown_table, measure_instantiation};
use mps_core::parallel::effective_threads;
use mps_netlist::benchmarks;

fn main() {
    let args = BenchArgs::parse();
    let queries = 1_000;
    eprintln!(
        "generating multi-placement structures (effort {}) ...",
        args.effort
    );
    let mut rows = Vec::new();
    for bm in benchmarks::all() {
        let config = args.config_for(&bm.circuit, 2005);
        let one_thread = effective_threads(config.threads, config.num_starts) == 1;
        let bdio_iterations = config.bdio.iterations;
        let (mps, source) = obtain_structure(bm.name, &bm.circuit, config, &args.persist);
        let mean_instantiation = measure_instantiation(&bm.circuit, &mps, queries, 2005 ^ 0xABCD);
        let generation = match &source {
            StructureSource::Generated(report) => {
                let ex = &report.explorer;
                eprintln!(
                    "  {:<18} {:>9}  {:>4} placements  coverage {:>5.1}%  inst {}  \
                     [proposals {} rejected {} stored {} shrunk {} forked {} annihilated {}]",
                    bm.name,
                    fmt_duration(report.duration),
                    report.placements,
                    100.0 * report.coverage,
                    fmt_duration(mean_instantiation),
                    ex.proposals,
                    ex.rejected_illegal,
                    ex.boxes_stored,
                    ex.stored_shrunk,
                    ex.stored_forked,
                    ex.stored_annihilated,
                );
                let wall = one_thread.then_some(report.duration);
                eprintln!(
                    "  {:<18} {}  {}",
                    "",
                    fmt_phases(&report.phases, wall),
                    fmt_bdio_step(report, bdio_iterations)
                );
                fmt_duration(report.duration)
            }
            StructureSource::Loaded(path) => {
                eprintln!(
                    "  {:<18} loaded     {:>4} placements  coverage {:>5.1}%  inst {}  [{}]",
                    bm.name,
                    mps.placement_count(),
                    100.0 * mps.coverage(),
                    fmt_duration(mean_instantiation),
                    path.display(),
                );
                "loaded".to_owned()
            }
        };
        rows.push(vec![
            bm.name.to_owned(),
            generation,
            mps.placement_count().to_string(),
            format!("{:.1}%", 100.0 * mps.coverage()),
            fmt_duration(mean_instantiation),
        ]);
    }
    println!("\nTable 2: Usage and Generation of the Multi-Placement Structures");
    println!(
        "{}",
        markdown_table(
            &[
                "Circuit",
                "CPU Generation Time",
                "Placements",
                "Coverage",
                "Instantiation"
            ],
            &rows
        )
    );
}
