//! Wall-clock speedup of parallel multi-start generation: the same
//! 4-start workload on 1 thread versus N threads, per circuit. The
//! structures are verified bit-identical before the timings are reported
//! — the speedup is free of any result change by construction.
//!
//! ```sh
//! cargo run --release -p mps-bench --bin parallel_speedup
//! cargo run --release -p mps-bench --bin parallel_speedup -- \
//!     --circuit tso-cascode --starts 8 --threads 4 --effort 0.5
//! ```

use mps_bench::cli::{arg_value, effort_from_args};
use mps_bench::{fmt_bdio_step, fmt_duration, fmt_phases, markdown_table, scaled_config};
use mps_core::{GenerationReport, GeneratorConfig, MpsGenerator, MultiPlacementStructure};
use mps_netlist::benchmarks;
use std::time::{Duration, Instant};

/// Panics unless the two structures hold bit-identical entries — the
/// determinism contract the speedup numbers rest on. Counts and coverage
/// alone could mask an entry-level divergence.
fn assert_identical(a: &MultiPlacementStructure, b: &MultiPlacementStructure) {
    assert_eq!(
        a.placement_count(),
        b.placement_count(),
        "thread count changed the placement count — determinism contract broken"
    );
    assert_eq!(
        a.coverage().to_bits(),
        b.coverage().to_bits(),
        "thread count changed coverage — determinism contract broken"
    );
    for ((ia, ea), (ib, eb)) in a.iter().zip(b.iter()) {
        assert!(
            ia == ib
                && ea.dims_box == eb.dims_box
                && ea.placement == eb.placement
                && ea.avg_cost.to_bits() == eb.avg_cost.to_bits()
                && ea.best_cost.to_bits() == eb.best_cost.to_bits()
                && ea.best_dims == eb.best_dims,
            "entry {ia:?} diverged across thread counts — determinism contract broken"
        );
    }
}

fn timed(
    circuit: &mps_netlist::Circuit,
    config: GeneratorConfig,
) -> (MultiPlacementStructure, GenerationReport, Duration) {
    let start = Instant::now();
    let (mps, report) = MpsGenerator::new(circuit, config)
        .generate_with_report()
        .expect("benchmark circuits are valid");
    (mps, report, start.elapsed())
}

fn main() {
    let circuit_name: String = arg_value("circuit").unwrap_or_else(|| "circ01".to_owned());
    let starts: usize = arg_value("starts").unwrap_or(4).max(1);
    let threads: usize = arg_value("threads").unwrap_or(starts);
    let effort = effort_from_args();

    let bm = benchmarks::by_name(&circuit_name)
        .unwrap_or_else(|| panic!("unknown benchmark circuit {circuit_name:?}"));
    let base = scaled_config(&bm.circuit, effort, 2026);

    eprintln!(
        "{}: {} starts, {} outer x {} inner iterations per start",
        bm.name, starts, base.explorer.outer_iterations, base.bdio.iterations
    );

    let bdio_iterations = base.bdio.iterations;
    let serial = GeneratorConfig {
        num_starts: starts,
        threads: 1,
        ..base.clone()
    };
    let parallel = GeneratorConfig {
        num_starts: starts,
        threads,
        ..base
    };

    let (mps_serial, report_serial, t_serial) = timed(&bm.circuit, serial);
    let (mps_parallel, report_parallel, t_parallel) = timed(&bm.circuit, parallel);
    eprintln!(
        "  1 thread:   {}  {}",
        fmt_phases(&report_serial.phases, Some(report_serial.duration)),
        fmt_bdio_step(&report_serial, bdio_iterations)
    );
    eprintln!(
        "  {threads} threads:  {}  {}",
        fmt_phases(&report_parallel.phases, None),
        fmt_bdio_step(&report_parallel, bdio_iterations)
    );

    assert_identical(&mps_serial, &mps_parallel);
    mps_parallel
        .check_invariants()
        .expect("merged structure invariants");

    let speedup = t_serial.as_secs_f64() / t_parallel.as_secs_f64().max(1e-12);
    let rows = vec![
        vec![
            format!("{starts} starts / 1 thread"),
            fmt_duration(t_serial),
            mps_serial.placement_count().to_string(),
            format!("{:.1}%", 100.0 * mps_serial.coverage()),
            "1.00x".to_owned(),
        ],
        vec![
            format!("{starts} starts / {threads} threads"),
            fmt_duration(t_parallel),
            mps_parallel.placement_count().to_string(),
            format!("{:.1}%", 100.0 * mps_parallel.coverage()),
            format!("{speedup:.2}x"),
        ],
    ];
    println!("Parallel multi-start generation, {}:", bm.name);
    println!(
        "{}",
        markdown_table(
            &[
                "Configuration",
                "Generation",
                "Placements",
                "Coverage",
                "Speedup"
            ],
            &rows
        )
    );
}
