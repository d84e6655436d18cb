//! Shared harness for regenerating every table and figure of the paper.
//!
//! The binaries in `src/bin/` print the tables/figures and measure the
//! hot paths. They build on the helpers here so the workload definitions
//! (budgets, query streams, sweeps) are identical everywhere.
//!
//! | Paper artefact | Regenerator |
//! |----------------|-------------|
//! | Table 1        | `cargo run -p mps-bench --bin table1` |
//! | Table 2        | `cargo run -p mps-bench --release --bin table2` |
//! | Fig. 5         | `cargo run -p mps-bench --release --bin fig5` |
//! | Fig. 6         | `cargo run -p mps-bench --release --bin fig6` |
//! | Fig. 7         | `cargo run -p mps-bench --release --bin fig7` |
//! | Quality ablation (A2) | `cargo run -p mps-bench --release --bin quality` |
//! | Design ablations (A3) | `cargo run -p mps-bench --release --bin ablation` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use cli::{
    arg_value, effort_from_args, obtain_structure, parallel_from_args, persist_from_args,
    structure_path, BenchArgs, PersistArgs, StructureSource,
};

use mps_core::{GeneratorConfig, MpsGenerator, MultiPlacementStructure};
use mps_geom::svg::{palette, LabelledRect};
use mps_geom::{Coord, Dims};
use mps_netlist::benchmarks::Benchmark;
use mps_netlist::Circuit;
use mps_placer::{CostCalculator, Placement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One row of the regenerated Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Circuit name.
    pub name: String,
    /// Wall-clock generation time.
    pub generation: Duration,
    /// Live placements stored.
    pub placements: usize,
    /// Final row coverage.
    pub coverage: f64,
    /// Mean time of one placement instantiation.
    pub mean_instantiation: Duration,
    /// Full generation report (explorer counters etc.).
    pub report: mps_core::GenerationReport,
}

/// A generation budget scaled to circuit size, mirroring how the paper's
/// generation times grow with block count. `effort` multiplies the budget
/// (1.0 = the default used by the shipped binaries).
#[must_use]
pub fn scaled_config(circuit: &Circuit, effort: f64, seed: u64) -> GeneratorConfig {
    let n = circuit.block_count() as f64;
    let outer = ((40.0 + 14.0 * n) * effort).ceil() as usize;
    let inner = ((60.0 + 6.0 * n) * effort).ceil() as usize;
    GeneratorConfig::builder()
        .outer_iterations(outer.max(10))
        .inner_iterations(inner.max(10))
        .coverage_target(0.93)
        .seed(seed)
        .build()
}

/// Draws a uniformly random in-bounds dimension vector.
#[must_use]
pub fn random_dims(circuit: &Circuit, rng: &mut StdRng) -> Dims {
    circuit
        .dim_bounds()
        .iter()
        .map(|b| {
            (
                rng.random_range(b.w.lo()..=b.w.hi()),
                rng.random_range(b.h.lo()..=b.h.hi()),
            )
        })
        .collect()
}

/// Generates the structure and measures `queries` random instantiations —
/// one Table-2 row — with the default size-scaled budget.
#[must_use]
pub fn table2_row(bm: &Benchmark, effort: f64, queries: usize, seed: u64) -> Table2Row {
    table2_row_with(bm, scaled_config(&bm.circuit, effort, seed), queries, seed)
}

/// [`table2_row`] with an explicit generator configuration (e.g. one that
/// carries multi-start/thread knobs).
#[must_use]
pub fn table2_row_with(
    bm: &Benchmark,
    config: GeneratorConfig,
    queries: usize,
    seed: u64,
) -> Table2Row {
    let (mps, report) = MpsGenerator::new(&bm.circuit, config)
        .generate_with_report()
        .expect("benchmark circuits are valid");
    let mean_instantiation = measure_instantiation(&bm.circuit, &mps, queries, seed ^ 0xABCD);
    Table2Row {
        name: bm.name.to_owned(),
        generation: report.duration,
        placements: report.placements,
        coverage: report.coverage,
        mean_instantiation,
        report,
    }
}

/// Mean wall-clock time of one `instantiate_or_fallback` call over a
/// random query stream.
///
/// # Panics
///
/// Panics if instantiation ever fails to return a placement.
#[must_use]
pub fn measure_instantiation(
    circuit: &Circuit,
    mps: &MultiPlacementStructure,
    queries: usize,
    seed: u64,
) -> Duration {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims: Vec<Dims> = (0..queries.max(1))
        .map(|_| random_dims(circuit, &mut rng))
        .collect();
    let start = Instant::now();
    let mut sink = 0usize;
    for d in &dims {
        sink = sink.wrapping_add(mps.instantiate_or_fallback(d).block_count());
    }
    let elapsed = start.elapsed();
    assert!(sink > 0, "instantiations must produce placements");
    elapsed / dims.len() as u32
}

/// Renders a floorplan to SVG (Figs. 5 and 7).
#[must_use]
pub fn floorplan_svg(circuit: &Circuit, placement: &Placement, dims: &[(Coord, Coord)]) -> String {
    let rects = placement.rects(dims);
    let blocks: Vec<LabelledRect> = rects
        .iter()
        .enumerate()
        .map(|(i, &rect)| LabelledRect {
            rect,
            label: circuit.blocks()[i].name().to_owned(),
            fill: palette(i),
        })
        .collect();
    mps_geom::svg::render(&blocks, 640)
}

/// Fig.-6 data: a 1-D sweep of one block dimension, costing every stored
/// placement (top plot) and the MPS-selected placement (bottom plot).
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// The swept width values of block 0.
    pub sweep: Vec<Coord>,
    /// Per stored placement id: cost at each sweep point (`None` when
    /// forcing that placement would be illegal at those dimensions).
    pub per_placement: Vec<(u32, Vec<Option<f64>>)>,
    /// Cost of the placement the structure selects at each sweep point
    /// (`None` in uncovered space).
    pub selected: Vec<Option<f64>>,
}

/// Sweeps block 0's width across its range (other dims mid-range), costing
/// every stored placement and the structure's selection.
#[must_use]
pub fn fig6_sweep(circuit: &Circuit, mps: &MultiPlacementStructure, points: usize) -> Fig6Data {
    let bounds = circuit.dim_bounds();
    let base: Vec<(Coord, Coord)> = bounds
        .iter()
        .map(|b| (b.w.midpoint(), b.h.midpoint()))
        .collect();
    let w0 = bounds[0].w;
    let points = points.max(2);
    let sweep: Vec<Coord> = (0..points)
        .map(|k| {
            w0.lo() + ((w0.len() - 1) as f64 * k as f64 / (points - 1) as f64).round() as Coord
        })
        .collect();
    let calc = CostCalculator::new(circuit);
    let fp = mps.floorplan();

    // The swept vector at one sample point: base dims with block 0's
    // width replaced (mid-range values, always a valid vector).
    let at = |w: Coord| {
        let mut dims = base.clone();
        dims[0].0 = w;
        Dims::from_vec_unchecked(dims)
    };
    let mut per_placement = Vec::new();
    for (id, entry) in mps.iter() {
        let series: Vec<Option<f64>> = sweep
            .iter()
            .map(|&w| {
                let dims = at(w);
                entry
                    .placement
                    .is_legal(&dims, Some(&fp))
                    .then(|| calc.cost(&entry.placement, &dims))
            })
            .collect();
        per_placement.push((id.0, series));
    }
    let selected: Vec<Option<f64>> = sweep
        .iter()
        .map(|&w| {
            let dims = at(w);
            mps.instantiate(&dims).map(|p| calc.cost(&p, &dims))
        })
        .collect();
    Fig6Data {
        sweep,
        per_placement,
        selected,
    }
}

/// Formats a Duration the way the paper's Table 2 does (`21m12s`,
/// `0.07s`).
#[must_use]
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        let m = (secs / 60.0).floor() as u64;
        let s = secs - 60.0 * m as f64;
        format!("{m}m{s:.0}s")
    } else if secs >= 0.01 {
        format!("{secs:.2}s")
    } else if secs >= 1e-4 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

/// One line of generation phase timings, e.g. for a report's
/// [`mps_core::GenerationReport::phases`].
///
/// With the run's wall time (`wall`, e.g.
/// [`mps_core::GenerationReport::duration`]) the line ends with `other`:
/// the wall time no phase accounts for (see
/// [`mps_core::PhaseTimings`]). Pass it only for a run on one thread;
/// with more, the phases are summed over concurrent starts and can
/// exceed the wall time.
#[must_use]
pub fn fmt_phases(phases: &mps_core::PhaseTimings, wall: Option<Duration>) -> String {
    let mut line = format!(
        "expansion {}  bdio {}  resolve+store {}  merge {}",
        fmt_duration(phases.expansion),
        fmt_duration(phases.bdio),
        fmt_duration(phases.resolve_store),
        fmt_duration(phases.merge),
    );
    if let Some(wall) = wall {
        let phased = phases.expansion + phases.bdio + phases.resolve_store + phases.merge;
        line.push_str(&format!(
            "  other {}",
            fmt_duration(wall.saturating_sub(phased))
        ));
    }
    line
}

/// The mean BDIO time per inner step of a generation run, e.g.
/// `bdio/step 195ns`.
///
/// Every legal proposal runs one BDIO call of `bdio_iterations` steps
/// (the run's [`mps_core::BdioConfig::iterations`]), so the run made
/// (`proposals` − `rejected_illegal`) × `bdio_iterations` steps. The
/// counters and the BDIO phase both sum over the explorer starts.
#[must_use]
pub fn fmt_bdio_step(report: &mps_core::GenerationReport, bdio_iterations: usize) -> String {
    let explorer = &report.explorer;
    let steps = explorer.proposals.saturating_sub(explorer.rejected_illegal) * bdio_iterations;
    if steps == 0 {
        return "bdio/step -".to_owned();
    }
    format!(
        "bdio/step {:.0}ns",
        report.phases.bdio.as_secs_f64() * 1e9 / steps as f64
    )
}

/// Renders a markdown table.
#[must_use]
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        headers.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Ensures `out/` exists and writes a file into it, returning the path.
///
/// # Panics
///
/// Panics on I/O errors — the binaries have no useful recovery.
pub fn write_artifact(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("out");
    std::fs::create_dir_all(dir).expect("create out/ directory");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write artifact");
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_netlist::benchmarks;

    #[test]
    fn scaled_config_grows_with_circuit() {
        let small = scaled_config(&benchmarks::circ01(), 1.0, 0);
        let large = scaled_config(&benchmarks::benchmark24(), 1.0, 0);
        assert!(large.explorer.outer_iterations > small.explorer.outer_iterations);
        assert!(large.bdio.iterations > small.bdio.iterations);
    }

    #[test]
    fn random_dims_are_admitted() {
        let c = benchmarks::mixer();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert!(c.admits_dims(&random_dims(&c, &mut rng)));
        }
    }

    #[test]
    fn table2_row_smoke() {
        let bm = benchmarks::by_name("circ01").unwrap();
        let row = table2_row(&bm, 0.2, 50, 1);
        assert_eq!(row.name, "circ01");
        assert!(row.placements > 0);
        assert!(row.mean_instantiation < Duration::from_millis(50));
    }

    #[test]
    fn fig6_selected_points_are_finite() {
        let bm = benchmarks::by_name("circ01").unwrap();
        let config = scaled_config(&bm.circuit, 0.3, 3);
        let mps = MpsGenerator::new(&bm.circuit, config).generate().unwrap();
        let data = fig6_sweep(&bm.circuit, &mps, 20);
        assert_eq!(data.sweep.len(), 20);
        for (k, sel) in data.selected.iter().enumerate() {
            if let Some(cost) = sel {
                assert!(cost.is_finite(), "point {k}");
            }
        }
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(1272)), "21m12s");
        assert_eq!(fmt_duration(Duration::from_millis(70)), "0.07s");
        assert_eq!(fmt_duration(Duration::from_micros(120)), "0.12ms");
        assert_eq!(fmt_duration(Duration::from_nanos(900)), "0.9us");
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn floorplan_svg_contains_block_names() {
        let c = benchmarks::two_stage_opamp();
        let dims = c.min_dims();
        let p = mps_placer::Template::expert_default(&c, 2).instantiate(&dims);
        let svg = floorplan_svg(&c, &p, &dims);
        assert!(svg.contains("DP"));
        assert!(svg.contains("CC"));
    }
}
