//! Seeded inputs: the generated artifacts, the request streams and the
//! reference answers. Everything here runs before any clock starts.

use mps_core::{grid_structure, GenerationReport, MpsGenerator, MultiPlacementStructure};
use mps_geom::Dims;
use mps_netlist::{benchmarks, modgen, Circuit};
use mps_placer::{CostCalculator, Template};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Explorer starts and threads of the generation budget (Table 2 at
/// effort 1, two starts on two threads).
pub const STARTS: usize = 2;
pub const THREADS: usize = 2;

/// Name of the 10x index-scaling structure served by `sweep`.
pub const GRID_NAME: &str = "grid10x";

/// One circuit the benchmark generates, with its artifact name (the
/// Table-1 name with spaces replaced, so it is also a file stem).
pub struct NamedCircuit {
    pub name: String,
    pub circuit: Circuit,
}

/// The nine Table-1 circuits.
pub fn circuits() -> Vec<NamedCircuit> {
    benchmarks::all()
        .into_iter()
        .map(|bm| NamedCircuit {
            name: bm.name.replace(' ', "_"),
            circuit: bm.circuit,
        })
        .collect()
}

/// The generator seed of one circuit under the benchmark seed.
fn circuit_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (index as u64 + 1)
}

/// The generation budget for one circuit: `scaled_config` at `effort`,
/// with `starts` explorer starts on `threads` threads.
pub fn config(
    circuit: &Circuit,
    effort: f64,
    seed: u64,
    index: usize,
    starts: usize,
    threads: usize,
) -> mps_core::GeneratorConfig {
    let mut config = mps_bench::scaled_config(circuit, effort, circuit_seed(seed, index));
    config.num_starts = starts;
    config.threads = threads;
    config
}

/// One generated structure with its report and wall time.
pub struct Generated {
    pub name: String,
    pub structure: MultiPlacementStructure,
    pub report: GenerationReport,
    pub wall: Duration,
}

/// Generates the nine structures, timing each call.
pub fn generate_all(seed: u64, effort: f64, starts: usize, threads: usize) -> Vec<Generated> {
    circuits()
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let config = config(&c.circuit, effort, seed, i, starts, threads);
            let started = Instant::now();
            let (structure, report) = MpsGenerator::new(&c.circuit, config)
                .generate_with_report()
                .expect("benchmark circuits are valid");
            Generated {
                name: c.name,
                structure,
                report,
                wall: started.elapsed(),
            }
        })
        .collect()
}

/// The 10x index-scaling structure: the grid corpus level that
/// `serve_bench --index-scaling` labels 10x.
pub fn grid10x() -> (Circuit, MultiPlacementStructure) {
    let (circuit, _model) = modgen::ladder_circuit(3, 1.0);
    let base = grid_structure(&circuit, 400, 0x77).placement_count();
    let target = base * 10;
    let mps = grid_structure(&circuit, target, 0x77 ^ target as u64);
    (circuit, mps)
}

/// Saves `structures` as `mps-v1` JSON into `dir`, replacing its
/// content, through a temporary directory so an interrupted run never
/// leaves a partial set behind.
pub fn save_set(dir: &Path, structures: &[(&str, &MultiPlacementStructure)]) {
    let tmp = dir.with_extension("partial");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create artifact directory");
    for (name, mps) in structures {
        mps.save_json(tmp.join(format!("{name}.json")))
            .expect("save artifact");
    }
    let _ = std::fs::remove_dir_all(dir);
    std::fs::rename(&tmp, dir).expect("publish artifact directory");
}

/// The artifact directories of one seed under the benchmark's work
/// directory: the nine generated structures, and the same nine plus the
/// 10x grid structure.
pub struct ArtifactDirs {
    pub bench9: PathBuf,
    pub with_grid: PathBuf,
}

impl ArtifactDirs {
    pub fn new(work: &Path, seed: u64, effort: f64) -> Self {
        let root = work.join(format!("artifacts-seed{seed}-effort{effort}"));
        Self {
            bench9: root.join("bench9"),
            with_grid: root.join("bench9_grid10x"),
        }
    }

    /// Saves a freshly generated set (and the grid structure beside it).
    pub fn save(&self, generated: &[Generated]) {
        let mut set: Vec<(&str, &MultiPlacementStructure)> = generated
            .iter()
            .map(|g| (g.name.as_str(), &g.structure))
            .collect();
        save_set(&self.bench9, &set);
        let (_, grid) = grid10x();
        set.push((GRID_NAME, &grid));
        save_set(&self.with_grid, &set);
    }

    /// Loads the nine structures, generating and saving them first when
    /// this seed has no artifacts yet.
    pub fn load_or_generate(
        &self,
        seed: u64,
        effort: f64,
    ) -> Vec<(String, MultiPlacementStructure)> {
        if !self.with_grid.is_dir() {
            eprintln!("perfbench: generating artifacts for seed {seed}");
            self.save(&generate_all(seed, effort, STARTS, THREADS));
        }
        circuits()
            .into_iter()
            .map(|c| {
                let path = self.bench9.join(format!("{}.json", c.name));
                let mps = MultiPlacementStructure::load_auto(&path)
                    .unwrap_or_else(|e| panic!("load {}: {e}", path.display()));
                (c.name, mps)
            })
            .collect()
    }
}

/// Renders a dims vector the way the wire protocol spells it.
pub fn dims_json(dims: &Dims) -> String {
    let mut out = String::with_capacity(dims.len() * 10);
    out.push('[');
    for (i, &(w, h)) in dims.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{w},{h}]"));
    }
    out.push(']');
    out
}

/// What one `instantiate` must answer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InstantiateAnswer {
    pub id: Option<u64>,
    pub coords: Vec<(i64, i64)>,
}

/// The reference answer of `instantiate`: the stored placement when a
/// region covers `dims`, else the fallback packing.
pub fn reference_instantiate(mps: &MultiPlacementStructure, dims: &Dims) -> InstantiateAnswer {
    let id = mps.query(dims);
    let placement = match id.and_then(|id| mps.entry(id)) {
        Some(entry) => entry.placement.clone(),
        None => mps.instantiate_or_fallback(dims),
    };
    InstantiateAnswer {
        id: id.map(|id| u64::from(id.0)),
        coords: placement.coords().iter().map(|p| (p.x, p.y)).collect(),
    }
}

/// One step of a request stream: which structure and which vector.
#[derive(Clone)]
pub struct Step {
    pub structure: usize,
    pub dims: usize,
}

/// A request stream over a set of structures, with its distinct vectors
/// kept once and each step pointing at one of them.
pub struct Stream {
    pub vectors: Vec<Dims>,
    pub steps: Vec<Step>,
}

/// The `walk` stream: per-structure random walks, switching structure
/// every 200-400 steps. Each step either moves one block's width or
/// height by a small bounded step inside the circuit bounds, or (one
/// step in four) revisits a vector this structure's walk already took.
pub fn walk_stream(circuits: &[&Circuit], len: usize, seed: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A1C);
    let mut positions: Vec<Dims> = circuits
        .iter()
        .map(|c| mps_bench::random_dims(c, &mut rng))
        .collect();
    let mut history: Vec<Vec<usize>> = vec![Vec::new(); circuits.len()];
    let mut stream = Stream {
        vectors: Vec::new(),
        steps: Vec::with_capacity(len),
    };
    let mut current = rng.random_range(0..circuits.len());
    let mut left = 0usize;
    while stream.steps.len() < len {
        if left == 0 {
            current = rng.random_range(0..circuits.len());
            left = rng.random_range(200..=400usize);
        }
        left -= 1;
        let seen = &history[current];
        let dims = if !seen.is_empty() && rng.random_range(0..4u32) == 0 {
            seen[rng.random_range(0..seen.len())]
        } else {
            let bounds = circuits[current].dim_bounds();
            let mut pairs: Vec<(i64, i64)> = positions[current].to_vec();
            let block = rng.random_range(0..pairs.len());
            let (axis, value) = if rng.random_range(0..2u32) == 0 {
                (bounds[block].w, &mut pairs[block].0)
            } else {
                (bounds[block].h, &mut pairs[block].1)
            };
            let max_step = ((axis.hi() - axis.lo()) / 8).max(1);
            let step = rng.random_range(1..=max_step);
            let delta = if rng.random_range(0..2u32) == 0 {
                -step
            } else {
                step
            };
            *value = (*value + delta).clamp(axis.lo(), axis.hi());
            let dims = Dims::new(pairs).expect("walk stays inside positive bounds");
            positions[current] = dims.clone();
            stream.vectors.push(dims);
            let index = stream.vectors.len() - 1;
            history[current].push(index);
            index
        };
        stream.steps.push(Step {
            structure: current,
            dims,
        });
    }
    stream
}

/// `batches` batches of `size` distinct uniformly drawn vectors, cycling
/// over `circuits` in order.
pub fn sweep_batches(
    circuits: &[&Circuit],
    batches: usize,
    size: usize,
    seed: u64,
) -> Vec<(usize, Vec<Dims>)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EE9);
    (0..batches)
        .map(|b| {
            let s = b % circuits.len();
            let mut seen = std::collections::HashSet::with_capacity(size);
            let mut batch = Vec::with_capacity(size);
            while batch.len() < size {
                let dims = mps_bench::random_dims(circuits[s], &mut rng);
                if seen.insert(dims.to_vec()) {
                    batch.push(dims);
                }
            }
            (s, batch)
        })
        .collect()
}

/// Placement quality on a seeded probe set: the geometric mean over
/// probes of `cost(instantiate_or_fallback) / cost(expert template)` (so
/// that a few very poor fallbacks do not dominate it), and the share of
/// probes a stored placement answers.
pub struct Quality {
    pub cost_ratio: f64,
    pub covered_share: f64,
}

/// Probes per circuit of the quality measurement.
pub const QUALITY_PROBES: usize = 500;

pub fn quality(structures: &[(&Circuit, &MultiPlacementStructure)], seed: u64) -> Quality {
    let mut ratio_sum = 0.0;
    let mut covered = 0usize;
    let mut probes = 0usize;
    for (i, (circuit, mps)) in structures.iter().enumerate() {
        let calc = CostCalculator::new(circuit).with_floorplan(mps.floorplan());
        let template = Template::expert_default(circuit, 6);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9A11 ^ ((i as u64) << 32));
        for _ in 0..QUALITY_PROBES {
            let dims = mps_bench::random_dims(circuit, &mut rng);
            let answer = mps.instantiate_or_fallback(&dims);
            let base = template.instantiate(&dims);
            ratio_sum += (calc.cost(&answer, &dims) / calc.cost(&base, &dims)).ln();
            covered += usize::from(mps.query(&dims).is_some());
            probes += 1;
        }
    }
    Quality {
        cost_ratio: (ratio_sum / probes as f64).exp(),
        covered_share: covered as f64 / probes as f64,
    }
}
