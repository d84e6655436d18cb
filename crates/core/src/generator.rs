//! One-time generation of a multi-placement structure (Fig. 1a).

use crate::explorer::{explore, ExplorerConfig, ExplorerStats};
use crate::{Bdio, BdioConfig, MultiPlacementStructure};
use mps_netlist::{Circuit, ValidateCircuitError};
use mps_placer::{CostCalculator, CostWeights, ExpansionConfig, SymmetryConstraints, Template};
use std::fmt;
use std::time::{Duration, Instant};

/// Everything that can go wrong while generating a structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The input circuit failed validation.
    InvalidCircuit(ValidateCircuitError),
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::InvalidCircuit(e) => write!(f, "invalid circuit: {e}"),
        }
    }
}

impl std::error::Error for GenerateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenerateError::InvalidCircuit(e) => Some(e),
        }
    }
}

impl From<ValidateCircuitError> for GenerateError {
    fn from(e: ValidateCircuitError) -> Self {
        GenerateError::InvalidCircuit(e)
    }
}

/// Full configuration of the generation algorithm. Build with
/// [`GeneratorConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Outer-loop (Placement Explorer) tuning.
    pub explorer: ExplorerConfig,
    /// Inner-loop (BDIO) tuning.
    pub bdio: BdioConfig,
    /// Placement-expansion tuning.
    pub expansion: ExpansionConfig,
    /// Cost-function weights (§3.2.2: "customizable").
    pub weights: CostWeights,
    /// Floorplan slack handed to [`Circuit::suggested_floorplan`].
    pub floorplan_slack: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Effort (log2 candidate count) of the fallback template search.
    pub fallback_effort_log2: u32,
    /// Independently seeded explorer starts whose structures are merged
    /// into one (see [`crate::parallel`]). `1` reproduces the paper's
    /// single-walk generation exactly.
    pub num_starts: usize,
    /// Worker threads for multi-start generation. `0` means one per
    /// available core; the effective count is always capped at
    /// [`GeneratorConfig::num_starts`]. The generated structure is
    /// bit-identical for every thread count — threads change wall-clock
    /// time only.
    pub threads: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            explorer: ExplorerConfig::default(),
            bdio: BdioConfig::default(),
            expansion: ExpansionConfig::default(),
            weights: CostWeights::default(),
            floorplan_slack: 1.5,
            seed: 0,
            fallback_effort_log2: 6,
            num_starts: 1,
            threads: 1,
        }
    }
}

impl GeneratorConfig {
    /// Starts building a configuration.
    #[must_use]
    pub fn builder() -> GeneratorConfigBuilder {
        GeneratorConfigBuilder::default()
    }
}

/// Builder for [`GeneratorConfig`].
#[derive(Debug, Clone, Default)]
pub struct GeneratorConfigBuilder {
    config: GeneratorConfig,
}

impl GeneratorConfigBuilder {
    /// Maximum number of outer (Placement Explorer) proposals.
    #[must_use]
    pub fn outer_iterations(mut self, n: usize) -> Self {
        self.config.explorer.outer_iterations = n;
        self
    }

    /// BDIO proposals evaluated per placement.
    #[must_use]
    pub fn inner_iterations(mut self, n: usize) -> Self {
        self.config.bdio.iterations = n;
        self
    }

    /// Coverage at which generation stops early (§3.1.4).
    ///
    /// # Panics
    ///
    /// Panics (at [`GeneratorConfigBuilder::build`]) if outside `(0, 1]`.
    #[must_use]
    pub fn coverage_target(mut self, target: f64) -> Self {
        self.config.explorer.coverage_target = target;
        self
    }

    /// Fraction of blocks moved per outer perturbation.
    #[must_use]
    pub fn perturb_fraction(mut self, fraction: f64) -> Self {
        self.config.explorer.perturb_fraction = fraction;
        self
    }

    /// BDIO per-move dimension perturbation percentage.
    #[must_use]
    pub fn dim_perturb_fraction(mut self, fraction: f64) -> Self {
        self.config.bdio.perturb_fraction = fraction;
        self
    }

    /// Master RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Cost-function weights.
    #[must_use]
    pub fn weights(mut self, weights: CostWeights) -> Self {
        self.config.weights = weights;
        self
    }

    /// Floorplan slack multiplier (≥ 1).
    #[must_use]
    pub fn floorplan_slack(mut self, slack: f64) -> Self {
        self.config.floorplan_slack = slack;
        self
    }

    /// Enables or disables Eq.-6 range optimization (ablation).
    #[must_use]
    pub fn optimize_ranges(mut self, enabled: bool) -> Self {
        self.config.bdio.optimize_ranges = enabled;
        self
    }

    /// Enables or disables fork-on-containment in Resolve Overlaps
    /// (ablation).
    #[must_use]
    pub fn fork_on_containment(mut self, enabled: bool) -> Self {
        self.config.explorer.fork_on_containment = enabled;
        self
    }

    /// Number of independently seeded explorer starts to merge (≥ 1).
    ///
    /// Each start runs the full outer/inner iteration budget from its own
    /// seed (derived deterministically from the master seed), so total
    /// generation work scales linearly with the start count — and so does
    /// the explored placement diversity.
    ///
    /// # Panics
    ///
    /// Panics (at [`GeneratorConfigBuilder::build`]) if zero.
    #[must_use]
    pub fn num_starts(mut self, n: usize) -> Self {
        self.config.num_starts = n;
        self
    }

    /// Worker threads for multi-start generation (`0` = one per core).
    ///
    /// Thread count never changes the generated structure, only the
    /// wall-clock time of the embarrassingly parallel start phase.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.config.threads = n;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the coverage target is outside `(0, 1]`, a fraction is
    /// outside `(0, 1]`, or the floorplan slack is below 1.
    #[must_use]
    pub fn build(self) -> GeneratorConfig {
        let c = &self.config;
        assert!(
            c.explorer.coverage_target > 0.0 && c.explorer.coverage_target <= 1.0,
            "coverage target must be in (0, 1]"
        );
        assert!(
            c.explorer.perturb_fraction > 0.0 && c.explorer.perturb_fraction <= 1.0,
            "perturb fraction must be in (0, 1]"
        );
        assert!(
            c.bdio.perturb_fraction > 0.0 && c.bdio.perturb_fraction <= 1.0,
            "dimension perturb fraction must be in (0, 1]"
        );
        assert!(
            c.floorplan_slack >= 1.0,
            "floorplan slack must be at least 1"
        );
        assert!(c.num_starts >= 1, "at least one start is required");
        self.config
    }
}

/// What one generation run produced, beyond the structure itself — the raw
/// material of the paper's Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationReport {
    /// Wall-clock generation time (Table 2, `CPU Generation Time`).
    pub duration: Duration,
    /// Live placements stored (Table 2, `Placements`).
    pub placements: usize,
    /// Final coverage.
    pub coverage: f64,
    /// Outer-loop counters. For multi-start runs, the exploration
    /// counters (`proposals`, `accepted`, `rejected_illegal`) sum over
    /// the starts while the store/resolve counters describe the merge
    /// pass that built the returned structure; `final_coverage` is the
    /// merged structure's coverage. Per-start counters stay available in
    /// [`GenerationReport::per_start`].
    pub explorer: ExplorerStats,
    /// Explorer starts that contributed (1 for the paper's single-walk
    /// generation).
    pub starts: usize,
    /// Per-start explorer counters, in start order. These are
    /// thread-count independent: the same seeds produce the same entries
    /// whether the starts ran serially or in parallel.
    pub per_start: Vec<ExplorerStats>,
    /// Time per generation phase.
    pub phases: PhaseTimings,
}

/// Where generation time went, by phase. Each phase is summed over the
/// explorer starts, so with several threads the sum can exceed the
/// wall-clock [`GenerationReport::duration`].
///
/// On one thread, the duration minus the four phases is the explorer's
/// own bookkeeping, which no phase times: drawing the initial and restart
/// placements, perturbation, the coverage check before every proposal,
/// the Metropolis step, and, after the walks, the fallback-template pick
/// and the one build of the interval rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Placement expansion (§3.1.2), with legalization and compaction.
    pub expansion: Duration,
    /// BDIO range optimization and costing (§3.2).
    pub bdio: Duration,
    /// Resolve Overlaps and Store Placement inside the walks (§3.1.3).
    pub resolve_store: Duration,
    /// The serial multi-start merge (zero for a single start).
    pub merge: Duration,
}

impl std::ops::AddAssign for PhaseTimings {
    fn add_assign(&mut self, other: Self) {
        self.expansion += other.expansion;
        self.bdio += other.bdio;
        self.resolve_store += other.resolve_store;
        self.merge += other.merge;
    }
}

/// The one-time generator (Fig. 1a): runs the nested annealer over a
/// circuit and returns the filled structure.
///
/// # Example
///
/// ```
/// use mps_core::{GeneratorConfig, MpsGenerator};
/// use mps_netlist::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = benchmarks::circ01();
/// let config = GeneratorConfig::builder()
///     .outer_iterations(30)
///     .inner_iterations(30)
///     .build();
/// let (structure, report) = MpsGenerator::new(&circuit, config).generate_with_report()?;
/// assert_eq!(report.placements, structure.placement_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MpsGenerator<'a> {
    circuit: &'a Circuit,
    config: GeneratorConfig,
    symmetry: Option<&'a SymmetryConstraints>,
}

impl<'a> MpsGenerator<'a> {
    /// Creates a generator for one circuit topology.
    #[must_use]
    pub fn new(circuit: &'a Circuit, config: GeneratorConfig) -> Self {
        Self {
            circuit,
            config,
            symmetry: None,
        }
    }

    /// Installs symmetry constraints into the (customizable) cost function;
    /// give [`CostWeights::symmetry`] a positive weight to activate them.
    #[must_use]
    pub fn with_symmetry(mut self, symmetry: &'a SymmetryConstraints) -> Self {
        self.symmetry = Some(symmetry);
        self
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Runs the generation algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateError::InvalidCircuit`] if the circuit fails
    /// validation.
    pub fn generate(&self) -> Result<MultiPlacementStructure, GenerateError> {
        self.generate_with_report().map(|(s, _)| s)
    }

    /// Runs the generation algorithm and reports timing and counters.
    ///
    /// # Errors
    ///
    /// Returns [`GenerateError::InvalidCircuit`] if the circuit fails
    /// validation.
    pub fn generate_with_report(
        &self,
    ) -> Result<(MultiPlacementStructure, GenerationReport), GenerateError> {
        self.circuit.validate()?;
        let start = Instant::now();
        let floorplan = self
            .circuit
            .suggested_floorplan(self.config.floorplan_slack);

        let mut phases = PhaseTimings::default();
        let (mut mps, per_start, explorer_stats) = if self.config.num_starts > 1 {
            crate::parallel::generate_multi_start(
                self.circuit,
                &self.config,
                self.symmetry,
                floorplan,
                &mut phases,
            )
        } else {
            let mut mps = MultiPlacementStructure::new(self.circuit, floorplan);
            let mut calc = CostCalculator::new(self.circuit)
                .with_weights(self.config.weights)
                .with_floorplan(floorplan);
            if let Some(sym) = self.symmetry {
                calc = calc.with_symmetry(sym);
            }
            let bdio = Bdio::new(&calc, self.config.bdio);
            let explorer_stats = explore(
                self.circuit,
                &mut mps,
                &bdio,
                &self.config.expansion,
                &self.config.explorer,
                self.config.seed,
                &mut phases,
            );
            (mps, vec![explorer_stats], explorer_stats)
        };

        // §3.1.4: map the uncovered remainder of the space to a
        // template-like placement for backup purposes. Prefer freezing the
        // best stored placement; fall back to a fresh expert search for
        // empty structures.
        let fallback = mps
            .iter()
            .min_by(|a, b| a.1.best_cost.total_cmp(&b.1.best_cost))
            .map(|(_, e)| Template::from_placement(&e.placement, &e.best_dims))
            .unwrap_or_else(|| {
                Template::expert_default(self.circuit, self.config.fallback_effort_log2)
            });
        mps.set_fallback(fallback);
        // Build the rows here, so the reported duration covers them.
        mps.rows();

        let report = GenerationReport {
            duration: start.elapsed(),
            placements: mps.placement_count(),
            coverage: mps.coverage(),
            explorer: explorer_stats,
            // per_start.len(), not config.num_starts: pub-field configs
            // can bypass the builder's >= 1 validation, and the report
            // must describe what actually ran.
            starts: per_start.len(),
            per_start,
            phases,
        };
        Ok((mps, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_netlist::benchmarks;

    fn quick_config(seed: u64) -> GeneratorConfig {
        GeneratorConfig::builder()
            .outer_iterations(40)
            .inner_iterations(40)
            .seed(seed)
            .build()
    }

    #[test]
    fn generates_valid_structure_for_circ01() {
        let circuit = benchmarks::circ01();
        let (mps, report) = MpsGenerator::new(&circuit, quick_config(1))
            .generate_with_report()
            .unwrap();
        assert!(report.placements > 0);
        assert_eq!(report.placements, mps.placement_count());
        assert!(report.coverage > 0.0);
        assert!(report.duration.as_nanos() > 0);
        let phases = report.phases;
        assert!(phases.expansion > Duration::ZERO && phases.bdio > Duration::ZERO);
        assert!(phases.resolve_store > Duration::ZERO);
        assert_eq!(phases.merge, Duration::ZERO, "a single start has no merge");
        assert!(phases.expansion + phases.bdio + phases.resolve_store <= report.duration);
        mps.check_invariants().unwrap();
        assert!(mps.fallback().is_some());
    }

    #[test]
    fn fallback_serves_whole_space() {
        let circuit = benchmarks::circ01();
        let mps = MpsGenerator::new(&circuit, quick_config(2))
            .generate()
            .unwrap();
        for dims in [circuit.min_dims(), circuit.max_dims()] {
            let p = mps.instantiate_or_fallback(&dims);
            assert!(p.is_legal(&dims, None));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let circuit = benchmarks::circ01();
        let (a, ra) = MpsGenerator::new(&circuit, quick_config(9))
            .generate_with_report()
            .unwrap();
        let (b, rb) = MpsGenerator::new(&circuit, quick_config(9))
            .generate_with_report()
            .unwrap();
        assert_eq!(ra.placements, rb.placements);
        assert_eq!(ra.explorer, rb.explorer);
        assert_eq!(a.placement_count(), b.placement_count());
    }

    #[test]
    fn builder_validates() {
        assert!(std::panic::catch_unwind(|| {
            GeneratorConfig::builder().coverage_target(0.0).build()
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            GeneratorConfig::builder().perturb_fraction(1.5).build()
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            GeneratorConfig::builder().floorplan_slack(0.9).build()
        })
        .is_err());
    }

    #[test]
    fn ablation_flags_propagate() {
        let config = GeneratorConfig::builder()
            .optimize_ranges(false)
            .fork_on_containment(false)
            .build();
        assert!(!config.bdio.optimize_ranges);
        assert!(!config.explorer.fork_on_containment);
    }

    #[test]
    fn invalid_circuit_is_reported() {
        use mps_netlist::{Block, Circuit, Net, Pin};
        // Bypass builder validation by constructing net with dangling pin
        // through Circuit::new's Result (already validated) — instead make
        // an empty-block circuit impossible; so validate the error path via
        // a circuit that passes construction but is mutated… Circuits are
        // immutable, so exercise the From impl directly.
        let err: GenerateError = mps_netlist::ValidateCircuitError::NoBlocks.into();
        assert!(err.to_string().contains("invalid circuit"));
        let _ = (
            Block::new("x", 1, 2, 1, 2),
            Net::new("n", vec![Pin::center_of(0.into())]),
        );
        let _ = Circuit::builder("ok");
    }
}
