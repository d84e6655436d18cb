//! The Placement Explorer (§3.1): the outer simulated-annealing loop.
//!
//! The explorer walks placement space. Every proposal is a set of block
//! coordinates; evaluating it means *expanding* the blocks' dimension
//! ranges on the floorplan (§3.1.2), handing the expanded placement to the
//! BDIO for range optimization and costing (§3.2), resolving validity-box
//! overlaps against everything already stored (§3.1.3), and storing the
//! surviving boxes. The BDIO's *average* cost is the explorer's Metropolis
//! energy; acceptance decides which placement the next perturbation starts
//! from (§3.1.4). The loop stops when the user's coverage target is
//! reached or the iteration budget is exhausted.

use crate::resolve::resolve_and_store;
use crate::{Bdio, MultiPlacementStructure, PhaseTimings, StoredPlacement};
use mps_anneal::{metropolis, AdaptiveSchedule, Schedule};
use mps_geom::{Coord, Dims, DimsBox, Point, Rect};
use mps_netlist::Circuit;
use mps_placer::{expand_placement, ExpansionConfig, Placement, SequencePair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Tuning of the outer loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorerConfig {
    /// Maximum number of placement proposals.
    pub outer_iterations: usize,
    /// Stop once [`MultiPlacementStructure::coverage`] reaches this value
    /// (§3.1.4; 1.0 "can never be reached").
    pub coverage_target: f64,
    /// Fraction of blocks whose coordinates a perturbation moves —
    /// "based on a percentage value set by the user, a set number of
    /// blocks' x and y coordinates are randomly varied".
    pub perturb_fraction: f64,
    /// Initial Metropolis temperature (cost units).
    pub t0: f64,
    /// Final Metropolis temperature.
    pub t_end: f64,
    /// Whether Resolve Overlaps may fork boxes on strict containment
    /// (`false` only for the ablation study).
    pub fork_on_containment: bool,
    /// Attempts at drawing a random legal placement before falling back to
    /// a packed sequence pair.
    pub max_initial_tries: usize,
    /// Restart the walk from a fresh random placement every this many
    /// proposals (0 disables restarts). Restarts keep the explorer
    /// discovering *new* arrangements instead of repeatedly re-conquering
    /// the niche around the current optimum — without them the live
    /// placement count saturates long before the paper's 50–130 band.
    pub restart_interval: usize,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        Self {
            outer_iterations: 300,
            coverage_target: 0.95,
            perturb_fraction: 0.35,
            t0: 2_000.0,
            t_end: 1.0,
            fork_on_containment: true,
            max_initial_tries: 64,
            restart_interval: 48,
        }
    }
}

/// Counters reported by one exploration run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExplorerStats {
    /// Placement proposals evaluated.
    pub proposals: usize,
    /// Proposals accepted by the Metropolis rule.
    pub accepted: usize,
    /// Proposals rejected because they were illegal at minimum dimensions
    /// (expansion impossible).
    pub rejected_illegal: usize,
    /// Validity boxes stored into the structure (a proposal can contribute
    /// several after fork-producing resolutions, or none after losing
    /// everywhere).
    pub boxes_stored: usize,
    /// Stored placements shrunk while resolving overlaps.
    pub stored_shrunk: usize,
    /// Stored placements forked while resolving overlaps.
    pub stored_forked: usize,
    /// Stored placements annihilated while resolving overlaps.
    pub stored_annihilated: usize,
    /// Coverage when the loop stopped.
    pub final_coverage: f64,
    /// Whether the loop stopped because the coverage target was reached
    /// (as opposed to exhausting the iteration budget).
    pub reached_target: bool,
}

/// Runs the Placement Explorer, filling `mps`, and adds the time spent in
/// expansion, the BDIO and resolve-and-store to `timings`.
///
/// `bdio` must be configured over the same circuit/cost calculator the
/// structure serves.
pub(crate) fn explore(
    circuit: &Circuit,
    mps: &mut MultiPlacementStructure,
    bdio: &Bdio<'_>,
    expansion: &ExpansionConfig,
    config: &ExplorerConfig,
    seed: u64,
    timings: &mut PhaseTimings,
) -> ExplorerStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = ExplorerStats::default();
    let floorplan = mps.floorplan();
    let schedule = AdaptiveSchedule::new(
        config.t0.max(1e-9),
        config.t_end.clamp(1e-9, config.t0.max(1e-9)),
    );
    let min_dims = circuit.min_dims();

    // §3.1.1 Placement Selector: a random legal starting placement.
    let mut current = initial_placement(circuit, &floorplan, config.max_initial_tries, &mut rng);
    let mut current_cost = f64::INFINITY;

    for k in 0..config.outer_iterations {
        if mps.coverage() >= config.coverage_target {
            stats.reached_target = true;
            break;
        }
        let restart = config.restart_interval > 0 && k > 0 && k % config.restart_interval == 0;
        let candidate = if k == 0 {
            current.clone()
        } else if restart {
            // Periodic restart: jump to a fresh random placement and reset
            // the walk there (the cost baseline resets with it).
            current = initial_placement(circuit, &floorplan, config.max_initial_tries, &mut rng);
            current_cost = f64::INFINITY;
            current.clone()
        } else {
            perturb(
                &current,
                &min_dims,
                &floorplan,
                config.perturb_fraction,
                &mut rng,
            )
        };
        stats.proposals += 1;

        let expansion_started = Instant::now();
        let expanded = expand(circuit, candidate, &min_dims, &floorplan, expansion);
        timings.expansion += expansion_started.elapsed();
        let Some((candidate, expanded_box)) = expanded else {
            stats.rejected_illegal += 1;
            continue; // never accepted, current unchanged
        };

        // §3.2 Block Dimensions-Intervals Optimizer.
        let bdio_started = Instant::now();
        let bdio_seed = rng.random::<u64>();
        let result = bdio.optimize(&candidate, &expanded_box, bdio_seed);
        let proposal = StoredPlacement {
            placement: candidate,
            dims_box: result.reduced_box,
            avg_cost: result.avg_cost,
            best_cost: result.best_cost,
            best_dims: Dims::from_vec_unchecked(result.best_dims),
        };

        // §3.1.3 Resolve Overlaps, then Store Placement.
        let resolve_started = Instant::now();
        timings.bdio += resolve_started - bdio_started;
        stats.boxes_stored +=
            resolve_and_store(mps, &proposal, config.fork_on_containment, &mut stats);
        timings.resolve_store += resolve_started.elapsed();

        // Accept-New-Placement check (Metropolis on the BDIO average).
        let temperature = schedule.temperature(k, config.outer_iterations);
        let delta = proposal.avg_cost - current_cost;
        if metropolis(delta, temperature, &mut rng) {
            stats.accepted += 1;
            current = proposal.placement;
            current_cost = proposal.avg_cost;
        }
    }

    stats.final_coverage = mps.coverage();
    stats.reached_target |= stats.final_coverage >= config.coverage_target;
    stats
}

/// §3.1.2 Placement Expansion. A proposal that overlaps at minimum
/// dimensions is first legalized by a sequence-pair round-trip at minimum
/// dimensions (preserving its relative arrangement); `None` when that
/// still fails.
///
/// The expanded proposal is then compacted, a quality refinement over the
/// paper's bare algorithm: its relative arrangement is repacked at the
/// expanded box's upper corner, eliminating the whitespace random
/// proposals carry. Legality at the upper corner implies legality over
/// the whole box, so the invariant is untouched; re-expansion then grants
/// the compacted coordinates their own (usually larger) box. The raw
/// proposal is kept when the round-trip does not help.
fn expand(
    circuit: &Circuit,
    candidate: Placement,
    min_dims: &[(Coord, Coord)],
    floorplan: &Rect,
    expansion: &ExpansionConfig,
) -> Option<(Placement, DimsBox)> {
    let (candidate, first_box) = match expand_placement(circuit, &candidate, floorplan, expansion) {
        Ok(b) => (candidate, b),
        Err(_) => {
            let packed = SequencePair::from_placement(&candidate, min_dims).pack(min_dims);
            let b = expand_placement(circuit, &packed, floorplan, expansion).ok()?;
            (packed, b)
        }
    };
    Some(
        compact(circuit, &candidate, &first_box, floorplan, expansion)
            .unwrap_or((candidate, first_box)),
    )
}

/// Repacks `candidate`'s relative arrangement at the expanded box's upper
/// corner and re-expands. Returns `None` when the round-trip fails to
/// produce a legal floorplan (extraction is heuristic).
fn compact(
    circuit: &Circuit,
    candidate: &Placement,
    expanded_box: &DimsBox,
    floorplan: &Rect,
    expansion: &ExpansionConfig,
) -> Option<(Placement, DimsBox)> {
    let top: Vec<(Coord, Coord)> = expanded_box
        .ranges()
        .iter()
        .map(|r| (r.w.hi(), r.h.hi()))
        .collect();
    let packed = SequencePair::from_placement(candidate, &top).pack(&top);
    if !packed.is_legal(&top, Some(floorplan)) {
        return None;
    }
    let rebox = expand_placement(circuit, &packed, floorplan, expansion).ok()?;
    Some((packed, rebox))
}

/// Draws a random placement that is legal at minimum dimensions; falls
/// back to packing a random sequence pair (always legal) when random
/// scatter keeps colliding.
fn initial_placement(
    circuit: &Circuit,
    floorplan: &Rect,
    max_tries: usize,
    rng: &mut StdRng,
) -> Placement {
    let min_dims = circuit.min_dims();
    for _ in 0..max_tries {
        let candidate = random_placement(&min_dims, floorplan, rng);
        if candidate.is_legal(&min_dims, Some(floorplan)) {
            return candidate;
        }
    }
    // Fallback: packed sequence pairs are overlap-free by construction;
    // keep drawing until one fits the floorplan (a row of minima may not).
    for _ in 0..max_tries {
        let packed = SequencePair::random(circuit.block_count(), rng).pack(&min_dims);
        if packed.is_legal(&min_dims, Some(floorplan)) {
            return packed;
        }
    }
    // Last resort: the row template (legal unless the floorplan is too
    // small for the circuit at minimum dimensions, which `suggested_floorplan`
    // prevents).
    SequencePair::row(circuit.block_count()).pack(&min_dims)
}

fn random_placement(min_dims: &[(Coord, Coord)], floorplan: &Rect, rng: &mut StdRng) -> Placement {
    let coords = min_dims
        .iter()
        .map(|&(w, h)| {
            let x_max = (floorplan.right() - w).max(floorplan.left());
            let y_max = (floorplan.top() - h).max(floorplan.bottom());
            Point::new(
                rng.random_range(floorplan.left()..=x_max),
                rng.random_range(floorplan.bottom()..=y_max),
            )
        })
        .collect();
    Placement::new(coords)
}

/// §3.1.4 Perturb Placement: randomly vary the coordinates of a fraction
/// of the blocks; out-of-bound variations wrap to the opposite side of the
/// floorplan ("an out-of-bound coordinate variation is not discarded but
/// used to shift the block back to the opposite side").
fn perturb(
    placement: &Placement,
    min_dims: &[(Coord, Coord)],
    floorplan: &Rect,
    fraction: f64,
    rng: &mut StdRng,
) -> Placement {
    let n = placement.block_count();
    let moves = ((n as f64 * fraction).ceil() as usize).clamp(1, n);
    let mut next = placement.clone();
    let span = (floorplan.width() / 3).max(1);
    for _ in 0..moves {
        let i = rng.random_range(0..n);
        let (w, h) = min_dims[i];
        let p = next.coords()[i];
        let dx = rng.random_range(-span..=span);
        let dy = rng.random_range(-span..=span);
        next.coords_mut()[i] = Point::new(
            wrap(p.x + dx, floorplan.left(), floorplan.right() - w),
            wrap(p.y + dy, floorplan.bottom(), floorplan.top() - h),
        );
    }
    next
}

fn wrap(v: Coord, lo: Coord, hi: Coord) -> Coord {
    if hi <= lo {
        return lo;
    }
    let span = hi - lo + 1;
    let mut off = (v - lo) % span;
    if off < 0 {
        off += span;
    }
    lo + off
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BdioConfig;
    use mps_netlist::benchmarks;
    use mps_placer::CostCalculator;

    fn run_explorer(
        circuit: &Circuit,
        outer: usize,
        seed: u64,
    ) -> (MultiPlacementStructure, ExplorerStats) {
        let floorplan = circuit.suggested_floorplan(1.5);
        let mut mps = MultiPlacementStructure::new(circuit, floorplan);
        let calc = CostCalculator::new(circuit).with_floorplan(floorplan);
        let bdio = Bdio::new(
            &calc,
            BdioConfig {
                iterations: 60,
                ..Default::default()
            },
        );
        let config = ExplorerConfig {
            outer_iterations: outer,
            coverage_target: 0.99,
            ..Default::default()
        };
        let stats = explore(
            circuit,
            &mut mps,
            &bdio,
            &ExpansionConfig::default(),
            &config,
            seed,
            &mut PhaseTimings::default(),
        );
        (mps, stats)
    }

    #[test]
    fn explorer_fills_structure_and_keeps_invariants() {
        let circuit = benchmarks::circ01();
        let (mps, stats) = run_explorer(&circuit, 60, 1);
        assert!(stats.proposals > 0);
        assert!(mps.placement_count() > 0, "stats: {stats:?}");
        mps.check_invariants().unwrap();
        assert!(stats.final_coverage > 0.0);
    }

    #[test]
    fn explorer_is_deterministic_per_seed() {
        let circuit = benchmarks::circ01();
        let (a, sa) = run_explorer(&circuit, 30, 5);
        let (b, sb) = run_explorer(&circuit, 30, 5);
        assert_eq!(sa, sb);
        assert_eq!(a.placement_count(), b.placement_count());
    }

    #[test]
    fn bigger_budget_stores_more_boxes() {
        // Volume coverage itself is NOT monotone: the paper's
        // one-dimensional shrink rule can annihilate a stored region whose
        // remainder the winner does not cover (that abandoned space falls
        // through to the fallback template). The box count and proposal
        // counters, however, must grow with the budget.
        let circuit = benchmarks::circ01();
        let (_, small) = run_explorer(&circuit, 10, 2);
        let (_, large) = run_explorer(&circuit, 120, 2);
        assert!(large.proposals > small.proposals);
        assert!(
            large.boxes_stored >= small.boxes_stored,
            "boxes stored should not shrink: {} -> {}",
            small.boxes_stored,
            large.boxes_stored
        );
        assert!(large.final_coverage > 0.0);
    }

    #[test]
    fn queries_inside_coverage_return_entries() {
        let circuit = benchmarks::circ01();
        let (mps, _) = run_explorer(&circuit, 80, 3);
        // Every stored entry must be retrievable at its own best dims.
        for (id, entry) in mps.iter() {
            let got = mps.query(&entry.best_dims);
            assert_eq!(got, Some(id), "entry {id:?} not returned at its best dims");
        }
    }

    #[test]
    fn instantiations_are_legal_for_random_queries() {
        let circuit = benchmarks::circ02();
        let (mps, _) = run_explorer(&circuit, 60, 7);
        let mut rng = StdRng::seed_from_u64(99);
        let bounds = circuit.dim_bounds();
        for _ in 0..200 {
            let dims: Dims = bounds
                .iter()
                .map(|b| {
                    (
                        rng.random_range(b.w.lo()..=b.w.hi()),
                        rng.random_range(b.h.lo()..=b.h.hi()),
                    )
                })
                .collect();
            if let Some(p) = mps.instantiate(&dims) {
                assert!(
                    p.is_legal(&dims, Some(&mps.floorplan())),
                    "illegal instantiation for {dims:?}"
                );
            }
        }
    }

    #[test]
    fn wrap_behaves_at_boundaries() {
        assert_eq!(wrap(12, 0, 9), 2);
        assert_eq!(wrap(-3, 0, 9), 7);
        assert_eq!(wrap(4, 4, 4), 4);
        assert_eq!(wrap(9, 5, 2), 5);
    }

    #[test]
    fn initial_placement_is_always_legal() {
        let circuit = benchmarks::single_ended_opamp();
        let fp = circuit.suggested_floorplan(1.4);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            let p = initial_placement(&circuit, &fp, 16, &mut rng);
            assert!(p.is_legal(&circuit.min_dims(), Some(&fp)));
        }
    }
}
