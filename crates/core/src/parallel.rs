//! Parallel multi-start generation.
//!
//! The one-time generation phase is embarrassingly parallel in the start
//! dimension: K independently seeded Placement-Explorer walks share
//! nothing but the (read-only) circuit, so they scale across cores with
//! no coordination. This module runs those walks on a scoped thread pool
//! and then merges their structures serially through the same
//! Resolve-Overlaps machinery the explorer itself uses (§3.1.3), so the
//! merged structure satisfies the Eq.-5 disjointness invariant by
//! construction.
//!
//! Determinism contract: every start's seed is a pure function of the
//! master seed and the start index ([`start_seed`]), starts are merged in
//! start order, and the merge itself is single-threaded — therefore the
//! generated structure is **bit-identical for every thread count**,
//! including `threads = 1`. Threads change wall-clock time only. The
//! regression suite in `tests/parallel.rs` pins this down.
//!
//! Entry point: set [`GeneratorConfig::num_starts`] (and optionally
//! [`GeneratorConfig::threads`]); [`crate::MpsGenerator`] routes any
//! config with more than one start through this module.
//!
//! ```
//! use mps_core::{GeneratorConfig, MpsGenerator};
//! use mps_netlist::benchmarks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = benchmarks::circ01();
//! let config = GeneratorConfig::builder()
//!     .outer_iterations(30)
//!     .inner_iterations(30)
//!     .num_starts(2)
//!     .threads(0) // one worker per core
//!     .seed(1)
//!     .build();
//! let (mps, report) = MpsGenerator::new(&circuit, config).generate_with_report()?;
//! assert_eq!(report.per_start.len(), 2);
//! mps.check_invariants().map_err(|e| e.to_string())?;
//! # Ok(())
//! # }
//! ```

use crate::explorer::{explore, ExplorerStats};
use crate::resolve::resolve_and_store;
use crate::{Bdio, GeneratorConfig, MultiPlacementStructure, PhaseTimings};
use mps_geom::Rect;
use mps_netlist::Circuit;
use mps_placer::{CostCalculator, SymmetryConstraints};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The RNG seed of one start: a SplitMix64 mix of the master seed and the
/// start index. Start 0 uses the master seed itself, so a multi-start run
/// walks exactly the same first trajectory as the equivalent single-start
/// run.
#[must_use]
pub fn start_seed(master_seed: u64, start: usize) -> u64 {
    if start == 0 {
        return master_seed;
    }
    let mut z = master_seed ^ (start as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker threads actually used for `starts` starts: the configured
/// count, with `0` resolving to the machine's available parallelism, and
/// never more threads than starts.
#[must_use]
pub fn effective_threads(configured: usize, starts: usize) -> usize {
    let threads = if configured == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        configured
    };
    threads.clamp(1, starts.max(1))
}

/// One start's raw output before merging.
pub(crate) struct StartOutcome {
    pub(crate) mps: MultiPlacementStructure,
    pub(crate) stats: ExplorerStats,
    pub(crate) timings: PhaseTimings,
}

/// Runs one independently seeded explorer walk into a fresh structure.
/// Single-start generation is start 0 alone.
pub(crate) fn run_one_start(
    circuit: &Circuit,
    config: &GeneratorConfig,
    symmetry: Option<&SymmetryConstraints>,
    floorplan: Rect,
    start: usize,
) -> StartOutcome {
    let mut mps = MultiPlacementStructure::new(circuit, floorplan);
    let mut calc = CostCalculator::new(circuit)
        .with_weights(config.weights)
        .with_floorplan(floorplan);
    if let Some(sym) = symmetry {
        calc = calc.with_symmetry(sym);
    }
    let bdio = Bdio::new(&calc, config.bdio);
    let mut timings = PhaseTimings::default();
    let stats = explore(
        circuit,
        &mut mps,
        &bdio,
        &config.expansion,
        &config.explorer,
        start_seed(config.seed, start),
        &mut timings,
    );
    StartOutcome {
        mps,
        stats,
        timings,
    }
}

/// Runs `config.num_starts` explorer walks (in parallel when
/// `config.threads` allows) and merges their structures in start order.
///
/// Returns the merged structure (without fallback — the generator
/// installs it), the per-start explorer counters, and the aggregate
/// counters including merge-time resolutions. The starts' phase timings
/// and the merge time are added to `timings`.
pub(crate) fn generate_multi_start(
    circuit: &Circuit,
    config: &GeneratorConfig,
    symmetry: Option<&SymmetryConstraints>,
    floorplan: Rect,
    timings: &mut PhaseTimings,
) -> (MultiPlacementStructure, Vec<ExplorerStats>, ExplorerStats) {
    let starts = config.num_starts;
    let threads = effective_threads(config.threads, starts);

    let outcomes: Vec<StartOutcome> = if threads <= 1 {
        (0..starts)
            .map(|i| run_one_start(circuit, config, symmetry, floorplan, i))
            .collect()
    } else {
        // Dynamic work queue: workers pull the next start index and write
        // the outcome into its slot, so scheduling order never affects the
        // (index-ordered) result.
        let slots: Mutex<Vec<Option<StartOutcome>>> =
            Mutex::new((0..starts).map(|_| None).collect());
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= starts {
                        break;
                    }
                    let outcome = run_one_start(circuit, config, symmetry, floorplan, i);
                    slots.lock().expect("no panics hold the lock")[i] = Some(outcome);
                });
            }
        });
        slots
            .into_inner()
            .expect("workers finished")
            .into_iter()
            .map(|slot| slot.expect("every start index was claimed"))
            .collect()
    };

    let merge_started = Instant::now();
    let merged = merge(circuit, config, floorplan, outcomes, timings);
    timings.merge += merge_started.elapsed();
    merged
}

/// Serially re-resolves every start's stored placements into one
/// structure. Entries flow through [`resolve_overlaps`] exactly as they
/// would during single-start generation, reusing each entry's recorded
/// BDIO costs — no placement is re-expanded or re-costed at merge time.
/// Start 0's entries are pairwise disjoint and would all be stored
/// unchanged into the empty structure, so the merge starts from start 0's
/// structure, compacted, instead of storing them one by one.
///
/// Aggregate-counter semantics (mirroring the single-start report):
/// `proposals`/`accepted`/`rejected_illegal` are exploration events and
/// sum over the starts; `boxes_stored` and the `stored_*` resolution
/// counters describe the construction of the **returned** structure — for
/// a merge that means the merge pass itself, not the per-start
/// structures, whose own counters stay visible in `per_start`.
fn merge(
    circuit: &Circuit,
    config: &GeneratorConfig,
    floorplan: Rect,
    outcomes: Vec<StartOutcome>,
    timings: &mut PhaseTimings,
) -> (MultiPlacementStructure, Vec<ExplorerStats>, ExplorerStats) {
    let mut aggregate = ExplorerStats::default();
    let mut per_start = Vec::with_capacity(outcomes.len());

    for outcome in &outcomes {
        aggregate.proposals += outcome.stats.proposals;
        aggregate.accepted += outcome.stats.accepted;
        aggregate.rejected_illegal += outcome.stats.rejected_illegal;
        per_start.push(outcome.stats);
        *timings += outcome.timings;
    }

    let mut outcomes = outcomes.into_iter();
    let mut merged = match outcomes.next() {
        Some(first) => {
            aggregate.boxes_stored += first.mps.placement_count();
            first.mps.into_compacted()
        }
        None => MultiPlacementStructure::new(circuit, floorplan),
    };
    for outcome in outcomes {
        for (_, entry) in outcome.mps.iter() {
            aggregate.boxes_stored += resolve_and_store(
                &mut merged,
                entry,
                config.explorer.fork_on_containment,
                &mut aggregate,
            );
        }
    }

    aggregate.final_coverage = merged.coverage();
    // Judged on the merged structure only: with fork-on-containment
    // disabled (ablation A3) a merge cut can discard covered space, so
    // every start reaching the target individually does not imply the
    // merged result did.
    aggregate.reached_target = aggregate.final_coverage >= config.explorer.coverage_target;
    (merged, per_start, aggregate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_zero_keeps_master_seed() {
        assert_eq!(start_seed(42, 0), 42);
        assert_eq!(start_seed(0, 0), 0);
    }

    #[test]
    fn start_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..32).map(|i| start_seed(7, i)).collect();
        let again: Vec<u64> = (0..32).map(|i| start_seed(7, i)).collect();
        assert_eq!(seeds, again);
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "colliding start seeds");
    }

    #[test]
    fn effective_threads_resolves_zero_and_caps_at_starts() {
        assert_eq!(effective_threads(3, 8), 3);
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(1, 1), 1);
        assert!(effective_threads(0, 64) >= 1);
        assert!(effective_threads(0, 2) <= 2);
        assert_eq!(effective_threads(5, 0), 1);
    }
}
