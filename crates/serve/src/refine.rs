//! Traffic-adaptive refinement: closing the loop from serving
//! telemetry back into structure generation.
//!
//! The paper's economics are *generate once, query many*; the telemetry
//! layer (PR 8) records *where* the many queries actually land — the
//! per-structure query-dimension heatmaps of
//! [`crate::telemetry::StructureHeat`]. This module spends idle
//! background cycles turning that signal into better structures:
//!
//! 1. **Select** — snapshot every structure's heat grid and pick the
//!    hottest one whose traffic *concentrates*: per block axis, find
//!    the smallest contiguous bin window holding ≥ 80% of the observed
//!    mass; if the windows average at most half the grid, the traffic
//!    has a detectable hot region worth spending anneal cycles on
//!    (uniform traffic needs ~7 of 8 bins and is skipped — refining
//!    everywhere is what initial generation already did).
//! 2. **Re-anneal** — invert the hot bin windows back into a
//!    dims-space region and run [`mps_core::refine_region`]: the
//!    deterministic parallel multi-start machinery explores *inside
//!    the region only* and merges into a copy of the live structure
//!    under the same Resolve Overlaps discipline generation uses.
//! 3. **Verify + compare** — the candidate must pass the full
//!    invariant battery (`check_invariants` inside `refine_region`,
//!    `CompiledQueryIndex::verify_against` via
//!    [`ServedStructure::try_from_structure`]) and must *strictly
//!    improve* the instantiated-placement cost (bounding-box area of
//!    the served placement) over a deterministic probe set drawn from
//!    the hot region. No improvement, no publish.
//! 4. **Commit** — generation check, artifact persist (atomic — temp
//!    file + fsync + rename), and registry swap run as one unit under
//!    the registry commit lock shared with `reload`
//!    ([`StructureRegistry::publish_if_generation`]): a pass whose base
//!    snapshot a concurrent reload replaced mid-anneal is rejected
//!    *before* it touches the artifact file, and a persist failure
//!    rejects the pass before the publish — disk and memory never
//!    diverge, and a rejected pass never clobbers an operator's fresher
//!    artifact. After the swap the answer cache is invalidated (publish
//!    deliberately does not touch caches; the ordering mirrors
//!    [`Server::reload`]). Restarts keep the improvement.
//!
//! Passes are serialized by a run lock (two concurrent triggers cannot
//! lose each other's publish); the commit itself is a compare-and-swap
//! on the registry generation, so reload always wins over a pass it
//! overlapped.

use crate::registry::ServedStructure;
use crate::server::Server;
use crate::telemetry::{HeatSnapshot, HEAT_BINS};
use mps_core::{GeneratorConfig, MultiPlacementStructure};
use mps_geom::{BlockRanges, Dims, Interval};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// Minimum recorded vectors before a structure's heat grid is trusted
/// to describe its traffic.
const MIN_HEAT_TOTAL: u64 = 32;

/// Fraction of an axis's observed mass the hot window must hold.
const HOT_MASS_NUM: u64 = 4;
/// Denominator of the hot-mass fraction (4/5 = 80%).
const HOT_MASS_DEN: u64 = 5;

/// A structure counts as concentrated when its per-axis hot windows
/// average at most this many of the [`HEAT_BINS`] bins. Uniform traffic
/// needs ~7 of 8 bins for 80% mass and is correctly skipped.
const MAX_MEAN_WINDOW_BINS: f64 = (HEAT_BINS / 2) as f64;

/// Deterministic probe vectors drawn from the hot region for the
/// before/after instantiated-placement cost comparison.
const COST_PROBES: u64 = 64;

/// Multi-start walks per refinement pass.
const REFINE_STARTS: usize = 4;
/// Outer annealing iterations per walk — a fraction of a full
/// generation budget; refinement is meant to run continuously, not to
/// redo the offline work in one pass.
const REFINE_OUTER: usize = 80;
/// Inner annealing iterations per outer step.
const REFINE_INNER: usize = 40;

/// Counters behind the `refinement` block of the `metrics` and
/// `refine` status responses. All monotone atomics plus the name of the
/// structure the last pass targeted.
#[derive(Debug, Default)]
pub(crate) struct RefineStats {
    /// Passes that selected a candidate and ran the anneal.
    pub attempted: AtomicU64,
    /// Passes whose candidate was published.
    pub accepted: AtomicU64,
    /// Passes whose candidate was discarded (no gain, verify failure,
    /// persist failure, generation race).
    pub rejected: AtomicU64,
    /// Hot-set cost improvement of the last accepted pass, in parts per
    /// million of the pre-refinement cost.
    pub last_gain_ppm: AtomicU64,
    /// Registry generation of the last accepted publish.
    pub last_generation: AtomicU64,
    /// The structure the most recent pass targeted.
    pub active: Mutex<Option<String>>,
    /// Serializes passes: concurrent triggers queue instead of racing
    /// each other's read-anneal-publish cycle.
    run_lock: Mutex<()>,
}

/// What one refinement pass concluded.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RefineOutcome {
    /// Nothing worth refining: no heat, no concentration, or an unknown
    /// target.
    NoCandidate {
        /// Why no pass ran.
        reason: String,
    },
    /// A candidate was annealed but discarded.
    Rejected {
        /// The structure the pass targeted.
        structure: String,
        /// Why the candidate was discarded.
        reason: String,
    },
    /// A candidate was published (and persisted when the structure has
    /// a backing artifact).
    Accepted {
        /// The refined structure.
        structure: String,
        /// Hot-set probe cost before the pass.
        cost_before: u64,
        /// Hot-set probe cost of the published candidate.
        cost_after: u64,
        /// Improvement in parts per million of `cost_before`.
        gain_ppm: u64,
        /// Registry generation after the publish.
        generation: u64,
    },
}

/// The hot region of one structure, recovered from its heat snapshot:
/// one narrowed range per block axis, plus how concentrated the traffic
/// is (mean hot-window width in bins — smaller is more concentrated).
#[derive(Debug)]
struct HotRegion {
    region: Vec<BlockRanges>,
    mean_window_bins: f64,
}

/// The smallest contiguous bin window holding at least 80% of `bins`'s
/// mass, as an inclusive `(first, last)` pair. Returns the full grid
/// when the axis recorded nothing.
fn hot_window(bins: &[u64; HEAT_BINS]) -> (usize, usize) {
    let total: u64 = bins.iter().sum();
    if total == 0 {
        return (0, HEAT_BINS - 1);
    }
    // `need` rounds up: windows must hold >= 80% exactly.
    let need = (total * HOT_MASS_NUM).div_ceil(HOT_MASS_DEN);
    let mut best = (0, HEAT_BINS - 1);
    let mut best_len = HEAT_BINS + 1;
    for lo in 0..HEAT_BINS {
        let mut mass = 0;
        for (hi, &bin) in bins.iter().enumerate().skip(lo) {
            mass += bin;
            if mass >= need {
                let len = hi - lo + 1;
                if len < best_len {
                    best = (lo, hi);
                    best_len = len;
                }
                break;
            }
        }
    }
    best
}

/// Inverts an inclusive bin window back into the value range it covers
/// under the [`crate::telemetry`] binning `(v - lo) * HEAT_BINS / span`
/// (floor division): bin `b` holds exactly the values in
/// `[lo + ceil(b * span / 8), lo + ceil((b + 1) * span / 8) - 1]`.
fn window_to_range(axis: &Interval, first: usize, last: usize) -> Interval {
    let lo = i128::from(axis.lo());
    let hi = i128::from(axis.hi());
    let span = hi - lo + 1;
    let bins = HEAT_BINS as i128;
    // Manual ceiling division: `i128::div_ceil` is not stable yet, and
    // both operands are non-negative here (`b >= 0`, `span >= 1`).
    let edge = |b: i128| lo + (b * span + bins - 1) / bins;
    let range_lo = edge(first as i128).clamp(lo, hi);
    let range_hi = (edge(last as i128 + 1) - 1).clamp(range_lo, hi);
    #[allow(clippy::cast_possible_truncation)]
    Interval::new(range_lo as i64, range_hi as i64)
}

/// Recovers the hot dims-space region of one structure from its heat
/// snapshot. Returns `None` when the snapshot has too little traffic to
/// trust.
fn hot_region(structure: &MultiPlacementStructure, heat: &HeatSnapshot) -> Option<HotRegion> {
    if heat.total < MIN_HEAT_TOTAL || heat.blocks.len() != structure.block_count() {
        return None;
    }
    let mut region = Vec::with_capacity(heat.blocks.len());
    let mut window_bins = 0usize;
    for (bounds, (w_bins, h_bins)) in structure.bounds().iter().zip(&heat.blocks) {
        let (w_first, w_last) = hot_window(w_bins);
        let (h_first, h_last) = hot_window(h_bins);
        window_bins += (w_last - w_first + 1) + (h_last - h_first + 1);
        region.push(BlockRanges::new(
            window_to_range(&bounds.w, w_first, w_last),
            window_to_range(&bounds.h, h_first, h_last),
        ));
    }
    #[allow(clippy::cast_precision_loss)]
    let mean_window_bins = window_bins as f64 / (heat.blocks.len() * 2) as f64;
    Some(HotRegion {
        region,
        mean_window_bins,
    })
}

/// SplitMix64 step — the same mixer the deterministic multi-start
/// seeding uses; good enough to scatter cost probes over a region
/// without pulling a random-number dependency into the serve crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value drawn uniformly from `interval` by `rng`.
fn sample(interval: &Interval, rng: &mut u64) -> i64 {
    let span = interval.len();
    if span <= 1 {
        return interval.lo();
    }
    #[allow(clippy::cast_possible_wrap)]
    let offset = (splitmix64(rng) % span) as i64;
    interval.lo() + offset
}

/// The deterministic hot-set probe vectors for one region: the same
/// region and seed always produce the same probes, so the before/after
/// comparison is apples to apples.
fn probe_set(region: &[BlockRanges], seed: u64) -> Vec<Dims> {
    let mut rng = seed;
    (0..COST_PROBES)
        .map(|_| {
            region
                .iter()
                .map(|r| (sample(&r.w, &mut rng), sample(&r.h, &mut rng)))
                .collect()
        })
        .collect()
}

/// The instantiated-placement cost of `structure` over `probes`: the
/// summed bounding-box area of the placement serving each probe (the
/// stored entry inside coverage, the fallback packing outside — exactly
/// what an `instantiate` request would return). Smaller is better:
/// tighter boxes mean less dead space around the hot dimension vectors.
fn hot_set_cost(structure: &MultiPlacementStructure, probes: &[Dims]) -> u64 {
    probes
        .iter()
        .map(|dims| {
            let placement = structure.instantiate_or_fallback(dims);
            placement.bounding_box(dims).map_or(0, |bbox| bbox.area())
        })
        .fold(0u64, u64::saturating_add)
}

/// Picks the refinement target: the structure with the most recorded
/// heat among those whose traffic concentrates (see the module docs),
/// or the explicitly requested one.
fn select_candidate(
    server: &Server,
    target: Option<&str>,
) -> Result<(Arc<ServedStructure>, HotRegion), String> {
    let snapshot = server.telemetry().heat_snapshot();
    let candidate_for = |name: &str| -> Result<(Arc<ServedStructure>, HotRegion), String> {
        let served = server
            .registry()
            .get(name)
            .ok_or_else(|| format!("no structure `{name}` in the registry"))?;
        let heat = snapshot
            .get(name)
            .ok_or_else(|| format!("structure `{name}` has recorded no traffic yet"))?;
        let hot = hot_region(served.structure(), heat).ok_or_else(|| {
            format!(
                "structure `{name}` has under {MIN_HEAT_TOTAL} recorded vectors; \
                 not enough signal to refine"
            )
        })?;
        Ok((served, hot))
    };
    if let Some(name) = target {
        // An explicit target skips the concentration gate: the operator
        // asked for this structure, so a wide region is still honored.
        return candidate_for(name);
    }
    let mut names: Vec<(&String, u64)> = snapshot.iter().map(|(n, h)| (n, h.total)).collect();
    // Hottest first; name order breaks ties deterministically.
    names.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    for (name, _) in names {
        let Ok((served, hot)) = candidate_for(name) else {
            continue;
        };
        if hot.mean_window_bins <= MAX_MEAN_WINDOW_BINS {
            return Ok((served, hot));
        }
    }
    Err(format!(
        "no structure has >= {MIN_HEAT_TOTAL} recorded vectors concentrated in a \
         detectable region (mean hot window <= {MAX_MEAN_WINDOW_BINS} of {HEAT_BINS} bins)"
    ))
}

/// Runs one refinement pass: select, re-anneal, verify, compare,
/// persist, publish. Synchronous — the `refine` protocol request runs
/// it on a worker-pool thread, the background worker on its own thread.
pub(crate) fn run_pass(server: &Server, target: Option<&str>) -> RefineOutcome {
    let stats = server.refine_stats();
    let _serialized = crate::lock_recover(&stats.run_lock);
    let (served, hot) = match select_candidate(server, target) {
        Ok(candidate) => candidate,
        Err(reason) => return RefineOutcome::NoCandidate { reason },
    };
    let name = served.name().to_owned();
    let attempt = stats.attempted.fetch_add(1, Ordering::Relaxed);
    *crate::lock_recover(&stats.active) = Some(name.clone());
    let base_generation = server.registry().generation();

    // Deterministic per-attempt seeding: every pass explores new walks
    // (a rejected region would otherwise be re-annealed identically
    // forever), yet any single pass is exactly reproducible from the
    // attempt counter.
    let seed = 0x5EED_0EF1u64 ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // The anneal runs beside the serving workers, so it never takes
    // more threads than the pool itself has: a one-worker server
    // refines single-threaded instead of competing two-against-one.
    let threads = server.config().workers.clamp(1, 2);
    let config = GeneratorConfig::builder()
        .outer_iterations(REFINE_OUTER)
        .inner_iterations(REFINE_INNER)
        .num_starts(REFINE_STARTS)
        .threads(threads)
        .seed(seed)
        .build();
    let probes = probe_set(&hot.region, seed);
    let cost_before = hot_set_cost(served.structure(), &probes);

    let reject = |reason: String| {
        stats.rejected.fetch_add(1, Ordering::Relaxed);
        RefineOutcome::Rejected {
            structure: name.clone(),
            reason,
        }
    };
    let (candidate, _report) =
        match mps_core::refine_region(served.structure(), &hot.region, &config) {
            Ok(refined) => refined,
            Err(e) => return reject(format!("region re-anneal failed: {e}")),
        };
    let cost_after = hot_set_cost(&candidate, &probes);
    if cost_after >= cost_before {
        return reject(format!(
            "no hot-set gain (cost {cost_after} vs {cost_before} over {COST_PROBES} probes)"
        ));
    }
    // try_from_structure runs the compiled/interpretive cross-check
    // (`verify_against`) — the same battery a reload would apply.
    let rebuilt = match ServedStructure::try_from_structure(name.clone(), candidate) {
        Ok(rebuilt) => rebuilt,
        Err(e) => return reject(format!("candidate failed index verification: {e}")),
    };
    let rebuilt = match served.path() {
        Some(path) => rebuilt.with_path(path.to_path_buf()),
        None => rebuilt,
    };
    // Commit: generation check, artifact persist, and snapshot swap run
    // as one unit under the registry commit lock (shared with
    // `Server::reload`). A pass whose base snapshot a concurrent reload
    // replaced mid-anneal is rejected *before* the persist, so it can
    // never overwrite the operator's fresher artifact with a candidate
    // annealed from pre-reload data; a persist failure rejects the pass
    // before the publish, so disk and memory never diverge. The write
    // itself is atomic (temp file + fsync + rename), so a crash
    // mid-write cannot corrupt the serving directory either.
    let committed =
        server
            .registry()
            .publish_if_generation(base_generation, rebuilt, |candidate| {
                let Some(path) = candidate.path() else {
                    return Ok(());
                };
                if path.extension().is_some_and(|e| e == "mpsb") {
                    candidate.structure().save_bin(path)
                } else {
                    candidate.structure().save_json(path)
                }
            });
    let generation = match committed {
        Err(e) => return reject(format!("persisting refined artifact failed: {e}")),
        Ok(None) => {
            // The next interval re-anneals from the new base.
            return reject(format!(
                "registry generation moved during the pass (base {base_generation}, now {})",
                server.registry().generation()
            ));
        }
        Ok(Some(generation)) => generation,
    };
    // Invalidate AFTER the swap, mirroring Server::reload: an answer
    // computed against the old snapshot either lands before this clear
    // (and is cleared) or fails the cache's generation check.
    server.cache().invalidate_all();
    let gain_ppm = (cost_before - cost_after).saturating_mul(1_000_000) / cost_before.max(1);
    stats.accepted.fetch_add(1, Ordering::Relaxed);
    stats.last_gain_ppm.store(gain_ppm, Ordering::Relaxed);
    stats.last_generation.store(generation, Ordering::Relaxed);
    RefineOutcome::Accepted {
        structure: name,
        cost_before,
        cost_after,
        gain_ppm,
        generation,
    }
}

/// The background refinement worker: wakes every `interval`, runs one
/// pass, and exits when the server is dropped (it holds only a weak
/// reference). Sleeps in short slices so shutdown never waits out a
/// long interval.
pub(crate) fn worker_loop(server: &Weak<Server>, interval: Duration) {
    const SLICE: Duration = Duration::from_millis(100);
    loop {
        let mut remaining = interval;
        while remaining > Duration::ZERO {
            let nap = remaining.min(SLICE);
            std::thread::sleep(nap);
            remaining = remaining.saturating_sub(nap);
            if server.strong_count() == 0 {
                return;
            }
        }
        let Some(server) = server.upgrade() else {
            return;
        };
        // Outcomes are recorded in the refinement counters; the worker
        // itself is fire-and-forget.
        let _ = run_pass(&server, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_window_finds_the_smallest_covering_window() {
        // All mass in one bin.
        let mut bins = [0u64; HEAT_BINS];
        bins[3] = 100;
        assert_eq!(hot_window(&bins), (3, 3));
        // 90% in bins 2-3, the rest scattered: the window stays tight.
        let bins = [2, 2, 45, 45, 2, 2, 1, 1];
        assert_eq!(hot_window(&bins), (2, 3));
        // Uniform traffic needs 7 of 8 bins for 80%.
        let bins = [10u64; HEAT_BINS];
        let (lo, hi) = hot_window(&bins);
        assert_eq!(hi - lo + 1, 7);
        // An idle axis yields the full grid.
        assert_eq!(hot_window(&[0; HEAT_BINS]), (0, HEAT_BINS - 1));
    }

    #[test]
    fn window_inversion_matches_the_forward_binning() {
        // Every value of the axis must fall inside the range recovered
        // for its own bin — for spans smaller and larger than the grid.
        for (lo, hi) in [(10i64, 17i64), (1, 100), (5, 5), (0, 7), (-20, 43)] {
            let axis = Interval::new(lo, hi);
            for v in lo..=hi {
                let span = i128::from(hi) - i128::from(lo) + 1;
                let offset = i128::from(v) - i128::from(lo);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let bin =
                    (offset * HEAT_BINS as i128 / span).clamp(0, HEAT_BINS as i128 - 1) as usize;
                let range = window_to_range(&axis, bin, bin);
                assert!(
                    range.contains(v),
                    "value {v} of [{lo},{hi}] escaped its bin-{bin} range {range:?}"
                );
            }
            // The full window inverts to the full axis.
            assert_eq!(window_to_range(&axis, 0, HEAT_BINS - 1), axis);
        }
    }

    #[test]
    fn probe_sets_are_deterministic_and_in_region() {
        let region = vec![
            BlockRanges::new(Interval::new(10, 20), Interval::new(30, 35)),
            BlockRanges::new(Interval::new(5, 5), Interval::new(1, 100)),
        ];
        let a = probe_set(&region, 42);
        let b = probe_set(&region, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), COST_PROBES as usize);
        for dims in &a {
            for (pair, r) in dims.iter().zip(&region) {
                assert!(r.w.contains(pair.0) && r.h.contains(pair.1));
            }
        }
        assert_ne!(probe_set(&region, 43), a, "seeds must matter");
    }
}
