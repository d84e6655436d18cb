//! The Block Dimensions-Intervals Optimizer (§3.2).
//!
//! The BDIO is the inner level of the nested annealer. Given one placement
//! with fixed `(x_i, y_i)` coordinates and its expanded validity box, it
//! (1) anneals over the block dimensions inside the box to find the
//! dimension vector where this placement performs best, (2) reports the
//! *average* and *best* cost encountered (the average is the Placement
//! Explorer's cost signal), and (3) shrinks the validity intervals around
//! the best dimensions with Eq. 6 (*Optimize Ranges*).
//!
//! The inner anneal is its own Metropolis loop over one dimension vector,
//! changed in place: each step resizes one block, and an
//! [`IncrementalCost`](mps_placer::IncrementalCost) from
//! [`CostCalculator::incremental`] recosts only what that block
//! touches. The evaluator caches the block rects, each pin's absolute
//! point, the integer HPWL of each net and the bounding box, so a step
//! re-locates the moved block's pins and recomputes its nets (plus the pad
//! nets when the bounding box moves). Every box the explorer passes is
//! legal at its upper corner ([`mps_placer::expand_placement`] guarantees
//! it), and blocks are anchored at their lower-left corner, so no state in
//! the box overlaps or escapes the floorplan: the evaluator then keeps no
//! overlap or escape terms. A box that is not legal at its upper corner
//! keeps them, updating the moved block's N−1 overlap pairs and its escape
//! area.
//!
//! The loop makes exactly the draws and decisions of
//! [`mps_anneal::Annealer::run`] over the same problem: the same random
//! stream, the mean over every finite energy (the starting one included)
//! and the strict-`<` best update. The energies stay bit-identical to
//! [`CostCalculator::cost`]: the integer terms update exactly, and the f64
//! terms are never patched by a delta — the wirelength is re-summed from
//! the cached per-net values in net order, the symmetry term is recomputed
//! in full, and the total goes through the same
//! [`mps_placer::CostBreakdown::total`]. So every result equals that of
//! annealing with `cost` (pinned by `tests/bdio_pin.rs` and checked
//! against such a reference by `tests/bdio_differential.rs`).

use mps_anneal::{metropolis, AdaptiveSchedule, Schedule};
use mps_geom::{Coord, DimsBox, Interval};
use mps_placer::{CostCalculator, Placement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning of the inner annealing loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BdioConfig {
    /// Number of dimension vectors evaluated per placement — the paper's
    /// user-set iteration stopping criterion (§3.2.2).
    pub iterations: usize,
    /// Per-move perturbation magnitude as a fraction of each dimension's
    /// interval — "the dimensions selector perturbs the proposed w and h
    /// values by a percentage input set by the user" (§3.2.1).
    pub perturb_fraction: f64,
    /// Initial temperature (cost units).
    pub t0: f64,
    /// Final temperature.
    pub t_end: f64,
    /// Whether to run Eq.-6 range shrinking (`false` only for the ablation
    /// study — the validity box then stays at its expanded extent).
    pub optimize_ranges: bool,
}

impl Default for BdioConfig {
    fn default() -> Self {
        Self {
            iterations: 200,
            perturb_fraction: 0.2,
            t0: 500.0,
            t_end: 0.5,
            optimize_ranges: true,
        }
    }
}

/// What the BDIO hands back to the Placement Explorer: "the 4-tuple
/// representing the reduced dimensions interval fed in along with an
/// average value of the cost … The best attained value of that cost is
/// also returned" (§3).
#[derive(Debug, Clone, PartialEq)]
pub struct BdioResult {
    /// The validity box after Eq.-6 shrinking.
    pub reduced_box: DimsBox,
    /// Mean cost over every evaluated dimension vector.
    pub avg_cost: f64,
    /// Lowest cost attained.
    pub best_cost: f64,
    /// The dimension vector achieving [`BdioResult::best_cost`].
    pub best_dims: Vec<(Coord, Coord)>,
}

/// The inner optimizer. Borrows a configured [`CostCalculator`] (weights,
/// floorplan and optional symmetry are the caller's choice — the cost
/// function is "customizable").
///
/// # Example
///
/// ```
/// use mps_core::{Bdio, BdioConfig};
/// use mps_geom::Rect;
/// use mps_netlist::benchmarks;
/// use mps_placer::{expand_placement, CostCalculator, ExpansionConfig, Placement, Template};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = benchmarks::circ01();
/// let fp = circuit.suggested_floorplan(1.5);
/// let placement = Template::expert_default(&circuit, 2).instantiate(&circuit.min_dims());
/// let dbox = expand_placement(&circuit, &placement, &fp, &ExpansionConfig::default())?;
/// let calc = CostCalculator::new(&circuit);
/// let result = Bdio::new(&calc, BdioConfig { iterations: 50, ..Default::default() })
///     .optimize(&placement, &dbox, 1);
/// assert!(result.best_cost <= result.avg_cost);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Bdio<'a> {
    calc: &'a CostCalculator<'a>,
    config: BdioConfig,
}

impl<'a> Bdio<'a> {
    /// Creates a BDIO over a configured cost calculator.
    #[must_use]
    pub fn new(calc: &'a CostCalculator<'a>, config: BdioConfig) -> Self {
        Self { calc, config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &BdioConfig {
        &self.config
    }

    /// Runs the inner annealing loop and Optimize Ranges for one placement.
    ///
    /// # Panics
    ///
    /// Panics if `dims_box.block_count()` differs from
    /// `placement.block_count()`.
    #[must_use]
    pub fn optimize(&self, placement: &Placement, dims_box: &DimsBox, seed: u64) -> BdioResult {
        assert_eq!(
            dims_box.block_count(),
            placement.block_count(),
            "box/placement arity mismatch"
        );
        let (avg_cost, best_cost, best_dims) = self.anneal(placement, dims_box, seed);
        let reduced_box = if self.config.optimize_ranges {
            optimize_ranges(dims_box, &best_dims, avg_cost, best_cost)
        } else {
            dims_box.clone()
        };
        debug_assert!(reduced_box.contains(&best_dims));
        BdioResult {
            reduced_box,
            avg_cost,
            best_cost,
            best_dims,
        }
    }

    /// The inner Metropolis loop (see the module docs): the mean energy
    /// over every finite evaluation (the starting state included), the
    /// lowest energy and its vector. Each step jitters one block's width
    /// and height by up to `perturb_fraction` of their intervals.
    fn anneal(
        &self,
        placement: &Placement,
        dims_box: &DimsBox,
        seed: u64,
    ) -> (f64, f64, Vec<(Coord, Coord)>) {
        let config = &self.config;
        let ranges = dims_box.ranges();
        let mut rng = StdRng::seed_from_u64(seed);
        // The Dimensions Selector starts from a random valid vector.
        let mut current: Vec<(Coord, Coord)> = ranges
            .iter()
            .map(|r| {
                (
                    rng.random_range(r.w.lo()..=r.w.hi()),
                    rng.random_range(r.h.lo()..=r.h.hi()),
                )
            })
            .collect();
        let span =
            |iv: Interval| (((iv.len() as f64) * config.perturb_fraction).ceil() as Coord).max(1);
        let spans: Vec<(Coord, Coord)> = ranges.iter().map(|r| (span(r.w), span(r.h))).collect();
        let schedule = AdaptiveSchedule::new(config.t0, config.t_end);

        let mut cost = self.calc.incremental(placement, &current, dims_box);
        let mut current_energy = cost.energy();
        let mut best_energy = current_energy;
        let mut best_dims = current.clone();
        let mut energy_sum = 0.0;
        let mut finite_count = 0usize;
        if current_energy.is_finite() {
            energy_sum += current_energy;
            finite_count += 1;
        }

        for k in 0..config.iterations {
            let i = rng.random_range(0..current.len());
            let (r, (span_w, span_h)) = (&ranges[i], spans[i]);
            let (w, h) = current[i];
            let w = r.w.clamp_value(w + rng.random_range(-span_w..=span_w));
            let h = r.h.clamp_value(h + rng.random_range(-span_h..=span_h));
            let energy = cost.propose(i, (w, h));
            if energy.is_finite() {
                energy_sum += energy;
                finite_count += 1;
            }
            let delta = energy - current_energy;
            // `metropolis` reads the temperature only for an uphill step.
            if delta <= 0.0
                || metropolis(delta, schedule.temperature(k, config.iterations), &mut rng)
            {
                cost.commit();
                current[i] = (w, h);
                current_energy = energy;
                if current_energy < best_energy {
                    best_energy = current_energy;
                    best_dims.copy_from_slice(&current);
                }
            }
        }

        let avg_cost = if finite_count == 0 {
            f64::INFINITY
        } else {
            energy_sum / finite_count as f64
        };
        (avg_cost, best_energy, best_dims)
    }
}

/// Eq. 6 — *Optimize Ranges*: shrink each interval around the best value
/// proportionally to `best/avg`.
///
/// The paper's formula as printed
/// (`w_start ← w_best − (avg/best)(w_end − w_start)`) contradicts its own
/// prose ("the further the average cost is away from the best cost, the
/// tighter we would like the interval"), under which the retained span must
/// *decrease* as `avg/best` grows. We implement the prose: with
/// `s = best/avg ∈ (0, 1]`, the new interval is
/// `[w_best − s·(w_best − w_start), w_best + s·(w_end − w_best)]`
/// (rounded outward by at most one grid unit so the best point always
/// stays inside).
#[must_use]
fn optimize_ranges(
    dims_box: &DimsBox,
    best_dims: &[(Coord, Coord)],
    avg_cost: f64,
    best_cost: f64,
) -> DimsBox {
    let s = if avg_cost <= 0.0 || !avg_cost.is_finite() || best_cost <= 0.0 {
        1.0
    } else {
        (best_cost / avg_cost).clamp(0.0, 1.0)
    };
    let shrink = |iv: Interval, best: Coord| {
        let best = iv.clamp_value(best);
        let lo = best - ((best - iv.lo()) as f64 * s).round() as Coord;
        let hi = best + ((iv.hi() - best) as f64 * s).round() as Coord;
        Interval::new(lo.max(iv.lo()), hi.min(iv.hi()))
    };
    let ranges = dims_box
        .ranges()
        .iter()
        .zip(best_dims)
        .map(|(r, &(bw, bh))| mps_geom::BlockRanges::new(shrink(r.w, bw), shrink(r.h, bh)))
        .collect();
    DimsBox::new(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_geom::{BlockRanges, Rect};
    use mps_netlist::benchmarks;
    use mps_placer::{expand_placement, ExpansionConfig, Template};

    fn setup() -> (mps_netlist::Circuit, Placement, DimsBox, Rect) {
        let circuit = benchmarks::two_stage_opamp();
        let fp = circuit.suggested_floorplan(1.5);
        let placement = Template::expert_default(&circuit, 3).instantiate(&circuit.min_dims());
        let dbox =
            expand_placement(&circuit, &placement, &fp, &ExpansionConfig::default()).unwrap();
        (circuit, placement, dbox, fp)
    }

    #[test]
    fn best_cost_never_exceeds_average() {
        let (circuit, placement, dbox, _) = setup();
        let calc = CostCalculator::new(&circuit);
        let result = Bdio::new(&calc, BdioConfig::default()).optimize(&placement, &dbox, 7);
        assert!(result.best_cost <= result.avg_cost + 1e-9);
        assert!(result.best_cost.is_finite());
    }

    #[test]
    fn reduced_box_is_inside_original_and_contains_best() {
        let (circuit, placement, dbox, _) = setup();
        let calc = CostCalculator::new(&circuit);
        let result = Bdio::new(&calc, BdioConfig::default()).optimize(&placement, &dbox, 7);
        for (orig, red) in dbox.ranges().iter().zip(result.reduced_box.ranges()) {
            assert!(orig.w.contains_interval(&red.w));
            assert!(orig.h.contains_interval(&red.h));
        }
        assert!(result.reduced_box.contains(&result.best_dims));
        assert!(dbox.contains(&result.best_dims));
    }

    #[test]
    fn disabling_optimize_ranges_keeps_box() {
        let (circuit, placement, dbox, _) = setup();
        let calc = CostCalculator::new(&circuit);
        let config = BdioConfig {
            optimize_ranges: false,
            ..BdioConfig::default()
        };
        let result = Bdio::new(&calc, config).optimize(&placement, &dbox, 7);
        assert_eq!(result.reduced_box, dbox);
    }

    #[test]
    fn shrinking_tightens_when_average_is_far_from_best() {
        let dbox = DimsBox::new(vec![BlockRanges::new(
            Interval::new(0, 100),
            Interval::new(0, 100),
        )]);
        let tight = optimize_ranges(&dbox, &[(50, 50)], 10.0, 1.0);
        let loose = optimize_ranges(&dbox, &[(50, 50)], 1.2, 1.0);
        assert!(tight.ranges()[0].w.len() < loose.ranges()[0].w.len());
        assert!(tight.contains(&[(50, 50)]));
        // Ratio 1 (avg == best) keeps the full interval.
        let full = optimize_ranges(&dbox, &[(50, 50)], 1.0, 1.0);
        assert_eq!(full, dbox);
    }

    #[test]
    fn degenerate_costs_keep_full_box() {
        let dbox = DimsBox::new(vec![BlockRanges::new(
            Interval::new(0, 10),
            Interval::new(0, 10),
        )]);
        assert_eq!(optimize_ranges(&dbox, &[(5, 5)], 0.0, 0.0), dbox);
        assert_eq!(
            optimize_ranges(&dbox, &[(5, 5)], f64::INFINITY, 1.0).block_count(),
            1
        );
    }

    #[test]
    fn bdio_is_deterministic_per_seed() {
        let (circuit, placement, dbox, _) = setup();
        let calc = CostCalculator::new(&circuit);
        let bdio = Bdio::new(&calc, BdioConfig::default());
        let a = bdio.optimize(&placement, &dbox, 11);
        let b = bdio.optimize(&placement, &dbox, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn more_iterations_find_no_worse_best() {
        let (circuit, placement, dbox, _) = setup();
        let calc = CostCalculator::new(&circuit);
        let quick = Bdio::new(
            &calc,
            BdioConfig {
                iterations: 10,
                ..Default::default()
            },
        )
        .optimize(&placement, &dbox, 3);
        let thorough = Bdio::new(
            &calc,
            BdioConfig {
                iterations: 2_000,
                ..Default::default()
            },
        )
        .optimize(&placement, &dbox, 3);
        assert!(thorough.best_cost <= quick.best_cost * 1.05);
    }
}
