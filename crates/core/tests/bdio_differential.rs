//! Differential test of the BDIO inner anneal.
//!
//! `Bdio::optimize` runs its own Metropolis loop over one dimension vector
//! changed in place, costed incrementally without the penalty terms, which
//! are 0 inside a box legal at its upper corner. This test runs the plain
//! reference instead: `Annealer::run` over a problem that draws the same
//! moves and costs every state from scratch with `CostCalculator::cost`.
//! The average cost, the best cost and the best dimension vector must
//! agree to the bit, on boxes from `expand_placement`.

use mps_anneal::{Annealer, AnnealerConfig, Problem};
use mps_core::{Bdio, BdioConfig};
use mps_geom::{Coord, DimsBox, Interval, Rect};
use mps_netlist::{benchmarks, BlockId, Circuit};
use mps_placer::{
    expand_placement, CostCalculator, CostWeights, ExpansionConfig, Placement, SequencePair,
    SymmetryConstraints, SymmetryGroup, Template,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The BDIO's inner problem, costed from scratch: the state is one
/// dimension vector inside the box, the start is drawn block by block
/// (width, then height), and a move jitters one block's width and height
/// by up to `perturb_fraction` of their intervals.
struct Reference<'a> {
    calc: &'a CostCalculator<'a>,
    placement: &'a Placement,
    dims_box: &'a DimsBox,
    perturb_fraction: f64,
}

impl Problem for Reference<'_> {
    type State = Vec<(Coord, Coord)>;

    fn initial(&self, rng: &mut StdRng) -> Self::State {
        self.dims_box
            .ranges()
            .iter()
            .map(|r| {
                (
                    rng.random_range(r.w.lo()..=r.w.hi()),
                    rng.random_range(r.h.lo()..=r.h.hi()),
                )
            })
            .collect()
    }

    fn energy(&self, state: &Self::State) -> f64 {
        self.calc.cost(self.placement, state)
    }

    fn neighbor(&self, state: &Self::State, rng: &mut StdRng) -> Self::State {
        let mut next = state.clone();
        let i = rng.random_range(0..next.len());
        let r = &self.dims_box.ranges()[i];
        let jitter = |iv: Interval, v: Coord, rng: &mut StdRng| {
            let span = ((iv.len() as f64) * self.perturb_fraction).ceil() as Coord;
            iv.clamp_value(v + rng.random_range(-span.max(1)..=span.max(1)))
        };
        next[i] = (jitter(r.w, next[i].0, rng), jitter(r.h, next[i].1, rng));
        next
    }
}

/// Runs both and asserts they agree to the bit.
fn assert_matches_reference(
    calc: &CostCalculator<'_>,
    placement: &Placement,
    dims_box: &DimsBox,
    config: BdioConfig,
    seed: u64,
) {
    let result = Bdio::new(calc, config).optimize(placement, dims_box, seed);
    let reference = Annealer::new(
        AnnealerConfig::builder()
            .iterations(config.iterations)
            .seed(seed)
            .initial_temperature(config.t0)
            .final_temperature(config.t_end)
            .build(),
    )
    .run(&Reference {
        calc,
        placement,
        dims_box,
        perturb_fraction: config.perturb_fraction,
    });
    let name = calc.circuit().name();
    assert_eq!(
        result.avg_cost.to_bits(),
        reference.stats.mean_energy.to_bits(),
        "{name} seed {seed}: average cost"
    );
    assert_eq!(
        result.best_cost.to_bits(),
        reference.best_energy.to_bits(),
        "{name} seed {seed}: best cost"
    );
    assert_eq!(
        result.best_dims, reference.best_state,
        "{name} seed {seed}: best dimensions"
    );
}

fn upper_corner(dims_box: &DimsBox) -> Vec<(Coord, Coord)> {
    dims_box
        .ranges()
        .iter()
        .map(|r| (r.w.hi(), r.h.hi()))
        .collect()
}

/// Legal placements of `circuit` with their expanded boxes: expert
/// templates of one to three rows and random packings spread apart.
fn expanded_cases(circuit: &Circuit, floorplan: &Rect, seed: u64) -> Vec<(Placement, DimsBox)> {
    let min_dims = circuit.min_dims();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut placements: Vec<Placement> = (1..=3)
        .map(|rows| Template::expert_default(circuit, rows).instantiate(&min_dims))
        .collect();
    for spread in [1, 2] {
        let packed = SequencePair::random(circuit.block_count(), &mut rng).pack(&min_dims);
        placements.push(
            packed
                .coords()
                .iter()
                .map(|p| mps_geom::Point::new(p.x * spread, p.y * spread))
                .collect(),
        );
    }
    placements
        .into_iter()
        .filter_map(|p| {
            let dbox =
                expand_placement(circuit, &p, floorplan, &ExpansionConfig::default()).ok()?;
            Some((p, dbox))
        })
        .collect()
}

#[test]
fn optimize_matches_the_reference_anneal_on_every_benchmark() {
    let config = BdioConfig::default();
    for bm in benchmarks::all() {
        let circuit = &bm.circuit;
        let fp = circuit.suggested_floorplan(1.5);
        let calc = CostCalculator::new(circuit).with_floorplan(fp);
        let cases = expanded_cases(circuit, &fp, 0xD1FF);
        assert!(cases.len() >= 3, "{}: too few legal placements", bm.name);
        for (k, (placement, dbox)) in cases.iter().enumerate() {
            assert!(placement.is_legal(&upper_corner(dbox), Some(&fp)));
            for seed in [1, 2, 3] {
                assert_matches_reference(&calc, placement, dbox, config, seed * 10 + k as u64);
            }
        }
    }
}

#[test]
fn optimize_matches_the_reference_anneal_with_symmetry_and_a_cold_schedule() {
    let bm = benchmarks::by_name("tso-cascode").unwrap();
    let circuit = &bm.circuit;
    let fp = circuit.suggested_floorplan(1.5);
    let symmetry = SymmetryConstraints::new(vec![SymmetryGroup {
        pairs: vec![(BlockId(0), BlockId(1)), (BlockId(2), BlockId(3))],
        self_symmetric: vec![BlockId(4)],
    }]);
    let calc = CostCalculator::new(circuit)
        .with_floorplan(fp)
        .with_weights(CostWeights {
            symmetry: 5.0,
            ..CostWeights::default()
        })
        .with_symmetry(&symmetry);
    // A cold schedule rejects most uphill moves, so the evaluator drops
    // many pending proposals.
    let cold = BdioConfig {
        t0: 2.0,
        t_end: 0.01,
        iterations: 400,
        ..BdioConfig::default()
    };
    for (placement, dbox) in expanded_cases(circuit, &fp, 0x5E11) {
        for seed in [4, 5] {
            assert_matches_reference(&calc, &placement, &dbox, BdioConfig::default(), seed);
            assert_matches_reference(&calc, &placement, &dbox, cold, seed);
        }
    }
}
