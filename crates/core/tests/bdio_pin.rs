//! Golden pin of the BDIO inner anneal.
//!
//! The generation pins in `tests/persist_format.rs` hash whole
//! structures, so a change to the inner loop shows up there only as "some
//! structure differs". This pin hashes `Bdio::optimize` results directly:
//! the reduced box, the best dimension vector and both costs to the bit.
//! It covers the two largest benchmarks over several seeds plus one case
//! with the symmetry term on, which the generation pins never exercise.
//! A mismatch on the first seed of a case points at an energy change; a
//! mismatch only on later proposals of a run points at the RNG sequence.

use mps_core::{Bdio, BdioConfig, BdioResult};
use mps_netlist::{benchmarks, BlockId};
use mps_placer::{
    expand_placement, CostCalculator, CostWeights, ExpansionConfig, SymmetryConstraints,
    SymmetryGroup, Template,
};

/// FNV-1a (64-bit), the same definition as in `tests/persist_format.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash_result(r: &BdioResult) -> u64 {
    let mut bytes = Vec::new();
    for range in r.reduced_box.ranges() {
        for v in [range.w.lo(), range.w.hi(), range.h.lo(), range.h.hi()] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    for &(w, h) in &r.best_dims {
        bytes.extend_from_slice(&w.to_le_bytes());
        bytes.extend_from_slice(&h.to_le_bytes());
    }
    bytes.extend_from_slice(&r.avg_cost.to_bits().to_le_bytes());
    bytes.extend_from_slice(&r.best_cost.to_bits().to_le_bytes());
    fnv1a(&bytes)
}

/// Runs the BDIO the way the generator does (floorplan-bounded default
/// weights, an expanded box around a packed template) for one seed.
fn run(name: &str, symmetry: Option<&SymmetryConstraints>, seed: u64) -> u64 {
    let bm = benchmarks::by_name(name).unwrap();
    let circuit = &bm.circuit;
    let fp = circuit.suggested_floorplan(1.5);
    let placement = Template::expert_default(circuit, 2).instantiate(&circuit.min_dims());
    let dbox = expand_placement(circuit, &placement, &fp, &ExpansionConfig::default()).unwrap();
    let mut calc = CostCalculator::new(circuit).with_floorplan(fp);
    if let Some(sym) = symmetry {
        calc = calc
            .with_weights(CostWeights {
                symmetry: 5.0,
                ..CostWeights::default()
            })
            .with_symmetry(sym);
    }
    let result = Bdio::new(&calc, BdioConfig::default()).optimize(&placement, &dbox, seed);
    hash_result(&result)
}

/// (benchmark, symmetry on, seed, FNV-1a of the result), recorded before
/// the BDIO switched to incremental energies.
const BDIO_PINS: &[(&str, bool, u64, u64)] = &[
    ("tso-cascode", false, 1, 0x5ab7_e32b_9723_5ddf),
    ("tso-cascode", false, 2, 0x9f22_884d_50d5_2074),
    ("tso-cascode", false, 3, 0x820a_e857_545c_16e0),
    ("benchmark24", false, 1, 0x9724_f983_1207_f69b),
    ("benchmark24", false, 2, 0xddab_207a_c024_e360),
    ("benchmark24", false, 3, 0xb192_26a2_63af_7828),
    ("tso-cascode", true, 1, 0x5fe0_4b69_3c68_f1e6),
];

#[test]
fn bdio_results_still_match_hashes() {
    let symmetry = SymmetryConstraints::new(vec![SymmetryGroup {
        pairs: vec![(BlockId(0), BlockId(1)), (BlockId(2), BlockId(3))],
        self_symmetric: vec![BlockId(4)],
    }]);
    let actual: Vec<(&str, bool, u64, u64)> = BDIO_PINS
        .iter()
        .map(|&(name, sym, seed, _)| {
            let hash = run(name, sym.then_some(&symmetry), seed);
            (name, sym, seed, hash)
        })
        .collect();
    assert_eq!(actual, BDIO_PINS, "Bdio::optimize results changed");
}
