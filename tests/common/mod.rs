//! Probe streams shared by the root test suites.

use analog_mps::mps::MultiPlacementStructure;
use analog_mps::{Coord, Dims};

/// `n` deterministic probes over `mps`'s bounds (xorshift64* from
/// `seed`): every eighth escapes them on one axis, every 64th lacks its
/// last pair, so a comparison covers in-bounds, out-of-bounds and
/// wrong-arity vectors.
pub fn probes(mps: &MultiPlacementStructure, n: usize, seed: u64) -> Vec<Dims> {
    let bounds = mps.bounds();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..n)
        .map(|k| {
            let mut dims: Vec<(Coord, Coord)> = bounds
                .iter()
                .map(|b| {
                    (
                        b.w.lo() + (next() % b.w.len()) as Coord,
                        b.h.lo() + (next() % b.h.len()) as Coord,
                    )
                })
                .collect();
            if k % 8 == 5 {
                let i = k % bounds.len();
                dims[i].0 = bounds[i].w.hi() + 1 + (next() % 64) as Coord;
            }
            if k % 64 == 21 {
                dims.pop();
            }
            Dims::from_vec_unchecked(dims)
        })
        .collect()
}

/// Panics, naming `label` and the first diverging probe, unless `a` and
/// `b` answer the `n` probes of `seed` alike.
pub fn assert_same_answers(
    a: &MultiPlacementStructure,
    b: &MultiPlacementStructure,
    n: usize,
    seed: u64,
    label: &str,
) {
    for (k, probe) in probes(a, n, seed).iter().enumerate() {
        assert_eq!(
            a.query(probe),
            b.query(probe),
            "{label}: probe {k} ({probe:?})"
        );
    }
}
