//! Sequence pairs: topological floorplan representation and packer.
//!
//! A sequence pair `(Γ+, Γ−)` — two permutations of the block set — encodes
//! the relative order of blocks: `a` is left of `b` when `a` precedes `b`
//! in both sequences, and below `b` when `a` follows `b` in `Γ+` but
//! precedes it in `Γ−`. Packing assigns each block the smallest coordinates
//! consistent with those relations, yielding a compacted, overlap-free
//! placement *for any block dimensions* — which is exactly what a layout
//! template needs (the template baseline of §1 instantiates one fixed
//! relative arrangement for every sizing), and what the flat-SA baseline
//! uses to legalize its result.

use crate::Placement;
use mps_geom::{Coord, Point};
use rand::rngs::StdRng;
use rand::Rng;

/// A sequence pair over `n` blocks.
///
/// # Example
///
/// ```
/// use mps_placer::SequencePair;
///
/// // Two blocks side by side: 0 precedes 1 in both sequences.
/// let sp = SequencePair::new(vec![0, 1], vec![0, 1]).unwrap();
/// let placement = sp.pack(&[(10, 10), (20, 5)]);
/// assert_eq!(placement.coords()[1].x, 10); // packed to the right of block 0
/// assert!(placement.is_legal(&[(10, 10), (20, 5)], None));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencePair {
    pos: Vec<usize>,
    neg: Vec<usize>,
}

impl SequencePair {
    /// Creates a sequence pair, checking both vectors are permutations of
    /// `0..n` of equal length.
    ///
    /// Returns `None` when they are not.
    #[must_use]
    pub fn new(pos: Vec<usize>, neg: Vec<usize>) -> Option<Self> {
        if pos.len() != neg.len() {
            return None;
        }
        let is_permutation = |v: &[usize]| {
            let mut seen = vec![false; v.len()];
            v.iter().all(|&i| {
                if i < seen.len() && !seen[i] {
                    seen[i] = true;
                    true
                } else {
                    false
                }
            })
        };
        (is_permutation(&pos) && is_permutation(&neg)).then_some(Self { pos, neg })
    }

    /// The identity pair (a single row, left to right).
    #[must_use]
    pub fn row(n: usize) -> Self {
        Self {
            pos: (0..n).collect(),
            neg: (0..n).collect(),
        }
    }

    /// A single column, bottom to top: `Γ+` reversed relative to `Γ−`.
    #[must_use]
    pub fn column(n: usize) -> Self {
        Self {
            pos: (0..n).rev().collect(),
            neg: (0..n).collect(),
        }
    }

    /// A uniformly random sequence pair.
    #[must_use]
    pub fn random(n: usize, rng: &mut StdRng) -> Self {
        let shuffle = |rng: &mut StdRng| {
            let mut v: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                v.swap(i, j);
            }
            v
        };
        Self {
            pos: shuffle(rng),
            neg: shuffle(rng),
        }
    }

    /// Number of blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.pos.len()
    }

    /// The positive sequence `Γ+`.
    #[must_use]
    pub fn positive(&self) -> &[usize] {
        &self.pos
    }

    /// The negative sequence `Γ−`.
    #[must_use]
    pub fn negative(&self) -> &[usize] {
        &self.neg
    }

    /// Extracts a sequence pair approximating an existing placement's
    /// relative block order: `Γ−` sorts block centers by `x + y`
    /// (down-left diagonal), `Γ+` by `x − y` (up-left diagonal).
    ///
    /// For placements on a slicing grid the extraction is exact; in general
    /// it is a faithful heuristic — packing the extracted pair preserves
    /// left/below relations of well-separated blocks and always yields a
    /// legal floorplan.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != placement.block_count()`.
    #[must_use]
    pub fn from_placement(placement: &Placement, dims: &[(Coord, Coord)]) -> Self {
        assert_eq!(
            dims.len(),
            placement.block_count(),
            "dimension arity mismatch"
        );
        let n = placement.block_count();
        let center = |i: usize| {
            let (w, h) = dims[i];
            let p = placement.coords()[i];
            (2 * p.x + w, 2 * p.y + h) // doubled centers stay integer
        };
        let mut pos: Vec<usize> = (0..n).collect();
        pos.sort_by_key(|&i| {
            let (cx, cy) = center(i);
            (cx - cy, cx)
        });
        let mut neg: Vec<usize> = (0..n).collect();
        neg.sort_by_key(|&i| {
            let (cx, cy) = center(i);
            (cx + cy, cx)
        });
        Self { pos, neg }
    }

    /// Whether block `a` is (transitively reachable as) left of `b`:
    /// `a` precedes `b` in both sequences.
    #[must_use]
    pub fn left_of(&self, a: usize, b: usize) -> bool {
        let (pa, pb) = (self.index_in(&self.pos, a), self.index_in(&self.pos, b));
        let (na, nb) = (self.index_in(&self.neg, a), self.index_in(&self.neg, b));
        pa < pb && na < nb
    }

    /// Whether block `a` is below `b`: `a` follows `b` in `Γ+` but precedes
    /// it in `Γ−`.
    #[must_use]
    pub fn below(&self, a: usize, b: usize) -> bool {
        let (pa, pb) = (self.index_in(&self.pos, a), self.index_in(&self.pos, b));
        let (na, nb) = (self.index_in(&self.neg, a), self.index_in(&self.neg, b));
        pa > pb && na < nb
    }

    fn index_in(&self, seq: &[usize], block: usize) -> usize {
        seq.iter()
            .position(|&x| x == block)
            .expect("block in sequence")
    }

    /// Packs the pair into the minimal placement honouring all relations:
    /// longest-path computation in `O(n²)`.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.block_count()`.
    #[must_use]
    pub fn pack(&self, dims: &[(Coord, Coord)]) -> Placement {
        let n = self.pos.len();
        assert_eq!(dims.len(), n, "dimension arity mismatch");
        let mut pos_idx = vec![0usize; n];
        for (k, &b) in self.pos.iter().enumerate() {
            pos_idx[b] = k;
        }
        let mut x = vec![0 as Coord; n];
        let mut y = vec![0 as Coord; n];
        // Process in Γ− order: both `left-of` and `below` predecessors of a
        // block precede it in Γ−, so they are final when reached.
        for (k, &b) in self.neg.iter().enumerate() {
            let mut bx = 0;
            let mut by = 0;
            for &a in &self.neg[..k] {
                if pos_idx[a] < pos_idx[b] {
                    // a left of b
                    bx = bx.max(x[a] + dims[a].0);
                } else {
                    // a below b
                    by = by.max(y[a] + dims[a].1);
                }
            }
            x[b] = bx;
            y[b] = by;
        }
        Placement::new((0..n).map(|i| Point::new(x[i], y[i])).collect())
    }
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Field, Map, Reader, Serialize, Value};

    impl Serialize for SequencePair {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("pos", self.pos.to_value());
            map.insert("neg", self.neg.to_value());
            Value::Object(map)
        }
    }

    // Hand-written so the both-sequences-are-permutations invariant is
    // re-validated on load (via the checked constructor).
    impl Deserialize for SequencePair {
        fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
            let (mut pos, mut neg) = (
                Field::<Vec<usize>>::new("pos"),
                Field::<Vec<usize>>::new("neg"),
            );
            serde::read_object(r, |key, r| match key {
                "pos" => pos.read(r),
                "neg" => neg.read(r),
                _ => r.skip_value(),
            })?;
            SequencePair::new(pos.take("SequencePair")?, neg.take("SequencePair")?).ok_or_else(
                || {
                    Error::custom(
                        "SequencePair sequences must be equal-length permutations of 0..n",
                    )
                },
            )
        }
    }
}

mod binfmt_impls {
    use super::*;
    use binfmt::{malformed, Decode, Decoder, Encode, Encoder, Error};
    use std::io::Write;

    /// Allocation cap for decoded sequences (one slot per block).
    const MAX_BLOCKS: usize = 1 << 20;

    fn encode_seq<W: Write>(enc: &mut Encoder<W>, seq: &[usize]) -> std::io::Result<()> {
        enc.varint(seq.len() as u64)?;
        for &v in seq {
            enc.varint(v as u64)?;
        }
        Ok(())
    }

    fn decode_seq(dec: &mut Decoder<'_>, what: &str) -> Result<Vec<usize>, Error> {
        let n = dec.len(MAX_BLOCKS, what)?;
        let mut seq = Vec::with_capacity(n);
        for _ in 0..n {
            let raw = dec.varint()?;
            let v = usize::try_from(raw)
                .map_err(|_| malformed(format!("sequence element {raw} exceeds usize")))?;
            seq.push(v);
        }
        Ok(seq)
    }

    impl Encode for SequencePair {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            encode_seq(enc, &self.pos)?;
            encode_seq(enc, &self.neg)
        }
    }

    // The both-sequences-are-permutations invariant is re-validated on
    // decode via the checked constructor, exactly like the JSON path.
    impl Decode for SequencePair {
        fn decode(dec: &mut Decoder<'_>) -> Result<Self, Error> {
            let pos = decode_seq(dec, "SequencePair pos")?;
            let neg = decode_seq(dec, "SequencePair neg")?;
            SequencePair::new(pos, neg).ok_or_else(|| {
                malformed("SequencePair sequences must be equal-length permutations of 0..n")
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn new_validates_permutations() {
        assert!(SequencePair::new(vec![0, 1, 2], vec![2, 1, 0]).is_some());
        assert!(SequencePair::new(vec![0, 1], vec![0, 1, 2]).is_none());
        assert!(SequencePair::new(vec![0, 0], vec![0, 1]).is_none());
        assert!(SequencePair::new(vec![0, 3], vec![0, 1]).is_none());
    }

    #[test]
    fn row_packs_horizontally() {
        let sp = SequencePair::row(3);
        let dims = [(10, 5), (20, 5), (5, 5)];
        let p = sp.pack(&dims);
        assert_eq!(p.coords()[0], Point::new(0, 0));
        assert_eq!(p.coords()[1], Point::new(10, 0));
        assert_eq!(p.coords()[2], Point::new(30, 0));
    }

    #[test]
    fn column_packs_vertically() {
        let sp = SequencePair::column(3);
        let dims = [(10, 5), (10, 8), (10, 3)];
        let p = sp.pack(&dims);
        assert_eq!(p.coords()[0], Point::new(0, 0));
        assert_eq!(p.coords()[1], Point::new(0, 5));
        assert_eq!(p.coords()[2], Point::new(0, 13));
    }

    #[test]
    fn relations_match_definition() {
        // pos = [0,1], neg = [0,1]: 0 left of 1.
        let sp = SequencePair::new(vec![0, 1], vec![0, 1]).unwrap();
        assert!(sp.left_of(0, 1));
        assert!(!sp.below(0, 1));
        // pos = [1,0], neg = [0,1]: 0 below 1.
        let sp = SequencePair::new(vec![1, 0], vec![0, 1]).unwrap();
        assert!(sp.below(0, 1));
        assert!(!sp.left_of(0, 1));
    }

    #[test]
    fn packing_is_always_legal() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 12, 25] {
            for _ in 0..20 {
                let sp = SequencePair::random(n, &mut rng);
                let dims: Vec<(Coord, Coord)> = (0..n)
                    .map(|_| (rng.random_range(1..50), rng.random_range(1..50)))
                    .collect();
                let p = sp.pack(&dims);
                assert!(p.is_legal(&dims, None), "n={n} sp={sp:?}");
            }
        }
    }

    #[test]
    fn packing_touches_origin() {
        let mut rng = StdRng::seed_from_u64(3);
        let sp = SequencePair::random(6, &mut rng);
        let dims: Vec<(Coord, Coord)> = (0..6).map(|i| (10 + i, 8 + i)).collect();
        let p = sp.pack(&dims);
        let bb = p.bounding_box(&dims).unwrap();
        assert_eq!(bb.origin(), Point::origin());
    }

    #[test]
    fn extraction_preserves_side_by_side_order() {
        let dims = [(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(0, 0), Point::new(25, 0)]);
        let sp = SequencePair::from_placement(&p, &dims);
        assert!(sp.left_of(0, 1));
        let repacked = sp.pack(&dims);
        assert!(repacked.coords()[0].x < repacked.coords()[1].x);
    }

    #[test]
    fn extraction_preserves_stacked_order() {
        let dims = [(10, 10), (10, 10)];
        let p = Placement::new(vec![Point::new(0, 0), Point::new(0, 25)]);
        let sp = SequencePair::from_placement(&p, &dims);
        assert!(sp.below(0, 1));
    }

    #[test]
    fn extraction_roundtrip_is_legal_for_random_legal_placements() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let n = rng.random_range(2..10usize);
            // Build a legal placement by packing a random pair, perturb it
            // by whitespace, then re-extract.
            let sp = SequencePair::random(n, &mut rng);
            let dims: Vec<(Coord, Coord)> = (0..n)
                .map(|_| (rng.random_range(5..40), rng.random_range(5..40)))
                .collect();
            let packed = sp.pack(&dims);
            let spread = Placement::new(
                packed
                    .coords()
                    .iter()
                    .map(|p| Point::new(p.x * 2, p.y * 2))
                    .collect(),
            );
            let extracted = SequencePair::from_placement(&spread, &dims);
            let repacked = extracted.pack(&dims);
            assert!(repacked.is_legal(&dims, None));
        }
    }

    #[test]
    fn single_block_edge_cases() {
        let sp = SequencePair::row(1);
        let p = sp.pack(&[(7, 9)]);
        assert_eq!(p.coords()[0], Point::origin());
    }
}
