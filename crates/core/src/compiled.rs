//! The structure's query index: every interval row (Fig. 3) compiled
//! from the live entries into one flat layout.
//!
//! A row is the `W_i` or `H_i` function of Eq. 3: sorted, disjoint
//! intervals of one block dimension, each carrying the placements valid
//! there. The index holds all `2N` rows of a structure at once:
//!
//! * every row's segments sit in two contiguous sorted arrays (`seg_lo`,
//!   `seg_hi`) shared across rows, located per row through an offset
//!   table — one cache-friendly binary search per row, no pointer
//!   chasing;
//! * each segment's placements are a fixed-width bitset indexed by raw
//!   placement id (`ceil(id_capacity / 64)` words), so intersecting a
//!   row into the running candidate set (Eq. 4) is a handful of `AND`s;
//! * the per-query candidate state lives in a caller-provided
//!   [`QueryScratch`], so a query stream performs **zero heap
//!   allocation per query**.
//!
//! `CompiledQueryIndex::build` writes the layout straight from the
//! entries' validity boxes, one sweep per row; there is no other row
//! form. A pivot/bucket/center layout with sparse live-word intersection
//! was measured 2.1-3.8x slower on every Table-1 structure (it won only
//! on a synthetic 4770-region grid) and was removed.

use crate::{PlacementId, StoredPlacement};
use mps_geom::{Axis, Coord, Dims, Interval};

/// Reusable per-query candidate state for [`CompiledQueryIndex`]: one
/// dense accumulator, filled with all-ones and `AND`ed per row.
///
/// Holding one `QueryScratch` across a stream of queries keeps the hot
/// path allocation-free: the buffer is sized on first use and only ever
/// cleared afterwards, so one scratch serves every structure a
/// connection queries.
#[derive(Debug, Default, Clone)]
pub struct QueryScratch {
    words: Vec<u64>,
}

impl QueryScratch {
    /// Creates an empty scratch buffer (sized lazily by the first query).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The benchmark's compatibility tag for the retired two-layout index:
/// [`CompiledQueryIndex::plan`] always answers [`IndexPlan::V1`]. The
/// next change to the benchmark removes it together with its
/// `index.v2_share` metric.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexPlan {
    /// The flat layout every structure is served on.
    V1,
    /// The retired pivot layout; never produced.
    V2,
}

/// A [`crate::MultiPlacementStructure`]'s interval rows in one flat
/// layout of sorted segment bounds plus candidate bitsets.
///
/// The structure builds it on first read and answers
/// [`crate::MultiPlacementStructure::query`] from it; a server reads it
/// through [`crate::MultiPlacementStructure::index`]. A query does only
/// binary searches and bitset `AND`s — no heap allocation with a reused
/// [`QueryScratch`].
///
/// # Example
///
/// ```
/// use mps_core::{GeneratorConfig, MpsGenerator, QueryScratch};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = mps_netlist::benchmarks::circ01();
/// let config = GeneratorConfig::builder().outer_iterations(30).seed(3).build();
/// let mps = MpsGenerator::new(&circuit, config).generate()?;
/// let index = mps.index();
/// let mut scratch = QueryScratch::new();
/// for dims in [circuit.min_dims(), circuit.max_dims()] {
///     let id = index.query_with_scratch(&dims, &mut scratch);
///     assert!(id.is_none_or(|id| mps.entry(id).is_some_and(|e| e.covers(&dims))));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledQueryIndex {
    /// Number of blocks `N`; queries must carry exactly `N` pairs.
    blocks: usize,
    /// Bitset width in 64-bit words: `ceil(id_capacity / 64)`.
    words: usize,
    /// Row `r` (block `r / 2`, width axis when `r` is even, height axis
    /// when odd) owns segments `row_offsets[r]..row_offsets[r + 1]`.
    row_offsets: Vec<u32>,
    /// Per segment: interval lower bound. Sorted ascending within a row.
    seg_lo: Vec<Coord>,
    /// Per segment: interval upper bound (closed).
    seg_hi: Vec<Coord>,
    /// Per segment: `words` bitset words of candidate placement ids.
    bits: Vec<u64>,
}

impl CompiledQueryIndex {
    /// Builds every row of a `blocks`-block structure from its entries
    /// (`None` marks an annihilated slot), indexed by slot: one sweep
    /// per row. Each live entry opens its id at its interval's lower end
    /// and closes it one past the upper end; all events at one
    /// coordinate are applied before the segment starting there is
    /// emitted, and a segment carrying the same ids as its left
    /// neighbour extends it. Every entry has exactly one interval per
    /// row, so an event just flips its id's bit.
    pub(crate) fn build(blocks: usize, entries: &[Option<StoredPlacement>]) -> Self {
        let id_capacity = entries
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |k| k + 1);
        let words = id_capacity.div_ceil(64);
        let mut index = Self {
            blocks,
            words,
            row_offsets: vec![0],
            seg_lo: Vec::new(),
            seg_hi: Vec::new(),
            bits: Vec::new(),
        };
        let mut events: Vec<(Coord, u32)> = Vec::new();
        let mut open = vec![0_u64; words];
        let rows =
            (0..blocks).flat_map(|block| [Axis::Width, Axis::Height].map(|axis| (block, axis)));
        for (block, axis) in rows {
            events.clear();
            for (id, entry) in entries.iter().enumerate() {
                if let Some(entry) = entry {
                    let id = u32::try_from(id).expect("placement ids fit u32");
                    let iv = entry.dims_box.ranges()[block].along(axis);
                    events.push((iv.lo(), id));
                    // An interval reaching `Coord::MAX` stays open to the end.
                    if let Some(end) = iv.hi().checked_add(1) {
                        events.push((end, id));
                    }
                }
            }
            events.sort_unstable_by_key(|&(at, _)| at);
            index.push_row(&events, &mut open);
        }
        index
    }

    /// Appends one row swept from its sorted `events`, with `open` as
    /// the running set of open ids.
    fn push_row(&mut self, events: &[(Coord, u32)], open: &mut [u64]) {
        open.fill(0);
        let first = self.seg_lo.len();
        let mut open_count = 0_usize;
        let mut k = 0;
        while k < events.len() {
            let at = events[k].0;
            while let Some(&(_, id)) = events.get(k).filter(|e| e.0 == at) {
                let (word, bit) = (id as usize / 64, 1_u64 << (id % 64));
                if open[word] & bit == 0 {
                    open_count += 1;
                } else {
                    open_count -= 1;
                }
                open[word] ^= bit;
                k += 1;
            }
            if open_count == 0 {
                continue;
            }
            let hi = events.get(k).map_or(Coord::MAX, |e| e.0 - 1);
            let last = self.seg_lo.len();
            if last > first
                && self.seg_hi[last - 1] + 1 == at
                && self.bits[(last - 1) * self.words..] == *open
            {
                self.seg_hi[last - 1] = hi;
            } else {
                self.seg_lo.push(at);
                self.seg_hi.push(hi);
                self.bits.extend_from_slice(open);
            }
        }
        self.row_offsets
            .push(u32::try_from(self.seg_lo.len()).expect("segment count fits u32"));
    }

    /// Number of blocks `N` the index was compiled for.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Total number of compiled segments across all `2N` rows.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.seg_lo.len()
    }

    /// Bitset width in 64-bit words (0 for an empty structure).
    #[must_use]
    pub fn bitset_words(&self) -> usize {
        self.words
    }

    /// The benchmark's compatibility tag: always [`IndexPlan::V1`].
    #[doc(hidden)]
    #[must_use]
    pub fn plan(&self) -> IndexPlan {
        IndexPlan::V1
    }

    /// Approximate heap footprint of the compiled arrays, in bytes.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.row_offsets.len() * size_of::<u32>()
            + (self.seg_lo.len() + self.seg_hi.len()) * size_of::<Coord>()
            + self.bits.len() * size_of::<u64>()
    }

    /// The segment indices of `block`'s row along `axis`.
    fn row(&self, block: usize, axis: Axis) -> std::ops::Range<usize> {
        let r = 2 * block + usize::from(axis == Axis::Height);
        self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize
    }

    /// Number of segments in `block`'s row along `axis`.
    pub(crate) fn row_segment_count(&self, block: usize, axis: Axis) -> usize {
        self.row(block, axis).len()
    }

    /// Number of integer points `block`'s row along `axis` covers.
    pub(crate) fn covered_len(&self, block: usize, axis: Axis) -> u64 {
        self.row(block, axis)
            .map(|seg| Interval::new(self.seg_lo[seg], self.seg_hi[seg]).len())
            .sum()
    }

    /// `block`'s row along `axis` as `(interval, ascending ids)` pairs:
    /// the form a legacy artifact stores its rows in.
    pub(crate) fn row_segments(
        &self,
        block: usize,
        axis: Axis,
    ) -> impl Iterator<Item = (Interval, Vec<u32>)> + '_ {
        self.row(block, axis).map(|seg| {
            let mut ids = Vec::new();
            for (w, &word) in self.bits[seg * self.words..(seg + 1) * self.words]
                .iter()
                .enumerate()
            {
                let mut word = word;
                while word != 0 {
                    ids.push(64 * w as u32 + word.trailing_zeros());
                    word &= word - 1;
                }
            }
            (Interval::new(self.seg_lo[seg], self.seg_hi[seg]), ids)
        })
    }

    /// The segment of row `r` containing value `v`, if any.
    #[inline]
    fn locate(&self, r: usize, v: Coord) -> Option<usize> {
        let lo = self.row_offsets[r] as usize;
        let hi = self.row_offsets[r + 1] as usize;
        // Last segment starting at or before v; segments are disjoint and
        // ascending, so it is the only one that can contain v.
        let idx = self.seg_lo[lo..hi].partition_point(|&l| l <= v);
        if idx == 0 {
            return None;
        }
        let seg = lo + idx - 1;
        (self.seg_hi[seg] >= v).then_some(seg)
    }

    /// The function *M* of Eq. 4: binary search per row, bitset `AND`
    /// per refinement, zero heap allocation (the candidate state lives
    /// in `scratch`).
    ///
    /// Returns `None` for wrong-arity vectors, out-of-bounds values and
    /// uncovered space. By construction (Eq. 5) at most one live id
    /// survives the intersection.
    #[inline]
    #[must_use]
    pub fn query_with_scratch(
        &self,
        dims: &Dims,
        scratch: &mut QueryScratch,
    ) -> Option<PlacementId> {
        self.query_slice(dims, scratch)
    }

    /// The walk behind every query entry point — one implementation, so
    /// they are bit-identical by construction. Inlinable into the
    /// serving crate, where the index is queried per request.
    #[inline]
    fn query_slice(
        &self,
        dims: &[(Coord, Coord)],
        scratch: &mut QueryScratch,
    ) -> Option<PlacementId> {
        if dims.len() != self.blocks || self.words == 0 {
            return None;
        }
        let acc = &mut scratch.words;
        acc.clear();
        acc.resize(self.words, !0u64);
        // High garbage bits beyond the id capacity vanish on the first
        // AND: segment bitsets only carry real candidate bits.
        for (r, v) in dims
            .iter()
            .flat_map(|&(w, h)| [w, h])
            .enumerate()
            .take(2 * self.blocks)
        {
            let seg = self.locate(r, v)?;
            let seg_bits = &self.bits[seg * self.words..(seg + 1) * self.words];
            let mut any = 0u64;
            for (a, &b) in acc.iter_mut().zip(seg_bits) {
                *a &= b;
                any |= *a;
            }
            if any == 0 {
                return None;
            }
        }
        let mut hit: Option<u32> = None;
        for (w, &word) in acc.iter().enumerate() {
            if word == 0 {
                continue;
            }
            debug_assert!(
                hit.is_none() && word.count_ones() == 1,
                "Eq. 5 violated: more than one candidate survived the intersection"
            );
            hit = Some(u32::try_from(w * 64).expect("id fits u32") + word.trailing_zeros());
            if cfg!(not(debug_assertions)) {
                break;
            }
        }
        hit.map(PlacementId)
    }

    /// [`Self::query_with_scratch`] with a throwaway scratch buffer (one
    /// heap allocation per call). Query loops should hold a
    /// [`QueryScratch`] or use [`Self::query_batch`] instead.
    #[inline]
    #[must_use]
    pub fn query(&self, dims: &Dims) -> Option<PlacementId> {
        self.query_slice(dims, &mut QueryScratch::new())
    }

    /// Answers a stream of dimension vectors through one scratch buffer:
    /// element `k` of the result equals `self.query(&queries[k])`.
    #[must_use]
    pub fn query_batch(&self, queries: &[Dims]) -> Vec<Option<PlacementId>> {
        let mut scratch = QueryScratch::new();
        queries
            .iter()
            .map(|dims| self.query_slice(dims, &mut scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiPlacementStructure;
    use mps_geom::{BlockRanges, DimsBox, IntervalMap, Point, Rect};
    use mps_netlist::{Block, Circuit};
    use mps_placer::Placement;

    /// The brute-force answer: every live entry's box scanned for `dims`.
    fn scan(mps: &MultiPlacementStructure, dims: &[(Coord, Coord)]) -> Option<PlacementId> {
        if dims.len() != mps.block_count() {
            return None;
        }
        let mut hits = mps.iter().filter(|(_, e)| e.covers(dims)).map(|(id, _)| id);
        let hit = hits.next();
        assert_eq!(hits.next(), None, "Eq. 5 violated at {dims:?}");
        hit
    }

    /// `n` deterministic probes over `mps`'s bounds: every eighth escapes
    /// them on one axis, every 64th lacks its last pair.
    fn probes(mps: &MultiPlacementStructure, n: usize, seed: u64) -> Vec<Dims> {
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

    /// Every query entry point answers `n` probes like [`scan`]; returns
    /// how many probes hit a stored placement.
    fn assert_matches_scan(mps: &MultiPlacementStructure, n: usize, seed: u64) -> usize {
        let stream = probes(mps, n, seed);
        let index = mps.index();
        let mut scratch = QueryScratch::new();
        let mut hits = 0;
        for dims in &stream {
            let expected = scan(mps, dims);
            assert_eq!(
                index.query_with_scratch(dims, &mut scratch),
                expected,
                "{dims:?}"
            );
            assert_eq!(index.query(dims), expected, "{dims:?}");
            hits += usize::from(expected.is_some());
        }
        let scanned: Vec<_> = stream.iter().map(|d| scan(mps, d)).collect();
        assert_eq!(index.query_batch(&stream), scanned);
        hits
    }

    fn two_blocks(name: &str, w_hi: Coord) -> Circuit {
        Circuit::builder(name)
            .block(Block::new("A", 10, w_hi, 10, 100))
            .block(Block::new("B", 10, 100, 10, 100))
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap()
    }

    fn entry(
        coords: [(Coord, Coord); 2],
        ranges: [(Coord, Coord, Coord, Coord); 2],
    ) -> StoredPlacement {
        StoredPlacement {
            placement: Placement::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()),
            dims_box: DimsBox::new(
                ranges
                    .iter()
                    .map(|&(wl, wh, hl, hh)| {
                        BlockRanges::new(Interval::new(wl, wh), Interval::new(hl, hh))
                    })
                    .collect(),
            ),
            avg_cost: 1.0,
            best_cost: 1.0,
            best_dims: ranges.iter().map(|&(wl, _, hl, _)| (wl, hl)).collect(),
        }
    }

    fn two_entry_structure() -> MultiPlacementStructure {
        let c = two_blocks("s", 100);
        let mut mps = MultiPlacementStructure::new(&c, Rect::from_xywh(0, 0, 400, 400));
        mps.insert_unchecked(entry(
            [(0, 0), (60, 0)],
            [(10, 50, 10, 50), (10, 50, 10, 50)],
        ));
        mps.insert_unchecked(entry(
            [(0, 0), (0, 120)],
            [(51, 100, 10, 100), (10, 100, 10, 100)],
        ));
        mps
    }

    /// `n` regions, each a zero-width slab of block A's width, so the
    /// candidate bitsets span `ceil(n / 64)` words.
    fn slab_structure(n: Coord) -> MultiPlacementStructure {
        let c = two_blocks("slabs", 200);
        let mut mps = MultiPlacementStructure::new(&c, Rect::from_xywh(0, 0, 512, 512));
        for w in 10..10 + n {
            mps.insert_unchecked(entry(
                [(0, 0), (w, 0)],
                [(w, w, 10, 100), (10, 100, 10, 100)],
            ));
        }
        mps
    }

    #[test]
    fn compiled_index_matches_handmade_structure() {
        let mps = two_entry_structure();
        let index = mps.index();
        assert_eq!(index.block_count(), 2);
        assert_eq!(index.bitset_words(), 1);
        // Every row splits where entry 0's interval ends, at 51.
        assert_eq!(index.segment_count(), 8);
        assert!(index.heap_bytes() > 0);
        for (dims, expected) in [
            (vec![(20, 20), (20, 20)], Some(PlacementId(0))),
            (vec![(80, 50), (50, 50)], Some(PlacementId(1))),
            (vec![(50, 80), (20, 20)], None),
            (vec![(500, 20), (20, 20)], None),
            (vec![(20, 20)], None),
        ] {
            let dims = Dims::from_vec_unchecked(dims);
            assert_eq!(index.query(&dims), expected, "{dims:?}");
            assert_eq!(scan(&mps, &dims), expected, "{dims:?}");
        }
        assert!(assert_matches_scan(&mps, 10_000, 7) > 0);
    }

    #[test]
    fn one_scratch_serves_structures_of_different_widths() {
        // A connection alternates between structures whose bitsets differ
        // in width; the accumulator is re-sized per query, so no stale
        // word from one structure may leak into the other's answer.
        let narrow = two_entry_structure();
        let wide = slab_structure(130);
        assert_eq!(narrow.index().bitset_words(), 1);
        assert_eq!(wide.index().bitset_words(), 3);
        let mut scratch = QueryScratch::new();
        for k in 0..200 {
            let w = Dims::from_vec_unchecked(vec![(k % 150 + 5, 20), (20, 20)]);
            let n = Dims::from_vec_unchecked(vec![(k % 90 + 10, 20), (20, 20)]);
            assert_eq!(wide.query_with_scratch(&w, &mut scratch), scan(&wide, &w));
            assert_eq!(
                narrow.query_with_scratch(&n, &mut scratch),
                scan(&narrow, &n)
            );
        }
        assert!(assert_matches_scan(&wide, 10_000, 11) > 0);
    }

    #[test]
    fn empty_structure_compiles_and_answers_nothing() {
        let mps =
            MultiPlacementStructure::new(&two_blocks("e", 100), Rect::from_xywh(0, 0, 400, 400));
        assert_eq!(mps.index().bitset_words(), 0);
        assert_eq!(mps.index().segment_count(), 0);
        assert_eq!(mps.query(&mps_geom::dims![(20, 20), (20, 20)]), None);
        assert_eq!(assert_matches_scan(&mps, 10_000, 1), 0);
    }

    #[test]
    fn batch_matches_single_queries() {
        let mps = two_entry_structure();
        let queries = probes(&mps, 500, 3);
        let singles: Vec<_> = queries.iter().map(|d| mps.query(d)).collect();
        assert_eq!(mps.query_batch(&queries), singles);
        assert_eq!(mps.index().query_batch(&queries), singles);
    }

    /// Each row of the flat layout is the row inserting the live entries'
    /// intervals one at a time builds, on structures with annihilated
    /// slots and with ids past one bitset word.
    #[test]
    fn every_row_equals_the_inserted_row() {
        let mut structures = vec![two_entry_structure(), slab_structure(130)];
        let mut holed = slab_structure(70);
        for id in [0, 3, 64, 69] {
            holed.remove(PlacementId(id));
        }
        structures.push(holed);
        for mps in &structures {
            for block in 0..mps.block_count() {
                for axis in [Axis::Width, Axis::Height] {
                    let mut inserted = IntervalMap::new();
                    for (id, e) in mps.iter() {
                        inserted.insert(e.dims_box.ranges()[block].along(axis), id.0);
                    }
                    let flat: Vec<_> = mps.index().row_segments(block, axis).collect();
                    assert_eq!(flat, inserted.as_segments(), "block {block} {axis:?}");
                    assert_eq!(mps.index().covered_len(block, axis), inserted.covered_len());
                }
            }
        }
    }
}
