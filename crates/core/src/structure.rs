//! The multi-placement structure itself (§2).

use crate::{CompiledQueryIndex, InvariantError, PlacementId, QueryScratch, StoredPlacement};
use mps_geom::{Axis, BlockRanges, Coord, Dims, DimsBox, Interval, IntervalMap, Rect};
use mps_netlist::Circuit;
use mps_placer::{Placement, SequencePair, Template};
use std::sync::OnceLock;

/// The width row and the height row of every block, in block order, as a
/// legacy artifact stores them.
pub(crate) type Rows = (Vec<IntervalMap<u32>>, Vec<IntervalMap<u32>>);

/// The artifact layouts a structure is read from.
#[derive(Clone, Copy)]
pub(crate) enum Layout {
    /// `mps-v3`, in JSON and in binary version 3: bounds, floorplan,
    /// entries and fallback. The rows are built from the entries.
    Entries,
    /// Legacy `mps-v1` JSON and binary version 2: the same members
    /// followed by every row. The rows are required, and the loader
    /// compares them with the rows the entries derive.
    WithRows,
}

/// The generate-once, query-many placement structure: the computational
/// implementation of the function *M* (Eqs. 1 and 4).
///
/// Per block and axis the structure answers from one interval row
/// (Fig. 3): a sorted, non-overlapping list of integer intervals, each
/// carrying the placements valid there. A query feeds every `(w_i, h_i)`
/// pair to its two rows and intersects the returned placement sets; the
/// generation algorithm guarantees the intersection holds at most one
/// placement (Eq. 5: `|M(V)| = 1` inside covered space).
///
/// The rows are derived state: each is a pure function of the live
/// entries' validity boxes. Store Placement and Resolve Overlaps touch
/// only the entries, and the first read after a change (a query,
/// [`Self::index`], [`Self::check_invariants`]) builds every row from the
/// entries straight into one flat [`CompiledQueryIndex`], the only form
/// the rows take.
///
/// Dimension space not covered by any stored placement is served by a
/// fallback [`Template`] (§3.1.4: "the remaining uncovered percentage of
/// the space would then be mapped to a template-like placement for backup
/// purposes").
///
/// # Example
///
/// ```
/// use mps_core::{GeneratorConfig, MpsGenerator};
/// use mps_netlist::benchmarks;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = benchmarks::circ01();
/// let config = GeneratorConfig::builder().outer_iterations(30).seed(3).build();
/// let mps = MpsGenerator::new(&circuit, config).generate()?;
/// let dims = circuit.min_dims();
/// if let Some(id) = mps.query(&dims) {
///     let entry = mps.entry(id).expect("query returns live ids");
///     assert!(entry.covers(&dims));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiPlacementStructure {
    /// Per-block designer dimension bounds (the coverage space).
    bounds: Vec<BlockRanges>,
    /// The floorplan region every instantiation must fit.
    floorplan: Rect,
    /// Stored placements; `None` marks entries annihilated during overlap
    /// resolution. Indices are stable — they are the numbers in the rows.
    entries: Vec<Option<StoredPlacement>>,
    /// `entries[k]`'s `DimsBox::log_volume`, kept in step with its box so
    /// the coverage check sums cached values instead of taking 2N logs per
    /// entry on every proposal. Slots of annihilated entries are stale and
    /// never read.
    log_volumes: Vec<f64>,
    live_count: usize,
    /// One width row per block (the `W_i` functions of Eq. 3) and one
    /// height row per block (the `H_i` functions) in one flat index,
    /// built from the live entries on first read and emptied by every
    /// change to them.
    index: OnceLock<CompiledQueryIndex>,
    /// Backup template for uncovered space.
    fallback: Option<Template>,
}

impl MultiPlacementStructure {
    /// Creates an empty structure for a circuit and floorplan region.
    #[must_use]
    pub fn new(circuit: &Circuit, floorplan: Rect) -> Self {
        Self {
            bounds: circuit.dim_bounds(),
            floorplan,
            entries: Vec::new(),
            log_volumes: Vec::new(),
            live_count: 0,
            index: OnceLock::new(),
            fallback: None,
        }
    }

    /// Reassembles a structure from decoded parts, re-validating the
    /// structural frame the decoders cannot express field-by-field:
    /// non-empty bounds, per-entry arity agreement and, for the decoded
    /// rows of a legacy artifact, one row pair per block and no row index
    /// pointing at a dead or missing entry. Both deserializers (JSON and
    /// binary) funnel through here, so the two load paths accept exactly
    /// the same structures. The full Eq.-5 / legality battery is
    /// `check_invariants()`, which the envelope loaders run on top of
    /// this.
    pub(crate) fn from_parts(
        bounds: Vec<BlockRanges>,
        floorplan: Rect,
        entries: Vec<Option<StoredPlacement>>,
        rows: Option<&Rows>,
        fallback: Option<Template>,
    ) -> Result<Self, String> {
        let n = bounds.len();
        if n == 0 {
            return Err("structure must cover at least one block".to_owned());
        }
        if let Some((w_rows, h_rows)) = rows {
            if w_rows.len() != n || h_rows.len() != n {
                return Err(format!(
                    "row count mismatch: {n} blocks but {} width rows and {} height rows",
                    w_rows.len(),
                    h_rows.len()
                ));
            }
        }
        for (i, entry) in entries.iter().enumerate() {
            if let Some(e) = entry {
                if e.dims_box.block_count() != n {
                    return Err(format!(
                        "entry {i} spans {} blocks, structure has {n}",
                        e.dims_box.block_count()
                    ));
                }
            }
        }
        let is_live = |id: u32| entries.get(id as usize).is_some_and(|e| e.is_some());
        for (rows, label) in rows.into_iter().flat_map(|(w, h)| [(w, "w"), (h, "h")]) {
            for (i, row) in rows.iter().enumerate() {
                for (_, ids) in row.iter() {
                    if let Some(&dead) = ids.iter().find(|&&id| !is_live(id)) {
                        return Err(format!(
                            "{label}-row {i} references non-live placement {dead}"
                        ));
                    }
                }
            }
        }
        if let Some(t) = &fallback {
            if t.block_count() != n {
                return Err(format!(
                    "fallback template spans {} blocks, structure has {n}",
                    t.block_count()
                ));
            }
        }
        let live_count = entries.iter().flatten().count();
        let log_volumes = entries
            .iter()
            .map(|e| e.as_ref().map_or(0.0, |e| e.dims_box.log_volume()))
            .collect();
        Ok(MultiPlacementStructure {
            bounds,
            floorplan,
            entries,
            log_volumes,
            live_count,
            index: OnceLock::new(),
            fallback,
        })
    }

    /// Number of blocks `N`.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.bounds.len()
    }

    /// The floorplan region instantiations are guaranteed to fit.
    #[must_use]
    pub fn floorplan(&self) -> Rect {
        self.floorplan
    }

    /// Per-block dimension bounds (the coverage space).
    #[must_use]
    pub fn bounds(&self) -> &[BlockRanges] {
        &self.bounds
    }

    /// Number of live stored placements — the `Placements` column of
    /// Table 2.
    #[must_use]
    pub fn placement_count(&self) -> usize {
        self.live_count
    }

    /// The stored placement behind `id`, or `None` if it was annihilated.
    #[must_use]
    pub fn entry(&self, id: PlacementId) -> Option<&StoredPlacement> {
        self.entries.get(id.index()).and_then(Option::as_ref)
    }

    /// Iterates over live `(id, placement)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PlacementId, &StoredPlacement)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|sp| (PlacementId(i as u32), sp)))
    }

    /// The cached `DimsBox::log_volume` of every live entry, in id order
    /// (the order of [`Self::iter`]).
    pub(crate) fn live_log_volumes(&self) -> impl Iterator<Item = f64> + '_ {
        self.entries
            .iter()
            .zip(&self.log_volumes)
            .filter_map(|(e, &lv)| e.as_ref().map(|_| lv))
    }

    /// The backup template, if installed.
    #[must_use]
    pub fn fallback(&self) -> Option<&Template> {
        self.fallback.as_ref()
    }

    /// Installs the backup template for uncovered dimension space.
    pub fn set_fallback(&mut self, template: Template) {
        self.fallback = Some(template);
    }

    /// The function *M* of Eq. 4: feeds every `(w_i, h_i)` to its rows and
    /// intersects the returned placement sets.
    ///
    /// Returns `None` when the vector has the wrong arity, escapes the
    /// coverage bounds, or falls in uncovered space. By construction the
    /// intersection never holds more than one live id.
    ///
    /// This pays one scratch allocation per call; query loops should hold
    /// a [`QueryScratch`] (or use [`Self::query_batch`]) instead.
    #[must_use]
    pub fn query(&self, dims: &Dims) -> Option<PlacementId> {
        self.index().query(dims)
    }

    /// [`Self::query`] without the per-call allocation: the candidate set
    /// is intersected in place inside `scratch`, so reusing one scratch
    /// across a query stream makes the hot path allocation-free after the
    /// first call.
    #[must_use]
    pub fn query_with_scratch(
        &self,
        dims: &Dims,
        scratch: &mut QueryScratch,
    ) -> Option<PlacementId> {
        self.index().query_with_scratch(dims, scratch)
    }

    /// Answers a whole stream of dimension vectors through one reused
    /// scratch buffer: element `k` of the result is exactly
    /// `self.query(&queries[k])`.
    #[must_use]
    pub fn query_batch(&self, queries: &[Dims]) -> Vec<Option<PlacementId>> {
        self.index().query_batch(queries)
    }

    /// The rows of the structure in one flat index, which every query
    /// answers from; built from the live entries on the first read after
    /// a change.
    #[inline]
    #[must_use]
    pub fn index(&self) -> &CompiledQueryIndex {
        self.index
            .get_or_init(|| CompiledQueryIndex::build(self.block_count(), &self.entries))
    }

    /// Instantiates the placement for `dims`, or `None` in uncovered space.
    ///
    /// This is the synthesis-loop hot path the paper times in Table 2's
    /// `Instantiation` column: a handful of binary searches plus a clone of
    /// the coordinate vector.
    #[must_use]
    pub fn instantiate(&self, dims: &Dims) -> Option<Placement> {
        self.query(dims)
            .and_then(|id| self.entry(id))
            .map(|e| e.placement.clone())
    }

    /// Instantiates for `dims`, falling back to the backup template in
    /// uncovered space. Always returns a legal placement for in-bounds
    /// dimension vectors.
    ///
    /// When **no** fallback template is installed (a freshly generated or
    /// freshly loaded structure that never saw
    /// [`MultiPlacementStructure::set_fallback`]), uncovered space is
    /// served by the canonical single-row packing
    /// `SequencePair::row(n).pack(dims)`. That choice is a pure function
    /// of `dims`, so the answer is deterministic across processes and
    /// across save/load cycles — a reloaded structure without a template
    /// answers every probe exactly like the structure that was saved.
    ///
    /// # Panics
    ///
    /// Panics if the vector's arity differs from the block count.
    #[must_use]
    pub fn instantiate_or_fallback(&self, dims: &Dims) -> Placement {
        self.instantiate(dims)
            .unwrap_or_else(|| self.fallback_placement(dims))
    }

    /// The placement served for `dims` in uncovered space: the installed
    /// template, or the canonical single-row packing when none is
    /// installed. Both `*_or_fallback` entry points dispatch here, and so
    /// does a caller that has already answered the query elsewhere (a
    /// compiled index) and found no covering region.
    ///
    /// # Panics
    ///
    /// Panics if the vector's arity differs from the block count.
    #[must_use]
    pub fn fallback_placement(&self, dims: &Dims) -> Placement {
        assert_eq!(dims.len(), self.bounds.len(), "dimension arity mismatch");
        match &self.fallback {
            Some(t) => t.instantiate(dims),
            None => SequencePair::row(self.bounds.len()).pack(dims),
        }
    }

    /// Instantiates for `dims` with per-query compaction (extension over
    /// the paper): the selected placement's *relative arrangement* is
    /// repacked at the requested dimensions instead of returning its fixed
    /// coordinates, eliminating the whitespace a fixed-coordinate region
    /// placement carries away from its box's upper corner. Each stored
    /// placement thereby acts as a mini-template over its validity region.
    ///
    /// Still O(N²) per query (sequence-pair packing) — microseconds for
    /// the ≤25-module circuits the method targets. Returns `None` in
    /// uncovered space.
    #[must_use]
    pub fn instantiate_compacted(&self, dims: &Dims) -> Option<Placement> {
        self.query(dims)
            .and_then(|id| self.entry(id))
            .map(|e| SequencePair::from_placement(&e.placement, &e.best_dims).pack(dims))
    }

    /// [`Self::instantiate_compacted`] with template fallback in uncovered
    /// space. Always legal for in-bounds vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vector's arity differs from the block count.
    #[must_use]
    pub fn instantiate_compacted_or_fallback(&self, dims: &Dims) -> Placement {
        self.instantiate_compacted(dims)
            .unwrap_or_else(|| self.fallback_placement(dims))
    }

    /// Fraction of the dimension-space volume covered by stored validity
    /// boxes — the explorer's stopping criterion (§3.1.4).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        crate::coverage::volume_coverage(self)
    }

    /// Average per-row covered fraction (diagnostic; see
    /// [`crate::row_coverage`]).
    #[must_use]
    pub fn row_coverage(&self) -> f64 {
        crate::coverage::row_coverage(self)
    }

    // -----------------------------------------------------------------
    // Mutation API used by the generation algorithm (crate-public so the
    // explorer/resolver can drive it; exposed for integration tests via
    // `insert_unchecked`). Each change touches the entries, their cached
    // log-volumes and the live count, and empties the index.
    // -----------------------------------------------------------------

    /// Stores a placement without checking disjointness against existing
    /// entries — the *Store Placement* routine of §3.1.3, which assumes
    /// Resolve Overlaps already ran. Exposed for tests and for building
    /// structures from externally computed regions; misuse breaks the
    /// Eq.-5 invariant (detected by [`Self::check_invariants`]).
    pub fn insert_unchecked(&mut self, entry: StoredPlacement) -> PlacementId {
        assert_eq!(
            entry.dims_box.block_count(),
            self.bounds.len(),
            "entry block-count mismatch"
        );
        let id = PlacementId(self.entries.len() as u32);
        self.index = OnceLock::new();
        self.log_volumes.push(entry.dims_box.log_volume());
        self.entries.push(Some(entry));
        self.live_count += 1;
        id
    }

    /// The structure with its annihilated slots dropped and the live
    /// entries renumbered `0..` in id order: exactly what storing those
    /// entries one by one into an empty structure builds.
    pub(crate) fn into_compacted(mut self) -> Self {
        self.index = OnceLock::new();
        (self.entries, self.log_volumes) = self
            .entries
            .into_iter()
            .zip(self.log_volumes)
            .filter(|(e, _)| e.is_some())
            .unzip();
        self
    }

    /// Removes a stored placement entirely (annihilation during overlap
    /// resolution).
    pub(crate) fn remove(&mut self, id: PlacementId) {
        if let Some(slot @ Some(_)) = self.entries.get_mut(id.index()) {
            *slot = None;
            self.index = OnceLock::new();
            self.live_count -= 1;
        }
    }

    /// Replaces a stored placement's validity box with a (smaller) one.
    /// The new box must be contained in the old box.
    pub(crate) fn shrink(&mut self, id: PlacementId, new_box: DimsBox) {
        let Some(entry) = self.entries.get_mut(id.index()).and_then(Option::as_mut) else {
            return;
        };
        debug_assert!(
            entry
                .dims_box
                .ranges()
                .iter()
                .zip(new_box.ranges())
                .all(
                    |(old, new)| old.w.contains_interval(&new.w) && old.h.contains_interval(&new.h)
                ),
            "shrink must not grow the box"
        );
        self.log_volumes[id.index()] = new_box.log_volume();
        // Keep the recorded best dimensions inside the surviving region.
        entry.best_dims = new_box.clamp_dims(&entry.best_dims);
        entry.dims_box = new_box;
        self.index = OnceLock::new();
    }

    /// The smallest live id whose validity box overlaps `probe` — the
    /// retrieval step of Resolve Overlaps, which settles one stored
    /// placement at a time and then looks again. A scan in id order that
    /// stops at the first box overlap picks the same victim as intersecting
    /// the rows' id lists over all 2N dimensions, without building the
    /// rows; they remain the index behind [`Self::query`].
    #[must_use]
    pub(crate) fn first_overlapping(&self, probe: &DimsBox) -> Option<PlacementId> {
        self.iter()
            .find(|(_, e)| e.dims_box.overlaps(probe))
            .map(|(id, _)| id)
    }

    /// Verifies every structural invariant; the loaders run it on every
    /// artifact, and it serves as the post-generation sanity check. Cost:
    /// the index build if none is held (one sweep per row over the live
    /// entries' intervals), the per-entry legality checks (O(P · N²) for
    /// `P` entries of `N` blocks), and a sort-and-sweep over one dimension
    /// for Eq. 5 (O(P log P + C · N), where `C` is the number of entry
    /// pairs whose intervals overlap along that dimension).
    ///
    /// 1. live validity boxes are pairwise disjoint (Eq. 5);
    /// 2. every live entry is legal (no block overlap, inside the
    ///    floorplan) with all blocks at the box's upper corner;
    /// 3. every box lies within the coverage bounds.
    ///
    /// # Errors
    ///
    /// Returns a typed [`InvariantError`] naming the first violated
    /// invariant (its `Display` form is the old prose description).
    pub fn check_invariants(&self) -> Result<(), InvariantError> {
        let live: Vec<(PlacementId, &StoredPlacement)> = self.iter().collect();
        // Every block at its box's upper corner, one entry at a time.
        let mut top: Vec<(Coord, Coord)> = Vec::with_capacity(self.bounds.len());
        for &(id, entry) in &live {
            entry
                .dims_box
                .check_within_bounds(&self.bounds)
                .map_err(|e| InvariantError::OutOfBounds { id, detail: e })?;
            top.clear();
            top.extend(entry.dims_box.ranges().iter().map(|r| (r.w.hi(), r.h.hi())));
            if !entry.placement.is_legal(&top, Some(&self.floorplan)) {
                return Err(InvariantError::IllegalPlacement { id });
            }
        }
        match first_box_overlap(&live, &self.dimensions_by_segments()) {
            Some((a, b)) => Err(InvariantError::BoxOverlap { a, b }),
            None => Ok(()),
        }
    }

    /// [`Self::check_invariants`] for a structure read from an artifact.
    /// A legacy artifact's stored `rows` come first: each must equal,
    /// segment by segment, the row the live entries derive.
    ///
    /// # Errors
    ///
    /// [`InvariantError::Row`] naming the first stored row that differs
    /// and the first segment where it does, or the first violation
    /// [`Self::check_invariants`] finds.
    pub(crate) fn check_loaded(&self, rows: Option<&Rows>) -> Result<(), InvariantError> {
        if let Some((w_rows, h_rows)) = rows {
            for (i, (wr, hr)) in w_rows.iter().zip(h_rows).enumerate() {
                for (row, axis) in [(wr, Axis::Width), (hr, Axis::Height)] {
                    let stored = row.as_segments();
                    let derived: Vec<_> = self.index().row_segments(i, axis).collect();
                    if stored != derived {
                        let k = stored
                            .iter()
                            .zip(&derived)
                            .take_while(|(a, b)| a == b)
                            .count();
                        return Err(InvariantError::Row {
                            block: i,
                            axis,
                            detail: format!(
                                "segment {k} is {:?}, the live entries give {:?}",
                                stored.get(k),
                                derived.get(k)
                            ),
                        });
                    }
                }
            }
        }
        self.check_invariants()
    }

    /// Every dimension `(block, axis)`, the rows cut into the most
    /// segments first: their entries' intervals tend to be the narrowest
    /// against their span, so the fewest pairs overlap along them. The
    /// Eq. 5 sweep runs along the first and tests the rest in this order.
    fn dimensions_by_segments(&self) -> Vec<(usize, Axis)> {
        let index = self.index();
        let mut dims: Vec<(usize, Axis, usize)> = (0..self.bounds.len())
            .flat_map(|i| [Axis::Width, Axis::Height].map(|axis| (i, axis)))
            .map(|(i, axis)| (i, axis, index.row_segment_count(i, axis)))
            .collect();
        dims.sort_by_key(|&(_, _, segments)| std::cmp::Reverse(segments));
        dims.into_iter().map(|(i, axis, _)| (i, axis)).collect()
    }
}

/// The first pair of live entries, in the order `(a, b)` with `a`
/// before `b` in `live`, whose validity boxes overlap (Eq. 5 broken).
/// Entries are swept in order of their interval's lower end along the
/// first of `dims`; only entries whose intervals along it still reach
/// the current one are compared along the rest, and every overlapping
/// pair is among them, so the smallest pair found is the first one a
/// full pairwise scan would report.
fn first_box_overlap(
    live: &[(PlacementId, &StoredPlacement)],
    dims: &[(usize, Axis)],
) -> Option<(PlacementId, PlacementId)> {
    // Every box's intervals in `dims` order, one contiguous run per
    // entry, so a comparison reads two short slices.
    let flat: Vec<Interval> = live
        .iter()
        .flat_map(|(_, e)| {
            dims.iter()
                .map(|&(i, axis)| e.dims_box.ranges()[i].along(axis))
        })
        .collect();
    let intervals = |k: usize| &flat[k * dims.len()..(k + 1) * dims.len()];
    let mut order: Vec<usize> = (0..live.len()).collect();
    order.sort_unstable_by_key(|&k| intervals(k)[0].lo());
    // Entries whose interval along the sweep dimension may still meet a
    // later one, with that interval's upper end.
    let mut active: Vec<(Coord, usize)> = Vec::new();
    let mut first: Option<(usize, usize)> = None;
    for k in order {
        let (swept, rest) = intervals(k).split_first()?;
        active.retain(|&(hi, _)| hi >= swept.lo());
        for &(_, j) in &active {
            if intervals(j)[1..]
                .iter()
                .zip(rest)
                .all(|(a, b)| a.overlaps(b))
            {
                let pair = (j.min(k), j.max(k));
                first = Some(first.map_or(pair, |f| f.min(pair)));
            }
        }
        active.push((swept.hi(), k));
    }
    first.map(|(a, b)| (live[a].0, live[b].0))
}

#[cfg(feature = "serde")]
mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Field, Map, Reader, Serialize, Value};

    // The `mps-v3` layout: the rows are derived from the entries, so they
    // are not written. `live_count` is derived from `entries` too and
    // recomputed on load.
    impl Serialize for MultiPlacementStructure {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("bounds", self.bounds.to_value());
            map.insert("floorplan", self.floorplan.to_value());
            map.insert("entries", self.entries.to_value());
            map.insert("fallback", self.fallback.to_value());
            Value::Object(map)
        }
    }

    /// A structure object's members as read, each decoded or holding its
    /// data error. The envelope reads them before it may know its format
    /// tag (members come in any order), and then assembles the layout the
    /// tag names: the row members are required by [`Layout::WithRows`]
    /// and ignored, like any unknown member, by [`Layout::Entries`].
    pub(crate) struct Members {
        bounds: Field<Vec<BlockRanges>>,
        floorplan: Field<Rect>,
        entries: Field<Vec<Option<StoredPlacement>>>,
        w_rows: Field<Vec<IntervalMap<u32>>>,
        h_rows: Field<Vec<IntervalMap<u32>>>,
        fallback: Field<Option<Template>>,
    }

    impl Members {
        /// Reads the next value's members.
        ///
        /// # Errors
        ///
        /// A syntax error anywhere in the value; data errors wait for
        /// [`Members::into_structure`].
        pub(crate) fn read(r: &mut Reader<'_>) -> Result<Self, Error> {
            let mut members = Members {
                bounds: Field::new("bounds"),
                floorplan: Field::new("floorplan"),
                entries: Field::new("entries"),
                w_rows: Field::new("w_rows"),
                h_rows: Field::new("h_rows"),
                fallback: Field::new("fallback"),
            };
            serde::read_object(r, |key, r| match key {
                "bounds" => members.bounds.read(r),
                "floorplan" => members.floorplan.read(r),
                "entries" => members.entries.read(r),
                "w_rows" => members.w_rows.read(r),
                "h_rows" => members.h_rows.read(r),
                "fallback" => members.fallback.read(r),
                _ => r.skip_value(),
            })?;
            Ok(members)
        }

        /// The structure these members form in `layout`, with the rows
        /// a legacy layout stores. Beyond field decoding, the structural
        /// frame must be coherent before any method can safely run, so
        /// the shared `from_parts` constructor re-validates it. The full
        /// row / Eq.-5 / legality check is `check_loaded()`, which the
        /// envelope loader (`MultiPlacementStructure::from_json`) runs on
        /// top of this.
        ///
        /// # Errors
        ///
        /// The first member's data error in layout order, a member the
        /// layout requires that never appeared, or an incoherent frame.
        pub(crate) fn into_structure(
            self,
            layout: Layout,
        ) -> Result<(MultiPlacementStructure, Option<Rows>), Error> {
            let owner = "MultiPlacementStructure";
            let bounds = self.bounds.take(owner)?;
            let floorplan = self.floorplan.take(owner)?;
            let entries = self.entries.take(owner)?;
            let rows = match layout {
                Layout::Entries => None,
                Layout::WithRows => Some((self.w_rows.take(owner)?, self.h_rows.take(owner)?)),
            };
            let fallback = self.fallback.take(owner)?;
            MultiPlacementStructure::from_parts(bounds, floorplan, entries, rows.as_ref(), fallback)
                .map(|mps| (mps, rows))
                .map_err(Error::custom)
        }
    }

    /// Reads the `mps-v3` layout.
    impl Deserialize for MultiPlacementStructure {
        fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
            let (mps, _) = Members::read(r)?.into_structure(Layout::Entries)?;
            Ok(mps)
        }
    }
}

#[cfg(feature = "serde")]
pub(crate) use serde_impls::Members;

mod binfmt_impls {
    use super::*;
    use binfmt::{malformed, Decode, Decoder, Encode, Encoder, Error};
    use std::io::Write;

    /// Allocation caps for decoded top-level sections. Sanity bounds,
    /// not tight limits: real structures have tens of blocks and at
    /// most a few thousand stored placements.
    const MAX_BLOCKS: usize = 1 << 20;
    const MAX_ENTRIES: usize = 1 << 24;

    // The `mps-v3` layout, in the JSON key order. `live_count` and the
    // rows are derived from `entries`, exactly like the JSON path.
    impl Encode for MultiPlacementStructure {
        fn encode<W: Write>(&self, enc: &mut Encoder<W>) -> std::io::Result<()> {
            enc.seq(&self.bounds)?;
            self.floorplan.encode(enc)?;
            enc.varint(self.entries.len() as u64)?;
            for entry in &self.entries {
                enc.option(entry.as_ref())?;
            }
            enc.option(self.fallback.as_ref())
        }
    }

    impl MultiPlacementStructure {
        /// Decodes a binary artifact's payload in `layout`, with the rows
        /// the legacy version-2 layout carries between the entries and the
        /// fallback.
        ///
        /// Validate-don't-trust: every per-type decoder re-runs its own
        /// invariants, and the shared `from_parts` constructor
        /// re-validates the structural frame — the same funnel the JSON
        /// deserializer goes through, so both encodings accept exactly
        /// the same structures.
        pub(crate) fn decode_layout(
            dec: &mut Decoder<'_>,
            layout: Layout,
        ) -> Result<(Self, Option<Rows>), Error> {
            let bounds: Vec<BlockRanges> = dec.seq(MAX_BLOCKS, "structure bounds")?;
            let floorplan = Rect::decode(dec)?;
            let n_entries = dec.len(MAX_ENTRIES, "structure entries")?;
            let mut entries = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                entries.push(dec.option::<StoredPlacement>()?);
            }
            let rows = match layout {
                Layout::Entries => None,
                Layout::WithRows => Some((
                    dec.seq(MAX_BLOCKS, "structure w_rows")?,
                    dec.seq(MAX_BLOCKS, "structure h_rows")?,
                )),
            };
            let fallback: Option<Template> = dec.option()?;
            MultiPlacementStructure::from_parts(bounds, floorplan, entries, rows.as_ref(), fallback)
                .map(|mps| (mps, rows))
                .map_err(malformed)
        }
    }

    /// Reads the `mps-v3` layout.
    impl Decode for MultiPlacementStructure {
        fn decode(dec: &mut Decoder<'_>) -> Result<Self, Error> {
            Ok(Self::decode_layout(dec, Layout::Entries)?.0)
        }
    }
}

#[cfg(test)]
mod reference_checks;

#[cfg(test)]
mod tests {
    use super::*;
    use mps_geom::{dims, Point};
    use mps_netlist::{benchmarks, Block, Circuit};

    fn small_circuit() -> Circuit {
        Circuit::builder("s")
            .block(Block::new("A", 10, 100, 10, 100))
            .block(Block::new("B", 10, 100, 10, 100))
            .net_connecting("n", &[0, 1])
            .build()
            .unwrap()
    }

    fn entry(
        coords: &[(Coord, Coord)],
        box_ranges: &[(Coord, Coord, Coord, Coord)],
        avg: f64,
    ) -> StoredPlacement {
        StoredPlacement {
            placement: Placement::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect()),
            dims_box: DimsBox::new(
                box_ranges
                    .iter()
                    .map(|&(wl, wh, hl, hh)| {
                        BlockRanges::new(Interval::new(wl, wh), Interval::new(hl, hh))
                    })
                    .collect(),
            ),
            avg_cost: avg,
            best_cost: avg * 0.8,
            best_dims: box_ranges.iter().map(|&(wl, _, hl, _)| (wl, hl)).collect(),
        }
    }

    fn two_entry_structure() -> (Circuit, MultiPlacementStructure) {
        let c = small_circuit();
        let fp = Rect::from_xywh(0, 0, 400, 400);
        let mut mps = MultiPlacementStructure::new(&c, fp);
        // Entry 0: both blocks small, side by side.
        mps.insert_unchecked(entry(
            &[(0, 0), (60, 0)],
            &[(10, 50, 10, 50), (10, 50, 10, 50)],
            10.0,
        ));
        // Entry 1: both blocks large, stacked (disjoint box: w of block 0
        // in [51, 100]).
        mps.insert_unchecked(entry(
            &[(0, 0), (0, 120)],
            &[(51, 100, 10, 100), (10, 100, 10, 100)],
            20.0,
        ));
        (c, mps)
    }

    #[test]
    fn empty_structure_answers_nothing() {
        let c = small_circuit();
        let mps = MultiPlacementStructure::new(&c, Rect::from_xywh(0, 0, 100, 100));
        assert_eq!(mps.placement_count(), 0);
        assert!(mps.query(&dims![(10, 10), (10, 10)]).is_none());
        assert!(mps.instantiate(&dims![(10, 10), (10, 10)]).is_none());
        mps.check_invariants().unwrap();
    }

    #[test]
    fn query_selects_the_covering_entry() {
        let (_, mps) = two_entry_structure();
        assert_eq!(mps.query(&dims![(20, 20), (20, 20)]), Some(PlacementId(0)));
        assert_eq!(mps.query(&dims![(80, 50), (50, 50)]), Some(PlacementId(1)));
        // w0=50 belongs to entry 0's box; h0 beyond 50 is uncovered.
        assert_eq!(mps.query(&dims![(50, 80), (20, 20)]), None);
    }

    #[test]
    fn query_rejects_bad_arity_and_out_of_bounds() {
        let (_, mps) = two_entry_structure();
        assert!(mps.query(&dims![(20, 20)]).is_none());
        assert!(mps.query(&dims![(500, 20), (20, 20)]).is_none());
    }

    #[test]
    fn instantiate_clones_coordinates() {
        let (_, mps) = two_entry_structure();
        let p = mps.instantiate(&dims![(20, 20), (20, 20)]).unwrap();
        assert_eq!(p.coords()[1], Point::new(60, 0));
    }

    #[test]
    fn compacted_instantiation_is_legal_and_compact() {
        let (_, mps) = two_entry_structure();
        let dims = dims![(20, 20), (20, 20)];
        let fixed = mps.instantiate(&dims).unwrap();
        let packed = mps.instantiate_compacted(&dims).unwrap();
        assert!(packed.is_legal(&dims, None));
        let bb_fixed = fixed.bounding_box(&dims).unwrap();
        let bb_packed = packed.bounding_box(&dims).unwrap();
        assert!(
            bb_packed.area() <= bb_fixed.area(),
            "packing must not grow the bounding box ({bb_packed:?} vs {bb_fixed:?})"
        );
        // Uncovered space: falls back.
        assert!(mps
            .instantiate_compacted(&dims![(50, 80), (20, 20)])
            .is_none());
        let fb = mps.instantiate_compacted_or_fallback(&dims![(50, 80), (20, 20)]);
        assert!(fb.is_legal(&[(50, 80), (20, 20)], None));
    }

    #[test]
    fn fallback_serves_uncovered_space() {
        let (c, mut mps) = two_entry_structure();
        let dims = dims![(50, 80), (20, 20)];
        assert!(mps.instantiate(&dims).is_none());
        let p = mps.instantiate_or_fallback(&dims);
        assert!(p.is_legal(&dims, None));
        // With an explicit template installed, that template is used.
        mps.set_fallback(Template::expert_default(&c, 2));
        let p2 = mps.instantiate_or_fallback(&dims);
        assert!(p2.is_legal(&dims, None));
        assert!(mps.fallback().is_some());
    }

    #[test]
    fn invariants_pass_on_disjoint_entries() {
        let (_, mps) = two_entry_structure();
        mps.check_invariants().unwrap();
        assert_eq!(mps.placement_count(), 2);
    }

    #[test]
    fn invariants_catch_overlapping_boxes() {
        let c = small_circuit();
        let fp = Rect::from_xywh(0, 0, 400, 400);
        let mut mps = MultiPlacementStructure::new(&c, fp);
        mps.insert_unchecked(entry(
            &[(0, 0), (120, 0)],
            &[(10, 50, 10, 50), (10, 50, 10, 50)],
            1.0,
        ));
        mps.insert_unchecked(entry(
            &[(0, 0), (0, 120)],
            &[(40, 80, 10, 50), (10, 50, 10, 50)],
            2.0,
        ));
        assert!(mps.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_illegal_upper_corner() {
        let c = small_circuit();
        let fp = Rect::from_xywh(0, 0, 400, 400);
        let mut mps = MultiPlacementStructure::new(&c, fp);
        // Blocks at distance 30 but width range up to 50: they overlap at
        // the corner.
        mps.insert_unchecked(entry(
            &[(0, 0), (30, 0)],
            &[(10, 50, 10, 50), (10, 50, 10, 50)],
            1.0,
        ));
        let err = mps.check_invariants().unwrap_err();
        assert!(
            matches!(err, InvariantError::IllegalPlacement { .. }),
            "{err}"
        );
    }

    #[test]
    fn remove_annihilates_entry() {
        let (_, mut mps) = two_entry_structure();
        mps.remove(PlacementId(0));
        assert_eq!(mps.placement_count(), 1);
        assert!(mps.entry(PlacementId(0)).is_none());
        assert!(mps.query(&dims![(20, 20), (20, 20)]).is_none());
        assert_eq!(mps.query(&dims![(80, 50), (50, 50)]), Some(PlacementId(1)));
        mps.check_invariants().unwrap();
        // Removing twice is a no-op.
        mps.remove(PlacementId(0));
        assert_eq!(mps.placement_count(), 1);
    }

    #[test]
    fn shrink_updates_rows() {
        let (_, mut mps) = two_entry_structure();
        let new_box = DimsBox::new(vec![
            BlockRanges::new(Interval::new(10, 30), Interval::new(10, 50)),
            BlockRanges::new(Interval::new(10, 50), Interval::new(10, 50)),
        ]);
        mps.shrink(PlacementId(0), new_box);
        assert_eq!(mps.query(&dims![(20, 20), (20, 20)]), Some(PlacementId(0)));
        assert!(mps.query(&dims![(40, 20), (20, 20)]).is_none());
        mps.check_invariants().unwrap();
    }

    #[test]
    fn compacting_equals_storing_the_live_entries_afresh() {
        let c = benchmarks::circ02();
        let config = crate::GeneratorConfig::builder()
            .outer_iterations(60)
            .inner_iterations(20)
            .seed(4)
            .build();
        let mps = crate::MpsGenerator::new(&c, config).generate().unwrap();
        assert!(
            mps.entries.len() > mps.live_count,
            "no annihilated slot to drop"
        );
        let mut fresh = MultiPlacementStructure::new(&c, mps.floorplan());
        for (_, e) in mps.iter() {
            fresh.insert_unchecked(e.clone());
        }
        let compacted = mps.into_compacted();
        assert_eq!(compacted.entries, fresh.entries);
        assert_eq!(compacted.live_count, fresh.live_count);
        assert_eq!(compacted.index(), fresh.index());
        let bits = |m: &MultiPlacementStructure| -> Vec<u64> {
            m.log_volumes.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&compacted), bits(&fresh));
    }

    #[test]
    fn first_overlapping_finds_the_smallest_overlapping_id() {
        let (_, mut mps) = two_entry_structure();
        let probe = DimsBox::new(vec![
            BlockRanges::new(Interval::new(40, 60), Interval::new(10, 20)),
            BlockRanges::new(Interval::new(10, 20), Interval::new(10, 20)),
        ]);
        assert_eq!(mps.first_overlapping(&probe), Some(PlacementId(0)));
        // Probe w0 [10,50] misses entry 1's [51,100] and h0 [60,100]
        // misses entry 0's [10,50]: neither overlaps.
        let far = DimsBox::new(vec![
            BlockRanges::new(Interval::new(10, 50), Interval::new(60, 100)),
            BlockRanges::new(Interval::new(10, 20), Interval::new(10, 20)),
        ]);
        assert_eq!(mps.first_overlapping(&far), None);
        // A dead id is skipped: the next overlapping entry answers.
        mps.remove(PlacementId(0));
        assert_eq!(mps.first_overlapping(&probe), Some(PlacementId(1)));
    }

    #[test]
    fn coverage_grows_with_entries() {
        let c = small_circuit();
        let fp = Rect::from_xywh(0, 0, 400, 400);
        let mut mps = MultiPlacementStructure::new(&c, fp);
        assert_eq!(mps.coverage(), 0.0);
        mps.insert_unchecked(entry(
            &[(0, 0), (120, 0)],
            &[(10, 100, 10, 100), (10, 100, 10, 100)],
            1.0,
        ));
        // Full per-row coverage of all four rows.
        assert!((mps.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn works_for_benchmark_circuits() {
        let c = benchmarks::two_stage_opamp();
        let fp = c.suggested_floorplan(1.5);
        let mps = MultiPlacementStructure::new(&c, fp);
        assert_eq!(mps.block_count(), 5);
        mps.check_invariants().unwrap();
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_roundtrip_preserves_queries() {
        let (_, mps) = two_entry_structure();
        let json = serde_json::to_string(&mps).unwrap();
        let back: MultiPlacementStructure = serde_json::from_str(&json).unwrap();
        assert_eq!(back.placement_count(), 2);
        assert_eq!(back.query(&dims![(20, 20), (20, 20)]), Some(PlacementId(0)));
        back.check_invariants().unwrap();
    }
}
