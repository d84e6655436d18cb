//! Resolve Overlaps (§3.1.3).
//!
//! "In order to ensure that equation 5 holds true, there should be no
//! overlap between two placements' intervals of block dimensions. …
//! The latter searches for the smallest dimension (row) in which the two
//! placements are overlapping. The values of the average cost of each of
//! the placement are then compared. The placement with a higher average
//! cost is chosen to be shrunk in the found dimension. … If the
//! overlapping interval to be shrunk contains completely the other
//! placement's interval from the start and the end sides, it is forked
//! into two placements, each assuming new shrunk intervals on each side of
//! the un-changed placement."

use crate::{ExplorerStats, MultiPlacementStructure, PlacementId, StoredPlacement};
use mps_geom::DimsBox;

/// Outcome counters of one resolution pass (for generation reporting and
/// the ablation study).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ResolveStats {
    /// Times a stored placement was shrunk.
    pub stored_shrunk: usize,
    /// Times a stored placement was forked into two.
    pub stored_forked: usize,
    /// Stored placements annihilated (box fully covered by the winner).
    pub stored_annihilated: usize,
    /// Times the incoming placement's box was shrunk.
    pub new_shrunk: usize,
    /// Times the incoming box was forked.
    pub new_forked: usize,
}

/// Resolve Overlaps, then Store Placement (§3.1.3), as the explorer and
/// both merges (multi-start and refinement) run them: each surviving piece
/// of `proposal`'s box is stored as a copy of `proposal`, its best
/// dimensions clamped into the piece. Adds the resolution counters to
/// `stats` and returns the number of boxes stored.
pub(crate) fn resolve_and_store(
    mps: &mut MultiPlacementStructure,
    proposal: &StoredPlacement,
    fork_on_containment: bool,
    stats: &mut ExplorerStats,
) -> usize {
    let (survivors, resolved) = resolve_overlaps(
        mps,
        proposal.dims_box.clone(),
        proposal.avg_cost,
        fork_on_containment,
    );
    stats.stored_shrunk += resolved.stored_shrunk;
    stats.stored_forked += resolved.stored_forked;
    stats.stored_annihilated += resolved.stored_annihilated;
    let stored = survivors.len();
    for dims_box in survivors {
        mps.insert_unchecked(StoredPlacement {
            placement: proposal.placement.clone(),
            best_dims: dims_box.clamp_dims(&proposal.best_dims),
            dims_box,
            ..*proposal
        });
    }
    stored
}

/// Makes `new_box` disjoint from every stored validity box, shrinking
/// whichever side has the higher average cost along the dimension of
/// smallest overlap. Returns the surviving pieces of `new_box` (empty when
/// the new placement lost everywhere) plus resolution counters.
///
/// As in the paper's pseudo-code, each step settles the piece against one
/// stored placement, the overlapping one with the smallest live id
/// ([`MultiPlacementStructure::first_overlapping`]), then looks again: a
/// cut changes the overlapping set, so the whole set is never built.
///
/// When `fork_on_containment` is `false` (ablation A3), a cut that would
/// fork a box instead keeps only the larger remaining piece.
pub(crate) fn resolve_overlaps(
    mps: &mut MultiPlacementStructure,
    new_box: DimsBox,
    new_avg_cost: f64,
    fork_on_containment: bool,
) -> (Vec<DimsBox>, ResolveStats) {
    let mut stats = ResolveStats::default();
    let mut pending = vec![new_box];
    let mut survivors = Vec::new();

    'next_pending: while let Some(piece) = pending.pop() {
        let Some(victim) = mps.first_overlapping(&piece) else {
            survivors.push(piece);
            continue;
        };
        // The piece re-enters the work list until it is clean.
        let stored = mps
            .entry(victim)
            .expect("first_overlapping returns live ids");
        let stored_box = stored.dims_box.clone();
        let stored_avg = stored.avg_cost;
        let (dim, cut) = piece
            .smallest_overlap_dim(&stored_box)
            .expect("first_overlapping guarantees overlap");

        if stored_avg > new_avg_cost {
            // The stored placement loses: shrink it along `dim`.
            let pieces = stored_box.subtract_along(dim, cut);
            apply_to_stored(mps, victim, pieces, fork_on_containment, &mut stats);
            // The piece still owns `cut`; it may overlap other stored
            // placements, so re-queue it.
            pending.push(piece);
        } else {
            // The new placement loses (ties favour the incumbent): shrink
            // the piece along `dim`.
            let mut pieces = piece.subtract_along(dim, cut);
            match pieces.len() {
                0 => continue 'next_pending, // annihilated
                1 => stats.new_shrunk += 1,
                _ => {
                    if fork_on_containment {
                        stats.new_forked += 1;
                    } else {
                        stats.new_shrunk += 1;
                        keep_larger(&mut pieces);
                    }
                }
            }
            pending.extend(pieces);
        }
    }
    (survivors, stats)
}

fn apply_to_stored(
    mps: &mut MultiPlacementStructure,
    id: PlacementId,
    mut pieces: Vec<DimsBox>,
    fork_on_containment: bool,
    stats: &mut ResolveStats,
) {
    match pieces.len() {
        0 => {
            stats.stored_annihilated += 1;
            mps.remove(id);
        }
        1 => {
            stats.stored_shrunk += 1;
            mps.shrink(id, pieces.pop().expect("one piece"));
        }
        _ => {
            if fork_on_containment {
                stats.stored_forked += 1;
                let second = pieces.pop().expect("two pieces");
                let first = pieces.pop().expect("two pieces");
                let entry = mps.entry(id).expect("live").clone();
                mps.shrink(id, first);
                // The fork keeps the same coordinates and costs; its best
                // dims may fall outside the half it owns — clamp them in.
                mps.insert_unchecked(StoredPlacement {
                    best_dims: second.clamp_dims(&entry.best_dims),
                    dims_box: second,
                    ..entry
                });
            } else {
                stats.stored_shrunk += 1;
                keep_larger(&mut pieces);
                mps.shrink(id, pieces.pop().expect("one piece"));
            }
        }
    }
}

/// Retains only the piece with the larger log-volume.
fn keep_larger(pieces: &mut Vec<DimsBox>) {
    if pieces.len() > 1 {
        let (best_idx, _) = pieces
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.log_volume()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        let keep = pieces.swap_remove(best_idx);
        pieces.clear();
        pieces.push(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_geom::{Axis, BlockRanges, Coord, Dims, Interval, IntervalMap, Point, Rect};
    use mps_netlist::{Block, Circuit};
    use mps_placer::Placement;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn circuit() -> Circuit {
        Circuit::builder("r")
            .block(Block::new("A", 1, 200, 1, 200))
            .build()
            .unwrap()
    }

    fn mps() -> MultiPlacementStructure {
        MultiPlacementStructure::new(&circuit(), Rect::from_xywh(0, 0, 1_000, 1_000))
    }

    fn dbox(w: (Coord, Coord), h: (Coord, Coord)) -> DimsBox {
        DimsBox::new(vec![BlockRanges::new(
            Interval::new(w.0, w.1),
            Interval::new(h.0, h.1),
        )])
    }

    fn stored(w: (Coord, Coord), h: (Coord, Coord), avg: f64) -> StoredPlacement {
        StoredPlacement {
            placement: Placement::new(vec![Point::new(0, 0)]),
            dims_box: dbox(w, h),
            avg_cost: avg,
            best_cost: avg,
            best_dims: mps_geom::dims![(w.0, h.0)],
        }
    }

    #[test]
    fn no_overlap_passes_through() {
        let mut m = mps();
        m.insert_unchecked(stored((1, 50), (1, 50), 5.0));
        let (out, stats) = resolve_overlaps(&mut m, dbox((60, 100), (1, 50)), 1.0, true);
        assert_eq!(out, vec![dbox((60, 100), (1, 50))]);
        assert_eq!(stats, ResolveStats::default());
        m.check_invariants().unwrap();
    }

    #[test]
    fn cheaper_newcomer_shrinks_stored() {
        let mut m = mps();
        let id = m.insert_unchecked(stored((1, 100), (1, 100), 10.0));
        // Overlap in w = [80,100] (len 21) and h fully: w is the smallest
        // overlap dim → stored shrinks to w [1,79].
        let (out, stats) = resolve_overlaps(&mut m, dbox((80, 150), (1, 100)), 1.0, true);
        assert_eq!(out, vec![dbox((80, 150), (1, 100))]);
        assert_eq!(stats.stored_shrunk, 1);
        assert_eq!(m.entry(id).unwrap().dims_box, dbox((1, 79), (1, 100)));
        m.check_invariants().unwrap();
    }

    #[test]
    fn pricier_newcomer_is_shrunk() {
        let mut m = mps();
        m.insert_unchecked(stored((1, 100), (1, 100), 1.0));
        let (out, stats) = resolve_overlaps(&mut m, dbox((80, 150), (1, 100)), 10.0, true);
        assert_eq!(out, vec![dbox((101, 150), (1, 100))]);
        assert_eq!(stats.new_shrunk, 1);
        assert_eq!(
            m.entry(PlacementId(0)).unwrap().dims_box,
            dbox((1, 100), (1, 100))
        );
        m.check_invariants().unwrap();
    }

    #[test]
    fn tie_favours_incumbent() {
        let mut m = mps();
        m.insert_unchecked(stored((1, 100), (1, 100), 5.0));
        let (out, _) = resolve_overlaps(&mut m, dbox((80, 150), (1, 100)), 5.0, true);
        assert_eq!(out, vec![dbox((101, 150), (1, 100))]);
    }

    #[test]
    fn containment_forks_stored() {
        let mut m = mps();
        let id = m.insert_unchecked(stored((1, 200), (1, 100), 10.0));
        // Newcomer strictly inside stored's w interval: stored forks.
        let (out, stats) = resolve_overlaps(&mut m, dbox((50, 80), (1, 100)), 1.0, true);
        assert_eq!(out, vec![dbox((50, 80), (1, 100))]);
        assert_eq!(stats.stored_forked, 1);
        assert_eq!(m.placement_count(), 2);
        assert_eq!(m.entry(id).unwrap().dims_box, dbox((1, 49), (1, 100)));
        let fork = m.entry(PlacementId(1)).unwrap();
        assert_eq!(fork.dims_box, dbox((81, 200), (1, 100)));
        // Fork keeps coordinates and costs, best dims clamped inside.
        assert!(fork.dims_box.contains(&fork.best_dims));
        m.check_invariants().unwrap();
    }

    #[test]
    fn containment_without_fork_keeps_larger_piece() {
        let mut m = mps();
        let id = m.insert_unchecked(stored((1, 200), (1, 100), 10.0));
        let (out, stats) = resolve_overlaps(&mut m, dbox((50, 80), (1, 100)), 1.0, false);
        assert_eq!(out, vec![dbox((50, 80), (1, 100))]);
        assert_eq!(stats.stored_forked, 0);
        assert_eq!(stats.stored_shrunk, 1);
        assert_eq!(m.placement_count(), 1);
        // Larger piece is [81,200] (len 120 > 49).
        assert_eq!(m.entry(id).unwrap().dims_box, dbox((81, 200), (1, 100)));
        m.check_invariants().unwrap();
    }

    #[test]
    fn newcomer_fork_produces_two_survivors() {
        let mut m = mps();
        m.insert_unchecked(stored((50, 80), (1, 100), 1.0));
        // Newcomer spans the stored box in w: it forks around it.
        let (mut out, stats) = resolve_overlaps(&mut m, dbox((1, 200), (1, 100)), 10.0, true);
        out.sort_by_key(|b| b.ranges()[0].w.lo());
        assert_eq!(
            out,
            vec![dbox((1, 49), (1, 100)), dbox((81, 200), (1, 100))]
        );
        assert_eq!(stats.new_forked, 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn newcomer_annihilated_when_fully_covered() {
        let mut m = mps();
        m.insert_unchecked(stored((1, 200), (1, 200), 1.0));
        let (out, _) = resolve_overlaps(&mut m, dbox((50, 80), (50, 80)), 10.0, true);
        assert!(out.is_empty());
        assert_eq!(m.placement_count(), 1);
    }

    #[test]
    fn stored_annihilated_when_fully_covered() {
        let mut m = mps();
        m.insert_unchecked(stored((50, 80), (50, 80), 10.0));
        let (out, stats) = resolve_overlaps(&mut m, dbox((1, 200), (1, 200)), 1.0, true);
        assert_eq!(stats.stored_annihilated, 1);
        assert_eq!(m.placement_count(), 0);
        assert_eq!(out, vec![dbox((1, 200), (1, 200))]);
    }

    #[test]
    fn multi_overlap_resolves_all() {
        let mut m = mps();
        m.insert_unchecked(stored((1, 60), (1, 200), 1.0));
        m.insert_unchecked(stored((61, 120), (1, 200), 1.0));
        m.insert_unchecked(stored((121, 200), (1, 200), 20.0));
        // Newcomer overlaps all three; it loses to the first two (cheap)
        // and beats the third.
        let (out, _) = resolve_overlaps(&mut m, dbox((40, 160), (1, 200)), 5.0, true);
        // Survivor: [121,160] carved from the expensive third placement's
        // region... after losing [40,120] to the first two.
        assert_eq!(out, vec![dbox((121, 160), (1, 200))]);
        let third = m.entry(PlacementId(2)).unwrap();
        assert_eq!(third.dims_box, dbox((161, 200), (1, 200)));
        m.check_invariants().unwrap();
    }

    /// Reference answers for `first_overlapping`: the minimum live id
    /// whose box overlaps `probe`, found once by trying every id and once
    /// through the rows (intersecting `ids_overlapping` over all 2N rows,
    /// the lookup Resolve Overlaps used before the direct scan).
    fn reference_first_overlapping(
        m: &MultiPlacementStructure,
        probe: &DimsBox,
        max_id: u32,
    ) -> (Option<PlacementId>, Option<PlacementId>) {
        let brute = (0..=max_id)
            .map(PlacementId)
            .find(|&id| m.entry(id).is_some_and(|e| e.dims_box.overlaps(probe)));
        let mut via_rows: Option<Vec<u32>> = None;
        for (i, r) in probe.ranges().iter().enumerate() {
            for axis in [Axis::Width, Axis::Height] {
                let row: IntervalMap<u32> = m
                    .iter()
                    .map(|(id, e)| (e.dims_box.ranges()[i].along(axis), id.0))
                    .collect();
                let ids = row.ids_overlapping(r.along(axis));
                via_rows = Some(match via_rows {
                    None => ids,
                    Some(mut prev) => {
                        prev.retain(|c| ids.binary_search(c).is_ok());
                        prev
                    }
                });
            }
        }
        let rows = via_rows
            .unwrap_or_default()
            .first()
            .map(|&c| PlacementId(c));
        (brute, rows)
    }

    /// `volume_coverage` with every live box's log-volume recomputed
    /// instead of read from the structure's cache.
    fn recomputed_coverage(m: &MultiPlacementStructure) -> f64 {
        let total_log: f64 = m
            .bounds()
            .iter()
            .flat_map(|b| [b.w.len(), b.h.len()])
            .map(|l| (l as f64).ln())
            .sum();
        let covered: f64 = m
            .iter()
            .map(|(_, e)| (e.dims_box.log_volume() - total_log).exp())
            .sum();
        covered.min(1.0)
    }

    fn random_box(rng: &mut StdRng, blocks: usize) -> DimsBox {
        let mut interval = || {
            let a = rng.random_range(1..=200);
            let b = rng.random_range(1..=200);
            Interval::new(a.min(b), a.max(b))
        };
        DimsBox::new(
            (0..blocks)
                .map(|_| BlockRanges::new(interval(), interval()))
                .collect(),
        )
    }

    /// Also pins the coverage check, which sums cached log-volumes, to
    /// the boxes after every store.
    #[test]
    fn first_overlapping_matches_brute_force_on_resolved_streams() {
        let mut totals = ExplorerStats::default();
        for blocks in 1..=3 {
            for fork in [true, false] {
                for seed in 0..4u64 {
                    let mut rng = StdRng::seed_from_u64(seed * 31 + blocks as u64);
                    let circuit = (0..blocks)
                        .fold(Circuit::builder("d"), |b, i| {
                            b.block(Block::new(format!("B{i}"), 1, 200, 1, 200))
                        })
                        .build()
                        .unwrap();
                    let mut m =
                        MultiPlacementStructure::new(&circuit, Rect::from_xywh(0, 0, 1_000, 1_000));
                    let mut stats = ExplorerStats::default();
                    for _ in 0..48 {
                        let dims_box = random_box(&mut rng, blocks);
                        let best_dims = Dims::from_vec_unchecked(
                            dims_box
                                .ranges()
                                .iter()
                                .map(|r| (r.w.lo(), r.h.lo()))
                                .collect(),
                        );
                        // A few distinct costs, so ties and both winners occur.
                        let cost = f64::from(rng.random_range(1..=5u32));
                        let proposal = StoredPlacement {
                            placement: Placement::new(vec![Point::new(0, 0); blocks]),
                            dims_box,
                            avg_cost: cost,
                            best_cost: cost,
                            best_dims,
                        };
                        stats.boxes_stored +=
                            resolve_and_store(&mut m, &proposal, fork, &mut stats);
                        assert_eq!(
                            m.coverage().to_bits(),
                            recomputed_coverage(&m).to_bits(),
                            "cached log-volumes drifted from the boxes"
                        );
                        let max_id = (stats.boxes_stored + stats.stored_forked) as u32;
                        for _ in 0..8 {
                            let probe = random_box(&mut rng, blocks);
                            let (brute, rows) = reference_first_overlapping(&m, &probe, max_id);
                            let got = m.first_overlapping(&probe);
                            assert_eq!(got, brute, "blocks {blocks} fork {fork} probe {probe:?}");
                            assert_eq!(got, rows, "rows disagree with boxes on {probe:?}");
                        }
                    }
                    totals.stored_shrunk += stats.stored_shrunk;
                    totals.stored_forked += stats.stored_forked;
                    totals.stored_annihilated += stats.stored_annihilated;
                }
            }
        }
        // The streams must reach every resolution outcome, dead ids included.
        assert!(totals.stored_shrunk > 0, "{totals:?}");
        assert!(totals.stored_forked > 0, "{totals:?}");
        assert!(totals.stored_annihilated > 0, "{totals:?}");
    }

    #[test]
    fn survivors_are_pairwise_disjoint_and_storable() {
        let mut m = mps();
        m.insert_unchecked(stored((50, 80), (1, 100), 1.0));
        m.insert_unchecked(stored((100, 130), (1, 100), 1.0));
        let (out, _) = resolve_overlaps(&mut m, dbox((1, 200), (1, 100)), 10.0, true);
        for (i, a) in out.iter().enumerate() {
            for b in &out[i + 1..] {
                assert!(!a.overlaps(b), "survivors overlap: {a:?} vs {b:?}");
            }
        }
        // Store them and verify the whole structure still satisfies Eq. 5.
        for b in out {
            let best = (b.ranges()[0].w.lo(), b.ranges()[0].h.lo());
            m.insert_unchecked(StoredPlacement {
                placement: Placement::new(vec![Point::new(0, 0)]),
                dims_box: b,
                avg_cost: 10.0,
                best_cost: 10.0,
                best_dims: mps_geom::dims![best],
            });
        }
        m.check_invariants().unwrap();
    }
}
