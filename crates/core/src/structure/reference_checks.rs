//! Differential test of `check_loaded` against reference checks done
//! the direct way: every stored row compared with the row built by
//! inserting the live entries' intervals one at a time
//! (`IntervalMap::insert`, the paper's Store Placement update) and an
//! all-pairs loop for Eq. 5. On generated structures, and on copies
//! whose stored rows or entries are corrupted the ways a damaged legacy
//! artifact can be, both must return the same `Result`: the same first
//! violation with the same identifiers.

use super::*;
use crate::{GeneratorConfig, MpsGenerator};
use mps_netlist::benchmarks;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A structure as a legacy artifact holds it: the entries and, when
/// stored, the rows.
type Loaded = (MultiPlacementStructure, Option<Rows>);

/// `block`'s row along `axis` built by inserting the live entries'
/// intervals one at a time.
fn inserted_row(mps: &MultiPlacementStructure, block: usize, axis: Axis) -> IntervalMap<u32> {
    let mut row = IntervalMap::new();
    for (id, entry) in mps.iter() {
        row.insert(entry.dims_box.ranges()[block].along(axis), id.0);
    }
    row
}

/// Every row, built by [`inserted_row`]: the rows an intact legacy
/// artifact stores.
fn inserted_rows(mps: &MultiPlacementStructure) -> Rows {
    let n = mps.block_count();
    let rows = |axis| (0..n).map(|i| inserted_row(mps, i, axis)).collect();
    (rows(Axis::Width), rows(Axis::Height))
}

/// The invariant battery done the direct way: each stored row against
/// the fold of `insert` over the live entries, and every pair of boxes
/// for Eq. 5.
fn reference_check((mps, rows): &Loaded) -> Result<(), InvariantError> {
    let live: Vec<(PlacementId, &StoredPlacement)> = mps.iter().collect();
    if let Some((w_rows, h_rows)) = rows {
        for (i, (wr, hr)) in w_rows.iter().zip(h_rows).enumerate() {
            for (row, axis) in [(wr, Axis::Width), (hr, Axis::Height)] {
                let inserted = inserted_row(mps, i, axis);
                if *row != inserted {
                    let (stored, derived) = (row.as_segments(), inserted.as_segments());
                    let k = stored
                        .iter()
                        .zip(derived)
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
    for &(id, entry) in &live {
        entry
            .dims_box
            .check_within_bounds(&mps.bounds)
            .map_err(|e| InvariantError::OutOfBounds { id, detail: e })?;
        let top: Vec<(Coord, Coord)> = entry
            .dims_box
            .ranges()
            .iter()
            .map(|r| (r.w.hi(), r.h.hi()))
            .collect();
        if !entry.placement.is_legal(&top, Some(&mps.floorplan)) {
            return Err(InvariantError::IllegalPlacement { id });
        }
    }
    for (a_idx, &(a_id, a)) in live.iter().enumerate() {
        for &(b_id, b) in &live[a_idx + 1..] {
            if a.dims_box.overlaps(&b.dims_box) {
                return Err(InvariantError::BoxOverlap { a: a_id, b: b_id });
            }
        }
    }
    Ok(())
}

fn generated() -> Vec<MultiPlacementStructure> {
    let circuits = [
        benchmarks::circ01(),
        benchmarks::circ02(),
        benchmarks::two_stage_opamp(),
    ];
    let mut out = Vec::new();
    for (k, circuit) in circuits.iter().enumerate() {
        for seed in 0..2 {
            let config = GeneratorConfig::builder()
                .outer_iterations(30)
                .inner_iterations(20)
                .seed(17 * k as u64 + seed)
                .build();
            out.push(MpsGenerator::new(circuit, config).generate().unwrap());
        }
    }
    out
}

/// The ways a corrupted artifact can break the rows or the boxes. A row
/// corruption rebuilds the stored row from the live entries with one
/// entry's registration changed.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// One segment of a stored row loses one of its entry ids.
    DropId,
    /// An entry's registration in a stored row gets a hole, splitting it
    /// in two ranges.
    Split,
    /// An entry's registration in one stored row moves by one unit.
    Shift,
    /// A live entry is stored twice; the stored rows are rebuilt with the
    /// copy or kept without it.
    DuplicateBox,
}

/// A live entry and one of its dimensions, `(id, block, axis, interval)`.
fn pick(mps: &MultiPlacementStructure, rng: &mut StdRng) -> (u32, usize, Axis, Interval) {
    let live: Vec<(PlacementId, &StoredPlacement)> = mps.iter().collect();
    let (id, entry) = live[rng.random_range(0..live.len())];
    let block = rng.random_range(0..mps.block_count());
    let axis = if rng.random_bool(0.5) {
        Axis::Width
    } else {
        Axis::Height
    };
    (
        id.0,
        block,
        axis,
        entry.dims_box.ranges()[block].along(axis),
    )
}

/// Replaces one stored row with the fold of `insert` over the live
/// entries, entry `id` registered over `ranges` instead of its own
/// interval: the row a damaged artifact would carry.
fn misregister((mps, rows): &mut Loaded, block: usize, axis: Axis, id: u32, ranges: &[Interval]) {
    let mut row = IntervalMap::new();
    for (other, entry) in mps.iter() {
        if other.0 == id {
            for &range in ranges {
                row.insert(range, id);
            }
        } else {
            row.insert(entry.dims_box.ranges()[block].along(axis), other.0);
        }
    }
    let (w_rows, h_rows) = rows.get_or_insert_with(|| inserted_rows(mps));
    match axis {
        Axis::Width => w_rows[block] = row,
        Axis::Height => h_rows[block] = row,
    }
}

/// `iv` without `hole`, as the intervals left on either side.
fn without(iv: Interval, hole: Interval) -> Vec<Interval> {
    [(iv.lo(), hole.lo() - 1), (hole.hi() + 1, iv.hi())]
        .into_iter()
        .filter(|(lo, hi)| lo <= hi)
        .map(|(lo, hi)| Interval::new(lo, hi))
        .collect()
}

fn corrupt(loaded: &mut Loaded, how: Corruption, rng: &mut StdRng) {
    let (id, block, axis, iv) = pick(&loaded.0, rng);
    match how {
        Corruption::DropId => {
            let holding: Vec<Interval> = loaded
                .0
                .index()
                .row_segments(block, axis)
                .filter(|(_, ids)| ids.contains(&id))
                .map(|(seg, _)| seg)
                .collect();
            let seg = holding[rng.random_range(0..holding.len())];
            misregister(loaded, block, axis, id, &without(iv, seg));
        }
        Corruption::Split => {
            if iv.len() >= 3 {
                let hole = rng.random_range(iv.lo() + 1..iv.hi());
                misregister(loaded, block, axis, id, &without(iv, Interval::point(hole)));
            }
        }
        Corruption::Shift => {
            let by = if rng.random_bool(0.5) { 1 } else { -1 };
            let shifted = Interval::new(iv.lo() + by, iv.hi() + by);
            misregister(loaded, block, axis, id, &[shifted]);
        }
        Corruption::DuplicateBox => {
            let (mps, rows) = loaded;
            let copy = mps.entries[id as usize].clone().expect("picked a live id");
            mps.insert_unchecked(copy);
            if rng.random_bool(0.5) {
                *rows = Some(inserted_rows(mps));
            }
        }
    }
}

#[test]
fn check_invariants_matches_the_reference_scans() {
    let structures: Vec<Loaded> = generated()
        .into_iter()
        .map(|mps| {
            let rows = inserted_rows(&mps);
            (mps, Some(rows))
        })
        .collect();
    for loaded @ (mps, rows) in &structures {
        assert!(mps.placement_count() >= 2, "too few entries to corrupt");
        assert_eq!(mps.check_invariants(), Ok(()));
        assert_eq!(mps.check_loaded(rows.as_ref()), Ok(()));
        assert_eq!(reference_check(loaded), Ok(()));
    }
    let kinds = [
        Corruption::DropId,
        Corruption::Split,
        Corruption::Shift,
        Corruption::DuplicateBox,
    ];
    let mut rng = StdRng::seed_from_u64(0x1D_C4EC);
    for how in kinds {
        let mut rejected = 0;
        for case in 0..60 {
            let mut loaded = structures[case % structures.len()].clone();
            // Sometimes a second corruption of another kind, so the two
            // checks must also agree on which violation comes first.
            corrupt(&mut loaded, how, &mut rng);
            if case % 3 == 0 {
                let other = kinds[rng.random_range(0..kinds.len())];
                corrupt(&mut loaded, other, &mut rng);
            }
            let expected = reference_check(&loaded);
            let (mps, rows) = &loaded;
            assert_eq!(
                mps.check_loaded(rows.as_ref()),
                expected,
                "{how:?}, case {case}"
            );
            rejected += usize::from(expected.is_err());
        }
        assert!(rejected >= 30, "{how:?} corrupted only {rejected} of 60");
    }
}
