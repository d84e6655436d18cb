//! Differential test of `check_invariants` against reference checks
//! done the direct way: every row rebuilt by inserting the live entries'
//! intervals one at a time (`IntervalMap::insert`, the paper's Store
//! Placement update) and an all-pairs loop for Eq. 5. On generated
//! structures, and on copies corrupted the ways a damaged artifact can
//! be, both must return the same `Result`: the same first violation with
//! the same identifiers.

use super::*;
use crate::{GeneratorConfig, MpsGenerator};
use mps_netlist::benchmarks;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The invariant battery done the direct way: each held row against the
/// fold of `insert` over the live entries, and every pair of boxes for
/// Eq. 5.
fn reference_check(mps: &MultiPlacementStructure) -> Result<(), InvariantError> {
    let live: Vec<(PlacementId, &StoredPlacement)> = mps.iter().collect();
    if let Some((w_rows, h_rows)) = mps.rows.get() {
        for (i, (wr, hr)) in w_rows.iter().zip(h_rows).enumerate() {
            for (row, axis) in [(wr, Axis::Width), (hr, Axis::Height)] {
                let mut inserted = IntervalMap::new();
                for &(id, entry) in &live {
                    inserted.insert(axis_interval(&entry.dims_box, i, axis), id.0);
                }
                if *row != inserted {
                    return Err(InvariantError::Row {
                        block: i,
                        axis,
                        detail: row_mismatch(row, &inserted),
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

/// The ways a corrupted artifact can break the rows or the boxes.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// One segment of a held row loses one of its entry ids.
    DropId,
    /// An entry's registration in a held row gets a hole, splitting it in
    /// two ranges.
    Split,
    /// An entry's registration in one held row moves by one unit.
    Shift,
    /// A live entry is stored twice; the held rows are rebuilt with the
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
        axis_interval(&entry.dims_box, block, axis),
    )
}

/// One row held in the structure's cell, filled first if it is empty.
fn row_mut(mps: &mut MultiPlacementStructure, block: usize, axis: Axis) -> &mut IntervalMap<u32> {
    mps.rows();
    let (w_rows, h_rows) = mps.rows.get_mut().expect("just filled");
    match axis {
        Axis::Width => &mut w_rows[block],
        Axis::Height => &mut h_rows[block],
    }
}

fn corrupt(mps: &mut MultiPlacementStructure, how: Corruption, rng: &mut StdRng) {
    let (id, block, axis, iv) = pick(mps, rng);
    match how {
        Corruption::DropId => {
            let row = row_mut(mps, block, axis);
            let holding: Vec<Interval> = row
                .iter()
                .filter(|(_, ids)| ids.contains(&id))
                .map(|(seg, _)| *seg)
                .collect();
            let seg = holding[rng.random_range(0..holding.len())];
            row.remove(seg, id);
        }
        Corruption::Split => {
            if iv.len() >= 3 {
                let hole = rng.random_range(iv.lo() + 1..iv.hi());
                row_mut(mps, block, axis).remove(Interval::new(hole, hole), id);
            }
        }
        Corruption::Shift => {
            let by = if rng.random_bool(0.5) { 1 } else { -1 };
            let row = row_mut(mps, block, axis);
            row.remove(iv, id);
            row.insert(Interval::new(iv.lo() + by, iv.hi() + by), id);
        }
        Corruption::DuplicateBox => {
            let copy = mps.entries[id as usize].clone().expect("picked a live id");
            if rng.random_bool(0.5) {
                mps.insert_unchecked(copy);
            } else {
                mps.log_volumes.push(copy.dims_box.log_volume());
                mps.entries.push(Some(copy));
                mps.live_count += 1;
            }
        }
    }
}

#[test]
fn check_invariants_matches_the_reference_scans() {
    let structures = generated();
    for mps in &structures {
        assert!(mps.placement_count() >= 2, "too few entries to corrupt");
        assert_eq!(mps.check_invariants(), Ok(()));
        assert_eq!(reference_check(mps), Ok(()));
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
            let mut mps = structures[case % structures.len()].clone();
            // Sometimes a second corruption of another kind, so the two
            // checks must also agree on which violation comes first.
            corrupt(&mut mps, how, &mut rng);
            if case % 3 == 0 {
                let other = kinds[rng.random_range(0..kinds.len())];
                corrupt(&mut mps, other, &mut rng);
            }
            let expected = reference_check(&mps);
            assert_eq!(mps.check_invariants(), expected, "{how:?}, case {case}");
            rejected += usize::from(expected.is_err());
        }
        assert!(rejected >= 30, "{how:?} corrupted only {rejected} of 60");
    }
}
