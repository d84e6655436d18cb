//! Region-targeted refinement of an existing multi-placement structure.
//!
//! The paper's economics are *generate once, query many*; this module
//! upgrades them to *generate once, improve continuously*. Serving
//! telemetry (or any other traffic signal) identifies a **hot region**
//! of block-dimension space — one sub-interval per block axis — and
//! [`refine_region`] re-runs the deterministic multi-start generation
//! machinery ([`crate::parallel`]) *inside that region only*, then
//! merges the new placements into a copy of the live structure through
//! the same Resolve Overlaps discipline (§3.1.3) single-start
//! generation uses. The refined structure keeps every entry outside the
//! region untouched (new validity boxes live entirely inside the
//! region, so resolution can never reach them), keeps the fallback
//! template, and passes the full Eq.-5 invariant battery before it is
//! returned.
//!
//! The exploration runs over a **synthesized netless circuit** whose
//! block bounds are the region itself: [`mps_netlist::Circuit`] accepts
//! circuits without nets (their HPWL cost is zero), so the refinement
//! cost signal degrades gracefully to area/dead-space when no netlist
//! is available — exactly the signal a serving process (which holds
//! only the persisted structure, never the source circuit) can act on.
//! Callers that *do* hold the original circuit can pass it through
//! [`refine_region_with_circuit`] to keep the wirelength term.
//!
//! Determinism: the same structure, region and config produce the same
//! refined structure bit-for-bit — the explorer walks are seeded via
//! [`crate::parallel::start_seed`] and the merge is serial in start
//! order, exactly like multi-start generation.

use crate::parallel::generate_multi_start;
use crate::resolve::resolve_and_store;
use crate::{
    ExplorerStats, GeneratorConfig, InvariantError, MultiPlacementStructure, PhaseTimings,
};
use mps_geom::BlockRanges;
use mps_netlist::{Block, Circuit};
use std::fmt;

/// Why a refinement request could not run.
#[derive(Debug)]
pub enum RefineError {
    /// The region's arity differs from the structure's block count.
    ArityMismatch {
        /// Blocks the structure covers.
        expected: usize,
        /// Ranges the region supplied.
        got: usize,
    },
    /// A region range escapes the structure's designer bounds; placements
    /// generated there could never be served.
    RegionOutOfBounds {
        /// The offending block index.
        block: usize,
    },
    /// The merged structure failed the Eq.-5 invariant battery — a
    /// refinement bug; the candidate is refused rather than returned.
    Invariant(InvariantError),
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::ArityMismatch { expected, got } => write!(
                f,
                "refinement region covers {got} blocks, the structure covers {expected}"
            ),
            RefineError::RegionOutOfBounds { block } => write!(
                f,
                "refinement region for block {block} escapes the structure's designer bounds"
            ),
            RefineError::Invariant(e) => {
                write!(f, "refined structure violates invariants: {e}")
            }
        }
    }
}

impl std::error::Error for RefineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RefineError::Invariant(e) => Some(e),
            _ => None,
        }
    }
}

/// What one [`refine_region`] run did.
#[derive(Debug, Clone, Default)]
pub struct RefineReport {
    /// Explorer walks run inside the region.
    pub starts: usize,
    /// Validity boxes the region exploration produced (before merging).
    pub region_boxes: usize,
    /// Boxes that survived the merge into the refined structure.
    pub inserted_boxes: usize,
    /// Stored placements of the refined structure before the merge.
    pub placements_before: usize,
    /// Stored placements after the merge.
    pub placements_after: usize,
    /// Aggregate explorer counters of the region walks.
    pub explorer: ExplorerStats,
}

/// Re-anneals `structure` inside `region` (one sub-range per block) and
/// merges the result, using a synthesized netless circuit over the
/// region bounds as the exploration target (cost degrades to
/// area/dead-space — see the module docs). The input structure is not
/// modified; the refined copy is returned alongside a report.
///
/// # Errors
///
/// Returns [`RefineError::ArityMismatch`] /
/// [`RefineError::RegionOutOfBounds`] on malformed regions and
/// [`RefineError::Invariant`] when the merged candidate fails the
/// invariant battery (a bug, not valid input).
pub fn refine_region(
    structure: &MultiPlacementStructure,
    region: &[BlockRanges],
    config: &GeneratorConfig,
) -> Result<(MultiPlacementStructure, RefineReport), RefineError> {
    let circuit = region_circuit(structure, region)?;
    merge_region_walks(structure, &circuit, config)
}

/// [`refine_region`] with the original circuit's netlist kept in the
/// cost signal: the region circuit reuses `circuit`'s nets over blocks
/// whose bounds are narrowed to the region, so exploration optimizes
/// wirelength + area exactly like first-time generation did.
///
/// # Errors
///
/// All [`refine_region`] cases, plus [`RefineError::ArityMismatch`]
/// when `circuit` covers a different block count than the structure.
pub fn refine_region_with_circuit(
    structure: &MultiPlacementStructure,
    circuit: &Circuit,
    region: &[BlockRanges],
    config: &GeneratorConfig,
) -> Result<(MultiPlacementStructure, RefineReport), RefineError> {
    if circuit.block_count() != structure.block_count() {
        return Err(RefineError::ArityMismatch {
            expected: structure.block_count(),
            got: circuit.block_count(),
        });
    }
    let netless = region_circuit(structure, region)?;
    // Rebuild with the original nets over the narrowed blocks. The
    // builder cannot fail: every net already validated against this
    // block set in the original circuit.
    let mut builder = Circuit::builder(format!("{}-refine", circuit.name()));
    for (block, narrowed) in circuit.blocks().iter().zip(netless.blocks()) {
        let ranges = narrowed.dim_ranges();
        builder = builder.block(Block::new(
            block.name(),
            ranges.w.lo(),
            ranges.w.hi(),
            ranges.h.lo(),
            ranges.h.hi(),
        ));
    }
    for net in circuit.nets() {
        builder = builder.net(net.clone());
    }
    let with_nets = builder
        .build()
        .expect("narrowed blocks + original nets validate");
    merge_region_walks(structure, &with_nets, config)
}

/// Validates `region` against `structure` and synthesizes the netless
/// region circuit (block bounds = the region ranges).
fn region_circuit(
    structure: &MultiPlacementStructure,
    region: &[BlockRanges],
) -> Result<Circuit, RefineError> {
    let bounds = structure.bounds();
    if region.len() != bounds.len() {
        return Err(RefineError::ArityMismatch {
            expected: bounds.len(),
            got: region.len(),
        });
    }
    let mut builder = Circuit::builder("refine-region");
    for (i, (r, b)) in region.iter().zip(bounds).enumerate() {
        if !b.w.contains_interval(&r.w) || !b.h.contains_interval(&r.h) {
            return Err(RefineError::RegionOutOfBounds { block: i });
        }
        builder = builder.block(Block::new(
            format!("b{i}"),
            r.w.lo(),
            r.w.hi(),
            r.h.lo(),
            r.h.hi(),
        ));
    }
    Ok(builder
        .build()
        .expect("positive in-bounds ranges build a valid netless circuit"))
}

/// Runs the region walks over `circuit` (whose block bounds are the
/// region) on the structure's own floorplan and merges the produced
/// entries into a copy of `structure` through Resolve Overlaps — the
/// exact store discipline of [`crate::parallel`]'s start merge.
fn merge_region_walks(
    structure: &MultiPlacementStructure,
    circuit: &Circuit,
    config: &GeneratorConfig,
) -> Result<(MultiPlacementStructure, RefineReport), RefineError> {
    let (region_mps, _per_start, explorer) = generate_multi_start(
        circuit,
        config,
        None,
        structure.floorplan(),
        &mut PhaseTimings::default(),
    );
    let mut refined = structure.clone();
    let mut report = RefineReport {
        starts: config.num_starts.max(1),
        region_boxes: region_mps.placement_count(),
        placements_before: structure.placement_count(),
        explorer,
        ..RefineReport::default()
    };
    for (_, entry) in region_mps.iter() {
        report.inserted_boxes += resolve_and_store(
            &mut refined,
            entry,
            config.explorer.fork_on_containment,
            &mut report.explorer,
        );
    }
    refined.check_invariants().map_err(RefineError::Invariant)?;
    report.placements_after = refined.placement_count();
    Ok((refined, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MpsGenerator;
    use mps_geom::{Dims, Interval};
    use mps_netlist::benchmarks;

    fn seed_structure() -> (Circuit, MultiPlacementStructure) {
        let circuit = benchmarks::circ01();
        // Deliberately tiny budget: plenty of uncovered space for
        // refinement to fill.
        let config = GeneratorConfig::builder()
            .outer_iterations(15)
            .inner_iterations(15)
            .seed(0xF1)
            .build();
        let mps = MpsGenerator::new(&circuit, config).generate().unwrap();
        (circuit, mps)
    }

    fn hot_region(structure: &MultiPlacementStructure) -> Vec<BlockRanges> {
        // The lower quarter of every axis.
        structure
            .bounds()
            .iter()
            .map(|b| {
                let quarter = |i: &Interval| {
                    let hi = i.lo() + (i.hi() - i.lo()) / 4;
                    Interval::new(i.lo(), hi.max(i.lo()))
                };
                BlockRanges::new(quarter(&b.w), quarter(&b.h))
            })
            .collect()
    }

    fn refine_config(seed: u64) -> GeneratorConfig {
        GeneratorConfig::builder()
            .outer_iterations(40)
            .inner_iterations(25)
            .num_starts(2)
            .threads(1)
            .seed(seed)
            .build()
    }

    #[test]
    fn malformed_regions_are_refused() {
        let (_, mps) = seed_structure();
        let config = refine_config(1);
        assert!(matches!(
            refine_region(&mps, &[], &config),
            Err(RefineError::ArityMismatch { .. })
        ));
        let mut region = hot_region(&mps);
        let too_wide = Interval::new(region[0].w.lo(), mps.bounds()[0].w.hi() + 100);
        region[0] = BlockRanges::new(too_wide, region[0].h);
        assert!(matches!(
            refine_region(&mps, &region, &config),
            Err(RefineError::RegionOutOfBounds { block: 0 })
        ));
    }

    #[test]
    fn refinement_keeps_invariants_and_grows_region_coverage() {
        let (_, mps) = seed_structure();
        let region = hot_region(&mps);
        let (refined, report) = refine_region(&mps, &region, &refine_config(0xAB)).unwrap();
        refined.check_invariants().unwrap();
        assert!(report.region_boxes > 0, "region walks stored nothing");
        assert_eq!(report.placements_after, refined.placement_count());
        assert_eq!(report.placements_before, mps.placement_count());
        // The fallback template survives the merge.
        assert_eq!(refined.fallback().is_some(), mps.fallback().is_some());
    }

    #[test]
    fn refinement_is_deterministic() {
        let (_, mps) = seed_structure();
        let region = hot_region(&mps);
        let config = refine_config(7);
        let (a, _) = refine_region(&mps, &region, &config).unwrap();
        let (b, _) = refine_region(&mps, &region, &config).unwrap();
        // Bit-identical without a persistence round trip: same entries,
        // same order, same costs.
        let collect = |m: &MultiPlacementStructure| {
            m.iter()
                .map(|(_, e)| (e.dims_box.clone(), e.avg_cost.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(&a), collect(&b));
    }

    #[test]
    fn entries_outside_the_region_answer_unchanged() {
        let (circuit, mps) = seed_structure();
        let region = hot_region(&mps);
        let (refined, _) = refine_region(&mps, &region, &refine_config(3)).unwrap();
        // Probe the *upper* quarter of every axis — disjoint from the
        // refined region, so answers must be byte-for-byte the old ones.
        let bounds = circuit.dim_bounds();
        for k in 0..50i64 {
            let dims: Dims = bounds
                .iter()
                .map(|b| {
                    let probe = |i: &Interval| {
                        let lo = i.hi() - (i.hi() - i.lo()) / 8;
                        lo + (k * 13) % (i.hi() - lo + 1).max(1)
                    };
                    (probe(&b.w), probe(&b.h))
                })
                .collect();
            let before = mps.query(&dims);
            if let Some(id) = before {
                assert_eq!(
                    refined.query(&dims),
                    Some(id),
                    "covered answer changed outside the refined region"
                );
            }
        }
    }

    #[test]
    fn circuit_variant_keeps_the_netlist_cost_signal() {
        let (circuit, mps) = seed_structure();
        let region = hot_region(&mps);
        let (refined, report) =
            refine_region_with_circuit(&mps, &circuit, &region, &refine_config(11)).unwrap();
        refined.check_invariants().unwrap();
        assert!(report.region_boxes > 0);
        // Wrong-arity circuits are refused before any work runs.
        let other = Circuit::builder("tiny")
            .block(Block::new("A", 1, 10, 1, 10))
            .build()
            .unwrap();
        assert!(matches!(
            refine_region_with_circuit(&mps, &other, &region, &refine_config(11)),
            Err(RefineError::ArityMismatch { .. })
        ));
    }
}
