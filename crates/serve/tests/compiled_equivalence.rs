//! The differential contract of the compiled query index: on any
//! structure, [`CompiledQueryIndex`] must answer **bit-identically** to
//! [`MultiPlacementStructure::query`] — here proven on ≥ 10,000 random
//! probes against generated, synthetic-grid and hand-built degenerate
//! structures (zero-width intervals, fully overlapping rows,
//! single-region structures, probes landing exactly on segment
//! boundaries), on a save/load-cycled structure, and property-based over
//! random circuits.

use mps_core::{
    grid_structure, GeneratorConfig, MpsGenerator, MultiPlacementStructure, StoredPlacement,
};
use mps_geom::{BlockRanges, Coord, Dims, DimsBox, Interval, Rect};
use mps_netlist::benchmarks::{self, random_circuit};
use mps_netlist::{modgen, Block, Circuit};
use mps_placer::SequencePair;
use mps_serve::{CompiledQueryIndex, QueryScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn generate(circuit: &Circuit, outer: usize, inner: usize, seed: u64) -> MultiPlacementStructure {
    let config = GeneratorConfig::builder()
        .outer_iterations(outer)
        .inner_iterations(inner)
        .seed(seed)
        .build();
    MpsGenerator::new(circuit, config)
        .generate()
        .expect("test circuits are valid")
}

/// Random probes over (and slightly beyond) the circuit's dimension
/// space: uniform in-bounds vectors salted with out-of-bounds values.
fn probes(circuit: &Circuit, n: usize, seed: u64) -> Vec<Dims> {
    let bounds = circuit.dim_bounds();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| {
            let mut dims: Vec<(Coord, Coord)> = bounds
                .iter()
                .map(|b| {
                    (
                        rng.random_range(b.w.lo()..=b.w.hi()),
                        rng.random_range(b.h.lo()..=b.h.hi()),
                    )
                })
                .collect();
            if k % 9 == 4 {
                let i = k % bounds.len();
                dims[i].1 = bounds[i].h.hi() + 1 + rng.random_range(0..50);
            }
            // Unchecked: the stream deliberately carries out-of-bounds
            // salt both paths must answer None for.
            Dims::from_vec_unchecked(dims)
        })
        .collect()
}

/// Every segment boundary of every stored region, probed exactly: the
/// lower and upper corners plus one mixed corner per region, so each
/// row's binary search lands on segment endpoints.
fn boundary_probes(mps: &MultiPlacementStructure) -> Vec<Dims> {
    let mut out = Vec::new();
    for (_, entry) in mps.iter() {
        let ranges = entry.dims_box.ranges();
        for (corner_w, corner_h) in [
            |r: &BlockRanges| (r.w.lo(), r.h.lo()),
            |r: &BlockRanges| (r.w.hi(), r.h.hi()),
            |r: &BlockRanges| (r.w.hi(), r.h.lo()),
        ]
        .map(|f| ranges.iter().map(f).unzip::<_, _, Vec<_>, Vec<_>>())
        {
            let dims: Vec<(Coord, Coord)> = corner_w.into_iter().zip(corner_h).collect();
            out.push(Dims::from_vec_unchecked(dims));
        }
    }
    out
}

fn assert_bit_identical(mps: &MultiPlacementStructure, stream: &[Dims]) {
    let index = CompiledQueryIndex::build(mps);
    let mut scratch = QueryScratch::new();
    let mut answered = 0usize;
    for (k, dims) in stream.iter().enumerate() {
        let reference = mps.query(dims);
        let compiled = index.query_with_scratch(dims, &mut scratch);
        assert_eq!(
            reference, compiled,
            "probe {k} ({dims:?}) diverges between the interpretive and compiled paths"
        );
        answered += usize::from(reference.is_some());
    }
    assert!(
        answered > 0,
        "probe stream never hit covered space — the battery proves nothing"
    );
    // The batch paths answer the same stream identically too.
    assert_eq!(index.query_batch(stream), mps.query_batch(stream));
}

/// The acceptance-criteria battery: ≥ 10,000 random probes on a
/// circ02-sized structure, bit-identical answers.
#[test]
fn ten_thousand_probes_on_circ02() {
    let bm = benchmarks::by_name("circ02").unwrap();
    let mps = generate(&bm.circuit, 60, 40, 20050307);
    assert!(mps.placement_count() > 0);
    assert_bit_identical(&mps, &probes(&bm.circuit, 10_000, 0xD1FF));
}

#[test]
fn ten_thousand_probes_on_circ01() {
    let bm = benchmarks::by_name("circ01").unwrap();
    let mps = generate(&bm.circuit, 50, 40, 7);
    assert_bit_identical(&mps, &probes(&bm.circuit, 10_000, 0xFEED));
}

/// The synthetic grid corpus: hundreds of segments in the leading rows
/// plus fully overlapping single-segment trailing rows.
#[test]
fn ten_thousand_probes_on_grid_structures() {
    let (circuit, _model) = modgen::ladder_circuit(3, 1.0);
    for target in [1, 17, 500] {
        let mps = grid_structure(&circuit, target, 0xA5);
        assert_bit_identical(&mps, &probes(&circuit, 10_000, 0x6E1D ^ target as u64));
        assert_bit_identical(&mps, &boundary_probes(&mps));
    }
}

/// A single region: every row holds one segment, and the index must
/// still agree everywhere including the region's exact corners.
#[test]
fn single_region_structure() {
    let (circuit, _model) = modgen::ladder_circuit(2, 1.0);
    let mps = grid_structure(&circuit, 1, 3);
    assert_eq!(mps.placement_count(), 1);
    assert_bit_identical(&mps, &probes(&circuit, 10_000, 0x51));
    assert_bit_identical(&mps, &boundary_probes(&mps));
}

/// Hand-built degenerate layouts: zero-width (point) intervals and rows
/// where every region shares one identical full-range segment.
#[test]
fn degenerate_layouts_agree() {
    let c = Circuit::builder("degenerate")
        .block(Block::new("A", 1, 64, 1, 64))
        .block(Block::new("B", 1, 64, 1, 64))
        .net_connecting("n", &[0, 1])
        .build()
        .unwrap();
    let mut mps = MultiPlacementStructure::new(&c, Rect::from_xywh(0, 0, 256, 256));
    let pair = SequencePair::row(2);
    let entry = |ranges: [(Coord, Coord, Coord, Coord); 2]| {
        let ranges: Vec<BlockRanges> = ranges
            .iter()
            .map(|&(wl, wh, hl, hh)| BlockRanges::new(Interval::new(wl, wh), Interval::new(hl, hh)))
            .collect();
        let top: Vec<(Coord, Coord)> = ranges.iter().map(|r| (r.w.hi(), r.h.hi())).collect();
        StoredPlacement {
            placement: pair.pack(&top),
            dims_box: DimsBox::new(ranges),
            avg_cost: 1.0,
            best_cost: 1.0,
            best_dims: top.iter().copied().collect(),
        }
    };
    // 40 zero-width slabs of block A's width — every segment of the
    // first row is a single point (lo == hi), and every other row is one
    // full-range segment shared by all regions (fully overlapping).
    for w in 0..40 {
        mps.insert_unchecked(entry([(w + 1, w + 1, 1, 64), (1, 64, 1, 64)]));
    }
    mps.check_invariants().unwrap();
    assert_bit_identical(&mps, &probes(&c, 10_000, 0xDE6));
    assert_bit_identical(&mps, &boundary_probes(&mps));
}

/// The compiled index must agree with the interpretive path on a
/// structure that went through a save/load cycle (the serving scenario:
/// artifacts come from disk, not from the generating process).
#[cfg(feature = "serde")]
#[test]
fn compiled_index_agrees_after_persistence_roundtrip() {
    let bm = benchmarks::by_name("circ01").unwrap();
    let mps = generate(&bm.circuit, 40, 30, 99);
    let reloaded = MultiPlacementStructure::from_json(&mps.to_json()).unwrap();
    assert_bit_identical(&reloaded, &probes(&bm.circuit, 2_000, 0xBEEF));
    // And the built-in load-time check passes on the reloaded structure.
    CompiledQueryIndex::build(&reloaded)
        .verify_against(&reloaded, 10_000, 0xA11CE)
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Element-wise equivalence of the compiled index (single and batch
    /// paths) to `query` over arbitrary generated structures — the same
    /// contract `query_batch` proves for the interpretive path in
    /// crates/core/tests/query_batch.rs.
    #[test]
    fn compiled_matches_query_on_random_circuits(
        seed in 0u64..50_000,
        blocks in 2usize..6,
        nets in 2usize..7,
    ) {
        let circuit = random_circuit(blocks, nets, seed);
        let mps = generate(&circuit, 30, 30, seed);
        let index = CompiledQueryIndex::build(&mps);
        let stream = probes(&circuit, 400, seed ^ 0xC0DE);
        let mut scratch = QueryScratch::new();
        for dims in &stream {
            prop_assert_eq!(
                mps.query(dims),
                index.query_with_scratch(dims, &mut scratch)
            );
        }
        prop_assert_eq!(index.query_batch(&stream), mps.query_batch(&stream));
    }
}
