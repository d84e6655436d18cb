//! Differential battery across the two persistence encodings: every
//! structure — the committed golden fixture plus a generated corpus —
//! must round-trip `mps-v3` JSON → binary → JSON with
//! byte-identical re-serialization, and the structure loaded from
//! either format must answer identically under a large random probe
//! battery (≥ 1000 probes per circuit, each direction).
#![cfg(feature = "serde")]

mod common;

use analog_mps::mps::{GeneratorConfig, MpsGenerator, MultiPlacementStructure};
use analog_mps::netlist::benchmarks;

const FIXTURE: &str = include_str!("fixtures/circ02_mps.json");

/// Random probes per circuit and direction.
const PROBES: usize = 1000;

const PROBE_SEED: u64 = 0xD1FF_0001;

/// The full differential check for one structure: both conversion
/// directions re-serialize byte-identically, and the binary-loaded copy
/// answers every probe exactly like the JSON-loaded one.
fn assert_formats_equivalent(mps: &MultiPlacementStructure, label: &str) {
    let json = mps.to_json();
    let bin = mps.to_bin();

    // JSON → binary → JSON: byte-identical re-serialization.
    let from_json = MultiPlacementStructure::from_json(&json)
        .unwrap_or_else(|e| panic!("{label}: JSON round-trip load failed: {e}"));
    let from_bin = MultiPlacementStructure::from_bin(&bin)
        .unwrap_or_else(|e| panic!("{label}: binary round-trip load failed: {e}"));
    assert_eq!(
        from_bin.to_json(),
        json,
        "{label}: binary-loaded structure must re-serialize to identical JSON"
    );
    // Binary → JSON → binary: the reverse direction is bit-stable too.
    assert_eq!(
        from_json.to_bin(),
        bin,
        "{label}: JSON-loaded structure must re-serialize to identical binary"
    );

    // Identical answers: both loads probed over a deep battery, once per
    // direction's seed.
    for seed in [PROBE_SEED, PROBE_SEED.rotate_left(17)] {
        common::assert_same_answers(&from_json, &from_bin, PROBES, seed, label);
    }
}

#[test]
fn golden_fixture_survives_both_formats() {
    let mps = MultiPlacementStructure::from_json(FIXTURE).expect("fixture loads");
    assert_formats_equivalent(&mps, "golden fixture circ02");
    // The fixture pin itself: through the binary format and back, the
    // pretty serialization still reproduces the committed bytes.
    let back = MultiPlacementStructure::from_bin(&mps.to_bin()).unwrap();
    assert_eq!(
        back.to_json_pretty(),
        FIXTURE,
        "fixture → binary → JSON must reproduce the committed fixture byte-for-byte"
    );
}

#[test]
fn generated_corpus_survives_both_formats() {
    // Every committed benchmark circuit, generated at test-friendly
    // iteration counts — small enough to stay fast, large enough that
    // the structures carry non-trivial rows/annihilation history.
    for bm in benchmarks::all() {
        let config = GeneratorConfig::builder()
            .outer_iterations(40)
            .inner_iterations(30)
            .seed(0xBEEF ^ bm.circuit.block_count() as u64)
            .build();
        let mps = MpsGenerator::new(&bm.circuit, config)
            .generate()
            .unwrap_or_else(|e| panic!("{}: generation failed: {e}", bm.name));
        assert_formats_equivalent(&mps, bm.name);
    }
}
