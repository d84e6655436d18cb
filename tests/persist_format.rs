//! Format-stability, migration and rejection tests for the persisted
//! artifact.
//!
//! The committed golden fixture (`tests/fixtures/circ02_mps.json`, the
//! `mps-v3` JSON envelope) pins the on-disk format: if a change to the
//! serializers alters what the bytes mean, these tests fail in CI instead
//! of silently orphaning every structure users have saved. Beside it lie
//! the same structure in the two legacy layouts, which also store the
//! interval rows: `circ02_mps.v1.json` (`mps-v1` JSON) and
//! `circ02_mps.v2.mpsb` (binary version 2). They were written by the last
//! build that wrote those layouts and must keep loading. The
//! malformed-input battery asserts the validate-don't-trust contract of
//! the loader: bad input of any kind is a typed `Err`, never a panic and
//! never a quietly corrupt structure.
#![cfg(feature = "serde")]

mod common;

use analog_mps::mps::{
    GeneratorConfig, InvariantError, MpsGenerator, MultiPlacementStructure, PersistError,
    PlacementId,
};
use analog_mps::netlist::benchmarks;
use analog_mps::serve::StructureRegistry;

const FIXTURE: &str = include_str!("fixtures/circ02_mps.json");

/// The fixture's structure as the legacy `mps-v1` JSON envelope.
const LEGACY_JSON: &str = include_str!("fixtures/circ02_mps.v1.json");

/// The fixture's structure as a legacy version-2 binary artifact.
const LEGACY_BIN: &[u8] = include_bytes!("fixtures/circ02_mps.v2.mpsb");

/// The generation recipe behind the committed fixture. Kept callable so
/// `regenerate_golden_fixture` (ignored) can rewrite the file after an
/// *intentional* format bump.
fn fixture_structure() -> MultiPlacementStructure {
    let bm = benchmarks::by_name("circ02").unwrap();
    let config = GeneratorConfig::builder()
        .outer_iterations(60)
        .inner_iterations(40)
        .seed(20050307)
        .build();
    MpsGenerator::new(&bm.circuit, config).generate().unwrap()
}

/// One fixed probe and its hard-coded expected answer.
type Probe = (analog_mps::Dims, Option<PlacementId>);

/// A fixed probe battery over the fixture's dimension space. The expected
/// answers are hard-coded: they may only change together with a format
/// version bump and a regenerated fixture.
fn fixed_probes() -> Vec<Probe> {
    let bm = benchmarks::by_name("circ02").unwrap();
    let min = bm.circuit.min_dims();
    let max = bm.circuit.max_dims();
    let mid: analog_mps::Dims = bm
        .circuit
        .dim_bounds()
        .iter()
        .map(|b| (b.w.midpoint(), b.h.midpoint()))
        .collect();
    vec![
        (min, EXPECTED_AT_MIN.map(PlacementId)),
        (mid, EXPECTED_AT_MID.map(PlacementId)),
        (max, EXPECTED_AT_MAX.map(PlacementId)),
    ]
}

// Hard-coded expected answers for the committed fixture (see
// `regenerate_golden_fixture` for how to refresh them intentionally).
const EXPECTED_AT_MIN: Option<u32> = None;
const EXPECTED_AT_MID: Option<u32> = Some(13);
const EXPECTED_AT_MAX: Option<u32> = None;
const EXPECTED_PLACEMENTS: usize = 23;

#[test]
fn golden_fixture_loads_and_answers_fixed_queries() {
    let mps = MultiPlacementStructure::from_json(FIXTURE).expect("fixture loads");
    assert_eq!(mps.placement_count(), EXPECTED_PLACEMENTS);
    for (dims, expected) in fixed_probes() {
        assert_eq!(mps.query(&dims), expected, "probe {dims:?}");
    }
}

#[test]
fn golden_fixture_reserializes_byte_identically() {
    let mps = MultiPlacementStructure::from_json(FIXTURE).expect("fixture loads");
    assert_eq!(
        mps.to_json_pretty(),
        FIXTURE,
        "load → save must reproduce the committed fixture byte-for-byte; \
         if this change is an intentional format bump, bump `FORMAT` and \
         regenerate via `cargo test -- --ignored regenerate_golden_fixture`"
    );
}

#[test]
fn generation_recipe_still_matches_fixture() {
    // The fixture is not hand-written: the committed bytes must be what
    // the current generator produces for the recorded recipe. This pins
    // serializer *and* generator determinism at once.
    assert_eq!(fixture_structure().to_json_pretty(), FIXTURE);
}

/// FNV-1a (64-bit): a hash fixed by its definition, unlike
/// `DefaultHasher`, whose output may change between toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// (benchmark, live placements, FNV-1a of `to_json()`) for the
/// multi-start recipe in `multi_start_generation_still_matches_hashes`.
/// Re-recorded when the rows left the artifact (`mps-v3`); the
/// structures are the ones recorded before Resolve Overlaps switched to
/// the first-overlap scan.
const MULTI_START_PINS: &[(&str, usize, u64)] = &[
    ("tso-cascode", 30, 0x7044_7d07_160d_747c),
    ("benchmark24", 24, 0x100c_1ebc_2a58_bc62),
];

#[test]
fn multi_start_generation_still_matches_hashes() {
    // The single-start fixture above never runs the start merge. This
    // recipe does: two starts on two threads, merged through Resolve
    // Overlaps, so any change to the resolver's victim order or to the
    // store step shows up as a different hash.
    let actual: Vec<(&str, usize, u64)> = MULTI_START_PINS
        .iter()
        .map(|&(name, _, _)| {
            let bm = benchmarks::by_name(name).unwrap();
            let config = GeneratorConfig::builder()
                .outer_iterations(80)
                .inner_iterations(30)
                .coverage_target(0.93)
                .num_starts(2)
                .threads(2)
                .seed(20050307)
                .build();
            let mps = MpsGenerator::new(&bm.circuit, config).generate().unwrap();
            (name, mps.placement_count(), fnv1a(mps.to_json().as_bytes()))
        })
        .collect();
    assert_eq!(actual, MULTI_START_PINS, "multi-start to_json() changed");
}

/// Rewrites the committed fixture. Run explicitly after an intentional
/// format change: `cargo test -- --ignored regenerate_golden_fixture`,
/// then update the hard-coded expectations above.
#[test]
#[ignore = "writes tests/fixtures/circ02_mps.json; run only for an intentional format bump"]
fn regenerate_golden_fixture() {
    let mps = fixture_structure();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/circ02_mps.json"
    );
    std::fs::write(path, mps.to_json_pretty()).expect("write fixture");
    println!("placements: {}", mps.placement_count());
    for (dims, _) in fixed_probes() {
        println!("query {dims:?} -> {:?}", mps.query(&dims));
    }
}

// ---------------------------------------------------------------------
// Malformed-input battery
// ---------------------------------------------------------------------

#[test]
fn truncated_json_errors_cleanly() {
    for cut in [
        0,
        1,
        10,
        FIXTURE.len() / 3,
        FIXTURE.len() / 2,
        FIXTURE.len() - 2,
    ] {
        let truncated = &FIXTURE[..cut];
        assert!(
            matches!(
                MultiPlacementStructure::from_json(truncated),
                Err(PersistError::Decode(_) | PersistError::Envelope(_))
            ),
            "truncation at byte {cut} must yield a decode error"
        );
    }
}

#[test]
fn wrong_format_version_is_rejected() {
    // `mps-v2` named the legacy binary encoding, never a JSON tag.
    let bumped = FIXTURE.replace("\"mps-v3\"", "\"mps-v2\"");
    match MultiPlacementStructure::from_json(&bumped) {
        Err(PersistError::WrongFormat { found }) => assert_eq!(found, "mps-v2"),
        other => panic!("expected WrongFormat, got {other:?}"),
    }
    assert!(matches!(
        MultiPlacementStructure::from_json("{\"structure\": {}}"),
        Err(PersistError::Envelope(_))
    ));
}

#[test]
fn structural_corruption_is_rejected_not_panicked() {
    // Field-level surgery on the (valid) fixture texts. Every mutant must
    // come back as Err — none may panic, none may load.
    type Mutation = (&'static str, &'static str, Box<dyn Fn(&str) -> String>);
    let mutations: Vec<Mutation> = vec![
        (
            "inverted interval",
            FIXTURE,
            Box::new(|s: &str| s.replacen("\"lo\": 18", "\"lo\": 999999", 1)),
        ),
        (
            "negative floorplan extent",
            FIXTURE,
            Box::new(|s: &str| s.replacen("\"w\": 231", "\"w\": -231", 1)),
        ),
        (
            "missing member",
            FIXTURE,
            Box::new(|s: &str| s.replacen("\"entries\"", "\"entries_gone\"", 1)),
        ),
        (
            "bad member type",
            FIXTURE,
            Box::new(|s: &str| s.replacen("\"entries\": [", "\"entries\": 3, \"x\": [", 1)),
        ),
        (
            // The legacy layout requires its rows.
            "missing member",
            LEGACY_JSON,
            Box::new(|s: &str| s.replacen("\"w_rows\"", "\"w_rows_gone\"", 1)),
        ),
        (
            // Block 0's first width segment, [18, 18], moves down one unit:
            // still a well-formed row, but not the one the entries derive.
            "row registration shifted",
            LEGACY_JSON,
            Box::new(|s: &str| {
                let (head, rows) = s.split_at(s.find("\"w_rows\"").expect("fixture has rows"));
                let point = |v: i32| format!("\"lo\": {v},\n              \"hi\": {v}");
                format!("{head}{}", rows.replacen(&point(18), &point(17), 1))
            }),
        ),
    ];
    for (label, text, mutate) in mutations {
        let mutant = mutate(text);
        assert_ne!(mutant, text, "mutation `{label}` must change the text");
        assert!(
            MultiPlacementStructure::from_json(&mutant).is_err(),
            "mutation `{label}` must be rejected"
        );
    }
}

/// A legacy `mps-v1` row that is well formed but not the row the
/// entries derive is an invariant violation naming its block.
#[test]
fn legacy_json_row_corruption_is_rejected() {
    // Block 0's first width segment, [18, 18], moves down one unit.
    let (head, rows) =
        LEGACY_JSON.split_at(LEGACY_JSON.find("\"w_rows\"").expect("fixture has rows"));
    let point = |v: i32| format!("\"lo\": {v},\n              \"hi\": {v}");
    let shifted = format!("{head}{}", rows.replacen(&point(18), &point(17), 1));
    assert_ne!(shifted, LEGACY_JSON);
    match MultiPlacementStructure::from_json(&shifted) {
        Err(PersistError::Invariant(InvariantError::Row { block: 0, .. })) => {}
        other => panic!("expected a row mismatch in block 0, got {other:?}"),
    }
}

/// The binary twins of the legacy row mutations above.
#[test]
fn legacy_binary_row_corruption_is_rejected() {
    let current = MultiPlacementStructure::from_json(FIXTURE)
        .unwrap()
        .to_bin();
    // Where the rows begin: the legacy layout is the current one with the
    // row sections between the entries and the fallback, so past the
    // 6-byte header the two encodings agree up to there.
    let rows = 6 + current[6..]
        .iter()
        .zip(&LEGACY_BIN[6..])
        .take_while(|(a, b)| a == b)
        .count();
    // Missing rows: the version still says 2, but the row sections are
    // gone, so the decoder reads the fallback as rows.
    let mut missing = LEGACY_BIN[..rows].to_vec();
    missing.extend_from_slice(&current[rows..]);
    assert!(matches!(
        MultiPlacementStructure::from_bin(&missing),
        Err(PersistError::BinDecode(_))
    ));
    // Block 0's first width segment, [18, 18] (zigzag varints 36, 36),
    // moves down to [17, 17]: after the row count (6 blocks) and the
    // segment count, both one byte.
    let mut shifted = LEGACY_BIN.to_vec();
    assert_eq!(
        &shifted[rows + 2..rows + 4],
        &[36, 36],
        "block 0's first segment"
    );
    shifted[rows + 2..rows + 4].copy_from_slice(&[34, 34]);
    match MultiPlacementStructure::from_bin(&shifted) {
        Err(PersistError::Invariant(InvariantError::Row { block: 0, .. })) => {}
        other => panic!("expected a row mismatch in block 0, got {other:?}"),
    }
}

/// Each legacy fixture loads, answers the fixed probes, and re-saves to
/// exactly the current fixture, in both encodings.
#[test]
fn legacy_fixtures_load_and_resave_as_the_current_fixture() {
    let current = MultiPlacementStructure::from_json(FIXTURE).expect("fixture loads");
    let legacy = [
        (
            "mps-v1 JSON",
            MultiPlacementStructure::from_json(LEGACY_JSON),
        ),
        (
            "binary version 2",
            MultiPlacementStructure::from_bin(LEGACY_BIN),
        ),
    ];
    for (label, loaded) in legacy {
        let mps = loaded.unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(mps.placement_count(), EXPECTED_PLACEMENTS, "{label}");
        for (dims, expected) in fixed_probes() {
            assert_eq!(mps.query(&dims), expected, "{label}: probe {dims:?}");
        }
        assert_eq!(mps.to_json_pretty(), FIXTURE, "{label}: JSON re-save");
        assert_eq!(mps.to_bin(), current.to_bin(), "{label}: binary re-save");
    }
}

/// A serving directory may hold every accepted layout at once: the
/// registry opens all four files and serves each alike.
#[test]
fn a_serving_directory_mixing_every_layout_answers_alike() {
    let dir = std::env::temp_dir().join(format!("mps-persist-layouts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let current = MultiPlacementStructure::from_json(FIXTURE).expect("fixture loads");
    std::fs::write(dir.join("circ02_v1.json"), LEGACY_JSON).unwrap();
    std::fs::write(dir.join("circ02_v2.mpsb"), LEGACY_BIN).unwrap();
    std::fs::write(dir.join("circ02_v3.json"), FIXTURE).unwrap();
    std::fs::write(dir.join("circ02_v3b.mpsb"), current.to_bin()).unwrap();

    let registry = StructureRegistry::open(&dir).expect("every layout opens");
    let names = ["circ02_v1", "circ02_v2", "circ02_v3", "circ02_v3b"];
    assert_eq!(registry.names(), names);
    for name in names {
        let served = registry.get(name).expect("registered");
        assert_eq!(served.structure().to_json(), current.to_json(), "{name}");
        for (dims, expected) in fixed_probes() {
            assert_eq!(served.index().query(&dims), expected, "{name}: {dims:?}");
        }
        common::assert_same_answers(&current, served.structure(), 1000, 0x1A_7075, name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eq5_violating_input_is_rejected() {
    // Duplicate an existing live entry inside the envelope's entry list:
    // its validity box then overlaps its twin's, violating Eq. 5
    // (|M(V)| = 1). The loader must refuse even though every individual
    // field is well-formed.
    let value = serde_json::parse(FIXTURE).unwrap();
    let structure = value.get("structure").unwrap();
    let entries = structure.get("entries").unwrap().as_array().unwrap();
    let first_live = entries
        .iter()
        .find(|e| !matches!(e, serde_json::Value::Null))
        .expect("fixture has live entries");

    let mut new_entries = entries.clone();
    new_entries.push(first_live.clone());

    let mut new_structure = serde_json::Map::new();
    for (k, v) in structure.as_object().unwrap().iter() {
        if k == "entries" {
            new_structure.insert(k, serde_json::Value::Array(new_entries.clone()));
        } else {
            new_structure.insert(k, v.clone());
        }
    }
    let mut envelope = serde_json::Map::new();
    envelope.insert("format", serde_json::Value::String("mps-v3".to_owned()));
    envelope.insert("structure", serde_json::Value::Object(new_structure));
    let json = serde_json::to_string(&serde_json::Value::Object(envelope)).unwrap();

    match MultiPlacementStructure::from_json(&json) {
        // The duplicated entry's box overlaps its twin's.
        Err(PersistError::Invariant(InvariantError::BoxOverlap { .. })) => {}
        other => panic!("expected Invariant error, got {other:?}"),
    }
}

#[test]
fn wrong_arity_entries_are_rejected() {
    // Probing a loaded structure with the wrong dimension arity must not
    // be constructible from disk: shrink the bounds list by one block so
    // it disagrees with every entry's box.
    let value = serde_json::parse(FIXTURE).unwrap();
    let structure = value.get("structure").unwrap();
    let bounds = structure.get("bounds").unwrap().as_array().unwrap();
    let mut short_bounds = bounds.clone();
    short_bounds.pop();

    let mut new_structure = serde_json::Map::new();
    for (k, v) in structure.as_object().unwrap().iter() {
        if k == "bounds" {
            new_structure.insert(k, serde_json::Value::Array(short_bounds.clone()));
        } else {
            new_structure.insert(k, v.clone());
        }
    }
    let mut envelope = serde_json::Map::new();
    envelope.insert("format", serde_json::Value::String("mps-v3".to_owned()));
    envelope.insert("structure", serde_json::Value::Object(new_structure));
    let json = serde_json::to_string(&serde_json::Value::Object(envelope)).unwrap();
    assert!(MultiPlacementStructure::from_json(&json).is_err());
}
