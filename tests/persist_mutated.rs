//! Deterministic mutation fuzz of both artifact loaders.
//!
//! Every mutant of the golden fixture (`tests/fixtures/circ02_mps.json`,
//! pretty and compact) and of its mps-v2 encoding must load to `Ok` or
//! to a typed `PersistError` of the loader's own classes — never panic.
//! A mutant that loads must re-encode to bytes that load back to the
//! same bytes. Mutants that only reorder or repeat object members must
//! load to the fixture itself: members may come in any order and the
//! last of a repeated member wins.
//!
//! Iteration counts scale with `MPS_FUZZ_SCALE` (default 1); CI runs
//! the test again at 10x, optimized.
#![cfg(feature = "serde")]

use analog_mps::mps::{MultiPlacementStructure, PersistError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};

const FIXTURE: &str = include_str!("fixtures/circ02_mps.json");

/// Multiplier on the fuzz budget, read from `MPS_FUZZ_SCALE`: 1 when
/// unset (what `cargo test` runs), larger in CI.
fn fuzz_scale() -> usize {
    std::env::var("MPS_FUZZ_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&scale| scale >= 1)
        .unwrap_or(1)
}

/// Runs one load, turning a panic into a failure that names the mutant.
fn load(
    mutant: &str,
    f: impl FnOnce() -> Result<MultiPlacementStructure, PersistError>,
) -> Result<MultiPlacementStructure, PersistError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("loader panicked on {mutant}"))
}

/// An accepted structure re-encodes, in both formats, to bytes that load
/// back to the same bytes.
fn assert_reencodes_stably(mps: &MultiPlacementStructure, mutant: &str) {
    let json = mps.to_json();
    let back = MultiPlacementStructure::from_json(&json)
        .unwrap_or_else(|e| panic!("{mutant}: re-encoded JSON refused: {e}"));
    assert_eq!(back.to_json(), json, "{mutant}: JSON re-encoding drifted");
    let bin = mps.to_bin();
    let back = MultiPlacementStructure::from_bin(&bin)
        .unwrap_or_else(|e| panic!("{mutant}: re-encoded mps-v2 refused: {e}"));
    assert_eq!(back.to_bin(), bin, "{mutant}: mps-v2 re-encoding drifted");
}

fn check_json(text: &str, mutant: &str) {
    match load(mutant, || MultiPlacementStructure::from_json(text)) {
        Ok(mps) => assert_reencodes_stably(&mps, mutant),
        Err(
            PersistError::Decode(_)
            | PersistError::Envelope(_)
            | PersistError::WrongFormat { .. }
            | PersistError::Invariant(_),
        ) => {}
        Err(other) => panic!("{mutant}: JSON loader answered {other:?}"),
    }
}

fn check_bin(bytes: &[u8], mutant: &str) {
    match load(mutant, || MultiPlacementStructure::from_bin(bytes)) {
        Ok(mps) => assert_reencodes_stably(&mps, mutant),
        Err(PersistError::BinDecode(_) | PersistError::Invariant(_)) => {}
        Err(other) => panic!("{mutant}: mps-v2 loader answered {other:?}"),
    }
}

/// Byte-level damage: a flipped bit, an inserted or deleted run, or a
/// truncation. `ascii` keeps every byte below 0x80, so JSON text stays
/// valid UTF-8.
fn damage(bytes: &[u8], rng: &mut StdRng, ascii: bool) -> (Vec<u8>, String) {
    let mut out = bytes.to_vec();
    let at = rng.random_range(0..out.len());
    match rng.random_range(0..4) {
        0 => {
            let bit = rng.random_range(0..if ascii { 7 } else { 8 });
            out[at] ^= 1 << bit;
            (out, format!("bit {bit} flipped at {at}"))
        }
        1 => {
            const TOKENS: &[u8] = b"{}[],:\"-0123456789.eEtrufalsn \n";
            let byte = if ascii {
                TOKENS[rng.random_range(0..TOKENS.len())]
            } else {
                rng.random_range(0..=255u8)
            };
            out.insert(at, byte);
            (out, format!("byte {byte:#04x} inserted at {at}"))
        }
        2 => {
            let end = (at + rng.random_range(1..=8)).min(out.len());
            out.drain(at..end);
            (out, format!("bytes {at}..{end} deleted"))
        }
        _ => {
            out.truncate(at);
            (out, format!("truncated to {at} bytes"))
        }
    }
}

/// One integer literal of `text`, moved by one.
fn nudge_number(text: &str, rng: &mut StdRng) -> (String, String) {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let starts = bytes[i].is_ascii_digit()
            || (bytes[i] == b'-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit));
        let inside_word = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'.');
        if starts && !inside_word {
            let start = i;
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if !matches!(bytes.get(i), Some(b'.' | b'e' | b'E')) {
                spans.push(start..i);
            }
        } else {
            i += 1;
        }
    }
    let span = spans[rng.random_range(0..spans.len())].clone();
    let n: i64 = text[span.clone()].parse().expect("integer literal");
    let moved = if rng.random_bool(0.5) { n + 1 } else { n - 1 };
    let mutant = format!("{}{moved}{}", &text[..span.start], &text[span.end..]);
    (mutant, format!("{n} at {} changed to {moved}", span.start))
}

/// What [`print_reshuffled`] does to the chosen object.
#[derive(Debug, Clone, Copy)]
enum Reshuffle {
    /// Swaps two members.
    Swap(usize, usize),
    /// Repeats a member, with the same value, after all the others.
    Repeat(usize),
    /// Puts a `null` occurrence of a member in front of the object; the
    /// real one, later, wins.
    ShadowWithNull(usize),
}

/// Compact JSON of `value`, with `op` applied to the `target`-th object
/// in document order.
fn print_reshuffled(
    value: &Value,
    target: usize,
    op: Reshuffle,
    seen: &mut usize,
    out: &mut String,
) {
    match value {
        Value::Object(map) => {
            let here = *seen;
            *seen += 1;
            let mut members: Vec<(&str, &Value)> = map.iter().collect();
            if here == target && !members.is_empty() {
                let n = members.len();
                match op {
                    Reshuffle::Swap(a, b) => members.swap(a % n, b % n),
                    Reshuffle::Repeat(k) => members.push(members[k % n]),
                    Reshuffle::ShadowWithNull(k) => {
                        members.insert(0, (members[k % n].0, &Value::Null))
                    }
                }
            }
            out.push('{');
            for (i, (key, member)) in members.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&serde_json::to_string(key).unwrap());
                out.push(':');
                print_reshuffled(member, target, op, seen, out);
            }
            out.push('}');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_reshuffled(item, target, op, seen, out);
            }
            out.push(']');
        }
        leaf => out.push_str(&serde_json::to_string(leaf).unwrap()),
    }
}

fn count_objects(value: &Value) -> usize {
    match value {
        Value::Object(map) => 1 + map.iter().map(|(_, v)| count_objects(v)).sum::<usize>(),
        Value::Array(items) => items.iter().map(count_objects).sum(),
        _ => 0,
    }
}

#[test]
fn from_json_and_from_bin_survive_mutated_artifacts() {
    let fixture = MultiPlacementStructure::from_json(FIXTURE).expect("fixture loads");
    let compact = fixture.to_json();
    let bin = fixture.to_bin();
    let mut rng = StdRng::seed_from_u64(0xF1_7E5);
    for round in 0..300 * fuzz_scale() {
        let seed = if round % 4 == 0 {
            FIXTURE
        } else {
            compact.as_str()
        };
        let (bytes, what) = damage(seed.as_bytes(), &mut rng, true);
        let text = String::from_utf8(bytes).expect("ASCII damage keeps UTF-8");
        check_json(&text, &format!("JSON round {round}: {what}"));

        let (text, what) = nudge_number(seed, &mut rng);
        check_json(&text, &format!("JSON round {round}: {what}"));

        let (bytes, what) = damage(&bin, &mut rng, false);
        check_bin(&bytes, &format!("mps-v2 round {round}: {what}"));
    }
}

#[test]
fn reordered_and_repeated_members_load_as_the_original_mutated() {
    let fixture = MultiPlacementStructure::from_json(FIXTURE).expect("fixture loads");
    let expected = fixture.to_json();
    let tree = serde_json::parse(&expected).unwrap();
    let objects = count_objects(&tree);
    let mut rng = StdRng::seed_from_u64(0x5_A11);
    for round in 0..100 * fuzz_scale() {
        let target = rng.random_range(0..objects);
        let (a, b) = (rng.random_range(0..8), rng.random_range(0..8));
        let op = match round % 3 {
            0 => Reshuffle::Swap(a, b),
            1 => Reshuffle::Repeat(a),
            _ => Reshuffle::ShadowWithNull(a),
        };
        let mut text = String::new();
        print_reshuffled(&tree, target, op, &mut 0, &mut text);
        let mutant = format!("object {target}: {op:?}");
        let mps = load(&mutant, || MultiPlacementStructure::from_json(&text))
            .unwrap_or_else(|e| panic!("{mutant}: refused: {e}"));
        assert_eq!(mps.to_json(), expected, "{mutant}");
    }
}
