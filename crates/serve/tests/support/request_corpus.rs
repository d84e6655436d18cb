// The request-line corpus shared by the protocol unit tests (through
// `include!` in `src/protocol.rs`) and `tests/protocol_malformed.rs`:
// the malformed-request battery, the seeded mutants derived from it, and
// the fuzz budget multiplier.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Multiplier on every fuzz budget, read from `MPS_FUZZ_SCALE`: 1 when
/// unset (what `cargo test` runs), larger in CI.
pub fn fuzz_scale() -> usize {
    std::env::var("MPS_FUZZ_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&scale| scale >= 1)
        .unwrap_or(1)
}

/// The battery: (bad line, expected typed error kind). circ01 has 4
/// blocks, so 4 pairs is the correct arity.
pub fn battery() -> Vec<(String, &'static str)> {
    let good_query =
        r#"{"kind":"query","structure":"circ01","dims":[[20,20],[20,20],[20,20],[20,20]]}"#;
    let mut cases: Vec<(String, &'static str)> = vec![
        // --- not JSON at all / truncated ---
        ("not json".into(), "parse"),
        ("{".into(), "parse"),
        (r#"{"kind":"#.into(), "parse"),
        (r#"{"kind":"query""#.into(), "parse"),
        (format!("{} trailing garbage", good_query), "parse"),
        ("\u{7f}".into(), "parse"),
        // deeply nested input trips the parser's depth cap, not the stack
        (format!("{}{}", "[".repeat(4_000), "]".repeat(4_000)), "parse"),
        // --- valid JSON, wrong shape ---
        ("[1,2,3]".into(), "protocol"),
        ("42".into(), "protocol"),
        ("\"query\"".into(), "protocol"),
        ("{}".into(), "protocol"),
        (r#"{"kind":17}"#.into(), "protocol"),
        (r#"{"kind":"query"}"#.into(), "protocol"),
        (r#"{"kind":"query","structure":"circ01"}"#.into(), "protocol"),
        (r#"{"kind":"query","structure":7,"dims":[[1,2]]}"#.into(), "protocol"),
        (r#"{"kind":"query","structure":"circ01","dims":7}"#.into(), "protocol"),
        (r#"{"kind":"query","structure":"circ01","dims":[7]}"#.into(), "protocol"),
        // wrong pair arity: a [w, h] pair must hold exactly two values
        (r#"{"kind":"query","structure":"circ01","dims":[[1,2,3]]}"#.into(), "protocol"),
        (r#"{"kind":"query","structure":"circ01","dims":[[1]]}"#.into(), "protocol"),
        (r#"{"kind":"query","structure":"circ01","dims":[[1.5,2]]}"#.into(), "protocol"),
        (r#"{"kind":"query","structure":"circ01","dims":[["20","20"]]}"#.into(), "protocol"),
        (r#"{"kind":"batch_query","structure":"circ01"}"#.into(), "protocol"),
        (r#"{"kind":"batch_query","structure":"circ01","dims_list":7}"#.into(), "protocol"),
        (r#"{"kind":"batch_query","structure":"circ01","dims_list":[7]}"#.into(), "protocol"),
        // --- unknown request kind ---
        (r#"{"kind":"frobnicate"}"#.into(), "unknown_kind"),
        (r#"{"kind":"QUERY"}"#.into(), "unknown_kind"),
        (r#"{"kind":""}"#.into(), "unknown_kind"),
        // --- unknown structure ---
        (r#"{"kind":"query","structure":"nonexistent","dims":[[20,20]]}"#.into(), "unknown_structure"),
        (r#"{"kind":"instantiate","structure":"","dims":[[20,20]]}"#.into(), "unknown_structure"),
        // --- wrong vector arity (circ01 has 4 blocks) ---
        (r#"{"kind":"query","structure":"circ01","dims":[[20,20]]}"#.into(), "bad_arity"),
        (r#"{"kind":"query","structure":"circ01","dims":[]}"#.into(), "bad_arity"),
        (
            r#"{"kind":"batch_query","structure":"circ01","dims_list":[[[20,20],[20,20],[20,20],[20,20]],[[20,20]]]}"#.into(),
            "bad_arity",
        ),
        (r#"{"kind":"instantiate","structure":"circ01","dims":[[20,20],[20,20]]}"#.into(), "bad_arity"),
        // --- out-of-bounds dims (instantiation refuses: the fallback
        //     packing guarantees legality only inside the bounds) ---
        (
            r#"{"kind":"instantiate","structure":"circ01","dims":[[1000000,20],[20,20],[20,20],[20,20]]}"#.into(),
            "out_of_bounds",
        ),
        (
            r#"{"kind":"instantiate","structure":"circ01","dims":[[20,-3],[20,20],[20,20],[20,20]]}"#.into(),
            "out_of_bounds",
        ),
        // --- tagged-request framing: ill-formed `id` members ---
        (r#"{"id":"seven","kind":"metrics"}"#.into(), "bad_id"),
        (r#"{"id":1.5,"kind":"metrics"}"#.into(), "bad_id"),
        (r#"{"id":-3,"kind":"metrics"}"#.into(), "bad_id"),
        (r#"{"id":null,"kind":"metrics"}"#.into(), "bad_id"),
        (r#"{"id":true,"kind":"list_structures"}"#.into(), "bad_id"),
        (r#"{"id":[7],"kind":"metrics"}"#.into(), "bad_id"),
        (
            r#"{"id":{"n":7},"kind":"query","structure":"circ01","dims":[[20,20],[20,20],[20,20],[20,20]]}"#.into(),
            "bad_id",
        ),
    ];
    // Null bytes and long lines are answered, not fatal.
    cases.push((format!("{}\u{0}", good_query), "parse"));
    cases.push(("x".repeat(1 << 20), "parse"));
    cases
}

/// `count` deterministic mutants (fixed seed) of the battery plus one
/// well-formed line per request kind: each takes one to three byte
/// flips, truncations, splices with another seed, or `kind` swaps.
pub fn request_mutants(count: usize) -> Vec<String> {
    const DIMS: &str = "[[20,20],[20,20],[20,20],[20,20]]";
    let mut seeds: Vec<Vec<u8>> = battery().into_iter().map(|(l, _)| l.into_bytes()).collect();
    for line in [
        format!(r#"{{"kind":"query","structure":"circ01","dims":{DIMS}}}"#),
        format!(r#"{{"id":3,"kind":"instantiate","structure":"circ01","dims":{DIMS}}}"#),
        format!(r#"{{"kind":"batch_query","structure":"circ01","dims_list":[{DIMS},{DIMS}]}}"#),
        format!(
            r#"{{"kind":"batch_query","structure":"circ01","dims_list":[{DIMS}],"encoding":"bin"}}"#
        ),
        r#"{"kind":"list_structures"}"#.to_owned(),
        r#"{"id":9,"kind":"metrics"}"#.to_owned(),
        r#"{"kind":"trace"}"#.to_owned(),
        r#"{"kind":"reload"}"#.to_owned(),
        r#"{"kind":"refine","action":"status"}"#.to_owned(),
        r#"{"kind":"refine","structure":"nope"}"#.to_owned(),
    ] {
        seeds.push(line.into_bytes());
    }
    let swaps: Vec<&str> = REQUEST_KINDS
        .iter()
        .copied()
        .chain(["stats", "", "QUERY", "query\"", "\\u0071uery"])
        .collect();
    let mut rng = StdRng::seed_from_u64(0x4d50_5350);
    (0..count)
        .map(|_| {
            let mut line = seeds[rng.random_range(0..seeds.len())].clone();
            for _ in 0..rng.random_range(1..4u8) {
                match rng.random_range(0..4u8) {
                    0 if !line.is_empty() => {
                        let i = rng.random_range(0..line.len());
                        line[i] ^= 1 << rng.random_range(0..8u8);
                    }
                    1 => line.truncate(rng.random_range(0..=line.len())),
                    2 => {
                        let other = &seeds[rng.random_range(0..seeds.len())];
                        line.truncate(rng.random_range(0..=line.len()));
                        line.extend_from_slice(&other[rng.random_range(0..=other.len())..]);
                    }
                    _ => {
                        let text = String::from_utf8_lossy(&line).into_owned();
                        if let Some(at) = text.find(r#""kind":""#) {
                            let start = at + r#""kind":""#.len();
                            let end = text[start..].find('"').map_or(text.len(), |e| start + e);
                            let kind = swaps[rng.random_range(0..swaps.len())];
                            line = format!("{}{kind}{}", &text[..start], &text[end..]).into_bytes();
                        }
                    }
                }
            }
            String::from_utf8_lossy(&line).into_owned()
        })
        .collect()
}
