//! Malformed-request battery for the serve protocol, mirroring the
//! mutant style of `tests/persist_format.rs`: every bad input — from
//! truncated JSON to semantically wrong dimension vectors — must be
//! answered with a single typed error line, the server must keep
//! serving afterwards, and nothing may panic or kill the process.
#![cfg(feature = "serde")]

use mps_core::{GeneratorConfig, MpsGenerator};
use mps_netlist::benchmarks;
use mps_serve::{ServedStructure, Server, StructureRegistry};
use serde::Value;
use std::sync::Arc;

/// A server over one in-memory circ01 structure (4 blocks).
fn test_server() -> Server {
    let circuit = benchmarks::circ01();
    let config = GeneratorConfig::builder()
        .outer_iterations(30)
        .inner_iterations(30)
        .seed(23)
        .build();
    let mps = MpsGenerator::new(&circuit, config).generate().unwrap();
    let registry = StructureRegistry::in_memory();
    registry.publish(ServedStructure::from_structure("circ01", mps));
    Server::new(Arc::new(registry), 1)
}

/// Asserts the response line is `{"ok":false}` with the expected typed
/// error kind and a non-empty message.
fn assert_error(response: &str, expected_kind: &str, input: &str) {
    let value: Value = serde_json::parse(response)
        .unwrap_or_else(|e| panic!("unparsable response for input {input:?}: {e}"));
    assert_eq!(
        value.get("ok").and_then(Value::as_bool),
        Some(false),
        "input {input:?} must be refused, got {response}"
    );
    let error = value
        .get("error")
        .unwrap_or_else(|| panic!("input {input:?}: refusal carries no `error` member"));
    assert_eq!(
        error.get("kind").and_then(Value::as_str),
        Some(expected_kind),
        "input {input:?}: wrong error kind in {response}"
    );
    assert!(
        error
            .get("message")
            .and_then(Value::as_str)
            .is_some_and(|m| !m.is_empty()),
        "input {input:?}: refusal carries no message"
    );
}

/// The battery: (bad line, expected typed error kind). circ01 has 4
/// blocks, so 4 pairs is the correct arity.
fn battery() -> Vec<(String, &'static str)> {
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

#[test]
fn every_malformed_request_gets_one_typed_error_line() {
    let server = test_server();
    for (input, expected_kind) in battery() {
        let response = server
            .handle_line(&input)
            .unwrap_or_else(|| panic!("no response for malformed input {input:?}"));
        assert_error(&response, expected_kind, &input);
    }
}

#[test]
fn server_survives_the_whole_battery_and_still_answers() {
    let server = test_server();
    let battery = battery();
    let battery_len = battery.len() as u64;
    for (input, _) in battery {
        let _ = server.handle_line(&input);
    }
    // After every mutant: a good query still gets a correct answer ...
    let served = server.registry().get("circ01").unwrap();
    let dims: mps_geom::Dims = served
        .structure()
        .bounds()
        .iter()
        .map(|b| (b.w.midpoint(), b.h.midpoint()))
        .collect();
    let pairs: Vec<String> = dims.iter().map(|(w, h)| format!("[{w},{h}]")).collect();
    let line = format!(
        r#"{{"kind":"query","structure":"circ01","dims":[{}]}}"#,
        pairs.join(",")
    );
    let response = server.handle_line(&line).unwrap();
    let value = serde_json::parse(&response).unwrap();
    assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        value.get("id").and_then(Value::as_u64),
        served.structure().query(&dims).map(|id| u64::from(id.0))
    );
    // ... and metrics counted every refused line as an error.
    let stats = server.handle_line(r#"{"kind":"metrics"}"#).unwrap();
    let stats = serde_json::parse(&stats).unwrap();
    assert_eq!(
        stats
            .get("counters")
            .and_then(|c| c.get("errors"))
            .and_then(Value::as_u64),
        Some(battery_len)
    );
}

/// The tagged-framing rules are per-connection state, so they are
/// exercised through a scripted `serve` stream rather than the
/// stateless per-line battery: duplicate ids, decreasing ids, and
/// untagged requests after the connection went tagged are each one
/// typed `bad_id` error — and the connection keeps serving.
#[test]
fn tagged_framing_violations_are_refused_without_killing_the_connection() {
    let server = test_server();
    let input = concat!(
        "{\"id\":10,\"kind\":\"list_structures\"}\n",
        "{\"id\":10,\"kind\":\"metrics\"}\n", // duplicate id
        "{\"id\":4,\"kind\":\"metrics\"}\n",  // decreasing id
        "{\"kind\":\"metrics\"}\n",           // missing id on a tagged connection
        "{\"id\":11,\"kind\":\"query\",\"structure\":\"nope\",\"dims\":[[1,1]]}\n",
        "{\"id\":12,\"kind\":\"list_structures\"}\n",
    )
    .as_bytes()
    .to_vec();
    let mut output = Vec::new();
    server.serve(&input[..], &mut output).unwrap();
    let lines: Vec<String> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(lines.len(), 6, "one response per request line");
    for (i, line) in lines.iter().enumerate().take(4).skip(1) {
        assert_error(line, "bad_id", &format!("scripted line {i}"));
        let value: Value = serde_json::parse(line).unwrap();
        assert_eq!(
            value.get("req"),
            None,
            "framing-level refusals are untagged: echoing the id would \
             collide with the response the id's owner got"
        );
    }
    // A dispatch-level error on an accepted tagged request stays
    // correlatable: the error line echoes the id as `req`.
    let unknown: Value = serde_json::parse(&lines[4]).unwrap();
    assert_eq!(unknown.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(unknown.get("req").and_then(Value::as_u64), Some(11));
    assert_eq!(
        unknown
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("unknown_structure")
    );
    // ... and the connection still answers afterwards.
    let last: Value = serde_json::parse(&lines[5]).unwrap();
    assert_eq!(last.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(last.get("req").and_then(Value::as_u64), Some(12));
}

/// A fresh connection is not poisoned by another connection's tagged
/// mode: framing state is strictly per connection.
#[test]
fn tagged_mode_is_per_connection() {
    let server = test_server();
    let tagged = b"{\"id\":1,\"kind\":\"metrics\"}\n".to_vec();
    let mut output = Vec::new();
    server.serve(&tagged[..], &mut output).unwrap();
    // A second connection may still speak untagged.
    let untagged = b"{\"kind\":\"metrics\"}\n".to_vec();
    let mut output = Vec::new();
    server.serve(&untagged[..], &mut output).unwrap();
    let value: Value = serde_json::parse(String::from_utf8(output).unwrap().trim()).unwrap();
    assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
}

#[test]
fn out_of_bounds_query_answers_null_not_error() {
    // Queries (unlike instantiation) answer uncovered/out-of-bounds
    // space with `id: null` — that *is* the structure's answer.
    let server = test_server();
    let response = server
        .handle_line(
            r#"{"kind":"query","structure":"circ01","dims":[[1000000,20],[20,20],[20,20],[20,20]]}"#,
        )
        .unwrap();
    let value = serde_json::parse(&response).unwrap();
    assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(value.get("id"), Some(&Value::Null));
}

/// Deterministic mutation fuzzing of the request parser and the whole
/// line path. Seeds are the battery above plus one well-formed line per
/// request kind; each mutant takes one to three byte flips,
/// truncations, splices with another seed, or `kind` swaps. Nothing may
/// panic, every envelope the parser accepts must name a known kind, and
/// every non-blank mutant must be answered with exactly one JSON line.
#[test]
fn mutated_request_lines_parse_to_known_kinds_and_get_one_json_line() {
    use mps_serve::{parse_envelope, REQUEST_KINDS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    let server = test_server();
    let mut rng = StdRng::seed_from_u64(0x4d50_5350);
    let (mut accepted, mut refused) = (0u32, 0u32);
    for _ in 0..10_000 {
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
        let line = String::from_utf8_lossy(&line).into_owned();
        match parse_envelope(&line) {
            Ok(envelope) => {
                accepted += 1;
                let kind = envelope.request.kind_str();
                assert!(REQUEST_KINDS.contains(&kind), "{kind} from {line:?}");
            }
            Err(_) => refused += 1,
        }
        let Some(response) = server.handle_line(&line) else {
            assert!(line.trim().is_empty(), "no answer for {line:?}");
            continue;
        };
        assert!(
            !response.contains('\n'),
            "one line for {line:?}: {response}"
        );
        assert!(
            serde_json::parse(&response).is_ok(),
            "invalid JSON for {line:?}: {response}"
        );
    }
    assert!(
        accepted > 200 && refused > 200,
        "the mutations must land on both sides: {accepted} accepted, {refused} refused"
    );
}
