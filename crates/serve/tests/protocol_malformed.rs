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

mod corpus {
    use mps_serve::REQUEST_KINDS;
    include!("support/request_corpus.rs");
}
use corpus::{battery, fuzz_scale, request_mutants};

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
/// line path over the shared mutant corpus (`MPS_FUZZ_SCALE` times
/// 10,000 lines). Nothing may panic, every envelope the parser accepts
/// must name a known kind, and every non-blank mutant must be answered
/// with exactly one JSON line.
#[test]
fn mutated_request_lines_parse_to_known_kinds_and_get_one_json_line() {
    use mps_serve::{parse_envelope, REQUEST_KINDS};

    let server = test_server();
    let (mut accepted, mut refused) = (0u32, 0u32);
    for line in request_mutants(10_000 * fuzz_scale()) {
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

/// Unknown members are validated and dropped, never stored, so a line's
/// cost grows linearly with its member count: about 1 MiB of 100,000
/// distinct unknown members is answered well within the bound, even
/// unoptimized.
#[test]
fn a_line_of_100k_unknown_members_is_answered_in_linear_time() {
    use std::fmt::Write as _;
    use std::time::{Duration, Instant};

    let server = test_server();
    let mut line = String::from(r#"{"kind":"metrics""#);
    for i in 0..100_000 {
        write!(line, r#","m{i}":{i}"#).unwrap();
    }
    line.push('}');
    assert!(line.len() > 1_000_000, "{} bytes", line.len());
    let started = Instant::now();
    let response = server.handle_line(&line).unwrap();
    let took = started.elapsed();
    let value = serde_json::parse(&response).unwrap();
    assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
    assert!(
        took < Duration::from_secs(5),
        "100k unknown members took {took:?}"
    );
}
