//! The fault matrix: every (fault × op) cell, driven through the
//! deterministic chaos proxy against a real daemon, must end in a
//! typed error or a correct answer — never a panic, a hang past the
//! client's budget, or a wrong bit for a healthy tenant.
//!
//! Determinism: [`ChaosProxy`] applies `plan[i % len]` to connection
//! `i`, and every cell opens exactly one connection, so the plan *is*
//! the matrix in row-major order. The seeded sweep on top scales with
//! `PROPTEST_CASES` (CI runs 256) and draws random cells from the
//! same vocabulary through a fresh proxy.

use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_core::distance::NumericDistance;
use divr_core::relevance::AttributeRelevance;
use divr_core::Ratio;
use divr_relquery::Tuple;
use divr_server::{Registry, UniverseSpec};
use divr_service::json::{self, Value};
use divr_service::{
    query_doc, serve_doc, Client, ClientError, RetryPolicy, Service, ServiceConfig,
};
use std::sync::Arc;
use std::time::Duration;

mod chaos;
use chaos::{ChaosProxy, Fault};

fn test_config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        // Torn frames must release their worker quickly, not in 30s.
        idle_timeout: Duration::from_millis(500),
        ..ServiceConfig::default()
    }
}

/// One-shot, no-retry policy: each matrix cell must see its fault's
/// raw outcome, and retries would desynchronize the proxy's plan.
fn cell_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 0,
        read_timeout: Some(Duration::from_secs(2)),
        connect_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        ..RetryPolicy::default()
    }
}

fn universe_json(n: i64) -> Value {
    let tuples: Vec<String> = (0..n).map(|i| format!("[{}, {}]", i, (i * 3) % 7)).collect();
    json::parse(&format!(
        r#"{{
            "tuples": [{}],
            "relevance": {{"kind": "attribute", "attr": 1, "default": [0, 1]}},
            "distance": {{"kind": "numeric", "attr": 0}},
            "lambda": [1, 2]
        }}"#,
        tuples.join(", ")
    ))
    .unwrap()
}

fn universe_spec(n: i64) -> UniverseSpec {
    UniverseSpec::new(
        (0..n).map(|i| Tuple::ints([i, (i * 3) % 7])).collect(),
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        Arc::new(NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        }),
        Ratio::new(1, 2),
    )
}

fn all_objectives(k: usize) -> Vec<EngineRequest> {
    ObjectiveKind::ALL
        .iter()
        .map(|&kind| EngineRequest { kind, k })
        .collect()
}

fn database_json() -> Value {
    json::parse(
        r#"{
            "relations": [
                {"name": "emp", "attrs": ["dept", "salary"],
                 "rows": [[0, 3], [1, 5], [2, 6], [0, 9], [1, 2], [2, 8]]}
            ]
        }"#,
    )
    .unwrap()
}

fn query_frame(tenant: &str) -> Value {
    query_doc(
        tenant,
        "Q(d, s) :- emp(d, s)",
        database_json(),
        json::parse(r#"{"kind": "attribute", "attr": 1, "default": [0, 1]}"#).unwrap(),
        json::parse(r#"{"kind": "numeric", "attr": 0}"#).unwrap(),
        json::parse("[1, 2]").unwrap(),
        &all_objectives(2),
    )
}

const OPS: [&str; 4] = ["ping", "stats", "serve", "query"];

fn faults() -> Vec<Fault> {
    vec![
        Fault::None,
        Fault::Delay(Duration::from_millis(40)),
        // Mid-prefix: the daemon has 2 of 4 length bytes and then
        // silence-then-close.
        Fault::TruncateRequest { after: 2 },
        // Mid-payload: a plausible prefix, a torn body.
        Fault::TruncateRequest { after: 9 },
        Fault::TruncateResponse { after: 2 },
        Fault::TruncateResponse { after: 9 },
        Fault::Reset,
        // Offset 6 is inside the JSON payload (prefix is bytes 0–3).
        Fault::CorruptRequest { offset: 6 },
        Fault::CorruptResponse { offset: 6 },
    ]
}

/// Runs one cell: op through the proxied client, one connection, and
/// classifies the outcome. Panics (the matrix's failure mode) only on
/// an *untyped* outcome: a malformed success frame or a response that
/// is neither ok nor carrying a status code. Returns whether the cell
/// was answered `ok: true`.
fn run_cell(proxy_addr: std::net::SocketAddr, fault: Fault, op: &str) -> bool {
    let mut client = match Client::connect_with(proxy_addr, cell_policy()) {
        Ok(client) => client,
        // A refused/reset dial is a typed transport outcome.
        Err(ClientError::Io(_) | ClientError::TimedOut | ClientError::Closed) => return false,
        Err(e) => panic!("untyped connect outcome for {fault:?}/{op}: {e}"),
    };
    let doc = match op {
        "ping" => json::parse(r#"{"op": "ping"}"#).unwrap(),
        "stats" => json::parse(r#"{"op": "stats"}"#).unwrap(),
        "serve" => serve_doc("chaos", universe_json(16), &all_objectives(3)),
        "query" => query_frame("chaos"),
        other => unreachable!("unknown op {other}"),
    };
    match client.request(&doc) {
        Ok(frame) => {
            // Response corruption happens *after* the daemon answered
            // correctly: one flipped bit can still decode to valid but
            // shapeless JSON, and without wire checksums the client
            // cannot tell. The guarantee for those cells is no panic,
            // no hang, daemon healthy — asserted after the matrix.
            if matches!(fault, Fault::CorruptResponse { .. }) {
                return false;
            }
            // Every other frame must be classifiable: a success or a
            // typed {code, kind} error.
            let ok = frame.get("ok").and_then(Value::as_bool) == Some(true);
            assert!(
                ok || frame.get("code").and_then(Value::as_i64).is_some()
                    && frame.get("kind").and_then(Value::as_str).is_some(),
                "untyped error frame for {fault:?}/{op}: {}",
                frame.to_json()
            );
            ok
        }
        // Transport and protocol failures are the typed outcomes the
        // matrix demands; nothing here may panic or hang.
        Err(
            ClientError::TimedOut
            | ClientError::Closed
            | ClientError::Io(_)
            | ClientError::Protocol(_),
        ) => false,
    }
}

#[test]
fn fault_matrix_every_cell_typed_and_daemon_survives() {
    let service = Service::start(test_config()).unwrap();
    let requests = all_objectives(4);

    // Row-major plan: cell (f, op) is connection f·|OPS| + op.
    let plan: Vec<Fault> = faults()
        .into_iter()
        .flat_map(|f| std::iter::repeat_n(f, OPS.len()))
        .collect();
    let proxy = ChaosProxy::start(service.local_addr(), plan).unwrap();
    for fault in faults() {
        for op in OPS {
            let answered = run_cell(proxy.local_addr(), fault, op);
            // A proxy that only forwards (late or not) changes no
            // answer: the control cells must all be served.
            if matches!(fault, Fault::None | Fault::Delay(_)) {
                assert!(
                    answered,
                    "{fault:?}/{op} went unanswered through a clean proxy"
                );
            }
        }
    }
    proxy.shutdown();

    // After the whole matrix, a healthy tenant on a direct connection
    // gets answers bit-identical to a fresh sequential oracle.
    let mut healthy = Client::connect(service.local_addr()).unwrap();
    let response = healthy
        .request(&serve_doc("healthy", universe_json(24), &requests))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let answers = response.get("answers").and_then(Value::as_array).unwrap();
    let oracle = Registry::default();
    let spec = universe_spec(24);
    for (answer, request) in answers.iter().zip(&requests) {
        let (value, indices) = oracle.try_serve(&spec, *request).unwrap();
        assert_eq!(answer.get("ok").and_then(Value::as_bool), Some(true));
        let pair = answer.get("value").unwrap().as_array().unwrap();
        assert_eq!(
            (pair[0].as_i64().unwrap(), pair[1].as_i64().unwrap()),
            (
                i64::try_from(value.numerator()).unwrap(),
                i64::try_from(value.denominator()).unwrap()
            ),
            "{:?} answer drifted after the fault matrix",
            request.kind
        );
        let got: Vec<usize> = answer
            .get("indices")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|i| usize::try_from(i.as_i64().unwrap()).unwrap())
            .collect();
        assert_eq!(got, indices);
    }
    service.shutdown();
}

/// The seeded sweep: `PROPTEST_CASES` random cells (default 32; CI
/// runs 256) from the same fault × op vocabulary, one proxy, one
/// connection each. Determinism comes from the fixed xorshift seed —
/// case `i` is the same cell on every run at a given case count.
#[test]
fn seeded_fault_sweep_never_panics_or_hangs() {
    let cases: usize = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let service = Service::start(test_config()).unwrap();

    let mut rng: u64 = 0xDEC0_DE00_5EED_0001;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let vocabulary = faults();
    let mut plan = Vec::with_capacity(cases);
    let mut cells = Vec::with_capacity(cases);
    for _ in 0..cases {
        let fault = vocabulary[(next() as usize) % vocabulary.len()];
        let op = OPS[(next() as usize) % OPS.len()];
        plan.push(fault);
        cells.push((fault, op));
    }
    let proxy = ChaosProxy::start(service.local_addr(), plan).unwrap();
    for (fault, op) in cells {
        run_cell(proxy.local_addr(), fault, op);
    }
    proxy.shutdown();

    // The daemon is still whole.
    let mut healthy = Client::connect(service.local_addr()).unwrap();
    assert!(healthy.ping().unwrap());
    service.shutdown();
}
