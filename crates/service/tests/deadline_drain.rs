//! End-to-end deadlines, graceful drain, and the retrying client:
//!
//! * a tight `deadline_ms` against a cold, expensive universe comes
//!   back as a retryable `504 deadline_exceeded` promptly (the
//!   cooperative checkpoints bound the overshoot) and the abandoned
//!   prepare is **not** cached;
//! * a draining daemon refuses new work with a retryable `503` while
//!   still answering health checks;
//! * the client times out typed against a silent daemon instead of
//!   hanging, and converges through a `429` storm with backoff.

use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_server::RegistryConfig;
use divr_service::json::{self, Value};
use divr_service::{
    serve_doc, AdmissionConfig, Client, ClientError, RetryPolicy, Service, ServiceConfig,
};
use std::net::TcpListener;
use std::time::{Duration, Instant};

fn universe_json(n: i64) -> Value {
    universe_with_distance(n, r#"{"kind": "numeric", "attr": 0}"#)
}

fn universe_with_distance(n: i64, distance: &str) -> Value {
    let tuples: Vec<String> = (0..n).map(|i| format!("[{}, {}]", i, (i * 3) % 7)).collect();
    json::parse(&format!(
        r#"{{
            "tuples": [{}],
            "relevance": {{"kind": "attribute", "attr": 1, "default": [0, 1]}},
            "distance": {distance},
            "lambda": [1, 2]
        }}"#,
        tuples.join(", ")
    ))
    .unwrap()
}

fn with_deadline(mut doc: Value, deadline_ms: i64) -> Value {
    let Value::Object(ref mut fields) = doc else {
        panic!("serve doc is an object")
    };
    fields.push(("deadline_ms".to_string(), Value::Int(deadline_ms)));
    doc
}

fn requests(k: usize) -> Vec<EngineRequest> {
    vec![EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k,
    }]
}

#[test]
fn tight_deadline_is_a_prompt_504_and_nothing_is_cached() {
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        admission: AdmissionConfig {
            cache_quota_bytes: u64::MAX,
            ..AdmissionConfig::default()
        },
        // One prepare thread, so the cell costs the same work on any
        // core count.
        registry: RegistryConfig {
            workers: 1,
            solve_threads: 1,
            ..RegistryConfig::default()
        },
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();

    // Slow by construction, in either profile: Hamming distance offers
    // no key column, so each of the 12.5 M pairs is one exact `Ratio`
    // evaluation. Cold prepare + first answer measured ≈ 0.75 s with
    // `--release`, ≈ 3.9 s without; the 150 ms deadline must cut it
    // off at a checkpoint long before.
    let universe = || universe_with_distance(5000, r#"{"kind": "hamming"}"#);
    let deadline = Duration::from_millis(150);
    let doc = with_deadline(serve_doc("alice", universe(), &requests(4)), 150);
    let started = Instant::now();
    let response = client.request(&doc).unwrap();
    let elapsed = started.elapsed();

    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(response.get("code").and_then(Value::as_i64), Some(504));
    assert_eq!(
        response.get("kind").and_then(Value::as_str),
        Some("deadline_exceeded")
    );
    assert_eq!(
        response.get("retryable").and_then(Value::as_bool),
        Some(true)
    );
    assert!(
        elapsed <= deadline * 2,
        "504 took {elapsed:?}, past 2× the {deadline:?} deadline"
    );

    // The abandoned prepare was never cached, and the trip was
    // counted.
    let stats = client.stats().unwrap();
    let stats = stats.get("stats").unwrap();
    assert_eq!(
        stats.get("cache").unwrap().get("entries").and_then(Value::as_i64),
        Some(0),
        "an abandoned prepare must not be cached"
    );
    assert!(
        stats
            .get("robustness")
            .unwrap()
            .get("deadline_exceeded")
            .and_then(Value::as_i64)
            .unwrap()
            >= 1
    );

    // A retry with a generous deadline starts from a clean miss and
    // succeeds — the abandoned build poisoned nothing.
    let doc = with_deadline(serve_doc("alice", universe(), &requests(4)), 120_000);
    let response = client.request(&doc).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    service.shutdown();
}

#[test]
fn non_positive_deadline_is_a_400() {
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    for bad in [0, -5] {
        let doc = with_deadline(serve_doc("alice", universe_json(8), &requests(2)), bad);
        let response = client.request(&doc).unwrap();
        assert_eq!(response.get("code").and_then(Value::as_i64), Some(400));
    }
    service.shutdown();
}

#[test]
fn draining_daemon_refuses_work_but_answers_health_checks() {
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    assert!(client.ping().unwrap());

    service.begin_drain();
    let response = client
        .request(&serve_doc("alice", universe_json(8), &requests(2)))
        .unwrap();
    assert_eq!(response.get("code").and_then(Value::as_i64), Some(503));
    assert_eq!(response.get("kind").and_then(Value::as_str), Some("draining"));
    assert_eq!(
        response.get("retryable").and_then(Value::as_bool),
        Some(true)
    );
    assert!(
        response
            .get("retry_after_ms")
            .and_then(Value::as_i64)
            .is_some(),
        "a drain refusal should hint when to retry"
    );

    // Health checks still answer, and the drain is observable.
    assert!(client.ping().unwrap());
    let stats = client.stats().unwrap();
    let robustness = stats.get("stats").unwrap().get("robustness").unwrap();
    assert_eq!(
        robustness.get("draining").and_then(Value::as_bool),
        Some(true)
    );
    assert!(
        robustness
            .get("draining_refused")
            .and_then(Value::as_i64)
            .unwrap()
            >= 1
    );
    service.shutdown();
}

#[test]
fn silent_daemon_times_out_typed_instead_of_hanging() {
    // A listener that accepts (via the kernel backlog) and never
    // answers — the old client hung here forever.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = Client::connect_with(
        addr,
        RetryPolicy {
            max_retries: 0,
            read_timeout: Some(Duration::from_millis(300)),
            ..RetryPolicy::default()
        },
    )
    .unwrap();
    let started = Instant::now();
    let outcome = client.request(&json::parse(r#"{"op": "ping"}"#).unwrap());
    assert!(
        matches!(outcome, Err(ClientError::TimedOut)),
        "expected TimedOut, got {outcome:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "timeout fired too late"
    );
    drop(listener);
}

#[test]
fn client_converges_through_a_429_storm() {
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        admission: AdmissionConfig {
            qps: 20.0,
            burst: 2.0,
            cache_quota_bytes: u64::MAX,
        },
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect_with(
        service.local_addr(),
        RetryPolicy {
            max_retries: 12,
            base_backoff: Duration::from_millis(5),
            ..RetryPolicy::default()
        },
    )
    .unwrap();

    // 10 frames × 1 token against a 2-token bucket refilling at
    // 20/s: the raw client would see a storm of 429s; the retrying
    // client must land every one.
    for i in 0..10 {
        let response = client
            .request_with_retry(&serve_doc("alice", universe_json(8), &requests(2)))
            .unwrap();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "frame {i} did not converge"
        );
    }
    assert!(
        client.retries_observed() > 0,
        "the storm should have forced at least one retry"
    );
    service.shutdown();
}
