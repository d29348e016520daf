//! Torn-wire conformance at the live-socket layer: raw TCP streams
//! delivering exactly the malformed byte sequences a broken peer or a
//! dying network produces — mid-frame EOF, a length prefix whose body
//! never comes, an RST mid-exchange, garbage interleaved with valid
//! frames — and, after every one of them, a fresh connection must get
//! answers bit-identical to the sequential oracle.

use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_core::distance::NumericDistance;
use divr_core::relevance::AttributeRelevance;
use divr_core::Ratio;
use divr_relquery::Tuple;
use divr_server::{Registry, UniverseSpec};
use divr_service::json::{self, Value};
use divr_service::proto::write_frame;
use divr_service::{serve_doc, Client, Service, ServiceConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        idle_timeout: Duration::from_millis(400),
        ..ServiceConfig::default()
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

/// Serves through a fresh client and asserts bit-identity against a
/// fresh sequential oracle — the invariant every torn wire must leave
/// intact.
fn assert_healthy(service: &Service) {
    let requests = all_objectives(3);
    let mut client = Client::connect(service.local_addr()).unwrap();
    let response = client
        .request(&serve_doc("healthy", universe_json(20), &requests))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let answers = response.get("answers").and_then(Value::as_array).unwrap();
    let oracle = Registry::default();
    let spec = universe_spec(20);
    for (answer, request) in answers.iter().zip(&requests) {
        let (value, indices) = oracle.try_serve(&spec, *request).unwrap();
        let pair = answer.get("value").unwrap().as_array().unwrap();
        assert_eq!(
            (pair[0].as_i64().unwrap(), pair[1].as_i64().unwrap()),
            (
                i64::try_from(value.numerator()).unwrap(),
                i64::try_from(value.denominator()).unwrap()
            ),
            "{:?} answer drifted after a torn wire",
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
}

#[test]
fn mid_frame_eof_is_survived() {
    let service = Service::start(test_config()).unwrap();
    // A prefix promising 64 bytes, 10 bytes of body, then FIN.
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    raw.write_all(&64u32.to_be_bytes()).unwrap();
    raw.write_all(b"{\"op\": \"p").unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    // The daemon answers nothing and closes; it must not crash or
    // leave the worker wedged.
    let mut sink = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    let _ = raw.read_to_end(&mut sink);
    assert_healthy(&service);
    service.shutdown();
}

#[test]
fn reset_mid_exchange_is_survived() {
    let service = Service::start(test_config()).unwrap();
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    // A full valid frame whose response we never read…
    write_frame(&mut raw, br#"{"op": "ping"}"#).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // …then a torn second frame, then drop. Closing with the pong
    // still unread in our receive buffer turns the close into an RST,
    // so the daemon's reader sees ECONNRESET mid-frame.
    raw.write_all(&32u32.to_be_bytes()).unwrap();
    raw.write_all(b"{\"par").unwrap();
    drop(raw);
    std::thread::sleep(Duration::from_millis(100));
    assert_healthy(&service);
    service.shutdown();
}

#[test]
fn garbage_frames_interleave_with_valid_ones() {
    let service = Service::start(test_config()).unwrap();
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for garbage in [&b"!!not json!!"[..], b"\xff\xfe\xfd", b"{\"op\": "] {
        // Garbage: framed correctly, payload broken (non-JSON, then
        // non-UTF-8, then truncated JSON).
        write_frame(&mut raw, garbage).unwrap();
        let frame = read_response(&mut raw);
        assert_eq!(frame.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(frame.get("code").and_then(Value::as_i64), Some(400));
        assert_eq!(
            frame.get("retryable").and_then(Value::as_bool),
            Some(false),
            "a 400 must not invite a retry"
        );
        // The same connection still serves valid frames.
        write_frame(&mut raw, br#"{"op": "ping"}"#).unwrap();
        let pong = read_response(&mut raw);
        assert_eq!(pong.get("op").and_then(Value::as_str), Some("pong"));
    }
    assert_healthy(&service);
    service.shutdown();
}

/// The reader takes from the socket exactly what the current frame
/// still needs: frames sent in one burst come out one by one, a frame
/// that arrives in pieces across the worker's 250 ms read timeouts is
/// reassembled (split inside the prefix and inside the payload), and a
/// payload longer than the reader's 256 KB chunk crosses chunks intact.
#[test]
fn frames_keep_their_boundaries_however_the_bytes_arrive() {
    let service = Service::start(ServiceConfig {
        idle_timeout: Duration::from_secs(20),
        ..test_config()
    })
    .unwrap();
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let framed = |payload: &[u8]| {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, payload).unwrap();
        bytes
    };
    let ping = framed(br#"{"op": "ping"}"#);
    let expect_pong = |raw: &mut TcpStream| {
        let pong = read_response(raw);
        assert_eq!(pong.get("op").and_then(Value::as_str), Some("pong"));
    };

    raw.write_all(&[&ping[..], &ping[..], &ping[..]].concat()).unwrap();
    for _ in 0..3 {
        expect_pong(&mut raw);
    }

    for piece in [&ping[..2], &ping[2..9], &ping[9..]] {
        std::thread::sleep(Duration::from_millis(300));
        raw.write_all(piece).unwrap();
    }
    expect_pong(&mut raw);

    // The op sits behind 600 000 bytes of padding: it is only found
    // if every chunk landed where it belongs.
    let long = framed(format!(r#"{{"pad": "{}", "op": "ping"}}"#, "x".repeat(600_000)).as_bytes());
    raw.write_all(&[&long[..], &ping[..]].concat()).unwrap();
    expect_pong(&mut raw);
    expect_pong(&mut raw);

    assert_healthy(&service);
    service.shutdown();
}

/// Reads one whole response frame off a raw test socket.
fn read_response(raw: &mut TcpStream) -> Value {
    let payload = divr_service::proto::read_frame(raw, 1 << 20)
        .unwrap()
        .expect("daemon closed instead of answering");
    json::parse(std::str::from_utf8(&payload).unwrap()).unwrap()
}

#[test]
fn idle_connection_is_reaped_not_pinned() {
    let service = Service::start(test_config()).unwrap();
    // Two bytes of length prefix, then silence: the slow-loris shape.
    let mut raw = TcpStream::connect(service.local_addr()).unwrap();
    raw.write_all(&[0u8, 0u8]).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = Instant::now();
    let mut sink = Vec::new();
    let n = raw.read_to_end(&mut sink).unwrap_or(0);
    // The reaper closed us (no response bytes) well before the read
    // timeout — the connection did not pin a worker forever.
    assert_eq!(n, 0, "a torn prefix must never be answered");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "idle connection outlived the reaper"
    );
    let mut client = Client::connect(service.local_addr()).unwrap();
    let stats = client.stats().unwrap();
    let robustness = stats.get("stats").unwrap().get("robustness").unwrap();
    assert!(
        robustness
            .get("reaped_idle")
            .and_then(Value::as_i64)
            .unwrap()
            >= 1,
        "the reap must be counted"
    );
    assert_healthy(&service);
    service.shutdown();
}
