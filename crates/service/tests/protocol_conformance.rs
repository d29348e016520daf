//! Wire-level conformance: a real daemon on a real socket, driven
//! through the public protocol, checked against the engine oracle.

use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_core::relevance::AttributeRelevance;
use divr_core::distance::NumericDistance;
use divr_core::Ratio;
use divr_relquery::parser::parse_query;
use divr_relquery::{Database, Tuple};
use divr_server::{CoresetSpec, QueryError, QueryFrontDoor, QuerySpec, Registry, UniverseSpec};
use divr_service::json::{self, Value};
use divr_service::wire::ratio_to_json;
use divr_service::{query_doc, serve_doc, AdmissionConfig, Client, Service, ServiceConfig};
use std::sync::Arc;

fn test_config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServiceConfig::default()
    }
}

/// The JSON form of the standard test universe.
fn universe_json(n: i64, distance_kind: &str) -> Value {
    let tuples: Vec<String> = (0..n).map(|i| format!("[{}, {}]", i, (i * 3) % 7)).collect();
    let distance = match distance_kind {
        "numeric" => r#"{"kind": "numeric", "attr": 0}"#.to_string(),
        other => format!(r#"{{"kind": "{other}"}}"#),
    };
    json::parse(&format!(
        r#"{{
            "tuples": [{}],
            "relevance": {{"kind": "attribute", "attr": 1, "default": [0, 1]}},
            "distance": {},
            "lambda": [1, 2]
        }}"#,
        tuples.join(", "),
        distance
    ))
    .unwrap()
}

/// The spec-form twin of [`universe_json`], for oracle comparison.
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

fn ratio_of(v: &Value) -> (i64, i64) {
    let pair = v.as_array().unwrap();
    (pair[0].as_i64().unwrap(), pair[1].as_i64().unwrap())
}

fn indices_of(v: &Value) -> Vec<usize> {
    v.as_array()
        .unwrap()
        .iter()
        .map(|i| usize::try_from(i.as_i64().unwrap()).unwrap())
        .collect()
}

#[test]
fn serve_answers_match_the_engine_oracle() {
    let service = Service::start(test_config()).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    assert!(client.ping().unwrap());

    let requests = all_objectives(4);
    let response = client
        .request(&serve_doc("alice", universe_json(40, "numeric"), &requests))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("degraded").and_then(Value::as_bool), Some(false));
    let answers = response.get("answers").and_then(Value::as_array).unwrap();
    assert_eq!(answers.len(), 3);

    // Oracle: the same universe through the library registry.
    let oracle = Registry::default();
    let spec = universe_spec(40);
    for (answer, request) in answers.iter().zip(&requests) {
        assert_eq!(answer.get("ok").and_then(Value::as_bool), Some(true));
        let (value, indices) = oracle.try_serve(&spec, *request).unwrap();
        assert_eq!(
            ratio_of(answer.get("value").unwrap()),
            (
                i64::try_from(value.numerator()).unwrap(),
                i64::try_from(value.denominator()).unwrap()
            ),
            "{:?} value drifted across the wire",
            request.kind
        );
        assert_eq!(indices_of(answer.get("indices").unwrap()), indices);
    }

    // The histograms saw one frame per objective.
    let stats = client.stats().unwrap();
    let latency = stats.get("stats").unwrap().get("latency").unwrap();
    for name in ["max_sum", "max_min", "mono"] {
        assert_eq!(
            latency.get(name).unwrap().get("count").and_then(Value::as_i64),
            Some(1),
            "{name} histogram should hold one sample"
        );
    }
    service.shutdown();
}

/// Keys more than `i64::MAX` apart, straight off the wire: the numeric
/// distance used to subtract in `i64` (distance 1 in release, a `500`
/// in debug). Full matrix and coreset mode, checked against the
/// library and against the arithmetic.
#[test]
fn numeric_keys_at_both_ends_of_i64_are_2_pow_64_apart() {
    let service = Service::start(test_config()).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    let rows = [(i64::MIN, 3), (i64::MAX, 3), (0, 1), (1, 2)];
    let relevance = AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    };
    let distance = NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    };
    let spec = UniverseSpec::new(
        rows.iter().map(|&(key, score)| Tuple::ints([key, score])).collect(),
        Arc::new(relevance),
        Arc::new(distance),
        Ratio::ONE,
    );
    let requests = all_objectives(2);
    for (mode, spec) in [
        ("", spec.clone()),
        (r#", "coreset": {"budget": 3}"#, spec.with_coreset(CoresetSpec::with_budget(3))),
    ] {
        let universe = json::parse(&format!(
            r#"{{"tuples": [[-9223372036854775808, 3], [9223372036854775807, 3], [0, 1], [1, 2]],
                "relevance": {{"kind": "attribute", "attr": 1, "default": [0, 1]}},
                "distance": {{"kind": "numeric", "attr": 0}}, "lambda": [1, 1]{mode}}}"#
        ))
        .unwrap();
        let response = client.request(&serve_doc("alice", universe, &requests)).unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true), "{response:?}");
        let answers = response.get("answers").and_then(Value::as_array).unwrap();
        let oracle = Registry::default();
        for (answer, request) in answers.iter().zip(&requests) {
            let (value, indices) = oracle.try_serve(&spec, *request).unwrap();
            assert_eq!(answer.get("value"), Some(&ratio_to_json(value)), "{:?}{mode}", request.kind);
            assert_eq!(indices_of(answer.get("indices").unwrap()), indices);
        }
        // λ = 1: F_MM of the two ends is their distance, 2^64 − 1.
        let max_min = &answers[1];
        assert_eq!(requests[1].kind, ObjectiveKind::MaxMin);
        assert_eq!(indices_of(max_min.get("indices").unwrap()), vec![0, 1], "{mode}");
        assert_eq!(
            max_min.get("value"),
            Some(&Value::Array(vec![Value::Str(u64::MAX.to_string()), Value::Int(1)])),
        );
    }
    service.shutdown();
}

#[test]
fn unservable_requests_get_typed_422s_and_panics_get_500s() {
    let service = Service::start(test_config()).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();

    // k > n: per-answer 422 infeasible_k; the frame itself is ok.
    let response = client
        .request(&serve_doc(
            "alice",
            universe_json(5, "numeric"),
            &[EngineRequest {
                kind: ObjectiveKind::MaxSum,
                k: 9,
            }],
        ))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let answer = &response.get("answers").and_then(Value::as_array).unwrap()[0];
    assert_eq!(answer.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(answer.get("code").and_then(Value::as_i64), Some(422));
    assert_eq!(
        answer.get("kind").and_then(Value::as_str),
        Some("infeasible_k")
    );

    // NaN-emitting oracle: refused at prepare with 422 non_finite_score.
    let response = client
        .request(&serve_doc(
            "alice",
            universe_json(6, "chaos_nan"),
            &all_objectives(2),
        ))
        .unwrap();
    for answer in response.get("answers").and_then(Value::as_array).unwrap() {
        assert_eq!(answer.get("code").and_then(Value::as_i64), Some(422));
        assert_eq!(
            answer.get("kind").and_then(Value::as_str),
            Some("non_finite_score")
        );
    }

    // Panicking oracle: 500 worker_panicked — not a dead connection.
    let response = client
        .request(&serve_doc(
            "alice",
            universe_json(6, "chaos_panic"),
            &all_objectives(2),
        ))
        .unwrap();
    for answer in response.get("answers").and_then(Value::as_array).unwrap() {
        assert_eq!(answer.get("code").and_then(Value::as_i64), Some(500));
        assert_eq!(
            answer.get("kind").and_then(Value::as_str),
            Some("worker_panicked")
        );
    }

    // The same daemon, the same connection, keeps serving afterward.
    let response = client
        .request(&serve_doc(
            "alice",
            universe_json(10, "numeric"),
            &all_objectives(3),
        ))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    for answer in response.get("answers").and_then(Value::as_array).unwrap() {
        assert_eq!(answer.get("ok").and_then(Value::as_bool), Some(true));
    }
    service.shutdown();
}

#[test]
fn malformed_frames_get_400s() {
    let service = Service::start(test_config()).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    for doc in [
        json::parse(r#"{"op": "transmogrify"}"#).unwrap(),
        json::parse(r#"{"no_op": 1}"#).unwrap(),
        json::parse(r#"{"op": "serve"}"#).unwrap(),
        json::parse(r#"{"op": "serve", "tenant": "a", "requests": [], "universe": {"tuples": [[1]], "relevance": {"kind": "constant", "value": [1, 1]}, "distance": {"kind": "constant", "value": [1, 1]}, "lambda": [9, 2]}}"#).unwrap(),
    ] {
        let response = client.request(&doc).unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(response.get("code").and_then(Value::as_i64), Some(400), "{doc:?}");
    }
    service.shutdown();
}

#[test]
fn qps_quota_answers_retryable_429() {
    let service = Service::start(ServiceConfig {
        admission: AdmissionConfig {
            qps: 0.0, // no refill: the burst is the whole allowance
            burst: 2.0,
            cache_quota_bytes: u64::MAX,
        },
        ..test_config()
    })
    .unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    let request = [EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 2,
    }];
    for _ in 0..2 {
        let response = client
            .request(&serve_doc("alice", universe_json(8, "numeric"), &request))
            .unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    }
    let response = client
        .request(&serve_doc("alice", universe_json(8, "numeric"), &request))
        .unwrap();
    assert_eq!(response.get("code").and_then(Value::as_i64), Some(429));
    assert_eq!(
        response.get("kind").and_then(Value::as_str),
        Some("qps_exceeded")
    );
    // Another tenant's bucket is untouched.
    let response = client
        .request(&serve_doc("bob", universe_json(8, "numeric"), &request))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    service.shutdown();
}

#[test]
fn cache_quota_answers_429_before_preparing() {
    // n = 50 estimates to 50²·8 + 50·48 = 22_400 bytes: one fits the
    // quota, two distinct universes don't.
    let service = Service::start(ServiceConfig {
        admission: AdmissionConfig {
            qps: 10_000.0,
            burst: 10_000.0,
            cache_quota_bytes: 30_000,
        },
        ..test_config()
    })
    .unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    let request = [EngineRequest {
        kind: ObjectiveKind::MaxMin,
        k: 3,
    }];
    let first = universe_json(50, "numeric");
    let response = client
        .request(&serve_doc("alice", first.clone(), &request))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    // A second distinct universe blows the ledger.
    let response = client
        .request(&serve_doc("alice", universe_json(51, "numeric"), &request))
        .unwrap();
    assert_eq!(response.get("code").and_then(Value::as_i64), Some(429));
    assert_eq!(
        response.get("kind").and_then(Value::as_str),
        Some("cache_quota")
    );
    // Re-serving the universe already paid for stays free.
    let response = client.request(&serve_doc("alice", first, &request)).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    // The refused universe was never prepared: exactly one miss.
    let stats = client.stats().unwrap();
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("misses").and_then(Value::as_i64), Some(1));
    service.shutdown();
}

/// `{"op":"stats"}` is read by name (the `e2e` benchmark, dashboards):
/// members are only ever added. Every name served so far is still
/// there, and the memory gauges say what the daemon remembers — one
/// ledger row per never-seen universe, one record per tenant name, and
/// a matrix free list that stays within `default_threads()` buffers
/// however many matrices were evicted.
#[test]
fn stats_members_are_additive_and_the_memory_gauges_count() {
    let mut config = test_config();
    config.registry.byte_budget = 1; // every insert evicts its predecessor
    config.registry.shards = 1;
    let service = Service::start(config).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    // Six never-seen universes, each with a matrix above the free
    // list's 1 MB floor, under a tenant that changes every other frame.
    let request = [EngineRequest {
        kind: ObjectiveKind::MaxMin,
        k: 3,
    }];
    for frame in 0..6 {
        let tenant = format!("tenant-{}", frame / 2);
        let universe = universe_json(360 + frame, "numeric");
        let response = client.request(&serve_doc(&tenant, universe, &request)).unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    }

    let reply = client.stats().unwrap();
    let stats = reply.get("stats").unwrap();
    let int = |group: &str, name: &str| {
        stats
            .get(group)
            .and_then(|g| g.get(name))
            .and_then(Value::as_i64)
            .unwrap_or_else(|| panic!("stats.{group}.{name} is missing or not an integer"))
    };
    for (group, names) in [
        (
            "admission",
            &["admitted", "rejected_qps", "rejected_cache", "rejected_queue", "degraded"][..],
        ),
        ("cache", &["hits", "misses", "evictions", "prepare_us", "entries", "bytes"][..]),
        ("robustness", &["deadline_exceeded", "reaped_idle", "draining_refused"][..]),
    ] {
        for name in names {
            int(group, name);
        }
    }
    for objective in ["max_sum", "max_min", "mono"] {
        for name in ["count", "mean_us", "p50_us", "p99_us"] {
            let member = stats.get("latency").and_then(|l| l.get(objective)).and_then(|o| o.get(name));
            assert!(member.and_then(Value::as_i64).is_some(), "latency.{objective}.{name}");
        }
    }
    assert_eq!(
        stats.get("robustness").and_then(|r| r.get("draining")),
        Some(&Value::Bool(false))
    );
    assert_eq!(
        stats.get("durability").and_then(|d| d.get("enabled")),
        Some(&Value::Bool(false))
    );
    assert!(stats.get("depth").and_then(Value::as_i64).is_some());
    assert!(stats.get("frames").and_then(Value::as_i64).is_some());

    assert_eq!(int("admission", "ledger_rows"), 6);
    assert_eq!(int("admission", "tenants"), 3);
    assert_eq!(int("cache", "evictions"), 5);
    // Six cold prepares, each timed: the daemon can state its own mean
    // cold cost (n = 360 builds take hundreds of µs at the very least).
    assert_eq!(int("cache", "misses"), 6);
    assert!(int("cache", "prepare_us") >= 6 * 100, "{}", int("cache", "prepare_us"));
    let spare_buffers = int("cache", "spare_buffers");
    let cap = divr_core::engine::default_threads() as i64;
    assert!((1..=cap).contains(&spare_buffers), "{spare_buffers} parked, cap {cap}");
    assert!(int("cache", "spare_bytes") >= spare_buffers << 20);
    service.shutdown();
}

/// `stats.solver` names what a `max_sum` solve cost beyond its rounds:
/// lazy-heap pops and `O(n)` anchor rescans. The counters are
/// process-wide, so this cell asks a `divrd` of its own — nothing else
/// solves in that process and every count is this test's.
///
/// An outlier (one tuple far from all others, last in the universe) is
/// every anchor's cached best partner: round 1 takes it, every other
/// anchor's bound is then stale and far too loose to skip, and round 2
/// rescans all n − 2 of them. Evenly spaced positions leave a round
/// the one or two anchors next in line.
#[test]
fn solver_counters_tell_an_outlier_universe_from_a_gap_spaced_one() {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Command, Stdio};

    /// Kills and reaps the daemon however the test ends.
    struct Daemon(Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    const N: i64 = 200;
    const REPEATS: i64 = 3;
    let universe = |last: i64| {
        let tuples: Vec<String> = (0..N)
            .map(|i| format!("[{}, {}]", if i == N - 1 { last } else { i * 13 }, (i * 3) % 7))
            .collect();
        json::parse(&format!(
            r#"{{"tuples": [{}], "relevance": {{"kind": "attribute", "attr": 1}},
                "distance": {{"kind": "numeric", "attr": 0}}, "lambda": [1, 2]}}"#,
            tuples.join(", ")
        ))
        .unwrap()
    };

    let spawned = Command::new(env!("CARGO_BIN_EXE_divrd"))
        .args(["127.0.0.1:0", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn();
    let mut daemon = Daemon(spawned.expect("spawn divrd"));
    let mut lines = BufReader::new(daemon.0.stderr.take().expect("stderr piped")).lines();
    let addr: std::net::SocketAddr = loop {
        let line = lines.next().expect("divrd announces its address").expect("read stderr");
        if let Some(rest) = line.strip_prefix("divrd listening on ") {
            break rest.trim().parse().expect("parse listen address");
        }
    };
    let mut client = Client::connect(addr).unwrap();
    let solver = |client: &mut Client| {
        let stats = client.stats().unwrap();
        let solver = stats.get("stats").and_then(|s| s.get("solver")).cloned();
        ["ms_requests", "ms_pops", "ms_rescans"].map(|name| {
            solver
                .as_ref()
                .and_then(|s| s.get(name))
                .and_then(Value::as_i64)
                .unwrap_or_else(|| panic!("stats.solver.{name} is missing or not an integer"))
        })
    };
    assert_eq!(solver(&mut client), [0, 0, 0], "a fresh daemon has solved nothing");

    let request = [EngineRequest { kind: ObjectiveKind::MaxSum, k: 6 }];
    let rescans_per_request = |client: &mut Client, universe: Value| {
        let [requests, pops, rescans] = solver(client);
        for _ in 0..REPEATS {
            let reply = client.request(&serve_doc("t", universe.clone(), &request)).unwrap();
            assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true), "{}", reply.to_json());
        }
        let after = solver(client);
        assert_eq!(after[0] - requests, REPEATS, "one lazy-heap solve per max_sum request");
        assert!(after[1] - pops >= after[2] - rescans, "every rescan follows a pop");
        (after[2] - rescans) / REPEATS
    };
    let gap_spaced = rescans_per_request(&mut client, universe((N - 1) * 13));
    let outlier = rescans_per_request(&mut client, universe(1_000_000_000));
    assert!(gap_spaced < N / 4, "{gap_spaced} rescans a request over evenly spaced positions");
    assert!(outlier >= N - 2, "{outlier} rescans a request with an outlier, n = {N}");
    println!("rescans a request at n = {N}: gap-spaced {gap_spaced}, outlier {outlier}");
}

#[test]
fn saturated_accept_queue_answers_429_queue_full() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        accept_backlog: 1,
        ..test_config()
    })
    .unwrap();
    // Occupy the only worker (the ping roundtrip proves attachment)…
    let mut occupant = Client::connect(service.local_addr()).unwrap();
    assert!(occupant.ping().unwrap());
    // …fill the single backlog slot…
    let _queued = Client::connect(service.local_addr()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    // …and the next connection is rejected with a typed frame, not
    // dropped on the floor.
    let mut rejected = Client::connect(service.local_addr()).unwrap();
    let response = rejected.read_response().unwrap();
    assert_eq!(response.get("code").and_then(Value::as_i64), Some(429));
    assert_eq!(
        response.get("kind").and_then(Value::as_str),
        Some("queue_full")
    );
    // The occupant's connection still works.
    assert!(occupant.ping().unwrap());
    service.shutdown();
}

#[test]
fn queue_pressure_degrades_to_coreset_mode() {
    let service = Service::start(ServiceConfig {
        degrade_watermark: 0, // every in-flight frame exceeds it
        degrade_min_n: 64,
        degrade_budget: 16,
        ..test_config()
    })
    .unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    // Large universe: transparently served in coreset mode.
    let response = client
        .request(&serve_doc(
            "alice",
            universe_json(200, "numeric"),
            &all_objectives(5),
        ))
        .unwrap();
    assert_eq!(response.get("degraded").and_then(Value::as_bool), Some(true));
    for answer in response.get("answers").and_then(Value::as_array).unwrap() {
        assert_eq!(answer.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(indices_of(answer.get("indices").unwrap()).len(), 5);
    }
    // Small universe: full prepare is cheap, never degraded.
    let response = client
        .request(&serve_doc(
            "alice",
            universe_json(20, "numeric"),
            &all_objectives(3),
        ))
        .unwrap();
    assert_eq!(response.get("degraded").and_then(Value::as_bool), Some(false));
    let stats = client.stats().unwrap();
    let admission = stats.get("stats").unwrap().get("admission").unwrap();
    assert_eq!(admission.get("degraded").and_then(Value::as_i64), Some(1));
    service.shutdown();
}

/// The JSON form of the relational test database: six employees over
/// three departments, plus an always-empty relation for the
/// empty-result path.
fn database_json() -> Value {
    json::parse(
        r#"{
            "relations": [
                {"name": "emp", "attrs": ["dept", "salary"],
                 "rows": [[0, 3], [1, 5], [2, 6], [0, 9], [1, 2], [2, 8]]},
                {"name": "dept", "attrs": ["id"], "rows": [[0], [1], [2]]},
                {"name": "void", "attrs": ["x"], "rows": []}
            ]
        }"#,
    )
    .unwrap()
}

/// The library-form twin of [`database_json`] (same insertion order —
/// the differential oracle depends on it).
fn database() -> Database {
    let mut db = Database::new();
    db.create_relation("emp", &["dept", "salary"]).unwrap();
    for row in [[0, 3], [1, 5], [2, 6], [0, 9], [1, 2], [2, 8]] {
        db.insert_tuple("emp", Tuple::ints(row)).unwrap();
    }
    db.create_relation("dept", &["id"]).unwrap();
    for id in 0..3 {
        db.insert_tuple("dept", Tuple::ints([id])).unwrap();
    }
    db.create_relation("void", &["x"]).unwrap();
    db
}

fn query_spec(text: &str) -> QuerySpec {
    QuerySpec::new(
        parse_query(text).unwrap(),
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
    .unwrap()
}

/// Builds the wire twin of [`query_spec`]'s parameters around `text`.
fn query_frame(tenant: &str, text: &str, requests: &[EngineRequest]) -> Value {
    query_doc(
        tenant,
        text,
        database_json(),
        json::parse(r#"{"kind": "attribute", "attr": 1, "default": [0, 1]}"#).unwrap(),
        json::parse(r#"{"kind": "numeric", "attr": 0}"#).unwrap(),
        json::parse("[1, 2]").unwrap(),
        requests,
    )
}

#[test]
fn query_answers_match_the_front_door_oracle() {
    let service = Service::start(test_config()).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();

    let requests = all_objectives(3);
    let text = "Q(d, s) :- emp(d, s), dept(d)";
    let response = client.request(&query_frame("alice", text, &requests)).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let answers = response.get("answers").and_then(Value::as_array).unwrap();
    assert_eq!(answers.len(), 3);

    // Oracle: the same (query, database) pair through the library
    // front door.
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    front.register_database("main", database());
    let spec = query_spec(text);
    let want = front.serve_query("main", &spec, &requests).unwrap();
    for (answer, oracle) in answers.iter().zip(&want) {
        assert_eq!(answer.get("ok").and_then(Value::as_bool), Some(true));
        let (value, indices) = oracle.as_ref().unwrap();
        assert_eq!(
            ratio_of(answer.get("value").unwrap()),
            (
                i64::try_from(value.numerator()).unwrap(),
                i64::try_from(value.denominator()).unwrap()
            ),
            "query answer value drifted across the wire"
        );
        assert_eq!(&indices_of(answer.get("indices").unwrap()), indices);
    }

    // A tableau-equivalent renaming of the same query, same database
    // content: the daemon must land on the warm entry — still exactly
    // one cache miss after both frames.
    let renamed = "Q(a, b) :- dept(a), emp(a, b), dept(a)";
    let response = client
        .request(&query_frame("alice", renamed, &requests))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let renamed_answers = response.get("answers").and_then(Value::as_array).unwrap();
    for (a, b) in answers.iter().zip(renamed_answers) {
        assert_eq!(
            indices_of(a.get("indices").unwrap()),
            indices_of(b.get("indices").unwrap()),
            "equivalent query answered differently"
        );
    }
    let stats = client.stats().unwrap();
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("misses").and_then(Value::as_i64), Some(1));
    assert!(cache.get("hits").and_then(Value::as_i64).unwrap() >= 1);
    service.shutdown();
}

#[test]
fn malformed_query_text_is_a_400() {
    let service = Service::start(test_config()).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    // Broken syntax: refused while parsing, before any evaluation.
    let response = client
        .request(&query_frame("alice", "Q(x :- emp(x", &all_objectives(2)))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(response.get("code").and_then(Value::as_i64), Some(400));
    assert_eq!(
        response.get("kind").and_then(Value::as_str),
        Some("bad_request")
    );
    // A missing query string is the same refusal.
    let response = client
        .request(&json::parse(r#"{"op": "query", "tenant": "alice"}"#).unwrap())
        .unwrap();
    assert_eq!(response.get("code").and_then(Value::as_i64), Some(400));
    service.shutdown();
}

#[test]
fn schema_mismatch_is_a_422() {
    let service = Service::start(test_config()).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    // Well-formed text over a relation the shipped database lacks, and
    // a well-formed text using a relation at the wrong arity: both are
    // 422s — the frame is fine, the query doesn't fit the schema.
    for text in ["Q(x) :- nosuch(x)", "Q(x) :- dept(x, x)"] {
        let response = client
            .request(&query_frame("alice", text, &all_objectives(2)))
            .unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false), "{text}");
        assert_eq!(response.get("code").and_then(Value::as_i64), Some(422), "{text}");
        assert_eq!(
            response.get("kind").and_then(Value::as_str),
            Some("schema_mismatch"),
            "{text}"
        );
    }
    // The connection keeps serving afterward.
    assert!(client.ping().unwrap());
    service.shutdown();
}

#[test]
fn infeasible_k_on_the_query_path_reuses_the_typed_422() {
    let service = Service::start(test_config()).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    // |Q(D)| = 6 here; k = 50 is infeasible per-request, not a frame
    // error.
    let response = client
        .request(&query_frame(
            "alice",
            "Q(d, s) :- emp(d, s)",
            &[EngineRequest {
                kind: ObjectiveKind::MaxSum,
                k: 50,
            }],
        ))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let answer = &response.get("answers").and_then(Value::as_array).unwrap()[0];
    assert_eq!(answer.get("code").and_then(Value::as_i64), Some(422));
    assert_eq!(
        answer.get("kind").and_then(Value::as_str),
        Some("infeasible_k")
    );
    service.shutdown();
}

/// `"max_k"` sizes the streamed coreset (`16 · max_k`): any positive
/// `i64` is accepted, so the product must saturate. Wrapped, `2^60`
/// sized the budget at 64 in release and panicked the worker (a 500)
/// under overflow checks. On a database this small the budget only
/// enters the cache key, so the answers must equal a modest `max_k`'s.
#[test]
fn a_huge_max_k_is_answered_like_a_modest_one() {
    let service = Service::start(test_config()).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    let mut answers_at = |max_k: i64| {
        let Value::Object(mut fields) =
            query_frame("alice", "Q(d, s) :- emp(d, s), dept(d)", &all_objectives(3))
        else {
            unreachable!("query_doc builds an object")
        };
        fields.push(("max_k".to_string(), Value::Int(max_k)));
        let response = client.request(&Value::Object(fields)).unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true), "{response:?}");
        let answers = response.get("answers").and_then(Value::as_array).unwrap();
        assert!(answers.iter().all(|a| a.get("ok").and_then(Value::as_bool) == Some(true)));
        answers
            .iter()
            .map(|a| (ratio_of(a.get("value").unwrap()), indices_of(a.get("indices").unwrap())))
            .collect::<Vec<_>>()
    };
    let modest = answers_at(4096);
    assert_eq!(answers_at(1_152_921_504_606_846_976), modest);
    assert_eq!(answers_at(i64::MAX), modest);
    service.shutdown();
}

#[test]
fn empty_query_result_is_typed_at_both_layers() {
    // Registry layer: a typed refusal, not a panic.
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    front.register_database("main", database());
    let err = front
        .serve_query("main", &query_spec("Q(x) :- void(x)"), &all_objectives(1))
        .unwrap_err();
    assert_eq!(err, QueryError::EmptyResult);

    // Daemon layer: the same refusal as a typed 422 frame, and the
    // daemon keeps serving afterward.
    let service = Service::start(test_config()).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    let response = client
        .request(&query_frame("alice", "Q(x) :- void(x)", &all_objectives(1)))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(response.get("code").and_then(Value::as_i64), Some(422));
    assert_eq!(
        response.get("kind").and_then(Value::as_str),
        Some("empty_result")
    );
    assert!(client.ping().unwrap());
    service.shutdown();
}

#[test]
fn concurrent_chaos_tenants_never_poison_healthy_ones() {
    let service = Service::start(test_config()).unwrap();
    let addr = service.local_addr();

    // Two chaos tenants and one healthy tenant hammer concurrently.
    let chaos = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        for kind in ["chaos_panic", "chaos_nan", "chaos_panic"] {
            let response = client
                .request(&serve_doc("mallory", universe_json(8, kind), &all_objectives(2)))
                .unwrap();
            assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
        }
    });
    let mut client = Client::connect(addr).unwrap();
    let oracle = Registry::default();
    let spec = universe_spec(30);
    for _ in 0..3 {
        let requests = all_objectives(4);
        let response = client
            .request(&serve_doc("alice", universe_json(30, "numeric"), &requests))
            .unwrap();
        let answers = response.get("answers").and_then(Value::as_array).unwrap();
        for (answer, request) in answers.iter().zip(&requests) {
            let (value, indices) = oracle.try_serve(&spec, *request).unwrap();
            assert_eq!(
                ratio_of(answer.get("value").unwrap()).0,
                i64::try_from(value.numerator()).unwrap()
            );
            assert_eq!(indices_of(answer.get("indices").unwrap()), indices);
        }
    }
    chaos.join().unwrap();
    // The daemon survived every injected fault.
    assert!(client.ping().unwrap());
    service.shutdown();
}

/// Checks wire answers against library answers, value and indices.
fn assert_answers_eq(answers: &[Value], want: &[(Ratio, Vec<usize>)]) {
    assert_eq!(answers.len(), want.len());
    for (answer, (value, indices)) in answers.iter().zip(want) {
        assert_eq!(
            ratio_of(answer.get("value").unwrap()),
            (
                i64::try_from(value.numerator()).unwrap(),
                i64::try_from(value.denominator()).unwrap()
            )
        );
        assert_eq!(&indices_of(answer.get("indices").unwrap()), indices);
    }
}

/// Serves the standard 30-tuple universe on a fresh connection and
/// returns the answers after checking each against the engine oracle —
/// what "the daemon is unharmed" means after a hostile frame.
fn serve_on_a_fresh_connection(addr: std::net::SocketAddr) -> Vec<Value> {
    let mut client = Client::connect(addr).unwrap();
    assert!(client.ping().unwrap());
    let requests = all_objectives(4);
    let response = client
        .request(&serve_doc("bystander", universe_json(30, "numeric"), &requests))
        .unwrap();
    let answers = response.get("answers").and_then(Value::as_array).unwrap().to_vec();
    let oracle = Registry::default();
    let spec = universe_spec(30);
    let want: Vec<_> = requests.iter().map(|r| oracle.try_serve(&spec, *r).unwrap()).collect();
    assert_answers_eq(&answers, &want);
    answers
}

/// A frame that nests 200 000 arrays deep used to overflow the worker's
/// stack in the recursive-descent JSON parser — an abort no
/// `catch_unwind` sees, so one 200 KB frame ended the process. It is a
/// `400` naming the limit, and the connection keeps serving.
#[test]
fn deeply_nested_json_is_a_400_not_a_dead_daemon() {
    use divr_service::proto::{read_frame, write_frame};
    let service = Service::start(test_config()).unwrap();
    let before = serve_on_a_fresh_connection(service.local_addr());

    // Raw frames: a `Value` this deep could not even be dropped.
    let mut stream = std::net::TcpStream::connect(service.local_addr()).unwrap();
    let mut roundtrip = |payload: &[u8]| {
        write_frame(&mut stream, payload).unwrap();
        let reply = read_frame(&mut stream, 1 << 20).unwrap().expect("a reply frame");
        json::parse(std::str::from_utf8(&reply).unwrap()).unwrap()
    };
    for hostile in ["[".repeat(200_000), r#"{"op":"#.repeat(200_000)] {
        let response = roundtrip(hostile.as_bytes());
        assert_eq!(response.get("code").and_then(Value::as_i64), Some(400));
        assert_eq!(response.get("kind").and_then(Value::as_str), Some("bad_request"));
        let detail = response.get("detail").and_then(Value::as_str).unwrap();
        assert!(detail.contains(&json::MAX_DEPTH.to_string()), "{detail}");
    }
    // The same connection answers the next frame.
    let pong = roundtrip(br#"{"op":"ping"}"#);
    assert_eq!(pong.get("op").and_then(Value::as_str), Some("pong"));

    assert_eq!(serve_on_a_fresh_connection(service.local_addr()), before);
    service.shutdown();
}

/// The same abort through query text: 200 000 nested parentheses,
/// negations or quantifiers recursed once each in the query parser.
/// Malformed text is a `400`, before the handler looks at the database.
#[test]
fn deeply_nested_query_text_is_a_400_not_a_dead_daemon() {
    let service = Service::start(test_config()).unwrap();
    let before = serve_on_a_fresh_connection(service.local_addr());
    let mut client = Client::connect(service.local_addr()).unwrap();
    for text in [
        format!("Q(x) := {}dept(x)", "(".repeat(200_000)),
        format!("Q(x) := {}dept(x)", "!".repeat(200_000)),
        format!("Q(x) := {}dept(x)", "exists y. ".repeat(200_000)),
        format!("Q(x) := {}dept(x)", "dept(x) -> ".repeat(200_000)),
    ] {
        let response = client
            .request(&query_frame("alice", &text, &all_objectives(2)))
            .unwrap();
        assert_eq!(response.get("code").and_then(Value::as_i64), Some(400));
        assert_eq!(response.get("kind").and_then(Value::as_str), Some("bad_request"));
        let detail = response.get("detail").and_then(Value::as_str).unwrap();
        assert!(detail.contains("malformed query"), "{detail}");
    }
    assert!(client.ping().unwrap());
    assert_eq!(serve_on_a_fresh_connection(service.local_addr()), before);
    service.shutdown();
}

/// A base edit repairs warm universes under the front door's write
/// lock, which runs the tenant's distance oracle outside the registry's
/// two fault boundaries. With a panicking oracle the `mutate` frame used
/// to unwind out of the worker loop: the worker was gone for good, and
/// with `workers: 1` the daemon stayed up and accepted nothing. The
/// frame-level boundary makes it one typed, non-retryable `500`.
#[test]
fn a_panicking_mutate_costs_its_frame_not_its_worker() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..test_config()
    })
    .unwrap();
    let before = serve_on_a_fresh_connection(service.local_addr());

    let mut client = Client::connect(service.local_addr()).unwrap();
    // One row: no off-diagonal pair, so the chaos oracle prepares fine.
    let chaos_query = query_doc(
        "mallory",
        "Q(x) :- R(x)",
        json::parse(r#"{"relations": [{"name": "R", "attrs": ["x"], "rows": [[1]]}]}"#).unwrap(),
        json::parse(r#"{"kind": "constant", "value": [1, 1]}"#).unwrap(),
        json::parse(r#"{"kind": "chaos_panic"}"#).unwrap(),
        json::parse("[1, 2]").unwrap(),
        &all_objectives(1),
    );
    let response = client.request(&chaos_query).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let db = response.get("database").and_then(Value::as_str).unwrap();

    // The insert grows the warm universe to two tuples: the repair asks
    // the oracle for their distance, and the oracle panics.
    let mutate = json::parse(&format!(
        r#"{{"op": "mutate", "tenant": "mallory", "database": "{db}",
            "relation": "R", "action": "insert", "tuple": [2]}}"#
    ))
    .unwrap();
    let response = client.request(&mutate).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(response.get("code").and_then(Value::as_i64), Some(500));
    assert_eq!(response.get("kind").and_then(Value::as_str), Some("worker_panicked"));
    assert_eq!(response.get("retryable").and_then(Value::as_bool), Some(false));

    // The only worker still holds this connection. The edit itself was
    // journaled and applied before the repair ran — only the reply was
    // lost to the fault — so a retry finds the tuple present.
    assert!(client.ping().unwrap());
    let retry = client.request(&mutate).unwrap();
    assert_eq!(retry.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(retry.get("changed").and_then(Value::as_bool), Some(false));
    // The entry under repair went cold, nothing stale is resident: the
    // next query prepares over both tuples and meets the panic inside
    // the registry's own boundary.
    let response = client.request(&chaos_query).unwrap();
    assert_eq!(response.get("code").and_then(Value::as_i64), Some(500));
    drop(client); // one worker: free it for the next connection

    // A fresh connection is served, and other tenants' answers — a
    // universe and a different database — are what they were.
    assert_eq!(serve_on_a_fresh_connection(service.local_addr()), before);
    let mut client = Client::connect(service.local_addr()).unwrap();
    let requests = all_objectives(3);
    let text = "Q(d, s) :- emp(d, s), dept(d)";
    let response = client.request(&query_frame("alice", text, &requests)).unwrap();
    let answers = response.get("answers").and_then(Value::as_array).unwrap();
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    front.register_database("main", database());
    let want = front.serve_query("main", &query_spec(text), &requests).unwrap();
    let want: Vec<_> = want.into_iter().map(Result::unwrap).collect();
    assert_answers_eq(answers, &want);
    service.shutdown();
}
