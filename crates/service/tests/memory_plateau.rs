//! The daemon's memory is a function of its byte budget, not of how
//! many frames it has served.
//!
//! One in-process [`Service`] with a few megabytes of cache, one
//! connection, and the traffic that grows a daemon fastest: every frame
//! a never-seen universe, under a tenant that changes every fourth
//! frame. Once the cache is saturated, serving thousands more such
//! frames may only add what the admission ledger is documented to keep
//! — 24 bytes a row and one small record per tenant name — and never
//! the universes' keys themselves (their whole canonical encodings,
//! ~3.5 KB here, 26 KB at `n = 1000`), which a ledger of key clones
//! used to pin for the life of the process.
//!
//! Resident set size is a property of the process, so this file holds
//! exactly one test and is its own test binary.
#![cfg(target_os = "linux")]

use divr_core::engine::{default_threads, EngineRequest};
use divr_core::problem::ObjectiveKind;
use divr_service::json::{self, Value};
use divr_service::{serve_doc, wire, Client, Service, ServiceConfig};

const N: i64 = 128;
const FRAMES_PER_TENANT: u64 = 4;
const SATURATE: u64 = 1_000;
const MEASURED: u64 = 4_000;

/// The `frame`-th universe: `N` tuples `[position, score]` no other
/// frame shares.
fn universe_json(frame: u64) -> Value {
    let base = frame as i64 * 1_000;
    let tuples: Vec<String> = (0..N)
        .map(|i| format!("[{}, {}]", base + (i * 37) % 997, (i * 3) % 7))
        .collect();
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

fn serve_frames(client: &mut Client, frames: std::ops::Range<u64>) {
    let request = [EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 5,
    }];
    for frame in frames {
        let tenant = format!("tenant-{}", frame / FRAMES_PER_TENANT);
        let reply = client
            .request(&serve_doc(&tenant, universe_json(frame), &request))
            .unwrap();
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "frame {frame}"
        );
    }
}

/// `VmRSS` of this process, in bytes.
fn resident_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .unwrap();
    kb * 1024
}

/// One named gauge of `{"op":"stats"}`.
fn gauge(client: &mut Client, group: &str, name: &str) -> i64 {
    let stats = client.stats().unwrap();
    stats
        .get("stats")
        .and_then(|s| s.get(group))
        .and_then(|g| g.get(name))
        .and_then(Value::as_i64)
        .unwrap_or_else(|| panic!("stats.{group}.{name} is missing"))
}

#[test]
fn resident_memory_plateaus_while_the_ledger_counts_every_universe() {
    let mut config = ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    };
    config.registry.byte_budget = 4 << 20;
    config.registry.shards = 1;
    config.registry.solve_threads = 1;
    let service = Service::start(config).unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();

    // Saturate: ~25 universes fill the budget; the rest of these frames
    // let the allocator reach the size it needs for one frame's
    // transients, so that what is measured afterwards is growth.
    serve_frames(&mut client, 0..SATURATE);
    assert!(
        gauge(&mut client, "cache", "evictions") > 0,
        "the cache saturated"
    );
    let rows_before = gauge(&mut client, "admission", "ledger_rows");
    let tenants_before = gauge(&mut client, "admission", "tenants");
    assert_eq!(rows_before, SATURATE as i64);
    let before = resident_bytes();

    serve_frames(&mut client, SATURATE..SATURATE + MEASURED);
    let grown = resident_bytes().saturating_sub(before);

    // The ledger counted every universe and every tenant name…
    assert_eq!(
        gauge(&mut client, "admission", "ledger_rows") - rows_before,
        MEASURED as i64
    );
    assert_eq!(
        gauge(&mut client, "admission", "tenants") - tenants_before,
        (MEASURED / FRAMES_PER_TENANT) as i64
    );
    // …and kept none of their keys: had it, the process would have
    // grown by the keys' bytes (plus allocator slack).
    let key_bytes = wire::universe_from_json(&universe_json(0))
        .unwrap()
        .key()
        .bytes()
        .len() as u64;
    let retained_keys = MEASURED * key_bytes;
    assert!(
        grown < retained_keys / 3,
        "{MEASURED} frames grew the process by {grown} bytes; their keys are {retained_keys} bytes"
    );
    // These matrices (~150 KB) are below the free list's 1 MB floor.
    assert!(gauge(&mut client, "cache", "spare_buffers") <= default_threads() as i64);
    service.shutdown();
}
