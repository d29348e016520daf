//! The crash matrix: a real `divrd` child process is killed at every
//! seam of the durability write path —
//!
//! * `wal-append` — the process dies after *half* a WAL frame reaches
//!   the kernel (a torn append);
//! * `snapshot-mid-write` — mid-snapshot, half the records written to
//!   the temp file;
//! * `snapshot-pre-rename` — the snapshot is complete and synced but
//!   never published;
//! * `snapshot-post-rename` — published, but the old WAL segments were
//!   never pruned;
//! * `kill9` — `SIGKILL` with no injection at all, right after an
//!   acknowledged mutation;
//! * `hints-lost` — the machine, not the process, goes down: the WAL
//!   keeps only what the last acknowledged mutation's `fsync` covered,
//!   and the warmth and registration records appended after it (which
//!   pay no `fsync` of their own) are gone.
//!
//! After each crash the daemon restarts on the same data directory and
//! must recover **exactly the acknowledged prefix**: every mutation the
//! client got an `ok` for is present, the unacknowledged in-flight op
//! is absent, and the served answers are bit-identical to a
//! never-crashed oracle daemon that executed the same acknowledged ops.
//! The graceful path is pinned too: a drained daemon's successor
//! restarts 100% warm with **zero** WAL replay and zero cold prepares.

use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_service::json::{self, object, Value};
use divr_service::{query_doc, Client, RetryPolicy};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "divr-crash-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One live `divrd` child. Dropping kills and reaps it (tests that
/// want a graceful exit close `stdin` and `wait_exit` explicitly).
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdin: Option<ChildStdin>,
}

impl Daemon {
    /// Spawns `divrd --data-dir <dir>` on an ephemeral port, optionally
    /// under a crash-injection point, and waits for the listen line.
    fn spawn(data_dir: Option<&Path>, crash_point: Option<&str>) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_divrd"));
        cmd.arg("127.0.0.1:0")
            .arg("2")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        if let Some(point) = crash_point {
            cmd.env("DIVR_CRASH_POINT", point);
        } else {
            cmd.env_remove("DIVR_CRASH_POINT");
        }
        let mut child = cmd.spawn().expect("spawn divrd");
        let stdin = child.stdin.take();
        let stderr = child.stderr.take().expect("stderr piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("divrd exited before announcing its address")
                .expect("read divrd stderr");
            if let Some(rest) = line.strip_prefix("divrd listening on ") {
                break rest.trim().parse().expect("parse listen address");
            }
        };
        // Keep draining stderr so the child's later eprintln!s (drain,
        // stop) never block on a full pipe.
        std::thread::spawn(move || for _ in lines.by_ref() {});
        Daemon { child, addr, stdin }
    }

    fn client(&self) -> Client {
        Client::connect_with(
            self.addr,
            RetryPolicy {
                max_retries: 0,
                read_timeout: Some(Duration::from_secs(30)),
                ..RetryPolicy::default()
            },
        )
        .expect("connect to divrd")
    }

    /// Waits (bounded) for the child to exit; panics if it outlives the
    /// budget — a crash point that failed to fire is a test bug.
    fn wait_exit(&mut self) {
        let started = Instant::now();
        while started.elapsed() < Duration::from_secs(30) {
            if self.child.try_wait().expect("try_wait").is_some() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("divrd did not exit within 30s");
    }

    /// Closes stdin — the supervisor's graceful-shutdown signal — and
    /// waits for the drain (final checkpoint included) to finish.
    fn drain(&mut self) {
        drop(self.stdin.take());
        self.wait_exit();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn requests() -> Vec<EngineRequest> {
    vec![
        EngineRequest {
            kind: ObjectiveKind::MaxSum,
            k: 3,
        },
        EngineRequest {
            kind: ObjectiveKind::MaxMin,
            k: 2,
        },
    ]
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

fn query_frame() -> Value {
    query_frame_over(database_json())
}

fn query_frame_over(database: Value) -> Value {
    query_doc(
        "alice",
        "Q(d, s) :- emp(d, s)",
        database,
        json::parse(r#"{"kind": "attribute", "attr": 1, "default": [0, 1]}"#).unwrap(),
        json::parse(r#"{"kind": "numeric", "attr": 0}"#).unwrap(),
        json::parse("[1, 2]").unwrap(),
        &requests(),
    )
}

fn mutate_frame(database: &str, action: &str, tuple: [i64; 2]) -> Value {
    object([
        ("op", Value::Str("mutate".into())),
        ("tenant", Value::Str("alice".into())),
        ("database", Value::Str(database.into())),
        ("relation", Value::Str("emp".into())),
        ("action", Value::Str(action.into())),
        (
            "tuple",
            Value::Array(vec![Value::Int(tuple[0]), Value::Int(tuple[1])]),
        ),
    ])
}

/// One acknowledged tape op: replayed verbatim against the oracle.
#[derive(Clone, Copy)]
enum Op {
    Insert([i64; 2]),
    Remove([i64; 2]),
}

/// Runs the acknowledged mutations against a fresh in-memory daemon
/// and returns its final `answers` JSON — the bit-identity oracle.
fn oracle_answers(acked: &[Op]) -> String {
    let daemon = Daemon::spawn(None, None);
    let mut client = daemon.client();
    let warm = client.request(&query_frame()).unwrap();
    assert_eq!(warm.get("ok").and_then(Value::as_bool), Some(true));
    let db = warm.get("database").and_then(Value::as_str).unwrap().to_string();
    for op in acked {
        let frame = match op {
            Op::Insert(t) => mutate_frame(&db, "insert", *t),
            Op::Remove(t) => mutate_frame(&db, "remove", *t),
        };
        let response = client.request(&frame).unwrap();
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    }
    let response = client.request(&query_frame()).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    response.get("answers").unwrap().to_json()
}

/// Sends a frame expecting the daemon to die mid-request: any client
/// error counts; an `ok` response means the crash point did not fire.
fn expect_crash(client: &mut Client, frame: &Value) {
    match client.request(frame) {
        Err(_) => {}
        Ok(response) => panic!(
            "daemon answered {} instead of crashing",
            response.to_json()
        ),
    }
}

/// Phase 1 of every cell: a clean daemon lifetime that registers the
/// database, warms the query, applies one insert, checkpoints, applies
/// one remove, and drains gracefully. Returns the database name and
/// the acked op list so far.
fn seed_history(dir: &Path) -> (String, Vec<Op>) {
    let mut daemon = Daemon::spawn(Some(dir), None);
    let mut client = daemon.client();
    let warm = client.request(&query_frame()).unwrap();
    assert_eq!(warm.get("ok").and_then(Value::as_bool), Some(true));
    let db = warm.get("database").and_then(Value::as_str).unwrap().to_string();

    let response = client.request(&mutate_frame(&db, "insert", [3, 7])).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("changed").and_then(Value::as_bool), Some(true));

    let response = client
        .request(&object([("op", Value::Str("checkpoint".into()))]))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));

    let response = client.request(&mutate_frame(&db, "remove", [1, 5])).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("changed").and_then(Value::as_bool), Some(true));

    // Only the two mutations and the checkpoint synced the log; the
    // registration and the warm query rode along.
    assert_eq!(durability_counter(&mut client, "wal_syncs"), 3);

    drop(client);
    daemon.drain();
    (db, vec![Op::Insert([3, 7]), Op::Remove([1, 5])])
}

/// Phase 3 of every cell: restart clean on the crashed directory and
/// pin the recovered answers bit-identical to the acked-prefix oracle.
fn assert_recovers(dir: &Path, acked: &[Op]) {
    let daemon = Daemon::spawn(Some(dir), None);
    let mut client = daemon.client();
    let response = client.request(&query_frame()).unwrap();
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "recovered daemon refused the tape query: {}",
        response.to_json()
    );
    let got = response.get("answers").unwrap().to_json();
    let want = oracle_answers(acked);
    assert_eq!(
        got, want,
        "recovered answers diverge from the acked-prefix oracle"
    );
}

#[test]
fn torn_wal_append_drops_only_the_unacknowledged_mutation() {
    let dir = tmpdir("wal-append");
    let (db, acked) = seed_history(&dir);

    // Phase 2: restart under injection; the next journaled mutation
    // tears half a WAL frame and aborts. The client never saw an ok,
    // so the mutation must NOT survive.
    let mut daemon = Daemon::spawn(Some(&dir), Some("wal-append"));
    let mut client = daemon.client();
    expect_crash(&mut client, &mutate_frame(&db, "insert", [4, 1]));
    daemon.wait_exit();
    drop(daemon);

    assert_recovers(&dir, &acked);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_snapshot_write_keeps_the_wal_authoritative() {
    let dir = tmpdir("snap-mid");
    let (_db, acked) = seed_history(&dir);

    let mut daemon = Daemon::spawn(Some(&dir), Some("snapshot-mid-write"));
    let mut client = daemon.client();
    expect_crash(&mut client, &object([("op", Value::Str("checkpoint".into()))]));
    daemon.wait_exit();
    drop(daemon);

    assert_recovers(&dir, &acked);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_between_fsync_and_rename_loses_nothing() {
    let dir = tmpdir("snap-pre-rename");
    let (_db, acked) = seed_history(&dir);

    let mut daemon = Daemon::spawn(Some(&dir), Some("snapshot-pre-rename"));
    let mut client = daemon.client();
    expect_crash(&mut client, &object([("op", Value::Str("checkpoint".into()))]));
    daemon.wait_exit();
    drop(daemon);

    assert_recovers(&dir, &acked);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_after_rename_before_prune_replays_idempotently() {
    let dir = tmpdir("snap-post-rename");
    let (_db, acked) = seed_history(&dir);

    // The snapshot IS published; the superseded WAL segments are not
    // pruned. Recovery sees both and must apply the overlap once.
    let mut daemon = Daemon::spawn(Some(&dir), Some("snapshot-post-rename"));
    let mut client = daemon.client();
    expect_crash(&mut client, &object([("op", Value::Str("checkpoint".into()))]));
    daemon.wait_exit();
    drop(daemon);

    assert_recovers(&dir, &acked);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_after_acknowledged_mutation_keeps_it() {
    let dir = tmpdir("kill9");
    let (db, mut acked) = seed_history(&dir);

    // No injection: the mutation is acknowledged (WAL-synced before the
    // ack by construction), then the process is SIGKILLed. The ack is
    // a durability promise — the mutation must survive.
    let mut daemon = Daemon::spawn(Some(&dir), None);
    let mut client = daemon.client();
    let response = client.request(&mutate_frame(&db, "insert", [4, 1])).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    acked.push(Op::Insert([4, 1]));
    daemon.child.kill().unwrap();
    daemon.wait_exit();
    drop(daemon);

    assert_recovers(&dir, &acked);
    let _ = std::fs::remove_dir_all(&dir);
}

fn durability_counter(client: &mut Client, name: &str) -> i64 {
    let stats = client.stats().unwrap();
    let durability = stats.get("stats").unwrap().get("durability").unwrap();
    durability.get(name).and_then(Value::as_i64).unwrap()
}

#[test]
fn a_machine_crash_loses_only_unacknowledged_hints() {
    let dir = tmpdir("hints-lost");
    let mut daemon = Daemon::spawn(Some(&dir), None);
    let mut client = daemon.client();
    let segment = || {
        let mut logs: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        assert_eq!(logs.len(), 1, "one WAL segment before any checkpoint");
        logs.pop().unwrap()
    };

    // Registration and warmth are hints: journaled, not synced.
    let warm = client.request(&query_frame()).unwrap();
    assert_eq!(warm.get("ok").and_then(Value::as_bool), Some(true));
    let db = warm.get("database").and_then(Value::as_str).unwrap().to_string();
    assert_eq!(durability_counter(&mut client, "wal_records"), 2);
    assert_eq!(durability_counter(&mut client, "wal_syncs"), 0);

    // The acknowledged mutation syncs the segment — itself and the
    // registration it edits, which precedes it there.
    let response = client.request(&mutate_frame(&db, "insert", [3, 7])).unwrap();
    assert_eq!(response.get("changed").and_then(Value::as_bool), Some(true));
    assert_eq!(durability_counter(&mut client, "wal_syncs"), 1);
    let synced = std::fs::metadata(segment()).unwrap().len();

    // A second database after it: two more hints, no sync.
    let other = json::parse(
        r#"{"relations": [{"name": "emp", "attrs": ["dept", "salary"],
                           "rows": [[5, 1], [6, 4], [7, 2], [8, 8]]}]}"#,
    )
    .unwrap();
    let fresh = client.request(&query_frame_over(other.clone())).unwrap();
    assert_eq!(fresh.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(durability_counter(&mut client, "wal_records"), 5);
    assert_eq!(durability_counter(&mut client, "wal_syncs"), 1);
    let want_other = fresh.get("answers").unwrap().to_json();

    // The machine goes down: what no `fsync` covered never reached the
    // disk. (A killed process alone loses nothing — `kill9` above.)
    daemon.child.kill().unwrap();
    daemon.wait_exit();
    drop(daemon);
    let log = std::fs::OpenOptions::new().write(true).open(segment()).unwrap();
    assert!(log.metadata().unwrap().len() > synced);
    log.set_len(synced).unwrap();
    drop(log);

    // The acknowledged mutation found its database and its warm query.
    assert_recovers(&dir, &[Op::Insert([3, 7])]);

    // The lost hints cost a registration and a cold prepare at the next
    // frame that names the database, never a wrong answer.
    let daemon = Daemon::spawn(Some(&dir), None);
    let mut client = daemon.client();
    assert_eq!(durability_counter(&mut client, "recovered_databases"), 1);
    let again = client.request(&query_frame_over(other)).unwrap();
    assert_eq!(again.get("answers").unwrap().to_json(), want_other);
    let stats = client.stats().unwrap();
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("misses").and_then(Value::as_i64), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_restarts_fully_warm_with_zero_replay() {
    let dir = tmpdir("drain-warm");
    let (_db, acked) = seed_history(&dir);

    // The drain in seed_history ran the final checkpoint. The restart
    // must come back 100% warm from the snapshot alone: nothing to
    // replay, nothing to cold-prepare.
    let daemon = Daemon::spawn(Some(&dir), None);
    let mut client = daemon.client();
    let stats = client.stats().unwrap();
    let durability = stats.get("stats").unwrap().get("durability").unwrap();
    assert_eq!(
        durability.get("enabled").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        durability
            .get("wal_records_replayed")
            .and_then(Value::as_i64),
        Some(0),
        "a drained daemon's successor must not replay anything"
    );
    assert!(
        durability
            .get("recovered_entries")
            .and_then(Value::as_i64)
            .unwrap()
            >= 1,
        "the warm query must be recovered"
    );

    // First request hits the recovered entry — zero cold prepares —
    // and answers as the daemon that never stopped would.
    let response = client.request(&query_frame()).unwrap();
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        response.get("answers").unwrap().to_json(),
        oracle_answers(&acked),
        "a warm restart changed the answers"
    );
    let stats = client.stats().unwrap();
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert_eq!(
        cache.get("misses").and_then(Value::as_i64),
        Some(0),
        "warm restart must serve without a cold prepare"
    );
    assert!(cache.get("hits").and_then(Value::as_i64).unwrap() >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}
