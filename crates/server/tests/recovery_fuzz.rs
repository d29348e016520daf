//! Recovery fuzz: no byte of the data directory is trusted.
//!
//! A deterministic tape drives the real durability subsystem — database
//! registration, a warm query, base-table edits through both the insert
//! and removal fan-out, a mid-tape checkpoint (so a snapshot AND
//! trailing WAL records both exist), and a universe-keyed entry ahead
//! of the last edit — then the resulting files are mangled:
//!
//! * **truncation at every byte offset** of the snapshot and of every
//!   WAL segment (the torn-write spectrum: a crash can stop a write
//!   anywhere);
//! * **seeded random corruption** (`PROPTEST_CASES` cases, default 32)
//!   flipping bytes at random offsets in random files — bit rot and
//!   misdirected writes.
//!
//! The invariant under every mangling: `Durability::open` + `recover`
//! **never panic**, and whatever state comes back is a *consistent
//! prefix* of the tape — a recovered warm query universe set-equals the
//! query's evaluation over one of the tape's database states, and every
//! served answer is bit-identical to a fresh prepare over the recovered
//! content. Corruption may cost warmth; it may never invent state.

use divr_core::coreset::CORESET_AUTO_THRESHOLD;
use divr_core::engine::EngineRequest;
use divr_core::prelude::*;
use divr_relquery::parser::parse_query;
use divr_relquery::{Database, Tuple, Value};
use divr_server::{
    CheckedAnswer, CoresetSpec, Durability, QueryError, QueryFrontDoor, QuerySpec, RecoverMode,
    Registry, RegistryConfig, UniverseSpec,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::{fs, io::Write as _};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "divr-recovery-fuzz-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn rel() -> Arc<AttributeRelevance> {
    Arc::new(AttributeRelevance {
        attr: 1,
        default: Ratio::new(1, 4),
    })
}

fn dis() -> Arc<NumericDistance> {
    Arc::new(NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    })
}

fn reqs() -> Vec<EngineRequest> {
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

fn qspec() -> QuerySpec {
    QuerySpec::new(
        parse_query("Q(x, z) :- R(x, y), S(y, z)").unwrap(),
        rel(),
        dis(),
        Ratio::new(1, 2),
    )
    .unwrap()
}

fn base_db() -> Database {
    let mut d = Database::new();
    d.create_relation("R", &["x", "y"]).unwrap();
    d.create_relation("S", &["y", "z"]).unwrap();
    for i in 0..6i64 {
        d.insert("R", vec![Value::int(i), Value::int(i % 3)]).unwrap();
        d.insert("S", vec![Value::int(i % 3), Value::int(10 + i)])
            .unwrap();
    }
    d
}

fn uspec() -> UniverseSpec {
    UniverseSpec::new(
        (0..20).map(|i| Tuple::ints([i, (i * i) % 7])).collect(),
        rel(),
        dis(),
        Ratio::new(1, 2),
    )
}

/// Every database state the tape passes through, in order. A recovered
/// "main" must evaluate the tape query to one of these (as a set).
fn prefix_dbs() -> Vec<Database> {
    let d0 = base_db();
    let mut d1 = d0.clone();
    d1.insert("R", vec![Value::int(100), Value::int(2)]).unwrap();
    let mut d2 = d1.clone();
    d2.remove_tuple("R", &Tuple::ints([1, 1])).unwrap();
    let mut d3 = d2.clone();
    d3.insert("S", vec![Value::int(0), Value::int(99)]).unwrap();
    let mut d4 = d3.clone();
    d4.insert("R", vec![Value::int(101), Value::int(0)]).unwrap();
    vec![d0, d1, d2, d3, d4]
}

/// Runs the tape against a fresh data directory and closes cleanly
/// (drop, no final checkpoint — the trailing records live in the WAL).
fn build_tape(dir: &Path) {
    let d = Durability::open(dir).unwrap();
    let registry = Arc::new(Registry::default());
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    registry.attach_durability(Arc::clone(&d));

    front.register_database("main", base_db());
    let q = qspec();
    front.serve_query("main", &q, &reqs()).unwrap();
    front
        .insert_base_tuple("main", "R", vec![Value::int(100), Value::int(2)])
        .unwrap();

    // Mid-tape checkpoint: the mangling below hits a snapshot AND the
    // WAL records appended after it.
    d.checkpoint(&registry, &front).unwrap();

    front
        .remove_base_tuple("main", "R", vec![Value::int(1), Value::int(1)])
        .unwrap();
    front
        .insert_base_tuple("main", "S", vec![Value::int(0), Value::int(99)])
        .unwrap();

    // A universe-keyed entry rides the same WAL: an unsynced hint,
    // made durable by the acknowledged base edit after it.
    registry.try_prepare(&uspec()).unwrap();
    front
        .insert_base_tuple("main", "R", vec![Value::int(101), Value::int(0)])
        .unwrap();
}

/// Opens `dir`, recovers eagerly, and asserts the consistent-prefix
/// invariant. Returns whether "main" came back at all.
fn recover_and_check(dir: &Path) -> bool {
    let d = Durability::open(dir).unwrap_or_else(|e| panic!("open must tolerate corruption: {e}"));
    let registry = Arc::new(Registry::default());
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    d.recover(&registry, &front, RecoverMode::Eager);
    registry.attach_durability(Arc::clone(&d));

    let q = qspec();
    if !front.has_database("main") {
        return false;
    }
    let answers = match front.serve_query("main", &q, &reqs()) {
        Ok(answers) => answers,
        // A recovered prefix may legitimately refuse (e.g. Q(D) = ∅ is
        // impossible on this tape, but typed refusals are allowed —
        // only panics and invented state are bugs).
        Err(_) => return true,
    };

    // Consistent prefix: the served universe set-equals the query's
    // evaluation over one of the tape's database states.
    let mut universe = front.universe_of("main", &q).unwrap();
    universe.sort();
    let matched = prefix_dbs().iter().any(|db| {
        let mut oracle = divr_relquery::eval::eval_query(db, q.query())
            .unwrap()
            .into_tuples();
        oracle.sort();
        oracle == universe
    });
    assert!(
        matched,
        "recovered universe matches no tape prefix: {universe:?}"
    );

    // Bit-identical answers: whatever content was recovered serves
    // exactly as a fresh prepare over it would.
    let sequence = front.universe_of("main", &q).unwrap();
    let us = UniverseSpec::new(sequence, rel(), dis(), Ratio::new(1, 2));
    let oracle = Registry::default();
    for (answer, request) in answers.iter().zip(reqs()) {
        let expect = oracle.try_serve(&us, request).unwrap();
        assert_eq!(
            answer.as_ref().unwrap(),
            &expect,
            "recovered answer differs from fresh prepare"
        );
    }
    true
}

/// Copies the flat data directory (no subdirectories).
fn copy_dir(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The durable files of `dir`, largest first (snapshot, then segments).
fn durable_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("snapshot-") || name.starts_with("wal-")
        })
        .collect();
    files.sort();
    files
}

#[test]
fn clean_close_recovers_the_full_tape_warm() {
    let golden = tmpdir("clean");
    build_tape(&golden);

    let d = Durability::open(&golden).unwrap();
    let registry = Arc::new(Registry::default());
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    let report = d.recover(&registry, &front, RecoverMode::Eager);
    registry.attach_durability(Arc::clone(&d));
    assert_eq!(report.recovered_databases, 1);
    assert_eq!(report.failed_entries, 0);
    assert!(report.recovered_queries >= 1, "warm query must come back");
    assert!(report.recovered_universes >= 1, "universe entry must come back");
    let stats = d.stats();
    assert!(
        stats.wal_records_replayed > 0,
        "the post-checkpoint tail lives in the WAL"
    );
    assert_eq!(stats.torn_tail_dropped, 0);
    assert_eq!(stats.snapshots_discarded, 0);

    // The recovered warm query serves WITHOUT a cold prepare, and its
    // universe is exactly the final tape state.
    let q = qspec();
    let misses_before = registry.stats().misses;
    let answers = front.serve_query("main", &q, &reqs()).unwrap();
    assert_eq!(
        registry.stats().misses,
        misses_before,
        "a clean-close restart must serve warm"
    );
    let mut universe = front.universe_of("main", &q).unwrap();
    universe.sort();
    let mut want = divr_relquery::eval::eval_query(prefix_dbs().last().unwrap(), q.query())
        .unwrap()
        .into_tuples();
    want.sort();
    assert_eq!(universe, want, "clean close must recover the FINAL state");

    let sequence = front.universe_of("main", &q).unwrap();
    let us = UniverseSpec::new(sequence, rel(), dis(), Ratio::new(1, 2));
    let oracle = Registry::default();
    for (answer, request) in answers.iter().zip(reqs()) {
        assert_eq!(
            answer.as_ref().unwrap(),
            &oracle.try_serve(&us, request).unwrap()
        );
    }
    let _ = fs::remove_dir_all(&golden);
}

/// The unmangled graceful path: a checkpoint is the last thing the
/// predecessor did, so its successor replays nothing, serves the warm
/// query and the universe-keyed entry without one cold prepare, and
/// answers as before the restart and as a registry that never saw the
/// disk.
#[test]
fn a_checkpointed_close_replays_nothing_and_restarts_warm() {
    let dir = tmpdir("checkpointed");
    build_tape(&dir);
    let reopen = || {
        let d = Durability::open(&dir).unwrap();
        let registry = Arc::new(Registry::default());
        let front = QueryFrontDoor::new(Arc::clone(&registry));
        let report = d.recover(&registry, &front, RecoverMode::Eager);
        registry.attach_durability(Arc::clone(&d));
        (d, registry, front, report)
    };
    let q = qspec();
    let before = {
        let (d, registry, front, _) = reopen();
        let written = d.checkpoint(&registry, &front).unwrap();
        assert_eq!(written.records, 3, "database, warm query, universe");
        front.serve_query("main", &q, &reqs()).unwrap()
    };

    let (d, registry, front, report) = reopen();
    assert_eq!(
        d.stats().wal_records_replayed,
        0,
        "the checkpoint covers the whole tape"
    );
    assert_eq!(report.failed_entries, 0);
    assert!(report.recovered_queries >= 1 && report.recovered_universes >= 1);
    let us = uspec();
    let after = front.serve_query("main", &q, &reqs()).unwrap();
    let cold = Registry::default();
    for request in reqs() {
        assert_eq!(
            registry.try_serve(&us, request).unwrap(),
            cold.try_serve(&us, request).unwrap()
        );
    }
    assert_eq!(after, before, "a warm restart changed the answers");
    assert_eq!(registry.stats().misses, 0, "a warm restart must not cold-prepare");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_byte_offset_recovers_a_consistent_prefix() {
    let golden = tmpdir("trunc-golden");
    build_tape(&golden);
    let scratch = tmpdir("trunc-scratch");

    let mut full_recoveries = 0usize;
    for file in durable_files(&golden) {
        let len = fs::metadata(&file).unwrap().len();
        let name = file.file_name().unwrap().to_owned();
        for cut in 0..len {
            copy_dir(&golden, &scratch);
            let target = scratch.join(&name);
            let f = fs::OpenOptions::new().write(true).open(&target).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            if recover_and_check(&scratch) {
                full_recoveries += 1;
            }
        }
    }
    // Sanity: plenty of cuts (anything past the last WAL frame, or a
    // torn WAL over an intact snapshot) still recover the database.
    assert!(
        full_recoveries > 0,
        "no truncation offset recovered anything — the harness is broken"
    );
    let _ = fs::remove_dir_all(&golden);
    let _ = fs::remove_dir_all(&scratch);
}

#[test]
fn seeded_byte_corruption_recovers_a_consistent_prefix() {
    let cases: usize = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let golden = tmpdir("corrupt-golden");
    build_tape(&golden);
    let scratch = tmpdir("corrupt-scratch");
    let files = durable_files(&golden);

    // Deterministic xorshift stream — a failure names its case index,
    // and re-running reproduces it exactly.
    let mut rng: u64 = 0xC0FF_EE00_5EED_0002;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    for case in 0..cases {
        copy_dir(&golden, &scratch);
        // One to three corruptions per case: single flips, and the
        // multi-fault overlaps a single-flip sweep would miss.
        let flips = 1 + (next() % 3) as usize;
        for _ in 0..flips {
            let file = &files[(next() % files.len() as u64) as usize];
            let target = scratch.join(file.file_name().unwrap());
            let mut bytes = fs::read(&target).unwrap();
            if bytes.is_empty() {
                continue;
            }
            let offset = (next() % bytes.len() as u64) as usize;
            let flip = (next() % 255) as u8 + 1; // never a no-op XOR
            bytes[offset] ^= flip;
            let mut f = fs::File::create(&target).unwrap();
            f.write_all(&bytes).unwrap();
        }
        recover_and_check(&scratch);
        let _ = case;
    }
    let _ = fs::remove_dir_all(&golden);
    let _ = fs::remove_dir_all(&scratch);
}

#[test]
fn lazy_recovery_registers_databases_but_stays_cold() {
    let golden = tmpdir("lazy");
    build_tape(&golden);

    let d = Durability::open(&golden).unwrap();
    let registry = Arc::new(Registry::default());
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    let report = d.recover(&registry, &front, RecoverMode::Lazy);
    registry.attach_durability(Arc::clone(&d));
    assert_eq!(report.recovered_databases, 1);
    assert_eq!(report.recovered_universes, 0);
    assert_eq!(report.recovered_queries, 0);
    assert_eq!(registry.stats().entries, 0, "lazy recovery prepares nothing");

    // First serve cold-prepares — and the answer still matches the
    // final tape state.
    let q = qspec();
    let answers = front.serve_query("main", &q, &reqs()).unwrap();
    assert_eq!(registry.stats().misses, 1);
    let mut universe = front.universe_of("main", &q).unwrap();
    universe.sort();
    let mut want = divr_relquery::eval::eval_query(prefix_dbs().last().unwrap(), q.query())
        .unwrap()
        .into_tuples();
    want.sort();
    assert_eq!(universe, want);
    assert!(answers.iter().all(Result::is_ok));
    let _ = fs::remove_dir_all(&golden);
}

fn all_objectives(k: usize) -> Vec<EngineRequest> {
    ObjectiveKind::ALL
        .into_iter()
        .map(|kind| EngineRequest { kind, k })
        .collect()
}

fn identity_query() -> QuerySpec {
    QuerySpec::new(
        parse_query("Q(x, y) :- R(x, y)").unwrap(),
        rel(),
        dis(),
        Ratio::new(1, 2),
    )
    .unwrap()
}

fn database_of(rows: &[Tuple]) -> Database {
    let mut db = Database::new();
    db.create_relation("R", &["x", "y"]).unwrap();
    for row in rows {
        db.insert_tuple("R", row.clone()).unwrap();
    }
    db
}

/// Opens `dir` into a fresh stack and recovers it eagerly.
fn reopen_eager(dir: &Path) -> (Arc<Registry>, QueryFrontDoor) {
    let d = Durability::open(dir).unwrap();
    let registry = Arc::new(Registry::default());
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    let report = d.recover(&registry, &front, RecoverMode::Eager);
    assert_eq!(report.failed_entries, 0);
    registry.attach_durability(d);
    (registry, front)
}

/// Recovery follows a rebuilt query. Warm `Q(x, y) :- R(x, y)` over
/// six rows and remove row 1: the warm sequence swap-removes to
/// `r0 r5 r2 r3 r4`. Evict the entry and serve again: a fresh
/// evaluation, in relation order `r0 r2 r3 r4 r5`. After a crash, eager
/// recovery must restore the order the live process served last, or
/// the indices it answers with name other rows.
#[test]
fn a_rebuilt_query_recovers_in_the_order_last_served() {
    let dir = tmpdir("rebuilt");
    let q = identity_query();
    let r: Vec<Tuple> = (0..6).map(|i| Tuple::ints([10 * i, i % 3])).collect();
    let (live_universe, live_answers) = {
        let d = Durability::open(&dir).unwrap();
        // One byte, one shard: whatever is inserted next evicts the
        // query's entry.
        let registry = Arc::new(Registry::new(RegistryConfig {
            byte_budget: 1,
            shards: 1,
            ..RegistryConfig::default()
        }));
        let front = QueryFrontDoor::new(Arc::clone(&registry));
        registry.attach_durability(Arc::clone(&d));
        front.register_database("main", database_of(&r));
        front.serve_query("main", &q, &all_objectives(2)).unwrap();
        assert!(front.remove_base_tuple("main", "R", r[1].iter().cloned().collect()).unwrap());
        let repaired = [&r[0], &r[5], &r[2], &r[3], &r[4]].map(Tuple::clone);
        assert_eq!(front.universe_of("main", &q).unwrap(), repaired);
        registry.try_prepare(&uspec()).unwrap();
        assert!(!front.is_warm("main", &q).unwrap(), "evicted");
        let answers = front.serve_query("main", &q, &all_objectives(2)).unwrap();
        let rebuilt = front.universe_of("main", &q).unwrap();
        assert_eq!(rebuilt, [&r[0], &r[2], &r[3], &r[4], &r[5]].map(Tuple::clone));
        (rebuilt, answers)
        // Dropped without a checkpoint: the WAL holds the book.
    };
    let (registry, front) = reopen_eager(&dir);
    let misses = registry.stats().misses;
    assert_eq!(front.universe_of("main", &q).unwrap(), live_universe);
    assert_eq!(
        front.serve_query("main", &q, &all_objectives(2)).unwrap(),
        live_answers
    );
    assert_eq!(registry.stats().misses, misses, "recovered warm");
    let _ = fs::remove_dir_all(&dir);
}

/// An auto-escalated entry — past `CORESET_AUTO_THRESHOLD`, a coreset
/// selected over the evaluation — with base inserts patched into it,
/// then a crash: eager recovery selects over the sequence the entry was
/// built from, patches the same tail and serves bit-identically to the
/// live process, warm.
#[test]
fn an_auto_escalated_entry_with_an_inserted_tail_recovers_bit_identically() {
    let dir = tmpdir("auto-escalated");
    let q = identity_query();
    let n = CORESET_AUTO_THRESHOLD as i64 + 500;
    let rows: Vec<Tuple> = (0..n).map(|i| Tuple::ints([3 * i, i % 5])).collect();
    let (live_universe, live_answers) = {
        let d = Durability::open(&dir).unwrap();
        let registry = Arc::new(Registry::default());
        let front = QueryFrontDoor::new(Arc::clone(&registry));
        registry.attach_durability(Arc::clone(&d));
        front.register_database("main", database_of(&rows));
        front.serve_query("main", &q, &all_objectives(4)).unwrap();
        // Keys between the base rows': each lands inside the cover.
        for i in 0..20 {
            let row = [3 * (i * 97 % n) + 1, 7].map(Value::int);
            assert!(front.insert_base_tuple("main", "R", row.to_vec()).unwrap());
        }
        assert_eq!(registry.stats().misses, 1, "the tail was patched in");
        let universe = front.universe_of("main", &q).unwrap();
        assert_eq!(universe.len(), n as usize + 20);
        (universe, front.serve_query("main", &q, &all_objectives(4)).unwrap())
    };
    let (registry, front) = reopen_eager(&dir);
    assert_eq!(front.universe_of("main", &q).unwrap(), live_universe);
    assert_eq!(
        front.serve_query("main", &q, &all_objectives(4)).unwrap(),
        live_answers
    );
    assert_eq!(registry.stats().misses, 0, "recovered warm");
    let _ = fs::remove_dir_all(&dir);
}

/// A coreset the live process dropped stays dropped. The first far
/// append to an auto-escalated entry leaves its cover above twice its
/// selection's radius, so the live process drops the entry; replay runs
/// the same patch, which refuses at the same insert. Nothing fails, the
/// query is cold, and the next serve is one miss that selects over the
/// current `Q(D)` — answering as a process that never crashed.
#[test]
fn a_coreset_the_live_process_dropped_stays_dropped() {
    let dir = tmpdir("dropped-coreset");
    let q = identity_query();
    let n = CORESET_AUTO_THRESHOLD as i64 + 500;
    let mut rows: Vec<Tuple> = (0..n).map(|i| Tuple::ints([3 * i, i % 5])).collect();
    let far = Tuple::ints([3 * n + 1000, 7]);
    {
        let d = Durability::open(&dir).unwrap();
        let registry = Arc::new(Registry::default());
        let front = QueryFrontDoor::new(Arc::clone(&registry));
        registry.attach_durability(Arc::clone(&d));
        front.register_database("main", database_of(&rows));
        front.serve_query("main", &q, &all_objectives(4)).unwrap();
        assert!(front.insert_base_tuple("main", "R", far.iter().cloned().collect()).unwrap());
        assert!(!front.is_warm("main", &q).unwrap(), "the live process dropped it");
        // Dropped without a checkpoint: the WAL holds the tape.
    }
    let (registry, front) = reopen_eager(&dir);
    assert!(!front.is_warm("main", &q).unwrap(), "replay dropped it too");
    let answers = front.serve_query("main", &q, &all_objectives(4)).unwrap();
    assert_eq!(registry.stats().misses, 1, "one selection over the current Q(D)");
    rows.push(far);
    let never_crashed = QueryFrontDoor::new(Arc::new(Registry::default()));
    never_crashed.register_database("main", database_of(&rows));
    assert_eq!(
        answers,
        never_crashed.serve_query("main", &q, &all_objectives(4)).unwrap()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A rebuild is built whole. Warm an explicit coreset over ten rows,
/// patch one near row in, evict the entry and serve again: the rebuild
/// selects over all eleven rows. A checkpoint taken then must say so —
/// recovery that selected over the first ten and patched the eleventh
/// would cover the far end with the old representative and answer
/// otherwise.
#[test]
fn a_rebuilt_coreset_checkpoints_as_built_whole() {
    let dir = tmpdir("rebuilt-coreset");
    let q = identity_query().with_coreset(CoresetSpec::with_budget(4));
    let rows: Vec<Tuple> = (0..10).map(|i| Tuple::ints([10 * i, i % 3])).collect();
    let (live_universe, live_answers) = {
        let d = Durability::open(&dir).unwrap();
        let registry = Arc::new(Registry::new(RegistryConfig {
            byte_budget: 1,
            shards: 1,
            ..RegistryConfig::default()
        }));
        let front = QueryFrontDoor::new(Arc::clone(&registry));
        registry.attach_durability(Arc::clone(&d));
        front.register_database("main", database_of(&rows));
        front.serve_query("main", &q, &all_objectives(2)).unwrap();
        assert!(front.insert_base_tuple("main", "R", [95, 1].map(Value::int).to_vec()).unwrap());
        assert!(front.is_warm("main", &q).unwrap(), "patched, not dropped");
        registry.try_prepare(&uspec()).unwrap();
        assert!(!front.is_warm("main", &q).unwrap(), "evicted");
        let answers = front.serve_query("main", &q, &all_objectives(2)).unwrap();
        d.checkpoint(&registry, &front).unwrap();
        (front.universe_of("main", &q).unwrap(), answers)
    };
    let (registry, front) = reopen_eager(&dir);
    assert_eq!(front.universe_of("main", &q).unwrap(), live_universe);
    assert_eq!(
        front.serve_query("main", &q, &all_objectives(2)).unwrap(),
        live_answers
    );
    assert_eq!(registry.stats().misses, 0, "recovered warm");
    let _ = fs::remove_dir_all(&dir);
}

/// A process that opened a non-empty data directory without recovering
/// it cannot checkpoint over it: the checkpoint is an error and leaves
/// every file byte-identical. Once recovered, the same process may.
#[test]
fn a_checkpoint_before_recover_is_refused_and_writes_nothing() {
    let dir = tmpdir("refused");
    build_tape(&dir);
    let files = || -> Vec<(PathBuf, Vec<u8>)> {
        let mut all: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), fs::read(&p).unwrap()))
            .collect();
        all.sort();
        all
    };
    let d = Durability::open(&dir).unwrap();
    let registry = Arc::new(Registry::default());
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    let opened = files();
    assert!(d.checkpoint(&registry, &front).is_err());
    assert_eq!(files(), opened, "a refused checkpoint wrote to the directory");
    assert_eq!(d.recover(&registry, &front, RecoverMode::Eager).failed_entries, 0);
    assert_eq!(d.checkpoint(&registry, &front).unwrap().records, 3);
    let _ = fs::remove_dir_all(&dir);
}

/// A seeded xorshift stream: a failing tape names its seed, and
/// re-running reproduces it exactly.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

type Rows = BTreeSet<[i64; 2]>;

/// A tape database: `R(x, y)` and `S(y, z)` holding `rows`.
fn tape_db(rows: &[Rows; 2]) -> Database {
    let mut db = Database::new();
    for (relation, rows) in ["R", "S"].into_iter().zip(rows) {
        db.create_relation(relation, &["a", "b"]).unwrap();
        for row in rows {
            db.insert_tuple(relation, Tuple::ints(*row)).unwrap();
        }
    }
    db
}

/// The queries a tape serves, each in full and in explicit coreset
/// mode. Over the auto-escalated database only the first reads `R`
/// alone, and its full mode is the auto-escalated coreset.
fn tape_queries() -> Vec<QuerySpec> {
    let explicit = CoresetSpec {
        budget: 6,
        refine_rounds: 1,
    };
    ["Q(x, y) :- R(x, y)", "Q(x, z) :- R(x, y), S(y, z)"]
        .into_iter()
        .flat_map(|text| {
            let q = QuerySpec::new(parse_query(text).unwrap(), rel(), dis(), Ratio::new(1, 2))
                .unwrap();
            [q.clone(), q.with_coreset(explicit)]
        })
        .collect()
}

/// The database past `CORESET_AUTO_THRESHOLD` an auto-escalating tape
/// registers first.
const BIG: &str = "big";

/// A warm query the live process served at the end of a tape.
struct Served {
    db: &'static str,
    spec: QuerySpec,
    universe: Vec<Tuple>,
    answers: Vec<CheckedAnswer>,
}

/// Runs one seeded op tape against a fresh data directory — register,
/// serve (full, explicit coreset and, with `auto`, auto-escalated),
/// base insert and remove, evict (a universe-keyed entry prepared
/// under a 1-byte budget, in half the tapes), checkpoint — then drops
/// the stack, with or without a final checkpoint. Returns every query
/// the live process held warm and the databases as the tape left them.
fn run_op_tape(dir: &Path, seed: u64, auto: bool) -> (Vec<Served>, BTreeMap<&'static str, [Rows; 2]>) {
    let mut next = xorshift(seed);
    let d = Durability::open(dir).unwrap();
    let budget = match next() % 2 {
        0 => 1,
        _ => RegistryConfig::default().byte_budget,
    };
    let registry = Arc::new(Registry::new(RegistryConfig {
        byte_budget: budget,
        shards: 2,
        ..RegistryConfig::default()
    }));
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    registry.attach_durability(Arc::clone(&d));
    let queries = tape_queries();
    let mut model: BTreeMap<&'static str, [Rows; 2]> = BTreeMap::new();
    if auto {
        let n = CORESET_AUTO_THRESHOLD as i64 + 100;
        let big: Rows = (0..n).map(|i| [3 * i, i % 5]).collect();
        front.register_database(BIG, tape_db(&[big.clone(), Rows::new()]));
        model.insert(BIG, [big, Rows::new()]);
    }
    let small = ["db0", "db1"];
    for _ in 0..if auto { 12 } else { 40 } {
        let op = next() % 10;
        if op == 0 || model.is_empty() {
            let name = small[(next() % 2) as usize];
            let mut rows = [Rows::new(), Rows::new()];
            for _ in 0..8 + next() % 24 {
                let side = (next() % 2) as usize;
                rows[side].insert([(next() % 30) as i64, (next() % 5) as i64]);
            }
            front.register_database(name, tape_db(&rows));
            model.insert(name, rows);
            continue;
        }
        let names: Vec<&'static str> = model.keys().copied().collect();
        let db = names[(next() % names.len() as u64) as usize];
        // The auto-escalated database is read by `R` alone.
        let (readable, sides) = if db == BIG { (2, 1) } else { (queries.len(), 2) };
        match op {
            1..=3 => {
                let spec = &queries[(next() % readable as u64) as usize];
                let _ = front.serve_query(db, spec, &all_objectives(2));
            }
            4..=6 => {
                let side = (next() % sides) as usize;
                let rows = &mut model.get_mut(db).unwrap()[side];
                let insert = op != 6;
                let row = match rows.iter().nth((next() % (rows.len() as u64 + 1)) as usize) {
                    Some(row) if !insert => *row,
                    _ if db == BIG => [(next() % 20_000) as i64, (next() % 5) as i64],
                    _ => [(next() % 30) as i64, (next() % 5) as i64],
                };
                let changed = if insert { rows.insert(row) } else { rows.remove(&row) };
                let relation = ["R", "S"][side];
                let values = row.map(Value::int).to_vec();
                let live = if insert {
                    front.insert_base_tuple(db, relation, values)
                } else {
                    front.remove_base_tuple(db, relation, values)
                };
                assert_eq!(live, Ok(changed), "seed {seed:#x}: the model diverged");
            }
            7 | 8 => {
                let rows = (0..3 + next() % 6).map(|_| Tuple::ints([(next() % 50) as i64, 1]));
                let spec = UniverseSpec::new(rows.collect(), rel(), dis(), Ratio::new(1, 2));
                registry.try_prepare(&spec).unwrap();
            }
            _ => drop(d.checkpoint(&registry, &front).unwrap()),
        }
    }
    let mut served = Vec::new();
    for &db in model.keys() {
        let readable = if db == BIG { 2 } else { queries.len() };
        for spec in &queries[..readable] {
            if front.is_warm(db, spec).unwrap() {
                served.push(Served {
                    db,
                    spec: spec.clone(),
                    universe: front.universe_of(db, spec).unwrap(),
                    answers: front.serve_query(db, spec, &all_objectives(2)).unwrap(),
                });
            }
        }
    }
    if next().is_multiple_of(2) {
        d.checkpoint(&registry, &front).unwrap();
    }
    (served, model)
}

/// Snapshot ≡ live under seeded op tapes (`PROPTEST_CASES` tapes,
/// default 32): after an eager reopen every query the live process held
/// warm serves the same sequence and the same answers for every
/// objective without one cold prepare; after a lazy reopen every
/// database holds what the live one did and nothing is prepared.
fn op_tapes_recover_what_the_live_process_served(auto: bool, default_cases: usize) {
    let cases: usize = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_cases);
    let cases = if auto { cases.div_ceil(16) } else { cases };
    let mut seeds = xorshift(0x5EED_7A9E_0000_0028 ^ u64::from(auto));
    for _ in 0..cases {
        let seed = seeds();
        let dir = tmpdir(&format!("tape-{seed:x}"));
        let (served, model) = run_op_tape(&dir, seed, auto);

        let (registry, front) = reopen_eager(&dir);
        let misses = registry.stats().misses;
        for s in &served {
            let universe = front.universe_of(s.db, &s.spec).unwrap();
            assert!(universe == s.universe, "seed {seed:#x}: {} order", s.db);
            let answers = front.serve_query(s.db, &s.spec, &all_objectives(2)).unwrap();
            assert_eq!(answers, s.answers, "seed {seed:#x}: {} answers", s.db);
        }
        assert_eq!(registry.stats().misses, misses, "seed {seed:#x}: a cold prepare");
        drop((registry, front));

        let d = Durability::open(&dir).unwrap();
        let registry = Arc::new(Registry::default());
        let front = QueryFrontDoor::new(Arc::clone(&registry));
        let report = d.recover(&registry, &front, RecoverMode::Lazy);
        assert_eq!(report.failed_entries, 0, "seed {seed:#x}");
        assert_eq!(report.recovered_databases, model.len(), "seed {seed:#x}");
        assert_eq!(registry.stats().entries, 0, "seed {seed:#x}: lazy prepared");
        for (&db, rows) in &model {
            for (relation, rows) in ["R", "S"].into_iter().zip(rows) {
                let probe = QuerySpec::new(
                    parse_query(&format!("Q(a, b) :- {relation}(a, b)")).unwrap(),
                    rel(),
                    dis(),
                    Ratio::new(1, 2),
                )
                .unwrap()
                .with_coreset(CoresetSpec::with_budget(4));
                let held: Rows = match front.universe_of(db, &probe) {
                    Ok(universe) => universe
                        .iter()
                        .map(|t| [0, 1].map(|i| t.get(i).and_then(Value::as_int).unwrap()))
                        .collect(),
                    Err(QueryError::EmptyResult) => Rows::new(),
                    Err(e) => panic!("seed {seed:#x}: {db}.{relation}: {e}"),
                };
                assert_eq!(&held, rows, "seed {seed:#x}: {db}.{relation}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn seeded_op_tapes_recover_what_the_live_process_served() {
    op_tapes_recover_what_the_live_process_served(false, 32);
}

/// The same tapes over an auto-escalated database (one tape in 16 of
/// `PROPTEST_CASES`; CI runs it in `--release`).
#[test]
fn seeded_auto_escalated_op_tapes_recover_what_the_live_process_served() {
    op_tapes_recover_what_the_live_process_served(true, 32);
}
