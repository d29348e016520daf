//! Deadlines composed with the rest of the serving stack, in-process
//! (`crates/service/tests/deadline_drain.rs` reaches the same paths
//! only over TCP): cold prepares, resident entries, delta-migrated
//! entries, an attached `Durability` — and the one classification
//! order every layer shares, so a request never flips between
//! `InfeasibleK` (422) and `DeadlineExceeded` (504) across retries.

use divr_core::coreset::{CoresetConfig, CoresetEngine};
use divr_core::distance::{Distance, NumericDistance};
use divr_core::engine::{Engine, EngineRequest, ServeError, SolveScratch};
use divr_core::problem::ObjectiveKind;
use divr_core::relevance::AttributeRelevance;
use divr_core::{Deadline, Ratio};
use divr_relquery::parser::parse_query;
use divr_relquery::{Database, Tuple};
use divr_server::{
    CheckedAnswer, CoresetSpec, Durability, FingerprintEncoder, Fingerprintable, QueryError,
    QueryFrontDoor, QuerySpec, Registry, RegistryConfig, TenantBatch, UniverseSpec,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const N: i64 = 20;
const BUDGET: usize = 8;
const THREADS: usize = 2;

fn rel() -> Arc<AttributeRelevance> {
    Arc::new(AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    })
}

fn dis() -> Arc<NumericDistance> {
    Arc::new(NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    })
}

fn rows() -> Vec<Tuple> {
    (0..N).map(|i| Tuple::ints([i * 7 % 31, i % 4])).collect()
}

fn full_spec() -> UniverseSpec {
    UniverseSpec::new(rows(), rel(), dis(), Ratio::new(1, 2))
}

fn coreset_spec() -> UniverseSpec {
    full_spec().with_coreset(CoresetSpec::with_budget(BUDGET))
}

fn query_spec() -> QuerySpec {
    QuerySpec::new(
        parse_query("Q(x, y) :- R(x, y)").unwrap(),
        rel(),
        dis(),
        Ratio::new(1, 2),
    )
    .unwrap()
}

fn database() -> Database {
    let mut db = Database::new();
    db.create_relation("R", &["x", "y"]).unwrap();
    for t in rows() {
        db.insert("R", vec![t[0].clone(), t[1].clone()]).unwrap();
    }
    db
}

fn front() -> QueryFrontDoor {
    let f = QueryFrontDoor::new(Arc::new(Registry::new(RegistryConfig {
        workers: THREADS,
        solve_threads: THREADS,
        ..RegistryConfig::default()
    })));
    f.register_database("main", database());
    f
}

/// Already passed when it is handed over: every checkpoint trips.
fn expired() -> Deadline {
    Deadline::at(Instant::now())
}

/// Multi-round solves: each polls the deadline before it can finish.
fn requests() -> Vec<EngineRequest> {
    ObjectiveKind::ALL
        .into_iter()
        .map(|kind| EngineRequest { kind, k: 4 })
        .collect()
}

fn serve(registry: &Registry, spec: &UniverseSpec, deadline: Deadline) -> Vec<CheckedAnswer> {
    registry
        .serve_mixed_checked_deadline(
            &[TenantBatch {
                spec: spec.clone(),
                requests: requests(),
            }],
            deadline,
        )
        .remove(0)
}

/// What a fresh engine of the spec's mode answers — the bit-identity
/// oracle for everything the registry serves.
fn fresh(spec: &UniverseSpec) -> Vec<CheckedAnswer> {
    requests()
        .into_iter()
        .map(|r| match spec.coreset() {
            None => Engine::from_prepared(spec.prepare(THREADS), THREADS).try_serve(r),
            Some(mode) => CoresetEngine::new(
                spec.universe().to_vec(),
                &**spec.instance().relevance(),
                dis(),
                spec.instance().lambda(),
                &CoresetConfig::with_budget(mode.budget).with_threads(THREADS),
            )
            .try_serve(r),
        })
        .collect()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "divr-deadline-composition-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn expired_deadline_on_a_cold_universe_leaves_nothing_behind() {
    for (tag, spec) in [("cold-full", full_spec()), ("cold-coreset", coreset_spec())] {
        let dir = tmpdir(tag);
        let registry = Registry::new(RegistryConfig {
            workers: THREADS,
            solve_threads: THREADS,
            ..RegistryConfig::default()
        });
        let journal = Durability::open(&dir).unwrap();
        registry.attach_durability(Arc::clone(&journal));
        let journaled = journal.stats().wal_records;

        // The abandoned prepare: typed, not resident, not journaled.
        for answer in serve(&registry, &spec, expired()) {
            assert_eq!(answer, Err(ServeError::DeadlineExceeded));
        }
        assert!(!registry.is_cached(&spec));
        assert_eq!(registry.stats().entries, 0);
        assert_eq!(journal.stats().wal_records, journaled);

        // The retry starts from a clean miss and answers like a fresh
        // engine of the spec's mode.
        let before = registry.stats();
        assert_eq!(serve(&registry, &spec, Deadline::none()), fresh(&spec));
        let after = registry.stats();
        assert_eq!((after.misses - before.misses, after.hits), (1, 0));
        assert_eq!(journal.stats().wal_records, journaled + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn expired_deadline_on_a_cold_query_leaves_nothing_behind() {
    let dir = tmpdir("cold-query");
    let f = front();
    let journal = Durability::open(&dir).unwrap();
    f.registry().attach_durability(Arc::clone(&journal));
    let journaled = journal.stats().wal_records;
    let q = query_spec();

    assert_eq!(
        f.serve_query_deadline("main", &q, &requests(), expired()),
        Err(QueryError::Serve(ServeError::DeadlineExceeded))
    );
    assert!(!f.is_warm("main", &q).unwrap());
    assert_eq!(f.registry().stats().entries, 0);
    assert_eq!(journal.stats().wal_records, journaled);

    let before = f.registry().stats();
    let answers = f
        .serve_query_deadline("main", &q, &requests(), Deadline::none())
        .unwrap();
    let after = f.registry().stats();
    assert_eq!((after.misses - before.misses, after.hits), (1, 0));
    let served = UniverseSpec::new(
        f.universe_of("main", &q).unwrap(),
        rel(),
        dis(),
        Ratio::new(1, 2),
    );
    assert_eq!(answers, fresh(&served));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resident_and_migrated_entries_survive_an_expired_deadline() {
    let registry = Registry::default();
    let base = full_spec();
    registry.try_prepare(&base).unwrap();

    // A hit is fetched past the deadline: a solve with no checkpoint
    // to trip is answered, a multi-round solve is abandoned, and
    // either way the entry stays resident.
    let one = EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 1,
    };
    let hits = registry.stats().hits;
    let answers = registry.serve_mixed_checked_deadline(
        &[TenantBatch {
            spec: base.clone(),
            requests: vec![one, requests()[0]],
        }],
        expired(),
    );
    assert_eq!(answers[0][0], registry.try_serve(&base, one));
    assert!(answers[0][0].is_ok());
    assert_eq!(answers[0][1], Err(ServeError::DeadlineExceeded));
    assert!(registry.stats().hits > hits);
    assert!(registry.is_cached(&base));

    // The same after a base edit migrated a warm query's entry: the
    // abandoned solves leave the migrated state intact, and it then
    // serves warm — bit-identically to a fresh engine over the edited
    // universe.
    let f = front();
    let q = query_spec();
    f.serve_query("main", &q, &requests()).unwrap();
    let row = [100, 3].map(divr_relquery::Value::int);
    assert!(f.insert_base_tuple("main", "R", row.to_vec()).unwrap());
    let misses = f.registry().stats().misses;
    for answer in f.serve_query_deadline("main", &q, &requests(), expired()).unwrap() {
        assert_eq!(answer, Err(ServeError::DeadlineExceeded));
    }
    let mutated = UniverseSpec::new(
        f.universe_of("main", &q).unwrap(),
        rel(),
        dis(),
        Ratio::new(1, 2),
    );
    assert_eq!(mutated.universe().len(), N as usize + 1);
    assert_eq!(f.serve_query("main", &q, &requests()).unwrap(), fresh(&mutated));
    assert_eq!(f.registry().stats().misses, misses, "the migrated entry went cold");
}

/// An infeasible `k` on a resident universe under an expired deadline
/// is the same typed infeasibility through every layer — decided from
/// the prepared dimensions before any clock is read.
#[test]
fn infeasible_k_is_never_reported_as_a_timeout() {
    let n = N as usize;
    let too_big = EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: n + 1,
    };
    let over_budget = EngineRequest {
        kind: ObjectiveKind::MaxMin,
        k: BUDGET + 1,
    };
    let f = front();
    let registry = f.registry();
    let cases = [
        (full_spec(), too_big, ServeError::InfeasibleK { k: n + 1, n }),
        (coreset_spec(), too_big, ServeError::InfeasibleK { k: n + 1, n }),
        (
            coreset_spec(),
            over_budget,
            ServeError::ExceedsCoresetBudget {
                k: BUDGET + 1,
                m: BUDGET,
                n,
            },
        ),
    ];
    for (spec, request, want) in cases {
        let resident = registry.try_prepare(&spec).unwrap();
        let mut scratch = SolveScratch::new();
        assert_eq!(
            resident.try_serve_deadline(THREADS, request, &mut scratch, expired()),
            Err(want)
        );
        assert_eq!(registry.try_serve(&spec, request), Err(want));
        let batch = [TenantBatch {
            spec,
            requests: vec![request, requests()[0]],
        }];
        let answers = registry.serve_mixed_checked_deadline(&batch, expired());
        // Infeasible stays infeasible; only the feasible, abandoned
        // solve beside it is a timeout.
        assert_eq!(answers[0], [Err(want), Err(ServeError::DeadlineExceeded)]);
    }

    // The query front door, explicit-coreset mode included.
    for (q, request, want) in [
        (query_spec(), too_big, ServeError::InfeasibleK { k: n + 1, n }),
        (
            query_spec().with_coreset(CoresetSpec::with_budget(BUDGET)),
            over_budget,
            ServeError::ExceedsCoresetBudget {
                k: BUDGET + 1,
                m: BUDGET,
                n,
            },
        ),
    ] {
        f.serve_query("main", &q, &[request]).unwrap(); // resident
        assert_eq!(
            f.serve_query_deadline("main", &q, &[request, requests()[0]], expired()),
            Ok(vec![Err(want), Err(ServeError::DeadlineExceeded)])
        );
    }
}

/// [`dis`]'s function without its key column: `F_mono`'s exact re-score
/// has no memoized sums to read and sweeps `n − 1` exact calls per
/// winner. Counts those calls and, once armed, holds each until the
/// armed instant.
#[derive(Default)]
struct KeylessStall {
    exact_calls: AtomicUsize,
    stall_until: Mutex<Option<Instant>>,
}

impl Distance for KeylessStall {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        self.exact_calls.fetch_add(1, Ordering::Relaxed);
        if let Some(until) = *self.stall_until.lock().unwrap() {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
        }
        dis().dist(a, b)
    }
}

impl Fingerprintable for KeylessStall {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("test:keyless-stall");
    }
}

/// The re-score runs after the solver's last checkpoint; over a keyless
/// oracle it is `k` sweeps of `O(n)` exact calls, and it polls the
/// deadline before each — a request overshoots by one sweep, not `k`.
#[test]
fn mono_rescore_over_a_keyless_oracle_stops_within_one_sweep() {
    let n = N as usize;
    let mono = EngineRequest {
        kind: ObjectiveKind::Mono,
        k: 4,
    };
    for coreset in [false, true] {
        let oracle = Arc::new(KeylessStall::default());
        let mut spec = UniverseSpec::new(rows(), rel(), oracle.clone(), Ratio::new(1, 2));
        if coreset {
            spec = spec.with_coreset(CoresetSpec::with_budget(BUDGET));
        }
        let registry = Registry::default();
        let resident = registry.try_prepare(&spec).unwrap();
        let warm = registry.try_serve(&spec, mono).unwrap();
        let misses = registry.stats().misses;

        // Expired on arrival: the solver's own checkpoint answers,
        // before any oracle call.
        let calls = oracle.exact_calls.load(Ordering::Relaxed);
        let batch = [TenantBatch {
            spec: spec.clone(),
            requests: vec![mono],
        }];
        let answers = registry.serve_mixed_checked_deadline(&batch, expired());
        assert_eq!(answers[0], [Err(ServeError::DeadlineExceeded)]);
        assert_eq!(oracle.exact_calls.load(Ordering::Relaxed), calls);

        // Expiring inside the first sweep: that sweep finishes, the
        // poll before the next one abandons the request.
        let at = Instant::now() + Duration::from_millis(200);
        *oracle.stall_until.lock().unwrap() = Some(at);
        let mut scratch = SolveScratch::new();
        assert_eq!(
            resident.try_serve_deadline(THREADS, mono, &mut scratch, Deadline::at(at)),
            Err(ServeError::DeadlineExceeded)
        );
        let swept = oracle.exact_calls.load(Ordering::Relaxed) - calls;
        assert!((1..n).contains(&swept), "coreset={coreset}: {swept} exact calls");

        // Nothing cached changed: the entry is resident and answers as
        // it did.
        assert!(registry.is_cached(&spec));
        assert_eq!(registry.try_serve(&spec, mono), Ok(warm));
        assert_eq!(registry.stats().misses, misses);
    }
}
