//! Fault injection: kill workers mid-batch with hostile oracles and
//! prove the blast radius. A panicking or NaN-emitting tenant must
//! cost exactly its own answers — typed, not panicked — while every
//! co-scheduled tenant's answers stay **bit-identical** to the
//! sequential oracle and the registry keeps serving afterward.

use divr_core::distance::{Distance, NumericDistance};
use divr_core::engine::{EngineRequest, ScoreSource, ServeError};
use divr_core::problem::ObjectiveKind;
use divr_core::relevance::AttributeRelevance;
use divr_core::Ratio;
use divr_relquery::Tuple;
use divr_core::Deadline;
use divr_relquery::parser::parse_query;
use divr_relquery::{Database, Value};
use divr_server::{
    CoresetSpec, FingerprintEncoder, Fingerprintable, QueryError, QueryFrontDoor, QuerySpec,
    Registry, TenantBatch, UniverseSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Panics on the first off-diagonal pair: the prepare-phase worker
/// computing this universe's matrix dies mid-batch.
#[derive(Clone, Copy, Debug)]
struct PanickingDistance;

impl Distance for PanickingDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        if a == b {
            Ratio::ZERO
        } else {
            panic!("injected fault: distance oracle killed the worker");
        }
    }
}

impl Fingerprintable for PanickingDistance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("test:panicking-distance");
    }
}

/// Exact path finite, float fast path NaN: trips validate-at-prepare.
#[derive(Clone, Copy, Debug)]
struct NanDistance;

impl Distance for NanDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        if a == b {
            Ratio::ZERO
        } else {
            Ratio::ONE
        }
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        if a == b {
            0.0
        } else {
            f64::NAN
        }
    }
}

impl Fingerprintable for NanDistance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("test:nan-distance");
    }
}

/// Finite everywhere except against one poisoned tuple (attribute 0
/// equal to `poison`): a universe that validates cold, then meets a
/// non-finite row only when a delta inserts that tuple.
#[derive(Clone, Copy, Debug)]
struct PoisonedDistance {
    poison: i64,
}

impl PoisonedDistance {
    fn inner(&self) -> NumericDistance {
        NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        }
    }
}

impl Distance for PoisonedDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        self.inner().dist(a, b)
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        let poisoned = |t: &Tuple| t.get(0) == Some(&Value::Int(self.poison));
        if a != b && (poisoned(a) || poisoned(b)) {
            f64::NAN
        } else {
            self.inner().dist_f64(a, b)
        }
    }
}

impl Fingerprintable for PoisonedDistance {
    fn fingerprint(&self, enc: &mut FingerprintEncoder) {
        enc.write_str("test:poisoned-distance");
        enc.write_usize(self.poison as usize);
    }
}

/// A healthy universe, distinct per `which`.
fn healthy_spec(which: usize) -> UniverseSpec {
    let n = 14 + 2 * which;
    UniverseSpec::new(
        (0..n as i64)
            .map(|i| Tuple::ints([(i * 5 + which as i64) % 37, (i * 3) % 11]))
            .collect(),
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        Arc::new(NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        }),
        Ratio::new(1 + which as i64 % 3, 4),
    )
}

fn hostile_spec(distance: Arc<dyn divr_server::ServableDistance>) -> UniverseSpec {
    UniverseSpec::new(
        (0..10).map(|i| Tuple::ints([i, i % 4])).collect(),
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        distance,
        Ratio::new(1, 2),
    )
}

fn requests() -> Vec<EngineRequest> {
    ObjectiveKind::ALL
        .into_iter()
        .flat_map(|kind| [2usize, 4].map(|k| EngineRequest { kind, k }))
        .collect()
}

#[test]
fn panicking_tenant_is_isolated_bit_identically() {
    let registry = Registry::default();
    let batch: Vec<TenantBatch> = vec![
        TenantBatch {
            spec: healthy_spec(0),
            requests: requests(),
        },
        TenantBatch {
            spec: hostile_spec(Arc::new(PanickingDistance)),
            requests: requests(),
        },
        TenantBatch {
            spec: healthy_spec(1),
            requests: requests(),
        },
        TenantBatch {
            spec: hostile_spec(Arc::new(NanDistance)),
            requests: requests(),
        },
        TenantBatch {
            spec: healthy_spec(2),
            requests: requests(),
        },
    ];
    let results = registry.serve_mixed_checked(&batch);
    assert_eq!(results.len(), batch.len());

    // The hostile tenants get typed errors on every request…
    for answer in &results[1] {
        assert_eq!(answer, &Err(ServeError::WorkerPanicked));
    }
    for answer in &results[3] {
        assert!(
            matches!(
                answer,
                Err(ServeError::NonFiniteScore {
                    source: ScoreSource::Distance,
                    ..
                })
            ),
            "expected NonFiniteScore, got {answer:?}"
        );
    }

    // …and every healthy tenant's answers are bit-identical to a
    // fresh sequential oracle that never saw a fault.
    let oracle = Registry::default();
    for tenant in [0usize, 2, 4] {
        for (answer, request) in results[tenant].iter().zip(requests()) {
            let expected = oracle.try_serve(&batch[tenant].spec, request).unwrap();
            assert_eq!(
                answer.as_ref().expect("healthy tenant must be served"),
                &expected,
                "tenant {tenant} drifted on {request:?}"
            );
        }
    }

    // Refused universes were never cached; the three healthy ones were.
    assert_eq!(registry.stats().entries, 3);

    // The same registry keeps serving after the faults.
    let after = registry.try_serve(
        &healthy_spec(0),
        EngineRequest {
            kind: ObjectiveKind::MaxMin,
            k: 3,
        },
    );
    assert!(after.is_ok());
}

#[test]
fn repeated_faults_never_wear_the_registry_down() {
    let registry = Registry::default();
    let request = EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 3,
    };
    let expected = Registry::default()
        .try_serve(&healthy_spec(7), request)
        .unwrap();
    for round in 0..5 {
        let hostile: Arc<dyn divr_server::ServableDistance> = if round % 2 == 0 {
            Arc::new(PanickingDistance)
        } else {
            Arc::new(NanDistance)
        };
        let results = registry.serve_mixed_checked(&[
            TenantBatch {
                spec: hostile_spec(hostile),
                requests: vec![request],
            },
            TenantBatch {
                spec: healthy_spec(7),
                requests: vec![request],
            },
        ]);
        assert!(results[0][0].is_err(), "round {round}");
        assert_eq!(results[1][0].as_ref().unwrap(), &expected, "round {round}");
    }
}

#[test]
fn empty_batches_never_touch_the_cache() {
    let registry = Registry::default();
    let spec = healthy_spec(3);

    // Empty request slice: no prepare, no cache traffic at all.
    let results = registry.serve_mixed_checked(&[TenantBatch {
        spec: spec.clone(),
        requests: Vec::new(),
    }]);
    assert_eq!(results, vec![Vec::new()]);
    let stats = registry.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));

    // A zero-request tenant in a mixed batch contributes no prepare
    // either — only the tenant that actually asks pays.
    let results = registry.serve_mixed_checked(&[
        TenantBatch {
            spec: spec.clone(),
            requests: Vec::new(),
        },
        TenantBatch {
            spec: healthy_spec(4),
            requests: vec![EngineRequest {
                kind: ObjectiveKind::Mono,
                k: 2,
            }],
        },
    ]);
    assert!(results[0].is_empty());
    assert!(results[1][0].is_ok());
    let stats = registry.stats();
    assert_eq!((stats.misses, stats.entries), (1, 1));
}

fn is_non_finite<T: std::fmt::Debug>(answer: &Result<T, ServeError>) -> bool {
    matches!(
        answer,
        Err(ServeError::NonFiniteScore {
            source: ScoreSource::Distance,
            ..
        })
    )
}

/// No public registry path can make a refused universe resident, and
/// none lets an oracle's panic escape: a NaN-distance universe and a
/// panicking-distance universe through every entry point, in every
/// order, are always the typed refusal and never an entry.
#[test]
fn hostile_universe_is_refused_through_every_entry_point_in_every_order() {
    let request = EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 4,
    };
    type EntryPoint = fn(&Registry, &UniverseSpec, EngineRequest) -> Option<ServeError>;
    let entry_points: [EntryPoint; 4] = [
        |registry, spec, _| registry.try_prepare(spec).err(),
        |registry, spec, request| registry.try_serve(spec, request).err(),
        |registry, spec, request| {
            let batch = [TenantBatch {
                spec: spec.clone(),
                requests: vec![request],
            }];
            registry.serve_mixed_checked(&batch).remove(0).remove(0).err()
        },
        |registry, spec, request| {
            let batch = [TenantBatch {
                spec: spec.clone(),
                requests: vec![request],
            }];
            let far = Deadline::in_ms(600_000);
            let mut answers = registry.serve_mixed_checked_deadline(&batch, far);
            answers.remove(0).remove(0).err()
        },
    ];
    type Refusal = fn(&Option<ServeError>) -> bool;
    let hostiles: [(UniverseSpec, Refusal); 2] = [
        (hostile_spec(Arc::new(NanDistance)), |e| {
            is_non_finite(&e.map_or(Ok(()), Err))
        }),
        (hostile_spec(Arc::new(PanickingDistance)), |e| {
            *e == Some(ServeError::WorkerPanicked)
        }),
    ];
    for (full, refused) in hostiles {
        let coreset = full.clone().with_coreset(CoresetSpec::with_budget(6));
        for spec in [full, coreset] {
            // Every ordering of the four entry points on one registry.
            for order in 0..24usize {
                let mut remaining: Vec<usize> = (0..4).collect();
                let registry = Registry::default();
                let mut code = order;
                for radix in (1..=4).rev() {
                    let which = remaining.remove(code % radix);
                    code /= radix;
                    let outcome = entry_points[which](&registry, &spec, request);
                    assert!(
                        refused(&outcome),
                        "order {order}: entry point {which} gave {outcome:?}"
                    );
                    assert_eq!(registry.stats().entries, 0, "order {order}");
                }
            }
        }
    }
}

fn small_db() -> Database {
    let mut db = Database::new();
    db.create_relation("R", &["x", "y"]).unwrap();
    for i in 0..10 {
        db.insert("R", vec![Value::int(i), Value::int(i % 4)]).unwrap();
    }
    db
}

fn identity_query(distance: Arc<dyn divr_server::ServableDistance>) -> QuerySpec {
    QuerySpec::new(
        parse_query("Q(x, y) :- R(x, y)").unwrap(),
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        distance,
        Ratio::new(1, 2),
    )
    .unwrap()
}

/// The front door resolves through the same guarded fetch: a panicking
/// oracle on a cold query is the typed refusal from `universe_of` and
/// `serve_query` alike, and nothing becomes resident.
#[test]
fn panicking_oracle_at_the_front_door_is_typed() {
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    front.register_database("main", small_db());
    let q = identity_query(Arc::new(PanickingDistance));
    let died = QueryError::Serve(ServeError::WorkerPanicked);
    assert_eq!(front.universe_of("main", &q), Err(died.clone()));
    let request = EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 3,
    };
    assert_eq!(front.serve_query("main", &q, &[request]), Err(died));
    assert_eq!(front.registry().stats().entries, 0);
}

/// An entry first built by `universe_of` is a warm entry like any
/// other: the next base-table edit finds it, re-keys it and repairs it
/// instead of orphaning it under its old key.
#[test]
fn universe_of_miss_is_migrated_by_the_next_base_edit() {
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    front.register_database("main", small_db());
    let q = identity_query(Arc::new(NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    }));
    assert_eq!(front.universe_of("main", &q).unwrap().len(), 10);
    assert_eq!(front.registry().stats().entries, 1);
    assert!(front
        .insert_base_tuple("main", "R", vec![Value::int(77), Value::int(1)])
        .unwrap());
    assert!(front.is_warm("main", &q).unwrap(), "migrated, not orphaned");
    assert_eq!(front.registry().stats().entries, 1);
    assert_eq!(front.universe_of("main", &q).unwrap().len(), 11);
    assert_eq!(front.registry().stats().misses, 1, "repaired, never re-prepared");
}

/// An oracle first asked during a repair: a one-row universe prepares
/// without pairing two tuples, so the oracle's first call is the patch
/// of the next base insert, outside the guarded fetch. The panic
/// unwinds to the caller (the daemon's worker boundary answers it
/// `500`) with the edit already applied and the warm entry already out
/// of the cache: nothing stale is resident, the front door's lock
/// recovers, and the same edit again changes nothing.
#[test]
fn panicking_oracle_during_a_repair_leaves_nothing_stale() {
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    let mut db = Database::new();
    db.create_relation("R", &["x", "y"]).unwrap();
    db.insert("R", vec![Value::int(1), Value::int(1)]).unwrap();
    front.register_database("main", db);
    let q = identity_query(Arc::new(PanickingDistance));
    assert_eq!(front.universe_of("main", &q).unwrap().len(), 1);
    let edit = || front.insert_base_tuple("main", "R", vec![Value::int(2), Value::int(0)]);
    assert!(catch_unwind(AssertUnwindSafe(edit)).is_err());
    assert_eq!(front.registry().stats().entries, 0);
    assert_eq!(edit(), Ok(false));
    // The two-row universe is now the oracle's to refuse, typed.
    assert_eq!(
        front.universe_of("main", &q),
        Err(QueryError::Serve(ServeError::WorkerPanicked))
    );
}

/// The delta step validates the row it appends: a tuple whose scores
/// are non-finite drops the warm entry to cold, and the next serve
/// gets the typed refusal from the checked prepare.
#[test]
fn non_finite_delta_row_drops_the_entry_to_cold() {
    let request = EngineRequest {
        kind: ObjectiveKind::MaxMin,
        k: 3,
    };
    let poison = 1_000;

    // The query front door's base-table insert, full and coreset.
    let rel = Arc::new(AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    });
    let query = |coreset: Option<CoresetSpec>| {
        let q = QuerySpec::new(
            parse_query("Q(x, y) :- R(x, y)").unwrap(),
            rel.clone(),
            Arc::new(PoisonedDistance { poison }),
            Ratio::new(1, 2),
        )
        .unwrap();
        match coreset {
            Some(mode) => q.with_coreset(mode),
            None => q,
        }
    };
    for q in [query(None), query(Some(CoresetSpec::with_budget(6)))] {
        let mut db = Database::new();
        db.create_relation("R", &["x", "y"]).unwrap();
        for i in 0..10 {
            db.insert("R", vec![Value::int(i), Value::int(i % 4)]).unwrap();
        }
        let front = QueryFrontDoor::new(Arc::new(Registry::default()));
        front.register_database("main", db);
        assert!(front.serve_query("main", &q, &[request]).unwrap()[0].is_ok());
        assert!(front.is_warm("main", &q).unwrap());
        assert!(front
            .insert_base_tuple("main", "R", vec![Value::int(poison), Value::int(1)])
            .unwrap());
        assert!(!front.is_warm("main", &q).unwrap());
        assert_eq!(front.registry().stats().entries, 0);
        let refused = front.serve_query("main", &q, &[request]);
        assert!(
            matches!(
                refused,
                Err(QueryError::Serve(ServeError::NonFiniteScore { .. }))
            ),
            "{refused:?}"
        );
        assert_eq!(front.registry().stats().entries, 0);
    }
}
