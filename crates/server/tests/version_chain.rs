//! Versioned delta chains in the registry
//! ([`Registry::apply_delta`]):
//!
//! 1. **Warm migration is exact** — a warm entry patched through a
//!    random chain of inserts/removals serves **bit-identically** (same
//!    distance-matrix bits, same exact `Ratio` values, same index sets)
//!    to a cold prepare of the mutated universe, without the registry
//!    ever recording another miss: the tenant never goes cold on small
//!    edits.
//! 2. **Honest byte metering** — the migrated entry's metered bytes are
//!    exactly the prepared state plus the delta log, so a long edit
//!    history cannot hide from the byte budget.
//! 3. **Eviction reconverges** — evicting a versioned entry and
//!    re-requesting it rebuilds from the mutated spec at version 0 with
//!    identical answers.
//! 4. **No aliasing** — the mutated spec's key *is* the content key of
//!    the equivalent flat universe (one entry, never two), and always
//!    differs from the base key.
//!
//! Integer workloads make `f64` arithmetic exact, so any divergence is
//! a real migration bug, not float noise.

use divr_core::distance::TableDistance;
use divr_core::engine::{DeltaError, DeltaOp, Engine, EngineRequest};
use divr_core::prelude::*;
use divr_core::relevance::TableRelevance;
use divr_core::Ratio;
use divr_relquery::Tuple;
use divr_server::{Registry, RegistryConfig, UniverseSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// Tuples held in reserve for insertion during churn.
const POOL: usize = 4;

#[derive(Debug, Clone)]
struct RawChurn {
    n0: usize,
    lambda_num: i64,
    rels: Vec<i64>,
    dists: Vec<i64>,
    /// `(op, x)`: `op == 0` inserts the next pool tuple, `op == 1`
    /// removes index `x % n` (skipped when it would shrink below 2).
    ops: Vec<(u8, usize)>,
}

fn churn_strategy() -> impl Strategy<Value = RawChurn> {
    (3usize..=8, 0i64..=4)
        .prop_flat_map(|(n0, lambda_num)| {
            let total = n0 + POOL;
            (
                Just(n0),
                Just(lambda_num),
                proptest::collection::vec(0i64..=9, total),
                proptest::collection::vec(0i64..=9, total * (total - 1) / 2),
                proptest::collection::vec((0u8..2, 0usize..64), 1..=6),
            )
        })
        .prop_map(|(n0, lambda_num, rels, dists, ops)| RawChurn {
            n0,
            lambda_num,
            rels,
            dists,
            ops,
        })
}

struct Scores {
    tuples: Vec<Tuple>,
    rel: TableRelevance,
    dis: TableDistance,
    lambda: Ratio,
}

/// Score tables over base *and* pool tuples, so every universe
/// reachable by churn is fully specified.
fn scores_of(raw: &RawChurn) -> Scores {
    let total = raw.n0 + POOL;
    let tuples: Vec<Tuple> = (0..total as i64).map(|i| Tuple::ints([i])).collect();
    let mut rel = TableRelevance::with_default(Ratio::ZERO);
    for (t, &r) in tuples.iter().zip(&raw.rels) {
        rel.set(t.clone(), Ratio::int(r));
    }
    let mut dis = TableDistance::with_default(Ratio::ZERO);
    let mut it = raw.dists.iter();
    for i in 0..total {
        for j in (i + 1)..total {
            dis.set(
                tuples[i].clone(),
                tuples[j].clone(),
                Ratio::int(*it.next().unwrap()),
            );
        }
    }
    Scores {
        tuples,
        rel,
        dis,
        lambda: Ratio::new(raw.lambda_num, 4),
    }
}

fn spec_of(scores: &Scores, ids: &[usize]) -> UniverseSpec {
    UniverseSpec::new(
        ids.iter().map(|&i| scores.tuples[i].clone()).collect(),
        Arc::new(scores.rel.clone()),
        Arc::new(scores.dis.clone()),
        scores.lambda,
    )
}

/// Interprets the op tape against a mirror of present ids, yielding the
/// realized `DeltaOp`s and the id list after each op.
fn realize_ops(raw: &RawChurn) -> Vec<(DeltaOp, Vec<usize>)> {
    let total = raw.n0 + POOL;
    let mut cur: Vec<usize> = (0..raw.n0).collect();
    let mut pool_next = raw.n0;
    let mut out = Vec::new();
    for &(op, x) in &raw.ops {
        if op == 0 {
            if pool_next >= total {
                continue;
            }
            cur.push(pool_next);
            pool_next += 1;
            out.push((DeltaOp::Insert(Tuple::ints([(pool_next - 1) as i64])), cur.clone()));
        } else {
            if cur.len() <= 2 {
                continue;
            }
            let i = x % cur.len();
            cur.swap_remove(i);
            out.push((DeltaOp::Remove(i), cur.clone()));
        }
    }
    out
}

fn requests_for(n: usize) -> Vec<EngineRequest> {
    let mut out = Vec::new();
    for kind in ObjectiveKind::ALL {
        for k in 1..=n.min(3) {
            out.push(EngineRequest { kind, k });
        }
    }
    out
}

fn matrix_bits_full(v: &divr_server::PreparedVariant) -> Vec<u64> {
    let p = v.as_full().expect("full-matrix spec");
    (0..p.n())
        .flat_map(|i| p.matrix().row(i).iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Warm entry + delta chain: every step serves bit-identically to a
    /// cold prepare of the mutated universe — same matrix bits, same
    /// exact values and index sets — at version `step`, with no
    /// additional cache miss, under the flat universe's own content key.
    #[test]
    fn warm_delta_chain_matches_cold_prepare(raw in churn_strategy()) {
        let scores = scores_of(&raw);
        let base = spec_of(&scores, &(0..raw.n0).collect::<Vec<_>>());
        let registry = Registry::new(RegistryConfig {
            byte_budget: usize::MAX,
            shards: 1,
            workers: 1,
            solve_threads: 1,
        });
        registry.try_prepare(&base).unwrap();
        prop_assert_eq!(registry.version_of(&base), Some(0));

        let mut spec = base;
        for (step, (op, ids)) in realize_ops(&raw).iter().enumerate() {
            spec = registry.apply_delta(&spec, op).expect("ops realized in range");
            prop_assert_eq!(
                registry.version_of(&spec),
                Some(step as u64 + 1),
                "version did not advance"
            );

            // The chain's key IS the flat content key: one entry, no alias.
            let flat = spec_of(&scores, ids);
            prop_assert_eq!(&spec.key(), &flat.key(), "delta chain key aliased");
            prop_assert!(registry.is_cached(&flat));

            // Bit-identical matrix and answers vs a cold prepare.
            let migrated = registry.try_prepare(&flat).unwrap();
            let cold = flat.try_prepare_variant(1).unwrap();
            prop_assert_eq!(
                matrix_bits_full(&migrated),
                matrix_bits_full(&cold),
                "step {}: matrix bits diverged",
                step
            );
            let engine = Engine::from_prepared(cold.as_full().unwrap().clone(), 1);
            for req in requests_for(ids.len()) {
                prop_assert_eq!(
                    registry.try_serve(&spec, req),
                    engine.try_serve(req),
                    "step {} {:?}: answers diverged",
                    step,
                    req
                );
            }
        }
        // The whole chain was served warm: exactly the one cold miss.
        prop_assert_eq!(registry.stats().misses, 1, "a delta went cold");
    }

    /// The migrated entry is metered as prepared bytes plus the delta
    /// log's bytes — the log cannot hide from the budget.
    #[test]
    fn delta_log_bytes_are_metered(raw in churn_strategy()) {
        let scores = scores_of(&raw);
        let base = spec_of(&scores, &(0..raw.n0).collect::<Vec<_>>());
        let registry = Registry::new(RegistryConfig {
            byte_budget: usize::MAX,
            shards: 1,
            workers: 1,
            solve_threads: 1,
        });
        registry.try_prepare(&base).unwrap();

        let mut spec = base;
        let mut log_bytes = 0usize;
        for (op, _) in realize_ops(&raw) {
            spec = registry.apply_delta(&spec, &op).expect("ops realized in range");
            log_bytes += op.approx_bytes();
            let resident = registry.try_prepare(&spec).unwrap(); // hit: same Arc the entry holds
            prop_assert_eq!(
                registry.stats().bytes,
                resident.approx_bytes() + log_bytes,
                "entry bytes must equal prepared state + delta log"
            );
        }
    }

    /// Evicting a versioned entry and re-requesting its universe
    /// rebuilds cold — version 0, fresh state — with identical answers.
    #[test]
    fn evicted_chain_rebuilds_and_reconverges(
        raw in churn_strategy(),
        other in churn_strategy(),
    ) {
        let scores = scores_of(&raw);
        let base = spec_of(&scores, &(0..raw.n0).collect::<Vec<_>>());
        let registry = Registry::new(RegistryConfig {
            byte_budget: 1, // nothing fits beside a fresh insert
            shards: 1,
            workers: 1,
            solve_threads: 1,
        });
        registry.try_prepare(&base).unwrap();
        let mut spec = base;
        let mut steps = 0u64;
        for (op, _) in realize_ops(&raw) {
            spec = registry.apply_delta(&spec, &op).expect("ops realized in range");
            steps += 1;
        }
        prop_assume!(steps > 0);
        prop_assert_eq!(registry.version_of(&spec), Some(steps));
        let warm_answers: Vec<_> = requests_for(spec.universe().len())
            .into_iter()
            .map(|req| registry.try_serve(&spec, req))
            .collect();

        // Insert an unrelated universe: the 1-byte budget evicts the chain.
        let other_scores = scores_of(&other);
        let other_spec = spec_of(&other_scores, &(0..other.n0).collect::<Vec<_>>());
        prop_assume!(other_spec.key() != spec.key());
        registry.try_prepare(&other_spec).unwrap();
        prop_assert!(!registry.is_cached(&spec));
        prop_assert_eq!(registry.version_of(&spec), None);

        // Rebuild: cold, version 0, same answers.
        let cold_answers: Vec<_> = requests_for(spec.universe().len())
            .into_iter()
            .map(|req| registry.try_serve(&spec, req))
            .collect();
        prop_assert_eq!(registry.version_of(&spec), Some(0));
        prop_assert_eq!(warm_answers, cold_answers, "rebuild diverged from the chain");
    }
}

/// A cold `apply_delta` (no resident entry) mutates only the spec: no
/// entry appears, and the next serve is an ordinary version-0 miss.
#[test]
fn cold_apply_delta_touches_no_cache_state() {
    let raw = RawChurn {
        n0: 4,
        lambda_num: 2,
        rels: (0..(4 + POOL) as i64).collect(),
        dists: vec![3; (4 + POOL) * (4 + POOL - 1) / 2],
        ops: vec![],
    };
    let scores = scores_of(&raw);
    let base = spec_of(&scores, &[0, 1, 2, 3]);
    let registry = Registry::default();
    let mutated = registry
        .apply_delta(&base, &DeltaOp::Insert(Tuple::ints([4])))
        .unwrap();
    assert_eq!(mutated.universe().len(), 5);
    assert!(!registry.is_cached(&mutated));
    assert_eq!(registry.version_of(&mutated), None);
    assert_eq!(registry.stats().entries, 0);
    registry.try_prepare(&mutated).unwrap();
    assert_eq!(registry.version_of(&mutated), Some(0));
    assert_eq!(registry.stats().misses, 1);
}

/// An out-of-range removal is a typed error that leaves the warm entry
/// untouched at its current version.
#[test]
fn bad_remove_is_typed_and_leaves_entry_alone() {
    let raw = RawChurn {
        n0: 4,
        lambda_num: 1,
        rels: (0..(4 + POOL) as i64).collect(),
        dists: vec![5; (4 + POOL) * (4 + POOL - 1) / 2],
        ops: vec![],
    };
    let scores = scores_of(&raw);
    let base = spec_of(&scores, &[0, 1, 2, 3]);
    let registry = Registry::default();
    registry.try_prepare(&base).unwrap();
    assert_eq!(
        registry.apply_delta(&base, &DeltaOp::Remove(4)).err(),
        Some(DeltaError::IndexOutOfRange { index: 4, n: 4 })
    );
    assert!(registry.is_cached(&base));
    assert_eq!(registry.version_of(&base), Some(0));
}

/// Coreset-mode entries migrate too (by re-preparation, keeping the
/// registry's cold-equivalence contract), and `try_serve` distinguishes
/// an infeasible `k` from a budget limit after the universe shrinks.
#[test]
fn coreset_chain_reconverges_and_shrink_is_typed() {
    use divr_core::engine::ServeError;
    use divr_server::CoresetSpec;
    let raw = RawChurn {
        n0: 8,
        lambda_num: 2,
        rels: (0..(8 + POOL) as i64).collect(),
        dists: (0..((8 + POOL) * (8 + POOL - 1) / 2) as i64).map(|i| i % 7).collect(),
        ops: vec![],
    };
    let scores = scores_of(&raw);
    let base = spec_of(&scores, &(0..8).collect::<Vec<_>>())
        .with_coreset(CoresetSpec::with_budget(5));
    let registry = Registry::default();
    registry.try_prepare(&base).unwrap();

    let mutated = registry
        .apply_delta(&base, &DeltaOp::Remove(0))
        .unwrap();
    assert_eq!(registry.version_of(&mutated), Some(1));
    // Cold-equivalence: the migrated coreset entry answers exactly like
    // a fresh prepare of the mutated spec.
    let cold = mutated.try_prepare_variant(1).unwrap();
    for req in requests_for(5) {
        assert_eq!(
            registry.try_serve(&mutated, req),
            cold.try_serve(1, req),
            "coreset migration diverged on {req:?}"
        );
    }
    // k above the coreset budget but within the universe: budget error;
    // shrink the universe below k: infeasible error.
    assert_eq!(
        registry.try_serve(
            &mutated,
            EngineRequest { kind: ObjectiveKind::MaxSum, k: 6 }
        ),
        Err(ServeError::ExceedsCoresetBudget { k: 6, m: 5, n: 7 })
    );
    let mut spec = mutated;
    while spec.universe().len() > 3 {
        spec = registry.apply_delta(&spec, &DeltaOp::Remove(0)).unwrap();
    }
    assert_eq!(
        registry.try_serve(
            &spec,
            EngineRequest { kind: ObjectiveKind::MaxSum, k: 4 }
        ),
        Err(ServeError::InfeasibleK { k: 4, n: 3 })
    );
}
