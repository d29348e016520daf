//! Differential conformance: the serving registry must be **observably
//! indistinguishable** from a freshly prepared single-universe
//! [`Engine`] — same exact `Ratio` objective value, same index set —
//! for every answer it returns, on every path through the cache:
//! cold misses, warm hits, interleaved mixed batches over several
//! universes, eviction-forced rebuilds under a tiny byte budget, and
//! all-tied universes where only the tie-break rule decides.
//!
//! Integer workloads make `f64` arithmetic exact, so any divergence is
//! a real scheduling/caching bug, not float noise.

use divr::core::distance::TableDistance;
use divr::core::engine::{Engine, EngineRequest};
use divr::core::prelude::*;
use divr::core::relevance::TableRelevance;
use divr::core::solvers::mono;
use divr::core::{approx, Ratio};
use divr::relquery::Tuple;
use divr::server::{Registry, RegistryConfig, TenantBatch, UniverseSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// A random integer-scored universe: `n` points, relevances in
/// `[0, 20]`, upper-triangle distances in `[0, 30]`, `λ ∈ {0, ¼, …, 1}`.
#[derive(Debug, Clone)]
struct RawUniverse {
    n: usize,
    lambda_num: i64,
    rels: Vec<i64>,
    dists: Vec<i64>,
}

/// A mixed batch over `universes`: each tenant picks a universe, an
/// objective and a `k`.
#[derive(Debug, Clone)]
struct RawBatch {
    universes: Vec<RawUniverse>,
    tenants: Vec<(usize, usize, usize)>, // (universe, objective, k)
}

fn universe_strategy() -> impl Strategy<Value = RawUniverse> {
    (4usize..=10)
        .prop_flat_map(|n| {
            (
                Just(n),
                0i64..=4,
                proptest::collection::vec(0i64..=20, n),
                proptest::collection::vec(0i64..=30, n * (n - 1) / 2),
            )
        })
        .prop_map(|(n, lambda_num, rels, dists)| RawUniverse {
            n,
            lambda_num,
            rels,
            dists,
        })
}

fn batch_strategy() -> impl Strategy<Value = RawBatch> {
    (
        proptest::collection::vec(universe_strategy(), 1..=3),
        proptest::collection::vec((0usize..3, 0usize..3, 1usize..=4), 1..=8),
    )
        .prop_map(|(universes, raw_tenants)| {
            let m = universes.len();
            let tenants = raw_tenants
                .into_iter()
                .map(|(u, obj, k)| (u % m, obj, k))
                .collect();
            RawBatch { universes, tenants }
        })
}

fn spec_of(raw: &RawUniverse) -> UniverseSpec {
    let universe: Vec<Tuple> = (0..raw.n as i64).map(|i| Tuple::ints([i])).collect();
    let mut rel = TableRelevance::with_default(Ratio::ZERO);
    for (i, &r) in raw.rels.iter().enumerate() {
        rel.set(universe[i].clone(), Ratio::int(r));
    }
    let mut dis = TableDistance::with_default(Ratio::ZERO);
    let mut it = raw.dists.iter();
    for i in 0..raw.n {
        for j in (i + 1)..raw.n {
            dis.set(
                universe[i].clone(),
                universe[j].clone(),
                Ratio::int(*it.next().unwrap()),
            );
        }
    }
    UniverseSpec::new(
        universe,
        Arc::new(rel),
        Arc::new(dis),
        Ratio::new(raw.lambda_num, 4),
    )
}

/// A fresh, registry-free engine over the same content — the oracle.
fn oracle_engine(spec: &UniverseSpec) -> Engine {
    Engine::from_prepared(spec.prepare(2), 2)
}

fn request_of(obj: usize, k: usize) -> EngineRequest {
    let kind = ObjectiveKind::ALL[obj % 3];
    EngineRequest { kind, k }
}

/// Asserts one registry answer equals the oracle answer exactly.
fn assert_matches(
    got: &Option<(Ratio, Vec<usize>)>,
    spec: &UniverseSpec,
    req: EngineRequest,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let want = oracle_engine(spec).try_serve(req).ok();
    match (got, &want) {
        (None, None) => {}
        (Some((gv, gs)), Some((wv, ws))) => {
            prop_assert_eq!(gv, wv, "objective value diverged for {:?}", req);
            prop_assert_eq!(gs, ws, "index set diverged for {:?}", req);
        }
        _ => prop_assert!(false, "feasibility diverged for {:?}: {:?} vs {:?}", req, got, want),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mixed interleaved batches through a comfortably sized cache:
    /// every answer equals a fresh single-universe engine solve, and the
    /// registry's worker count changes neither an answer nor a miss.
    #[test]
    fn mixed_batches_match_fresh_engines(raw in batch_strategy()) {
        let specs: Vec<UniverseSpec> = raw.universes.iter().map(spec_of).collect();
        let batch: Vec<TenantBatch> = raw
            .tenants
            .iter()
            .map(|&(u, obj, k)| TenantBatch {
                spec: specs[u].clone(),
                requests: vec![request_of(obj, k)],
            })
            .collect();
        let distinct = {
            let mut keys: Vec<_> = specs.iter().map(|s| s.key()).collect();
            keys.sort_by(|a, b| a.bytes().cmp(b.bytes()));
            keys.dedup();
            keys.len()
        };
        let mut runs = Vec::new();
        for workers in [1usize, 4] {
            let registry = Registry::new(RegistryConfig {
                byte_budget: 64 << 20,
                shards: 2,
                workers,
                solve_threads: 2,
            });
            // Serve the same batch twice: first pass exercises misses,
            // the second pass hits the cached prepared universes.
            let mut served = Vec::new();
            for pass in 0..2 {
                let answers = registry.serve_mixed_checked(&batch);
                prop_assert_eq!(answers.len(), batch.len(), "pass {}", pass);
                for (tenant, tenant_answers) in raw.tenants.iter().zip(&answers) {
                    let &(u, obj, k) = tenant;
                    prop_assert_eq!(tenant_answers.len(), 1);
                    assert_matches(&tenant_answers[0].clone().ok(), &specs[u], request_of(obj, k))?;
                }
                served.push(answers);
            }
            // Distinct universe contents were each prepared exactly
            // once (tenants may not cover every generated universe).
            let misses = registry.stats().misses;
            prop_assert!(misses as usize <= distinct);
            runs.push((served, misses));
        }
        prop_assert_eq!(&runs[0], &runs[1], "worker count changed an answer or a miss");
    }

    /// A byte budget too small for two universes forces evict → rebuild
    /// between alternating requests; rebuilt answers stay identical.
    #[test]
    fn eviction_and_rebuild_keep_answers_identical(
        a in universe_strategy(),
        b in universe_strategy(),
        k in 1usize..=4,
    ) {
        let spec_a = spec_of(&a);
        let spec_b = spec_of(&b);
        // Budget below one entry: every universe switch rebuilds.
        let registry = Registry::new(RegistryConfig {
            byte_budget: 1,
            shards: 1,
            workers: 1,
            solve_threads: 1,
        });
        for round in 0..2 {
            for (spec, obj) in [(&spec_a, round), (&spec_b, round + 1)] {
                let req = request_of(obj, k);
                let got = registry.try_serve(spec, req).ok();
                assert_matches(&got, spec, req)?;
            }
        }
        // The alternation really did evict (nothing fits next to a new
        // insert under a 1-byte budget) — unless the two random
        // universes happen to share content, in which case the single
        // oversized entry stays warm.
        if spec_a.key() == spec_b.key() {
            prop_assert_eq!(registry.stats().evictions, 0);
        } else {
            prop_assert!(registry.stats().evictions >= 2);
            prop_assert_eq!(registry.stats().hits, 0);
        }
    }

    /// All-tied universes (constant relevance and distance): the
    /// registry must reproduce the sequential lowest-index tie-breaks
    /// through both cold and warm paths.
    #[test]
    fn all_tied_universes_follow_tie_break_rule(
        n in 3usize..=9,
        lambda_num in 0i64..=4,
        k in 1usize..=3,
    ) {
        let universe: Vec<Tuple> = (0..n as i64).map(|i| Tuple::ints([i])).collect();
        let spec = UniverseSpec::new(
            universe,
            Arc::new(TableRelevance::with_default(Ratio::ONE)),
            Arc::new(TableDistance::with_default(Ratio::ONE)),
            Ratio::new(lambda_num, 4),
        );
        let registry = Registry::default();
        // The paper-exact sequential path over the same prepared state
        // (`DiversityProblem::from_prepared` reuses its caches and
        // oracle): in an all-tied, all-integer universe the heuristics
        // are deterministic down to the lowest-index tie-break, so the
        // registry must reproduce their index sets verbatim.
        let prepared = spec.prepare(1);
        let p = DiversityProblem::from_prepared(&prepared, k);
        for kind in ObjectiveKind::ALL {
            let req = EngineRequest { kind, k };
            let cold = registry.try_serve(&spec, req).ok();
            let warm = registry.try_serve(&spec, req).ok();
            prop_assert_eq!(&cold, &warm);
            assert_matches(&cold, &spec, req)?;
            let sequential = match kind {
                ObjectiveKind::MaxSum => approx::greedy_max_sum(&p),
                ObjectiveKind::MaxMin => approx::gmm_max_min(&p),
                ObjectiveKind::Mono => mono::max_mono(&p).map(|(_, s)| s),
            };
            let (_, served_set) = warm.as_ref().expect("k ≤ n by construction");
            prop_assert_eq!(served_set, &sequential.expect("feasible"), "{} tie-break", kind);
        }
    }
}
