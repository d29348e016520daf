//! Concurrency smoke: several threads hammer one registry with
//! overlapping universes and mixed requests. The run must terminate
//! (no deadlock — bounded iterations under `cargo test -q`) and every
//! single response must equal the sequential oracle's answer for that
//! `(universe, request)` pair, even while the same universes are being
//! concurrently prepared, hit, and evicted by other threads.

use divr_core::distance::NumericDistance;
use divr_core::engine::{Engine, EngineRequest};
use divr_core::prelude::*;
use divr_core::relevance::TableRelevance;
use divr_core::Ratio;
use divr_relquery::Tuple;
use divr_server::{CheckedAnswer, Registry, RegistryConfig, UniverseSpec};
use std::sync::Arc;

const THREADS: usize = 4;
const ITERATIONS: usize = 30;

/// Deterministic universe family: scattered integer points with
/// varying relevance tables and λ.
fn spec_of(which: usize) -> UniverseSpec {
    let n = 12 + 3 * which;
    let universe: Vec<Tuple> = (0..n as i64)
        .map(|i| Tuple::ints([(i * 7 + which as i64 * 3) % (2 * n as i64)]))
        .collect();
    let mut rel = TableRelevance::with_default(Ratio::ZERO);
    for (i, t) in universe.iter().enumerate() {
        rel.set(t.clone(), Ratio::int(((i * 5 + which) % 11) as i64));
    }
    UniverseSpec::new(
        universe,
        Arc::new(rel),
        Arc::new(NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        }),
        Ratio::new(which as i64 % 5, 4),
    )
}

fn requests() -> Vec<EngineRequest> {
    ObjectiveKind::ALL
        .into_iter()
        .flat_map(|kind| [2usize, 5].map(|k| EngineRequest { kind, k }))
        .collect()
}

fn hammer(registry: &Registry, oracle: &[(UniverseSpec, Vec<CheckedAnswer>)]) {
    let reqs = requests();
    let reqs = &reqs;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..ITERATIONS {
                    // Each thread walks the universes in a different
                    // phase so hits, misses and evictions overlap.
                    let which = (t * 7 + i) % oracle.len();
                    let (spec, expected) = &oracle[which];
                    let r = (t + i * 3) % reqs.len();
                    let got = registry.try_serve(spec, reqs[r]);
                    assert_eq!(
                        &got, &expected[r],
                        "thread {t} iteration {i}: universe {which} request {r} diverged"
                    );
                }
            });
        }
    });
}

/// Sequential oracle answers for every (universe, request) pair.
fn oracle() -> Vec<(UniverseSpec, Vec<CheckedAnswer>)> {
    let reqs = requests();
    (0..4)
        .map(|which| {
            let spec = spec_of(which);
            let engine = Engine::from_prepared(spec.prepare(1), 1);
            let answers = reqs.iter().map(|&r| engine.try_serve(r)).collect();
            (spec, answers)
        })
        .collect()
}

#[test]
fn hammering_a_roomy_registry_matches_the_sequential_oracle() {
    let oracle = oracle();
    let registry = Registry::new(RegistryConfig {
        byte_budget: 32 << 20,
        shards: 4,
        workers: 2,
        solve_threads: 2,
    });
    hammer(&registry, &oracle);
    let stats = registry.stats();
    assert_eq!(stats.hits + stats.misses, (THREADS * ITERATIONS) as u64);
    // Roomy budget: every universe prepared at most once per racing
    // group — with 4 universes, misses stay far below total traffic.
    assert!(stats.misses <= 4 * THREADS as u64);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn hammering_a_starved_registry_still_matches_and_terminates() {
    let oracle = oracle();
    // Budget fits roughly one small universe: constant eviction churn
    // while four universes rotate through.
    let registry = Registry::new(RegistryConfig {
        byte_budget: spec_of(0).prepare(1).approx_bytes() + 1,
        shards: 1,
        workers: 2,
        solve_threads: 1,
    });
    hammer(&registry, &oracle);
    let stats = registry.stats();
    assert!(stats.evictions > 0, "starved budget must churn");
}
