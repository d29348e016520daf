//! Differential property tests for the lazy-heap `greedy_max_sum`:
//! the CELF-style lazy pair-weight heap must return **the same index
//! sets and the same exact `Ratio` values** as the sequential
//! `Ratio`-path reference (`approx::greedy_max_sum`) on every
//! instance, not merely tie-equivalent ones. The reference scans every
//! remaining pair each round in exact arithmetic; the engine filters in
//! floats and resolves near-ties through the exact fallback, so any
//! divergence is a bug in the heap's pop/rescan bookkeeping or in the
//! tie window, which is exactly what these tests hunt:
//!
//! * random integer-scored instances across λ ∈ {0, ¼, ½, ¾, 1},
//!   odd and even `k`, including `k = n` (the heap drains completely);
//! * adversarial **all-tied** universes (constant relevance and
//!   distance), where every heap entry carries the same float score
//!   and only the exact lexicographic tie rule decides;
//! * near-tied universes with a single off-pattern pair, so the tie
//!   window holds almost — but not quite — everything;
//! * a concurrency test pinning that the memoized heap preamble is
//!   built **at most once** per `PreparedUniverse`, no matter how many
//!   engines race their first `F_MS` request against it.

use divr::core::distance::{NumericDistance, TableDistance};
use divr::core::engine::{Engine, EngineRequest, SolveScratch};
use divr::core::prelude::*;
use divr::core::relevance::TableRelevance;
use divr::core::Ratio;
use divr::relquery::Tuple;
use proptest::prelude::*;
use std::sync::Arc;

/// A random integer-scored instance (float arithmetic is exact, so the
/// float filter can never mask a real score difference).
#[derive(Debug, Clone)]
struct RawInstance {
    n: usize,
    k: usize,
    lambda_num: i64,
    rels: Vec<i64>,
    dists: Vec<i64>,
}

fn instance_strategy() -> impl Strategy<Value = RawInstance> {
    (4usize..=16)
        .prop_flat_map(|n| {
            (
                Just(n),
                // k spans odd, even, and the full-universe k = n case.
                1usize..=n,
                0i64..=4,
                proptest::collection::vec(0i64..=20, n),
                proptest::collection::vec(0i64..=30, n * (n - 1) / 2),
            )
        })
        .prop_map(|(n, k, lambda_num, rels, dists)| RawInstance {
            n,
            k,
            lambda_num,
            rels,
            dists,
        })
}

fn build(raw: &RawInstance) -> (Vec<Tuple>, TableRelevance, TableDistance, Ratio) {
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
    (universe, rel, dis, Ratio::new(raw.lambda_num, 4))
}

/// Lazy and reference must agree exactly — sets and values — cold, on
/// a warm re-solve (memoized preamble), and through a *reused* scratch
/// (buffers left over from the previous solve must not drift). The
/// reference runs over the engine's own universe and oracles; `k = 0`
/// is the empty set (`DiversityProblem` itself requires `k ≥ 1`) and
/// `k > n` has no answer on either side.
fn assert_lazy_eq_reference(e: &Engine, k: usize, ctx: &str) {
    let lazy = e.greedy_max_sum(k);
    if k == 0 {
        assert_eq!(lazy, Some(Vec::new()), "{ctx}: k=0 is the empty set");
    } else {
        let p = DiversityProblem::from_prepared(e.prepared(), k);
        let want = divr::core::approx::greedy_max_sum(&p);
        assert_eq!(want, lazy, "{ctx}: lazy diverged from the reference at k={k}");
        if let Some(set) = &want {
            let v = e.objective_exact(ObjectiveKind::MaxSum, set);
            assert_eq!(v, p.f_ms(set), "{ctx}: value diverged at k={k}");
        }
    }
    let Some(set) = lazy else { return };
    assert_eq!(e.greedy_max_sum(k), Some(set.clone()), "{ctx}: warm re-solve drifted");
    let (mut scratch, mut out) = (SolveScratch::new(), Vec::new());
    for _ in 0..2 {
        assert!(e.greedy_max_sum_into(k, &mut scratch, &mut out));
        assert_eq!(out, set, "{ctx}: reused scratch drifted at k={k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random instances: lazy ≡ reference for the requested k, its
    /// parity sibling, and k = n.
    #[test]
    fn lazy_matches_reference_on_random_instances(raw in instance_strategy()) {
        let (universe, rel, dis, lambda) = build(&raw);
        let e = Engine::with_threads(universe, &rel, Arc::new(dis.clone()), lambda, 2);
        for k in [raw.k, (raw.k % raw.n) + 1, raw.n] {
            assert_lazy_eq_reference(&e, k, "random");
        }
    }

    /// A cold engine against a reference built from the raw oracles
    /// (not through `DiversityProblem::from_prepared`), so the helper's
    /// shortcut is itself cross-checked.
    #[test]
    fn lazy_matches_ratio_reference(raw in instance_strategy()) {
        let (universe, rel, dis, lambda) = build(&raw);
        let p = DiversityProblem::new(universe.clone(), &rel, &dis, lambda, raw.k);
        let e = Engine::with_threads(universe, &rel, Arc::new(dis.clone()), lambda, 2);
        let seq = divr::core::approx::greedy_max_sum(&p).unwrap();
        let lazy = e.greedy_max_sum(raw.k).unwrap();
        prop_assert_eq!(seq, lazy);
    }
}

/// All-tied adversarial universes: constant relevance, constant
/// distance. Every pair weight is the same float, so the heap's pop
/// order and tie collection must reproduce the reference's lexicographic
/// winner on every round — for λ = 0, λ = 1, a mixed λ, every parity
/// of k, and k = n.
#[test]
fn all_tied_universes_resolve_identically() {
    for n in [2usize, 3, 5, 8, 11] {
        let universe: Vec<Tuple> = (0..n as i64).map(|i| Tuple::ints([i])).collect();
        let rel = TableRelevance::with_default(Ratio::ONE);
        let dis = TableDistance::with_default(Ratio::ONE);
        for lambda in [Ratio::ZERO, Ratio::new(1, 2), Ratio::ONE] {
            let e = Engine::with_threads(universe.clone(), &rel, Arc::new(dis.clone()), lambda, 2);
            for k in 0..=n {
                assert_lazy_eq_reference(&e, k, "all-tied");
                // The fully-tied greedy must pick the k lowest indices.
                if k >= 2 {
                    let set = e.greedy_max_sum(k).unwrap();
                    let expect: Vec<usize> = (0..k).collect();
                    assert_eq!(set, expect, "all-tied n={n} λ={lambda} k={k}");
                }
            }
        }
    }
}

/// Near-tied universes: one pair is heavier by exactly one unit, the
/// rest all tie — the heap must pull the heavy pair first and then fall
/// back to lexicographic picks, like the reference's double loop.
#[test]
fn single_heavy_pair_breaks_the_tie() {
    let n = 9usize;
    let universe: Vec<Tuple> = (0..n as i64).map(|i| Tuple::ints([i])).collect();
    let rel = TableRelevance::with_default(Ratio::ONE);
    for (a, b) in [(0usize, 1usize), (3, 7), (7, 8)] {
        let mut dis = TableDistance::with_default(Ratio::int(5));
        dis.set(universe[a].clone(), universe[b].clone(), Ratio::int(6));
        for lambda in [Ratio::new(1, 4), Ratio::ONE] {
            let e = Engine::with_threads(universe.clone(), &rel, Arc::new(dis.clone()), lambda, 2);
            for k in [2, 3, 4, 5, n] {
                assert_lazy_eq_reference(&e, k, "single-heavy-pair");
                let set = e.greedy_max_sum(k).unwrap();
                assert!(
                    set.contains(&a) && set.contains(&b),
                    "k={k} λ={lambda}: heavy pair ({a},{b}) missing from {set:?}"
                );
            }
        }
    }
}

/// The heap preamble is computed at most once per `PreparedUniverse` —
/// fused into the matrix build at construction, and never again, even
/// when many threads race `F_MS` requests against the same shared
/// prepared state — and every racer gets the same answer.
#[test]
fn heap_preamble_builds_at_most_once_under_concurrency() {
    let universe: Vec<Tuple> = (0..400i64).map(|i| Tuple::ints([i * 7 % 101, i % 13])).collect();
    let rel = AttributeRelevance { attr: 1, default: Ratio::ZERO };
    let dis: Arc<dyn divr::core::distance::Distance + Send + Sync> =
        Arc::new(NumericDistance { attr: 0, fallback: Ratio::ZERO });
    let prepared = Arc::new(PreparedUniverse::build_shared(
        universe,
        &rel,
        dis,
        Ratio::new(1, 2),
        2,
    ));
    assert_eq!(
        prepared.ms_preamble_builds(),
        1,
        "the seed scan is fused into the matrix build: exactly one build at construction"
    );
    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let prepared = prepared.clone();
                scope.spawn(move || {
                    let engine = Engine::from_prepared(prepared, 1);
                    engine
                        .try_serve(EngineRequest { kind: ObjectiveKind::MaxSum, k: 7 })
                        .expect("feasible")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        prepared.ms_preamble_builds(),
        1,
        "OnceLock must build the heap preamble exactly once under racing requests"
    );
    for ans in &answers[1..] {
        assert_eq!(ans, &answers[0], "racing engines must agree");
    }
    // A fresh engine over the same prepared state reuses the preamble.
    let again = Engine::from_prepared(prepared.clone(), 2)
        .try_serve(EngineRequest { kind: ObjectiveKind::MaxSum, k: 7 })
        .unwrap();
    assert_eq!(again, answers[0]);
    assert_eq!(prepared.ms_preamble_builds(), 1);
}

/// One scratch serving many universes of different sizes in sequence:
/// buffer reuse across engines must never leak state between solves.
#[test]
fn one_scratch_across_mixed_universes_is_stateless()  {
    let rel = AttributeRelevance { attr: 1, default: Ratio::ZERO };
    let dis = NumericDistance { attr: 0, fallback: Ratio::ZERO };
    let mut scratch = SolveScratch::new();
    let mut out = Vec::new();
    for n in [30i64, 7, 55, 2, 18] {
        let universe: Vec<Tuple> = (0..n).map(|i| Tuple::ints([i * 3 % (2 * n), i % 5])).collect();
        let e = Engine::with_threads(universe, &rel, Arc::new(dis.clone()), Ratio::new(1, 2), 1);
        for kind in ObjectiveKind::ALL {
            for k in [1usize, 2, (n as usize).min(5), n as usize] {
                let via_scratch = e
                    .serve_into(EngineRequest { kind, k }, &mut scratch, &mut out)
                    .map(|v| (v, out.clone()));
                let fresh = e.try_serve(EngineRequest { kind, k });
                assert_eq!(via_scratch, fresh, "n={n} {kind} k={k}");
            }
        }
    }
}
