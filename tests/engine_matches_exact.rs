//! Property tests for the engine's exactness contract: on random
//! instances with integer scores (where `f64` arithmetic is exact, so
//! the float filter can never mask a real score difference), the batch
//! engine must produce **exactly** the sets the sequential
//! exact-`Ratio` heuristics produce — same indices, same objective
//! values — including in all-tied universes where only the tie-break
//! rule decides.

use divr::core::distance::TableDistance;
use divr::core::coreset::{CoresetConfig, CoresetEngine};
use divr::core::engine::{Engine, EngineRequest, SolveScratch};
use divr::core::prelude::*;
use divr::core::relevance::TableRelevance;
use divr::core::solvers::mono;
use divr::core::{approx, Ratio};
use divr::relquery::Tuple;
use proptest::prelude::*;
use std::sync::Arc;

/// A random integer-scored instance: `n` points, relevances in
/// `[0, 20]`, upper-triangle distances in `[0, 30]`, `λ ∈ {0, ¼, …, 1}`.
#[derive(Debug, Clone)]
struct RawInstance {
    n: usize,
    k: usize,
    lambda_num: i64,
    rels: Vec<i64>,
    dists: Vec<i64>,
}

fn instance_strategy() -> impl Strategy<Value = RawInstance> {
    (4usize..=14)
        .prop_flat_map(|n| {
            (
                Just(n),
                1usize..=6.min(n),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The distance matrix is bit-exact on integer distances.
    #[test]
    fn matrix_is_bit_exact(raw in instance_strategy()) {
        let (universe, _, dis, _) = build(&raw);
        let m = divr::core::DistanceMatrix::build(&universe, &dis, 2);
        prop_assert_eq!(m.verify_exact(&universe, &dis), 0.0);
    }

    /// Engine greedy == sequential greedy: same set, same exact value.
    #[test]
    fn greedy_max_sum_agrees(raw in instance_strategy()) {
        let (universe, rel, dis, lambda) = build(&raw);
        let p = DiversityProblem::new(universe.clone(), &rel, &dis, lambda, raw.k);
        let e = Engine::with_threads(universe, &rel, &dis, lambda, 2);
        let seq = approx::greedy_max_sum(&p).unwrap();
        let fast = e.greedy_max_sum(raw.k).unwrap();
        prop_assert_eq!(p.f_ms(&seq), e.objective_exact(ObjectiveKind::MaxSum, &fast));
        prop_assert_eq!(&seq, &fast, "sets diverged beyond a value tie");
    }

    /// Engine GMM == sequential GMM.
    #[test]
    fn gmm_max_min_agrees(raw in instance_strategy()) {
        let (universe, rel, dis, lambda) = build(&raw);
        let p = DiversityProblem::new(universe.clone(), &rel, &dis, lambda, raw.k);
        let e = Engine::with_threads(universe, &rel, &dis, lambda, 2);
        let seq = approx::gmm_max_min(&p).unwrap();
        let fast = e.gmm_max_min(raw.k).unwrap();
        prop_assert_eq!(p.f_mm(&seq), e.objective_exact(ObjectiveKind::MaxMin, &fast));
        prop_assert_eq!(&seq, &fast);
    }

    /// Engine mono top-k == the Theorem 5.4 exact PTIME solver.
    #[test]
    fn mono_top_k_agrees(raw in instance_strategy()) {
        let (universe, rel, dis, lambda) = build(&raw);
        let p = DiversityProblem::new(universe.clone(), &rel, &dis, lambda, raw.k);
        let e = Engine::with_threads(universe, &rel, &dis, lambda, 2);
        let (opt, seq) = mono::max_mono(&p).unwrap();
        let fast = e.mono_top_k(raw.k).unwrap();
        prop_assert_eq!(opt, e.objective_exact(ObjectiveKind::Mono, &fast));
        prop_assert_eq!(&seq, &fast);
    }

    /// The batch front door returns exact values consistent with the
    /// per-solver entry points, for every objective at once.
    #[test]
    fn serve_batch_is_consistent(raw in instance_strategy()) {
        let (universe, rel, dis, lambda) = build(&raw);
        let e = Engine::with_threads(universe, &rel, &dis, lambda, 2);
        let reqs: Vec<EngineRequest> = ObjectiveKind::ALL
            .into_iter()
            .map(|kind| EngineRequest { kind, k: raw.k })
            .collect();
        let mut scratch = SolveScratch::new();
        for req in &reqs {
            let mut set = Vec::new();
            let v = e.serve_into(*req, &mut scratch, &mut set).unwrap();
            prop_assert_eq!(set.len(), raw.k);
            prop_assert_eq!(e.objective_exact(req.kind, &set), v);
        }
    }

    /// The serving entry point against every sequential reference at
    /// once: one scratch and one output vector reused across all three
    /// objectives and several `k` (odd, even, `k = n`) must return the
    /// reference's set and its exact value each time.
    #[test]
    fn serve_into_agrees_with_every_reference(raw in instance_strategy()) {
        let (universe, rel, dis, lambda) = build(&raw);
        let e = Engine::with_threads(universe.clone(), &rel, &dis, lambda, 2);
        let (mut scratch, mut set) = (SolveScratch::new(), Vec::new());
        for k in [raw.k, raw.k % raw.n + 1, raw.n] {
            let p = DiversityProblem::new(universe.clone(), &rel, &dis, lambda, k);
            for kind in ObjectiveKind::ALL {
                let reference = match kind {
                    ObjectiveKind::MaxSum => approx::greedy_max_sum(&p).unwrap(),
                    ObjectiveKind::MaxMin => approx::gmm_max_min(&p).unwrap(),
                    ObjectiveKind::Mono => mono::max_mono(&p).unwrap().1,
                };
                let value = e.serve_into(EngineRequest { kind, k }, &mut scratch, &mut set).unwrap();
                prop_assert_eq!(&set, &reference, "{} k={}", kind, k);
                prop_assert_eq!(value, p.objective(kind, &reference), "{} k={}", kind, k);
            }
        }
    }

    /// The exact re-score is one body: on *arbitrary* index sets (not
    /// solver outputs; any size from empty up) the full engine, a
    /// coreset engine whose budget covers the universe and one whose
    /// budget does not all report `DiversityProblem::objective` — over
    /// a keyless oracle (per-pair sweep) and a keyed one (memoized
    /// distance sums).
    #[test]
    fn exact_rescore_is_one_body(
        raw in instance_strategy(),
        keys in proptest::collection::vec(-40i64..=40, 14),
        mask in proptest::collection::vec(0u8..=1, 14),
    ) {
        let subset: Vec<usize> = (0..raw.n).filter(|&i| mask[i] == 1).collect();
        let (universe, rel, dis, lambda) = build(&raw);
        assert_one_rescore(universe, &rel, Arc::new(dis), lambda, &subset);
        let keyed: Vec<Tuple> = (0..raw.n).map(|i| Tuple::ints([keys[i], raw.rels[i]])).collect();
        let rel = AttributeRelevance { attr: 1, default: Ratio::ZERO };
        let dis = NumericDistance { attr: 0, fallback: Ratio::ZERO };
        assert_one_rescore(keyed, &rel, Arc::new(dis), lambda, &subset);
    }
}

fn assert_one_rescore(
    universe: Vec<Tuple>,
    rel: &dyn Relevance,
    dis: Arc<dyn Distance + Send + Sync>,
    lambda: Ratio,
    subset: &[usize],
) {
    let n = universe.len();
    let p = DiversityProblem::new(universe.clone(), rel, &*dis, lambda, 1);
    let full = Engine::with_threads(universe.clone(), rel, &*dis, lambda, 2);
    let coresets = [n, n / 2].map(|budget| {
        let config = CoresetConfig::with_budget(budget).with_threads(2);
        CoresetEngine::new(universe.clone(), rel, dis.clone(), lambda, &config)
    });
    for kind in ObjectiveKind::ALL {
        let want = p.objective(kind, subset);
        assert_eq!(full.objective_exact(kind, subset), want, "{kind} full");
        for cs in &coresets {
            assert_eq!(cs.objective_exact_full(kind, subset), want, "{kind} coreset m={}", cs.m());
        }
    }
}

/// The thread count is a scheduling knob, never an input: at n = 3000
/// — inside the full-matrix range the daemon serves with
/// `solve_threads = cores` — one prepared universe answers every
/// objective identically on one thread and on two. `F_MM` and `F_mono`
/// scan inline at this size; the odd-`k` `F_MS` finish (n × k units) is
/// the round that still fans out.
#[test]
fn thread_count_never_changes_an_answer_at_n_3000() {
    let n = 3000;
    let universe: Vec<Tuple> =
        (0..n).map(|i| Tuple::ints([(i * 7919) % 1_000_003, i % 11])).collect();
    let rel = AttributeRelevance { attr: 1, default: Ratio::ZERO };
    let dis = NumericDistance { attr: 0, fallback: Ratio::ZERO };
    let one = Engine::with_threads(universe, &rel, &dis, Ratio::new(1, 2), 1);
    let two = Engine::from_prepared(Arc::clone(one.prepared()), 2);
    for kind in ObjectiveKind::ALL {
        for k in [2, 50, 51] {
            let request = EngineRequest { kind, k };
            assert_eq!(two.try_serve(request), one.try_serve(request), "{kind} k={k}");
        }
    }
}
