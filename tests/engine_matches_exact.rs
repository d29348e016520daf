//! Property tests for the engine's exactness contract: on random
//! instances with integer scores (where `f64` arithmetic is exact, so
//! the float filter can never mask a real score difference), the batch
//! engine must produce **exactly** the sets the sequential
//! exact-`Ratio` heuristics produce — same indices, same objective
//! values — including in all-tied universes where only the tie-break
//! rule decides.

use divr::core::distance::TableDistance;
use divr::core::engine::{Engine, EngineRequest, SolveScratch};
use divr::core::prelude::*;
use divr::core::relevance::TableRelevance;
use divr::core::solvers::mono;
use divr::core::{approx, Ratio};
use divr::relquery::Tuple;
use proptest::prelude::*;

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

    /// Engine MMR == sequential MMR.
    #[test]
    fn mmr_agrees(raw in instance_strategy()) {
        let (universe, rel, dis, lambda) = build(&raw);
        let p = DiversityProblem::new(universe.clone(), &rel, &dis, lambda, raw.k);
        let e = Engine::with_threads(universe, &rel, &dis, lambda, 2);
        prop_assert_eq!(approx::mmr(&p).unwrap(), e.mmr(raw.k).unwrap());
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

    /// Engine local search == sequential local search, from the same
    /// (greedy) start: same final exact value.
    #[test]
    fn local_search_agrees(raw in instance_strategy()) {
        let (universe, rel, dis, lambda) = build(&raw);
        let p = DiversityProblem::new(universe.clone(), &rel, &dis, lambda, raw.k);
        let e = Engine::with_threads(universe, &rel, &dis, lambda, 2);
        let init: Vec<usize> = (0..raw.k).collect();
        for kind in ObjectiveKind::ALL {
            let (sv, sset) = approx::local_search_swap(&p, kind, init.clone(), 16);
            let (ev, eset) = e.local_search_swap(kind, init.clone(), 16);
            prop_assert_eq!(sv, ev, "{} diverged", kind);
            prop_assert_eq!(p.objective(kind, &sset), e.objective_exact(kind, &eset));
        }
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
}
