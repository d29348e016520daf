//! Approximation and heuristic algorithms.
//!
//! The paper's closing message (Sections 1 and 10) is that the
//! diversification problems are "intricate and mostly intractable",
//! highlighting "the need for developing efficient heuristic
//! (approximation whenever possible) algorithms". These are the standard
//! ones for the two dispersion-style objectives:
//!
//! * [`greedy_max_sum`] — the Gollapudi–Sharma reduction of `F_MS` to
//!   **Max-Sum Dispersion** plus the classical greedy pair-picking
//!   algorithm (2-approximation when the pair weight is a metric);
//! * [`gmm_max_min`] — the greedy **GMM** scheme for `F_MM` (farthest-
//!   point style; 2-approximation for metric distances at `λ = 1`);
//! * [`mmr`] — Maximal Marginal Relevance-style incremental selection,
//!   the baseline of most diversification systems the paper surveys;
//! * [`local_search_swap`] — single-swap hill climbing usable on top of
//!   any of the above, for any objective.
//!
//! `F_mono` needs no approximation: its exact optimum is polynomial
//! (Theorem 5.4, [`crate::solvers::mono::max_mono`]).
//!
//! These sequential `Ratio`-path functions are the **reference
//! semantics** for the production paths: [`crate::engine`] reproduces
//! [`greedy_max_sum`] and [`gmm_max_min`] against a precomputed matrix
//! (identical up to equal-score ties), and [`crate::coreset`] runs
//! those on an `m ≪ n` representative subset for universes whose
//! matrix cannot be allocated; [`mmr`] and [`local_search_swap`] exist
//! only here. The
//! guarantee each algorithm carries — and the test that pins it — is
//! tabulated in `docs/PAPER_MAP.md` ("Approximation guarantees").

use crate::problem::{DiversityProblem, ObjectiveKind};
use crate::ratio::Ratio;

/// The pair weight of the Gollapudi–Sharma Max-Sum Dispersion reduction
/// on raw components: `w = (1−λ)(rel_i + rel_j) + 2λ·dist_ij`, chosen so
/// that `F_MS(U) = Σ_{{u,v} ⊆ U} w(u, v)` for `|U| = k`. Shared between
/// the sequential path here, [`crate::dispersion`]'s bridge, and the
/// exact tie fallback of [`crate::engine`].
pub(crate) fn ms_pair_weight_parts(
    lambda: Ratio,
    rel_i: Ratio,
    rel_j: Ratio,
    dist_ij: Ratio,
) -> Ratio {
    (Ratio::ONE - lambda) * (rel_i + rel_j) + lambda * dist_ij.scale(2)
}

/// [`ms_pair_weight_parts`] read off a problem instance.
pub(crate) fn ms_pair_weight(p: &DiversityProblem<'_>, i: usize, j: usize) -> Ratio {
    ms_pair_weight_parts(p.lambda(), p.rel_of(i), p.rel_of(j), p.dist_of(i, j))
}

/// Greedy 2-approximation for max-sum diversification: repeatedly pick
/// the remaining pair with the largest `ms_pair_weight`; if `k` is odd,
/// finish with the item with the best marginal `F_MS` gain.
///
/// Returns `None` when no candidate set exists (`|Q(D)| < k`).
///
/// For large universes, [`Engine::greedy_max_sum`](crate::engine::Engine::greedy_max_sum)
/// computes the same result (up to equal-score ties) against a
/// precomputed distance matrix.
///
/// # Example
///
/// ```
/// use divr_core::approx;
/// use divr_core::prelude::*;
/// use divr_relquery::Tuple;
///
/// // Five points on a line, distance |Δ|, all equally relevant.
/// let universe: Vec<Tuple> = (0..5).map(|i| Tuple::ints([i])).collect();
/// let rel = ConstantRelevance(Ratio::ONE);
/// let dis = NumericDistance { attr: 0, fallback: Ratio::ZERO };
/// let p = DiversityProblem::new(universe, &rel, &dis, Ratio::ONE, 2);
/// // At λ = 1 only distance matters: greedy takes the endpoints.
/// assert_eq!(approx::greedy_max_sum(&p), Some(vec![0, 4]));
/// ```
pub fn greedy_max_sum(p: &DiversityProblem<'_>) -> Option<Vec<usize>> {
    let n = p.n();
    let k = p.k();
    if k > n {
        return None;
    }
    let mut available: Vec<usize> = (0..n).collect();
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    if k == 1 {
        // F_MS of a singleton is 0; return the most relevant item anyway.
        let best = (0..n).max_by_key(|&i| (p.rel_of(i), std::cmp::Reverse(i)))?;
        return Some(vec![best]);
    }
    while chosen.len() + 1 < k {
        let mut best: Option<(Ratio, usize, usize)> = None;
        for (ai, &i) in available.iter().enumerate() {
            for &j in &available[ai + 1..] {
                let w = ms_pair_weight(p, i, j);
                if best.is_none_or(|(b, _, _)| w > b) {
                    best = Some((w, i, j));
                }
            }
        }
        let (_, i, j) = best?;
        chosen.push(i);
        chosen.push(j);
        // `available` stays ascending (the scan order *is* the
        // tie-break), so removal must preserve order: binary search +
        // shift instead of the old full-predicate `retain` pass.
        crate::avail::remove_sorted(&mut available, i);
        crate::avail::remove_sorted(&mut available, j);
    }
    if chosen.len() < k {
        // k odd: add the item with the best marginal contribution.
        let best = available
            .iter()
            .copied()
            .max_by_key(|&t| {
                let one_minus = Ratio::ONE - p.lambda();
                let marginal: Ratio = one_minus.scale(k as i64 - 1) * p.rel_of(t)
                    + p.lambda()
                        * chosen
                            .iter()
                            .map(|&s| p.dist_of(s, t))
                            .sum::<Ratio>()
                            .scale(2);
                (marginal, std::cmp::Reverse(t))
            })?;
        chosen.push(best);
    }
    chosen.sort_unstable();
    Some(chosen)
}

/// Greedy GMM for max-min diversification: seed with the pair maximizing
/// `(1−λ)·min(rel) + λ·dist`, then repeatedly add the point maximizing
/// the resulting `F_MM` value.
///
/// # Example
///
/// ```
/// use divr_core::approx;
/// use divr_core::prelude::*;
/// use divr_relquery::Tuple;
///
/// let universe: Vec<Tuple> = (0..5).map(|i| Tuple::ints([i])).collect();
/// let rel = ConstantRelevance(Ratio::ONE);
/// let dis = NumericDistance { attr: 0, fallback: Ratio::ZERO };
/// let p = DiversityProblem::new(universe, &rel, &dis, Ratio::ONE, 3);
/// // Farthest-point style: endpoints first, then the midpoint.
/// assert_eq!(approx::gmm_max_min(&p), Some(vec![0, 2, 4]));
/// ```
pub fn gmm_max_min(p: &DiversityProblem<'_>) -> Option<Vec<usize>> {
    let n = p.n();
    let k = p.k();
    if k > n {
        return None;
    }
    if k == 1 {
        let best = (0..n).max_by_key(|&i| (p.rel_of(i), std::cmp::Reverse(i)))?;
        return Some(vec![best]);
    }
    let one_minus = Ratio::ONE - p.lambda();
    // Seed pair.
    let mut best_pair: Option<(Ratio, usize, usize)> = None;
    for i in 0..n {
        for j in i + 1..n {
            let v = one_minus * p.rel_of(i).min(p.rel_of(j)) + p.lambda() * p.dist_of(i, j);
            if best_pair.is_none_or(|(b, _, _)| v > b) {
                best_pair = Some((v, i, j));
            }
        }
    }
    let (_, i, j) = best_pair?;
    let mut chosen = vec![i, j];
    let mut min_rel = p.rel_of(i).min(p.rel_of(j));
    let mut min_dis = p.dist_of(i, j);
    while chosen.len() < k {
        let mut best: Option<(Ratio, usize, Ratio, Ratio)> = None;
        for t in 0..n {
            if chosen.contains(&t) {
                continue;
            }
            let new_min_rel = min_rel.min(p.rel_of(t));
            let new_min_dis = chosen
                .iter()
                .map(|&s| p.dist_of(s, t))
                .fold(min_dis, Ratio::min);
            let v = one_minus * new_min_rel + p.lambda() * new_min_dis;
            if best.is_none_or(|(b, _, _, _)| v > b) {
                best = Some((v, t, new_min_rel, new_min_dis));
            }
        }
        let (_, t, nr, nd) = best?;
        chosen.push(t);
        min_rel = nr;
        min_dis = nd;
    }
    chosen.sort_unstable();
    Some(chosen)
}

/// MMR-style incremental selection: start from the most relevant item;
/// repeatedly add `argmax_t (1−λ)·δ_rel(t) + λ·min_{s∈S} δ_dis(t, s)`.
///
/// # Example
///
/// ```
/// use divr_core::approx;
/// use divr_core::prelude::*;
/// use divr_relquery::Tuple;
///
/// // Relevance = the attribute itself; at λ = 0 MMR degenerates to
/// // top-k by relevance.
/// let universe: Vec<Tuple> = (0..5).map(|i| Tuple::ints([i])).collect();
/// let rel = AttributeRelevance { attr: 0, default: Ratio::ZERO };
/// let dis = NumericDistance { attr: 0, fallback: Ratio::ZERO };
/// let p = DiversityProblem::new(universe, &rel, &dis, Ratio::ZERO, 2);
/// assert_eq!(approx::mmr(&p), Some(vec![3, 4]));
/// ```
pub fn mmr(p: &DiversityProblem<'_>) -> Option<Vec<usize>> {
    let n = p.n();
    let k = p.k();
    if k > n {
        return None;
    }
    let one_minus = Ratio::ONE - p.lambda();
    let first = (0..n).max_by_key(|&i| (p.rel_of(i), std::cmp::Reverse(i)))?;
    let mut chosen = vec![first];
    while chosen.len() < k {
        let best = (0..n)
            .filter(|t| !chosen.contains(t))
            .max_by_key(|&t| {
                let nearest = chosen
                    .iter()
                    .map(|&s| p.dist_of(s, t))
                    .min()
                    .unwrap_or(Ratio::ZERO);
                (one_minus * p.rel_of(t) + p.lambda() * nearest, std::cmp::Reverse(t))
            })?;
        chosen.push(best);
    }
    chosen.sort_unstable();
    Some(chosen)
}

/// Single-swap local search: repeatedly apply the best improving swap
/// (one chosen item for one unchosen item) until a local optimum or
/// `max_rounds` is reached. Returns the improved set and its value.
pub fn local_search_swap(
    p: &DiversityProblem<'_>,
    kind: ObjectiveKind,
    init: Vec<usize>,
    max_rounds: usize,
) -> (Ratio, Vec<usize>) {
    let n = p.n();
    let mut current = init;
    current.sort_unstable();
    let mut value = p.objective(kind, &current);
    for _ in 0..max_rounds {
        let mut best_swap: Option<(Ratio, usize, usize)> = None;
        for (pos, &out) in current.iter().enumerate() {
            for cand in 0..n {
                if current.binary_search(&cand).is_ok() {
                    continue;
                }
                let mut trial = current.clone();
                trial[pos] = cand;
                trial.sort_unstable();
                let v = p.objective(kind, &trial);
                if v > value && best_swap.is_none_or(|(b, _, _)| v > b) {
                    best_swap = Some((v, out, cand));
                }
            }
        }
        match best_swap {
            Some((v, out, inn)) => {
                crate::avail::remove_sorted(&mut current, out);
                current.push(inn);
                current.sort_unstable();
                value = v;
            }
            None => break,
        }
    }
    (value, current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{NumericDistance, TableDistance};
    use crate::relevance::{AttributeRelevance, TableRelevance};
    use crate::solvers::exact;
    use divr_relquery::Tuple;

    fn line_universe(n: i64) -> Vec<Tuple> {
        // Points on a line: id = position; rel = position % 5.
        (0..n).map(|i| Tuple::ints([i * 3 % (2 * n), i % 5])).collect()
    }

    fn problem<'a>(
        u: Vec<Tuple>,
        rel: &'a AttributeRelevance,
        dis: &'a NumericDistance,
        lambda: Ratio,
        k: usize,
    ) -> DiversityProblem<'a> {
        DiversityProblem::new(u, rel, dis, lambda, k)
    }

    const REL: AttributeRelevance = AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    };
    const DIS: NumericDistance = NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    };

    #[test]
    fn greedy_max_sum_within_factor_two() {
        for k in [2, 3, 4, 5] {
            for lam in [Ratio::ZERO, Ratio::new(1, 2), Ratio::ONE] {
                let p = problem(line_universe(10), &REL, &DIS, lam, k);
                let greedy = greedy_max_sum(&p).unwrap();
                let gv = p.f_ms(&greedy);
                let (opt, _) = exact::maximize(&p, ObjectiveKind::MaxSum).unwrap();
                assert!(gv.scale(2) >= opt, "k={k} λ={lam}: {gv} vs opt {opt}");
                assert_eq!(greedy.len(), k);
            }
        }
    }

    #[test]
    fn gmm_within_factor_two_at_lambda_one() {
        // Metric distances (absolute difference on a line) at λ = 1:
        // classical 2-approximation territory.
        for k in [2, 3, 4] {
            let p = problem(line_universe(12), &REL, &DIS, Ratio::ONE, k);
            let gmm = gmm_max_min(&p).unwrap();
            let gv = p.f_mm(&gmm);
            let (opt, _) = exact::maximize(&p, ObjectiveKind::MaxMin).unwrap();
            assert!(gv.scale(2) >= opt, "k={k}: {gv} vs opt {opt}");
        }
    }

    #[test]
    fn mmr_produces_k_distinct_items() {
        let p = problem(line_universe(9), &REL, &DIS, Ratio::new(1, 2), 4);
        let s = mmr(&p).unwrap();
        assert_eq!(s.len(), 4);
        let mut d = s;
        d.dedup();
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn mmr_first_pick_is_most_relevant() {
        let universe: Vec<Tuple> = (0..5).map(|i| Tuple::ints([i, i])).collect();
        let p = problem(universe, &REL, &DIS, Ratio::ZERO, 1);
        assert_eq!(mmr(&p).unwrap(), vec![4]);
    }

    #[test]
    fn local_search_never_worsens_and_reaches_local_opt() {
        let p = problem(line_universe(10), &REL, &DIS, Ratio::new(1, 2), 3);
        for kind in ObjectiveKind::ALL {
            let init = vec![0, 1, 2];
            let before = p.objective(kind, &init);
            let (after, set) = local_search_swap(&p, kind, init, 50);
            assert!(after >= before, "{kind}");
            assert_eq!(p.objective(kind, &set), after);
            // One more round must not improve.
            let (again, _) = local_search_swap(&p, kind, set, 1);
            assert_eq!(again, after);
        }
    }

    #[test]
    fn local_search_on_greedy_reaches_exact_on_small_instances() {
        // Sanity: on tiny instances greedy + local search usually equals
        // the optimum; assert it is never above and always ≥ greedy.
        let p = problem(line_universe(8), &REL, &DIS, Ratio::new(1, 2), 3);
        let greedy = greedy_max_sum(&p).unwrap();
        let (ls_v, _) = local_search_swap(&p, ObjectiveKind::MaxSum, greedy.clone(), 20);
        let (opt, _) = exact::maximize(&p, ObjectiveKind::MaxSum).unwrap();
        assert!(ls_v <= opt);
        assert!(ls_v >= p.f_ms(&greedy));
    }

    #[test]
    fn approx_none_when_no_candidates() {
        let rel = TableRelevance::with_default(Ratio::ZERO);
        let dis = TableDistance::with_default(Ratio::ZERO);
        let p = DiversityProblem::new(vec![Tuple::ints([0])], &rel, &dis, Ratio::ONE, 2);
        assert!(greedy_max_sum(&p).is_none());
        assert!(gmm_max_min(&p).is_none());
        assert!(mmr(&p).is_none());
    }
}
