//! RDC — the result diversity counting problem (Section 7).
//!
//! * [`rdc`] counts valid sets exactly by pruned subset search — the
//!   generic `#·NP` / `#·PSPACE`-flavoured upper bound.
//! * [`count_sum_subsets_at_least`] is the pseudo-polynomial sparse DP
//!   for **sum-decomposable** objectives (`F_mono` always; `F_MS` at
//!   `λ = 0`) — the algorithmic substance of Theorem 7.5's #SSPk
//!   connection. Complexity is `O(n · k · |distinct reachable sums|)`;
//!   #P-hardness manifests as the reachable-sum count exploding on
//!   adversarial weights, while workload-style instances stay small.
//!   (The theorem's Turing-reduction trick — `#{F = B}` as the
//!   difference of two `≥`-threshold counts — is exercised end to end
//!   by `divr_reductions::sspk_rdc`.)

use crate::combin::for_each_k_subset;
use crate::problem::{DiversityProblem, ObjectiveKind};
use crate::ratio::Ratio;
use crate::solvers::exact::Engine;
use std::collections::HashMap;

/// **RDC**: counts candidate sets with `F(U) ≥ B` (exact, pruned search).
pub fn rdc(p: &DiversityProblem<'_>, kind: ObjectiveKind, bound: Ratio) -> u128 {
    Engine::new(p, kind).count_above(bound, false, None)
}

/// Unpruned enumeration counter, for differential testing of the pruned
/// engine.
pub fn rdc_naive(p: &DiversityProblem<'_>, kind: ObjectiveKind, bound: Ratio) -> u128 {
    let mut count = 0u128;
    for_each_k_subset(p.n(), p.k(), |s| {
        if p.objective(kind, s) >= bound {
            count += 1;
        }
        true
    });
    count
}

/// Counts `k`-subsets of `scores` whose sum is `≥ bound`, by sparse DP
/// over `(cardinality, reachable sum)`.
pub fn count_sum_subsets_at_least(scores: &[Ratio], k: usize, bound: Ratio) -> u128 {
    if k > scores.len() {
        return 0;
    }
    // dp[c][s] = number of c-subsets of the processed prefix summing to s.
    let mut dp: Vec<HashMap<Ratio, u128>> = vec![HashMap::new(); k + 1];
    dp[0].insert(Ratio::ZERO, 1);
    for &x in scores {
        for c in (1..=k).rev() {
            let updates: Vec<(Ratio, u128)> = dp[c - 1]
                .iter()
                .map(|(&s, &cnt)| (s + x, cnt))
                .collect();
            for (s, cnt) in updates {
                *dp[c].entry(s).or_insert(0) += cnt;
            }
        }
    }
    dp[k]
        .iter()
        .filter(|(&s, _)| s >= bound)
        .map(|(_, &cnt)| cnt)
        .sum()
}

/// **RDC(·, F_mono)** via the sum-decomposition DP.
pub fn rdc_mono_dp(p: &DiversityProblem<'_>, bound: Ratio) -> u128 {
    count_sum_subsets_at_least(&p.mono_item_scores(), p.k(), bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::TableDistance;
    use crate::relevance::TableRelevance;
    use divr_relquery::Tuple;

    fn instance(n: i64, lambda: Ratio, k: usize) -> (Vec<Tuple>, TableRelevance, TableDistance, usize, Ratio) {
        let universe: Vec<Tuple> = (0..n).map(|i| Tuple::ints([i])).collect();
        let mut rel = TableRelevance::with_default(Ratio::ZERO);
        let mut dis = TableDistance::with_default(Ratio::ZERO);
        let mut state: i64 = 7;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33).rem_euclid(4)
        };
        for i in 0..n {
            rel.set(Tuple::ints([i]), Ratio::int(next()));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                dis.set(Tuple::ints([i]), Tuple::ints([j]), Ratio::int(next()));
            }
        }
        (universe, rel, dis, k, lambda)
    }

    #[test]
    fn pruned_counter_matches_naive() {
        for lambda in [Ratio::ZERO, Ratio::new(1, 2), Ratio::ONE] {
            let (u, rel, dis, k, _) = instance(8, lambda, 3);
            let p = DiversityProblem::new(u, &rel, &dis, lambda, k);
            for kind in ObjectiveKind::ALL {
                for b in 0..12 {
                    let bound = Ratio::int(b);
                    assert_eq!(
                        rdc(&p, kind, bound),
                        rdc_naive(&p, kind, bound),
                        "{kind} λ={lambda} B={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn dp_matches_enumeration_for_mono() {
        for lambda in [Ratio::ZERO, Ratio::new(1, 3), Ratio::ONE] {
            let (u, rel, dis, k, _) = instance(9, lambda, 4);
            let p = DiversityProblem::new(u, &rel, &dis, lambda, k);
            for b in 0..10 {
                let bound = Ratio::new(b, 2);
                assert_eq!(
                    rdc_mono_dp(&p, bound),
                    rdc_naive(&p, ObjectiveKind::Mono, bound),
                    "λ={lambda} B={bound}"
                );
            }
        }
    }

    #[test]
    fn sum_dp_basics() {
        let scores = vec![Ratio::int(1), Ratio::int(2), Ratio::int(3)];
        // 2-subsets: sums 3, 4, 5.
        assert_eq!(count_sum_subsets_at_least(&scores, 2, Ratio::int(4)), 2);
        assert_eq!(count_sum_subsets_at_least(&scores, 2, Ratio::int(6)), 0);
        assert_eq!(count_sum_subsets_at_least(&scores, 2, Ratio::ZERO), 3);
        assert_eq!(count_sum_subsets_at_least(&scores, 4, Ratio::ZERO), 0);
    }

    #[test]
    fn sum_dp_with_rational_scores() {
        let scores = vec![Ratio::new(1, 2), Ratio::new(1, 3), Ratio::new(1, 6)];
        // 2-subsets: 5/6, 2/3, 1/2.
        assert_eq!(
            count_sum_subsets_at_least(&scores, 2, Ratio::new(2, 3)),
            2
        );
    }

    #[test]
    fn zero_bound_counts_all_candidate_sets() {
        let (u, rel, dis, k, lambda) = instance(6, Ratio::new(1, 2), 2);
        let p = DiversityProblem::new(u, &rel, &dis, lambda, k);
        assert_eq!(
            rdc(&p, ObjectiveKind::Mono, Ratio::ZERO),
            crate::combin::binomial(6, 2)
        );
    }
}
