//! Polynomial-time algorithms for the mono-objective formulation — the
//! tractable column of Table I (data complexity).
//!
//! `F_mono(U) = Σ_{t∈U} v(t)` decomposes into per-item scores, so:
//!
//! * **QRD(·, F_mono)** (Theorem 5.4): compute `v(t)` for every
//!   `t ∈ Q(D)`, take the `k` largest, compare the sum against `B`.
//! * **DRP(·, F_mono)** (Theorem 6.4): enumerate the top-`r` candidate
//!   sets. The paper's `FindNext` procedure expands the current top-`l`
//!   collection by one-tuple replacements `t → s` with `v(s) ≤ v(t)`;
//!   we realize the same successor relation as a best-first search over
//!   "shift one chosen rank to the next rank" moves on the score-sorted
//!   universe ([`top_r_sets_by_sum`]) — a Lawler-style k-best scheme that
//!   visits candidate sets in non-increasing `F_mono` order in
//!   `O(r·k·log r)` heap operations after the `O(n log n)` sort.
//!
//! Both run in PTIME for fixed queries; with `r` in the input in binary
//! the DRP algorithm is pseudo-polynomial, exactly as the paper remarks
//! after Theorem 6.4.

use divr_core::problem::DiversityProblem;
use divr_core::ratio::Ratio;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// **QRD(L_Q, F_mono)** — the Theorem 5.4 PTIME algorithm. Returns whether
/// a candidate set with `F_mono(U) ≥ B` exists.
pub fn qrd_mono(p: &DiversityProblem<'_>, bound: Ratio) -> bool {
    match max_mono(p) {
        Some((best, _)) => best >= bound,
        None => false,
    }
}

/// The top-1 candidate set under `F_mono`: the `k` items with the largest
/// scores `v(t)` (steps 1–4 of the Theorem 5.4 algorithm).
pub fn max_mono(p: &DiversityProblem<'_>) -> Option<(Ratio, Vec<usize>)> {
    if p.n() < p.k() {
        return None;
    }
    let scores = p.mono_item_scores();
    let mut order: Vec<usize> = (0..p.n()).collect();
    // Sort by score descending; ties by index for determinism.
    order.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
    let mut subset: Vec<usize> = order[..p.k()].to_vec();
    subset.sort_unstable();
    let value = subset.iter().map(|&i| scores[i]).sum();
    Some((value, subset))
}

/// A candidate set in the best-first frontier: ranks into the score-sorted
/// order.
#[derive(PartialEq, Eq)]
struct FrontierSet {
    value: Ratio,
    /// Sorted positions in the score-descending order of the universe.
    ranks: Vec<usize>,
}

impl Ord for FrontierSet {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by value; deterministic tie-break on ranks
        // (lexicographically smaller rank vector first).
        self.value
            .cmp(&other.value)
            .then_with(|| other.ranks.cmp(&self.ranks))
    }
}

impl PartialOrd for FrontierSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Enumerates the `r` best k-subsets of `scores` by sum, in non-increasing
/// order of value. Returns `(value, sorted original indices)` pairs; fewer
/// than `r` if fewer candidate sets exist.
///
/// This is the paper's `FindNext` successor relation (one-tuple
/// replacement by a no-better item) driven by a priority queue.
pub fn top_r_sets_by_sum(scores: &[Ratio], k: usize, r: usize) -> Vec<(Ratio, Vec<usize>)> {
    let n = scores.len();
    if k > n || r == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| scores[b].cmp(&scores[a]).then(a.cmp(&b)));
    let sorted_scores: Vec<Ratio> = order.iter().map(|&i| scores[i]).collect();

    let initial_ranks: Vec<usize> = (0..k).collect();
    let initial_value: Ratio = sorted_scores[..k].iter().copied().sum();
    let mut heap = BinaryHeap::new();
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    seen.insert(initial_ranks.clone());
    heap.push(FrontierSet {
        value: initial_value,
        ranks: initial_ranks,
    });

    let mut out = Vec::with_capacity(r);
    while let Some(FrontierSet { value, ranks }) = heap.pop() {
        // Emit.
        let mut original: Vec<usize> = ranks.iter().map(|&p_| order[p_]).collect();
        original.sort_unstable();
        out.push((value, original));
        if out.len() == r {
            break;
        }
        // Successors: shift one chosen rank to the next free rank.
        for i in 0..k {
            let pos = ranks[i];
            let next = pos + 1;
            if next >= n || ranks.binary_search(&next).is_ok() {
                continue;
            }
            let mut succ = ranks.clone();
            succ[i] = next; // stays sorted: next < ranks[i+1] (else it'd be chosen)
            if seen.insert(succ.clone()) {
                let succ_value = value - sorted_scores[pos] + sorted_scores[next];
                heap.push(FrontierSet {
                    value: succ_value,
                    ranks: succ,
                });
            }
        }
    }
    out
}

/// The top-`r` candidate sets under `F_mono`, best first.
pub(crate) fn top_r_mono_sets(p: &DiversityProblem<'_>, r: usize) -> Vec<(Ratio, Vec<usize>)> {
    top_r_sets_by_sum(&p.mono_item_scores(), p.k(), r)
}

/// **DRP(L_Q, F_mono)** — the Theorem 6.4 PTIME algorithm: is
/// `rank(U) ≤ r`, i.e. are there at most `r − 1` candidate sets with a
/// strictly larger `F_mono` value?
///
/// Panics if `subset` is not a candidate set (wrong size).
pub fn drp_mono(p: &DiversityProblem<'_>, subset: &[usize], r: usize) -> bool {
    assert!(r >= 1, "rank threshold must be positive");
    assert_eq!(subset.len(), p.k(), "candidate set must have k elements");
    let target = p.f_mono(subset);
    let top = top_r_mono_sets(p, r);
    if top.len() < r {
        // Fewer than r candidate sets exist in total, so fewer than r can
        // rank above U.
        return true;
    }
    // The r-th best value: if it exceeds F(U), at least r sets beat U.
    top[r - 1].0 <= target
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combin::for_each_k_subset;
    use crate::solvers::exact;
    use divr_core::distance::TableDistance;
    use divr_core::problem::ObjectiveKind;
    use divr_core::relevance::TableRelevance;
    use divr_relquery::Tuple;

    fn instance(
        n: i64,
        lambda: Ratio,
        k: usize,
    ) -> (Vec<Tuple>, TableRelevance, TableDistance, usize, Ratio) {
        let universe: Vec<Tuple> = (0..n).map(|i| Tuple::ints([i])).collect();
        let mut rel = TableRelevance::with_default(Ratio::ZERO);
        let mut dis = TableDistance::with_default(Ratio::ZERO);
        let mut state: i64 = 99;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33).rem_euclid(5)
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
    fn qrd_mono_matches_exact_search() {
        let (u, rel, dis, k, lambda) = instance(8, Ratio::new(1, 2), 3);
        let p = DiversityProblem::new(u, &rel, &dis, lambda, k);
        let (best, set) = max_mono(&p).unwrap();
        let (exact_best, _) = exact::maximize(&p, ObjectiveKind::Mono).unwrap();
        assert_eq!(best, exact_best);
        assert_eq!(p.f_mono(&set), best);
        assert!(qrd_mono(&p, best));
        assert!(!qrd_mono(&p, best + Ratio::new(1, 100)));
    }

    #[test]
    fn qrd_mono_no_candidates() {
        let (u, rel, dis, _, lambda) = instance(2, Ratio::ONE, 3);
        let p = DiversityProblem::new(u, &rel, &dis, lambda, 3);
        assert!(!qrd_mono(&p, Ratio::ZERO));
    }

    #[test]
    fn top_r_sets_ordered_and_complete() {
        let scores = vec![
            Ratio::int(5),
            Ratio::int(3),
            Ratio::int(3),
            Ratio::int(1),
            Ratio::int(0),
        ];
        let all = top_r_sets_by_sum(&scores, 2, 100);
        // C(5,2) = 10 sets total.
        assert_eq!(all.len(), 10);
        // Non-increasing values.
        for w in all.windows(2) {
            assert!(w[0].0 >= w[1].0);
        }
        // Best is {0,1} or {0,2} with value 8.
        assert_eq!(all[0].0, Ratio::int(8));
        assert_eq!(all[1].0, Ratio::int(8));
        // No duplicates.
        let mut sets: Vec<&Vec<usize>> = all.iter().map(|(_, s)| s).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), 10);
    }

    #[test]
    fn top_r_matches_brute_force_ordering() {
        let scores = vec![
            Ratio::new(7, 2),
            Ratio::int(2),
            Ratio::new(7, 2),
            Ratio::int(4),
            Ratio::int(1),
            Ratio::int(2),
        ];
        let k = 3;
        let mut brute: Vec<Ratio> = Vec::new();
        for_each_k_subset(scores.len(), k, |s| {
            brute.push(s.iter().map(|&i| scores[i]).sum());
            true
        });
        brute.sort_by(|a, b| b.cmp(a));
        let got = top_r_sets_by_sum(&scores, k, brute.len());
        let got_values: Vec<Ratio> = got.iter().map(|(v, _)| *v).collect();
        assert_eq!(got_values, brute);
    }

    #[test]
    fn drp_mono_agrees_with_exact_drp() {
        let (u, rel, dis, k, lambda) = instance(7, Ratio::new(2, 3), 3);
        let p = DiversityProblem::new(u, &rel, &dis, lambda, k);
        for subset in [vec![0, 1, 2], vec![2, 4, 6], vec![0, 3, 5]] {
            for r in 1..=6 {
                assert_eq!(
                    drp_mono(&p, &subset, r),
                    exact::drp(&p, ObjectiveKind::Mono, &subset, r as u128),
                    "subset={subset:?} r={r}"
                );
            }
        }
    }

    #[test]
    fn drp_mono_with_fewer_sets_than_r() {
        let (u, rel, dis, _, lambda) = instance(3, Ratio::ZERO, 3);
        let p = DiversityProblem::new(u, &rel, &dis, lambda, 3);
        // Only one candidate set exists.
        assert!(drp_mono(&p, &[0, 1, 2], 1));
        assert!(drp_mono(&p, &[0, 1, 2], 5));
    }

    #[test]
    fn top_r_handles_k_greater_than_n() {
        assert!(top_r_sets_by_sum(&[Ratio::ONE], 2, 3).is_empty());
    }

    #[test]
    fn best_first_emission_respects_rank_semantics() {
        // With heavy ties, the r-th value must still be the r-th largest
        // multiset value.
        let scores = vec![Ratio::ONE; 5];
        let top = top_r_sets_by_sum(&scores, 2, 4);
        assert_eq!(top.len(), 4);
        assert!(top.iter().all(|(v, _)| *v == Ratio::int(2)));
    }
}
