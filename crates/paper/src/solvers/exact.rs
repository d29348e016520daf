//! Exact solvers for QRD, DRP and (via [`super::counting`]) RDC — the
//! implementable faces of the paper's NP/PSPACE guess-and-check upper
//! bounds.
//!
//! The paper's upper-bound algorithms "guess a set U of k tuples, then
//! check `U ⊆ Q(D)` and `F(U) ≥ B`". Deterministically that is a search
//! over k-subsets of the materialized universe; we add admissible
//! branch-and-bound pruning:
//!
//! * `F_MM` is **monotone non-increasing** under insertion (both minima can
//!   only drop), so a partial set already below the target closes its
//!   subtree;
//! * `F_MS` and `F_mono` admit optimistic completions using the global
//!   maximum relevance / pair distance / item score.
//!
//! The search remains exponential in `k` in the worst case — necessarily
//! so, per the paper's NP-/#P-hardness results (Theorems 5.4, 6.4, 7.4);
//! the point of these implementations is that they are *exact* oracles
//! for cross-validating reductions and tractable-case algorithms.

use divr_core::problem::{DiversityProblem, ObjectiveKind};
use divr_core::ratio::Ratio;

/// Don't scan all pairs for the distance bound beyond this universe size;
/// pruning for distance-dependent objectives is skipped instead.
const PAIR_SCAN_LIMIT: usize = 600;

/// Incremental state of a partial candidate set.
#[derive(Clone, Copy)]
struct PartialState {
    rel_sum: Ratio,
    /// Sum over unordered chosen pairs.
    dis_sum: Ratio,
    min_rel: Option<Ratio>,
    min_dis: Option<Ratio>,
    mono_sum: Ratio,
}

impl PartialState {
    fn empty() -> Self {
        PartialState {
            rel_sum: Ratio::ZERO,
            dis_sum: Ratio::ZERO,
            min_rel: None,
            min_dis: None,
            mono_sum: Ratio::ZERO,
        }
    }
}

pub(crate) struct Engine<'p, 'a> {
    p: &'p DiversityProblem<'a>,
    kind: ObjectiveKind,
    max_rel: Ratio,
    /// `None` = unknown (universe too large to scan); disables pruning for
    /// distance-dependent bounds.
    max_dis: Option<Ratio>,
    mono_scores: Vec<Ratio>,
    max_mono: Ratio,
}

impl<'p, 'a> Engine<'p, 'a> {
    pub(crate) fn new(p: &'p DiversityProblem<'a>, kind: ObjectiveKind) -> Self {
        let n = p.n();
        let max_rel = (0..n).map(|i| p.rel_of(i)).max().unwrap_or(Ratio::ZERO);
        let needs_dis = matches!(kind, ObjectiveKind::MaxSum | ObjectiveKind::MaxMin)
            && !p.lambda().is_zero();
        let max_dis = if needs_dis && n <= PAIR_SCAN_LIMIT {
            let mut m = Ratio::ZERO;
            for i in 0..n {
                for j in i + 1..n {
                    m = m.max(p.dist_of(i, j));
                }
            }
            Some(m)
        } else if !needs_dis {
            Some(Ratio::ZERO) // unused in bounds
        } else {
            None
        };
        let (mono_scores, max_mono) = if kind == ObjectiveKind::Mono {
            let scores = p.mono_item_scores();
            let mx = scores.iter().copied().max().unwrap_or(Ratio::ZERO);
            (scores, mx)
        } else {
            (Vec::new(), Ratio::ZERO)
        };
        Engine {
            p,
            kind,
            max_rel,
            max_dis,
            mono_scores,
            max_mono,
        }
    }

    fn add(&self, st: &PartialState, chosen: &[usize], j: usize) -> PartialState {
        let mut new = *st;
        let rel_j = self.p.rel_of(j);
        new.rel_sum += rel_j;
        new.min_rel = Some(match st.min_rel {
            Some(m) => m.min(rel_j),
            None => rel_j,
        });
        match self.kind {
            ObjectiveKind::MaxSum | ObjectiveKind::MaxMin => {
                for &i in chosen {
                    let d = self.p.dist_of(i, j);
                    new.dis_sum += d;
                    new.min_dis = Some(match new.min_dis {
                        Some(m) => m.min(d),
                        None => d,
                    });
                }
            }
            ObjectiveKind::Mono => {
                new.mono_sum += self.mono_scores[j];
            }
        }
        new
    }

    /// The objective value of a complete set from its state.
    fn value(&self, st: &PartialState, size: usize) -> Ratio {
        let lambda = self.p.lambda();
        let one_minus = Ratio::ONE - lambda;
        match self.kind {
            ObjectiveKind::MaxSum => {
                one_minus.scale(size as i64 - 1) * st.rel_sum + lambda * st.dis_sum.scale(2)
            }
            ObjectiveKind::MaxMin => {
                one_minus * st.min_rel.unwrap_or(Ratio::ZERO)
                    + lambda * st.min_dis.unwrap_or(Ratio::ZERO)
            }
            ObjectiveKind::Mono => st.mono_sum,
        }
    }

    /// Admissible upper bound on the objective of any completion of a
    /// partial set of size `m` to size `k`. `None` means "cannot bound".
    fn upper_bound(&self, st: &PartialState, m: usize) -> Option<Ratio> {
        let k = self.p.k();
        let lambda = self.p.lambda();
        let one_minus = Ratio::ONE - lambda;
        let remaining = (k - m) as i64;
        match self.kind {
            ObjectiveKind::MaxSum => {
                let max_dis = if lambda.is_zero() {
                    Ratio::ZERO
                } else {
                    self.max_dis?
                };
                let rel_part = one_minus.scale(k as i64 - 1)
                    * (st.rel_sum + self.max_rel.scale(remaining));
                let pairs = |x: usize| -> i64 {
                    let x = x as i64;
                    x * (x - 1) / 2
                };
                let pairs_total = pairs(k);
                let pairs_now = pairs(m);
                let dis_part = lambda
                    * (st.dis_sum + max_dis.scale(pairs_total - pairs_now)).scale(2);
                Some(rel_part + dis_part)
            }
            ObjectiveKind::MaxMin => {
                let rel_bound = st.min_rel.unwrap_or(self.max_rel);
                let dis_bound = match st.min_dis {
                    Some(d) => d,
                    None => {
                        if lambda.is_zero() || k < 2 {
                            Ratio::ZERO
                        } else {
                            self.max_dis?
                        }
                    }
                };
                Some(one_minus * rel_bound + lambda * dis_bound)
            }
            ObjectiveKind::Mono => Some(st.mono_sum + self.max_mono.scale(remaining)),
        }
    }

    /// Counts candidate sets whose objective is `≥ threshold` (or
    /// `> threshold` when `strict`), stopping early once the count exceeds
    /// `stop_after` (if given). Returns the (possibly truncated) count.
    pub(crate) fn count_above(
        &self,
        threshold: Ratio,
        strict: bool,
        stop_after: Option<u128>,
    ) -> u128 {
        let k = self.p.k();
        if k > self.p.n() {
            return 0;
        }
        let mut count: u128 = 0;
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        self.count_rec(
            0,
            &mut chosen,
            PartialState::empty(),
            threshold,
            strict,
            stop_after,
            &mut count,
        );
        count
    }

    #[allow(clippy::too_many_arguments)]
    fn count_rec(
        &self,
        start: usize,
        chosen: &mut Vec<usize>,
        st: PartialState,
        threshold: Ratio,
        strict: bool,
        stop_after: Option<u128>,
        count: &mut u128,
    ) -> bool {
        let k = self.p.k();
        let m = chosen.len();
        if m == k {
            let v = self.value(&st, k);
            let ok = if strict { v > threshold } else { v >= threshold };
            if ok {
                *count += 1;
                if let Some(limit) = stop_after {
                    if *count > limit {
                        return false;
                    }
                }
            }
            return true;
        }
        // Pruning: no completion can reach the threshold.
        if let Some(ub) = self.upper_bound(&st, m) {
            let dead = if strict { ub <= threshold } else { ub < threshold };
            if dead {
                return true;
            }
        }
        let n = self.p.n();
        // Feasibility: enough items left?
        for j in start..=(n - (k - m)) {
            let new_st = self.add(&st, chosen, j);
            chosen.push(j);
            let keep_going = self.count_rec(
                j + 1,
                chosen,
                new_st,
                threshold,
                strict,
                stop_after,
                count,
            );
            chosen.pop();
            if !keep_going {
                return false;
            }
        }
        true
    }

    /// Finds a candidate set maximizing the objective.
    pub(crate) fn maximize(&self) -> Option<(Ratio, Vec<usize>)> {
        let k = self.p.k();
        if k > self.p.n() {
            return None;
        }
        let mut best: Option<(Ratio, Vec<usize>)> = None;
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        self.max_rec(0, &mut chosen, PartialState::empty(), &mut best);
        best
    }

    fn max_rec(
        &self,
        start: usize,
        chosen: &mut Vec<usize>,
        st: PartialState,
        best: &mut Option<(Ratio, Vec<usize>)>,
    ) {
        let k = self.p.k();
        let m = chosen.len();
        if m == k {
            let v = self.value(&st, k);
            if best.as_ref().is_none_or(|(b, _)| v > *b) {
                *best = Some((v, chosen.clone()));
            }
            return;
        }
        if let (Some(ub), Some((b, _))) = (self.upper_bound(&st, m), best.as_ref()) {
            if ub <= *b {
                return;
            }
        }
        let n = self.p.n();
        for j in start..=(n - (k - m)) {
            let new_st = self.add(&st, chosen, j);
            chosen.push(j);
            self.max_rec(j + 1, chosen, new_st, best);
            chosen.pop();
        }
    }
}

/// Computes a candidate set with maximum objective value, or `None` when
/// `|Q(D)| < k` (no candidate set exists).
pub fn maximize(p: &DiversityProblem<'_>, kind: ObjectiveKind) -> Option<(Ratio, Vec<usize>)> {
    Engine::new(p, kind).maximize()
}

/// **QRD**: does a valid set exist, i.e. a candidate set `U` with
/// `F(U) ≥ B`?
pub fn qrd(p: &DiversityProblem<'_>, kind: ObjectiveKind, bound: Ratio) -> bool {
    Engine::new(p, kind).count_above(bound, false, Some(0)) > 0
}

/// The rank of a candidate set: `1 + #{S : F(S) > F(U)}` (Section 4.1).
pub fn rank_of(p: &DiversityProblem<'_>, kind: ObjectiveKind, subset: &[usize]) -> u128 {
    let target = p.objective(kind, subset);
    1 + Engine::new(p, kind).count_above(target, true, None)
}

/// **DRP**: is `rank(U) ≤ r`? Early-exits after finding `r` strictly
/// better sets.
pub fn drp(p: &DiversityProblem<'_>, kind: ObjectiveKind, subset: &[usize], r: u128) -> bool {
    assert!(r >= 1, "rank threshold must be positive");
    let target = p.objective(kind, subset);
    let better = Engine::new(p, kind).count_above(target, true, Some(r - 1));
    better < r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combin::for_each_k_subset;
    use divr_core::distance::{Distance, TableDistance};
    use divr_core::relevance::{Relevance, TableRelevance};
    use divr_relquery::Tuple;

    /// A small deterministic pseudo-random instance.
    fn instance(n: i64, k: usize, lambda: Ratio) -> (Vec<Tuple>, TableRelevance, TableDistance) {
        let universe: Vec<Tuple> = (0..n).map(|i| Tuple::ints([i])).collect();
        let mut rel = TableRelevance::with_default(Ratio::ZERO);
        let mut dis = TableDistance::with_default(Ratio::ZERO);
        // LCG-ish deterministic values.
        let mut state: i64 = 12345;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33).rem_euclid(7)
        };
        for i in 0..n {
            rel.set(Tuple::ints([i]), Ratio::int(next()));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                dis.set(Tuple::ints([i]), Tuple::ints([j]), Ratio::int(next()));
            }
        }
        let _ = k;
        let _ = lambda;
        (universe, rel, dis)
    }

    fn brute_force_max(p: &DiversityProblem<'_>, kind: ObjectiveKind) -> Option<Ratio> {
        let mut best: Option<Ratio> = None;
        for_each_k_subset(p.n(), p.k(), |s| {
            let v = p.objective(kind, s);
            if best.is_none() || v > best.unwrap() {
                best = Some(v);
            }
            true
        });
        best
    }

    fn brute_force_count(
        p: &DiversityProblem<'_>,
        kind: ObjectiveKind,
        b: Ratio,
        strict: bool,
    ) -> u128 {
        let mut c = 0u128;
        for_each_k_subset(p.n(), p.k(), |s| {
            let v = p.objective(kind, s);
            if (strict && v > b) || (!strict && v >= b) {
                c += 1;
            }
            true
        });
        c
    }

    #[test]
    fn maximize_matches_brute_force_all_kinds() {
        for lambda in [Ratio::ZERO, Ratio::new(1, 2), Ratio::ONE] {
            let (universe, rel, dis) = instance(8, 3, lambda);
            let p = DiversityProblem::new(universe, &rel, &dis, lambda, 3);
            for kind in ObjectiveKind::ALL {
                let (v, s) = maximize(&p, kind).unwrap();
                assert_eq!(Some(v), brute_force_max(&p, kind), "{kind} λ={lambda}");
                assert_eq!(p.objective(kind, &s), v);
                assert_eq!(s.len(), 3);
            }
        }
    }

    #[test]
    fn qrd_thresholds() {
        let lambda = Ratio::new(1, 2);
        let (universe, rel, dis) = instance(7, 3, lambda);
        let p = DiversityProblem::new(universe, &rel, &dis, lambda, 3);
        for kind in ObjectiveKind::ALL {
            let best = brute_force_max(&p, kind).unwrap();
            assert!(qrd(&p, kind, best), "{kind} at optimum");
            assert!(!qrd(&p, kind, best + Ratio::new(1, 1000)), "{kind} above optimum");
            assert!(qrd(&p, kind, Ratio::ZERO), "{kind} at zero");
        }
    }

    #[test]
    fn qrd_false_when_no_candidate_set() {
        let (universe, rel, dis) = instance(2, 3, Ratio::ONE);
        let p = DiversityProblem::new(universe, &rel, &dis, Ratio::ONE, 3);
        assert!(!qrd(&p, ObjectiveKind::MaxSum, Ratio::ZERO));
    }

    #[test]
    fn rank_and_drp_match_brute_force() {
        let lambda = Ratio::new(1, 3);
        let (universe, rel, dis) = instance(7, 3, lambda);
        let p = DiversityProblem::new(universe, &rel, &dis, lambda, 3);
        for kind in ObjectiveKind::ALL {
            // Evaluate the rank of a few specific candidate sets.
            for subset in [vec![0, 1, 2], vec![1, 3, 5], vec![4, 5, 6]] {
                let target = p.objective(kind, &subset);
                let better = brute_force_count(&p, kind, target, true);
                assert_eq!(rank_of(&p, kind, &subset), better + 1, "{kind} {subset:?}");
                for r in 1..=5u128 {
                    assert_eq!(
                        drp(&p, kind, &subset, r),
                        better < r,
                        "{kind} {subset:?} r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn top_ranked_set_has_rank_one() {
        let lambda = Ratio::new(2, 3);
        let (universe, rel, dis) = instance(6, 2, lambda);
        let p = DiversityProblem::new(universe, &rel, &dis, lambda, 2);
        for kind in ObjectiveKind::ALL {
            let (_, best) = maximize(&p, kind).unwrap();
            assert_eq!(rank_of(&p, kind, &best), 1, "{kind}");
            assert!(drp(&p, kind, &best, 1), "{kind}");
        }
    }

    #[test]
    fn pruning_disabled_beyond_pair_scan_limit_still_correct() {
        // A universe bigger than PAIR_SCAN_LIMIT with tiny k: pruning for
        // distance bounds is off, results must still be exact.
        let universe: Vec<Tuple> = (0..(PAIR_SCAN_LIMIT as i64 + 10)).map(|i| Tuple::ints([i])).collect();
        struct R;
        impl Relevance for R {
            fn rel(&self, t: &Tuple) -> Ratio {
                Ratio::int(t[0].as_int().unwrap() % 5)
            }
        }
        struct D;
        impl Distance for D {
            fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
                if a == b {
                    Ratio::ZERO
                } else {
                    Ratio::int((a[0].as_int().unwrap() - b[0].as_int().unwrap()).abs() % 3)
                }
            }
        }
        let p = DiversityProblem::new(universe, &R, &D, Ratio::new(1, 2), 1);
        // k = 1: F_MM = (1−λ)·rel; max rel = 4 → 2.
        let (v, _) = maximize(&p, ObjectiveKind::MaxMin).unwrap();
        assert_eq!(v, Ratio::int(2));
    }

    #[test]
    fn counting_with_early_stop_truncates() {
        let (universe, rel, dis) = instance(8, 2, Ratio::ONE);
        let p = DiversityProblem::new(universe, &rel, &dis, Ratio::ONE, 2);
        let eng = Engine::new(&p, ObjectiveKind::MaxSum);
        let full = eng.count_above(Ratio::ZERO, false, None);
        assert_eq!(full, crate::combin::binomial(8, 2));
        let truncated = eng.count_above(Ratio::ZERO, false, Some(3));
        assert_eq!(truncated, 4); // stops as soon as count exceeds 3
    }
}
