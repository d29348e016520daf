//! Facility-dispersion problems (Prokopyev, Kong & Martinez-Torres 2009)
//! and their equivalences with the paper's objectives.
//!
//! Section 3.2 of the paper observes that, for identity queries,
//! max-sum diversification *is* the (max-sum) **Dispersion Problem** and
//! max-min diversification can be expressed as the **Maxmin Dispersion
//! Problem**; the Impact discussion further draws the analogy between
//! `δ_rel` and "sorting with a target weight" and `δ_dis` and
//! "partitioning with dispersed objects" from the equitable-dispersion
//! family. This module makes those statements executable:
//!
//! * [`Dispersion`] — an edge-weighted instance with the variants of
//!   the equitable-dispersion family ([`DispersionVariant`]): Max-Sum,
//!   Max-Min, Max-MinSum, Min-DiffSum;
//! * [`Dispersion::from_max_sum`] — the exact Gollapudi–Sharma pair-
//!   weight bridge: `w(i,j) = (1−λ)(δ_rel(i)+δ_rel(j)) + 2λ·δ_dis(i,j)`
//!   satisfies `F_MS(U) = Σ_{{i,j}⊆U} w(i,j)` for every candidate set;
//! * [`Dispersion::from_max_min`] — the max-min bridge
//!   `w(i,j) = (1−λ)·min(δ_rel) + λ·δ_dis(i,j)`, a pointwise **upper
//!   bound** on `F_MM` that is exact at the paper's two extreme cases
//!   `λ = 0` and `λ = 1` (the minima of relevance and distance need not
//!   be attained by the same pair in between);
//! * brute-force optimizers for every variant (the paper's problems are
//!   NP-hard here too) and the classical greedy pair heuristic for
//!   max-sum dispersion.

use crate::combin::for_each_k_subset;
use divr_core::problem::DiversityProblem;
use divr_core::ratio::Ratio;
use std::fmt;

/// The equitable-dispersion objective family of Prokopyev et al.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DispersionVariant {
    /// Maximize `Σ_{{i,j}⊆M} w(i,j)`.
    MaxSum,
    /// Maximize `min_{{i,j}⊆M} w(i,j)`.
    MaxMin,
    /// Maximize the smallest node aggregate
    /// `min_{i∈M} Σ_{j∈M} w(i,j)`.
    MaxMinSum,
    /// Minimize the spread of node aggregates
    /// `max_i (…) − min_i (…)` — the *equitable* objective.
    MinDiffSum,
}

impl DispersionVariant {
    /// Whether the variant is a maximization (else minimization).
    fn is_max(self) -> bool {
        !matches!(self, DispersionVariant::MinDiffSum)
    }
}

impl fmt::Display for DispersionVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DispersionVariant::MaxSum => "Max-Sum",
            DispersionVariant::MaxMin => "Max-Min",
            DispersionVariant::MaxMinSum => "Max-MinSum",
            DispersionVariant::MinDiffSum => "Min-DiffSum",
        };
        write!(f, "{s}")
    }
}

/// A dispersion instance: `n` nodes with symmetric pair weights
/// `w(i,j)` (zero diagonal). Prokopyev et al.'s node weights `a_i` are
/// left out: both of the paper's bridges set them to zero.
///
/// # Example
///
/// ```
/// use divr_paper::dispersion::{Dispersion, DispersionVariant};
/// use divr_core::prelude::*;
/// use divr_relquery::Tuple;
///
/// // Three points on a line at 0, 5 and 8, scored by distance alone
/// // (λ = 1), so `w(i, j) = |x_i − x_j|`.
/// let universe = vec![Tuple::ints([0]), Tuple::ints([5]), Tuple::ints([8])];
/// let dis = NumericDistance { attr: 0, fallback: Ratio::ZERO };
/// let p = DiversityProblem::new(universe, &ConstantRelevance(Ratio::ZERO), &dis, Ratio::ONE, 2);
/// let d = Dispersion::from_max_min(&p);
/// // Best 2-subset under Max-Sum: the heaviest edge.
/// let (value, set) = d.brute_force(DispersionVariant::MaxSum, 2).unwrap();
/// assert_eq!((value, set), (Ratio::int(8), vec![0, 2]));
/// // Under Max-Min with 3 nodes, the weakest pair decides.
/// assert_eq!(d.value(DispersionVariant::MaxMin, &[0, 1, 2]), Ratio::int(3));
/// ```
#[derive(Clone, Debug)]
pub struct Dispersion {
    n: usize,
    /// Strict upper triangle, row-major: entry for `(i, j)` with `i < j`
    /// at `index(i, j)`.
    edge: Vec<Ratio>,
}

impl Dispersion {
    /// Creates an instance with all weights zero.
    pub(crate) fn new(n: usize) -> Self {
        Dispersion {
            n,
            edge: vec![Ratio::ZERO; n * (n.saturating_sub(1)) / 2],
        }
    }

    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // Offset of row i in the packed strict upper triangle.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Sets a pair weight (order-insensitive). Panics on the diagonal.
    pub(crate) fn set_edge(&mut self, i: usize, j: usize, w: Ratio) -> &mut Self {
        assert!(i != j, "dispersion weights live on pairs");
        let (i, j) = (i.min(j), i.max(j));
        let idx = self.index(i, j);
        self.edge[idx] = w;
        self
    }

    /// The pair weight `w(i, j)`; 0 on the diagonal.
    fn edge_weight(&self, i: usize, j: usize) -> Ratio {
        if i == j {
            return Ratio::ZERO;
        }
        let (i, j) = (i.min(j), i.max(j));
        self.edge[self.index(i, j)]
    }

    /// The node aggregate `Σ_{j∈M} w(i, j)` for `i ∈ M`.
    fn aggregate(&self, i: usize, subset: &[usize]) -> Ratio {
        subset.iter().map(|&j| self.edge_weight(i, j)).sum()
    }

    /// The objective value of `subset` under `variant`.
    pub fn value(&self, variant: DispersionVariant, subset: &[usize]) -> Ratio {
        match variant {
            DispersionVariant::MaxSum => {
                let mut edges = Ratio::ZERO;
                for (a, &i) in subset.iter().enumerate() {
                    for &j in &subset[a + 1..] {
                        edges += self.edge_weight(i, j);
                    }
                }
                edges
            }
            DispersionVariant::MaxMin => {
                let mut min: Option<Ratio> = None;
                for (a, &i) in subset.iter().enumerate() {
                    for &j in &subset[a + 1..] {
                        let w = self.edge_weight(i, j);
                        min = Some(min.map_or(w, |m| m.min(w)));
                    }
                }
                min.unwrap_or(Ratio::ZERO)
            }
            DispersionVariant::MaxMinSum => subset
                .iter()
                .map(|&i| self.aggregate(i, subset))
                .min()
                .unwrap_or(Ratio::ZERO),
            DispersionVariant::MinDiffSum => {
                let aggs: Vec<Ratio> =
                    subset.iter().map(|&i| self.aggregate(i, subset)).collect();
                match (aggs.iter().max(), aggs.iter().min()) {
                    (Some(hi), Some(lo)) => *hi - *lo,
                    _ => Ratio::ZERO,
                }
            }
        }
    }

    /// Exhaustive optimum over all `m`-subsets (maximization or
    /// minimization per the variant's sense). `None` when `m > n` or
    /// `m = 0`.
    pub fn brute_force(
        &self,
        variant: DispersionVariant,
        m: usize,
    ) -> Option<(Ratio, Vec<usize>)> {
        if m == 0 || m > self.n {
            return None;
        }
        let mut best: Option<(Ratio, Vec<usize>)> = None;
        for_each_k_subset(self.n, m, |s| {
            let v = self.value(variant, s);
            let better = match &best {
                None => true,
                Some((b, _)) => {
                    if variant.is_max() {
                        v > *b
                    } else {
                        v < *b
                    }
                }
            };
            if better {
                best = Some((v, s.to_vec()));
            }
            true
        });
        best
    }

    /// The classical greedy pair heuristic for max-sum dispersion
    /// (Hassin–Rubinstein–Tamir): repeatedly take the heaviest remaining
    /// pair; if `m` is odd, finish with the node of best marginal gain.
    /// A 2-approximation when the pair weights satisfy the triangle
    /// inequality.
    pub fn greedy_max_sum(&self, m: usize) -> Option<Vec<usize>> {
        if m == 0 || m > self.n {
            return None;
        }
        let mut available: Vec<usize> = (0..self.n).collect();
        let mut chosen = Vec::with_capacity(m);
        if m == 1 {
            return Some(vec![0]);
        }
        while chosen.len() + 1 < m {
            let mut best: Option<(Ratio, usize, usize)> = None;
            for (ai, &i) in available.iter().enumerate() {
                for &j in &available[ai + 1..] {
                    let w = self.edge_weight(i, j);
                    if best.is_none_or(|(b, _, _)| w > b) {
                        best = Some((w, i, j));
                    }
                }
            }
            let (_, i, j) = best?;
            chosen.push(i);
            chosen.push(j);
            // Order-preserving O(log n + shift) removal: the ascending
            // scan order is the tie-break, so swap-remove is off-limits
            // here — see `crate::approx::remove_sorted`.
            crate::approx::remove_sorted(&mut available, i);
            crate::approx::remove_sorted(&mut available, j);
        }
        if chosen.len() < m {
            let best = available.iter().copied().max_by_key(|&t| {
                let marginal: Ratio = chosen.iter().map(|&s| self.edge_weight(s, t)).sum();
                (marginal, std::cmp::Reverse(t))
            })?;
            chosen.push(best);
        }
        chosen.sort_unstable();
        Some(chosen)
    }

    /// The exact Gollapudi–Sharma bridge from max-sum diversification:
    /// `w(i,j) = (1−λ)(δ_rel(i) + δ_rel(j)) + 2λ·δ_dis(i,j)`. For every candidate set `U`,
    /// `value(MaxSum, U) = F_MS(U)` exactly.
    pub fn from_max_sum(p: &DiversityProblem<'_>) -> Self {
        let n = p.n();
        let mut d = Dispersion::new(n);
        for i in 0..n {
            for j in i + 1..n {
                d.set_edge(i, j, crate::approx::ms_pair_weight(p, i, j));
            }
        }
        d
    }

    /// The max-min bridge:
    /// `w(i,j) = (1−λ)·min(δ_rel(i), δ_rel(j)) + λ·δ_dis(i,j)`. For every
    /// candidate set `U` (|U| ≥ 2), `value(MaxMin, U) ≥ F_MM(U)`, with
    /// equality when `λ ∈ {0, 1}` — the pointwise relaxation under which
    /// max-min diversification "can be expressed as the Maxmin Dispersion
    /// Problem" (Section 3.2).
    pub fn from_max_min(p: &DiversityProblem<'_>) -> Self {
        let n = p.n();
        let one_minus = Ratio::ONE - p.lambda();
        let mut d = Dispersion::new(n);
        for i in 0..n {
            for j in i + 1..n {
                let w = one_minus * p.rel_of(i).min(p.rel_of(j))
                    + p.lambda() * p.dist_of(i, j);
                d.set_edge(i, j, w);
            }
        }
        d
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::exact;
    use divr_core::distance::NumericDistance;
    use divr_core::problem::ObjectiveKind;
    use divr_core::relevance::AttributeRelevance;
    use divr_relquery::Tuple;

    const REL: AttributeRelevance = AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    };
    const DIS: NumericDistance = NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    };

    fn universe(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::ints([i * 5 % 17, i % 4])).collect()
    }

    fn problem(n: i64, lambda: Ratio, k: usize) -> DiversityProblem<'static> {
        DiversityProblem::new(universe(n), &REL, &DIS, lambda, k)
    }

    #[test]
    fn packed_triangle_indexing_is_symmetric() {
        let mut d = Dispersion::new(5);
        d.set_edge(1, 3, Ratio::int(7));
        d.set_edge(4, 0, Ratio::int(2));
        assert_eq!(d.edge_weight(3, 1), Ratio::int(7));
        assert_eq!(d.edge_weight(0, 4), Ratio::int(2));
        assert_eq!(d.edge_weight(2, 2), Ratio::ZERO);
        assert_eq!(d.edge_weight(0, 1), Ratio::ZERO);
    }

    #[test]
    fn max_sum_bridge_is_exact_on_every_candidate_set() {
        for lambda in [Ratio::ZERO, Ratio::new(1, 3), Ratio::ONE] {
            let p = problem(8, lambda, 3);
            let d = Dispersion::from_max_sum(&p);
            crate::combin::for_each_k_subset(p.n(), 3, |s| {
                assert_eq!(
                    d.value(DispersionVariant::MaxSum, s),
                    p.f_ms(s),
                    "λ={lambda} U={s:?}"
                );
                true
            });
        }
    }

    #[test]
    fn max_sum_bridge_optima_coincide() {
        for lambda in [Ratio::ZERO, Ratio::new(1, 2), Ratio::ONE] {
            let p = problem(9, lambda, 4);
            let (opt, _) = exact::maximize(&p, ObjectiveKind::MaxSum).unwrap();
            let (dopt, _) = Dispersion::from_max_sum(&p)
                .brute_force(DispersionVariant::MaxSum, 4)
                .unwrap();
            assert_eq!(opt, dopt, "λ={lambda}");
        }
    }

    #[test]
    fn max_min_bridge_upper_bounds_and_is_exact_at_extremes() {
        for lambda in [Ratio::ZERO, Ratio::new(1, 2), Ratio::ONE] {
            let p = problem(8, lambda, 3);
            let d = Dispersion::from_max_min(&p);
            crate::combin::for_each_k_subset(p.n(), 3, |s| {
                let disp = d.value(DispersionVariant::MaxMin, s);
                let fmm = p.f_mm(s);
                assert!(disp >= fmm, "λ={lambda} U={s:?}: {disp} < {fmm}");
                if lambda == Ratio::ZERO || lambda == Ratio::ONE {
                    assert_eq!(disp, fmm, "λ={lambda} U={s:?}");
                }
                true
            });
        }
    }

    #[test]
    fn max_min_bridge_optimum_coincides_at_extremes() {
        for lambda in [Ratio::ZERO, Ratio::ONE] {
            let p = problem(9, lambda, 3);
            let (opt, _) = exact::maximize(&p, ObjectiveKind::MaxMin).unwrap();
            let (dopt, _) = Dispersion::from_max_min(&p)
                .brute_force(DispersionVariant::MaxMin, 3)
                .unwrap();
            assert_eq!(opt, dopt, "λ={lambda}");
        }
    }

    #[test]
    fn min_diff_sum_prefers_balanced_sets() {
        // Three nodes pairwise 1, one outlier with heavy edges: the
        // balanced triangle has spread 0.
        let mut d = Dispersion::new(4);
        for (i, j) in [(0, 1), (0, 2), (1, 2)] {
            d.set_edge(i, j, Ratio::ONE);
        }
        d.set_edge(0, 3, Ratio::int(10));
        let (v, s) = d.brute_force(DispersionVariant::MinDiffSum, 3).unwrap();
        assert_eq!(v, Ratio::ZERO);
        assert_eq!(s, vec![0, 1, 2]);
    }

    #[test]
    fn max_min_sum_takes_the_smallest_aggregate() {
        let mut d = Dispersion::new(3);
        d.set_edge(0, 1, Ratio::ONE);
        d.set_edge(0, 2, Ratio::ONE);
        d.set_edge(1, 2, Ratio::int(3));
        // {1,2}: both aggregates 3; {0,1} and {0,2}: 1.
        let (v, s) = d.brute_force(DispersionVariant::MaxMinSum, 2).unwrap();
        assert_eq!(v, Ratio::int(3));
        assert_eq!(s, vec![1, 2]);
    }

    #[test]
    fn greedy_max_sum_two_approximation_on_metric_weights() {
        // Line-metric distances through the bridge give triangle-
        // inequality pair weights.
        for m in [2usize, 3, 4, 5] {
            let p = problem(10, Ratio::new(1, 2), m);
            let d = Dispersion::from_max_sum(&p);
            let g = d.greedy_max_sum(m).unwrap();
            let gv = d.value(DispersionVariant::MaxSum, &g);
            let (opt, _) = d.brute_force(DispersionVariant::MaxSum, m).unwrap();
            assert!(gv.scale(2) >= opt, "m={m}: {gv} vs {opt}");
        }
    }

    #[test]
    fn greedy_matches_core_greedy_value_through_bridge() {
        // The dispersion greedy and approx::greedy_max_sum make the same
        // pair choices (identical weights); values must agree.
        let p = problem(9, Ratio::new(2, 5), 4);
        let d = Dispersion::from_max_sum(&p);
        let via_dispersion = d.greedy_max_sum(4).unwrap();
        let via_core = crate::approx::greedy_max_sum(&p).unwrap();
        assert_eq!(
            d.value(DispersionVariant::MaxSum, &via_dispersion),
            p.f_ms(&via_core)
        );
    }

    #[test]
    fn brute_force_degenerate_sizes() {
        let d = Dispersion::new(3);
        assert!(d.brute_force(DispersionVariant::MaxSum, 0).is_none());
        assert!(d.brute_force(DispersionVariant::MaxSum, 4).is_none());
        assert!(d.greedy_max_sum(0).is_none());
        assert!(d.greedy_max_sum(4).is_none());
    }

    #[test]
    fn singleton_values() {
        let mut d = Dispersion::new(2);
        d.set_edge(0, 1, Ratio::int(9));
        for variant in [
            DispersionVariant::MaxSum,
            DispersionVariant::MaxMin,
            DispersionVariant::MaxMinSum,
            DispersionVariant::MinDiffSum,
        ] {
            assert_eq!(d.value(variant, &[0]), Ratio::ZERO, "{variant}");
        }
    }
}
