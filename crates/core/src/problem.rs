//! The diversification problem instance and the paper's three objective
//! functions (Section 3.2).
//!
//! A [`DiversityProblem`] bundles the materialized query result `Q(D)`
//! (the *universe*), the relevance and distance functions, the trade-off
//! parameter `λ ∈ [0, 1]` and the result size `k`. Candidate sets are
//! sorted index vectors into the universe.
//!
//! Objective definitions (with `U` a candidate set, `n = |Q(D)|`):
//!
//! * **Max-sum** (Gollapudi & Sharma 2009, as revised by Vieira et al. 2011):
//!   `F_MS(U) = (k−1)(1−λ)·Σ_{t∈U} δ_rel(t) + λ·Σ_{t,t'∈U} δ_dis(t,t')`,
//!   the distance sum ranging over ordered pairs (equivalently twice the
//!   unordered sum) — this is the reading under which the paper's
//!   Theorem 5.1 bound `B = l(l−1)` is attained.
//! * **Max-min**: `F_MM(U) = (1−λ)·min_{t∈U} δ_rel(t) + λ·min_{t≠t'} δ_dis(t,t')`.
//!   For `|U| < 2` the pair-minimum is vacuous and contributes 0 (the
//!   paper only exercises `k = 1` with `λ = 0`, where the term vanishes
//!   anyway).
//! * **Mono-objective**:
//!   `F_mono(U) = Σ_{t∈U} ((1−λ)·δ_rel(t) + λ/(n−1)·Σ_{t'∈Q(D)} δ_dis(t,t'))`.
//!   For `n ≤ 1` the global-diversity term contributes 0. Crucially,
//!   `F_mono` decomposes into per-item scores `v(t)`
//!   ([`DiversityProblem::mono_item_scores`]) — the structural fact behind
//!   every PTIME upper bound for `F_mono` in the paper (Theorems 5.4, 6.4).

use crate::distance::Distance;
use crate::ratio::Ratio;
use crate::relevance::Relevance;
use divr_relquery::Tuple;
use std::fmt;

/// `F_MS` over member oracles: `m` members, `rel(a)`/`dist(a, b)` read
/// member positions `0..m`. The single definition shared by
/// [`DiversityProblem::f_ms`], the engine's exact scorer, and
/// `divr_paper`'s streaming diversifier — so the formula cannot
/// drift between the paths the property tests compare.
pub fn f_ms_from(
    m: usize,
    lambda: Ratio,
    rel: impl Fn(usize) -> Ratio,
    dist: impl Fn(usize, usize) -> Ratio,
) -> Ratio {
    if m == 0 {
        return Ratio::ZERO;
    }
    let one_minus = Ratio::ONE - lambda;
    let rel_sum: Ratio = (0..m).map(&rel).sum();
    let mut dis_sum = Ratio::ZERO;
    for a in 0..m {
        for b in (a + 1)..m {
            dis_sum += dist(a, b);
        }
    }
    // (k−1)(1−λ)·Σrel + λ·(ordered-pair sum) = … + λ·2·(unordered sum)
    one_minus.scale(m as i64 - 1) * rel_sum + lambda * dis_sum.scale(2)
}

/// `F_MM` over member oracles (see [`f_ms_from`]).
pub fn f_mm_from(
    m: usize,
    lambda: Ratio,
    rel: impl Fn(usize) -> Ratio,
    dist: impl Fn(usize, usize) -> Ratio,
) -> Ratio {
    if m == 0 {
        return Ratio::ZERO;
    }
    let min_rel = (0..m).map(&rel).min().expect("non-empty");
    let mut min_dis: Option<Ratio> = None;
    for a in 0..m {
        for b in (a + 1)..m {
            let d = dist(a, b);
            min_dis = Some(min_dis.map_or(d, |x| x.min(d)));
        }
    }
    (Ratio::ONE - lambda) * min_rel + lambda * min_dis.unwrap_or(Ratio::ZERO)
}

/// `F_MS`'s pair weight, the Gollapudi–Sharma Max-Sum Dispersion
/// reduction on raw components: `w = (1−λ)(rel_i + rel_j) + 2λ·dist_ij`,
/// chosen so that `F_MS(U) = Σ_{{u,v} ⊆ U} w(u, v)` for `|U| = k`. The
/// one definition the engine's exact tie fallback and the paper crate's
/// sequential greedy and dispersion bridge all read.
pub fn ms_pair_weight_parts(lambda: Ratio, rel_i: Ratio, rel_j: Ratio, dist_ij: Ratio) -> Ratio {
    (Ratio::ONE - lambda) * (rel_i + rel_j) + lambda * dist_ij.scale(2)
}

/// Which of the paper's three objective functions is in force.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectiveKind {
    /// Max-sum diversification `F_MS`.
    MaxSum,
    /// Max-min diversification `F_MM`.
    MaxMin,
    /// Mono-objective formulation `F_mono`.
    Mono,
}

impl ObjectiveKind {
    /// All three objectives, for table-driven tests and benches.
    pub const ALL: [ObjectiveKind; 3] =
        [ObjectiveKind::MaxSum, ObjectiveKind::MaxMin, ObjectiveKind::Mono];
}

impl fmt::Display for ObjectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectiveKind::MaxSum => "F_MS",
            ObjectiveKind::MaxMin => "F_MM",
            ObjectiveKind::Mono => "F_mono",
        };
        write!(f, "{s}")
    }
}

/// A fully specified diversification instance over a materialized result
/// set.
pub struct DiversityProblem<'a> {
    universe: Vec<Tuple>,
    rel_cache: Vec<Ratio>,
    dis: &'a dyn Distance,
    lambda: Ratio,
    k: usize,
}

impl<'a> DiversityProblem<'a> {
    /// Builds an instance. Relevance values are cached per universe tuple.
    ///
    /// Panics if `λ ∉ [0, 1]` or `k = 0`.
    pub fn new(
        universe: Vec<Tuple>,
        rel: &'a dyn Relevance,
        dis: &'a dyn Distance,
        lambda: Ratio,
        k: usize,
    ) -> Self {
        assert!(
            lambda >= Ratio::ZERO && lambda <= Ratio::ONE,
            "λ must lie in [0, 1]"
        );
        assert!(k >= 1, "k must be positive");
        let rel_cache = universe.iter().map(|t| rel.rel(t)).collect();
        DiversityProblem {
            universe,
            rel_cache,
            dis,
            lambda,
            k,
        }
    }

    /// Builds an instance over an already-prepared universe
    /// ([`crate::engine::PreparedUniverse`]), reusing its cached
    /// relevance values and exact distance oracle instead of
    /// re-evaluating either — the bridge the serving layer's
    /// conformance oracle uses to cross-check registry answers against
    /// the exact sequential path without paying preparation twice.
    ///
    /// Panics if `k = 0` (λ was validated when `prepared` was built).
    pub fn from_prepared(prepared: &'a crate::engine::PreparedUniverse, k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        DiversityProblem {
            universe: prepared.universe().to_vec(),
            rel_cache: prepared.relevances().to_vec(),
            dis: prepared.distance(),
            lambda: prepared.lambda(),
            k,
        }
    }

    /// The universe `Q(D)`.
    pub fn universe(&self) -> &[Tuple] {
        &self.universe
    }

    /// `|Q(D)|`.
    pub fn n(&self) -> usize {
        self.universe.len()
    }

    /// The candidate-set size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The relevance/diversity trade-off `λ`.
    pub fn lambda(&self) -> Ratio {
        self.lambda
    }

    /// Cached relevance of universe item `i`.
    pub fn rel_of(&self, i: usize) -> Ratio {
        self.rel_cache[i]
    }

    /// Distance between universe items `i` and `j`.
    pub fn dist_of(&self, i: usize, j: usize) -> Ratio {
        self.dis.dist(&self.universe[i], &self.universe[j])
    }

    /// Resolves a set of tuples to sorted universe indices; `None` if some
    /// tuple is not in the universe (i.e. the set is not a candidate set).
    pub fn indices_of(&self, tuples: &[Tuple]) -> Option<Vec<usize>> {
        let mut idx = Vec::with_capacity(tuples.len());
        for t in tuples {
            idx.push(self.universe.iter().position(|u| u == t)?);
        }
        idx.sort_unstable();
        idx.dedup();
        if idx.len() == tuples.len() {
            Some(idx)
        } else {
            None
        }
    }

    /// Materializes a candidate set's tuples.
    pub fn tuples_of(&self, subset: &[usize]) -> Vec<Tuple> {
        subset.iter().map(|&i| self.universe[i].clone()).collect()
    }

    /// `F_MS(U)`.
    pub fn f_ms(&self, subset: &[usize]) -> Ratio {
        f_ms_from(
            subset.len(),
            self.lambda,
            |a| self.rel_cache[subset[a]],
            |a, b| self.dist_of(subset[a], subset[b]),
        )
    }

    /// `F_MM(U)`.
    pub fn f_mm(&self, subset: &[usize]) -> Ratio {
        f_mm_from(
            subset.len(),
            self.lambda,
            |a| self.rel_cache[subset[a]],
            |a, b| self.dist_of(subset[a], subset[b]),
        )
    }

    /// `F_mono(U)`.
    pub fn f_mono(&self, subset: &[usize]) -> Ratio {
        subset.iter().map(|&i| self.mono_score_of(i)).sum()
    }

    /// The per-item mono score
    /// `v(t) = (1−λ)·δ_rel(t) + λ/(n−1)·Σ_{t'∈Q(D)} δ_dis(t, t')`
    /// (the quantity the Theorem 5.4 PTIME algorithm sorts by).
    fn mono_score_of(&self, i: usize) -> Ratio {
        let rel_part = (Ratio::ONE - self.lambda) * self.rel_cache[i];
        let n = self.n();
        if n <= 1 || self.lambda.is_zero() {
            return rel_part;
        }
        let mut dsum = Ratio::ZERO;
        for j in 0..n {
            if j != i {
                dsum += self.dist_of(i, j);
            }
        }
        rel_part + self.lambda * dsum / Ratio::int(n as i64 - 1)
    }

    /// All mono item scores (O(n²) distance evaluations).
    pub fn mono_item_scores(&self) -> Vec<Ratio> {
        (0..self.n()).map(|i| self.mono_score_of(i)).collect()
    }

    /// `F(U)` for the selected objective.
    pub fn objective(&self, kind: ObjectiveKind, subset: &[usize]) -> Ratio {
        match kind {
            ObjectiveKind::MaxSum => self.f_ms(subset),
            ObjectiveKind::MaxMin => self.f_mm(subset),
            ObjectiveKind::Mono => self.f_mono(subset),
        }
    }
}

impl fmt::Debug for DiversityProblem<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiversityProblem")
            .field("n", &self.n())
            .field("k", &self.k)
            .field("lambda", &self.lambda)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{ConstantDistance, TableDistance};
    use crate::relevance::{ConstantRelevance, TableRelevance};

    fn universe(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::ints([i])).collect()
    }

    #[test]
    fn f_ms_matches_hand_computation() {
        // 3 items, rel ≡ 1, all pairwise distances 1, λ = 1/2, U = all 3.
        let rel = ConstantRelevance(Ratio::ONE);
        let dis = ConstantDistance(Ratio::ONE);
        let p = DiversityProblem::new(universe(3), &rel, &dis, Ratio::new(1, 2), 3);
        // (k−1)(1−λ)Σrel = 2·(1/2)·3 = 3; λ·ordered-pairs = (1/2)·6·1 = 3.
        assert_eq!(p.f_ms(&[0, 1, 2]), Ratio::int(6));
    }

    #[test]
    fn f_ms_lambda_one_is_pure_dispersion() {
        let rel = ConstantRelevance(Ratio::int(100));
        let dis = ConstantDistance(Ratio::ONE);
        let p = DiversityProblem::new(universe(4), &rel, &dis, Ratio::ONE, 3);
        // only distances count: ordered pairs of 3 items = 6.
        assert_eq!(p.f_ms(&[0, 1, 2]), Ratio::int(6));
    }

    #[test]
    fn f_ms_lambda_zero_is_scaled_relevance() {
        let rel = TableRelevance::with_default(Ratio::ZERO)
            .with(Tuple::ints([0]), Ratio::int(2))
            .with(Tuple::ints([1]), Ratio::int(3));
        let dis = ConstantDistance(Ratio::int(9));
        let p = DiversityProblem::new(universe(2), &rel, &dis, Ratio::ZERO, 2);
        // (k−1)·Σrel = 1·5.
        assert_eq!(p.f_ms(&[0, 1]), Ratio::int(5));
    }

    #[test]
    fn f_mm_takes_minima() {
        let rel = TableRelevance::with_default(Ratio::int(10))
            .with(Tuple::ints([0]), Ratio::int(4));
        let dis = TableDistance::with_default(Ratio::int(5))
            .with(Tuple::ints([1]), Tuple::ints([2]), Ratio::int(2));
        let p = DiversityProblem::new(universe(3), &rel, &dis, Ratio::new(1, 2), 3);
        // min rel = 4, min dis = 2 → (1/2)·4 + (1/2)·2 = 3.
        assert_eq!(p.f_mm(&[0, 1, 2]), Ratio::int(3));
    }

    #[test]
    fn f_mm_singleton_has_zero_diversity_term() {
        let rel = ConstantRelevance(Ratio::int(4));
        let dis = ConstantDistance(Ratio::int(100));
        let p = DiversityProblem::new(universe(2), &rel, &dis, Ratio::new(1, 2), 1);
        // (1−λ)·4 + λ·0 = 2.
        assert_eq!(p.f_mm(&[0]), Ratio::int(2));
    }

    #[test]
    fn f_mono_is_sum_of_item_scores() {
        let rel = ConstantRelevance(Ratio::ONE);
        let dis = ConstantDistance(Ratio::ONE);
        let p = DiversityProblem::new(universe(4), &rel, &dis, Ratio::new(1, 2), 2);
        // v(t) = (1/2)·1 + (1/2)·(3/3) = 1 for every t.
        for i in 0..4 {
            assert_eq!(p.mono_score_of(i), Ratio::ONE);
        }
        assert_eq!(p.f_mono(&[0, 3]), Ratio::int(2));
        assert_eq!(
            p.f_mono(&[1, 2]),
            p.mono_item_scores()[1] + p.mono_item_scores()[2]
        );
    }

    #[test]
    fn f_mono_single_universe_item() {
        let rel = ConstantRelevance(Ratio::int(3));
        let dis = ConstantDistance(Ratio::ONE);
        let p = DiversityProblem::new(universe(1), &rel, &dis, Ratio::ONE, 1);
        // n = 1 → diversity term 0; λ = 1 → rel term 0.
        assert_eq!(p.f_mono(&[0]), Ratio::ZERO);
    }

    #[test]
    fn objective_dispatch() {
        let rel = ConstantRelevance(Ratio::ONE);
        let dis = ConstantDistance(Ratio::ONE);
        let p = DiversityProblem::new(universe(3), &rel, &dis, Ratio::ONE, 2);
        assert_eq!(p.objective(ObjectiveKind::MaxSum, &[0, 1]), p.f_ms(&[0, 1]));
        assert_eq!(p.objective(ObjectiveKind::MaxMin, &[0, 1]), p.f_mm(&[0, 1]));
        assert_eq!(p.objective(ObjectiveKind::Mono, &[0, 1]), p.f_mono(&[0, 1]));
    }

    #[test]
    fn indices_roundtrip() {
        let rel = ConstantRelevance(Ratio::ONE);
        let dis = ConstantDistance(Ratio::ONE);
        let p = DiversityProblem::new(universe(5), &rel, &dis, Ratio::ONE, 2);
        let tuples = vec![Tuple::ints([3]), Tuple::ints([1])];
        assert_eq!(p.indices_of(&tuples), Some(vec![1, 3]));
        assert_eq!(p.tuples_of(&[1, 3]), vec![Tuple::ints([1]), Tuple::ints([3])]);
        // non-member
        assert_eq!(p.indices_of(&[Tuple::ints([9])]), None);
        // duplicate tuples are not a set
        assert_eq!(
            p.indices_of(&[Tuple::ints([1]), Tuple::ints([1])]),
            None
        );
    }

    #[test]
    #[should_panic(expected = "λ must lie in [0, 1]")]
    fn lambda_out_of_range_panics() {
        let rel = ConstantRelevance(Ratio::ONE);
        let dis = ConstantDistance(Ratio::ONE);
        DiversityProblem::new(universe(1), &rel, &dis, Ratio::int(2), 1);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let rel = ConstantRelevance(Ratio::ONE);
        let dis = ConstantDistance(Ratio::ONE);
        DiversityProblem::new(universe(1), &rel, &dis, Ratio::ONE, 0);
    }
}
