//! The `λ = 0` special case: objectives defined by the relevance function
//! alone (Theorem 8.2).
//!
//! With the distance function dropped, the paper shows the *data*
//! complexity collapses:
//!
//! * QRD and DRP become PTIME for both `F_MS` and `F_MM`;
//! * RDC stays #P-complete (under Turing reductions) for `F_MS` — it is a
//!   subset-sum count — but falls to **FP** for `F_MM`, where the count is
//!   a single binomial coefficient.
//!
//! At `λ = 0`:
//! `F_MS(U) = (k−1)·Σ_{t∈U} δ_rel(t)` and `F_MM(U) = min_{t∈U} δ_rel(t)`.
//!
//! Every function here asserts `λ = 0` — they are *only* correct in this
//! regime.

use crate::combin::binomial;
use crate::solvers::counting::count_sum_subsets_at_least;
use crate::solvers::mono::top_r_sets_by_sum;
use divr_core::problem::DiversityProblem;
use divr_core::ratio::Ratio;

fn assert_lambda_zero(p: &DiversityProblem<'_>) {
    assert!(
        p.lambda().is_zero(),
        "relevance-only solvers require λ = 0"
    );
}

/// Scaled relevance scores `(k−1)·δ_rel(t)`, i.e. the per-item summands of
/// `F_MS` at `λ = 0`.
fn ms_scores(p: &DiversityProblem<'_>) -> Vec<Ratio> {
    let factor = Ratio::int(p.k() as i64 - 1);
    (0..p.n()).map(|i| p.rel_of(i) * factor).collect()
}

/// Relevance values sorted descending.
fn sorted_rels_desc(p: &DiversityProblem<'_>) -> Vec<Ratio> {
    let mut rels: Vec<Ratio> = (0..p.n()).map(|i| p.rel_of(i)).collect();
    rels.sort_by(|a, b| b.cmp(a));
    rels
}

/// **QRD(L_Q, F_MS), λ = 0** — PTIME (Theorem 8.2): the best set is the
/// top-`k` by relevance.
pub fn qrd_ms(p: &DiversityProblem<'_>, bound: Ratio) -> bool {
    assert_lambda_zero(p);
    if p.n() < p.k() {
        return false;
    }
    let rels = sorted_rels_desc(p);
    let best: Ratio = rels[..p.k()].iter().copied().sum::<Ratio>() * Ratio::int(p.k() as i64 - 1);
    best >= bound
}

/// **QRD(L_Q, F_MM), λ = 0** — PTIME: the best achievable minimum
/// relevance is the `k`-th largest relevance value.
pub fn qrd_mm(p: &DiversityProblem<'_>, bound: Ratio) -> bool {
    assert_lambda_zero(p);
    if p.n() < p.k() {
        return false;
    }
    let rels = sorted_rels_desc(p);
    rels[p.k() - 1] >= bound
}

/// **DRP(L_Q, F_MS), λ = 0** — PTIME: `F_MS` is sum-decomposable here, so
/// the Theorem 6.4 top-`r` machinery applies verbatim.
pub fn drp_ms(p: &DiversityProblem<'_>, subset: &[usize], r: usize) -> bool {
    assert_lambda_zero(p);
    assert!(r >= 1);
    assert_eq!(subset.len(), p.k());
    let scores = ms_scores(p);
    let target: Ratio = subset.iter().map(|&i| scores[i]).sum();
    let top = top_r_sets_by_sum(&scores, p.k(), r);
    if top.len() < r {
        return true;
    }
    top[r - 1].0 <= target
}

/// **DRP(L_Q, F_MM), λ = 0** — PTIME, by a closed form: the sets beating
/// `U` are exactly the k-subsets drawn from items with relevance strictly
/// above `min_{t∈U} δ_rel(t)`, of which there are `C(m, k)`.
pub fn drp_mm(p: &DiversityProblem<'_>, subset: &[usize], r: usize) -> bool {
    assert_lambda_zero(p);
    assert!(r >= 1);
    assert_eq!(subset.len(), p.k());
    let target = p.f_mm(subset);
    let m = (0..p.n()).filter(|&i| p.rel_of(i) > target).count();
    binomial(m, p.k()) <= (r - 1) as u128
}

/// **RDC(L_Q, F_MS), λ = 0** — #P-complete under Turing reductions
/// (Theorem 8.2); computed by the subset-sum DP (pseudo-polynomial).
pub fn rdc_ms(p: &DiversityProblem<'_>, bound: Ratio) -> u128 {
    assert_lambda_zero(p);
    if p.k() == 1 {
        // F_MS = 0·Σrel = 0 for singletons.
        return if Ratio::ZERO >= bound { p.n() as u128 } else { 0 };
    }
    count_sum_subsets_at_least(&ms_scores(p), p.k(), bound)
}

/// **RDC(L_Q, F_MM), λ = 0** — in FP (Theorem 8.2): valid sets are exactly
/// the k-subsets of `{t : δ_rel(t) ≥ B}`, so the count is one binomial
/// coefficient.
pub fn rdc_mm(p: &DiversityProblem<'_>, bound: Ratio) -> u128 {
    assert_lambda_zero(p);
    let m = (0..p.n()).filter(|&i| p.rel_of(i) >= bound).count();
    binomial(m, p.k())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::{counting, exact};
    use divr_core::distance::ConstantDistance;
    use divr_core::problem::ObjectiveKind;
    use divr_core::relevance::TableRelevance;
    use divr_relquery::Tuple;

    fn problem(rels: &[i64], k: usize) -> (Vec<Tuple>, TableRelevance) {
        let universe: Vec<Tuple> = (0..rels.len() as i64).map(|i| Tuple::ints([i])).collect();
        let mut rel = TableRelevance::with_default(Ratio::ZERO);
        for (i, &r) in rels.iter().enumerate() {
            rel.set(Tuple::ints([i as i64]), Ratio::int(r));
        }
        let _ = k;
        (universe, rel)
    }

    const DIS: ConstantDistance = ConstantDistance(Ratio::ZERO);

    #[test]
    fn qrd_agrees_with_exact() {
        let (u, rel) = problem(&[3, 1, 4, 1, 5, 9, 2, 6], 3);
        let p = DiversityProblem::new(u, &rel, &DIS, Ratio::ZERO, 3);
        for b in 0..=45 {
            let bound = Ratio::int(b);
            assert_eq!(
                qrd_ms(&p, bound),
                exact::qrd(&p, ObjectiveKind::MaxSum, bound),
                "MS B={b}"
            );
            assert_eq!(
                qrd_mm(&p, bound),
                exact::qrd(&p, ObjectiveKind::MaxMin, bound),
                "MM B={b}"
            );
        }
    }

    #[test]
    fn drp_agrees_with_exact() {
        let (u, rel) = problem(&[3, 1, 4, 1, 5], 2);
        let p = DiversityProblem::new(u, &rel, &DIS, Ratio::ZERO, 2);
        for subset in [vec![0, 1], vec![2, 4], vec![1, 3]] {
            for r in 1..=8usize {
                assert_eq!(
                    drp_ms(&p, &subset, r),
                    exact::drp(&p, ObjectiveKind::MaxSum, &subset, r as u128),
                    "MS {subset:?} r={r}"
                );
                assert_eq!(
                    drp_mm(&p, &subset, r),
                    exact::drp(&p, ObjectiveKind::MaxMin, &subset, r as u128),
                    "MM {subset:?} r={r}"
                );
            }
        }
    }

    #[test]
    fn rdc_agrees_with_enumeration() {
        let (u, rel) = problem(&[2, 2, 3, 0, 1, 4], 3);
        let p = DiversityProblem::new(u, &rel, &DIS, Ratio::ZERO, 3);
        for b in 0..=20 {
            let bound = Ratio::int(b);
            assert_eq!(
                rdc_ms(&p, bound),
                counting::rdc_naive(&p, ObjectiveKind::MaxSum, bound),
                "MS B={b}"
            );
            assert_eq!(
                rdc_mm(&p, bound),
                counting::rdc_naive(&p, ObjectiveKind::MaxMin, bound),
                "MM B={b}"
            );
        }
    }

    #[test]
    fn rdc_ms_k1_edge() {
        let (u, rel) = problem(&[5, 7], 1);
        let p = DiversityProblem::new(u, &rel, &DIS, Ratio::ZERO, 1);
        // F_MS = (k−1)Σ = 0 for all singletons.
        assert_eq!(rdc_ms(&p, Ratio::ZERO), 2);
        assert_eq!(rdc_ms(&p, Ratio::ONE), 0);
    }

    #[test]
    fn rdc_mm_is_single_binomial() {
        let (u, rel) = problem(&[1, 2, 3, 4, 5], 2);
        let p = DiversityProblem::new(u, &rel, &DIS, Ratio::ZERO, 2);
        // items with rel ≥ 3: three of them → C(3,2) = 3.
        assert_eq!(rdc_mm(&p, Ratio::int(3)), 3);
    }

    #[test]
    #[should_panic(expected = "require λ = 0")]
    fn nonzero_lambda_rejected() {
        let (u, rel) = problem(&[1], 1);
        let p = DiversityProblem::new(u, &rel, &DIS, Ratio::ONE, 1);
        qrd_ms(&p, Ratio::ZERO);
    }
}
