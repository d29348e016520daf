//! The constant-`k` special case (Corollary 8.4), with and without
//! compatibility constraints (Corollary 9.7).
//!
//! When the number of selected tuples `k` is a predefined constant, the
//! `C(n, k) = O(n^k)` candidate sets can be enumerated outright, making
//! the *data* complexity of QRD/DRP PTIME and of RDC FP, for **all three**
//! objectives — while the combined complexity stays as in Theorems
//! 5.1–7.2 (evaluating `Q(D)` still dominates). Corollary 9.7 observes
//! that this is the **only** tractable cell that survives the addition
//! of `C_m` constraints: validating a fixed-size set against a fixed `Σ`
//! is constant work per candidate, so the constrained wrappers below
//! ([`qrd_constrained`] and friends) stay polynomial too.
//!
//! These wrappers are the generic enumeration solvers with the constant
//! bound made explicit; they exist so the Table II "constant k" row has a
//! first-class code anchor and bench target.

use crate::constraints::Constraint;
use crate::solvers::{constrained, exact};
use divr_core::problem::{DiversityProblem, ObjectiveKind};
use divr_core::ratio::Ratio;

/// Largest `k` accepted as "constant" by these wrappers.
const MAX_CONSTANT_K: usize = 6;

fn assert_constant_k(p: &DiversityProblem<'_>) {
    assert!(
        p.k() <= MAX_CONSTANT_K,
        "fixed-k solvers require k ≤ {MAX_CONSTANT_K} (got {})",
        p.k()
    );
}

/// **QRD, constant k** — polynomial in `|Q(D)|`.
pub fn qrd(p: &DiversityProblem<'_>, kind: ObjectiveKind, bound: Ratio) -> bool {
    assert_constant_k(p);
    exact::qrd(p, kind, bound)
}

/// **DRP, constant k** — polynomial in `|Q(D)|`.
pub fn drp(p: &DiversityProblem<'_>, kind: ObjectiveKind, subset: &[usize], r: u128) -> bool {
    assert_constant_k(p);
    exact::drp(p, kind, subset, r)
}

/// **RDC, constant k** — the count is computable in FP.
pub fn rdc(p: &DiversityProblem<'_>, kind: ObjectiveKind, bound: Ratio) -> u128 {
    assert_constant_k(p);
    crate::solvers::counting::rdc(p, kind, bound)
}

/// **QRD, constant k, with `C_m` constraints** — still polynomial in
/// `|Q(D)|` (Corollary 9.7).
pub fn qrd_constrained(
    p: &DiversityProblem<'_>,
    kind: ObjectiveKind,
    bound: Ratio,
    constraints: &[Constraint],
) -> bool {
    assert_constant_k(p);
    constrained::qrd(p, kind, bound, constraints)
}

/// **DRP, constant k, with `C_m` constraints** (Corollary 9.7).
pub fn drp_constrained(
    p: &DiversityProblem<'_>,
    kind: ObjectiveKind,
    subset: &[usize],
    r: u128,
    constraints: &[Constraint],
) -> bool {
    assert_constant_k(p);
    constrained::drp(p, kind, subset, r, constraints)
}

/// **RDC, constant k, with `C_m` constraints** — FP (Corollary 9.7).
pub fn rdc_constrained(
    p: &DiversityProblem<'_>,
    kind: ObjectiveKind,
    bound: Ratio,
    constraints: &[Constraint],
) -> u128 {
    assert_constant_k(p);
    constrained::rdc(p, kind, bound, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_core::distance::HammingDistance;
    use divr_core::relevance::ConstantRelevance;
    use divr_relquery::Tuple;

    #[test]
    fn wrappers_delegate() {
        let universe: Vec<Tuple> = (0..6).map(|i| Tuple::ints([i, i % 2])).collect();
        let rel = ConstantRelevance(Ratio::ONE);
        let dis = HammingDistance::default();
        let p = DiversityProblem::new(universe, &rel, &dis, Ratio::new(1, 2), 2);
        assert!(qrd(&p, ObjectiveKind::MaxSum, Ratio::ZERO));
        assert!(drp(&p, ObjectiveKind::MaxMin, &[0, 1], 100));
        assert_eq!(
            rdc(&p, ObjectiveKind::Mono, Ratio::ZERO),
            crate::combin::binomial(6, 2)
        );
    }

    #[test]
    #[should_panic(expected = "fixed-k solvers require")]
    fn large_k_rejected() {
        let universe: Vec<Tuple> = (0..10).map(|i| Tuple::ints([i])).collect();
        let rel = ConstantRelevance(Ratio::ONE);
        let dis = HammingDistance::default();
        let p = DiversityProblem::new(universe, &rel, &dis, Ratio::ZERO, 8);
        qrd(&p, ObjectiveKind::MaxSum, Ratio::ZERO);
    }

    #[test]
    fn constrained_wrappers_agree_with_filtered_enumeration() {
        use crate::constraints::{satisfies_all, CmPred, Constraint};
        // "No two selected tuples may share attribute 1" — a conflict
        // rule in C_2.
        let conflict = Constraint::builder()
            .forall(2)
            .exists(0)
            .premise(CmPred::attrs_eq((0, 1), (1, 1)))
            .conclusion(CmPred::attrs_eq((0, 0), (1, 0)))
            .build();
        let cs = vec![conflict];
        let universe: Vec<Tuple> = (0..8).map(|i| Tuple::ints([i, i % 3])).collect();
        let rel = ConstantRelevance(Ratio::ONE);
        let dis = HammingDistance::default();
        let p = DiversityProblem::new(universe.clone(), &rel, &dis, Ratio::new(1, 2), 3);
        for kind in ObjectiveKind::ALL {
            let bound = Ratio::int(2);
            // Brute force: filter all C(8,3) subsets by Σ and the bound.
            let mut expected = 0u128;
            crate::combin::for_each_k_subset(8, 3, |s| {
                let tuples: Vec<Tuple> = s.iter().map(|&i| universe[i].clone()).collect();
                if satisfies_all(&tuples, &cs) && p.objective(kind, s) >= bound {
                    expected += 1;
                }
                true
            });
            assert_eq!(rdc_constrained(&p, kind, bound, &cs), expected, "{kind}");
            assert_eq!(
                qrd_constrained(&p, kind, bound, &cs),
                expected > 0,
                "{kind}"
            );
        }
        // DRP: the all-distinct-mod-3 subset {0,1,2} is a constrained
        // candidate; its rank is consistent with the constrained rank.
        assert!(drp_constrained(
            &p,
            ObjectiveKind::MaxSum,
            &[0, 1, 2],
            u128::MAX,
            &cs
        ));
    }
}
