//! Constraint-aware solvers — diversification in the presence of `C_m`
//! compatibility constraints (Section 9).
//!
//! A candidate set must now satisfy `|U| = k` **and** `U ⊨ Σ`
//! (Section 9's revised notions); valid sets additionally reach the
//! objective bound. The paper shows that the presence of `Σ` erases the
//! tractable cells (Theorem 9.3: QRD/DRP/RDC for `F_mono` become
//! NP-/coNP-/#P-complete in data complexity), so these solvers are
//! backtracking searches. Pruning:
//!
//! * **denial constraints** (`h = 0`): a violation on a partial set
//!   survives in every superset, closing the subtree;
//! * the objective bounds of the unconstrained engine do not apply
//!   directly to MM/MS here only because candidate sets are scarcer, but
//!   they remain admissible — we reuse the monotone `F_MM` prune.
//!
//! For constant `k` the same search is polynomial (Corollary 9.7).

use crate::constraints::{satisfies_all, Constraint};
use divr_core::problem::{DiversityProblem, ObjectiveKind};
use divr_core::ratio::Ratio;

/// Visits every candidate set (k-subset with `U ⊨ Σ`), with denial-based
/// pruning. `f` returns `false` to stop; returns `true` iff completed.
fn for_each_constrained_candidate<F: FnMut(&[usize]) -> bool>(
    p: &DiversityProblem<'_>,
    constraints: &[Constraint],
    mut f: F,
) -> bool {
    let k = p.k();
    if k > p.n() {
        return true;
    }
    let denials: Vec<&Constraint> = constraints.iter().filter(|c| c.is_denial()).collect();
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    rec(p, constraints, &denials, 0, &mut chosen, &mut f)
}

fn rec<F: FnMut(&[usize]) -> bool>(
    p: &DiversityProblem<'_>,
    constraints: &[Constraint],
    denials: &[&Constraint],
    start: usize,
    chosen: &mut Vec<usize>,
    f: &mut F,
) -> bool {
    let k = p.k();
    let m = chosen.len();
    if m == k {
        let tuples = p.tuples_of(chosen);
        if satisfies_all(&tuples, constraints) {
            return f(chosen);
        }
        return true;
    }
    let n = p.n();
    for j in start..=(n - (k - m)) {
        chosen.push(j);
        // Denial pruning: a violated h=0 constraint can never recover.
        let viable = {
            let tuples = p.tuples_of(chosen);
            denials.iter().all(|c| c.satisfied_by(&tuples))
        };
        if viable {
            let keep_going = rec(p, constraints, denials, j + 1, chosen, f);
            if !keep_going {
                chosen.pop();
                return false;
            }
        }
        chosen.pop();
    }
    true
}

/// **QRD with constraints**: does a set `U` with `|U| = k`, `U ⊨ Σ` and
/// `F(U) ≥ B` exist?
pub fn qrd(
    p: &DiversityProblem<'_>,
    kind: ObjectiveKind,
    bound: Ratio,
    constraints: &[Constraint],
) -> bool {
    let mut found = false;
    for_each_constrained_candidate(p, constraints, |s| {
        if p.objective(kind, s) >= bound {
            found = true;
            return false;
        }
        true
    });
    found
}

/// Maximizes the objective over constrained candidate sets.
pub(crate) fn maximize(
    p: &DiversityProblem<'_>,
    kind: ObjectiveKind,
    constraints: &[Constraint],
) -> Option<(Ratio, Vec<usize>)> {
    let mut best: Option<(Ratio, Vec<usize>)> = None;
    for_each_constrained_candidate(p, constraints, |s| {
        let v = p.objective(kind, s);
        if best.as_ref().is_none_or(|(b, _)| v > *b) {
            best = Some((v, s.to_vec()));
        }
        true
    });
    best
}

/// **RDC with constraints**: counts valid sets.
pub fn rdc(
    p: &DiversityProblem<'_>,
    kind: ObjectiveKind,
    bound: Ratio,
    constraints: &[Constraint],
) -> u128 {
    let mut count = 0u128;
    for_each_constrained_candidate(p, constraints, |s| {
        if p.objective(kind, s) >= bound {
            count += 1;
        }
        true
    });
    count
}

/// The rank of `U` among **constrained** candidate sets
/// (`1 + #{S ⊨ Σ : F(S) > F(U)}`, Section 9's revised rank notion).
///
/// Panics if `subset` itself is not a constrained candidate set.
pub fn rank_of(
    p: &DiversityProblem<'_>,
    kind: ObjectiveKind,
    subset: &[usize],
    constraints: &[Constraint],
) -> u128 {
    assert_eq!(subset.len(), p.k(), "candidate set must have k elements");
    let tuples = p.tuples_of(subset);
    assert!(
        satisfies_all(&tuples, constraints),
        "rank is defined for candidate sets, which must satisfy Σ"
    );
    let target = p.objective(kind, subset);
    let mut better = 0u128;
    for_each_constrained_candidate(p, constraints, |s| {
        if p.objective(kind, s) > target {
            better += 1;
        }
        true
    });
    better + 1
}

/// **DRP with constraints**: is `rank(U) ≤ r`? Early-exits after `r`
/// strictly better constrained sets.
pub fn drp(
    p: &DiversityProblem<'_>,
    kind: ObjectiveKind,
    subset: &[usize],
    r: u128,
    constraints: &[Constraint],
) -> bool {
    assert!(r >= 1);
    let target = p.objective(kind, subset);
    let mut better = 0u128;
    for_each_constrained_candidate(p, constraints, |s| {
        if p.objective(kind, s) > target {
            better += 1;
            if better > r - 1 {
                return false;
            }
        }
        true
    });
    better < r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combin::for_each_k_subset;
    use crate::constraints::CmPred;
    use divr_core::distance::HammingDistance;
    use divr_core::relevance::AttributeRelevance;
    use divr_relquery::{Tuple, Value};

    /// Items: (id, category, score). Categories 0/1; constraint: picking
    /// any category-0 item requires some category-1 item.
    fn setup() -> (Vec<Tuple>, Vec<Constraint>) {
        let universe: Vec<Tuple> = (0..8)
            .map(|i| {
                Tuple::new(vec![
                    Value::int(i),
                    Value::int(i % 2),
                    Value::int((3 * i + 1) % 7),
                ])
            })
            .collect();
        let needs_companion = Constraint::builder()
            .forall(1)
            .exists(1)
            .premise(CmPred::attr_eq_const(0, 1, 0i64))
            .conclusion(CmPred::attr_eq_const(1, 1, 1i64))
            .build();
        (universe, vec![needs_companion])
    }

    fn problem<'a>(
        universe: Vec<Tuple>,
        rel: &'a AttributeRelevance,
        dis: &'a HammingDistance,
        k: usize,
    ) -> DiversityProblem<'a> {
        DiversityProblem::new(universe, rel, dis, Ratio::new(1, 2), k)
    }

    fn rel() -> AttributeRelevance {
        AttributeRelevance {
            attr: 2,
            default: Ratio::ZERO,
        }
    }

    #[test]
    fn enumeration_matches_filtered_brute_force() {
        let (universe, cs) = setup();
        let r = rel();
        let d = HammingDistance::default();
        let p = problem(universe, &r, &d, 3);
        let mut from_engine: Vec<Vec<usize>> = Vec::new();
        for_each_constrained_candidate(&p, &cs, |s| {
            from_engine.push(s.to_vec());
            true
        });
        let mut brute: Vec<Vec<usize>> = Vec::new();
        for_each_k_subset(p.n(), p.k(), |s| {
            if crate::constraints::satisfies_all(&p.tuples_of(s), &cs) {
                brute.push(s.to_vec());
            }
            true
        });
        assert_eq!(from_engine, brute);
        assert!(!brute.is_empty());
        assert!(brute.len() < crate::combin::binomial(8, 3) as usize);
    }

    #[test]
    fn qrd_and_rdc_consistency() {
        let (universe, cs) = setup();
        let r = rel();
        let d = HammingDistance::default();
        let p = problem(universe, &r, &d, 3);
        for kind in ObjectiveKind::ALL {
            let best = maximize(&p, kind, &cs).map(|(v, _)| v).unwrap();
            assert!(qrd(&p, kind, best, &cs));
            assert!(!qrd(&p, kind, best + Ratio::new(1, 1000), &cs));
            // Counts: at the optimum at least one; above it zero.
            assert!(rdc(&p, kind, best, &cs) >= 1);
            assert_eq!(rdc(&p, kind, best + Ratio::ONE, &cs), 0);
        }
    }

    #[test]
    fn constrained_optimum_never_beats_unconstrained() {
        let (universe, cs) = setup();
        let r = rel();
        let d = HammingDistance::default();
        let p = problem(universe, &r, &d, 3);
        for kind in ObjectiveKind::ALL {
            let unconstrained = crate::solvers::exact::maximize(&p, kind).unwrap().0;
            let constrained = maximize(&p, kind, &cs).unwrap().0;
            assert!(constrained <= unconstrained, "{kind}");
        }
    }

    #[test]
    fn rank_counts_only_constrained_sets() {
        let (universe, cs) = setup();
        let r = rel();
        let d = HammingDistance::default();
        let p = problem(universe, &r, &d, 2);
        // Find some constrained candidate set.
        let mut candidate: Option<Vec<usize>> = None;
        for_each_constrained_candidate(&p, &cs, |s| {
            candidate = Some(s.to_vec());
            false
        });
        let candidate = candidate.unwrap();
        let rank = rank_of(&p, ObjectiveKind::MaxSum, &candidate, &cs);
        // Brute-force rank among constrained sets.
        let target = p.objective(ObjectiveKind::MaxSum, &candidate);
        let mut better = 0u128;
        for_each_k_subset(p.n(), p.k(), |s| {
            if crate::constraints::satisfies_all(&p.tuples_of(s), &cs)
                && p.objective(ObjectiveKind::MaxSum, s) > target
            {
                better += 1;
            }
            true
        });
        assert_eq!(rank, better + 1);
        assert!(
            drp(&p, ObjectiveKind::MaxSum, &candidate, rank, &cs)
        );
        if rank > 1 {
            assert!(!drp(&p, ObjectiveKind::MaxSum, &candidate, rank - 1, &cs));
        }
    }

    #[test]
    fn denial_pruning_preserves_results() {
        // Conflict constraint: items 0 and 1 cannot coexist (by id).
        let universe: Vec<Tuple> = (0..6).map(|i| Tuple::ints([i])).collect();
        let conflict = Constraint::builder()
            .forall(2)
            .exists(0)
            .premise(CmPred::attr_eq_const(0, 0, 0i64))
            .premise(CmPred::attr_eq_const(1, 0, 1i64))
            .conclusion(CmPred::attrs_ne((0, 0), (0, 0)))
            .build();
        let r = rel();
        let d = HammingDistance::default();
        let p = DiversityProblem::new(universe, &r, &d, Ratio::ONE, 2);
        let cs = vec![conflict];
        let count = rdc(&p, ObjectiveKind::MaxSum, Ratio::ZERO, &cs);
        // C(6,2) = 15 minus the single forbidden pair {0,1}.
        assert_eq!(count, 14);
    }

    #[test]
    fn empty_constraint_set_reduces_to_unconstrained() {
        let (universe, _) = setup();
        let r = rel();
        let d = HammingDistance::default();
        let p = problem(universe, &r, &d, 3);
        for kind in ObjectiveKind::ALL {
            assert_eq!(
                maximize(&p, kind, &[]).map(|(v, _)| v),
                crate::solvers::exact::maximize(&p, kind).map(|(v, _)| v)
            );
        }
    }
}
