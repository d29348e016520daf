//! The Gollapudi–Sharma axiom system, executable.
//!
//! The paper adopts its three objectives from Gollapudi & Sharma
//! (WWW 2009), who characterize diversification objectives by a set of
//! axioms and show no function satisfies all of them simultaneously.
//! This module makes the axioms checkable on concrete finite instances:
//!
//! * [`scale_invariance`] — scaling every relevance and distance by
//!   `α > 0` must not change which candidate sets are optimal;
//! * [`monotone_in_inputs`] — raising any single relevance or distance
//!   must not lower a set's value (checked per set);
//! * [`independence_of_irrelevant`] — a set's value must not depend on
//!   relevances/distances of tuples **outside** the set. `F_MS` and
//!   `F_MM` satisfy it; **`F_mono` violates it by design** — its
//!   diversity term averages over all of `Q(D)` (Section 3.2), the very
//!   property that drives its different complexity profile in the paper;
//! * [`stability_nested`] — the optimal `k`-set being contained in an
//!   optimal `(k+1)`-set. `F_mono` always satisfies it (top-`k` by item
//!   score); `F_MS`/`F_MM` violate it on small hand-checkable instances
//!   (`tests::max_sum_violates_stability`);
//! * [`make_optimal`] — *richness*, constructively: given any target
//!   candidate set, build relevance/distance functions making it the
//!   unique optimum.
//!
//! A finite checker cannot *prove* an axiom (that needs the paper's
//! algebra); what it can do is (a) regression-test the objectives'
//! known profile on seeded samples, and (b) exhibit concrete
//! counterexamples where an axiom fails — both of which the tests pin
//! down.

use crate::distance::TableDistance;
use crate::problem::{DiversityProblem, ObjectiveKind};
use crate::ratio::Ratio;
use crate::relevance::TableRelevance;
use crate::solvers::exact;
use divr_relquery::Tuple;

/// A plain, perturbable instance: explicit relevance and distance
/// tables over an integer-keyed universe.
#[derive(Clone, Debug)]
pub struct TableInstance {
    /// The universe tuples (single integer attribute `0..n`).
    pub universe: Vec<Tuple>,
    /// Per-tuple relevance values.
    pub rels: Vec<Ratio>,
    /// Upper-triangle pair distances, row-major (`(i, j)` with `i < j`).
    pub dists: Vec<Ratio>,
    /// The relevance/diversity trade-off.
    pub lambda: Ratio,
}

impl TableInstance {
    /// Builds an instance over `0..n` with the given value tables.
    pub fn new(n: usize, rels: Vec<Ratio>, dists: Vec<Ratio>, lambda: Ratio) -> Self {
        assert_eq!(rels.len(), n);
        assert_eq!(dists.len(), n * n.saturating_sub(1) / 2);
        TableInstance {
            universe: (0..n as i64).map(|i| Tuple::ints([i])).collect(),
            rels,
            dists,
            lambda,
        }
    }

    /// Number of universe tuples.
    pub fn n(&self) -> usize {
        self.universe.len()
    }

    fn pair_index(&self, i: usize, j: usize) -> usize {
        let (i, j) = (i.min(j), i.max(j));
        i * self.n() - i * (i + 1) / 2 + (j - i - 1)
    }

    /// The distance between items `i` and `j`.
    pub fn dist(&self, i: usize, j: usize) -> Ratio {
        if i == j {
            Ratio::ZERO
        } else {
            self.dists[self.pair_index(i, j)]
        }
    }

    /// Returns a copy with every relevance and distance scaled by `α`.
    pub fn scaled(&self, alpha: Ratio) -> Self {
        assert!(alpha > Ratio::ZERO, "scale factor must be positive");
        let mut out = self.clone();
        for r in &mut out.rels {
            *r = *r * alpha;
        }
        for d in &mut out.dists {
            *d = *d * alpha;
        }
        out
    }

    /// Returns a copy with relevance of item `i` set to `v`.
    fn with_rel(&self, i: usize, v: Ratio) -> Self {
        let mut out = self.clone();
        out.rels[i] = v;
        out
    }

    /// Returns a copy with the distance of pair `(i, j)` set to `v`.
    pub fn with_dist(&self, i: usize, j: usize, v: Ratio) -> Self {
        assert!(i != j);
        let mut out = self.clone();
        let idx = self.pair_index(i, j);
        out.dists[idx] = v;
        out
    }

    fn tables(&self) -> (TableRelevance, TableDistance) {
        let mut rel = TableRelevance::with_default(Ratio::ZERO);
        for (i, &r) in self.rels.iter().enumerate() {
            rel.set(self.universe[i].clone(), r);
        }
        let mut dis = TableDistance::with_default(Ratio::ZERO);
        for i in 0..self.n() {
            for j in i + 1..self.n() {
                dis.set(
                    self.universe[i].clone(),
                    self.universe[j].clone(),
                    self.dist(i, j),
                );
            }
        }
        (rel, dis)
    }

    /// The objective value of a candidate set under `kind`.
    pub fn value(&self, kind: ObjectiveKind, k: usize, subset: &[usize]) -> Ratio {
        let (rel, dis) = self.tables();
        let p = DiversityProblem::new(self.universe.clone(), &rel, &dis, self.lambda, k);
        p.objective(kind, subset)
    }

    /// All optimal candidate sets of size `k` (ties included).
    pub fn optimal_sets(&self, kind: ObjectiveKind, k: usize) -> Vec<Vec<usize>> {
        let (rel, dis) = self.tables();
        let p = DiversityProblem::new(self.universe.clone(), &rel, &dis, self.lambda, k);
        let Some((best, _)) = exact::maximize(&p, kind) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        crate::combin::for_each_k_subset(self.n(), k, |s| {
            if p.objective(kind, s) == best {
                out.push(s.to_vec());
            }
            true
        });
        out
    }
}

/// **Scale invariance**: the family of optimal sets is unchanged when
/// all relevances and distances are multiplied by `α > 0`. Returns a
/// violating `(k, α)` pair if found.
pub fn scale_invariance(
    inst: &TableInstance,
    kind: ObjectiveKind,
    alphas: &[Ratio],
) -> Option<(usize, Ratio)> {
    for k in 1..=inst.n().min(4) {
        let base = inst.optimal_sets(kind, k);
        for &alpha in alphas {
            if inst.scaled(alpha).optimal_sets(kind, k) != base {
                return Some((k, alpha));
            }
        }
    }
    None
}

/// **Monotonicity in the inputs**: raising one relevance or one distance
/// never lowers the value of a set containing the touched item(s).
/// Returns a description of a violation if found.
pub fn monotone_in_inputs(
    inst: &TableInstance,
    kind: ObjectiveKind,
    k: usize,
    subset: &[usize],
    bump: Ratio,
) -> Option<String> {
    assert!(bump > Ratio::ZERO);
    let before = inst.value(kind, k, subset);
    for &i in subset {
        let raised = inst.with_rel(i, inst.rels[i] + bump);
        if raised.value(kind, k, subset) < before {
            return Some(format!("raising rel({i}) lowered the value"));
        }
    }
    for (a, &i) in subset.iter().enumerate() {
        for &j in &subset[a + 1..] {
            let raised = inst.with_dist(i, j, inst.dist(i, j) + bump);
            if raised.value(kind, k, subset) < before {
                return Some(format!("raising dist({i},{j}) lowered the value"));
            }
        }
    }
    None
}

/// **Independence of irrelevant attributes**: the value of `subset` must
/// not change when a relevance of an unselected tuple, or a distance of
/// a pair **not contained in the set** (cross pairs included), is
/// perturbed. Returns a description of the dependence if found.
///
/// `F_mono`'s dependence enters through the *cross* pairs: its diversity
/// term sums `δ_dis(t, t′)` over every `t′ ∈ Q(D)`, selected or not.
pub fn independence_of_irrelevant(
    inst: &TableInstance,
    kind: ObjectiveKind,
    k: usize,
    subset: &[usize],
    bump: Ratio,
) -> Option<String> {
    let before = inst.value(kind, k, subset);
    for i in 0..inst.n() {
        if subset.contains(&i) {
            continue;
        }
        let touched = inst.with_rel(i, inst.rels[i] + bump);
        if touched.value(kind, k, subset) != before {
            return Some(format!("value depends on rel({i}) outside the set"));
        }
        // Pairs not inside the set: (outside, outside) and (outside,
        // inside) alike.
        for j in 0..inst.n() {
            if j == i {
                continue;
            }
            let touched = inst.with_dist(i, j, inst.dist(i, j) + bump);
            if touched.value(kind, k, subset) != before {
                return Some(format!("value depends on dist({i},{j}) outside the set"));
            }
        }
    }
    None
}

/// **Stability** (nested optima): some optimal `k`-set extends to an
/// optimal `(k+1)`-set. Returns the offending `k` if the nesting fails.
pub fn stability_nested(inst: &TableInstance, kind: ObjectiveKind, max_k: usize) -> Option<usize> {
    for k in 1..max_k.min(inst.n()) {
        let small = inst.optimal_sets(kind, k);
        let big = inst.optimal_sets(kind, k + 1);
        let nested = big.iter().any(|b| {
            small
                .iter()
                .any(|s| s.iter().all(|i| b.contains(i)))
        });
        if !nested {
            return Some(k);
        }
    }
    None
}

/// **Richness**, constructively: returns an instance over `n` items on
/// which `target` is the unique optimal `|target|`-set for all three
/// objectives — relevance 1 inside the target, 0 outside; distance 1
/// inside, 0 on every other pair; `λ = ½`.
pub fn make_optimal(n: usize, target: &[usize]) -> TableInstance {
    assert!(
        target.len() >= 2,
        "richness needs |target| >= 2: every singleton has F_MS = 0 \
         (the k-1 scale factor vanishes), so no singleton is ever the \
         unique max-sum optimum"
    );
    assert!(target.len() < n);
    assert!(target.iter().all(|&i| i < n));
    let rels: Vec<Ratio> = (0..n)
        .map(|i| {
            if target.contains(&i) {
                Ratio::ONE
            } else {
                Ratio::ZERO
            }
        })
        .collect();
    let mut inst = TableInstance::new(n, rels, vec![Ratio::ZERO; n * (n - 1) / 2], Ratio::new(1, 2));
    for (a, &i) in target.iter().enumerate() {
        for &j in &target[a + 1..] {
            inst = inst.with_dist(i, j, Ratio::ONE);
        }
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_instance(seed: u64, n: usize) -> TableInstance {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rels = (0..n).map(|_| Ratio::int(rng.gen_range(0..6))).collect();
        let dists = (0..n * (n - 1) / 2)
            .map(|_| Ratio::int(rng.gen_range(0..6)))
            .collect();
        let lambda = Ratio::new(rng.gen_range(0..=4), 4);
        TableInstance::new(n, rels, dists, lambda)
    }

    #[test]
    fn all_three_objectives_are_scale_invariant_on_samples() {
        let alphas = [Ratio::new(1, 3), Ratio::int(2), Ratio::int(7)];
        for seed in 0..6 {
            let inst = random_instance(100 + seed, 6);
            for kind in ObjectiveKind::ALL {
                assert_eq!(
                    scale_invariance(&inst, kind, &alphas),
                    None,
                    "{kind} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn all_three_objectives_are_monotone_on_samples() {
        for seed in 0..6 {
            let inst = random_instance(200 + seed, 6);
            for kind in ObjectiveKind::ALL {
                assert_eq!(
                    monotone_in_inputs(&inst, kind, 3, &[0, 2, 4], Ratio::ONE),
                    None,
                    "{kind} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn ms_and_mm_are_independent_of_irrelevant_attributes() {
        for seed in 0..6 {
            let inst = random_instance(300 + seed, 6);
            for kind in [ObjectiveKind::MaxSum, ObjectiveKind::MaxMin] {
                assert_eq!(
                    independence_of_irrelevant(&inst, kind, 3, &[1, 3, 5], Ratio::ONE),
                    None,
                    "{kind} seed={seed}"
                );
            }
        }
    }

    /// The paper's structural point, axiomatized: F_mono's value depends
    /// on tuples outside the selected set (its diversity term averages
    /// over all of Q(D)), which is exactly why it cannot be streamed and
    /// why its combined complexity jumps to PSPACE (Thm 5.2).
    #[test]
    fn mono_depends_on_irrelevant_attributes() {
        // λ = 1 so only the (global) diversity term is active.
        let inst = TableInstance::new(
            4,
            vec![Ratio::ONE; 4],
            vec![Ratio::ONE; 6],
            Ratio::ONE,
        );
        let violation =
            independence_of_irrelevant(&inst, ObjectiveKind::Mono, 2, &[0, 1], Ratio::ONE);
        assert!(violation.is_some(), "F_mono must show the dependence");
        // At λ = 0 the global term vanishes and the dependence disappears.
        let inst0 = TableInstance::new(
            4,
            vec![Ratio::ONE; 4],
            vec![Ratio::ONE; 6],
            Ratio::ZERO,
        );
        assert_eq!(
            independence_of_irrelevant(&inst0, ObjectiveKind::Mono, 2, &[0, 1], Ratio::ONE),
            None
        );
    }

    /// Max-sum violates stability: the best pair {0,1} (distance 10) is
    /// abandoned for the triangle {2,3,4} (distances 7) at k = 3.
    #[test]
    fn max_sum_violates_stability() {
        let mut inst = TableInstance::new(
            5,
            vec![Ratio::ZERO; 5],
            vec![Ratio::ZERO; 10],
            Ratio::ONE,
        );
        inst = inst.with_dist(0, 1, Ratio::int(10));
        for (i, j) in [(2, 3), (2, 4), (3, 4)] {
            inst = inst.with_dist(i, j, Ratio::int(7));
        }
        // Best 2-set is {0,1}; best 3-set is {2,3,4} — not nested.
        assert_eq!(inst.optimal_sets(ObjectiveKind::MaxSum, 2), vec![vec![0, 1]]);
        assert_eq!(
            inst.optimal_sets(ObjectiveKind::MaxSum, 3),
            vec![vec![2, 3, 4]]
        );
        assert_eq!(stability_nested(&inst, ObjectiveKind::MaxSum, 3), Some(2));
    }

    /// Max-min violates stability on the same construction.
    #[test]
    fn max_min_violates_stability() {
        let mut inst = TableInstance::new(
            5,
            vec![Ratio::ZERO; 5],
            vec![Ratio::ZERO; 10],
            Ratio::ONE,
        );
        inst = inst.with_dist(0, 1, Ratio::int(10));
        for (i, j) in [(2, 3), (2, 4), (3, 4)] {
            inst = inst.with_dist(i, j, Ratio::int(7));
        }
        assert_eq!(stability_nested(&inst, ObjectiveKind::MaxMin, 3), Some(2));
    }

    /// F_mono always satisfies stability: optima are top-k by item
    /// score, which nest by construction.
    #[test]
    fn mono_satisfies_stability_on_samples() {
        for seed in 0..8 {
            let inst = random_instance(400 + seed, 6);
            assert_eq!(
                stability_nested(&inst, ObjectiveKind::Mono, 4),
                None,
                "seed={seed}"
            );
        }
    }

    /// Richness: any target becomes the unique optimum under the
    /// constructed instance, for all three objectives.
    #[test]
    fn richness_constructor_makes_target_uniquely_optimal() {
        for target in [vec![0usize, 2], vec![1, 3, 4], vec![2, 4, 5]] {
            let inst = make_optimal(6, &target);
            for kind in ObjectiveKind::ALL {
                let optima = inst.optimal_sets(kind, target.len());
                assert_eq!(optima, vec![target.clone()], "{kind} {target:?}");
            }
        }
    }

    #[test]
    fn perturbation_helpers_are_pure() {
        let inst = random_instance(1, 5);
        let before = inst.clone();
        let _ = inst.with_rel(0, Ratio::int(99));
        let _ = inst.with_dist(1, 2, Ratio::int(99));
        let _ = inst.scaled(Ratio::int(3));
        assert_eq!(inst.rels, before.rels);
        assert_eq!(inst.dists, before.dists);
    }
}
