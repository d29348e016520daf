//! Theorem 7.5: the polynomial **Turing** reduction
//! #SSPk → RDC(CQ/identity, F_mono), and its composition with the
//! Lemma 7.6 parsimonious reduction #SSP → #SSPk.
//!
//! Given `(W, π, d, l)`: the database holds one unary tuple per element,
//! the query is the identity, `δ_rel((w)) = π(w)`, `δ_dis ≡ 0`, `λ = 0`,
//! `k = l` — so `F_mono(U) = Σ_{w∈U} π(w)`. Two oracle calls
//! `X = RDC(B = d)` and `Y = RDC(B = d + 1)` then give
//! `#SSPk = X − Y` (counting subsets with sum *exactly* `d`).

use crate::instance::Instance;
use divr_core::distance::ConstantDistance;
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_core::relevance::ClosureRelevance;
use divr_paper::solvers::counting;
use divr_logic::ssp;
use divr_relquery::{Database, Query, Tuple, Value};

/// Name of the element relation `I_W`.
pub const ELEMENT_REL: &str = "W";

/// Builds the Theorem 7.5 instance for `(weights, d, l)`. Elements are
/// identified by index; `bound = d`.
pub fn sspk_instance(weights: &[u64], d: u64, l: usize) -> Instance {
    let mut db = Database::new();
    db.create_relation(ELEMENT_REL, &["id"]).unwrap();
    for i in 0..weights.len() {
        db.insert(ELEMENT_REL, vec![Value::int(i as i64)]).unwrap();
    }
    let weights_owned: Vec<u64> = weights.to_vec();
    let rel = ClosureRelevance(move |t: &Tuple| {
        let id = t[0].as_int().expect("element ids are integers") as usize;
        Ratio::int(weights_owned[id] as i64)
    });
    Instance {
        db,
        query: Query::identity(ELEMENT_REL),
        rel: Box::new(rel),
        dis: Box::new(ConstantDistance(Ratio::ZERO)),
        lambda: Ratio::ZERO,
        k: l,
        bound: Ratio::int(d as i64),
    }
}

/// Solves #SSPk through the RDC oracle, exactly as the Theorem 7.5 proof
/// prescribes: `X − Y` with thresholds `d` and `d + 1`.
pub fn sspk_via_rdc(weights: &[u64], d: u64, l: usize) -> u128 {
    if l == 0 {
        // A 0-element candidate set is ruled out by the model (k ≥ 1);
        // handle the trivial case directly: the empty set has sum 0.
        return u128::from(d == 0);
    }
    let inst = sspk_instance(weights, d, l);
    let p = inst.problem();
    let x = counting::rdc(&p, ObjectiveKind::Mono, Ratio::int(d as i64));
    let y = counting::rdc(&p, ObjectiveKind::Mono, Ratio::int(d as i64 + 1));
    x - y
}

/// End-to-end composition: #SSP → (Lemma 7.6) → #SSPk → (Thm 7.5 Turing
/// reduction) → RDC oracle calls.
pub fn ssp_via_rdc(weights: &[u64], d: u64) -> u128 {
    let inst = ssp::ssp_to_sspk(weights, d);
    sspk_via_rdc(&inst.weights, inst.target, inst.cardinality)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn turing_reduction_matches_dp_counter() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        for _ in 0..20 {
            let n = rng.gen_range(1..=8);
            let w: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=6)).collect();
            let d = rng.gen_range(0..=12);
            let l = rng.gen_range(1..=n);
            assert_eq!(
                sspk_via_rdc(&w, d, l),
                ssp::count_subset_sum_k(&w, d, l),
                "w={w:?} d={d} l={l}"
            );
        }
    }

    #[test]
    fn end_to_end_ssp_chain() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(67);
        for _ in 0..10 {
            let n = rng.gen_range(1..=6);
            let w: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=5)).collect();
            let d = rng.gen_range(0..=10);
            assert_eq!(
                ssp_via_rdc(&w, d),
                ssp::count_subset_sum(&w, d),
                "w={w:?} d={d}"
            );
        }
    }

    #[test]
    fn fixed_example() {
        // {1,2,3,4}, size-2 subsets summing to 5: {1,4}, {2,3}.
        assert_eq!(sspk_via_rdc(&[1, 2, 3, 4], 5, 2), 2);
        // no size-4 subset sums to 5
        assert_eq!(sspk_via_rdc(&[1, 2, 3, 4], 5, 4), 0);
        // the whole set sums to 10
        assert_eq!(sspk_via_rdc(&[1, 2, 3, 4], 10, 4), 1);
    }

    #[test]
    fn duplicate_weights_counted_as_distinct_elements() {
        assert_eq!(sspk_via_rdc(&[2, 2], 2, 1), 2);
    }
}
