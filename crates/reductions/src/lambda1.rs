//! Theorem 8.3 (`λ = 1` special case): the objective is defined by the
//! distance function alone, and *none* of the complexity bounds drop.
//!
//! The paper proves this with fresh gadgets (its Theorem 5.1/5.2 lower
//! bounds already use `λ = 1`; the new content is the counting and FO
//! membership reductions re-done with distance-only objectives):
//!
//! * **#Σ₁SAT → RDC(CQ, F_MS/F_MM)** at `λ = 1`: the Theorem 7.1 query,
//!   but validity is carried by a single positive distance between a
//!   counted tuple `(t_Y, 0, 1)` and the distinguished always-present
//!   tuple `(1,…,1, 1, 0)` ([`sigma1_to_rdc_ms_lambda1`]).
//! * **membership → QRD(FO, ·)** at `λ = 1`: `Q′(x̄, c) = Q(x̄) ∧ R01(c)`
//!   and `δ_dis((s,0), (s,1)) = 1`; both flag variants of the probe tuple
//!   exist iff `s ∈ Q(D)` ([`membership_to_qrd_lambda1`]).
//! * **¬membership → DRP(FO, ·)** at `λ = 1`: the Theorem 6.1 query with
//!   `δ_dis((s,1,1), (s,1,0)) = 1` and `δ_dis((s,0,1), (s,0,0)) = 2`;
//!   the given candidate is top-ranked iff `s ∉ Q(D)`
//!   ([`membership_to_drp_lambda1`]).
//! * **#QBF → RDC(FO, ·)** at `λ = 1` ([`qbf_to_rdc_fo_lambda1`]).
//! * **#SSPk → RDC(identity, F_mono)** at `λ = 1`, the data-complexity
//!   Turing reduction — **broken as published**; see
//!   [`paper_sspk_lambda1`] for the literal gadget with a counterexample
//!   and [`sspk_via_rdc_lambda1`] for the repaired sink-anchored variant.
//!
//! ## The published `λ = 1` mono gadget double-counts lone tuples
//!
//! The paper's gadget stores *two* tuples `(w), (w′)` per element with
//! `δ_dis((w), (w′)) = π(w)` and claims
//! `F_mono(U) = 1/(2|W|−1) · Σ_{(w)∈U, (w′)∈U} δ_dis((w), (w′))` — a sum
//! over pairs *inside* `U`. But `F_mono` (Section 3.2) sums
//! `δ_dis(t, t′)` over `t′ ∈ Q(D)`, the **whole** result: a lone `(w)`
//! without its partner still contributes `π(w)`, because `(w′)` is always
//! in `Q(D)` under the identity query. So the valid sets are the
//! `2l`-subsets whose *tuple-weight* sum clears `d`, not the element sets
//! the theorem wants, and the `X − Y` trick counts tuple multisets with
//! multiplicities in `{0, 1, 2}` instead of subsets
//! (`tests::paper_variant_counterexample`).
//!
//! **Repair.** Drop the pairing: one tuple per element plus two *sink*
//! tuples `s₁, s₂` with `δ_dis((i), s₁) = π(i)`, `δ_dis(s₁, s₂) = M` for
//! `M = Σπ + d + 1`, all other pairs 0. At `λ = 1` the per-item mono
//! score is exactly `π(i)/(n+1)` for elements, and any set containing a
//! sink scores at least `M/(n+1) ≥ (d+1)/(n+1)`, so sink-polluted sets
//! cancel in `X − Y` and only element sets with sum exactly `d` remain —
//! restoring the Theorem 8.3 claim with the same two oracle calls.

use crate::instance::Instance;
use crate::sigma1_rdc::{gadget_db, qbf_fo_query, sigma1_query};
use divr_core::distance::{ClosureDistance, TableDistance};
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_core::relevance::ConstantRelevance;
use divr_paper::solvers::counting;
use divr_logic::{Cnf, Qbf, Quant};
use divr_relquery::query::{cnst, var, CmpOp, FoQuery, Formula, Query, Var};
use divr_relquery::{Database, Tuple, Value};

use crate::gadgets::{add_boolean_domain, BOOL_REL};

/// Distance 1 between a "counted" tuple `(…, 0, 1)` and the distinguished
/// tuple `(1,…,1, 1, 0)` (all-ones over the first `counted` positions),
/// 0 for every other pair. Symmetric by construction; a tuple cannot take
/// both shapes, so the diagonal is 0.
fn counted_vs_distinguished(counted: usize) -> ClosureDistance<impl Fn(&Tuple, &Tuple) -> Ratio> {
    let is_counted = move |t: &Tuple| {
        let n = t.arity();
        t[n - 2].as_int() == Some(0) && t[n - 1].as_int() == Some(1)
    };
    let is_distinguished = move |t: &Tuple| {
        let n = t.arity();
        t[n - 2].as_int() == Some(1)
            && t[n - 1].as_int() == Some(0)
            && (0..counted).all(|i| t[i].as_int() == Some(1))
    };
    ClosureDistance(move |a: &Tuple, b: &Tuple| {
        if (is_counted(a) && is_distinguished(b)) || (is_counted(b) && is_distinguished(a)) {
            Ratio::ONE
        } else {
            Ratio::ZERO
        }
    })
}

/// Theorem 8.3: #Σ₁SAT → RDC(CQ, F_MS) at `λ = 1` (`k = 2`, `B = 1`),
/// parsimonious. Valid sets are exactly the pairs
/// `{(t_Y, 0, 1), (1,…,1, 1, 0)}`, one per counted Y-assignment.
pub fn sigma1_to_rdc_ms_lambda1(cnf: &Cnf, m_x: usize) -> Instance {
    let n_y = cnf.num_vars - m_x;
    assert!(n_y >= 1, "need at least one counted variable");
    Instance {
        db: gadget_db(),
        query: sigma1_query(cnf, m_x),
        rel: Box::new(ConstantRelevance(Ratio::ONE)),
        dis: Box::new(counted_vs_distinguished(n_y)),
        lambda: Ratio::ONE,
        k: 2,
        bound: Ratio::ONE,
    }
}

/// Theorem 8.3: #Σ₁SAT → RDC(CQ, F_MM) at `λ = 1` (`k = 2`, `B = 1`),
/// parsimonious (the pair minimum is the single positive distance).
pub fn sigma1_to_rdc_mm_lambda1(cnf: &Cnf, m_x: usize) -> Instance {
    sigma1_to_rdc_ms_lambda1(cnf, m_x)
}

/// Theorem 8.3: #QBF → RDC(FO, F_MS/F_MM) at `λ = 1` (`k = 2`, `B = 1`),
/// parsimonious. `m` is the counted leading existential block.
pub fn qbf_to_rdc_fo_lambda1(qbf: &Qbf, m: usize) -> Instance {
    assert!(m >= 1 && m <= qbf.num_vars());
    assert!(
        qbf.prefix[..m].iter().all(|q| *q == Quant::Exists),
        "counted block must be existential"
    );
    Instance {
        db: gadget_db(),
        query: qbf_fo_query(qbf, m),
        rel: Box::new(ConstantRelevance(Ratio::ONE)),
        dis: Box::new(counted_vs_distinguished(m)),
        lambda: Ratio::ONE,
        k: 2,
        bound: Ratio::ONE,
    }
}

fn extend_db(db: &Database) -> Database {
    let mut out = db.clone();
    assert!(
        !out.has_relation(BOOL_REL),
        "input database may not already define {BOOL_REL}"
    );
    add_boolean_domain(&mut out);
    out
}

/// Theorem 8.3: membership → QRD(FO, F_MS/F_MM) at `λ = 1`. The query is
/// `Q′(x̄, c) = Q(x̄) ∧ R01(c)` and the only positive distance is between
/// the two flag variants of the probe: `δ_dis((s,0), (s,1)) = 1`. With
/// `k = 2, B = 1` a valid set exists iff `s ∈ Q(D)`.
pub fn membership_to_qrd_lambda1(db: &Database, q: &FoQuery, s: &Tuple) -> Instance {
    assert_eq!(s.arity(), q.head().len(), "candidate tuple arity mismatch");
    let db2 = extend_db(db);
    let c = Var::new("_c");
    let mut head: Vec<Var> = q.head().to_vec();
    head.push(c);
    let body = Formula::and(vec![
        q.body().clone(),
        Formula::atom(BOOL_REL, vec![var("_c")]),
    ]);
    let query = Query::Fo(FoQuery::new(head, body));
    let with_flag = |flag: i64| s.concat(&Tuple::ints([flag]));
    let dis = TableDistance::with_default(Ratio::ZERO).with(with_flag(0), with_flag(1), Ratio::ONE);
    Instance {
        db: db2,
        query,
        rel: Box::new(ConstantRelevance(Ratio::ONE)),
        dis: Box::new(dis),
        lambda: Ratio::ONE,
        k: 2,
        bound: Ratio::ONE,
    }
}

/// The DRP instance and candidate set of the `λ = 1` membership
/// reduction.
pub struct MembershipDrpLambda1 {
    /// The constructed instance (`bound` unused by DRP).
    pub instance: Instance,
    /// The candidate `U = {(s,1,1), (s,1,0)}`.
    pub candidate: Vec<Tuple>,
}

/// Theorem 8.3: ¬membership → DRP(FO, F_MS/F_MM) at `λ = 1`, `r = 1`,
/// `k = 2`. `δ_dis((s,1,1),(s,1,0)) = 1` and `δ_dis((s,0,1),(s,0,0)) = 2`;
/// the `(s,0,·)` pair exists iff `s ∈ Q(D)` and then strictly outranks
/// the candidate.
pub fn membership_to_drp_lambda1(db: &Database, q: &FoQuery, s: &Tuple) -> MembershipDrpLambda1 {
    assert_eq!(s.arity(), q.head().len(), "candidate tuple arity mismatch");
    let db2 = extend_db(db);
    let z = Var::new("_z");
    let c = Var::new("_c");
    let mut head: Vec<Var> = q.head().to_vec();
    head.push(z);
    head.push(c);
    // Q′(x̄, z, c) = (Q(x̄) ∨ (R01(z) ∧ z = 1)) ∧ R01(c) ∧ R01(z).
    let body = Formula::and(vec![
        Formula::or(vec![
            q.body().clone(),
            Formula::and(vec![
                Formula::atom(BOOL_REL, vec![var("_z")]),
                Formula::cmp(var("_z"), CmpOp::Eq, cnst(1)),
            ]),
        ]),
        Formula::atom(BOOL_REL, vec![var("_c")]),
        Formula::atom(BOOL_REL, vec![var("_z")]),
    ]);
    let query = Query::Fo(FoQuery::new(head, body));
    let flag2 = |a: i64, b: i64| s.concat(&Tuple::ints([a, b]));
    let dis = TableDistance::with_default(Ratio::ZERO)
        .with(flag2(1, 1), flag2(1, 0), Ratio::ONE)
        .with(flag2(0, 1), flag2(0, 0), Ratio::int(2));
    MembershipDrpLambda1 {
        instance: Instance {
            db: db2,
            query,
            rel: Box::new(ConstantRelevance(Ratio::ONE)),
            dis: Box::new(dis),
            lambda: Ratio::ONE,
            k: 2,
            bound: Ratio::ZERO,
        },
        candidate: vec![flag2(1, 1), flag2(1, 0)],
    }
}

/// Name of the element relation in the `λ = 1` subset-sum gadgets.
pub const ELEMENT_REL: &str = "W";

/// The paper's **literal** Theorem 8.3 gadget for
/// #SSPk → RDC(identity, F_mono) at `λ = 1`: two tuples `(i, 0)` ("w")
/// and `(i, 1)` ("w′") per element, `δ_dis((i,0), (i,1)) = π(i)`, other
/// pairs 0, `δ_rel ≡ 1`, `k = 2l`, `B = d / (2|W|−1)`.
///
/// **This construction is incorrect as published** — a lone tuple still
/// contributes its pair weight through the `t′ ∈ Q(D)` sum of `F_mono`,
/// so validity does not force paired selections (see the module docs and
/// `tests::paper_variant_counterexample`). It is kept for the record.
pub fn paper_sspk_lambda1(weights: &[u64], d: u64, l: usize) -> Instance {
    let n = weights.len();
    assert!(n >= 1, "need at least one element");
    let mut db = Database::new();
    db.create_relation(ELEMENT_REL, &["id", "side"]).unwrap();
    for i in 0..n {
        for side in 0..2 {
            db.insert(ELEMENT_REL, vec![Value::int(i as i64), Value::int(side)])
                .unwrap();
        }
    }
    let w: Vec<u64> = weights.to_vec();
    let dis = ClosureDistance(move |a: &Tuple, b: &Tuple| {
        let (ia, ib) = (a[0].as_int(), b[0].as_int());
        if ia == ib && a[1] != b[1] {
            Ratio::int(w[ia.expect("int id") as usize] as i64)
        } else {
            Ratio::ZERO
        }
    });
    Instance {
        db,
        query: Query::identity(ELEMENT_REL),
        rel: Box::new(ConstantRelevance(Ratio::ONE)),
        dis: Box::new(dis),
        lambda: Ratio::ONE,
        k: 2 * l,
        bound: Ratio::new(d as i64, 2 * n as i64 - 1),
    }
}

/// The repaired `λ = 1` gadget: one tuple `(i)` per element plus sinks
/// `(n)` and `(n+1)`; `δ_dis((i), (n)) = π(i)`, `δ_dis((n), (n+1)) = M`
/// with `M = Σπ + d + 1`, all other pairs 0; `k = l`,
/// `B = d / (n+1)` (the universe has `n + 2` tuples, so the mono
/// normalizer is `n + 1`).
pub fn repaired_sspk_lambda1(weights: &[u64], d: u64, l: usize) -> Instance {
    let n = weights.len();
    assert!(n >= 1, "need at least one element");
    let mut db = Database::new();
    db.create_relation(ELEMENT_REL, &["id"]).unwrap();
    for i in 0..n + 2 {
        db.insert(ELEMENT_REL, vec![Value::int(i as i64)]).unwrap();
    }
    let sink1 = n as i64;
    let sink2 = n as i64 + 1;
    let big = weights.iter().sum::<u64>() as i64 + d as i64 + 1;
    let w: Vec<u64> = weights.to_vec();
    let dis = ClosureDistance(move |a: &Tuple, b: &Tuple| {
        let (ia, ib) = (
            a[0].as_int().expect("int id"),
            b[0].as_int().expect("int id"),
        );
        let (lo, hi) = (ia.min(ib), ia.max(ib));
        if hi == sink1 && lo < sink1 {
            Ratio::int(w[lo as usize] as i64)
        } else if lo == sink1 && hi == sink2 {
            Ratio::int(big)
        } else {
            Ratio::ZERO
        }
    });
    Instance {
        db,
        query: Query::identity(ELEMENT_REL),
        rel: Box::new(ConstantRelevance(Ratio::ONE)),
        dis: Box::new(dis),
        lambda: Ratio::ONE,
        k: l,
        bound: Ratio::new(d as i64, n as i64 + 1),
    }
}

/// Solves #SSPk through the RDC oracle at `λ = 1` with the repaired
/// gadget: `X − Y` with thresholds `d/(n+1)` and `(d+1)/(n+1)`.
/// Sink-containing sets score at least `(Σπ + d + 1)/(n+1)` and cancel.
pub fn sspk_via_rdc_lambda1(weights: &[u64], d: u64, l: usize) -> u128 {
    let n = weights.len();
    if l == 0 {
        return u128::from(d == 0);
    }
    if n == 0 || l > n {
        return 0;
    }
    let inst = repaired_sspk_lambda1(weights, d, l);
    let p = inst.problem();
    let x = counting::rdc(&p, ObjectiveKind::Mono, Ratio::new(d as i64, n as i64 + 1));
    let y = counting::rdc(
        &p,
        ObjectiveKind::Mono,
        Ratio::new(d as i64 + 1, n as i64 + 1),
    );
    x - y
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_logic::counting::{count_qbf, count_sigma1};
    use divr_logic::ssp;
    use divr_relquery::parser::parse_fo_query;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sigma1_lambda1_count_matches_direct_counter() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(83);
        for trial in 0..8 {
            let n = 2 + trial % 3;
            let m_x = 1 + trial % (n - 1).max(1);
            if n - m_x == 0 {
                continue;
            }
            let cnf = divr_logic::gen::random_3sat(&mut rng, n, 1 + trial % 4);
            let expected = count_sigma1(&cnf, m_x);
            assert_eq!(
                sigma1_to_rdc_ms_lambda1(&cnf, m_x).rdc(ObjectiveKind::MaxSum),
                expected,
                "MS on {cnf} m_x={m_x}"
            );
            assert_eq!(
                sigma1_to_rdc_mm_lambda1(&cnf, m_x).rdc(ObjectiveKind::MaxMin),
                expected,
                "MM on {cnf} m_x={m_x}"
            );
        }
    }

    #[test]
    fn sigma1_lambda1_unsat_gives_zero() {
        let cnf = Cnf::from_clauses(2, &[&[(0, true)], &[(0, false)]]);
        assert_eq!(
            sigma1_to_rdc_ms_lambda1(&cnf, 1).rdc(ObjectiveKind::MaxSum),
            0
        );
    }

    #[test]
    fn qbf_lambda1_count_matches_direct_counter() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(89);
        for trial in 0..5 {
            let (qbf, m) =
                divr_logic::gen::random_sharp_qbf(&mut rng, 1 + trial % 2, 1 + trial % 2, 2);
            let expected = count_qbf(&qbf, m);
            let inst = qbf_to_rdc_fo_lambda1(&qbf, m);
            assert_eq!(inst.rdc(ObjectiveKind::MaxSum), expected, "MS on {qbf}");
            assert_eq!(inst.rdc(ObjectiveKind::MaxMin), expected, "MM on {qbf}");
        }
    }

    fn graph_setup() -> (Database, FoQuery) {
        let mut db = Database::new();
        db.create_relation("node", &["x"]).unwrap();
        db.create_relation("edge", &["x", "y"]).unwrap();
        for i in 1..=4 {
            db.insert("node", vec![Value::int(i)]).unwrap();
        }
        for (a, b) in [(1, 2), (2, 3), (1, 3)] {
            db.insert("edge", vec![Value::int(a), Value::int(b)]).unwrap();
        }
        let q = parse_fo_query("Q(x) := node(x) & !(exists y. edge(x, y))").unwrap();
        (db, q)
    }

    #[test]
    fn qrd_lambda1_tracks_membership() {
        let (db, q) = graph_setup();
        for (val, member) in [(3, true), (4, true), (1, false), (2, false), (9, false)] {
            let s = Tuple::ints([val]);
            let inst = membership_to_qrd_lambda1(&db, &q, &s);
            assert_eq!(inst.qrd(ObjectiveKind::MaxSum), member, "MS s={val}");
            assert_eq!(inst.qrd(ObjectiveKind::MaxMin), member, "MM s={val}");
        }
    }

    #[test]
    fn drp_lambda1_tracks_non_membership() {
        let (db, q) = graph_setup();
        for (val, member) in [(3, true), (4, true), (1, false), (2, false)] {
            let s = Tuple::ints([val]);
            let red = membership_to_drp_lambda1(&db, &q, &s);
            assert_eq!(
                red.instance.drp(ObjectiveKind::MaxSum, &red.candidate, 1),
                !member,
                "MS s={val}"
            );
            assert_eq!(
                red.instance.drp(ObjectiveKind::MaxMin, &red.candidate, 1),
                !member,
                "MM s={val}"
            );
        }
    }

    /// The published λ = 1 mono gadget: W = {a, b}, π(a) = 1, π(b) = 0,
    /// l = 1, d = 1. #SSPk = 1 ({a}), but five 2-subsets clear
    /// B = 1/3 (any set touching an a-tuple), and the X − Y trick yields
    /// 4 — both readings disagree with the theorem's claim.
    #[test]
    fn paper_variant_counterexample() {
        let weights = [1u64, 0];
        let (d, l) = (1u64, 1usize);
        let expected = ssp::count_subset_sum_k(&weights, d, l);
        assert_eq!(expected, 1);

        let inst = paper_sspk_lambda1(&weights, d, l);
        let p = inst.problem();
        let x = counting::rdc(&p, ObjectiveKind::Mono, inst.bound);
        assert_eq!(x, 5, "direct valid-set count is not #SSPk");
        let y = counting::rdc(
            &p,
            ObjectiveKind::Mono,
            Ratio::new(d as i64 + 1, 2 * weights.len() as i64 - 1),
        );
        assert_eq!(x - y, 4, "the X − Y Turing trick is also wrong");
    }

    #[test]
    fn repaired_gadget_matches_dp_counter() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        for _ in 0..20 {
            let n = rng.gen_range(1..=7);
            let w: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=6)).collect();
            let d = rng.gen_range(0..=12);
            let l = rng.gen_range(1..=n);
            assert_eq!(
                sspk_via_rdc_lambda1(&w, d, l),
                ssp::count_subset_sum_k(&w, d, l),
                "w={w:?} d={d} l={l}"
            );
        }
    }

    #[test]
    fn repaired_gadget_on_the_counterexample() {
        assert_eq!(sspk_via_rdc_lambda1(&[1, 0], 1, 1), 1);
    }

    #[test]
    fn repaired_gadget_trivial_cases() {
        assert_eq!(sspk_via_rdc_lambda1(&[], 0, 0), 1);
        assert_eq!(sspk_via_rdc_lambda1(&[], 1, 0), 0);
        assert_eq!(sspk_via_rdc_lambda1(&[3], 3, 2), 0, "l > n has no subsets");
    }

    #[test]
    fn repaired_gadget_zero_target() {
        // Only the all-zero subsets of each size count.
        assert_eq!(sspk_via_rdc_lambda1(&[0, 0, 5], 0, 2), 1); // {0,0}
        assert_eq!(sspk_via_rdc_lambda1(&[0, 0, 5], 5, 2), 2); // {5,0}×2
    }
}
