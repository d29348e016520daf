//! Section 9 special cases: Corollaries 9.5 and 9.6 — with `C_m`
//! constraints present, the `λ = 0` and `λ = 1` tractable data-complexity
//! cells of Theorem 8.2/8.3 all become intractable:
//!
//! * Cor 9.5 (`λ = 0`, any objective): QRD NP-complete, DRP
//!   coNP-complete, RDC #P-complete under **parsimonious** reductions;
//! * Cor 9.6 (`λ = 1`, `F_mono`): likewise.
//!
//! The paper proves these in its electronic appendix (not part of the
//! available text), so the gadgets here are **ours**, built to the
//! corollaries' statements and cross-validated against DPLL / #SAT.
//!
//! ## The gadget family
//!
//! A single relation of arity 8, `(kind, cid, var1, val1, …, var3, val3)`:
//!
//! * **assignment rows** `('a', '-', x, v, x, v, x, v)` for every
//!   variable `x` and value `v ∈ {0, 1}` (padded to arity 8);
//! * **witness rows** `('w', c, x₁, v₁, x₂, v₂, x₃, v₃)` for each clause
//!   `c` and each *complete local assignment* of `c`'s distinct
//!   variables that satisfies `c` (clauses with fewer than three
//!   distinct variables repeat their last pair — the paper's Theorem 5.1
//!   relation `I_C` uses the same per-clause enumeration);
//! * for DRP only, **decoy rows** `('d', i, …)` forming an always-legal
//!   fallback candidate set.
//!
//! The *fixed* constraint set (data complexity: `Σ` does not depend on
//! the 3SAT instance, only `D` does):
//!
//! 1. support×3 — a witness's `j`-th pair is a selected assignment row;
//! 2. consistency — selected assignment rows agree per variable;
//! 3. one-witness — same `cid` ⟹ identical witness row (pairwise);
//! 4. (DRP) no-mixing — a selected decoy forces an all-decoy set.
//!
//! With `k = m + l`, consistency caps assignment rows at `m` and
//! one-witness caps witnesses at `l`, so a non-decoy candidate set is
//! forced to encode exactly one assignment per variable and one
//! *supported* witness per clause — it exists iff `ϕ` is satisfiable,
//! and the witness rows are then **determined** by the assignment, which
//! is what makes the RDC count parsimonious.

use crate::instance::Instance;
use divr_paper::constraints::{CmPred, Constraint};
use divr_core::distance::{ClosureDistance, ConstantDistance};
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_core::relevance::{ClosureRelevance, ConstantRelevance};
use divr_paper::solvers::constrained;
use divr_logic::Cnf;
use divr_relquery::{Database, Query, Tuple, Value};

/// Name of the items relation.
pub const ITEMS_REL: &str = "items";

const KIND: usize = 0;
const CID: usize = 1;
const VAR1: usize = 2;
const VAL1: usize = 3;
const VAR2: usize = 4;
const VAL2: usize = 5;
const VAR3: usize = 6;
const VAL3: usize = 7;

/// A constrained diversification instance plus its constraint set and,
/// for DRP, the fallback candidate.
pub struct ConstrainedSpecial {
    /// The diversification instance.
    pub instance: Instance,
    /// The fixed `C_2` constraint set.
    pub constraints: Vec<Constraint>,
    /// The decoy candidate set (present only in the DRP gadgets).
    pub candidate: Option<Vec<Tuple>>,
}

fn assignment_row(var: usize, val: i64) -> Vec<Value> {
    let x = Value::str(format!("x{var}"));
    let v = Value::int(val);
    vec![
        Value::str("a"),
        Value::str("-"),
        x.clone(),
        v.clone(),
        x.clone(),
        v.clone(),
        x,
        v,
    ]
}

/// All complete satisfying local assignments of one clause, as
/// `(var, val)` triples padded to length 3.
fn witness_rows(cid: usize, clause: &[(usize, bool)]) -> Vec<Vec<Value>> {
    let mut vars: Vec<usize> = clause.iter().map(|&(v, _)| v).collect();
    vars.sort_unstable();
    vars.dedup();
    let d = vars.len();
    let mut rows = Vec::new();
    for mask in 0..(1u32 << d) {
        let val_of = |v: usize| -> i64 {
            let pos = vars.iter().position(|&x| x == v).expect("clause var");
            i64::from(mask >> pos & 1)
        };
        let satisfied = clause
            .iter()
            .any(|&(v, positive)| (val_of(v) == 1) == positive);
        if !satisfied {
            continue;
        }
        let mut pairs: Vec<(usize, i64)> = vars.iter().map(|&v| (v, val_of(v))).collect();
        while pairs.len() < 3 {
            let last = *pairs.last().expect("non-empty clause");
            pairs.push(last);
        }
        let mut row = vec![Value::str("w"), Value::str(format!("c{cid}"))];
        for (v, val) in pairs {
            row.push(Value::str(format!("x{v}")));
            row.push(Value::int(val));
        }
        rows.push(row);
    }
    rows
}

fn decoy_row(i: usize) -> Vec<Value> {
    let mut row = vec![Value::str("d"), Value::str(format!("d{i}"))];
    for _ in 0..3 {
        row.push(Value::str("-"));
        row.push(Value::int(-1));
    }
    row
}

fn base_database(cnf: &Cnf, decoys: usize) -> Database {
    let mut db = Database::new();
    db.create_relation(
        ITEMS_REL,
        &["kind", "cid", "var1", "val1", "var2", "val2", "var3", "val3"],
    )
    .unwrap();
    for v in 0..cnf.num_vars {
        for val in [0i64, 1] {
            db.insert(ITEMS_REL, assignment_row(v, val)).unwrap();
        }
    }
    for (cid, clause) in cnf.clauses.iter().enumerate() {
        let lits: Vec<(usize, bool)> =
            clause.lits().iter().map(|l| (l.var, l.positive)).collect();
        for row in witness_rows(cid, &lits) {
            db.insert(ITEMS_REL, row).unwrap();
        }
    }
    for i in 0..decoys {
        db.insert(ITEMS_REL, decoy_row(i)).unwrap();
    }
    db
}

/// The fixed constraint set (support×3, consistency, one-witness); pass
/// `no_mixing` to add the decoy-isolation rule used by the DRP gadgets.
pub fn constraint_set(no_mixing: bool) -> Vec<Constraint> {
    let mut out = Vec::new();
    for (var_j, val_j) in [(VAR1, VAL1), (VAR2, VAL2), (VAR3, VAL3)] {
        out.push(
            Constraint::builder()
                .forall(1)
                .exists(1)
                .premise(CmPred::attr_eq_const(0, KIND, "w"))
                .conclusion(CmPred::attr_eq_const(1, KIND, "a"))
                .conclusion(CmPred::attrs_eq((1, VAR1), (0, var_j)))
                .conclusion(CmPred::attrs_eq((1, VAL1), (0, val_j)))
                .build(),
        );
    }
    out.push(
        Constraint::builder()
            .forall(2)
            .exists(0)
            .premise(CmPred::attr_eq_const(0, KIND, "a"))
            .premise(CmPred::attr_eq_const(1, KIND, "a"))
            .premise(CmPred::attrs_eq((0, VAR1), (1, VAR1)))
            .conclusion(CmPred::attrs_eq((0, VAL1), (1, VAL1)))
            .build(),
    );
    let mut one_witness = Constraint::builder()
        .forall(2)
        .exists(0)
        .premise(CmPred::attr_eq_const(0, KIND, "w"))
        .premise(CmPred::attr_eq_const(1, KIND, "w"))
        .premise(CmPred::attrs_eq((0, CID), (1, CID)));
    for attr in [VAR1, VAL1, VAR2, VAL2, VAR3, VAL3] {
        one_witness = one_witness.conclusion(CmPred::attrs_eq((0, attr), (1, attr)));
    }
    out.push(one_witness.build());
    if no_mixing {
        out.push(
            Constraint::builder()
                .forall(2)
                .exists(0)
                .premise(CmPred::attr_eq_const(0, KIND, "d"))
                .conclusion(CmPred::attr_eq_const(1, KIND, "d"))
                .build(),
        );
    }
    out
}

/// Corollary 9.5: 3SAT → QRD(identity, any `F`) at `λ = 0` with `C_m`
/// constraints, data complexity. Constant relevance 1 makes every
/// *constrained* candidate set reach the objective-specific bound, so
/// QRD ⟺ satisfiability; without `Σ` the instance is trivially feasible.
pub fn sat_to_qrd_lambda0(cnf: &Cnf, kind: ObjectiveKind) -> ConstrainedSpecial {
    let k = cnf.num_vars + cnf.clauses.len();
    let bound = match kind {
        ObjectiveKind::MaxSum => Ratio::int((k as i64 - 1) * k as i64),
        ObjectiveKind::MaxMin => Ratio::ONE,
        ObjectiveKind::Mono => Ratio::int(k as i64),
    };
    ConstrainedSpecial {
        instance: Instance {
            db: base_database(cnf, 0),
            query: Query::identity(ITEMS_REL),
            rel: Box::new(ConstantRelevance(Ratio::ONE)),
            dis: Box::new(ConstantDistance(Ratio::ZERO)),
            lambda: Ratio::ZERO,
            k,
            bound,
        },
        constraints: constraint_set(false),
        candidate: None,
    }
}

/// Corollary 9.6: 3SAT → QRD(identity, `F_mono`) at `λ = 1` with `C_m`
/// constraints. Constant pairwise distance 1 gives every tuple mono
/// score 1, so QRD at `B = k` again decides satisfiability — the
/// hardness comes from `Σ` alone.
pub fn sat_to_qrd_lambda1(cnf: &Cnf) -> ConstrainedSpecial {
    let k = cnf.num_vars + cnf.clauses.len();
    ConstrainedSpecial {
        instance: Instance {
            db: base_database(cnf, 0),
            query: Query::identity(ITEMS_REL),
            rel: Box::new(ConstantRelevance(Ratio::ZERO)),
            dis: Box::new(ConstantDistance(Ratio::ONE)),
            lambda: Ratio::ONE,
            k,
            bound: Ratio::int(k as i64),
        },
        constraints: constraint_set(false),
        candidate: None,
    }
}

/// Corollary 9.5 (RDC): the same `λ = 0` gadget counts **parsimoniously**:
/// each satisfying assignment determines its witness rows, so the number
/// of valid constrained sets equals the number of models of `ϕ` over the
/// variables `x0..x{m−1}`.
pub fn sat_to_rdc_lambda0(cnf: &Cnf) -> ConstrainedSpecial {
    sat_to_qrd_lambda0(cnf, ObjectiveKind::Mono)
}

/// Corollary 9.5 (DRP): ¬3SAT → DRP(identity, any `F`) at `λ = 0` with
/// constraints, `r = 1`. The decoy set (one row at relevance ½) is
/// always a constrained candidate; `no_mixing` makes every *other*
/// constrained candidate a full satisfying encoding at relevance 1
/// throughout, which strictly outranks the decoys. So
/// `rank(U) = 1 ⟺ ϕ unsatisfiable`.
pub fn sat_to_drp_lambda0(cnf: &Cnf) -> ConstrainedSpecial {
    let k = cnf.num_vars + cnf.clauses.len();
    let rel = ClosureRelevance(move |t: &Tuple| {
        if t[KIND].as_str() == Some("d") && t[CID].as_str() == Some("d0") {
            Ratio::new(1, 2)
        } else {
            Ratio::ONE
        }
    });
    let candidate: Vec<Tuple> = (0..k)
        .map(|i| Tuple::new(decoy_row(i)))
        .collect();
    ConstrainedSpecial {
        instance: Instance {
            db: base_database(cnf, k),
            query: Query::identity(ITEMS_REL),
            rel: Box::new(rel),
            dis: Box::new(ConstantDistance(Ratio::ZERO)),
            lambda: Ratio::ZERO,
            k,
            bound: Ratio::ZERO,
        },
        constraints: constraint_set(true),
        candidate: Some(candidate),
    }
}

/// Corollary 9.6 (DRP): ¬3SAT → DRP(identity, `F_mono`) at `λ = 1` with
/// constraints, `r = 1`. The relevance trick of the `λ = 0` variant is
/// unavailable, so the handicap is carried by the distance profile: the
/// distinguished decoy `d0` is at distance ½ from everything (every
/// other pair is at distance 1), depressing both its own mono score and,
/// infinitesimally, everyone else's — all-decoy sets then score strictly
/// below full encodings, which exist iff `ϕ` is satisfiable.
pub fn sat_to_drp_lambda1(cnf: &Cnf) -> ConstrainedSpecial {
    let k = cnf.num_vars + cnf.clauses.len();
    let is_d0 = |t: &Tuple| t[KIND].as_str() == Some("d") && t[CID].as_str() == Some("d0");
    let dis = ClosureDistance(move |a: &Tuple, b: &Tuple| {
        if a == b {
            Ratio::ZERO
        } else if is_d0(a) || is_d0(b) {
            Ratio::new(1, 2)
        } else {
            Ratio::ONE
        }
    });
    let candidate: Vec<Tuple> = (0..k)
        .map(|i| Tuple::new(decoy_row(i)))
        .collect();
    ConstrainedSpecial {
        instance: Instance {
            db: base_database(cnf, k),
            query: Query::identity(ITEMS_REL),
            rel: Box::new(ConstantRelevance(Ratio::ZERO)),
            dis: Box::new(dis),
            lambda: Ratio::ONE,
            k,
            bound: Ratio::ZERO,
        },
        constraints: constraint_set(true),
        candidate: Some(candidate),
    }
}

/// Answers constrained QRD on a gadget instance.
pub fn qrd(red: &ConstrainedSpecial, kind: ObjectiveKind) -> bool {
    let p = red.instance.problem();
    constrained::qrd(&p, kind, red.instance.bound, &red.constraints)
}

/// Answers constrained RDC on a gadget instance.
pub fn rdc(red: &ConstrainedSpecial, kind: ObjectiveKind) -> u128 {
    let p = red.instance.problem();
    constrained::rdc(&p, kind, red.instance.bound, &red.constraints)
}

/// Answers constrained DRP (is the gadget's decoy candidate of rank ≤ r?).
pub fn drp(red: &ConstrainedSpecial, kind: ObjectiveKind, r: u128) -> bool {
    let p = red.instance.problem();
    let candidate = red.candidate.as_ref().expect("DRP gadgets carry a candidate");
    let subset = p
        .indices_of(candidate)
        .expect("decoy candidate must lie in Q(D)");
    constrained::drp(&p, kind, &subset, r, &red.constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_paper::constraints::satisfies_all;
    use divr_paper::solvers::mono;
    use divr_logic::sat::count_models;
    use divr_logic::sat;
    use rand::SeedableRng;

    fn zoo(seed: u64, trials: usize) -> Vec<Cnf> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut out: Vec<Cnf> = (0..trials)
            .map(|t| divr_logic::gen::random_3sat(&mut rng, 1 + t % 3, 1 + t % 3))
            .collect();
        // Guarantee both outcomes regardless of the random draw.
        out.push(Cnf::from_clauses(1, &[&[(0, true)], &[(0, false)]]));
        out.push(Cnf::from_clauses(2, &[&[(0, true), (1, true)]]));
        out
    }

    #[test]
    fn qrd_lambda0_tracks_satisfiability_for_all_objectives() {
        let mut seen = [0usize; 2];
        for cnf in zoo(101, 10) {
            let expect = sat::satisfiable(&cnf);
            seen[usize::from(expect)] += 1;
            for kind in ObjectiveKind::ALL {
                assert_eq!(qrd(&sat_to_qrd_lambda0(&cnf, kind), kind), expect, "{kind} {cnf}");
            }
        }
        assert!(seen[0] > 0 && seen[1] > 0, "need both outcomes: {seen:?}");
    }

    #[test]
    fn qrd_lambda1_tracks_satisfiability() {
        for cnf in zoo(103, 10) {
            assert_eq!(
                qrd(&sat_to_qrd_lambda1(&cnf), ObjectiveKind::Mono),
                sat::satisfiable(&cnf),
                "{cnf}"
            );
        }
    }

    #[test]
    fn unconstrained_instances_are_trivial() {
        // The Thm 8.2/8.3 contrast: with Σ = ∅ the same instances are
        // feasible regardless of satisfiability.
        let unsat = Cnf::from_clauses(1, &[&[(0, true)], &[(0, false)]]);
        let red0 = sat_to_qrd_lambda0(&unsat, ObjectiveKind::Mono);
        assert!(mono::qrd_mono(&red0.instance.problem(), red0.instance.bound));
        assert!(!qrd(&red0, ObjectiveKind::Mono));
        let red1 = sat_to_qrd_lambda1(&unsat);
        assert!(mono::qrd_mono(&red1.instance.problem(), red1.instance.bound));
        assert!(!qrd(&red1, ObjectiveKind::Mono));
    }

    #[test]
    fn rdc_lambda0_is_parsimonious() {
        for cnf in zoo(107, 12) {
            let expect = count_models(&cnf);
            assert_eq!(
                rdc(&sat_to_rdc_lambda0(&cnf), ObjectiveKind::Mono),
                expect,
                "{cnf}"
            );
        }
    }

    #[test]
    fn rdc_lambda1_is_parsimonious() {
        for cnf in zoo(109, 8) {
            let expect = count_models(&cnf);
            assert_eq!(
                rdc(&sat_to_qrd_lambda1(&cnf), ObjectiveKind::Mono),
                expect,
                "{cnf}"
            );
        }
    }

    #[test]
    fn drp_lambda0_tracks_unsatisfiability_for_all_objectives() {
        for cnf in zoo(113, 8) {
            let expect = !sat::satisfiable(&cnf);
            for kind in ObjectiveKind::ALL {
                assert_eq!(qrd_drp_combo(&cnf, kind), expect, "{kind} {cnf}");
            }
        }
    }

    fn qrd_drp_combo(cnf: &Cnf, kind: ObjectiveKind) -> bool {
        drp(&sat_to_drp_lambda0(cnf), kind, 1)
    }

    #[test]
    fn drp_lambda1_tracks_unsatisfiability() {
        for cnf in zoo(127, 8) {
            assert_eq!(
                drp(&sat_to_drp_lambda1(&cnf), ObjectiveKind::Mono, 1),
                !sat::satisfiable(&cnf),
                "{cnf}"
            );
        }
    }

    #[test]
    fn decoy_candidate_satisfies_the_constraints() {
        let cnf = Cnf::from_clauses(2, &[&[(0, true), (1, false)]]);
        for red in [sat_to_drp_lambda0(&cnf), sat_to_drp_lambda1(&cnf)] {
            let candidate = red.candidate.as_ref().unwrap();
            assert!(satisfies_all(candidate, &red.constraints));
            let p = red.instance.problem();
            assert!(p.indices_of(candidate).is_some());
        }
    }

    #[test]
    fn constraint_set_is_fixed_and_in_c2() {
        // Data complexity: Σ must not depend on the instance, and every
        // rule stays within the m = 2 bound of C_m.
        let a = constraint_set(true);
        let b = constraint_set(true);
        assert_eq!(a.len(), b.len());
        for c in &a {
            assert!(c.forall_count() + c.exists_count() <= 2, "C_2 bound");
        }
    }

    #[test]
    fn witness_rows_enumerate_satisfying_local_assignments() {
        // Clause (x0 ∨ ¬x1): 3 of 4 local assignments satisfy it.
        assert_eq!(witness_rows(0, &[(0, true), (1, false)]).len(), 3);
        // Unit clause (¬x2): one row, padded to three pairs.
        let rows = witness_rows(1, &[(2, false)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 8);
        assert_eq!(rows[0][VAR1], rows[0][VAR3]);
        // Tautological duplicate-variable clause (x0 ∨ ¬x0): both rows.
        assert_eq!(witness_rows(2, &[(0, true), (0, false)]).len(), 2);
    }
}
