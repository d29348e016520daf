//! Section 9 hardness: compatibility constraints flip the tractable
//! `F_mono` cells back to NP-hardness (Theorem 9.3, Corollary 9.4) —
//! 3SAT → QRD(identity, F_mono) **with `C_m` constraints**, in data
//! complexity (the query is a fixed identity query, only the database and
//! the constant-size constraint set matter).
//!
//! The paper defers this proof to its electronic appendix (not included
//! in the available text), so the gadget below is **ours**, built to the
//! theorem's statement. Universe tuples have schema
//! `(kind, var, val, cid)`:
//!
//! * assignment tuples `('a', x_i, v, '-')` for each variable and value;
//! * witness tuples `('w', x_i, v, c)` for each clause `c` and each
//!   literal `(x_i = v)` occurring in — and satisfying — `c`.
//!
//! Constraints (all in `C_3`, validated in PTIME):
//!
//! 1. *support*: every witness's literal is selected —
//!    `∀t ('w' → ∃s ('a' ∧ s.var = t.var ∧ s.val = t.val))`;
//! 2. *consistency*: selected assignments agree per variable —
//!    `∀t1,t2 ('a' ∧ 'a' ∧ t1.var = t2.var → t1.val = t2.val)`;
//! 3. *one witness per clause*: `∀t1,t2 ('w' ∧ 'w' ∧ t1.cid = t2.cid →
//!    t1.var = t2.var ∧ t1.val = t2.val)`.
//!
//! With `k = m + l` (variables + clauses), the cardinality forces exactly
//! one assignment tuple per variable and one witness per clause; the
//! constraints force the witnesses to be supported — so a constrained
//! candidate set exists iff `ϕ` is satisfiable. `F_mono`, `λ`, `B = 0`
//! play no role: the hardness comes entirely from the constraints, which
//! is precisely the content of Theorem 9.3 / Corollary 9.4 (the same
//! instance is PTIME-solvable with `Σ = ∅` by Theorem 5.4 / Cor 8.1).

use crate::instance::Instance;
use divr_paper::constraints::{CmPred, Constraint};
use divr_core::distance::ConstantDistance;
use divr_core::ratio::Ratio;
use divr_core::relevance::ConstantRelevance;
use divr_logic::Cnf;
use divr_relquery::{Database, Query, Value};

/// Name of the items relation.
pub const ITEMS_REL: &str = "items";

const KIND: usize = 0;
const VAR: usize = 1;
const VAL: usize = 2;
const CID: usize = 3;

/// The constrained-QRD instance together with its constraint set.
pub struct ConstrainedSat {
    /// The diversification instance (identity query, `F_mono`-ready).
    pub instance: Instance,
    /// The `C_3` constraint set.
    pub constraints: Vec<Constraint>,
}

/// Builds the 3SAT → QRD(identity, F_mono, `C_m`) gadget.
pub fn sat_to_constrained_qrd(cnf: &Cnf) -> ConstrainedSat {
    let m = cnf.num_vars;
    let l = cnf.clauses.len();
    assert!(m >= 1 && l >= 1);
    let mut db = Database::new();
    db.create_relation(ITEMS_REL, &["kind", "var", "val", "cid"])
        .unwrap();
    for v in 0..m {
        for val in [0i64, 1] {
            db.insert(
                ITEMS_REL,
                vec![
                    Value::str("a"),
                    Value::str(format!("x{v}")),
                    Value::int(val),
                    Value::str("-"),
                ],
            )
            .unwrap();
        }
    }
    for (cid, clause) in cnf.clauses.iter().enumerate() {
        for lit in clause.lits() {
            db.insert(
                ITEMS_REL,
                vec![
                    Value::str("w"),
                    Value::str(format!("x{}", lit.var)),
                    Value::int(i64::from(lit.positive)),
                    Value::str(format!("c{cid}")),
                ],
            )
            .unwrap();
        }
    }

    let support = Constraint::builder()
        .forall(1)
        .exists(1)
        .premise(CmPred::attr_eq_const(0, KIND, "w"))
        .conclusion(CmPred::attr_eq_const(1, KIND, "a"))
        .conclusion(CmPred::attrs_eq((1, VAR), (0, VAR)))
        .conclusion(CmPred::attrs_eq((1, VAL), (0, VAL)))
        .build();
    let consistency = Constraint::builder()
        .forall(2)
        .exists(0)
        .premise(CmPred::attr_eq_const(0, KIND, "a"))
        .premise(CmPred::attr_eq_const(1, KIND, "a"))
        .premise(CmPred::attrs_eq((0, VAR), (1, VAR)))
        .conclusion(CmPred::attrs_eq((0, VAL), (1, VAL)))
        .build();
    let one_witness = Constraint::builder()
        .forall(2)
        .exists(0)
        .premise(CmPred::attr_eq_const(0, KIND, "w"))
        .premise(CmPred::attr_eq_const(1, KIND, "w"))
        .premise(CmPred::attrs_eq((0, CID), (1, CID)))
        .conclusion(CmPred::attrs_eq((0, VAR), (1, VAR)))
        .build();
    // `one_witness` pins the variable; pin the value too (same clause may
    // contain x and ¬x as distinct witnesses over the same variable).
    let one_witness_val = Constraint::builder()
        .forall(2)
        .exists(0)
        .premise(CmPred::attr_eq_const(0, KIND, "w"))
        .premise(CmPred::attr_eq_const(1, KIND, "w"))
        .premise(CmPred::attrs_eq((0, CID), (1, CID)))
        .conclusion(CmPred::attrs_eq((0, VAL), (1, VAL)))
        .build();

    ConstrainedSat {
        instance: Instance {
            db,
            query: Query::identity(ITEMS_REL),
            rel: Box::new(ConstantRelevance(Ratio::ONE)),
            dis: Box::new(ConstantDistance(Ratio::ZERO)),
            lambda: Ratio::ZERO,
            k: m + l,
            bound: Ratio::ZERO,
        },
        constraints: vec![support, consistency, one_witness, one_witness_val],
    }
}

/// Decides the constrained QRD instance (the Section 9 notion: a valid
/// set must satisfy `Σ` and reach `B`).
pub fn constrained_qrd(red: &ConstrainedSat) -> bool {
    let p = red.instance.problem();
    divr_paper::solvers::constrained::qrd(
        &p,
        divr_core::problem::ObjectiveKind::Mono,
        red.instance.bound,
        &red.constraints,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_logic::sat;
    use rand::SeedableRng;

    #[test]
    fn tracks_satisfiability_fixed() {
        let sat_cnf = Cnf::from_clauses(
            3,
            &[
                &[(0, true), (1, true), (2, true)],
                &[(0, false), (1, false), (2, true)],
            ],
        );
        let unsat_cnf = Cnf::from_clauses(1, &[&[(0, true)], &[(0, false)]]);
        assert!(constrained_qrd(&sat_to_constrained_qrd(&sat_cnf)));
        assert!(!constrained_qrd(&sat_to_constrained_qrd(&unsat_cnf)));
    }

    #[test]
    fn randomized_equivalence_with_dpll() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(83);
        let mut seen = [0usize; 2];
        for trial in 0..14 {
            let n = 1 + trial % 3;
            let m = 1 + trial % 4;
            let cnf = divr_logic::gen::random_3sat(&mut rng, n, m);
            let expect = sat::satisfiable(&cnf);
            seen[usize::from(expect)] += 1;
            assert_eq!(
                constrained_qrd(&sat_to_constrained_qrd(&cnf)),
                expect,
                "{cnf}"
            );
        }
        assert!(seen[0] > 0 && seen[1] > 0, "need both outcomes: {seen:?}");
    }

    /// Dropping the constraints makes the instance trivially feasible —
    /// the hardness comes from Σ alone (the Thm 9.3 contrast).
    #[test]
    fn unconstrained_variant_is_trivial() {
        let unsat_cnf = Cnf::from_clauses(1, &[&[(0, true)], &[(0, false)]]);
        let red = sat_to_constrained_qrd(&unsat_cnf);
        let p = red.instance.problem();
        assert!(divr_paper::solvers::mono::qrd_mono(&p, red.instance.bound));
        assert!(!constrained_qrd(&red));
    }

    #[test]
    fn constraints_are_in_c3() {
        let cnf = Cnf::from_clauses(2, &[&[(0, true), (1, true)]]);
        let red = sat_to_constrained_qrd(&cnf);
        for c in &red.constraints {
            assert!(c.forall_count() <= 3 && c.exists_count() <= 3);
        }
    }
}
