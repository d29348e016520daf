//! Theorem 8.2 (`λ = 0` special case, combined complexity): 3SAT → QRD
//! with the objective defined by the relevance function alone.
//!
//! The gadget: `D = I_01`, `Q(x̄) = R01(x1) ∧ ... ∧ R01(xm)` generates all
//! assignments; `δ_rel(t) = 1` if `t` encodes a satisfying assignment of
//! `ϕ`, else 0 (a PTIME function of the tuple); `δ_dis ≡ 0`, `λ = 0`.
//! With `k = 2, B = 1` (max-sum, `F_MS = Σ δ_rel`) or `k = 1, B = 1`
//! (max-min, `F_MM = min δ_rel`) a valid set exists iff `ϕ` is
//! satisfiable — so dropping the distance function does **not** lower the
//! combined complexity of QRD. (At `λ = 0` and `k = 2`, `F_mono = F_MS`,
//! which is the paper's NP-hardness of QRD(CQ, F_mono) at `λ = 0` as
//! well.)

use crate::gadgets::{
    add_boolean_domain, add_gate_relations, CircuitEncoder, BOOL_REL,
};
use crate::instance::Instance;
use crate::tuple_to_bits;
use divr_core::distance::ConstantDistance;
use divr_core::ratio::Ratio;
use divr_core::relevance::{ClosureRelevance, TableRelevance};
use divr_logic::Cnf;
use divr_relquery::query::{Atom, ConjunctiveQuery, Query, Term, Var};
use divr_relquery::{Database, Tuple};

fn boolean_cube_query(m: usize) -> Query {
    let head: Vec<Term> = (0..m)
        .map(|i| Term::Var(Var::new(format!("x{i}"))))
        .collect();
    let atoms: Vec<Atom> = head
        .iter()
        .map(|t| Atom::new(BOOL_REL, vec![t.clone()]))
        .collect();
    Query::Cq(ConjunctiveQuery::new(head, atoms, vec![]))
}

fn satisfaction_relevance(cnf: &Cnf) -> ClosureRelevance<impl Fn(&Tuple) -> Ratio> {
    let cnf = cnf.clone();
    ClosureRelevance(move |t: &Tuple| {
        let bits = tuple_to_bits(t).expect("Boolean-cube tuples");
        if cnf.eval(&bits) {
            Ratio::ONE
        } else {
            Ratio::ZERO
        }
    })
}

fn build(cnf: &Cnf, k: usize) -> Instance {
    let m = cnf.num_vars;
    assert!(m >= 1, "need at least one variable");
    let mut db = Database::new();
    add_boolean_domain(&mut db);
    Instance {
        db,
        query: boolean_cube_query(m),
        rel: Box::new(satisfaction_relevance(cnf)),
        dis: Box::new(ConstantDistance(Ratio::ZERO)),
        lambda: Ratio::ZERO,
        k,
        bound: Ratio::ONE,
    }
}

/// Theorem 8.2: 3SAT → QRD(CQ, F_MS) at `λ = 0` (`k = 2`, `B = 1`).
pub fn to_qrd_ms_lambda0(cnf: &Cnf) -> Instance {
    build(cnf, 2)
}

/// Theorem 8.2: 3SAT → QRD(CQ, F_MM) at `λ = 0` (`k = 1`, `B = 1`).
pub fn to_qrd_mm_lambda0(cnf: &Cnf) -> Instance {
    build(cnf, 1)
}

/// The DRP instance of the Theorem 8.2 `λ = 0` lower bound, together
/// with its always-present candidate set.
pub struct Lambda0Drp {
    /// The constructed instance (`bound` unused by DRP).
    pub instance: Instance,
    /// The candidate `U = {(0,1), (0,0)}`.
    pub candidate: Vec<Tuple>,
}

/// Theorem 8.2 (combined, `λ = 0`): ¬3SAT → DRP(CQ, F_MS/F_MM) with the
/// relevance function alone. The query
/// `Q(b, c) = ∃x̄, z (QX(x̄) ∧ Q_{ϕ′}(x̄, z, b) ∧ R01(c))` projects the
/// `ϕ′ = (ϕ ∨ z) ∧ ¬z` circuit output; `(0, ·)` rows always exist
/// (`z = 1` falsifies `ϕ′`), `(1, ·)` rows exist iff `ϕ` is satisfiable.
/// With `δ_rel((1,·)) = 2`, `δ_rel((0,·)) = 1`, `λ = 0`, `k = 2`,
/// `r = 1`: `rank({(0,1), (0,0)}) = 1` iff `ϕ` is unsatisfiable, under
/// both max-sum and max-min.
pub fn to_drp_lambda0(cnf: &Cnf) -> Lambda0Drp {
    let m = cnf.num_vars;
    assert!(m >= 1, "need at least one variable");
    let mut db = Database::new();
    add_boolean_domain(&mut db);
    add_gate_relations(&mut db);

    let inputs: Vec<Term> = (0..m)
        .map(|i| Term::Var(Var::new(format!("x{i}"))))
        .collect();
    let z = Term::Var(Var::new("z"));
    let c = Term::Var(Var::new("c"));
    let mut enc = CircuitEncoder::new();
    let out = enc.phi_prime(cnf, &inputs, z.clone());
    let (gate_atoms, _) = enc.finish();
    let mut atoms: Vec<Atom> = inputs
        .iter()
        .map(|t| Atom::new(BOOL_REL, vec![t.clone()]))
        .collect();
    atoms.push(Atom::new(BOOL_REL, vec![z]));
    atoms.push(Atom::new(BOOL_REL, vec![c.clone()]));
    atoms.extend(gate_atoms);
    let query = Query::Cq(ConjunctiveQuery::new(vec![out, c], atoms, vec![]));

    let rel = TableRelevance::with_default(Ratio::ZERO)
        .with(Tuple::ints([1, 1]), Ratio::int(2))
        .with(Tuple::ints([1, 0]), Ratio::int(2))
        .with(Tuple::ints([0, 1]), Ratio::ONE)
        .with(Tuple::ints([0, 0]), Ratio::ONE);
    Lambda0Drp {
        instance: Instance {
            db,
            query,
            rel: Box::new(rel),
            dis: Box::new(ConstantDistance(Ratio::ZERO)),
            lambda: Ratio::ZERO,
            k: 2,
            bound: Ratio::ZERO,
        },
        candidate: vec![Tuple::ints([0, 1]), Tuple::ints([0, 0])],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_core::problem::ObjectiveKind;
    use divr_paper::solvers::relevance_only;
    use divr_logic::sat;
    use rand::SeedableRng;

    #[test]
    fn qrd_tracks_satisfiability() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let mut seen = [0usize; 2];
        for trial in 0..20 {
            let n = 1 + trial % 5;
            let m = 1 + trial % 6;
            let cnf = divr_logic::gen::random_3sat(&mut rng, n, m);
            let expect = sat::satisfiable(&cnf);
            seen[usize::from(expect)] += 1;
            assert_eq!(
                to_qrd_ms_lambda0(&cnf).qrd(ObjectiveKind::MaxSum),
                expect,
                "MS on {cnf}"
            );
            assert_eq!(
                to_qrd_mm_lambda0(&cnf).qrd(ObjectiveKind::MaxMin),
                expect,
                "MM on {cnf}"
            );
        }
        assert!(seen[0] > 0 && seen[1] > 0, "need both outcomes: {seen:?}");
    }

    /// The same instances answered by the Theorem 8.2 PTIME (data
    /// complexity) algorithms — solver and reduction must agree.
    #[test]
    fn lambda0_ptime_solvers_agree_with_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(73);
        for trial in 0..10 {
            let n = 2 + trial % 3;
            let cnf = divr_logic::gen::random_3sat(&mut rng, n, 3);
            let inst = to_qrd_ms_lambda0(&cnf);
            let p = inst.problem();
            assert_eq!(
                relevance_only::qrd_ms(&p, inst.bound),
                inst.qrd(ObjectiveKind::MaxSum),
                "{cnf}"
            );
            let inst = to_qrd_mm_lambda0(&cnf);
            let p = inst.problem();
            assert_eq!(
                relevance_only::qrd_mm(&p, inst.bound),
                inst.qrd(ObjectiveKind::MaxMin),
                "{cnf}"
            );
        }
    }

    /// Theorem 8.2's DRP gadget: the decoy pair is top-ranked exactly on
    /// unsatisfiable formulas, under both objectives.
    #[test]
    fn drp_lambda0_tracks_unsatisfiability() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut zoo: Vec<Cnf> = (0..10)
            .map(|t| divr_logic::gen::random_3sat(&mut rng, 1 + t % 4, 1 + t % 5))
            .collect();
        zoo.push(Cnf::from_clauses(1, &[&[(0, true)], &[(0, false)]]));
        zoo.push(Cnf::from_clauses(2, &[&[(0, true), (1, true)]]));
        let mut seen = [0usize; 2];
        for cnf in zoo {
            let expect = !sat::satisfiable(&cnf);
            seen[usize::from(expect)] += 1;
            let red = to_drp_lambda0(&cnf);
            assert_eq!(
                red.instance.drp(ObjectiveKind::MaxSum, &red.candidate, 1),
                expect,
                "MS {cnf}"
            );
            assert_eq!(
                red.instance.drp(ObjectiveKind::MaxMin, &red.candidate, 1),
                expect,
                "MM {cnf}"
            );
        }
        assert!(seen[0] > 0 && seen[1] > 0);
    }

    #[test]
    fn drp_lambda0_candidate_always_present() {
        let cnf = Cnf::from_clauses(1, &[&[(0, true)], &[(0, false)]]);
        let red = to_drp_lambda0(&cnf);
        let p = red.instance.problem();
        assert!(p.indices_of(&red.candidate).is_some());
        // (1, ·) rows are absent on the unsatisfiable instance.
        assert!(!p.universe().contains(&Tuple::ints([1, 1])));
    }

    /// RDC at λ = 0 for F_MS counts satisfying pairs: C(#models, 2) + ...
    /// — here simply cross-checked against the DP counter.
    #[test]
    fn rdc_lambda0_matches_dp() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(79);
        for trial in 0..8 {
            let n = 2 + trial % 3;
            let cnf = divr_logic::gen::random_3sat(&mut rng, n, 2 + trial % 3);
            let inst = to_qrd_ms_lambda0(&cnf);
            let p = inst.problem();
            assert_eq!(
                relevance_only::rdc_ms(&p, inst.bound),
                inst.rdc(ObjectiveKind::MaxSum),
                "{cnf}"
            );
        }
    }
}
