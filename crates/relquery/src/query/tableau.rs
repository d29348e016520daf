//! Tableaux, homomorphisms, containment and minimization for conjunctive
//! queries.
//!
//! The paper's NP upper bounds (Theorem 5.1 and onwards) hinge on the
//! tableau view of CQ evaluation: "guess k CQ queries from Q, and for
//! each CQ query, guess a *tableau* from D". This module supplies that
//! machinery as a first-class substrate:
//!
//! * [`Tableau`] — the tableau `(T, u)` of a CQ: body atoms as rows plus
//!   the summary row (head), and its *canonical database* (variables
//!   frozen to fresh constants);
//! * [`homomorphism`] — a backtracking homomorphism finder between CQs
//!   (the NP witness of the classical Chandra–Merlin theorem);
//! * [`contained_in`] / [`equivalent`] — CQ containment/equivalence by
//!   homomorphism;
//! * [`ucq_contained_in`] — UCQ containment by the Sagiv–Yannakakis
//!   per-disjunct rule;
//! * [`minimize`] — the core (minimal equivalent CQ) by repeated fold
//!   attempts.
//!
//! All of these are for CQs **without built-in comparisons**: with
//! comparisons, containment is Π²ₚ-complete and homomorphisms are no
//! longer a complete witness. Functions return
//! [`Error::MalformedQuery`](crate::Error) when a comparison is present.

use super::{Atom, ConjunctiveQuery, Term, UnionQuery, Var};
use crate::value::Value;
use crate::{Database, Error, Result, Tuple};
use std::collections::BTreeMap;

/// The tableau `(T, u)` of a conjunctive query: the body atoms `T` and
/// the summary `u` (the head row).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tableau {
    summary: Vec<Term>,
    rows: Vec<Atom>,
}

/// The prefix used when freezing a variable into a canonical-database
/// constant. Chosen so it cannot collide with ordinary test constants.
const FROZEN_PREFIX: &str = "\u{27e8}frozen\u{27e9}:";

fn freeze_term(t: &Term) -> Value {
    match t {
        Term::Const(v) => v.clone(),
        Term::Var(v) => Value::str(format!("{FROZEN_PREFIX}{}", v.name())),
    }
}

impl Tableau {
    /// Extracts the tableau of a comparison-free CQ.
    pub fn of(q: &ConjunctiveQuery) -> Result<Self> {
        ensure_plain(q)?;
        Ok(Tableau {
            summary: q.head().to_vec(),
            rows: q.atoms().to_vec(),
        })
    }

    /// The canonical database of the tableau: each variable frozen to a
    /// fresh constant, one fact per row. Returns the database together
    /// with the frozen summary tuple.
    ///
    /// By the Chandra–Merlin theorem, `Q ⊆ Q′` iff the frozen summary of
    /// `Q` is in `Q′(canonical database of Q)` — the evaluation-based
    /// containment check the tests cross-validate [`contained_in`]
    /// against.
    pub fn canonical_database(&self) -> Result<(Database, Tuple)> {
        let mut db = Database::new();
        for row in &self.rows {
            if !db.has_relation(&row.relation) {
                let attrs: Vec<String> =
                    (0..row.terms.len()).map(|i| format!("a{i}")).collect();
                let refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
                db.create_relation(&row.relation, &refs)?;
            }
            db.insert(&row.relation, row.terms.iter().map(freeze_term).collect())?;
        }
        let summary = Tuple::new(self.summary.iter().map(freeze_term).collect());
        Ok((db, summary))
    }
}

fn ensure_plain(q: &ConjunctiveQuery) -> Result<()> {
    if q.comparisons().is_empty() {
        Ok(())
    } else {
        Err(Error::MalformedQuery(
            "tableau containment requires comparison-free CQs".into(),
        ))
    }
}

/// A variable assignment produced by [`homomorphism`].
pub type Hom = BTreeMap<Var, Term>;

/// Tries to extend `h` so that term `from` maps exactly to term `to`.
fn unify(h: &mut Hom, from: &Term, to: &Term) -> bool {
    match from {
        Term::Const(c) => matches!(to, Term::Const(c2) if c == c2),
        Term::Var(v) => match h.get(v) {
            Some(bound) => bound == to,
            None => {
                h.insert(v.clone(), to.clone());
                true
            }
        },
    }
}

fn search(rows: &[Atom], targets: &[Atom], idx: usize, h: &mut Hom) -> bool {
    let Some(row) = rows.get(idx) else {
        return true;
    };
    for target in targets {
        if target.relation != row.relation || target.terms.len() != row.terms.len() {
            continue;
        }
        let snapshot = h.clone();
        let ok = row
            .terms
            .iter()
            .zip(&target.terms)
            .all(|(f, t)| unify(h, f, t));
        if ok && search(rows, targets, idx + 1, h) {
            return true;
        }
        *h = snapshot;
    }
    false
}

/// Finds a homomorphism `h : vars(src) → terms(dst)` such that every
/// atom of `src` maps into an atom of `dst` and `h(head(src)) =
/// head(dst)` — the witness for `dst ⊆ src`. Returns `None` if no
/// homomorphism exists.
///
/// Errors if either query has comparisons or the head arities differ.
pub fn homomorphism(src: &ConjunctiveQuery, dst: &ConjunctiveQuery) -> Result<Option<Hom>> {
    ensure_plain(src)?;
    ensure_plain(dst)?;
    if src.head().len() != dst.head().len() {
        return Err(Error::MalformedQuery(
            "homomorphism requires equal head arities".into(),
        ));
    }
    let mut h = Hom::new();
    // Head condition first: h(head(src)) = head(dst), term by term.
    for (f, t) in src.head().iter().zip(dst.head()) {
        if !unify(&mut h, f, t) {
            return Ok(None);
        }
    }
    if search(src.atoms(), dst.atoms(), 0, &mut h) {
        Ok(Some(h))
    } else {
        Ok(None)
    }
}

/// CQ containment `q1 ⊆ q2` (over all databases), decided by the
/// Chandra–Merlin homomorphism criterion: `q1 ⊆ q2` iff there is a
/// homomorphism from `q2` into `q1`.
pub fn contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> Result<bool> {
    Ok(homomorphism(q2, q1)?.is_some())
}

/// CQ equivalence: mutual containment.
pub fn equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> Result<bool> {
    Ok(contained_in(q1, q2)? && contained_in(q2, q1)?)
}

/// UCQ containment by the Sagiv–Yannakakis criterion: `Q ⊆ Q′` iff every
/// disjunct of `Q` is contained in **some** disjunct of `Q′`.
pub fn ucq_contained_in(q1: &UnionQuery, q2: &UnionQuery) -> Result<bool> {
    for d1 in q1.disjuncts() {
        let mut covered = false;
        for d2 in q2.disjuncts() {
            if contained_in(d1, d2)? {
                covered = true;
                break;
            }
        }
        if !covered {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Computes the **core** of a CQ: the minimal equivalent query, obtained
/// by repeatedly deleting an atom whenever a homomorphism *folds* the
/// query into the remainder (identity on the head). The result is unique
/// up to renaming; evaluation agrees with the input on every database.
pub fn minimize(q: &ConjunctiveQuery) -> Result<ConjunctiveQuery> {
    ensure_plain(q)?;
    let mut atoms: Vec<Atom> = q.atoms().to_vec();
    'outer: loop {
        for i in 0..atoms.len() {
            if atoms.len() == 1 {
                break 'outer;
            }
            let mut reduced = atoms.clone();
            reduced.remove(i);
            let candidate =
                ConjunctiveQuery::new(q.head().to_vec(), reduced.clone(), vec![]);
            // The reduced query always contains the original (fewer
            // constraints); equivalence needs original ⊇ reduced, i.e. a
            // homomorphism original → reduced.
            if candidate.validate().is_ok()
                && homomorphism(
                    &ConjunctiveQuery::new(q.head().to_vec(), atoms.clone(), vec![]),
                    &candidate,
                )?
                .is_some()
            {
                atoms = reduced;
                continue 'outer;
            }
        }
        break;
    }
    Ok(ConjunctiveQuery::new(q.head().to_vec(), atoms, vec![]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{cnst, var, Query};
    use crate::Value;

    fn cq(head: &[&str], atoms: &[(&str, &[&str])]) -> ConjunctiveQuery {
        let head_terms: Vec<Term> = head.iter().map(|v| parse_term(v)).collect();
        let body: Vec<Atom> = atoms
            .iter()
            .map(|(r, args)| Atom::new(*r, args.iter().map(|v| parse_term(v)).collect()))
            .collect();
        ConjunctiveQuery::new(head_terms, body, vec![])
    }

    /// Leading digit → integer constant, otherwise a variable.
    fn parse_term(s: &str) -> Term {
        match s.parse::<i64>() {
            Ok(i) => cnst(i),
            Err(_) => var(s),
        }
    }

    #[test]
    fn identity_homomorphism_exists() {
        let q = cq(&["x"], &[("R", &["x", "y"]), ("S", &["y"])]);
        assert!(homomorphism(&q, &q).unwrap().is_some());
    }

    #[test]
    fn path_queries_contain_by_folding() {
        // q1: x with a 2-path; q2: x with an edge. q1 asks more, so
        // q1 ⊆ q2 (every db satisfying the 2-path has an edge from x).
        let q1 = cq(&["x"], &[("E", &["x", "y"]), ("E", &["y", "z"])]);
        let q2 = cq(&["x"], &[("E", &["x", "y"])]);
        assert!(contained_in(&q1, &q2).unwrap());
        assert!(!contained_in(&q2, &q1).unwrap());
        assert!(!equivalent(&q1, &q2).unwrap());
    }

    #[test]
    fn cycle_contains_self_loop() {
        // Triangle query vs self-loop query: a self-loop makes every
        // cycle query true, so q_loop ⊆ q_triangle.
        let tri = cq(
            &[],
            &[("E", &["x", "y"]), ("E", &["y", "z"]), ("E", &["z", "x"])],
        );
        let loop_q = cq(&[], &[("E", &["x", "x"])]);
        assert!(contained_in(&loop_q, &tri).unwrap());
        assert!(!contained_in(&tri, &loop_q).unwrap());
    }

    #[test]
    fn constants_block_homomorphisms() {
        let q1 = cq(&["x"], &[("R", &["x", "1"])]);
        let q2 = cq(&["x"], &[("R", &["x", "2"])]);
        assert!(!contained_in(&q1, &q2).unwrap());
        let q3 = cq(&["x"], &[("R", &["x", "y"])]);
        // q1 (R(x,1)) is contained in q3 (R(x,y)): map y ↦ 1.
        assert!(contained_in(&q1, &q3).unwrap());
        assert!(!contained_in(&q3, &q1).unwrap());
    }

    #[test]
    fn head_condition_is_enforced() {
        // Same body, different head variable: no containment either way.
        let q1 = cq(&["x"], &[("R", &["x", "y"])]);
        let q2 = cq(&["y"], &[("R", &["x", "y"])]);
        assert!(!contained_in(&q1, &q2).unwrap());
        assert!(!contained_in(&q2, &q1).unwrap());
    }

    #[test]
    fn containment_agrees_with_canonical_database_membership() {
        // Chandra–Merlin both ways: hom-based answer == evaluation-based
        // answer on the canonical database, across a query zoo.
        let zoo = vec![
            cq(&["x"], &[("E", &["x", "y"])]),
            cq(&["x"], &[("E", &["x", "y"]), ("E", &["y", "z"])]),
            cq(&["x"], &[("E", &["x", "x"])]),
            cq(&["x"], &[("E", &["x", "y"]), ("E", &["y", "x"])]),
            cq(&["x"], &[("E", &["x", "1"])]),
            cq(&["x"], &[("E", &["x", "y"]), ("E", &["x", "z"])]),
        ];
        for a in &zoo {
            for b in &zoo {
                let by_hom = contained_in(a, b).unwrap();
                let (db, frozen) = Tableau::of(a).unwrap().canonical_database().unwrap();
                let by_eval = Query::Cq(b.clone()).contains(&db, &frozen).unwrap();
                assert_eq!(by_hom, by_eval, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn minimize_removes_redundant_atoms() {
        // R(x,y) ∧ R(x,z) with head x: z-atom folds onto the y-atom.
        let q = cq(&["x"], &[("R", &["x", "y"]), ("R", &["x", "z"])]);
        let m = minimize(&q).unwrap();
        assert_eq!(m.atoms().len(), 1);
        assert!(equivalent(&q, &m).unwrap());
    }

    #[test]
    fn minimize_keeps_genuine_joins() {
        let q = cq(&["x"], &[("E", &["x", "y"]), ("F", &["y", "z"])]);
        let m = minimize(&q).unwrap();
        assert_eq!(m.atoms().len(), 2);
    }

    #[test]
    fn minimize_path_with_loop_shortcut() {
        // 2-path plus a self-loop on the head: the loop absorbs the path.
        let q = cq(
            &["x"],
            &[("E", &["x", "x"]), ("E", &["x", "y"]), ("E", &["y", "z"])],
        );
        let m = minimize(&q).unwrap();
        assert_eq!(m.atoms().len(), 1);
        assert_eq!(m.atoms()[0], Atom::new("E", vec![var("x"), var("x")]));
        assert!(equivalent(&q, &m).unwrap());
    }

    #[test]
    fn minimized_query_evaluates_identically() {
        let q = cq(
            &["x"],
            &[("E", &["x", "y"]), ("E", &["x", "z"]), ("E", &["z", "w"])],
        );
        let m = minimize(&q).unwrap();
        // Random-ish small graph.
        let mut db = Database::new();
        db.create_relation("E", &["a", "b"]).unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 1), (2, 2), (4, 1)] {
            db.insert("E", vec![Value::int(a), Value::int(b)]).unwrap();
        }
        let r1 = Query::Cq(q).eval(&db).unwrap();
        let r2 = Query::Cq(m).eval(&db).unwrap();
        let mut t1 = r1.tuples().to_vec();
        let mut t2 = r2.tuples().to_vec();
        t1.sort();
        t2.sort();
        assert_eq!(t1, t2);
    }

    #[test]
    fn ucq_containment_per_disjunct() {
        let edge = cq(&["x"], &[("E", &["x", "y"])]);
        let path2 = cq(&["x"], &[("E", &["x", "y"]), ("E", &["y", "z"])]);
        let selfloop = cq(&["x"], &[("E", &["x", "x"])]);
        let u1 = UnionQuery::new(vec![path2.clone(), selfloop.clone()]);
        let u2 = UnionQuery::new(vec![edge.clone()]);
        // Both disjuncts of u1 imply an outgoing edge.
        assert!(ucq_contained_in(&u1, &u2).unwrap());
        // But an edge alone implies neither a 2-path nor a self-loop.
        assert!(!ucq_contained_in(&u2, &u1).unwrap());
        // Reflexivity.
        assert!(ucq_contained_in(&u1, &u1).unwrap());
    }

    #[test]
    fn comparisons_are_rejected() {
        use crate::query::{CmpOp, Comparison};
        let q = ConjunctiveQuery::new(
            vec![var("x")],
            vec![Atom::new("R", vec![var("x")])],
            vec![Comparison::new(var("x"), CmpOp::Lt, cnst(5))],
        );
        let plain = cq(&["x"], &[("R", &["x"])]);
        assert!(contained_in(&q, &plain).is_err());
        assert!(contained_in(&plain, &q).is_err());
        assert!(minimize(&q).is_err());
        assert!(Tableau::of(&q).is_err());
    }

    #[test]
    fn canonical_database_freezes_variables() {
        let q = cq(&["x"], &[("R", &["x", "1"])]);
        let (db, frozen) = Tableau::of(&q).unwrap().canonical_database().unwrap();
        assert!(db.has_relation("R"));
        assert_eq!(frozen.arity(), 1);
        // The frozen head is a string constant, not the integer 1.
        assert!(frozen[0].as_str().is_some());
    }

    #[test]
    fn homomorphism_arity_mismatch_errors() {
        let q1 = cq(&["x"], &[("R", &["x"])]);
        let q2 = cq(&["x", "y"], &[("R", &["x"]), ("S", &["y"])]);
        assert!(homomorphism(&q1, &q2).is_err());
    }
}
