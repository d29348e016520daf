//! Conjunctive queries (`CQ`) and unions of conjunctive queries (`UCQ`).
//!
//! A conjunctive query is built from relation atoms and built-in
//! comparison predicates, closed under `∧` and `∃` (paper, Section 4.1).
//! In rule form: `Q(x̄) :- R1(ū1), ..., Rn(ūn), c1, ..., cm` where every
//! variable in the head or in a comparison also occurs in some relation
//! atom (the *safety* condition — it makes the built-in predicates range
//! over bound values only).

use super::{ensure, Atom, Comparison, Term, Var};
use crate::value::Value;
use crate::{Error, Result};
use std::collections::BTreeSet;
use std::fmt;

/// A conjunctive query in rule form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    head: Vec<Term>,
    atoms: Vec<Atom>,
    comparisons: Vec<Comparison>,
}

impl ConjunctiveQuery {
    /// Builds a CQ from its head terms, body atoms and comparisons.
    pub fn new(head: Vec<Term>, atoms: Vec<Atom>, comparisons: Vec<Comparison>) -> Self {
        ConjunctiveQuery {
            head,
            atoms,
            comparisons,
        }
    }

    /// Starts a builder for fluent construction.
    pub fn builder() -> CqBuilder {
        CqBuilder::default()
    }

    /// Head terms (the output row template).
    pub fn head(&self) -> &[Term] {
        &self.head
    }

    /// Body relation atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Body comparisons.
    pub fn comparisons(&self) -> &[Comparison] {
        &self.comparisons
    }

    /// The set of variables bound by relation atoms.
    fn bound_variables(&self) -> BTreeSet<Var> {
        self.atoms
            .iter()
            .flat_map(|a| a.variables())
            .collect()
    }

    /// Safety validation: head and comparison variables must occur in some
    /// relation atom, and the query must have at least one atom (so that
    /// its result is finite).
    pub fn validate(&self) -> Result<()> {
        if self.atoms.is_empty() {
            return Err(Error::UnsafeQuery(
                "conjunctive query has no relation atoms".into(),
            ));
        }
        let bound = self.bound_variables();
        for t in &self.head {
            if let Term::Var(v) = t {
                if !bound.contains(v) {
                    return Err(Error::UnsafeQuery(format!(
                        "head variable {v} is not bound by any atom"
                    )));
                }
            }
        }
        for c in &self.comparisons {
            for v in c.variables() {
                if !bound.contains(&v) {
                    return Err(Error::UnsafeQuery(format!(
                        "comparison variable {v} is not bound by any atom"
                    )));
                }
            }
        }
        Ok(())
    }

    pub(crate) fn collect_constants(&self, out: &mut Vec<Value>) {
        for t in &self.head {
            if let Term::Const(c) = t {
                out.push(c.clone());
            }
        }
        for a in &self.atoms {
            for t in &a.terms {
                if let Term::Const(c) = t {
                    out.push(c.clone());
                }
            }
        }
        for c in &self.comparisons {
            for t in [&c.lhs, &c.rhs] {
                if let Term::Const(v) = t {
                    out.push(v.clone());
                }
            }
        }
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q(")?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ") :- ")?;
        let mut first = true;
        for a in &self.atoms {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{a}")?;
        }
        for c in &self.comparisons {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Fluent builder for [`ConjunctiveQuery`].
#[derive(Default)]
pub struct CqBuilder {
    head: Vec<Term>,
    atoms: Vec<Atom>,
    comparisons: Vec<Comparison>,
}

impl CqBuilder {
    /// Sets the head terms.
    pub fn head(mut self, head: Vec<Term>) -> Self {
        self.head = head;
        self
    }

    /// Adds a relation atom.
    pub fn atom(mut self, relation: impl Into<String>, terms: Vec<Term>) -> Self {
        self.atoms.push(Atom::new(relation, terms));
        self
    }

    /// Adds a comparison.
    pub fn cmp(mut self, lhs: Term, op: super::CmpOp, rhs: Term) -> Self {
        self.comparisons.push(Comparison::new(lhs, op, rhs));
        self
    }

    /// Finishes, validating safety.
    pub fn build(self) -> Result<ConjunctiveQuery> {
        let q = ConjunctiveQuery::new(self.head, self.atoms, self.comparisons);
        q.validate()?;
        Ok(q)
    }
}

/// A union of conjunctive queries `Q1 ∪ ... ∪ Qr` (paper, Section 4.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnionQuery {
    disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Builds a UCQ from its disjuncts.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Self {
        UnionQuery { disjuncts }
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }

    /// The common head arity.
    pub fn arity(&self) -> usize {
        self.disjuncts.first().map_or(0, |d| d.head().len())
    }

    /// Validates that there is at least one disjunct, all disjuncts are
    /// safe, and all share one head arity.
    pub fn validate(&self) -> Result<()> {
        ensure(!self.disjuncts.is_empty(), || {
            "union query has no disjuncts".into()
        })?;
        let arity = self.disjuncts[0].head().len();
        for d in &self.disjuncts {
            d.validate()?;
            ensure(d.head().len() == arity, || {
                format!(
                    "union disjuncts have differing arities ({} vs {arity})",
                    d.head().len()
                )
            })?;
        }
        Ok(())
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{cnst, var, CmpOp, Query};
    use super::*;

    fn simple_cq() -> ConjunctiveQuery {
        ConjunctiveQuery::builder()
            .head(vec![var("x")])
            .atom("R", vec![var("x"), var("y")])
            .cmp(var("y"), CmpOp::Gt, cnst(3))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_builds_valid_query() {
        let q = simple_cq();
        assert_eq!(q.head().len(), 1);
        assert_eq!(q.atoms().len(), 1);
        assert_eq!(q.comparisons().len(), 1);
    }

    #[test]
    fn unsafe_head_variable_rejected() {
        let err = ConjunctiveQuery::builder()
            .head(vec![var("z")])
            .atom("R", vec![var("x")])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::UnsafeQuery(_)));
    }

    #[test]
    fn unsafe_comparison_variable_rejected() {
        let err = ConjunctiveQuery::builder()
            .head(vec![var("x")])
            .atom("R", vec![var("x")])
            .cmp(var("w"), CmpOp::Eq, cnst(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::UnsafeQuery(_)));
    }

    #[test]
    fn no_atoms_rejected() {
        let err = ConjunctiveQuery::builder()
            .head(vec![cnst(1)])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::UnsafeQuery(_)));
    }

    #[test]
    fn constant_head_allowed() {
        let q = ConjunctiveQuery::builder()
            .head(vec![cnst(1), var("x")])
            .atom("R", vec![var("x")])
            .build();
        assert!(q.is_ok());
    }

    #[test]
    fn union_arity_checked() {
        let a = simple_cq();
        let b = ConjunctiveQuery::builder()
            .head(vec![var("x"), var("y")])
            .atom("R", vec![var("x"), var("y")])
            .build()
            .unwrap();
        let u = UnionQuery::new(vec![a, b]);
        assert!(matches!(u.validate(), Err(Error::MalformedQuery(_))));
    }

    #[test]
    fn empty_union_rejected() {
        assert!(UnionQuery::new(vec![]).validate().is_err());
    }

    #[test]
    fn display_rule_form() {
        let q = simple_cq();
        assert_eq!(q.to_string(), "Q(x) :- R(x, y), y > 3");
    }

    #[test]
    fn constants_collected() {
        let q: Query = simple_cq().into();
        assert_eq!(q.constants(), vec![Value::int(3)]);
    }
}
