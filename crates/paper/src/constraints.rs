//! Compatibility constraints — the class `C_m` of Section 9.
//!
//! A constraint has the shape
//!
//! ```text
//! ∀ t1..tl : R_Q ( χ(t1..tl)  →  ∃ s1..sh : R_Q  ξ(t1..tl, s1..sh) )
//! ```
//!
//! where `l, h ≤ m` for a predefined constant `m`, and `χ`, `ξ` are
//! conjunctions of (in)equality predicates between tuple attributes or
//! against constants. Tuple variables range over the **selected set** `U`
//! (with repetition, as for tuple-generating dependencies).
//!
//! Because `m` is constant, checking `U ⊨ ϕ` enumerates at most
//! `|U|^l · |U|^h` assignments — PTIME, as the paper requires of `C_m`.
//! The complexity results of Section 9 are *not* about validation cost:
//! they show that even these PTIME-checkable constraints flip the
//! tractable diversification cells (e.g. data complexity of `F_mono`)
//! back to NP-/#P-hardness (Theorem 9.3, Corollaries 9.4–9.6), except
//! when `k` is constant (Corollary 9.7).

use divr_relquery::{Tuple, Value};
use std::fmt;

/// The predicate operators allowed in `C_m` (equality and inequality).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
}

impl CmOp {
    fn eval(self, l: &Value, r: &Value) -> bool {
        match self {
            CmOp::Eq => l == r,
            CmOp::Ne => l != r,
        }
    }
}

impl fmt::Display for CmOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmOp::Eq => write!(f, "="),
            CmOp::Ne => write!(f, "!="),
        }
    }
}

/// A reference to an attribute of a tuple variable: `t_i[A_j]`.
/// Universal variables are indices `0..l`; existential variables follow
/// as `l..l+h`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttrRef {
    /// Tuple-variable index.
    pub tuple: usize,
    /// Attribute position within the result schema `R_Q`.
    pub attr: usize,
}

/// A single predicate of `χ` or `ξ`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CmPred {
    /// `ρ[A] op ϱ[B]` between two tuple variables.
    AttrAttr {
        /// Left attribute reference.
        left: AttrRef,
        /// The operator.
        op: CmOp,
        /// Right attribute reference.
        right: AttrRef,
    },
    /// `ρ[A] op c` against a constant.
    AttrConst {
        /// Left attribute reference.
        left: AttrRef,
        /// The operator.
        op: CmOp,
        /// The constant.
        value: Value,
    },
}

impl CmPred {
    /// `t_tuple[attr] = value`.
    pub fn attr_eq_const(tuple: usize, attr: usize, value: impl Into<Value>) -> Self {
        CmPred::AttrConst {
            left: AttrRef { tuple, attr },
            op: CmOp::Eq,
            value: value.into(),
        }
    }

    /// `t_a[attr_a] = t_b[attr_b]`.
    pub fn attrs_eq(a: (usize, usize), b: (usize, usize)) -> Self {
        CmPred::AttrAttr {
            left: AttrRef {
                tuple: a.0,
                attr: a.1,
            },
            op: CmOp::Eq,
            right: AttrRef {
                tuple: b.0,
                attr: b.1,
            },
        }
    }

    /// `t_a[attr_a] ≠ t_b[attr_b]`.
    pub fn attrs_ne(a: (usize, usize), b: (usize, usize)) -> Self {
        CmPred::AttrAttr {
            left: AttrRef {
                tuple: a.0,
                attr: a.1,
            },
            op: CmOp::Ne,
            right: AttrRef {
                tuple: b.0,
                attr: b.1,
            },
        }
    }

    fn max_tuple_var(&self) -> usize {
        match self {
            CmPred::AttrAttr { left, right, .. } => left.tuple.max(right.tuple),
            CmPred::AttrConst { left, .. } => left.tuple,
        }
    }

    /// Evaluates under an assignment of tuple variables to tuples of `U`.
    fn eval(&self, assignment: &[&Tuple]) -> bool {
        match self {
            CmPred::AttrAttr { left, op, right } => {
                let lv = &assignment[left.tuple][left.attr];
                let rv = &assignment[right.tuple][right.attr];
                op.eval(lv, rv)
            }
            CmPred::AttrConst { left, op, value } => {
                op.eval(&assignment[left.tuple][left.attr], value)
            }
        }
    }
}

/// A compatibility constraint of `C_m`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    forall: usize,
    exists: usize,
    premise: Vec<CmPred>,
    conclusion: Vec<CmPred>,
}

impl Constraint {
    /// Starts a builder.
    pub fn builder() -> ConstraintBuilder {
        ConstraintBuilder::default()
    }

    /// Number of universally quantified tuple variables (`l`).
    pub fn forall_count(&self) -> usize {
        self.forall
    }

    /// Number of existentially quantified tuple variables (`h`).
    pub fn exists_count(&self) -> usize {
        self.exists
    }

    /// Total tuple variables `l + h` — this constraint belongs to `C_m`
    /// for every `m ≥ max(l, h)`.
    fn width(&self) -> usize {
        self.forall + self.exists
    }

    /// Whether this is a *denial-style* constraint (`h = 0`): violations
    /// are preserved by supersets, which constraint-aware solvers exploit
    /// for pruning.
    pub(crate) fn is_denial(&self) -> bool {
        self.exists == 0
    }

    /// Checks `U ⊨ ϕ`: for every assignment of the `l` universal
    /// variables over `U` satisfying the premise, some assignment of the
    /// `h` existential variables over `U` satisfies the conclusion.
    ///
    /// Runs in `O(|U|^{l+h})` — PTIME for the constant-bounded `C_m`.
    pub(crate) fn satisfied_by(&self, set: &[Tuple]) -> bool {
        let mut assignment: Vec<&Tuple> = Vec::with_capacity(self.width());
        self.check_universals(set, &mut assignment)
    }

    fn check_universals<'a>(&self, set: &'a [Tuple], assignment: &mut Vec<&'a Tuple>) -> bool {
        if assignment.len() == self.forall {
            // Premise decided entirely by universal variables.
            if !self.premise.iter().all(|p| p.eval(assignment)) {
                return true; // premise false → implication holds
            }
            return self.check_existentials(set, assignment);
        }
        if set.is_empty() {
            return true; // ∀ over the empty set
        }
        for t in set {
            assignment.push(t);
            let ok = self.check_universals(set, assignment);
            assignment.pop();
            if !ok {
                return false;
            }
        }
        true
    }

    fn check_existentials<'a>(&self, set: &'a [Tuple], assignment: &mut Vec<&'a Tuple>) -> bool {
        if assignment.len() == self.width() {
            return self.conclusion.iter().all(|p| p.eval(assignment));
        }
        // ∃ over the empty set fails (when h ≥ 1 and U = ∅ the premise
        // can only have been satisfied with l = 0).
        for t in set {
            assignment.push(t);
            let ok = self.check_existentials(set, assignment);
            assignment.pop();
            if ok {
                return true;
            }
        }
        false
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "∀ t0..t{} (", self.forall.saturating_sub(1))?;
        for (i, p) in self.premise.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{p:?}")?;
        }
        write!(f, " → ∃ s0..s{} ", self.exists.saturating_sub(1))?;
        for (i, p) in self.conclusion.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{p:?}")?;
        }
        write!(f, ")")
    }
}

/// Builder for [`Constraint`] with index validation.
#[derive(Default)]
pub struct ConstraintBuilder {
    forall: usize,
    exists: usize,
    premise: Vec<CmPred>,
    conclusion: Vec<CmPred>,
}

impl ConstraintBuilder {
    /// Sets the number of universal tuple variables.
    pub fn forall(mut self, l: usize) -> Self {
        self.forall = l;
        self
    }

    /// Sets the number of existential tuple variables.
    pub fn exists(mut self, h: usize) -> Self {
        self.exists = h;
        self
    }

    /// Adds a premise predicate (may reference universal variables only).
    pub fn premise(mut self, p: CmPred) -> Self {
        self.premise.push(p);
        self
    }

    /// Adds a conclusion predicate (may reference any tuple variable).
    pub fn conclusion(mut self, p: CmPred) -> Self {
        self.conclusion.push(p);
        self
    }

    /// Finishes, validating that predicate variable indices are in range.
    ///
    /// Panics on out-of-range tuple variables (these are construction
    /// bugs, not data errors).
    pub fn build(self) -> Constraint {
        for p in &self.premise {
            assert!(
                p.max_tuple_var() < self.forall,
                "premise predicates may reference only the {} universal variables",
                self.forall
            );
        }
        for p in &self.conclusion {
            assert!(
                p.max_tuple_var() < self.forall + self.exists,
                "conclusion predicates may reference only the {} declared variables",
                self.forall + self.exists
            );
        }
        Constraint {
            forall: self.forall,
            exists: self.exists,
            premise: self.premise,
            conclusion: self.conclusion,
        }
    }
}

/// Checks `U ⊨ Σ` for a whole set of constraints.
pub fn satisfies_all(set: &[Tuple], constraints: &[Constraint]) -> bool {
    constraints.iter().all(|c| c.satisfied_by(set))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(name: &str, kind: &str) -> Tuple {
        Tuple::new(vec![Value::str(name), Value::str(kind)])
    }

    /// The paper's ρ1 (Example 9.1): buying a and b requires c.
    fn rho1() -> Constraint {
        Constraint::builder()
            .forall(2)
            .exists(1)
            .premise(CmPred::attr_eq_const(0, 0, "a"))
            .premise(CmPred::attr_eq_const(1, 0, "b"))
            .conclusion(CmPred::attr_eq_const(2, 0, "c"))
            .build()
    }

    #[test]
    fn rho1_requires_companion_item() {
        let c = rho1();
        let a = item("a", "gift");
        let b = item("b", "gift");
        let cc = item("c", "card");
        // a and b without c: violated.
        assert!(!c.satisfied_by(&[a.clone(), b.clone()]));
        // with c: satisfied.
        assert!(c.satisfied_by(&[a.clone(), b, cc]));
        // only a: premise never fires.
        assert!(c.satisfied_by(&[a]));
        // empty set: vacuous.
        assert!(c.satisfied_by(&[]));
    }

    /// The paper's ρ2 shape: taking CS450 requires CS220 and CS350.
    #[test]
    fn prerequisite_constraint() {
        let c = Constraint::builder()
            .forall(1)
            .exists(2)
            .premise(CmPred::attr_eq_const(0, 0, "CS450"))
            .conclusion(CmPred::attr_eq_const(1, 0, "CS220"))
            .conclusion(CmPred::attr_eq_const(2, 0, "CS350"))
            .build();
        let c450 = item("CS450", "course");
        let c220 = item("CS220", "course");
        let c350 = item("CS350", "course");
        assert!(!c.satisfied_by(std::slice::from_ref(&c450)));
        assert!(!c.satisfied_by(&[c450.clone(), c220.clone()]));
        assert!(c.satisfied_by(&[c450, c220, c350]));
    }

    /// The paper's ρ3 shape: at most two centers on the team. A denial
    /// constraint: three pairwise-distinct centers → contradiction.
    fn rho3() -> Constraint {
        Constraint::builder()
            .forall(3)
            .exists(0)
            .premise(CmPred::attr_eq_const(0, 1, "center"))
            .premise(CmPred::attr_eq_const(1, 1, "center"))
            .premise(CmPred::attr_eq_const(2, 1, "center"))
            .premise(CmPred::attrs_ne((0, 0), (1, 0)))
            .premise(CmPred::attrs_ne((0, 0), (2, 0)))
            .premise(CmPred::attrs_ne((1, 0), (2, 0)))
            // unsatisfiable conclusion over universals: t0 ≠ t0
            .conclusion(CmPred::attrs_ne((0, 0), (0, 0)))
            .build()
    }

    #[test]
    fn at_most_two_centers() {
        let c = rho3();
        assert!(c.is_denial()); // h = 0: violations persist in supersets
        let p1 = item("p1", "center");
        let p2 = item("p2", "center");
        let p3 = item("p3", "center");
        let g = item("g", "guard");
        assert!(c.satisfied_by(&[p1.clone(), p2.clone(), g]));
        assert!(!c.satisfied_by(&[p1, p2, p3]));
    }

    #[test]
    fn denial_classification() {
        let denial = Constraint::builder()
            .forall(2)
            .exists(0)
            .premise(CmPred::attrs_eq((0, 0), (1, 0)))
            .build();
        assert!(denial.is_denial());
        assert!(!rho1().is_denial());
    }

    #[test]
    fn empty_conclusion_denial_semantics() {
        // ∀t0,t1 (t0[0] = 'x' ∧ t1[0] = 'y' → ⊥): forbids having both.
        // Empty conclusion conjunction is trivially true though — so a
        // real denial uses an unsatisfiable conclusion predicate.
        let forbid = Constraint::builder()
            .forall(2)
            .exists(0)
            .premise(CmPred::attr_eq_const(0, 0, "x"))
            .premise(CmPred::attr_eq_const(1, 0, "y"))
            .conclusion(CmPred::attrs_ne((0, 0), (0, 0)))
            .build();
        assert!(!forbid.satisfied_by(&[item("x", "_"), item("y", "_")]));
        assert!(forbid.satisfied_by(&[item("x", "_"), item("z", "_")]));
    }

    #[test]
    fn attr_attr_equality_between_universals() {
        // all selected tuples share the same type: ∀t0,t1 (⊤ → t0[1]=t1[1])
        // encoded with empty premise.
        let same_type = Constraint::builder()
            .forall(2)
            .exists(0)
            .conclusion(CmPred::attrs_eq((0, 1), (1, 1)))
            .build();
        assert!(same_type.satisfied_by(&[item("a", "t"), item("b", "t")]));
        assert!(!same_type.satisfied_by(&[item("a", "t"), item("b", "u")]));
    }

    #[test]
    fn satisfies_all_conjunction() {
        let cs = vec![rho1(), rho3()];
        let a = item("a", "gift");
        let b = item("b", "gift");
        let c = item("c", "card");
        assert!(satisfies_all(&[a.clone(), c], &cs));
        assert!(!satisfies_all(&[a, b], &cs));
    }

    #[test]
    #[should_panic(expected = "premise predicates")]
    fn premise_referencing_existential_rejected() {
        Constraint::builder()
            .forall(1)
            .exists(1)
            .premise(CmPred::attr_eq_const(1, 0, "x"))
            .build();
    }

    #[test]
    #[should_panic(expected = "conclusion predicates")]
    fn conclusion_out_of_range_rejected() {
        Constraint::builder()
            .forall(1)
            .exists(1)
            .conclusion(CmPred::attr_eq_const(2, 0, "x"))
            .build();
    }

    #[test]
    fn exists_over_empty_set_with_no_universals() {
        // ∀∅ (⊤ → ∃s s[0]='x'): on the empty set, ∃ fails.
        let c = Constraint::builder()
            .forall(0)
            .exists(1)
            .conclusion(CmPred::attr_eq_const(0, 0, "x"))
            .build();
        assert!(!c.satisfied_by(&[]));
        assert!(c.satisfied_by(&[item("x", "_")]));
    }
}
