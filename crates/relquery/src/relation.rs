//! Relations: named sets of tuples under set semantics.

use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::{Error, Result};
use std::collections::HashSet;
use std::fmt;

/// A relation instance: a [`RelationSchema`] plus a *set* of tuples.
///
/// The paper works with set semantics throughout (query results are sets,
/// candidate sets are subsets of `Q(D)`), so duplicate inserts are ignored.
/// Insertion order is preserved for deterministic iteration, which keeps
/// solvers and benchmarks reproducible.
#[derive(Clone, Debug)]
pub struct Relation {
    schema: RelationSchema,
    tuples: Vec<Tuple>,
    index: HashSet<Tuple>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            tuples: Vec::new(),
            index: HashSet::new(),
        }
    }

    /// Creates a relation with anonymous attribute names `a0..a{arity-1}`.
    ///
    /// Query results and gadget relations often have no meaningful
    /// attribute names; this gives them a well-formed schema.
    pub fn with_arity(name: impl Into<String>, arity: usize) -> Self {
        let attrs: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        Relation::new(RelationSchema::new(name, &attr_refs))
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// The arity of this relation.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Inserts a tuple. Returns `Ok(true)` if it was new, `Ok(false)` if it
    /// was already present, or an arity-mismatch error.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        if tuple.arity() != self.arity() {
            return Err(Error::ArityMismatch {
                relation: self.name().to_string(),
                expected: self.arity(),
                found: tuple.arity(),
            });
        }
        if self.index.contains(&tuple) {
            return Ok(false);
        }
        self.index.insert(tuple.clone());
        self.tuples.push(tuple);
        Ok(true)
    }

    /// Removes a tuple. Returns `true` if it was present. Insertion
    /// order of the remaining tuples is preserved (O(n) shift), so
    /// iteration — and everything downstream that derives determinism
    /// from it — stays reproducible across removals.
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        if !self.index.remove(tuple) {
            return false;
        }
        let i = self
            .tuples
            .iter()
            .position(|t| t == tuple)
            .expect("index and tuple vector agree");
        self.tuples.remove(i);
        true
    }

    /// Membership test (O(1) expected).
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.index.contains(tuple)
    }

    /// Iterates over the tuples in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// Returns the tuples as a slice (insertion order).
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Consumes the relation, returning its tuples (insertion order).
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Returns a sorted copy of the tuples — handy for order-insensitive
    /// comparisons in tests.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut v = self.tuples.clone();
        v.sort();
        v
    }

    /// Set equality with another relation (ignores order and names).
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.index == other.index
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation::with_arity("R", 2)
    }

    #[test]
    fn insert_and_dedup() {
        let mut r = rel();
        assert!(r.insert(Tuple::ints([1, 2])).unwrap());
        assert!(!r.insert(Tuple::ints([1, 2])).unwrap());
        assert!(r.insert(Tuple::ints([2, 1])).unwrap());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn arity_checked() {
        let mut r = rel();
        let err = r.insert(Tuple::ints([1])).unwrap_err();
        assert!(matches!(err, Error::ArityMismatch { expected: 2, found: 1, .. }));
    }

    #[test]
    fn contains_works() {
        let mut r = rel();
        r.insert(Tuple::ints([5, 6])).unwrap();
        assert!(r.contains(&Tuple::ints([5, 6])));
        assert!(!r.contains(&Tuple::ints([6, 5])));
    }

    #[test]
    fn insertion_order_preserved() {
        let mut r = rel();
        r.insert(Tuple::ints([3, 3])).unwrap();
        r.insert(Tuple::ints([1, 1])).unwrap();
        r.insert(Tuple::ints([2, 2])).unwrap();
        let order: Vec<i64> = r.iter().map(|t| t[0].as_int().unwrap()).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn set_eq_ignores_order() {
        let mut a = rel();
        let mut b = rel();
        a.insert(Tuple::ints([1, 1])).unwrap();
        a.insert(Tuple::ints([2, 2])).unwrap();
        b.insert(Tuple::ints([2, 2])).unwrap();
        b.insert(Tuple::ints([1, 1])).unwrap();
        assert!(a.set_eq(&b));
    }

    #[test]
    fn with_arity_names_attributes() {
        let r = Relation::with_arity("R", 3);
        assert_eq!(r.schema().attributes(), &["a0", "a1", "a2"]);
    }
}
