//! Tuples: immutable, cheaply clonable rows of [`Value`]s.

use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// An immutable tuple of attribute values.
///
/// Backed by `Arc<[Value]>`, so cloning a tuple is O(1); tuples are shared
/// freely between relations, query results, candidate sets and the
/// relevance/distance tables of the diversification layer.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Builds a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(Arc::from(values))
    }

    /// The number of attributes in this tuple.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Returns the value at position `i`, or `None` if out of range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// Iterates over the values of this tuple.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }

    /// Builds a tuple of integers — convenient for the Boolean-domain
    /// gadgets of the paper's reductions (e.g. the `I_01` relation of
    /// Figure 5).
    pub fn ints(values: impl IntoIterator<Item = i64>) -> Self {
        Tuple(values.into_iter().map(Value::Int).collect())
    }

    /// Concatenates two tuples (used when composing gadget tuples).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

fn fmt_tuple(values: &[Value], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "(")?;
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{v}")?;
    }
    write!(f, ")")
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_tuple(&self.0, f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_tuple(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_indexing() {
        let t = Tuple::new(vec![Value::int(1), Value::str("a")]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t[0], Value::int(1));
        assert_eq!(t.get(1), Some(&Value::str("a")));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn ints_constructor() {
        let t = Tuple::ints([1, 0, 1]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t[2], Value::int(1));
    }

    #[test]
    fn concat() {
        let a = Tuple::ints([1, 2]);
        let b = Tuple::ints([3]);
        let c = a.concat(&b);
        assert_eq!(c, Tuple::ints([1, 2, 3]));
    }

    #[test]
    fn equality_and_hashing() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Tuple::ints([1, 2]));
        s.insert(Tuple::ints([1, 2]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Tuple::ints([1, 2]) < Tuple::ints([1, 3]));
        assert!(Tuple::ints([1]) < Tuple::ints([1, 0]));
    }

    #[test]
    fn display_form() {
        let t = Tuple::new(vec![Value::int(1), Value::str("a")]);
        assert_eq!(t.to_string(), "(1, 'a')");
    }

    #[test]
    fn from_iterator() {
        let t: Tuple = (0..3).map(Value::Int).collect();
        assert_eq!(t, Tuple::ints([0, 1, 2]));
    }
}
