//! Relevance functions `δ_rel(t, Q)`.
//!
//! The paper only assumes that `δ_rel` is a PTIME-computable, non-negative
//! function of a result tuple (the query is fixed per instance, so it is
//! captured at construction time). These implementations cover the shapes
//! used in the paper's examples and reductions:
//!
//! * [`ConstantRelevance`] — the `δ_rel ≡ 1` of most lower-bound gadgets,
//! * [`TableRelevance`] — explicit per-tuple values with a default (the
//!   reductions of Theorems 5.1, 6.1, 7.1 assign values to a handful of
//!   special tuples),
//! * [`AttributeRelevance`] — read a numeric attribute (e.g. a `rating`
//!   column, as in the paper's Example 3.1),
//! * [`ClosureRelevance`] — arbitrary PTIME logic.

use crate::ratio::Ratio;
use divr_relquery::Tuple;
use std::collections::HashMap;

/// A relevance function on result tuples. Values must be non-negative.
pub trait Relevance {
    /// The relevance `δ_rel(t, Q)` of tuple `t` (query captured at
    /// construction).
    fn rel(&self, t: &Tuple) -> Ratio;
}

/// `δ_rel(t) = c` for every tuple.
#[derive(Clone, Debug)]
pub struct ConstantRelevance(pub Ratio);

impl Relevance for ConstantRelevance {
    fn rel(&self, _t: &Tuple) -> Ratio {
        self.0
    }
}

/// Explicit per-tuple relevance with a default for unlisted tuples.
#[derive(Clone, Debug, Default)]
pub struct TableRelevance {
    entries: HashMap<Tuple, Ratio>,
    default: Ratio,
}

impl TableRelevance {
    /// Creates an empty table with the given default.
    pub fn with_default(default: Ratio) -> Self {
        TableRelevance {
            entries: HashMap::new(),
            default,
        }
    }

    /// Sets the relevance of one tuple.
    pub fn set(&mut self, t: Tuple, value: Ratio) -> &mut Self {
        assert!(!value.is_negative(), "relevance must be non-negative");
        self.entries.insert(t, value);
        self
    }

    /// Builder-style [`TableRelevance::set`].
    pub fn with(mut self, t: Tuple, value: Ratio) -> Self {
        self.set(t, value);
        self
    }

    /// The default relevance for unlisted tuples.
    pub fn default_value(&self) -> Ratio {
        self.default
    }

    /// All explicit `(tuple, value)` entries, in unspecified order (the
    /// serving layer's content fingerprint sorts them canonically).
    pub fn entries(&self) -> impl Iterator<Item = (&Tuple, Ratio)> {
        self.entries.iter().map(|(t, &v)| (t, v))
    }
}

impl Relevance for TableRelevance {
    fn rel(&self, t: &Tuple) -> Ratio {
        self.entries.get(t).copied().unwrap_or(self.default)
    }
}

/// Reads a numeric attribute as the relevance (negative and non-integer
/// attribute values clamp to the default).
#[derive(Clone, Debug)]
pub struct AttributeRelevance {
    /// Which attribute position to read.
    pub attr: usize,
    /// Value used when the attribute is missing, non-integer or negative.
    pub default: Ratio,
}

impl Relevance for AttributeRelevance {
    fn rel(&self, t: &Tuple) -> Ratio {
        match t.get(self.attr).and_then(|v| v.as_int()) {
            Some(n) if n >= 0 => Ratio::int(n),
            _ => self.default,
        }
    }
}

/// Wraps an arbitrary function as a relevance function.
pub struct ClosureRelevance<F: Fn(&Tuple) -> Ratio>(pub F);

impl<F: Fn(&Tuple) -> Ratio> Relevance for ClosureRelevance<F> {
    fn rel(&self, t: &Tuple) -> Ratio {
        self.0(t)
    }
}

impl Relevance for Box<dyn Relevance + '_> {
    fn rel(&self, t: &Tuple) -> Ratio {
        (**self).rel(t)
    }
}

impl Relevance for Box<dyn Relevance + Send + Sync + '_> {
    fn rel(&self, t: &Tuple) -> Ratio {
        (**self).rel(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant() {
        let r = ConstantRelevance(Ratio::ONE);
        assert_eq!(r.rel(&Tuple::ints([1, 2])), Ratio::ONE);
    }

    #[test]
    fn table_with_default() {
        let r = TableRelevance::with_default(Ratio::ZERO)
            .with(Tuple::ints([1]), Ratio::int(5))
            .with(Tuple::ints([2]), Ratio::new(1, 2));
        assert_eq!(r.rel(&Tuple::ints([1])), Ratio::int(5));
        assert_eq!(r.rel(&Tuple::ints([2])), Ratio::new(1, 2));
        assert_eq!(r.rel(&Tuple::ints([3])), Ratio::ZERO);
        assert_eq!(r.entries().count(), 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_relevance_rejected() {
        TableRelevance::default().set(Tuple::ints([1]), Ratio::int(-1));
    }

    #[test]
    fn attribute_based() {
        let r = AttributeRelevance {
            attr: 1,
            default: Ratio::ONE,
        };
        assert_eq!(r.rel(&Tuple::ints([7, 42])), Ratio::int(42));
        assert_eq!(r.rel(&Tuple::ints([7, -1])), Ratio::ONE);
        assert_eq!(r.rel(&Tuple::ints([7])), Ratio::ONE); // missing attr
    }

    #[test]
    fn closure_based() {
        let r = ClosureRelevance(|t: &Tuple| Ratio::int(t.arity() as i64));
        assert_eq!(r.rel(&Tuple::ints([1, 2, 3])), Ratio::int(3));
    }

    #[test]
    fn boxed_dispatch() {
        let b: Box<dyn Relevance> = Box::new(ConstantRelevance(Ratio::int(2)));
        assert_eq!(b.rel(&Tuple::ints([0])), Ratio::int(2));
    }
}
