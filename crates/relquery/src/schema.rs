//! Relation schemas.

use std::fmt;

/// A relation schema: a relation name plus an ordered list of attribute
/// names, as in the paper's `R(A1, ..., An)` notation (Section 3.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationSchema {
    name: String,
    attributes: Vec<String>,
}

impl RelationSchema {
    /// Builds a schema from a relation name and attribute names.
    pub fn new(name: impl Into<String>, attributes: &[&str]) -> Self {
        RelationSchema {
            name: name.into(),
            attributes: attributes.iter().map(|a| (*a).to_string()).collect(),
        }
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of attributes (arity).
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// The attribute names, in schema order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.attributes.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let s = RelationSchema::new("catalog", &["item", "type", "price"]);
        assert_eq!(s.name(), "catalog");
        assert_eq!(s.arity(), 3);
        assert_eq!(s.to_string(), "catalog(item, type, price)");
    }

    #[test]
    fn zero_arity_schema_is_allowed() {
        let s = RelationSchema::new("unit", &[]);
        assert_eq!(s.arity(), 0);
    }
}
