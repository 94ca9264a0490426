//! Relation and database schemas.

use crate::interner::{Interner, Symbol};
use std::collections::BTreeMap;
use std::fmt;

/// A relation schema: a relation symbol together with an arity.
///
/// We use positional attributes (`0..arity`), the standard choice for
/// Datalog implementations; the paper's named-attribute formulation is
/// isomorphic to this for a fixed attribute order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RelationSchema {
    /// The relation symbol.
    pub name: Symbol,
    /// Number of attributes.
    pub arity: usize,
}

impl RelationSchema {
    /// Creates a schema.
    pub fn new(name: Symbol, arity: usize) -> Self {
        RelationSchema { name, arity }
    }
}

/// A database schema: a finite set of relation schemas, at most one per
/// relation symbol.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Schema {
    relations: BTreeMap<Symbol, usize>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or confirms) a relation schema. Returns an error message if
    /// the symbol is already declared with a different arity.
    pub fn declare(&mut self, name: Symbol, arity: usize) -> Result<(), ArityConflict> {
        match self.relations.insert(name, arity) {
            Some(prev) if prev != arity => {
                // Restore the previous declaration before failing.
                self.relations.insert(name, prev);
                Err(ArityConflict {
                    name,
                    declared: prev,
                    conflicting: arity,
                })
            }
            _ => Ok(()),
        }
    }

    /// The arity of `name`, if declared.
    pub fn arity(&self, name: Symbol) -> Option<usize> {
        self.relations.get(&name).copied()
    }

    /// Whether `name` is declared.
    pub fn contains(&self, name: Symbol) -> bool {
        self.relations.contains_key(&name)
    }

    /// Iterates over `(symbol, arity)` pairs in deterministic (symbol id)
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.relations.iter().map(|(&s, &a)| (s, a))
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether no relation is declared.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Union of two schemas. Fails on arity conflicts.
    pub fn union(&self, other: &Schema) -> Result<Schema, ArityConflict> {
        let mut out = self.clone();
        for (name, arity) in other.iter() {
            out.declare(name, arity)?;
        }
        Ok(out)
    }

    /// Renders the schema for humans.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> DisplaySchema<'a> {
        DisplaySchema {
            schema: self,
            interner,
        }
    }
}

/// Error: one relation symbol declared with two different arities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArityConflict {
    /// The conflicting symbol.
    pub name: Symbol,
    /// Arity previously declared.
    pub declared: usize,
    /// Arity of the rejected new declaration.
    pub conflicting: usize,
}

impl ArityConflict {
    /// The `Display` message with the relation named through `interner`
    /// instead of by symbol id.
    pub fn render(&self, interner: &Interner) -> String {
        self.message(interner.name(self.name))
    }

    fn message(&self, name: impl fmt::Display) -> String {
        format!(
            "relation {name} declared with arity {} but used with arity {}",
            self.declared, self.conflicting
        )
    }
}

impl fmt::Display for ArityConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message(format_args!("{:?}", self.name)))
    }
}

impl std::error::Error for ArityConflict {}

/// Helper returned by [`Schema::display`].
pub struct DisplaySchema<'a> {
    schema: &'a Schema,
    interner: &'a Interner,
}

impl fmt::Display for DisplaySchema<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, arity) in self.schema.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}/{}", self.interner.name(name), arity)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_query() {
        let mut i = Interner::new();
        let g = i.intern("G");
        let mut s = Schema::new();
        s.declare(g, 2).unwrap();
        assert_eq!(s.arity(g), Some(2));
        assert!(s.contains(g));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn redeclaration_same_arity_ok() {
        let mut i = Interner::new();
        let g = i.intern("G");
        let mut s = Schema::new();
        s.declare(g, 2).unwrap();
        s.declare(g, 2).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn arity_conflict_detected_and_state_preserved() {
        let mut i = Interner::new();
        let g = i.intern("G");
        let mut s = Schema::new();
        s.declare(g, 2).unwrap();
        let err = s.declare(g, 3).unwrap_err();
        assert_eq!(err.declared, 2);
        assert_eq!(err.conflicting, 3);
        // The original declaration survives.
        assert_eq!(s.arity(g), Some(2));
    }

    #[test]
    fn union_merges_and_detects_conflicts() {
        let mut i = Interner::new();
        let g = i.intern("G");
        let t = i.intern("T");
        let mut a = Schema::new();
        a.declare(g, 2).unwrap();
        let mut b = Schema::new();
        b.declare(t, 2).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.len(), 2);

        let mut c = Schema::new();
        c.declare(g, 1).unwrap();
        assert!(a.union(&c).is_err());
    }

    #[test]
    fn display_format() {
        let mut i = Interner::new();
        let g = i.intern("G");
        let mut s = Schema::new();
        s.declare(g, 2).unwrap();
        assert_eq!(s.display(&i).to_string(), "G/2");
    }
}
