//! Constant tuples.

use crate::interner::Interner;
use crate::value::Value;
use std::fmt;
use std::ops::Deref;

/// A constant tuple over a relation schema: a fixed-arity sequence of
/// domain [`Value`]s.
///
/// Stored as a boxed slice (two words on the stack) rather than a `Vec`
/// (three words) since tuples are immutable once built and relations hold
/// very many of them.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl Into<Box<[Value]>>) -> Self {
        Tuple(values.into())
    }

    /// The tuple's arity.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Projects the tuple onto the given column positions.
    ///
    /// # Panics
    /// Panics if any position is out of range.
    pub fn project(&self, columns: &[usize]) -> Tuple {
        Tuple(columns.iter().map(|&c| self.0[c]).collect())
    }

    /// Renders the tuple for humans, e.g. `('a', 3)`.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> DisplayTuple<'a> {
        DisplayTuple {
            tuple: self,
            interner,
        }
    }
}

impl Deref for Tuple {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl std::borrow::Borrow<[Value]> for Tuple {
    /// Lets hash sets keyed by `Tuple` answer lookups for borrowed
    /// `&[Value]` rows straight out of columnar storage, with no
    /// per-probe `Tuple` allocation. Sound because `Tuple` is a
    /// single-field wrapper: its derived `Hash`/`Eq`/`Ord` delegate to
    /// the slice, so the `Borrow` coherence requirements hold.
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl crate::space::HeapSize for Tuple {
    /// The inline `Box<[Value]>` handle plus one value slot per column
    /// (see [`crate::space::tuple_bytes`]).
    fn heap_bytes(&self) -> usize {
        crate::space::tuple_bytes(self.arity())
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple(v.into_boxed_slice())
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(v: [Value; N]) -> Self {
        Tuple(Box::new(v))
    }
}

/// A borrowed row of packed relation storage, with the read API of a
/// [`Tuple`]: what [`Relation::iter`](crate::Relation::iter) yields, so
/// walking a relation never allocates a per-fact box.
///
/// `clone` copies the row out as an owned `Tuple`, as it does on a
/// `&Tuple`; the type is deliberately not `Clone`, so that is the only
/// meaning `clone` has here.
#[derive(PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TupleRef<'a>(&'a [Value]);

impl<'a> TupleRef<'a> {
    /// Wraps a borrowed row.
    pub fn new(values: &'a [Value]) -> Self {
        TupleRef(values)
    }

    /// The values as a slice borrowed from the storage.
    pub fn values(&self) -> &'a [Value] {
        self.0
    }

    /// Copies the row out as an owned [`Tuple`].
    pub fn to_tuple(&self) -> Tuple {
        Tuple::new(self.0)
    }

    /// Copies the row out as an owned [`Tuple`] (see the type docs).
    #[allow(clippy::should_implement_trait)]
    pub fn clone(&self) -> Tuple {
        self.to_tuple()
    }
}

impl Deref for TupleRef<'_> {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.0
    }
}

/// Helper returned by [`Tuple::display`].
pub struct DisplayTuple<'a> {
    tuple: &'a Tuple,
    interner: &'a Interner,
}

impl fmt::Display for DisplayTuple<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.tuple.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", v.display(self.interner))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_values() {
        let t = Tuple::from([Value::Int(1), Value::Int(2)]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.values(), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn empty_tuple() {
        // Zero-ary tuples represent propositional facts such as `delay`
        // in Example 4.4 of the paper.
        let t = Tuple::from([]);
        assert_eq!(t.arity(), 0);
    }

    #[test]
    fn projection() {
        let t = Tuple::from([Value::Int(10), Value::Int(20), Value::Int(30)]);
        assert_eq!(
            t.project(&[2, 0]),
            Tuple::from([Value::Int(30), Value::Int(10)])
        );
        assert_eq!(t.project(&[]), Tuple::from([]));
    }

    #[test]
    fn display() {
        let mut i = Interner::new();
        let t = Tuple::from([Value::sym(&mut i, "a"), Value::Int(5)]);
        assert_eq!(t.display(&i).to_string(), "('a', 5)");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Tuple::from([Value::Int(1), Value::Int(2)]);
        let b = Tuple::from([Value::Int(1), Value::Int(3)]);
        assert!(a < b);
    }
}
