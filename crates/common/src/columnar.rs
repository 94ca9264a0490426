//! Columnar tuple storage: flat, arity-strided value buffers.
//!
//! [`ColumnSegment`] packs rows into a single contiguous `Vec<Value>` in
//! row-major order with a fixed stride (the arity): row `i` occupies
//! `values[i*arity .. (i+1)*arity]`. Scans walk one allocation linearly
//! and hand out rows as borrowed `&[Value]` slices; no row is ever a
//! per-tuple heap box. A relation keeps every fact in this one
//! representation: its uncommitted tail is a segment it appends to, and
//! committing moves that buffer, unsorted and uncopied, into a frozen
//! segment shared by clones.
//!
//! The logical space model (see [`crate::space`]) does not depend on
//! this layout: a stored row costs
//! [`tuple_bytes`](crate::space::tuple_bytes) of *logical* bytes, so
//! byte gauges stay comparable across representation changes.

use crate::value::Value;

/// A row-major packed run of same-arity rows, in append order.
///
/// Arity 0 is explicitly supported (propositional relations): the value
/// buffer stays empty and the row count alone carries the cardinality,
/// with every row read back as the empty slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSegment {
    arity: usize,
    rows: usize,
    values: Vec<Value>,
}

impl ColumnSegment {
    /// An empty segment of the given stride.
    pub fn new(arity: usize) -> Self {
        ColumnSegment {
            arity,
            rows: 0,
            values: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the row's length is not the stride.
    pub fn push(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.arity, "arity mismatch packing a segment");
        self.values.extend_from_slice(row);
        self.rows += 1;
    }

    /// Takes this segment's rows out, leaving it empty, with the buffer
    /// trimmed to its length: the rows move, they are not copied.
    pub fn take(&mut self) -> ColumnSegment {
        let mut seg = std::mem::replace(self, ColumnSegment::new(self.arity));
        seg.values.shrink_to_fit();
        seg
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `i` as a borrowed slice.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        &self.values[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates all rows in storage order.
    pub fn rows(&self) -> Rows<'_> {
        self.rows_range(0, self.rows)
    }

    /// Iterates rows `lo..hi` in storage order.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > len()`.
    pub fn rows_range(&self, lo: usize, hi: usize) -> Rows<'_> {
        assert!(
            lo <= hi && hi <= self.rows,
            "range {lo}..{hi} out of {}",
            self.rows
        );
        Rows {
            values: &self.values[lo * self.arity..hi * self.arity],
            arity: self.arity,
            remaining: hi - lo,
        }
    }
}

/// Iterator over the rows of a [`ColumnSegment`], yielding `&[Value]`
/// slices of the stride.
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    values: &'a [Value],
    arity: usize,
    remaining: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.arity == 0 {
            return Some(&[]);
        }
        let (row, rest) = self.values.split_at(self.arity);
        self.values = rest;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn pack<'a>(arity: usize, tuples: impl IntoIterator<Item = &'a Tuple>) -> ColumnSegment {
        let mut seg = ColumnSegment::new(arity);
        for t in tuples {
            seg.push(t);
        }
        seg
    }

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::from([Value::Int(a), Value::Int(b)])
    }

    #[test]
    fn packs_rows_in_order() {
        let tuples = vec![t2(3, 4), t2(1, 2), t2(5, 6)];
        let seg = pack(2, &tuples);
        assert_eq!(seg.len(), 3);
        assert_eq!(seg.row(1), &[Value::Int(1), Value::Int(2)]);
        let back: Vec<Tuple> = seg.rows().map(Tuple::new).collect();
        assert_eq!(back, tuples);
    }

    #[test]
    fn take_moves_the_rows_and_leaves_an_empty_segment() {
        let mut tail = ColumnSegment::new(2);
        tail.push(&[Value::Int(3), Value::Int(4)]);
        tail.push(&[Value::Int(1), Value::Int(2)]);
        let frozen = tail.take();
        assert!(tail.is_empty());
        let back: Vec<Tuple> = frozen.rows().map(Tuple::new).collect();
        assert_eq!(back, vec![t2(3, 4), t2(1, 2)], "append order, unsorted");
    }

    #[test]
    fn range_iteration_matches_skip_take() {
        let tuples: Vec<Tuple> = (0..10).map(|k| t2(k, k + 1)).collect();
        let seg = pack(2, &tuples);
        for (lo, hi) in [(0, 0), (0, 10), (3, 7), (9, 10)] {
            let ranged: Vec<&[Value]> = seg.rows_range(lo, hi).collect();
            let skipped: Vec<&[Value]> = seg.rows().skip(lo).take(hi - lo).collect();
            assert_eq!(ranged, skipped, "{lo}..{hi}");
        }
    }

    #[test]
    fn arity_zero_counts_rows_without_values() {
        let tuples = vec![Tuple::from([]), Tuple::from([])];
        let seg = pack(0, &tuples);
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.rows().count(), 2);
        assert_eq!(seg.row(0), &[] as &[Value]);
        assert_eq!(seg.rows_range(1, 2).count(), 1);
    }

    #[test]
    fn exact_size_is_reported() {
        let tuples: Vec<Tuple> = (0..5).map(|k| t2(k, k)).collect();
        let seg = pack(2, &tuples);
        let mut it = seg.rows();
        assert_eq!(it.len(), 5);
        it.next();
        assert_eq!(it.len(), 4);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_is_checked() {
        let t = Tuple::from([Value::Int(1)]);
        let _ = pack(2, [&t]);
    }
}
