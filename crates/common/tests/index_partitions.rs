//! Property suite for the radix-partitioned hash index
//! (`common::relation::Index`).
//!
//! An index splits its buckets into `2^bits` partitions by the top bits
//! of the key tag, with `bits` following the number of rows indexed.
//! These tests pin it against a reference bucket model (one ordered list
//! of postings per key, built by appending rows in storage order and
//! absorbed by removing retracted rows and appending new ones), through
//! seeded random build/absorb/retract/revive sequences over relations
//! large enough for 1, 2 and 4 partitions, including an absorb that
//! splits an index into more partitions:
//!
//! * every probe yields the model's rows in the model's order;
//! * `tuple_count`, `distinct_keys` and `heap_bytes` equal the model's,
//!   so the logical byte gauges do not depend on the partition count;
//! * a delta index over one batch equals the model built from that
//!   batch;
//! * a one-row absorb changes only the partition that row belongs to.

use std::collections::HashMap;
use unchained_common::space::{TUPLE_HEADER_BYTES, VALUE_BYTES};
use unchained_common::{tuple_bytes, HeapSize, Index, Relation, Rng, Value};

type Row = Vec<Value>;

/// The reference: per key, the postings in append order.
#[derive(Default)]
struct Buckets {
    cols: Vec<usize>,
    arity: usize,
    buckets: HashMap<Row, Vec<Row>>,
}

impl Buckets {
    fn key(&self, row: &[Value]) -> Row {
        self.cols.iter().map(|&c| row[c]).collect()
    }

    fn build<'a>(cols: &[usize], arity: usize, rows: impl Iterator<Item = &'a [Value]>) -> Self {
        let mut model = Buckets {
            cols: cols.to_vec(),
            arity,
            buckets: HashMap::new(),
        };
        for row in rows {
            model.append(row);
        }
        model
    }

    fn append(&mut self, row: &[Value]) {
        let key = self.key(row);
        self.buckets.entry(key).or_default().push(row.to_vec());
    }

    fn unappend(&mut self, row: &[Value]) {
        let key = self.key(row);
        if let Some(postings) = self.buckets.get_mut(&key) {
            if let Some(i) = postings.iter().position(|p| p == row) {
                postings.remove(i);
            }
            if postings.is_empty() {
                self.buckets.remove(&key);
            }
        }
    }

    fn tuple_count(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    fn heap_bytes(&self) -> usize {
        let key_width = TUPLE_HEADER_BYTES + self.cols.len() * VALUE_BYTES;
        self.buckets.len() * key_width + self.tuple_count() * tuple_bytes(self.arity)
    }
}

/// Probes `keys` (and one key no row has) and compares every answer,
/// order included, and the size gauges with the model.
fn assert_matches(index: &Index, model: &Buckets, keys: &[Row], context: &str) {
    for key in keys {
        let got: Vec<Row> = index.probe(key).map(<[Value]>::to_vec).collect();
        let want = model.buckets.get(key).cloned().unwrap_or_default();
        assert_eq!(got, want, "{context}: probe {key:?}");
        assert_eq!(
            index.probe(key).len(),
            want.len(),
            "{context}: probe length"
        );
    }
    let absent: Row = model.cols.iter().map(|_| Value::Int(-1)).collect();
    assert_eq!(index.probe(&absent).count(), 0, "{context}: absent key");
    assert_eq!(index.tuple_count(), model.tuple_count(), "{context}");
    assert_eq!(index.distinct_keys(), model.buckets.len(), "{context}");
    assert_eq!(index.heap_bytes(), model.heap_bytes(), "{context}");
    assert_eq!(
        index.partition_lens().iter().sum::<usize>(),
        model.tuple_count(),
        "{context}: partition sizes"
    );
}

fn all_keys(model: &Buckets) -> Vec<Row> {
    model.buckets.keys().cloned().collect()
}

/// Rows `(key, serial)` over `keys` keys, each with a fresh serial, so
/// all distinct.
struct Rows {
    keys: i64,
    /// Every row made so far.
    made: Vec<Row>,
}

impl Rows {
    fn fresh(&mut self, rng: &mut Rng) -> Row {
        let row = vec![
            Value::Int(rng.gen_range_i64(0, self.keys)),
            Value::Int(self.made.len() as i64),
        ];
        self.made.push(row.clone());
        row
    }

    /// A relation of `n` fresh rows.
    fn relation(&mut self, rng: &mut Rng, n: usize) -> Relation {
        let mut rel = Relation::new(2);
        for _ in 0..n {
            rel.insert_row(&self.fresh(rng));
        }
        rel.commit();
        rel
    }
}

/// One random batch of changes: fresh inserts, retractions of live rows
/// and revivals of retracted ones. Returns the rows it touched.
fn random_batch(
    rng: &mut Rng,
    rel: &mut Relation,
    retracted: &mut Vec<Row>,
    rows: &mut Rows,
) -> Vec<Row> {
    let mut touched = Vec::new();
    for _ in 0..rng.gen_index(40) {
        match rng.gen_index(3) {
            0 => {
                let row = rows.fresh(rng);
                assert!(rel.insert_row(&row));
                touched.push(row);
            }
            1 => {
                let row = rows.made[rng.gen_index(rows.made.len())].clone();
                if rel.retract(&row) {
                    touched.push(row.clone());
                    retracted.push(row);
                }
            }
            _ if !retracted.is_empty() => {
                let row = retracted.swap_remove(rng.gen_index(retracted.len()));
                if rel.insert_row(&row) {
                    touched.push(row);
                }
            }
            _ => {}
        }
    }
    // An uncommitted batch leaves the next mark mid-tail, so committing
    // the batch after it forces a rebuild: keep those rare.
    if rng.gen_bool(0.9) {
        rel.commit();
    }
    touched
}

#[test]
fn partitioned_indexes_match_the_reference_buckets() {
    let mut rng = Rng::seeded(0x1D5);
    // (rows, key domain, key columns, partitions when built): 60,000 rows
    // build one partition and split in two once the first batches push
    // the index past 65,536 rows.
    let cases: [(usize, i64, &[usize], usize); 5] = [
        (600, 150, &[0], 1),
        (600, 40, &[0, 1], 1),
        (60_000, 20_000, &[0], 1),
        (70_000, 25_000, &[0], 2),
        (140_000, 50_000, &[0], 4),
    ];
    for (n, keys, cols, partitions) in cases {
        let mut rows = Rows {
            keys,
            made: Vec::new(),
        };
        let mut rel = rows.relation(&mut rng, n);
        let mut index = Index::build(&rel, cols);
        let mut model = Buckets::build(cols, 2, rel.iter_stored());
        let context = format!("{n} rows on {cols:?}");
        assert_eq!(index.partitions(), partitions, "{context}");
        assert_matches(&index, &model, &all_keys(&model), &context);

        let mut retracted = Vec::new();
        let mut grown = rel.len();
        for step in 0..30 {
            let mark = rel.generation();
            // Push the 60,000-row case past the split threshold.
            if n == 60_000 && step < 2 {
                for _ in 0..3_000 {
                    rel.insert_row(&rows.fresh(&mut rng));
                }
            }
            let touched = random_batch(&mut rng, &mut rel, &mut retracted, &mut rows);
            let context = format!("{n} rows on {cols:?}, step {step}");

            // The batch alone, as a delta index.
            let delta = Index::build_delta(&rel, cols, mark);
            let delta_model = Buckets::build(cols, 2, rel.iter_since(mark));
            assert_matches(&delta, &delta_model, &all_keys(&delta_model), &context);

            match index.absorb_from(&rel, mark) {
                Some(appended) => {
                    assert_eq!(appended, rel.iter_since(mark).count(), "{context}");
                    for row in rel.retracted_since(mark) {
                        model.unappend(row);
                    }
                    for row in rel.iter_since(mark) {
                        model.append(row);
                    }
                }
                None => {
                    assert!(
                        n != 60_000 || step > 1,
                        "the split must come from an absorb"
                    );
                    // A compaction or a mark left mid-tail by the batch
                    // before: rebuild.
                    index = Index::build(&rel, cols);
                    model = Buckets::build(cols, 2, rel.iter_stored());
                }
            }
            let mut probed: Vec<Row> = touched.iter().map(|row| model.key(row)).collect();
            probed.extend((0..200).map(|_| model.key(&rows.made[rng.gen_index(rows.made.len())])));
            assert_matches(&index, &model, &probed, &context);
            grown = grown.max(rel.len());
        }
        if n == 60_000 {
            assert!(grown >= 1 << 16, "the index was meant to split");
            assert_eq!(index.partitions(), 2, "absorbing past 65,536 rows splits");
        }
        assert_matches(&index, &model, &all_keys(&model), &context);
    }
}

#[test]
fn a_one_row_absorb_touches_only_its_partition() {
    let mut rng = Rng::seeded(0x1D6);
    let keys = 50_000;
    let mut rows = Rows {
        keys,
        made: Vec::new(),
    };
    let mut rel = rows.relation(&mut rng, 140_000);
    let mut index = Index::build(&rel, &[0]);
    assert_eq!(index.partitions(), 4);
    for step in 0..50 {
        let before = index.partition_lens();
        let mark = rel.generation();
        let inserting = step % 2 == 0;
        if inserting {
            assert!(rel.insert_row(&rows.fresh(&mut rng)));
        } else {
            let row = &rows.made[rng.gen_index(rows.made.len())];
            if !rel.retract(row) {
                continue;
            }
        }
        let appended = index
            .absorb_from(&rel, mark)
            .expect("no compaction this early");
        assert_eq!(appended, usize::from(inserting));
        let after = index.partition_lens();
        let changed: Vec<usize> = (0..after.len())
            .filter(|&p| before[p] != after[p])
            .collect();
        assert_eq!(changed.len(), 1, "step {step}: {before:?} -> {after:?}");
        let p = changed[0];
        if inserting {
            assert_eq!(after[p], before[p] + 1);
        } else {
            assert_eq!(after[p] + 1, before[p]);
        }
    }
    // Probes still agree with a fresh one-pass build.
    let fresh = Index::build(&rel, &[0]);
    for k in 0..keys {
        let key = [Value::Int(k)];
        assert!(index.probe(&key).eq(fresh.probe(&key)), "key {k}");
    }
}
