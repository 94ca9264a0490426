//! Property suite for the columnar storage layout (`common::columnar`
//! behind `common::relation`).
//!
//! A relation stores each fact once, as a packed row: frozen segments
//! plus a packed tail, with a membership table of row ids and a liveness
//! bitmap beside them. These tests pin that discipline against a plain
//! `Vec<Tuple>` reference model (append to a tail; `commit` freezes the
//! tail as it is; retraction marks a row dead; re-insertion appends a
//! fresh copy; dead rows compact once they fill half the storage):
//!
//! * a relation stays content-equal, and `iter_stored` stays
//!   order-equal, through seeded random insert/commit/clone schedules
//!   at arities 0–5 with heavy duplication;
//! * `HeapSize` stays deterministic in the contents (physical segment
//!   layout must not leak into the logical byte gauges) and additive
//!   across the space tree;
//! * `iter_since` deltas are exact for cursors captured at freeze
//!   boundaries — no row missing, none repeated, order preserved —
//!   and conservatively a superset for cursors orphaned mid-tail by a
//!   later commit;
//! * a retraction followed by a re-insertion keeps the epoch, and
//!   cursors captured before either stay exact;
//! * with retractions interleaved, morsel ranges over physical storage
//!   rows (`iter_stored_range`, `iter_since_range`) concatenate, over
//!   any partition of the driver length, to exactly `iter_stored` and
//!   `iter_since`: tombstoned rows count toward the offsets and are
//!   skipped inside each range.

use unchained_common::{
    tuple_bytes, ColumnSegment, HeapSize, Instance, Interner, Relation, Rng, SpaceReport, Tuple,
    Value,
};

/// A random tuple of the given arity over a small value domain, so
/// duplicate inserts are frequent.
fn random_tuple(rng: &mut Rng, arity: usize, domain: i64) -> Tuple {
    (0..arity)
        .map(|_| Value::Int(rng.gen_range_i64(0, domain)))
        .collect::<Vec<Value>>()
        .into()
}

/// The reference model: the storage discipline as plain `Vec`s of
/// physical rows, each with its liveness flag.
#[derive(Clone, Default)]
struct RefModel {
    /// Frozen prefix: concatenation of the committed tails, unsorted.
    frozen: Vec<(Tuple, bool)>,
    /// Uncommitted tail, in insertion order.
    tail: Vec<(Tuple, bool)>,
    /// Bumped when compaction rewrites storage, which invalidates every
    /// earlier cursor.
    epoch: usize,
}

/// Dead rows the relation lets accumulate before it compacts (at half
/// of the storage).
const COMPACT_MIN_DEAD: usize = 64;

impl RefModel {
    fn contains(&self, t: &Tuple) -> bool {
        self.frozen
            .iter()
            .chain(&self.tail)
            .any(|(row, live)| *live && row == t)
    }

    /// Inserting appends, even when a dead copy is still stored.
    fn insert(&mut self, t: Tuple) -> bool {
        if self.contains(&t) {
            return false;
        }
        self.tail.push((t, true));
        true
    }

    /// Marks the live copy dead; compacts once dead rows are at least
    /// `COMPACT_MIN_DEAD` and half of the storage.
    fn retract(&mut self, t: &Tuple) -> bool {
        let Some(row) = self
            .frozen
            .iter_mut()
            .chain(&mut self.tail)
            .find(|(row, live)| *live && row == t)
        else {
            return false;
        };
        row.1 = false;
        let dead = self.physical().len() - self.len();
        if dead >= COMPACT_MIN_DEAD && dead * 2 >= self.physical().len() {
            self.tail = self.stored().into_iter().map(|t| (t, true)).collect();
            self.frozen.clear();
            self.epoch += 1;
        }
        true
    }

    fn commit(&mut self) {
        self.frozen.append(&mut self.tail);
    }

    /// Every physical row, dead ones included: frozen, then the tail.
    fn physical(&self) -> Vec<Tuple> {
        self.frozen
            .iter()
            .chain(&self.tail)
            .map(|(t, _)| t.clone())
            .collect()
    }

    /// The live rows among physical rows `from..`, in storage order.
    fn live_from(&self, from: usize) -> Vec<Tuple> {
        self.frozen
            .iter()
            .chain(&self.tail)
            .skip(from)
            .filter(|(_, live)| *live)
            .map(|(t, _)| t.clone())
            .collect()
    }

    /// Expected `iter_stored` order: live rows of frozen segments, then
    /// of the tail.
    fn stored(&self) -> Vec<Tuple> {
        self.live_from(0)
    }

    fn len(&self) -> usize {
        self.stored().len()
    }
}

/// Drives `rel` and the reference model through the same insert stream,
/// committing at the given cadence.
fn grow(
    rng: &mut Rng,
    rel: &mut Relation,
    model: &mut RefModel,
    arity: usize,
    steps: usize,
    commit_every: usize,
) {
    for step in 0..steps {
        let t = random_tuple(rng, arity, 6);
        let fresh = rel.insert(t.clone());
        assert_eq!(
            fresh,
            model.insert(t),
            "insert dedup disagrees with the reference model at step {step}"
        );
        if commit_every > 0 && step % commit_every == commit_every - 1 {
            rel.commit();
            model.commit();
        }
    }
}

/// Content equality (as sets, via `iter`) plus exact storage-order
/// equality (via `iter_stored`, rows borrowed from packed segments).
fn assert_matches_model(rel: &Relation, model: &RefModel, context: &str) {
    assert_eq!(rel.len(), model.len(), "{context}: length");
    let expected = model.stored();
    let packed: Vec<Tuple> = rel.iter_stored().map(Tuple::new).collect();
    assert_eq!(packed, expected, "{context}: iter_stored() order/content");
    let mut boxed: Vec<Tuple> = rel.iter().map(|t| t.to_tuple()).collect();
    let mut sorted = expected.clone();
    boxed.sort_unstable();
    sorted.sort_unstable();
    assert_eq!(boxed, sorted, "{context}: iter() content");
    for t in &expected {
        assert!(rel.contains(t), "{context}: membership lost");
    }
}

#[test]
fn random_relations_match_the_reference_at_every_arity() {
    let mut rng = Rng::seeded(0xC01);
    for arity in 0..=5 {
        for commit_every in [0, 1, 7] {
            let mut rel = Relation::new(arity);
            let mut model = RefModel::default();
            grow(&mut rng, &mut rel, &mut model, arity, 300, commit_every);
            let context = format!("arity {arity}, commit every {commit_every}");
            assert_matches_model(&rel, &model, &context);
            // One more commit (freezing the live tail) keeps them in
            // lockstep.
            rel.commit();
            model.commit();
            assert_matches_model(&rel, &model, &format!("{context}, after final commit"));
        }
    }
}

#[test]
fn cross_epoch_clones_snapshot_and_diverge_independently() {
    let mut rng = Rng::seeded(0xC02);
    for arity in 1..=4 {
        let mut rel = Relation::new(arity);
        let mut model = RefModel::default();
        grow(&mut rng, &mut rel, &mut model, arity, 120, 11);

        // Clone mid-life, with a live uncommitted tail.
        let snapshot = rel.clone();
        let snapshot_model = model.clone();

        // The original keeps growing across more epochs…
        grow(&mut rng, &mut rel, &mut model, arity, 120, 13);
        assert_matches_model(&rel, &model, &format!("arity {arity}: original"));
        // …while the clone still replays the exact capture state.
        assert_matches_model(
            &snapshot,
            &snapshot_model,
            &format!("arity {arity}: snapshot"),
        );

        // And a fork of the clone diverges without disturbing it.
        let mut fork = snapshot.clone();
        let mut fork_model = snapshot_model.clone();
        grow(&mut rng, &mut fork, &mut fork_model, arity, 60, 5);
        assert_matches_model(&fork, &fork_model, &format!("arity {arity}: fork"));
        assert_matches_model(
            &snapshot,
            &snapshot_model,
            &format!("arity {arity}: snapshot after fork diverged"),
        );
    }
}

#[test]
fn iter_since_is_exact_at_freeze_boundaries_and_conservative_mid_tail() {
    let mut rng = Rng::seeded(0xC03);
    for arity in 0..=3 {
        let mut rel = Relation::new(arity);
        let mut model = RefModel::default();
        // Boundary cursors: captured right after a commit (tail empty),
        // paired with the frozen length at capture time. These stay
        // exact forever: later commits only append segments.
        let mut boundary = vec![(rel.generation(), 0usize)];
        for step in 0..400 {
            let t = random_tuple(&mut rng, arity, 5);
            let fresh = rel.insert(t.clone());
            assert_eq!(fresh, model.insert(t));
            if step % 29 == 7 {
                rel.commit();
                model.commit();
                boundary.push((rel.generation(), model.frozen.len()));
            }
        }
        let stored = model.stored();
        for (i, (gen, seen)) in boundary.iter().enumerate() {
            let delta: Vec<Tuple> = rel.iter_since(*gen).map(Tuple::new).collect();
            assert_eq!(
                delta,
                &stored[*seen..],
                "arity {arity}, boundary cursor {i}: delta must be the exact stored suffix"
            );
            assert_eq!(rel.delta_len(*gen), stored.len() - seen);
        }

        // A mid-tail cursor is exact while the tail lives…
        let mid_gen = rel.generation();
        let mut late = Vec::new();
        for _ in 0..30 {
            let t = random_tuple(&mut rng, arity, 50); // wide domain: mostly fresh
            if rel.insert(t.clone()) {
                model.insert(t.clone());
                late.push(t);
            }
        }
        let exact: Vec<Tuple> = rel.iter_since(mid_gen).map(Tuple::new).collect();
        assert_eq!(exact, late, "arity {arity}: mid-tail cursor before commit");
        // …and degrades to a conservative superset once a commit folds
        // that tail into a segment (semi-naive stays correct
        // under supersets; exactness is only promised at boundaries).
        rel.commit();
        model.commit();
        let superset: Vec<Tuple> = rel.iter_since(mid_gen).map(Tuple::new).collect();
        for t in &late {
            assert!(
                superset.contains(t),
                "arity {arity}: orphaned cursor dropped a delta row"
            );
        }
        assert!(superset.len() <= rel.len());
    }
}

#[test]
fn retract_then_reinsert_keeps_the_epoch_and_earlier_cursors_exact() {
    let mut rng = Rng::seeded(0xC07);
    for arity in 1..=3 {
        let mut rel = Relation::new(arity);
        let mut model = RefModel::default();
        grow(&mut rng, &mut rel, &mut model, arity, 40, 9);
        rel.commit();
        model.commit();
        let mark = rel.generation();
        let seen = model.physical().len();
        let victims: Vec<Tuple> = model.stored().into_iter().take(5).collect();
        for t in &victims {
            assert!(rel.retract(t) && model.retract(t));
            assert!(rel.insert(t.clone()) && model.insert(t.clone()));
        }
        let context = format!("arity {arity}");
        assert_eq!(rel.generation().epoch, mark.epoch, "{context}: epoch kept");
        assert_matches_model(&rel, &model, &context);
        // The mark still names a storage prefix: its delta is exactly
        // the revived copies, and its tombstones exactly the old ones.
        let delta: Vec<Tuple> = rel.iter_since(mark).map(Tuple::new).collect();
        assert_eq!(delta, model.live_from(seen), "{context}: delta");
        assert_eq!(delta, victims, "{context}: revived copies");
        let dead: Vec<Tuple> = rel.retracted_since(mark).map(Tuple::new).collect();
        assert_eq!(dead, victims, "{context}: tombstones");
        assert_eq!(rel.delta_len(mark), victims.len());
    }
}

/// Cuts `0..n` into consecutive random ranges, empty ones included.
fn random_partition(rng: &mut Rng, n: usize) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut lo = 0;
    loop {
        let hi = (lo + rng.gen_index(5)).min(n);
        parts.push((lo, hi));
        if hi == n {
            return parts;
        }
        lo = hi;
    }
}

#[test]
fn morsel_ranges_partition_scans_of_tombstoned_relations() {
    let mut rng = Rng::seeded(0xC06);
    for arity in 1..=3 {
        let mut rel = Relation::new(arity);
        let mut model = RefModel::default();
        // Boundary cursors with the model's epoch and physical length
        // at capture time.
        let mut cursors = vec![(rel.generation(), model.epoch, 0usize)];
        for step in 0..400 {
            let t = random_tuple(&mut rng, arity, 5);
            match rng.gen_index(10) {
                0..=5 => assert_eq!(rel.insert(t.clone()), model.insert(t), "step {step}"),
                6..=8 => assert_eq!(rel.retract(&t), model.retract(&t), "step {step}"),
                _ => {
                    rel.commit();
                    model.commit();
                    cursors.push((rel.generation(), model.epoch, model.frozen.len()));
                }
            }
            if step % 50 != 49 {
                continue;
            }
            let context = format!("arity {arity}, step {step}");
            assert_matches_model(&rel, &model, &context);
            assert_eq!(rel.stored_len(), model.physical().len(), "{context}");
            let stored: Vec<&[Value]> = rel.iter_stored().collect();
            let mut merged: Vec<&[Value]> = Vec::new();
            for (lo, hi) in random_partition(&mut rng, rel.stored_len()) {
                merged.extend(rel.iter_stored_range(lo, hi));
            }
            assert_eq!(merged, stored, "{context}: stored morsels");
            for (i, &(gen, epoch, seen)) in cursors.iter().enumerate() {
                let delta: Vec<&[Value]> = rel.iter_since(gen).collect();
                let mut merged: Vec<&[Value]> = Vec::new();
                for (lo, hi) in random_partition(&mut rng, rel.delta_len(gen)) {
                    merged.extend(rel.iter_since_range(gen, lo, hi));
                }
                assert_eq!(merged, delta, "{context}, cursor {i}: delta morsels");
                if epoch == model.epoch {
                    // Still a storage prefix: the delta is exact.
                    let physical = model.physical();
                    assert_eq!(rel.delta_len(gen), physical.len() - seen, "{context}");
                    let delta: Vec<Tuple> = delta.into_iter().map(Tuple::new).collect();
                    assert_eq!(
                        delta,
                        model.live_from(seen),
                        "{context}, cursor {i}: exact delta"
                    );
                }
            }
        }
    }
}

#[test]
fn heap_bytes_are_deterministic_in_contents_and_additive() {
    // Same content, three different construction histories: the
    // logical byte gauge must agree (counts × fixed widths — physical
    // segment layout must not leak).
    let facts: Vec<Tuple> = (0..60)
        .map(|k| Tuple::from([Value::Int(k % 13), Value::Int((k * 5 + 2) % 13)]))
        .collect();
    let mut one_segment = Relation::new(2);
    let mut many_segments = Relation::new(2);
    let mut unfrozen = Relation::new(2);
    for (i, t) in facts.iter().enumerate() {
        one_segment.insert(t.clone());
        many_segments.insert(t.clone());
        unfrozen.insert(t.clone());
        if i % 3 == 0 {
            many_segments.commit();
        }
    }
    one_segment.commit();
    assert_eq!(one_segment.len(), many_segments.len());
    assert_eq!(one_segment.heap_bytes(), many_segments.heap_bytes());
    assert_eq!(one_segment.heap_bytes(), unfrozen.heap_bytes());
    // The model: every stored copy costs tuple_bytes(arity) — one in
    // the membership table, one in a segment or the tail.
    assert_eq!(
        one_segment.heap_bytes(),
        2 * one_segment.len() * tuple_bytes(2)
    );

    // Additivity holds over the whole space tree of a random instance.
    let mut rng = Rng::seeded(0xC04);
    let mut interner = Interner::new();
    let mut instance = Instance::new();
    for (name, arity) in [("A", 1usize), ("B", 2), ("C", 3)] {
        let sym = interner.intern(name);
        instance.ensure(sym, arity);
        for _ in 0..rng.gen_index(200) {
            instance.insert_fact(sym, random_tuple(&mut rng, arity, 7));
        }
    }
    let report = SpaceReport::for_instance(&instance, &interner);
    report
        .check_additive()
        .expect("space tree must be additive");
    let rel_total: usize = instance.iter().map(|(_, r)| r.heap_bytes()).sum();
    assert_eq!(report.relation_bytes(), rel_total as u64);
}

#[test]
fn column_segments_replay_tuples_verbatim() {
    // The packed layer itself, one level below Relation: packing any
    // tuple sequence (duplicates included — segments do not dedup) and
    // reading it back row by row is the identity.
    let mut rng = Rng::seeded(0xC05);
    for arity in 0..=5 {
        let tuples: Vec<Tuple> = (0..50).map(|_| random_tuple(&mut rng, arity, 4)).collect();
        let mut seg = ColumnSegment::new(arity);
        for t in &tuples {
            seg.push(t);
        }
        assert_eq!(seg.len(), tuples.len());
        let back: Vec<Tuple> = seg.rows().map(Tuple::new).collect();
        assert_eq!(back, tuples, "arity {arity}");
        // Random subranges agree with the equivalent skip/take.
        for _ in 0..10 {
            let lo = rng.gen_index(tuples.len() + 1);
            let hi = lo + rng.gen_index(tuples.len() - lo + 1);
            let ranged: Vec<Tuple> = seg.rows_range(lo, hi).map(Tuple::new).collect();
            assert_eq!(&ranged[..], &tuples[lo..hi], "arity {arity}, {lo}..{hi}");
        }
    }
}
