//! Relations (finite sets of constant tuples) and hash indexes over them.
//!
//! A relation stores each fact once, as a row of packed, arity-strided
//! [`ColumnSegment`]s: a list of frozen **segments**, shared by clones
//! through `Arc`, followed by the **recent tail**, the segment inserts
//! append to. A row's position in that concatenation is its **row id**.
//! [`Relation::commit`] moves the tail's buffer into a new frozen
//! segment without sorting or copying it, so storage order is insertion
//! order and row ids never move within an epoch.
//!
//! Membership is an open-addressing table of row ids over that same
//! storage, shared by clones and copied on first write: cloning a
//! relation copies its tail and its segment list, nothing per fact.
//! Retraction leaves a *tombstone*: the row stays in place, marked dead in
//! a liveness bitmap, its id goes to the tombstone log, and every scan
//! skips it. Re-inserting a retracted tuple appends a fresh live copy.
//! Dead rows are compacted away, under a fresh epoch, once they make up
//! half of the storage.
//!
//! A [`Generation`] is a cheap copyable cursor `(epoch, segments, recent,
//! retracted)` into that layout. [`Relation::iter_since`] enumerates
//! exactly the rows added after a captured generation and
//! [`Relation::retracted_since`] the rows retracted after it: the
//! per-round deltas of semi-naive evaluation, and what [`Index::absorb_from`]
//! needs to maintain hash indexes incrementally instead of rebuilding
//! them. [`Index`] is open-addressing over packed rows too: probe and
//! absorb never allocate a per-tuple box. A large index splits into
//! radix partitions by key hash, which [`IndexBuild`] lets several
//! threads build or absorb at once.

use crate::columnar::ColumnSegment;
use crate::hash::{hash_one, FxHashSet, FxHasher};
use crate::space::{tuple_bytes, HeapSize, SpaceNode, TUPLE_HEADER_BYTES, VALUE_BYTES};
use crate::tuple::{Tuple, TupleRef};
use crate::value::Value;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// Global source of epoch identifiers. Epochs are unique across all
/// relations in the process, so a generation captured from one relation can
/// never be mistaken for a generation of an unrelated (or diverged) one.
static EPOCH_SOURCE: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    EPOCH_SOURCE.fetch_add(1, Ordering::Relaxed)
}

/// Dead rows are compacted once there are at least this many of them and
/// they make up half of the stored rows: amortized O(1) per retraction,
/// and small relations keep their cursors exact.
const COMPACT_MIN_DEAD: usize = 64;

/// A cursor into a relation's generational storage.
///
/// `epoch` identifies the append-only lineage the cursor belongs to: a
/// removal, clear, difference or compaction — and the first mutation
/// after the relation was cloned while the clone is still alive — moves
/// the relation to a fresh, globally unique epoch. Within one epoch,
/// storage only grows, so `(segments, recent)` prefix counts fully
/// describe a past state and the suffix beyond them is exactly "what was
/// added since".
///
/// The default generation (`epoch == 0`) matches no real relation; treating
/// it as a delta mark means "everything is new", which is the correct
/// behaviour for relations that did not exist when the mark was captured.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Generation {
    /// Lineage stamp; `0` only in [`Generation::default`].
    pub epoch: u64,
    /// Number of frozen segments at capture time.
    pub segments: usize,
    /// Length of the recent tail at capture time.
    pub recent: usize,
    /// Length of the tombstone log at capture time; see
    /// [`Relation::retract`].
    pub retracted: usize,
}

/// A linear-probe hash table of ids, compared through the data they
/// name: a relation's membership table (row ids, keyed by whole rows)
/// and an [`Index`]'s bucket table (bucket ids, keyed by key columns).
/// A slot holds `tag << 32 | (id + 1)`, or `0` when empty; `tag` is the
/// high half of the key's hash, and its top bits pick the home slot, so
/// the table grows and deletes without rehashing a key.
#[derive(Clone, Debug, Default)]
struct IdTable {
    slots: Vec<u64>,
    /// `32 - log2(slots.len())`: shifts a tag down to its home slot.
    shift: u32,
    len: usize,
}

impl IdTable {
    fn home(&self, tag: u32) -> usize {
        (tag >> self.shift) as usize
    }

    /// The slot of the id that `matches` accepts among those tagged
    /// `tag`, or else the empty slot where such an id goes.
    fn find(&self, tag: u32, matches: impl Fn(usize) -> bool) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if (s >> 32) as u32 == tag && matches(s as u32 as usize - 1) => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn id_at(&self, slot: usize) -> usize {
        self.slots[slot] as u32 as usize - 1
    }

    /// Stores `id` in `slot`, the empty slot [`IdTable::find`] returned
    /// for `tag`, growing the table to keep its load at most 3/4.
    fn put(&mut self, slot: usize, tag: u32, id: usize) {
        let id = u32::try_from(id + 1).expect("id table outgrew 2^32 - 1 ids");
        let entry = u64::from(tag) << 32 | u64::from(id);
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let grown = vec![0; (self.slots.len() * 2).max(16)];
            let old = std::mem::replace(&mut self.slots, grown);
            self.shift = 32 - self.slots.len().trailing_zeros();
            for e in old.into_iter().chain([entry]).filter(|&e| e != 0) {
                let mask = self.slots.len() - 1;
                let mut i = self.home((e >> 32) as u32);
                while self.slots[i] != 0 {
                    i = (i + 1) & mask;
                }
                self.slots[i] = e;
            }
        } else {
            self.slots[slot] = entry;
        }
        self.len += 1;
    }

    /// Empties `hole`, shifting the rest of its probe run back so that
    /// every remaining entry stays reachable from its home slot.
    fn take(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let entry = self.slots[i];
            if entry == 0 {
                break;
            }
            let home = self.home((entry >> 32) as u32);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = entry;
                hole = i;
            }
        }
        self.slots[hole] = 0;
        self.len -= 1;
    }
}

/// A finite relation instance: a set of same-arity tuples.
///
/// Besides the storage described in the module docs, the relation keeps a
/// `version` counter bumped on every content change, which also drops the
/// cached [`fingerprint`] and [`sorted`] views, and the epoch stamp
/// described on [`Generation`]. A clone copies the cached views, which
/// hold for its contents until its own first change.
///
/// [`fingerprint`]: Relation::fingerprint
/// [`sorted`]: Relation::sorted
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    /// Frozen packed segments in storage order; shared by clones.
    segments: Vec<Arc<ColumnSegment>>,
    /// Row id of each segment's first row.
    starts: Vec<usize>,
    /// Uncommitted rows in insertion order.
    recent: ColumnSegment,
    /// Membership: ids of the live rows; shared by clones, copied on
    /// first write.
    members: Arc<IdTable>,
    /// Liveness bitmap: bit `id` is set once row `id` died. Shared by
    /// clones, copied on first write; rows past its end are live.
    dead: Arc<Vec<u64>>,
    /// Number of dead rows in storage.
    dead_rows: usize,
    /// Tombstone log: ids of the rows retracted in this lineage, in
    /// retraction order. Append-only within an epoch, which is what lets
    /// [`Relation::retracted_since`] enumerate exactly the tombstones
    /// added after a mark.
    retracted: Vec<usize>,
    /// Lineage stamp; see [`Generation`].
    epoch: u64,
    /// Shared token used to detect live clones: a mutation observed while
    /// the token is shared forks the epoch so sibling clones (and any index
    /// postings absorbed from them) can never alias this relation's storage.
    epoch_token: Arc<()>,
    version: u64,
    /// [`Relation::fingerprint`] of the current contents, once computed.
    fingerprint_cache: OnceLock<u64>,
    /// [`Relation::sorted`] of the current contents, once computed.
    sorted_cache: OnceLock<Arc<Vec<Tuple>>>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            segments: Vec::new(),
            starts: Vec::new(),
            recent: ColumnSegment::new(arity),
            members: Arc::default(),
            dead: Arc::default(),
            dead_rows: 0,
            retracted: Vec::new(),
            epoch: next_epoch(),
            epoch_token: Arc::new(()),
            version: 0,
            fingerprint_cache: OnceLock::new(),
            sorted_cache: OnceLock::new(),
        }
    }

    /// Creates a relation from an iterator of tuples.
    ///
    /// # Panics
    /// Panics if a tuple's arity does not match.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut rel = Relation::new(arity);
        for t in tuples {
            rel.insert(t);
        }
        rel
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.members.len
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mutation counter. Two calls returning the same value guarantee
    /// the contents did not change in between. [`Relation::commit`] does not
    /// bump it: committing reshapes storage without changing contents.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The current generation cursor; capture before a batch of appends to
    /// later enumerate exactly that batch with [`Relation::iter_since`].
    pub fn generation(&self) -> Generation {
        Generation {
            epoch: self.epoch,
            segments: self.segments.len(),
            recent: self.recent.len(),
            retracted: self.retracted.len(),
        }
    }

    /// Number of tombstones in the retraction log.
    pub fn tombstone_count(&self) -> usize {
        self.retracted.len()
    }

    /// Number of frozen stable segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Length of the uncommitted recent tail.
    pub fn recent_len(&self) -> usize {
        self.recent.len()
    }

    /// Row counts of the frozen stable segments, in storage order.
    pub fn segment_lens(&self) -> Vec<usize> {
        self.segments.iter().map(|s| s.len()).collect()
    }

    /// The relation's [`SpaceNode`]: one child per frozen segment, one
    /// for the recent tail, one for the membership table (charged one
    /// stored tuple per live fact). `items` on the branch is the logical
    /// cardinality, not the child sum — see the invariant note on
    /// [`SpaceNode`].
    pub fn space_node(&self, name: &str) -> SpaceNode {
        let leaf = |label: String, rows: usize| {
            SpaceNode::leaf(label, rows as u64, (rows * tuple_bytes(self.arity)) as u64)
        };
        let mut children: Vec<SpaceNode> = self
            .segments
            .iter()
            .enumerate()
            .map(|(i, seg)| leaf(format!("segment {i}"), seg.len()))
            .collect();
        children.push(leaf("recent tail".into(), self.recent.len()));
        children.push(leaf("membership table".into(), self.len()));
        if !self.retracted.is_empty() {
            children.push(leaf("tombstone log".into(), self.retracted.len()));
        }
        SpaceNode::branch(
            format!("{name}/{}", self.arity),
            self.len() as u64,
            children,
        )
    }

    /// Moves this relation to a fresh epoch if a live clone might still
    /// share the current one. Must be called before any mutation so that
    /// generations captured from sibling clones stop matching this storage.
    /// The owner of a long-lived clone may call it up front, so that its
    /// first mutation does not fork the epoch under indexes already built.
    pub fn fork_epoch_if_shared(&mut self) {
        if Arc::strong_count(&self.epoch_token) > 1 {
            self.epoch_token = Arc::new(());
            self.epoch = next_epoch();
        }
    }

    /// Records a content change: bumps the version and drops the cached
    /// views.
    fn changed(&mut self) {
        self.version += 1;
        self.fingerprint_cache = OnceLock::new();
        self.sorted_cache = OnceLock::new();
    }

    /// Starts a fresh lineage: every earlier cursor stops matching.
    fn new_epoch(&mut self) {
        self.epoch_token = Arc::new(());
        self.epoch = next_epoch();
        self.retracted.clear();
    }

    /// Stored row `id`, live or dead.
    fn row(&self, id: usize) -> &[Value] {
        let frozen = self.frozen_len();
        if id >= frozen {
            return self.recent.row(id - frozen);
        }
        let s = self.starts.partition_point(|&start| start <= id) - 1;
        self.segments[s].row(id - self.starts[s])
    }

    /// Number of rows in the frozen segments: the tail's first row id.
    fn frozen_len(&self) -> usize {
        self.segments
            .last()
            .map_or(0, |seg| self.starts[self.starts.len() - 1] + seg.len())
    }

    fn is_live(&self, id: usize) -> bool {
        self.dead
            .get(id / 64)
            .is_none_or(|w| w >> (id % 64) & 1 == 0)
    }

    /// The membership slot of the live row equal to `row` (whose tag is
    /// `tag`), or the empty slot where it would go.
    fn find(&self, tag: u32, row: &[Value]) -> Result<usize, usize> {
        self.members.find(tag, |id| self.row(id) == row)
    }

    /// Membership test (no `Tuple` needed: any borrowed row will do).
    pub fn contains(&self, row: &[Value]) -> bool {
        !self.is_empty() && self.find(key_tag(row.iter()), row).is_ok()
    }

    /// Inserts a tuple, returning `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple's arity does not match the relation's.
    pub fn insert(&mut self, tuple: Tuple) -> bool {
        self.insert_row(&tuple)
    }

    /// Inserts a borrowed row, returning `true` if it was new: the row is
    /// appended to the packed tail, even when a retracted copy of it is
    /// still in storage.
    ///
    /// # Panics
    /// Panics if the row's arity does not match the relation's.
    pub fn insert_row(&mut self, row: &[Value]) -> bool {
        assert_eq!(
            row.len(),
            self.arity,
            "arity mismatch: relation has arity {}, tuple has arity {}",
            self.arity,
            row.len()
        );
        let tag = key_tag(row.iter());
        let Err(slot) = self.find(tag, row) else {
            return false;
        };
        self.fork_epoch_if_shared();
        let id = self.stored_len();
        self.recent.push(row);
        Arc::make_mut(&mut self.members).put(slot, tag, id);
        self.changed();
        true
    }

    /// Marks the live row equal to `row` dead and drops it from the
    /// membership table, returning its id.
    fn kill(&mut self, row: &[Value]) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let slot = self.find(key_tag(row.iter()), row).ok()?;
        self.fork_epoch_if_shared();
        let members = Arc::make_mut(&mut self.members);
        let id = members.id_at(slot);
        members.take(slot);
        let dead = Arc::make_mut(&mut self.dead);
        if dead.len() <= id / 64 {
            dead.resize(id / 64 + 1, 0);
        }
        dead[id / 64] |= 1 << (id % 64);
        self.dead_rows += 1;
        self.changed();
        Some(id)
    }

    /// Retracts a tuple as a *tombstone*, returning `true` if it was
    /// present.
    ///
    /// Unlike [`Relation::remove`], retraction preserves the append-only
    /// lineage: the row stays where it is, marked dead, and its id is
    /// appended to the tombstone log. Generation cursors captured earlier
    /// in this epoch stay exact — [`Relation::iter_since`] skips dead
    /// rows and [`Relation::retracted_since`] enumerates the tombstones
    /// added since the mark, which is what lets indexes un-append postings
    /// instead of rebuilding. Only the compaction that follows once dead
    /// rows make up half of the storage moves to a fresh epoch.
    ///
    /// The epoch still forks when a live clone shares the storage:
    /// sibling clones with diverging tombstone logs must never answer
    /// each other's cursors.
    pub fn retract(&mut self, tuple: &[Value]) -> bool {
        let Some(id) = self.kill(tuple) else {
            return false;
        };
        self.retracted.push(id);
        self.compact_if_sparse();
        true
    }

    /// Removes a tuple, returning `true` if it was present.
    ///
    /// A removal breaks the append-only lineage (a hole invalidates every
    /// previously captured prefix cursor), so the relation moves to a fresh
    /// epoch and generational consumers fall back to full rebuilds.
    pub fn remove(&mut self, tuple: &[Value]) -> bool {
        if self.kill(tuple).is_none() {
            return false;
        }
        self.new_epoch();
        self.compact_if_sparse();
        true
    }

    /// Compacts once dead rows are many enough (see [`COMPACT_MIN_DEAD`]).
    fn compact_if_sparse(&mut self) {
        if self.dead_rows >= COMPACT_MIN_DEAD && self.dead_rows * 2 >= self.stored_len() {
            self.compact();
        }
    }

    /// Rewrites storage as one tail holding the live rows in storage
    /// order, under a fresh epoch.
    fn compact(&mut self) {
        let mut recent = ColumnSegment::new(self.arity);
        let mut members = IdTable::default();
        for (id, row) in self.iter_stored().enumerate() {
            recent.push(row);
            let tag = key_tag(row.iter());
            let slot = members.find(tag, |_| false).unwrap_err();
            members.put(slot, tag, id);
        }
        self.segments.clear();
        self.starts.clear();
        self.recent = recent;
        self.members = Arc::new(members);
        self.dead = Arc::default();
        self.dead_rows = 0;
        self.new_epoch();
    }

    /// Removes all tuples.
    pub fn clear(&mut self) {
        if self.stored_len() == 0 {
            return;
        }
        *self = Relation {
            version: self.version + 1,
            ..Relation::new(self.arity)
        };
    }

    /// Freezes the recent tail into a new stable segment, returning `true`
    /// if anything was committed. The tail's buffer moves into the
    /// segment as it is: rows keep their insertion order and their ids.
    /// Contents are unchanged, so the version does not move — only the
    /// generation shape does.
    pub fn commit(&mut self) -> bool {
        if self.recent.is_empty() {
            return false;
        }
        self.starts.push(self.frozen_len());
        self.segments.push(Arc::new(self.recent.take()));
        true
    }

    /// Iterates over the tuples in storage order, as borrowed rows.
    pub fn iter(&self) -> impl Iterator<Item = TupleRef<'_>> + Clone {
        self.iter_stored().map(TupleRef::new)
    }

    /// Iterates in storage order: frozen segments first, then the recent
    /// tail, each in insertion order. Every live tuple appears exactly
    /// once as a borrowed row; tombstoned rows are skipped.
    pub fn iter_stored(&self) -> impl Iterator<Item = &[Value]> + Clone {
        self.iter_stored_range(0, usize::MAX)
    }

    /// Live rows among physical storage rows `lo..hi` (frozen segments,
    /// then the recent tail). Offsets count tombstoned rows too, so a
    /// range is located in O(#segments) whether or not the relation has
    /// tombstones, and the ranges of any partition of
    /// `0..stored_len()` concatenate to exactly [`Relation::iter_stored`]
    /// — the contract morsel-driven scans rely on.
    pub fn iter_stored_range(
        &self,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = &[Value]> + Clone {
        self.iter_since_range(Generation::default(), lo, hi)
    }

    /// The tuples added since `gen` was captured from this relation.
    ///
    /// If `gen` does not describe a prefix of this relation's storage (it
    /// came from a different epoch, from a diverged clone, or was captured
    /// mid-tail before a later [`commit`](Relation::commit) folded the tail
    /// into a segment), the iterator conservatively yields a superset of the
    /// true delta — up to the whole relation. Semi-naive evaluation stays
    /// correct under a superset delta (it can only re-derive known facts);
    /// exact-delta consumers should use [`Relation::delta_bounds`] instead.
    ///
    /// Tombstoned tuples are never yielded: a tuple appended after the
    /// mark and retracted again before the call is not part of the live
    /// delta.
    pub fn iter_since(&self, gen: Generation) -> impl Iterator<Item = &[Value]> {
        self.iter_since_range(gen, 0, usize::MAX)
    }

    /// Live rows among the delta's physical storage rows `lo..hi`, for
    /// `gen` as in [`Relation::iter_since`] (including its conservative
    /// whole-relation fallback). Offsets are relative to the delta and
    /// count tombstoned rows too; the ranges of any partition of
    /// `0..delta_len(gen)` concatenate to exactly `iter_since(gen)`.
    pub fn iter_since_range(
        &self,
        gen: Generation,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = &[Value]> + Clone {
        self.stored_since_range(gen, lo, hi).map(|(_, row)| row)
    }

    /// [`Relation::iter_since_range`] with each row's id.
    fn stored_since_range(
        &self,
        gen: Generation,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = (usize, &[Value])> + Clone {
        let (from, end) = (self.delta_start(gen), self.stored_len());
        let a = from.saturating_add(lo).min(end);
        let b = from.saturating_add(hi).clamp(a, end);
        let all_live = self.dead_rows == 0;
        let first = self
            .starts
            .partition_point(|&start| start <= a)
            .saturating_sub(1);
        let frozen = self.starts[first..].iter().zip(&self.segments[first..]);
        let tail = (self.frozen_len(), &self.recent);
        frozen
            .map(|(&start, seg)| (start, &**seg))
            .chain([tail])
            .flat_map(move |(start, seg)| {
                let lo = a.clamp(start, start + seg.len());
                let hi = b.clamp(lo, start + seg.len());
                (lo..hi).zip(seg.rows_range(lo - start, hi - start))
            })
            .filter(move |&(id, _)| all_live || self.is_live(id))
    }

    /// Stored rows `ids`, which must ascend, in one pass over the
    /// segments.
    fn rows_at(&self, ids: impl Iterator<Item = usize>) -> impl Iterator<Item = &[Value]> {
        let frozen = self.frozen_len();
        let mut s = 0;
        ids.map(move |id| {
            if id >= frozen {
                return self.recent.row(id - frozen);
            }
            while self.starts.get(s + 1).is_some_and(|&next| next <= id) {
                s += 1;
            }
            self.segments[s].row(id - self.starts[s])
        })
    }

    /// The tombstoned rows logged since `gen` was captured from this
    /// relation, in retraction order. Falls back to the whole log when
    /// `gen` belongs to another epoch — a conservative superset, since
    /// every logged row is genuinely dead.
    pub fn retracted_since(&self, gen: Generation) -> impl Iterator<Item = &[Value]> {
        self.retracted_ids_since(gen).iter().map(|&id| self.row(id))
    }

    /// The ids of the rows [`Relation::retracted_since`] yields.
    fn retracted_ids_since(&self, gen: Generation) -> &[usize] {
        let from = if gen.epoch == self.epoch {
            gen.retracted.min(self.retracted.len())
        } else {
            0
        };
        &self.retracted[from..]
    }

    /// Exact delta bounds `(first new segment, first new recent index)` for
    /// a generation, or `None` when `gen` is not a storage prefix and the
    /// delta cannot be reconstructed exactly.
    pub fn delta_bounds(&self, gen: Generation) -> Option<(usize, usize)> {
        if gen.epoch != self.epoch {
            return None;
        }
        if gen.segments > self.segments.len()
            || (gen.segments == self.segments.len() && gen.recent > self.recent.len())
            || gen.retracted > self.retracted.len()
        {
            return None; // cursor is ahead of us: a diverged sibling's mark
        }
        if gen.segments == self.segments.len() {
            Some((gen.segments, gen.recent))
        } else if gen.recent == 0 {
            Some((gen.segments, 0))
        } else {
            None // captured mid-tail; that tail has since been committed
        }
    }

    /// The row id where the delta for `gen` starts (`0` when the delta
    /// cannot be reconstructed exactly).
    fn delta_start(&self, gen: Generation) -> usize {
        match self.delta_bounds(gen) {
            Some((s, _)) if s < self.segments.len() => self.starts[s],
            Some((_, r)) => self.frozen_len() + r,
            None => 0,
        }
    }

    /// Number of physical storage rows in the delta for `gen`, dead rows
    /// included: the driver length that [`Relation::iter_since_range`]
    /// partitions. O(#segments), so parallel workers can split a delta
    /// scan into contiguous morsels without first materializing it.
    pub fn delta_len(&self, gen: Generation) -> usize {
        self.stored_len() - self.delta_start(gen)
    }

    /// Number of physical storage rows, dead rows included: the driver
    /// length that [`Relation::iter_stored_range`] partitions. Equals
    /// `len()` for tombstone-free relations.
    pub fn stored_len(&self) -> usize {
        self.frozen_len() + self.recent.len()
    }

    /// Returns the tuples in sorted order as shared owned storage.
    ///
    /// The view is cached until the next content change: repeated calls
    /// in between return the same `Arc` without re-sorting.
    pub fn sorted(&self) -> Arc<Vec<Tuple>> {
        let view = self.sorted_cache.get_or_init(|| {
            let mut acc: Vec<Tuple> = self.iter_stored().map(Tuple::new).collect();
            acc.sort_unstable();
            Arc::new(acc)
        });
        Arc::clone(view)
    }

    /// Inserts every tuple of `other`; returns the number actually added.
    ///
    /// # Panics
    /// Panics if arities differ.
    pub fn union_with(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity, "arity mismatch in union");
        other
            .iter_stored()
            .filter(|row| self.insert_row(row))
            .count()
    }

    /// Set-difference in place; returns the number removed.
    pub fn difference_with(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity, "arity mismatch in difference");
        let removed = other
            .iter_stored()
            .filter(|row| self.kill(row).is_some())
            .count();
        if removed > 0 {
            self.new_epoch();
            self.compact_if_sparse();
        }
        removed
    }

    /// True iff both relations hold exactly the same tuples.
    pub fn same_tuples(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.len() == other.len()
            && other.iter_stored().all(|row| self.contains(row))
    }

    /// Collects the values occurring in the relation into `out`.
    pub fn collect_adom(&self, out: &mut FxHashSet<Value>) {
        for row in self.iter_stored() {
            out.extend(row.iter().copied());
        }
    }

    /// An order-independent 64-bit fingerprint of the contents.
    ///
    /// Computed as the wrapping sum of per-tuple hashes, so it does not
    /// depend on storage order. Used (together with relation
    /// names) for instance-level state fingerprints in cycle detection.
    /// Cached until the next content change: convergence loops that
    /// fingerprint an unchanged relation every round pay for one full
    /// pass, not one per round.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint_cache.get_or_init(|| {
            self.iter_stored()
                .fold(0u64, |acc, row| acc.wrapping_add(hash_one(&row)))
        })
    }
}

impl HeapSize for Relation {
    /// One stored-tuple copy per stored row (dead rows included), per
    /// live fact in the membership table, and per tombstone. Computed
    /// from counts only (O(#segments)), so engines can sample it after
    /// every rule application. The *logical* byte model is
    /// layout-independent: a packed row costs the same
    /// `tuple_bytes(arity)` a boxed tuple did.
    fn heap_bytes(&self) -> usize {
        (self.stored_len() + self.len() + self.retracted.len()) * tuple_bytes(self.arity)
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.same_tuples(other)
    }
}

impl Eq for Relation {}

/// End of a posting chain.
const NONE32: u32 = u32::MAX;

/// Rows an index partition holds at least, on average, before the index
/// splits further.
const PART_MIN_ROWS: usize = 1 << 15;

/// An index has at most `2^PART_MAX_BITS` partitions.
const PART_MAX_BITS: u32 = 4;

/// Radix bits of an index over `rows` rows: as many as leave every
/// partition [`PART_MIN_ROWS`] rows on average, up to [`PART_MAX_BITS`].
/// Small indexes keep one partition.
fn partition_bits(rows: usize) -> u32 {
    let mut bits = 0;
    while bits < PART_MAX_BITS && rows >> (bits + 1) >= PART_MIN_ROWS {
        bits += 1;
    }
    bits
}

/// The partition of key tag `tag` among `2^bits`: its top `bits` bits.
fn part_of(tag: u32, bits: u32) -> usize {
    (u64::from(tag) >> (32 - bits)) as usize
}

/// The tag a partition's bucket table files key tag `tag` under: rotated
/// past the `bits` that chose the partition, so the bits below them pick
/// the home slot.
fn local_tag(tag: u32, bits: u32) -> u32 {
    tag.rotate_left(bits)
}

/// The table tag of a key given as a value sequence: the high half of
/// its hash. Rows and extracted probe keys hash the same values alike.
fn key_tag<'a>(values: impl Iterator<Item = &'a Value>) -> u32 {
    use std::hash::Hash;
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    (h.finish() >> 32) as u32
}

/// The tag of `row`'s key at columns `cols`.
fn row_tag(cols: &[usize], row: &[Value]) -> u32 {
    key_tag(cols.iter().map(|&c| &row[c]))
}

/// A hash index over a relation: tuples grouped by their values at a
/// fixed set of key columns.
///
/// Built once per (relation generation, key columns) by evaluators and used
/// to drive index-nested-loop joins: `probe` returns exactly the tuples
/// whose key columns equal the probe key, in append order. When the
/// underlying relation only grew since the index was built,
/// [`Index::absorb_from`] appends the new postings instead of rebuilding.
///
/// The buckets are split into `2^bits` **radix partitions** by the top
/// bits of their key tag; `bits` follows the number of rows indexed (see
/// [`partition_bits`]), so small indexes keep one partition. A bucket
/// lives in exactly one partition, so partitions are built and absorbed
/// independently — by several threads at once through [`IndexBuild`] —
/// and a one-row absorb touches only the row's own partition. Each
/// partition is open-addressing over packed columns:
///
/// * `buckets` is the same linear-probe id table a relation uses for
///   membership, mapping key tags to bucket ids;
/// * bucket keys live packed in one `Vec<Value>` (stride = #key
///   columns);
/// * postings live packed in one `Vec<Value>` (stride = arity), linked
///   per bucket through a `next` chain that preserves append order.
///
/// Probing and absorbing therefore never allocate a per-tuple box: a
/// probe hashes the borrowed key slice, picks the partition, walks the
/// chain, and yields borrowed `&[Value]` rows.
#[derive(Debug)]
pub struct Index {
    key_columns: Vec<usize>,
    arity: usize,
    /// log2 of the partition count.
    bits: u32,
    /// The partitions, by the top `bits` bits of their buckets' key tags.
    parts: Vec<Part>,
}

/// One radix partition of an [`Index`]: the buckets whose key tags share
/// its top bits. Its bucket table is keyed by [`local_tag`].
#[derive(Debug, Default)]
struct Part {
    /// Bucket ids by local key tag.
    buckets: IdTable,
    /// Packed bucket keys, stride = #key columns.
    keys: Vec<Value>,
    /// First posting per bucket (`NONE32` when the bucket is empty).
    heads: Vec<u32>,
    /// Last posting per bucket, for O(1) order-preserving append.
    tails: Vec<u32>,
    /// Live postings per bucket.
    lens: Vec<u32>,
    /// Packed posting rows, stride = arity. Unappended rows stay in the
    /// buffer (unlinked from their chain) — absorb workloads retract
    /// far fewer rows than they append.
    rows: Vec<Value>,
    /// Per-posting chain links.
    next: Vec<u32>,
    /// Live postings across all buckets.
    live: usize,
    /// Buckets with at least one live posting.
    live_buckets: usize,
}

impl Part {
    /// The key slice of bucket `b`, for keys of `width` columns.
    fn key_of(&self, b: usize, width: usize) -> &[Value] {
        &self.keys[b * width..(b + 1) * width]
    }

    /// The packed row of posting `r`, for rows of `arity` columns.
    fn row_of(&self, r: u32, arity: usize) -> &[Value] {
        let r = r as usize;
        &self.rows[r * arity..r * arity + arity]
    }

    /// The slot of the bucket whose key equals `row` at `cols` (local tag
    /// `tag`), or the empty slot where it would go.
    fn find_row_bucket(&self, cols: &[usize], row: &[Value], tag: u32) -> Result<usize, usize> {
        self.buckets.find(tag, |b| {
            cols.iter()
                .zip(self.key_of(b, cols.len()))
                .all(|(&c, v)| row[c] == *v)
        })
    }

    /// Room for `rows` more postings of `arity` columns.
    fn reserve(&mut self, rows: usize, arity: usize) {
        self.rows.reserve(rows * arity);
        self.next.reserve(rows);
    }

    /// Appends a posting for `row` (local tag `tag`), preserving append
    /// order per bucket.
    fn append(&mut self, cols: &[usize], row: &[Value], tag: u32) {
        let b = match self.find_row_bucket(cols, row, tag) {
            Ok(slot) => self.buckets.id_at(slot),
            Err(slot) => {
                let b = self.heads.len();
                self.buckets.put(slot, tag, b);
                self.keys.extend(cols.iter().map(|&c| row[c]));
                self.heads.push(NONE32);
                self.tails.push(NONE32);
                self.lens.push(0);
                b
            }
        };
        let r = self.next.len() as u32;
        self.rows.extend_from_slice(row);
        self.next.push(NONE32);
        if self.lens[b] == 0 {
            self.live_buckets += 1;
            self.heads[b] = r;
        } else {
            let t = self.tails[b] as usize;
            self.next[t] = r;
        }
        self.tails[b] = r;
        self.lens[b] += 1;
        self.live += 1;
    }

    /// Removes one posting for `row` (local tag `tag`), if present.
    /// Tolerant of absent postings: a tuple inserted *and* retracted since
    /// the index's generation was never appended in the first place.
    fn unappend(&mut self, cols: &[usize], row: &[Value], tag: u32) {
        let Ok(slot) = self.find_row_bucket(cols, row, tag) else {
            return;
        };
        let b = self.buckets.id_at(slot);
        let mut prev = NONE32;
        let mut cur = self.heads[b];
        while cur != NONE32 {
            if self.row_of(cur, row.len()) == row {
                let nxt = self.next[cur as usize];
                if prev == NONE32 {
                    self.heads[b] = nxt;
                } else {
                    self.next[prev as usize] = nxt;
                }
                if self.tails[b] == cur {
                    self.tails[b] = prev;
                }
                self.lens[b] -= 1;
                self.live -= 1;
                if self.lens[b] == 0 {
                    self.live_buckets -= 1;
                    self.heads[b] = NONE32;
                    self.tails[b] = NONE32;
                }
                return;
            }
            prev = cur;
            cur = self.next[cur as usize];
        }
    }
}

impl Index {
    /// Builds the index. `key_columns` must be valid positions.
    pub fn build(relation: &Relation, key_columns: &[usize]) -> Self {
        Index::build_delta(relation, key_columns, Generation::default())
    }

    /// Builds an index over only the tuples added since `gen` — the shape
    /// semi-naive evaluation uses for its per-round delta scans.
    pub fn build_delta(relation: &Relation, key_columns: &[usize], gen: Generation) -> Self {
        IndexBuild::build(relation, key_columns, gen).finish(relation)
    }

    /// Number of tuples indexed (live postings across all buckets).
    pub fn tuple_count(&self) -> usize {
        self.parts.iter().map(|p| p.live).sum()
    }

    /// Number of radix partitions (a power of two, 1 for small indexes).
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Live postings per partition, in partition order.
    pub fn partition_lens(&self) -> Vec<usize> {
        self.parts.iter().map(|p| p.live).collect()
    }

    /// Absorbs the changes `relation` saw since `gen` (the generation this
    /// index is current for): postings for retracted tuples are removed,
    /// postings for new live tuples appended. Returns the number of
    /// tuples appended, or `None` when the delta cannot be reconstructed
    /// exactly and the caller must rebuild.
    pub fn absorb_from(&mut self, relation: &Relation, gen: Generation) -> Option<usize> {
        let vacated = Index {
            key_columns: Vec::new(),
            arity: self.arity,
            bits: 0,
            parts: Vec::new(),
        };
        match IndexBuild::absorb(std::mem::replace(self, vacated), relation, gen) {
            Ok(build) => {
                *self = build.finish(relation);
                Some(build.appended())
            }
            Err(index) => {
                *self = index;
                None
            }
        }
    }

    /// The key columns this index was built on.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// The tuples whose key columns equal `key`, in append order, as
    /// borrowed packed rows. The iterator reports its exact length.
    pub fn probe(&self, key: &[Value]) -> Postings<'_> {
        debug_assert_eq!(key.len(), self.key_columns.len());
        let tag = key_tag(key.iter());
        let part = &self.parts[part_of(tag, self.bits)];
        let found = part.buckets.find(local_tag(tag, self.bits), |b| {
            part.key_of(b, key.len()) == key
        });
        let (cur, remaining) = match found {
            Ok(slot) => {
                let b = part.buckets.id_at(slot);
                (part.heads[b], part.lens[b] as usize)
            }
            Err(_) => (NONE32, 0),
        };
        Postings {
            part,
            arity: self.arity,
            cur,
            remaining,
        }
    }

    /// Number of distinct keys with at least one live posting.
    pub fn distinct_keys(&self) -> usize {
        self.parts.iter().map(|p| p.live_buckets).sum()
    }
}

/// One partition's slot in an [`IndexBuild`].
#[derive(Debug, Default)]
struct Slot {
    /// The partition: what it starts from until it is built (`None` for
    /// a fresh or split partition), then the result until
    /// [`IndexBuild::finish`] takes it.
    part: Option<Part>,
    /// The `(row id, key tag)` of each row to append, in storage order,
    /// dropped once the partition is built.
    adds: Vec<(u32, u32)>,
    /// Likewise for the rows to unappend, in retraction order.
    removes: Vec<(u32, u32)>,
    built: bool,
}

/// An [`Index`] being made current one radix partition at a time, so that
/// several threads can share the work. [`IndexBuild::build`] or
/// [`IndexBuild::absorb`] plans it; any number of threads then call
/// [`IndexBuild::help`], which builds every partition no other thread is
/// building, and one calls [`IndexBuild::finish`], which waits for the
/// partitions still being built, builds any left and assembles the
/// index. Each partition is built exactly once, whoever builds it.
///
/// Each partition takes only its own rows: the plan tags every row of the
/// delta with its partition in one pass, and a partition appends its
/// rows in storage order, so every bucket's postings come out in the
/// same order as from a one-partition index.
#[derive(Debug)]
pub struct IndexBuild {
    key_columns: Vec<usize>,
    arity: usize,
    bits: u32,
    /// The absorbed index's partitions, when it had fewer bits: each new
    /// partition starts from the buckets of its parent that it takes.
    /// Dropped by [`IndexBuild::finish`].
    base: RwLock<Vec<Part>>,
    base_bits: u32,
    slots: Vec<Mutex<Slot>>,
    appended: AtomicUsize,
}

impl IndexBuild {
    /// Plans an index over the rows of `relation` added since `gen` (all
    /// of them for the default generation).
    pub fn build(relation: &Relation, key_columns: &[usize], gen: Generation) -> Self {
        let bits = partition_bits(relation.delta_len(gen));
        IndexBuild::plan(relation, key_columns, bits, gen, false)
    }

    /// Plans absorbing into `index` the changes `relation` saw since
    /// `gen`, the generation `index` is current for; see
    /// [`Index::absorb_from`]. Gives `index` back when the delta cannot be
    /// reconstructed exactly and the caller must rebuild. The index splits
    /// into more partitions when it outgrows its own.
    pub fn absorb(index: Index, relation: &Relation, gen: Generation) -> Result<Self, Index> {
        if relation.delta_bounds(gen).is_none() {
            return Err(index);
        }
        let rows = index.tuple_count() + relation.delta_len(gen);
        let bits = index.bits.max(partition_bits(rows));
        let mut build = IndexBuild::plan(relation, &index.key_columns, bits, gen, true);
        build.base_bits = index.bits;
        if bits == index.bits {
            for (slot, part) in build.slots.iter_mut().zip(index.parts) {
                slot.get_mut().unwrap_or_else(PoisonError::into_inner).part = Some(part);
            }
        } else {
            build.base = RwLock::new(index.parts);
        }
        Ok(build)
    }

    /// Plans `2^bits` partitions over the changes `relation` saw since
    /// `gen`: one pass sorts the rows added (and, absorbing, the rows
    /// retracted) into per-partition lists, tagged once.
    fn plan(
        relation: &Relation,
        key_columns: &[usize],
        bits: u32,
        gen: Generation,
        absorbing: bool,
    ) -> Self {
        let mut slots: Vec<Slot> = (0..1usize << bits).map(|_| Slot::default()).collect();
        for (id, row) in relation.stored_since_range(gen, 0, usize::MAX) {
            let tag = row_tag(key_columns, row);
            slots[part_of(tag, bits)].adds.push((id as u32, tag));
        }
        if absorbing {
            for &id in relation.retracted_ids_since(gen) {
                let tag = row_tag(key_columns, relation.row(id));
                slots[part_of(tag, bits)].removes.push((id as u32, tag));
            }
        }
        IndexBuild {
            key_columns: key_columns.to_vec(),
            arity: relation.arity(),
            bits,
            base: RwLock::default(),
            base_bits: bits,
            slots: slots.into_iter().map(Mutex::new).collect(),
            appended: AtomicUsize::new(0),
        }
    }

    /// Tuples appended so far by the partitions built.
    pub fn appended(&self) -> usize {
        self.appended.load(Ordering::Relaxed)
    }

    /// Builds, over `relation` (the relation the build was planned on),
    /// every partition that is neither built nor being built by another
    /// thread. Never waits.
    pub fn help(&self, relation: &Relation) {
        for (p, slot) in self.slots.iter().enumerate() {
            // A poisoned slot is left to `finish`, which reports it.
            if let Ok(mut slot) = slot.try_lock() {
                self.run(relation, p, &mut slot);
            }
        }
    }

    /// The finished index: waits for the partitions other threads are
    /// building and builds the rest over `relation`.
    ///
    /// # Panics
    /// Panics if a partition's build panicked on another thread, or if
    /// called twice.
    pub fn finish(&self, relation: &Relation) -> Index {
        let parts = self
            .slots
            .iter()
            .enumerate()
            .map(|(p, slot)| {
                let mut slot = slot.lock().expect("an index partition build panicked");
                self.run(relation, p, &mut slot);
                slot.part.take().expect("index build finished twice")
            })
            .collect();
        *self.base.write().unwrap_or_else(PoisonError::into_inner) = Vec::new();
        Index {
            key_columns: self.key_columns.clone(),
            arity: self.arity,
            bits: self.bits,
            parts,
        }
    }

    /// Builds partition `p`, held in `slot`, unless it is built already.
    fn run(&self, relation: &Relation, p: usize, slot: &mut Slot) {
        if slot.built {
            return;
        }
        let mut part = slot.part.take().unwrap_or_else(|| self.split(p));
        let (cols, bits) = (&self.key_columns[..], self.bits);
        for (id, tag) in std::mem::take(&mut slot.removes) {
            part.unappend(cols, relation.row(id as usize), local_tag(tag, bits));
        }
        let adds = std::mem::take(&mut slot.adds);
        part.reserve(adds.len(), self.arity);
        let rows = relation.rows_at(adds.iter().map(|&(id, _)| id as usize));
        for (row, &(_, tag)) in rows.zip(&adds) {
            part.append(cols, row, local_tag(tag, bits));
        }
        self.appended.fetch_add(adds.len(), Ordering::Relaxed);
        slot.part = Some(part);
        slot.built = true;
    }

    /// A partition the absorbed index did not have: the buckets its
    /// parent partition hands down to it (none for a fresh build), each
    /// with its postings in order.
    fn split(&self, p: usize) -> Part {
        let mut part = Part::default();
        let base = self.base.read().unwrap_or_else(PoisonError::into_inner);
        let Some(parent) = base.get(p >> (self.bits - self.base_bits)) else {
            return part;
        };
        let (cols, width) = (&self.key_columns[..], self.key_columns.len());
        for b in 0..parent.heads.len() {
            if parent.lens[b] == 0 {
                continue;
            }
            let tag = key_tag(parent.key_of(b, width).iter());
            if part_of(tag, self.bits) != p {
                continue;
            }
            let mut r = parent.heads[b];
            while r != NONE32 {
                part.append(
                    cols,
                    parent.row_of(r, self.arity),
                    local_tag(tag, self.bits),
                );
                r = parent.next[r as usize];
            }
        }
        part
    }
}

/// Iterator over the postings of one [`Index`] bucket, yielding packed
/// rows in append order.
#[derive(Clone, Debug)]
pub struct Postings<'a> {
    part: &'a Part,
    arity: usize,
    cur: u32,
    remaining: usize,
}

impl<'a> Iterator for Postings<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        if self.cur == NONE32 {
            return None;
        }
        let r = self.cur;
        self.cur = self.part.next[r as usize];
        self.remaining -= 1;
        Some(self.part.row_of(r, self.arity))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Postings<'_> {}

impl HeapSize for Index {
    /// One key row per live bucket plus one stored-tuple copy per live
    /// posting — the same logical bucket model as before the columnar
    /// layout, so index byte gauges stay comparable (and do not depend
    /// on the partition count).
    fn heap_bytes(&self) -> usize {
        let key_width = TUPLE_HEADER_BYTES + self.key_columns.len() * VALUE_BYTES;
        self.distinct_keys() * key_width + self.tuple_count() * tuple_bytes(self.arity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Index {
        /// The partition holding `row`'s bucket and its local tag.
        fn part_mut(&mut self, row: &[Value]) -> (&mut Part, u32) {
            let tag = row_tag(&self.key_columns, row);
            (
                &mut self.parts[part_of(tag, self.bits)],
                local_tag(tag, self.bits),
            )
        }

        fn append_row(&mut self, row: &[Value]) {
            let cols = self.key_columns.clone();
            let (part, tag) = self.part_mut(row);
            part.append(&cols, row, tag);
        }

        fn unappend(&mut self, row: &[Value]) {
            let cols = self.key_columns.clone();
            let (part, tag) = self.part_mut(row);
            part.unappend(&cols, row, tag);
        }
    }

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::from([Value::Int(a), Value::Int(b)])
    }

    #[test]
    fn insert_dedups_and_bumps_version() {
        let mut r = Relation::new(2);
        let v0 = r.version();
        assert!(r.insert(t2(1, 2)));
        assert!(r.version() > v0);
        let v1 = r.version();
        assert!(!r.insert(t2(1, 2)));
        assert_eq!(r.version(), v1, "duplicate insert must not bump version");
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut r = Relation::new(2);
        r.insert(Tuple::from([Value::Int(1)]));
    }

    #[test]
    fn union_and_difference() {
        let mut a = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4)]);
        let b = Relation::from_tuples(2, vec![t2(3, 4), t2(5, 6)]);
        assert_eq!(a.union_with(&b), 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a.difference_with(&b), 2);
        assert_eq!(a.len(), 1);
        assert!(a.contains(&t2(1, 2)));
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let a = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4), t2(5, 6)]);
        let b = Relation::from_tuples(2, vec![t2(5, 6), t2(1, 2), t2(3, 4)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4)]);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_cache_invalidates_on_mutation() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2)]);
        let fp0 = r.fingerprint();
        assert_eq!(r.fingerprint(), fp0, "cached value must be stable");
        r.insert(t2(3, 4));
        let fp1 = r.fingerprint();
        assert_ne!(fp0, fp1);
        r.remove(&t2(3, 4));
        assert_eq!(r.fingerprint(), fp0);
    }

    #[test]
    fn index_probe() {
        let r = Relation::from_tuples(2, vec![t2(1, 10), t2(1, 20), t2(2, 30)]);
        let idx = Index::build(&r, &[0]);
        assert_eq!(idx.probe(&[Value::Int(1)]).len(), 2);
        assert_eq!(idx.probe(&[Value::Int(2)]).len(), 1);
        assert_eq!(idx.probe(&[Value::Int(9)]).count(), 0);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn index_probe_preserves_append_order() {
        let mut r = Relation::new(2);
        for k in [30, 10, 20] {
            r.insert(t2(1, k));
        }
        r.commit(); // the segment keeps insertion order: (1,30), (1,10), (1,20)
        r.insert(t2(1, 5)); // tail appends after the segment
        let idx = Index::build(&r, &[0]);
        let got: Vec<Tuple> = idx.probe(&[Value::Int(1)]).map(Tuple::new).collect();
        assert_eq!(got, vec![t2(1, 30), t2(1, 10), t2(1, 20), t2(1, 5)]);
    }

    #[test]
    fn index_on_no_columns_groups_everything() {
        let r = Relation::from_tuples(2, vec![t2(1, 10), t2(2, 20)]);
        let idx = Index::build(&r, &[]);
        assert_eq!(idx.probe(&[]).len(), 2);
    }

    #[test]
    fn index_handles_many_distinct_keys_through_growth() {
        let mut r = Relation::new(2);
        for k in 0..500 {
            r.insert(t2(k, k + 1));
            r.insert(t2(k, k + 2));
        }
        let idx = Index::build(&r, &[0]);
        assert_eq!(idx.distinct_keys(), 500);
        assert_eq!(idx.tuple_count(), 1000);
        for k in 0..500 {
            let got: Vec<Tuple> = idx.probe(&[Value::Int(k)]).map(Tuple::new).collect();
            assert_eq!(got, vec![t2(k, k + 1), t2(k, k + 2)], "key {k}");
        }
        assert_eq!(idx.probe(&[Value::Int(999)]).count(), 0);
    }

    #[test]
    fn sorted_is_deterministic() {
        let r = Relation::from_tuples(2, vec![t2(3, 4), t2(1, 2)]);
        let sorted = r.sorted();
        assert_eq!(*sorted, vec![t2(1, 2), t2(3, 4)]);
    }

    #[test]
    fn sorted_is_cached_until_mutation() {
        let mut r = Relation::from_tuples(2, vec![t2(3, 4), t2(1, 2)]);
        r.commit();
        let a = r.sorted();
        let b = r.sorted();
        assert!(
            Arc::ptr_eq(&a, &b),
            "unchanged relation must reuse the view"
        );
        assert_eq!(*a, vec![t2(1, 2), t2(3, 4)]);
        r.insert(t2(0, 0));
        let c = r.sorted();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(*c, vec![t2(0, 0), t2(1, 2), t2(3, 4)]);
    }

    #[test]
    fn clear_resets() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2)]);
        r.clear();
        assert!(r.is_empty());
        // Clearing an already-empty relation should not bump the version.
        let v = r.version();
        r.clear();
        assert_eq!(r.version(), v);
    }

    #[test]
    fn commit_freezes_tail_without_changing_contents() {
        let mut r = Relation::from_tuples(2, vec![t2(3, 4), t2(1, 2)]);
        let v = r.version();
        let fp = r.fingerprint();
        assert_eq!(r.segment_count(), 0);
        assert_eq!(r.recent_len(), 2);
        assert!(r.commit());
        assert!(!r.commit(), "empty tail commits nothing");
        assert_eq!(r.segment_count(), 1);
        assert_eq!(r.recent_len(), 0);
        assert_eq!(r.version(), v, "commit must not bump the version");
        assert_eq!(r.fingerprint(), fp);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t2(1, 2)));
    }

    #[test]
    fn iter_since_sees_exactly_the_new_tuples() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2)]);
        r.commit();
        let mark = r.generation();
        // Empty delta: nothing new since the mark.
        assert_eq!(r.iter_since(mark).count(), 0);
        // Tail appends are visible…
        r.insert(t2(3, 4));
        r.insert(t2(5, 6));
        let delta: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        assert_eq!(delta, vec![t2(3, 4), t2(5, 6)]);
        // …duplicate inserts are not (they add nothing).
        r.insert(t2(1, 2));
        assert_eq!(r.iter_since(mark).count(), 2);
        // …and so is a committed segment made from them.
        r.commit();
        let delta: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        assert_eq!(delta, vec![t2(3, 4), t2(5, 6)]);
        // A fresh mark after the commit sees nothing.
        assert_eq!(r.iter_since(r.generation()).count(), 0);
    }

    #[test]
    fn iter_since_falls_back_to_superset_on_epoch_change() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2)]);
        let mark = r.generation();
        r.insert(t2(3, 4));
        r.remove(&t2(3, 4)); // non-append mutation: epoch moves
        assert!(r.delta_bounds(mark).is_none());
        // The conservative fallback yields the whole relation.
        assert_eq!(r.iter_since(mark).count(), r.len());
    }

    #[test]
    fn mutation_after_clone_forks_the_epoch() {
        let mut a = Relation::from_tuples(2, vec![t2(1, 2)]);
        let mark = a.generation();
        let b = a.clone();
        assert_eq!(b.generation(), mark, "clones share the generation");
        a.insert(t2(3, 4));
        assert_ne!(
            a.generation().epoch,
            mark.epoch,
            "mutating a shared relation must fork its epoch"
        );
        // The untouched clone still answers exact deltas for the old mark.
        assert_eq!(b.delta_bounds(mark), Some((0, 1)));
        // The mutated one conservatively reports everything.
        assert_eq!(a.iter_since(mark).count(), a.len());
    }

    #[test]
    fn index_absorbs_tail_appends_and_committed_segments() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 10)]);
        r.commit();
        let mut idx = Index::build(&r, &[0]);
        let gen0 = r.generation();

        // Empty delta absorbs zero tuples.
        assert_eq!(idx.absorb_from(&r, gen0), Some(0));

        // Tail growth absorbs incrementally.
        r.insert(t2(1, 20));
        assert_eq!(idx.absorb_from(&r, gen0), Some(1));
        assert_eq!(idx.probe(&[Value::Int(1)]).len(), 2);

        // A boundary mark (taken right after a commit) still yields an
        // exact delta even when the new tuples are committed before the
        // absorb — the engines always mark on segment boundaries.
        r.commit();
        let gen1 = r.generation();
        r.insert(t2(2, 30));
        r.commit();
        assert_eq!(idx.absorb_from(&r, gen1), Some(1));
        assert_eq!(idx.probe(&[Value::Int(2)]).len(), 1);
        assert_eq!(idx.probe(&[Value::Int(1)]).len(), 2);

        // Removal breaks the lineage: absorb must refuse.
        r.remove(&t2(2, 30));
        assert_eq!(idx.absorb_from(&r, r.generation()), Some(0));
        let stale = gen1;
        assert_eq!(idx.absorb_from(&r, stale), None);
    }

    /// Compile-time guard: shared-read parallel evaluation requires the
    /// storage types to be `Send + Sync`; this fails to build if a cached
    /// view regresses to `Cell`/`RefCell`.
    #[test]
    fn storage_types_are_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<Relation>();
        assert_sync::<Index>();
        assert_sync::<Generation>();
    }

    /// Two clones can diverge and then reach the *same* version number
    /// with different contents. Each clone drops its copy of the cached
    /// views at its own first change, so neither may serve the other's
    /// (or its own stale pre-divergence) sorted view or fingerprint.
    #[test]
    fn diverged_clones_never_alias_cached_views() {
        let mut a = Relation::from_tuples(2, vec![t2(1, 2)]);
        a.commit();
        let _ = a.sorted(); // warm the memo before cloning
        let _ = a.fingerprint();
        let mut b = a.clone();
        // Both clones mutate once: same version counter, different facts.
        a.insert(t2(3, 4));
        b.insert(t2(5, 6));
        assert_eq!(a.version(), b.version());
        assert_eq!(*a.sorted(), vec![t2(1, 2), t2(3, 4)]);
        assert_eq!(*b.sorted(), vec![t2(1, 2), t2(5, 6)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Divergence through removal (epoch fork) re-sorts too.
        b.remove(&t2(5, 6));
        b.insert(t2(7, 8));
        assert_eq!(*b.sorted(), vec![t2(1, 2), t2(7, 8)]);
    }

    #[test]
    fn delta_len_matches_iter_since() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2)]);
        r.commit();
        let mark = r.generation();
        assert_eq!(r.delta_len(mark), 0);
        r.insert(t2(3, 4));
        r.insert(t2(5, 6));
        assert_eq!(r.delta_len(mark), r.iter_since(mark).count());
        r.commit();
        r.insert(t2(7, 8));
        assert_eq!(r.delta_len(mark), 3);
        // Stale mark: conservative fallback counts the whole storage,
        // whose live rows are the whole relation.
        r.remove(&t2(7, 8));
        assert_eq!(r.delta_len(mark), r.stored_len());
        assert_eq!(r.iter_since(mark).count(), r.len());
    }

    /// Contiguous ranges over the delta enumeration partition it exactly
    /// and in order, for any morsel count (including more morsels than
    /// tuples) — the contract parallel morsel scans rely on.
    #[test]
    fn iter_since_range_partitions_the_delta_exactly() {
        let mut r = Relation::from_tuples(2, vec![t2(0, 0)]);
        r.commit();
        let mark = r.generation();
        // A delta spanning a committed segment and a live tail.
        for k in 1..=7 {
            r.insert(t2(k % 3, k));
        }
        r.commit();
        for k in 8..=10 {
            r.insert(t2(k % 3, k));
        }
        let full: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        let total = r.delta_len(mark);
        assert_eq!(total, full.len());
        for parts in [1usize, 2, 3, 4, 16] {
            let mut merged: Vec<Tuple> = Vec::new();
            for p in 0..parts {
                let lo = p * total / parts;
                let hi = (p + 1) * total / parts;
                merged.extend(r.iter_since_range(mark, lo, hi).map(Tuple::new));
            }
            assert_eq!(merged, full, "parts={parts}");
        }
        // The tombstone fallback path partitions the filtered walk too.
        r.retract(&t2(1, 1));
        let full: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        let total = r.delta_len(mark);
        for parts in [1usize, 3] {
            let mut merged: Vec<Tuple> = Vec::new();
            for p in 0..parts {
                let lo = p * total / parts;
                let hi = (p + 1) * total / parts;
                merged.extend(r.iter_since_range(mark, lo, hi).map(Tuple::new));
            }
            assert_eq!(merged, full, "tombstoned parts={parts}");
        }
    }

    /// Same partition contract for full storage scans.
    #[test]
    fn iter_stored_range_partitions_storage_exactly() {
        let mut r = Relation::new(2);
        for k in 0..9 {
            r.insert(t2(k, k + 1));
            if k % 4 == 3 {
                r.commit();
            }
        }
        let full: Vec<Tuple> = r.iter_stored().map(Tuple::new).collect();
        let total = r.stored_len();
        assert_eq!(total, full.len());
        for parts in [1usize, 2, 5, 12] {
            let mut merged: Vec<Tuple> = Vec::new();
            for p in 0..parts {
                let lo = p * total / parts;
                let hi = (p + 1) * total / parts;
                merged.extend(r.iter_stored_range(lo, hi).map(Tuple::new));
            }
            assert_eq!(merged, full, "parts={parts}");
        }
    }

    #[test]
    fn retract_preserves_the_lineage_and_filters_iteration() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4)]);
        r.commit();
        let mark = r.generation();
        r.insert(t2(5, 6));
        assert!(r.retract(&t2(1, 2)));
        assert!(!r.retract(&t2(1, 2)), "already dead");
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&t2(1, 2)));
        assert_eq!(r.tombstone_count(), 1);
        // The mark is still an exact storage prefix…
        assert!(r.delta_bounds(mark).is_some());
        // …the live delta is just the new tuple…
        let delta: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        assert_eq!(delta, vec![t2(5, 6)]);
        assert_eq!(r.delta_len(mark), 1);
        // …and the tombstones since the mark are enumerable.
        let dead: Vec<Tuple> = r.retracted_since(mark).map(Tuple::new).collect();
        assert_eq!(dead, vec![t2(1, 2)]);
        // Dead tuples vanish from every view.
        assert_eq!(r.iter_stored().count(), 2);
        assert_eq!(*r.sorted(), vec![t2(3, 4), t2(5, 6)]);
    }

    #[test]
    fn index_absorbs_retractions_by_unappending() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 10), t2(1, 20), t2(2, 30)]);
        r.commit();
        let mut idx = Index::build(&r, &[0]);
        let mark = r.generation();
        r.retract(&t2(1, 10));
        r.insert(t2(3, 40));
        assert_eq!(idx.absorb_from(&r, mark), Some(1));
        let got: Vec<Tuple> = idx.probe(&[Value::Int(1)]).map(Tuple::new).collect();
        assert_eq!(got, vec![t2(1, 20)]);
        let got: Vec<Tuple> = idx.probe(&[Value::Int(3)]).map(Tuple::new).collect();
        assert_eq!(got, vec![t2(3, 40)]);
        assert_eq!(idx.tuple_count(), 3);
        // Retracting the last posting of a key drops the bucket.
        let mark2 = r.generation();
        r.retract(&t2(2, 30));
        assert_eq!(idx.absorb_from(&r, mark2), Some(0));
        assert_eq!(idx.distinct_keys(), 2);
        // Insert-then-retract inside one delta never reaches the index.
        let mark3 = r.generation();
        r.insert(t2(4, 50));
        r.retract(&t2(4, 50));
        assert_eq!(idx.absorb_from(&r, mark3), Some(0));
        assert_eq!(idx.tuple_count(), 2);
    }

    /// Unappending the head, middle, and tail of one bucket's chain
    /// keeps the remaining postings in append order, and a re-append
    /// after emptying the bucket revives it.
    #[test]
    fn unappend_keeps_chain_order_at_every_position() {
        let rows: Vec<Tuple> = (0..4).map(|k| t2(1, k)).collect();
        for victim in 0..4 {
            let r = Relation::from_tuples(2, rows.clone());
            let mut idx = Index::build(&r, &[0]);
            idx.unappend(rows[victim].values());
            let got: Vec<Tuple> = idx.probe(&[Value::Int(1)]).map(Tuple::new).collect();
            let expect: Vec<Tuple> = rows
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != victim)
                .map(|(_, t)| t.clone())
                .collect();
            assert_eq!(got, expect, "victim={victim}");
            assert_eq!(idx.tuple_count(), 3);
        }
        // Empty a bucket completely, then revive it.
        let r = Relation::from_tuples(2, vec![t2(7, 1)]);
        let mut idx = Index::build(&r, &[0]);
        idx.unappend(t2(7, 1).values());
        assert_eq!(idx.distinct_keys(), 0);
        assert_eq!(idx.probe(&[Value::Int(7)]).count(), 0);
        idx.append_row(t2(7, 2).values());
        let got: Vec<Tuple> = idx.probe(&[Value::Int(7)]).map(Tuple::new).collect();
        assert_eq!(got, vec![t2(7, 2)]);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn reviving_a_tombstoned_tuple_appends_a_fresh_copy() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4)]);
        r.commit();
        let mark = r.generation();
        r.retract(&t2(1, 2));
        assert!(r.insert(t2(1, 2)), "revival counts as an insert");
        assert_eq!(r.generation().epoch, mark.epoch, "revival keeps the epoch");
        assert_eq!(r.delta_bounds(mark), Some((1, 0)), "old cursors stay exact");
        assert_eq!(r.tombstone_count(), 1, "the dead copy stays logged");
        // One live copy per tuple; the dead one still takes a row.
        assert_eq!(r.len(), 2);
        assert_eq!(r.iter_stored().count(), 2);
        assert_eq!(r.stored_len(), 3);
        // The cursor sees the revival as one retraction plus one append.
        let delta: Vec<Tuple> = r.iter_since(mark).map(Tuple::new).collect();
        assert_eq!(delta, vec![t2(1, 2)]);
        let dead: Vec<Tuple> = r.retracted_since(mark).map(Tuple::new).collect();
        assert_eq!(dead, vec![t2(1, 2)]);
        // An index absorbs it as an unappend plus an append.
        let mut r2 = Relation::from_tuples(2, vec![t2(1, 2), t2(1, 4)]);
        let mut idx = Index::build(&r2, &[0]);
        let mark2 = r2.generation();
        r2.retract(&t2(1, 2));
        r2.insert(t2(1, 2));
        assert_eq!(idx.absorb_from(&r2, mark2), Some(1));
        let got: Vec<Tuple> = idx.probe(&[Value::Int(1)]).map(Tuple::new).collect();
        assert_eq!(got, vec![t2(1, 4), t2(1, 2)]);
        // Union-based merges take the same revival path.
        let mut a = Relation::from_tuples(2, vec![t2(7, 8)]);
        a.retract(&t2(7, 8));
        let b = Relation::from_tuples(2, vec![t2(7, 8)]);
        assert_eq!(a.union_with(&b), 1);
        assert_eq!(a.iter_stored().count(), 1);
        assert!(a.contains(&t2(7, 8)));
    }

    /// Dead rows are compacted once they make up half of the storage:
    /// storage then holds the live rows only, in their order, under a
    /// fresh epoch; until then cursors stay exact.
    #[test]
    fn dead_rows_compact_once_they_fill_half_the_storage() {
        let n = 2 * COMPACT_MIN_DEAD as i64;
        let mut r = Relation::from_tuples(2, (0..n).map(|k| t2(k, k)));
        r.commit();
        let mark = r.generation();
        for k in 0..COMPACT_MIN_DEAD as i64 - 1 {
            r.retract(&t2(k, k));
        }
        assert_eq!(r.generation().epoch, mark.epoch);
        assert_eq!(r.stored_len(), n as usize);
        assert!(r.delta_bounds(mark).is_some());
        r.retract(&t2(n - 1, n - 1)); // half of the rows are dead now
        assert_ne!(r.generation().epoch, mark.epoch);
        assert!(r.delta_bounds(mark).is_none());
        assert_eq!(r.stored_len(), r.len());
        assert_eq!(r.tombstone_count(), 0);
        let live: Vec<Tuple> = r.iter().map(|t| t.to_tuple()).collect();
        let expect: Vec<Tuple> = (COMPACT_MIN_DEAD as i64 - 1..n - 1)
            .map(|k| t2(k, k))
            .collect();
        assert_eq!(live, expect);
        for t in &expect {
            assert!(r.contains(t));
        }
        assert!(!r.contains(&t2(0, 0)));
        assert!(r.insert(t2(0, 0)));
        assert_eq!(r.len(), expect.len() + 1);
    }

    #[test]
    fn retract_on_a_shared_relation_forks_the_epoch() {
        let mut a = Relation::from_tuples(2, vec![t2(1, 2), t2(3, 4)]);
        a.commit();
        let mark = a.generation();
        let b = a.clone();
        a.retract(&t2(1, 2));
        assert_ne!(a.generation().epoch, mark.epoch);
        // The untouched clone still answers the old cursor exactly and
        // never sees the sibling's tombstone.
        assert_eq!(b.delta_bounds(mark), Some((1, 0)));
        assert!(b.contains(&t2(1, 2)));
        assert_eq!(b.retracted_since(mark).count(), 0);
    }

    #[test]
    fn absorb_refuses_mid_tail_marks_after_commit() {
        let mut r = Relation::from_tuples(2, vec![t2(1, 10)]);
        let mid_tail = r.generation(); // recent == 1, nothing committed yet
        r.insert(t2(2, 20));
        r.commit(); // the marked prefix is now inside the segment
        let mut idx = Index::build(&r, &[0]);
        assert_eq!(idx.absorb_from(&r, mid_tail), None);
        // iter_since degrades to a superset instead of losing tuples.
        assert_eq!(r.iter_since(mid_tail).count(), 2);
    }

    /// Threads sharing a build: `help` skips a partition another thread
    /// holds and `finish` waits for it; a partition whose build panicked
    /// makes `finish` panic instead of waiting for ever.
    #[test]
    fn index_build_finish_waits_for_held_partitions_and_reports_panics() {
        let mut r = Relation::new(2);
        for k in 0..140_000 {
            r.insert_row(&[Value::Int(k), Value::Int(k)]);
        }
        let build = IndexBuild::build(&r, &[0], Generation::default());
        assert_eq!(build.slots.len(), 4);
        let held = build.slots[1].lock().unwrap();
        build.help(&r);
        assert!(build.slots[0].lock().unwrap().built);
        std::thread::scope(|s| {
            let finished = s.spawn(|| build.finish(&r));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!finished.is_finished(), "finish waits for the held slot");
            drop(held);
            let index = finished.join().unwrap();
            assert_eq!(index.tuple_count(), 140_000);
            assert_eq!(index.probe(&[Value::Int(7)]).count(), 1);
        });

        let build = IndexBuild::build(&r, &[0], Generation::default());
        std::thread::scope(|s| {
            let panicked = s.spawn(|| {
                let _slot = build.slots[2].lock().unwrap();
                panic!("partition build fails");
            });
            assert!(panicked.join().is_err());
        });
        build.help(&r);
        let finish = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build.finish(&r)));
        assert!(finish.is_err(), "a panicked partition is reported");
    }
}
