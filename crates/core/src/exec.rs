//! The shared plan executor: one tuple-at-a-time interpreter over the
//! existing [`Relation`]/[`IndexCache`] storage, driven by every
//! engine.
//!
//! The interpreter walks a compiled [`Plan`]'s steps
//! ([`crate::ir::Step`]) depth-first, invoking a callback once per
//! satisfying valuation. A scan with key columns probes a hash index;
//! a scan without (a plan's driver, or a cross product) walks the
//! relation's columnar storage directly and never builds an index.
//!
//! There is one [`IndexCache`] per evaluation, shared by reference by
//! every worker of a round. Before a plan runs (before a round's workers
//! start, for [`crate::parallel::run_round`]), [`IndexCache::prepare`]
//! points each index its keyed scans probe at the relation's current
//! [`Generation`]; the run then only reads the cache. The first probe
//! that needs an index plans making it current — absorbing the tuples
//! appended since it was last current, or building it — exactly once per
//! run, so indexes no probe reaches cost nothing. A large index is made
//! current in radix partitions ([`IndexBuild`]): every worker whose probe
//! reaches the index before it is finished builds the partitions no other
//! worker is building, instead of waiting, and the worker that finishes
//! it counts the work, which is therefore the same whichever workers do
//! it. What a probe writes, join counters and the probe-key
//! buffer, lives in a per-worker [`Worker`]. Join-work telemetry
//! ([`JoinCounters`]) is emitted here, in one place, for all engines, and
//! does not depend on the worker count.

use std::ops::ControlFlow;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;
use unchained_common::{
    DeltaHandle, FxHashMap, Generation, HeapSize, Index, IndexBuild, Instance, JoinCounters,
    Relation, Symbol, Tuple, Value,
};
use unchained_parser::Term;

use crate::ir::{Plan, ScanSource, Step};
use crate::subst::{instantiate, term_value, Env};

/// The relation generation and, for delta entries, the mark that an
/// index covers.
type Coverage = (Generation, Option<Generation>);

struct CacheEntry {
    /// Key columns the index is built on.
    cols: Box<[usize]>,
    /// What the index must cover in the current run.
    target: Coverage,
    /// The index, once made current for `target`. Indexes no probe
    /// reaches are never built.
    index: OnceLock<Index>,
    /// Making the index current: planned by the first probe of the run
    /// that needs it, then run by every worker that reaches it.
    job: OnceLock<Job>,
    /// An index left by an earlier run, with what it covers: the job
    /// absorbs it into `index`, or rebuilds.
    stale: Mutex<Option<(Index, Coverage)>>,
}

/// Which counters an index job adds to.
enum Work {
    Build,
    Absorb,
    Rebuild,
}

/// An index being made current, shared by the workers that reach it.
struct Job {
    build: IndexBuild,
    work: Work,
}

impl Job {
    /// The finished index, once every partition is built. Counts the
    /// work in `worker`: this runs once per job.
    fn finish(&self, relation: &Relation, worker: &mut Worker) -> Index {
        let index = self.build.finish(relation);
        let tuples = self.build.appended() as u64;
        let counters = &mut worker.counters;
        let (indexes, tuple_counter) = match self.work {
            Work::Build => (&mut counters.index_builds, &mut counters.indexed_tuples),
            Work::Absorb => (&mut counters.index_appends, &mut counters.appended_tuples),
            Work::Rebuild => (&mut counters.index_rebuilds, &mut counters.indexed_tuples),
        };
        *indexes += 1;
        *tuple_counter += tuples;
        worker.index_partitions += index.partitions() as u64;
        index
    }
}

impl CacheEntry {
    /// Plans making the index current over `relation`: absorbing the
    /// stale index where the lineage allows, else building.
    fn plan(&self, relation: &Relation) -> Job {
        let stale = self
            .stale
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let mark = self.target.1;
        let fresh = |gen| IndexBuild::build(relation, &self.cols, gen);
        // Delta indexes are rebuilt per round, never absorbed.
        let (build, work) = match (stale, mark) {
            (Some((index, (gen, None))), None) => match IndexBuild::absorb(index, relation, gen) {
                Ok(build) => (build, Work::Absorb),
                Err(_) => (fresh(Generation::default()), Work::Rebuild),
            },
            _ => (fresh(mark.unwrap_or_default()), Work::Build),
        };
        Job { build, work }
    }

    /// How many indexes the entry holds (current and stale), and their
    /// logical bytes.
    fn held(&self) -> (usize, usize) {
        let stale = self.stale.lock().unwrap_or_else(PoisonError::into_inner);
        let current = self.index.get();
        let stale = stale.as_ref().map(|(index, _)| index);
        current
            .into_iter()
            .chain(stale)
            .fold((0, 0), |(n, bytes), index| {
                (n + 1, bytes + index.heap_bytes())
            })
    }
}

/// A per-run cache of relation indexes, keyed by
/// `(relation, key columns, source)` and tracked by relation generation.
///
/// A full-source entry whose relation only grew since the index was built
/// absorbs the new tuples by appending postings ([`Index::absorb_from`]);
/// only lineage breaks (removals, clears, diverged clones) force a rebuild,
/// so on append-only fixpoints rebuilds stay bounded by the number of
/// relations instead of scaling with the number of rounds. Delta-source
/// entries index one round's `iter_since` slice; they are built fresh each
/// round — work proportional to the round's delta — and dropped by
/// [`IndexCache::begin_delta_round`].
#[derive(Default)]
pub struct IndexCache {
    /// Entries per (relation, source); a relation has few key shapes, so
    /// finding one by columns is a short scan with no key allocation.
    entries: FxHashMap<(Symbol, ScanSource), Vec<CacheEntry>>,
    /// Join-work counters: cache hits are counted by
    /// [`IndexCache::prepare`], index builds and probes by the workers,
    /// whose counters are added in when a run ends. Engines snapshot and
    /// diff this per stage when telemetry is enabled.
    pub counters: JoinCounters,
    /// Probe-key buffer lent to the `&mut` entry points, so repeated
    /// calls (one per support query in incremental maintenance) do not
    /// allocate.
    key: Vec<Value>,
}

impl IndexCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all delta-source entries. Call at the start of each
    /// semi-naive round: delta indexes cover one round's slice and are
    /// never carried across rounds.
    pub fn begin_delta_round(&mut self) {
        self.entries
            .retain(|(_, source), _| *source == ScanSource::Full);
    }

    /// Logical bytes held by every cached index (see
    /// [`unchained_common::space`]). Reported as a telemetry note, not
    /// part of the `--memstats` tree, which counts relations only.
    pub fn heap_bytes(&self) -> usize {
        self.entries.values().flatten().map(|e| e.held().1).sum()
    }

    /// Number of cached indexes.
    pub fn entry_count(&self) -> usize {
        self.entries.values().flatten().map(|e| e.held().0).sum()
    }

    /// Points every index that `plan`'s keyed scans probe at what
    /// `sources` now holds. Nothing is built here: an index that is
    /// already current counts as a hit, and any other is made current by
    /// the first probe that needs it (see [`IndexCache::index`]), so an
    /// index no probe reaches costs nothing. Call before running `plan`;
    /// the run then only reads the cache, from any number of workers.
    pub(crate) fn prepare(&mut self, plan: &Plan, sources: Sources<'_>) {
        for step in &plan.steps {
            let Step::Scan {
                pred, key, source, ..
            } = step
            else {
                continue;
            };
            if key.is_empty() {
                continue;
            }
            if let Some(relation) = sources.relation(*pred, *source) {
                let target = (relation.generation(), sources.mark(*pred, *source));
                self.refresh(*pred, key, *source, target);
            }
        }
    }

    /// Points the `(pred, cols, source)` entry at `target`.
    fn refresh(&mut self, pred: Symbol, cols: &[usize], source: ScanSource, target: Coverage) {
        let entries = self.entries.entry((pred, source)).or_default();
        match entries.iter_mut().find(|e| *e.cols == *cols) {
            None => entries.push(CacheEntry {
                cols: cols.into(),
                target,
                index: OnceLock::new(),
                job: OnceLock::new(),
                stale: Mutex::default(),
            }),
            Some(entry) if entry.target == target => {
                if entry.index.get().is_some() {
                    self.counters.index_hits += 1;
                }
            }
            Some(entry) => {
                if let Some(index) = entry.index.take() {
                    let stale = entry
                        .stale
                        .get_mut()
                        .unwrap_or_else(PoisonError::into_inner);
                    *stale = Some((index, entry.target));
                }
                entry.job = OnceLock::new();
                entry.target = target;
            }
        }
    }

    /// The prepared `(pred, cols, source)` index over `relation`, made
    /// current by this call if no probe of the run has finished it yet.
    /// The first probe plans the work; it and every probe that arrives
    /// before the index is finished build partitions of it (see
    /// [`IndexBuild`]). Exactly one probe counts each index a run needs
    /// in `worker`, whichever worker it comes from, so the counters
    /// summed over workers do not depend on the schedule.
    fn index(
        &self,
        pred: Symbol,
        cols: &[usize],
        source: ScanSource,
        relation: &Relation,
        worker: &mut Worker,
    ) -> &Index {
        let entry = self
            .entries
            .get(&(pred, source))
            .and_then(|entries| entries.iter().find(|e| *e.cols == *cols))
            .expect("keyed scan probed an index that was never prepared");
        debug_assert_eq!(entry.target.0, relation.generation());
        if let Some(index) = entry.index.get() {
            return index;
        }
        let started = worker.timed.then(Instant::now);
        let job = entry.job.get_or_init(|| entry.plan(relation));
        job.build.help(relation);
        let index = entry.index.get_or_init(|| job.finish(relation, worker));
        if let Some(started) = started {
            worker.index_nanos += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        index
    }
}

/// What one worker of a plan execution writes: its join counters and
/// its probe-key buffer. The [`IndexCache`] itself is only read while
/// plans run, so any number of workers can share it.
#[derive(Default)]
pub(crate) struct Worker {
    /// Probes and probed tuples of this worker's scans, and the index
    /// work it finished.
    pub(crate) counters: JoinCounters,
    /// Partitions of the indexes this worker finished.
    pub(crate) index_partitions: u64,
    /// Whether to time the index work.
    pub(crate) timed: bool,
    /// Time this worker spent making indexes current, when `timed`.
    pub(crate) index_nanos: u64,
    /// Reused for every probe key; released before the probe's rows are
    /// walked, so nested scans share it.
    key: Vec<Value>,
}

/// The instances a plan reads from.
///
/// * `full` — the current instance, read by [`ScanSource::Full`] scans.
/// * `delta` — the generation marks captured at the previous round
///   boundary; [`ScanSource::Delta`] scans of semi-naive plan variants
///   read `full`'s relations restricted to the tuples added since the
///   mark (`Relation::iter_since`). No separate delta instance exists.
/// * `neg` — when set, negative literals are checked against this
///   instance instead of `full`. The well-founded engine uses this for
///   the Gelfond–Lifschitz-style reduct of the alternating fixpoint,
///   where negation reads the *previous* iterate while positive facts
///   accumulate in the current one.
/// * `delta_from` — when set, [`ScanSource::Delta`] scans read their
///   relations from this instance instead of `full` (marks still come
///   from `delta`). The incremental-maintenance engine uses this to
///   drive Δ-variant plans over a scratch change set (the overdeleted
///   or newly inserted tuples) while `full` stays pinned to the
///   appropriate database state.
#[derive(Clone, Copy)]
pub struct Sources<'a> {
    /// Current instance.
    pub full: &'a Instance,
    /// Delta marks, if running a semi-naive delta variant.
    pub delta: Option<&'a DeltaHandle>,
    /// Override instance for negative checks.
    pub neg: Option<&'a Instance>,
    /// Override instance for delta scans.
    pub delta_from: Option<&'a Instance>,
}

impl<'a> Sources<'a> {
    /// Sources reading everything from one instance.
    pub fn simple(full: &'a Instance) -> Self {
        Sources {
            full,
            delta: None,
            neg: None,
            delta_from: None,
        }
    }

    /// The relation a scan of `pred` from `source` reads, if present.
    fn relation(&self, pred: Symbol, source: ScanSource) -> Option<&'a Relation> {
        match source {
            ScanSource::Full => self.full,
            ScanSource::Delta => self.delta_from.unwrap_or(self.full),
        }
        .relation(pred)
    }

    /// The delta mark restricting a scan of `pred` from `source`; `None`
    /// for full scans.
    fn mark(&self, pred: Symbol, source: ScanSource) -> Option<Generation> {
        (source == ScanSource::Delta).then(|| {
            self.delta
                .expect("delta plan run without delta marks")
                .mark(pred)
        })
    }
}

/// Runs `plan` against `sources`, with domain steps enumerating `adom`,
/// invoking `on_match` for every satisfying valuation. `on_match` may
/// stop the enumeration early by returning [`ControlFlow::Break`].
#[allow(clippy::type_complexity)]
pub fn for_each_match(
    plan: &Plan,
    sources: Sources<'_>,
    adom: &[Value],
    cache: &mut IndexCache,
    on_match: &mut dyn FnMut(&Env) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut env: Env = vec![None; plan.var_count];
    for_each_match_from(plan, sources, adom, cache, &mut env, on_match)
}

/// Like [`for_each_match`], but starting from a caller-seeded
/// environment: variables already bound in `env` act as constants
/// (plans compiled with those variables prebound turn them into scan
/// key columns). `env` must have `plan.var_count` slots; bindings the
/// plan adds are undone before returning, the seeded ones survive.
#[allow(clippy::type_complexity)]
pub fn for_each_match_from(
    plan: &Plan,
    sources: Sources<'_>,
    adom: &[Value],
    cache: &mut IndexCache,
    env: &mut Env,
    on_match: &mut dyn FnMut(&Env) -> ControlFlow<()>,
) -> ControlFlow<()> {
    debug_assert_eq!(env.len(), plan.var_count);
    cache.prepare(plan, sources);
    let mut worker = Worker {
        key: std::mem::take(&mut cache.key),
        ..Worker::default()
    };
    let ctx = Ctx {
        sources,
        adom,
        cache,
    };
    let flow = execute(plan, ctx, &mut worker, Morsel::Whole, env, on_match);
    cache.counters.absorb(&worker.counters);
    cache.key = worker.key;
    flow
}

/// Runs `plan` and instantiates `head_args` once per match, invoking
/// `on_tuple` with each head tuple. Returns the number of body matches
/// (the engines' `rules_fired` gauge, which is join-order invariant:
/// it counts satisfying valuations, not tuples).
pub fn for_each_head(
    plan: &Plan,
    head_args: &[Term],
    sources: Sources<'_>,
    adom: &[Value],
    cache: &mut IndexCache,
    on_tuple: &mut dyn FnMut(Tuple),
) -> u64 {
    let mut fired = 0u64;
    let _ = for_each_match(plan, sources, adom, cache, &mut |env| {
        fired += 1;
        on_tuple(instantiate(head_args, env));
        ControlFlow::Continue(())
    });
    fired
}

/// One unit of work for the morsel-driven round driver: either a
/// whole-plan evaluation, or a contiguous row range of the plan's
/// *driver* — its first scan step, when that scan has no key columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Morsel {
    /// Run the plan in full. Used for plans that do not start with an
    /// unkeyed scan (no row range to partition).
    Whole,
    /// Run only driver rows `lo..hi`: physical storage rows of the
    /// driver relation for full scans, or of its delta for delta scans
    /// (tombstoned rows count, and are skipped).
    Rows {
        /// First driver row (inclusive).
        lo: usize,
        /// Past-the-end driver row (exclusive).
        hi: usize,
    },
}

/// Number of physical driver rows `plan` walks under `sources`: the
/// storage length of the first scan step's relation (full scans) or of
/// its delta (delta scans). `None` when the plan does not start with an
/// unkeyed scan — such plans cannot be row-partitioned and run as one
/// [`Morsel::Whole`]. An absent relation yields `Some(0)`: nothing to
/// scan, zero morsels.
pub fn driver_len(plan: &Plan, sources: Sources<'_>) -> Option<usize> {
    let Some(Step::Scan {
        pred, key, source, ..
    }) = plan.steps.first()
    else {
        return None;
    };
    if !key.is_empty() {
        return None;
    }
    // As in `Ctx::rows`, the default generation stands for a full scan.
    let mark = sources.mark(*pred, *source).unwrap_or_default();
    Some(
        sources
            .relation(*pred, *source)
            .map_or(0, |r| r.delta_len(mark)),
    )
}

/// Everything a plan execution reads: shared by all workers of a round.
#[derive(Clone, Copy)]
pub(crate) struct Ctx<'a> {
    pub(crate) sources: Sources<'a>,
    pub(crate) adom: &'a [Value],
    /// Prepared for the plans being run (see [`IndexCache::prepare`]).
    pub(crate) cache: &'a IndexCache,
}

impl<'a> Ctx<'a> {
    /// The live rows among physical rows `lo..hi` that an unkeyed scan
    /// of `pred` from `source` walks (the delta's rows for delta scans);
    /// `None` when the relation is absent.
    fn rows(
        &self,
        pred: Symbol,
        source: ScanSource,
        lo: usize,
        hi: usize,
    ) -> Option<impl Iterator<Item = &'a [Value]>> {
        let relation = self.sources.relation(pred, source)?;
        // A full scan has no mark; the default generation treats the
        // whole relation as new, so one range walk serves both sources.
        let mark = self.sources.mark(pred, source).unwrap_or_default();
        Some(relation.iter_since_range(mark, lo, hi))
    }
}

/// Runs one [`Morsel`] of `plan` from `env`. Workers pulling disjoint
/// row ranges partition the plan's match set exactly: every match
/// consumes exactly one driver row, and the ranges partition the driver
/// enumeration. Summing matches over a partition of
/// `0..driver_len(plan, sources)` therefore equals a whole-plan run,
/// independent of how morsels are assigned to workers.
#[allow(clippy::type_complexity)]
pub(crate) fn execute(
    plan: &Plan,
    ctx: Ctx<'_>,
    worker: &mut Worker,
    morsel: Morsel,
    env: &mut Env,
    on_match: &mut dyn FnMut(&Env) -> ControlFlow<()>,
) -> ControlFlow<()> {
    match morsel {
        Morsel::Whole => run_steps(&plan.steps, ctx, worker, env, on_match),
        Morsel::Rows { lo, hi } => {
            let Some((
                Step::Scan {
                    pred, args, source, ..
                },
                rest,
            )) = plan.steps.split_first()
            else {
                unreachable!("row morsel for a plan without a driver scan");
            };
            match ctx.rows(*pred, *source, lo, hi) {
                Some(rows) => bind_rows(rows, args, &[], rest, ctx, worker, env, on_match),
                None => ControlFlow::Continue(()), // absent relation = empty
            }
        }
    }
}

/// The one binding routine: binds each row's non-key positions into
/// `env` (checking repeated and already-bound variables) and runs `rest`
/// for every row that agrees, undoing its bindings afterwards. Counts
/// one probe and every row walked.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn bind_rows<'r>(
    rows: impl Iterator<Item = &'r [Value]>,
    args: &[Term],
    key: &[usize],
    rest: &[Step],
    ctx: Ctx<'_>,
    worker: &mut Worker,
    env: &mut Env,
    on_match: &mut dyn FnMut(&Env) -> ControlFlow<()>,
) -> ControlFlow<()> {
    worker.counters.probes += 1;
    let mut newly_bound: Vec<usize> = Vec::new();
    let mut flow = ControlFlow::Continue(());
    'rows: for row in rows {
        worker.counters.probe_tuples += 1;
        for &b in &newly_bound {
            env[b] = None;
        }
        newly_bound.clear();
        for (p, term) in args.iter().enumerate() {
            if key.contains(&p) {
                continue;
            }
            let Term::Var(v) = term else {
                unreachable!("constant positions are always key positions")
            };
            match env[v.index()] {
                // Repeated or prebound variable mismatch.
                Some(existing) if existing != row[p] => continue 'rows,
                Some(_) => {}
                None => {
                    env[v.index()] = Some(row[p]);
                    newly_bound.push(v.index());
                }
            }
        }
        if run_steps(rest, ctx, worker, env, on_match).is_break() {
            flow = ControlFlow::Break(());
            break;
        }
    }
    for &b in &newly_bound {
        env[b] = None;
    }
    flow
}

#[allow(clippy::type_complexity)]
fn run_steps(
    steps: &[Step],
    ctx: Ctx<'_>,
    worker: &mut Worker,
    env: &mut Env,
    on_match: &mut dyn FnMut(&Env) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some((step, rest)) = steps.split_first() else {
        return on_match(env);
    };
    match step {
        Step::Scan {
            pred,
            args,
            key,
            source,
        } => {
            if key.is_empty() {
                return match ctx.rows(*pred, *source, 0, usize::MAX) {
                    Some(rows) => bind_rows(rows, args, key, rest, ctx, worker, env, on_match),
                    None => ControlFlow::Continue(()), // absent relation = empty
                };
            }
            let Some(relation) = ctx.sources.relation(*pred, *source) else {
                return ControlFlow::Continue(()); // absent relation = empty
            };
            let index = ctx.cache.index(*pred, key, *source, relation, worker);
            // The probe key is only read to find the bucket, so the
            // buffer is free again before the postings are walked.
            let mut probe = std::mem::take(&mut worker.key);
            probe.clear();
            probe.extend(key.iter().map(|&p| term_value(&args[p], env)));
            let postings = index.probe(&probe);
            worker.key = probe;
            bind_rows(postings, args, key, rest, ctx, worker, env, on_match)
        }
        Step::BindEq { var, term } => {
            let value = term_value(term, env);
            let prev = env[var.index()];
            env[var.index()] = Some(value);
            let flow = run_steps(rest, ctx, worker, env, on_match);
            env[var.index()] = prev;
            flow
        }
        Step::Domain { var } => {
            for &value in ctx.adom {
                env[var.index()] = Some(value);
                run_steps(rest, ctx, worker, env, on_match)?;
            }
            env[var.index()] = None;
            ControlFlow::Continue(())
        }
        Step::CheckNeg { pred, args } => {
            // The checked row goes through the probe-key buffer: it is
            // free again once the membership test has read it.
            let mut row = std::mem::take(&mut worker.key);
            row.clear();
            row.extend(args.iter().map(|t| term_value(t, env)));
            let neg_instance = ctx.sources.neg.unwrap_or(ctx.sources.full);
            let present = neg_instance.contains_fact(*pred, &row);
            worker.key = row;
            if present {
                ControlFlow::Continue(())
            } else {
                run_steps(rest, ctx, worker, env, on_match)
            }
        }
        Step::CheckCmp { left, right, equal } => {
            if (term_value(left, env) == term_value(right, env)) == *equal {
                run_steps(rest, ctx, worker, env, on_match)
            } else {
                ControlFlow::Continue(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::Interner;

    /// Prepares one index and probes it once, as a keyed scan's run
    /// would, folding the work into `cache.counters`.
    fn get<'c>(
        cache: &'c mut IndexCache,
        pred: Symbol,
        source: ScanSource,
        rel: &'c Relation,
        mark: Option<Generation>,
    ) -> &'c Index {
        cache.refresh(pred, &[0], source, (rel.generation(), mark));
        let mut worker = Worker::default();
        cache.index(pred, &[0], source, rel, &mut worker);
        cache.counters.absorb(&worker.counters);
        cache.index(pred, &[0], source, rel, &mut worker)
    }

    #[test]
    fn index_cache_absorbs_growth_instead_of_rebuilding() {
        let mut interner = Interner::new();
        let g = interner.intern("G");
        let mut rel = Relation::new(1);
        rel.insert(Tuple::from([Value::Int(1)]));
        rel.commit();
        let mut cache = IndexCache::new();
        assert_eq!(
            get(&mut cache, g, ScanSource::Full, &rel, None)
                .probe(&[Value::Int(1)])
                .len(),
            1
        );
        assert_eq!(cache.counters.index_builds, 1);
        // Unchanged relation: a cache hit, no index work.
        let _ = get(&mut cache, g, ScanSource::Full, &rel, None);
        assert_eq!(cache.counters.index_hits, 1);
        // Growth (including across a commit) is absorbed incrementally.
        rel.insert(Tuple::from([Value::Int(2)]));
        rel.commit();
        assert_eq!(
            get(&mut cache, g, ScanSource::Full, &rel, None)
                .probe(&[Value::Int(2)])
                .len(),
            1
        );
        assert_eq!(cache.counters.index_appends, 1);
        assert_eq!(cache.counters.appended_tuples, 1);
        assert_eq!(cache.counters.index_rebuilds, 0);
        // A removal breaks the lineage and forces a rebuild.
        rel.remove(&Tuple::from([Value::Int(1)]));
        assert_eq!(
            get(&mut cache, g, ScanSource::Full, &rel, None)
                .probe(&[Value::Int(1)])
                .len(),
            0
        );
        assert_eq!(cache.counters.index_rebuilds, 1);
    }

    #[test]
    fn delta_index_covers_only_the_slice_since_the_mark() {
        let mut interner = Interner::new();
        let g = interner.intern("G");
        let mut rel = Relation::new(1);
        rel.insert(Tuple::from([Value::Int(1)]));
        rel.commit();
        let mark = rel.generation();
        rel.insert(Tuple::from([Value::Int(2)]));
        rel.commit();
        let mut cache = IndexCache::new();
        let idx = get(&mut cache, g, ScanSource::Delta, &rel, Some(mark));
        assert_eq!(idx.probe(&[Value::Int(1)]).len(), 0);
        assert_eq!(idx.probe(&[Value::Int(2)]).len(), 1);
        assert_eq!(cache.counters.index_builds, 1);
        assert_eq!(cache.counters.indexed_tuples, 1);
    }
}
