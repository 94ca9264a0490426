//! Morsel-driven round execution: the one driver every semi-naive
//! round runs through, at any thread count.
//!
//! One fixpoint round — "fire these plans against this frozen instance
//! and collect the derived tuples" — is embarrassingly parallel once the
//! storage is `Sync`: the instance is only read, and each derived tuple
//! goes to a private per-worker buffer. [`run_round`] prepares the one
//! [`IndexCache`] of the evaluation for the round's plans, and workers
//! then share it by reference: each index a keyed scan probes is made
//! current once per round, its radix partitions built by whichever
//! workers reach it while it is being built, and workers keep only their
//! counters and probe-key buffer to themselves. With one worker the loop
//! runs inline on the calling thread; with more, workers are
//! `std::thread::scope` threads (no runtime, no channels, zero
//! dependencies).
//!
//! Work is split into **morsels**: fixed-size contiguous ranges of
//! physical storage rows of each plan's driver scan (its first step, when
//! that scan has no key columns — the stored rows of a full scan, or the
//! delta rows of a semi-naive delta variant; tombstoned rows are skipped
//! inside the morsel). The morsel list is built deterministically,
//! task-major, before any worker starts; workers then *pull* morsels
//! from a shared atomic cursor until the queue is drained, so a worker
//! stuck on a skewed morsel does not idle the rest of the round. Plans
//! that do not start with an unkeyed scan get a single whole-plan
//! morsel.
//!
//! Determinism does not depend on the schedule: the morsel *partition*
//! is fixed up front, every match of a plan consumes exactly one driver
//! row, and the morsels partition each driver enumeration exactly — so
//! the union of per-morsel match sets, the per-rule fired sums and the
//! probe counts are the same for every worker count, and so is the
//! index work, done once per round per index whichever workers do it.
//! Each morsel packs the rows it derives into a buffer of its head
//! predicate (a packed [`Relation`]: no per-fact allocation, and a row
//! the buffer already holds is dropped; a worker's consecutive morsels
//! of one task share a buffer), and [`run_round`] returns the buffers in
//! morsel order. The caller inserts them into the
//! instance in that order, the first occurrence of a fact winning, so the
//! round delta — rows *and* their storage order — and therefore every
//! subsequent round, the final instance, and its display are
//! byte-identical for any thread count.

use crate::exec::{driver_len, execute, Ctx, IndexCache, Morsel, Sources, Worker};
use crate::ir::Plan;
use crate::subst::instantiate_into;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use unchained_common::{Relation, Symbol, Value};
use unchained_parser::Atom;

/// One unit of round work: a compiled plan and the head it derives into.
pub(crate) struct PlanTask<'p> {
    /// Index of the source rule (several delta-variant tasks can share
    /// one rule); attributes fired counts to rule spans.
    pub rule: usize,
    /// Head atom instantiated on each match.
    pub head: Atom,
    /// The compiled body (full plan in round 1, a delta variant after).
    pub plan: &'p Plan,
}

/// The rows derived by a run of consecutive morsels of one task, in
/// derivation order, each kept at its first occurrence. Rows already in
/// the instance the round read are left out.
#[derive(Debug)]
pub(crate) struct Derived {
    /// The head predicate the rows belong to.
    pub pred: Symbol,
    /// The rows, in storage order.
    pub rows: Relation,
}

/// Per-round attribution data returned by [`run_round`] alongside the
/// derived rows.
pub(crate) struct RoundStats {
    /// Total rule-body matches fired across all tasks and workers.
    pub fired_total: u64,
    /// Matches fired per source rule (summed over that rule's tasks and
    /// all workers). Deterministic for every worker count and schedule:
    /// the morsel partition of each driver enumeration is fixed before
    /// the workers start, and fired counts sum over the partition.
    pub fired_per_rule: Vec<u64>,
    /// Per-rule `(start_offset_nanos, dur_nanos)`: when the rule's first
    /// morsel started, relative to round entry, and the time its morsels
    /// took, summed over all workers. Empty when `timed` was false.
    pub rules: Vec<(u64, u64)>,
    /// Per-worker `(start_offset_nanos, dur_nanos)` relative to round
    /// entry — the worker-lane timeline of a round run by several
    /// workers, one entry per worker (also for workers that pulled no
    /// morsels). Empty with one worker or when `timed` was false.
    pub workers: Vec<(u64, u64)>,
    /// Time spent making indexes current, summed over all workers; 0
    /// when `timed` was false.
    pub index_nanos: u64,
    /// Partitions of the indexes made current in the round.
    /// Deterministic: the partition count follows the rows indexed.
    pub index_partitions: u64,
}

/// The deterministic work list for one round: each entry names a task
/// and a morsel of its driver scan.
fn build_morsels(
    tasks: &[PlanTask<'_>],
    sources: Sources<'_>,
    morsel_size: usize,
) -> Vec<(usize, Morsel)> {
    let step = morsel_size.max(1);
    let mut morsels = Vec::new();
    for (t, task) in tasks.iter().enumerate() {
        match driver_len(task.plan, sources) {
            // No driver scan to partition: one whole-plan morsel.
            None => morsels.push((t, Morsel::Whole)),
            // Empty driver: the plan cannot match, skip it entirely.
            Some(0) => {}
            Some(n) => {
                let mut lo = 0;
                while lo < n {
                    let hi = (lo + step).min(n);
                    morsels.push((t, Morsel::Rows { lo, hi }));
                    lo = hi;
                }
            }
        }
    }
    morsels
}

/// What one worker hands back: the rows its morsels derived (one buffer
/// per run of consecutive morsels of one task, tagged with the run's
/// first position in the work list), its counters, fired counts per
/// rule, per-rule times and its own lane.
type WorkerResult = (
    Vec<(usize, Derived)>,
    Worker,
    Vec<u64>,
    Vec<Option<(u64, u64)>>,
    (u64, u64),
);

/// Runs one round's `tasks` against `sources` on `workers` workers and
/// returns the rows they derived in morsel order. The round's work is
/// cut into driver-row morsels of at most `morsel_size` rows (see the
/// module docs) which workers pull from a shared queue; `cache` is
/// prepared for the round's plans before they start, and their join
/// counters are added to `cache.counters` after they finish. `rules`
/// bounds the rule indexes in `tasks`; `timed` additionally records
/// per-rule and per-worker wall offsets (for rule and worker-lane
/// spans) and the index time. The caller inserts the rows in the order
/// returned; the first occurrence of a row wins.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_round(
    tasks: &[PlanTask<'_>],
    sources: Sources<'_>,
    adom: &[Value],
    cache: &mut IndexCache,
    workers: usize,
    morsel_size: usize,
    rules: usize,
    timed: bool,
) -> (Vec<Derived>, RoundStats) {
    let round_start = Instant::now();
    let morsels = build_morsels(tasks, sources, morsel_size);
    for task in tasks {
        cache.prepare(task.plan, sources);
    }
    let cursor = AtomicUsize::new(0);
    let ctx = Ctx {
        sources,
        adom,
        cache: &*cache,
    };
    let offset = || {
        if timed {
            u64::try_from(round_start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        } else {
            0
        }
    };
    let work = || -> WorkerResult {
        let started = offset();
        let mut worker = Worker::default();
        worker.timed = timed;
        let mut fired_per_rule = vec![0u64; rules];
        let mut rule_times: Vec<Option<(u64, u64)>> = vec![None; rules];
        let mut outputs: Vec<(usize, Derived)> = Vec::new();
        // The last morsel the newest buffer covers.
        let mut covered = None;
        let mut row: Vec<Value> = Vec::new();
        loop {
            let m = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(t, morsel)) = morsels.get(m) else {
                break;
            };
            let task = &tasks[t];
            let pred = task.head.pred;
            let morsel_start = offset();
            // A morsel that directly follows the newest buffer's last
            // one and derives into the same predicate continues that
            // buffer: no other worker's rows can fall between them.
            let continues = covered == m.checked_sub(1)
                && outputs.last().is_some_and(|(_, out)| out.pred == pred);
            if !continues {
                let rows = Relation::new(task.head.args.len());
                outputs.push((m, Derived { pred, rows }));
            }
            let (_, out) = outputs.last_mut().expect("a buffer was just pushed");
            let mut env = vec![None; task.plan.var_count];
            let _ = execute(task.plan, ctx, &mut worker, morsel, &mut env, &mut |env| {
                fired_per_rule[task.rule] += 1;
                instantiate_into(&task.head.args, env, &mut row);
                if !sources.full.contains_fact(pred, &row) {
                    out.rows.insert_row(&row);
                }
                ControlFlow::Continue(())
            });
            if out.rows.is_empty() {
                outputs.pop();
            } else {
                covered = Some(m);
            }
            let (_, dur) = rule_times[task.rule].get_or_insert((morsel_start, 0));
            *dur += offset().saturating_sub(morsel_start);
        }
        let lane = (started, offset().saturating_sub(started));
        (outputs, worker, fired_per_rule, rule_times, lane)
    };
    let results: Vec<WorkerResult> = if workers <= 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("round worker panicked"))
                .collect()
        })
    };

    let mut stats = RoundStats {
        fired_total: 0,
        fired_per_rule: vec![0u64; rules],
        rules: Vec::new(),
        workers: Vec::new(),
        index_nanos: 0,
        index_partitions: 0,
    };
    let mut rule_times: Vec<Option<(u64, u64)>> = vec![None; rules];
    let mut outputs: Vec<(usize, Derived)> = Vec::new();
    for (worker_outputs, worker, fired_per_rule, times, lane) in results {
        cache.counters.absorb(&worker.counters);
        stats.index_nanos += worker.index_nanos;
        stats.index_partitions += worker.index_partitions;
        for (rule, f) in fired_per_rule.into_iter().enumerate() {
            stats.fired_per_rule[rule] += f;
            stats.fired_total += f;
        }
        for (sum, (start, dur)) in rule_times
            .iter_mut()
            .zip(times)
            .filter_map(|(s, t)| Some((s, t?)))
        {
            let (first, total) = sum.get_or_insert((start, 0));
            *first = (*first).min(start);
            *total += dur;
        }
        if timed && workers > 1 {
            stats.workers.push(lane);
        }
        outputs.extend(worker_outputs);
    }
    if timed {
        stats.rules = rule_times
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect();
    }
    // The buffers cover disjoint runs of morsels: sorting them by first
    // morsel puts every row in morsel order.
    outputs.sort_unstable_by_key(|&(m, _)| m);
    (outputs.into_iter().map(|(_, out)| out).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ScanSource, Step};
    use crate::planner::{plan_rule, Catalog, PlanMode, Planner};
    use crate::subst::active_domain;
    use unchained_common::{DeltaHandle, FxHashSet, Instance, Interner, Tuple};
    use unchained_parser::{parse_program, HeadLiteral};

    fn tc_setup(n: i64) -> (Interner, unchained_parser::Program, Instance) {
        let mut i = Interner::new();
        let p = parse_program("T(x,y) :- G(x,y).\nT(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let mut inst = Instance::new();
        for k in 0..n {
            inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        inst.commit_all();
        (i, p, inst)
    }

    /// Every derived row with its predicate, in the order returned, each
    /// at its first occurrence: what inserting the buffers adds. (Which
    /// repeats a buffer drops depends on how morsels share buffers.)
    fn rows_of(derived: &[Derived]) -> Vec<(Symbol, Vec<Value>)> {
        let mut seen = FxHashSet::default();
        derived
            .iter()
            .flat_map(|out| out.rows.iter_stored().map(|row| (out.pred, row.to_vec())))
            .filter(|fact| seen.insert(fact.clone()))
            .collect()
    }

    fn head(rule: &unchained_parser::Rule) -> Atom {
        match &rule.head[0] {
            HeadLiteral::Pos(a) => a.clone(),
            _ => unreachable!(),
        }
    }

    fn full_tasks<'p>(p: &unchained_parser::Program, plans: &'p [Plan]) -> Vec<PlanTask<'p>> {
        p.rules
            .iter()
            .zip(plans)
            .enumerate()
            .map(|(i, (r, plan))| PlanTask {
                rule: i,
                head: head(r),
                plan,
            })
            .collect()
    }

    /// Full round 1: the derived rows, in order, and the attribution
    /// equal a single-worker run, across worker counts and morsel sizes
    /// — including morsel size 1 (one row per morsel) and more workers
    /// than morsels.
    #[test]
    fn morsel_full_round_matches_single_worker() {
        let (_, p, inst) = tc_setup(6);
        let adom = active_domain(&p, &inst);
        let plans: Vec<Plan> = p.rules.iter().map(plan_rule).collect();
        let tasks = full_tasks(&p, &plans);
        let rules = p.rules.len();
        let sources = Sources::simple(&inst);
        let mut one = IndexCache::new();
        let (seq, seq_stats) = run_round(&tasks, sources, &adom, &mut one, 1, 1024, rules, false);
        for (workers, morsel_size) in [(4, 1024), (4, 1), (3, 2), (16, 4)] {
            let mut seq_cache = IndexCache::new();
            let _ = run_round(
                &tasks,
                sources,
                &adom,
                &mut seq_cache,
                1,
                morsel_size,
                rules,
                false,
            );
            let mut cache = IndexCache::new();
            let (par, par_stats) = run_round(
                &tasks,
                sources,
                &adom,
                &mut cache,
                workers,
                morsel_size,
                rules,
                true,
            );
            assert_eq!(
                rows_of(&seq),
                rows_of(&par),
                "workers={workers} size={morsel_size}"
            );
            assert_eq!(seq_stats.fired_total, par_stats.fired_total);
            // One shared cache: the join counters do not depend on the
            // worker count either.
            assert_eq!(seq_cache.counters, cache.counters);
            // Per-rule attribution is schedule-invariant; worker
            // timings appear only on the timed run, one per worker
            // even when a worker pulled no morsels.
            assert_eq!(seq_stats.fired_per_rule, par_stats.fired_per_rule);
            assert_eq!(par_stats.workers.len(), workers);
        }
        assert!(seq_stats.workers.is_empty());
    }

    /// Delta mode: the morsels partition each delta enumeration exactly,
    /// so the derived rows, in order, and fired counts equal sequential.
    #[test]
    fn morsel_delta_round_matches_single_worker() {
        let (mut i, p, mut inst) = tc_setup(8);
        let t = i.intern("T");
        let recursive: FxHashSet<Symbol> = [t].into_iter().collect();
        // Seed T with round 1's output and capture the delta mark by hand.
        let mark = DeltaHandle::capture(&inst);
        let g = i.get("G").unwrap();
        let edges: Vec<Tuple> = inst
            .relation(g)
            .unwrap()
            .iter()
            .map(|t| t.to_tuple())
            .collect();
        for e in edges {
            inst.insert_fact(t, e);
        }
        inst.commit_all();
        let mut planner = Planner::new(Catalog::empty(), PlanMode::Cost);
        let plans: Vec<Vec<Plan>> = p
            .rules
            .iter()
            .map(|r| planner.seminaive_variants(r, &|s| recursive.contains(&s)))
            .collect();
        let tasks: Vec<PlanTask> = p
            .rules
            .iter()
            .zip(&plans)
            .enumerate()
            .flat_map(|(i, (r, variants))| {
                variants.iter().map(move |plan| PlanTask {
                    rule: i,
                    head: head(r),
                    plan,
                })
            })
            .collect();
        assert!(!tasks.is_empty());
        let rules = p.rules.len();
        let sources = Sources {
            full: &inst,
            delta: Some(&mark),
            neg: None,
            delta_from: None,
        };
        let adom = adom_of(&inst);
        let mut one = IndexCache::new();
        let (seq, seq_stats) = run_round(&tasks, sources, &adom, &mut one, 1, 1024, rules, false);
        for (workers, morsel_size) in [(2, 3), (3, 1), (4, 2), (4, 1024)] {
            let mut cache = IndexCache::new();
            let (par, par_stats) = run_round(
                &tasks,
                sources,
                &adom,
                &mut cache,
                workers,
                morsel_size,
                rules,
                false,
            );
            assert_eq!(
                rows_of(&seq),
                rows_of(&par),
                "workers={workers} size={morsel_size}"
            );
            assert_eq!(
                seq_stats.fired_total, par_stats.fired_total,
                "workers={workers} size={morsel_size}"
            );
            assert_eq!(
                seq_stats.fired_per_rule, par_stats.fired_per_rule,
                "workers={workers} size={morsel_size}"
            );
        }
    }

    /// Rounds with no work at all — no tasks, or only empty drivers —
    /// derive no rows and zeroed attribution, and every worker still
    /// reports a timing lane.
    #[test]
    fn empty_rounds_drain_cleanly() {
        let (_, p, inst) = tc_setup(0); // G exists in the program, no facts
        let adom = active_domain(&p, &inst);
        let plans: Vec<Plan> = p.rules.iter().map(plan_rule).collect();
        let tasks = full_tasks(&p, &plans);
        let rules = p.rules.len();
        let sources = Sources::simple(&inst);
        let mut cache = IndexCache::new();
        let (derived, stats) = run_round(&tasks, sources, &adom, &mut cache, 4, 8, rules, true);
        assert!(derived.is_empty());
        assert_eq!(stats.fired_total, 0);
        assert_eq!(stats.workers.len(), 4);

        // Entirely taskless round.
        let (derived, stats) = run_round(&[], sources, &adom, &mut cache, 4, 8, 0, true);
        assert!(derived.is_empty());
        assert_eq!(stats.fired_total, 0);
        assert_eq!(stats.workers.len(), 4);
    }

    /// Workers share the index builds of a round: at 4 workers with
    /// single-row morsels, a stale full index that absorbs (and splits
    /// from 2 into 4 partitions) and a fresh 2-partition delta index are
    /// each made current once, every partition built exactly once (the
    /// appended and indexed tuples equal the rows of the deltas, none
    /// appended twice or left out), and every join counter equals the
    /// 1-worker run's, as do the derived rows.
    #[test]
    fn workers_share_partitioned_index_builds() {
        let mut i = Interner::new();
        let p = parse_program("T(x,y) :- D(x), G(x,y).", &mut i).unwrap();
        let (d, g) = (i.get("D").unwrap(), i.get("G").unwrap());
        let atoms: Vec<&Atom> = p.rules[0]
            .body
            .iter()
            .map(|lit| match lit {
                unchained_parser::Literal::Pos(a) => a,
                _ => unreachable!(),
            })
            .collect();
        let plan_of = |source| {
            let mut plan = plan_rule(&p.rules[0]);
            plan.steps = vec![
                Step::Scan {
                    pred: d,
                    args: atoms[0].args.clone(),
                    key: vec![],
                    source: ScanSource::Full,
                },
                Step::Scan {
                    pred: g,
                    args: atoms[1].args.clone(),
                    key: vec![0],
                    source,
                },
            ];
            plan
        };
        let full = plan_of(ScanSource::Full);
        let delta = plan_of(ScanSource::Delta);
        let task = |plan| PlanTask {
            rule: 0,
            head: head(&p.rules[0]),
            plan,
        };
        let edges = |inst: &mut Instance, range: std::ops::Range<i64>| {
            for k in range {
                inst.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
            }
            inst.commit_all();
        };
        let run = |workers: usize| {
            let mut inst = Instance::new();
            for k in 0..64 {
                inst.insert_fact(d, Tuple::from([Value::Int(k * 2_000)]));
            }
            edges(&mut inst, 0..70_000);
            let mut cache = IndexCache::new();
            // Builds the full index on 70,000 rows: 2 partitions.
            let (_, warm) = run_round(
                &[task(&full)],
                Sources::simple(&inst),
                &[],
                &mut cache,
                workers,
                1,
                1,
                false,
            );
            assert_eq!(warm.index_partitions, 2);
            let mark = DeltaHandle::capture(&inst);
            edges(&mut inst, 70_000..140_000);
            cache.begin_delta_round();
            let sources = Sources {
                full: &inst,
                delta: Some(&mark),
                neg: None,
                delta_from: None,
            };
            let (derived, stats) = run_round(
                &[task(&full), task(&delta)],
                sources,
                &[],
                &mut cache,
                workers,
                1,
                1,
                false,
            );
            (rows_of(&derived), stats.index_partitions, cache.counters)
        };
        let (rows, partitions, counters) = run(1);
        assert_eq!(partitions, 4 + 2, "absorbed full index + delta index");
        assert_eq!(counters.index_builds, 2, "full index, then the delta index");
        assert_eq!(counters.index_appends, 1);
        assert_eq!(counters.appended_tuples, 70_000);
        assert_eq!(counters.indexed_tuples, 70_000 + 70_000);
        assert_eq!(rows.len(), 64, "one edge per D row");
        assert_eq!(run(4), (rows, partitions, counters));
    }

    /// The morsel list is deterministic and covers each driver exactly.
    #[test]
    fn morsel_list_partitions_drivers_exactly() {
        let (_, p, inst) = tc_setup(7); // G has 7 rows; T absent (empty driver)
        let plans: Vec<Plan> = p.rules.iter().map(plan_rule).collect();
        let tasks = full_tasks(&p, &plans);
        let sources = Sources::simple(&inst);
        let morsels = build_morsels(&tasks, sources, 3);
        // Each task's driver is G (7 rows) or T (absent): the G-driven
        // task splits 7 rows into ceil(7/3) = 3 ranges; absent drivers
        // contribute nothing.
        for (t, _) in &morsels {
            let mut covered = Vec::new();
            for (t2, m) in &morsels {
                if t2 == t {
                    match m {
                        Morsel::Rows { lo, hi } => covered.push((*lo, *hi)),
                        Morsel::Whole => unreachable!("scan-led plans get row morsels"),
                    }
                }
            }
            let n = driver_len(tasks[*t].plan, sources).unwrap();
            let mut expect = 0;
            for (lo, hi) in covered {
                assert_eq!(lo, expect, "gap in morsel coverage");
                assert!(hi > lo && hi - lo <= 3);
                expect = hi;
            }
            assert_eq!(expect, n, "driver not fully covered");
        }
        // Morsel size is clamped to at least one row.
        assert_eq!(
            build_morsels(&tasks, sources, 0).len(),
            build_morsels(&tasks, sources, 1).len()
        );
    }

    fn adom_of(inst: &Instance) -> Vec<Value> {
        inst.adom_sorted()
    }
}
