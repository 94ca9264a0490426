//! Semi-naive bottom-up evaluation.
//!
//! The classical optimization of naive fixpoint evaluation: a fact can
//! only be *newly* derived in round `k+1` if its derivation uses at least
//! one fact first derived in round `k`. Each rule with a recursive
//! positive body literal is therefore evaluated in *variants*, one per
//! recursive literal, where that literal scans the per-round delta and
//! the others scan the full relations.
//!
//! The module exposes the shared [`seminaive_fixpoint`] used by the
//! positive-Datalog engine here and by the stratified engine
//! ([`crate::stratified`]), whose per-stratum fixpoints are exactly the
//! same computation with negation frozen against completed strata.

use crate::error::EvalError;
use crate::exec::{IndexCache, Sources};
use crate::ir::Plan;
use crate::options::{EvalOptions, FixpointRun};
use crate::parallel::{run_round, PlanTask, RoundStats};
use crate::planner::{Catalog, Planner};
use crate::require_language;
use crate::subst::{active_domain, needs_active_domain};
use std::collections::BTreeMap;
use unchained_common::{
    DeltaHandle, FxHashSet, HeapSize, Instance, JoinCounters, Span, SpanKind, StageRecord, Symbol,
    Tracer,
};
use unchained_parser::{check_range_restricted, Atom, HeadLiteral, Language, Program, Rule};

/// Attaches one round's attribution leaves to the currently open round
/// span: per-rule spans (deterministic `fired` gauges, and the time the
/// rule's morsels took, summed over workers), per-worker lane spans
/// (rounds run by several workers), an `index` phase (the time spent
/// making indexes current, summed over workers, with the tuples indexed
/// or absorbed and the partitions built), and a join-counter summary.
/// Offsets in `stats` are relative to `round_base`.
fn emit_round_leaves(
    tracer: &Tracer,
    head_preds: &[Symbol],
    stats: &RoundStats,
    round_base: u64,
    joins: &JoinCounters,
) {
    for (ri, fired) in stats.fired_per_rule.iter().enumerate() {
        let (start, dur) = stats.rules.get(ri).copied().unwrap_or_default();
        let mut span = Span::leaf(SpanKind::Rule, format!("rule {ri}"));
        span.pred = Some(head_preds[ri]);
        span.start_nanos = round_base + start;
        span.dur_nanos = dur;
        span.gauges.push(("fired", *fired));
        tracer.leaf(span);
    }
    for (w, (start, dur)) in stats.workers.iter().enumerate() {
        let mut span = Span::leaf(SpanKind::Worker, format!("worker {w}"));
        span.lane = Some(w);
        span.start_nanos = round_base + start;
        span.dur_nanos = *dur;
        tracer.leaf(span);
    }
    let mut index = Span::leaf(SpanKind::Phase, "index");
    index.start_nanos = round_base;
    index.dur_nanos = stats.index_nanos;
    index.gauges = vec![
        ("tuples", joins.indexed_tuples + joins.appended_tuples),
        ("partitions", stats.index_partitions),
    ];
    tracer.leaf(index);
    let mut join = Span::leaf(SpanKind::Join, "joins");
    join.gauges = vec![
        ("probes", joins.probes),
        ("probe_tuples", joins.probe_tuples),
        ("index_builds", joins.index_builds),
        ("index_hits", joins.index_hits),
        ("index_appends", joins.index_appends),
        ("index_rebuilds", joins.index_rebuilds),
    ];
    tracer.leaf(join);
}

/// Runs the rules of one (sub)program to fixpoint with semi-naive
/// deltas, mutating `instance` in place. Negative literals are checked
/// against the full current instance, so the caller must guarantee they
/// are *frozen* (never derivable by `rules`) — true for pure Datalog
/// (no negation) and for stratified evaluation (negation only on
/// completed strata).
///
/// Every round — the full round 1 and each delta round after it — runs
/// through [`run_round`] on `options.threads` workers, over `cache`.
///
/// Returns the number of rounds executed (≥ 1).
pub(crate) fn seminaive_fixpoint(
    rules: &[&Rule],
    instance: &mut Instance,
    adom: &[unchained_common::Value],
    recursive: &FxHashSet<Symbol>,
    cache: &mut IndexCache,
    options: &EvalOptions,
) -> Result<usize, EvalError> {
    // Plan against a cardinality snapshot of the instance as it stands
    // on entry (for stratified evaluation: with all lower strata
    // already computed). Recursive predicates are inflated so their
    // initially-small relations are not mistaken for cheap scans.
    let mut planner = Planner::new(Catalog::from_instance(instance), options.plan_mode);
    planner.inflate(recursive.iter().copied());
    let full: Vec<Plan> = rules.iter().map(|rule| planner.plan_rule(rule)).collect();
    let deltas: Vec<Vec<Plan>> = rules
        .iter()
        .map(|rule| planner.seminaive_variants(rule, &|p| recursive.contains(&p)))
        .collect();
    let plan_stats = planner.stats();

    let heads: Vec<Atom> = rules
        .iter()
        .map(|rule| match &rule.head[0] {
            HeadLiteral::Pos(a) => a.clone(),
            _ => unreachable!("semi-naive engines require positive single heads"),
        })
        .collect();
    // Round 1 fires every rule's full plan; later rounds its delta
    // variants. Both task lists are the same every round.
    let full_tasks: Vec<PlanTask> = full
        .iter()
        .enumerate()
        .map(|(rule, plan)| PlanTask {
            rule,
            head: heads[rule].clone(),
            plan,
        })
        .collect();
    let delta_tasks: Vec<PlanTask> = deltas
        .iter()
        .enumerate()
        .flat_map(|(rule, variants)| {
            let head = &heads[rule];
            variants.iter().map(move |plan| PlanTask {
                rule,
                head: head.clone(),
                plan,
            })
        })
        .collect();

    // Stage indexes continue from whatever the trace already holds, so
    // stratified evaluation appends one contiguous stage sequence.
    let tel = &options.telemetry;
    let base = tel.with(|t| t.stages.len()).unwrap_or(0);
    let tracer = tel.tracer().clone();
    let traced = tracer.is_enabled();
    let head_preds: Vec<Symbol> = heads.iter().map(|head| head.pred).collect();
    // Planner-effect gauges are deterministic (plans never depend on
    // the schedule), so they are safe in the thread-invariant lane.
    // Accumulated across strata when called repeatedly.
    tel.with(|t| {
        t.plan_joins_pruned += plan_stats.joins_pruned;
        t.subplans_shared += plan_stats.subplans_shared;
    });
    tracer.gauge("plan_joins_pruned", plan_stats.joins_pruned);
    tracer.gauge("subplans_shared", plan_stats.subplans_shared);
    let threads = options.threads.get();
    tel.with(|t| t.threads = threads);

    // Freeze the input facts into stable segments: every later round then
    // adds exactly one segment per touched relation, so delta marks stay
    // exact and full indexes absorb each round as a single segment append.
    instance.commit_all();

    // `None` in round 1; afterwards the generation marks captured before
    // the previous round's merge, so `iter_since(mark)` enumerates
    // exactly that round's delta.
    let mut mark: Option<DeltaHandle> = None;
    let mut rounds = 1;
    loop {
        let stage_sw = tel.stopwatch();
        let joins_before = cache.counters;
        let round_guard = tracer.span(SpanKind::Round, format!("round {}", base + rounds));
        let round_base = tracer.now_nanos();
        let sources = Sources {
            full: instance,
            delta: mark.as_ref(),
            neg: None,
            delta_from: None,
        };
        let tasks = if mark.is_some() {
            &delta_tasks
        } else {
            &full_tasks
        };
        let (derived, stats) = run_round(
            tasks,
            sources,
            adom,
            cache,
            threads,
            options.morsel_size,
            rules.len(),
            traced,
        );

        // Capture generation marks, then insert the derived rows in
        // morsel order: the first occurrence of a fact wins, so storage
        // order is the same at every thread count.
        let next_mark = DeltaHandle::capture(instance);
        let absorb_start = tracer.now_nanos();
        let mut delta: BTreeMap<Symbol, usize> = BTreeMap::new();
        for out in &derived {
            let relation = instance.ensure(out.pred, out.rows.arity());
            let added = out
                .rows
                .iter_stored()
                .filter(|row| relation.insert_row(row))
                .count();
            if added > 0 {
                *delta.entry(out.pred).or_default() += added;
            }
        }
        let absorb_end = tracer.now_nanos();
        let facts_added: usize = delta.values().sum();
        let joins = cache.counters.since(&joins_before);
        tel.with(|t| {
            t.stages.push(StageRecord {
                stage: base + rounds,
                wall_nanos: stage_sw.nanos(),
                facts_added,
                facts_removed: 0,
                rules_fired: stats.fired_total,
                delta: delta.into_iter().collect(),
                bytes: instance.heap_bytes() as u64,
                joins,
            });
            t.peak_facts = t.peak_facts.max(instance.fact_count());
            t.bytes_peak = t.bytes_peak.max(instance.heap_bytes() as u64);
        });
        if traced {
            // Deterministic round gauges first (thread-invariant), then
            // the attribution leaves, then close the round span. Logical
            // bytes are counts x fixed widths, so the lane is identical
            // at any thread count.
            tracer.gauge("facts_added", facts_added as u64);
            tracer.gauge("rules_fired", stats.fired_total);
            tracer.gauge("bytes", instance.heap_bytes() as u64);
            let mut absorb = Span::leaf(SpanKind::Absorb, "merge");
            absorb.start_nanos = absorb_start;
            absorb.dur_nanos = absorb_end.saturating_sub(absorb_start);
            absorb.gauges.push(("facts", facts_added as u64));
            tracer.leaf(absorb);
            emit_round_leaves(&tracer, &head_preds, &stats, round_base, &joins);
        }
        drop(round_guard);
        if facts_added == 0 {
            return Ok(rounds);
        }
        if options.max_facts.is_some_and(|m| instance.fact_count() > m) {
            return Err(EvalError::FactLimitExceeded(instance.fact_count()));
        }
        rounds += 1;
        if options.max_stages.is_some_and(|m| rounds > m) {
            return Err(EvalError::StageLimitExceeded(rounds - 1));
        }
        // Promote the merged round to frozen segments; the next round
        // evaluates the delta variants against the marks captured before
        // the merge.
        instance.commit_all();
        cache.begin_delta_round();
        mark = Some(next_mark);
    }
}

/// Computes the minimum model of a positive Datalog program on `input`
/// using semi-naive evaluation. Semantically identical to
/// [`crate::naive::minimum_model`].
///
/// # Errors
/// Rejects programs outside pure Datalog and non-range-restricted rules.
pub fn minimum_model(
    program: &Program,
    input: &Instance,
    options: EvalOptions,
) -> Result<FixpointRun, EvalError> {
    require_language(program, Language::Datalog)?;
    check_range_restricted(program, false)?;

    let adom = if needs_active_domain(&program.rules) {
        active_domain(program, input)
    } else {
        Vec::new()
    };
    let mut instance = input.clone();
    let schema = program.schema()?;
    for pred in program.idb() {
        instance.ensure(pred, schema.arity(pred).expect("idb has arity"));
    }
    let recursive: FxHashSet<Symbol> = program.idb().into_iter().collect();
    let rules: Vec<&Rule> = program.rules.iter().collect();
    let mut cache = IndexCache::new();
    options.telemetry.begin("seminaive");
    let run_sw = options.telemetry.stopwatch();
    let tracer = options.telemetry.tracer().clone();
    let eval_guard = tracer.span(SpanKind::Eval, "seminaive");
    let stratum_guard = tracer.span(SpanKind::Stratum, "stratum 0");
    let stages = seminaive_fixpoint(
        &rules,
        &mut instance,
        &adom,
        &recursive,
        &mut cache,
        &options,
    )?;
    tracer.gauge("rounds", stages as u64);
    tracer.gauge("rules", rules.len() as u64);
    drop(stratum_guard);
    tracer.gauge("final_facts", instance.fact_count() as u64);
    drop(eval_guard);
    let (segments, recent) = instance.storage_stats();
    options.telemetry.note(format!(
        "storage: {segments} segments, {recent} uncommitted"
    ));
    options.telemetry.note(format!(
        "index cache: {} indexes, {}",
        cache.entry_count(),
        unchained_common::fmt_bytes(cache.heap_bytes() as u64)
    ));
    options
        .telemetry
        .with(|t| t.bytes_final = instance.heap_bytes() as u64);
    options.telemetry.finish(&run_sw, instance.fact_count());
    Ok(FixpointRun { instance, stages })
}

/// Convenience: evaluate a Datalog program and return just the relation
/// for `answer_pred` (empty if it was never derived).
pub fn eval_to_relation(
    program: &Program,
    input: &Instance,
    answer_pred: Symbol,
) -> Result<unchained_common::Relation, EvalError> {
    let run = minimum_model(program, input, EvalOptions::default())?;
    let arity = program.schema()?.arity(answer_pred).unwrap_or(0);
    Ok(run
        .instance
        .relation(answer_pred)
        .cloned()
        .unwrap_or_else(|| unchained_common::Relation::new(arity)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use crate::options::DEFAULT_MORSEL_SIZE;
    use unchained_common::{Interner, Telemetry, Tuple, Value};
    use unchained_parser::parse_program;

    fn tc_program(interner: &mut Interner) -> Program {
        parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).",
            interner,
        )
        .unwrap()
    }

    fn random_ish_graph(interner: &mut Interner, n: i64) -> Instance {
        // Deterministic pseudo-random graph: edge (i, (i*7+3) mod n) and
        // (i, (i*5+1) mod n).
        let g = interner.intern("G");
        let mut inst = Instance::new();
        for i in 0..n {
            inst.insert_fact(g, Tuple::from([Value::Int(i), Value::Int((i * 7 + 3) % n)]));
            inst.insert_fact(g, Tuple::from([Value::Int(i), Value::Int((i * 5 + 1) % n)]));
        }
        inst
    }

    #[test]
    fn agrees_with_naive_on_lines_and_cycles() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        for n in [2i64, 3, 5, 8] {
            // line
            let mut line = Instance::new();
            for k in 0..n - 1 {
                line.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
            }
            let a = naive::minimum_model(&p, &line, EvalOptions::default()).unwrap();
            let b = minimum_model(&p, &line, EvalOptions::default()).unwrap();
            assert!(a.instance.same_facts(&b.instance), "line n={n}");
            // cycle
            let mut cyc = Instance::new();
            for k in 0..n {
                cyc.insert_fact(g, Tuple::from([Value::Int(k), Value::Int((k + 1) % n)]));
            }
            let a = naive::minimum_model(&p, &cyc, EvalOptions::default()).unwrap();
            let b = minimum_model(&p, &cyc, EvalOptions::default()).unwrap();
            assert!(a.instance.same_facts(&b.instance), "cycle n={n}");
        }
    }

    #[test]
    fn agrees_with_naive_on_denser_graph() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let input = random_ish_graph(&mut i, 13);
        let a = naive::minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let b = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        assert!(a.instance.same_facts(&b.instance));
    }

    #[test]
    fn nonrecursive_rules_fire_once() {
        let mut i = Interner::new();
        let p = parse_program("A(x) :- B(x). C(x) :- A(x).", &mut i).unwrap();
        let b = i.get("B").unwrap();
        let mut input = Instance::new();
        input.insert_fact(b, Tuple::from([Value::Int(1)]));
        let run = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let c = i.get("C").unwrap();
        assert!(run.instance.contains_fact(c, &Tuple::from([Value::Int(1)])));
    }

    #[test]
    fn right_linear_and_left_linear_tc_agree() {
        let mut i = Interner::new();
        let left = tc_program(&mut i);
        let right = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- T(x,z), G(z,y).",
            &mut i,
        )
        .unwrap();
        let input = random_ish_graph(&mut i, 11);
        let a = minimum_model(&left, &input, EvalOptions::default()).unwrap();
        let b = minimum_model(&right, &input, EvalOptions::default()).unwrap();
        let t = i.get("T").unwrap();
        assert!(a
            .instance
            .relation(t)
            .unwrap()
            .same_tuples(b.instance.relation(t).unwrap()));
    }

    #[test]
    fn nonlinear_tc_agrees() {
        let mut i = Interner::new();
        let lin = tc_program(&mut i);
        let nonlin = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- T(x,z), T(z,y).",
            &mut i,
        )
        .unwrap();
        let input = random_ish_graph(&mut i, 9);
        let a = minimum_model(&lin, &input, EvalOptions::default()).unwrap();
        let b = minimum_model(&nonlin, &input, EvalOptions::default()).unwrap();
        let t = i.get("T").unwrap();
        assert!(a
            .instance
            .relation(t)
            .unwrap()
            .same_tuples(b.instance.relation(t).unwrap()));
        // The nonlinear version doubles path lengths per round, so it
        // should take fewer rounds.
        assert!(b.stages <= a.stages);
    }

    #[test]
    fn same_generation_program() {
        // A classic non-TC recursion: same-generation.
        let mut i = Interner::new();
        let p = parse_program(
            "SG(x,x) :- Person(x).\n\
             SG(x,y) :- Par(x,xp), SG(xp,yp), Par(y,yp).",
            &mut i,
        )
        .unwrap();
        let person = i.get("Person").unwrap();
        let par = i.get("Par").unwrap();
        let mut input = Instance::new();
        // A small binary tree: 1 root; 2,3 children; 4,5,6,7 grandchildren.
        for k in 1..=7i64 {
            input.insert_fact(person, Tuple::from([Value::Int(k)]));
        }
        for (c, par_) in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3)] {
            input.insert_fact(par, Tuple::from([Value::Int(c), Value::Int(par_)]));
        }
        let run = minimum_model(&p, &input, EvalOptions::default()).unwrap();
        let sg = i.get("SG").unwrap();
        let rel = run.instance.relation(sg).unwrap();
        // 2 and 3 are same generation; 4..7 pairwise same generation.
        assert!(rel.contains(&Tuple::from([Value::Int(2), Value::Int(3)])));
        assert!(rel.contains(&Tuple::from([Value::Int(4), Value::Int(7)])));
        assert!(!rel.contains(&Tuple::from([Value::Int(2), Value::Int(4)])));
        // 7 reflexive + {2,3}² off-diag 2 + {4..7}² off-diag 12 = 21.
        assert_eq!(rel.len(), 21);
    }

    /// Tombstoned EDB rows count toward morsel offsets and are skipped
    /// inside each morsel, so single-row morsels over a retracted EDB
    /// give the same fixpoint as over a tombstone-free copy, at one
    /// worker and at three.
    #[test]
    fn tombstoned_edb_matches_a_tombstone_free_copy() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let clean = random_ish_graph(&mut i, 13);
        let mut tombstoned = clean.clone();
        let extra: Vec<Tuple> = (0..13i64)
            .map(|k| Tuple::from([Value::Int(k), Value::Int(100 + k)]))
            .collect();
        for t in &extra {
            tombstoned.insert_fact(g, t.clone());
        }
        tombstoned.commit_all();
        for t in &extra {
            assert!(tombstoned.retract_fact(g, t));
        }
        assert_eq!(tombstoned.relation(g).unwrap().tombstone_count(), 13);
        assert!(tombstoned.same_facts(&clean));
        for threads in [1, 3] {
            let options = || {
                EvalOptions::default()
                    .with_threads(threads)
                    .with_morsel_size(1)
            };
            let a = minimum_model(&p, &clean, options()).unwrap();
            let b = minimum_model(&p, &tombstoned, options()).unwrap();
            assert!(a.instance.same_facts(&b.instance), "threads={threads}");
            assert_eq!(a.stages, b.stages, "threads={threads}");
        }
    }

    /// Every relation's storage order and every stage's `facts_added`
    /// and per-predicate delta are the same at any thread count and
    /// morsel size. The rules derive duplicates within one morsel (two
    /// paths `x -> y -> z` from adjacent driver rows) and across morsels
    /// (`R(y)` from every in-edge of `y`); the first occurrence in morsel
    /// order must win whichever worker derived it.
    #[test]
    fn storage_order_and_stage_deltas_do_not_depend_on_the_schedule() {
        let mut i = Interner::new();
        let p = parse_program(
            "R(y) :- G(x,y).\n\
             P(x,z) :- G(x,y), G(y,z).\n\
             T(x,y) :- G(x,y).\n\
             T(x,y) :- T(x,z), G(z,y).",
            &mut i,
        )
        .unwrap();
        let input = random_ish_graph(&mut i, 300);
        type Stored = Vec<(Symbol, Vec<Vec<Value>>)>;
        type Stages = Vec<(usize, Vec<(Symbol, usize)>)>;
        let run = |threads: usize, morsel_size: usize| -> (Stored, Stages) {
            let tel = Telemetry::enabled();
            let options = EvalOptions::default()
                .with_threads(threads)
                .with_morsel_size(morsel_size)
                .with_telemetry(tel.clone());
            let out = minimum_model(&p, &input, options).unwrap();
            let stored = out
                .instance
                .iter()
                .map(|(pred, rel)| (pred, rel.iter_stored().map(<[Value]>::to_vec).collect()))
                .collect();
            let stages = tel
                .snapshot()
                .unwrap()
                .stages
                .into_iter()
                .map(|s| (s.facts_added, s.delta))
                .collect();
            (stored, stages)
        };
        let (stored, stages) = run(1, DEFAULT_MORSEL_SIZE);
        assert!(stages.len() > 2, "the closure takes several rounds");
        for threads in [1, 2, 4] {
            for morsel_size in [1, 3, DEFAULT_MORSEL_SIZE] {
                let (got_stored, got_stages) = run(threads, morsel_size);
                assert!(
                    got_stored == stored,
                    "storage order differs at threads={threads} morsel_size={morsel_size}"
                );
                assert_eq!(
                    got_stages, stages,
                    "threads={threads} morsel_size={morsel_size}"
                );
            }
        }
    }

    #[test]
    fn eval_to_relation_missing_answer_is_empty() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let t = i.get("T").unwrap();
        let rel = eval_to_relation(&p, &Instance::new(), t).unwrap();
        assert!(rel.is_empty());
        assert_eq!(rel.arity(), 2);
    }
}
