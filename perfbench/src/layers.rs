//! The traced run (`--trace 1`): per-layer metrics, each measured from
//! outside by timing calls into the layer's public functions, plus the
//! work counts of one `Telemetry`/`Tracer` run.

use unchained_common::{
    EvalTrace, HeapSize, Instance, Interner, Span, SpanKind, Symbol, Telemetry, Tracer, Tuple,
};
use unchained_core::exec::{for_each_head, IndexCache, Sources};
use unchained_core::ir::Plan;
use unchained_core::planner::{Catalog, PlanMode, Planner};
use unchained_core::subst::active_domain;
use unchained_core::{EvalOptions, FixpointRun, IncrementalSession};
use unchained_parser::{parse_program, HeadLiteral, Program, Rule};

use crate::alloc;
use crate::oracle;
use crate::report::Report;
use crate::stats::{median, median_secs, process_cpu_secs, timed};
use crate::workload::{check_scratch, load, poll_once, EditKind, EditScript, Loaded, Workload};

const MIB: f64 = 1024.0 * 1024.0;
/// Repetitions of each sub-second layer timing; the metric is the median.
const REPS: usize = 3;
/// Repetitions of the microsecond-scale parser and planner timings.
const FAST_REPS: usize = 51;
/// Polls of the per-layer IVM script on `ivm_pointsto`.
const IVM_POLLS: usize = 300;

/// Runs every layer measurement of `w` and fills `report`.
pub fn run(w: Workload, seed: u64, report: &mut Report) {
    alloc::enable();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.metric("host.available_parallelism", parallelism as f64, "count");

    let loaded = load(w, seed);
    parser(w, report);
    storage_input(&loaded, report);
    let adom = active_domain(&loaded.program, &loaded.input);
    report.metric(
        "adom.build_s",
        median_secs(REPS, || active_domain(&loaded.program, &loaded.input)),
        "s",
    );
    report.metric("adom.values", adom.len() as f64, "count");
    drop(adom);
    report.metric(
        "planner.plan_us",
        median_secs(FAST_REPS, || plan_all(&loaded.program, &loaded.input)) * 1e6,
        "us",
    );
    evaluation(w, &loaded, report);
    incremental(w, &loaded, seed, report);
}

fn parser(w: Workload, report: &mut Report) {
    let mut interner = Interner::new();
    let parse_s = median_secs(FAST_REPS, || {
        parse_program(w.program_text(), &mut interner).expect("workload program parses")
    });
    report.metric("parser.parse_us", parse_s * 1e6, "us");
}

/// Cloning the loaded EDB, as every engine does on entry.
fn storage_input(loaded: &Loaded, report: &mut Report) {
    report.metric(
        "storage.edb_clone_s",
        median_secs(REPS, || loaded.input.clone()),
        "s",
    );
    let before = alloc::snapshot();
    let copy = loaded.input.clone();
    let allocs = alloc::snapshot().allocs - before.allocs;
    drop(copy);
    report.metric("storage.edb_clone_allocs", allocs as f64, "count");
}

fn head_of(rule: &Rule) -> &unchained_parser::Atom {
    match &rule.head[0] {
        HeadLiteral::Pos(atom) => atom,
        _ => unreachable!("workload programs are positive Datalog"),
    }
}

/// What the engines plan before their first round: the catalog, every
/// rule's full plan and its semi-naive Δ variants.
fn plan_all(program: &Program, instance: &Instance) -> Vec<Plan> {
    let idb = program.idb();
    let mut planner = Planner::new(Catalog::from_instance(instance), PlanMode::default());
    planner.inflate(idb.iter().copied());
    let mut plans = Vec::new();
    for rule in &program.rules {
        plans.push(planner.plan_rule(rule));
        plans.extend(planner.seminaive_variants(rule, &|p| idb.contains(&p)));
    }
    plans
}

/// One `for_each_head` pass of every rule's full plan over `instance`:
/// (matches, probes, indexed tuples).
fn exec_pass(
    plans: &[(Plan, &Rule)],
    instance: &Instance,
    cache: &mut IndexCache,
) -> (u64, u64, u64) {
    let before = cache.counters;
    let mut matches = 0;
    for (plan, rule) in plans {
        matches += for_each_head(
            plan,
            &head_of(rule).args,
            Sources::simple(instance),
            &[],
            cache,
            &mut |tuple| {
                std::hint::black_box(tuple);
            },
        );
    }
    let work = cache.counters.since(&before);
    (matches, work.probes, work.indexed_tuples)
}

/// Summed rule time of a span tree: `Rule` span time in sequential
/// rounds and, in parallel rounds (whose `Rule` spans carry no time),
/// the wall extent of the round's worker lanes.
fn rule_nanos(spans: &[Span]) -> u64 {
    spans
        .iter()
        .map(|span| {
            if span.kind != SpanKind::Round {
                return rule_nanos(&span.children);
            }
            let of = |kind: SpanKind| span.children.iter().filter(move |c| c.kind == kind);
            let rules: u64 = of(SpanKind::Rule).map(|c| c.dur_nanos).sum();
            let first = of(SpanKind::Worker).map(|c| c.start_nanos).min();
            let last = of(SpanKind::Worker)
                .map(|c| c.start_nanos + c.dur_nanos)
                .max();
            rules + last.zip(first).map_or(0, |(l, f)| l - f)
        })
        .sum()
}

/// A finished evaluation and its wall seconds.
struct Timed {
    run: Option<FixpointRun>,
    eval_s: f64,
}

impl Timed {
    /// The wall seconds with a timed drop of the run added, as in
    /// `eval_s`.
    fn with_drop(self) -> f64 {
        let ((), drop_s) = timed(|| drop(self.run));
        self.eval_s + drop_s
    }
}

fn timed_eval(w: Workload, loaded: &Loaded, options: EvalOptions, report: &mut Report) -> Timed {
    let (result, eval_s) = timed(|| w.batch_eval(&loaded.program, &loaded.input, options));
    report.attempted += 1;
    if result.is_err() {
        report.failed += 1;
    }
    Timed {
        run: result.ok(),
        eval_s,
    }
}

/// Counts an answer that differs from `expected` as a failed operation.
fn check(ok: bool, report: &mut Report) {
    if !ok {
        report.failed += 1;
    }
}

/// Storage, executor, semi-naive and parallel layers around the
/// workload's from-scratch evaluation.
fn evaluation(w: Workload, loaded: &Loaded, report: &mut Report) {
    let threads = w.threads();
    let options = |t: usize| EvalOptions::default().with_threads(t);
    let answer_pred = loaded.interner.get(w.answer_pred());
    let expected = w.oracle(&loaded.input, &loaded.interner);

    // Untraced at the workload's thread count, under the allocator's
    // counters.
    alloc::reset_peak();
    let live_before = alloc::snapshot().live;
    let cpu_before = process_cpu_secs();
    let main = timed_eval(w, loaded, options(threads), report);
    let cpu_main = process_cpu_secs() - cpu_before;
    let peak = alloc::snapshot().peak;
    let Some(run) = main.run else { return };
    let held = alloc::snapshot().live.saturating_sub(live_before);
    check(
        oracle::matches(
            answer_pred.and_then(|p| run.instance.relation(p)),
            &expected,
        ),
        report,
    );
    drop(expected);
    let logical = run.instance.heap_bytes() as f64;
    report.metric("storage.logical_mib", logical / MIB, "MiB");
    report.metric("storage.alloc_peak_mib", peak as f64 / MIB, "MiB");
    report.metric(
        "storage.physical_per_logical",
        held as f64 / logical,
        "ratio",
    );
    report.metric(
        "storage.result_clone_s",
        median_secs(REPS, || run.instance.clone()),
        "s",
    );
    let drops: Vec<f64> = (0..REPS)
        .map(|_| {
            let copy = run.instance.clone();
            timed(|| drop(copy)).1
        })
        .collect();
    let drop_s = median(&drops);
    report.metric("storage.result_drop_s", drop_s, "s");
    // `run` stays alive for the checks below; a drop of an equal
    // instance stands in for its own.
    let main_s = main.eval_s + drop_s;
    let answer: Vec<(Symbol, Tuple)> = loaded
        .program
        .idb()
        .into_iter()
        .filter_map(|p| run.instance.relation(p).map(|r| (p, r)))
        .flat_map(|(p, r)| r.iter().map(move |t| (p, t.clone())))
        .collect();
    report.metric(
        "storage.rebuild_s",
        median_secs(REPS, || {
            let mut fresh = Instance::new();
            for (p, t) in &answer {
                fresh.insert_fact(*p, t.clone());
            }
            fresh.commit_all();
            fresh
        }),
        "s",
    );
    drop(answer);
    executor(&loaded.program, &run.instance, report);

    // The twin at the other thread count: same answer, speed-up.
    let other = if threads == 1 { 2 } else { 1 };
    let cpu_before = process_cpu_secs();
    let twin = timed_eval(w, loaded, options(other), report);
    let cpu_twin = process_cpu_secs() - cpu_before;
    if let Some(twin_run) = &twin.run {
        check(twin_run.instance.same_facts(&run.instance), report);
    }
    let twin_s = twin.with_drop();
    let (t1, t2, cpu2) = if threads == 1 {
        (main_s, twin_s, cpu_twin)
    } else {
        (twin_s, main_s, cpu_main)
    };
    report.metric("parallel.eval_1t_s", t1, "s");
    report.metric("parallel.speedup", t1 / t2, "ratio");
    report.metric("parallel.cpu_per_wall", cpu2 / t2, "ratio");

    // Traced twins at 1 and 2 threads. The work counts come from the
    // 1-thread twin: at 2 threads each worker keeps its own index cache,
    // so which indexes are built, and which absorb appended tuples,
    // depends on which worker takes which morsel, and the index counts
    // vary between runs of one seed. The rule time comes from the twin
    // at the workload's thread count.
    let mut indexed = [0u64; 2];
    for t in [1, 2] {
        let tel = Telemetry::enabled().with_tracer(Tracer::enabled());
        let traced = timed_eval(w, loaded, options(t).with_telemetry(tel.clone()), report);
        let trace: EvalTrace = tel.snapshot().unwrap_or_default();
        let spans = tel.tracer().finish();
        indexed[t - 1] = trace.joins.indexed_tuples;
        let Some(traced_run) = &traced.run else {
            continue;
        };
        check(traced_run.instance.same_facts(&run.instance), report);
        if t == 1 {
            let counts = [
                ("seminaive.stages", traced_run.stages as u64),
                ("seminaive.rules_fired", trace.rules_fired),
                ("seminaive.probes", trace.joins.probes),
                ("seminaive.index_builds", trace.joins.index_builds),
                ("seminaive.indexed_tuples", trace.joins.indexed_tuples),
                ("seminaive.appended_tuples", trace.joins.appended_tuples),
            ];
            for (name, value) in counts {
                report.metric(name, value as f64, "count");
            }
            report.metric("seminaive.bytes_peak", trace.bytes_peak as f64, "bytes");
        }
        let traced_s = traced.with_drop();
        if t == threads {
            let rule_s = rule_nanos(&spans) as f64 / 1e9;
            report.metric("seminaive.rule_s", rule_s, "s");
            report.metric("seminaive.outside_rules_s", traced_s - rule_s, "s");
            report.metric("seminaive.trace_overhead_s", traced_s - main_s, "s");
        }
    }
    report.metric(
        "parallel.indexed_tuples_ratio",
        indexed[1] as f64 / indexed[0] as f64,
        "ratio",
    );
}

/// One pass of every rule over the final fixpoint, with a fresh index
/// cache (cold) and then the same cache again (warm).
fn executor(program: &Program, instance: &Instance, report: &mut Report) {
    let mut planner = Planner::new(Catalog::from_instance(instance), PlanMode::default());
    let plans: Vec<(Plan, &Rule)> = program
        .rules
        .iter()
        .map(|r| (planner.plan_rule(r), r))
        .collect();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut work = (0, 0, 0);
    for _ in 0..REPS {
        let mut cache = IndexCache::new();
        let (w, cold_s) = timed(|| exec_pass(&plans, instance, &mut cache));
        let ((), warm_s) = timed(|| {
            exec_pass(&plans, instance, &mut cache);
        });
        work = w;
        cold.push(cold_s);
        warm.push(warm_s);
    }
    let (matches, probes, indexed) = work;
    let (cold, warm) = (median(&cold), median(&warm));
    report.metric("exec.cold_pass_s", cold, "s");
    report.metric("exec.warm_pass_s", warm, "s");
    report.metric("exec.index_build_s", cold - warm, "s");
    report.metric("exec.probes", probes as f64, "count");
    report.metric("exec.indexed_tuples", indexed as f64, "count");
    report.metric(
        "exec.matches_per_probe",
        matches as f64 / probes as f64,
        "ratio",
    );
}

/// An `IncrementalSession` over the workload's EDB at 1 thread, driven
/// by a fixed seeded script: 300 mixed polls on `ivm_pointsto`, and on
/// the batch workloads (where a retraction may overdelete the whole
/// answer) a no-op, two retract/re-insert pairs and a no-op.
fn incremental(w: Workload, loaded: &Loaded, seed: u64, report: &mut Report) {
    let options = EvalOptions::default().with_threads(1);
    report.attempted += 1;
    let Ok(mut session) =
        IncrementalSession::new(loaded.program.clone(), &loaded.input, options.clone())
    else {
        report.failed += 1;
        return;
    };
    let mut script = EditScript::new(w, &loaded.interner, seed);
    let (mut noop_ms, mut retract_ms) = (Vec::new(), Vec::new());
    let (mut overdeleted, mut rederived, mut probes, mut indexed) = (0u64, 0u64, 0u64, 0u64);
    let polls = if w == Workload::IvmPointsTo {
        IVM_POLLS
    } else {
        6
    };
    for i in 0..polls {
        let edit = if w == Workload::IvmPointsTo {
            script.next_mixed(session.edb())
        } else if i == 0 || i == polls - 1 {
            script.noop()
        } else {
            script.next_alternating(session.edb())
        };
        let kind = edit.0;
        let (stats, ms) = poll_once(&mut session, edit, report);
        let Some(stats) = stats else { return };
        probes += stats.joins.probes;
        indexed += stats.joins.indexed_tuples;
        match kind {
            EditKind::Noop => noop_ms.push(ms),
            EditKind::Retract => {
                retract_ms.push(ms);
                overdeleted += stats.overdeleted;
                rederived += stats.rederived;
            }
            EditKind::Insert => {}
        }
    }
    let retracts = retract_ms.len() as f64;
    let scratch: Vec<f64> = (0..REPS)
        .filter_map(|_| check_scratch(&session, &options, report))
        .collect();
    let scratch_s = median(&scratch);
    report.metric("ivm.noop_poll_ms", median(&noop_ms), "ms");
    report.metric(
        "ivm.overdeleted_per_retract",
        overdeleted as f64 / retracts,
        "count",
    );
    report.metric(
        "ivm.rederived_per_retract",
        rederived as f64 / retracts,
        "count",
    );
    // A retraction may derive nothing, so overdelete nothing.
    let rederive_ratio = if overdeleted == 0 {
        0.0
    } else {
        rederived as f64 / overdeleted as f64
    };
    report.metric("ivm.rederive_ratio", rederive_ratio, "ratio");
    report.metric("ivm.probes_per_poll", probes as f64 / polls as f64, "count");
    report.metric(
        "ivm.indexed_tuples_per_poll",
        indexed as f64 / polls as f64,
        "count",
    );
    report.metric("ivm.scratch_eval_s", scratch_s, "s");
    report.metric(
        "ivm.poll_over_scratch",
        median(&retract_ms) / 1e3 / scratch_s,
        "ratio",
    );
}
