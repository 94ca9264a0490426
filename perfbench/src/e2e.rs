//! The timed run (`--trace 0`): end-to-end metrics with tracing off.
//!
//! One client drives a closed loop: each operation starts when the
//! previous one has returned and its answer has been checked.

use std::time::Instant;

use unchained_common::Instance;
use unchained_core::{EvalError, EvalOptions, IncrementalSession};

use crate::calib::{self, Calibration};
use crate::oracle;
use crate::report::Report;
use crate::stats::{median, peak_rss_mib, quantile, reset_peak_rss, secs, settled};
use crate::workload::{check_scratch, load, poll_once, EditKind, EditScript, Loaded, Workload};

/// A run times at least `MIN_SETUPS` set-ups, in slots of at least
/// `SETUP_SLOT_S` seconds between its operations; `setup_s` is their
/// median.
const MIN_SETUPS: usize = 5;
const SETUP_SLOT_S: f64 = 0.2;
/// Polls of each of the insert and retract kinds a run makes at least,
/// so that a p90 has ten samples beyond it.
const MIN_POLLS_PER_KIND: usize = 100;
/// Calibration kernel runs before the first timed operation; one more
/// follows every retract/re-insert pair of the batch workloads, every
/// `ivm_pointsto` checkpoint and every slot of set-ups.
const CALIBRATIONS_AT_START: usize = 3;
/// Polls between two oracle checkpoints of `ivm_pointsto`.
const CHECKPOINT_EVERY: usize = 40;
/// From-scratch evaluations per checkpoint, each an `eval_s` sample.
const CHECKPOINT_EVALS: usize = 3;

/// One timing, with the number of calibration samples taken before it.
type Timing = (f64, usize);

/// Latency samples of one run.
struct Samples {
    setup_s: Vec<Timing>,
    eval_s: Vec<Timing>,
    insert_ms: Vec<Timing>,
    retract_ms: Vec<Timing>,
    noop_ms: Vec<Timing>,
    /// Peak resident set of each segment of the run, in MiB.
    rss_mib: Vec<f64>,
    calib: Calibration,
    /// Worker threads of the workload's evaluations and polls; set-ups
    /// run on one.
    threads: usize,
}

impl Samples {
    fn new(threads: usize) -> Samples {
        Samples {
            setup_s: Vec::new(),
            eval_s: Vec::new(),
            insert_ms: Vec::new(),
            retract_ms: Vec::new(),
            noop_ms: Vec::new(),
            rss_mib: Vec::new(),
            calib: Calibration::new(threads),
            threads,
        }
    }

    /// A timing taken now, between the last calibration sample and the
    /// next.
    fn timing(&self, value: f64) -> Timing {
        (value, self.calib.len())
    }

    fn push_edit(&mut self, kind: EditKind, ms: f64) {
        let t = self.timing(ms);
        match kind {
            EditKind::Insert => self.insert_ms.push(t),
            EditKind::Retract => self.retract_ms.push(t),
            EditKind::Noop => self.noop_ms.push(t),
        }
    }

    /// Starts the first segment of the run: takes a calibration sample
    /// and resets the peak resident set (after the sample, so the
    /// kernel's own memory never counts).
    fn start_segments(&mut self, report: &mut Report) {
        self.calib.sample();
        if !reset_peak_rss() {
            report.note(
                "peak_rss_mib: /proc/self/clear_refs refused, so segment peaks are running maxima",
            );
        }
    }

    /// Ends a segment of the run: records its peak resident set, takes a
    /// calibration sample and starts the next segment.
    fn end_segment(&mut self) {
        self.rss_mib.push(peak_rss_mib());
        self.calib.sample();
        reset_peak_rss();
    }

    /// Times set-ups of `w`, each dropped before the next, until they
    /// took `SETUP_SLOT_S` (at least one), then takes a calibration
    /// sample and resets the peak resident set without recording it:
    /// the slot holds a second input beside the loaded one, not the
    /// workload's operations. The set-up the run works on was made
    /// before the loop, so these run with the heap already warm.
    fn setup_slot(&mut self, w: Workload, seed: u64, options: &EvalOptions) {
        let mut took = 0.0;
        while took < SETUP_SLOT_S {
            let (loaded, session, secs) = set_up(w, seed, options);
            drop((loaded, session));
            took += secs;
            self.setup_s.push(self.timing(secs));
        }
        self.calib.sample();
        reset_peak_rss();
    }

    /// Reports every end-to-end metric, each timing scaled to the
    /// reference speed by the calibration samples around it; the notes
    /// keep the raw medians.
    fn into_report(self, report: &mut Report) {
        let scaled = |series: &[Timing], threads| -> Vec<f64> {
            series
                .iter()
                .map(|&(v, mark)| self.calib.scale(v, mark, threads))
                .collect()
        };
        let raw = |series: &[Timing]| -> Vec<f64> { series.iter().map(|&(v, _)| v).collect() };
        let p50 = median as fn(&[f64]) -> f64;
        let p90 = |v: &[f64]| quantile(v, 0.9);
        let n = self.threads;
        let timings = [
            ("eval_s", &self.eval_s, n, p50, "s"),
            ("setup_s", &self.setup_s, 1, p50, "s"),
            ("insert_poll_p50_ms", &self.insert_ms, n, p50, "ms"),
            ("insert_poll_p90_ms", &self.insert_ms, n, p90, "ms"),
            ("retract_poll_p50_ms", &self.retract_ms, n, p50, "ms"),
            ("retract_poll_p90_ms", &self.retract_ms, n, p90, "ms"),
        ];
        let mut raw_notes = Vec::new();
        for (name, series, threads, stat, unit) in timings {
            report.metric(name, stat(&scaled(series, threads)), unit);
            raw_notes.push(format!("{name}={:.4}{unit}", stat(&raw(series))));
        }
        report.metric("peak_rss_mib", median(&self.rss_mib), "MiB");
        report.note(format!(
            "samples: setup={} eval={} insert={} retract={} noop={} calibration={} segments={}",
            self.setup_s.len(),
            self.eval_s.len(),
            self.insert_ms.len(),
            self.retract_ms.len(),
            self.noop_ms.len(),
            self.calib.len(),
            self.rss_mib.len()
        ));
        report.note(format!(
            "calibration: kernel median {:.4} s on 1 thread, {:.4} s on {n}, reference {} s",
            self.calib.median_s(1),
            self.calib.median_s(n),
            calib::REFERENCE_S
        ));
        report.note(format!("raw wall: {}", raw_notes.join(" ")));
        report.note(format!(
            "segment peak resident set: max {:.1} MiB",
            self.rss_mib.iter().copied().fold(0.0, f64::max)
        ));
    }
}

/// Runs the timed loop of `w` for `seconds` and fills `report`.
pub fn run(w: Workload, seed: u64, seconds: f64, report: &mut Report) {
    match w {
        Workload::Reach | Workload::PointsTo => batch(w, seed, seconds, report),
        Workload::IvmPointsTo => incremental(seed, seconds, report),
    }
}

/// Samples with a fresh calibration at `w`'s thread count, taken before
/// the workload loads so the kernel's tables are resident before any
/// workload memory.
fn start_samples(w: Workload) -> Samples {
    let mut samples = Samples::new(w.threads());
    for _ in 0..CALIBRATIONS_AT_START {
        samples.calib.sample();
    }
    samples
}

/// One set-up of `w`: input generation and `parse_program`, and on
/// `ivm_pointsto` `IncrementalSession::new`. Returns the set-up (with
/// the session, if any) and its seconds, up to the quiet that follows
/// it.
fn set_up(
    w: Workload,
    seed: u64,
    options: &EvalOptions,
) -> (Loaded, Option<Result<IncrementalSession, EvalError>>, f64) {
    let t = Instant::now();
    let loaded = load(w, seed);
    let session = (w == Workload::IvmPointsTo)
        .then(|| IncrementalSession::new(loaded.program.clone(), &loaded.input, options.clone()));
    let secs = settled(t);
    (loaded, session, secs)
}

/// `reach`/`pointsto`: from-scratch `minimum_model` calls after edits
/// that alternate between retracting one seeded EDB fact and putting it
/// back, both on the loaded EDB itself. A batch engine answers an edit
/// by re-evaluating, so the poll metrics time the edit plus that
/// re-evaluation and the drop of its result; `eval_s` times the
/// evaluations after a re-insertion, whose EDB holds exactly the loaded
/// facts. The oracle answers both EDBs once, up front.
fn batch(w: Workload, seed: u64, seconds: f64, report: &mut Report) {
    let options = EvalOptions::default().with_threads(w.threads());
    let mut samples = start_samples(w);
    let (loaded, _, _) = set_up(w, seed, &options);
    let Loaded {
        interner,
        program,
        mut input,
    } = loaded;
    let answer_pred = interner.get(w.answer_pred());
    let loaded_answer = w.oracle(&input, &interner);
    report.note(format!(
        "input: {} EDB facts; answer: {} {} facts",
        input.fact_count(),
        loaded_answer.len(),
        w.answer_pred()
    ));
    let (_, pred, fact) = EditScript::new(w, &interner, seed).next_alternating(&input);
    input.retract_fact(pred, &fact);
    let retracted_answer = w.oracle(&input, &interner);
    input.insert_fact(pred, fact.clone());
    // One evaluation of `edb` with its check; returns the seconds up to
    // `minimum_model`'s return and those of the drop that follows.
    let evaluate = |edb: &Instance, expected, report: &mut Report| -> (f64, f64) {
        let t = Instant::now();
        let result = w.batch_eval(&program, edb, options.clone());
        let eval_s = secs(t);
        report.attempted += 1;
        let answer = result
            .as_ref()
            .ok()
            .map(|run| answer_pred.and_then(|p| run.instance.relation(p)));
        if !answer.is_some_and(|a| oracle::matches(a, expected)) {
            report.failed += 1;
        }
        let t = Instant::now();
        drop(result);
        (eval_s, settled(t))
    };
    // One untimed evaluation first: the process's first one also pays
    // for faulting in fresh heap pages, which later ones reuse.
    evaluate(&input, &loaded_answer, report);
    samples.start_segments(report);
    let start = Instant::now();
    while samples.eval_s.is_empty() || samples.setup_s.len() < MIN_SETUPS || secs(start) < seconds {
        let t = Instant::now();
        input.retract_fact(pred, &fact);
        let edit_s = secs(t);
        let (eval_s, drop_s) = evaluate(&input, &retracted_answer, report);
        samples.push_edit(EditKind::Retract, (edit_s + eval_s + drop_s) * 1e3);

        let t = Instant::now();
        input.insert_fact(pred, fact.clone());
        let edit_s = secs(t);
        let (eval_s, drop_s) = evaluate(&input, &loaded_answer, report);
        samples.eval_s.push(samples.timing(eval_s + drop_s));
        samples.push_edit(EditKind::Insert, (edit_s + eval_s + drop_s) * 1e3);
        samples.end_segment();

        samples.setup_slot(w, seed, &options);
    }
    samples.into_report(report);
}

/// `ivm_pointsto`: single-edit polls of an `IncrementalSession`, with
/// checkpoints that check the maintained view against `stratified::eval`
/// (each evaluation an `eval_s` sample) and time a slot of set-ups.
fn incremental(seed: u64, seconds: f64, report: &mut Report) {
    let w = Workload::IvmPointsTo;
    let options = EvalOptions::default().with_threads(w.threads());
    let mut samples = start_samples(w);
    let (loaded, session, _) = set_up(w, seed, &options);
    report.attempted += 1;
    let Some(Ok(mut session)) = session else {
        report.failed += 1;
        return;
    };
    report.note(format!(
        "input: {} EDB facts; answer: {} PT facts",
        session.edb().fact_count(),
        session.instance().fact_count() - session.edb().fact_count(),
    ));
    let mut script = EditScript::new(w, &loaded.interner, seed);
    samples.start_segments(report);

    let checkpoint = |session: &IncrementalSession, samples: &mut Samples, report: &mut Report| {
        for _ in 0..CHECKPOINT_EVALS {
            if let Some(eval_s) = check_scratch(session, &options, report) {
                samples.eval_s.push(samples.timing(eval_s));
            }
        }
        samples.end_segment();
        samples.setup_slot(w, seed, &options);
    };

    let start = Instant::now();
    let mut polls = 0usize;
    while secs(start) < seconds
        || samples.insert_ms.len() < MIN_POLLS_PER_KIND
        || samples.retract_ms.len() < MIN_POLLS_PER_KIND
        || samples.setup_s.len() < MIN_SETUPS
    {
        let edit = script.next_mixed(session.edb());
        let kind = edit.0;
        let (stats, ms) = poll_once(&mut session, edit, report);
        if stats.is_none() {
            break;
        }
        samples.push_edit(kind, ms);
        polls += 1;
        if polls.is_multiple_of(CHECKPOINT_EVERY) {
            checkpoint(&session, &mut samples, report);
        }
    }
    checkpoint(&session, &mut samples, report);
    samples.into_report(report);
}
