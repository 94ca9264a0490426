//! The three workloads: their inputs, programs, oracles and edits.

use std::time::Instant;

use unchained_common::{Instance, Interner, Rng, Symbol, Tuple, Value};
use unchained_core::{
    seminaive, stratified, EvalError, EvalOptions, FixpointRun, IncrementalSession, PollStats,
};
use unchained_harness::{generators, programs};
use unchained_parser::{parse_program, Program};

use crate::oracle::{self, Answer};
use crate::report::Report;
use crate::stats::{secs, settled};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `REACH` over a random out-degree-4 digraph on 260,000 nodes plus
    /// 16 sources, evaluated by `seminaive::minimum_model` at 1 thread.
    Reach,
    /// `POINTSTO` over a 440,000-fact random Andersen input, evaluated by
    /// `seminaive::minimum_model` at 2 threads.
    PointsTo,
    /// An `IncrementalSession` over `POINTSTO` on a 22,000-fact input at
    /// 1 thread, driven by single-edit polls.
    IvmPointsTo,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "reach" => Some(Workload::Reach),
            "pointsto" => Some(Workload::PointsTo),
            "ivm_pointsto" => Some(Workload::IvmPointsTo),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reach => "reach",
            Workload::PointsTo => "pointsto",
            Workload::IvmPointsTo => "ivm_pointsto",
        }
    }

    /// Worker threads of the workload's evaluations.
    pub fn threads(self) -> usize {
        match self {
            Workload::PointsTo => 2,
            Workload::Reach | Workload::IvmPointsTo => 1,
        }
    }

    /// The program's source text.
    pub fn program_text(self) -> &'static str {
        match self {
            Workload::Reach => programs::REACH,
            Workload::PointsTo | Workload::IvmPointsTo => programs::POINTSTO,
        }
    }

    /// The derived relation the oracle checks.
    pub fn answer_pred(self) -> &'static str {
        match self {
            Workload::Reach => "R",
            Workload::PointsTo | Workload::IvmPointsTo => "PT",
        }
    }

    /// The EDB relations edits retract from and re-insert into.
    fn edit_preds(self) -> &'static [&'static str] {
        match self {
            Workload::Reach => &["G"],
            Workload::PointsTo | Workload::IvmPointsTo => &["Assign", "Load", "Store"],
        }
    }

    /// Builds the workload's EDB from `seed`.
    pub fn generate(self, interner: &mut Interner, seed: u64) -> Instance {
        match self {
            Workload::Reach => {
                const NODES: i64 = 260_000;
                generators::merge(
                    generators::random_out_digraph(interner, "G", NODES, 4, mix(seed, 1)),
                    &generators::random_unary(interner, "S", NODES, 16, mix(seed, 2)),
                )
            }
            Workload::PointsTo | Workload::IvmPointsTo => {
                let vars: i64 = if self == Workload::PointsTo {
                    320_000
                } else {
                    16_000
                };
                // The subcritical statement mix of the repository's
                // `scale_pointsto` rows: EDB = 11·vars/8 facts.
                generators::random_pointsto(
                    interner,
                    vars,
                    vars / 4,
                    vars / 16,
                    vars / 16,
                    mix(seed, 3),
                )
            }
        }
    }

    /// The expected answer on `input`, computed without `core::exec`.
    pub fn oracle(self, input: &Instance, interner: &Interner) -> Answer {
        match self {
            Workload::Reach => oracle::reach(input, interner),
            Workload::PointsTo | Workload::IvmPointsTo => oracle::pointsto(input, interner),
        }
    }

    /// The workload's from-scratch evaluation: `minimum_model` for the
    /// batch workloads, `stratified::eval` (the engine an
    /// `IncrementalSession` is held to) for `ivm_pointsto`.
    pub fn batch_eval(
        self,
        program: &Program,
        input: &Instance,
        options: EvalOptions,
    ) -> Result<FixpointRun, EvalError> {
        match self {
            Workload::IvmPointsTo => stratified::eval(program, input, options),
            Workload::Reach | Workload::PointsTo => {
                seminaive::minimum_model(program, input, options)
            }
        }
    }
}

/// Derives an independent generator seed per input component.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut rng = Rng::seeded(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// A generated workload ready to run.
pub struct Loaded {
    /// Interner holding the program's and the input's symbols.
    pub interner: Interner,
    /// The parsed program.
    pub program: Program,
    /// The EDB.
    pub input: Instance,
}

/// Generates the input and parses the program.
pub fn load(w: Workload, seed: u64) -> Loaded {
    let mut interner = Interner::new();
    let input = w.generate(&mut interner, seed);
    let program = parse_program(w.program_text(), &mut interner).expect("workload program parses");
    Loaded {
        interner,
        program,
        input,
    }
}

/// What one poll of an edit script does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// Re-inserts a previously retracted fact.
    Insert,
    /// Retracts a present fact.
    Retract,
    /// Retracts a fact that is absent, so nothing changes.
    Noop,
}

/// One single-fact edit: what it does, the relation and the fact.
pub type Edit = (EditKind, Symbol, Tuple);

/// A seeded stream of single-fact edits over a workload's edit
/// relations: retractions of present facts, re-insertions of retracted
/// ones, and retractions of absent facts.
pub struct EditScript {
    rng: Rng,
    preds: Vec<Symbol>,
    retracted: Vec<(Symbol, Tuple)>,
    noops: i64,
}

impl EditScript {
    /// A script over `w`'s edit relations.
    pub fn new(w: Workload, interner: &Interner, seed: u64) -> EditScript {
        EditScript {
            rng: Rng::seeded(mix(seed, 4)),
            preds: w
                .edit_preds()
                .iter()
                .map(|p| interner.get(p).expect("edit relation is interned"))
                .collect(),
            retracted: Vec::new(),
            noops: 0,
        }
    }

    /// The next edit against `edb`: 20% no-ops, and otherwise an even
    /// split of retractions and re-insertions (a retraction when
    /// nothing is left to re-insert).
    pub fn next_mixed(&mut self, edb: &Instance) -> Edit {
        let roll = self.rng.gen_index(10);
        if roll < 2 {
            self.noop()
        } else if roll < 6 && !self.retracted.is_empty() {
            self.reinsert()
        } else {
            self.retract(edb)
        }
    }

    /// Alternates a retraction with the re-insertion of the same fact,
    /// so the EDB returns to its loaded state after every second edit.
    pub fn next_alternating(&mut self, edb: &Instance) -> Edit {
        if self.retracted.is_empty() {
            self.retract(edb)
        } else {
            self.reinsert()
        }
    }

    fn retract(&mut self, edb: &Instance) -> Edit {
        let sizes: Vec<usize> = self
            .preds
            .iter()
            .map(|&p| edb.relation(p).map_or(0, |r| r.len()))
            .collect();
        let mut k = self.rng.gen_index(sizes.iter().sum::<usize>().max(1));
        for (&pred, &size) in self.preds.iter().zip(&sizes) {
            if k < size {
                let tuple = edb
                    .relation(pred)
                    .and_then(|r| r.iter().nth(k))
                    .expect("index within the relation")
                    .clone();
                self.retracted.push((pred, tuple.clone()));
                return (EditKind::Retract, pred, tuple);
            }
            k -= size;
        }
        // Every edit relation is empty: nothing to retract.
        self.noop()
    }

    fn reinsert(&mut self) -> Edit {
        let i = self.rng.gen_index(self.retracted.len());
        let (pred, tuple) = self.retracted.swap_remove(i);
        (EditKind::Insert, pred, tuple)
    }

    /// A retraction of a fact that is absent from every input.
    pub fn noop(&mut self) -> Edit {
        // Negative values never occur in generated inputs.
        self.noops += 1;
        let tuple = Tuple::from([Value::Int(-self.noops), Value::Int(-1)]);
        (EditKind::Noop, self.preds[0], tuple)
    }
}

/// Queues `edit` on `session`, polls, and counts the poll in `report`
/// (it fails if either call returns `Err`). Returns the poll's stats,
/// `None` if it failed, and its milliseconds: from the `insert` or
/// `retract` call until the process is quiet after `poll()` returned
/// (see [`settled`]).
pub fn poll_once(
    session: &mut IncrementalSession,
    (kind, pred, tuple): Edit,
    report: &mut Report,
) -> (Option<PollStats>, f64) {
    let t = Instant::now();
    let queued = match kind {
        EditKind::Insert => session.insert(pred, tuple),
        EditKind::Retract | EditKind::Noop => session.retract(pred, tuple),
    };
    let result = queued.and_then(|()| session.poll());
    let ms = settled(t) * 1e3;
    report.attempted += 1;
    if result.is_err() {
        report.failed += 1;
    }
    (result.ok(), ms)
}

/// Evaluates `session`'s EDB from scratch with `stratified::eval` and
/// counts the evaluation in `report`: it fails if it returns `Err` or
/// if its answer differs from the session's maintained instance.
/// Returns the seconds of the evaluation plus the drop of its result
/// (through [`settled`]), or `None` if it returned `Err`.
pub fn check_scratch(
    session: &IncrementalSession,
    options: &EvalOptions,
    report: &mut Report,
) -> Option<f64> {
    let t = Instant::now();
    let result = stratified::eval(session.program(), session.edb(), options.clone());
    let eval_s = secs(t);
    report.attempted += 1;
    let Ok(run) = result else {
        report.failed += 1;
        return None;
    };
    if !session.instance().same_facts(&run.instance) {
        report.failed += 1;
    }
    let t = Instant::now();
    drop(run);
    Some(eval_s + settled(t))
}
