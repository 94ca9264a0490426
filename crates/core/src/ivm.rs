//! Incremental view maintenance (IVM): a long-lived evaluation session
//! that keeps a stratified Datalog¬ fixpoint synchronized with
//! insert/retract batches on the EDB instead of recomputing from
//! scratch.
//!
//! A poll updates the one maintained instance in place, through the
//! session's one [`IndexCache`], in the three steps of DRed (Gupta,
//! Mumick & Subrahmanian, SIGMOD 1993):
//!
//! 1. *Overdelete* bottom-up against the untouched instance, which is
//!    the pre-update fixpoint: Δ-variant plans driven over the swept set
//!    ([`Sources::delta_from`]), the EDB retractions plus everything the
//!    strata below may have lost. Strata that read their own heads
//!    positively close this over them; the others decrement lazy support
//!    counts instead, and a tuple whose count stays positive is kept
//!    without any support query.
//! 2. *Apply* the EDB net change, computed from the queued edits in
//!    O(edits), and withdraw the overdeleted tuples as tombstones.
//! 3. Stratum by stratum against the new state: *rederive* withdrawn
//!    tuples that still have support (bound-head plans probe on the head
//!    bindings) or *recount* counted candidates exactly, then run the
//!    semi-naive *insert* closure over the net additions below.
//!
//! Stored counts only ever *under*-estimate the true number of
//! derivations, so a non-positive count falls back to an exact recount —
//! see DESIGN.md § Incremental maintenance for why this is safe exactly
//! there and not under recursion.
//!
//! Three changes force a stratum back onto the batch path ([`PollStats::
//! strata_recomputed`]): a net change to a negated predicate, an
//! active-domain change under a rule whose `Domain` steps enumerate the
//! adom, and a positive read of facts that a recomputed stratum below
//! lost without step 1 having swept them. A recomputed stratum diffs its
//! new heads against its old ones, so the strata above still see an
//! exact change set.

use std::ops::ControlFlow;

use crate::error::EvalError;
use crate::exec::{for_each_match, for_each_match_from, IndexCache, Sources};
use crate::ir::Plan;
use crate::options::EvalOptions;
use crate::planner::{Catalog, PlanMode, Planner};
use crate::require_language;
use crate::seminaive::seminaive_fixpoint;
use crate::subst::{active_domain, instantiate_into, needs_active_domain, Env};
use unchained_common::{
    DeltaHandle, FxHashMap, FxHashSet, HeapSize, Instance, JoinCounters, Relation, Schema, Symbol,
    Tuple, Value,
};
use unchained_parser::{
    check_range_restricted, Atom, DependencyGraph, HeadLiteral, Language, Literal, Program, Rule,
};

/// One queued EDB edit.
#[derive(Clone, Debug)]
struct Edit {
    pred: Symbol,
    tuple: Tuple,
    insert: bool,
}

/// Deterministic work gauges for one [`IncrementalSession::poll`].
#[derive(Clone, Copy, Debug, Default)]
pub struct PollStats {
    /// Net EDB facts the batch changed (inserts + retracts after
    /// cancellation).
    pub applied: u64,
    /// Net facts added to the maintained instance (EDB and IDB).
    pub facts_added: u64,
    /// Net facts removed from the maintained instance (EDB and IDB).
    pub facts_removed: u64,
    /// Tuples withdrawn by the overdelete pass (the DRed overestimate).
    pub overdeleted: u64,
    /// Withdrawn tuples restored from alternative support.
    pub rederived: u64,
    /// Deletions absorbed by a positive support count, with no support
    /// query at all.
    pub support_hits: u64,
    /// Strata skipped because nothing they read changed.
    pub strata_skipped: u64,
    /// Strata recomputed from scratch (negated input or active domain
    /// changed, or a recomputed stratum below lost facts they read).
    pub strata_recomputed: u64,
    /// Satisfying valuations enumerated by Δ-variant and support plans
    /// (join-order invariant, like the batch engines' gauge; fallback
    /// recomputation reports its matches through telemetry stages
    /// instead).
    pub rules_fired: u64,
    /// Join work across every phase of the poll.
    pub joins: JoinCounters,
}

/// What a poll needs to know about one stratum, fixed at construction.
#[derive(Default)]
struct Stratum {
    /// Indices of the stratum's rules in `program.rules`.
    rules: Vec<usize>,
    heads: FxHashSet<Symbol>,
    /// Predicates some rule of the stratum reads positively.
    pos: FxHashSet<Symbol>,
    /// Predicates some rule of the stratum reads negatively.
    neg: FxHashSet<Symbol>,
    /// Some rule has a variable outside every positive body literal
    /// (bound by `Domain` enumeration of the adom).
    adom_dependent: bool,
}

impl Stratum {
    /// No rule reads a head of the stratum positively, so deletions are
    /// support-counted instead of overdeleted.
    fn counted(&self) -> bool {
        self.pos.is_disjoint(&self.heads)
    }
}

/// A long-lived incremental evaluation session over one stratified
/// Datalog¬ program.
///
/// Construction runs the initial fixpoint; afterwards
/// [`insert`](Self::insert)/[`retract`](Self::retract) queue EDB edits
/// and [`poll`](Self::poll) re-stabilizes the IDB strata incrementally.
/// The maintained [`instance`](Self::instance) always equals what
/// [`crate::stratified::eval`] would compute on the current
/// [`edb`](Self::edb) — the edit-script fuzz campaign holds the session
/// to exactly that oracle.
pub struct IncrementalSession {
    program: Program,
    options: EvalOptions,
    strata: Vec<Stratum>,
    schema: Schema,
    /// EDB mirror: exactly the input a from-scratch run would receive.
    edb: Instance,
    /// The maintained fixpoint (EDB plus all IDB strata).
    instance: Instance,
    /// Active domain of (program, edb) as of the last stabilization;
    /// empty when no stratum is adom-dependent, since no plan then
    /// enumerates it.
    adom: Vec<Value>,
    pending: Vec<Edit>,
    /// Long-lived index cache over the maintained instance.
    cache: IndexCache,
    /// IDB predicate → each rule deriving it (index into
    /// `program.rules`) with its bound-head support plan: head variables
    /// prebound, so support checks probe instead of scan.
    support_plans: FxHashMap<Symbol, Vec<(usize, Plan)>>,
    /// Lazy derivation counts for counted predicates; absent = unknown,
    /// stored ≤ true count.
    supports: FxHashMap<Symbol, FxHashMap<Tuple, i64>>,
}

impl IncrementalSession {
    /// Creates a session and computes the initial fixpoint.
    ///
    /// # Errors
    /// Rejects everything [`crate::stratified::eval`] rejects, plus
    /// initial instances that already contain facts for IDB predicates
    /// (input IDB facts would have no derivation to maintain).
    pub fn new(
        program: Program,
        input: &Instance,
        options: EvalOptions,
    ) -> Result<Self, EvalError> {
        require_language(&program, Language::DatalogNeg)?;
        check_range_restricted(&program, false)?;
        let stratification = DependencyGraph::build(&program).stratify()?;
        let schema = program.schema()?;
        let idb = program.idb();
        for (pred, rel) in input.iter() {
            if idb.contains(&pred) && !rel.is_empty() {
                return Err(EvalError::InvalidUpdate(
                    "initial instance contains facts for a derived (IDB) predicate".into(),
                ));
            }
        }

        let mut strata: Vec<Stratum> = Vec::new();
        strata.resize_with(stratification.strata_count().max(1), Stratum::default);
        for (ri, rule) in program.rules.iter().enumerate() {
            let head = head_atom(rule).pred;
            let st = &mut strata[stratification.stratum(head)];
            st.rules.push(ri);
            st.heads.insert(head);
            for lit in &rule.body {
                match lit {
                    Literal::Pos(a) => {
                        st.pos.insert(a.pred);
                    }
                    Literal::Neg(a) => {
                        st.neg.insert(a.pred);
                    }
                    _ => {}
                }
            }
            st.adom_dependent |= needs_active_domain([rule]);
        }

        let adom = if strata.iter().any(|st| st.adom_dependent) {
            active_domain(&program, input)
        } else {
            Vec::new()
        };
        let mut instance = input.clone();
        // The caller keeps `input`: give the maintained relations their
        // own lineage now, so a later edit does not fork an epoch and
        // invalidate the indexes the session builds on them.
        let preds: Vec<Symbol> = instance.symbols().collect();
        for pred in preds {
            if let Some(rel) = instance.relation_mut(pred) {
                rel.fork_epoch_if_shared();
            }
        }
        for pred in idb {
            instance.ensure(pred, schema.arity(pred).expect("idb has arity"));
        }
        let mut cache = IndexCache::new();
        options.telemetry.begin("ivm");
        for st in &strata {
            if !st.rules.is_empty() {
                let rules = rules_of(&program, st);
                seminaive_fixpoint(
                    &rules,
                    &mut instance,
                    &adom,
                    &st.heads,
                    &mut cache,
                    &options,
                )?;
            }
        }

        let mut planner = Planner::new(Catalog::from_instance(&instance), options.plan_mode);
        let mut support_plans: FxHashMap<Symbol, Vec<(usize, Plan)>> = FxHashMap::default();
        for (ri, rule) in program.rules.iter().enumerate() {
            let head = head_atom(rule);
            let plan = planner.plan_rule_bound(rule, &head.vars().collect::<Vec<_>>());
            support_plans.entry(head.pred).or_default().push((ri, plan));
        }

        Ok(IncrementalSession {
            edb: input.clone(),
            program,
            options,
            strata,
            schema,
            instance,
            adom,
            pending: Vec::new(),
            cache,
            support_plans,
            supports: FxHashMap::default(),
        })
    }

    /// The maintained instance (EDB plus derived strata). Between a
    /// queued edit and the next [`poll`](Self::poll) this reflects the
    /// *previous* stable state.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The EDB mirror: the input a from-scratch evaluation of the same
    /// program would receive right now (queued edits not yet applied).
    pub fn edb(&self) -> &Instance {
        &self.edb
    }

    /// The program this session maintains.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of queued, not-yet-polled edits.
    pub fn pending_edits(&self) -> usize {
        self.pending.len()
    }

    /// The IDB portion of the maintained instance (the paper's answer
    /// restriction).
    pub fn answer(&self) -> Instance {
        self.instance.project_schema(self.program.idb())
    }

    /// Queues an EDB insertion.
    ///
    /// # Errors
    /// Rejects edits on IDB predicates and arity mismatches.
    pub fn insert(&mut self, pred: Symbol, tuple: Tuple) -> Result<(), EvalError> {
        self.queue(pred, tuple, true)
    }

    /// Queues an EDB retraction.
    ///
    /// # Errors
    /// Rejects edits on IDB predicates and arity mismatches.
    pub fn retract(&mut self, pred: Symbol, tuple: Tuple) -> Result<(), EvalError> {
        self.queue(pred, tuple, false)
    }

    fn queue(&mut self, pred: Symbol, tuple: Tuple, insert: bool) -> Result<(), EvalError> {
        if self.support_plans.contains_key(&pred) {
            return Err(EvalError::InvalidUpdate(
                "edits must target EDB relations, but this predicate is derived by a rule".into(),
            ));
        }
        // A predicate unknown to the program and the EDB takes its arity
        // from its first queued edit.
        let expected = self
            .schema
            .arity(pred)
            .or_else(|| self.edb.relation(pred).map(Relation::arity))
            .or_else(|| {
                self.pending
                    .iter()
                    .find(|e| e.pred == pred)
                    .map(|e| e.tuple.arity())
            });
        if let Some(arity) = expected {
            if arity != tuple.arity() {
                return Err(EvalError::InvalidUpdate(format!(
                    "arity mismatch: relation has arity {arity}, tuple has arity {}",
                    tuple.arity()
                )));
            }
        }
        self.pending.push(Edit {
            pred,
            tuple,
            insert,
        });
        Ok(())
    }

    /// Applies every queued edit and re-stabilizes the IDB strata
    /// incrementally.
    ///
    /// # Errors
    /// Propagates the stage/fact budget errors of [`EvalOptions`]; the
    /// session stays usable only if `poll` returns `Ok`.
    pub fn poll(&mut self) -> Result<PollStats, EvalError> {
        let mut stats = PollStats::default();
        let joins_entry = self.cache.counters;
        let poll_sw = self.options.telemetry.stopwatch();

        // The net EDB change: the last edit of a fact decides whether it
        // ends up present, so inserting and retracting one tuple in one
        // batch cancels out. `removed`/`added` grow into the poll's exact
        // net change as the strata settle.
        let mut removed = Instance::new();
        let mut added = Instance::new();
        let mut seen: FxHashSet<(Symbol, Tuple)> = FxHashSet::default();
        for edit in self.pending.drain(..).rev() {
            let (pred, tuple) = (edit.pred, edit.tuple);
            if seen.insert((pred, tuple.clone()))
                && edit.insert != self.edb.contains_fact(pred, &tuple)
            {
                let change = if edit.insert {
                    &mut added
                } else {
                    &mut removed
                };
                change.insert_fact(pred, tuple);
            }
        }
        stats.applied = (removed.fact_count() + added.fact_count()) as u64;
        if stats.applied == 0 {
            return Ok(stats);
        }
        let touched =
            |change: &Instance, p: Symbol| change.relation(p).is_some_and(|r| !r.is_empty());
        let plan_mode = self.options.plan_mode;

        // 1. Overdelete bottom-up against the untouched instance. `swept`
        //    collects everything that may be gone — the EDB retractions,
        //    overdeleted tuples and counted candidates — and seeds the
        //    strata above. `None`: the stratum reads nothing swept.
        let mut swept = removed.clone();
        let mut candidates: Vec<Option<Instance>> = Vec::new();
        for st in &self.strata {
            if !st.pos.iter().any(|&p| touched(&swept, p)) {
                candidates.push(None);
                continue;
            }
            let rules = rules_of(&self.program, st);
            candidates.push(Some(if st.counted() {
                counted_sweep(
                    &rules,
                    &self.instance,
                    &mut swept,
                    &mut self.supports,
                    &self.adom,
                    &mut self.cache,
                    plan_mode,
                    &mut stats,
                )
            } else {
                overdelete(
                    &rules,
                    &self.instance,
                    &mut swept,
                    &self.adom,
                    &mut self.cache,
                    plan_mode,
                    self.options.max_stages,
                    &mut stats,
                )?
            }));
        }

        // 2. Apply the EDB net change and withdraw the overdeleted tuples.
        //    Counted candidates stay until their recount.
        for (pred, rel) in removed.iter() {
            for row in rel.iter_stored() {
                self.edb.retract_fact(pred, row);
                self.instance.retract_fact(pred, row);
            }
        }
        for (pred, rel) in added.iter() {
            for row in rel.iter_stored() {
                self.edb.insert_row(pred, row);
                self.instance.insert_row(pred, row);
            }
        }
        for (st, found) in self.strata.iter().zip(&candidates) {
            if !st.counted() {
                for (pred, row) in found.iter().flat_map(facts) {
                    self.instance.retract_fact(pred, row);
                }
            }
        }
        let mut adom_changed = false;
        if self.strata.iter().any(|st| st.adom_dependent) {
            let adom = active_domain(&self.program, &self.edb);
            adom_changed = adom != self.adom;
            self.adom = adom;
        }

        // 3. Stratum by stratum against the new state: rederive or
        //    recount, then close over the net additions below.
        // Heads of recomputed strata that lost facts step 1 never swept.
        let mut unswept: FxHashSet<Symbol> = FxHashSet::default();
        for (st, found) in self.strata.iter().zip(candidates) {
            if st.rules.is_empty() {
                continue;
            }
            let rules = rules_of(&self.program, st);
            let changed = |p: &Symbol| touched(&removed, *p) || touched(&added, *p);
            if st.neg.iter().any(changed)
                || st.pos.iter().any(|p| unswept.contains(p))
                || (adom_changed && st.adom_dependent)
            {
                // Batch fallback: Δ plans over positive literals cannot
                // see growth caused by deletion under negation or by a
                // shifted active domain, nor losses step 1 never swept.
                let mut old: Vec<(Symbol, Relation)> = Vec::new();
                for &p in &st.heads {
                    let rel = self.instance.relation_mut(p).expect("heads exist");
                    let arity = rel.arity();
                    old.push((p, std::mem::replace(rel, Relation::new(arity))));
                    self.supports.remove(&p);
                }
                seminaive_fixpoint(
                    &rules,
                    &mut self.instance,
                    &self.adom,
                    &st.heads,
                    &mut self.cache,
                    &self.options,
                )?;
                // The old heads are what is left of them plus what step 1
                // withdrew.
                for (p, kept) in old {
                    let new = self.instance.relation(p).expect("heads exist");
                    let withdrawn = swept.relation(p);
                    let was_swept = |row: &[Value]| withdrawn.is_some_and(|w| w.contains(row));
                    for row in new.iter_stored() {
                        if !kept.contains(row) && !was_swept(row) {
                            added.insert_row(p, row);
                        }
                    }
                    for row in kept
                        .iter_stored()
                        .chain(withdrawn.into_iter().flat_map(Relation::iter_stored))
                    {
                        if !new.contains(row) {
                            removed.insert_row(p, row);
                            if !was_swept(row) {
                                unswept.insert(p);
                            }
                        }
                    }
                }
                stats.strata_recomputed += 1;
                continue;
            }
            let ins_hit = st.pos.iter().any(|&p| touched(&added, p));
            let Some(found) = found.or_else(|| ins_hit.then(Instance::new)) else {
                stats.strata_skipped += 1;
                continue;
            };
            if st.counted() {
                for (pred, row) in facts(&found) {
                    let count = count_support(
                        pred,
                        row,
                        &self.program,
                        &self.support_plans,
                        &self.instance,
                        &self.adom,
                        &mut self.cache,
                        &mut stats,
                        false,
                    );
                    let counts = self.supports.entry(pred).or_default();
                    counts.insert(Tuple::new(row), count as i64);
                    if count == 0 {
                        self.instance.retract_fact(pred, row);
                    }
                }
            } else {
                rederive(
                    &found,
                    &self.program,
                    &self.support_plans,
                    &mut self.instance,
                    &self.adom,
                    &mut self.cache,
                    &mut stats,
                );
            }
            let new = insert_closure(
                &rules,
                &mut self.instance,
                &added,
                &mut self.supports,
                &self.adom,
                &mut self.cache,
                &self.options,
                &mut stats,
            )?;
            for (pred, row) in facts(&found) {
                if !self.instance.contains_fact(pred, row) {
                    removed.insert_row(pred, row);
                }
            }
            for (pred, row) in facts(&new) {
                if !swept.contains_fact(pred, row) {
                    added.insert_row(pred, row);
                }
            }
        }

        // No commit: freezing the recent tails would move the indexes
        // made current in this poll off their lineage, and the next poll
        // would rebuild them instead of absorbing the change.
        stats.facts_removed = removed.fact_count() as u64;
        stats.facts_added = added.fact_count() as u64;
        stats.joins = self.cache.counters.since(&joins_entry);
        // Each poll is one telemetry stage, so a trace of a session
        // reads as: initial fixpoint rounds, then one record per poll.
        let (facts, bytes) = (
            self.instance.fact_count(),
            self.instance.heap_bytes() as u64,
        );
        self.options.telemetry.with(|t| {
            t.ivm_overdeleted += stats.overdeleted;
            t.ivm_rederived += stats.rederived;
            t.stages.push(unchained_common::StageRecord {
                stage: t.stages.len() + 1,
                wall_nanos: poll_sw.nanos(),
                facts_added: stats.facts_added as usize,
                facts_removed: stats.facts_removed as usize,
                rules_fired: stats.rules_fired,
                delta: Vec::new(),
                bytes,
                joins: stats.joins,
            });
            t.peak_facts = t.peak_facts.max(facts);
            t.bytes_peak = t.bytes_peak.max(bytes);
        });
        Ok(stats)
    }
}

fn head_atom(rule: &Rule) -> &Atom {
    match &rule.head[0] {
        HeadLiteral::Pos(a) => a,
        _ => unreachable!("Datalog¬ rules have a single positive head"),
    }
}

fn rules_of<'p>(program: &'p Program, stratum: &Stratum) -> Vec<&'p Rule> {
    stratum.rules.iter().map(|&ri| &program.rules[ri]).collect()
}

/// Every fact of `instance` as a borrowed row, relation by relation.
fn facts(instance: &Instance) -> impl Iterator<Item = (Symbol, &[Value])> {
    instance
        .iter()
        .flat_map(|(pred, rel)| rel.iter_stored().map(move |row| (pred, row)))
}

/// Seeds a valuation environment from a concrete head tuple: `None` if
/// the tuple contradicts a head constant or a repeated head variable.
fn seed_env(head: &Atom, tuple: &[Value], var_count: usize) -> Option<Env> {
    let mut env: Env = vec![None; var_count];
    for (i, term) in head.args.iter().enumerate() {
        match term {
            unchained_parser::Term::Const(v) => {
                if *v != tuple[i] {
                    return None;
                }
            }
            unchained_parser::Term::Var(v) => match env[v.index()] {
                Some(existing) => {
                    if existing != tuple[i] {
                        return None;
                    }
                }
                None => env[v.index()] = Some(tuple[i]),
            },
        }
    }
    Some(env)
}

/// Counts derivations of `tuple` (or just probes for one, with
/// `first_only`) across every rule whose head predicate matches,
/// against the current `instance`.
#[allow(clippy::too_many_arguments)]
fn count_support(
    pred: Symbol,
    tuple: &[Value],
    program: &Program,
    support_plans: &FxHashMap<Symbol, Vec<(usize, Plan)>>,
    instance: &Instance,
    adom: &[Value],
    cache: &mut IndexCache,
    stats: &mut PollStats,
    first_only: bool,
) -> u64 {
    let mut count = 0u64;
    for (ri, plan) in support_plans.get(&pred).into_iter().flatten() {
        let rule = &program.rules[*ri];
        let Some(mut env) = seed_env(head_atom(rule), tuple, rule.var_count()) else {
            continue;
        };
        let _ = for_each_match_from(
            plan,
            Sources::simple(instance),
            adom,
            cache,
            &mut env,
            &mut |_| {
                count += 1;
                if first_only {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        if first_only && count > 0 {
            break;
        }
    }
    stats.rules_fired += count;
    count
}

/// One semi-naive round over a change set: runs every Δ-variant of
/// `rules` whose Δ literal reads a predicate present in `change`, with
/// the Δ literal reading `change` since `mark` and every other literal
/// reading `full`, and calls `on_head` with each match's head row.
/// Returns the number of matches.
#[allow(clippy::too_many_arguments)]
fn delta_round(
    rules: &[&Rule],
    planner: &mut Planner,
    full: &Instance,
    change: &Instance,
    mark: &DeltaHandle,
    adom: &[Value],
    cache: &mut IndexCache,
    on_head: &mut dyn FnMut(Symbol, &[Value]),
) -> u64 {
    cache.begin_delta_round();
    let changed: FxHashSet<Symbol> = change
        .iter()
        .filter(|(_, r)| !r.is_empty())
        .map(|(p, _)| p)
        .collect();
    let sources = Sources {
        full,
        delta: Some(mark),
        neg: None,
        delta_from: Some(change),
    };
    let mut fired = 0;
    let mut row = Vec::new();
    for rule in rules {
        let head = head_atom(rule);
        for plan in planner.seminaive_variants(rule, &|p| changed.contains(&p)) {
            let _ = for_each_match(&plan, sources, adom, cache, &mut |env| {
                fired += 1;
                instantiate_into(&head.args, env, &mut row);
                on_head(head.pred, &row);
                ControlFlow::Continue(())
            });
        }
    }
    fired
}

/// The DRed overdelete closure for one stratum, against the pre-update
/// fixpoint `instance`: Δ-variant plans driven over `swept`, whose head
/// tuples join `swept` until nothing new is reachable. Returns the
/// stratum's overdeleted tuples, in discovery order per relation.
#[allow(clippy::too_many_arguments)]
fn overdelete(
    rules: &[&Rule],
    instance: &Instance,
    swept: &mut Instance,
    adom: &[Value],
    cache: &mut IndexCache,
    plan_mode: PlanMode,
    max_stages: Option<usize>,
    stats: &mut PollStats,
) -> Result<Instance, EvalError> {
    // The default handle marks all of `swept` as new; captured marks
    // restrict later rounds to the previous round's additions.
    let mut mark = DeltaHandle::default();
    let mut overdeleted = Instance::new();
    let mut planner = Planner::new(Catalog::from_instance(instance), plan_mode);
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        if max_stages.is_some_and(|m| rounds > m) {
            return Err(EvalError::StageLimitExceeded(rounds - 1));
        }
        let mut found = Instance::new();
        stats.rules_fired += delta_round(
            rules,
            &mut planner,
            instance,
            swept,
            &mark,
            adom,
            cache,
            &mut |pred, row| {
                found.insert_row(pred, row);
            },
        );
        mark = DeltaHandle::capture(swept);
        let before = overdeleted.fact_count();
        for (pred, row) in facts(&found) {
            if swept.insert_row(pred, row) {
                overdeleted.insert_row(pred, row);
            }
        }
        if overdeleted.fact_count() == before {
            stats.overdeleted += before as u64;
            return Ok(overdeleted);
        }
    }
}

/// The support-counted sweep for a stratum with no same-stratum positive
/// dependencies, against the pre-update fixpoint `instance`: one Δ pass
/// over `swept` finds every affected head tuple (no cascade is possible
/// within the stratum). A stored count that stays positive absorbs the
/// deletion outright; every other affected tuple joins `swept` and is
/// returned for an exact recount against the new state.
#[allow(clippy::too_many_arguments)]
fn counted_sweep(
    rules: &[&Rule],
    instance: &Instance,
    swept: &mut Instance,
    supports: &mut FxHashMap<Symbol, FxHashMap<Tuple, i64>>,
    adom: &[Value],
    cache: &mut IndexCache,
    plan_mode: PlanMode,
    stats: &mut PollStats,
) -> Instance {
    let mut planner = Planner::new(Catalog::from_instance(instance), plan_mode);
    let mut affected = Instance::new();
    stats.rules_fired += delta_round(
        rules,
        &mut planner,
        instance,
        swept,
        &DeltaHandle::default(),
        adom,
        cache,
        &mut |pred, row| {
            // Every Δ-match witnesses a (possibly repeated) lost
            // derivation: decrementing once per match can only push the
            // stored count *below* the truth, which is the safe
            // direction.
            if let Some(c) = supports.get_mut(&pred).and_then(|m| m.get_mut(row)) {
                *c -= 1;
            }
            affected.insert_row(pred, row);
        },
    );
    let mut candidates = Instance::new();
    for (pred, row) in facts(&affected) {
        if supports
            .get(&pred)
            .and_then(|m| m.get(row))
            .is_some_and(|&c| c > 0)
        {
            stats.support_hits += 1;
        } else {
            swept.insert_row(pred, row);
            candidates.insert_row(pred, row);
        }
    }
    candidates
}

/// The DRed rederivation pass: each withdrawn tuple that still has a
/// derivation from surviving (certified) facts is restored. Iterates to
/// fixpoint because a restored tuple can in turn support another
/// candidate.
#[allow(clippy::too_many_arguments)]
fn rederive(
    candidates: &Instance,
    program: &Program,
    support_plans: &FxHashMap<Symbol, Vec<(usize, Plan)>>,
    instance: &mut Instance,
    adom: &[Value],
    cache: &mut IndexCache,
    stats: &mut PollStats,
) {
    loop {
        let mut changed = false;
        for (pred, row) in facts(candidates) {
            if instance.contains_fact(pred, row) {
                continue;
            }
            let supported = count_support(
                pred,
                row,
                program,
                support_plans,
                instance,
                adom,
                cache,
                stats,
                true,
            ) > 0;
            if supported {
                instance.insert_row(pred, row);
                stats.rederived += 1;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Semi-naive insertion propagation for one stratum: Δ-variant plans
/// over a scratch insert set seeded with `seed`, full scans against the
/// live (growing) instance. Returns the tuples it added, in order per
/// relation.
/// Stored support counts of re-derived tuples are invalidated rather
/// than incremented — a Δ-match with `k` new body tuples is enumerated
/// `k` times, so incrementing could overshoot the truth.
#[allow(clippy::too_many_arguments)]
fn insert_closure(
    rules: &[&Rule],
    instance: &mut Instance,
    seed: &Instance,
    supports: &mut FxHashMap<Symbol, FxHashMap<Tuple, i64>>,
    adom: &[Value],
    cache: &mut IndexCache,
    options: &EvalOptions,
    stats: &mut PollStats,
) -> Result<Instance, EvalError> {
    let mut dins = seed.clone();
    let mut mark = DeltaHandle::default();
    let mut planner = Planner::new(Catalog::from_instance(instance), options.plan_mode);
    let mut new = Instance::new();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        if options.max_stages.is_some_and(|m| rounds > m) {
            return Err(EvalError::StageLimitExceeded(rounds - 1));
        }
        let mut found = Instance::new();
        stats.rules_fired += delta_round(
            rules,
            &mut planner,
            instance,
            &dins,
            &mark,
            adom,
            cache,
            &mut |pred, row| {
                if !instance.contains_fact(pred, row) {
                    found.insert_row(pred, row);
                }
            },
        );
        if found.is_empty() {
            return Ok(new);
        }
        mark = DeltaHandle::capture(&dins);
        for (pred, row) in facts(&found) {
            if instance.insert_row(pred, row) {
                if let Some(m) = supports.get_mut(&pred) {
                    m.remove(row);
                }
                dins.insert_row(pred, row);
                new.insert_row(pred, row);
            }
        }
        if options.max_facts.is_some_and(|m| instance.fact_count() > m) {
            return Err(EvalError::FactLimitExceeded(instance.fact_count()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stratified;
    use unchained_common::{Interner, Value};
    use unchained_parser::parse_program;

    fn tc_program(interner: &mut Interner) -> Program {
        parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).",
            interner,
        )
        .unwrap()
    }

    fn edge(a: i64, b: i64) -> Tuple {
        Tuple::from([Value::Int(a), Value::Int(b)])
    }

    fn chain(interner: &mut Interner, n: i64) -> Instance {
        let g = interner.intern("G");
        let mut inst = Instance::new();
        for k in 0..n - 1 {
            inst.insert_fact(g, edge(k, k + 1));
        }
        inst
    }

    /// The session must equal a from-scratch run on its current EDB.
    fn assert_matches_scratch(session: &IncrementalSession, interner: &Interner) {
        let scratch =
            stratified::eval(session.program(), session.edb(), EvalOptions::default()).unwrap();
        assert!(
            session.instance().same_facts(&scratch.instance),
            "session diverged from from-scratch evaluation:\nsession:\n{}\nscratch:\n{}",
            session.instance().display(interner),
            scratch.instance.display(interner),
        );
    }

    #[test]
    fn inserts_match_from_scratch() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let mut s = IncrementalSession::new(p, &chain(&mut i, 4), EvalOptions::default()).unwrap();
        s.insert(g, edge(3, 4)).unwrap();
        s.insert(g, edge(4, 0)).unwrap();
        let stats = s.poll().unwrap();
        assert!(stats.facts_added > 2, "inserts must derive new T facts");
        assert_eq!(stats.facts_removed, 0);
        assert_matches_scratch(&s, &i);
    }

    #[test]
    fn retractions_match_from_scratch() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let mut s = IncrementalSession::new(p, &chain(&mut i, 6), EvalOptions::default()).unwrap();
        s.retract(g, edge(2, 3)).unwrap();
        let stats = s.poll().unwrap();
        assert!(stats.overdeleted > 0, "a cut chain loses T facts");
        assert!(stats.facts_removed > 1);
        assert_matches_scratch(&s, &i);
    }

    #[test]
    fn alternative_support_is_rederived() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        let mut input = Instance::new();
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            input.insert_fact(g, edge(a, b));
        }
        let mut s = IncrementalSession::new(p, &input, EvalOptions::default()).unwrap();
        s.retract(g, edge(0, 2)).unwrap();
        let stats = s.poll().unwrap();
        // T(0,2) loses its direct edge but survives via G(0,1), T(1,2).
        assert!(s.instance().contains_fact(t, &edge(0, 2)));
        assert!(stats.rederived >= 1, "overdeleted T(0,2) must be restored");
        assert_matches_scratch(&s, &i);
    }

    #[test]
    fn negation_stratum_falls_back_to_recompute() {
        let mut i = Interner::new();
        let p = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).\n\
             CT(x,y) :- !T(x,y).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let mut s = IncrementalSession::new(p, &chain(&mut i, 4), EvalOptions::default()).unwrap();
        s.retract(g, edge(1, 2)).unwrap();
        let stats = s.poll().unwrap();
        assert!(stats.strata_recomputed >= 1, "CT reads ¬T, which shrank");
        assert_matches_scratch(&s, &i);
        // Insert it back: the complement must return to its old state.
        s.insert(g, edge(1, 2)).unwrap();
        s.poll().unwrap();
        assert_matches_scratch(&s, &i);
    }

    #[test]
    fn support_counting_absorbs_deletions_with_remaining_support() {
        let mut i = Interner::new();
        let p = parse_program("P(x) :- A(x). P(x) :- B(x). P(x) :- C(x).", &mut i).unwrap();
        let (a, b, c) = (
            i.get("A").unwrap(),
            i.get("B").unwrap(),
            i.get("C").unwrap(),
        );
        let pp = i.get("P").unwrap();
        let one = Tuple::from([Value::Int(1)]);
        let mut input = Instance::new();
        for pred in [a, b, c] {
            input.insert_fact(pred, one.clone());
        }
        let mut s = IncrementalSession::new(p, &input, EvalOptions::default()).unwrap();
        // First deletion: the count is unknown, so it is established by
        // an exact recount (A and B remain → 2).
        s.retract(c, one.clone()).unwrap();
        let stats = s.poll().unwrap();
        assert_eq!(stats.support_hits, 0);
        assert!(s.instance().contains_fact(pp, &one));
        assert_matches_scratch(&s, &i);
        // Second deletion: 2 − 1 = 1 > 0, absorbed without any query.
        s.retract(a, one.clone()).unwrap();
        let stats = s.poll().unwrap();
        assert_eq!(stats.support_hits, 1);
        assert!(s.instance().contains_fact(pp, &one));
        assert_matches_scratch(&s, &i);
        // Last support gone: 1 − 1 = 0 forces a recount, which deletes.
        s.retract(b, one.clone()).unwrap();
        let stats = s.poll().unwrap();
        assert_eq!(stats.support_hits, 0);
        assert!(!s.instance().contains_fact(pp, &one));
        assert_matches_scratch(&s, &i);
    }

    #[test]
    fn mixed_batch_nets_out_to_nothing() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let mut s = IncrementalSession::new(p, &chain(&mut i, 4), EvalOptions::default()).unwrap();
        let before = s.instance().clone();
        s.insert(g, edge(7, 8)).unwrap();
        s.retract(g, edge(7, 8)).unwrap();
        let stats = s.poll().unwrap();
        assert_eq!(stats.applied, 0);
        assert!(s.instance().same_facts(&before));
        // An empty poll is a no-op too.
        let stats = s.poll().unwrap();
        assert_eq!(stats.applied, 0);
    }

    #[test]
    fn rejects_idb_edits_arity_mismatches_and_idb_input() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let t = i.get("T").unwrap();
        let mut s =
            IncrementalSession::new(p.clone(), &chain(&mut i, 3), EvalOptions::default()).unwrap();
        assert!(matches!(
            s.insert(t, edge(0, 1)),
            Err(EvalError::InvalidUpdate(_))
        ));
        assert!(matches!(
            s.retract(g, Tuple::from([Value::Int(0)])),
            Err(EvalError::InvalidUpdate(_))
        ));
        let mut tainted = Instance::new();
        tainted.insert_fact(t, edge(0, 1));
        assert!(matches!(
            IncrementalSession::new(p, &tainted, EvalOptions::default()),
            Err(EvalError::InvalidUpdate(_))
        ));
    }

    #[test]
    fn unknown_predicate_takes_its_arity_from_the_first_queued_edit() {
        let mut i = Interner::new();
        let p = tc_program(&mut i);
        let h = i.intern("H");
        let mut s = IncrementalSession::new(p, &chain(&mut i, 3), EvalOptions::default()).unwrap();
        s.insert(h, Tuple::from([Value::Int(1)])).unwrap();
        assert!(matches!(
            s.insert(h, edge(1, 2)),
            Err(EvalError::InvalidUpdate(_))
        ));
        assert_eq!(s.pending_edits(), 1, "the rejected edit is not queued");
        s.poll().unwrap();
        assert_matches_scratch(&s, &i);
    }

    #[test]
    fn reader_of_a_recomputed_stratum_that_lost_facts_is_recomputed() {
        let mut i = Interner::new();
        // N is recomputed whenever T changes. U reads N positively, one
        // stratum higher because it negates E (always empty).
        let p = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).\n\
             N(x) :- V(x), !T(x,x).\n\
             E(x) :- Q(x), !T(x,x).\n\
             U(x) :- N(x), W(x), !E(x).",
            &mut i,
        )
        .unwrap();
        let (g, v, w) = (
            i.get("G").unwrap(),
            i.get("V").unwrap(),
            i.get("W").unwrap(),
        );
        let u = i.get("U").unwrap();
        let one = |x: i64| Tuple::from([Value::Int(x)]);
        let mut input = chain(&mut i, 3);
        for x in 0..4 {
            input.insert_fact(v, one(x));
        }
        for x in [0, 1, 3] {
            input.insert_fact(w, one(x));
        }
        let mut s = IncrementalSession::new(p, &input, EvalOptions::default()).unwrap();
        // Closing the cycle puts T(x,x) in for x = 0, 1, 2: N loses those
        // facts by recomputation, which step 1 never swept, so U has to
        // be recomputed too.
        s.insert(g, edge(2, 0)).unwrap();
        let stats = s.poll().unwrap();
        assert_eq!(stats.strata_recomputed, 2, "N and its reader U");
        assert!(!s.instance().contains_fact(u, &one(0)));
        assert!(s.instance().contains_fact(u, &one(3)));
        assert_matches_scratch(&s, &i);
        // Opening it again only grows N, which U absorbs incrementally.
        s.retract(g, edge(2, 0)).unwrap();
        let stats = s.poll().unwrap();
        assert_eq!(stats.strata_recomputed, 1, "N only");
        assert!(s.instance().contains_fact(u, &one(0)));
        assert_matches_scratch(&s, &i);
    }

    /// A poll's index work depends on the edit, not on the database: TC
    /// over disjoint two-edge paths, after a warm-up poll, retracting
    /// one more edge must build and probe exactly as much at 100 paths
    /// as at 1,000.
    #[test]
    fn poll_work_is_independent_of_database_size() {
        let second_poll = |paths: i64| {
            let mut i = Interner::new();
            let p = tc_program(&mut i);
            let g = i.get("G").unwrap();
            let mut input = Instance::new();
            for a in (0..paths).map(|k| 3 * k) {
                input.insert_fact(g, edge(a, a + 1));
                input.insert_fact(g, edge(a + 1, a + 2));
            }
            let mut s = IncrementalSession::new(p, &input, EvalOptions::default()).unwrap();
            s.retract(g, edge(0, 1)).unwrap();
            s.poll().unwrap();
            s.retract(g, edge(3, 4)).unwrap();
            let stats = s.poll().unwrap();
            assert_matches_scratch(&s, &i);
            // Re-inserting a retracted edge appends a fresh copy: the
            // indexes absorb it instead of rebuilding over all of G.
            s.insert(g, edge(0, 1)).unwrap();
            let reinsert = s.poll().unwrap();
            assert_matches_scratch(&s, &i);
            (stats.joins, reinsert.joins)
        };
        let ((small, small_re), (large, large_re)) = (second_poll(100), second_poll(1000));
        assert_eq!(small.indexed_tuples, large.indexed_tuples);
        assert_eq!(small.probes, large.probes);
        assert_eq!(small_re.indexed_tuples, large_re.indexed_tuples);
        assert_eq!(small_re.probes, large_re.probes);
    }

    #[test]
    fn updates_across_strata_cascade() {
        let mut i = Interner::new();
        // Three strata with only positive inter-stratum dependencies.
        let p = parse_program(
            "T(x,y) :- G(x,y).\n\
             T(x,y) :- G(x,z), T(z,y).\n\
             S(x) :- T(x,x).\n\
             U(x) :- S(x), V(x).",
            &mut i,
        )
        .unwrap();
        let g = i.get("G").unwrap();
        let v = i.get("V").unwrap();
        let mut input = Instance::new();
        for (a, b) in [(0, 1), (1, 2)] {
            input.insert_fact(g, edge(a, b));
        }
        input.insert_fact(v, Tuple::from([Value::Int(0)]));
        let mut s = IncrementalSession::new(p, &input, EvalOptions::default()).unwrap();
        // Close the cycle: S(0), S(1), S(2) and U(0) appear.
        s.insert(g, edge(2, 0)).unwrap();
        s.poll().unwrap();
        assert_matches_scratch(&s, &i);
        // Cut it again: the cascade must retract through S into U.
        s.retract(g, edge(2, 0)).unwrap();
        let stats = s.poll().unwrap();
        assert!(stats.facts_removed > 0);
        assert_matches_scratch(&s, &i);
    }

    /// The acceptance gauge of ISSUE 9: after a retraction on the
    /// chain-TC workload, one poll must do strictly less join work than
    /// recomputing from scratch — by the deterministic gauges, not wall
    /// time.
    #[test]
    fn chain_tc_retraction_beats_from_scratch_on_work_gauges() {
        let mut i = Interner::new();
        let n = 48i64;
        let p = tc_program(&mut i);
        let g = i.get("G").unwrap();
        let mut s = IncrementalSession::new(p, &chain(&mut i, n), EvalOptions::default()).unwrap();
        s.retract(g, edge(n - 2, n - 1)).unwrap();
        let stats = s.poll().unwrap();
        assert_matches_scratch(&s, &i);

        let telemetry = unchained_common::Telemetry::enabled();
        let scratch = stratified::eval(
            s.program(),
            s.edb(),
            EvalOptions::default().with_telemetry(telemetry.clone()),
        )
        .unwrap();
        let trace = telemetry.snapshot().unwrap();
        assert!(scratch.instance.same_facts(s.instance()));
        assert!(
            stats.rules_fired < trace.rules_fired,
            "poll fired {} vs from-scratch {}",
            stats.rules_fired,
            trace.rules_fired
        );
        assert!(
            stats.joins.probe_tuples < trace.joins.probe_tuples,
            "poll probed {} tuples vs from-scratch {}",
            stats.joins.probe_tuples,
            trace.joins.probe_tuples
        );
        // The margin is structural (O(n) vs O(n²)), so assert a real
        // gap rather than a knife's edge.
        assert!(stats.rules_fired * 4 < trace.rules_fired);
    }
}
