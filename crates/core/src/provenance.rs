//! Why-provenance for positive Datalog: record, for every derived
//! fact, the rule and premise facts of its first derivation, and
//! explain answers as derivation trees.
//!
//! Deductive databases justify their answers — the "deduction" in the
//! name (Section 3.1). This module instruments the naive engine to keep
//! one witness derivation per fact (why-provenance in the
//! minimal-witness sense); because a fact's premises were present
//! *before* the fact was first inserted, the recorded graph is acyclic
//! and [`explain`] always terminates.

use crate::error::EvalError;
use crate::exec::{for_each_match, IndexCache, Sources};
use crate::ir::Plan;
use crate::options::EvalOptions;
use crate::planner::plan_rule;
use crate::require_language;
use crate::subst::{active_domain, instantiate};
use std::ops::ControlFlow;
use unchained_common::{FxHashMap, Instance, Interner, Symbol, Tuple};
use unchained_parser::{check_range_restricted, HeadLiteral, Language, Literal, Program};

/// One recorded derivation step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// Index of the rule that fired.
    pub rule: usize,
    /// The instantiated positive body atoms used as premises.
    pub premises: Vec<(Symbol, Tuple)>,
}

/// A fixpoint run with provenance.
#[derive(Clone, Debug)]
pub struct ProvenanceRun {
    /// The minimum model (input included).
    pub instance: Instance,
    /// Stages performed.
    pub stages: usize,
    /// First derivation of every *derived* fact (input facts absent).
    pub why: FxHashMap<(Symbol, Tuple), Derivation>,
}

impl ProvenanceRun {
    /// The derivation of a fact, if it was derived (rather than given).
    pub fn derivation(&self, pred: Symbol, tuple: &Tuple) -> Option<&Derivation> {
        self.why.get(&(pred, tuple.clone()))
    }
}

/// Computes the minimum model of a positive Datalog program while
/// recording one derivation per derived fact.
///
/// ```
/// use unchained_common::{Instance, Interner, Tuple, Value};
/// use unchained_core::provenance::{explain, minimum_model_with_provenance};
/// use unchained_core::EvalOptions;
/// use unchained_parser::parse_program;
///
/// let mut interner = Interner::new();
/// let program = parse_program(
///     "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).",
///     &mut interner,
/// ).unwrap();
/// let g = interner.get("G").unwrap();
/// let t = interner.get("T").unwrap();
/// let mut input = Instance::new();
/// input.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
/// input.insert_fact(g, Tuple::from([Value::Int(2), Value::Int(3)]));
/// let run = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
/// let tree = explain(&run, t, &Tuple::from([Value::Int(1), Value::Int(3)]), &interner);
/// assert!(tree.contains("(given)"));
/// ```
pub fn minimum_model_with_provenance(
    program: &Program,
    input: &Instance,
    options: EvalOptions,
) -> Result<ProvenanceRun, EvalError> {
    require_language(program, Language::Datalog)?;
    check_range_restricted(program, false)?;

    let adom = active_domain(program, input);
    let plans: Vec<Plan> = program.rules.iter().map(plan_rule).collect();
    // Premise templates: the positive body atoms of each rule, in body
    // order.
    let premise_templates: Vec<Vec<&unchained_parser::Atom>> = program
        .rules
        .iter()
        .map(|r| {
            r.body
                .iter()
                .filter_map(|l| match l {
                    Literal::Pos(a) => Some(a),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let mut cache = IndexCache::new();
    let mut instance = input.clone();
    let schema = program.schema()?;
    for pred in program.idb() {
        instance.ensure(pred, schema.arity(pred).expect("idb has arity"));
    }
    let mut why: FxHashMap<(Symbol, Tuple), Derivation> = FxHashMap::default();

    let mut stages = 0;
    loop {
        stages += 1;
        if options.max_stages.is_some_and(|m| stages > m) {
            return Err(EvalError::StageLimitExceeded(stages - 1));
        }
        let mut new_facts: Vec<(Symbol, Tuple, Derivation)> = Vec::new();
        for (ridx, (rule, plan)) in program.rules.iter().zip(&plans).enumerate() {
            let HeadLiteral::Pos(head) = &rule.head[0] else {
                unreachable!("pure Datalog heads are positive")
            };
            let templates = &premise_templates[ridx];
            let _ = for_each_match(
                plan,
                Sources::simple(&instance),
                &adom,
                &mut cache,
                &mut |env| {
                    let tuple = instantiate(&head.args, env);
                    if !instance.contains_fact(head.pred, &tuple) {
                        let premises = templates
                            .iter()
                            .map(|a| (a.pred, instantiate(&a.args, env)))
                            .collect();
                        new_facts.push((
                            head.pred,
                            tuple,
                            Derivation {
                                rule: ridx,
                                premises,
                            },
                        ));
                    }
                    ControlFlow::Continue(())
                },
            );
        }
        let mut changed = false;
        for (pred, tuple, derivation) in new_facts {
            if instance.insert_fact(pred, tuple.clone()) {
                changed = true;
                why.entry((pred, tuple)).or_insert(derivation);
            }
        }
        if !changed {
            return Ok(ProvenanceRun {
                instance,
                stages,
                why,
            });
        }
    }
}

/// Renders the derivation tree of `pred(tuple)` as indented text.
/// Input facts print as `⊢ fact (given)`; derived facts list their
/// rule and recurse into the premises.
pub fn explain(run: &ProvenanceRun, pred: Symbol, tuple: &Tuple, interner: &Interner) -> String {
    fn fact_str(pred: Symbol, tuple: &Tuple, interner: &Interner) -> String {
        if tuple.arity() == 0 {
            interner.name(pred).to_string()
        } else {
            format!("{}{}", interner.name(pred), tuple.display(interner))
        }
    }
    fn rec(
        run: &ProvenanceRun,
        pred: Symbol,
        tuple: &Tuple,
        interner: &Interner,
        indent: usize,
        out: &mut String,
    ) {
        let pad = "  ".repeat(indent);
        match run.derivation(pred, tuple) {
            None => {
                if run.instance.contains_fact(pred, tuple) {
                    out.push_str(&format!(
                        "{pad}⊢ {} (given)\n",
                        fact_str(pred, tuple, interner)
                    ));
                } else {
                    out.push_str(&format!(
                        "{pad}✗ {} (not derivable)\n",
                        fact_str(pred, tuple, interner)
                    ));
                }
            }
            Some(d) => {
                out.push_str(&format!(
                    "{pad}⊢ {} (rule {})\n",
                    fact_str(pred, tuple, interner),
                    d.rule
                ));
                for (p, t) in &d.premises {
                    rec(run, *p, t, interner, indent + 1, out);
                }
            }
        }
    }
    let mut out = String::new();
    rec(run, pred, tuple, interner, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::Value;
    use unchained_parser::parse_program;

    fn setup() -> (Interner, Program, Instance) {
        let mut i = Interner::new();
        let program =
            parse_program("T(x,y) :- G(x,y).\nT(x,y) :- G(x,z), T(z,y).", &mut i).unwrap();
        let g = i.get("G").unwrap();
        let mut input = Instance::new();
        for k in 0..4i64 {
            input.insert_fact(g, Tuple::from([Value::Int(k), Value::Int(k + 1)]));
        }
        (i, program, input)
    }

    #[test]
    fn provenance_agrees_with_plain_evaluation() {
        let (_, program, input) = setup();
        let prov = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
        let plain =
            crate::seminaive::minimum_model(&program, &input, EvalOptions::default()).unwrap();
        assert!(prov.instance.same_facts(&plain.instance));
    }

    #[test]
    fn every_derived_fact_has_a_derivation_over_present_facts() {
        let (mut i, program, input) = setup();
        let t = i.intern("T");
        let prov = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
        let rel = prov.instance.relation(t).unwrap();
        assert_eq!(rel.len(), 10);
        for tuple in rel.iter() {
            let d = prov
                .derivation(t, &tuple.to_tuple())
                .expect("derived fact has provenance");
            for (p, prem) in &d.premises {
                assert!(prov.instance.contains_fact(*p, prem));
            }
        }
    }

    #[test]
    fn explain_renders_a_tree_down_to_given_facts() {
        let (i, program, input) = setup();
        let t = i.get("T").unwrap();
        let prov = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
        let tree = explain(&prov, t, &Tuple::from([Value::Int(0), Value::Int(3)]), &i);
        // The tree bottoms out in given G facts and derives through T.
        assert!(tree.contains("⊢ T(0, 3) (rule 1)"), "{tree}");
        assert!(tree.contains("(given)"), "{tree}");
        // Distance-3 fact: at least three G premises appear.
        assert_eq!(tree.matches("(given)").count(), 3, "{tree}");
    }

    #[test]
    fn explain_handles_underivable_and_input_facts() {
        let (mut i, program, input) = setup();
        let g = i.intern("G");
        let t = i.intern("T");
        let prov = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
        let given = explain(&prov, g, &Tuple::from([Value::Int(0), Value::Int(1)]), &i);
        assert!(given.contains("(given)"));
        let missing = explain(&prov, t, &Tuple::from([Value::Int(3), Value::Int(0)]), &i);
        assert!(missing.contains("not derivable"));
    }

    #[test]
    fn first_derivation_uses_shortest_expansion() {
        // The base rule (rule 0) derives distance-1 pairs; recursion
        // builds on them. The first recorded derivation of T(0,1) is
        // via rule 0, not a longer one.
        let (mut i, program, input) = setup();
        let t = i.intern("T");
        let prov = minimum_model_with_provenance(&program, &input, EvalOptions::default()).unwrap();
        let d = prov
            .derivation(t, &Tuple::from([Value::Int(0), Value::Int(1)]))
            .unwrap();
        assert_eq!(d.rule, 0);
        assert_eq!(d.premises.len(), 1);
    }

    #[test]
    fn rejects_non_datalog() {
        let mut i = Interner::new();
        let program = parse_program("A(x) :- B(x), !C(x).", &mut i).unwrap();
        assert!(matches!(
            minimum_model_with_provenance(&program, &Instance::new(), EvalOptions::default()),
            Err(EvalError::WrongLanguage { .. })
        ));
    }
}
