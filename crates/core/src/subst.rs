//! Substitution helpers shared by every engine: valuation
//! environments, term evaluation, head instantiation, the active
//! domain, and the fact-merge loop of the parallel-firing fixpoints.
//!
//! Before the IR refactor these helpers were copy-pasted (with small
//! drift) across `eval.rs`, `naive.rs`, and `inflationary.rs`; they now
//! live here once.

use unchained_common::{FxHashMap, FxHashSet, Instance, Symbol, Tuple, Value};
use unchained_parser::{Literal, Rule, Term, Var};

/// A valuation environment: one slot per rule variable.
pub type Env = Vec<Option<Value>>;

/// Evaluates `term` under `env`.
///
/// # Panics
/// Panics if the term is an unbound variable — the planner guarantees
/// this cannot happen for well-formed plans.
#[inline]
pub fn term_value(term: &Term, env: &Env) -> Value {
    match term {
        Term::Const(v) => *v,
        Term::Var(v) => env[v.index()].expect("planner bound all variables"),
    }
}

/// Instantiates `args` under a complete environment.
pub fn instantiate(args: &[Term], env: &Env) -> Tuple {
    args.iter().map(|t| term_value(t, env)).collect()
}

/// Instantiates `args` into the reused buffer `row`, replacing its
/// contents: the allocation-free form of [`instantiate`].
pub fn instantiate_into(args: &[Term], env: &Env, row: &mut Vec<Value>) {
    row.clear();
    row.extend(args.iter().map(|t| term_value(t, env)));
}

/// True iff some rule has a variable that no positive body atom binds.
/// Only such a rule can compile to a plan with a `Domain` step, the one
/// step that reads the active domain, so engines build
/// [`active_domain`] only when this holds.
pub fn needs_active_domain<'r>(rules: impl IntoIterator<Item = &'r Rule>) -> bool {
    rules.into_iter().any(|rule| {
        let positive: FxHashSet<Var> = rule
            .body
            .iter()
            .filter_map(|lit| match lit {
                Literal::Pos(atom) => Some(atom.vars()),
                _ => None,
            })
            .flatten()
            .collect();
        rule.head_vars()
            .into_iter()
            .chain(rule.body_vars())
            .any(|v| !positive.contains(&v))
    })
}

/// Computes the sorted active domain `adom(P, I)`: constants of the
/// program plus values of the instance.
pub fn active_domain(program: &unchained_parser::Program, instance: &Instance) -> Vec<Value> {
    let mut dom = instance.adom();
    dom.extend(program.adom());
    let mut v: Vec<Value> = dom.into_iter().collect();
    v.sort_unstable();
    v
}

/// Merges `new_facts` into `instance`, reporting whether anything
/// changed and (only when `enabled`) the per-predicate delta counts.
pub fn merge_new_facts(
    instance: &mut Instance,
    new_facts: Vec<(Symbol, Tuple)>,
    enabled: bool,
) -> (bool, Vec<(Symbol, usize)>) {
    merge_new_facts_with(instance, new_facts, enabled, &mut |_, _| {})
}

/// Like [`merge_new_facts`], invoking `on_insert` for every fact that
/// was actually new (the inflationary traced engine records birth
/// stages this way).
pub fn merge_new_facts_with(
    instance: &mut Instance,
    new_facts: Vec<(Symbol, Tuple)>,
    enabled: bool,
    on_insert: &mut dyn FnMut(Symbol, &Tuple),
) -> (bool, Vec<(Symbol, usize)>) {
    let mut changed = false;
    let mut delta: Vec<(Symbol, usize)> = Vec::new();
    for (pred, tuple) in new_facts {
        if instance.insert_fact(pred, tuple.clone()) {
            changed = true;
            on_insert(pred, &tuple);
            if enabled {
                match delta.iter_mut().find(|(p, _)| *p == pred) {
                    Some((_, n)) => *n += 1,
                    None => delta.push((pred, 1)),
                }
            }
        }
    }
    (changed, delta)
}

/// Records the birth stage of each newly inserted fact into `birth`
/// (first insertion wins), for use as a `merge_new_facts_with` hook.
pub fn record_births<'a>(
    birth: &'a mut FxHashMap<(Symbol, Tuple), usize>,
    stage: usize,
) -> impl FnMut(Symbol, &Tuple) + 'a {
    move |pred, tuple| {
        birth.entry((pred, tuple.clone())).or_insert(stage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unchained_common::Interner;
    use unchained_parser::parse_program;

    #[test]
    fn term_value_and_instantiate() {
        let mut i = Interner::new();
        let program = parse_program("P(x, 7) :- Q(x).", &mut i).unwrap();
        let head = match &program.rules[0].head[0] {
            unchained_parser::HeadLiteral::Pos(a) => a,
            _ => unreachable!(),
        };
        let env: Env = vec![Some(Value::Int(3))];
        assert_eq!(
            instantiate(&head.args, &env),
            Tuple::from([Value::Int(3), Value::Int(7)])
        );
    }

    #[test]
    fn active_domain_merges_program_and_instance_constants() {
        let mut i = Interner::new();
        let program = parse_program("P(x) :- Q(x), x != 9.", &mut i).unwrap();
        let q = i.get("Q").unwrap();
        let mut instance = Instance::new();
        instance.insert_fact(q, Tuple::from([Value::Int(1)]));
        let adom = active_domain(&program, &instance);
        assert_eq!(adom, vec![Value::Int(1), Value::Int(9)]);
    }

    #[test]
    fn domain_is_needed_only_for_variables_outside_positive_atoms() {
        let mut i = Interner::new();
        let needs = |src: &str, i: &mut Interner| {
            needs_active_domain(&parse_program(src, i).unwrap().rules)
        };
        assert!(!needs(
            "T(x,y) :- G(x,y). T(x,y) :- G(x,z), T(z,y).",
            &mut i
        ));
        assert!(!needs("P(x) :- Q(x), x != 9, !R(x).", &mut i));
        // Only under an inequality, only under negation, only in an
        // equality with another unbound variable.
        assert!(needs("P(x) :- Q(x), x != z.", &mut i));
        assert!(needs("P(x) :- Q(x), !R(x,y).", &mut i));
        assert!(needs("P(x) :- Q(x), y = z.", &mut i));
    }

    #[test]
    fn merge_reports_change_and_delta_counts() {
        let mut i = Interner::new();
        let p = i.intern("P");
        let q = i.intern("Q");
        let mut instance = Instance::new();
        instance.insert_fact(p, Tuple::from([Value::Int(1)]));
        let new_facts = vec![
            (p, Tuple::from([Value::Int(1)])), // already present
            (p, Tuple::from([Value::Int(2)])),
            (q, Tuple::from([Value::Int(3)])),
            (q, Tuple::from([Value::Int(3)])), // duplicate in the batch
        ];
        let (changed, delta) = merge_new_facts(&mut instance, new_facts, true);
        assert!(changed);
        assert_eq!(delta, vec![(p, 1), (q, 1)]);
        // With telemetry disabled the delta stays empty but the change
        // flag is still exact.
        let (changed, delta) = merge_new_facts(
            &mut instance,
            vec![(q, Tuple::from([Value::Int(3)]))],
            false,
        );
        assert!(!changed);
        assert!(delta.is_empty());
    }

    #[test]
    fn birth_hook_records_first_insertion_only() {
        let mut i = Interner::new();
        let p = i.intern("P");
        let mut instance = Instance::new();
        let mut birth = FxHashMap::default();
        let t = Tuple::from([Value::Int(1)]);
        merge_new_facts_with(
            &mut instance,
            vec![(p, t.clone())],
            false,
            &mut record_births(&mut birth, 2),
        );
        merge_new_facts_with(
            &mut instance,
            vec![(p, t.clone())],
            false,
            &mut record_births(&mut birth, 5),
        );
        assert_eq!(birth.get(&(p, t)), Some(&2));
    }
}
