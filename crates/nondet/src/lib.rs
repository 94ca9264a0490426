//! # unchained-nondet
//!
//! The nondeterministic language family of Section 5 of *Datalog
//! Unchained*: N-Datalog¬ and N-Datalog¬¬ (one nondeterministically
//! chosen rule instantiation fired at a time), the control-augmented
//! variants N-Datalog¬⊥ (inconsistency symbol `⊥` abandons a
//! computation) and N-Datalog¬∀ (universal quantification in bodies),
//! and N-Datalog¬new (value invention). On top of single runs, the
//! crate computes the full **effect relation** `eff(P)` by exhaustive
//! search on small inputs, and the **poss / cert** deterministic
//! readings of Definition 5.10.
//!
//! ## Example: the orientation program of Section 5.1
//!
//! ```
//! use unchained_common::{Instance, Interner, Tuple, Value};
//! use unchained_parser::parse_program;
//! use unchained_nondet::{NondetProgram, RandomChooser, run_once};
//! use unchained_core::EvalOptions;
//!
//! let mut interner = Interner::new();
//! let program = parse_program("!G(x,y) :- G(x,y), G(y,x).", &mut interner).unwrap();
//! let g = interner.get("G").unwrap();
//! let mut input = Instance::new();
//! input.insert_fact(g, Tuple::from([Value::Int(1), Value::Int(2)]));
//! input.insert_fact(g, Tuple::from([Value::Int(2), Value::Int(1)]));
//!
//! let compiled = NondetProgram::compile(&program, false).unwrap();
//! let mut chooser = RandomChooser::seeded(7);
//! let run = run_once(&compiled, &input, &mut chooser, EvalOptions::default()).unwrap();
//! // One of the two edges survives.
//! assert_eq!(run.instance.relation(g).unwrap().len(), 1);
//! ```

pub mod choice;
pub mod chooser;
pub mod eff;
pub mod posscert;
pub mod program;
pub mod run;

pub use choice::CHOICE_PARITY;
pub use chooser::{Chooser, FirstChooser, RandomChooser, SequenceChooser};
pub use eff::{effect, EffOptions};
pub use posscert::{poss_cert, PossCert};
pub use program::{ChoiceMaps, Firing, HeadOp, NondetProgram, State};
pub use run::{run_once, NondetRun};

use std::fmt;

/// Errors from nondeterministic evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NondetError {
    /// A compile-time or shared-engine error.
    Eval(unchained_core::EvalError),
    /// The chosen computation derived `⊥` and was abandoned
    /// (N-Datalog¬⊥).
    Aborted {
        /// Firings performed before the abort.
        steps: usize,
    },
    /// A single run exceeded its firing budget without terminating.
    StepLimitExceeded(usize),
    /// The instance exceeded the fact budget (value invention).
    FactLimitExceeded(usize),
    /// Exhaustive effect enumeration exceeded its state budget.
    StateBudgetExceeded(usize),
    /// A `choice` constraint mentions a universally quantified
    /// variable; the LDL semantics only chooses over instantiated
    /// (existential) bindings.
    ChoiceInUniversalScope {
        /// Index of the offending rule.
        rule: usize,
    },
}

impl fmt::Display for NondetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NondetError::Eval(e) => write!(f, "{e}"),
            NondetError::Aborted { steps } => {
                write!(
                    f,
                    "computation derived ⊥ after {steps} firings and was abandoned"
                )
            }
            NondetError::StepLimitExceeded(n) => {
                write!(f, "run exceeded {n} firings without terminating")
            }
            NondetError::FactLimitExceeded(n) => write!(f, "fact budget exceeded ({n})"),
            NondetError::StateBudgetExceeded(n) => {
                write!(f, "effect enumeration exceeded {n} states")
            }
            NondetError::ChoiceInUniversalScope { rule } => {
                write!(f, "rule {rule}: choice constraint under a forall prefix")
            }
        }
    }
}

impl std::error::Error for NondetError {}

impl NondetError {
    /// The `Display` message with predicates named through `interner`
    /// instead of by symbol id.
    pub fn render(&self, interner: &unchained_common::Interner) -> String {
        match self {
            NondetError::Eval(e) => e.render(interner),
            other => other.to_string(),
        }
    }
}

impl From<unchained_core::EvalError> for NondetError {
    fn from(e: unchained_core::EvalError) -> Self {
        NondetError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = NondetError::Aborted { steps: 3 };
        assert!(e.to_string().contains('3'));
        let e = NondetError::StateBudgetExceeded(10);
        assert!(e.to_string().contains("10"));
    }
}
