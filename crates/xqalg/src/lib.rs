//! # xqalg — the algebraic compiler and optimizer for XQuery!
//!
//! Reproduces §4 of the paper: rule-based rewrites **guarded by the
//! side-effect judgment** turn nested FLWOR loops into join plans when the
//! guards hold, and leave the strict nested-loop evaluation in place when
//! they do not.
//!
//! * [`compile::Compiler`] — the rewrite rules and their preconditions
//!   (independence, cardinality safety, snap-freedom);
//! * [`plan::QueryPlan`] — the logical plan language, with the paper-style
//!   `Snap { MapFromItem {...} (GroupBy [...] (LeftOuterJoin(...))) }`
//!   printer;
//! * [`exec`] — physical execution: typed hash join / left-outer
//!   join + group-by, producing the same value *and the same pending
//!   update list* as the nested loop, in `O(|outer| + |inner| +
//!   |matches|)`.
//!
//! ```
//! use xqalg::Compiler;
//!
//! let program = xqsyn::compile(
//!     "for $x in $xs for $y in $ys where $x/@k = $y/@k return $y",
//! ).unwrap();
//! let plan = Compiler::new(&program).compile(&program.body);
//! assert!(plan.is_optimized());
//! ```

pub mod compile;
pub mod exec;
pub mod pipeline;
pub mod plan;
pub mod rewrite;

pub use compile::Compiler;
pub use exec::{execute, run_plan};
pub use pipeline::{compile_program, AlgPlanner, PlannedProgram};
pub use plan::{GroupByPlan, JoinPlan, QueryPlan, UpdatePlan};
pub use rewrite::simplify;

use std::sync::Arc;
use xqcore::planner::CompiledProgram;
use xqcore::Evaluator;
use xqdm::item::Sequence;
use xqdm::{Store, XdmResult};
use xqsyn::CoreProgram;

/// Register [`AlgPlanner`] as the process-wide default planner, making
/// `xqcore::Engine::run_program` compile through this crate. Idempotent;
/// the facade crate calls this from `Engine::new()`.
pub fn install() {
    xqcore::planner::install(Arc::new(AlgPlanner));
}

/// One-call convenience: compile a whole program (body, prolog variables,
/// declared functions) and run it with the given host bindings. Returns
/// the value sequence and whether the optimizer rewrote anything.
///
/// This is a thin wrapper over the [`pipeline`] the engine uses by
/// default — kept for benchmarks and tests that need an explicit
/// compiled-vs-naive comparison with a fixed seed.
pub fn run_optimized(
    program: &CoreProgram,
    store: &mut Store,
    bindings: &[(String, Sequence)],
    seed: u64,
) -> XdmResult<(Sequence, bool)> {
    let planned = compile_program(program);
    let mut evaluator = Evaluator::new(program).with_seed(seed);
    for (name, value) in bindings {
        evaluator.bind_global(name.clone(), value.clone());
    }
    let optimized = planned.is_optimized();
    let value = planned.execute(&mut evaluator, store)?;
    Ok((value, optimized))
}

/// The unoptimized twin of [`run_optimized`]: strict nested-loop
/// evaluation of the same program (the baseline in experiment E1).
pub fn run_naive(
    program: &CoreProgram,
    store: &mut Store,
    bindings: &[(String, Sequence)],
    seed: u64,
) -> XdmResult<Sequence> {
    let mut evaluator = Evaluator::new(program).with_seed(seed);
    for (name, value) in bindings {
        evaluator.bind_global(name.clone(), value.clone());
    }
    evaluator.eval_program(store, program)
}
