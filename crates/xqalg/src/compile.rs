//! Rule-based plan compilation with side-effect guards (paper §4.2–4.3).
//!
//! Two rewrites, each guarded by the preconditions the paper spells out:
//!
//! 1. **Join recognition** — `for $o in E1 for $i in E2 where K(o) = K(i)
//!    return R` becomes a hash join when
//!    * `E2` is *independent* of `$o` (no free occurrence),
//!    * `E1` and `E2` have no effects and produce no updates (they are
//!      evaluated once instead of once per outer binding — the paper's
//!      cardinality precondition),
//!    * the keys are pure and each depends on exactly one side,
//!    * nothing in the query **applies** updates (`snap`): pending updates
//!      in `R` are fine ("inside an innermost snap ... can be evaluated in
//!      any order"), an inner `snap` kills the rewrite — the paper's "if we
//!      had used a snap insert ... the group-by optimization would be more
//!      difficult to detect".
//! 2. **Outer-join/group-by unnesting** — the §4.3 shape `for $o in E1
//!    let $g := (for $i in E2 where K(o)=K(i) return R) return F` becomes
//!    `MapFromItem{F}(GroupBy[o,{R}](LeftOuterJoin(E1, E2) on K))`, with
//!    the same guards plus purity of `F`'s interaction with the grouped
//!    value (F may mention `$g` freely — it receives exactly the sequence
//!    the nested loop would have produced, in the same order).

use crate::plan::{
    BatchFilter, BatchPathPlan, BatchStep, GroupByPlan, JoinPlan, QueryPlan, UpdatePlan,
};
use std::cell::RefCell;
use xqcore::{Effect, EffectAnalysis};
use xqdm::atomic::{Atomic, CompareOp};
use xqsyn::ast::{Axis, NodeTest};
use xqsyn::core::{Core, CoreProgram};

/// How many `(input, simplified)` pairs [`Compiler::compile_simplified`]
/// memoizes. A program compiles a handful of distinct expressions (body,
/// prolog initializers, function bodies); a small bound suffices.
const SIMPLIFY_MEMO_CAP: usize = 8;

/// The plan compiler: effect analysis + rewrite rules.
pub struct Compiler {
    analysis: EffectAnalysis,
    /// Memo for the simplify pass: re-running `run_program` (or compiling
    /// the same expression twice within one program) does no redundant
    /// rewriting.
    simplified: RefCell<Vec<(Core, Core)>>,
    /// Were the store's secondary indexes available at plan time
    /// ([`xqcore::planner::PlanOptions::index_available`])? Gates the
    /// `,idx` eligibility hints on lowered chains; `false` (the default)
    /// reproduces the pre-index plans exactly.
    index_available: bool,
}

impl Compiler {
    /// A compiler for a program (analyzes its functions once).
    pub fn new(program: &CoreProgram) -> Self {
        Compiler {
            analysis: EffectAnalysis::new(program),
            simplified: RefCell::new(Vec::new()),
            index_available: false,
        }
    }

    /// A compiler with no user functions in scope.
    pub fn empty() -> Self {
        Compiler {
            analysis: EffectAnalysis::empty(),
            simplified: RefCell::new(Vec::new()),
            index_available: false,
        }
    }

    /// Declare whether the target store's secondary indexes are
    /// available (see the field docs).
    pub fn with_index(mut self, available: bool) -> Self {
        self.index_available = available;
        self
    }

    /// The effect analysis (exposed for diagnostics and tests).
    pub fn analysis(&self) -> &EffectAnalysis {
        &self.analysis
    }

    /// Consume the compiler, keeping its effect analysis (a
    /// [`crate::pipeline::PlannedProgram`] holds it for analyzed
    /// re-rendering).
    pub fn into_analysis(self) -> EffectAnalysis {
        self.analysis
    }

    /// Compile a core expression to a plan. Join recognition is attempted
    /// at **every** subtree: first the two join rewrites on the node
    /// itself, then structural recursion through the control operators
    /// (`let`/`for`/`if`/sequence/`snap`) so joins nested inside snap
    /// bodies, let-bound values, and branches are still found. A
    /// structural subtree in which no rewrite fired collapses back to a
    /// single [`QueryPlan::Iterate`] of the original expression — the
    /// per-subtree fallback that keeps unoptimizable code on the strict
    /// interpreted path.
    pub fn compile(&self, core: &Core) -> QueryPlan {
        if let Some(plan) = self.try_outer_join_group_by(core) {
            return plan;
        }
        if let Some(plan) = self.try_join(core) {
            return plan;
        }
        match core {
            Core::Seq(items) if !items.is_empty() => {
                let plans: Vec<QueryPlan> = items.iter().map(|e| self.compile(e)).collect();
                if plans.iter().any(QueryPlan::is_specialized) {
                    return QueryPlan::Seq(plans);
                }
            }
            Core::Let { var, value, body } => {
                let value_plan = self.compile(value);
                let body_plan = self.compile(body);
                if value_plan.is_specialized() || body_plan.is_specialized() {
                    return QueryPlan::Let {
                        var: var.clone(),
                        value: Box::new(value_plan),
                        body: Box::new(body_plan),
                    };
                }
            }
            Core::For {
                var,
                position,
                source,
                body,
            } => {
                let source_plan = self.compile(source);
                let body_plan = self.compile(body);
                if source_plan.is_specialized() || body_plan.is_specialized() {
                    return QueryPlan::For {
                        var: var.clone(),
                        position: position.clone(),
                        source: Box::new(source_plan),
                        body: Box::new(body_plan),
                    };
                }
            }
            Core::If(cond, then, els) => {
                let cond_plan = self.compile(cond);
                let then_plan = self.compile(then);
                let els_plan = self.compile(els);
                if cond_plan.is_specialized()
                    || then_plan.is_specialized()
                    || els_plan.is_specialized()
                {
                    return QueryPlan::If {
                        cond: Box::new(cond_plan),
                        then: Box::new(then_plan),
                        els: Box::new(els_plan),
                    };
                }
            }
            Core::Snap(mode, body) => {
                let body_plan = self.compile(body);
                if body_plan.is_specialized() {
                    return QueryPlan::Snap {
                        mode: *mode,
                        body: Box::new(body_plan),
                    };
                }
            }
            Core::Insert { .. }
            | Core::Delete(_)
            | Core::Replace(..)
            | Core::ReplaceValue(..)
            | Core::Rename(..) => {
                if let Some(plan) = self.try_update(core) {
                    return plan;
                }
            }
            _ => {}
        }
        self.leaf(core)
    }

    /// An update whose target lowers to a batch chain gets a plan node
    /// with compiled operands, so the target walk runs on the store
    /// kernels (and the indexes) instead of the interpreter. Purely
    /// physical: the operands run in the interpreter's order and feed the
    /// same update rules. Other targets (a variable, say) stay `Iterate`.
    fn try_update(&self, core: &Core) -> Option<QueryPlan> {
        let target = core.update_target_index()?;
        let operands: Vec<QueryPlan> = (0..)
            .map_while(|i| core.update_operand(i))
            .map(|operand| self.compile(operand))
            .collect();
        matches!(operands[target], QueryPlan::BatchPath(_)).then(|| {
            QueryPlan::Update(UpdatePlan {
                core: core.clone(),
                operands,
            })
        })
    }

    /// The leaf fallback: a pure path-step chain lowers to a
    /// [`QueryPlan::BatchPath`] (batch-at-a-time kernels, DESIGN.md §14);
    /// anything else stays a strict [`QueryPlan::Iterate`].
    fn leaf(&self, core: &Core) -> QueryPlan {
        match try_batch_path(core, self.index_available) {
            Some(bp) => QueryPlan::BatchPath(bp),
            None => QueryPlan::Iterate(core.clone()),
        }
    }
    /// Run the guarded syntactic rewriting phase (§4.2) first, then
    /// compile — the full Galax-style pipeline. The simplified form is
    /// memoized per input expression.
    pub fn compile_simplified(&self, core: &Core) -> QueryPlan {
        if let Some((_, cached)) = self
            .simplified
            .borrow()
            .iter()
            .find(|(input, _)| input == core)
        {
            return self.compile(cached);
        }
        let simplified = crate::rewrite::simplify(core, &self.analysis);
        let plan = self.compile(&simplified);
        let mut memo = self.simplified.borrow_mut();
        if memo.len() >= SIMPLIFY_MEMO_CAP {
            memo.remove(0);
        }
        memo.push((core.clone(), simplified));
        plan
    }

    /// Shared guards for both rewrites; returns the (outer_key, inner_key)
    /// pair oriented to (outer, inner).
    #[allow(clippy::too_many_arguments)]
    fn join_guards(
        &self,
        outer_var: &str,
        outer_source: &Core,
        inner_var: &str,
        inner_source: &Core,
        k1: &Core,
        k2: &Core,
        body: &Core,
    ) -> Option<(Core, Core)> {
        // Sources are evaluated once by the join: they must be update-free
        // (cardinality guard) — and snap-free follows from that.
        if !self.analysis.effect(outer_source).cardinality_safe()
            || !self.analysis.effect(inner_source).cardinality_safe()
        {
            return None;
        }
        // Independence: the inner source must not depend on the outer
        // variable (otherwise it is a dependent loop, not a join).
        if inner_source.free_vars().contains(outer_var) {
            return None;
        }
        // The body and keys must not APPLY updates: an inner snap could
        // observe the evaluation order, which the join changes.
        if !self.analysis.effect(body).order_free() {
            return None;
        }
        // Keys: pure, and each mentioning exactly one side.
        if self.analysis.effect(k1) != Effect::Pure || self.analysis.effect(k2) != Effect::Pure {
            return None;
        }
        let (f1, f2) = (k1.free_vars(), k2.free_vars());
        let k1_outer = f1.contains(outer_var);
        let k1_inner = f1.contains(inner_var);
        let k2_outer = f2.contains(outer_var);
        let k2_inner = f2.contains(inner_var);
        match (k1_outer, k1_inner, k2_outer, k2_inner) {
            (true, false, false, true) => Some((k1.clone(), k2.clone())),
            (false, true, true, false) => Some((k2.clone(), k1.clone())),
            _ => None,
        }
    }

    /// Pattern: for $o in E1 return for $i in E2 return if (k = k) then R
    /// else () — the normalized form of the §2.1 for-for-where query.
    fn try_join(&self, core: &Core) -> Option<QueryPlan> {
        let Core::For {
            var: outer_var,
            position: None,
            source: outer_source,
            body,
        } = core
        else {
            return None;
        };
        let Core::For {
            var: inner_var,
            position: None,
            source: inner_source,
            body: inner_body,
        } = body.as_ref()
        else {
            return None;
        };
        let (k1, k2, ret) = match_where_eq(inner_body)?;
        let (outer_key, inner_key) = self.join_guards(
            outer_var,
            outer_source,
            inner_var,
            inner_source,
            k1,
            k2,
            ret,
        )?;
        Some(QueryPlan::HashJoin(batch_join(
            JoinPlan {
                outer_var: outer_var.clone(),
                outer_source: (**outer_source).clone(),
                inner_var: inner_var.clone(),
                inner_source: (**inner_source).clone(),
                outer_key,
                inner_key,
                body: ret.clone(),
                outer_batch: None,
                inner_batch: None,
                outer_key_steps: None,
                inner_key_steps: None,
            },
            self.index_available,
        )))
    }

    /// Pattern: for $o in E1 return let $g := (for $i in E2 return
    /// if (k = k) then R else ()) return F — the §4.3 Q8 variant.
    fn try_outer_join_group_by(&self, core: &Core) -> Option<QueryPlan> {
        let Core::For {
            var: outer_var,
            position: None,
            source: outer_source,
            body,
        } = core
        else {
            return None;
        };
        let Core::Let {
            var: group_var,
            value,
            body: ret,
        } = body.as_ref()
        else {
            return None;
        };
        let Core::For {
            var: inner_var,
            position: None,
            source: inner_source,
            body: inner_body,
        } = value.as_ref()
        else {
            return None;
        };
        let (k1, k2, r) = match_where_eq(inner_body)?;
        let (outer_key, inner_key) =
            self.join_guards(outer_var, outer_source, inner_var, inner_source, k1, k2, r)?;
        // The outer return must not apply updates either (it runs once per
        // outer binding in both plans, but an inner snap would let it
        // observe R's effects mid-join).
        if !self.analysis.effect(ret).order_free() {
            return None;
        }
        Some(QueryPlan::OuterJoinGroupBy(GroupByPlan {
            join: batch_join(
                JoinPlan {
                    outer_var: outer_var.clone(),
                    outer_source: (**outer_source).clone(),
                    inner_var: inner_var.clone(),
                    inner_source: (**inner_source).clone(),
                    outer_key,
                    inner_key,
                    body: r.clone(),
                    outer_batch: None,
                    inner_batch: None,
                    outer_key_steps: None,
                    inner_key_steps: None,
                },
                self.index_available,
            ),
            group_var: group_var.clone(),
            ret: (**ret).clone(),
        }))
    }
}

/// Fill a join's batch lowerings: each source that is a pure step chain,
/// and each key that is a pure step chain rooted at its own side's
/// variable, gets the batch-kernel path at execution time. Purely
/// physical — the join's semantics and guards are untouched.
fn batch_join(mut j: JoinPlan, index_available: bool) -> JoinPlan {
    j.outer_batch = try_batch_path(&j.outer_source, index_available);
    j.inner_batch = try_batch_path(&j.inner_source, index_available);
    j.outer_key_steps = key_steps(&j.outer_key, &j.outer_var);
    j.inner_key_steps = key_steps(&j.inner_key, &j.inner_var);
    j
}

/// The batch lowering of a join key: a pure step chain whose input is
/// exactly the side's loop variable (the probe/build loops then run the
/// kernels straight off each bound node). Keys run per single binding,
/// where an index scan can never beat the direct kernel — no idx hint.
fn key_steps(key: &Core, var: &str) -> Option<Vec<BatchStep>> {
    let bp = try_batch_path(key, false)?;
    (bp.input == Core::Var(var.to_string())).then_some(bp.steps)
}

/// Recognize a path-step chain whose every step has a store kernel
/// (child / descendant / descendant-or-self / attribute axis) and whose
/// predicates are all pure existence paths. Returns the lowered plan, or
/// `None` to stay on the interpreted path. The chain's base can be any
/// expression (it is evaluated once either way); an unsupported step
/// simply becomes part of the base.
fn try_batch_path(core: &Core, index_available: bool) -> Option<BatchPathPlan> {
    // A `DocOrder` wrapper is absorbed: every batch step already
    // doc-order-normalizes its output, so ddo-of-chain ≡ chain.
    let chain = match core {
        Core::DocOrder(inner) => inner,
        other => other,
    };
    let mut steps_rev: Vec<BatchStep> = Vec::new();
    let mut cur = chain;
    while let Core::MapStep {
        base,
        axis: axis @ (Axis::Child | Axis::Descendant | Axis::DescendantOrSelf | Axis::Attribute),
        test,
        predicates,
    } = cur
    {
        let filters: Option<Vec<BatchFilter>> = predicates.iter().map(batch_filter).collect();
        match filters {
            Some(filters) => {
                steps_rev.push(BatchStep {
                    axis: *axis,
                    test: test.clone(),
                    filters,
                });
                cur = base;
            }
            // A non-batchable predicate (positional, general comparison
            // over non-literals, call): this and everything below it
            // stays interpreted as the chain's input.
            None => break,
        }
    }
    if steps_rev.is_empty() {
        return None;
    }
    steps_rev.reverse();
    // Peephole: the `//` desugaring `descendant-or-self::node()/child::T`
    // is exactly `descendant::T` (a node is a person-child of $a-or-below
    // iff it is a person descendant of $a). Fusing drops the step that
    // materializes — and doc-order-sorts — every node under the origin.
    let mut steps: Vec<BatchStep> = Vec::with_capacity(steps_rev.len());
    for s in steps_rev {
        if s.axis == Axis::Child
            && steps.last().is_some_and(|p: &BatchStep| {
                p.axis == Axis::DescendantOrSelf
                    && matches!(p.test, NodeTest::AnyKind)
                    && p.filters.is_empty()
            })
        {
            steps.pop();
            steps.push(BatchStep {
                axis: Axis::Descendant,
                test: s.test,
                filters: s.filters,
            });
        } else {
            steps.push(s);
        }
    }
    let idx = index_available && steps.iter().any(step_idx_eligible);
    Some(BatchPathPlan {
        input: cur.clone(),
        steps,
        core: core.clone(),
        idx,
    })
}

/// Can the secondary indexes serve this step? An element-producing axis
/// with either a name test (element-name index) or an `[@a = "v"]`
/// filter (attribute-value index). The attribute axis is excluded: the
/// value index is keyed by (name, value), never by name alone.
fn step_idx_eligible(step: &BatchStep) -> bool {
    if !matches!(
        step.axis,
        Axis::Child | Axis::Descendant | Axis::DescendantOrSelf
    ) {
        return false;
    }
    matches!(step.test, NodeTest::Name(_))
        || step
            .filters
            .iter()
            .any(|f| matches!(f, BatchFilter::AttrEq { .. }))
}

/// Recognize one admissible predicate: a value filter first (the more
/// specific shape), an existence path otherwise.
fn batch_filter(pred: &Core) -> Option<BatchFilter> {
    if let Some(f) = attr_eq_filter(pred) {
        return Some(f);
    }
    existence_chain(pred).map(BatchFilter::Exists)
}

/// A predicate admissible as a batch existence filter: a pure step chain
/// rooted at the context item. Such predicates always yield nodes (never
/// numbers), so the interpreter's positional semantics degenerate to the
/// non-empty test the kernels apply.
fn existence_chain(pred: &Core) -> Option<Vec<BatchStep>> {
    let bp = try_batch_path(pred, false)?;
    matches!(bp.input, Core::ContextItem).then_some(bp.steps)
}

/// Recognize `[@name = "literal"]` (either operand order): the general
/// comparison of a context-rooted attribute step against a string
/// literal. The attribute atomizes untyped; untyped-vs-string general
/// comparison is exact string equality, so the filter (and the value
/// index behind it) is faithful.
fn attr_eq_filter(pred: &Core) -> Option<BatchFilter> {
    let Core::GeneralComp(CompareOp::Eq, a, b) = pred else {
        return None;
    };
    let build = |name: Option<String>, value: Option<String>| {
        Some(BatchFilter::AttrEq {
            name: name?,
            value: value?,
        })
    };
    build(context_attr_name(a), string_literal(b))
        .or_else(|| build(context_attr_name(b), string_literal(a)))
}

/// `@name` rooted at the context item (a `DocOrder` wrapper absorbed),
/// with no predicates of its own.
fn context_attr_name(core: &Core) -> Option<String> {
    let chain = match core {
        Core::DocOrder(inner) => inner.as_ref(),
        other => other,
    };
    let Core::MapStep {
        base,
        axis: Axis::Attribute,
        test: NodeTest::Name(name),
        predicates,
    } = chain
    else {
        return None;
    };
    (matches!(base.as_ref(), Core::ContextItem) && predicates.is_empty()).then(|| name.clone())
}

/// A string literal constant.
fn string_literal(core: &Core) -> Option<String> {
    match core {
        Core::Const(Atomic::String(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Compile an expression to a *structural* plan: the control operators
/// (`Seq`/`Let`/`For`/`If`/`Snap`) map to plan nodes one-for-one and every
/// other expression stays an [`QueryPlan::Iterate`] leaf — no rewriting,
/// no simplification, no collapse-back. Executing this plan is
/// operator-for-operator identical to interpreting the expression, which
/// is exactly what `explain_analyze` needs in interpreted mode: per-node
/// counters for the evaluation that would have happened anyway.
pub fn compile_structural(core: &Core) -> QueryPlan {
    match core {
        Core::Seq(items) if !items.is_empty() => {
            QueryPlan::Seq(items.iter().map(compile_structural).collect())
        }
        Core::Let { var, value, body } => QueryPlan::Let {
            var: var.clone(),
            value: Box::new(compile_structural(value)),
            body: Box::new(compile_structural(body)),
        },
        Core::For {
            var,
            position,
            source,
            body,
        } => QueryPlan::For {
            var: var.clone(),
            position: position.clone(),
            source: Box::new(compile_structural(source)),
            body: Box::new(compile_structural(body)),
        },
        Core::If(cond, then, els) => QueryPlan::If {
            cond: Box::new(compile_structural(cond)),
            then: Box::new(compile_structural(then)),
            els: Box::new(compile_structural(els)),
        },
        Core::Snap(mode, body) => QueryPlan::Snap {
            mode: *mode,
            body: Box::new(compile_structural(body)),
        },
        _ => QueryPlan::Iterate(core.clone()),
    }
}

/// Match `if (K1 = K2) then R else ()` — a normalized `where` clause with a
/// general equality comparison.
fn match_where_eq(core: &Core) -> Option<(&Core, &Core, &Core)> {
    let Core::If(cond, then, els) = core else {
        return None;
    };
    if !matches!(els.as_ref(), Core::Seq(v) if v.is_empty()) {
        return None;
    }
    let Core::GeneralComp(CompareOp::Eq, k1, k2) = cond.as_ref() else {
        return None;
    };
    Some((k1, k2, then))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqsyn::compile as xq_compile;

    fn plan_for(query: &str) -> QueryPlan {
        let prog = xq_compile(query).expect("parse");
        Compiler::new(&prog).compile(&prog.body)
    }

    const Q_JOIN: &str = r#"
        for $p in $auction//person
        for $t in $auction//closed_auction
        where $t/buyer/@person = $p/@id
        return insert { <buyer person="{$t/buyer/@person}"/> } into { $purchasers }"#;

    const Q8_VARIANT: &str = r#"
        for $p in $auction//person
        let $a :=
          for $t in $auction//closed_auction
          where $t/buyer/@person = $p/@id
          return (insert { <buyer person="{$t/buyer/@person}"/> }
                  into { $purchasers }, $t)
        return <item person="{ $p/name }">{ count($a) }</item>"#;

    #[test]
    fn paper_join_query_compiles_to_hash_join() {
        let plan = plan_for(Q_JOIN);
        match &plan {
            QueryPlan::HashJoin(j) => {
                assert_eq!(j.outer_var, "p");
                assert_eq!(j.inner_var, "t");
                // Keys oriented correctly even though the where-clause
                // wrote them inner-first.
                assert!(j.outer_key.free_vars().contains("p"));
                assert!(j.inner_key.free_vars().contains("t"));
            }
            other => panic!("expected hash join, got {other:?}"),
        }
    }

    #[test]
    fn paper_q8_variant_compiles_to_outer_join_group_by() {
        let plan = plan_for(Q8_VARIANT);
        match &plan {
            QueryPlan::OuterJoinGroupBy(g) => {
                assert_eq!(g.group_var, "a");
                assert_eq!(g.join.outer_var, "p");
            }
            other => panic!("expected outer-join/group-by, got {other:?}"),
        }
        // The §4.3 printout shape.
        let rendered = plan.render();
        assert!(rendered.contains("GroupBy"));
        assert!(rendered.contains("LeftOuterJoin"));
        assert!(rendered.contains("MapFromItem"));
        assert!(rendered.starts_with("Snap {"));
    }

    #[test]
    fn snap_in_body_suppresses_the_rewrite() {
        // §4.3: "if we had used a snap insert at line 5 of the source code,
        // the group-by optimization would be more difficult to detect".
        let q = r#"
            for $p in $auction//person
            let $a :=
              for $t in $auction//closed_auction
              where $t/buyer/@person = $p/@id
              return (snap insert { <buyer/> } into { $purchasers }, $t)
            return <item>{ count($a) }</item>"#;
        // No join — but the path sources still lower to batch chains.
        let plan = plan_for(q);
        assert!(!plan.is_optimized());
        assert!(plan.is_batched());
    }

    #[test]
    fn pending_updates_in_body_do_not_suppress() {
        // The insert (no snap) is fine: pending updates are effect-free.
        assert!(plan_for(Q8_VARIANT).is_optimized());
    }

    #[test]
    fn dependent_inner_source_suppresses() {
        let q = r#"
            for $p in $auction//person
            for $t in $p//closed_auction
            where $t/buyer/@person = $p/@id
            return $t"#;
        assert!(!plan_for(q).is_optimized());
    }

    #[test]
    fn updating_source_suppresses() {
        // A source with updates cannot be evaluated once (cardinality).
        let q = r#"
            for $p in (insert { <x/> } into { $d }, $auction//person)
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return $t"#;
        assert!(!plan_for(q).is_optimized());
    }

    #[test]
    fn cross_side_keys_suppress() {
        // Both keys mention $p: not a proper equi-join.
        let q = r#"
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $p/@id = $p/@name
            return $t"#;
        assert!(!plan_for(q).is_optimized());
    }

    #[test]
    fn non_equality_predicates_suppress() {
        let q = r#"
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/buyer/@person < $p/@id
            return $t"#;
        assert!(!plan_for(q).is_optimized());
    }

    #[test]
    fn snap_via_function_call_suppresses() {
        // The effect judgment chases calls (the "monadic rule").
        let q = r#"
            declare function log_it($x) { snap insert { <l/> } into { $log } };
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return log_it($t)"#;
        assert!(!plan_for(q).is_optimized());
    }

    #[test]
    fn pure_function_calls_do_not_suppress() {
        let q = r#"
            declare function fmt($x) { <m>{ $x }</m> };
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return fmt($t)"#;
        assert!(plan_for(q).is_optimized());
    }

    #[test]
    fn path_chains_lower_to_batch_steps() {
        // A pure child/descendant chain becomes one BatchPath leaf whose
        // steps mirror the source path left-to-right.
        let plan = plan_for("$auction//person/name");
        match &plan {
            QueryPlan::BatchPath(bp) => {
                // `//` desugars to descendant-or-self::node()/child::*,
                // which the peephole fuses back to one descendant step.
                assert_eq!(bp.steps.len(), 2);
                assert!(matches!(bp.steps[0].axis, Axis::Descendant));
                assert!(matches!(bp.steps[1].axis, Axis::Child));
                assert!(bp.steps.iter().all(|s| s.filters.is_empty()));
            }
            other => panic!("expected batch path, got {other:?}"),
        }
        assert!(plan.is_batched());
        assert!(!plan.is_optimized());
    }

    #[test]
    fn existence_predicates_become_batch_filters() {
        let plan = plan_for("$auction//person[address/city]");
        match &plan {
            QueryPlan::BatchPath(bp) => {
                assert_eq!(bp.steps.len(), 1);
                assert!(matches!(bp.steps[0].axis, Axis::Descendant));
                assert_eq!(bp.steps[0].filters.len(), 1);
                match &bp.steps[0].filters[0] {
                    BatchFilter::Exists(chain) => assert_eq!(chain.len(), 2),
                    other => panic!("expected existence filter, got {other:?}"),
                }
            }
            other => panic!("expected batch path, got {other:?}"),
        }
    }

    #[test]
    fn value_predicates_become_attr_eq_filters() {
        // Both operand orders recognize, and a non-literal comparison
        // falls back to the interpreted input.
        for q in [
            r#"$auction//person[@id = "person0"]"#,
            r#"$auction//person["person0" = @id]"#,
        ] {
            let plan = plan_for(q);
            let QueryPlan::BatchPath(bp) = &plan else {
                panic!("expected batch path for {q}, got {plan:?}");
            };
            assert_eq!(bp.steps.len(), 1);
            assert_eq!(
                bp.steps[0].filters,
                vec![BatchFilter::AttrEq {
                    name: "id".into(),
                    value: "person0".into(),
                }]
            );
        }
        // `@id = @ref` names no literal: not a value filter, and not an
        // existence path either — the predicated step stays interpreted.
        let plan = plan_for("$auction//person[@id = @ref]");
        assert!(
            !matches!(&plan, QueryPlan::BatchPath(bp) if bp.steps.len() > 0
                && !bp.steps[0].filters.is_empty()),
            "non-literal comparison must not lower to a filter: {plan:?}"
        );
    }

    #[test]
    fn index_hints_require_availability() {
        let prog = xq_compile(r#"$auction//person[@id = "p7"]"#).expect("parse");
        let without = Compiler::new(&prog).compile(&prog.body);
        let QueryPlan::BatchPath(bp) = &without else {
            panic!("expected batch path");
        };
        assert!(!bp.idx, "no idx hint without index availability");
        let with = Compiler::new(&prog).with_index(true).compile(&prog.body);
        let QueryPlan::BatchPath(bp) = &with else {
            panic!("expected batch path");
        };
        assert!(bp.idx, "idx hint expected when the index is available");
        // Attribute-axis chains have no name-only index: no hint.
        let prog = xq_compile("$auction/@id").expect("parse");
        let plan = Compiler::new(&prog).with_index(true).compile(&prog.body);
        let QueryPlan::BatchPath(bp) = &plan else {
            panic!("expected batch path");
        };
        assert!(!bp.idx, "attribute axis must not carry an idx hint");
    }

    #[test]
    fn positional_predicates_stay_interpreted() {
        // A numeric predicate is position-sensitive: the chain must not
        // lower to the existence-filter kernels.
        let plan = plan_for("$auction//person[1]/name");
        match &plan {
            QueryPlan::BatchPath(bp) => {
                // Only the tail step past the predicate is batched; the
                // predicated step stays inside the interpreted input.
                assert_eq!(bp.steps.len(), 1);
                assert!(matches!(bp.steps[0].axis, Axis::Child));
            }
            QueryPlan::Iterate(_) => {}
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn q8_join_sides_and_keys_are_batched() {
        let plan = plan_for(Q8_VARIANT);
        let QueryPlan::OuterJoinGroupBy(g) = &plan else {
            panic!("expected outer-join/group-by");
        };
        assert!(g.join.outer_batch.is_some(), "outer source should batch");
        assert!(g.join.inner_batch.is_some(), "inner source should batch");
        let okey = g.join.outer_key_steps.as_ref().expect("outer key steps");
        let ikey = g.join.inner_key_steps.as_ref().expect("inner key steps");
        // $t/buyer/@person and $p/@id respectively.
        assert_eq!(okey.len(), 1);
        assert_eq!(ikey.len(), 2);
        assert!(matches!(okey[0].axis, Axis::Attribute));
        assert!(matches!(ikey[1].axis, Axis::Attribute));
        assert!(g.join.is_batched());
        assert!(plan.render().contains(",batch"));
    }
}
