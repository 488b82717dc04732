//! The core language (normalization target, paper §3.3).
//!
//! The dynamic semantics (paper §3.4 and Appendix B) is defined over this
//! language only. Its update fragment is "almost identical to that of the
//! surface language"; the classical XQuery lowerings have already happened:
//! FLWOR is nested `For`/`Let`/`If`, paths are per-step iterations followed
//! by document-order normalization, direct constructors are computed
//! constructors, and every `Insert`/`Replace` source arrives wrapped in an
//! implicit `Copy`.

use crate::ast::{Axis, NodeCompOp, NodeTest, Quantifier, SnapMode};
use xqdm::atomic::{ArithOp, Atomic, CompareOp};

/// Core-language insert anchors (the `into` form is already gone —
/// normalization rewrote it to `as last into`).
#[derive(Debug, Clone, PartialEq)]
pub enum CoreInsertLoc {
    /// `as first into { e }`
    First(Box<Core>),
    /// `as last into { e }`
    Last(Box<Core>),
    /// `before { e }`
    Before(Box<Core>),
    /// `after { e }`
    After(Box<Core>),
}

impl CoreInsertLoc {
    /// The target expression of the location.
    pub fn target(&self) -> &Core {
        match self {
            CoreInsertLoc::First(e)
            | CoreInsertLoc::Last(e)
            | CoreInsertLoc::Before(e)
            | CoreInsertLoc::After(e) => e,
        }
    }
}

/// One `order by` key in the core sort primitive.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreOrderSpec {
    /// Key expression, evaluated once per binding of the sort variable.
    pub key: Core,
    /// Ascending when true.
    pub ascending: bool,
}

/// A core expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Core {
    /// A constant atomic value.
    Const(Atomic),
    /// Variable reference.
    Var(String),
    /// The context item.
    ContextItem,
    /// Sequence construction, left to right (the paper's `e1,e2` rule —
    /// kept n-ary; the semantics folds it pairwise).
    Seq(Vec<Core>),
    /// `for $var (at $pos)? in source return body`
    For {
        /// Iteration variable.
        var: String,
        /// Optional positional variable.
        position: Option<String>,
        /// Binding sequence.
        source: Box<Core>,
        /// Body evaluated once per item.
        body: Box<Core>,
    },
    /// `let $var := value return body`
    Let {
        /// Bound variable.
        var: String,
        /// Bound value.
        value: Box<Core>,
        /// Body.
        body: Box<Core>,
    },
    /// Conditional.
    If(Box<Core>, Box<Core>, Box<Core>),
    /// `some/every $var in source satisfies pred` (kept primitive for
    /// early-exit evaluation).
    Quantified {
        /// Which quantifier.
        quantifier: Quantifier,
        /// Bound variable.
        var: String,
        /// Binding sequence.
        source: Box<Core>,
        /// The test.
        satisfies: Box<Core>,
    },
    /// Sort the tuple stream of `for $var in source` by keys, then iterate
    /// `body` — the lowering of a FLWOR `order by` (see normalize.rs for
    /// the supported shape).
    SortedFor {
        /// Iteration variable.
        var: String,
        /// Binding sequence.
        source: Box<Core>,
        /// Sort keys.
        keys: Vec<CoreOrderSpec>,
        /// Body.
        body: Box<Core>,
    },
    /// Arithmetic.
    Arith(ArithOp, Box<Core>, Box<Core>),
    /// Unary minus.
    Neg(Box<Core>),
    /// General comparison (existential).
    GeneralComp(CompareOp, Box<Core>, Box<Core>),
    /// Value comparison.
    ValueComp(CompareOp, Box<Core>, Box<Core>),
    /// Node comparison.
    NodeComp(NodeCompOp, Box<Core>, Box<Core>),
    /// Short-circuit conjunction.
    And(Box<Core>, Box<Core>),
    /// Short-circuit disjunction.
    Or(Box<Core>, Box<Core>),
    /// Node-sequence union with document-order/dedup result.
    Union(Box<Core>, Box<Core>),
    /// Range `a to b`.
    Range(Box<Core>, Box<Core>),
    /// One path step: for each node of `base`, gather `axis::test` nodes (in
    /// axis order), apply `predicates` positionally *per origin node* (the
    /// XPath rule that makes `a/b[1]` mean "first b of each a"), then
    /// normalize the union into document order.
    MapStep {
        /// Origin sequence.
        base: Box<Core>,
        /// Axis.
        axis: Axis,
        /// Node test.
        test: NodeTest,
        /// Per-origin positional predicates.
        predicates: Vec<Core>,
    },
    /// Sort a node sequence into document order and deduplicate.
    DocOrder(Box<Core>),
    /// Predicate application with positional semantics: keep the context
    /// items of `base` for which `pred` holds (numeric predicate = position
    /// test).
    Predicate {
        /// The filtered expression.
        base: Box<Core>,
        /// The predicate.
        pred: Box<Core>,
    },
    /// Function call (built-in or user-declared, resolved at evaluation).
    Call(String, Vec<Core>),
    /// `element {name} {content}` — content nodes are deep-copied in, atomics
    /// become text (XQuery 1.0 construction semantics).
    ElemCtor {
        /// Element name: fixed or computed.
        name: CoreName,
        /// Content expression.
        content: Box<Core>,
    },
    /// `attribute {name} {content}`.
    AttrCtor {
        /// Attribute name.
        name: CoreName,
        /// Value expression (atomized, space-joined).
        content: Box<Core>,
    },
    /// `text { content }`.
    TextCtor(Box<Core>),
    /// `document { content }`.
    DocCtor(Box<Core>),
    // ----- update fragment -----
    /// `insert { source } loc` — `source` is already `copy`-wrapped by
    /// normalization.
    Insert {
        /// The (copied) node sequence to insert.
        source: Box<Core>,
        /// Where to insert.
        location: CoreInsertLoc,
    },
    /// `delete { e }` — detach semantics.
    Delete(Box<Core>),
    /// `replace { target } with { source }` — produces an insert and a
    /// delete request (paper's rule); `source` is already `copy`-wrapped.
    Replace(Box<Core>, Box<Core>),
    /// `replace value of { target } with { source }` — produces a single
    /// set-value request: the target text/attribute node keeps its
    /// identity, only its string value changes (a value-aspect store
    /// write, no copy involved).
    ReplaceValue(Box<Core>, Box<Core>),
    /// `rename { target } to { name }`.
    Rename(Box<Core>, Box<Core>),
    /// `copy { e }` — deep copy, immediate (allocation, not an update).
    Copy(Box<Core>),
    /// `snap mode { e }` — evaluate, then apply the collected Δ.
    Snap(SnapMode, Box<Core>),
}

/// A constructor name in the core language.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreName {
    /// A fixed QName.
    Fixed(String),
    /// A computed name expression.
    Computed(Box<Core>),
}

impl Core {
    /// Boxed.
    pub fn boxed(self) -> Box<Core> {
        Box::new(self)
    }

    /// The empty sequence.
    pub fn empty() -> Core {
        Core::Seq(Vec::new())
    }

    /// An integer constant.
    pub fn int(i: i64) -> Core {
        Core::Const(Atomic::Integer(i))
    }

    /// A string constant.
    pub fn str(s: impl Into<String>) -> Core {
        Core::Const(Atomic::String(s.into()))
    }

    /// The `i`-th operand of an update expression, numbered in the
    /// dynamic semantics' evaluation order: `insert` is (source, target),
    /// `delete` is (target), and `replace`, `replace value of` and
    /// `rename` are (target, with/name). `None` past the last operand or
    /// for a non-update expression.
    pub fn update_operand(&self, i: usize) -> Option<&Core> {
        match (self, i) {
            (Core::Insert { source, .. }, 0) => Some(source),
            (Core::Insert { location, .. }, 1) => Some(location.target()),
            (Core::Delete(target), 0) => Some(target),
            (
                Core::Replace(target, _) | Core::ReplaceValue(target, _) | Core::Rename(target, _),
                0,
            ) => Some(target),
            (Core::Replace(_, with) | Core::ReplaceValue(_, with) | Core::Rename(_, with), 1) => {
                Some(with)
            }
            _ => None,
        }
    }

    /// The index of an update expression's target operand (see
    /// [`Core::update_operand`]); `None` for a non-update expression.
    pub fn update_target_index(&self) -> Option<usize> {
        match self {
            Core::Insert { .. } => Some(1),
            Core::Delete(_) | Core::Replace(..) | Core::ReplaceValue(..) | Core::Rename(..) => {
                Some(0)
            }
            _ => None,
        }
    }

    /// Visit this expression and all sub-expressions, pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&Core)) {
        f(self);
        self.for_each_child(|c| c.walk(f));
    }

    /// Apply `f` to each direct sub-expression.
    pub fn for_each_child(&self, mut f: impl FnMut(&Core)) {
        match self {
            Core::Const(_) | Core::Var(_) | Core::ContextItem => {}
            Core::MapStep {
                base, predicates, ..
            } => {
                f(base);
                predicates.iter().for_each(&mut f);
            }
            Core::Seq(es) => es.iter().for_each(&mut f),
            Core::For { source, body, .. } => {
                f(source);
                f(body);
            }
            Core::Let { value, body, .. } => {
                f(value);
                f(body);
            }
            Core::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Core::Quantified {
                source, satisfies, ..
            } => {
                f(source);
                f(satisfies);
            }
            Core::SortedFor {
                source, keys, body, ..
            } => {
                f(source);
                for k in keys {
                    f(&k.key);
                }
                f(body);
            }
            Core::Arith(_, a, b)
            | Core::GeneralComp(_, a, b)
            | Core::ValueComp(_, a, b)
            | Core::NodeComp(_, a, b)
            | Core::And(a, b)
            | Core::Or(a, b)
            | Core::Union(a, b)
            | Core::Range(a, b)
            | Core::Replace(a, b)
            | Core::ReplaceValue(a, b)
            | Core::Rename(a, b) => {
                f(a);
                f(b);
            }
            Core::Neg(e)
            | Core::DocOrder(e)
            | Core::TextCtor(e)
            | Core::DocCtor(e)
            | Core::Delete(e)
            | Core::Copy(e)
            | Core::Snap(_, e) => f(e),
            Core::Predicate { base, pred } => {
                f(base);
                f(pred);
            }
            Core::Call(_, args) => args.iter().for_each(&mut f),
            Core::ElemCtor { name, content } | Core::AttrCtor { name, content } => {
                if let CoreName::Computed(n) = name {
                    f(n);
                }
                f(content);
            }
            Core::Insert { source, location } => {
                f(source);
                f(location.target());
            }
        }
    }

    /// The free variables of this expression (referenced but not bound by
    /// an enclosing `for`/`let`/quantifier within it). Used by the
    /// optimizer's independence guards: an inner join branch may only be
    /// hoisted out of a loop when it does not mention the loop variable.
    pub fn free_vars(&self) -> std::collections::HashSet<String> {
        let mut out = std::collections::HashSet::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free(&self, bound: &mut Vec<String>, out: &mut std::collections::HashSet<String>) {
        match self {
            Core::Var(v) => {
                if !bound.iter().any(|b| b == v) {
                    out.insert(v.clone());
                }
            }
            Core::For {
                var,
                position,
                source,
                body,
            } => {
                source.collect_free(bound, out);
                bound.push(var.clone());
                if let Some(p) = position {
                    bound.push(p.clone());
                }
                body.collect_free(bound, out);
                if position.is_some() {
                    bound.pop();
                }
                bound.pop();
            }
            Core::Let { var, value, body } => {
                value.collect_free(bound, out);
                bound.push(var.clone());
                body.collect_free(bound, out);
                bound.pop();
            }
            Core::Quantified {
                var,
                source,
                satisfies,
                ..
            } => {
                source.collect_free(bound, out);
                bound.push(var.clone());
                satisfies.collect_free(bound, out);
                bound.pop();
            }
            Core::SortedFor {
                var,
                source,
                keys,
                body,
            } => {
                source.collect_free(bound, out);
                bound.push(var.clone());
                for k in keys {
                    k.key.collect_free(bound, out);
                }
                body.collect_free(bound, out);
                bound.pop();
            }
            other => other.for_each_child(|c| c.collect_free(bound, out)),
        }
    }

    /// Does this expression syntactically contain a `snap`? (The building
    /// block of the paper's "innermost snap is pure" optimizer judgment;
    /// the full judgment, which also chases function calls, lives in
    /// `xqcore::effects`.)
    pub fn contains_snap(&self) -> bool {
        let mut found = false;
        self.walk(&mut |c| {
            if matches!(c, Core::Snap(..)) {
                found = true;
            }
        });
        found
    }

    /// Does this expression syntactically contain an update operator
    /// (insert/delete/replace/rename)? `copy` is *not* an update: it only
    /// allocates (paper §3.4 distinguishes allocation from effects).
    pub fn contains_update(&self) -> bool {
        let mut found = false;
        self.walk(&mut |c| {
            if matches!(
                c,
                Core::Insert { .. }
                    | Core::Delete(_)
                    | Core::Replace(..)
                    | Core::ReplaceValue(..)
                    | Core::Rename(..)
            ) {
                found = true;
            }
        });
        found
    }
}

/// A user-declared function, normalized.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreFunction {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Normalized body.
    pub body: Core,
}

/// A normalized program: global variables (initialized in order), functions,
/// and the body. Per §2.3 the body is implicitly wrapped in a top-level
/// `snap` by the *evaluator* (kept out of the core tree so optimizers can
/// see the program as written).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreProgram {
    /// `declare variable` initializers, in source order.
    pub variables: Vec<(String, Core)>,
    /// `declare function` declarations.
    pub functions: Vec<CoreFunction>,
    /// The query body.
    pub body: Core,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_snap_and_update() {
        let e = Core::Seq(vec![
            Core::int(1),
            Core::Snap(
                SnapMode::Ordered,
                Core::Delete(Core::Var("x".into()).boxed()).boxed(),
            ),
        ]);
        assert!(e.contains_snap());
        assert!(e.contains_update());
        let pure = Core::Arith(ArithOp::Add, Core::int(1).boxed(), Core::int(2).boxed());
        assert!(!pure.contains_snap());
        assert!(!pure.contains_update());
        // copy alone is not an update
        let cp = Core::Copy(Core::Var("x".into()).boxed());
        assert!(!cp.contains_update());
    }

    #[test]
    fn free_vars_respects_binders() {
        // for $x in $src return ($x, $y) — free: src, y.
        let e = Core::For {
            var: "x".into(),
            position: None,
            source: Core::Var("src".into()).boxed(),
            body: Core::Seq(vec![Core::Var("x".into()), Core::Var("y".into())]).boxed(),
        };
        let fv = e.free_vars();
        assert!(fv.contains("src"));
        assert!(fv.contains("y"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn free_vars_let_value_is_outside_binding() {
        // let $x := $x return $x — the value's $x is free.
        let e = Core::Let {
            var: "x".into(),
            value: Core::Var("x".into()).boxed(),
            body: Core::Var("x".into()).boxed(),
        };
        assert!(e.free_vars().contains("x"));
    }

    #[test]
    fn walk_visits_insert_location() {
        let e = Core::Insert {
            source: Core::Var("a".into()).boxed(),
            location: CoreInsertLoc::Before(Core::Var("b".into()).boxed()),
        };
        let mut vars = Vec::new();
        e.walk(&mut |c| {
            if let Core::Var(v) = c {
                vars.push(v.clone());
            }
        });
        assert_eq!(vars, vec!["a".to_string(), "b".to_string()]);
    }
}
