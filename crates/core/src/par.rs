//! Parallel evaluation of effect-free regions (DESIGN.md §9).
//!
//! The paper's §4.2 observation — evaluation inside an innermost `snap` is
//! effect-free, so "both the pure subexpressions and the update operations
//! can be evaluated in any order" — is exactly the precondition for data
//! parallelism. This module supplies the two pieces the evaluator and the
//! plan executor share:
//!
//! * the **gate** ([`par_safe`]): a loop body may fan out only when the
//!   effect lattice rates it `Pure` *and* a structural walk (transitive
//!   through called functions) finds no construct the rating hides —
//!   `fn:parse-xml` allocates store nodes behind its read-only rating,
//!   `fn:trace` has observable output order, and a `snap` over pure code
//!   draws seeds and bumps snap statistics;
//! * the **fan-out driver** ([`par_map`]): contiguous chunks over a scoped
//!   worker pool (`std::thread::scope`, no dependencies), per-worker state
//!   built on the worker thread, per-item results collected in input
//!   order.
//!
//! Workers run the ordinary evaluator: `Evaluator::fan_out` gives each
//! worker thread its own worker evaluator over a copy-on-write read view
//! of the store, so there is one set of evaluation rules for sequential
//! and parallel code alike.
//!
//! Sequential semantics are preserved bit-for-bit: values and their order
//! (chunks are contiguous and reassembled in input order), Δ statistics
//! (a `Pure` body touches neither the Δ stack nor the snap counters), and
//! error codes ([`merge_in_order`] surfaces the error of the *first*
//! failing iteration, which is the one the sequential loop would have
//! raised; later iterations may run wastefully but — being pure — leave no
//! trace).

use crate::effects::{Effect, EffectAnalysis};
use crate::functions;
use std::collections::{HashMap, HashSet};
use xqdm::item::Sequence;
use xqdm::XdmResult;
use xqsyn::core::{Core, CoreFunction};

/// Fewest source items worth fanning out — below this, spawn cost
/// dominates any conceivable body.
pub const PAR_MIN_ITEMS: usize = 4;

/// Stack size for parallel workers: they run the evaluator, which recurses
/// as on the main evaluation thread (same depth limit,
/// [`crate::limits::Limits::max_depth`]), so workers get the same
/// headroom. The reservation is virtual; pages commit lazily.
const PAR_STACK_BYTES: usize = 64 << 20;

/// Upper bound on configured worker counts (a typo like `XQB_THREADS=800`
/// should not try to spawn 800 threads per loop).
pub const MAX_THREADS: usize = 64;

/// The thread count the `XQB_THREADS` environment variable requests, or 1
/// (sequential) when unset or unparsable. Read at engine/evaluator
/// construction; override per engine with `Engine::set_threads`.
pub fn threads_from_env() -> usize {
    std::env::var("XQB_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, MAX_THREADS))
        .unwrap_or(1)
}

/// May `body` be evaluated by parallel worker evaluators? Requires
/// the effect rating `Pure` (so the body neither allocates, nor appends
/// update requests, nor applies them) **and** structural transparency
/// ([`par_transparent`]) transitively through every user function the body
/// can call. This is the single safety judgment every layer (interpreter
/// loop, plan executor, join sides) consults — the E8 purity guard,
/// reused and sharpened.
pub fn par_safe(
    body: &Core,
    analysis: &EffectAnalysis,
    funcs: &HashMap<(String, usize), CoreFunction>,
) -> bool {
    if analysis.effect(body) != Effect::Pure {
        return false;
    }
    let mut visited: HashSet<(String, usize)> = HashSet::new();
    transparent_rec(body, funcs, &mut visited)
}

fn transparent_rec(
    expr: &Core,
    funcs: &HashMap<(String, usize), CoreFunction>,
    visited: &mut HashSet<(String, usize)>,
) -> bool {
    if !par_transparent(expr) {
        return false;
    }
    let mut callees: Vec<(String, usize)> = Vec::new();
    expr.walk(&mut |e| {
        if let Core::Call(name, args) = e {
            callees.push((name.clone(), args.len()));
        }
    });
    for key in callees {
        if let Some(f) = funcs.get(&key) {
            if visited.insert(key) && !transparent_rec(&f.body, funcs, visited) {
                return false;
            }
        }
        // Unknown non-builtins were already rated Effectful by the
        // analysis, so par_safe rejected them before reaching here.
    }
    true
}

/// Expression-level transparency: no call to a par-opaque built-in
/// ([`functions::is_par_opaque`]) and no `snap` (even over pure code a
/// snap draws an application seed and counts toward the snap statistics,
/// which must match the sequential run exactly). Does **not** chase user
/// function calls — [`par_safe`] does.
pub fn par_transparent(expr: &Core) -> bool {
    let mut ok = true;
    expr.walk(&mut |e| match e {
        Core::Call(name, _) if functions::is_par_opaque(name) => ok = false,
        Core::Snap(..) => ok = false,
        _ => {}
    });
    ok
}

/// Would `body` be admitted by the parallel gate, judged from the effect
/// analysis alone? Used by EXPLAIN to annotate join bodies; advisory in
/// the rare case where a called pure function hides a par-opaque built-in
/// (the runtime gate still rejects it).
pub fn body_par(body: &Core, analysis: &EffectAnalysis) -> bool {
    analysis.effect(body) == Effect::Pure && par_transparent(body)
}

/// Does `core` contain a `for` loop whose body the parallel gate would
/// admit (see [`body_par`] for the advisory caveat)? Used by EXPLAIN to
/// put the `par` marker on `Iterate` leaves.
pub fn marks_par_loop(core: &Core, analysis: &EffectAnalysis) -> bool {
    let mut found = false;
    core.walk(&mut |e| {
        if let Core::For { body, .. } = e {
            if body_par(body, analysis) {
                found = true;
            }
        }
    });
    found
}

/// Fan `items` out over at most `threads` scoped workers and collect the
/// per-item results **in input order**. Each worker builds its own state
/// with `init` on its own thread (for the evaluator: a worker evaluator,
/// a store read view and a copy of the environment — workers never see
/// each other's bindings) and processes one contiguous chunk, so
/// within-chunk evaluation order equals sequential order. A panicking
/// worker propagates its panic to the caller after the scope joins every
/// thread — identical blast radius to a panic in a sequential loop (the
/// engine's catch/rollback sees the same thing).
///
/// Thread-spawn failure (an OS resource limit, not a query error) degrades
/// gracefully: chunks whose worker could not be spawned are evaluated
/// sequentially on the calling thread after the spawned workers join, and
/// the `engine.par_spawn_fallback` counter records the event. A pure body
/// cannot observe the difference.
pub fn par_map<T, S, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<XdmResult<Sequence>>
where
    T: Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> XdmResult<Sequence> + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, MAX_THREADS).min(n);
    if workers <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, it)| f(&mut state, i, it))
            .collect();
    }
    let chunk = n.div_ceil(workers);
    let mut results: Vec<Option<XdmResult<Sequence>>> = (0..n).map(|_| None).collect();
    let mut spawn_failed = false;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut rest: &mut [Option<XdmResult<Sequence>>] = &mut results;
        for w in 0..workers {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let (slot, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            let chunk_items = &items[lo..hi];
            let (init, f) = (&init, &f);
            let spawned = std::thread::Builder::new()
                .name(format!("xqb-par-{w}"))
                .stack_size(PAR_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    let mut state = init();
                    for (j, it) in chunk_items.iter().enumerate() {
                        slot[j] = Some(f(&mut state, lo + j, it));
                    }
                });
            match spawned {
                Ok(h) => handles.push(h),
                // An OS thread limit is not the query's fault: the dropped
                // closure releases its slots (still `None`), and the
                // sequential sweep below fills them.
                Err(_) => spawn_failed = true,
            }
        }
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
    if spawn_failed {
        crate::obs::global()
            .counter("engine.par_spawn_fallback")
            .add(1);
        let mut state = init();
        for (i, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(f(&mut state, i, &items[i]));
            }
        }
    }
    // Order preservation: the chunks partition 0..n exactly, so every slot
    // must be filled — a hole would mean dropped or reordered work.
    debug_assert!(
        results.iter().all(Option::is_some),
        "parallel worker left an item slot unfilled"
    );
    results
        .into_iter()
        .map(|r| r.expect("parallel worker left an item slot unfilled"))
        .collect()
}

/// Concatenate per-item results in input order; the first error — the one
/// the sequential loop would have raised — wins.
pub fn merge_in_order(results: Vec<XdmResult<Sequence>>) -> XdmResult<Sequence> {
    let mut out = Sequence::new();
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::DynEnv;
    use crate::eval::Evaluator;
    use xqdm::item::Item;
    use xqdm::{seq, Store, XdmError};
    use xqsyn::compile;

    fn gate(src: &str) -> bool {
        let prog = compile(src).expect("compile");
        let analysis = EffectAnalysis::new(&prog);
        let funcs: HashMap<(String, usize), CoreFunction> = prog
            .functions
            .iter()
            .map(|f| ((f.name.clone(), f.params.len()), f.clone()))
            .collect();
        // Gate judged on the whole body expression, as a loop body would be.
        par_safe(&prog.body, &analysis, &funcs)
    }

    #[test]
    fn gate_admits_pure_rejects_impure() {
        assert!(gate("$x/a[@id = 3] + count($y)"));
        assert!(gate("for $i in 1 to 9 return $i * $i"));
        // Alloc, Pending, Effectful: all rejected.
        assert!(!gate("<a/>"));
        assert!(!gate("insert { <a/> } into { $x }"));
        assert!(!gate("snap { delete { $x } }"));
        // Pure-rated but par-opaque.
        assert!(!gate("parse-xml(\"<a/>\")"));
        assert!(!gate("trace($x, \"label\")"));
        // A snap over pure code is Pure on the lattice but draws seeds.
        assert!(!gate("snap { 1 + 2 }"));
    }

    #[test]
    fn gate_chases_function_bodies() {
        assert!(gate(
            "declare function f($n) { $n * 2 }; for $i in $s return f($i)"
        ));
        // parse-xml hides behind a pure-rated function body.
        assert!(!gate(
            "declare function f($n) { parse-xml(\"<a/>\") }; for $i in $s return f($i)"
        ));
        // ...and behind one more level of calls.
        assert!(!gate(
            "declare function g() { parse-xml(\"<a/>\") };
             declare function f($n) { g() };
             f(1)"
        ));
    }

    #[test]
    fn par_map_preserves_input_order_and_first_error() {
        let items: Vec<i64> = (0..100).collect();
        let results = par_map(
            8,
            &items,
            || (),
            |_, i, it| {
                assert_eq!(*it as usize, i);
                Ok(seq![Item::integer(*it * 2)])
            },
        );
        let merged = merge_in_order(results).unwrap();
        assert_eq!(merged.len(), 100);
        assert_eq!(merged[41], Item::integer(82));

        // Two failing items: the earlier one's error surfaces.
        let results = par_map(
            8,
            &items,
            || (),
            |_, _i, it| {
                if *it == 97 {
                    Err(XdmError::new("E-LATE", "late"))
                } else if *it == 13 {
                    Err(XdmError::new("E-EARLY", "early"))
                } else {
                    Ok(seq![])
                }
            },
        );
        assert_eq!(merge_in_order(results).unwrap_err().code, "E-EARLY");
    }

    #[test]
    fn par_map_builds_state_once_per_worker_thread() {
        let items: Vec<i64> = (0..64).collect();
        let results = par_map(
            4,
            &items,
            || std::thread::current().id(),
            |id, _, _| {
                assert_eq!(*id, std::thread::current().id());
                Ok(seq![])
            },
        );
        assert!(merge_in_order(results).is_ok());
    }

    #[test]
    fn worker_rejects_non_pure_bodies_defensively() {
        let mut store = Store::new();
        let doc = xqdm::xml::parse_document(&mut store, "<r><e/></r>").unwrap();
        let items = [1i64, 2, 3, 4];
        // A constructor allocates, a delete emits a Δ, a snap closes a
        // scope: each is a gate bug once it reaches a worker.
        for body in ["<a/>", "delete { $doc/r/e }", "snap { 1 }"] {
            let prog = compile(body).unwrap();
            for threads in [1, 2] {
                let mut ev = Evaluator::new(&prog).with_threads(threads);
                ev.bind_global("doc", seq![Item::Node(doc)]);
                let results = ev.fan_out(&store, &DynEnv::new(), &items, |ev, store, env, _, _| {
                    ev.eval(store, env, &prog.body)
                });
                for r in results {
                    assert_eq!(r.unwrap_err().code, "XQB0051", "{body} @ {threads}");
                }
            }
        }
    }

    #[test]
    fn threads_env_parsing_is_defensive() {
        // Not asserting on the live environment (tests run concurrently);
        // just the clamp logic via par_map worker counts.
        let items = [1i64, 2, 3];
        let r = par_map(
            usize::MAX,
            &items,
            || (),
            |_, _i, it| Ok(seq![Item::integer(*it)]),
        );
        assert_eq!(merge_in_order(r).unwrap().len(), 3);
    }
}
