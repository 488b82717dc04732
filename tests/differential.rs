//! Differential determinism harness: every query runs through a matrix
//! of engine configurations — {compiled, interpreted} × {1, 2, 8} worker
//! threads — and each variant must produce the identical value sequence,
//! the identical serialized store, the identical snap/Δ statistics
//! (`snaps_closed`, `requests_emitted`, `requests_applied`,
//! `max_snap_depth`, which pin the Δ ordering and the per-snap seed
//! draws), and identical error codes,
//! in all three snap application modes. The sequential interpreter
//! (threads = 1, `set_compile(false)`) is the reference semantics;
//! everything else is an evaluation strategy that must be observably
//! indistinguishable from it.
//!
//! `plan_nodes_executed` / `joins_executed` / `par_regions` / `par_items`
//! are *strategy* counters — they legitimately differ across the matrix
//! and are excluded from the comparison (a separate non-vacuity test
//! asserts the parallel path really runs).
//!
//! A `proptest` section generalizes the fixed corpus with randomly
//! generated join-shaped programs and data, additionally asserting the
//! compiled engine really did execute a hash join (`joins_executed > 0`)
//! so the equivalence is not vacuous.

use proptest::prelude::*;
use xquery_bang::xmarkgen::{Scale, XmarkGen};
use xquery_bang::{Engine, Error, Item};

/// The thread counts the determinism matrix exercises.
const THREAD_MATRIX: &[usize] = &[1, 2, 8];

/// One engine configuration under test.
struct Variant {
    label: String,
    engine: Engine,
}

/// The full matrix: {interpreted, compiled} × [`THREAD_MATRIX`], all with
/// the same seed. The first variant (interpreted × 1 thread) is the
/// reference.
fn matrix(seed: u64) -> Vec<Variant> {
    let mut variants = Vec::new();
    for &compile in &[false, true] {
        for &threads in THREAD_MATRIX {
            let mut engine = Engine::new().with_seed(seed);
            engine.set_compile(compile);
            engine.set_threads(threads);
            variants.push(Variant {
                label: format!(
                    "{}×{threads}",
                    if compile { "compiled" } else { "interpreted" }
                ),
                engine,
            });
        }
    }
    variants
}

fn error_code(e: &Error) -> String {
    match e {
        Error::Parse(_) => "parse".to_string(),
        Error::Eval(x) => x.code.to_string(),
    }
}

/// Run `queries` in order on every matrix variant (same seed, same
/// documents, same preloaded modules) and assert observable equivalence
/// with the sequential-interpreter reference after every step.
fn differential(docs: &[(&str, &str)], modules: &[&str], queries: &[&str]) {
    let mut variants = matrix(0xd1ff);
    for v in &mut variants {
        for (name, xml) in docs {
            v.engine.load_document(name, xml).unwrap();
        }
        for m in modules {
            v.engine.load_module(m).unwrap();
        }
    }

    for q in queries {
        let (reference, rest) = variants.split_first_mut().unwrap();
        let rr = reference.engine.run(q);
        for v in rest.iter_mut() {
            let rv = v.engine.run(q);
            match (&rr, &rv) {
                (Ok(vr), Ok(vv)) => {
                    assert_eq!(
                        reference.engine.serialize(vr).unwrap(),
                        v.engine.serialize(vv).unwrap(),
                        "value mismatch for {q} ({} vs {})",
                        reference.label,
                        v.label
                    );
                    let (sr, sv) = (
                        reference.engine.last_stats().unwrap(),
                        v.engine.last_stats().unwrap(),
                    );
                    // Semantic statistics only — strategy counters
                    // (plan_nodes/joins/par_*) vary by design.
                    assert_eq!(
                        sr.snaps_closed, sv.snaps_closed,
                        "snaps_closed for {q} ({})",
                        v.label
                    );
                    assert_eq!(
                        sr.requests_emitted, sv.requests_emitted,
                        "requests_emitted for {q} ({})",
                        v.label
                    );
                    assert_eq!(
                        sr.requests_applied, sv.requests_applied,
                        "requests_applied for {q} ({})",
                        v.label
                    );
                    assert_eq!(
                        sr.max_snap_depth, sv.max_snap_depth,
                        "max_snap_depth for {q} ({})",
                        v.label
                    );
                }
                (Err(er), Err(ev)) => {
                    assert_eq!(
                        error_code(er),
                        error_code(ev),
                        "error code mismatch for {q} ({})",
                        v.label
                    );
                }
                _ => panic!(
                    "divergence for {q}: {}={rr:?} {}={rv:?}",
                    reference.label, v.label
                ),
            }
        }
    }

    // The stores must have converged to the same state: serialize every
    // loaded document from every engine.
    for (name, _) in docs {
        let reference = variants[0].engine.binding(name).unwrap().clone();
        let reference = variants[0].engine.serialize(&reference).unwrap();
        for v in &variants[1..] {
            let b = v.engine.binding(name).unwrap().clone();
            assert_eq!(
                reference,
                v.engine.serialize(&b).unwrap(),
                "final store mismatch for document {name} ({})",
                v.label
            );
        }
    }
}

#[test]
fn conformance_style_queries_agree() {
    let doc = r#"<site>
        <people>
            <person id="p0"><name>Ada</name><age>36</age></person>
            <person id="p1"><name>Grace</name><age>45</age></person>
            <person id="p2"><name>Alan</name></person>
        </people>
        <items><item ref="p1"/><item ref="p0"/><item ref="p1"/></items>
    </site>"#;
    differential(
        &[("doc", doc)],
        &[],
        &[
            "1 + 2 * 3",
            "sum(1 to 100)",
            "count($doc//person)",
            "for $p in $doc//person return string($p/name)",
            "for $p at $i in $doc//person return concat($i, \":\", string($p/name))",
            "let $adults := for $p in $doc//person where $p/age > 40 return $p \
             return count($adults)",
            "if (count($doc//item) > 2) then \"many\" else \"few\"",
            "(1, 2, (3, 4), ())",
            // A join over person ids — compiles to a hash join on the
            // compiled engine, nested loop on the interpreter.
            "for $i in $doc//item
             for $p in $doc//person
             where $i/@ref = $p/@id
             return string($p/name)",
            // Errors must agree too.
            "1 div 0",
            "$no_such_variable",
        ],
    );
}

/// ISSUE 10: the same query answered three ways — index-selected scan,
/// batch kernel walk, plain interpretation — must be observably
/// identical, in all three snap modes, including when the updates in
/// flight move nodes between index buckets mid-run. The interpreted ×
/// index-off engine is the reference; index-on is just another strategy.
#[test]
fn index_selection_agrees_across_strategies() {
    let people: String = std::iter::once("<site>".to_string())
        .chain((0..30).map(|i| format!("<person id=\"p{i}\"><name>n{i}</name></person>")))
        .chain(std::iter::once("</site>".to_string()))
        .collect();
    for mode in ["ordered ", "nondeterministic ", "conflict-detection "] {
        let mut variants = Vec::new();
        for (label, compile, indexing) in [
            ("interpreted", false, false),
            ("batch", true, false),
            ("indexed", true, true),
        ] {
            let mut e = Engine::new().with_seed(0xd1ff);
            e.set_compile(compile);
            e.set_indexing(indexing);
            e.load_document("doc", &people).unwrap();
            e.load_document("out", "<out/>").unwrap();
            variants.push((label, e));
        }
        let queries = [
            r#"for $p in $doc/site/person[@id = "p7"] return string($p/name)"#.to_string(),
            "count($doc//person)".to_string(),
            // Move p3 to a new bucket inside a snap: maintenance runs
            // under the chosen application mode.
            format!(
                r#"snap {mode}{{
                     for $p in $doc/site/person[@id = "p3"]
                     return (replace value of {{ $p/@id }} with {{ "moved" }},
                             insert {{ <hit/> }} into {{ $out/out }}) }}"#
            ),
            r#"count($doc/site/person[@id = "p3"])"#.to_string(),
            r#"for $p in $doc//person[@id = "moved"] return string($p/name)"#.to_string(),
            r#"count($doc/site/person[@id = "no-such-id"])"#.to_string(),
            // Bare path last: compiles to a batch/index plan leaf, so
            // `last_stats` below shows the strategy counters for it.
            r#"$doc/site/person[@id = "moved"]/name"#.to_string(),
        ];
        for q in &queries {
            let mut outs = Vec::new();
            for (label, e) in &mut variants {
                let v = e
                    .run(q)
                    .unwrap_or_else(|err| panic!("{label}: {q} failed: {err}"));
                outs.push((label.to_string(), e.serialize(&v).unwrap()));
            }
            for (label, out) in &outs[1..] {
                assert_eq!(
                    out, &outs[0].1,
                    "strategy divergence for {q} ({label} vs interpreted, mode {mode})"
                );
            }
        }
        // Non-vacuity: the indexed engine really used index scans, and
        // its store still matches a from-scratch rebuild.
        let (_, indexed) = variants.last_mut().unwrap();
        let stats = indexed.last_stats().unwrap();
        assert!(
            stats.idx_scans > 0,
            "indexed variant never chose an index scan (mode {mode}): {stats:?}"
        );
        assert!(indexed.store.index_verify(), "index diverged (mode {mode})");
    }
}

/// Every update form with a path target, run by the interpreter, by the
/// compiled plan on the batch kernels, and by the compiled plan with the
/// secondary indexes, in all three snap modes: identical values or error
/// codes, identical Δ statistics, identical final stores.
#[test]
fn compiled_update_targets_agree_across_strategies() {
    let person =
        |i: usize| format!("<person id=\"p{i}\"><name>n{i}</name><email>e{i}@x</email></person>");
    let doc: String = std::iter::once("<site><people>".to_string())
        .chain((0..12).map(person))
        .chain(std::iter::once(
            "</people><trash><e/><e/><e/></trash></site>".to_string(),
        ))
        .collect();
    const P: &str = "$doc/site/people/person";
    for mode in ["ordered ", "nondeterministic ", "conflict-detection "] {
        let mut variants = Vec::new();
        for (label, compile, indexing) in [
            ("interpreted", false, false),
            ("batch", true, false),
            ("indexed", true, true),
        ] {
            let mut e = Engine::new().with_seed(0xd1ff);
            e.set_compile(compile);
            e.set_indexing(indexing);
            e.load_document("doc", &doc).unwrap();
            variants.push((label, e));
        }
        let snap = |body: String| format!("snap {mode}{{ {body} }}");
        let queries = [
            // One form per row, each with a path target.
            snap(format!(
                r#"insert {{ <watch n="1"/> }} into {{ {P}[@id = "p1"] }}"#
            )),
            snap(format!(
                r#"insert {{ <head/> }} as first into {{ {P}[@id = "p2"] }}"#
            )),
            snap(format!(
                r#"insert {{ <b/> }} before {{ {P}[@id = "p3"]/name }}"#
            )),
            snap(format!(
                r#"insert {{ <a/> }} after {{ {P}[@id = "p3"]/name }}"#
            )),
            snap("delete { $doc/site/trash/e }".to_string()),
            snap(format!(
                r#"replace {{ {P}[@id = "p4"]/name }} with {{ <name>four</name> }}"#
            )),
            snap(format!(
                r#"replace {{ {P}[@id = "p4"]/@id }} with {{ attribute id {{ "p4b" }} }}"#
            )),
            snap(format!(
                r#"replace value of {{ {P}[@id = "p5"]/email/text() }} with {{ "new@x" }}"#
            )),
            snap(format!(
                r#"replace value of {{ {P}[@id = "p6"]/@id }} with {{ "p6b" }}"#
            )),
            snap(format!(
                r#"rename {{ {P}[@id = "p7"]/name }} to {{ "label" }}"#
            )),
            // Empty and multi-node targets: the same error codes.
            snap(format!(r#"insert {{ <x/> }} into {{ {P}[@id = "none"] }}"#)),
            snap(format!("insert {{ <x/> }} into {{ {P} }}")),
            snap(format!(
                r#"replace {{ {P}[@id = "none"]/name }} with {{ <name/> }}"#
            )),
            snap(format!("rename {{ {P}/name }} to {{ \"n\" }}")),
            snap(format!(r#"delete {{ {P}[@id = "none"] }}"#)),
            // `replace value of` on an element is XQB0011, raised before
            // the `with` operand runs.
            snap(format!(
                r#"replace value of {{ {P}[@id = "p8"] }} with {{ 1 div 0 }}"#
            )),
            // Operand order: the insert's source closes a snap whose
            // insert the target then sees (target-first would be empty).
            snap(format!(
                r#"insert {{ (snap {{ insert {{ <person id="p99"/> }} into {{ $doc/site/people }} }}, <late/>) }}
                   into {{ {P}[@id = "p99"] }}"#
            )),
            // ...and replace evaluates its target before `with`, whose
            // snap then renames the target (with-first would be empty).
            snap(format!(
                r#"replace {{ {P}[@id = "p9"]/name }}
                   with {{ (snap {{ rename {{ {P}[@id = "p9"]/name }} to {{ "gone" }} }}, <name>nine</name>) }}"#
            )),
            format!("for $p in {P} return (string($p/@id), for $c in $p/* return name($c))"),
            "count($doc/site/trash/*)".to_string(),
        ];
        for q in &queries {
            let mut outs = Vec::new();
            for (label, e) in &mut variants {
                let out = match e.run(q) {
                    Ok(v) => Ok(e.serialize(&v).unwrap()),
                    Err(err) => Err(error_code(&err)),
                };
                let stats = e.last_stats().map(|s| {
                    (
                        s.snaps_closed,
                        s.requests_emitted,
                        s.requests_applied,
                        s.max_snap_depth,
                    )
                });
                outs.push((label.to_string(), out, stats));
            }
            for (label, out, stats) in &outs[1..] {
                assert_eq!(
                    out, &outs[0].1,
                    "strategy divergence for {q} ({label} vs interpreted, mode {mode})"
                );
                assert_eq!(
                    stats, &outs[0].2,
                    "Δ statistics diverge for {q} ({label}, mode {mode})"
                );
            }
        }
        let finals: Vec<String> = variants
            .iter_mut()
            .map(|(_, e)| {
                let d = e.binding("doc").unwrap().clone();
                e.serialize(&d).unwrap()
            })
            .collect();
        assert!(
            finals.iter().all(|f| f == &finals[0]),
            "final stores diverge ({mode})"
        );
        for (label, e) in &variants {
            assert!(e.store.index_verify(), "{label}: index diverged ({mode})");
        }
        // Non-vacuity: the compiled engines plan the path targets as
        // update nodes over batch chains, and the indexed one scans.
        let (_, indexed) = variants.last_mut().unwrap();
        let plan = indexed
            .explain(&format!(r#"insert {{ <w/> }} into {{ {P}[@id = "p1"] }}"#))
            .unwrap();
        assert!(
            plan.contains("Update[") && plan.contains("BatchPath["),
            "{plan}"
        );
        indexed
            .run(&format!(r#"delete {{ {P}[@id = "p1"]/watch }}"#))
            .unwrap();
        assert!(
            indexed.last_stats().unwrap().idx_scans > 0,
            "no index scan ({mode})"
        );
    }
}

#[test]
fn updates_agree_in_all_snap_modes() {
    for mode in ["", "ordered ", "nondeterministic ", "conflict-detection "] {
        differential(
            &[("doc", "<root><log/></root>")],
            &[],
            &[
                &format!(
                    "snap {mode}{{
                       insert {{ <a/> }} into {{ $doc/root/log }},
                       insert {{ <b/> }} into {{ $doc/root/log }},
                       insert {{ <c/> }} into {{ $doc/root/log }} }}"
                ),
                "for $e in $doc/root/log/* return name($e)",
                // Nested snaps: inner commits before outer.
                &format!(
                    "snap {mode}{{
                       insert {{ <outer/> }} into {{ $doc/root/log }},
                       snap {mode}{{ insert {{ <inner/> }} into {{ $doc/root/log }} }},
                       count($doc/root/log/inner) }}"
                ),
                "count($doc/root/log/*)",
            ],
        );
    }
}

#[test]
fn join_inside_snap_agrees() {
    let left = r#"<left><e n="l0" k="k1"/><e n="l1" k="k2"/><e n="l2" k="k1"/></left>"#;
    let right = r#"<right><e n="r0" k="k1"/><e n="r1" k="k3"/><e n="r2" k="k1"/></right>"#;
    for mode in ["", "nondeterministic ", "conflict-detection "] {
        differential(
            &[("left", left), ("right", right), ("out", "<out/>")],
            &[],
            &[&format!(
                "snap {mode}{{
                   for $l in $left/left/e
                   for $r in $right/right/e
                   where $l/@k = $r/@k
                   return insert {{ <m l=\"{{$l/@n}}\" r=\"{{$r/@n}}\"/> }} into {{ $out/out }} }}"
            )],
        );
    }
}

#[test]
fn join_inside_declared_function_agrees() {
    let left = r#"<left><e n="l0" k="k1"/><e n="l1" k="k2"/></left>"#;
    let right = r#"<right><e n="r0" k="k2"/><e n="r1" k="k1"/><e n="r2" k="k2"/></right>"#;
    differential(
        &[("left", left), ("right", right)],
        &[],
        &["declare function pairs($ls, $rs) {
               for $l in $ls/e
               for $r in $rs/e
               where $l/@k = $r/@k
               return concat(string($l/@n), \"-\", string($r/@n))
             };
             pairs($left/left, $right/right)"],
    );
}

#[test]
fn module_functions_agree() {
    differential(
        &[("log", "<log/>")],
        &[r#"
            declare variable $d := element counter { 0 };
            declare function nextid() {
              snap { replace { $d/text() } with { $d + 1 }, $d }
            };
            declare function log_call($what) {
              snap insert { <call id="{nextid()}" what="{$what}"/> } into { $log/log }
            };"#],
        &[
            "log_call(\"a\")",
            "log_call(\"b\")",
            "for $c in $log/log/call return string($c/@id)",
        ],
    );
}

#[test]
fn group_by_shape_agrees() {
    let doc = r#"<site>
        <people><person id="p0"/><person id="p1"/><person id="p2"/></people>
        <items><item ref="p0"/><item ref="p0"/><item ref="p2"/></items>
    </site>"#;
    differential(
        &[("doc", doc)],
        &[],
        &["for $p in $doc//person
             let $sold := for $i in $doc//item
                          where $i/@ref = $p/@id
                          return $i
             return <histo id=\"{$p/@id}\">{ count($sold) }</histo>"],
    );
}

#[test]
fn xmark_queries_agree() {
    let scale = Scale {
        persons: 25,
        items: 20,
        closed_auctions: 15,
        open_auctions: 10,
    };
    // Same generated document on every engine via the same generator seed.
    let mut variants = matrix(99);
    for v in &mut variants {
        let doc = XmarkGen::new(17)
            .generate(&mut v.engine.store, &scale)
            .unwrap();
        v.engine.bind("auction", xqdm::seq![Item::Node(doc)]);
    }

    let queries = [
        // Q1-style lookup.
        r#"for $b in $auction/site/people/person[@id = "person0"] return string($b/name)"#,
        // Q8: purchase counts per person — the paper's join benchmark.
        r#"for $p in $auction/site/people/person
           let $a := for $t in $auction/site/closed_auctions/closed_auction
                     where $t/buyer/@person = $p/@id
                     return $t
           return <item person="{$p/name}">{ count($a) }</item>"#,
        // Q8 nested inside an updating snap.
        r#"snap {
             for $p in $auction/site/people/person
             for $t in $auction/site/closed_auctions/closed_auction
             where $t/buyer/@person = $p/@id
             return insert { <sale person="{$p/@id}"/> } into { $auction/site }
           }"#,
        "count($auction/site/sale)",
    ];
    for q in &queries {
        let (reference, rest) = variants.split_first_mut().unwrap();
        let vr = reference.engine.run(q).unwrap();
        let sref = reference.engine.serialize(&vr).unwrap();
        let stats_ref = reference.engine.last_stats().unwrap();
        for v in rest.iter_mut() {
            let vv = v.engine.run(q).unwrap();
            assert_eq!(
                sref,
                v.engine.serialize(&vv).unwrap(),
                "value mismatch for {q} ({})",
                v.label
            );
            let sv = v.engine.last_stats().unwrap();
            assert_eq!(stats_ref.snaps_closed, sv.snaps_closed, "{q} ({})", v.label);
            assert_eq!(
                stats_ref.requests_emitted, sv.requests_emitted,
                "{q} ({})",
                v.label
            );
            assert_eq!(
                stats_ref.requests_applied, sv.requests_applied,
                "{q} ({})",
                v.label
            );
        }
    }
    // Final stores must agree across the whole matrix.
    let reference = variants[0].engine.binding("auction").unwrap().clone();
    let reference = variants[0].engine.serialize(&reference).unwrap();
    for v in &variants[1..] {
        let b = v.engine.binding("auction").unwrap().clone();
        assert_eq!(
            reference,
            v.engine.serialize(&b).unwrap(),
            "final XMark store mismatch ({})",
            v.label
        );
    }
}

/// The determinism matrix must not be vacuous: on a pure loop over
/// enough items, every `threads ≥ 2` variant has to actually fan out
/// (`par_regions > 0`), and the sequential variants must not.
#[test]
fn thread_matrix_actually_parallelizes() {
    let mut variants = matrix(5);
    let doc: String = std::iter::once("<root>".to_string())
        .chain((0..40).map(|i| format!("<e v=\"{i}\"/>")))
        .chain(std::iter::once("</root>".to_string()))
        .collect();
    for v in &mut variants {
        v.engine.load_document("doc", &doc).unwrap();
        let r = v
            .engine
            .run("for $e in $doc/root/e return number($e/@v) * 2")
            .unwrap();
        assert_eq!(r.len(), 40, "{}", v.label);
        let stats = v.engine.last_stats().unwrap();
        if v.engine.threads() >= 2 {
            assert!(
                stats.par_regions > 0,
                "{}: pure loop did not fan out: {stats:?}",
                v.label
            );
            assert!(stats.par_items >= 40, "{}: {stats:?}", v.label);
        } else {
            assert_eq!(stats.par_regions, 0, "{}: {stats:?}", v.label);
        }
    }

    // An impure loop body (snap inside) must stay sequential at any
    // thread count.
    let mut eight = Engine::new();
    eight.set_threads(8);
    eight.load_document("doc", &doc).unwrap();
    eight.load_document("log", "<log/>").unwrap();
    eight
        .run("for $e in $doc/root/e return snap insert { <seen/> } into { $log/log }")
        .unwrap();
    let stats = eight.last_stats().unwrap();
    assert_eq!(
        stats.par_regions, 0,
        "snap-in-body loop must not parallelize: {stats:?}"
    );
    assert_eq!(stats.snaps_closed, 41, "40 inner snaps + top level");
}

#[test]
fn compiled_engine_counts_joins_and_plan_nodes() {
    let mut e = Engine::new();
    e.load_document(
        "doc",
        r#"<site>
            <people><person id="p0"/><person id="p1"/></people>
            <items><item ref="p0"/><item ref="p1"/><item ref="p0"/></items>
        </site>"#,
    )
    .unwrap();
    e.run(
        "for $i in $doc//item
         for $p in $doc//person
         where $i/@ref = $p/@id
         return $p",
    )
    .unwrap();
    let stats = e.last_stats().unwrap();
    assert!(stats.joins_executed > 0, "expected a hash join: {stats:?}");
    assert!(stats.plan_nodes_executed > 0);

    // Interpreted engine: no plans, no joins.
    let mut i = Engine::new();
    i.set_compile(false);
    i.load_document("doc", "<x/>").unwrap();
    i.run("count($doc/x)").unwrap();
    let stats = i.last_stats().unwrap();
    assert_eq!(stats.plan_nodes_executed, 0);
    assert_eq!(stats.joins_executed, 0);
}

#[test]
fn plan_cache_hits_on_repeated_queries() {
    let mut e = Engine::new();
    e.load_document("doc", "<root/>").unwrap();
    for _ in 0..3 {
        e.run("count($doc/root)").unwrap();
    }
    let (hits, misses) = e.plan_cache_stats();
    assert_eq!(misses, 1, "same program text should compile once");
    assert_eq!(hits, 2);
    // A different query misses.
    e.run("1 + 1").unwrap();
    let (_, misses) = e.plan_cache_stats();
    assert_eq!(misses, 2);
    // Loading a module changes the augmented program => new cache entry.
    e.load_module("declare function f() { 1 };").unwrap();
    e.run("count($doc/root)").unwrap();
    let (_, misses) = e.plan_cache_stats();
    assert_eq!(misses, 3, "module load must invalidate by fingerprint");
}

#[test]
fn explain_shows_joins_everywhere() {
    let e = Engine::new();
    // Top level.
    let plan = e
        .explain(
            "for $l in $ls/e for $r in $rs/e
             where $l/@k = $r/@k return $r",
        )
        .unwrap();
    assert!(plan.contains("Join"), "top-level join missing:\n{plan}");
    // Inside a snap body.
    let plan = e
        .explain(
            "snap nondeterministic {
               for $l in $ls/e for $r in $rs/e
               where $l/@k = $r/@k
               return insert { <m/> } into { $out } }",
        )
        .unwrap();
    assert!(
        plan.contains("Snap(nondeterministic)") && plan.contains("Join"),
        "snap-nested join missing:\n{plan}"
    );
    // Inside a declared function.
    let plan = e
        .explain(
            "declare function pairs($ls, $rs) {
               for $l in $ls/e for $r in $rs/e
               where $l/@k = $r/@k return $r
             };
             pairs($a, $b)",
        )
        .unwrap();
    assert!(
        plan.contains("declare function pairs") && plan.contains("Join"),
        "function-body join missing:\n{plan}"
    );
    // xqb:explain surfaces the same plan from inside the language.
    let mut e = Engine::new();
    let r = e
        .run(r#"xqb:explain("for $l in $ls/e for $r in $rs/e where $l/@k = $r/@k return $r")"#)
        .unwrap();
    assert!(e.serialize(&r).unwrap().contains("Join"));
}

#[test]
fn interpret_escape_hatch_still_correct() {
    let mut e = Engine::new();
    e.set_compile(false);
    e.load_document("doc", "<x/>").unwrap();
    e.run("snap insert { <y/> } into { $doc/x }").unwrap();
    let r = e.run("count($doc/x/y)").unwrap();
    assert_eq!(e.serialize(&r).unwrap(), "1");
    let (hits, misses) = e.plan_cache_stats();
    assert_eq!((hits, misses), (0, 0), "interpreter must not touch cache");
}

// ---------------------------------------------------------------------------
// Property-based differential testing over join-shaped programs
// ---------------------------------------------------------------------------

/// Key list per side; `None` = element without the key attribute.
#[derive(Debug, Clone)]
struct SideSpec {
    keys: Vec<Option<u8>>,
}

fn side_strategy(max: usize) -> impl Strategy<Value = SideSpec> {
    proptest::collection::vec(proptest::option::of(0u8..5), 0..max)
        .prop_map(|keys| SideSpec { keys })
}

fn side_xml(name: &str, spec: &SideSpec) -> String {
    let mut s = format!("<{name}>");
    for (i, k) in spec.keys.iter().enumerate() {
        match k {
            Some(k) => s.push_str(&format!(r#"<e n="{name}{i}" k="k{k}"/>"#)),
            None => s.push_str(&format!(r#"<e n="{name}{i}"/>"#)),
        }
    }
    s.push_str(&format!("</{name}>"));
    s
}

fn prop_differential(
    left: &SideSpec,
    right: &SideSpec,
    query: &str,
    expect_join: bool,
) -> Result<(), TestCaseError> {
    let docs = [
        ("left".to_string(), side_xml("left", left)),
        ("right".to_string(), side_xml("right", right)),
        ("out".to_string(), "<out/>".to_string()),
    ];
    let mut compiled = Engine::new().with_seed(7);
    let mut interpreted = Engine::new().with_seed(7);
    interpreted.set_compile(false);
    // A parallel compiled engine rides along: same observables required.
    let mut parallel = Engine::new().with_seed(7);
    parallel.set_threads(8);
    for (n, x) in &docs {
        compiled.load_document(n, x).unwrap();
        interpreted.load_document(n, x).unwrap();
        parallel.load_document(n, x).unwrap();
    }
    let vc = compiled.run(query).expect("compiled run");
    let vi = interpreted.run(query).expect("interpreted run");
    let vp = parallel.run(query).expect("parallel run");
    prop_assert_eq!(
        compiled.serialize(&vc).unwrap(),
        interpreted.serialize(&vi).unwrap(),
        "value mismatch"
    );
    prop_assert_eq!(
        compiled.serialize(&vc).unwrap(),
        parallel.serialize(&vp).unwrap(),
        "parallel value mismatch"
    );
    for (n, _) in &docs {
        let bc = compiled.binding(n).unwrap().clone();
        let bi = interpreted.binding(n).unwrap().clone();
        let bp = parallel.binding(n).unwrap().clone();
        prop_assert_eq!(
            compiled.serialize(&bc).unwrap(),
            interpreted.serialize(&bi).unwrap(),
            "store mismatch"
        );
        prop_assert_eq!(
            compiled.serialize(&bc).unwrap(),
            parallel.serialize(&bp).unwrap(),
            "parallel store mismatch"
        );
    }
    let (sc, si, sp) = (
        compiled.last_stats().unwrap(),
        interpreted.last_stats().unwrap(),
        parallel.last_stats().unwrap(),
    );
    prop_assert_eq!(sc.snaps_closed, si.snaps_closed);
    prop_assert_eq!(sc.requests_emitted, si.requests_emitted);
    prop_assert_eq!(sc.requests_applied, si.requests_applied);
    prop_assert_eq!(sc.snaps_closed, sp.snaps_closed);
    prop_assert_eq!(sc.requests_emitted, sp.requests_emitted);
    prop_assert_eq!(sc.requests_applied, sp.requests_applied);
    if expect_join {
        prop_assert!(
            sc.joins_executed > 0,
            "compiled engine fell back to interpretation"
        );
    }
    prop_assert_eq!(si.joins_executed, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_pure_joins_differential(
        left in side_strategy(10),
        right in side_strategy(10),
    ) {
        prop_differential(
            &left,
            &right,
            r#"for $l in $left/left/e
               for $r in $right/right/e
               where $l/@k = $r/@k
               return <m l="{$l/@n}" r="{$r/@n}"/>"#,
            true,
        )?;
    }

    #[test]
    fn random_updating_joins_in_snap_differential(
        left in side_strategy(8),
        right in side_strategy(8),
    ) {
        prop_differential(
            &left,
            &right,
            r#"snap {
                 for $l in $left/left/e
                 for $r in $right/right/e
                 where $l/@k = $r/@k
                 return insert { <m l="{$l/@n}" r="{$r/@n}"/> } into { $out/out }
               }"#,
            true,
        )?;
    }

    #[test]
    fn random_group_by_differential(
        left in side_strategy(8),
        right in side_strategy(8),
    ) {
        prop_differential(
            &left,
            &right,
            // `$g` is used twice so the simplifier cannot inline the
            // `let` away — the outer-join + group-by shape survives to
            // plan recognition.
            r#"for $l in $left/left/e
               let $g := for $r in $right/right/e
                         where $l/@k = $r/@k
                         return $r
               return <grp l="{$l/@n}" n="{count($g)}">{ $g }</grp>"#,
            true,
        )?;
    }
}
