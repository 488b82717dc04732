//! Property-based tests on the store's core invariants.
//!
//! Strategy: generate random *scripts* of store operations (build, detach,
//! move, copy, rename), execute them, and check the structural invariants
//! the paper's semantics relies on after every script:
//!
//! * parent/child links are mutually consistent;
//! * document order is a strict total order consistent with the tree;
//! * detached nodes remain alive and queryable (detach semantics);
//! * deep copies are structurally equal but disjoint in identity;
//! * reachability accounting adds up;
//! * a Δ containing a failing request leaves the store byte-identical
//!   (rollback exactness) in all three snap modes.

use proptest::prelude::*;
use xquery_bang::xqdm::item::deep_equal_nodes;
use xquery_bang::xqdm::store::InsertAnchor;
use xquery_bang::xqdm::{NodeId, QName, Store};

/// One scripted operation, with indices resolved modulo the live node set.
/// `Snapshot` is a snapshot point: fork the store (copy-on-write) and keep
/// the fork alive while the script goes on writing.
#[derive(Debug, Clone)]
enum Op {
    NewElement(u8),
    NewText(String),
    NewAttr { name: u8, value: u8 },
    AppendChild { parent: usize, child: usize },
    AttachAttr { owner: usize, attr: usize },
    SetAttrValue { node: usize, value: u8 },
    Detach(usize),
    Rename { node: usize, name: u8 },
    DeepCopy(usize),
    MoveAfter { node: usize, anchor: usize },
    Snapshot,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..20).prop_map(Op::NewElement),
        "[a-z]{0,6}".prop_map(Op::NewText),
        (0u8..6, 0u8..8).prop_map(|(name, value)| Op::NewAttr { name, value }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(parent, child)| Op::AppendChild { parent, child }),
        (any::<usize>(), any::<usize>()).prop_map(|(owner, attr)| Op::AttachAttr { owner, attr }),
        (any::<usize>(), 0u8..8).prop_map(|(node, value)| Op::SetAttrValue { node, value }),
        any::<usize>().prop_map(Op::Detach),
        (any::<usize>(), 0u8..20).prop_map(|(node, name)| Op::Rename { node, name }),
        any::<usize>().prop_map(Op::DeepCopy),
        (any::<usize>(), any::<usize>()).prop_map(|(node, anchor)| Op::MoveAfter { node, anchor }),
        Just(Op::Snapshot),
    ]
}

/// Execute a script, ignoring operations whose preconditions fail (the
/// store must reject them gracefully, never corrupt state).
fn run_script(ops: &[Op]) -> (Store, Vec<NodeId>) {
    let (store, nodes, _) = run_script_with_forks(ops);
    (store, nodes)
}

/// [`run_script`], also returning every fork taken at an
/// [`Op::Snapshot`] point together with its fingerprint at fork time.
fn run_script_with_forks(ops: &[Op]) -> (Store, Vec<NodeId>, Vec<(Store, u64)>) {
    let mut forks = Vec::new();
    let mut store = Store::new();
    let mut nodes: Vec<NodeId> = vec![store.new_element(QName::local("root"))];
    for op in ops {
        let pick = |i: usize| nodes[i % nodes.len()];
        match op {
            Op::NewElement(n) => nodes.push(store.new_element(QName::local(format!("e{n}")))),
            Op::NewText(t) => nodes.push(store.new_text(t.clone())),
            Op::NewAttr { name, value } => {
                nodes.push(
                    store.new_attribute(QName::local(format!("a{name}")), format!("v{value}")),
                );
            }
            Op::AppendChild { parent, child } => {
                let (p, c) = (pick(*parent), pick(*child));
                let _ = store.append_child(p, c);
            }
            Op::AttachAttr { owner, attr } => {
                let (o, a) = (pick(*owner), pick(*attr));
                let _ = store.attach_attribute(o, a);
            }
            Op::SetAttrValue { node, value } => {
                let _ = store.set_attribute_value(pick(*node), format!("v{value}"));
            }
            Op::Detach(n) => {
                let _ = store.detach(pick(*n));
            }
            Op::Rename { node, name } => {
                let _ = store.apply_rename(pick(*node), QName::local(format!("r{name}")));
            }
            Op::DeepCopy(n) => {
                if let Ok(c) = store.deep_copy(pick(*n)) {
                    nodes.push(c);
                }
            }
            Op::MoveAfter { node, anchor } => {
                let (n, a) = (pick(*node), pick(*anchor));
                if n != a && store.parent(a).ok().flatten().is_some() {
                    let parent = store.parent(a).unwrap().unwrap();
                    if store.detach(n).is_ok() {
                        let _ = store.apply_insert(&[n], parent, InsertAnchor::After(a));
                    }
                }
            }
            Op::Snapshot => {
                let fork = store.snapshot();
                let fingerprint = fork.fingerprint();
                forks.push((fork, fingerprint));
            }
        }
    }
    (store, nodes, forks)
}

/// Every fork's index plane is still exact and its contents unchanged,
/// however much the store wrote after the fork (copy-on-write isolation
/// of the sharded plane).
fn check_forks(forks: &[(Store, u64)]) -> Result<(), TestCaseError> {
    for (i, (fork, fingerprint)) in forks.iter().enumerate() {
        prop_assert!(fork.index_verify(), "fork {i}: index diverged from rebuild");
        prop_assert_eq!(fork.fingerprint(), *fingerprint, "fork {} changed", i);
    }
    Ok(())
}

/// Every node is alive, and parent/child links agree both ways.
fn check_link_consistency(store: &Store, nodes: &[NodeId]) {
    for &n in nodes {
        assert!(store.is_alive(n));
        if let Some(p) = store.parent(n).unwrap() {
            let in_children = store.children(p).unwrap().contains(&n);
            let in_attrs = store.attributes(p).unwrap().contains(&n);
            assert!(
                in_children || in_attrs,
                "{n} has parent {p} but is not its child"
            );
        }
        for &c in store.children(n).unwrap() {
            assert_eq!(
                store.parent(c).unwrap(),
                Some(n),
                "child {c} of {n} disagrees"
            );
        }
    }
}

/// A textual fingerprint of everything observable about the tracked nodes:
/// per-root serialization outcome (including errors, so a node that fails
/// to serialize still contributes) plus reachability statistics.
fn snapshot(store: &Store, tracked: &[NodeId]) -> String {
    let mut out = String::new();
    for &n in tracked {
        if store.is_alive(n) && store.parent(n).unwrap().is_none() {
            out.push_str(&format!(
                "{n}={:?};",
                xquery_bang::xqdm::xml::serialize(store, n)
            ));
        }
    }
    out.push_str(&format!("{:?}", store.stats(tracked).unwrap()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scripts_preserve_link_consistency(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let (store, nodes) = run_script(&ops);
        check_link_consistency(&store, &nodes);
    }

    // Maintenance equivalence: after ANY random mutation
    // stream (births, kills, renames, attribute moves, deep copies),
    // the incrementally-maintained index plane holds exactly the
    // entries a from-scratch rebuild would — and so does every fork
    // taken at a snapshot point along the way.
    #[test]
    fn index_matches_from_scratch_rebuild(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let (store, _, forks) = run_script_with_forks(&ops);
        prop_assert!(store.index_verify(), "index diverged from rebuild");
        check_forks(&forks)?;
    }

    // Same oracle through the Δ layer: a successfully applied random
    // delta keeps the index rebuild-equivalent in every snap mode.
    #[test]
    fn index_matches_rebuild_after_applied_deltas(
        ops in proptest::collection::vec(op_strategy(), 0..40),
        renames in proptest::collection::vec((any::<usize>(), 0u8..12), 1..8),
        mode_pick in 0u8..3,
    ) {
        use xquery_bang::xqcore::{apply_delta, Delta, SnapMode, UpdateRequest};
        let (mut store, nodes, mut forks) = run_script_with_forks(&ops);
        let pick_element = |store: &Store, i: usize| -> NodeId {
            (0..nodes.len())
                .map(|k| nodes[(i + k) % nodes.len()])
                .find(|&n| store.name(n).unwrap().is_some())
                .unwrap_or(nodes[0])
        };
        let delta: Delta = renames
            .iter()
            .enumerate()
            .map(|(slot, (i, name))| UpdateRequest::Rename {
                node: pick_element(&store, *i),
                name: QName::local(format!("d{name}x{slot}")),
            })
            .collect();
        let mode = [SnapMode::Ordered, SnapMode::Nondeterministic, SnapMode::ConflictDetection]
            [mode_pick as usize];
        // A snapshot point right before the apply, as the server takes
        // one per commit.
        let fork = store.snapshot();
        let fingerprint = fork.fingerprint();
        forks.push((fork, fingerprint));
        // Same-target renames conflict under conflict-detection; either
        // outcome must leave the index rebuild-equivalent.
        let _ = apply_delta(&mut store, delta, mode, 7);
        prop_assert!(store.index_verify(), "index diverged after Δ in {mode:?}");
        check_forks(&forks)?;
    }

    #[test]
    fn no_cycles_ever(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let (store, nodes) = run_script(&ops);
        // Walking up from any node terminates (in at most |nodes| steps).
        for &n in &nodes {
            let mut cur = n;
            let mut steps = 0;
            while let Some(p) = store.parent(cur).unwrap() {
                cur = p;
                steps += 1;
                prop_assert!(steps <= nodes.len() + 1, "parent cycle at {n}");
            }
        }
    }

    #[test]
    fn document_order_is_total_and_consistent(
        ops in proptest::collection::vec(op_strategy(), 0..60)
    ) {
        let (store, nodes) = run_script(&ops);
        // Antisymmetry + totality over a sample of pairs.
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i..] {
                let ab = store.cmp_doc_order(a, b).unwrap();
                let ba = store.cmp_doc_order(b, a).unwrap();
                prop_assert_eq!(ab, ba.reverse());
                if a == b {
                    prop_assert_eq!(ab, std::cmp::Ordering::Equal);
                } else {
                    prop_assert_ne!(ab, std::cmp::Ordering::Equal);
                }
            }
        }
        // Consistency: a parent precedes its children.
        for &n in &nodes {
            for &c in store.children(n).unwrap() {
                prop_assert_eq!(store.cmp_doc_order(n, c).unwrap(), std::cmp::Ordering::Less);
            }
        }
    }

    #[test]
    fn sort_and_dedup_is_idempotent_and_ordered(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        picks in proptest::collection::vec(any::<usize>(), 0..30)
    ) {
        let (store, nodes) = run_script(&ops);
        let mut v: Vec<NodeId> = picks.iter().map(|&i| nodes[i % nodes.len()]).collect();
        store.sort_and_dedup(&mut v).unwrap();
        // Sorted strictly ascending => no duplicates.
        for w in v.windows(2) {
            prop_assert_eq!(
                store.cmp_doc_order(w[0], w[1]).unwrap(),
                std::cmp::Ordering::Less
            );
        }
        // Idempotent.
        let mut again = v.clone();
        store.sort_and_dedup(&mut again).unwrap();
        prop_assert_eq!(v, again);
    }

    #[test]
    fn deep_copy_is_equal_but_disjoint(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        pick in any::<usize>()
    ) {
        let (mut store, nodes) = run_script(&ops);
        let src = nodes[pick % nodes.len()];
        let copy = store.deep_copy(src).unwrap();
        prop_assert!(deep_equal_nodes(src, copy, &store).unwrap());
        prop_assert!(store.parent(copy).unwrap().is_none());
        // Identity-disjoint: no copied descendant equals a source node id.
        let src_set: std::collections::HashSet<_> =
            store.descendants(src).unwrap().into_iter().chain([src]).collect();
        for d in store.descendants(copy).unwrap().into_iter().chain([copy]) {
            prop_assert!(!src_set.contains(&d));
        }
    }

    #[test]
    fn reachability_accounting_adds_up(
        ops in proptest::collection::vec(op_strategy(), 0..60)
    ) {
        let (store, nodes) = run_script(&ops);
        let stats = store.stats(&nodes[..1]).unwrap();
        prop_assert_eq!(stats.reachable + stats.garbage, stats.alive);
        // Rooting everything makes garbage vanish.
        let all = store.stats(&nodes).unwrap();
        prop_assert_eq!(all.garbage, 0);
    }

    #[test]
    fn detached_nodes_stay_queryable(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        pick in any::<usize>()
    ) {
        let (mut store, nodes) = run_script(&ops);
        let n = nodes[pick % nodes.len()];
        let before = store.string_value(n).unwrap();
        store.detach(n).unwrap();
        // Paper §3.1: detach does not erase.
        prop_assert!(store.is_alive(n));
        prop_assert_eq!(store.string_value(n).unwrap(), before);
        prop_assert_eq!(store.parent(n).unwrap(), None);
    }

    #[test]
    fn failed_delta_rolls_back_exactly(
        ops in proptest::collection::vec(op_strategy(), 0..50),
        req_specs in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..10),
        poison_slot in any::<usize>()
    ) {
        use xquery_bang::xqcore::{apply_delta, Delta, SnapMode, UpdateRequest};
        let (mut store, nodes) = run_script(&ops);

        // An element pick: scan forward from the index until a named
        // (element) node turns up — the root at index 0 guarantees one.
        let pick_element = |store: &Store, i: usize| -> NodeId {
            (0..nodes.len())
                .map(|k| nodes[(i + k) % nodes.len()])
                .find(|&n| store.name(n).unwrap().is_some())
                .unwrap_or(nodes[0])
        };

        // Valid requests (renames, appends of fresh elements) with one
        // guaranteed-failing poison — an insert into a text node — spliced
        // in at a random position.
        let mut requests = Vec::new();
        for (slot, (i, kind)) in req_specs.iter().enumerate() {
            if kind % 2 == 0 {
                requests.push(UpdateRequest::Rename {
                    node: pick_element(&store, *i),
                    name: QName::local(format!("q{slot}")),
                });
            } else {
                let fresh = store.new_element(QName::local(format!("f{slot}")));
                requests.push(UpdateRequest::Insert {
                    nodes: vec![fresh],
                    parent: pick_element(&store, *i),
                    anchor: InsertAnchor::Last,
                });
            }
        }
        let poison_parent = store.new_text("poison");
        let poison_child = store.new_element(QName::local("p"));
        requests.insert(poison_slot % (requests.len() + 1), UpdateRequest::Insert {
            nodes: vec![poison_child],
            parent: poison_parent,
            anchor: InsertAnchor::Last,
        });

        // Track every node we know about, including the Δ payloads
        // allocated above: they are pre-state, so rollback preserves them.
        let mut tracked = nodes.clone();
        for req in &requests {
            if let UpdateRequest::Insert { nodes: payload, parent, .. } = req {
                tracked.extend(payload.iter().copied());
                tracked.push(*parent);
            }
        }
        tracked.sort();
        tracked.dedup();

        let before = snapshot(&store, &tracked);
        for (mode, seed) in [
            (SnapMode::Ordered, 0u64),
            (SnapMode::Nondeterministic, poison_slot as u64),
            (SnapMode::ConflictDetection, 0u64),
        ] {
            let delta: Delta = requests.iter().cloned().collect();
            // The poison always fails its precondition (XQB0002); in
            // conflict-detection mode verification may reject first
            // (XQB0010). Either way the store must come back untouched.
            let err = apply_delta(&mut store, delta, mode, seed).unwrap_err();
            prop_assert!(
                err.code == "XQB0002" || err.code == "XQB0010",
                "unexpected error {:?} in mode {:?}", err, mode
            );
            prop_assert_eq!(&snapshot(&store, &tracked), &before, "mode {:?} not atomic", mode);
            // ISSUE 10: the undo journal rolled the index plane back too.
            prop_assert!(store.index_verify(), "index diverged after rollback in {:?}", mode);
        }

        // Rollback left no orphan allocations: rooting everything we ever
        // created, garbage collection reclaims nothing and kills nothing.
        let collected = store.collect_garbage(&tracked).unwrap();
        prop_assert_eq!(collected, 0);
        for &n in &tracked {
            prop_assert!(store.is_alive(n));
        }
    }

    #[test]
    fn serialization_round_trips(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let (store, nodes) = run_script(&ops);
        // Serialize each root and re-parse: string values must survive.
        for &n in &nodes {
            if store.parent(n).unwrap().is_none() {
                if let Ok(xml) = xquery_bang::xqdm::xml::serialize(&store, n) {
                    if xml.starts_with('<') && !xml.is_empty() {
                        let mut s2 = Store::new();
                        if let Ok(frag) = xquery_bang::xqdm::xml::parse_fragment(&mut s2, &xml) {
                            let sv: String = frag
                                .iter()
                                .map(|&f| s2.string_value(f).unwrap())
                                .collect();
                            prop_assert_eq!(sv, store.string_value(n).unwrap());
                        }
                    }
                }
            }
        }
    }
}
