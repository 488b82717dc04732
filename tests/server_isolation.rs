//! Snapshot-isolation tests for the multi-session server (ISSUE 8).
//!
//! Three layers of proof:
//!
//! 1. **Barrier-deterministic pinning** — threads synchronized with
//!    `std::sync::Barrier` force the exact interleaving "reader pins,
//!    writer commits, reader keeps reading": the pinned snapshot's
//!    `Store::fingerprint()` must equal the pre-commit fingerprint for
//!    the whole request, however many commits land meanwhile.
//! 2. **End-to-end reads under write pressure** — every server read
//!    reports the epoch it pinned; with a workload where epoch *k*'s
//!    store holds exactly *k* entries, each response body must equal its
//!    reported epoch, and a query reading the count twice must see the
//!    same value twice even when commits land mid-request.
//! 3. **Proptest interleavings** — random read/write schedules across
//!    several sessions; every read must match the state of *some*
//!    committed version (checked through the commit log's per-epoch
//!    fingerprint chain).

use std::sync::{Arc, Barrier};
use xquery_bang::xqcore;
use xquery_bang::{Engine, RequestKind, Server, ServerConfig};

/// A server over `<log/>` with the audit log on: the interleaving
/// checks walk its per-epoch fingerprint chain.
fn server_with_log() -> Server {
    let mut e = Engine::new();
    e.load_document("doc", "<log/>").unwrap();
    Server::with_config(
        e.0,
        ServerConfig {
            audit: true,
            ..ServerConfig::default()
        },
    )
}

// ----------------------------------------------------------------------
// 1. barrier-deterministic pinning at the version layer
// ----------------------------------------------------------------------

#[test]
fn pinned_reader_sees_pre_commit_fingerprint_for_whole_request() {
    let mut engine = Engine::new();
    engine.load_document("doc", "<log/>").unwrap();
    let versions = xquery_bang::xqdm::VersionSet::new(engine.snapshot_state());
    let pre_commit_fp = engine.store.fingerprint();

    let sync = Arc::new([Barrier::new(2), Barrier::new(2), Barrier::new(2)]);
    let reader = std::thread::spawn({
        let versions = versions.clone();
        let sync = sync.clone();
        move || {
            let pin = versions.pin_latest();
            let first = pin.store().fingerprint();
            sync[0].wait(); // pinned — let the writer commit
            sync[1].wait(); // writer has published two new epochs
            let second = pin.store().fingerprint();
            // A fresh reader forked from the SAME pin mid-request also
            // sees the pinned state (the fork is COW, not a re-pin).
            let mut fork = pin.reader();
            let count = fork.run("count($doc/log/*)").unwrap();
            let count = fork.serialize(&count).unwrap();
            sync[2].wait();
            (pin.epoch(), first, second, count)
        }
    });

    sync[0].wait(); // reader is pinned
    for i in 0..2 {
        engine
            .run(&format!("insert {{ <e n=\"{i}\"/> }} into {{ $doc/log }}"))
            .unwrap();
        versions.publish(engine.snapshot_state());
    }
    let post_commit_fp = engine.store.fingerprint();
    assert_ne!(pre_commit_fp, post_commit_fp, "commits changed the store");
    sync[1].wait(); // both commits published while the reader held its pin
    sync[2].wait();

    let (epoch, first, second, count) = reader.join().unwrap();
    assert_eq!(epoch, 0, "reader pinned the pre-commit epoch");
    assert_eq!(first, pre_commit_fp);
    assert_eq!(
        second, pre_commit_fp,
        "pinned fingerprint unchanged across concurrent commits"
    );
    assert_eq!(count, "0", "forked reader queried the pinned snapshot");
    // The latest epoch moved on; a new pin sees the committed state.
    assert_eq!(versions.latest_epoch(), 2);
    assert_eq!(versions.pin_latest().store().fingerprint(), post_commit_fp);
    // The superseded epochs retire once the reader's pin dropped.
    assert_eq!(versions.retained(), 1);
    assert_eq!(versions.pinned(), 0);
}

// ----------------------------------------------------------------------
// 2. end-to-end: server reads under concurrent writes
// ----------------------------------------------------------------------

/// Epoch k's store holds exactly k entries, so every read's body must
/// equal the epoch the response says it pinned — for any interleaving.
#[test]
fn server_reads_are_consistent_with_their_pinned_epoch() {
    let server = server_with_log();
    let writes = 30usize;
    let start = Arc::new(Barrier::new(3));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let server = server.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let session = server.open_session().unwrap();
                start.wait();
                let mut observed = Vec::new();
                for _ in 0..40 {
                    // Read the count, do pure busy work, read it again:
                    // both observations must agree (one snapshot for the
                    // whole request) and match the pinned epoch.
                    let r = session
                        .execute(
                            "(count($doc/log/e), sum(for $i in 1 to 500 return $i),
                              count($doc/log/e))",
                        )
                        .unwrap();
                    assert_eq!(r.kind, RequestKind::Read);
                    let parts: Vec<&str> = r.body.split(' ').collect();
                    assert_eq!(parts[0], parts[2], "one snapshot per request");
                    assert_eq!(parts[1], "125250");
                    assert_eq!(
                        parts[0],
                        r.epoch.to_string(),
                        "body must match the pinned epoch's state"
                    );
                    observed.push(r.epoch);
                }
                observed
            })
        })
        .collect();

    let writer = {
        let server = server.clone();
        let start = start.clone();
        std::thread::spawn(move || {
            let session = server.open_session().unwrap();
            start.wait();
            for i in 0..writes {
                let r = session
                    .execute(&format!("insert {{ <e n=\"{i}\"/> }} into {{ $doc/log }}"))
                    .unwrap();
                assert_eq!(r.kind, RequestKind::Write);
                assert_eq!(r.epoch, i as u64 + 1, "single writer: epochs are dense");
            }
        })
    };

    writer.join().unwrap();
    let mut all = Vec::new();
    for r in readers {
        let observed = r.join().unwrap();
        // Epochs never run backwards within one session.
        assert!(observed.windows(2).all(|w| w[0] <= w[1]));
        all.extend(observed);
    }
    assert!(all.iter().all(|&e| e <= writes as u64));
    assert_eq!(server.epoch(), writes as u64);
    // Nothing left pinned, superseded versions retired.
    let stats = server.stats();
    assert_eq!(stats.snapshot_pins, 0);
    assert_eq!(stats.versions_retained, 1);
}

// ----------------------------------------------------------------------
// 3. shared plan cache across sessions
// ----------------------------------------------------------------------

#[test]
fn plan_cached_by_one_session_hits_for_another() {
    let server = server_with_log();
    let a = server.open_session().unwrap();
    let b = server.open_session().unwrap();
    let query = "for $e in $doc/log/e return string($e/@n)";
    a.execute(query).unwrap();
    let (hits_a, misses_a) = server.plan_cache().stats();
    assert!(misses_a >= 1, "first execution plans the query");
    b.execute(query).unwrap();
    let (hits_b, misses_b) = server.plan_cache().stats();
    assert_eq!(misses_b, misses_a, "second session re-plans nothing");
    assert!(hits_b > hits_a, "second session hits the shared plan");
    // The stats surface exposes the same counters per endpoint.
    let stats = server.stats();
    assert_eq!(stats.cache_hits, hits_b);
    assert_eq!(stats.cache_misses, misses_b);
}

#[test]
fn write_path_and_read_path_share_one_cache() {
    // The same query text planned on the read path must hit when the
    // writer engine plans it (and vice versa): one cache, all sessions.
    let mut e = Engine::new();
    e.load_document("doc", "<log/>").unwrap();
    let server = Server::new(e.0);
    let s = server.open_session().unwrap();
    s.execute("count($doc/log/e)").unwrap(); // read path plans it
    let (_, misses) = server.plan_cache().stats();
    // Force the same program down the write path by running it through
    // the writer lock.
    server.with_engine(|engine| engine.run("count($doc/log/e)").unwrap());
    let (hits_after, misses_after) = server.plan_cache().stats();
    assert_eq!(misses_after, misses, "writer hit the reader's plan");
    assert!(hits_after >= 1);
}

#[test]
fn plan_cache_misses_when_index_availability_changes() {
    // ISSUE 10 staleness bugfix: a plan compiled with `,idx` scans must
    // not be served against a store state whose index plane is gone (or
    // vice versa). Availability and the toggle epoch are folded into the
    // fingerprint key, so each index state plans afresh.
    let server = server_with_log();
    let s = server.open_session().unwrap();
    let query = "$doc/log/e";
    assert!(
        server
            .with_engine(|e| e.explain(query).unwrap())
            .contains(",idx"),
        "indexes are available by default, the plan carries idx hints"
    );
    s.execute(query).unwrap();
    let (_, misses_indexed) = server.plan_cache().stats();
    // Disable the index plane, then publish the new store state with a
    // write so reader sessions pin it.
    server.with_engine(|e| e.set_indexing(false));
    s.execute("insert { <e n=\"0\"/> } into { $doc/log }")
        .unwrap();
    assert!(
        !server
            .with_engine(|e| e.explain(query).unwrap())
            .contains(",idx"),
        "no idx hints once the plane is disabled"
    );
    s.execute(query).unwrap();
    let (_, misses_unindexed) = server.plan_cache().stats();
    assert!(
        misses_unindexed > misses_indexed,
        "index availability change must re-plan, not serve the stale ,idx plan"
    );
    // Re-enabling bumps the toggle epoch: a third distinct key, so the
    // first epoch's entry is not resurrected either.
    server.with_engine(|e| e.set_indexing(true));
    s.execute("insert { <e n=\"1\"/> } into { $doc/log }")
        .unwrap();
    s.execute(query).unwrap();
    let (_, misses_reenabled) = server.plan_cache().stats();
    assert!(
        misses_reenabled > misses_unindexed,
        "re-enable re-plans under the bumped index epoch"
    );
}

// ----------------------------------------------------------------------
// 4. proptest: random read/write interleavings
// ----------------------------------------------------------------------

mod interleavings {
    use super::*;
    use proptest::prelude::*;

    /// One scripted action for one session thread.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Read,
        Write,
    }

    fn schedule() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..4, 4..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Split a random schedule across 2 worker sessions; afterwards
        // every read must have observed the state of some committed
        // version: body == epoch (epoch k holds exactly k entries), and
        // the commit log's fingerprint chain must replay serially.
        #[test]
        fn random_interleavings_read_committed_versions(sched in schedule()) {
            let ops: Vec<Op> = sched
                .iter()
                .map(|&b| if b % 2 == 0 { Op::Read } else { Op::Write })
                .collect();
            let server = server_with_log();
            let mid = ops.len() / 2;
            let halves = [ops[..mid].to_vec(), ops[mid..].to_vec()];
            let start = Arc::new(Barrier::new(halves.len()));
            let workers: Vec<_> = halves
                .into_iter()
                .map(|ops| {
                    let server = server.clone();
                    let start = start.clone();
                    std::thread::spawn(move || -> Result<(), String> {
                        let session = server.open_session().map_err(|e| e.to_string())?;
                        start.wait();
                        for op in ops {
                            match op {
                                Op::Read => {
                                    let r = session
                                        .execute("count($doc/log/e)")
                                        .map_err(|e| e.to_string())?;
                                    if r.kind != RequestKind::Read {
                                        return Err("count routed as write".into());
                                    }
                                    if r.body != r.epoch.to_string() {
                                        return Err(format!(
                                            "read saw {} entries at epoch {}",
                                            r.body, r.epoch
                                        ));
                                    }
                                }
                                Op::Write => {
                                    session
                                        .execute("insert { <e/> } into { $doc/log }")
                                        .map_err(|e| e.to_string())?;
                                }
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            for w in workers {
                if let Err(msg) = w.join().expect("worker panicked") {
                    return Err(TestCaseError::fail(msg));
                }
            }
            // Every committed epoch is on the log, densely numbered, and
            // the final fingerprint is the latest snapshot's.
            let log = server.commit_log();
            let writes = ops.iter().filter(|o| matches!(o, Op::Write)).count();
            prop_assert_eq!(log.len(), writes);
            for (i, c) in log.iter().enumerate() {
                prop_assert_eq!(c.epoch, i as u64 + 1);
            }
            if let Some(last) = log.last() {
                prop_assert_eq!(last.fingerprint, server.fingerprint());
            }
            prop_assert_eq!(server.stats().snapshot_pins, 0);
        }
    }
}

// ----------------------------------------------------------------------
// 5. admission control
// ----------------------------------------------------------------------

#[test]
fn backpressure_rejects_with_xqb0051_and_recovers() {
    let mut e = Engine::new();
    e.load_document("doc", "<log/>").unwrap();
    let config = ServerConfig {
        max_sessions: 8,
        max_inflight: 0, // every request rejected
        ..ServerConfig::default()
    };
    let server = Server::with_config(e.0, config);
    let s = server.open_session().unwrap();
    match s.execute("1 + 1") {
        Err(xqcore::Error::Eval(err)) => assert_eq!(err.code, xqcore::server::ERR_BACKPRESSURE),
        other => panic!("expected XQB0051, got {other:?}"),
    }
    assert_eq!(server.stats().rejected_backpressure, 1);
    assert_eq!(server.stats().inflight, 0, "rejection releases the slot");
}

// ----------------------------------------------------------------------
// 6. optimistic writes whose reads run on parallel workers
// ----------------------------------------------------------------------

const WORKER_READ_DOC: &str = "<r><c>0</c><out/></r>";

/// A write whose only read of `c`'s text sits inside a pure `for` over 8
/// items — a parallel region at 2 threads. The `sum` keeps each attempt
/// slow enough for a concurrent commit to land between the write's fork
/// and its validation.
const READ_IN_WORKERS: &str = "let $seen := for $i in 1 to 8 \
     return (sum(1 to 300000)[. < 0], string($doc/r/c)) \
     return insert { <seen>{ $seen[1] }</seen> } into { $doc/r/out }";

/// The concurrent commit: changes exactly the text `READ_IN_WORKERS`
/// reads on its workers.
const BUMP: &str = "replace value of { $doc/r/c/text() } with { $doc/r/c + 1 }";

#[test]
fn occ_write_reading_on_parallel_workers_conflicts_and_replays_serially() {
    // The region really fans out at 2 threads.
    let mut probe = Engine::new();
    probe.set_threads(2);
    probe.load_document("doc", WORKER_READ_DOC).unwrap();
    probe.run(READ_IN_WORKERS).unwrap();
    assert!(probe.last_stats().unwrap().par_regions > 0);

    let mut e = Engine::new();
    e.load_document("doc", WORKER_READ_DOC).unwrap();
    let server = Server::with_config(
        e.0,
        ServerConfig {
            threads: 2,
            audit: true,
            ..ServerConfig::default()
        },
    );
    let before = server.stats();
    let main = server.open_session().unwrap();
    // Each round lines up "writer pins, BUMP commits, writer validates":
    // the writer starts with BUMP at a barrier, BUMP waits until the
    // writer holds its pin, and the writer's slow loop outlasts BUMP.
    for _ in 0..10 {
        let start = Arc::new(Barrier::new(2));
        let writer = std::thread::spawn({
            let server = server.clone();
            let start = start.clone();
            move || {
                let s = server.open_session().unwrap();
                start.wait();
                s.execute(READ_IN_WORKERS)
            }
        });
        start.wait();
        while server.stats().snapshot_pins == 0 && !writer.is_finished() {
            std::thread::yield_now();
        }
        // Past the classification pin, into the optimistic attempt.
        std::thread::sleep(std::time::Duration::from_millis(5));
        main.execute(BUMP).unwrap();
        writer.join().unwrap().unwrap();
        if server.stats().retries > before.retries {
            break;
        }
    }
    // Metrics are process-global, so compare against the snapshot taken
    // before this test's traffic.
    let after = server.stats();
    assert!(
        after.conflicts > before.conflicts,
        "{before:?} -> {after:?}"
    );
    assert!(after.retries > before.retries, "{before:?} -> {after:?}");

    // Serial replay of the commit log reproduces every epoch: the
    // retried write saw the bumped text.
    let mut replica = Engine::new();
    replica.load_document("doc", WORKER_READ_DOC).unwrap();
    for c in server.commit_log() {
        let v = replica.run(&c.query).unwrap();
        assert_eq!(Ok(replica.serialize(&v).unwrap()), c.body);
        assert_eq!(
            replica.store.fingerprint(),
            c.fingerprint,
            "store diverged after epoch {} ({})",
            c.epoch,
            c.query
        );
    }
    assert_eq!(replica.store.fingerprint(), server.fingerprint());
}
