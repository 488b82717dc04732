//! The paper's §2 Web-service logging scenario, lifted to *concurrent*
//! tenants (ISSUE 9): one durable engine hosts per-tenant logs behind
//! the multi-session [`Server`], and every tenant thread logs, archives,
//! and maintains session state through its own session while the others
//! commit in parallel.
//!
//! What it demonstrates:
//!
//! * **`nextid()` under contention** — the §2.5 snap-wrapped counter,
//!   rewritten with `replace value of` (a pure value-aspect write). Every
//!   logging write read-modify-writes the one shared counter, so writers
//!   conflict constantly; backward validation + bounded retry must still
//!   hand out *unique, gapless* ids — the lost-update litmus.
//! * **Tenant isolation** — writes against `$log_<t>` touch disjoint
//!   subtrees, so cross-tenant appends validate cleanly and commit
//!   without retries (the Δ-footprint machinery proves they commute).
//! * **The §2.3 archive pattern** — when a tenant's log reaches the
//!   threshold, the same query snapshots the count, archives it, and
//!   empties the log.
//! * **Session state, two ways** — per-tenant `<state/>` values updated
//!   with `replace value of` under the default abort policy (serializable:
//!   every bump counted) and, in a second run, under last-writer-wins
//!   (waived: later commits silently overwrite — the documented trade).
//! * **Serial-equivalence** — after the storm, the commit log replayed
//!   one query at a time on a fresh engine reproduces the server's final
//!   fingerprint exactly.
//!
//! Run with: `cargo run --example logging_tenant`

use std::sync::{Arc, Barrier};
use xquery_bang::{ConflictPolicy, Engine, Error, Server, ServerConfig, Session};

const TENANTS: usize = 3;
const REQUESTS_PER_TENANT: usize = 12;
const MAXLOG: usize = 4;

fn build_server(policy: ConflictPolicy) -> Server {
    let mut engine = Engine::new();
    // One shared id counter (§2.5) plus per-tenant log/archive/state.
    engine
        .load_document("ids", "<ids><next>0</next></ids>")
        .unwrap();
    for t in 0..TENANTS {
        engine
            .load_document(
                &format!("tenant{t}"),
                "<tenant><log/><archive/><state hits=\"0\"/></tenant>",
            )
            .unwrap();
    }
    // The audit log is on: the abort scenario replays it serially.
    engine.into_server(ServerConfig {
        conflict_policy: policy,
        audit: true,
        ..ServerConfig::default()
    })
}

/// A client retry loop: XQB0052 is the abort contract's "a conflicting Δ
/// landed first, re-submit". The server now falls back to its serialized
/// path instead, so the loop never spins; a §2 client keeps it anyway.
fn submit(session: &Session, query: &str) -> String {
    loop {
        match session.execute(query) {
            Ok(r) => return r.body,
            Err(Error::Eval(e)) if e.code == "XQB0052" => continue,
            Err(e) => panic!("{query}: {e}"),
        }
    }
}

/// One tenant request: take a unique id from the shared counter, log the
/// access under this tenant, bump the tenant's session state, and run
/// the §2.3 archive sweep once the log fills up. Returns the id.
fn handle_request(session: &Session, tenant: usize, user: usize) -> u64 {
    // §2.5's nextid(): the explicit snap closes the value set so the
    // same query can read the id it just took.
    let id = submit(
        session,
        "(snap replace value of { $ids/ids/next/text() } with { $ids/ids/next + 1 }, \
          string($ids/ids/next))",
    );
    let id: u64 = id.parse().expect("counter is numeric");
    submit(
        session,
        &format!(
            "insert {{ <logentry id=\"{id}\" user=\"u{user}\"/> }} \
             into {{ $tenant{tenant}/tenant/log }}"
        ),
    );
    submit(
        session,
        &format!(
            "replace value of {{ $tenant{tenant}/tenant/state/@hits }} \
             with {{ $tenant{tenant}/tenant/state/@hits + 1 }}"
        ),
    );
    submit(
        session,
        &format!(
            "if (count($tenant{tenant}/tenant/log/logentry) >= {MAXLOG}) \
             then snap {{ \
               (insert {{ <archived entries=\
                 \"{{count($tenant{tenant}/tenant/log/logentry)}}\"/> }} \
                into {{ $tenant{tenant}/tenant/archive }}, \
                delete $tenant{tenant}/tenant/log/logentry) }} \
             else ()"
        ),
    );
    id
}

fn run_storm(policy: ConflictPolicy) -> (Server, Vec<u64>) {
    let server = build_server(policy);
    let start = Arc::new(Barrier::new(TENANTS));
    let workers: Vec<_> = (0..TENANTS)
        .map(|t| {
            let server = server.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let session = server.open_session().unwrap();
                start.wait();
                (0..REQUESTS_PER_TENANT)
                    .map(|u| handle_request(&session, t, u))
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let mut ids = Vec::new();
    for w in workers {
        ids.extend(w.join().unwrap());
    }
    (server, ids)
}

fn main() {
    // ------------------------------------------------------------------
    // Run 1: default abort policy — fully serializable.
    // ------------------------------------------------------------------
    let (server, mut ids) = run_storm(ConflictPolicy::Abort);
    let total = TENANTS * REQUESTS_PER_TENANT;

    // Unique gapless ids: the shared counter never lost an update even
    // though every tenant contended on it.
    ids.sort_unstable();
    assert_eq!(ids, (1..=total as u64).collect::<Vec<_>>(), "id integrity");

    let probe = server.open_session().unwrap();
    for t in 0..TENANTS {
        // Log + archive conservation: every logged entry is either still
        // in the log or accounted for by an archive sweep.
        let archived: u64 = submit(
            &probe,
            &format!("sum($tenant{t}/tenant/archive/archived/@entries)"),
        )
        .parse()
        .unwrap();
        let in_log: u64 = submit(&probe, &format!("count($tenant{t}/tenant/log/logentry)"))
            .parse()
            .unwrap();
        assert_eq!(
            archived + in_log,
            REQUESTS_PER_TENANT as u64,
            "tenant {t} conservation"
        );
        // Session state was bumped once per request — serializable, so
        // none of the read-modify-writes were lost.
        let hits = submit(&probe, &format!("string($tenant{t}/tenant/state/@hits)"));
        assert_eq!(hits, REQUESTS_PER_TENANT.to_string(), "tenant {t} hits");
    }

    // Serial-equivalence: replaying the commit log on a fresh engine
    // reproduces the final fingerprint.
    let mut replica = Engine::new();
    replica
        .load_document("ids", "<ids><next>0</next></ids>")
        .unwrap();
    for t in 0..TENANTS {
        replica
            .load_document(
                &format!("tenant{t}"),
                "<tenant><log/><archive/><state hits=\"0\"/></tenant>",
            )
            .unwrap();
    }
    for c in server.commit_log() {
        let _ = replica.run(&c.query);
    }
    assert_eq!(
        replica.store.fingerprint(),
        server.fingerprint(),
        "commit log must replay to the live state"
    );

    let stats = server.stats();
    println!("abort policy:");
    println!(
        "  tenants={TENANTS} requests={total} commits={}",
        server.epoch()
    );
    println!(
        "  conflicts={} retries={} (stats are process-wide)",
        stats.conflicts, stats.retries
    );

    // ------------------------------------------------------------------
    // Run 2: last-writer-wins — value collisions are waived, so the
    // counter *may* undercount; everything structural stays intact.
    // ------------------------------------------------------------------
    let (server, ids) = run_storm(ConflictPolicy::LastWriterWins);
    let distinct: std::collections::HashSet<u64> = ids.iter().copied().collect();
    let probe = server.open_session().unwrap();
    for t in 0..TENANTS {
        let archived: u64 = submit(
            &probe,
            &format!("sum($tenant{t}/tenant/archive/archived/@entries)"),
        )
        .parse()
        .unwrap();
        let in_log: u64 = submit(&probe, &format!("count($tenant{t}/tenant/log/logentry)"))
            .parse()
            .unwrap();
        // Structural writes (appends, archive sweeps) are never waived:
        // conservation still holds under lww.
        assert_eq!(
            archived + in_log,
            REQUESTS_PER_TENANT as u64,
            "tenant {t} conservation under lww"
        );
    }
    println!("last-writer-wins policy:");
    println!(
        "  requests={total} distinct_ids={} duplicated_ids={} (waived lost updates)",
        distinct.len(),
        total - distinct.len()
    );
    assert!(
        distinct.len() <= total,
        "lww can only merge ids, not invent them"
    );
    println!("ok");
}
