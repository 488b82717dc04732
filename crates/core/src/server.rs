//! The multi-session server core (DESIGN.md §15, §16): one durable
//! engine, many concurrent sessions, snapshot-isolated reads, optimistic
//! concurrent writers.
//!
//! The concurrency contract:
//!
//! * **Writes validate, then serialize only their commit.** A writer
//!   evaluates against a private fork of its pinned base epoch while
//!   recording its Δ — redo ops plus read/write footprints
//!   ([`xqdm::CapturedDelta`], the paper's conflict-detection snap
//!   semantics lifted across transactions, DESIGN.md §16). At commit the
//!   detector checks the Δ's *read* footprint against the *write*
//!   footprint of every Δ committed since the base epoch: non-conflicting
//!   Δs rebase onto the live engine and commit through the WAL (log order
//!   still equals epoch order); conflicting Δs retry from a fresh
//!   snapshot up to [`ServerConfig::max_retries`] times — or are waived
//!   by the [`ConflictPolicy::LastWriterWins`] reducer when only
//!   name/value aspects collide. A writer that exhausts its retries runs
//!   once more on the serialized path under the engine mutex, which
//!   cannot conflict: every write request terminates (the progress
//!   guarantee against OCC starvation). Only the validate+rebase step
//!   holds the engine mutex, so write *evaluation* scales with sessions.
//!   Programs the
//!   footprint machinery cannot vouch for (nondeterministic or
//!   conflict-detection snaps, par-opaque builtins) fall back to the
//!   fully serialized pessimistic path, as does the whole server when
//!   [`ServerConfig::occ_writers`] is off.
//! * **Reads run concurrently.** A query proven effect-free by the PR-3
//!   purity judgment ([`Engine::is_read_only`]) pins the latest epoch and
//!   executes against a private fork of that snapshot — it never takes
//!   the engine lock, and commits landing meanwhile cannot move the data
//!   under it. The pin is released when the request finishes; superseded
//!   epochs retire as soon as their last pin drops.
//! * **Admission is bounded.** Opening a session past `max_sessions` is
//!   rejected with `XQB0050`; a request past `max_inflight` concurrent
//!   requests is rejected with `XQB0051` (backpressure — the client
//!   retries, the server never queues unboundedly).
//!
//! Sessions share one fingerprint-keyed [`SharedPlanCache`], so a query
//! planned by any session is a plan-cache hit for every other. Request
//! accounting lands in the global metrics registry under `server.*`
//! (counters, gauges, latency histograms); [`Server::stats`] reads them
//! back as one struct.

use crate::engine::{Engine, EngineSnapshot, Error};
use crate::limits::Limits;
use crate::obs;
use crate::planner::SharedPlanCache;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xqdm::footprint::aspect;
use xqdm::{Footprint, VersionSet, XdmError};

/// Session-limit rejection: `open_session` past `max_sessions`.
pub const ERR_SESSIONS: &str = "XQB0050";
/// Backpressure rejection: a request past `max_inflight`.
pub const ERR_BACKPRESSURE: &str = "XQB0051";

/// What to do when a Δ's read footprint intersects a committed write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictPolicy {
    /// Retry from a fresh snapshot; once [`ServerConfig::max_retries`]
    /// is exhausted, run serialized under the engine mutex.
    #[default]
    Abort,
    /// Waive conflicts confined to name/value aspects (rename, text and
    /// attribute-value sets): the later committer's values win, exactly
    /// as if its transaction had run second serially. Structural
    /// conflicts (children/attribute lists, parent links) still retry —
    /// blind last-writer-wins on tree shape would lose subtrees.
    LastWriterWins,
}

impl ConflictPolicy {
    /// Parse a wire/flag token (`abort` / `lww` / `last-writer-wins`).
    pub fn parse(s: &str) -> Option<ConflictPolicy> {
        match s {
            "abort" => Some(ConflictPolicy::Abort),
            "lww" | "last-writer-wins" => Some(ConflictPolicy::LastWriterWins),
            _ => None,
        }
    }

    /// Wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ConflictPolicy::Abort => "abort",
            ConflictPolicy::LastWriterWins => "lww",
        }
    }
}

/// Server admission and resource policy.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Most sessions open at once (`XQB0050` beyond).
    pub max_sessions: usize,
    /// Most requests in flight at once across all sessions (`XQB0051`
    /// beyond).
    pub max_inflight: usize,
    /// Per-request resource limits (fuel, deadline, depth, memory) —
    /// installed into the writer engine and every reader fork.
    pub limits: Limits,
    /// Worker-thread budget each request may use for effect-free regions.
    pub threads: usize,
    /// Optimistic concurrent writers (DESIGN.md §16). Off: every write
    /// serializes its whole evaluation under the engine mutex (PR-8
    /// behavior).
    pub occ_writers: bool,
    /// Conflict resolution for optimistic commits.
    pub conflict_policy: ConflictPolicy,
    /// Conflicting commits retry from a fresh snapshot this many times;
    /// the next attempt runs on the serialized path, which cannot
    /// conflict.
    pub max_retries: usize,
    /// Committed write footprints retained for validation. A base epoch
    /// older than the ring's coverage forces a retry (indistinguishable
    /// from a conflict), so this bounds validator memory, not
    /// correctness.
    pub footprint_ring: usize,
    /// Keep the audit log: every commit's query text, result and
    /// post-commit store fingerprint ([`Server::commit_log`]). Off by
    /// default — the fingerprint is O(store) and the log grows without
    /// bound, so only replay oracles (the differential and isolation
    /// suites) turn it on.
    pub audit: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            max_inflight: 32,
            limits: Limits::from_env(),
            threads: crate::par::threads_from_env(),
            occ_writers: true,
            conflict_policy: ConflictPolicy::default(),
            max_retries: 8,
            footprint_ring: 1024,
            audit: false,
        }
    }
}

/// How a request was routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Proven pure: ran against a pinned snapshot, engine lock untouched.
    Read,
    /// Possibly effectful: serialized through the engine mutex + WAL.
    Write,
}

impl RequestKind {
    /// Wire token (`read` / `write`).
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Read => "read",
            RequestKind::Write => "write",
        }
    }
}

/// A successful request's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Read or write routing.
    pub kind: RequestKind,
    /// For reads: the pinned epoch the query saw. For writes: the epoch
    /// this commit published.
    pub epoch: u64,
    /// The serialized result sequence.
    pub body: String,
}

/// One committed write, in commit order — the replay script for the
/// differential concurrency suite: running every record's `query` against
/// a fresh copy of the initial store must reproduce each `body` and each
/// epoch's fingerprint. Recorded only under [`ServerConfig::audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// The epoch this commit published.
    pub epoch: u64,
    /// The session that issued it.
    pub session: u64,
    /// The query text.
    pub query: String,
    /// Serialized result (`Ok`) or error code (`Err`). Errored runs are
    /// commits too: snaps closed before the error are kept (§2.3), so
    /// replay must include them.
    pub body: Result<String, String>,
    /// Store fingerprint right after this commit.
    pub fingerprint: u64,
}

/// Pre-resolved `server.*` metric handles (one registry probe at
/// construction, relaxed atomics per request).
struct ServerMetrics {
    requests_read: Arc<obs::Counter>,
    requests_write: Arc<obs::Counter>,
    errors: Arc<obs::Counter>,
    rejected_sessions: Arc<obs::Counter>,
    rejected_backpressure: Arc<obs::Counter>,
    conflicts: Arc<obs::Counter>,
    retries: Arc<obs::Counter>,
    read_ns: Arc<obs::Histogram>,
    write_ns: Arc<obs::Histogram>,
    write_phases: WritePhases,
    sessions: Arc<obs::Gauge>,
    inflight: Arc<obs::Gauge>,
    snapshot_pins: Arc<obs::Gauge>,
}

impl ServerMetrics {
    fn from_global() -> Self {
        let g = obs::global();
        ServerMetrics {
            requests_read: g.counter("server.requests.read"),
            requests_write: g.counter("server.requests.write"),
            errors: g.counter("server.errors"),
            rejected_sessions: g.counter("server.rejected.sessions"),
            rejected_backpressure: g.counter("server.rejected.backpressure"),
            conflicts: g.counter("server.commit.conflicts"),
            retries: g.counter("server.commit.retries"),
            read_ns: g.histogram("server.read_ns"),
            write_ns: g.histogram("server.write_ns"),
            write_phases: WritePhases {
                eval_ns: g.histogram("server.write.eval_ns"),
                validate_ns: g.histogram("server.write.validate_ns"),
                rebase_ns: g.histogram("server.write.rebase_ns"),
                publish_ns: g.histogram("server.write.publish_ns"),
            },
            sessions: g.gauge("server.sessions"),
            inflight: g.gauge("server.inflight"),
            snapshot_pins: g.gauge("server.snapshot_pins"),
        }
    }
}

/// Per-phase write latency (ns), one sample per attempt: `eval` runs the
/// program (on the fork, or on the live engine when serialized),
/// `validate` checks the Δ against the footprint ring, `rebase` replays
/// it onto the live engine, `publish` snapshots and publishes the epoch.
struct WritePhases {
    eval_ns: Arc<obs::Histogram>,
    validate_ns: Arc<obs::Histogram>,
    rebase_ns: Arc<obs::Histogram>,
    publish_ns: Arc<obs::Histogram>,
}

/// Nanoseconds since `t`, saturating.
fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The committed-write-footprint ring: one `(epoch, write footprint)`
/// entry per published epoch, contiguous, trimmed to
/// [`ServerConfig::footprint_ring`] entries. Pushed under the engine
/// mutex, so entry order is epoch order.
struct FootprintRing {
    entries: Vec<(u64, Footprint)>,
    cap: usize,
}

impl FootprintRing {
    fn new(cap: usize) -> FootprintRing {
        FootprintRing {
            entries: Vec::new(),
            cap: cap.max(1),
        }
    }

    fn push(&mut self, epoch: u64, writes: Footprint) {
        self.entries.push((epoch, writes));
        if self.entries.len() > self.cap {
            let excess = self.entries.len() - self.cap;
            self.entries.drain(..excess);
        }
    }

    /// Validate a Δ built against `base_epoch`: `Ok(())` when it may
    /// rebase, `Err(aspects)` with the first colliding aspect mask when
    /// it conflicts. A base older than the ring's coverage is
    /// indistinguishable from a conflict (the missing footprints might
    /// have collided), so it conflicts on every aspect.
    fn validate(&self, base_epoch: u64, delta: &xqdm::CapturedDelta) -> Result<(), u8> {
        let since: Vec<&(u64, Footprint)> = self
            .entries
            .iter()
            .filter(|(e, _)| *e > base_epoch)
            .collect();
        if since.is_empty() {
            return Ok(());
        }
        // Every epoch in (base, latest] must be present: entries are
        // contiguous, so it suffices that the oldest retained entry is
        // no newer than base+1.
        if self.entries.first().map(|(e, _)| *e) > Some(base_epoch + 1) {
            return Err(aspect::ALL);
        }
        // A Δ with a whole-store write effect (explicit gc) cannot prove
        // it commutes with anything committed meanwhile.
        if delta.writes().is_global() {
            return Err(aspect::ALL);
        }
        for (_, writes) in since {
            let bits = delta.reads().conflict_aspects(writes);
            if bits != 0 {
                return Err(bits);
            }
        }
        Ok(())
    }
}

struct Inner {
    /// The writer path: validation + rebase (or, for pessimistic runs,
    /// the whole evaluation) serializes here.
    engine: Mutex<Engine>,
    /// Published snapshots; readers pin, writers publish.
    versions: VersionSet<EngineSnapshot>,
    /// Committed write footprints, for OCC validation. Locked only while
    /// the engine mutex is held (commit) or for a read-only scan
    /// (validation), never the other way around.
    ring: Mutex<FootprintRing>,
    /// The cross-session plan cache (also installed into `engine`).
    cache: Arc<SharedPlanCache>,
    config: ServerConfig,
    sessions: AtomicUsize,
    next_session: AtomicU64,
    inflight: AtomicUsize,
    /// The audit log; stays empty unless [`ServerConfig::audit`] is on.
    commits: Mutex<Vec<CommitRecord>>,
    metrics: ServerMetrics,
}

/// The server handle. Cheap to clone (an `Arc`); clones share the
/// engine, the version chain, the plan cache, and the admission state.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Host `engine` (documents loaded, modules registered, store opened)
    /// behind the default [`ServerConfig`].
    pub fn new(engine: Engine) -> Server {
        Server::with_config(engine, ServerConfig::default())
    }

    /// Host `engine` behind `config`. The engine's limits, thread budget,
    /// and plan cache are taken over by the server so that the writer
    /// path and every reader fork run under one policy.
    pub fn with_config(mut engine: Engine, config: ServerConfig) -> Server {
        let cache = SharedPlanCache::new();
        engine.set_shared_plan_cache(cache.clone());
        engine.set_limits(config.limits);
        engine.set_threads(config.threads);
        // The live engine captures the write footprint of every commit
        // (no read tracing — only forks validate reads), feeding the
        // validation ring for both commit paths.
        engine.begin_capture(false);
        let versions = VersionSet::new(engine.snapshot_state());
        Server {
            inner: Arc::new(Inner {
                engine: Mutex::new(engine),
                versions,
                ring: Mutex::new(FootprintRing::new(config.footprint_ring)),
                cache,
                config,
                sessions: AtomicUsize::new(0),
                next_session: AtomicU64::new(1),
                inflight: AtomicUsize::new(0),
                commits: Mutex::new(Vec::new()),
                metrics: ServerMetrics::from_global(),
            }),
        }
    }

    /// Open a session, or reject with `XQB0050` when `max_sessions` are
    /// already open. The slot frees when the returned [`Session`] drops.
    pub fn open_session(&self) -> Result<Session, Error> {
        let inner = &self.inner;
        let prev = inner.sessions.fetch_add(1, Ordering::SeqCst);
        if prev >= inner.config.max_sessions {
            inner.sessions.fetch_sub(1, Ordering::SeqCst);
            inner.metrics.rejected_sessions.add(1);
            return Err(Error::Eval(XdmError::new(
                ERR_SESSIONS,
                format!(
                    "session limit reached ({} open); retry after a session closes",
                    inner.config.max_sessions
                ),
            )));
        }
        inner.metrics.sessions.set(prev as i64 + 1);
        Ok(Session {
            inner: inner.clone(),
            id: inner.next_session.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The latest published epoch (0 until the first commit).
    pub fn epoch(&self) -> u64 {
        self.inner.versions.latest_epoch()
    }

    /// Store fingerprint of the latest published snapshot.
    pub fn fingerprint(&self) -> u64 {
        self.inner.versions.pin_latest().store().fingerprint()
    }

    /// Every commit so far, in commit (= epoch) order — empty unless the
    /// server runs with [`ServerConfig::audit`].
    pub fn commit_log(&self) -> Vec<CommitRecord> {
        self.inner
            .commits
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The cross-session plan cache.
    pub fn plan_cache(&self) -> &Arc<SharedPlanCache> {
        &self.inner.cache
    }

    /// The admission policy in force.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.config
    }

    /// Run `f` under the writer lock — host-side setup (loading extra
    /// documents, registering modules) after the server exists. Publishes
    /// a new epoch afterwards, since `f` may have changed the store.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        let mut engine = self.inner.engine.lock().unwrap_or_else(|e| e.into_inner());
        let r = f(&mut engine);
        // Host-side setup can change anything — bindings and module
        // functions included, which footprints don't cover — so its ring
        // entry is globally conflicting: every Δ in flight across it
        // revalidates from a fresh snapshot.
        let mut writes = engine
            .take_capture()
            .map(|d| d.writes().clone())
            .unwrap_or_default();
        writes.set_global();
        let epoch = self.inner.versions.publish(engine.snapshot_state());
        self.inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(epoch, writes);
        r
    }

    /// A point-in-time view of the server's `server.*` metrics plus the
    /// shared-cache and version-chain state.
    pub fn stats(&self) -> ServerStats {
        let inner = &self.inner;
        let m = &inner.metrics;
        let (cache_hits, cache_misses) = inner.cache.stats();
        ServerStats {
            epoch: inner.versions.latest_epoch(),
            sessions: inner.sessions.load(Ordering::SeqCst),
            inflight: inner.inflight.load(Ordering::SeqCst),
            snapshot_pins: inner.versions.pinned(),
            versions_retained: inner.versions.retained(),
            versions_retired: inner.versions.retired(),
            reads: m.requests_read.get(),
            writes: m.requests_write.get(),
            errors: m.errors.get(),
            rejected_sessions: m.rejected_sessions.get(),
            rejected_backpressure: m.rejected_backpressure.get(),
            conflicts: m.conflicts.get(),
            retries: m.retries.get(),
            cache_hits,
            cache_misses,
            read_p50_ns: m.read_ns.quantile(0.50),
            read_p99_ns: m.read_ns.quantile(0.99),
            write_p50_ns: m.write_ns.quantile(0.50),
            write_p99_ns: m.write_ns.quantile(0.99),
            write_eval_p50_ns: m.write_phases.eval_ns.quantile(0.50),
            write_validate_p50_ns: m.write_phases.validate_ns.quantile(0.50),
            write_rebase_p50_ns: m.write_phases.rebase_ns.quantile(0.50),
            write_publish_p50_ns: m.write_phases.publish_ns.quantile(0.50),
        }
    }
}

/// A point-in-time server status report ([`Server::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Latest published epoch.
    pub epoch: u64,
    /// Sessions currently open.
    pub sessions: usize,
    /// Requests currently in flight.
    pub inflight: usize,
    /// Snapshot pins currently held by in-flight reads.
    pub snapshot_pins: usize,
    /// Versions currently retained (latest + pinned ancestors).
    pub versions_retained: usize,
    /// Versions retired since startup.
    pub versions_retired: u64,
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Requests that returned an evaluation error.
    pub errors: u64,
    /// `XQB0050` session-limit rejections.
    pub rejected_sessions: u64,
    /// `XQB0051` backpressure rejections.
    pub rejected_backpressure: u64,
    /// Optimistic commits that failed validation (each is retried or
    /// aborted with `XQB0052`).
    pub conflicts: u64,
    /// Automatic conflict retries performed.
    pub retries: u64,
    /// Shared plan-cache hits across all sessions.
    pub cache_hits: u64,
    /// Shared plan-cache misses across all sessions.
    pub cache_misses: u64,
    /// Read-latency p50 (log₂-bucket estimate, nanoseconds).
    pub read_p50_ns: u64,
    /// Read-latency p99.
    pub read_p99_ns: u64,
    /// Write-latency p50.
    pub write_p50_ns: u64,
    /// Write-latency p99.
    pub write_p99_ns: u64,
    /// Write-phase p50s (`server.write.*_ns`, per attempt): program
    /// evaluation, footprint validation, rebase onto the live engine,
    /// and snapshot + publish.
    pub write_eval_p50_ns: u64,
    /// See [`ServerStats::write_eval_p50_ns`].
    pub write_validate_p50_ns: u64,
    /// See [`ServerStats::write_eval_p50_ns`].
    pub write_rebase_p50_ns: u64,
    /// See [`ServerStats::write_eval_p50_ns`].
    pub write_publish_p50_ns: u64,
}

impl ServerStats {
    /// One JSON object, for the wire protocol's `STATS` reply.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"epoch\":{},\"sessions\":{},\"inflight\":{},\"snapshot_pins\":{},\
             \"versions_retained\":{},\"versions_retired\":{},\
             \"reads\":{},\"writes\":{},\"errors\":{},\
             \"rejected_sessions\":{},\"rejected_backpressure\":{},\
             \"conflicts\":{},\"retries\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\
             \"read_p50_ns\":{},\"read_p99_ns\":{},\
             \"write_p50_ns\":{},\"write_p99_ns\":{},\
             \"write_eval_p50_ns\":{},\"write_validate_p50_ns\":{},\
             \"write_rebase_p50_ns\":{},\"write_publish_p50_ns\":{}}}",
            self.epoch,
            self.sessions,
            self.inflight,
            self.snapshot_pins,
            self.versions_retained,
            self.versions_retired,
            self.reads,
            self.writes,
            self.errors,
            self.rejected_sessions,
            self.rejected_backpressure,
            self.conflicts,
            self.retries,
            self.cache_hits,
            self.cache_misses,
            self.read_p50_ns,
            self.read_p99_ns,
            self.write_p50_ns,
            self.write_p99_ns,
            self.write_eval_p50_ns,
            self.write_validate_p50_ns,
            self.write_rebase_p50_ns,
            self.write_publish_p50_ns,
        )
    }
}

/// One client session. `Send` — a connection handler owns it on its own
/// thread. Dropping it frees the admission slot.
pub struct Session {
    inner: Arc<Inner>,
    id: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("id", &self.id).finish()
    }
}

impl Session {
    /// This session's id (1-based, unique per server).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Parse, route, and run one query.
    ///
    /// Routing: a query whose body and prolog initializers are provably
    /// pure executes as a [`RequestKind::Read`] against the pinned latest
    /// snapshot, concurrently with other reads and with the writer.
    /// Anything else executes as a [`RequestKind::Write`] under the
    /// engine mutex and publishes a new epoch — even when it returns an
    /// error, since snaps closed before an error are commitment (§2.3).
    pub fn execute(&self, query: &str) -> Result<Response, Error> {
        let _slot = InflightSlot::admit(&self.inner)?;
        let program = {
            // Parse outside any lock; the parse-depth limit applies.
            let limits = self.inner.config.limits;
            xqsyn::compile_with_limit(query, limits.max_parse_depth).map_err(Error::Parse)?
        };
        // Classify against the latest snapshot's module functions — no
        // engine lock. A commit between classification and execution is
        // harmless: purity depends only on the function bodies, and
        // module registration goes through `with_engine` (the writer).
        let pin = self.inner.versions.pin_latest();
        self.inner
            .metrics
            .snapshot_pins
            .set(self.inner.versions.pinned() as i64);
        if pin.is_read_only(&program) {
            let r = self.execute_read(&pin, &program);
            drop(pin);
            self.inner
                .metrics
                .snapshot_pins
                .set(self.inner.versions.pinned() as i64);
            r
        } else {
            drop(pin);
            self.inner
                .metrics
                .snapshot_pins
                .set(self.inner.versions.pinned() as i64);
            self.execute_write(query, &program)
        }
    }

    fn execute_read(
        &self,
        pin: &xqdm::Pinned<EngineSnapshot>,
        program: &xqsyn::CoreProgram,
    ) -> Result<Response, Error> {
        let inner = &self.inner;
        let mut reader = pin.reader();
        reader.set_shared_plan_cache(inner.cache.clone());
        let started = Instant::now();
        let result = reader.run_program(program);
        inner.metrics.read_ns.record(ns_since(started));
        inner.metrics.requests_read.add(1);
        match result {
            Ok(value) => {
                let body = reader.serialize(&value).map_err(Error::Eval)?;
                Ok(Response {
                    kind: RequestKind::Read,
                    epoch: pin.epoch(),
                    body,
                })
            }
            Err(e) => {
                inner.metrics.errors.add(1);
                Err(Error::Eval(e))
            }
        }
    }

    /// The writer path. With OCC on and an OCC-safe program: evaluate on
    /// a forked snapshot, validate the Δ's footprint, rebase under the
    /// engine lock; retry on conflict up to `max_retries` times, then
    /// run serialized. Everything else serializes its whole evaluation.
    fn execute_write(&self, query: &str, program: &xqsyn::CoreProgram) -> Result<Response, Error> {
        let inner = &self.inner;
        let started = Instant::now();
        inner.metrics.requests_write.add(1);
        let mut retries = 0usize;
        let outcome = loop {
            if !inner.config.occ_writers {
                break self.commit_pessimistic(query, program);
            }
            let pin = inner.versions.pin_latest();
            if !pin.occ_safe(program) {
                drop(pin);
                break self.commit_pessimistic(query, program);
            }
            match self.try_commit_optimistic(query, program, &pin) {
                Ok(done) => break done,
                Err(_conflict_aspects) => {
                    inner.metrics.conflicts.add(1);
                    drop(pin);
                    if retries >= inner.config.max_retries {
                        // Progress guarantee: the serialized path holds
                        // the engine mutex for the whole evaluation, so
                        // nothing can commit in between — it never
                        // conflicts, and a starved writer always lands.
                        break self.commit_pessimistic(query, program);
                    }
                    retries += 1;
                    inner.metrics.retries.add(1);
                }
            }
        };
        inner.metrics.write_ns.record(ns_since(started));
        if outcome.is_err() {
            inner.metrics.errors.add(1);
        }
        outcome
    }

    /// One optimistic attempt. `Ok` carries the request's final outcome
    /// (including evaluation errors — those commit their closed snaps and
    /// do not retry); `Err` carries the conflicting aspect mask and means
    /// "evaluate again from a fresh snapshot".
    fn try_commit_optimistic(
        &self,
        query: &str,
        program: &xqsyn::CoreProgram,
        pin: &xqdm::Pinned<EngineSnapshot>,
    ) -> Result<Result<Response, Error>, u8> {
        let inner = &self.inner;
        let phases = &inner.metrics.write_phases;
        let base_epoch = pin.epoch();
        let t = Instant::now();
        let mut fork = pin.reader();
        fork.set_shared_plan_cache(inner.cache.clone());
        fork.begin_capture(true);
        let result = fork.run_program(program);
        // Serialize on the fork, *before* draining the capture: the
        // response body is evaluator-visible output, so the reads that
        // shaped it belong in the validated footprint.
        let outcome = match result {
            Ok(value) => fork.serialize(&value).map_err(Error::Eval),
            Err(e) => Err(Error::Eval(e)),
        };
        let delta = fork.take_capture().expect("fork capture attached");
        let fork_snaps = fork.snap_counter().saturating_sub(pin.snap_counter());
        drop(fork);
        phases.eval_ns.record(ns_since(t));

        // Validate + rebase + publish, all under the engine mutex; the
        // ring lock nests inside it.
        let mut engine = inner.engine.lock().unwrap_or_else(|e| e.into_inner());
        let t = Instant::now();
        {
            let ring = inner.ring.lock().unwrap_or_else(|e| e.into_inner());
            let verdict = ring.validate(base_epoch, &delta);
            drop(ring);
            phases.validate_ns.record(ns_since(t));
            if let Err(bits) = verdict {
                // Last-writer-wins may waive pure value collisions: the
                // rebase re-applies this Δ's renames/sets on top, which
                // is exactly the serial order "them first, us second".
                let structural = bits & !(aspect::NAME | aspect::VALUE);
                if !(inner.config.conflict_policy == ConflictPolicy::LastWriterWins
                    && structural == 0)
                {
                    return Err(bits);
                }
            }
        }
        let t = Instant::now();
        engine.note_committer(self.id, base_epoch);
        let applied = engine.apply_captured(&delta);
        phases.rebase_ns.record(ns_since(t));
        if let Err(e) = applied {
            // A precondition failed on the live store: some commit since
            // the base invalidated an op in a way footprints admit
            // (LWW waivers, untraced mutator-internal reads). Treat as a
            // conflict and retry — unless nothing can have interleaved,
            // in which case the Δ itself is unreplayable and retrying
            // would loop forever.
            if inner.versions.latest_epoch() == base_epoch {
                drop(engine);
                return Ok(Err(Error::Eval(e)));
            }
            return Err(aspect::ALL);
        }
        engine.advance_snap_counter(fork_snaps);
        let live_writes = engine
            .take_capture()
            .map(|d| d.writes().clone())
            .unwrap_or_default();
        Ok(self.publish_commit(inner, &mut engine, query, outcome, live_writes))
    }

    /// The fully serialized writer: evaluate on the live engine under the
    /// mutex. Taken when OCC is off, when the program is not OCC-safe, and
    /// after `max_retries` optimistic conflicts; never conflicts.
    fn commit_pessimistic(
        &self,
        query: &str,
        program: &xqsyn::CoreProgram,
    ) -> Result<Response, Error> {
        let inner = &self.inner;
        let mut engine = inner.engine.lock().unwrap_or_else(|e| e.into_inner());
        let t = Instant::now();
        let result = engine.run_program(program);
        let outcome = match result {
            Ok(value) => engine.serialize(&value).map_err(Error::Eval),
            Err(e) => Err(Error::Eval(e)),
        };
        inner.metrics.write_phases.eval_ns.record(ns_since(t));
        let live_writes = engine
            .take_capture()
            .map(|d| d.writes().clone())
            .unwrap_or_default();
        self.publish_commit(inner, &mut engine, query, outcome, live_writes)
    }

    /// Publish the post-run state whatever the outcome: an errored run
    /// keeps its closed snaps, so readers must see them. Publishing,
    /// the ring push, and audit logging happen under the engine lock, so
    /// the commit log's order is the epoch order.
    fn publish_commit(
        &self,
        inner: &Inner,
        engine: &mut Engine,
        query: &str,
        outcome: Result<String, Error>,
        writes: Footprint,
    ) -> Result<Response, Error> {
        let t = Instant::now();
        let snapshot = engine.snapshot_state();
        // The fingerprint is O(store): computed only for the audit log.
        let fingerprint = inner.config.audit.then(|| snapshot.store().fingerprint());
        let epoch = inner.versions.publish(snapshot);
        inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(epoch, writes);
        if let Some(fingerprint) = fingerprint {
            let logged = match &outcome {
                Ok(body) => Ok(body.clone()),
                Err(Error::Eval(e)) => Err(e.code.to_string()),
                Err(Error::Parse(_)) => unreachable!("program already parsed"),
            };
            inner
                .commits
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(CommitRecord {
                    epoch,
                    session: self.id,
                    query: query.to_string(),
                    body: logged,
                    fingerprint,
                });
        }
        inner.metrics.write_phases.publish_ns.record(ns_since(t));
        outcome.map(|body| Response {
            kind: RequestKind::Write,
            epoch,
            body,
        })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let prev = self.inner.sessions.fetch_sub(1, Ordering::SeqCst);
        self.inner
            .metrics
            .sessions
            .set(prev.saturating_sub(1) as i64);
    }
}

/// RAII admission slot: counts a request in flight, rejecting with
/// `XQB0051` past `max_inflight`.
struct InflightSlot<'a> {
    inner: &'a Inner,
}

impl<'a> InflightSlot<'a> {
    fn admit(inner: &'a Inner) -> Result<InflightSlot<'a>, Error> {
        let prev = inner.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= inner.config.max_inflight {
            inner.inflight.fetch_sub(1, Ordering::SeqCst);
            inner.metrics.rejected_backpressure.add(1);
            return Err(Error::Eval(XdmError::new(
                ERR_BACKPRESSURE,
                format!(
                    "server at capacity ({} requests in flight); retry",
                    inner.config.max_inflight
                ),
            )));
        }
        inner.metrics.inflight.set(prev as i64 + 1);
        Ok(InflightSlot { inner })
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        let prev = self.inner.inflight.fetch_sub(1, Ordering::SeqCst);
        self.inner
            .metrics
            .inflight
            .set(prev.saturating_sub(1) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server over `<log/>` with the audit log on (the tests below
    /// read it back).
    fn server_with_doc() -> Server {
        let mut e = Engine::new();
        e.load_document("doc", "<log/>").unwrap();
        Server::with_config(
            e,
            ServerConfig {
                audit: true,
                ..ServerConfig::default()
            },
        )
    }

    #[test]
    fn reads_and_writes_route_by_purity() {
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        let r = s.execute("count($doc/log/*)").unwrap();
        assert_eq!(r.kind, RequestKind::Read);
        assert_eq!(r.body, "0");
        let w = s.execute("insert { <e/> } into { $doc/log }").unwrap();
        assert_eq!(w.kind, RequestKind::Write);
        assert_eq!(w.epoch, server.epoch());
        let r = s.execute("count($doc/log/*)").unwrap();
        assert_eq!(r.kind, RequestKind::Read);
        assert_eq!(r.body, "1");
        assert_eq!(r.epoch, w.epoch, "read pinned the committed epoch");
    }

    #[test]
    fn session_limit_rejects_with_xqb0050() {
        let config = ServerConfig {
            max_sessions: 2,
            ..ServerConfig::default()
        };
        let server = Server::with_config(Engine::new(), config);
        let _a = server.open_session().unwrap();
        let _b = server.open_session().unwrap();
        match server.open_session() {
            Err(Error::Eval(e)) => assert_eq!(e.code, ERR_SESSIONS),
            other => panic!("expected XQB0050, got {other:?}"),
        }
        drop(_a);
        // A freed slot admits again.
        assert!(server.open_session().is_ok());
    }

    #[test]
    fn errored_writes_keep_closed_snaps_and_publish() {
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        // The snap commits, then the error fires: commitment per §2.3.
        let err = s
            .execute("(snap insert { <kept/> } into { $doc/log }, 1 div 0)")
            .unwrap_err();
        assert!(matches!(err, Error::Eval(_)));
        let r = s.execute("count($doc/log/kept)").unwrap();
        assert_eq!(r.body, "1");
        // The errored run is in the commit log for replay.
        let log = server.commit_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].body.is_err());
    }

    #[test]
    fn commit_log_orders_by_epoch_and_fingerprints_match() {
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        for i in 0..3 {
            s.execute(&format!("insert {{ <e n=\"{i}\"/> }} into {{ $doc/log }}"))
                .unwrap();
        }
        let log = server.commit_log();
        let epochs: Vec<u64> = log.iter().map(|c| c.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3]);
        assert_eq!(log[2].fingerprint, server.fingerprint());
    }

    #[test]
    fn commit_log_is_kept_only_under_audit() {
        let mut e = Engine::new();
        e.load_document("doc", "<log/>").unwrap();
        let server = Server::new(e);
        assert!(!server.config().audit, "audit is opt-in");
        let s = server.open_session().unwrap();
        for _ in 0..3 {
            s.execute("insert { <e/> } into { $doc/log }").unwrap();
        }
        assert_eq!(server.epoch(), 3, "writes still publish");
        assert!(server.commit_log().is_empty());

        // With audit on, the same traffic yields today's full log.
        let audited = server_with_doc();
        let s = audited.open_session().unwrap();
        for _ in 0..3 {
            s.execute("insert { <e/> } into { $doc/log }").unwrap();
        }
        let log = audited.commit_log();
        assert_eq!(log.len(), 3);
        assert!(log.iter().all(|c| c.session == s.id() && c.body.is_ok()));
        assert_eq!(log[2].fingerprint, audited.fingerprint());
    }

    #[test]
    fn shared_cache_hits_across_sessions() {
        // Bare xqcore has no planner installed, so plans (and hence cache
        // traffic) only exist under the facade; the cross-session hit
        // assertion lives in tests/server_isolation.rs. Here: two
        // sessions answering the same query stays correct either way.
        let server = server_with_doc();
        let a = server.open_session().unwrap();
        let b = server.open_session().unwrap();
        a.execute("count($doc/log/*)").unwrap();
        let (hits_before, misses_before) = server.plan_cache().stats();
        b.execute("count($doc/log/*)").unwrap();
        let (hits_after, misses_after) = server.plan_cache().stats();
        if crate::planner::default_planner().is_some() {
            assert!(hits_after > hits_before);
        } else {
            assert_eq!((hits_after, misses_after), (hits_before, misses_before));
        }
    }

    #[test]
    fn stats_reflect_traffic() {
        let server = server_with_doc();
        let before = server.stats();
        let s = server.open_session().unwrap();
        s.execute("1 + 1").unwrap();
        s.execute("insert { <e/> } into { $doc/log }").unwrap();
        let after = server.stats();
        assert_eq!(after.reads, before.reads + 1);
        assert_eq!(after.writes, before.writes + 1);
        assert_eq!(after.inflight, 0);
        assert_eq!(after.snapshot_pins, 0);
        assert!(after.epoch > before.epoch);
        let json = after.to_json();
        assert!(json.starts_with("{\"epoch\":"));
        assert!(json.contains("\"write_eval_p50_ns\":"));
        assert!(json.contains("\"write_publish_p50_ns\":"));
        assert!(json.contains("\"read_p50_ns\":"));
        assert!(json.contains("\"conflicts\":"));
        assert!(json.contains("\"retries\":"));
    }

    // -----------------------------------------------------------------
    // Optimistic concurrent writers (DESIGN.md §16)
    // -----------------------------------------------------------------

    /// Run `q` on a scratch engine under capture and hand back its Δ.
    fn capture_of(e: &mut Engine, q: &str) -> xqdm::CapturedDelta {
        e.begin_capture(true);
        let _ = e.run(q);
        e.take_capture().expect("capture attached")
    }

    #[test]
    fn footprint_ring_validates_and_evicts() {
        let mut e = Engine::new();
        e.load_document("doc", "<c>0</c>").unwrap();
        // A value-set on the counter text: reads the counter, writes its
        // value aspect.
        let incr = capture_of(
            &mut e,
            "replace value of { $doc/c/text() } with { $doc/c + 1 }",
        );
        // A pure read of the counter (empty write footprint).
        let reader = capture_of(&mut e, "string($doc/c)");
        assert!(reader.writes().is_empty());
        // A query that never touched the document.
        let blind = capture_of(&mut e, "1 + 1");

        let mut ring = FootprintRing::new(2);
        ring.push(1, incr.writes().clone());
        // The reader saw the counter at base 0; epoch 1 rewrote it.
        let bits = ring.validate(0, &reader).unwrap_err();
        assert_eq!(bits & !(aspect::NAME | aspect::VALUE), 0, "value-only");
        // From base 1 nothing newer exists to conflict with.
        assert!(ring.validate(1, &reader).is_ok());
        // A Δ that read nothing commutes with anything covered.
        assert!(ring.validate(0, &blind).is_ok());
        // Eviction: once the base predates ring coverage, validation
        // must conservatively conflict — even for an empty read set.
        ring.push(2, Footprint::default());
        ring.push(3, Footprint::default());
        assert_eq!(ring.entries.len(), 2);
        assert_eq!(ring.validate(0, &blind).unwrap_err(), aspect::ALL);
        assert!(ring.validate(2, &reader).is_ok());
    }

    fn counter_server(config: ServerConfig) -> Server {
        let mut e = Engine::new();
        e.load_document("doc", "<c>0</c>").unwrap();
        Server::with_config(e, config)
    }

    const INCR: &str = "replace value of { $doc/c/text() } with { $doc/c + 1 }";
    /// An increment that evaluates slowly, widening the window in which
    /// another committer can land between its pin and its validation.
    const SLOW_INCR: &str =
        "(sum(1 to 300000)[. < 0], replace value of { $doc/c/text() } with { $doc/c + 1 })";

    #[test]
    fn concurrent_increments_never_lose_updates() {
        // The classic lost-update litmus: N sessions × K read-modify-write
        // increments. Backward validation forces every stale increment to
        // retry, so the final value is exactly N*K. Every request lands:
        // a writer that exhausts its retries runs serialized.
        let server = counter_server(ServerConfig {
            audit: true,
            ..ServerConfig::default()
        });
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    for _ in 0..8 {
                        s.execute(INCR).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = server.open_session().unwrap();
        assert_eq!(s.execute("string($doc/c)").unwrap().body, "32");
        // Log order = epoch order, and the last commit's fingerprint is
        // the live store's.
        let log = server.commit_log();
        assert!(log.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert_eq!(log.last().unwrap().fingerprint, server.fingerprint());
    }

    #[test]
    fn exhausted_retries_fall_back_to_the_serialized_path() {
        // max_retries = 0: the first conflict ends optimism. A slow writer
        // pins, evaluates while the main thread commits a colliding
        // increment, fails validation — and then commits through the
        // serialized path instead of surfacing XQB0052.
        let server = counter_server(ServerConfig {
            max_retries: 0,
            ..ServerConfig::default()
        });
        let main = server.open_session().unwrap();
        let before = server.stats();
        let mut rounds = 0u64;
        for _ in 0..30 {
            let slow = {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    s.execute(SLOW_INCR)
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(2));
            main.execute(INCR).unwrap();
            // Never an error: the colliding writer always commits.
            slow.join().unwrap().unwrap();
            rounds += 1;
            if server.stats().conflicts > before.conflicts {
                break;
            }
        }
        // Metrics are process-global (one obs registry), so compare
        // against the snapshot taken before this test's traffic.
        let after = server.stats();
        assert!(
            after.conflicts > before.conflicts,
            "no conflict in {rounds} rounds of forced collision"
        );
        // No increment was lost or doubled: the counter equals every
        // request sent.
        let got: u64 = main
            .execute("string($doc/c)")
            .unwrap()
            .body
            .parse()
            .unwrap();
        assert_eq!(got, rounds * 2);
    }

    #[test]
    fn bounded_retry_recovers_from_conflicts() {
        // Default max_retries: the slow loser re-evaluates from a fresh
        // snapshot and lands; nothing surfaces to the client.
        let server = counter_server(ServerConfig::default());
        let main = server.open_session().unwrap();
        let before = server.stats();
        let mut rounds = 0u64;
        for _ in 0..10 {
            let slow = {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    s.execute(SLOW_INCR)
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(2));
            main.execute(INCR).unwrap();
            slow.join().unwrap().unwrap();
            rounds += 1;
            if server.stats().retries > before.retries {
                break;
            }
        }
        // Every round ran both increments to completion, conflicts or not.
        let got: u64 = main
            .execute("string($doc/c)")
            .unwrap()
            .body
            .parse()
            .unwrap();
        assert_eq!(got, rounds * 2);
    }

    #[test]
    fn last_writer_wins_waives_value_conflicts() {
        // Under lww a stale value-set commits anyway — the increment that
        // validated against an outdated counter overwrites the newer one,
        // exactly as if it had run second serially. The counter then
        // *undercounts*: that lost update is the policy's documented
        // trade, and the abort policy's raison d'être.
        let server = counter_server(ServerConfig {
            conflict_policy: ConflictPolicy::LastWriterWins,
            max_retries: 0,
            ..ServerConfig::default()
        });
        let main = server.open_session().unwrap();
        let mut lost = 0u64;
        let mut rounds = 0u64;
        for _ in 0..30 {
            let slow = {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    s.execute(SLOW_INCR)
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(2));
            main.execute(INCR).unwrap();
            // Never XQB0052: value-only collisions are waived.
            slow.join().unwrap().unwrap();
            rounds += 1;
            let got: u64 = main
                .execute("string($doc/c)")
                .unwrap()
                .body
                .parse()
                .unwrap();
            lost = rounds * 2 - got;
            if lost > 0 {
                break;
            }
        }
        assert!(
            lost > 0,
            "no waived lost update in {rounds} rounds of forced collision"
        );
    }

    #[test]
    fn occ_unsafe_programs_take_the_pessimistic_path() {
        // A nondeterministic snap cannot be footprint-validated (its
        // replay could legitimately differ), so the write serializes
        // under the engine lock and never conflicts.
        let server = counter_server(ServerConfig::default());
        let s = server.open_session().unwrap();
        let before = server.stats();
        s.execute("snap nondeterministic { insert { <e/> } into { $doc/c } }")
            .unwrap();
        assert_eq!(s.execute("count($doc/c/e)").unwrap().body, "1");
        assert_eq!(server.stats().conflicts, before.conflicts);
        // Same for par-opaque builtins observed mid-query.
        s.execute("(insert { <f/> } into { $doc/c }, xqb:stats())")
            .unwrap();
        assert_eq!(server.stats().conflicts, before.conflicts);
    }

    #[test]
    fn occ_off_serializes_every_write() {
        let server = counter_server(ServerConfig {
            occ_writers: false,
            ..ServerConfig::default()
        });
        let before = server.stats();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    for _ in 0..4 {
                        s.execute(INCR).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = server.open_session().unwrap();
        assert_eq!(s.execute("string($doc/c)").unwrap().body, "8");
        let stats = server.stats();
        assert_eq!(
            (stats.conflicts, stats.retries),
            (before.conflicts, before.retries)
        );
    }
}
