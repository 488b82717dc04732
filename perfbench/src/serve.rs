//! The two server workloads, `serve_read` and `serve_write`: an XMark
//! document behind `xqcore::Server`, driven by closed-loop sessions, plus
//! the traced replay of one session's request stream.

use crate::gen::{self, FinalState, Model, Request, Shape, Stream};
use crate::stats::{self, ratio, Latencies, Metrics};
use crate::trace::{self, Counters, Tracer};
use crate::{Args, Run};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use xmarkgen::{Scale, XmarkGen};
use xqcore::{obs, planner, Engine, EngineSnapshot, Error, RequestKind, Server, ServerConfig};
use xqdm::{NodeId, SyncMode};

/// Closed-loop client sessions (at most `nproc` on the machine the
/// benchmark was designed on: 2).
const SESSIONS: usize = 2;
/// Requests of session 0's stream replayed by the traced run.
const REPLAY_READ: usize = 3000;
const REPLAY_WRITE: usize = 400;

pub struct Workload {
    /// `serve_write`: durable store, 25% writes.
    pub write: bool,
}

impl Workload {
    fn scale(&self) -> Scale {
        Scale::factor(if self.write { 0.2 } else { 0.1 })
    }

    fn write_share(&self) -> f64 {
        if self.write {
            0.25
        } else {
            0.0
        }
    }
}

/// A loaded engine, before it is handed to a server or a replica.
struct Loaded {
    engine: Engine,
    doc: NodeId,
    /// Seconds spent generating, opening the durable store and loading.
    load_s: f64,
}

fn load(w: &Workload, seed: u64, dir: &Path) -> Result<Loaded, String> {
    let started = Instant::now();
    let mut engine = Engine::new();
    if w.write {
        engine.set_durability(SyncMode::Always);
        engine
            .open_store(dir)
            .map_err(|e| format!("open durable store: {e}"))?;
    }
    let xml = XmarkGen::new(seed)
        .generate_xml(&w.scale())
        .map_err(|e| format!("generate: {e}"))?;
    let doc = engine
        .load_document("doc", &xml)
        .map_err(|e| format!("load: {e}"))?;
    Ok(Loaded {
        engine,
        doc,
        load_s: started.elapsed().as_secs_f64(),
    })
}

fn error_code(e: &Error) -> String {
    match e {
        Error::Eval(x) => x.code.to_string(),
        Error::Parse(_) => "parse".into(),
    }
}

/// The texts the set-up warms: every read shape of every hot person.
fn warm_texts(seed: u64, persons: usize) -> Vec<(Shape, usize, String)> {
    let mut out = Vec::new();
    for p in gen::hot_set(seed, persons) {
        for shape in [Shape::Lookup, Shape::Bought, Shape::Children] {
            out.push((shape, p, gen::query_text(shape, p, "")));
        }
    }
    out
}

struct Hosted {
    server: Server,
    doc: NodeId,
    model: Model,
    nodes: usize,
    setup_s: f64,
}

/// One set-up: generate, (durably) load, start the server, warm the hot
/// plans. The model is read in between and is not part of `setup_s`.
fn host(w: &Workload, seed: u64, dir: &Path) -> Result<Hosted, String> {
    let loaded = load(w, seed, dir)?;
    let model = Model::from_store(&loaded.engine.store, loaded.doc)?;
    let nodes = loaded.engine.store.len();
    let started = Instant::now();
    let server = Server::with_config(loaded.engine, ServerConfig::default());
    let session = server.open_session().map_err(|e| e.to_string())?;
    for (shape, person, text) in warm_texts(seed, model.persons.len()) {
        let body = session.execute(&text).map_err(|e| e.to_string())?.body;
        let req = Request {
            shape,
            person,
            tag: String::new(),
            text,
        };
        if !model.read_is_correct(&req, &body, None) {
            return Err(format!("warm-up answer wrong for {}", req.text));
        }
    }
    drop(session);
    Ok(Hosted {
        server,
        doc: loaded.doc,
        model,
        nodes,
        setup_s: loaded.load_s + started.elapsed().as_secs_f64(),
    })
}

/// What one closed-loop session saw.
#[derive(Default)]
struct SessionLog {
    reads: Latencies,
    writes: Latencies,
    attempted: u64,
    completed: u64,
    wrong: u64,
    errors: HashMap<String, u64>,
    text_hashes: Vec<u64>,
    watches: Vec<(String, usize)>,
    logs: Vec<String>,
    /// (epoch, person, email) of each successful email replace.
    emails: Vec<(u64, usize, String)>,
    /// Most versions the server retained after any request (traced runs).
    max_versions: usize,
}

fn text_hash(text: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// What the closed-loop sessions of one measurement share.
struct Shared<'a> {
    hosted: &'a Hosted,
    w: &'a Workload,
    seed: u64,
    run_for: Duration,
    /// Sample the server's retained versions after each request.
    trace: bool,
    start: Barrier,
    /// `<watch>` inserts sent per person, counted before sending.
    watch_issued: Vec<AtomicU32>,
}

fn session_loop(sh: &Shared, s: usize) -> SessionLog {
    let (model, w, watch_issued) = (&sh.hosted.model, sh.w, &sh.watch_issued);
    let mut log = SessionLog::default();
    let session = sh.hosted.server.open_session();
    sh.start.wait();
    let session = match session {
        Ok(session) => session,
        Err(e) => {
            log.attempted = 1;
            *log.errors.entry(error_code(&e)).or_default() += 1;
            return log;
        }
    };
    let mut stream = Stream::new(sh.seed, s, model.persons.len(), w.write_share());
    let began = Instant::now();
    while began.elapsed() < sh.run_for {
        let req = stream.next_request();
        log.text_hashes.push(text_hash(&req.text));
        if req.shape == Shape::WatchInsert {
            watch_issued[req.person].fetch_add(1, Ordering::SeqCst);
        }
        let write = req.shape.is_write();
        log.attempted += 1;
        let t = Instant::now();
        let result = session.execute(&req.text);
        let ns = stats::ns_since(t);
        let at = stats::ns_since(began);
        let class = if write {
            &mut log.writes
        } else {
            &mut log.reads
        };
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                class.failed(at);
                *log.errors.entry(error_code(&e)).or_default() += 1;
                continue;
            }
        };
        let expected_kind = if write {
            RequestKind::Write
        } else {
            RequestKind::Read
        };
        let correct = response.kind == expected_kind
            && if write {
                response.body.is_empty()
            } else {
                let watches = w
                    .write
                    .then(|| watch_issued[req.person].load(Ordering::SeqCst));
                model.read_is_correct(&req, &response.body, watches)
            };
        if !correct {
            class.failed(at);
            log.wrong += 1;
            continue;
        }
        class.ok(at, ns);
        log.completed += 1;
        if sh.trace {
            let retained = sh.hosted.server.stats().versions_retained;
            log.max_versions = log.max_versions.max(retained);
        }
        match req.shape {
            Shape::WatchInsert => log.watches.push((req.tag, req.person)),
            Shape::LogInsert => log.logs.push(req.tag),
            Shape::EmailReplace => log.emails.push((
                response.epoch,
                req.person,
                gen::written_email(req.person, &req.tag),
            )),
            _ => {}
        }
    }
    log
}

/// Check the end state of a write run against the successful writes:
/// each `<watch>`/`<log>` exactly once per successful insert (and under
/// the right person), each email from its person's last committed
/// replace, and the index plane equal to a rebuild.
fn check_final(hosted: &Hosted, logs: &[SessionLog]) -> Result<(), String> {
    let (state, index_ok) = hosted.server.with_engine(|e| {
        (
            FinalState::read(&e.store, hosted.doc),
            e.store.index_verify(),
        )
    });
    let state = state?;
    if !index_ok {
        return Err("index_verify failed".into());
    }
    let watches: HashMap<String, usize> = logs
        .iter()
        .flat_map(|l| l.watches.iter().cloned())
        .collect();
    if watches != state.watches {
        return Err(format!(
            "{} watch elements for {} successful inserts",
            state.watches.len(),
            watches.len()
        ));
    }
    let expected_logs: HashSet<&String> = logs.iter().flat_map(|l| &l.logs).collect();
    let got_logs: HashSet<&String> = state.logs.iter().collect();
    if expected_logs != got_logs || got_logs.len() != state.logs.len() {
        return Err(format!(
            "{} log elements for {} successful inserts",
            state.logs.len(),
            expected_logs.len()
        ));
    }
    let mut emails: Vec<&str> = hosted
        .model
        .persons
        .iter()
        .map(|p| p.email.as_str())
        .collect();
    let mut replaces: Vec<&(u64, usize, String)> = logs.iter().flat_map(|l| &l.emails).collect();
    replaces.sort_by_key(|r| r.0);
    for (_, person, email) in replaces {
        emails[*person] = email;
    }
    if emails != state.emails {
        return Err("final emails differ from the last committed replaces".into());
    }
    Ok(())
}

/// Registry totals the per-layer WAL metrics are deltas of.
struct WalTotals {
    commits: u64,
    bytes: u64,
    fsyncs: u64,
    commit_ns: u64,
}

impl WalTotals {
    fn read() -> WalTotals {
        let g = obs::global();
        WalTotals {
            commits: g.counter("engine.wal.commits").get(),
            bytes: g.counter("engine.wal.bytes").get(),
            fsyncs: g.counter("engine.wal.fsyncs").get(),
            commit_ns: g.histogram("engine.wal.commit_ns").snapshot().sum,
        }
    }
}

/// The closed-loop measurement on one hosted server.
fn measure(
    hosted: &Hosted,
    w: &Workload,
    args: &Args,
    metrics: &mut Metrics,
    run: &mut Run,
) -> Result<(), String> {
    let persons = hosted.model.persons.len();
    let before = hosted.server.stats();
    let wal_before = WalTotals::read();
    let run_for = Duration::from_secs(args.seconds);
    let shared = Shared {
        hosted,
        w,
        seed: args.seed,
        run_for,
        trace: args.trace,
        start: Barrier::new(SESSIONS + 1),
        watch_issued: (0..persons).map(|_| AtomicU32::new(0)).collect(),
    };
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let shared = &shared;
                scope.spawn(move || session_loop(shared, s))
            })
            .collect();
        shared.start.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect::<Vec<SessionLog>>()
    });
    let after = hosted.server.stats();
    let wal_after = WalTotals::read();

    let mut reads = Latencies::default();
    let mut writes = Latencies::default();
    let mut errors: HashMap<String, u64> = HashMap::new();
    let mut hashes = HashSet::new();
    let mut texts = 0usize;
    for l in &logs {
        reads.extend(&l.reads);
        writes.extend(&l.writes);
        run.attempted += l.attempted;
        run.completed += l.completed;
        run.wrong += l.wrong;
        for (code, n) in &l.errors {
            *errors.entry(code.clone()).or_default() += n;
        }
        texts += l.text_hashes.len();
        hashes.extend(l.text_hashes.iter().copied());
    }
    run.failed = run.attempted - run.completed;
    if w.write {
        if let Err(e) = check_final(hosted, &logs) {
            eprintln!("serve_write end check failed: {e}");
            run.correct = false;
        }
    }
    if run.wrong > 0 {
        run.correct = false;
    }
    run.conditions.distinct_texts = hashes.len();
    run.conditions.repeated_text_share = ratio((texts - hashes.len()) as f64, texts as f64);

    let run_ns = run_for.as_nanos() as u64;
    let mut all = Latencies::default();
    all.extend(&reads);
    all.extend(&writes);
    run.samples.push(("read", reads.count()));
    run.samples.push(("write", writes.count()));
    run.samples.push(("request", all.count()));
    if args.trace {
        let attempted = run.attempted as f64;
        metrics.put("read_p99_us", reads.quantile_us(0.99, run_ns));
        metrics.put("request_p95_us", all.quantile_us(0.95, run_ns));
        metrics.put("write_p50_us", writes.quantile_us(0.50, run_ns));
        metrics.put("write_p95_us", writes.quantile_us(0.95, run_ns));
        metrics.put("failed_ratio", ratio(run.failed as f64, attempted));
        for code in ["XQB0050", "XQB0051", "XQB0052"] {
            let n = errors.remove(code).unwrap_or(0);
            metrics.put(&format!("failed.{code}_ratio"), ratio(n as f64, attempted));
        }
        let other: u64 = errors.values().sum();
        metrics.put("failed.other_ratio", ratio(other as f64, attempted));
        metrics.put("failed.wrong_ratio", ratio(run.wrong as f64, attempted));
        metrics.put(
            "xqsyn.repeat_text_ratio",
            run.conditions.repeated_text_share,
        );
        let hits = (after.cache_hits - before.cache_hits) as f64;
        let misses = (after.cache_misses - before.cache_misses) as f64;
        metrics.put("planner.cache_hit_ratio", ratio(hits, hits + misses));
        let commits = (wal_after.commits - wal_before.commits) as f64;
        metrics.put(
            "wal.commit_us",
            ratio(
                (wal_after.commit_ns - wal_before.commit_ns) as f64 / 1e3,
                commits,
            ),
        );
        metrics.put(
            "wal.bytes_per_commit",
            ratio((wal_after.bytes - wal_before.bytes) as f64, commits),
        );
        metrics.put(
            "wal.fsyncs_per_commit",
            ratio((wal_after.fsyncs - wal_before.fsyncs) as f64, commits),
        );
        let write_requests = (after.writes - before.writes) as f64;
        let retries = (after.retries - before.retries) as f64;
        metrics.put(
            "server.conflicts_per_write",
            ratio((after.conflicts - before.conflicts) as f64, write_requests),
        );
        metrics.put("server.retries_per_write", ratio(retries, write_requests));
        let published = (after.epoch - before.epoch) as f64;
        metrics.put(
            "server.commit_yield",
            ratio(published, write_requests + retries),
        );
        let retained = logs.iter().map(|l| l.max_versions).max().unwrap_or(0);
        metrics.put("server.versions_retained", retained as f64);
        let log_bytes: usize = hosted
            .server
            .commit_log()
            .iter()
            .map(|c| {
                c.query.len()
                    + c.body.as_ref().map_or_else(String::len, String::len)
                    + std::mem::size_of::<xqcore::CommitRecord>()
            })
            .sum();
        metrics.put("server.commit_log_bytes", log_bytes as f64);
    } else {
        metrics.put("read_p50_us", reads.windowed_quantile_us(0.50, run_ns));
        metrics.put("throughput_qps", all.windowed_rate(run_ns));
    }
    Ok(())
}

/// A scratch directory for one set-up's durable store.
fn store_dir(tmp: &Path, i: usize) -> PathBuf {
    tmp.join(format!("store-{i}"))
}

pub fn run(
    w: &Workload,
    args: &Args,
    tmp: &Path,
    metrics: &mut Metrics,
    run: &mut Run,
) -> Result<(), String> {
    let mut hosted = host(w, args.seed, &store_dir(tmp, 0))?;
    let mut setups = vec![hosted.setup_s];
    while setups.len() < args.setups() {
        // Drop the previous set-up first, so set-ups never overlap.
        drop(hosted);
        let _ = std::fs::remove_dir_all(store_dir(tmp, setups.len() - 1));
        hosted = host(w, args.seed, &store_dir(tmp, setups.len()))?;
        setups.push(hosted.setup_s);
    }
    run.conditions.store_nodes = hosted.nodes;
    run.conditions.sync_mode = if w.write {
        "always"
    } else {
        "none (in-memory)"
    };
    measure(&hosted, w, args, metrics, run)?;
    drop(hosted);
    if args.trace {
        replay(w, args, tmp, metrics, run)?;
    } else {
        metrics.put("setup_s", stats::median(&setups));
        metrics.put("peak_rss_mib", stats::peak_rss_mib());
    }
    run.setups = setups;
    Ok(())
}

// ---------------------------------------------------------------------
// Traced replay
// ---------------------------------------------------------------------

/// The server's request path rebuilt from public functions, so that the
/// benchmark can put a span around each layer's call. It follows
/// `Session::execute` step by step, single-threaded: with one client no
/// commit lands between a write's fork and its rebase, so validation
/// against the committed-footprint ring always passes and is omitted.
struct Replica {
    live: Engine,
    snap: Arc<EngineSnapshot>,
    cache: Arc<planner::SharedPlanCache>,
    max_parse_depth: usize,
    epoch: u64,
}

/// Probe the planner calls `run_program` makes internally: the plan-cache
/// key always, and planning itself when the run missed the cache.
pub fn probe_planner(
    tr: &mut Tracer,
    request: u32,
    run_span: u32,
    program: &xqsyn::CoreProgram,
    missed: bool,
    index_available: bool,
) {
    let t = Instant::now();
    std::hint::black_box(planner::program_fingerprint(std::hint::black_box(program)));
    tr.record(
        request,
        run_span,
        "planner",
        "key",
        stats::ns_since(t),
        true,
    );
    if missed {
        if let Some(p) = planner::default_planner() {
            let opts = planner::PlanOptions { index_available };
            let t = Instant::now();
            std::hint::black_box(p.plan_opts(program, &opts));
            tr.record(
                request,
                run_span,
                "planner",
                "plan",
                stats::ns_since(t),
                true,
            );
        }
    }
}

impl Replica {
    /// Mirror `Server::with_config` on a loaded engine.
    fn new(mut live: Engine) -> Replica {
        let config = ServerConfig::default();
        let cache = planner::SharedPlanCache::new();
        live.set_shared_plan_cache(cache.clone());
        live.set_limits(config.limits);
        live.set_threads(config.threads);
        live.begin_capture(false);
        let snap = Arc::new(live.snapshot_state());
        Replica {
            live,
            snap,
            cache,
            max_parse_depth: config.limits.max_parse_depth,
            epoch: 0,
        }
    }

    /// One request with spans; returns the serialized body.
    fn execute(
        &mut self,
        tr: &mut Tracer,
        rid: u32,
        text: &str,
        c: &mut Counters,
    ) -> Result<String, String> {
        let root = tr.begin(rid, 0, "request", "request");
        let program = tr
            .span(rid, root, "xqsyn", "compile", || {
                xqsyn::compile_with_limit(text, self.max_parse_depth)
            })
            .map_err(|e| e.to_string())?;
        let snap = self.snap.clone();
        let read_only = tr.span(rid, root, "server", "classify", || {
            snap.is_read_only(&program)
        });
        if !read_only {
            return self.write(tr, rid, root, &snap, &program, c);
        }
        let cache = self.cache.clone();
        let mut reader = tr.span(rid, root, "xqdm", "fork", || {
            let mut r = snap.reader();
            r.set_shared_plan_cache(cache);
            r
        });
        let misses = self.cache.stats().1;
        let run = tr.begin(rid, root, "engine", "run");
        let value = reader.run_program(&program);
        tr.end(run);
        let body = tr.span(rid, root, "engine", "serialize", || match &value {
            Ok(v) => reader.serialize(v),
            Err(e) => Err(e.clone()),
        });
        let missed = self.cache.stats().1 > misses;
        let index_available = reader.store.index_enabled();
        c.note_run(&reader, value.as_ref().map_or(0, |v| v.len()));
        tr.span(rid, root, "xqdm", "release", || drop((reader, snap)));
        tr.end(root);
        probe_planner(tr, rid, run, &program, missed, index_available);
        body.map_err(|e| e.to_string())
    }

    fn write(
        &mut self,
        tr: &mut Tracer,
        rid: u32,
        root: u32,
        snap: &Arc<EngineSnapshot>,
        program: &xqsyn::CoreProgram,
        c: &mut Counters,
    ) -> Result<String, String> {
        c.writes += 1;
        if !tr.span(rid, root, "server", "occ_safe", || snap.occ_safe(program)) {
            return Err("the benchmark sends only writes that may commit optimistically".into());
        }
        let cache = self.cache.clone();
        let mut fork = tr.span(rid, root, "xqdm", "fork", || {
            let mut f = snap.reader();
            f.set_shared_plan_cache(cache);
            f
        });
        tr.span(rid, root, "server", "capture", || fork.begin_capture(true));
        let misses = self.cache.stats().1;
        let run = tr.begin(rid, root, "engine", "run");
        let value = fork.run_program(program);
        tr.end(run);
        let body = tr.span(rid, root, "engine", "serialize", || match &value {
            Ok(v) => fork.serialize(v),
            Err(e) => Err(e.clone()),
        });
        let missed = self.cache.stats().1 > misses;
        let index_available = fork.store.index_enabled();
        c.note_run(&fork, value.as_ref().map_or(0, |v| v.len()));
        let (delta, fork_snaps) = tr.span(rid, root, "server", "capture", || {
            let delta = fork.take_capture().expect("fork capture attached");
            let snaps = fork.snap_counter().saturating_sub(snap.snap_counter());
            (delta, snaps)
        });
        tr.span(rid, root, "xqdm", "release", || drop(fork));
        let apply = tr.begin(rid, root, "apply", "apply_captured");
        let wal_before = WalTotals::read().commit_ns;
        self.live.note_committer(1, self.epoch);
        let applied = self.live.apply_captured(&delta);
        let wal_ns = WalTotals::read().commit_ns - wal_before;
        tr.end(apply);
        tr.record(rid, apply, "wal", "wal_commit", wal_ns, false);
        applied.map_err(|e| e.to_string())?;
        tr.span(rid, root, "server", "commit", || {
            self.live.advance_snap_counter(fork_snaps);
            self.live.take_capture()
        });
        let next = tr.span(rid, root, "xqdm", "snapshot", || self.live.snapshot_state());
        tr.span(rid, root, "xqdm", "fingerprint", || {
            std::hint::black_box(next.store().fingerprint())
        });
        tr.span(rid, root, "server", "publish", || {
            self.snap = Arc::new(next);
            self.epoch += 1;
        });
        tr.end(root);
        probe_planner(tr, rid, run, program, missed, index_available);
        body.map_err(|e| e.to_string())
    }
}

/// The traced run: replay session 0's stream on two fresh set-ups, in
/// lockstep: each request goes first through a real server session
/// (untraced, the overhead baseline), then through the replica with
/// spans. Interleaving keeps drift between the two out of the overhead.
fn replay(
    w: &Workload,
    args: &Args,
    tmp: &Path,
    metrics: &mut Metrics,
    run: &mut Run,
) -> Result<(), String> {
    let n = if w.write { REPLAY_WRITE } else { REPLAY_READ };
    let hosted = host(w, args.seed, &tmp.join("replay-server"))?;
    let session = hosted.server.open_session().map_err(|e| e.to_string())?;
    let persons = hosted.model.persons.len();
    let mut stream = Stream::new(args.seed, 0, persons, w.write_share());

    let loaded = load(w, args.seed, &tmp.join("replay-traced"))?;
    let mut replica = Replica::new(loaded.engine);
    let mut c = Counters::default();
    let mut warm = Tracer::new();
    for (i, (_, _, text)) in warm_texts(args.seed, persons).iter().enumerate() {
        replica.execute(&mut warm, i as u32 + 1, text, &mut c)?;
    }

    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let mut baseline_ns = 0u64;
    let mut watch_issued = vec![0u32; persons];
    for i in 0..n {
        let req = stream.next_request();
        if req.shape == Shape::WatchInsert {
            watch_issued[req.person] += 1;
        }
        let t = Instant::now();
        let r = session.execute(&req.text);
        baseline_ns += stats::ns_since(t);
        r.map_err(|e| format!("baseline replay: {e}"))?;

        c.requests += 1;
        match replica.execute(&mut tr, i as u32 + 1, &req.text, &mut c) {
            Ok(body) => {
                let ok = if req.shape.is_write() {
                    body.is_empty()
                } else {
                    let watches = w.write.then(|| watch_issued[req.person]);
                    hosted.model.read_is_correct(&req, &body, watches)
                };
                if !ok {
                    c.wrong += 1;
                }
            }
            Err(e) => {
                eprintln!("traced replay request failed: {e}");
                c.failed += 1;
            }
        }
    }
    if c.wrong > 0 || c.failed > 0 {
        run.correct = false;
    }
    run.attempted += c.requests;
    run.failed += c.failed + c.wrong;
    let baseline_us = baseline_ns as f64 / n as f64 / 1e3;
    trace::report(&tr, &c, baseline_us, metrics);
    run.spans = Some(tr);
    Ok(())
}
