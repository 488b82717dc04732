//! `xmark_q8`: the paper's §4.3 XMark Q8 variant and its pure twin on an
//! embedded engine, one client, every timed run from the same store.

use crate::gen::Model;
use crate::serve::probe_planner;
use crate::stats::{self, Latencies, Metrics};
use crate::trace::{self, Counters, Tracer};
use crate::{Args, Run};
use std::time::{Duration, Instant};
use xmarkgen::{Scale, XmarkGen};
use xqcore::Engine;
use xqdm::{Item, NodeId, Store};

/// The §4.3 Q8 variant: the join of persons and closed auctions, with an
/// insert into `$purchasers` per match inside the inner loop.
pub const Q8_VARIANT: &str = r#"
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return (insert { <buyer person="{$t/buyer/@person}"
                     itemid="{$t/itemref/@item}" /> }
          into { $purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>"#;

/// The same join without updates, so its loop body may run in parallel.
pub const Q8_PURE_VARIANT: &str = r#"
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return $t
return concat(string($p/name), ":", string(count($a)), ":",
              string(count($a/itemref)))"#;

const PERSONS: usize = 1600;
const CLOSED_AUCTIONS: usize = 800;
/// Q8 runs (alternating variants) replayed by the traced run.
const REPLAY: usize = 40;

struct Fixture {
    engine: Engine,
    /// The store every timed run starts from.
    base: Store,
    purchasers: NodeId,
    update_expected: String,
    pure_expected: String,
    nodes: usize,
    setup_s: f64,
}

impl Fixture {
    fn setup(seed: u64, threads: usize) -> Result<Fixture, String> {
        let started = Instant::now();
        let mut engine = Engine::new();
        engine.set_threads(threads);
        let xml = XmarkGen::new(seed)
            .generate_xml(&Scale::join_sides(PERSONS, CLOSED_AUCTIONS))
            .map_err(|e| format!("generate: {e}"))?;
        let doc = engine
            .load_document("auction", &xml)
            .map_err(|e| format!("load: {e}"))?;
        let holder = engine
            .load_document("purchasers_doc", "<purchasers/>")
            .map_err(|e| format!("load: {e}"))?;
        let purchasers = *engine
            .store
            .children(holder)
            .map_err(|e| e.to_string())?
            .first()
            .ok_or("no purchasers element")?;
        engine.bind("purchasers", vec![Item::Node(purchasers)].into());
        let load_s = started.elapsed().as_secs_f64();

        let model = Model::from_store(&engine.store, doc)?;
        let update_expected = model
            .persons
            .iter()
            .map(|p| format!("<item person=\"{}\">{}</item>", p.name, p.bought))
            .collect::<Vec<_>>()
            .join(" ");
        let pure_expected = model
            .persons
            .iter()
            .map(|p| format!("{}:{}:{}", p.name, p.bought, p.bought_itemrefs))
            .collect::<Vec<_>>()
            .join(" ");
        let nodes = engine.store.len();
        let base = engine.store.snapshot();
        let mut f = Fixture {
            engine,
            base,
            purchasers,
            update_expected,
            pure_expected,
            nodes,
            setup_s: 0.0,
        };
        // Warm both plans.
        let started = Instant::now();
        for update in [true, false] {
            let (_, ok) = f.timed_run(update);
            if !ok {
                return Err("warm-up Q8 answer wrong".into());
            }
        }
        f.setup_s = load_s + started.elapsed().as_secs_f64();
        Ok(f)
    }

    fn text(update: bool) -> &'static str {
        if update {
            Q8_VARIANT
        } else {
            Q8_PURE_VARIANT
        }
    }

    /// Put the base store back (untimed).
    fn restore(&mut self) {
        self.engine.store = self.base.snapshot();
    }

    /// Is the answer right, and did `$purchasers` grow by one buyer per
    /// matched closed auction (the update variant) or not at all?
    fn check(&self, update: bool, body: &str) -> bool {
        let expected = if update {
            &self.update_expected
        } else {
            &self.pure_expected
        };
        let growth = self
            .engine
            .store
            .children(self.purchasers)
            .map_or(usize::MAX, <[NodeId]>::len);
        body == expected && growth == if update { CLOSED_AUCTIONS } else { 0 }
    }

    /// One run from the base store: (nanoseconds, correct).
    fn timed_run(&mut self, update: bool) -> (u64, bool) {
        self.restore();
        let t = Instant::now();
        let body = self
            .engine
            .run(Fixture::text(update))
            .map_err(|e| e.to_string())
            .and_then(|v| self.engine.serialize(&v).map_err(|e| e.to_string()));
        let ns = stats::ns_since(t);
        let ok = body.is_ok_and(|b| self.check(update, &b));
        (ns, ok)
    }
}

pub fn run(args: &Args, metrics: &mut Metrics, run: &mut Run) -> Result<(), String> {
    let threads = run.conditions.nproc;
    let mut f = Fixture::setup(args.seed, threads)?;
    let mut setups = vec![f.setup_s];
    while setups.len() < args.setups() {
        // Drop the previous set-up first, so set-ups never overlap.
        drop(f);
        f = Fixture::setup(args.seed, threads)?;
        setups.push(f.setup_s);
    }
    run.conditions.store_nodes = f.nodes;
    run.conditions.sync_mode = "none (in-memory)";

    let mut update = Latencies::default();
    let mut pure = Latencies::default();
    let run_for = Duration::from_secs(args.seconds);
    let began = Instant::now();
    let mut i = 0u64;
    while began.elapsed() < run_for {
        let is_update = i.is_multiple_of(2);
        i += 1;
        let (ns, ok) = f.timed_run(is_update);
        let at = stats::ns_since(began);
        let class = if is_update { &mut update } else { &mut pure };
        run.attempted += 1;
        if ok {
            class.ok(at, ns);
            run.completed += 1;
        } else {
            class.failed(at);
            run.wrong += 1;
        }
    }
    run.failed = run.attempted - run.completed;
    run.correct = run.wrong == 0;
    // Two distinct texts, each repeated on every run.
    run.conditions.distinct_texts = 2;
    run.conditions.repeated_text_share = ratio(run.attempted.saturating_sub(2), run.attempted);
    let run_ns = run_for.as_nanos() as u64;
    let mut all = Latencies::default();
    all.extend(&update);
    all.extend(&pure);
    run.samples.push(("q8_update", update.count()));
    run.samples.push(("q8_pure", pure.count()));
    if args.trace {
        metrics.put("read_p99_us", pure.quantile_us(0.99, run_ns));
        metrics.put("request_p95_us", all.quantile_us(0.95, run_ns));
        metrics.put("write_p50_us", update.quantile_us(0.50, run_ns));
        metrics.put("write_p95_us", update.quantile_us(0.95, run_ns));
        metrics.put("q8_p50_ms", update.quantile_us(0.50, run_ns) / 1e3);
        metrics.put("q8_p95_ms", update.quantile_us(0.95, run_ns) / 1e3);
        metrics.put("q8_pure_p50_ms", pure.quantile_us(0.50, run_ns) / 1e3);
        let failed = ratio(run.failed, run.attempted);
        metrics.put("failed_ratio", failed);
        metrics.put("failed.wrong_ratio", failed);
        metrics.put(
            "xqsyn.repeat_text_ratio",
            run.conditions.repeated_text_share,
        );
        let (hits, misses) = f.engine.plan_cache_stats();
        metrics.put("planner.cache_hit_ratio", ratio(hits, hits + misses));
        replay(&mut f, metrics, run);
    } else {
        metrics.put("setup_s", stats::median(&setups));
        metrics.put("read_p50_us", pure.windowed_quantile_us(0.50, run_ns));
        metrics.put("throughput_qps", all.windowed_rate(run_ns));
        metrics.put("peak_rss_mib", stats::peak_rss_mib());
    }
    run.setups = setups;
    Ok(())
}

fn ratio(a: u64, b: u64) -> f64 {
    stats::ratio(a as f64, b as f64)
}

/// The traced run: the same alternating runs, each once untraced through
/// `Engine::run` (the overhead baseline) and once with a span around each
/// layer's call, in lockstep so that drift stays out of the overhead.
fn replay(f: &mut Fixture, metrics: &mut Metrics, run: &mut Run) {
    let mut baseline_ns = 0u64;
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    for i in 0..REPLAY {
        let update = i.is_multiple_of(2);
        baseline_ns += f.timed_run(update).0;
        f.restore();
        c.requests += 1;
        c.writes += u64::from(update);
        let rid = i as u32 + 1;
        let root = tr.begin(rid, 0, "request", "request");
        let e = &mut f.engine;
        let program = tr.span(rid, root, "xqsyn", "compile", || {
            e.compile(Fixture::text(update))
        });
        let Ok(program) = program else {
            tr.end(root);
            c.failed += 1;
            continue;
        };
        let misses = e.plan_cache_stats().1;
        let run_span = tr.begin(rid, root, "engine", "run");
        let value = e.run_program(&program);
        tr.end(run_span);
        let body = tr.span(rid, root, "engine", "serialize", || match &value {
            Ok(v) => e.serialize(v).map_err(|x| x.to_string()),
            Err(x) => Err(x.to_string()),
        });
        tr.end(root);
        let missed = e.plan_cache_stats().1 > misses;
        probe_planner(
            &mut tr,
            rid,
            run_span,
            &program,
            missed,
            e.store.index_enabled(),
        );
        c.note_run(e, value.as_ref().map_or(0, |v| v.len()));
        if !body.is_ok_and(|b| f.check(update, &b)) {
            c.wrong += 1;
        }
    }
    run.attempted += c.requests;
    run.failed += c.failed + c.wrong;
    if c.failed + c.wrong > 0 {
        run.correct = false;
    }
    trace::report(&tr, &c, baseline_ns as f64 / REPLAY as f64 / 1e3, metrics);
    run.spans = Some(tr);
}
