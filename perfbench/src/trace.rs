//! In-memory spans for the traced replay, and the per-layer self-time
//! table computed from them.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! They stay in memory until the run ends and are then written out as
//! JSON lines.

use crate::stats::{ratio, Metrics};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;
use xqcore::Engine;

/// The layers spans are attributed to, named after the repo's modules.
pub const LAYERS: [&str; 7] = [
    "server", "xqsyn", "planner", "engine", "apply", "xqdm", "wal",
];

pub struct Span {
    pub id: u32,
    /// 0 for a request span.
    pub parent: u32,
    pub request: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Measured by calling the same public function again outside the
    /// request (the engine performs the call internally, where the
    /// benchmark cannot time it). Excluded from the request's span cover.
    pub probe: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; returns its id.
    pub fn begin(
        &mut self,
        request: u32,
        parent: u32,
        layer: &'static str,
        name: &'static str,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            request,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            probe: false,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &mut self,
        request: u32,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(request, parent, layer, name);
        let r = f();
        self.end(id);
        r
    }

    /// Record a span whose duration was measured elsewhere: a registry
    /// delta placed at the start of its parent (`probe = false`), or a
    /// repeated call outside the request (`probe = true`).
    pub fn record(
        &mut self,
        request: u32,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        dur_ns: u64,
        probe: bool,
    ) {
        let start_ns = self.spans[parent as usize - 1].start_ns;
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            layer,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            probe,
        });
    }

    /// Mean duration in µs of the spans named `name`, per span.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, sum) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, sum), s| (n + 1, sum + s.dur_ns()));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        }
    }

    /// Per-request breakdown: each layer's self time, the request time no
    /// span covers, and the mean request time — all in µs per request.
    ///
    /// A span's self time is its duration minus its children's. Probe
    /// spans sit outside the request's wall time, so their time is taken
    /// out of their parent's self time and given to their own layer.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut layer_ns: HashMap<&str, i64> = HashMap::new();
        let (mut requests, mut request_ns, mut unaccounted_ns) = (0u64, 0u64, 0i64);
        for s in &self.spans {
            let children = child_ns.get(&s.id).copied().unwrap_or(0) as i64;
            let own = s.dur_ns() as i64 - children;
            if s.parent == 0 {
                requests += 1;
                request_ns += s.dur_ns();
                unaccounted_ns += own;
            } else {
                *layer_ns.entry(s.layer).or_default() += own;
            }
        }
        let per = |ns: i64| {
            if requests == 0 {
                0.0
            } else {
                ns as f64 / requests as f64 / 1e3
            }
        };
        SelfTimes {
            layers: LAYERS
                .iter()
                .map(|l| (*l, per(layer_ns.get(l).copied().unwrap_or(0))))
                .collect(),
            unaccounted_us: per(unaccounted_ns),
            request_us: per(request_ns as i64),
        }
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"probe\":{}}}",
                s.id, s.parent, s.request, s.layer, s.name, s.start_ns, s.end_ns, s.probe
            );
        }
        out
    }
}

pub struct SelfTimes {
    pub layers: Vec<(&'static str, f64)>,
    pub unaccounted_us: f64,
    pub request_us: f64,
}

/// Per-request counters the replay adds up.
#[derive(Default)]
pub struct Counters {
    pub requests: u64,
    pub writes: u64,
    pub failed: u64,
    pub wrong: u64,
    result_items: u64,
    exec_ns: u64,
    batch_nodes: u64,
    idx_scans: u64,
    par_regions: u64,
    par_items: u64,
    requests_applied: u64,
}

impl Counters {
    pub fn note_run(&mut self, e: &Engine, items: usize) {
        self.result_items += items as u64;
        self.exec_ns += e.last_run_ns().unwrap_or(0);
        if let Some(s) = e.last_stats() {
            self.batch_nodes += s.batch_nodes;
            self.idx_scans += s.idx_scans;
            self.par_regions += s.par_regions;
            self.par_items += s.par_items;
            self.requests_applied += s.requests_applied;
        }
    }
}

/// Per-layer metrics of a traced replay.
pub fn report(tr: &Tracer, c: &Counters, baseline_us: f64, metrics: &mut Metrics) {
    let per_request = |v: u64| ratio(v as f64, c.requests as f64);
    let run_us = tr.mean_us("run");
    let exec_us = ratio(c.exec_ns as f64 / 1e3, c.requests as f64);
    metrics.put("xqsyn.compile_us", tr.mean_us("compile"));
    metrics.put("planner.key_us", tr.mean_us("key"));
    metrics.put("planner.plan_us", tr.mean_us("plan"));
    metrics.put("engine.run_us", run_us);
    metrics.put("engine.exec_us", exec_us);
    metrics.put("engine.overhead_us", run_us - exec_us);
    metrics.put("engine.serialize_us", tr.mean_us("serialize"));
    metrics.put(
        "xqalg.nodes_per_result",
        ratio(c.batch_nodes as f64, c.result_items as f64),
    );
    metrics.put("xqalg.idx_scans", per_request(c.idx_scans));
    metrics.put("par.regions", per_request(c.par_regions));
    metrics.put("par.items", per_request(c.par_items));
    metrics.put(
        "apply.requests",
        ratio(c.requests_applied as f64, c.writes as f64),
    );
    metrics.put("apply.rebase_us", tr.mean_us("apply_captured"));
    metrics.put("xqdm.snapshot_us", tr.mean_us("snapshot"));
    metrics.put("xqdm.fork_us", tr.mean_us("fork"));
    metrics.put("xqdm.fingerprint_us", tr.mean_us("fingerprint"));
    let table = tr.self_times();
    for (layer, us) in &table.layers {
        metrics.put(&format!("{layer}.self_us"), *us);
    }
    metrics.put("trace.request_us", table.request_us);
    metrics.put("trace.unaccounted_us", table.unaccounted_us);
    metrics.put("trace.baseline_us", baseline_us);
    metrics.put(
        "trace.overhead_pct",
        100.0 * ratio(table.request_us - baseline_us, baseline_us),
    );
    metrics.put("trace.spans", tr.spans.len() as f64);
}
