//! The XQuery! benchmark: three workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a traced replay. See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Run files (the result
//! with its conditions, and the spans of a traced run) go to `.bench_out/`
//! in the working directory; durable stores live in `.bench_tmp/` while
//! the run lasts.

mod gen;
mod q8;
mod serve;
mod stats;
mod trace;

use stats::{quote, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["serve_read", "serve_write", "xmark_q8"];

/// End-to-end metrics (`--trace 0`), with units; as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units; as in `BENCHMARK.json`.
/// A metric a workload has no instance of (no writes on `serve_read`, no
/// server on `xmark_q8`) reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("read_p99_us", "us"),
    ("request_p95_us", "us"),
    ("write_p50_us", "us"),
    ("write_p95_us", "us"),
    ("q8_p50_ms", "ms"),
    ("q8_p95_ms", "ms"),
    ("q8_pure_p50_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("failed.XQB0050_ratio", "ratio"),
    ("failed.XQB0051_ratio", "ratio"),
    ("failed.XQB0052_ratio", "ratio"),
    ("failed.other_ratio", "ratio"),
    ("failed.wrong_ratio", "ratio"),
    ("xqsyn.compile_us", "us"),
    ("xqsyn.repeat_text_ratio", "ratio"),
    ("planner.key_us", "us"),
    ("planner.plan_us", "us"),
    ("planner.cache_hit_ratio", "ratio"),
    ("engine.run_us", "us"),
    ("engine.exec_us", "us"),
    ("engine.overhead_us", "us"),
    ("engine.serialize_us", "us"),
    ("xqalg.nodes_per_result", "count"),
    ("xqalg.idx_scans", "count"),
    ("par.regions", "count"),
    ("par.items", "count"),
    ("apply.requests", "count"),
    ("apply.rebase_us", "us"),
    ("xqdm.snapshot_us", "us"),
    ("xqdm.fork_us", "us"),
    ("xqdm.fingerprint_us", "us"),
    ("wal.commit_us", "us"),
    ("wal.bytes_per_commit", "B"),
    ("wal.fsyncs_per_commit", "count"),
    ("server.conflicts_per_write", "count"),
    ("server.retries_per_write", "count"),
    ("server.commit_yield", "ratio"),
    ("server.versions_retained", "count"),
    ("server.commit_log_bytes", "B"),
    ("server.self_us", "us"),
    ("xqsyn.self_us", "us"),
    ("planner.self_us", "us"),
    ("engine.self_us", "us"),
    ("apply.self_us", "us"),
    ("xqdm.self_us", "us"),
    ("wal.self_us", "us"),
    ("trace.request_us", "us"),
    ("trace.unaccounted_us", "us"),
    ("trace.baseline_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Set-ups per run: `setup_s` is the median of several; a traced run
    /// does not report it and sets up once.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            7
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The conditions every result records.
pub struct Conditions {
    pub nproc: usize,
    pub sync_mode: &'static str,
    pub store_nodes: usize,
    pub distinct_texts: usize,
    pub repeated_text_share: f64,
}

/// What a workload run reports back.
pub struct Run {
    pub correct: bool,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Answers that came back but were wrong (counted in `failed`).
    pub wrong: u64,
    pub conditions: Conditions,
    /// Attempts per timed request class.
    pub samples: Vec<(&'static str, usize)>,
    pub setups: Vec<f64>,
    pub spans: Option<trace::Tracer>,
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn conditions_json(args: &Args, run: &Run) -> String {
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("XQB_"))
        .map(|(k, v)| format!("{}: {}", quote(&k), quote(&v)))
        .collect();
    let samples: Vec<String> = run
        .samples
        .iter()
        .map(|(k, n)| format!("{}: {n}", quote(k)))
        .collect();
    let setups: Vec<String> = run.setups.iter().map(|s| format!("{s:?}")).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"git_rev\": {}, \"sync_mode\": {}, \"store_nodes\": {}, \"distinct_texts\": {}, \
         \"repeated_text_share\": {:?}, \"samples\": {{{}}}, \"setups_s\": [{}], \
         \"xqb_env\": {{{}}}}}",
        quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.conditions.nproc,
        quote(&stats::git_rev()),
        quote(run.conditions.sync_mode),
        run.conditions.store_nodes,
        run.conditions.distinct_texts,
        run.conditions.repeated_text_share,
        samples.join(", "),
        setups.join(", "),
        env.join(", "),
    )
}

/// The reported metrics in table order, with their units: exactly the
/// table's names.
fn finish_metrics(
    args: &Args,
    measured: &Metrics,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(name) = measured
        .names()
        .find(|m| !table.iter().any(|(n, _)| n == m))
    {
        return Err(format!("metric {name} is not in the table"));
    }
    table
        .iter()
        .map(|&(name, unit)| match measured.get(name) {
            Some(v) => Ok((name, v, unit)),
            None if args.trace => Ok((name, 0.0, unit)),
            None => Err(format!("end-to-end metric {name} was not measured")),
        })
        .collect()
}

/// `{"name": {"value": v, "unit": "u"}, ...}`; a non-finite value becomes
/// 0 so the line stays valid JSON.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_out(dir: &Path, name: &str, text: &str) {
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), text))
    {
        eprintln!("cannot write {}: {e}", dir.join(name).display());
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    xqalg::install();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = Scratch(PathBuf::from(".bench_tmp").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("scratch directory: {e}"))?;
    let mut run = Run {
        correct: true,
        attempted: 0,
        completed: 0,
        failed: 0,
        wrong: 0,
        conditions: Conditions {
            nproc,
            sync_mode: "",
            store_nodes: 0,
            distinct_texts: 0,
            repeated_text_share: 0.0,
        },
        samples: Vec::new(),
        setups: Vec::new(),
        spans: None,
    };
    let mut measured = Metrics::default();
    match args.workload.as_str() {
        "serve_read" => serve::run(
            &serve::Workload { write: false },
            &args,
            &scratch.0,
            &mut measured,
            &mut run,
        )?,
        "serve_write" => serve::run(
            &serve::Workload { write: true },
            &args,
            &scratch.0,
            &mut measured,
            &mut run,
        )?,
        _ => q8::run(&args, &mut measured, &mut run)?,
    }
    drop(scratch);
    let metrics = finish_metrics(&args, &measured)?;

    let conditions = conditions_json(&args, &run);
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let out = Path::new(".bench_out");
    if let Some(tr) = &run.spans {
        write_out(out, &format!("{tag}.spans.jsonl"), &tr.to_jsonl());
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct,
        run.attempted.max(1),
        run.failed,
        metrics_json(&metrics)
    );
    write_out(
        out,
        &format!("{tag}.json"),
        &format!("{{\"conditions\": {conditions}, \"result\": {result}}}\n"),
    );
    println!("conditions {conditions}");
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.3} {unit}");
    }
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xqperf: {e}");
            ExitCode::FAILURE
        }
    }
}
