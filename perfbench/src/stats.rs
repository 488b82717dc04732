//! Percentiles, process facts and the JSON output.

use std::fmt::Write as _;

/// Sub-windows a run is split into. Quantiles and rates are taken per
/// window and reported as the median over windows, so a burst of
/// interference from outside the benchmark moves one window, not the
/// result.
pub const WINDOWS: u64 = 5;

/// Latency samples of one request class, each with the time since the
/// start of the run at which it completed. A failed request counts as
/// missing every latency limit: it ranks above every success, and a
/// quantile that lands on one reads as the whole run's length.
#[derive(Default)]
pub struct Latencies {
    /// (completed at, latency); latency `u64::MAX` marks a failure.
    samples: Vec<(u64, u64)>,
}

impl Latencies {
    pub fn ok(&mut self, at_ns: u64, ns: u64) {
        self.samples.push((at_ns, ns));
    }

    pub fn failed(&mut self, at_ns: u64) {
        self.samples.push((at_ns, u64::MAX));
    }

    pub fn extend(&mut self, other: &Latencies) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Attempts (successes plus failures).
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    fn window(at_ns: u64, run_ns: u64) -> u64 {
        (at_ns.saturating_mul(WINDOWS) / run_ns.max(1)).min(WINDOWS - 1)
    }

    /// Nearest-rank `q`-quantile in µs of the samples in `window` (all
    /// samples with `None`); 0 without samples.
    fn quantile_in(&self, q: f64, run_ns: u64, window: Option<u64>) -> f64 {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|(at, _)| window.is_none_or(|w| Latencies::window(*at, run_ns) == w))
            .map(|(_, ns)| *ns)
            .collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
        let ns = if v[rank] == u64::MAX { run_ns } else { v[rank] };
        ns as f64 / 1e3
    }

    /// The `q`-quantile in µs over the whole run of `run_ns`.
    pub fn quantile_us(&self, q: f64, run_ns: u64) -> f64 {
        self.quantile_in(q, run_ns, None)
    }

    /// The median over windows of each window's `q`-quantile, in µs.
    pub fn windowed_quantile_us(&self, q: f64, run_ns: u64) -> f64 {
        let per: Vec<f64> = (0..WINDOWS)
            .map(|w| self.quantile_in(q, run_ns, Some(w)))
            .collect();
        median(&per)
    }

    /// The median over windows of each window's successes per second,
    /// measured between the window's first and last completion.
    pub fn windowed_rate(&self, run_ns: u64) -> f64 {
        let mut ok: Vec<Vec<u64>> = vec![Vec::new(); WINDOWS as usize];
        for (at, ns) in &self.samples {
            if *ns != u64::MAX {
                ok[Latencies::window(*at, run_ns) as usize].push(*at);
            }
        }
        let per: Vec<f64> = ok
            .iter()
            .map(|at| match (at.iter().min(), at.iter().max()) {
                (Some(first), Some(last)) if last > first => {
                    (at.len() - 1) as f64 / ((last - first) as f64 / 1e9)
                }
                _ => 0.0,
            })
            .collect();
        median(&per)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ns_since(t: std::time::Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, read from `.git` when the
/// checkout has one.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == r).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Measured metric values by name.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _)| n.as_str())
    }
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
