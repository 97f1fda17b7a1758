//! The routergeo benchmark: three workloads, each measured end to end
//! in its own process, plus a traced run that times every layer from
//! outside by wrapping calls into the workspace's public functions.
//!
//! * [`tables`] — `tables_tenth`: the §5 pass behind
//!   `repro table1 coverage consistency fig2` over a tenth-scale lab.
//! * [`resolve`] — `resolve_paper`: the paper-size bulk resolve over
//!   four RGDB v2.1 vendor images.
//! * [`serve`] — `serve_zipf_swap`: the lookup daemon under a Zipf
//!   traffic mix, depth 1 and depth 32, with hot swaps between windows.
//!
//! Every workload prints the same end-to-end metric set
//! ([`END_TO_END`]) untraced and the same per-layer set ([`PER_LAYER`])
//! traced; a layer a workload never enters reads 0. See `README.md`.

pub mod resolve;
pub mod serve;
pub mod tables;
pub mod timed;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_ms", "ms"),
    ("lookups_per_s", "lookups/s"),
    ("lookup_p90_us", "us"),
    ("swap_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("lab.world_ms", "ms"),
    ("lab.topology_ms", "ms"),
    ("lab.ark_ms", "ms"),
    ("lab.atlas_rtt_ms", "ms"),
    ("lab.ground_truth_ms", "ms"),
    ("lab.vendor_dbs_ms", "ms"),
    ("lab.other_ms", "ms"),
    ("db.inmem.lookup_batch_ms", "ms"),
    ("db.inmem.lookups", "count"),
    ("db.inmem.hit_ratio", "ratio"),
    ("core.resolve_self_ms", "ms"),
    ("core.interned", "count"),
    ("core.interner_refs", "count"),
    ("core.table1_ms", "ms"),
    ("core.coverage_ms", "ms"),
    ("core.consistency_ms", "ms"),
    ("core.accuracy_ms", "ms"),
    ("experiments.render_ms", "ms"),
    ("db.rgdb2.write_v21_ms", "ms"),
    ("db.rgdb2.open_ms", "ms"),
    ("db.rgdb2.image_bytes", "bytes"),
    ("db.rgdb2.lookup_batch_ns", "ns"),
    ("db.rgdb2.lookup_batch_calls", "count"),
    ("db.rgdb2.hit_ratio", "ratio"),
    ("db.rgdb2.try_lookup_ns", "ns"),
    ("pool.threads", "count"),
    ("pool.shards", "count"),
    ("serve.protocol.parse_request_ns", "ns"),
    ("serve.protocol.encode_response_ns", "ns"),
    ("serve.protocol.frame_ns", "ns"),
    ("serve.protocol.client_ns", "ns"),
    ("obs.registry_ns", "ns"),
    ("serve.socket_us", "us"),
    ("serve.lookup_p50_us", "us"),
    ("serve.lookup_p99_us", "us"),
    ("serve.zipf_p50_us", "us"),
    ("serve.cold_p50_us", "us"),
    ("serve.daemon.requests", "count"),
    ("serve.daemon.served", "count"),
    ("serve.daemon.malformed", "count"),
    ("serve.daemon.hits", "count"),
    ("serve.daemon.misses", "count"),
    ("serve.daemon.shed", "count"),
    ("serve.daemon.errors", "count"),
    ("serve.daemon.swaps", "count"),
    ("serve.swap.open_ms", "ms"),
    ("serve.swap.drain_polls", "count"),
    ("serve.swap.rest_ms", "ms"),
    ("trace.pass_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.violations", "count"),
    ("trace.proof_mismatches", "count"),
];

/// Input size: the benchmark's own (`Full`) or the self-tests' (`Tiny`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the workloads are defined at.
    Full,
    /// Small inputs for the benchmark's self-tests.
    Tiny,
}

/// A deliberately wrong answer, for proving that the checks catch one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault.
    None,
    /// One database answer is altered (tables, resolve).
    AlterRecord,
    /// The daemon serves the generation the client does not expect.
    WrongGeneration,
}

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phases run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its JSONL spans.
    pub trace_out: Option<PathBuf>,
    /// Input size.
    pub size: Size,
    /// Injected fault (self-tests only).
    pub fault: Fault,
}

impl Opts {
    /// Untraced options at the full size.
    pub fn new(seed: u64, seconds: f64) -> Opts {
        Opts {
            seed,
            seconds,
            trace: false,
            trace_out: None,
            size: Size::Full,
            fault: Fault::None,
        }
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose answers were checked.
    pub attempted: u64,
    /// Operations with a wrong, missing, refused or error answer.
    pub failed: u64,
    /// Descriptions of the first failures, for stderr.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Descriptive input facts, printed to stderr only.
    pub facts: Vec<(String, String)>,
}

impl Report {
    /// Record `n` checked operations of which `bad` failed, with a
    /// description kept for the first few failures.
    pub fn check(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            if self.problems.len() < 20 {
                self.problems.push(format!("{bad} of {n}: {}", what()));
            }
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Note an input fact.
    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// The metric set this run prints.
    pub fn metric_set(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Whether the run is correct: no failed operation, at least one
    /// attempted, and every printed value a finite number.
    pub fn correct(&self, trace: bool) -> bool {
        self.failed == 0
            && self.attempted > 0
            && Report::metric_set(trace)
                .iter()
                .all(|(name, _)| self.values.get(name).copied().unwrap_or(0.0).is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of the run's set (a layer this workload never enters
    /// reads 0).
    pub fn json(&self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in Report::metric_set(trace).iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(trace),
            self.attempted,
            self.failed
        )
    }

    /// A human-readable summary for stderr.
    pub fn summary(&self, workload: &str, trace: bool) -> String {
        let mut out = format!(
            "{workload}: correct={} attempted={} failed={}\n",
            self.correct(trace),
            self.attempted,
            self.failed
        );
        for (k, v) in &self.facts {
            let _ = writeln!(out, "  input {k} = {v}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "  FAILED {p}");
        }
        for (name, unit) in Report::metric_set(trace) {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(out, "  {name:<36} {v:>16.4} {unit}");
        }
        out
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation between closest
/// ranks (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The quantile every end-to-end timing reports. The shared host runs
/// this box at two speeds, for seconds at a time, about 1.5x apart, and
/// the share of each varies from run to run: a median flips between
/// them, while the 90th percentile lands in the slower state, which every
/// run spends at least a tenth of its time in.
pub const TAIL: f64 = 0.9;

/// Round trips in a histogram of 1 ns bins up to 100 µs (one overflow
/// bin above): quantiles are exact to the clock's nanosecond, and the
/// 400 KB of bins are all written up front, so the resident set does not
/// depend on where the samples fall or how many there are.
#[derive(Debug)]
pub struct Latencies {
    bins: Vec<u32>,
    count: u64,
}

impl Latencies {
    const BINS: usize = 100_000;

    /// An empty histogram.
    pub fn new() -> Latencies {
        Latencies {
            bins: (0..=Latencies::BINS).map(|_| 0).collect(),
            count: 0,
        }
    }

    /// Add one round trip.
    pub fn push(&mut self, d: Duration) {
        let ns = usize::try_from(d.as_nanos()).unwrap_or(usize::MAX);
        self.bins[ns.min(Latencies::BINS)] += 1;
        self.count += 1;
    }

    /// Round trips added.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The nearest-rank `q` quantile, in microseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (ns, &n) in self.bins.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return ns as f64 / 1e3;
            }
        }
        0.0
    }
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies::new()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A traced run's epilogue: write the JSONL trace, verify it with the
/// same checker as `cargo xtask obs-check`, and report its size.
pub fn finish_trace(opts: &Opts, report: &mut Report) {
    let text = routergeo_obs::render_jsonl();
    if let Some(path) = &opts.trace_out {
        if let Err(err) = std::fs::write(path, &text) {
            report.check(1, 1, || {
                format!("cannot write trace {}: {err}", path.display())
            });
        }
    }
    match routergeo_obs::check::parse(&text) {
        Ok(parsed) => {
            let violations = routergeo_obs::check::verify(&parsed);
            report.set("trace.spans", parsed.spans.len() as f64);
            report.set("trace.violations", violations.len() as f64);
            report.check(1, violations.len() as u64, || {
                format!("trace violates obs-check: {}", violations.join("; "))
            });
        }
        Err(err) => report.check(1, 1, || format!("trace does not parse: {err}")),
    }
}

/// Run `f` inside a span named `name` (recorded only while tracing is
/// on) and return its result with its wall time in milliseconds.
pub fn timed_span<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = routergeo_obs::span(name, Vec::new());
    let t0 = std::time::Instant::now();
    let out = f();
    let elapsed = ms(t0.elapsed());
    drop(span);
    (out, elapsed)
}

/// Total of a program counter (counters accumulate traced or not).
pub fn counter_total(name: &str) -> u64 {
    routergeo_obs::global().counter_total(name)
}
