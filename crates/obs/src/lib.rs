//! `routergeo-obs` — dependency-free structured tracing and metrics.
//!
//! The evaluation pipeline is a long chain of deterministic stages; when
//! a run is slow or a figure denominator looks off, the question is
//! always "where did the time go and what was dropped". This crate
//! answers it without a profiler and without external dependencies,
//! mirroring how `routergeo-pool` stays std-only:
//!
//! * **Spans** — [`span!`] opens a guard that records wall-clock
//!   start/stop, its parent span, and key-value attributes; one event is
//!   emitted per span *close*.
//! * **Counters / histograms** — [`counter`] and [`histogram`] hand out
//!   lock-sharded handles. Increments land in per-thread shards (no
//!   contention on hot paths) and are **merged in registration order**,
//!   the same shard-order-merge discipline as the pool: because every
//!   metric is registered on the orchestrating thread and only counts
//!   deterministic quantities (items, drops, retries — never wall
//!   time), the rendered metrics section is byte-identical at any
//!   thread count.
//! * **JSONL sink** — [`write_jsonl`] emits one line-oriented JSON
//!   object per span plus a final metrics snapshot and summary, in the
//!   same no-JSON-library format as `BENCH_pipeline.json`, so the
//!   std-only `xtask` parser can replay it.
//! * **Verifier** — [`check`] replays an emitted file and reports
//!   structural invariant violations (unclosed spans, negative
//!   durations, counter identities that disagree); `cargo xtask
//!   obs-check FILE` is a thin wrapper around it.
//!
//! Spans are recorded only while the sink is [`enable`]d (`repro --obs
//! FILE` / `ROUTERGEO_OBS`); counters always accumulate — they are a
//! handful of atomics and their totals feed report cross-checks.

#![deny(clippy::cast_possible_truncation)]

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub mod check;

/// Number of lock/atomic shards. A small power of two: enough that the
/// pool's worker threads rarely collide, small enough that merging is
/// free.
const SHARDS: usize = 16;

/// Number of power-of-two histogram buckets (`u64` value range).
const BUCKETS: usize = 65;

/// Schema tag emitted in the summary line.
pub const SCHEMA: &str = "routergeo-obs-v1";

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned shard only means another thread panicked mid-push;
    // the data is a Vec of finished events and stays usable.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Stable per-thread shard index in `0..SHARDS`.
fn shard_idx() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    IDX.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            c.set(v);
        }
        v
    })
}

thread_local! {
    /// Stack of open span ids on this thread (innermost last).
    static PARENTS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span-close event.
#[derive(Debug, Clone)]
struct SpanEvent {
    id: u64,
    parent: u64,
    name: String,
    start_us: u64,
    dur_us: u64,
    attrs: Vec<(&'static str, String)>,
}

/// Sharded counter cells; the total is the sum over shards, which is
/// deterministic because addition commutes and every increment is an
/// item count, never a measurement.
struct CounterCore {
    cells: [AtomicU64; SHARDS],
}

impl CounterCore {
    fn new() -> Self {
        CounterCore {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn total(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// Sharded log2-bucketed histogram (value `v` lands in bucket
/// `bit_width(v)`, so bucket 0 holds zeros and bucket `b` holds
/// `[2^(b-1), 2^b)`).
struct HistogramCore {
    cells: Vec<AtomicU64>, // SHARDS * BUCKETS, shard-major
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            cells: (0..SHARDS * BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    fn bucket_totals(&self) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for b in 0..BUCKETS {
            let total: u64 = (0..SHARDS)
                .map(|s| self.cells[s * BUCKETS + b].load(Ordering::Relaxed))
                .sum();
            if total > 0 {
                out.push((b, total));
            }
        }
        out
    }
}

/// Handle to a registered counter. Cloning is cheap; [`Counter::add`]
/// touches one atomic in the caller's shard.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.core.cells[shard_idx()].fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total across shards.
    pub fn total(&self) -> u64 {
        self.core.total()
    }
}

/// Handle to a registered histogram of `u64` values in log2 buckets.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Record one value.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of the value `v`: the buckets `n` calls of
    /// [`Histogram::record`] would leave, in one atomic add.
    pub fn record_n(&self, v: u64, n: u64) {
        let b = HistogramCore::bucket_of(v);
        self.core.cells[shard_idx() * BUCKETS + b].fetch_add(n, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.core
            .cells
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

enum Metric {
    Counter(Arc<CounterCore>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Default)]
struct Registry {
    /// Registration order — the merge/render order. All registration
    /// happens on the orchestrating thread (stage entry, before any
    /// parallel fan-out), so this order is identical at every thread
    /// count.
    order: Vec<(String, Metric)>,
    index: HashMap<String, usize>,
}

/// One tracing/metrics domain. The process-wide instance behind the
/// free functions is [`global`]; tests build isolated instances.
pub struct Obs {
    enabled: AtomicBool,
    epoch: Instant,
    next_span: AtomicU64,
    spans_opened: AtomicU64,
    spans_closed: AtomicU64,
    span_shards: Vec<Mutex<Vec<SpanEvent>>>,
    registry: Mutex<Registry>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A fresh, disabled instance with an empty registry.
    #[expect(
        clippy::disallowed_methods,
        reason = "the observability layer owns wall-clock reads"
    )]
    pub fn new() -> Self {
        Obs {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            spans_opened: AtomicU64::new(0),
            spans_closed: AtomicU64::new(0),
            span_shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            registry: Mutex::new(Registry::default()),
        }
    }

    /// Whether span recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn span recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Open a span; the returned guard records a close event when
    /// dropped. The parent is the innermost open span on this thread.
    pub fn span(&'static self, name: &str, attrs: Vec<(&'static str, String)>) -> SpanGuard {
        let parent = PARENTS.with(|s| s.borrow().last().copied().unwrap_or(0));
        self.span_under(parent, name, attrs)
    }

    /// Open a span under an explicit parent id — for work handed to
    /// another thread (e.g. pool shards), where the thread-local parent
    /// stack of the spawning thread is out of reach.
    #[expect(
        clippy::disallowed_methods,
        reason = "the observability layer owns wall-clock reads"
    )]
    pub fn span_under(
        &'static self,
        parent: u64,
        name: &str,
        attrs: Vec<(&'static str, String)>,
    ) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard::disabled();
        }
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        self.spans_opened.fetch_add(1, Ordering::Relaxed);
        PARENTS.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            obs: Some(self),
            id,
            parent,
            name: name.to_string(),
            start: Instant::now(),
            start_us: us_u64(self.epoch.elapsed().as_micros()),
            attrs,
        }
    }

    /// Id of the innermost open span on this thread (0 = root).
    pub fn current_span(&self) -> u64 {
        PARENTS.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Look up or register a counter. Looking up an existing name of a
    /// different metric kind yields a detached handle that renders
    /// nowhere (the alternative is a panic in the middle of a run).
    pub fn counter(&self, name: &str) -> Counter {
        let mut reg = lock(&self.registry);
        if let Some(&i) = reg.index.get(name) {
            if let Metric::Counter(core) = &reg.order[i].1 {
                return Counter { core: core.clone() };
            }
            return Counter {
                core: Arc::new(CounterCore::new()),
            };
        }
        let core = Arc::new(CounterCore::new());
        let i = reg.order.len();
        reg.order
            .push((name.to_string(), Metric::Counter(core.clone())));
        reg.index.insert(name.to_string(), i);
        Counter { core }
    }

    /// Look up or register a histogram; same kind-mismatch contract as
    /// [`Obs::counter`].
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut reg = lock(&self.registry);
        if let Some(&i) = reg.index.get(name) {
            if let Metric::Histogram(core) = &reg.order[i].1 {
                return Histogram { core: core.clone() };
            }
            return Histogram {
                core: Arc::new(HistogramCore::new()),
            };
        }
        let core = Arc::new(HistogramCore::new());
        let i = reg.order.len();
        reg.order
            .push((name.to_string(), Metric::Histogram(core.clone())));
        reg.index.insert(name.to_string(), i);
        Histogram { core }
    }

    /// Total of a counter by name, 0 when unregistered. For report
    /// cross-checks and tests.
    pub fn counter_total(&self, name: &str) -> u64 {
        let reg = lock(&self.registry);
        match reg.index.get(name).map(|&i| &reg.order[i].1) {
            Some(Metric::Counter(core)) => core.total(),
            _ => 0,
        }
    }

    /// Render the trace as JSONL: span events (by id), then the metrics
    /// snapshot in registration order, then one summary line. The
    /// metrics section is byte-identical at any thread count; span
    /// lines carry wall-clock measurements and are not.
    pub fn render_jsonl(&self) -> String {
        let mut spans: Vec<SpanEvent> = Vec::new();
        for shard in &self.span_shards {
            spans.extend(lock(shard).iter().cloned());
        }
        spans.sort_by_key(|e| e.id);

        let mut out = String::new();
        for e in &spans {
            let mut attrs = String::new();
            for (i, (k, v)) in e.attrs.iter().enumerate() {
                if i > 0 {
                    attrs.push(' ');
                }
                let _ = write!(attrs, "{k}={v}");
            }
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"attrs\":\"{}\"}}",
                e.id,
                e.parent,
                escape(&e.name),
                e.start_us,
                e.dur_us,
                escape(&attrs),
            );
        }

        let reg = lock(&self.registry);
        let mut counters = 0usize;
        let mut histograms = 0usize;
        for (name, metric) in &reg.order {
            match metric {
                Metric::Counter(core) => {
                    counters += 1;
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"counter\",\"name\":\"{}\",\"total\":{}}}",
                        escape(name),
                        core.total()
                    );
                }
                Metric::Histogram(core) => {
                    histograms += 1;
                    let buckets = core.bucket_totals();
                    let count: u64 = buckets.iter().map(|(_, c)| c).sum();
                    let mut spec = String::new();
                    for (i, (b, c)) in buckets.iter().enumerate() {
                        if i > 0 {
                            spec.push(' ');
                        }
                        let _ = write!(spec, "{b}:{c}");
                    }
                    let _ = writeln!(
                        out,
                        "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"buckets\":\"{}\"}}",
                        escape(name),
                        count,
                        spec
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"summary\",\"schema\":\"{}\",\"spans_opened\":{},\"spans_closed\":{},\"counters\":{},\"histograms\":{}}}",
            SCHEMA,
            self.spans_opened.load(Ordering::Relaxed),
            self.spans_closed.load(Ordering::Relaxed),
            counters,
            histograms,
        );
        out
    }

    /// Render only the metrics + summary section (the deterministic
    /// part) — what the thread-count determinism test compares.
    pub fn render_metrics(&self) -> String {
        self.render_jsonl()
            .lines()
            .filter(|l| !l.starts_with("{\"type\":\"span\""))
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            })
    }

    fn record_close(&self, event: SpanEvent) {
        self.spans_closed.fetch_add(1, Ordering::Relaxed);
        lock(&self.span_shards[shard_idx()]).push(event);
    }
}

/// Guard for an open span; dropping it records the close event.
/// Obtained via [`span!`], [`fn@span`], or [`span_under`].
pub struct SpanGuard {
    obs: Option<&'static Obs>,
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
    start_us: u64,
    attrs: Vec<(&'static str, String)>,
}

impl SpanGuard {
    /// A no-op guard (recording disabled).
    #[expect(
        clippy::disallowed_methods,
        reason = "the observability layer owns wall-clock reads"
    )]
    pub fn disabled() -> Self {
        SpanGuard {
            obs: None,
            id: 0,
            parent: 0,
            name: String::new(),
            start: Instant::now(),
            start_us: 0,
            attrs: Vec::new(),
        }
    }

    /// The span id (0 when disabled) — pass to [`span_under`] for work
    /// that crosses threads.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach an attribute after opening (e.g. a result count).
    pub fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if self.obs.is_some() {
            self.attrs.push((key, value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(obs) = self.obs else {
            return;
        };
        PARENTS.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        obs.record_close(SpanEvent {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            dur_us: us_u64(self.start.elapsed().as_micros()),
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

fn us_u64(us: u128) -> u64 {
    u64::try_from(us).unwrap_or(u64::MAX)
}

/// Monotonic stopwatch for queue-wait style measurements that feed span
/// attributes. Lives here so instrumented crates never need their own
/// `Instant::now()` (`clippy.toml` disallows ad-hoc timing in them).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

/// Start a stopwatch.
#[expect(
    clippy::disallowed_methods,
    reason = "the observability layer owns wall-clock reads"
)]
pub fn stopwatch() -> Stopwatch {
    Stopwatch {
        start: Instant::now(),
    }
}

impl Stopwatch {
    /// Microseconds elapsed since the stopwatch started.
    pub fn elapsed_us(&self) -> u64 {
        us_u64(self.start.elapsed().as_micros())
    }
}

/// Escape a string for a JSON double-quoted literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The process-wide instance used by the free functions and [`span!`].
pub fn global() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(Obs::new)
}

/// Whether the global sink records spans.
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Enable span recording on the global sink.
pub fn enable() {
    global().enable();
}

/// Open a span on the global sink (see [`Obs::span`]).
pub fn span(name: &str, attrs: Vec<(&'static str, String)>) -> SpanGuard {
    global().span(name, attrs)
}

/// Open a span under an explicit parent (see [`Obs::span_under`]).
pub fn span_under(parent: u64, name: &str, attrs: Vec<(&'static str, String)>) -> SpanGuard {
    global().span_under(parent, name, attrs)
}

/// Innermost open span id on this thread (global sink).
pub fn current_span() -> u64 {
    global().current_span()
}

/// Look up or register a global counter.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Look up or register a global histogram.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Render the global trace (see [`Obs::render_jsonl`]).
pub fn render_jsonl() -> String {
    global().render_jsonl()
}

/// Write the global trace to `path`.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, render_jsonl())
}

/// Open a span on the global sink with `key = value` attributes:
///
/// ```
/// let _g = routergeo_obs::span!("stage.demo", items = 3);
/// ```
///
/// Attribute expressions are only evaluated (and formatted) when the
/// sink is enabled, so instrumentation is free on ordinary runs.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name, Vec::new())
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::span(
                $name,
                vec![$((stringify!($k), format!("{}", $v))),+],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> &'static Obs {
        Box::leak(Box::new(Obs::new()))
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let obs = fresh();
        {
            let _g = obs.span("quiet", Vec::new());
        }
        assert_eq!(obs.spans_opened.load(Ordering::Relaxed), 0);
        assert!(!obs.render_jsonl().contains("\"type\":\"span\""));
    }

    #[test]
    fn span_nesting_records_parents() {
        let obs = fresh();
        obs.enable();
        {
            let outer = obs.span("outer", Vec::new());
            assert_eq!(obs.current_span(), outer.id());
            let inner = obs.span("inner", vec![("k", "v".to_string())]);
            assert_eq!(inner.parent, outer.id());
        }
        let text = obs.render_jsonl();
        let spans: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"span\""))
            .collect();
        assert_eq!(spans.len(), 2);
        // Inner closes first but sorting by id restores open order.
        assert!(spans[0].contains("\"name\":\"outer\""));
        assert!(spans[1].contains("\"name\":\"inner\""));
        assert!(spans[1].contains("\"attrs\":\"k=v\""));
        assert_eq!(obs.current_span(), 0);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let obs = fresh();
        obs.enable();
        let parent_id;
        {
            let parent = obs.span("driver", Vec::new());
            parent_id = parent.id();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let child = obs.span_under(parent_id, "worker", Vec::new());
                    assert_eq!(child.parent, parent_id);
                });
            });
        }
        let report = check::parse(&obs.render_jsonl()).expect("well-formed");
        assert!(check::verify(&report).is_empty());
    }

    #[test]
    fn counters_merge_across_threads() {
        let obs = fresh();
        let c = obs.counter("test.items");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || c.add(25));
            }
        });
        assert_eq!(obs.counter_total("test.items"), 100);
        // Same handle back on lookup.
        obs.counter("test.items").incr();
        assert_eq!(c.total(), 101);
    }

    #[test]
    fn metrics_render_in_registration_order() {
        let obs = fresh();
        obs.counter("z.last").add(1);
        obs.counter("a.first").add(2);
        obs.histogram("m.hist").record(5);
        let text = obs.render_metrics();
        let z = text.find("z.last").expect("z.last rendered");
        let a = text.find("a.first").expect("a.first rendered");
        let m = text.find("m.hist").expect("m.hist rendered");
        assert!(z < a && a < m, "registration order, not name order");
        assert!(text.ends_with("\"histograms\":1}\n"));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let obs = fresh();
        let h = obs.histogram("h");
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        let text = obs.render_jsonl();
        // 0→b0, 1→b1, {2,3}→b2, 4→b3, 1024→b11.
        assert!(text.contains("\"buckets\":\"0:1 1:1 2:2 3:1 11:1\""));
    }

    #[test]
    fn record_n_equals_n_records() {
        let (one, many) = (fresh(), fresh());
        let (h1, hn) = (one.histogram("h"), many.histogram("h"));
        for (v, n) in [(0, 3), (7, 1), (1024, 5), (5, 0), (6, 2), (u64::MAX, 4)] {
            for _ in 0..n {
                h1.record(v);
            }
            hn.record_n(v, n);
        }
        assert_eq!(hn.count(), 15);
        assert_eq!(one.render_jsonl(), many.render_jsonl());
        assert!(many
            .render_jsonl()
            .contains("\"buckets\":\"0:3 3:3 11:5 64:4\""));
    }

    #[test]
    fn kind_mismatch_yields_detached_handle() {
        let obs = fresh();
        obs.counter("dual").add(7);
        let h = obs.histogram("dual");
        h.record(3);
        assert_eq!(obs.counter_total("dual"), 7);
        assert!(!obs.render_jsonl().contains("\"type\":\"histogram\""));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn rendered_trace_passes_check() {
        let obs = fresh();
        obs.enable();
        {
            let _g = obs.span("stage.demo", vec![("items", "3".to_string())]);
            obs.counter("cdf.samples_in").add(10);
            obs.counter("cdf.dropped_nan").add(1);
            obs.counter("cdf.samples_kept").add(9);
        }
        let report = check::parse(&obs.render_jsonl()).expect("well-formed");
        assert!(check::verify(&report).is_empty());
    }
}
