//! `tables_tenth`: the §5 pass that `repro table1 coverage consistency
//! fig2` runs, over `repro`'s default tenth-scale lab.
//!
//! Set-up is `Lab::build_timed` at pool width 1, repeated; a pass is
//! `experiments::table1`, `ark_view`, `ark_coverage_from`,
//! `ark_consistency_from`, `gt_view` and `gt_accuracy_from`, with every
//! table rendered. Checks: every pass renders the same bytes and builds
//! the same two views as the first pass and as a pass at width 2.

use crate::timed::{BatchClock, BatchTotals, Timed};
use crate::{counter_total, median, ms, peak_rss_mb, quantile, timed_span, TAIL};
use crate::{Fault, Opts, Report, Size};
use routergeo_bench::lab::StageTiming;
use routergeo_bench::{experiments as exp, Lab, LabConfig};
use routergeo_core::ResolvedView;
use routergeo_db::inmem::InMemoryDbBuilder;
use routergeo_db::synth::{build_vendor_with, SignalWorld, VendorProfile};
use routergeo_db::{GeoDatabase, InMemoryDb};
use routergeo_pool::Pool;
use routergeo_world::Scale;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Lab stages reported as `lab.<stage>_ms`, in pipeline order.
const STAGES: [(&str, &str); 6] = [
    ("world", "lab.world_ms"),
    ("topology", "lab.topology_ms"),
    ("ark", "lab.ark_ms"),
    ("atlas_rtt", "lab.atlas_rtt_ms"),
    ("ground_truth", "lab.ground_truth_ms"),
    ("vendor_dbs", "lab.vendor_dbs_ms"),
];

/// Passes between two timed vendor releases (`swap_ms`).
const SWAP_EVERY: usize = 8;

/// The lab configuration: `repro`'s default scale, pool width 1.
pub fn lab_config(seed: u64, size: Size) -> LabConfig {
    let scale = match size {
        Size::Full => Scale::Tenth,
        Size::Tiny => Scale::Tiny,
    };
    let mut config = LabConfig::new(seed, scale);
    config.threads = Some(1);
    config
}

/// What one pass produced: the rendered tables and the two views.
struct PassOut {
    text: String,
    ark: ResolvedView,
    gt: ResolvedView,
}

impl PassOut {
    fn same_as(&self, other: &PassOut) -> bool {
        self.text == other.text && self.ark == other.ark && self.gt == other.gt
    }
}

fn render(
    out: &mut String,
    t1: &routergeo_core::report::TextTable,
    tables: &[&[routergeo_core::report::TextTable]],
) {
    out.push_str(&t1.render());
    for t in tables.iter().flat_map(|ts| ts.iter()) {
        out.push_str(&t.render());
    }
}

/// One untraced pass, exactly as `repro` calls the experiments.
fn pass(lab: &Lab) -> PassOut {
    let (_, _, t1) = exp::table1(lab);
    let ark = exp::ark_view(lab);
    let (_, coverage) = exp::ark_coverage_from(&ark);
    let (_, consistency) = exp::ark_consistency_from(&ark);
    let gt = exp::gt_view(lab);
    let (_, accuracy) = exp::gt_accuracy_from(lab, &gt);
    let mut text = String::new();
    render(
        &mut text,
        &t1,
        &[std::slice::from_ref(&coverage), &consistency, &accuracy],
    );
    PassOut { text, ark, gt }
}

/// Layer times of one traced pass, in milliseconds.
#[derive(Default)]
struct Parts {
    total: f64,
    table1: f64,
    ark_view: f64,
    coverage: f64,
    consistency: f64,
    gt_view: f64,
    accuracy: f64,
    batch: BatchTotals,
    refs: u64,
    shards: u64,
}

/// One traced pass: the same calls, with the views built through
/// [`Timed`] wrappers so `lookup_batch` is timed per call.
fn traced_pass(lab: &Lab, n: usize, clock: &BatchClock) -> (PassOut, Parts) {
    let dbs: Vec<Timed<&InMemoryDb>> = lab.dbs.iter().map(|d| Timed::new(d, clock)).collect();
    let batch0 = clock.totals();
    let refs0 = counter_total("resolve.interner_refs");
    let shards0 = counter_total("pool.shards_run");
    let mut parts = Parts::default();
    let t0 = Instant::now();
    let span = routergeo_obs::span!("bench.pass", workload = "tables_tenth", pass = n);
    let ((_, _, t1), ms1) = timed_span("bench.table1", || exp::table1(lab));
    let (ark, ms2) = timed_span("bench.ark_view", || {
        ResolvedView::build_with(&dbs, &lab.ark.interfaces, &lab.pool)
    });
    let ((_, coverage), ms3) = timed_span("bench.coverage", || exp::ark_coverage_from(&ark));
    let ((_, consistency), ms4) =
        timed_span("bench.consistency", || exp::ark_consistency_from(&ark));
    let (gt, ms5) = timed_span("bench.gt_view", || {
        let ips: Vec<Ipv4Addr> = lab.gt.entries.iter().map(|e| e.ip).collect();
        ResolvedView::build_with(&dbs, &ips, &lab.pool)
    });
    let ((_, accuracy), ms6) = timed_span("bench.accuracy", || exp::gt_accuracy_from(lab, &gt));
    let (text, _) = timed_span("bench.render", || {
        let mut text = String::new();
        render(
            &mut text,
            &t1,
            &[std::slice::from_ref(&coverage), &consistency, &accuracy],
        );
        text
    });
    drop(span);
    parts.total = ms(t0.elapsed());
    (parts.table1, parts.ark_view, parts.coverage) = (ms1, ms2, ms3);
    (parts.consistency, parts.gt_view, parts.accuracy) = (ms4, ms5, ms6);
    parts.batch = clock.totals().since(batch0);
    parts.refs = counter_total("resolve.interner_refs") - refs0;
    parts.shards = counter_total("pool.shards_run") - shards0;
    (PassOut { text, ark, gt }, parts)
}

/// Bring a fresh release of the four vendor databases into service —
/// the calls of the lab's `vendor_dbs` stage, timed on their own — and
/// check it against the lab's databases.
fn swap(lab: &Lab, report: &mut Report) -> f64 {
    let signals = SignalWorld::new(&lab.world);
    let t0 = Instant::now();
    let dbs: Vec<InMemoryDb> = VendorProfile::all_presets()
        .iter()
        .map(|p| build_vendor_with(&signals, p, &lab.pool))
        .collect();
    let elapsed = ms(t0.elapsed());
    let same = dbs.len() == lab.dbs.len()
        && (dbs.iter().zip(&lab.dbs)).all(|(a, b)| a.name() == b.name() && a.iter().eq(b.iter()));
    report.check(1, u64::from(!same), || {
        "a rebuilt vendor release differs from the lab's".to_string()
    });
    elapsed
}

/// A copy of `db` whose record covering `target` lost its country: the
/// injected wrong answer of the self-tests.
fn altered_copy(db: &InMemoryDb, target: Ipv4Addr) -> InMemoryDb {
    let mut b = InMemoryDbBuilder::new(db.name());
    for (start, end, rec) in db.iter() {
        let mut rec = rec.clone();
        if start <= target && target <= end {
            rec.country = None;
        }
        b.push_range(start, end, rec);
    }
    b.build()
        .expect("a copy of a valid database has no overlaps")
}

/// Run `tables_tenth`.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let setups = match opts.size {
        Size::Full => 5,
        Size::Tiny => 2,
    };

    // Set-up: repeated Lab builds; setup_s is their median.
    let mut setup_s = Vec::new();
    let mut stage_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut lab: Option<Lab> = None;
    for _ in 0..setups {
        drop(lab.take());
        let t0 = Instant::now();
        let (built, stages): (Lab, Vec<StageTiming>) =
            Lab::build_timed(lab_config(opts.seed, opts.size));
        let wall = t0.elapsed();
        setup_s.push(wall.as_secs_f64());
        let staged: f64 = stages.iter().map(|s| s.wall_ms).sum();
        stage_ms
            .entry("other".to_string())
            .or_default()
            .push(ms(wall) - staged);
        for s in stages {
            stage_ms.entry(s.stage).or_default().push(s.wall_ms);
        }
        lab = Some(built);
    }
    let mut lab = lab.expect("at least one set-up ran");
    let stage = |name: &str| median(stage_ms.get(name).map_or(&[][..], Vec::as_slice));
    let addresses = lab.ark.interfaces.len() + lab.gt.entries.len();
    let lookups = (addresses * lab.dbs.len()) as f64;
    report.fact("ark_interfaces", lab.ark.interfaces.len());
    report.fact("gt_addresses", lab.gt.entries.len());
    report.fact("pool_width", lab.pool.threads());

    // The first pass warms the caches and is the reference.
    let reference = pass(&lab);
    if opts.fault == Fault::AlterRecord {
        let target = lab.ark.interfaces[0];
        lab.dbs[0] = altered_copy(&lab.dbs[0], target);
    }

    let budget = Duration::from_secs_f64(opts.seconds);
    let mut times = Vec::new();
    let check = |out: &PassOut, report: &mut Report, n: usize| {
        let bad = u64::from(!out.same_as(&reference));
        report.check(1, bad, || {
            format!("pass {n} differs from the first pass (tables or views)")
        });
    };
    let untraced_budget = if opts.trace { budget / 3 } else { budget };
    let mut swaps = Vec::new();
    let t_run = Instant::now();
    while t_run.elapsed() < untraced_budget || times.len() < 3 {
        let t0 = Instant::now();
        let out = pass(&lab);
        times.push(ms(t0.elapsed()));
        check(&out, &mut report, times.len());
        if !opts.trace && times.len() % SWAP_EVERY == 0 {
            swaps.push(swap(&lab, &mut report));
        }
    }
    if !opts.trace && swaps.is_empty() {
        swaps.push(swap(&lab, &mut report));
    }
    let peak = peak_rss_mb();
    report.fact("pass_ms", format!("{times:.0?}"));

    if opts.trace {
        routergeo_obs::enable();
        // One traced build, so the trace carries the lab's stage spans.
        lab = {
            let _span = routergeo_obs::span!("bench.setup", workload = "tables_tenth");
            Lab::build(lab_config(opts.seed, opts.size))
        };
        let clock = BatchClock::default();
        let mut parts = Vec::new();
        let t_traced = Instant::now();
        while t_traced.elapsed() < budget - untraced_budget || parts.len() < 3 {
            let (out, p) = traced_pass(&lab, parts.len(), &clock);
            if parts.is_empty() {
                // The wrapper must not change an answer: its views equal
                // the ones `experiments::ark_view` / `gt_view` built.
                let bad = u64::from(out.ark != reference.ark || out.gt != reference.gt);
                report.set("trace.proof_mismatches", bad as f64);
                report.check(1, bad, || "timed wrapper changed a view".to_string());
            }
            check(&out, &mut report, times.len() + parts.len());
            parts.push(p);
        }
        let med = |f: &dyn Fn(&Parts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
        for (name, metric) in STAGES {
            report.set(metric, stage(name));
        }
        report.set("lab.other_ms", stage("other"));
        report.set(
            "db.inmem.lookup_batch_ms",
            med(&|p| p.batch.nanos as f64 / 1e6),
        );
        report.set("db.inmem.lookups", med(&|p| p.batch.addrs as f64));
        report.set("db.inmem.hit_ratio", med(&|p| p.batch.hit_ratio()));
        report.set(
            "core.resolve_self_ms",
            med(&|p| p.ark_view + p.gt_view - p.batch.nanos as f64 / 1e6),
        );
        report.set(
            "core.interned",
            (reference.ark.interner().len() + reference.gt.interner().len()) as f64,
        );
        report.set("core.interner_refs", med(&|p| p.refs as f64));
        report.set("core.table1_ms", med(&|p| p.table1));
        report.set("core.coverage_ms", med(&|p| p.coverage));
        report.set("core.consistency_ms", med(&|p| p.consistency));
        report.set("core.accuracy_ms", med(&|p| p.accuracy));
        report.set(
            "experiments.render_ms",
            med(&|p| {
                p.total
                    - (p.table1 + p.ark_view + p.coverage + p.consistency + p.gt_view + p.accuracy)
            }),
        );
        report.set("pool.threads", lab.pool.threads() as f64);
        report.set("pool.shards", med(&|p| p.shards as f64));
        let traced = med(&|p| p.total);
        report.set("trace.pass_ms", traced);
        report.set(
            "trace.overhead_pct",
            (traced / median(&times) - 1.0) * 100.0,
        );
    }

    // A pass at width 2 must render and resolve byte-identically.
    let width1 = std::mem::replace(&mut lab.pool, Pool::new(2));
    let wide = pass(&lab);
    lab.pool = width1;
    let bad = u64::from(!wide.same_as(&reference));
    report.check(1, bad, || {
        "the width-2 pass differs from width 1".to_string()
    });

    if opts.trace {
        crate::finish_trace(opts, &mut report);
    } else {
        let pass_ms = quantile(&times, TAIL);
        report.set("setup_s", median(&setup_s));
        report.set("pass_ms", pass_ms);
        report.set("lookups_per_s", lookups / (pass_ms / 1e3));
        report.set("lookup_p90_us", pass_ms * 1e3);
        report.set("swap_ms", quantile(&swaps, TAIL));
        report.set("peak_rss_mb", peak);
    }
    report
}
