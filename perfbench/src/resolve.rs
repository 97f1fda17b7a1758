//! `resolve_paper`: the paper-size bulk resolve — 1.5 M interface
//! addresses against four vendor databases served from RGDB v2.1
//! images — through `ResolvedView::build_with` at pool width 2.
//!
//! The inputs are `resolve_smoke`'s generator driven by the seed, so at
//! seed 20170301 they are `BENCH_resolve.json`'s. Set-up is synthesis,
//! `rgdb2::write_v21` and `Rgdb2Reader::open`, repeated; a pass is one
//! `build_with`. Check: every pass builds the same view, and that view
//! equals one built over `InMemoryDb`s from the same rows.

use crate::timed::{Altered, BatchClock, BatchTotals, Timed};
use crate::{counter_total, median, ms, peak_rss_mb, quantile, TAIL};
use crate::{Fault, Opts, Report, Size};
use routergeo_core::ResolvedView;
use routergeo_db::inmem::InMemoryDbBuilder;
use routergeo_db::record::{Granularity, LocationRecord};
use routergeo_db::rgdb2::{self, Rgdb2Reader};
use routergeo_db::{GeoDatabase, InMemoryDb};
use routergeo_geo::{Coordinate, CountryCode};
use routergeo_net::Prefix;
use routergeo_pool::{splitmix64, Pool};
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Vendor database names, as `resolve_smoke` writes them.
pub const VENDORS: [&str; 4] = ["vendor-a", "vendor-b", "vendor-c", "vendor-d"];

/// Pool width of every pass: the machine's two CPUs.
pub const WIDTH: usize = 2;

/// Timed re-opens of the four images (`swap_ms`).
const REOPENS: usize = 15;

/// Country pool for synthesized vendor rows.
const COUNTRIES: [&str; 8] = ["US", "DE", "FR", "JP", "BR", "GB", "NL", "AU"];

/// `(addresses, /24 rows per vendor)` at a size: `resolve_smoke`'s
/// paper scale, or its tiny scale.
pub fn shape(size: Size) -> (u64, u64) {
    match size {
        Size::Full => (1_500_000, 60_000),
        Size::Tiny => (1_666, 256),
    }
}

/// The vendor-`v` record for prefix row `i` (`resolve_smoke`'s).
fn vendor_record(seed: u64, v: usize, i: u64) -> LocationRecord {
    let h = splitmix64(seed ^ (v as u64).rotate_left(32), i);
    let country = CountryCode::from_str_exact(COUNTRIES[(h % 8) as usize])
        .expect("pool entries are valid codes");
    let granularity = match h >> 8 & 0x3 {
        0 => Granularity::Aggregate,
        1 => Granularity::Block24,
        _ => Granularity::SubBlock,
    };
    let lat_micro = i64::try_from(splitmix64(h, 1) % 180_000_000).unwrap_or(0) - 90_000_000;
    let lon_micro = i64::try_from(splitmix64(h, 2) % 360_000_000).unwrap_or(0) - 180_000_000;
    let coord = Coordinate::new(lat_micro as f64 / 1e6, lon_micro as f64 / 1e6)
        .expect("grid stays inside coordinate bounds");
    LocationRecord {
        country: Some(country),
        region: (!h.is_multiple_of(5)).then(|| format!("Region-{}", splitmix64(h, 3) % 512)),
        city: (!h.is_multiple_of(3)).then(|| format!("City-{}", splitmix64(h, 4) % 4096)),
        coord: Some(coord),
        granularity,
    }
}

/// Vendor `v` as `(prefix, record)` rows: /24 blocks tiled over
/// 10.0.0.0/8, every seventh row (phase-shifted by vendor) missing.
pub fn vendor_rows(seed: u64, v: usize, prefixes: u64) -> Vec<(Prefix, LocationRecord)> {
    let mut rows = Vec::new();
    for i in 0..prefixes.min(1 << 16) {
        if (i + v as u64).is_multiple_of(7) {
            continue;
        }
        let base = 0x0A00_0000u32 | (u32::try_from(i).unwrap_or(0) << 8);
        let prefix = Prefix::new(Ipv4Addr::from(base), 24).expect("aligned /24 inside 10/8");
        rows.push((prefix, vendor_record(seed, v, i)));
    }
    rows
}

/// The probe addresses: 85% inside the tiled blocks, the rest uniform.
pub fn probe_addresses(seed: u64, count: u64, prefixes: u64) -> Vec<Ipv4Addr> {
    let span = prefixes.min(1 << 16);
    (0..count)
        .map(|k| {
            let h = splitmix64(seed ^ 0x5EED_ADD2, k);
            let ip = if h % 100 < 85 {
                let block = u32::try_from(splitmix64(h, 1) % span.max(1)).unwrap_or(0);
                0x0A00_0000u32 | (block << 8) | u32::try_from(h >> 32 & 0xFF).unwrap_or(0)
            } else {
                u32::try_from(splitmix64(h, 2) & 0xFFFF_FFFF).unwrap_or(0)
            };
            Ipv4Addr::from(ip)
        })
        .collect()
}

/// The generated inputs and their opened images.
pub struct Inputs {
    /// Each vendor's rows.
    pub rows: Vec<Vec<(Prefix, LocationRecord)>>,
    /// The probe addresses.
    pub ips: Vec<Ipv4Addr>,
    /// The v2.1 images, in vendor order.
    pub images: Vec<bytes::Bytes>,
    /// The opened images.
    pub readers: Vec<Rgdb2Reader>,
    /// Milliseconds spent in `write_v21`, all four images.
    pub write_ms: f64,
    /// Milliseconds spent in `Rgdb2Reader::open`, all four images.
    pub open_ms: f64,
    /// Total image bytes.
    pub image_bytes: usize,
}

/// Synthesize, write and open the four vendors (the set-up).
pub fn setup(seed: u64, size: Size) -> Inputs {
    let (addresses, prefixes) = shape(size);
    let rows: Vec<_> = (0..VENDORS.len())
        .map(|v| vendor_rows(seed, v, prefixes))
        .collect();
    let ips = probe_addresses(seed, addresses, prefixes);
    let t0 = Instant::now();
    let images: Vec<bytes::Bytes> = {
        let _span = routergeo_obs::span("bench.write_v21", Vec::new());
        rows.iter()
            .zip(VENDORS)
            .map(|(rows, name)| rgdb2::write_v21(name, rows.iter().map(|(p, r)| (*p, r))))
            .collect()
    };
    let write_ms = ms(t0.elapsed());
    let image_bytes = images.iter().map(bytes::Bytes::len).sum();
    let t0 = Instant::now();
    let readers = {
        let _span = routergeo_obs::span("bench.open", Vec::new());
        (images.iter().cloned())
            .map(|img| Rgdb2Reader::open(img).expect("the writer's own image validates"))
            .collect()
    };
    let open_ms = ms(t0.elapsed());
    Inputs {
        rows,
        ips,
        images,
        readers,
        write_ms,
        open_ms,
        image_bytes,
    }
}

/// The oracle: `InMemoryDb`s holding the same rows.
pub fn oracle(rows: &[Vec<(Prefix, LocationRecord)>]) -> Vec<InMemoryDb> {
    rows.iter()
        .zip(VENDORS)
        .map(|(rows, name)| {
            let mut b = InMemoryDbBuilder::new(name);
            for (p, r) in rows {
                b.push_prefix(*p, r.clone());
            }
            b.build().expect("tiled /24 rows never overlap")
        })
        .collect()
}

/// An order-sensitive 64-bit digest of a view, so a pass can be
/// compared with the last one without keeping both views alive.
fn digest(view: &ResolvedView) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    for name in view.databases() {
        name.bytes().for_each(|b| mix(u64::from(b)));
    }
    for id in 0..view.interner().len() {
        let s = view.interner().resolve(id as u32).unwrap_or("");
        s.bytes().for_each(|b| mix(u64::from(b)));
        mix(0xFF);
    }
    for d in 0..view.db_count() {
        for rec in view.column(d) {
            match rec {
                None => mix(1),
                Some(r) => {
                    let cc = r.country.map_or(0, |c| {
                        c.as_str().bytes().fold(0u64, |a, b| a << 8 | u64::from(b))
                    });
                    mix(2 | cc << 8);
                    mix(r.region_id.map_or(u64::MAX, u64::from));
                    mix(r.city_id.map_or(u64::MAX, u64::from));
                    if let Some(c) = r.coord {
                        mix(c.lat().to_bits());
                        mix(c.lon().to_bits());
                    }
                    mix(r.granularity as u64);
                }
            }
        }
    }
    h
}

/// Answers of `a` that differ from `b`'s. Interner ids must agree too:
/// every backend assigns them in first-seen order.
fn mismatches(a: &ResolvedView, b: &ResolvedView) -> u64 {
    if a.databases() != b.databases() || a.len() != b.len() || a.interner() != b.interner() {
        return (a.len() * a.db_count()).max(1) as u64;
    }
    (0..a.db_count())
        .map(|d| {
            (a.column(d).iter().zip(b.column(d)))
                .filter(|(x, y)| x != y)
                .count() as u64
        })
        .sum()
}

/// Timed passes over `dbs` until `budget` is spent (at least three).
/// Returns pass times (ms), their digests, and the last view.
fn passes<D: GeoDatabase + Sync>(
    dbs: &[D],
    ips: &[Ipv4Addr],
    pool: &Pool,
    budget: Duration,
    mut last: Option<ResolvedView>,
) -> (Vec<f64>, Vec<u64>, ResolvedView) {
    let (mut times, mut digests) = (Vec::new(), Vec::new());
    let t_run = Instant::now();
    while t_run.elapsed() < budget || times.len() < 3 {
        drop(last.take());
        let t0 = Instant::now();
        let view = ResolvedView::build_with(dbs, ips, pool);
        times.push(ms(t0.elapsed()));
        digests.push(digest(&view));
        last = Some(view);
    }
    (times, digests, last.expect("at least one pass ran"))
}

/// One traced pass: its time (ms), its batch calls and its counts.
struct Parts {
    total: f64,
    batch: BatchTotals,
    refs: u64,
    shards: u64,
}

/// What [`measure`] returns.
struct Measured {
    /// Untraced pass times (ms).
    times: Vec<f64>,
    /// Every pass's view digest.
    digests: Vec<u64>,
    /// The last view.
    last: ResolvedView,
    /// Peak RSS after the untraced passes (MiB).
    peak: f64,
}

/// The measured passes over `dbs`: untraced for the whole budget, or
/// for a third of it followed by traced passes through [`Timed`]
/// wrappers.
fn measure<D: GeoDatabase + Sync>(
    opts: &Opts,
    inputs: &Inputs,
    dbs: &[D],
    pool: &Pool,
    report: &mut Report,
) -> Measured {
    let budget = Duration::from_secs_f64(opts.seconds);
    let untraced_budget = if opts.trace { budget / 3 } else { budget };

    // The first pass (up to 1.8x slower) only warms up.
    let warm = ResolvedView::build_with(dbs, &inputs.ips, pool);
    let (times, mut digests, mut last) =
        passes(dbs, &inputs.ips, pool, untraced_budget, Some(warm));
    let peak = peak_rss_mb();
    report.fact("pass_ms", format!("{times:.0?}"));

    if opts.trace {
        routergeo_obs::enable();
        drop(setup(opts.seed, opts.size)); // traced set-up, for its spans
        let clock = BatchClock::default();
        let timed: Vec<Timed<&D>> = dbs.iter().map(|d| Timed::new(d, &clock)).collect();
        let mut parts: Vec<Parts> = Vec::new();
        let mut plain = Some(last);
        let mut traced_last: Option<ResolvedView> = None;
        let t_traced = Instant::now();
        while t_traced.elapsed() < budget - untraced_budget || parts.len() < 3 {
            drop(traced_last.take());
            let (batch0, refs0) = (clock.totals(), counter_total("resolve.interner_refs"));
            let shards0 = counter_total("pool.shards_run");
            let t0 = Instant::now();
            let span =
                routergeo_obs::span!("bench.pass", workload = "resolve_paper", pass = parts.len());
            let view = ResolvedView::build_with(&timed, &inputs.ips, pool);
            drop(span);
            let total = ms(t0.elapsed());
            if let Some(plain) = plain.take() {
                // The wrapper must not change an answer.
                let bad = u64::from(plain != view);
                report.set("trace.proof_mismatches", bad as f64);
                report.check(1, bad, || "timed wrapper changed the view".to_string());
            }
            digests.push(digest(&view));
            parts.push(Parts {
                total,
                batch: clock.totals().since(batch0),
                refs: counter_total("resolve.interner_refs") - refs0,
                shards: counter_total("pool.shards_run") - shards0,
            });
            traced_last = Some(view);
        }
        last = traced_last.expect("at least one traced pass ran");
        let med = |f: &dyn Fn(&Parts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
        report.set("db.rgdb2.image_bytes", inputs.image_bytes as f64);
        report.set(
            "db.rgdb2.lookup_batch_ns",
            med(&|p| p.batch.nanos as f64 / p.batch.addrs.max(1) as f64),
        );
        report.set(
            "db.rgdb2.lookup_batch_calls",
            med(&|p| p.batch.calls as f64),
        );
        report.set("db.rgdb2.hit_ratio", med(&|p| p.batch.hit_ratio()));
        // Batch calls run on WIDTH workers at once: their busy time
        // over WIDTH is their share of the pass's wall time.
        report.set(
            "core.resolve_self_ms",
            med(&|p| p.total - p.batch.nanos as f64 / 1e6 / WIDTH as f64),
        );
        report.set("core.interned", last.interner().len() as f64);
        report.set("core.interner_refs", med(&|p| p.refs as f64));
        report.set("pool.threads", WIDTH as f64);
        report.set("pool.shards", med(&|p| p.shards as f64));
        let traced = med(&|p| p.total);
        report.set("trace.pass_ms", traced);
        report.set(
            "trace.overhead_pct",
            (traced / median(&times) - 1.0) * 100.0,
        );
    }
    Measured {
        times,
        digests,
        last,
        peak,
    }
}

/// Bring the next release of the four databases into service — open
/// and validate their images, as a daemon's swap does — and check it.
fn reopen(inputs: &Inputs, report: &mut Report) -> f64 {
    let t0 = Instant::now();
    let opened: Result<Vec<Rgdb2Reader>, _> = (inputs.images.iter().cloned())
        .map(Rgdb2Reader::open)
        .collect();
    let elapsed = ms(t0.elapsed());
    let same = opened.is_ok_and(|rs| {
        (rs.iter().zip(&inputs.readers)).all(|(a, b)| a.record_count() == b.record_count())
    });
    report.check(1, u64::from(!same), || {
        "an image did not reopen".to_string()
    });
    elapsed
}

/// Run `resolve_paper`.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let setups = match opts.size {
        Size::Full => 5,
        Size::Tiny => 2,
    };
    let mut setup_s = Vec::new();
    let (mut write_ms, mut open_ms) = (Vec::new(), Vec::new());
    let mut inputs = None;
    for _ in 0..setups {
        drop(inputs.take());
        let t0 = Instant::now();
        let made = setup(opts.seed, opts.size);
        setup_s.push(t0.elapsed().as_secs_f64());
        write_ms.push(made.write_ms);
        open_ms.push(made.open_ms);
        inputs = Some(made);
    }
    let inputs = inputs.expect("at least one set-up ran");
    let lookups = (inputs.ips.len() * inputs.readers.len()) as u64;
    report.fact("addresses", inputs.ips.len());
    report.fact("lookups_per_pass", lookups);
    report.fact("image_bytes", inputs.image_bytes);

    let pool = Pool::new(WIDTH);
    let Measured {
        times,
        digests,
        last,
        peak,
    } = if opts.fault == Fault::AlterRecord {
        let dbs: Vec<Altered<&Rgdb2Reader>> = (inputs.readers.iter().enumerate())
            .map(|(i, r)| Altered::new(r, (i == 0).then(|| inputs.ips[0])))
            .collect();
        measure(opts, &inputs, &dbs, &pool, &mut report)
    } else {
        measure(opts, &inputs, &inputs.readers, &pool, &mut report)
    };
    if opts.trace {
        report.set("db.rgdb2.write_v21_ms", median(&write_ms));
        report.set("db.rgdb2.open_ms", median(&open_ms));
    }

    // Every pass must match the last; the last must match the oracle.
    let final_digest = digest(&last);
    for (n, d) in digests.iter().enumerate() {
        let bad = if *d == final_digest { 0 } else { lookups };
        report.check(lookups, bad, || format!("pass {n} built a different view"));
    }
    let oracle_view = ResolvedView::build_with(&oracle(&inputs.rows), &inputs.ips, &pool);
    let bad = mismatches(&last, &oracle_view);
    report.check(0, bad, || {
        "answers differ from the InMemoryDb oracle".to_string()
    });
    let hits: usize = (0..last.db_count())
        .map(|d| last.column(d).iter().filter(|r| r.is_some()).count())
        .sum();
    report.fact("hits", hits);
    report.fact("interned", last.interner().len());

    if opts.trace {
        crate::finish_trace(opts, &mut report);
    } else {
        // After the passes, not between them: the pass time depends on
        // the allocator state the passes leave, and re-opens alter it.
        let swaps: Vec<f64> = (0..REOPENS).map(|_| reopen(&inputs, &mut report)).collect();
        let pass_ms = quantile(&times, TAIL);
        report.set("setup_s", median(&setup_s));
        report.set("pass_ms", pass_ms);
        report.set("lookups_per_s", lookups as f64 / (pass_ms / 1e3));
        report.set("lookup_p90_us", pass_ms * 1e3);
        report.set("swap_ms", quantile(&swaps, TAIL));
        report.set("peak_rss_mb", peak);
    }
    report
}
