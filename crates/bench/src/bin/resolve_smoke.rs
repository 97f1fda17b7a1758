//! Paper-scale resolve smoke gate: batched RGDB lookups under a wall
//! budget.
//!
//! The paper's core workload is millions of IP→location lookups across
//! four vendor databases (§5). This binary reproduces that shape in
//! isolation: it synthesizes four vendor-style databases as RGDB images
//! (ascending answer intervals over fixed-width records), opens them
//! zero-copy, and resolves a full interface address set through
//! `ResolvedView::build_with` — the path the analyses use: each shard
//! sorts its slice once into a `SortedBatch`, every reader locates the
//! batch's record ids with one cursor sweep over its image's interval
//! section and the shard reads them back to input order, and the fold
//! decodes each distinct record once per view, with the maps at most
//! sixteen shards ahead of it. It prints one JSON report to
//! stdout (CI redirects it into `target/ci-artifacts/`) and, when
//! `--budget-ms` is given, exits non-zero if the resolve stage alone
//! exceeded the budget. The
//! report carries `lookup_ns_per_addr` so `cargo xtask resolve-check`
//! can ratio-gate per-lookup cost against the blessed baseline. It
//! also carries `view_digest`, an FNV-1a over the whole view, which the
//! check requires to equal the baseline's, as it does `hits` and
//! `interned`: so the view's bytes are pinned at paper scale, where the
//! resolve folds 92 shards. And it carries `peak_rss_mb`, the process's
//! peak resident set (`VmHWM`) read after the resolve stage, which the
//! check holds under a fixed ceiling over the baseline's.
//!
//! ```text
//! usage: resolve_smoke [--budget-ms N]
//! environment:
//!   ROUTERGEO_SCALE       = tiny | small | tenth | paper (default: paper)
//!   ROUTERGEO_SEED        = u64 (default 20170301)
//!   ROUTERGEO_THREADS     = worker threads for the resolve stage
//!   ROUTERGEO_SMOKE_ADDRS = override the probe-address count (debug aid
//!                           for bisecting wall-time blowups at scale)
//! ```
//!
//! Everything is a pure function of `(seed, scale)` — the synthesized
//! prefixes, records, and probe addresses are identical across runs and
//! machines; only the wall-clock numbers differ.

#![expect(
    clippy::disallowed_macros,
    reason = "a binary entry point reports CLI diagnostics on stderr"
)]

use routergeo_bench::timing::StageClock;
use routergeo_bench::StageTiming;
use routergeo_core::ResolvedView;
use routergeo_db::compact::FnvBuildHasher;
use routergeo_db::record::{Granularity, LocationRecord};
use routergeo_db::rgdb2::{self, Rgdb2Reader};
use routergeo_geo::{Coordinate, CountryCode};
use routergeo_net::Prefix;
use routergeo_pool::{splitmix64, Pool};
use routergeo_world::Scale;
use std::hash::{BuildHasher, Hasher};
use std::net::Ipv4Addr;

/// Vendor database names, mirroring the paper's four commercial
/// sources.
const VENDORS: [&str; 4] = ["vendor-a", "vendor-b", "vendor-c", "vendor-d"];

/// Interface addresses resolved at `Scale::Paper` (~the paper's 1.64 M
/// Ark interface set); other scales shrink linearly with the factor.
const PAPER_ADDRESSES: u64 = 1_500_000;

/// /24 prefix rows per vendor database at `Scale::Paper` (inside the
/// 10.0.0.0/8 block the probe addresses are drawn from).
const PAPER_PREFIXES: u64 = 60_000;

/// Country pool for synthesized vendor rows.
const COUNTRIES: [&str; 8] = ["US", "DE", "FR", "JP", "BR", "GB", "NL", "AU"];

/// The vendor-`v` record for prefix row `i`. String cardinality is
/// capped (`% 4096`) so the interner dedups like a real vendor file;
/// coordinates sit on the micro-degree grid so RGDB quantization is
/// exact.
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
    #[allow(clippy::cast_precision_loss, reason = "|micro| <= 360e6: exact in f64")]
    let coord = Coordinate::new(lat_micro as f64 / 1e6, lon_micro as f64 / 1e6)
        .expect("grid stays inside coordinate bounds");
    LocationRecord {
        country: Some(country),
        region: if !h.is_multiple_of(5) {
            Some(format!("Region-{}", splitmix64(h, 3) % 512))
        } else {
            None
        },
        city: if !h.is_multiple_of(3) {
            Some(format!("City-{}", splitmix64(h, 4) % 4096))
        } else {
            None
        },
        coord: Some(coord),
        granularity,
    }
}

/// Synthesize vendor `v` as `(prefix, record)` rows: `prefixes` /24
/// blocks tiled over 10.0.0.0/8, with per-vendor coverage gaps (every
/// seventh row, phase-shifted by vendor) so the four databases disagree
/// on coverage the way Table 1 reports.
fn vendor_rows(seed: u64, v: usize, prefixes: u64) -> Vec<(Prefix, LocationRecord)> {
    let mut rows = Vec::with_capacity(usize::try_from(prefixes).unwrap_or(0));
    for i in 0..prefixes.min(1 << 16) {
        if (i + v as u64).is_multiple_of(7) {
            continue; // this vendor does not cover the block
        }
        let base = 0x0A00_0000u32 | (u32::try_from(i).unwrap_or(0) << 8);
        let prefix = Prefix::new(Ipv4Addr::from(base), 24).expect("aligned /24 inside 10/8");
        rows.push((prefix, vendor_record(seed, v, i)));
    }
    rows
}

/// The probe address set: mostly inside the vendors' 10.0.0.0/8 tiling
/// (hits), with a uniform tail that mostly misses — the same hit/miss
/// mix the analyses see.
fn probe_addresses(seed: u64, count: u64, prefixes: u64) -> Vec<Ipv4Addr> {
    let span = prefixes.min(1 << 16);
    let mut out = Vec::with_capacity(usize::try_from(count).unwrap_or(0));
    for k in 0..count {
        let h = splitmix64(seed ^ 0x5EED_ADD2, k);
        let ip = if h % 100 < 85 {
            // Inside a tiled /24: block index then host byte.
            let block = u32::try_from(splitmix64(h, 1) % span.max(1)).unwrap_or(0);
            0x0A00_0000u32 | (block << 8) | u32::try_from(h >> 32 & 0xFF).unwrap_or(0)
        } else {
            u32::try_from(splitmix64(h, 2) & 0xFFFF_FFFF).unwrap_or(0)
        };
        out.push(Ipv4Addr::from(ip));
    }
    out
}

/// An order-sensitive FNV-1a digest of everything a view holds: the
/// database names, the interner's strings in id order, and every
/// cell's country, region and city ids, coordinate bits and
/// granularity, column by column. Two views digest equal only if they
/// answer alike *and* assign the same interner ids.
fn view_digest(view: &ResolvedView) -> u64 {
    let mut h = FnvBuildHasher.build_hasher();
    let strings = (0u32..).map_while(|id| view.interner().resolve(id));
    for s in view.databases().iter().map(String::as_str).chain(strings) {
        h.write(s.as_bytes());
        h.write_u8(0xFF);
    }
    let id = |v: Option<u32>| v.map_or(u64::MAX, u64::from);
    for cell in (0..view.db_count()).flat_map(|d| view.column(d)) {
        let Some(r) = cell else {
            h.write_u8(0);
            continue;
        };
        let cc = r.country.map_or(0, |c| {
            c.as_str().bytes().fold(1, |a, b| a << 8 | u64::from(b))
        });
        let [lat, lon] = r.coord.map_or([u64::MAX; 2], |c| c.to_bits());
        let gran = u64::from(r.granularity.id());
        for v in [cc, id(r.region_id), id(r.city_id), lat, lon, gran] {
            h.write(&v.to_le_bytes());
        }
    }
    h.finish()
}

/// Peak resident set of this process (`VmHWM` in `/proc/self/status`),
/// in MiB; `None` where the kernel does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn main() {
    let mut budget_ms: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => budget_ms = Some(ms),
                None => {
                    eprintln!("--budget-ms requires an integer argument");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!("usage: resolve_smoke [--budget-ms N]");
                std::process::exit(2);
            }
        }
    }

    let scale = Scale::from_env(Scale::Paper);
    let seed = env_u64("ROUTERGEO_SEED", 20_170_301);
    let factor = u64::from(scale.factor());
    let addresses = env_u64(
        "ROUTERGEO_SMOKE_ADDRS",
        (PAPER_ADDRESSES * factor / 900).max(1_000),
    );
    let prefixes = (PAPER_PREFIXES * factor / 900).max(256);
    let pool = Pool::from_env();

    let mut stages: Vec<StageTiming> = Vec::new();

    let clock = StageClock::start("synth");
    let vendor_sets: Vec<Vec<(Prefix, LocationRecord)>> = (0..VENDORS.len())
        .map(|v| vendor_rows(seed, v, prefixes))
        .collect();
    let ips = probe_addresses(seed, addresses, prefixes);
    let rows: usize = vendor_sets.iter().map(Vec::len).sum();
    clock.finish(&mut stages, rows + ips.len());

    let clock = StageClock::start("write");
    let images: Vec<bytes::Bytes> = vendor_sets
        .iter()
        .zip(VENDORS)
        .map(|(rows, name)| rgdb2::write_v21(name, rows.iter().map(|(p, r)| (*p, r))))
        .collect();
    let image_bytes: usize = images.iter().map(bytes::Bytes::len).sum();
    clock.finish(&mut stages, image_bytes);
    // Nothing reads the rows once they are images: free them, so the
    // peak resident set the memory gate reads is the images, the probes
    // and the view.
    drop(vendor_sets);

    let clock = StageClock::start("open");
    let readers: Vec<Rgdb2Reader> = images
        .into_iter()
        .map(|img| Rgdb2Reader::open(img).expect("the writer's own image validates"))
        .collect();
    clock.finish(&mut stages, readers.len());

    let clock = StageClock::start("resolve");
    let view = ResolvedView::build_with(&readers, &ips, &pool);
    clock.finish(&mut stages, view.len() * view.db_count());
    let peak_rss = peak_rss_mb();

    let hits: usize = (0..view.db_count())
        .map(|d| view.column(d).iter().filter(|r| r.is_some()).count())
        .sum();
    let resolve_ms = stages
        .iter()
        .find(|s| s.stage == "resolve")
        .map_or(0.0, |s| s.wall_ms);
    let within = budget_ms.is_none_or(|b| resolve_ms <= b as f64);
    let lookups = view.len() * view.db_count();
    #[allow(
        clippy::cast_precision_loss,
        reason = "lookup counts sit far below 2^52"
    )]
    let lookup_ns_per_addr = if lookups == 0 {
        0.0
    } else {
        resolve_ms * 1e6 / lookups as f64
    };

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        format!("{scale:?}").to_lowercase()
    ));
    out.push_str(&format!("  \"threads\": {},\n", pool.threads()));
    out.push_str(&format!("  \"databases\": {},\n", VENDORS.len()));
    out.push_str(&format!("  \"addresses\": {},\n", ips.len()));
    out.push_str(&format!(
        "  \"lookups\": {},\n",
        view.len() * view.db_count()
    ));
    out.push_str(&format!("  \"hits\": {hits},\n"));
    out.push_str(&format!("  \"interned\": {},\n", view.interner().len()));
    out.push_str(&format!(
        "  \"view_digest\": \"{:016x}\",\n",
        view_digest(&view)
    ));
    out.push_str(&format!("  \"resolve_wall_ms\": {resolve_ms:.3},\n"));
    out.push_str(&format!(
        "  \"lookup_ns_per_addr\": {lookup_ns_per_addr:.3},\n"
    ));
    out.push_str(&format!(
        "  \"peak_rss_mb\": {},\n",
        peak_rss.map_or("null".to_string(), |mb| format!("{mb:.1}"))
    ));
    out.push_str(&format!(
        "  \"budget_ms\": {},\n",
        budget_ms.map_or("null".to_string(), |b| b.to_string())
    ));
    out.push_str(&format!("  \"within_budget\": {within},\n"));
    out.push_str("  \"stages\": [\n");
    for (i, s) in stages.iter().enumerate() {
        let comma = if i + 1 < stages.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"stage\": \"{}\", \"wall_ms\": {:.3}, \"items\": {}, \"items_per_sec\": {:.1}}}{}\n",
            s.stage,
            s.wall_ms,
            s.items,
            s.items_per_sec(),
            comma
        ));
    }
    out.push_str("  ]\n}\n");
    print!("{out}");

    if !within {
        eprintln!(
            "resolve smoke: {resolve_ms:.1} ms over the {} ms budget",
            budget_ms.unwrap_or(0)
        );
        std::process::exit(1);
    }
}
