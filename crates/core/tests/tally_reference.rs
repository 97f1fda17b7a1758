//! The §5 tallies against their definitions. Consistency keeps Figure 1
//! samples as runs and reuses a row's distances when its coordinates
//! repeat the previous Figure 1 row's; accuracy walks each database
//! once for all its slices and deals sorted errors to them. Both must
//! equal a reference that recomputes every distance per row and per
//! slice, in ground-truth order, and builds each CDF with
//! `EmpiricalCdf::from_iter_lossy`.
//!
//! The databases draw their coordinates from a pool of a few points, so
//! rows repeat coordinates in runs and far apart. Two points share a
//! latitude, and two differ by less than `Coordinate`'s 1e-6 degree
//! quantum, so a reuse check that compares less than the exact bit
//! patterns reuses a wrong distance.

use proptest::prelude::*;
use routergeo_core::accuracy::{evaluate_from_view, VendorAccuracy};
use routergeo_core::consistency::consistency_from_view;
use routergeo_core::groundtruth::{GroundTruth, GtEntry, GtMethod};
use routergeo_core::resolve::ResolvedView;
use routergeo_db::inmem::{InMemoryDb, InMemoryDbBuilder};
use routergeo_db::{GeoDatabase, Granularity, LocationRecord};
use routergeo_geo::{Coordinate, CountryCode, EmpiricalCdf, Rir, CITY_RANGE_KM};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The coordinate pool. The first two share a latitude; the last two
/// are distinct bit patterns that round to the same 1e-6 degrees.
const POINTS: [(f64, f64); 5] = [
    (40.0, -100.0),
    (40.0, -90.0),
    (51.5, 9.5),
    (-33.9, 151.2),
    (-33.899_999_999_7, 151.2),
];

const COUNTRIES: [&str; 3] = ["US", "CA", "DE"];

/// /24 blocks `10.0.0.0/24 ..` the databases answer for.
const BLOCKS: usize = 6;

fn point(k: usize) -> Coordinate {
    let (lat, lon) = POINTS[k];
    Coordinate::new(lat, lon).expect("pool points are valid")
}

fn country(k: usize) -> CountryCode {
    COUNTRIES[k].parse().expect("pool countries are valid")
}

/// One database: per block, a record kind (0 absent, 1 country only,
/// `2 + p` city-level at `POINTS[p]`) and a country.
fn arb_db() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec(
        (0..2 + POINTS.len(), 0..COUNTRIES.len()),
        BLOCKS..BLOCKS + 1,
    )
}

/// A run of consecutive addresses in one block sharing their ground
/// truth: `((block, length), (gt point, gt country), (rir, method,
/// degraded))`, where rir 5 means unknown.
type RunSpec = ((usize, usize), (usize, usize), (usize, usize, bool));

fn arb_run() -> impl Strategy<Value = RunSpec> {
    (
        (0..BLOCKS, 1usize..4),
        (0..POINTS.len(), 0..COUNTRIES.len()),
        (0usize..6, 0usize..2, any::<bool>()),
    )
}

fn build_db(name: &str, blocks: &[(usize, usize)]) -> InMemoryDb {
    let mut b = InMemoryDbBuilder::new(name);
    for (block, &(kind, cc)) in blocks.iter().enumerate() {
        let record = match kind {
            0 => continue,
            1 => LocationRecord::country_level(country(cc), Granularity::Aggregate),
            _ => LocationRecord {
                country: Some(country(cc)),
                region: None,
                city: Some(format!("city-{kind}")),
                coord: Some(point(kind - 2)),
                granularity: Granularity::Block24,
            },
        };
        let prefix = format!("10.0.{block}.0/24").parse().expect("valid prefix");
        b.push_prefix(prefix, record);
    }
    b.build().expect("blocks do not overlap")
}

/// The databases and a ground truth with one entry per address; every
/// address is distinct (the host octet is the row number).
fn scenario(specs: &[Vec<(usize, usize)>], runs: &[RunSpec]) -> (Vec<InMemoryDb>, GroundTruth) {
    let dbs = specs
        .iter()
        .enumerate()
        .map(|(d, blocks)| build_db(&format!("db{d}"), blocks))
        .collect();
    let mut gt = GroundTruth::default();
    for &((block, len), (gt_point, gt_cc), (rir, method, degraded)) in runs {
        for _ in 0..len {
            let host = u8::try_from(gt.entries.len() + 1).expect("under 255 rows");
            let block = u8::try_from(block).expect("few blocks");
            let ip = Ipv4Addr::new(10, 0, block, host);
            gt.entries.push(GtEntry {
                ip,
                coord: point(gt_point),
                country: country(gt_cc),
                rir: Rir::TABLE1_ORDER.get(rir).copied(),
                method: [GtMethod::DnsBased, GtMethod::RttProximity][method],
                domain: None,
            });
            if degraded {
                gt.degraded.push(ip);
            }
        }
    }
    (dbs, gt)
}

/// `ConsistencyReport::pair_distance`'s shape.
type PairCdfs = Vec<((usize, usize), EmpiricalCdf)>;

/// Figure 1 by definition: each row city-level in every database adds
/// one freshly computed distance to every pair. Returns the row count,
/// the pair CDFs and the NaN samples dropped.
fn reference_pairs(dbs: &[InMemoryDb], ips: &[Ipv4Addr]) -> (usize, PairCdfs, usize) {
    let n = dbs.len();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n * n];
    let mut city_in_all = 0;
    for ip in ips {
        let coords: Option<Vec<Coordinate>> = dbs
            .iter()
            .map(|db| {
                db.lookup(*ip)
                    .filter(|r| r.has_city())
                    .and_then(|r| r.coord)
            })
            .collect();
        let Some(coords) = coords else { continue };
        city_in_all += 1;
        for i in 0..n {
            for j in i + 1..n {
                samples[i * n + j].push(coords[i].distance_km(&coords[j]));
            }
        }
    }
    let mut pairs = Vec::new();
    let mut dropped = 0;
    for i in 0..n {
        for j in i + 1..n {
            let (cdf, d) = EmpiricalCdf::from_iter_lossy(std::mem::take(&mut samples[i * n + j]));
            dropped += d;
            pairs.push(((i, j), cdf));
        }
    }
    (city_in_all, pairs, dropped)
}

/// One accuracy slice by definition: walk its entries in ground-truth
/// order, computing every error afresh.
fn reference_slice<'a>(
    db: &InMemoryDb,
    entries: impl Iterator<Item = &'a GtEntry>,
) -> VendorAccuracy {
    let (mut total, mut country_covered, mut country_correct) = (0, 0, 0);
    let (mut city_covered, mut city_correct) = (0, 0);
    let mut errors = Vec::new();
    for e in entries {
        total += 1;
        let Some(rec) = db.lookup(e.ip) else { continue };
        if let Some(cc) = rec.country {
            country_covered += 1;
            if cc == e.country {
                country_correct += 1;
            }
        }
        if let Some(coord) = rec.coord.filter(|_| rec.has_city()) {
            city_covered += 1;
            let d = coord.distance_km(&e.coord);
            if d <= CITY_RANGE_KM {
                city_correct += 1;
            }
            errors.push(d);
        }
    }
    let (error_cdf, dropped_nan) = EmpiricalCdf::from_iter_lossy(errors);
    VendorAccuracy {
        database: db.name().to_string(),
        total,
        country_covered,
        country_correct,
        city_covered,
        city_correct,
        error_cdf,
        dropped_nan,
    }
}

fn bits(cdf: &EmpiricalCdf) -> Vec<u64> {
    cdf.samples().iter().map(|x| x.to_bits()).collect()
}

fn same_cdf(got: &EmpiricalCdf, want: &EmpiricalCdf, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got, want, "{} CDF", what);
    prop_assert_eq!(bits(got), bits(want), "{} CDF bit patterns", what);
    Ok(())
}

fn same_slice(
    got: &VendorAccuracy,
    want: &VendorAccuracy,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got, want, "{}", what);
    same_cdf(&got.error_cdf, &want.error_cdf, what)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn consistency_runs_match_per_row_distances(
        specs in prop::collection::vec(arb_db(), 2..5),
        runs in prop::collection::vec(arb_run(), 1..40),
    ) {
        let (dbs, gt) = scenario(&specs, &runs);
        let ips: Vec<Ipv4Addr> = gt.entries.iter().map(|e| e.ip).collect();
        let report = consistency_from_view(&ResolvedView::build(&dbs, &ips));
        let (city_in_all, pairs, dropped) = reference_pairs(&dbs, &ips);
        prop_assert_eq!(report.city_in_all, city_in_all);
        prop_assert_eq!(report.dropped_nan, dropped);
        prop_assert_eq!(report.pair_distance.len(), pairs.len());
        for ((got_key, got), (want_key, want)) in report.pair_distance.iter().zip(&pairs) {
            prop_assert_eq!(got_key, want_key);
            same_cdf(got, want, &format!("pair {want_key:?}"))?;
        }
    }

    #[test]
    fn accuracy_slices_match_per_slice_walks(
        specs in prop::collection::vec(arb_db(), 1..4),
        runs in prop::collection::vec(arb_run(), 1..40),
        top in 0usize..5,
    ) {
        let (dbs, gt) = scenario(&specs, &runs);
        let ips: Vec<Ipv4Addr> = gt.entries.iter().map(|e| e.ip).collect();
        let report = evaluate_from_view(&ResolvedView::build(&dbs, &ips), &gt, top);

        let mut counts: HashMap<CountryCode, usize> = HashMap::new();
        for e in &gt.entries {
            *counts.entry(e.country).or_default() += 1;
        }
        let mut ranked: Vec<(CountryCode, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(top);
        prop_assert_eq!(
            report.by_country.iter().map(|(cc, n, _)| (*cc, *n)).collect::<Vec<_>>(),
            ranked
        );

        let all = || gt.entries.iter();
        for (d, db) in dbs.iter().enumerate() {
            same_slice(&report.overall[d], &reference_slice(db, all()), &format!("db{d} overall"))?;
            for (k, rir) in Rir::TABLE1_ORDER.iter().enumerate() {
                let want = reference_slice(db, all().filter(|e| e.rir == Some(*rir)));
                same_slice(&report.by_rir[d][k], &want, &format!("db{d} {rir}"))?;
            }
            for (k, (cc, _)) in ranked.iter().enumerate() {
                let want = reference_slice(db, all().filter(|e| e.country == *cc));
                same_slice(&report.by_country[k].2[d], &want, &format!("db{d} {cc}"))?;
            }
            for (k, method) in [GtMethod::DnsBased, GtMethod::RttProximity].iter().enumerate() {
                let want = reference_slice(db, all().filter(|e| e.method == *method));
                same_slice(&report.by_method[d][k], &want, &format!("db{d} {method:?}"))?;
            }
            let want = reference_slice(db, all().filter(|e| gt.degraded.contains(&e.ip)));
            same_slice(&report.degraded[d], &want, &format!("db{d} degraded"))?;
        }
    }
}
