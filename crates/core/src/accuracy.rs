//! Accuracy against ground truth (§5.2, Figures 2–5).
//!
//! Every breakdown slice is tallied from [`ResolvedView`] columns, never
//! from a database: lint RG009 rejects the allocating per-address
//! `lookup` here. The view is built once over the ground-truth addresses,
//! and each database's column is walked once: every entry carries the
//! ids of the slices it belongs to (overall, its RIR, its country when
//! top-ranked, its method, degraded), and the walk tallies all of them
//! together, computing each city-level error once. The errors are then
//! sorted once per database and appended to their slices in that
//! order, so every slice's CDF holds the same samples as a walk over
//! that slice alone and receives them already sorted.

use crate::groundtruth::{GroundTruth, GtEntry, GtMethod};
use crate::resolve::ResolvedView;
use routergeo_geo::stats::ratio;
use routergeo_geo::{CountryCode, EmpiricalCdf, Rir, CITY_RANGE_KM};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Accuracy of one database over one set of ground-truth entries.
#[derive(Debug, Clone, PartialEq)]
pub struct VendorAccuracy {
    /// Database name.
    pub database: String,
    /// Ground-truth entries evaluated.
    pub total: usize,
    /// Entries the database has a country for.
    pub country_covered: usize,
    /// Of those, entries where the country matches the ground truth.
    pub country_correct: usize,
    /// Entries the database answers at city level.
    pub city_covered: usize,
    /// Of those, entries within the 40 km city range of the ground truth.
    pub city_correct: usize,
    /// Geolocation-error samples (km) for the city-covered entries —
    /// the Figure 2 CDF for this database.
    pub error_cdf: EmpiricalCdf,
    /// NaN error samples dropped while building [`VendorAccuracy::error_cdf`].
    /// Structurally 0 on healthy runs (errors are great-circle
    /// distances); a non-zero count is surfaced as a figure footer so a
    /// shrunken denominator is never silent.
    pub dropped_nan: usize,
}

impl VendorAccuracy {
    /// Country coverage fraction.
    pub fn country_coverage(&self) -> f64 {
        ratio(self.country_covered, self.total)
    }

    /// Country accuracy among covered entries.
    pub fn country_accuracy(&self) -> f64 {
        ratio(self.country_correct, self.country_covered)
    }

    /// City coverage fraction.
    pub fn city_coverage(&self) -> f64 {
        ratio(self.city_covered, self.total)
    }

    /// City accuracy (≤ 40 km) among city-covered entries.
    pub fn city_accuracy(&self) -> f64 {
        ratio(self.city_correct, self.city_covered)
    }
}

/// The ids of the breakdown slices one ground-truth entry belongs to:
/// overall, RIR, top country, method and degraded make at most five.
#[derive(Debug, Clone, Copy, Default)]
struct SliceIds {
    ids: [u16; 5],
    len: u8,
}

impl SliceIds {
    fn push(&mut self, id: usize) {
        self.ids[usize::from(self.len)] = u16::try_from(id).expect("slice id fits u16");
        self.len += 1;
    }

    fn len(&self) -> usize {
        usize::from(self.len)
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ids[..self.len()].iter().map(|&id| usize::from(id))
    }
}

/// One slice's counts while its database column is walked.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    total: usize,
    country_covered: usize,
    country_correct: usize,
    city_covered: usize,
    city_correct: usize,
}

/// Tally database `db`'s column over every slice in one walk.
/// `entries[i]` is the ground truth of view row `i` and `slices[i]` the
/// ids of the slices it belongs to; the result holds one
/// [`VendorAccuracy`] per id in `0..slice_count`. A row whose answer and
/// ground-truth coordinates repeat the previous city-level row's bit
/// for bit reuses its error.
fn evaluate_column(
    view: &ResolvedView,
    db: usize,
    entries: &[GtEntry],
    slices: &[SliceIds],
    slice_count: usize,
) -> Vec<VendorAccuracy> {
    let database = &view.databases()[db];
    let mut span = routergeo_obs::span!(
        "core.accuracy",
        database = database,
        entries = entries.len(),
        slices = slice_count
    );
    let memberships: usize = slices.iter().map(SliceIds::len).sum();
    routergeo_obs::counter("accuracy.entries").add(memberships as u64);
    let error_km = routergeo_obs::histogram("accuracy.error_km");

    let mut tallies = vec![Tally::default(); slice_count];
    // `(error, row)` for every city-level answer.
    let mut city: Vec<(f64, usize)> = Vec::new();
    let mut prev: Option<([[u64; 2]; 2], f64)> = None;
    for (row, (e, ids)) in entries.iter().zip(slices).enumerate() {
        for s in ids.iter() {
            tallies[s].total += 1;
        }
        let Some(rec) = view.record(db, row) else {
            continue;
        };
        let country_ok = rec.country.map(|cc| cc == e.country);
        let error = rec.coord.filter(|_| rec.has_city()).map(|coord| {
            let key = [coord.to_bits(), e.coord.to_bits()];
            match prev {
                Some((prev_key, d)) if prev_key == key => d,
                _ => {
                    let d = coord.distance_km(&e.coord);
                    prev = Some((key, d));
                    d
                }
            }
        });
        for s in ids.iter() {
            let t = &mut tallies[s];
            if let Some(ok) = country_ok {
                t.country_covered += 1;
                t.country_correct += usize::from(ok);
            }
            if let Some(d) = error {
                t.city_covered += 1;
                t.city_correct += usize::from(d <= CITY_RANGE_KM);
            }
        }
        if let Some(d) = error {
            city.push((d, row));
        }
    }

    // Deal the errors to their slices in ascending order, so each
    // slice's samples arrive sorted.
    city.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut errors: Vec<Vec<f64>> = tallies
        .iter()
        .map(|t| Vec::with_capacity(t.city_covered))
        .collect();
    for &(d, row) in &city {
        let ids = &slices[row];
        for s in ids.iter() {
            errors[s].push(d);
        }
        // Rounded km in log2 buckets, once per slice sample: a
        // deterministic quantity, so the metrics snapshot stays
        // byte-identical across thread counts.
        if d.is_finite() && d >= 0.0 {
            error_km.record_n(d.round() as u64, ids.len() as u64);
        }
    }

    span.attr("city_covered", city.len());
    tallies
        .into_iter()
        .zip(errors)
        .map(|(t, errors)| {
            let (error_cdf, dropped_nan) = EmpiricalCdf::from_iter_lossy(errors);
            VendorAccuracy {
                database: database.clone(),
                total: t.total,
                country_covered: t.country_covered,
                country_correct: t.country_correct,
                city_covered: t.city_covered,
                city_correct: t.city_correct,
                error_cdf,
                dropped_nan,
            }
        })
        .collect()
}

/// Evaluate column `db` of a view whose rows correspond 1:1 (in order)
/// to `entries`, as one slice, so the Figure 2 CDF holds the same
/// samples a per-entry loop would produce.
pub fn evaluate_entries(view: &ResolvedView, db: usize, entries: &[GtEntry]) -> VendorAccuracy {
    view.expect_entries(entries.len());
    let mut overall = SliceIds::default();
    overall.push(0);
    let slices = vec![overall; entries.len()];
    let mut accs = evaluate_column(view, db, entries, &slices, 1);
    accs.pop().expect("one slice")
}

/// Full accuracy report: overall, by RIR, by country, by method.
#[derive(Debug)]
pub struct AccuracyReport {
    /// Database names in evaluation order.
    pub databases: Vec<String>,
    /// Overall accuracy per database (Figure 2 + §5.2.1 numbers).
    pub overall: Vec<VendorAccuracy>,
    /// Per-RIR accuracy, `by_rir[db][rir]` with RIRs in Table 1 order
    /// (Figures 3, 5).
    pub by_rir: Vec<Vec<VendorAccuracy>>,
    /// Per-country accuracy for the top-N ground-truth countries
    /// (Figure 4), as `(country, gt_count, per-db accuracy)`.
    pub by_country: Vec<(CountryCode, usize, Vec<VendorAccuracy>)>,
    /// Per-method accuracy, `[DnsBased, RttProximity]` per database
    /// (§5.2.4).
    pub by_method: Vec<[VendorAccuracy; 2]>,
    /// Per-database accuracy over the entries whose RIR annotation
    /// degraded (see `GroundTruth::degraded`). Empty totals on a
    /// healthy run; on a partially-down whois service this is the
    /// bucket the per-RIR breakdown lost.
    pub degraded: Vec<VendorAccuracy>,
    /// Fraction of ground-truth entries with a known RIR — the
    /// degraded-coverage number the §5.2 report prints when < 1.
    pub rir_coverage: f64,
}

/// Evaluate every database over the full ground truth with every
/// breakdown the paper reports, from a view whose rows correspond 1:1
/// (in order) to `gt.entries`. `top_countries` bounds the Figure 4
/// x-axis (the paper uses 20). Each entry's slice ids are computed
/// once, and each database's column is walked once for all of its
/// slices.
pub fn evaluate_from_view(
    view: &ResolvedView,
    gt: &GroundTruth,
    top_countries: usize,
) -> AccuracyReport {
    view.expect_entries(gt.entries.len());
    let n = view.db_count();

    // Figure 4: top countries by ground-truth address count.
    let mut counts: HashMap<CountryCode, usize> = HashMap::new();
    for e in &gt.entries {
        *counts.entry(e.country).or_default() += 1;
    }
    let mut ranked: Vec<(CountryCode, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(top_countries);

    // Slice ids: overall, the RIRs in Table 1 order, the ranked
    // countries, the two methods, degraded.
    let rir_base = 1;
    let country_base = rir_base + Rir::TABLE1_ORDER.len();
    let method_base = country_base + ranked.len();
    let degraded_id = method_base + 2;
    let country_rank: HashMap<CountryCode, usize> = ranked
        .iter()
        .enumerate()
        .map(|(k, (cc, _))| (*cc, k))
        .collect();
    let degraded_set: HashSet<Ipv4Addr> = gt.degraded.iter().copied().collect();
    let slices: Vec<SliceIds> = gt
        .entries
        .iter()
        .map(|e| {
            let mut ids = SliceIds::default();
            ids.push(0);
            if let Some(k) = Rir::TABLE1_ORDER.iter().position(|r| e.rir == Some(*r)) {
                ids.push(rir_base + k);
            }
            if let Some(k) = country_rank.get(&e.country) {
                ids.push(country_base + k);
            }
            ids.push(
                method_base
                    + match e.method {
                        GtMethod::DnsBased => 0,
                        GtMethod::RttProximity => 1,
                    },
            );
            if degraded_set.contains(&e.ip) {
                ids.push(degraded_id);
            }
            ids
        })
        .collect();

    let mut overall = Vec::with_capacity(n);
    let mut by_rir = Vec::with_capacity(n);
    let mut by_country: Vec<(CountryCode, usize, Vec<VendorAccuracy>)> = ranked
        .into_iter()
        .map(|(cc, count)| (cc, count, Vec::with_capacity(n)))
        .collect();
    let mut by_method = Vec::with_capacity(n);
    let mut degraded = Vec::with_capacity(n);
    for d in 0..n {
        // Split the slices off the end, highest ids first.
        let mut accs = evaluate_column(view, d, &gt.entries, &slices, degraded_id + 1);
        degraded.extend(accs.split_off(degraded_id));
        let methods: [VendorAccuracy; 2] = accs
            .split_off(method_base)
            .try_into()
            .expect("two method slices");
        by_method.push(methods);
        for ((_, _, per_db), acc) in by_country.iter_mut().zip(accs.split_off(country_base)) {
            per_db.push(acc);
        }
        by_rir.push(accs.split_off(rir_base));
        overall.extend(accs);
    }
    let with_rir = gt.entries.iter().filter(|e| e.rir.is_some()).count();
    let rir_coverage = ratio(with_rir, gt.entries.len());

    AccuracyReport {
        databases: view.databases().to_vec(),
        overall,
        by_rir,
        by_country,
        by_method,
        degraded,
        rir_coverage,
    }
}

/// The common-wrong-answer count of three columns of a view whose rows
/// correspond 1:1 (in order) to `gt.entries` (§5.2.2: 2,277 addresses
/// wrong in IP2Location-Lite, MaxMind-GeoLite, and MaxMind-Paid
/// simultaneously, with the same wrong country).
pub fn common_wrong_from_view(view: &ResolvedView, dbs: [usize; 3], gt: &GroundTruth) -> usize {
    view.expect_entries(gt.entries.len());
    gt.entries
        .iter()
        .enumerate()
        .filter(|(i, e)| {
            let answer = |d: usize| view.record(dbs[d], *i).and_then(|r| r.country);
            match (answer(0), answer(1), answer(2)) {
                (Some(a), Some(b), Some(c)) => a == b && b == c && a != e.country,
                _ => false,
            }
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::test_view;
    use routergeo_db::inmem::{InMemoryDb, InMemoryDbBuilder};
    use routergeo_db::{GeoDatabase, Granularity, LocationRecord};
    use routergeo_geo::Coordinate;

    fn gt_entry(ip: &str, cc: &str, lat: f64, lon: f64, rir: Rir, method: GtMethod) -> GtEntry {
        GtEntry {
            ip: ip.parse().unwrap(),
            coord: Coordinate::new(lat, lon).unwrap(),
            country: cc.parse().unwrap(),
            rir: Some(rir),
            method,
            domain: None,
        }
    }

    fn simple_db(name: &str, rows: &[(&str, &str, f64, f64)]) -> InMemoryDb {
        let mut b = InMemoryDbBuilder::new(name);
        for (prefix, cc, lat, lon) in rows {
            b.push_prefix(
                prefix.parse().unwrap(),
                LocationRecord {
                    country: Some(cc.parse().unwrap()),
                    region: None,
                    city: Some("X".into()),
                    coord: Some(Coordinate::new(*lat, *lon).unwrap()),
                    granularity: Granularity::Block24,
                },
            );
        }
        b.build().unwrap()
    }

    fn sample_gt() -> GroundTruth {
        GroundTruth {
            entries: vec![
                gt_entry("6.0.0.1", "US", 40.0, -100.0, Rir::Arin, GtMethod::DnsBased),
                gt_entry("6.0.1.1", "CA", 55.0, -100.0, Rir::Arin, GtMethod::DnsBased),
                gt_entry(
                    "31.0.0.1",
                    "DE",
                    51.5,
                    9.5,
                    Rir::RipeNcc,
                    GtMethod::RttProximity,
                ),
            ],
            ..GroundTruth::default()
        }
    }

    #[test]
    fn perfect_database_scores_perfectly() {
        let db = simple_db(
            "perfect",
            &[
                ("6.0.0.0/24", "US", 40.0, -100.0),
                ("6.0.1.0/24", "CA", 55.0, -100.0),
                ("31.0.0.0/24", "DE", 51.5, 9.5),
            ],
        );
        let gt = sample_gt();
        let view = test_view(&[db], gt.entries.iter().map(|e| e.ip));
        let acc = evaluate_entries(&view, 0, &gt.entries);
        assert_eq!(acc.total, 3);
        assert_eq!(acc.country_accuracy(), 1.0);
        assert_eq!(acc.city_accuracy(), 1.0);
        assert_eq!(acc.country_coverage(), 1.0);
        assert_eq!(acc.error_cdf.len(), 3);
    }

    #[test]
    fn wrong_country_and_distance_counted() {
        // Database sends the Canadian router to the US, 1700+ km away.
        let db = simple_db(
            "biased",
            &[
                ("6.0.0.0/24", "US", 40.0, -100.0),
                ("6.0.1.0/24", "US", 40.0, -100.0),
            ],
        );
        let gt = sample_gt();
        let view = test_view(&[db], gt.entries.iter().map(|e| e.ip));
        let acc = evaluate_entries(&view, 0, &gt.entries);
        assert_eq!(acc.total, 3);
        assert_eq!(acc.country_covered, 2);
        assert_eq!(acc.country_correct, 1);
        assert_eq!(acc.city_covered, 2);
        assert_eq!(acc.city_correct, 1);
        assert!(acc.error_cdf.max().unwrap() > 1000.0);
    }

    #[test]
    fn report_breaks_down_by_rir_and_method() {
        let db = simple_db("d", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        let gt = sample_gt();
        let view = test_view(&[db], gt.entries.iter().map(|e| e.ip));
        let report = evaluate_from_view(&view, &gt, 20);
        assert_eq!(report.overall.len(), 1);
        // ARIN slice has 2 entries, RIPE 1.
        assert_eq!(report.by_rir[0][0].total, 2);
        assert_eq!(report.by_rir[0][4].total, 1);
        assert_eq!(report.by_rir[0][2].total, 0); // AFRINIC empty
                                                  // Methods: 2 DNS, 1 RTT.
        assert_eq!(report.by_method[0][0].total, 2);
        assert_eq!(report.by_method[0][1].total, 1);
        // Figure 4 ranking: US/CA/DE with one address each... counts.
        assert_eq!(report.by_country.len(), 3);
    }

    #[test]
    fn degraded_entries_form_their_own_report_slice() {
        let db = simple_db("d", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        let mut gt = sample_gt();
        // Simulate a failed RIR annotation for the Canadian entry.
        gt.entries[1].rir = None;
        gt.degraded = vec![gt.entries[1].ip];
        let view = test_view(&[db], gt.entries.iter().map(|e| e.ip));
        let report = evaluate_from_view(&view, &gt, 20);
        // The degraded entry left the per-RIR breakdown (ARIN down to 1)…
        assert_eq!(report.by_rir[0][0].total, 1);
        // …and landed in the degraded bucket instead of vanishing.
        assert_eq!(report.degraded[0].total, 1);
        assert!((report.rir_coverage - 2.0 / 3.0).abs() < 1e-12);
        // Healthy ground truth reports full coverage and an empty bucket.
        let clean = evaluate_from_view(&view, &sample_gt(), 20);
        assert_eq!(clean.rir_coverage, 1.0);
        assert_eq!(clean.degraded[0].total, 0);
    }

    #[test]
    fn common_wrong_requires_all_three_to_agree_on_wrong() {
        let gt = sample_gt();
        let wrong_us = simple_db("w1", &[("6.0.1.0/24", "US", 40.0, -100.0)]);
        let wrong_us2 = simple_db("w2", &[("6.0.1.0/24", "US", 41.0, -100.0)]);
        let right = simple_db("r", &[("6.0.1.0/24", "CA", 55.0, -100.0)]);
        let view = test_view(
            &[wrong_us, wrong_us2, right],
            gt.entries.iter().map(|e| e.ip),
        );
        assert_eq!(common_wrong_from_view(&view, [0, 1, 0], &gt), 1);
        assert_eq!(common_wrong_from_view(&view, [0, 1, 2], &gt), 0);
    }

    #[test]
    fn uncovered_entries_do_not_poison_accuracy() {
        let db = simple_db("sparse", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        let gt = sample_gt();
        let view = test_view(&[db], gt.entries.iter().map(|e| e.ip));
        let acc = evaluate_entries(&view, 0, &gt.entries);
        assert_eq!(acc.country_covered, 1);
        assert_eq!(acc.country_accuracy(), 1.0);
        assert!((acc.country_coverage() - 1.0 / 3.0).abs() < 1e-12);
    }

    /// The pinned old-vs-new check: every slice of the view-based report
    /// — its counts, `dropped_nan` and CDF samples — must match a naive
    /// per-slice `lookup` walk that computes each error afresh (tests are
    /// outside RG009's scope, so the naive path can query directly).
    #[test]
    fn view_report_matches_naive_lookup_evaluation() {
        let dbs = [
            simple_db(
                "d1",
                &[
                    ("6.0.0.0/24", "US", 40.0, -100.0),
                    ("6.0.1.0/24", "US", 40.0, -100.0),
                ],
            ),
            simple_db("d2", &[("6.0.1.0/24", "CA", 55.0, -100.0)]),
        ];
        // d1 answers the first three entries alike; the second shares
        // the first's latitudes but not its ground-truth longitude, and
        // the third repeats the second's coordinates exactly.
        let mut gt = sample_gt();
        let us = |ip, lon, rir, method| gt_entry(ip, "US", 40.0, lon, rir, method);
        gt.entries
            .insert(1, us("6.0.0.2", -90.0, Rir::Arin, GtMethod::DnsBased));
        let mut degraded = us("6.0.0.3", -90.0, Rir::Arin, GtMethod::RttProximity);
        degraded.rir = None;
        gt.degraded = vec![degraded.ip];
        gt.entries.insert(2, degraded);
        let view = test_view(&dbs, gt.entries.iter().map(|e| e.ip));
        let report = evaluate_from_view(&view, &gt, 20);

        let naive = |db: &InMemoryDb, keep: &dyn Fn(&GtEntry) -> bool| {
            let mut acc = (0, 0, 0, 0, 0);
            let mut errors = Vec::new();
            for e in gt.entries.iter().filter(|e| keep(e)) {
                acc.0 += 1;
                let Some(rec) = db.lookup(e.ip) else { continue };
                if let Some(cc) = rec.country {
                    acc.1 += 1;
                    acc.2 += usize::from(cc == e.country);
                }
                if rec.has_city() {
                    let d = rec.coord.unwrap().distance_km(&e.coord);
                    acc.3 += 1;
                    acc.4 += usize::from(d <= CITY_RANGE_KM);
                    errors.push(d);
                }
            }
            let (error_cdf, dropped_nan) = EmpiricalCdf::from_iter_lossy(errors);
            VendorAccuracy {
                database: db.name().to_string(),
                total: acc.0,
                country_covered: acc.1,
                country_correct: acc.2,
                city_covered: acc.3,
                city_correct: acc.4,
                error_cdf,
                dropped_nan,
            }
        };
        for (d, db) in dbs.iter().enumerate() {
            assert_eq!(report.overall[d], naive(db, &|_| true), "{d} overall");
            for (k, rir) in Rir::TABLE1_ORDER.iter().enumerate() {
                let want = naive(db, &|e| e.rir == Some(*rir));
                assert_eq!(report.by_rir[d][k], want, "{d} {rir}");
            }
            for (cc, count, accs) in &report.by_country {
                let want = naive(db, &|e| e.country == *cc);
                assert_eq!(*count, want.total);
                assert_eq!(accs[d], want, "{d} {cc}");
            }
            for (k, method) in [GtMethod::DnsBased, GtMethod::RttProximity]
                .iter()
                .enumerate()
            {
                let want = naive(db, &|e| e.method == *method);
                assert_eq!(report.by_method[d][k], want, "{d} {method:?}");
            }
            let want = naive(db, &|e| gt.degraded.contains(&e.ip));
            assert_eq!(report.degraded[d], want, "{d} degraded");
        }
        assert_eq!(report.by_country.len(), 3);
        assert_eq!(report.degraded[0].error_cdf.len(), 1);

        // The majority-vote count matches a naive triple-lookup loop.
        let trio = [&dbs[0], &dbs[0], &dbs[1]];
        let naive = gt
            .entries
            .iter()
            .filter(|e| {
                let answers: Vec<Option<CountryCode>> = trio
                    .iter()
                    .map(|d| d.lookup(e.ip).and_then(|r| r.country))
                    .collect();
                matches!(
                    (&answers[0], &answers[1], &answers[2]),
                    (Some(a), Some(b), Some(c)) if a == b && b == c && *a != e.country
                )
            })
            .count();
        assert_eq!(common_wrong_from_view(&view, [0, 0, 1], &gt), naive);
    }
}
