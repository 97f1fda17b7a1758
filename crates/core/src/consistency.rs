//! Cross-database consistency (§5.1, Figure 1).
//!
//! Country-level: fraction of addresses two databases place in the same
//! country, plus the all-database agreement. City-level: the paper
//! compares *coordinates* rather than city names, so each database pair
//! yields a distance distribution over the addresses that are city-level
//! in **all** participating databases (the paper's Figure 1 population).
//!
//! The tallies consume pre-resolved [`ResolvedView`] columns — never
//! the allocating `GeoDatabase::lookup` (enforced by lint RG009). The
//! parallelism lives in the view build; the tally itself is one serial
//! pass over the flat columns. Consecutive Figure 1 rows often carry the
//! same coordinates in every database, so each pair keeps its samples as
//! `(distance, count)` runs: a row whose coordinates all repeat the
//! previous Figure 1 row's bit for bit extends the last runs instead of
//! recomputing the distances. Each CDF is built from its runs sorted by
//! distance, which holds the same samples as the row-order sequence.

use crate::resolve::ResolvedView;
use routergeo_db::GeoDatabase;
use routergeo_geo::stats::ratio;
use routergeo_geo::{Coordinate, EmpiricalCdf, CITY_RANGE_KM};
use routergeo_pool::Pool;
use std::net::Ipv4Addr;

/// Pairwise and overall consistency over an address set.
#[derive(Debug)]
pub struct ConsistencyReport {
    /// Database names, defining index order for the matrices.
    pub databases: Vec<String>,
    /// Addresses queried.
    pub total: usize,
    /// `country_agree[i][j]`: addresses where databases i and j both have
    /// a country and agree, over addresses where both have a country.
    pub country_agree: Vec<Vec<f64>>,
    /// Addresses where **all** databases have a country and agree.
    pub all_country_agree: usize,
    /// Addresses where all databases have a country.
    pub all_country_covered: usize,
    /// Addresses that are city-level in all databases — Figure 1's
    /// population.
    pub city_in_all: usize,
    /// Pairwise distance CDFs over that population, keyed `(i, j)`, i < j.
    pub pair_distance: Vec<((usize, usize), EmpiricalCdf)>,
    /// NaN distance samples dropped while building the pairwise CDFs,
    /// summed over pairs. Structurally 0 on healthy runs; a non-zero
    /// count is surfaced as a figure footer (like the degraded-RIR
    /// line) instead of silently shrinking the Figure 1 denominators.
    pub dropped_nan: usize,
}

impl ConsistencyReport {
    /// Overall country agreement fraction (the paper's 95.8%).
    pub fn all_agreement(&self) -> f64 {
        ratio(self.all_country_agree, self.all_country_covered)
    }

    /// The CDF for a database pair, if computed.
    pub fn pair(&self, i: usize, j: usize) -> Option<&EmpiricalCdf> {
        let key = (i.min(j), i.max(j));
        self.pair_distance
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, cdf)| cdf)
    }

    /// Fraction of Figure-1 addresses a pair geolocates more than the
    /// city range apart — the paper's "city-level disagreement".
    pub fn pair_disagreement(&self, i: usize, j: usize) -> Option<f64> {
        self.pair(i, j).map(|cdf| cdf.fraction_gt(CITY_RANGE_KM))
    }
}

/// Compute the consistency report for a set of databases over `ips`.
/// Thread count from the environment ([`Pool::from_env`]).
pub fn consistency<D: GeoDatabase + Sync>(dbs: &[D], ips: &[Ipv4Addr]) -> ConsistencyReport {
    consistency_with(dbs, ips, &Pool::from_env())
}

/// [`consistency`] on an explicit pool: resolves the addresses once
/// into a [`ResolvedView`] and tallies from the columns.
pub fn consistency_with<D: GeoDatabase + Sync>(
    dbs: &[D],
    ips: &[Ipv4Addr],
    pool: &Pool,
) -> ConsistencyReport {
    let view = ResolvedView::build_with(dbs, ips, pool);
    consistency_from_view(&view)
}

/// Tally the consistency report from a pre-built view — the shared-view
/// entry point the pipeline uses so consistency reads the same
/// resolve-once answers as coverage and accuracy.
pub fn consistency_from_view(view: &ResolvedView) -> ConsistencyReport {
    let n = view.db_count();
    let mut span = routergeo_obs::span!("core.consistency", databases = n, addresses = view.len());
    routergeo_obs::counter("consistency.addresses").add(view.len() as u64);

    // Every matrix is a flat `n*n` vector keyed `i*n + j` with `i < j`.
    let mut both_have = vec![0usize; n * n];
    let mut agree = vec![0usize; n * n];
    let mut all_have = 0usize;
    let mut all_agree = 0usize;
    let mut city_in_all = 0usize;
    // Figure 1 samples as `(distance, count)` runs, one list per pair.
    let mut pair_runs: Vec<Vec<(f64, usize)>> = vec![Vec::new(); n * n];
    // The previous Figure 1 row's coordinates as bit patterns (empty
    // before the first such row): a row with the same keys repeats its
    // distances.
    let mut prev_keys: Vec<[u64; 2]> = Vec::with_capacity(n);
    let mut keys: Vec<[u64; 2]> = Vec::with_capacity(n);

    let mut countries = Vec::with_capacity(n);
    let mut city_coords = Vec::with_capacity(n);
    for row in 0..view.len() {
        countries.clear();
        city_coords.clear();
        for db in 0..n {
            let rec = view.record(db, row);
            countries.push(rec.and_then(|r| r.country));
            // Figure 1 population: city-level coordinates in every
            // database.
            city_coords.push(rec.filter(|r| r.has_city()).and_then(|r| r.coord));
        }

        for i in 0..n {
            for j in i + 1..n {
                if let (Some(a), Some(b)) = (countries[i], countries[j]) {
                    both_have[i * n + j] += 1;
                    if a == b {
                        agree[i * n + j] += 1;
                    }
                }
            }
        }
        if countries.iter().all(|c| c.is_some()) {
            all_have += 1;
            let first = countries[0];
            if countries.iter().all(|c| *c == first) {
                all_agree += 1;
            }
        }

        if city_coords.iter().all(|c| c.is_some()) {
            city_in_all += 1;
            keys.clear();
            keys.extend(city_coords.iter().flatten().map(Coordinate::to_bits));
            if keys == prev_keys {
                // Only the `i < j` lists hold runs, and each has one
                // for the previous Figure 1 row.
                for runs in &mut pair_runs {
                    if let Some(run) = runs.last_mut() {
                        run.1 += 1;
                    }
                }
            } else {
                for i in 0..n {
                    for j in i + 1..n {
                        let (a, b) = (&city_coords[i], &city_coords[j]);
                        if let (Some(a), Some(b)) = (a, b) {
                            pair_runs[i * n + j].push((a.distance_km(b), 1));
                        }
                    }
                }
                std::mem::swap(&mut keys, &mut prev_keys);
            }
        }
    }

    let country_agree = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        1.0
                    } else {
                        let (a, b) = (i.min(j), i.max(j));
                        ratio(agree[a * n + b], both_have[a * n + b])
                    }
                })
                .collect()
        })
        .collect();

    let mut pair_distance = Vec::new();
    let mut dropped_nan = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            // Sorted runs expand to sorted samples, so the CDF's own
            // stable sort finds its input already in order.
            let mut runs = std::mem::take(&mut pair_runs[i * n + j]);
            runs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut samples = Vec::with_capacity(city_in_all);
            for (d, count) in runs {
                samples.extend(std::iter::repeat_n(d, count));
            }
            let (cdf, dropped) = EmpiricalCdf::from_iter_lossy(samples);
            dropped_nan += dropped;
            pair_distance.push(((i, j), cdf));
        }
    }

    span.attr("city_in_all", city_in_all);
    ConsistencyReport {
        databases: view.databases().to_vec(),
        total: view.len(),
        country_agree,
        all_country_agree: all_agree,
        all_country_covered: all_have,
        city_in_all,
        pair_distance,
        dropped_nan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_db::inmem::{InMemoryDb, InMemoryDbBuilder};
    use routergeo_db::{Granularity, LocationRecord};
    use routergeo_geo::Coordinate;

    fn db(name: &str, specs: &[(&str, &str, f64, f64)]) -> InMemoryDb {
        let mut b = InMemoryDbBuilder::new(name);
        for (prefix, cc, lat, lon) in specs {
            b.push_prefix(
                prefix.parse().unwrap(),
                LocationRecord {
                    country: Some(cc.parse().unwrap()),
                    region: None,
                    city: Some("C".into()),
                    coord: Some(Coordinate::new(*lat, *lon).unwrap()),
                    granularity: Granularity::Block24,
                },
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn perfect_agreement() {
        let a = db("a", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        let b = db("b", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        let ips = vec!["6.0.0.1".parse().unwrap()];
        let rep = consistency(&[a, b], &ips);
        assert_eq!(rep.all_agreement(), 1.0);
        assert_eq!(rep.city_in_all, 1);
        assert_eq!(rep.pair_disagreement(0, 1), Some(0.0));
    }

    #[test]
    fn country_disagreement_detected() {
        let a = db("a", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        let b = db("b", &[("6.0.0.0/24", "CA", 55.0, -100.0)]);
        let ips = vec!["6.0.0.1".parse().unwrap()];
        let rep = consistency(&[a, b], &ips);
        assert_eq!(rep.all_agreement(), 0.0);
        assert_eq!(rep.country_agree[0][1], 0.0);
        // ~1668 km apart → city-level disagreement too.
        assert_eq!(rep.pair_disagreement(0, 1), Some(1.0));
    }

    #[test]
    fn city_population_requires_all_databases() {
        let a = db("a", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        // b has only country-level for the address.
        let mut bb = InMemoryDbBuilder::new("b");
        bb.push_prefix(
            "6.0.0.0/24".parse().unwrap(),
            LocationRecord::country_level("US".parse().unwrap(), Granularity::Aggregate),
        );
        let b = bb.build().unwrap();
        let ips = vec!["6.0.0.1".parse().unwrap()];
        let rep = consistency(&[a, b], &ips);
        assert_eq!(rep.city_in_all, 0);
        assert!(rep.pair(0, 1).unwrap().is_empty());
        // Country still agrees.
        assert_eq!(rep.country_agree[0][1], 1.0);
    }

    #[test]
    fn missing_records_shrink_denominators() {
        let a = db("a", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        let b = db("b", &[]); // empty
        let ips = vec!["6.0.0.1".parse().unwrap(), "7.0.0.1".parse().unwrap()];
        let rep = consistency(&[a, b], &ips);
        assert_eq!(rep.all_country_covered, 0);
        assert_eq!(rep.all_agreement(), 0.0);
        assert_eq!(rep.country_agree[0][1], 0.0);
    }

    #[test]
    fn three_way_agreement_counts() {
        let a = db("a", &[("6.0.0.0/24", "US", 40.0, -100.0)]);
        let b = db("b", &[("6.0.0.0/24", "US", 40.1, -100.0)]);
        let c = db("c", &[("6.0.0.0/24", "DE", 51.0, 9.0)]);
        let ips = vec!["6.0.0.1".parse().unwrap()];
        let rep = consistency(&[a, b, c], &ips);
        assert_eq!(rep.all_country_covered, 1);
        assert_eq!(rep.all_country_agree, 0);
        assert_eq!(rep.country_agree[0][1], 1.0);
        assert_eq!(rep.country_agree[0][2], 0.0);
        // a-b are ~11 km apart (same city), a-c across the ocean.
        assert!(rep.pair_disagreement(0, 1).unwrap() < 1e-12);
        assert_eq!(rep.pair_disagreement(0, 2), Some(1.0));
    }

    #[test]
    fn shared_view_matches_direct_entry_point() {
        let a = db(
            "a",
            &[
                ("6.0.0.0/24", "US", 40.0, -100.0),
                ("6.0.1.0/24", "US", 41.0, -100.0),
            ],
        );
        let b = db("b", &[("6.0.0.0/24", "CA", 55.0, -100.0)]);
        let dbs = [a, b];
        let ips: Vec<Ipv4Addr> = vec![
            "6.0.0.1".parse().unwrap(),
            "6.0.1.1".parse().unwrap(),
            "9.9.9.9".parse().unwrap(),
        ];
        let direct = consistency(&dbs, &ips);
        let view = ResolvedView::build(&dbs, &ips);
        let shared = consistency_from_view(&view);
        assert_eq!(shared.country_agree, direct.country_agree);
        assert_eq!(shared.city_in_all, direct.city_in_all);
        assert_eq!(shared.all_country_agree, direct.all_country_agree);
        assert_eq!(
            shared.pair(0, 1).unwrap().len(),
            direct.pair(0, 1).unwrap().len()
        );
    }
}
