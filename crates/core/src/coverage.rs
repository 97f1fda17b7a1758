//! Coverage: what fraction of an address set a database can answer for,
//! at country and at city level (§5.1, §5.2.1).
//!
//! The tallies read a [`ResolvedView`] column, never a database: lint
//! RG009 rejects the allocating per-address `lookup` here.

use crate::resolve::ResolvedView;
use routergeo_geo::stats::ratio;

/// Coverage of one database over one address set.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Database display name.
    pub database: String,
    /// Addresses queried.
    pub total: usize,
    /// Addresses with any record.
    pub with_record: usize,
    /// Addresses with a country.
    pub with_country: usize,
    /// Addresses with city-level resolution.
    pub with_city: usize,
}

impl CoverageReport {
    /// Country-level coverage fraction.
    pub fn country_coverage(&self) -> f64 {
        ratio(self.with_country, self.total)
    }

    /// City-level coverage fraction.
    pub fn city_coverage(&self) -> f64 {
        ratio(self.with_city, self.total)
    }
}

/// Tally coverage of column `db` of a view, so every analysis reads the
/// same resolve-once answers.
pub fn coverage_from_view(view: &ResolvedView, db: usize) -> CoverageReport {
    let mut span = routergeo_obs::span!(
        "core.coverage",
        database = view.databases()[db],
        addresses = view.len()
    );
    routergeo_obs::counter("coverage.addresses").add(view.len() as u64);
    let mut report = CoverageReport {
        database: view.databases()[db].clone(),
        total: view.len(),
        with_record: 0,
        with_country: 0,
        with_city: 0,
    };
    for rec in view.column(db).iter().flatten() {
        report.with_record += 1;
        if rec.has_country() {
            report.with_country += 1;
        }
        if rec.has_city() {
            report.with_city += 1;
        }
    }
    routergeo_obs::counter("coverage.with_record").add(report.with_record as u64);
    span.attr("with_record", report.with_record);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::test_view;
    use routergeo_db::inmem::InMemoryDbBuilder;
    use routergeo_db::{Granularity, LocationRecord};
    use routergeo_geo::Coordinate;
    use std::net::Ipv4Addr;

    #[test]
    fn counts_resolutions_separately() {
        let mut b = InMemoryDbBuilder::new("t");
        b.push_prefix(
            "6.0.0.0/24".parse().unwrap(),
            LocationRecord {
                country: Some("US".parse().unwrap()),
                region: None,
                city: Some("X".into()),
                coord: Some(Coordinate::new(1.0, 1.0).unwrap()),
                granularity: Granularity::Block24,
            },
        );
        b.push_prefix(
            "6.0.1.0/24".parse().unwrap(),
            LocationRecord::country_level("US".parse().unwrap(), Granularity::Aggregate),
        );
        let db = b.build().unwrap();
        let ips: Vec<Ipv4Addr> = vec![
            "6.0.0.1".parse().unwrap(),
            "6.0.1.1".parse().unwrap(),
            "9.9.9.9".parse().unwrap(),
        ];
        let rep = coverage_from_view(&test_view(&[db], ips), 0);
        assert_eq!(rep.total, 3);
        assert_eq!(rep.with_record, 2);
        assert_eq!(rep.with_country, 2);
        assert_eq!(rep.with_city, 1);
        assert!((rep.country_coverage() - 2.0 / 3.0).abs() < 1e-12);
        assert!((rep.city_coverage() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let db = InMemoryDbBuilder::new("t").build().unwrap();
        let rep = coverage_from_view(&test_view(&[db], []), 0);
        assert_eq!(rep.total, 0);
        assert_eq!(rep.country_coverage(), 0.0);
        assert_eq!(rep.city_coverage(), 0.0);
    }
}
