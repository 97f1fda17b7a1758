//! The §5.2.3 ARIN case study.
//!
//! Why is city-level accuracy worst in ARIN? The paper dissects
//! MaxMind-Paid: most non-US ARIN ground-truth addresses are *geolocated
//! to the US anyway* (registry data), and among the wrong US city answers
//! the overwhelming majority are block-level entries — whole blocks
//! assigned one location even though their routers are elsewhere.
//!
//! The study reads a [`ResolvedView`] column over the ground truth,
//! never a database: lint RG009 rejects the allocating per-address
//! `lookup` here.

use crate::groundtruth::GroundTruth;
use crate::resolve::ResolvedView;
use routergeo_geo::{CountryCode, Rir, CITY_RANGE_KM};

/// The §5.2.3 counters for one database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArinCaseStudy {
    /// Database name.
    pub database: String,
    /// ARIN ground-truth addresses.
    pub arin_total: usize,
    /// …of which located outside the US (per ground truth).
    pub arin_non_us: usize,
    /// …of which the database nevertheless geolocates to the US.
    pub non_us_pulled_to_us: usize,
    /// …of which carry a city-level answer.
    pub pulled_with_city: usize,
    /// …of which are more than 1,000 km from the true location.
    pub pulled_city_over_1000km: usize,
    /// Ground-truth addresses located in the US (any RIR).
    pub us_total: usize,
    /// ARIN ∩ US addresses with a city-level answer.
    pub us_city_answers: usize,
    /// …of which have error > 40 km (wrong city).
    pub us_city_wrong: usize,
    /// Block-level share among the wrong city answers.
    pub wrong_block_level: usize,
    /// Block-level share among the correct city answers.
    pub right_block_level: usize,
}

impl ArinCaseStudy {
    /// Fraction of non-US ARIN addresses pulled to the US.
    pub fn pull_rate(&self) -> f64 {
        routergeo_geo::stats::ratio(self.non_us_pulled_to_us, self.arin_non_us)
    }

    /// Fraction of ARIN-US city answers that are wrong (> 40 km).
    pub fn us_city_wrong_rate(&self) -> f64 {
        routergeo_geo::stats::ratio(self.us_city_wrong, self.us_city_answers)
    }
}

/// Run the case study for column `db` of a view whose rows correspond
/// 1:1 (in order) to `gt.entries`.
pub fn arin_case_study(view: &ResolvedView, db: usize, gt: &GroundTruth) -> ArinCaseStudy {
    view.expect_entries(gt.entries.len());
    let us: CountryCode = "US".parse().expect("US is valid");
    let mut out = ArinCaseStudy {
        database: view.databases()[db].clone(),
        arin_total: 0,
        arin_non_us: 0,
        non_us_pulled_to_us: 0,
        pulled_with_city: 0,
        pulled_city_over_1000km: 0,
        us_total: 0,
        us_city_answers: 0,
        us_city_wrong: 0,
        wrong_block_level: 0,
        right_block_level: 0,
    };

    for (row, e) in gt.entries.iter().enumerate() {
        let is_arin = e.rir == Some(Rir::Arin);
        let truly_us = e.country == us;
        if truly_us {
            out.us_total += 1;
        }
        if !is_arin {
            continue;
        }
        out.arin_total += 1;
        let rec = view.record(db, row);

        if !truly_us {
            out.arin_non_us += 1;
            if let Some(rec) = rec {
                if rec.country == Some(us) {
                    out.non_us_pulled_to_us += 1;
                    if rec.has_city() {
                        out.pulled_with_city += 1;
                        let d = rec.coord.expect("city").distance_km(&e.coord);
                        if d > 1000.0 {
                            out.pulled_city_over_1000km += 1;
                        }
                    }
                }
            }
        } else if let Some(rec) = rec {
            if rec.has_city() {
                out.us_city_answers += 1;
                let d = rec.coord.expect("city").distance_km(&e.coord);
                if d > CITY_RANGE_KM {
                    out.us_city_wrong += 1;
                    if rec.granularity.is_block_level() {
                        out.wrong_block_level += 1;
                    }
                } else if rec.granularity.is_block_level() {
                    out.right_block_level += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::{GtEntry, GtMethod};
    use crate::resolve::test_view;
    use routergeo_db::inmem::InMemoryDbBuilder;
    use routergeo_db::{Granularity, LocationRecord};
    use routergeo_geo::Coordinate;

    fn entry(ip: &str, cc: &str, lat: f64, lon: f64, rir: Rir) -> GtEntry {
        GtEntry {
            ip: ip.parse().unwrap(),
            coord: Coordinate::new(lat, lon).unwrap(),
            country: cc.parse().unwrap(),
            rir: Some(rir),
            method: GtMethod::DnsBased,
            domain: None,
        }
    }

    #[test]
    fn registry_pull_counted_with_distance() {
        // An ARIN router truly in Germany; the DB claims a US city
        // thousands of km away, from a block-level entry.
        let gt = GroundTruth {
            entries: vec![
                entry("6.0.0.1", "DE", 51.0, 9.0, Rir::Arin),
                entry("6.0.1.1", "US", 40.0, -100.0, Rir::Arin),
            ],
            overlap: vec![],
            degraded: vec![],
        };
        let mut b = InMemoryDbBuilder::new("mm");
        let us_city = LocationRecord {
            country: Some("US".parse().unwrap()),
            region: None,
            city: Some("HQ".into()),
            coord: Some(Coordinate::new(40.0, -100.0).unwrap()),
            granularity: Granularity::Aggregate,
        };
        b.push_prefix("6.0.0.0/24".parse().unwrap(), us_city.clone());
        b.push_prefix("6.0.1.0/24".parse().unwrap(), us_city);
        let db = b.build().unwrap();

        let case = arin_case_study(&test_view(&[db], gt.entries.iter().map(|e| e.ip)), 0, &gt);
        assert_eq!(case.arin_total, 2);
        assert_eq!(case.arin_non_us, 1);
        assert_eq!(case.non_us_pulled_to_us, 1);
        assert_eq!(case.pulled_with_city, 1);
        assert_eq!(case.pulled_city_over_1000km, 1);
        assert_eq!(case.pull_rate(), 1.0);
        // The genuinely-US address is answered correctly at city level.
        assert_eq!(case.us_total, 1);
        assert_eq!(case.us_city_answers, 1);
        assert_eq!(case.us_city_wrong, 0);
        assert_eq!(case.right_block_level, 1);
    }

    #[test]
    fn wrong_us_city_blocks_counted() {
        // US router, DB picks a US city 1500 km away (block-level).
        let gt = GroundTruth {
            entries: vec![entry("6.0.0.1", "US", 40.0, -100.0, Rir::Arin)],
            overlap: vec![],
            degraded: vec![],
        };
        let mut b = InMemoryDbBuilder::new("mm");
        b.push_prefix(
            "6.0.0.0/24".parse().unwrap(),
            LocationRecord {
                country: Some("US".parse().unwrap()),
                region: None,
                city: Some("Elsewhere".into()),
                coord: Some(Coordinate::new(40.0, -80.0).unwrap()),
                granularity: Granularity::Block24,
            },
        );
        let db = b.build().unwrap();
        let case = arin_case_study(&test_view(&[db], gt.entries.iter().map(|e| e.ip)), 0, &gt);
        assert_eq!(case.us_city_answers, 1);
        assert_eq!(case.us_city_wrong, 1);
        assert_eq!(case.wrong_block_level, 1);
        assert_eq!(case.us_city_wrong_rate(), 1.0);
    }

    #[test]
    fn non_arin_entries_are_ignored() {
        let gt = GroundTruth {
            entries: vec![entry("31.0.0.1", "DE", 51.0, 9.0, Rir::RipeNcc)],
            overlap: vec![],
            degraded: vec![],
        };
        let db = InMemoryDbBuilder::new("mm").build().unwrap();
        let case = arin_case_study(&test_view(&[db], gt.entries.iter().map(|e| e.ip)), 0, &gt);
        assert_eq!(case.arin_total, 0);
        assert_eq!(case.us_total, 0);
    }
}
