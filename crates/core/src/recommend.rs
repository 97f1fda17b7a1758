//! The §6 recommendation engine.
//!
//! The paper closes with practical guidance for researchers choosing a
//! database to geolocate routers. Rather than hard-coding its sentences,
//! this module derives each recommendation from the measured metrics with
//! explicit thresholds, so re-running the evaluation under a different
//! world (or a future database) produces honest advice.

use crate::accuracy::AccuracyReport;
use routergeo_geo::stats::pct;
use routergeo_geo::Rir;

/// One recommendation with the evidence behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recommendation {
    /// Short rule-of-thumb text.
    pub text: String,
    /// The numbers that triggered it.
    pub evidence: String,
}

/// Derive §6-style recommendations from an accuracy report.
///
/// Expects the report's database order to be the paper's:
/// IP2Location-Lite, MaxMind-GeoLite, MaxMind-Paid, NetAcuity — but keys
/// everything off names so reordering only weakens specific rules.
pub fn recommendations(report: &AccuracyReport) -> Vec<Recommendation> {
    let mut out = Vec::new();
    let find = |name: &str| {
        report
            .databases
            .iter()
            .position(|n| n == name)
            .map(|i| &report.overall[i])
    };

    // 1. Best overall database for routers.
    if let Some((best_idx, best)) = report.overall.iter().enumerate().max_by(|a, b| {
        let score_a = a.1.country_accuracy() * a.1.city_accuracy() * a.1.city_coverage();
        let score_b = b.1.country_accuracy() * b.1.city_accuracy() * b.1.city_coverage();
        score_a.total_cmp(&score_b)
    }) {
        out.push(Recommendation {
            text: format!(
                "If a geolocation database is the only option, use {} to geolocate routers.",
                report.databases[best_idx]
            ),
            evidence: format!(
                "best combined coverage and accuracy: country {} / city {} at {} city coverage",
                pct(best.country_accuracy()),
                pct(best.city_accuracy()),
                pct(best.city_coverage()),
            ),
        });
    }

    // 2. MaxMind city-level caveat.
    if let (Some(geolite), Some(paid)) = (find("MaxMind-GeoLite"), find("MaxMind-Paid")) {
        if paid.city_coverage() < 0.6 {
            out.push(Recommendation {
                text: "Do not rely on MaxMind databases when high city-level accuracy \
                       and coverage are required; city coverage is low."
                    .into(),
                evidence: format!(
                    "city coverage: GeoLite {} / Paid {}",
                    pct(geolite.city_coverage()),
                    pct(paid.city_coverage())
                ),
            });
        }
        if paid.city_coverage() > geolite.city_coverage() {
            out.push(Recommendation {
                text: "Prefer the commercial MaxMind edition over the free one when \
                       city resolution and coverage matter."
                    .into(),
                evidence: format!(
                    "paid improves city coverage {} → {} and accuracy {} → {}",
                    pct(geolite.city_coverage()),
                    pct(paid.city_coverage()),
                    pct(geolite.city_accuracy()),
                    pct(paid.city_accuracy())
                ),
            });
        }
    }

    // 3. IP2Location city-level warning.
    if let Some(ip2) = find("IP2Location-Lite") {
        if ip2.city_accuracy() + 0.05
            < report
                .overall
                .iter()
                .map(|a| a.city_accuracy())
                .fold(0.0, f64::max)
        {
            out.push(Recommendation {
                text: "Do not use IP2Location-Lite when city-level accuracy matters; \
                       its overall city accuracy trails every alternative."
                    .into(),
                evidence: format!("city accuracy {}", pct(ip2.city_accuracy())),
            });
        }
    }

    // 4. Free-tier country-level adequacy.
    let free_ok: Vec<&str> = ["IP2Location-Lite", "MaxMind-GeoLite", "MaxMind-Paid"]
        .iter()
        .filter_map(|n| find(n).map(|a| (n, a)))
        .filter(|(_, a)| a.country_accuracy() >= 0.70)
        .map(|(n, _)| *n)
        .collect();
    if free_ok.len() >= 2 {
        let accs: Vec<String> = free_ok
            .iter()
            .filter_map(|n| find(n).map(|a| format!("{n} {}", pct(a.country_accuracy()))))
            .collect();
        out.push(Recommendation {
            text: "If price is a concern and ~78% country-level accuracy is acceptable, \
                   the registry-fed databases are comparable — but verify your target \
                   countries individually, accuracy is very uneven across them."
                .into(),
            evidence: accs.join(", "),
        });
    }

    // 5. ARIN city-level warning: the worst region for every database.
    let arin_idx = Rir::TABLE1_ORDER
        .iter()
        .position(|r| *r == Rir::Arin)
        .expect("ARIN in order");
    // The paper's metric here is effective city accuracy: the fraction of
    // *all* ARIN ground-truth addresses geolocated within 40 km — low
    // coverage cannot hide behind high conditional accuracy ("only 66% of
    // the ground truth interface addresses there are geolocated to within
    // 40 km", §6).
    let effective =
        |a: &crate::accuracy::VendorAccuracy| routergeo_geo::stats::ratio(a.city_correct, a.total);
    let worst_arin = report
        .by_rir
        .iter()
        .map(|per_db| effective(&per_db[arin_idx]))
        .fold(1.0, f64::min);
    let best_arin = report
        .by_rir
        .iter()
        .map(|per_db| effective(&per_db[arin_idx]))
        .fold(0.0, f64::max);
    if best_arin < 0.8 {
        out.push(Recommendation {
            text: "Do not trust city-level answers for ARIN-registered addresses, \
                   regardless of database."
                .into(),
            evidence: format!(
                "fraction of ARIN ground truth within 40 km ranges {} – {} across databases",
                pct(worst_arin),
                pct(best_arin)
            ),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::evaluate_from_view;
    use crate::groundtruth::{GroundTruth, GtEntry, GtMethod};
    use crate::resolve::test_view;
    use routergeo_db::inmem::{InMemoryDb, InMemoryDbBuilder};
    use routergeo_db::{Granularity, LocationRecord};
    use routergeo_geo::Coordinate;

    /// Build a toy report where "NetAcuity" dominates and "MaxMind-*" has
    /// low city coverage, then check the headline recommendations.
    fn toy_report() -> AccuracyReport {
        let gt = GroundTruth {
            entries: (0..100u32)
                .map(|i| GtEntry {
                    ip: std::net::Ipv4Addr::from(0x0600_0000 + i * 256 + 1),
                    coord: Coordinate::new(40.0, -100.0).unwrap(),
                    country: "US".parse().unwrap(),
                    rir: Some(Rir::Arin),
                    method: GtMethod::DnsBased,
                    domain: None,
                })
                .collect(),
            overlap: vec![],
            degraded: vec![],
        };
        let city_good = LocationRecord {
            country: Some("US".parse().unwrap()),
            region: None,
            city: Some("X".into()),
            coord: Some(Coordinate::new(40.0, -100.0).unwrap()),
            granularity: Granularity::SubBlock,
        };
        let city_bad = LocationRecord {
            coord: Some(Coordinate::new(30.0, -80.0).unwrap()),
            ..city_good.clone()
        };
        let country_only =
            LocationRecord::country_level("US".parse().unwrap(), Granularity::Aggregate);

        let mk = |name: &str, f: &dyn Fn(u32) -> LocationRecord| -> InMemoryDb {
            let mut b = InMemoryDbBuilder::new(name);
            for i in 0..100u32 {
                let p: routergeo_net::Prefix = format!("6.0.{i}.0/24").parse().unwrap();
                b.push_prefix(p, f(i));
            }
            b.build().unwrap()
        };
        let dbs = vec![
            mk("IP2Location-Lite", &|i| {
                if i % 2 == 0 {
                    city_bad.clone()
                } else {
                    city_good.clone()
                }
            }),
            mk("MaxMind-GeoLite", &|i| {
                if i < 20 {
                    city_good.clone()
                } else {
                    country_only.clone()
                }
            }),
            mk("MaxMind-Paid", &|i| {
                if i < 40 {
                    city_good.clone()
                } else {
                    country_only.clone()
                }
            }),
            mk("NetAcuity", &|i| {
                if i < 75 {
                    city_good.clone()
                } else {
                    city_bad.clone()
                }
            }),
        ];
        evaluate_from_view(&test_view(&dbs, gt.entries.iter().map(|e| e.ip)), &gt, 20)
    }

    #[test]
    fn netacuity_is_recommended_overall() {
        let recs = recommendations(&toy_report());
        assert!(
            recs.iter().any(|r| r.text.contains("use NetAcuity")),
            "{recs:#?}"
        );
    }

    #[test]
    fn maxmind_paid_over_free() {
        let recs = recommendations(&toy_report());
        assert!(recs
            .iter()
            .any(|r| r.text.contains("commercial MaxMind edition")));
    }

    #[test]
    fn arin_city_warning_present() {
        let recs = recommendations(&toy_report());
        assert!(recs
            .iter()
            .any(|r| r.text.contains("ARIN-registered addresses")));
    }

    #[test]
    fn ip2location_warned_when_trailing() {
        let recs = recommendations(&toy_report());
        assert!(recs.iter().any(|r| r.text.contains("IP2Location-Lite")));
    }

    #[test]
    fn every_recommendation_carries_evidence() {
        for rec in recommendations(&toy_report()) {
            assert!(!rec.evidence.is_empty(), "{rec:?}");
            assert!(rec.evidence.contains('%'), "{rec:?}");
        }
    }
}
