//! Majority-vote evaluation — the methodology of the prior work the paper
//! contrasts itself against (§7: Huffaker et al.'s Geocompare and Shavitt &
//! Zilberman both score databases against a majority vote *of the
//! databases themselves* rather than against independent ground truth).
//!
//! Implementing it lets the harness quantify the paper's headline caveat —
//! "agreement among the databases does not imply correctness" — directly:
//! a database can agree beautifully with the majority while the majority
//! itself is wrong (all registry-fed databases share the same upstream).
//!
//! The vote reads one row of a [`ResolvedView`] across its databases,
//! never a database: lint RG009 rejects the allocating per-address
//! `lookup` here.

use crate::groundtruth::GroundTruth;
use crate::resolve::ResolvedView;
use routergeo_geo::stats::ratio;
use routergeo_geo::{Coordinate, CountryCode, CITY_RANGE_KM};
use std::collections::HashMap;

/// The majority's verdict for one address.
#[derive(Debug, Clone, PartialEq)]
pub struct MajorityLocation {
    /// Country agreed by the plurality of databases (ties → none).
    pub country: Option<CountryCode>,
    /// Number of databases voting for that country.
    pub votes: usize,
    /// Representative coordinates: the medoid of the city-level answers
    /// that lie within the city range of at least half of them.
    pub coord: Option<Coordinate>,
}

/// Compute the majority location for row `row` of a view, across its
/// databases.
pub fn majority_location(view: &ResolvedView, row: usize) -> MajorityLocation {
    let records = || (0..view.db_count()).filter_map(|d| view.record(d, row));

    // Country: plurality vote, ties disqualify.
    let mut counts: HashMap<CountryCode, usize> = HashMap::new();
    for r in records() {
        if let Some(cc) = r.country {
            *counts.entry(cc).or_default() += 1;
        }
    }
    let mut ranked: Vec<(CountryCode, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let (country, votes) = match ranked.as_slice() {
        [] => (None, 0),
        [only] => (Some(only.0), only.1),
        [first, second, ..] if first.1 > second.1 => (Some(first.0), first.1),
        [first, ..] => (None, first.1), // tie
    };

    // Coordinates: medoid of city-level answers — the answer minimizing
    // total distance to the others — provided it sits within the city
    // range of at least half of them.
    let coords: Vec<Coordinate> = records()
        .filter(|r| r.has_city())
        .filter_map(|r| r.coord)
        .collect();
    let coord = if coords.len() >= 2 {
        coords
            .iter()
            .map(|c| {
                let total: f64 = coords.iter().map(|o| c.distance_km(o)).sum();
                let near = coords
                    .iter()
                    .filter(|o| c.distance_km(o) <= CITY_RANGE_KM)
                    .count();
                (c, total, near)
            })
            .filter(|(_, _, near)| *near * 2 >= coords.len())
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _, _)| *c)
    } else {
        None
    };

    MajorityLocation {
        country,
        votes,
        coord,
    }
}

/// Scoring a database against the majority vs against the ground truth.
#[derive(Debug, Clone)]
pub struct MajorityComparison {
    /// Database name.
    pub database: String,
    /// Addresses with both a database answer and a majority country.
    pub scored: usize,
    /// Agreement with the majority's country.
    pub agrees_with_majority: usize,
    /// Correct per the actual ground truth (same population).
    pub correct_per_truth: usize,
    /// Addresses where the database agrees with the majority **and** both
    /// are wrong — the blind spot majority-vote evaluation cannot see.
    pub agree_but_wrong: usize,
}

impl MajorityComparison {
    /// Apparent accuracy under majority-vote methodology.
    pub fn apparent_accuracy(&self) -> f64 {
        ratio(self.agrees_with_majority, self.scored)
    }

    /// True accuracy on the same population.
    pub fn true_accuracy(&self) -> f64 {
        ratio(self.correct_per_truth, self.scored)
    }

    /// How much majority-vote evaluation overstates accuracy.
    pub fn overstatement(&self) -> f64 {
        self.apparent_accuracy() - self.true_accuracy()
    }
}

/// Score every database of a view both ways over the ground-truth
/// addresses, the view's rows corresponding 1:1 (in order) to
/// `gt.entries`.
pub fn compare_against_majority(view: &ResolvedView, gt: &GroundTruth) -> Vec<MajorityComparison> {
    view.expect_entries(gt.entries.len());
    let mut out: Vec<MajorityComparison> = view
        .databases()
        .iter()
        .map(|name| MajorityComparison {
            database: name.clone(),
            scored: 0,
            agrees_with_majority: 0,
            correct_per_truth: 0,
            agree_but_wrong: 0,
        })
        .collect();

    for (row, e) in gt.entries.iter().enumerate() {
        let majority = majority_location(view, row);
        let Some(maj_cc) = majority.country else {
            continue;
        };
        for (d, score) in out.iter_mut().enumerate() {
            let Some(cc) = view.record(d, row).and_then(|r| r.country) else {
                continue;
            };
            score.scored += 1;
            let agrees = cc == maj_cc;
            let correct = cc == e.country;
            if agrees {
                score.agrees_with_majority += 1;
            }
            if correct {
                score.correct_per_truth += 1;
            }
            if agrees && !correct {
                score.agree_but_wrong += 1;
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
    use routergeo_db::inmem::{InMemoryDb, InMemoryDbBuilder};
    use routergeo_db::{Granularity, LocationRecord};
    use routergeo_geo::Rir;

    fn db(name: &str, cc: &str, lat: f64) -> InMemoryDb {
        let mut b = InMemoryDbBuilder::new(name);
        b.push_prefix(
            "6.0.0.0/24".parse().unwrap(),
            LocationRecord {
                country: Some(cc.parse().unwrap()),
                region: None,
                city: Some("X".into()),
                coord: Some(Coordinate::new(lat, -100.0).unwrap()),
                granularity: Granularity::Block24,
            },
        );
        b.build().unwrap()
    }

    fn gt(cc: &str) -> GroundTruth {
        GroundTruth {
            entries: vec![GtEntry {
                ip: "6.0.0.1".parse().unwrap(),
                coord: Coordinate::new(55.0, -100.0).unwrap(),
                country: cc.parse().unwrap(),
                rir: Some(Rir::Arin),
                method: GtMethod::DnsBased,
                domain: None,
            }],
            overlap: vec![],
            degraded: vec![],
        }
    }

    #[test]
    fn plurality_country_wins() {
        let dbs = vec![
            db("a", "US", 40.0),
            db("b", "US", 40.1),
            db("c", "CA", 55.0),
        ];
        let m = majority_location(&test_view(&dbs, ["6.0.0.1".parse().unwrap()]), 0);
        assert_eq!(m.country.unwrap().as_str(), "US");
        assert_eq!(m.votes, 2);
        // Medoid of the two co-located US answers.
        let c = m.coord.unwrap();
        assert!((c.lat() - 40.0).abs() < 0.2);
    }

    #[test]
    fn ties_produce_no_majority() {
        let dbs = vec![db("a", "US", 40.0), db("b", "CA", 55.0)];
        let m = majority_location(&test_view(&dbs, ["6.0.0.1".parse().unwrap()]), 0);
        assert_eq!(m.country, None);
    }

    #[test]
    fn missing_records_do_not_vote() {
        let empty = InMemoryDbBuilder::new("empty").build().unwrap();
        let dbs = vec![db("a", "US", 40.0), empty];
        let m = majority_location(&test_view(&dbs, ["6.0.0.1".parse().unwrap()]), 0);
        assert_eq!(m.country.unwrap().as_str(), "US");
        assert_eq!(m.votes, 1);
    }

    #[test]
    fn majority_can_be_confidently_wrong() {
        // Three databases copy the same wrong registry answer (US); the
        // truth is Canada. Majority methodology scores them 100%;
        // ground-truth methodology scores them 0%.
        let dbs = vec![
            db("a", "US", 40.0),
            db("b", "US", 40.0),
            db("c", "US", 40.1),
        ];
        let truth = gt("CA");
        let cmp =
            compare_against_majority(&test_view(&dbs, truth.entries.iter().map(|e| e.ip)), &truth);
        for c in &cmp {
            assert_eq!(c.apparent_accuracy(), 1.0, "{c:?}");
            assert_eq!(c.true_accuracy(), 0.0);
            assert_eq!(c.agree_but_wrong, 1);
            assert_eq!(c.overstatement(), 1.0);
        }
    }

    #[test]
    fn dissenter_scores_worse_under_majority_even_when_right() {
        // Two wrong databases outvote the one correct one: the correct
        // database gets a *lower* apparent accuracy than the wrong ones.
        let dbs = vec![
            db("a", "US", 40.0),
            db("b", "US", 40.0),
            db("c", "CA", 55.0),
        ];
        let truth = gt("CA");
        let cmp =
            compare_against_majority(&test_view(&dbs, truth.entries.iter().map(|e| e.ip)), &truth);
        assert_eq!(cmp[2].apparent_accuracy(), 0.0); // right but outvoted
        assert_eq!(cmp[2].true_accuracy(), 1.0);
        assert_eq!(cmp[0].apparent_accuracy(), 1.0); // wrong but conformist
        assert_eq!(cmp[0].true_accuracy(), 0.0);
    }
}
