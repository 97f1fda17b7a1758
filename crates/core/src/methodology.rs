//! The §4 methodology checks.
//!
//! Before trusting 40 km as "same city", the paper verifies two things
//! over the Ark address set:
//!
//! 1. databases put a city's coordinates within 40 km of the GeoNames
//!    gazetteer entry for that (city, region, country) more than 99% of
//!    the time — i.e. records with city names really carry city-level
//!    coordinates;
//! 2. any two databases place *the same city name* within 40 km of each
//!    other more than 99% of the time — so coordinate comparison is a
//!    sound substitute for city-name comparison.
//!
//! Both checks read the answers of one [`ResolvedView`] and compare city
//! names by interner id. An id names the same city in every column only
//! because a view's databases share its one interner, so the columns
//! must come from one view.

use crate::resolve::ResolvedView;
use routergeo_gazetteer::Gazetteer;
use routergeo_geo::stats::ratio;
use routergeo_geo::{Coordinate, CountryCode, CITY_RANGE_KM};
use std::collections::HashMap;

/// Result of the §4 sanity checks.
#[derive(Debug, Clone)]
pub struct MethodologyReport {
    /// Per database: (name, city records checked against the gazetteer,
    /// matches within the city range).
    pub gazetteer_check: Vec<(String, usize, usize)>,
    /// Per database pair: (name a, name b, shared city names compared,
    /// pairs within the city range).
    pub cross_db_check: Vec<(String, String, usize, usize)>,
}

impl MethodologyReport {
    /// Worst per-database gazetteer agreement fraction.
    pub fn min_gazetteer_agreement(&self) -> f64 {
        self.gazetteer_check
            .iter()
            .map(|(_, total, ok)| ratio(*ok, *total))
            .fold(1.0, f64::min)
    }

    /// Worst cross-database same-city agreement fraction.
    pub fn min_cross_db_agreement(&self) -> f64 {
        self.cross_db_check
            .iter()
            .map(|(_, _, total, ok)| ratio(*ok, *total))
            .fold(1.0, f64::min)
    }
}

/// Run both checks over the addresses of a view.
pub fn methodology_checks(view: &ResolvedView, gazetteer: &Gazetteer) -> MethodologyReport {
    // Each database's city coordinate table as observed through its
    // answers: (city id, country) → the first coordinate seen.
    let per_db_cities: Vec<HashMap<(u32, CountryCode), Coordinate>> = (0..view.db_count())
        .map(|d| {
            let mut cities = HashMap::new();
            for rec in view.column(d).iter().flatten() {
                if let (Some(city), Some(country), Some(coord)) =
                    (rec.city_id, rec.country, rec.coord)
                {
                    cities.entry((city, country)).or_insert(coord);
                }
            }
            cities
        })
        .collect();

    // Check 1: vs the gazetteer.
    let mut gazetteer_check = Vec::new();
    for (name, cities) in view.databases().iter().zip(&per_db_cities) {
        let mut total = 0usize;
        let mut ok = 0usize;
        for ((city, country), coord) in cities {
            let city = view
                .interner()
                .resolve(*city)
                .expect("city ids are interned");
            if let Some(entry) = gazetteer.lookup(city, None, *country) {
                total += 1;
                if coord.distance_km(&entry.coord) <= CITY_RANGE_KM {
                    ok += 1;
                }
            }
        }
        gazetteer_check.push((name.clone(), total, ok));
    }

    // Check 2: same city name across database pairs.
    let mut cross_db_check = Vec::new();
    let names = view.databases();
    for i in 0..names.len() {
        for j in i + 1..names.len() {
            let mut total = 0usize;
            let mut ok = 0usize;
            for (key, coord_a) in &per_db_cities[i] {
                if let Some(coord_b) = per_db_cities[j].get(key) {
                    total += 1;
                    if coord_a.distance_km(coord_b) <= CITY_RANGE_KM {
                        ok += 1;
                    }
                }
            }
            cross_db_check.push((names[i].clone(), names[j].clone(), total, ok));
        }
    }

    MethodologyReport {
        gazetteer_check,
        cross_db_check,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::test_view;
    use routergeo_db::synth::{build_vendor, SignalWorld, VendorProfile};
    use routergeo_world::{World, WorldConfig};

    #[test]
    fn synthetic_vendors_pass_the_paper_checks() {
        let w = World::generate(WorldConfig::tiny(211));
        let signals = SignalWorld::new(&w);
        let dbs: Vec<_> = VendorProfile::all_presets()
            .iter()
            .map(|p| build_vendor(&signals, p))
            .collect();
        let gazetteer = Gazetteer::from_world(&w, 3, 3.0);
        let ips = w.interfaces.iter().step_by(3).map(|i| i.ip);
        let report = methodology_checks(&test_view(&dbs, ips), &gazetteer);

        assert_eq!(report.gazetteer_check.len(), 4);
        assert_eq!(report.cross_db_check.len(), 6);
        for (name, total, _) in &report.gazetteer_check {
            assert!(*total > 50, "{name} checked only {total} cities");
        }
        // The paper's ">99% within 40 km" both ways.
        assert!(
            report.min_gazetteer_agreement() > 0.99,
            "gazetteer agreement {}",
            report.min_gazetteer_agreement()
        );
        assert!(
            report.min_cross_db_agreement() > 0.99,
            "cross-db agreement {}",
            report.min_cross_db_agreement()
        );
    }

    #[test]
    fn empty_inputs_are_harmless() {
        let w = World::generate(WorldConfig::tiny(212));
        let gazetteer = Gazetteer::from_world(&w, 3, 3.0);
        let dbs: Vec<routergeo_db::InMemoryDb> = vec![];
        let report = methodology_checks(&test_view(&dbs, []), &gazetteer);
        assert!(report.gazetteer_check.is_empty());
        assert_eq!(report.min_gazetteer_agreement(), 1.0);
    }
}
