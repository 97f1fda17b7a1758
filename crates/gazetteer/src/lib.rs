//! GeoNames-like city gazetteer (§4).
//!
//! The paper cross-checks each database's city coordinates against the
//! third-party GeoNames gazetteer — matching on (city name, region,
//! country) because city names collide — and finds the coordinates agree
//! within 40 km more than 99% of the time, confirming the databases assign
//! genuine city-level coordinates.
//!
//! The synthetic gazetteer is built from the world's cities with a small
//! independent coordinate offset, because a third-party geographical
//! database never agrees to the metre with a geolocation vendor: each
//! source digitizes "the" city point differently.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routergeo_geo::distance::destination;
use routergeo_geo::{Coordinate, CountryCode};
use routergeo_world::World;
use std::collections::HashMap;

/// One gazetteer row.
#[derive(Debug, Clone)]
pub struct GazetteerEntry {
    /// City name as published.
    pub name: String,
    /// Admin region label.
    pub region: String,
    /// Country.
    pub country: CountryCode,
    /// The gazetteer's coordinates for the city.
    pub coord: Coordinate,
}

/// A searchable gazetteer.
#[derive(Debug, Clone)]
pub struct Gazetteer {
    entries: Vec<GazetteerEntry>,
    /// (lower-case name, country) → entry indices (name collisions are
    /// disambiguated by region).
    index: HashMap<(String, CountryCode), Vec<u32>>,
}

impl Gazetteer {
    /// Build from a world, offsetting every coordinate by up to
    /// `max_offset_km` (GeoNames and a vendor rarely agree exactly).
    pub fn from_world(world: &World, seed: u64, max_offset_km: f64) -> Gazetteer {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6A2E);
        let mut entries = Vec::with_capacity(world.cities.len());
        let mut index: HashMap<(String, CountryCode), Vec<u32>> = HashMap::new();
        for city in &world.cities {
            let bearing = rng.gen_range(0.0..360.0);
            let dist = max_offset_km * rng.gen::<f64>().sqrt();
            let coord = destination(&city.coord, bearing, dist);
            let idx = entries.len() as u32;
            entries.push(GazetteerEntry {
                name: city.name.clone(),
                region: city.region.clone(),
                country: city.country,
                coord,
            });
            index
                .entry((city.name.to_ascii_lowercase(), city.country))
                .or_default()
                .push(idx);
        }
        Gazetteer { entries, index }
    }

    /// Build directly from rows — for importing external gazetteers (and
    /// for testing name-collision handling, which `from_world` cannot
    /// produce because the generator keeps names unique).
    pub fn from_entries(entries: Vec<GazetteerEntry>) -> Gazetteer {
        let mut index: HashMap<(String, CountryCode), Vec<u32>> = HashMap::new();
        for (i, e) in entries.iter().enumerate() {
            index
                .entry((e.name.to_ascii_lowercase(), e.country))
                .or_default()
                .push(i as u32);
        }
        Gazetteer { entries, index }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the gazetteer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a city by name and country, using `region` to disambiguate
    /// homonyms when provided. Returns the unique match, or `None` when
    /// unknown or ambiguous.
    pub fn lookup(
        &self,
        name: &str,
        region: Option<&str>,
        country: CountryCode,
    ) -> Option<&GazetteerEntry> {
        let hits = self.index.get(&(name.to_ascii_lowercase(), country))?;
        match hits.len() {
            0 => None,
            1 => Some(&self.entries[hits[0] as usize]),
            _ => {
                let region = region?;
                let matching: Vec<&GazetteerEntry> = hits
                    .iter()
                    .map(|i| &self.entries[*i as usize])
                    .filter(|e| e.region.eq_ignore_ascii_case(region))
                    .collect();
                (matching.len() == 1).then(|| matching[0])
            }
        }
    }

    /// Iterate all rows.
    pub fn iter(&self) -> impl Iterator<Item = &GazetteerEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_world::WorldConfig;

    fn setup() -> (World, Gazetteer) {
        let w = World::generate(WorldConfig::tiny(121));
        let g = Gazetteer::from_world(&w, 9, 3.0);
        (w, g)
    }

    #[test]
    fn covers_every_city_within_offset() {
        let (w, g) = setup();
        assert_eq!(g.len(), w.cities.len());
        for city in &w.cities {
            let e = g
                .lookup(&city.name, Some(&city.region), city.country)
                .unwrap_or_else(|| panic!("missing {}", city.name));
            let d = e.coord.distance_km(&city.coord);
            assert!(d <= 3.5, "{} offset {d} km", city.name);
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let (w, g) = setup();
        let city = &w.cities[0];
        assert!(g
            .lookup(&city.name.to_ascii_uppercase(), None, city.country)
            .is_some());
    }

    #[test]
    fn unknown_city_misses() {
        let (w, g) = setup();
        assert!(g.lookup("Atlantis", None, w.cities[0].country).is_none());
    }

    #[test]
    fn wrong_country_misses() {
        let (w, g) = setup();
        let city = &w.cities[0];
        let other = w.cities.iter().find(|c| c.country != city.country).unwrap();
        assert!(g.lookup(&city.name, None, other.country).is_none());
    }

    #[test]
    fn homonyms_require_region_disambiguation() {
        // Two "Springfield"s in the same country — the real-world case the
        // (name, region, country) matching exists for.
        let us: CountryCode = "US".parse().unwrap();
        let mk = |region: &str, lat: f64| GazetteerEntry {
            name: "Springfield".into(),
            region: region.into(),
            country: us,
            coord: Coordinate::new(lat, -90.0).unwrap(),
        };
        let g = Gazetteer::from_entries(vec![mk("Illinois", 39.8), mk("Missouri", 37.2)]);
        // Without a region the lookup is ambiguous.
        assert!(g.lookup("Springfield", None, us).is_none());
        // With a region it resolves.
        let il = g.lookup("Springfield", Some("Illinois"), us).unwrap();
        assert!((il.coord.lat() - 39.8).abs() < 1e-9);
        let mo = g.lookup("springfield", Some("missouri"), us).unwrap();
        assert!((mo.coord.lat() - 37.2).abs() < 1e-9);
        // Unknown region: still ambiguous.
        assert!(g.lookup("Springfield", Some("Ohio"), us).is_none());
    }

    #[test]
    fn deterministic() {
        let w = World::generate(WorldConfig::tiny(122));
        let a = Gazetteer::from_world(&w, 5, 3.0);
        let b = Gazetteer::from_world(&w, 5, 3.0);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.coord, y.coord);
        }
        let c = Gazetteer::from_world(&w, 6, 3.0);
        let moved = a
            .iter()
            .zip(c.iter())
            .filter(|(x, y)| x.coord != y.coord)
            .count();
        assert!(moved > 0);
    }
}
