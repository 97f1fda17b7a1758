//! Database snapshot comparison.
//!
//! Vendors re-release their databases continuously; the paper accessed
//! each database twice, ~50 days apart, and argued the drift could not
//! affect its conclusions (§5.2). This module measures drift directly:
//! compare two snapshots' answer columns over an address set and
//! classify every answer pair.
//!
//! Answers are [`CompactRecord`]s, whose region and city names compare
//! by interner id. Ids name the same string only within one interner,
//! so both columns must come from one resolved view (or otherwise share
//! one interner).

use crate::CompactRecord;
use routergeo_geo::stats::ratio;
use routergeo_geo::{EmpiricalCdf, CITY_RANGE_KM};

/// How one address's answer changed between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnswerChange {
    /// Identical records.
    Unchanged,
    /// Record appeared (no record → some record).
    Added,
    /// Record disappeared.
    Removed,
    /// Country changed.
    CountryChanged,
    /// Same country, city answer moved beyond the city range.
    CityMoved,
    /// Same country, answer changed within the city range (coordinate
    /// refresh, resolution change, region rename, …).
    MinorChange,
}

/// Drift report between two snapshots of one database.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Name of the (old) database.
    pub database: String,
    /// Addresses compared.
    pub total: usize,
    /// Count per change class.
    pub unchanged: usize,
    /// Records that appeared.
    pub added: usize,
    /// Records that disappeared.
    pub removed: usize,
    /// Country flips.
    pub country_changed: usize,
    /// City-level moves beyond the city range.
    pub city_moved: usize,
    /// Changes within the city range.
    pub minor: usize,
    /// Distance distribution of coordinate moves (only pairs where both
    /// snapshots have coordinates).
    pub move_cdf: EmpiricalCdf,
}

impl DiffReport {
    /// Fraction of addresses whose answer is materially different
    /// (country flip or >40 km move).
    pub fn material_change_rate(&self) -> f64 {
        ratio(self.country_changed + self.city_moved, self.total)
    }

    /// Fraction with any change at all.
    pub fn any_change_rate(&self) -> f64 {
        ratio(self.total - self.unchanged, self.total)
    }
}

/// Classify one address's answers in two snapshots. Both answers must
/// draw their names from one interner.
pub fn classify(
    old: Option<CompactRecord>,
    new: Option<CompactRecord>,
) -> (AnswerChange, Option<f64>) {
    match (old, new) {
        (None, None) => (AnswerChange::Unchanged, None),
        (None, Some(_)) => (AnswerChange::Added, None),
        (Some(_), None) => (AnswerChange::Removed, None),
        (Some(a), Some(b)) => {
            let moved = match (a.coord, b.coord) {
                (Some(ca), Some(cb)) => Some(ca.distance_km(&cb)),
                _ => None,
            };
            if a == b {
                return (AnswerChange::Unchanged, moved);
            }
            if a.country != b.country {
                return (AnswerChange::CountryChanged, moved);
            }
            match moved {
                Some(d) if d > CITY_RANGE_KM => (AnswerChange::CityMoved, moved),
                _ => (AnswerChange::MinorChange, moved),
            }
        }
    }
}

/// Diff the answer columns of two snapshots of `database` over the same
/// addresses. Both columns must draw their names from one interner.
pub fn diff_answers(
    database: &str,
    old: impl IntoIterator<Item = Option<CompactRecord>>,
    new: impl IntoIterator<Item = Option<CompactRecord>>,
) -> DiffReport {
    let mut report = DiffReport {
        database: database.to_string(),
        total: 0,
        unchanged: 0,
        added: 0,
        removed: 0,
        country_changed: 0,
        city_moved: 0,
        minor: 0,
        move_cdf: EmpiricalCdf::from_iter_lossy(std::iter::empty()).0,
    };
    let mut moves = Vec::new();
    for (a, b) in old.into_iter().zip(new) {
        report.total += 1;
        let (change, moved) = classify(a, b);
        if let Some(d) = moved {
            if d > 0.0 {
                moves.push(d);
            }
        }
        match change {
            AnswerChange::Unchanged => report.unchanged += 1,
            AnswerChange::Added => report.added += 1,
            AnswerChange::Removed => report.removed += 1,
            AnswerChange::CountryChanged => report.country_changed += 1,
            AnswerChange::CityMoved => report.city_moved += 1,
            AnswerChange::MinorChange => report.minor += 1,
        }
    }
    // Move distances are great-circle computations over validated
    // coordinates and cannot be NaN; the drop count is structurally 0.
    report.move_cdf = EmpiricalCdf::from_iter_lossy(moves).0;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inmem::{InMemoryDb, InMemoryDbBuilder};
    use crate::record::{Granularity, LocationRecord};
    use crate::synth::{build_vendor, SignalWorld, VendorId, VendorProfile};
    use crate::{GeoDatabase, LocationInterner};
    use routergeo_geo::Coordinate;
    use routergeo_world::{World, WorldConfig};
    use std::net::Ipv4Addr;

    /// Diff two snapshots over `ips`, their answers interned into one
    /// interner as a resolved view's columns are.
    fn diff(old: &InMemoryDb, new: &InMemoryDb, ips: &[Ipv4Addr]) -> DiffReport {
        let mut interner = LocationInterner::new();
        let a = old.lookup_batch(ips, &mut interner);
        let b = new.lookup_batch(ips, &mut interner);
        diff_answers(old.name(), a, b)
    }

    fn rec(cc: &str, lat: f64) -> LocationRecord {
        LocationRecord {
            country: Some(cc.parse().unwrap()),
            region: None,
            city: Some("X".into()),
            coord: Some(Coordinate::new(lat, 0.0).unwrap()),
            granularity: Granularity::Block24,
        }
    }

    #[test]
    fn classification_covers_all_cases() {
        let mut a = InMemoryDbBuilder::new("old");
        a.push_prefix("6.0.0.0/24".parse().unwrap(), rec("US", 40.0));
        a.push_prefix("6.0.1.0/24".parse().unwrap(), rec("US", 40.0));
        a.push_prefix("6.0.2.0/24".parse().unwrap(), rec("US", 40.0));
        a.push_prefix("6.0.3.0/24".parse().unwrap(), rec("US", 40.0));
        let a = a.build().unwrap();
        let mut b = InMemoryDbBuilder::new("new");
        b.push_prefix("6.0.0.0/24".parse().unwrap(), rec("US", 40.0)); // unchanged
        b.push_prefix("6.0.1.0/24".parse().unwrap(), rec("CA", 55.0)); // country flip
        b.push_prefix("6.0.2.0/24".parse().unwrap(), rec("US", 41.0)); // ~111 km move
                                                                       // 6.0.3.0/24 removed
        b.push_prefix("6.0.4.0/24".parse().unwrap(), rec("US", 40.0)); // added
        let b = b.build().unwrap();

        let ips: Vec<Ipv4Addr> = (0..=4)
            .map(|i| format!("6.0.{i}.9").parse().unwrap())
            .collect();
        let report = diff(&a, &b, &ips);
        assert_eq!(report.unchanged, 1);
        assert_eq!(report.country_changed, 1);
        assert_eq!(report.city_moved, 1);
        assert_eq!(report.removed, 1);
        assert_eq!(report.added, 1);
        assert!((report.material_change_rate() - 0.4).abs() < 1e-12);
        assert!((report.any_change_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn minor_change_stays_within_city_range() {
        let mut a = InMemoryDbBuilder::new("old");
        a.push_prefix("6.0.0.0/24".parse().unwrap(), rec("US", 40.0));
        let a = a.build().unwrap();
        let mut b = InMemoryDbBuilder::new("new");
        b.push_prefix("6.0.0.0/24".parse().unwrap(), rec("US", 40.1)); // ~11 km
        let b = b.build().unwrap();
        let mut interner = LocationInterner::new();
        let ip = ["6.0.0.1".parse().unwrap()];
        let (change, moved) = classify(
            a.lookup_batch(&ip, &mut interner)[0],
            b.lookup_batch(&ip, &mut interner)[0],
        );
        assert_eq!(change, AnswerChange::MinorChange);
        assert!(moved.unwrap() < CITY_RANGE_KM);
    }

    #[test]
    fn epoch_drift_is_small_per_step() {
        // The §5.2 argument: one release cycle moves few answers.
        let w = World::generate(WorldConfig::tiny(501));
        let signals = SignalWorld::new(&w);
        let base = VendorProfile::preset(VendorId::MaxMindPaid);
        let old = build_vendor(&signals, &base);
        let new = build_vendor(&signals, &base.clone().at_epoch(1));
        let ips: Vec<Ipv4Addr> = w.interfaces.iter().map(|i| i.ip).collect();
        let report = diff(&old, &new, &ips);
        let rate = report.material_change_rate();
        assert!(rate > 0.0, "epochs changed nothing");
        assert!(rate < 0.05, "one epoch moved {rate} of answers");
        // Epoch 0 vs itself: identical.
        let same = diff(&old, &build_vendor(&signals, &base), &ips);
        assert_eq!(same.any_change_rate(), 0.0);
    }

    #[test]
    fn epoch_drift_accumulates() {
        let w = World::generate(WorldConfig::tiny(502));
        let signals = SignalWorld::new(&w);
        let base = VendorProfile::preset(VendorId::NetAcuity);
        let old = build_vendor(&signals, &base);
        let ips: Vec<Ipv4Addr> = w.interfaces.iter().step_by(3).map(|i| i.ip).collect();
        let one = diff(
            &old,
            &build_vendor(&signals, &base.clone().at_epoch(1)),
            &ips,
        );
        let five = diff(
            &old,
            &build_vendor(&signals, &base.clone().at_epoch(5)),
            &ips,
        );
        assert!(
            five.any_change_rate() > one.any_change_rate(),
            "five epochs ({}) should drift more than one ({})",
            five.any_change_rate(),
            one.any_change_rate()
        );
    }
}
