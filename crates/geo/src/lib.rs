//! Geographic primitives for the `routergeo` workspace.
//!
//! This crate provides the foundational vocabulary used everywhere else in
//! the reproduction of *"A Look at Router Geolocation in Public and
//! Commercial Databases"* (IMC 2017):
//!
//! * [`Coordinate`] — a validated WGS84 latitude/longitude pair.
//! * [`distance`] — great-circle (haversine) distance, destination-point
//!   computation, and the RTT → distance bound used by the paper's
//!   0.5 ms RTT-proximity threshold (§2.3.2).
//! * [`CountryCode`] / [`country`] — ISO 3166-1 alpha-2/alpha-3 codes and an
//!   embedded table of countries with centroids ("default country
//!   coordinates", §3.2), approximate radii, RIR membership, and router
//!   density weights used by the synthetic world generator.
//! * [`Rir`] — the five regional Internet registries the paper breaks
//!   results down by (Figure 3, Figure 5).
//! * [`cdf`] — empirical CDFs matching the distance-distribution figures
//!   (Figures 1, 2, 5).
//! * [`stats`] — small statistics helpers (percentiles, log-scale
//!   histograms) used when rendering figures as text.
//!
//! Everything here is plain data + math: no I/O, no randomness.

pub mod cdf;
pub mod coord;
pub mod country;
pub mod distance;
pub mod rir;
pub mod stats;

pub use cdf::EmpiricalCdf;
pub use coord::{Coordinate, CoordinateError};
pub use country::{CountryCode, CountryInfo};
pub use distance::{haversine_km, rtt_to_max_distance_km, EARTH_RADIUS_KM};
pub use rir::Rir;

/// The city-range threshold from the paper's methodology (§4).
///
/// Two coordinates within this distance are considered "the same city".
/// The paper validates the choice by showing that coordinates assigned to the
/// same city by any two databases — and by databases vs the GeoNames
/// gazetteer — fall within 40 km more than 99% of the time.
pub const CITY_RANGE_KM: f64 = 40.0;
