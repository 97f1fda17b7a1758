//! `routergeo` — umbrella crate for the reproduction of
//! *"A Look at Router Geolocation in Public and Commercial Databases"*
//! (Gharaibeh et al., IMC 2017).
//!
//! This crate re-exports the workspace members under stable module names so
//! examples and downstream users need a single dependency:
//!
//! ```
//! use routergeo::geo::Coordinate;
//! let nyc = Coordinate::new(40.7128, -74.0060).unwrap();
//! let sfo = Coordinate::new(37.7749, -122.4194).unwrap();
//! assert!(nyc.distance_km(&sfo) > 4000.0);
//! ```
//!
//! See `DESIGN.md` at the repository root for the full system inventory and
//! the per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results.

pub use routergeo_core as core;
pub use routergeo_cymru as cymru;
pub use routergeo_db as db;
pub use routergeo_dns as dns;
pub use routergeo_gazetteer as gazetteer;
pub use routergeo_geo as geo;
pub use routergeo_net as net;
pub use routergeo_pool as pool;
pub use routergeo_rtt as rtt;
pub use routergeo_trace as trace;
pub use routergeo_world as world;
