//! RTT-proximity ground truth (§2.3.2) and probe quality assurance (§3.2).
//!
//! The method: a hop observed with RTT below 0.5 ms is physically within
//! 50 km of the probe — "likely much less due to inflation" — so the hop's
//! interface can be credited with the probe's location at city accuracy.
//! The catch: probe locations are crowdsourced and sometimes wrong, so the
//! paper disqualifies probes two ways before trusting them:
//!
//! 1. **Default-centroid check** — probes registered within 5 km of their
//!    country's default coordinates are suspect (locations were never
//!    really filled in); all their addresses are dropped.
//! 2. **RTT-nearby consistency** — two probes both within 50 km of the
//!    same router must be within 100 km of each other. Groups violating
//!    that expose probes with bad locations; prominent offenders are
//!    disqualified and their addresses dropped.
//!
//! [`build_dataset`] runs extraction + QA and returns both the dataset and
//! a [`QaReport`] whose counters line up with §3.2's narrative numbers.
//!
//! [`cbg`] adds the delay-based alternative the paper's introduction
//! mentions: constraint-based geolocation over the same probe fleet.

pub mod cbg;
pub mod dataset;
pub mod proximity;
pub mod qa;

pub use cbg::{estimate as cbg_estimate, CbgEstimate, Constraint};
pub use dataset::{RttEntry, RttProximityDataset};
pub use proximity::{extract_candidates, CandidateSet, ProximityConfig};
pub use qa::{build_dataset, QaReport};
