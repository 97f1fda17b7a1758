//! The paper's contribution as a reusable library: a router-geolocation
//! evaluation harness.
//!
//! Given a world (the oracle), a set of geolocation databases, and the two
//! ground-truth pipelines, this crate computes every quantity the paper
//! reports:
//!
//! * [`groundtruth`] — builds the DNS-based (§2.3.1) and RTT-proximity
//!   (§2.3.2) ground-truth datasets and their Table 1 statistics.
//! * [`validation`] — the ground-truth correctness analysis of §3:
//!   cross-dataset agreement and hostname churn.
//! * [`resolve`] — the resolve-once lookup engine: every (IP, database)
//!   pair answered exactly once into a columnar
//!   [`ResolvedView`](resolve::ResolvedView) that the coverage,
//!   consistency, and accuracy analyses share.
//! * [`coverage`] — country-/city-level coverage over an address set
//!   (§5.1, §5.2.1).
//! * [`consistency`] — pairwise database agreement and the Figure 1
//!   distance CDFs (§5.1).
//! * [`accuracy`] — evaluation against ground truth: Figure 2 error CDFs,
//!   Figure 3 per-RIR country accuracy, Figure 4 per-country accuracy,
//!   Figure 5 per-RIR city error CDFs, and the per-method split of §5.2.4.
//! * [`arin_case`] — the §5.2.3 ARIN case study.
//! * [`methodology`] — the §4 sanity checks (database city coordinates vs
//!   the gazetteer; same-city coordinates across databases).
//! * [`hloc`] — HLOC-style hint verification (related work): confirm or
//!   refute DNS hints with latency constraints, catching stale hostnames.
//! * [`majority`] — the majority-vote methodology of the prior work the
//!   paper contrasts against (§7), quantifying how much "agreement"
//!   overstates accuracy.
//! * [`endpoint`] — the §8 router-vs-endpoint comparison: databases
//!   geolocate end hosts better than routers.
//! * [`recommend`] — the §6 recommendation engine, driven by the computed
//!   metrics rather than hard-coded conclusions.
//! * [`report`] — fixed-width text tables and CSV rendering for the
//!   benchmark harness.

pub mod accuracy;
pub mod arin_case;
pub mod consistency;
pub mod coverage;
pub mod endpoint;
pub mod groundtruth;
pub mod hloc;
pub mod majority;
pub mod methodology;
pub mod recommend;
pub mod report;
pub mod resolve;
pub mod validation;

pub use accuracy::{AccuracyReport, VendorAccuracy};
pub use consistency::ConsistencyReport;
pub use coverage::CoverageReport;
pub use groundtruth::{GroundTruth, GtEntry, GtMethod};
pub use resolve::ResolvedView;
