//! DNS-based router geolocation: the DRoP substrate (§2.3.1).
//!
//! Huffaker et al.'s DRoP geolocates routers by decoding location hints in
//! their hostnames — airport codes, CLLI codes, city names — using a hint
//! dictionary and domain-specific rules. The paper builds its DNS ground
//! truth from the seven domains whose rules were confirmed by the
//! operators themselves.
//!
//! This crate implements the whole pipeline against the synthetic world:
//!
//! * [`hostname`] — the generative side: deterministic per-interface
//!   hostnames following each operator's convention ([`hostname::rdns`]
//!   plays the role of a reverse-DNS lookup).
//! * [`dict`] — the hint dictionary: location token → city, built from the
//!   world's cities (airport codes, CLLI codes, city names).
//! * [`rules`] — the decoding side: per-domain rules ([`rules::RuleEngine`],
//!   the DRoP analog, using operator-confirmed rules for the seven
//!   ground-truth domains) plus a greedy generic decoder
//!   ([`rules::GenericDecoder`]) modeling a vendor that mines hints from
//!   *any* domain without authoritative rules.
//! * [`churn`] — hostname churn over time (§3.1): interfaces are
//!   reassigned, renamed, or lose their rDNS, sometimes carrying stale
//!   location hints.
//! * [`infer`] — DRoP's rule *inference*: learn per-domain rules from
//!   hostnames with independently known locations, the process that built
//!   the 1,398-domain rule base the paper draws its seven confirmed
//!   domains from.

pub mod churn;
pub mod dict;
pub mod hostname;
pub mod infer;
pub mod rules;

pub use churn::{ChurnConfig, ChurnModel, ChurnOutcome};
pub use dict::HintDictionary;
pub use hostname::rdns;
pub use infer::{infer_rules, InferenceConfig, InferredRule, TrainingSample};
pub use rules::{DomainRule, GenericDecoder, HintKind, RuleEngine};
