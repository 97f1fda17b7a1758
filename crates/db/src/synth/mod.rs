#![allow(
    clippy::cast_possible_truncation,
    reason = "deterministic hash-mixing over block/city IDs truncates integers by design; \
              these casts never feed the RGDB or trie lookup paths"
)]

//! Synthetic vendor databases.
//!
//! Each vendor derives a per-/24 record from four modeled signals — the
//! causes the paper identifies for database behaviour:
//!
//! 1. **Registry data** (shared): the allocating org's country and HQ
//!    city. Free and complete, but wrong whenever a multinational deploys
//!    a block outside its registry country — the §5.2.3 mechanism that
//!    pulls non-US ARIN routers to the US, and the "common incorrect
//!    source" behind the three registry-fed databases agreeing on the
//!    same wrong answers (§5.2.2).
//! 2. **Measurement corpora**: noisy city estimates with per-corpus
//!    quality, better coverage on stub/eyeball blocks than on backbone
//!    blocks (why MaxMind's city coverage is lower over the transit-heavy
//!    ground truth than over the full Ark set). The two MaxMind editions
//!    share one corpus — the paid edition simply sees more of it — which
//!    yields their 99.6% country agreement and 68% identical coordinates.
//! 3. **DNS hostname hints**: only NetAcuity's profile mines them, which
//!    is what §5.2.4 concludes from NetAcuity alone improving on the
//!    DNS-based ground truth.
//! 4. **Vendor city-coordinate tables**: each vendor places "the same"
//!    city slightly differently (within a few km), matching §4's
//!    observation that same-city coordinates across databases stay within
//!    40 km more than 99% of the time.

pub mod build;
pub mod signals;

pub use build::{build_vendor, build_vendor_with};
pub use signals::SignalWorld;

/// The four databases the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VendorId {
    /// IP2Location DB11.Lite (free).
    Ip2LocationLite,
    /// MaxMind GeoLite2 (free).
    MaxMindGeoLite,
    /// MaxMind GeoIP2 (commercial).
    MaxMindPaid,
    /// Digital Element NetAcuity (commercial).
    NetAcuity,
}

impl VendorId {
    /// All four, in the paper's figure order.
    pub const ALL: [VendorId; 4] = [
        VendorId::Ip2LocationLite,
        VendorId::MaxMindGeoLite,
        VendorId::MaxMindPaid,
        VendorId::NetAcuity,
    ];

    /// Display name as the paper abbreviates it.
    pub fn name(&self) -> &'static str {
        match self {
            VendorId::Ip2LocationLite => "IP2Location-Lite",
            VendorId::MaxMindGeoLite => "MaxMind-GeoLite",
            VendorId::MaxMindPaid => "MaxMind-Paid",
            VendorId::NetAcuity => "NetAcuity",
        }
    }
}

impl std::fmt::Display for VendorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which measurement corpus a vendor consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusId {
    /// Shared by both MaxMind editions.
    MaxMind,
    /// IP2Location's own corpus.
    Ip2Location,
    /// NetAcuity's own corpus.
    NetAcuity,
}

impl CorpusId {
    /// Hash salt separating the corpora's random streams.
    pub(crate) fn salt(&self) -> u64 {
        match self {
            CorpusId::MaxMind => 0x4D4D,
            CorpusId::Ip2Location => 0x4950,
            CorpusId::NetAcuity => 0x4E41,
        }
    }

    /// P(estimate points at the true city | estimate exists).
    pub(crate) fn q_correct(&self) -> f64 {
        match self {
            CorpusId::MaxMind => 0.84,
            CorpusId::Ip2Location => 0.68,
            CorpusId::NetAcuity => 0.80,
        }
    }

    /// P(estimate is host-precision | estimate exists) — host-precision
    /// estimates are sub-block granularity and almost always right.
    pub(crate) fn p_host_precision(&self) -> f64 {
        match self {
            CorpusId::MaxMind => 0.22,
            CorpusId::Ip2Location => 0.10,
            CorpusId::NetAcuity => 0.25,
        }
    }

    /// Regional quality multiplier on `q_correct` — models corpora that
    /// are weak in particular registries (IP2Location in APNIC, per the
    /// paper's Figure 3 breakdown).
    pub(crate) fn regional_quality(&self, rir: routergeo_geo::Rir) -> f64 {
        match (self, rir) {
            (CorpusId::Ip2Location, routergeo_geo::Rir::Apnic) => 0.55,
            _ => 1.0,
        }
    }

    /// Quality multiplier by the kind of network measured. Backbone
    /// routers are hard targets (tunnels, anycast, shared infrastructure),
    /// which is why every database's city answers degrade on the paper's
    /// transit-heavy ground truth (§5.2.1 vs §5.2.4).
    pub(crate) fn kind_quality(&self, kind: crate::synth::signals::BlockKind) -> f64 {
        use crate::synth::signals::BlockKind;
        match (self, kind) {
            (_, BlockKind::Stub) => 1.0,
            (CorpusId::NetAcuity, BlockKind::DomesticTransit) => 0.85,
            (_, BlockKind::DomesticTransit) => 0.75,
            (CorpusId::NetAcuity, BlockKind::GlobalTransit) => 0.85,
            (_, BlockKind::GlobalTransit) => 0.72,
        }
    }
}

/// City-resolution publishing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CityPolicy {
    /// Publish a city for (almost) every record, falling back to the
    /// registry HQ city; `p_centroid` of records instead carry a bare
    /// country-centroid coordinate with no city name.
    Always {
        /// Fraction of fallback records emitted as country centroids.
        p_centroid: f64,
    },
    /// Publish a city only with measurement/DNS confidence; registry-only
    /// records keep the city with probability `p_city_from_registry`
    /// (street-address data) and are country-level otherwise.
    Confident {
        /// P(city published | registry-only record).
        p_city_from_registry: f64,
    },
}

/// A vendor's full parameterization.
#[derive(Debug, Clone)]
pub struct VendorProfile {
    /// Which database this models.
    pub id: VendorId,
    /// Measurement corpus consumed.
    pub corpus: CorpusId,
    /// P(corpus covers a stub/edge block).
    pub meas_avail_stub: f64,
    /// P(corpus covers a domestic/regional carrier block).
    pub meas_avail_domestic: f64,
    /// P(corpus covers a global backbone block).
    pub meas_avail_transit: f64,
    /// Whether the vendor mines DNS hostname hints.
    pub uses_dns: bool,
    /// P(a hint-bearing block's hints are in the vendor's DNS corpus).
    pub dns_avail: f64,
    /// P(the mined hint is stale and points at another PoP).
    pub dns_stale: f64,
    /// City publishing policy.
    pub city_policy: CityPolicy,
    /// P(any record exists for a block) — country-level coverage.
    pub record_coverage: f64,
    /// Fraction of measured blocks for which this vendor ships a *stale*
    /// estimate (an older corpus snapshot) — the free MaxMind edition lags
    /// the paid one by an update cycle, which is where their 11.4%
    /// city-level disagreements come from (Figure 1).
    pub corpus_lag: f64,
    /// Salt of the vendor's city-coordinate table (MaxMind editions share
    /// one table).
    pub coord_table_salt: u64,
    /// Share of cities for which this vendor ships the *current* city
    /// coordinates; the rest come from an older revision of the same table
    /// (still within the city, different point) — why only 68% of the two
    /// MaxMind editions' answers are coordinate-identical (§5.1).
    pub coord_table_refresh: f64,
    /// Max offset of the vendor's city coordinates from the true city
    /// centre, km.
    pub coord_jitter_km: f64,
    /// Snapshot epoch. Databases are periodically re-released; each epoch
    /// refreshes the measurement evidence for a fraction of blocks
    /// (`EPOCH_CHURN` per step). Epoch 0 is the snapshot used against the
    /// Ark set; the paper re-accessed the databases ~50 days later for the
    /// ground-truth evaluation (§5.2) and argues the drift is negligible —
    /// an argument the harness can now test.
    pub epoch: u32,
}

/// Fraction of measured blocks whose evidence is refreshed per epoch step.
pub const EPOCH_CHURN: f64 = 0.04;

impl VendorProfile {
    /// The same vendor at a later release epoch.
    pub fn at_epoch(mut self, epoch: u32) -> VendorProfile {
        self.epoch = epoch;
        self
    }

    /// The built-in profile for a database.
    pub fn preset(id: VendorId) -> VendorProfile {
        match id {
            VendorId::Ip2LocationLite => VendorProfile {
                id,
                corpus: CorpusId::Ip2Location,
                meas_avail_stub: 0.52,
                meas_avail_domestic: 0.40,
                meas_avail_transit: 0.15,
                uses_dns: false,
                dns_avail: 0.0,
                dns_stale: 0.0,
                city_policy: CityPolicy::Always { p_centroid: 0.02 },
                record_coverage: 0.9995,
                corpus_lag: 0.0,
                coord_table_salt: 0x1950,
                coord_table_refresh: 1.0,
                coord_jitter_km: 6.0,
                epoch: 0,
            },
            VendorId::MaxMindGeoLite => VendorProfile {
                id,
                corpus: CorpusId::MaxMind,
                meas_avail_stub: 0.55,
                meas_avail_domestic: 0.35,
                meas_avail_transit: 0.15,
                uses_dns: false,
                dns_avail: 0.0,
                dns_stale: 0.0,
                city_policy: CityPolicy::Confident {
                    p_city_from_registry: 0.15,
                },
                record_coverage: 0.993,
                corpus_lag: 0.22,
                coord_table_salt: 0x4D78, // shared with MaxMind-Paid
                coord_table_refresh: 0.85,
                coord_jitter_km: 4.0,
                epoch: 0,
            },
            VendorId::MaxMindPaid => VendorProfile {
                id,
                corpus: CorpusId::MaxMind,
                meas_avail_stub: 0.85,
                meas_avail_domestic: 0.55,
                meas_avail_transit: 0.19,
                uses_dns: false,
                dns_avail: 0.0,
                dns_stale: 0.0,
                city_policy: CityPolicy::Confident {
                    p_city_from_registry: 0.15,
                },
                record_coverage: 0.993,
                corpus_lag: 0.0,
                coord_table_salt: 0x4D78, // shared with MaxMind-GeoLite
                coord_table_refresh: 1.0,
                coord_jitter_km: 4.0,
                epoch: 0,
            },
            VendorId::NetAcuity => VendorProfile {
                id,
                corpus: CorpusId::NetAcuity,
                meas_avail_stub: 0.82,
                meas_avail_domestic: 0.70,
                meas_avail_transit: 0.30,
                uses_dns: true,
                dns_avail: 0.80,
                dns_stale: 0.04,
                city_policy: CityPolicy::Always { p_centroid: 0.004 },
                record_coverage: 0.9998,
                corpus_lag: 0.0,
                coord_table_salt: 0x4E41,
                coord_table_refresh: 1.0,
                coord_jitter_km: 3.0,
                epoch: 0,
            },
        }
    }

    /// All four presets in figure order.
    pub fn all_presets() -> Vec<VendorProfile> {
        VendorId::ALL.iter().map(|id| Self::preset(*id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_exist_for_all_vendors() {
        let all = VendorProfile::all_presets();
        assert_eq!(all.len(), 4);
        for (profile, id) in all.iter().zip(VendorId::ALL) {
            assert_eq!(profile.id, id);
        }
    }

    #[test]
    fn maxmind_editions_share_corpus_and_coord_table() {
        let g = VendorProfile::preset(VendorId::MaxMindGeoLite);
        let p = VendorProfile::preset(VendorId::MaxMindPaid);
        assert_eq!(g.corpus, p.corpus);
        assert_eq!(g.coord_table_salt, p.coord_table_salt);
        // Paid sees strictly more of the shared corpus.
        assert!(p.meas_avail_stub > g.meas_avail_stub);
        assert!(p.meas_avail_transit > g.meas_avail_transit);
        // Same record-coverage stream → same missing blocks.
        assert_eq!(g.record_coverage, p.record_coverage);
    }

    #[test]
    fn only_netacuity_uses_dns() {
        for profile in VendorProfile::all_presets() {
            assert_eq!(profile.uses_dns, profile.id == VendorId::NetAcuity);
        }
    }

    #[test]
    fn stub_coverage_exceeds_transit_coverage() {
        // The mechanism behind lower city coverage on the transit-heavy
        // ground truth than on the full Ark set.
        for profile in VendorProfile::all_presets() {
            assert!(profile.meas_avail_stub > profile.meas_avail_transit);
        }
    }

    #[test]
    fn vendor_names_match_paper() {
        assert_eq!(VendorId::Ip2LocationLite.name(), "IP2Location-Lite");
        assert_eq!(VendorId::MaxMindGeoLite.name(), "MaxMind-GeoLite");
        assert_eq!(VendorId::MaxMindPaid.name(), "MaxMind-Paid");
        assert_eq!(VendorId::NetAcuity.name(), "NetAcuity");
    }
}
