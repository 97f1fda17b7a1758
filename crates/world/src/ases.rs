//! Operators (autonomous systems) and their profiles.
//!
//! Three kinds of operator populate the world:
//!
//! * **Global transit** networks with PoPs worldwide. Seven of them carry
//!   the hostname conventions and ground-truth DNS rules of the paper's
//!   seven ground-truth domains (§2.3.1): `cogentco.com`, `ntt.net`,
//!   `pnap.net`, `seabone.net`, `peak10.net`, `digitalwest.net`,
//!   `belwue.de` (the last three are regional operators). More global
//!   transits without ground-truth rules round out the backbone.
//! * **Domestic transit** networks: per-country backbones.
//! * **Stub** networks: single-city edge networks.
//!
//! Registry bias — the paper's key error mechanism — comes from the split
//! between an operator's *registry* country (where the org is incorporated
//! and its RIR) and the countries where its PoPs actually sit.

use crate::ids::{AsId, CityId};
use routergeo_geo::{CountryCode, Rir};

/// What kind of network an operator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Worldwide backbone with PoPs in many countries.
    GlobalTransit,
    /// National backbone with PoPs in many cities of one country.
    DomesticTransit,
    /// Single-city edge network (enterprise / access ISP).
    Stub,
}

/// Hostname convention an operator uses for router interface rDNS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostnameStyle {
    /// Airport-style code infix: `ae-5.r23.DLL01.us.bb.example.net`.
    Iata,
    /// CLLI-style six-letter code: `ae-5.r23.dllstx09.us.bb.example.net`
    /// (the convention in the paper's `ntt.net` example).
    Clli,
    /// Full lower-case city name infix: `et-1-0.core1.frankfurt2.example.net`.
    CityName,
    /// Hostnames exist but carry no location hints.
    Opaque,
    /// No reverse DNS at all.
    None,
}

/// A synthetic autonomous system / network operator.
#[derive(Debug, Clone)]
pub struct Operator {
    /// Its own id (index into `World::operators`).
    pub id: AsId,
    /// Autonomous system number.
    pub asn: u32,
    /// Short organisation name (e.g. `cogentco`).
    pub name: String,
    /// Network kind.
    pub kind: OperatorKind,
    /// DNS domain for interface hostnames, if the operator publishes rDNS.
    pub domain: Option<String>,
    /// Hostname convention.
    pub style: HostnameStyle,
    /// Fraction of interfaces that actually have rDNS records.
    pub rdns_coverage: f64,
    /// Whether DRoP-style ground-truth rules exist for this domain
    /// (true exactly for the paper's seven ground-truth domains).
    pub has_gt_rules: bool,
    /// Registry country of the organisation (whois `org-country`).
    pub registry_country: CountryCode,
    /// RIR that issued the org's *primary* allocations.
    pub home_rir: Rir,
    /// Headquarters city (the registry's street address resolves here).
    pub hq_city: CityId,
    /// Cities where the operator has PoPs (HQ city is always included).
    pub presence: Vec<CityId>,
    /// Relative size weight used during generation.
    pub size: u16,
    /// Router-count multiplier for PoPs outside the registry country.
    pub foreign_pop_scale: f64,
}

/// Static spec for a built-in global operator.
#[derive(Debug, Clone, Copy)]
pub struct GlobalOperatorSpec {
    /// Organisation name.
    pub name: &'static str,
    /// rDNS domain.
    pub domain: &'static str,
    /// Registry country (ISO alpha-2).
    pub country: &'static str,
    /// Hostname style.
    pub style: HostnameStyle,
    /// Relative size (drives PoP count and router budget).
    pub size: u16,
    /// Present only in its home country (regional operator)?
    pub regional: bool,
    /// Ground-truth DRoP rules available?
    pub gt_rules: bool,
    /// Share of PoP blocks allocated from the *local* RIR instead of the
    /// home RIR (multinationals hold some regional allocations).
    pub local_rir_share: f64,
    /// Router-count multiplier for PoPs outside the registry country.
    /// Most backbones concentrate at home (≈0.15–0.25); some, like
    /// Telecom Italia Sparkle's seabone, run mostly-foreign footprints.
    pub foreign_pop_scale: f64,
}

/// The paper's seven ground-truth domains (§2.3.1), sized so that the
/// DNS-based ground truth reproduces Table 1's per-domain counts
/// (cogentco 6,462 / ntt 2,331 / pnap 1,437 / seabone 1,405 / peak10 170 /
/// digitalwest 29 / belwue 23).
pub const GT_OPERATORS: [GlobalOperatorSpec; 7] = [
    GlobalOperatorSpec {
        name: "cogentco",
        domain: "cogentco.com",
        country: "US",
        style: HostnameStyle::Iata,
        size: 32,
        regional: false,
        gt_rules: true,
        local_rir_share: 0.22,
        foreign_pop_scale: 0.18,
    },
    GlobalOperatorSpec {
        name: "ntt",
        domain: "ntt.net",
        country: "US",
        style: HostnameStyle::Clli,
        size: 18,
        regional: false,
        gt_rules: true,
        local_rir_share: 0.40,
        foreign_pop_scale: 0.20,
    },
    GlobalOperatorSpec {
        name: "pnap",
        domain: "pnap.net",
        country: "US",
        style: HostnameStyle::Iata,
        size: 11,
        regional: false,
        gt_rules: true,
        local_rir_share: 0.05,
        foreign_pop_scale: 0.15,
    },
    GlobalOperatorSpec {
        name: "seabone",
        domain: "seabone.net",
        country: "IT",
        style: HostnameStyle::CityName,
        size: 10,
        regional: false,
        gt_rules: true,
        local_rir_share: 0.10,
        foreign_pop_scale: 0.75,
    },
    GlobalOperatorSpec {
        name: "peak10",
        domain: "peak10.net",
        country: "US",
        style: HostnameStyle::Iata,
        size: 2,
        regional: true,
        gt_rules: true,
        local_rir_share: 0.0,
        foreign_pop_scale: 0.2,
    },
    GlobalOperatorSpec {
        name: "digitalwest",
        domain: "digitalwest.net",
        country: "US",
        style: HostnameStyle::CityName,
        size: 1,
        regional: true,
        gt_rules: true,
        local_rir_share: 0.0,
        foreign_pop_scale: 0.2,
    },
    GlobalOperatorSpec {
        name: "belwue",
        domain: "belwue.de",
        country: "DE",
        style: HostnameStyle::CityName,
        size: 1,
        regional: true,
        gt_rules: true,
        local_rir_share: 0.0,
        foreign_pop_scale: 0.2,
    },
];

/// Additional global transit operators without ground-truth rules. Some
/// embed location hints a DNS-savvy database (NetAcuity's profile) can
/// still decode; others are opaque.
pub const EXTRA_GLOBAL_OPERATORS: [GlobalOperatorSpec; 8] = [
    GlobalOperatorSpec {
        name: "gtt",
        domain: "gtt.net",
        country: "US",
        style: HostnameStyle::Opaque,
        size: 6,
        regional: false,
        gt_rules: false,
        local_rir_share: 0.15,
        foreign_pop_scale: 0.15,
    },
    GlobalOperatorSpec {
        name: "lumen",
        domain: "lumen.net",
        country: "US",
        style: HostnameStyle::Clli,
        size: 8,
        regional: false,
        gt_rules: false,
        local_rir_share: 0.10,
        foreign_pop_scale: 0.15,
    },
    GlobalOperatorSpec {
        name: "zayo",
        domain: "zayo.net",
        country: "US",
        style: HostnameStyle::Iata,
        size: 5,
        regional: false,
        gt_rules: false,
        local_rir_share: 0.08,
        foreign_pop_scale: 0.15,
    },
    GlobalOperatorSpec {
        name: "telia",
        domain: "teliacarrier.net",
        country: "SE",
        style: HostnameStyle::CityName,
        size: 7,
        regional: false,
        gt_rules: false,
        local_rir_share: 0.20,
        foreign_pop_scale: 0.35,
    },
    GlobalOperatorSpec {
        name: "tatacomm",
        domain: "tatacomm.net",
        country: "IN",
        style: HostnameStyle::Iata,
        size: 5,
        regional: false,
        gt_rules: false,
        local_rir_share: 0.30,
        foreign_pop_scale: 0.3,
    },
    GlobalOperatorSpec {
        name: "pccwglobal",
        domain: "pccwglobal.net",
        country: "HK",
        style: HostnameStyle::Opaque,
        size: 4,
        regional: false,
        gt_rules: false,
        local_rir_share: 0.25,
        foreign_pop_scale: 0.3,
    },
    GlobalOperatorSpec {
        name: "opentransit",
        domain: "opentransit.net",
        country: "FR",
        style: HostnameStyle::CityName,
        size: 5,
        regional: false,
        gt_rules: false,
        local_rir_share: 0.15,
        foreign_pop_scale: 0.25,
    },
    GlobalOperatorSpec {
        name: "telxius",
        domain: "telxius.net",
        country: "ES",
        style: HostnameStyle::Opaque,
        size: 3,
        regional: false,
        gt_rules: false,
        local_rir_share: 0.20,
        foreign_pop_scale: 0.3,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_geo::country::lookup;

    #[test]
    fn gt_operators_match_paper_domains() {
        let domains: Vec<_> = GT_OPERATORS.iter().map(|s| s.domain).collect();
        for d in [
            "belwue.de",
            "cogentco.com",
            "digitalwest.net",
            "ntt.net",
            "peak10.net",
            "seabone.net",
            "pnap.net",
        ] {
            assert!(domains.contains(&d), "missing ground-truth domain {d}");
        }
        assert_eq!(GT_OPERATORS.len(), 7);
    }

    #[test]
    fn all_spec_countries_exist() {
        for spec in GT_OPERATORS.iter().chain(EXTRA_GLOBAL_OPERATORS.iter()) {
            let code: CountryCode = spec.country.parse().expect(spec.name);
            assert!(lookup(code).is_some(), "{} country", spec.name);
            assert!(spec.size >= 1);
            assert!((0.0..=1.0).contains(&spec.local_rir_share));
        }
    }

    #[test]
    fn gt_rules_only_on_gt_operators() {
        assert!(GT_OPERATORS.iter().all(|s| s.gt_rules));
        assert!(EXTRA_GLOBAL_OPERATORS.iter().all(|s| !s.gt_rules));
    }

    #[test]
    fn cogent_is_largest_gt_operator() {
        // Table 1: cogentco dominates the DNS-based ground truth.
        let cogent = GT_OPERATORS.iter().find(|s| s.name == "cogentco").unwrap();
        for s in &GT_OPERATORS {
            assert!(cogent.size >= s.size);
        }
    }
}
