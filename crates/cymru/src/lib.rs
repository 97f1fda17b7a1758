//! Team Cymru-like IP→ASN/RIR mapping (§2.3.3).
//!
//! The paper learns the regional Internet registry of every ground-truth
//! address by querying the Team Cymru whois database. This crate provides
//! the synthetic equivalent twice over:
//!
//! * [`MappingService`] — the in-process mapping built from the world's
//!   address plan (ASN, BGP prefix, registry country, RIR per address);
//! * [`server`]/[`client`] — a TCP **bulk whois** service speaking the
//!   netcat-style protocol Team Cymru documents (`begin` / addresses /
//!   `end`, pipe-separated result rows), so the lookup path can also be
//!   exercised over a real socket.

pub mod client;
pub mod server;

pub use client::{
    bulk_lookup, AddrFailure, BulkAnswer, BulkClient, BulkConfig, BulkOutcome, BulkStats,
    FailReason, RetryPolicy,
};
pub use server::{ServerConfig, WhoisServer};

// Re-export the injectable clock so client code can drive retry/backoff
// on virtual time without depending on the fault-injection crate.
pub use routergeo_faultnet::clock;

use routergeo_geo::{CountryCode, Rir};
use routergeo_net::{Prefix, RangeMap, RangeMapBuilder};
use routergeo_world::World;
use std::net::Ipv4Addr;

/// One mapping answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CymruRecord {
    /// Origin AS number.
    pub asn: u32,
    /// Announced BGP prefix (the /24 block in the synthetic world).
    pub prefix: Prefix,
    /// Registry country code.
    pub country: CountryCode,
    /// Allocating RIR.
    pub rir: Rir,
}

/// In-process IP→ASN/RIR mapping over one world's address plan.
///
/// ```
/// use routergeo_cymru::MappingService;
/// use routergeo_world::{World, WorldConfig};
/// let world = World::generate(WorldConfig::tiny(7));
/// let whois = MappingService::build(&world);
/// let ip = world.interfaces[0].ip;
/// let rec = whois.lookup(ip).unwrap();
/// assert!(rec.prefix.contains(ip));
/// assert_eq!(Some(rec.rir), world.rir_of_ip(ip));
/// ```
#[derive(Debug)]
pub struct MappingService {
    map: RangeMap<CymruRecord>,
}

impl MappingService {
    /// Build the mapping from the world's block plan.
    pub fn build(world: &World) -> MappingService {
        let mut b = RangeMapBuilder::new();
        for info in world.plan().blocks() {
            let op = world.operator(info.op);
            b.push_prefix(
                info.block,
                CymruRecord {
                    asn: op.asn,
                    prefix: info.block,
                    country: info.registry_country,
                    rir: info.rir,
                },
            );
        }
        MappingService {
            map: b.build().expect("plan blocks are disjoint"),
        }
    }

    /// Look up one address.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<CymruRecord> {
        self.map.lookup(ip).copied()
    }

    /// Number of announced prefixes.
    pub fn prefix_count(&self) -> usize {
        self.map.len()
    }

    /// Render one answer row in the bulk whois format:
    /// `ASN | IP | BGP Prefix | CC | Registry`.
    pub fn format_row(&self, ip: Ipv4Addr) -> String {
        match self.lookup(ip) {
            Some(r) => format!(
                "{} | {} | {} | {} | {}",
                r.asn,
                ip,
                r.prefix,
                r.country,
                r.rir.name().to_ascii_lowercase()
            ),
            None => format!("NA | {ip} | NA | NA | NA"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_world::WorldConfig;

    #[test]
    fn every_interface_resolves() {
        let w = World::generate(WorldConfig::tiny(131));
        let svc = MappingService::build(&w);
        assert_eq!(svc.prefix_count(), w.plan().len());
        for iface in w.interfaces.iter().step_by(13) {
            let rec = svc.lookup(iface.ip).expect("interface maps");
            let info = w.block_info(iface.ip).unwrap();
            assert_eq!(rec.rir, info.rir);
            assert_eq!(rec.country, info.registry_country);
            assert_eq!(rec.asn, w.operator(info.op).asn);
            assert!(rec.prefix.contains(iface.ip));
        }
    }

    #[test]
    fn unallocated_space_misses() {
        let w = World::generate(WorldConfig::tiny(132));
        let svc = MappingService::build(&w);
        assert!(svc.lookup("203.0.113.1".parse().unwrap()).is_none());
        assert!(svc.lookup("240.0.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn row_format_matches_cymru_style() {
        let w = World::generate(WorldConfig::tiny(133));
        let svc = MappingService::build(&w);
        let ip = w.interfaces[0].ip;
        let row = svc.format_row(ip);
        let parts: Vec<&str> = row.split(" | ").collect();
        assert_eq!(parts.len(), 5);
        assert!(parts[0].parse::<u32>().is_ok());
        assert_eq!(parts[1], ip.to_string());
        let miss = svc.format_row("203.0.113.1".parse().unwrap());
        assert!(miss.starts_with("NA | "));
    }
}
