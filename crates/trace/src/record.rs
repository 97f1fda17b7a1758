//! Measurement records and their RIPE-Atlas-shaped JSON rendering.
//!
//! The paper consumes Atlas built-in measurements "provided in JSON format
//! that specify the measurement origin, target, intermediate hops and their
//! observed RTTs" (§2.3.2). This module defines the in-memory record the
//! simulators produce and the analyses read, and renders it in the Atlas
//! shape (`prb_id`, `src_addr`, `dst_addr`, `result[].hop`,
//! `result[].result[].from/rtt`, `"x": "*"` for timeouts), which the RTT
//! pins in `tests/rtt_pins.rs` compare byte for byte.

use std::net::Ipv4Addr;

/// One traceroute hop. A hop that did not respond has neither address nor
/// RTT (rendered as `*` in classic traceroute output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// 1-based hop index.
    pub hop: u8,
    /// Responding interface address, if any.
    pub ip: Option<Ipv4Addr>,
    /// Observed RTT in milliseconds, if the hop responded.
    pub rtt_ms: Option<f64>,
}

impl Hop {
    /// A responding hop.
    pub fn reply(hop: u8, ip: Ipv4Addr, rtt_ms: f64) -> Hop {
        Hop {
            hop,
            ip: Some(ip),
            rtt_ms: Some(rtt_ms),
        }
    }

    /// A timeout hop.
    pub fn timeout(hop: u8) -> Hop {
        Hop {
            hop,
            ip: None,
            rtt_ms: None,
        }
    }
}

/// A complete traceroute measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct TracerouteRecord {
    /// Measurement origin id (Ark monitor index or Atlas probe index).
    pub origin_id: u32,
    /// Source address of the measurement host.
    pub src_ip: Ipv4Addr,
    /// Destination address.
    pub dst_ip: Ipv4Addr,
    /// Hops in order.
    pub hops: Vec<Hop>,
    /// Whether the destination itself replied.
    pub reached: bool,
}

impl TracerouteRecord {
    /// Iterate the responding intermediate-hop addresses (excludes the
    /// destination's own reply) — exactly what Ark-style interface
    /// extraction wants.
    pub fn responding_intermediate_ips(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.hops
            .iter()
            .filter(move |h| h.ip != Some(self.dst_ip))
            .filter_map(|h| h.ip)
    }

    /// Serialize to Atlas-shaped JSON. Addresses are dotted quads, which
    /// need no escaping, and RTTs use Rust's shortest round-trip `f64`
    /// formatting, a valid JSON number for every finite RTT.
    pub fn to_atlas_json(&self) -> String {
        let mut out = String::with_capacity(96 + self.hops.len() * 48);
        out.push_str("{\"prb_id\":");
        out.push_str(&self.origin_id.to_string());
        out.push_str(",\"src_addr\":\"");
        out.push_str(&self.src_ip.to_string());
        out.push_str("\",\"dst_addr\":\"");
        out.push_str(&self.dst_ip.to_string());
        out.push_str("\",\"type\":\"traceroute\",\"result\":[");
        for (i, h) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"hop\":");
            out.push_str(&h.hop.to_string());
            out.push_str(",\"result\":[{");
            match (h.ip, h.rtt_ms) {
                (Some(ip), rtt) => {
                    out.push_str("\"from\":\"");
                    out.push_str(&ip.to_string());
                    out.push('"');
                    if let Some(rtt) = rtt {
                        debug_assert!(rtt.is_finite(), "JSON numbers must be finite");
                        out.push_str(",\"rtt\":");
                        out.push_str(&rtt.to_string());
                    }
                }
                (None, _) => out.push_str("\"x\":\"*\""),
            }
            out.push_str("}]}");
        }
        out.push_str("],\"destination_replied\":");
        out.push_str(if self.reached { "true" } else { "false" });
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TracerouteRecord {
        TracerouteRecord {
            origin_id: 42,
            src_ip: "203.0.113.9".parse().unwrap(),
            dst_ip: "100.64.0.53".parse().unwrap(),
            hops: vec![
                Hop::reply(1, "10.0.0.1".parse().unwrap(), 0.42),
                Hop::timeout(2),
                Hop::reply(3, "6.0.0.1".parse().unwrap(), 12.7),
                Hop::reply(4, "100.64.0.53".parse().unwrap(), 13.2),
            ],
            reached: true,
        }
    }

    #[test]
    fn json_shape_matches_atlas_conventions() {
        let json = sample().to_atlas_json();
        assert!(json.contains("\"prb_id\":42"));
        assert!(json.contains("\"type\":\"traceroute\""));
        assert!(json.contains("\"from\":\"10.0.0.1\""));
        assert!(json.contains("\"x\":\"*\""));
    }

    #[test]
    fn intermediate_extraction_skips_timeouts_and_destination() {
        let ips: Vec<_> = sample().responding_intermediate_ips().collect();
        assert_eq!(
            ips,
            vec![
                "10.0.0.1".parse::<Ipv4Addr>().unwrap(),
                "6.0.0.1".parse().unwrap()
            ]
        );
    }
}
