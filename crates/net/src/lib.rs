//! IPv4 addressing primitives for the `routergeo` workspace.
//!
//! Geolocation databases are, structurally, maps from IPv4 ranges or
//! prefixes to location records. This crate supplies the address types and
//! the lookup structure the rest of the workspace builds on:
//!
//! * [`Prefix`] — a validated CIDR prefix (`10.0.0.0/8`), with the `/24`
//!   block arithmetic the paper leans on ("block-level — /24 block or
//!   larger — locations", §5.2.3).
//! * [`RangeMap`] — sorted, non-overlapping inclusive ranges → value;
//!   the natural shape of IP2Location-style CSV databases.
//! * [`SortedBatch`] — a batch of addresses sorted once, with repeats
//!   removed, for the batched lookups of [`RangeMap`] and of the RGDB
//!   reader in `routergeo-db`.
//!
//! All structures are plain in-memory containers; serialization formats
//! live in `routergeo-db`.

#![deny(clippy::cast_possible_truncation)]

pub mod batch;
pub mod prefix;
pub mod rangemap;

pub use batch::SortedBatch;
pub use prefix::{Prefix, PrefixError};
pub use rangemap::{RangeMap, RangeMapBuilder, RangeOverlap};

use std::net::Ipv4Addr;

/// Convert an [`Ipv4Addr`] to its `u32` value (network byte order).
#[inline]
pub fn ip_to_u32(ip: Ipv4Addr) -> u32 {
    u32::from(ip)
}

/// Convert a `u32` back to an [`Ipv4Addr`].
#[inline]
pub fn u32_to_ip(v: u32) -> Ipv4Addr {
    Ipv4Addr::from(v)
}

/// The `/24` block containing `ip` — the granularity at which both the
/// paper's Ark destinations and typical database entries operate.
#[inline]
pub fn block24(ip: Ipv4Addr) -> Prefix {
    Prefix::new(Ipv4Addr::from(u32::from(ip) & 0xFFFF_FF00), 24).expect("masked /24 is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        for ip in [
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(255, 255, 255, 255),
        ] {
            assert_eq!(u32_to_ip(ip_to_u32(ip)), ip);
        }
    }

    #[test]
    fn block24_masks_host_byte() {
        let p = block24(Ipv4Addr::new(192, 0, 2, 77));
        assert_eq!(p.to_string(), "192.0.2.0/24");
        assert!(p.contains(Ipv4Addr::new(192, 0, 2, 0)));
        assert!(p.contains(Ipv4Addr::new(192, 0, 2, 255)));
        assert!(!p.contains(Ipv4Addr::new(192, 0, 3, 0)));
    }
}
