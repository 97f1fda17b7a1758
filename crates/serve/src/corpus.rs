//! Deterministic serving corpus: paired RGDB generations for the
//! loadgen and the hot-swap tests.
//!
//! Generation `g` of a corpus with `records` entries carries the same
//! prefix set as every other generation — only the record payloads
//! differ, and every city name is tagged `G<g>-<k>`. Two consequences
//! the harness leans on:
//!
//! * hit/miss outcomes are identical across generations, so the swap
//!   phase's per-client hit counts are deterministic even though the
//!   swap lands at a nondeterministic instant;
//! * a response whose generation id and city tag disagree is a **torn
//!   read** — proof a request straddled the generation flip.
//!
//! The geometry mirrors the fuzz corpus: record `k` owns the /16 block
//! `(10 + (k >> 8) % 120).(k & 0xFF).0.0`, blocks are pairwise
//! disjoint, and the carved prefix length cycles through 16–28. All
//! coordinates sit on the micro-degree grid so RGDB quantization is
//! exact.

use bytes::Bytes;
use routergeo_db::rgdb2;
use routergeo_db::{Granularity, LocationRecord};
use routergeo_geo::{Coordinate, CountryCode};
use routergeo_net::Prefix;
use std::net::Ipv4Addr;

const COUNTRIES: [&str; 8] = ["US", "DE", "FR", "JP", "BR", "GB", "NL", "AU"];

/// A fixed-size corpus description; all methods are pure functions of
/// `(records, k)` so every caller sees the same world.
#[derive(Debug, Clone, Copy)]
pub struct Corpus {
    records: usize,
}

impl Corpus {
    /// A corpus of `records` entries (clamped to the 120×256 disjoint
    /// /16 blocks available).
    pub fn new(records: usize) -> Corpus {
        Corpus {
            records: records.clamp(1, 120 * 256),
        }
    }

    /// Number of records per generation.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The prefix record `k` carves out of its /16 block.
    pub fn prefix(&self, k: usize) -> Prefix {
        let k = k % self.records;
        let a = u8::try_from(10 + (k >> 8) % 120).expect("block octet bounded by 130");
        let b = u8::try_from(k & 0xFF).expect("masked to one byte");
        let len = u8::try_from(16 + (k * 5) % 13).expect("length bounded by 28");
        Prefix::new(Ipv4Addr::new(a, b, 0, 0), len)
            .expect("x.y.0.0 is aligned for any length in 16..=28")
    }

    /// An address guaranteed to hit record `k`: the first address of its
    /// prefix.
    pub fn hit_addr(&self, k: usize) -> Ipv4Addr {
        self.prefix(k).first()
    }

    /// A deterministic address inside record `k`'s /16 block; it hits
    /// when `salt` lands inside the carved prefix and misses otherwise.
    pub fn block_addr(&self, k: usize, salt: u64) -> Ipv4Addr {
        let p = self.prefix(k % self.records);
        let base = u32::from(p.network()) & 0xFFFF_0000;
        let off = u32::try_from(salt % 65_536).expect("mod 2^16 fits");
        Ipv4Addr::from(base | off)
    }

    /// The city tag generation `g` writes into record `k`.
    pub fn city_tag(generation: u32, k: usize) -> String {
        format!("G{generation}-{k:04}")
    }

    /// Whether a served city name belongs to `generation` — the torn-read
    /// predicate.
    pub fn city_matches(generation: u32, city: &str) -> bool {
        city.starts_with(&format!("G{generation}-"))
    }

    /// Record `k` as generation `g` publishes it.
    pub fn record(&self, generation: u32, k: usize) -> LocationRecord {
        let k = k % self.records;
        let country = CountryCode::from_str_exact(COUNTRIES[k % COUNTRIES.len()])
            .expect("table entries are valid codes");
        let granularity = match k % 3 {
            0 => Granularity::Aggregate,
            1 => Granularity::Block24,
            _ => Granularity::SubBlock,
        };
        // Micro-degree-aligned grid spread over ±60 / ±150 degrees.
        let lat_milli = -60_000 + i64::try_from((k * 7_919) % 120_000).expect("bounded");
        let lon_milli = -150_000
            + i64::try_from(
                (k * 104_729 + usize::try_from(generation).expect("small id") * 13) % 300_000,
            )
            .expect("bounded");
        #[allow(
            clippy::cast_precision_loss,
            reason = "|milli| <= 300_000: exact in f64"
        )]
        let coord = Coordinate::new(lat_milli as f64 / 1e3, lon_milli as f64 / 1e3)
            .expect("grid stays inside coordinate bounds");
        LocationRecord {
            country: Some(country),
            region: if k.is_multiple_of(3) {
                Some(format!("Region-{}", k % 5))
            } else {
                None
            },
            city: Some(Corpus::city_tag(generation, k)),
            coord: Some(coord),
            granularity,
        }
    }

    /// Serialize generation `g` as an RGDB image.
    pub fn image_v21(&self, generation: u32) -> Bytes {
        let entries: Vec<(Prefix, LocationRecord)> = (0..self.records)
            .map(|k| (self.prefix(k), self.record(generation, k)))
            .collect();
        rgdb2::write_v21(
            &format!("serve-corpus-g{generation}"),
            entries.iter().map(|(p, r)| (*p, r)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_db::Rgdb2Reader;

    #[test]
    fn generations_share_prefixes_but_differ_in_payload() {
        let corpus = Corpus::new(64);
        let g1 = Rgdb2Reader::open(corpus.image_v21(1)).expect("gen 1 image validates");
        let g2 = Rgdb2Reader::open(corpus.image_v21(2)).expect("gen 2 image validates");
        for k in 0..corpus.records() {
            let addr = corpus.hit_addr(k);
            let r1 = g1.try_lookup(addr).expect("clean image").expect("hit");
            let r2 = g2.try_lookup(addr).expect("clean image").expect("hit");
            assert_eq!(r1.city.as_deref(), Some(Corpus::city_tag(1, k).as_str()));
            assert_eq!(r2.city.as_deref(), Some(Corpus::city_tag(2, k).as_str()));
            assert!(Corpus::city_matches(1, r1.city.as_deref().expect("tagged")));
            assert!(!Corpus::city_matches(
                2,
                r1.city.as_deref().expect("tagged")
            ));
        }
    }

    #[test]
    fn block_addr_outcomes_are_pure_functions() {
        let corpus = Corpus::new(32);
        let reader = Rgdb2Reader::open(corpus.image_v21(1)).expect("image validates");
        for k in 0..corpus.records() {
            for salt in [0u64, 7, 65_535, 1 << 40] {
                let addr = corpus.block_addr(k, salt);
                let a = reader.try_lookup(addr).expect("clean image").is_some();
                let b = reader.try_lookup(addr).expect("clean image").is_some();
                assert_eq!(a, b);
                assert_eq!(addr, corpus.block_addr(k, salt), "address is deterministic");
            }
        }
    }

    #[test]
    fn images_are_byte_identical_across_builds() {
        let corpus = Corpus::new(48);
        assert_eq!(corpus.image_v21(1), corpus.image_v21(1));
        assert_ne!(corpus.image_v21(1), corpus.image_v21(2));
    }
}
