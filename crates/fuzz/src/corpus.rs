//! Seeded corpus builder: valid `(prefix, record)` sets at three sizes.
//!
//! Every corpus entry is a pure function of `(seed, scale)`. Two
//! properties are deliberate, because the differential pillar compares
//! the RGDB trie against [`routergeo_db::InMemoryDb`]:
//!
//! * **Prefixes are pairwise disjoint.** Each record owns a distinct
//!   /16 block and its prefix is carved inside it, so there is no
//!   nested longest-prefix matching — `InMemoryDb` (a flat range map)
//!   rejects overlapping ranges outright.
//! * **Coordinates are micro-degree-valued** (`k / 1e6`). RGDB stores
//!   integer micro-degrees and CSV prints six decimals, so exact
//!   three-way agreement is only possible when the source values sit on
//!   that grid. `k / 1e6` and the CSV decimal parse produce the same
//!   correctly-rounded `f64`, which the round-trip battery relies on.

use crate::rng::FuzzRng;
use bytes::Bytes;
use routergeo_db::record::{Granularity, LocationRecord};
use routergeo_db::rgdb2;
use routergeo_geo::{Coordinate, CountryCode};
use routergeo_net::Prefix;
use std::net::Ipv4Addr;

/// Corpus sizes. These are fuzz-corpus scales (record counts), not the
/// world scales in `routergeo-world` — kept small so a full replay of
/// every (seed, scale) pair stays inside a CI budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 16 records.
    Tiny,
    /// 64 records.
    Small,
    /// 256 records.
    Tenth,
}

impl Scale {
    /// All scales, smallest first.
    pub const ALL: [Scale; 3] = [Scale::Tiny, Scale::Small, Scale::Tenth];

    /// Records per corpus entry at this scale.
    pub fn records(self) -> usize {
        match self {
            Scale::Tiny => 16,
            Scale::Small => 64,
            Scale::Tenth => 256,
        }
    }

    /// Stable lower-case label (used in specs and JSON).
    pub fn label(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Tenth => "tenth",
        }
    }

    /// Inverse of [`Scale::label`].
    pub fn parse(s: &str) -> Option<Scale> {
        Scale::ALL.into_iter().find(|sc| sc.label() == s)
    }
}

/// One synthesized record set plus its provenance.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Seed the entry was derived from.
    pub seed: u64,
    /// Corpus scale.
    pub scale: Scale,
    /// Disjoint prefixes with their records.
    pub entries: Vec<(Prefix, LocationRecord)>,
}

impl CorpusEntry {
    /// Serialize this entry into a valid RGDB image via the production
    /// writer.
    pub fn image(&self) -> Bytes {
        rgdb2::write_v21(
            &format!("fuzz-{}-{}", self.scale.label(), self.seed),
            self.entries.iter().map(|(p, r)| (*p, r)),
        )
    }
}

/// Country pool for synthesized records. Real codes so
/// `CountryCode::from_str_exact` accepts them.
const COUNTRIES: [&str; 8] = ["US", "DE", "FR", "JP", "BR", "IN", "AU", "ZA"];

/// Build the deterministic corpus entry for `(seed, scale)`.
pub fn build_entry(seed: u64, scale: Scale) -> CorpusEntry {
    let mut rng = FuzzRng::new(seed ^ 0xC0_4155_2017_0301);
    let mut entries = Vec::with_capacity(scale.records());
    for i in 0..scale.records() {
        let prefix = carve_prefix(i, &mut rng);
        let record = synth_record(&mut rng);
        entries.push((prefix, record));
    }
    CorpusEntry {
        seed,
        scale,
        entries,
    }
}

/// Carve a prefix inside record `i`'s private /16 block. Distinct `i`
/// means a distinct block, so all carved prefixes are pairwise disjoint
/// regardless of their lengths.
fn carve_prefix(i: usize, rng: &mut FuzzRng) -> Prefix {
    let a = 10 + u32::try_from(i >> 8).unwrap_or(0) % 120;
    let b = u32::try_from(i & 0xFF).unwrap_or(0);
    let base = (a << 24) | (b << 16);
    let len = u8::try_from(rng.range(16, 32)).unwrap_or(16);
    let host_bits = 32 - u32::from(len);
    // Random sub-block offset, aligned to the prefix length.
    let slots = 1u32.checked_shl(u32::from(len) - 16).unwrap_or(1);
    let offset = u32::try_from(rng.below(u64::from(slots))).unwrap_or(0);
    let network = base | offset.checked_shl(host_bits).unwrap_or(0);
    match Prefix::new(Ipv4Addr::from(network), len) {
        Ok(p) => p,
        // Unreachable by construction (network is aligned); fall back to
        // the whole block rather than panicking in a fuzz harness.
        Err(_) => Prefix::containing(Ipv4Addr::from(base), 16).unwrap_or_else(|_| {
            // /0 accepts any address; the double fallback keeps this
            // path total without a panic.
            Prefix::default_route()
        }),
    }
}

/// Random address inside some record's private /16 block (same block
/// geometry as [`carve_prefix`]). Address sweeps over mutated images
/// use this to actually reach record decode paths — a uniform draw
/// over all 2³² addresses almost never lands inside the corpus.
pub fn block_addr(scale: Scale, rng: &mut FuzzRng) -> Ipv4Addr {
    let i = usize::try_from(rng.below(scale.records() as u64)).unwrap_or(0);
    let a = 10 + u32::try_from(i >> 8).unwrap_or(0) % 120;
    let b = u32::try_from(i & 0xFF).unwrap_or(0);
    let low = u32::try_from(rng.below(1 << 16)).unwrap_or(0);
    Ipv4Addr::from((a << 24) | (b << 16) | low)
}

/// Synthesize one record with every field shape the wire format can
/// carry: present/absent fields, one-char and near-cap strings,
/// coordinate extremes — all on the micro-degree grid.
fn synth_record(rng: &mut FuzzRng) -> LocationRecord {
    let country = if rng.chance(90) {
        let ix = usize::try_from(rng.below(COUNTRIES.len() as u64)).unwrap_or(0);
        let pick = COUNTRIES[ix % COUNTRIES.len()];
        CountryCode::from_str_exact(pick)
    } else {
        None
    };
    let region = if rng.chance(60) {
        Some(synth_string(rng, "Region"))
    } else {
        None
    };
    let city = if rng.chance(55) {
        Some(synth_string(rng, "City"))
    } else {
        None
    };
    let coord = if rng.chance(70) {
        let lat_micro = rng.range_i64(-90_000_000, 90_000_000);
        let lon_micro = rng.range_i64(-180_000_000, 180_000_000);
        // Micro-degree grid: exact under RGDB quantization and CSV's
        // six-decimal print.
        let lat = lat_micro as f64 / 1e6;
        let lon = lon_micro as f64 / 1e6;
        Coordinate::new(lat, lon).ok()
    } else {
        None
    };
    let granularity = match rng.below(3) {
        0 => Granularity::Aggregate,
        1 => Granularity::Block24,
        _ => Granularity::SubBlock,
    };
    LocationRecord {
        country,
        region,
        city,
        coord,
        granularity,
    }
}

/// ASCII name of varying length: mostly short, occasionally a single
/// character, the empty string, or close to the format's 255-byte cap
/// (never over it — the writer truncates at 255). `Some("")` is a
/// legal present-but-empty name everywhere: the binary formats carry
/// it as a set flag with length 0 and CSV as a quoted-empty cell, so
/// the differential backends all round-trip it.
fn synth_string(rng: &mut FuzzRng, kind: &str) -> String {
    match rng.below(10) {
        0 => "X".to_string(),
        2 => String::new(),
        1 => {
            let n = usize::try_from(rng.range(200, 255)).unwrap_or(200);
            let mut s = String::with_capacity(n);
            while s.len() < n {
                s.push(char::from(b'a' + u8::try_from(rng.below(26)).unwrap_or(0)));
            }
            s
        }
        _ => format!("{kind} {}", rng.below(10_000)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = build_entry(3, Scale::Tiny);
        let b = build_entry(3, Scale::Tiny);
        assert_eq!(a.entries.len(), 16);
        for ((pa, ra), (pb, rb)) in a.entries.iter().zip(&b.entries) {
            assert_eq!(pa, pb);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.image(), b.image());
    }

    #[test]
    fn prefixes_are_pairwise_disjoint() {
        for seed in [1, 2, 3] {
            let e = build_entry(seed, Scale::Tenth);
            for (i, (p, _)) in e.entries.iter().enumerate() {
                for (q, _) in e.entries.iter().skip(i + 1) {
                    assert!(
                        !p.contains(q.first()) && !q.contains(p.first()),
                        "{p} overlaps {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn images_open_cleanly() {
        for scale in Scale::ALL {
            let e = build_entry(11, scale);
            assert!(routergeo_db::Rgdb2Reader::open(e.image()).is_ok());
        }
    }

    #[test]
    fn corpus_strings_cover_the_empty_present_shape() {
        // The differential pillar is only as strong as the corpus: the
        // `Some("")` shape (fixed in CsvDb this cycle) must actually
        // occur across the seeds the harness replays.
        let mut empties = 0usize;
        for seed in 1..=8u64 {
            for (_, record) in build_entry(seed, Scale::Tenth).entries {
                if record.region.as_deref() == Some("") || record.city.as_deref() == Some("") {
                    empties += 1;
                }
            }
        }
        assert!(empties > 0, "no empty-present strings in 8 tenth entries");
    }
}
