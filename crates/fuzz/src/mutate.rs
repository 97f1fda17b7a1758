//! Grammar-aware RGDB mutators.
//!
//! A naive byte-flipping fuzzer dies at the image checksum: the reader
//! validates FNV-1a over the payload before anything structural, so
//! every mutation would be rejected at the same shallow check and the
//! deep decode paths would never run. These mutators know the format —
//! they target specific sections and then **re-fix the checksum** so
//! the structural validation is what gets exercised. The two cut
//! classes deliberately skip the re-fix: length/checksum rejection is a
//! path worth fuzzing too.
//!
//! Layout facts used here mirror `crates/db/src/rgdb2.rs`: the 28-byte
//! header (`magic u32 | version u16 | name_len u16 | interval_count u32
//! | record_count u32 | strings_len u32 | checksum u64`), the name,
//! `interval_count × 8` bytes of `start u32 | record u32` intervals,
//! `record_count × 20` fixed-width records, and the string table.
//! `geometry` reads the section bounds the header claims, so every
//! mutator targets the real payload region, and the four interval
//! classes each aim at one check the reader runs on the interval
//! section.

use crate::rng::FuzzRng;
use routergeo_db::rgdb2::{fnv1a, FNV_OFFSET};

/// Fixed header length (see the format doc in `rgdb2.rs`).
const HEADER_LEN: usize = 28;

/// Byte width of one interval, `start u32 | record u32`.
const INTERVAL_WIDTH: usize = 8;

/// The record id the format stores for "no record".
const NONE: u32 = u32::MAX;

/// The typed mutation classes. Each is a distinct grammar production,
/// not a distinct byte pattern — `cargo xtask fuzz` reports coverage
/// per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationClass {
    /// Overwrite one header field (version, name_len, interval_count,
    /// record_count, strings_len) with an adversarial value.
    HeaderFieldFlip,
    /// Copy one payload range over another (length-preserving splice),
    /// tearing section boundaries without changing the total size.
    SectionSplice,
    /// Move one interval's start at or below its left neighbour's, or
    /// the first interval's off 0.
    IntervalStartDisorder,
    /// Flip individual bits in the record and string sections.
    RecordBitFlip,
    /// Saturate record and string bytes to 0xFF so string offsets and
    /// length prefixes claim more bytes than the table holds.
    StringLenOversize,
    /// Cut the image at an arbitrary point (checksum left stale on
    /// purpose: rejection-by-length/checksum is also a fuzzed path).
    Truncate,
    /// Overwrite interval records with ids at or past `record_count`:
    /// the first out-of-range id, the id just below `NONE`, and random
    /// ones between.
    IntervalRecordOutOfRange,
    /// Copy one interval's record onto its neighbour, splitting one
    /// answer across two intervals.
    IntervalSplitJoin,
    /// Cut the image *inside* the interval section (checksum left
    /// stale like [`MutationClass::Truncate`]).
    IntervalTruncate,
}

impl MutationClass {
    /// Every class, in reporting order.
    pub const ALL: [MutationClass; 9] = [
        MutationClass::HeaderFieldFlip,
        MutationClass::SectionSplice,
        MutationClass::IntervalStartDisorder,
        MutationClass::RecordBitFlip,
        MutationClass::StringLenOversize,
        MutationClass::Truncate,
        MutationClass::IntervalRecordOutOfRange,
        MutationClass::IntervalSplitJoin,
        MutationClass::IntervalTruncate,
    ];

    /// Stable kebab-case label (used in replay specs and JSON).
    pub fn label(self) -> &'static str {
        match self {
            MutationClass::HeaderFieldFlip => "header-field-flip",
            MutationClass::SectionSplice => "section-splice",
            MutationClass::IntervalStartDisorder => "interval-start-disorder",
            MutationClass::RecordBitFlip => "record-bit-flip",
            MutationClass::StringLenOversize => "string-len-oversize",
            MutationClass::Truncate => "truncate",
            MutationClass::IntervalRecordOutOfRange => "interval-record-out-of-range",
            MutationClass::IntervalSplitJoin => "interval-split-join",
            MutationClass::IntervalTruncate => "interval-truncate",
        }
    }

    /// Inverse of [`MutationClass::label`].
    pub fn parse(s: &str) -> Option<MutationClass> {
        MutationClass::ALL.into_iter().find(|c| c.label() == s)
    }
}

/// Little-endian u16 read with a zero default — mutation helpers must
/// be total on arbitrary (already-mutated) inputs.
fn u16_at(bytes: &[u8], at: usize) -> u16 {
    match bytes.get(at..at + 2) {
        Some([a, b]) => u16::from_le_bytes([*a, *b]),
        _ => 0,
    }
}

/// Little-endian u32 read with a zero default.
fn u32_at(bytes: &[u8], at: usize) -> u32 {
    match bytes.get(at..at + 4) {
        Some([a, b, c, d]) => u32::from_le_bytes([*a, *b, *c, *d]),
        _ => 0,
    }
}

/// Little-endian u32 write (no-op when out of bounds).
fn put_u32(bytes: &mut [u8], at: usize, value: u32) {
    if let Some(slot) = bytes.get_mut(at..at + 4) {
        slot.copy_from_slice(&value.to_le_bytes());
    }
}

/// Recompute the payload checksum and patch header bytes 20..28, so a
/// structurally-mutated image passes the checksum gate and reaches the
/// deep validation paths.
pub fn refix_checksum(bytes: &mut [u8]) {
    if bytes.len() < HEADER_LEN {
        return;
    }
    let sum = match bytes.get(HEADER_LEN..) {
        Some(payload) => fnv1a(FNV_OFFSET, payload),
        None => return,
    };
    if let Some(slot) = bytes.get_mut(20..28) {
        slot.copy_from_slice(&sum.to_le_bytes());
    }
}

/// Section geometry as *claimed by the header* (which mutation may have
/// already falsified — all uses stay bounds-checked).
struct Geometry {
    intervals_start: usize,
    /// Number of intervals.
    intervals: usize,
    data_start: usize,
    data_len: usize,
}

fn geometry(bytes: &[u8]) -> Geometry {
    let name_len = usize::from(u16_at(bytes, 6));
    let intervals = usize::try_from(u32_at(bytes, 8)).unwrap_or(0);
    // Fixed-width records then the string table; the header's length
    // field at 16 covers only the strings.
    let records = usize::try_from(u32_at(bytes, 12))
        .unwrap_or(0)
        .saturating_mul(20);
    let strings = usize::try_from(u32_at(bytes, 16)).unwrap_or(0);
    let intervals_start = HEADER_LEN + name_len;
    Geometry {
        intervals_start,
        intervals,
        data_start: intervals_start + intervals.saturating_mul(INTERVAL_WIDTH),
        data_len: records.saturating_add(strings),
    }
}

impl Geometry {
    /// Absolute offset of interval `i`'s start field (its record field
    /// follows at `+ 4`).
    fn interval(&self, i: usize) -> usize {
        self.intervals_start + i * INTERVAL_WIDTH
    }
}

/// Apply one seeded mutation of `class` to a copy of `image`. Total:
/// degenerate images come back unchanged rather than panicking.
pub fn apply(class: MutationClass, image: &[u8], rng: &mut FuzzRng) -> Vec<u8> {
    let mut out = image.to_vec();
    match class {
        MutationClass::HeaderFieldFlip => {
            // (offset, width) of each mutable header field.
            const FIELDS: [(usize, usize); 5] = [(4, 2), (6, 2), (8, 4), (12, 4), (16, 4)];
            let ix = usize::try_from(rng.below(FIELDS.len() as u64)).unwrap_or(0);
            let (at, width) = FIELDS[ix % FIELDS.len()];
            let original = if width == 2 {
                u64::from(u16_at(&out, at))
            } else {
                u64::from(u32_at(&out, at))
            };
            let value = match rng.below(5) {
                0 => 0,
                1 => 1,
                2 => original.wrapping_add(1),
                3 => original.wrapping_sub(1),
                _ => rng.next_u64(),
            };
            if width == 2 {
                let short = u16::try_from(value & 0xFFFF).unwrap_or(0);
                if let Some(slot) = out.get_mut(at..at + 2) {
                    slot.copy_from_slice(&short.to_le_bytes());
                }
            } else {
                put_u32(
                    &mut out,
                    at,
                    u32::try_from(value & 0xFFFF_FFFF).unwrap_or(0),
                );
            }
            refix_checksum(&mut out);
        }
        MutationClass::SectionSplice => {
            let payload = out.len().saturating_sub(HEADER_LEN);
            if payload >= 2 {
                let max_span = (payload / 2).max(1) as u64;
                let span = usize::try_from(rng.range(1, max_span)).unwrap_or(1);
                let src = HEADER_LEN
                    + usize::try_from(rng.below((payload - span + 1) as u64)).unwrap_or(0);
                let dst = HEADER_LEN
                    + usize::try_from(rng.below((payload - span + 1) as u64)).unwrap_or(0);
                if src != dst {
                    let chunk: Vec<u8> = out
                        .get(src..src + span)
                        .map(<[u8]>::to_vec)
                        .unwrap_or_default();
                    if let Some(slot) = out.get_mut(dst..dst + chunk.len()) {
                        slot.copy_from_slice(&chunk);
                    }
                }
            }
            refix_checksum(&mut out);
        }
        MutationClass::IntervalStartDisorder => {
            let g = geometry(&out);
            if g.intervals > 0 {
                let i = usize::try_from(rng.below(g.intervals as u64)).unwrap_or(0);
                let value = match i.checked_sub(1) {
                    // The first start anywhere but 0.
                    None => match rng.below(3) {
                        0 => 1,
                        1 => u32::MAX,
                        _ => u32::try_from(rng.next_u64() & 0xFFFF_FFFF).unwrap_or(1) | 1,
                    },
                    // At or below the left neighbour's start.
                    Some(left) => {
                        let left = u32_at(&out, g.interval(left));
                        match rng.below(3) {
                            0 => left,
                            1 => left.saturating_sub(1),
                            _ => u32::try_from(rng.below(u64::from(left) + 1)).unwrap_or(0),
                        }
                    }
                };
                put_u32(&mut out, g.interval(i), value);
            }
            refix_checksum(&mut out);
        }
        MutationClass::RecordBitFlip => {
            let g = geometry(&out);
            let end = out.len().min(g.data_start + g.data_len);
            if end > g.data_start {
                let span = (end - g.data_start) as u64;
                let flips = rng.range(1, 8);
                for _ in 0..flips {
                    let at = g.data_start + usize::try_from(rng.below(span)).unwrap_or(0);
                    let bit = rng.below(8);
                    if let Some(b) = out.get_mut(at) {
                        *b ^= 1u8 << bit;
                    }
                }
            }
            refix_checksum(&mut out);
        }
        MutationClass::StringLenOversize => {
            let g = geometry(&out);
            let end = out.len().min(g.data_start + g.data_len);
            if end > g.data_start {
                let span = (end - g.data_start) as u64;
                let hits = rng.range(1, 4);
                for _ in 0..hits {
                    let at = g.data_start + usize::try_from(rng.below(span)).unwrap_or(0);
                    if let Some(b) = out.get_mut(at) {
                        *b = 0xFF;
                    }
                }
            }
            refix_checksum(&mut out);
        }
        MutationClass::Truncate => {
            let cut = usize::try_from(rng.below(out.len().saturating_add(1) as u64)).unwrap_or(0);
            out.truncate(cut);
            // No checksum re-fix: stale-checksum rejection is the point.
        }
        MutationClass::IntervalRecordOutOfRange => {
            let g = geometry(&out);
            if g.intervals > 0 {
                let record_count = u32_at(&out, 12);
                let hits = rng.range(1, 4);
                for _ in 0..hits {
                    let i = usize::try_from(rng.below(g.intervals as u64)).unwrap_or(0);
                    let value = match rng.below(3) {
                        0 => record_count,
                        1 => NONE - 1,
                        _ => {
                            let span = u64::from((NONE - 1).saturating_sub(record_count));
                            record_count.saturating_add(u32::try_from(rng.below(span)).unwrap_or(0))
                        }
                    };
                    put_u32(&mut out, g.interval(i) + 4, value);
                }
            }
            refix_checksum(&mut out);
        }
        MutationClass::IntervalSplitJoin => {
            let g = geometry(&out);
            if g.intervals >= 2 {
                let i = usize::try_from(rng.below(g.intervals as u64 - 1)).unwrap_or(0);
                // Interval i's record onto i + 1, or i + 1's onto i.
                let (from, to) = if rng.chance(50) {
                    (i, i + 1)
                } else {
                    (i + 1, i)
                };
                let record = u32_at(&out, g.interval(from) + 4);
                put_u32(&mut out, g.interval(to) + 4, record);
            }
            refix_checksum(&mut out);
        }
        MutationClass::IntervalTruncate => {
            let g = geometry(&out);
            let len = g.intervals.saturating_mul(INTERVAL_WIDTH);
            let cut = g.intervals_start + usize::try_from(rng.below(len as u64)).unwrap_or(0);
            out.truncate(cut.min(out.len()));
            // No checksum re-fix: stale-checksum rejection is the point.
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{build_entry, Scale};

    #[test]
    fn mutations_are_deterministic() {
        let image = build_entry(5, Scale::Tiny).image();
        for class in MutationClass::ALL {
            let a = apply(class, &image, &mut FuzzRng::new(99));
            let b = apply(class, &image, &mut FuzzRng::new(99));
            assert_eq!(a, b, "{}", class.label());
        }
    }

    #[test]
    fn interval_mutants_fail_the_check_they_aim_at() {
        // The three re-fixed interval classes get past the checksum and
        // are rejected in the interval section, every trial; the cut
        // keeps its stale checksum and falls short of the layout.
        use routergeo_db::rgdb2::{RgdbError, Section};
        let image = build_entry(5, Scale::Small).image();
        for class in [
            MutationClass::IntervalStartDisorder,
            MutationClass::IntervalRecordOutOfRange,
            MutationClass::IntervalSplitJoin,
            MutationClass::IntervalTruncate,
        ] {
            for t in 0..50u64 {
                let mutated = apply(class, &image, &mut FuzzRng::new(t));
                let err = routergeo_db::Rgdb2Reader::open(bytes::Bytes::from(mutated))
                    .expect_err("an interval mutant never opens");
                if class == MutationClass::IntervalTruncate {
                    assert_eq!(err, RgdbError::Truncated, "trial {t}");
                } else {
                    let section = err.context().map(|ctx| ctx.section);
                    assert_eq!(
                        section,
                        Some(Section::Intervals),
                        "{} trial {t}: {err}",
                        class.label()
                    );
                }
            }
        }
    }

    #[test]
    fn geometry_reaches_the_record_and_string_sections() {
        // A record bit-flip gets past the checksum gate and is judged
        // by the canonical-encoding validation instead.
        let image = build_entry(5, Scale::Small).image();
        let mut rejected_structurally = 0;
        for t in 0..50u64 {
            let mut rng = FuzzRng::new(t);
            let mutated = apply(MutationClass::RecordBitFlip, &image, &mut rng);
            match routergeo_db::Rgdb2Reader::open(bytes::Bytes::from(mutated)) {
                Err(routergeo_db::rgdb2::RgdbError::ChecksumMismatch) => {
                    panic!("record mutation died at the checksum gate")
                }
                Err(_) => rejected_structurally += 1,
                Ok(_) => {}
            }
        }
        // Canonical-encoding validation makes most record flips fatal
        // at open; if none were, the mutator missed the record section.
        assert!(rejected_structurally > 0);
    }

    #[test]
    fn labels_roundtrip() {
        for class in MutationClass::ALL {
            assert_eq!(MutationClass::parse(class.label()), Some(class));
        }
        assert_eq!(MutationClass::parse("nope"), None);
    }
}
