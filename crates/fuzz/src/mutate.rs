//! Grammar-aware RGDB mutators.
//!
//! A naive byte-flipping fuzzer dies at the image checksum: the reader
//! validates FNV-1a over the payload before anything structural, so
//! every mutation would be rejected at the same shallow check and the
//! deep decode paths would never run. These mutators know the format —
//! they target specific sections and then **re-fix the checksum** so
//! the structural validation is what gets exercised. The `Truncate`
//! class deliberately skips the re-fix: length/checksum rejection is a
//! path worth fuzzing too.
//!
//! Layout facts used here mirror `crates/db/src/rgdb2.rs`: the 28-byte
//! header (`magic u32 | version u16 | name_len u16 | node_count u32 |
//! record_count u32 | strings_len u32 | checksum u64`), the name, a
//! 512 KiB stride-16 root table (65 536 × 8-byte `record u32 | node
//! u32` entries), `node_count × 12` bytes of nodes, `record_count × 20`
//! fixed-width records, and the string table. `geometry` reads the
//! section bounds the header claims, so every mutator targets the
//! real payload region and the three root-table classes target the
//! root table specifically.

use crate::rng::FuzzRng;

/// Fixed header length (see the format doc in `rgdb2.rs`).
const HEADER_LEN: usize = 28;

/// The typed mutation classes. Each is a distinct grammar production,
/// not a distinct byte pattern — `cargo xtask fuzz` reports coverage
/// per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationClass {
    /// Overwrite one header field (version, name_len, node_count,
    /// record_count, strings_len) with an adversarial value.
    HeaderFieldFlip,
    /// Copy one payload range over another (length-preserving splice),
    /// tearing section boundaries without changing the total size.
    SectionSplice,
    /// Overwrite trie node links/record indices with out-of-range
    /// values, self-loops, or the byte length of the records and
    /// strings.
    NodeLinkCorrupt,
    /// Flip individual bits in the record and string sections.
    RecordBitFlip,
    /// Saturate record and string bytes to 0xFF so string offsets and
    /// length prefixes claim more bytes than the table holds.
    StringLenOversize,
    /// Cut the image at an arbitrary point (checksum left stale on
    /// purpose: rejection-by-length/checksum is also a fuzzed path).
    Truncate,
    /// Copy one root-table range over another (length-preserving
    /// splice confined to the root table), breaking entries away from
    /// what the trie derives.
    RootTableSplice,
    /// Overwrite root entries (`record u32 | node u32`) with
    /// out-of-range indices, NONE-vs-valid flips, and random words.
    RootEntryOutOfRange,
    /// Cut the image *inside* the root table (checksum left stale
    /// like [`MutationClass::Truncate`]) so the 512 KiB stride section
    /// itself is what falls short.
    StrideTruncate,
}

impl MutationClass {
    /// Every class, in reporting order.
    pub const ALL: [MutationClass; 9] = [
        MutationClass::HeaderFieldFlip,
        MutationClass::SectionSplice,
        MutationClass::NodeLinkCorrupt,
        MutationClass::RecordBitFlip,
        MutationClass::StringLenOversize,
        MutationClass::Truncate,
        MutationClass::RootTableSplice,
        MutationClass::RootEntryOutOfRange,
        MutationClass::StrideTruncate,
    ];

    /// Stable kebab-case label (used in replay specs and JSON).
    pub fn label(self) -> &'static str {
        match self {
            MutationClass::HeaderFieldFlip => "header-field-flip",
            MutationClass::SectionSplice => "section-splice",
            MutationClass::NodeLinkCorrupt => "node-link-corrupt",
            MutationClass::RecordBitFlip => "record-bit-flip",
            MutationClass::StringLenOversize => "string-len-oversize",
            MutationClass::Truncate => "truncate",
            MutationClass::RootTableSplice => "root-table-splice",
            MutationClass::RootEntryOutOfRange => "root-entry-out-of-range",
            MutationClass::StrideTruncate => "stride-truncate",
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

/// FNV-1a64 — must match the reader's checksum exactly.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Recompute the payload checksum and patch header bytes 20..28, so a
/// structurally-mutated image passes the checksum gate and reaches the
/// deep validation paths.
pub fn refix_checksum(bytes: &mut [u8]) {
    if bytes.len() < HEADER_LEN {
        return;
    }
    let sum = match bytes.get(HEADER_LEN..) {
        Some(payload) => fnv1a(payload),
        None => return,
    };
    if let Some(slot) = bytes.get_mut(20..28) {
        slot.copy_from_slice(&sum.to_le_bytes());
    }
}

/// Size of the stride-16 root table (65 536 × 8-byte entries).
const ROOT_TABLE_BYTES: usize = (1 << 16) * 8;

/// Section geometry as *claimed by the header* (which mutation may have
/// already falsified — all uses stay bounds-checked).
struct Geometry {
    root_start: usize,
    nodes_start: usize,
    nodes_len: usize,
    data_start: usize,
    data_len: usize,
}

fn geometry(bytes: &[u8]) -> Geometry {
    let name_len = usize::from(u16_at(bytes, 6));
    let node_count = usize::try_from(u32_at(bytes, 8)).unwrap_or(0);
    // Fixed-width records then the string table; the header's length
    // field at 16 covers only the strings.
    let records = usize::try_from(u32_at(bytes, 12))
        .unwrap_or(0)
        .saturating_mul(20);
    let strings = usize::try_from(u32_at(bytes, 16)).unwrap_or(0);
    let root_start = HEADER_LEN + name_len;
    let nodes_start = root_start + ROOT_TABLE_BYTES;
    let nodes_len = node_count.saturating_mul(12);
    Geometry {
        root_start,
        nodes_start,
        nodes_len,
        data_start: nodes_start + nodes_len,
        data_len: records.saturating_add(strings),
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
        MutationClass::NodeLinkCorrupt => {
            let g = geometry(&out);
            let node_count = (g.nodes_len / 12) as u64;
            if node_count > 0 {
                let hits = rng.range(1, 4);
                for _ in 0..hits {
                    let node = usize::try_from(rng.below(node_count)).unwrap_or(0);
                    let slot = usize::try_from(rng.below(3)).unwrap_or(0);
                    let at = g.nodes_start + node * 12 + slot * 4;
                    let value = match rng.below(6) {
                        0 => u32::MAX - 1,                           // huge link
                        1 => u32::try_from(node_count).unwrap_or(0), // first out-of-range node
                        2 => u32::try_from(node).unwrap_or(0),       // self-loop
                        3 => 0,                                      // loop back to the root
                        4 => u32::try_from(g.data_len).unwrap_or(0), // records + strings length
                        _ => u32::try_from(rng.next_u64() & 0xFFFF_FFFF).unwrap_or(1) | 1,
                    };
                    put_u32(&mut out, at, value);
                }
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
        MutationClass::RootTableSplice => {
            let g = geometry(&out);
            let end = out.len().min(g.root_start + ROOT_TABLE_BYTES);
            let span_total = end.saturating_sub(g.root_start);
            if span_total >= 16 {
                // Entry-aligned splice so whole (record, node) pairs
                // move — the canonical-table check must catch it.
                let entries = (span_total / 8) as u64;
                let count = rng.range(1, (entries / 2).max(2));
                let src =
                    g.root_start + usize::try_from(rng.below(entries - count + 1)).unwrap_or(0) * 8;
                let dst =
                    g.root_start + usize::try_from(rng.below(entries - count + 1)).unwrap_or(0) * 8;
                let len = usize::try_from(count).unwrap_or(1) * 8;
                if src != dst {
                    let chunk: Vec<u8> = out
                        .get(src..src + len)
                        .map(<[u8]>::to_vec)
                        .unwrap_or_default();
                    if let Some(slot) = out.get_mut(dst..dst + chunk.len()) {
                        slot.copy_from_slice(&chunk);
                    }
                }
            }
            refix_checksum(&mut out);
        }
        MutationClass::RootEntryOutOfRange => {
            let g = geometry(&out);
            let end = out.len().min(g.root_start + ROOT_TABLE_BYTES);
            let entries = (end.saturating_sub(g.root_start) / 8) as u64;
            if entries > 0 {
                let node_count = (g.nodes_len / 12) as u64;
                let hits = rng.range(1, 4);
                for _ in 0..hits {
                    let entry = usize::try_from(rng.below(entries)).unwrap_or(0);
                    let half = usize::try_from(rng.below(2)).unwrap_or(0); // record | node
                    let at = g.root_start + entry * 8 + half * 4;
                    let value = match rng.below(6) {
                        0 => u32::MAX - 1,                           // huge index
                        1 => u32::try_from(node_count).unwrap_or(0), // first out-of-range node
                        2 => 0,                                      // point everything at the root
                        3 => u32::MAX, // NONE where the trie has a value
                        4 => u32::try_from(entry).unwrap_or(0), // entry index as payload
                        _ => u32::try_from(rng.next_u64() & 0xFFFF_FFFF).unwrap_or(1),
                    };
                    put_u32(&mut out, at, value);
                }
            }
            refix_checksum(&mut out);
        }
        MutationClass::StrideTruncate => {
            let g = geometry(&out);
            // Cut inside the root table itself: the 512 KiB stride
            // section is what falls short of the claimed layout.
            let cut =
                g.root_start + usize::try_from(rng.below(ROOT_TABLE_BYTES as u64 + 1)).unwrap_or(0);
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
    fn checksum_refix_reaches_structural_validation() {
        // A node-link mutation with the checksum re-fixed must get past
        // ChecksumMismatch: open either succeeds or fails structurally.
        let image = build_entry(5, Scale::Small).image();
        let mut deep = 0;
        for t in 0..50u64 {
            let mut rng = FuzzRng::new(t);
            let mutated = apply(MutationClass::NodeLinkCorrupt, &image, &mut rng);
            match routergeo_db::Rgdb2Reader::open(bytes::Bytes::from(mutated)) {
                Err(routergeo_db::rgdb2::RgdbError::ChecksumMismatch) => {
                    panic!("mutation died at the checksum gate")
                }
                Err(_) => deep += 1,
                Ok(_) => deep += 1,
            }
        }
        assert!(deep > 0);
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
