//! RGDB — the MaxMind-style binary geolocation database format.
//!
//! An image is a flat, zero-copy layout: fixed-width trie nodes and
//! records plus a deduplicated string table, fully validated once at
//! [`Rgdb2Reader::open`], so a point lookup is pure pointer arithmetic
//! over `&[u8]`: **no parse after open, no locks**. Lookups borrow
//! region/city bytes straight from the image into a [`CompactRecord`].
//! Batches are answered from the one structure a reader builds after
//! open: on the first [`GeoDatabase::locate_batch`], one in-order walk
//! flattens the trie into a [`RangeMap`] of record ids, and each batch
//! is one monotone sweep over it, the sweep [`InMemoryDb`] runs.
//!
//! [`InMemoryDb`]: crate::InMemoryDb
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header (28 bytes):
//!   0   magic        b"RGDB"
//!   4   version      u16      (3: the layout revision called v2.1)
//!   6   name_len     u16      database display name length
//!   8   node_count   u32      number of trie nodes
//!   12  record_count u32      number of deduplicated records
//!   16  strings_len  u32      byte length of the string table
//!   20  checksum     u64      FNV-1a64 over name + root + nodes + records + strings
//! name:    name_len bytes of UTF-8
//! root:    65 536 × 8 bytes: record u32, node u32 (stride-16 root table)
//! nodes:   node_count × 12 bytes: left u32, right u32, record u32
//!          (0xFFFF_FFFF = none; `record` is an *index* into the record
//!          array, not a byte offset)
//! records: record_count × 20 bytes, fixed-width:
//!   0   flags       u8   (bit0 country, bit1 region, bit2 city, bit3 coord)
//!   1   granularity u8
//!   2   country     2 ASCII bytes        (zeroed when absent)
//!   4   region_off  u32 into strings     (0xFFFF_FFFF when absent)
//!   8   city_off    u32 into strings     (0xFFFF_FFFF when absent)
//!   12  lat         i32 micro-degrees    (zero when absent)
//!   16  lon         i32 micro-degrees    (zero when absent)
//! strings: deduplicated `len u8 + bytes` entries, strings_len total
//! ```
//!
//! Two layout guarantees aim at memory latency on the lookup path:
//!
//! - **Stride-16 root table.** A fixed 65 536 × 8-byte section between
//!   the name and the nodes, indexed by an address's top sixteen bits.
//!   Each entry is `record u32 | node u32`: the deepest record on the
//!   trie walk through depth 16, and the depth-16 subtrie root when the
//!   walk reaches one (`0xFFFF_FFFF` = none on either side). The common
//!   case replaces up to 16 dependent node hops with one indexed load.
//! - **Level-order node placement.** The trie nodes are laid out
//!   breadth-first: node 0 is the root and, scanning nodes in index
//!   order, the non-`NONE` child links are exactly 1, 2, 3, … so each
//!   trie level is one contiguous index range, ordered by address, and
//!   the validator proves in one forward pass that every node is
//!   reachable exactly once.
//!
//! Both are **pure acceleration**: the full trie is retained, so a
//! plain walk from the root (which [`Rgdb2Reader::match_len`] takes)
//! answers identically, and so does the flattened range map.
//!
//! The encoding is **canonical**: unknown flag bits, non-zeroed absent
//! fields, out-of-range offsets, bad UTF-8, or out-of-range coordinates
//! are all rejected at [`Rgdb2Reader::open`]. It reads the payload once,
//! front to back, as fixed-width nodes and records, folding each into
//! the checksum and checking it in the same iteration; the checksum is
//! a serial multiply chain, so the checks cost little beyond it. Each
//! distinct string offset is checked once. The same pass checks the
//! level-order placement invariant, and the entire root table is then
//! re-derived from the nodes, rejecting any entry that disagrees — a
//! root table can never change an answer, only speed it up. A checksum
//! mismatch outranks every structural error; the `open` docs give the
//! full order of the verdicts. Any header version other than 3 is
//! rejected with [`RgdbError::BadVersion`]. After that single pass the
//! reader is immutable shared state: `&Rgdb2Reader` is freely usable
//! from any number of threads with zero coordination.

// A lookup path: width changes go through `From`/`TryFrom`, and corrupt
// input surfaces as an error rather than an out-of-bounds panic.
#![deny(clippy::as_conversions, clippy::indexing_slicing)]

use crate::compact::{CompactRecord, LocationInterner, MISS};
use crate::record::{Granularity, LocationRecord};
use crate::GeoDatabase;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use routergeo_geo::{Coordinate, CountryCode};
use routergeo_net::{Prefix, PrefixTrie, RangeMap, RangeMapBuilder, SortedBatch};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

const MAGIC: &[u8; 4] = b"RGDB";
/// On-disk header version of the layout (the revision called v2.1).
const VERSION: u16 = 3;
const NONE: u32 = u32::MAX;
pub(crate) const HEADER_LEN: usize = 28;
/// Fixed byte width of one record in the record array.
const RECORD_WIDTH: usize = 20;
/// Byte width of one trie node.
const NODE_WIDTH: usize = 12;
/// Byte width of one stride-16 root-table entry: `record u32 | node u32`.
const ROOT_ENTRY_WIDTH: usize = 8;
/// Total byte length of the root table: one entry per /16.
const ROOT_TABLE_BYTES: usize = (1 << 16) * ROOT_ENTRY_WIDTH;

/// Image region a structural error is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The 28-byte fixed header.
    Header,
    /// The display-name bytes following the header.
    Name,
    /// The trie node array.
    Nodes,
    /// The fixed-width record array.
    Records,
    /// The interned string table.
    Strings,
    /// The stride-16 root table.
    RootTable,
}

impl Section {
    /// Lower-case label used in rendered errors.
    pub fn label(self) -> &'static str {
        match self {
            Section::Header => "header",
            Section::Name => "name",
            Section::Nodes => "nodes",
            Section::Records => "records",
            Section::Strings => "strings",
            Section::RootTable => "root-table",
        }
    }
}

/// Where a structural error was detected and what the reader expected
/// to find there. `offset` is an absolute byte offset from the start of
/// the image, so a hexdump of the rejected file lines up directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptContext {
    /// Which image section the offending bytes live in.
    pub section: Section,
    /// Absolute byte offset from the start of the image.
    pub offset: usize,
    /// What the reader expected at that offset.
    pub expected: &'static str,
}

impl fmt::Display for CorruptContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} section, byte {}: expected {}",
            self.section.label(),
            self.offset,
            self.expected
        )
    }
}

/// Errors reading an RGDB image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RgdbError {
    /// Buffer shorter than the advertised layout.
    Truncated,
    /// Magic bytes missing.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Checksum mismatch — corrupt image.
    ChecksumMismatch,
    /// Structural corruption (out-of-range offsets, bad UTF-8, …),
    /// attributed to a section and absolute offset.
    Corrupt(CorruptContext),
    /// I/O failure loading an image from disk, attributed to the file
    /// path and the operation that failed. Carries the OS error
    /// category rather than the full `std::io::Error` so the error type
    /// stays `Clone + Eq` for the differential and replay harnesses.
    Io {
        /// Path of the image file.
        path: String,
        /// Operation that failed (`"open"`, `"metadata"`, `"read"`).
        op: &'static str,
        /// OS error category.
        kind: std::io::ErrorKind,
    },
}

impl RgdbError {
    /// Build a [`RgdbError::Corrupt`] with full attribution.
    pub(crate) fn corrupt(section: Section, offset: usize, expected: &'static str) -> RgdbError {
        RgdbError::Corrupt(CorruptContext {
            section,
            offset,
            expected,
        })
    }

    /// Structural-corruption context, if this error carries one.
    pub fn context(&self) -> Option<&CorruptContext> {
        match self {
            RgdbError::Corrupt(ctx) => Some(ctx),
            _ => None,
        }
    }
}

impl fmt::Display for RgdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RgdbError::Truncated => f.write_str("RGDB image truncated"),
            RgdbError::BadMagic => f.write_str("not an RGDB image (bad magic)"),
            RgdbError::BadVersion(v) => write!(f, "unsupported RGDB version {v}"),
            RgdbError::ChecksumMismatch => f.write_str("RGDB checksum mismatch"),
            RgdbError::Corrupt(ctx) => write!(f, "corrupt RGDB image: {ctx}"),
            RgdbError::Io { path, op, kind } => {
                write!(f, "RGDB image I/O failure: {op} `{path}`: {kind}")
            }
        }
    }
}

impl std::error::Error for RgdbError {}

/// FNV-1a64's offset basis: the state before the first byte.
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold `bytes` into the FNV-1a64 state `h`, so `fnv1a(FNV_OFFSET, b)`
/// is the checksum of `b`. The writer hashes its payload in one call;
/// [`Rgdb2Reader::open`] carries the state through the payload one node
/// or record at a time, checking each as it goes.
#[inline]
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A stored `u32` link or offset as a slice index. `u32` always fits in
/// `usize` on the 32/64-bit targets this crate supports; the check makes
/// the conversion explicit rather than silently lossy.
#[inline]
fn ix(i: u32) -> usize {
    usize::try_from(i).expect("u32 image offset fits in usize")
}

/// Quantize a coordinate component to integer micro-degrees.
#[expect(
    clippy::cast_possible_truncation,
    clippy::as_conversions,
    reason = "f64->i32 bounded by Coordinate's +/-180 degree invariant; no checked float \
              conversion exists in std"
)]
fn micro_deg(deg: f64) -> i32 {
    let scaled = (deg * 1e6).round();
    // Coordinate invariants bound |deg| by 180, so the scaled value stays
    // far inside i32 range and the cast below cannot truncate.
    scaled as i32
}

// ---- writer -----------------------------------------------------------------

/// Intern `s` into the string table as a length-prefixed entry,
/// truncated at the format's 255-byte cap, returning its byte offset.
/// Deduplicates on the truncated bytes so equal post-cap strings share
/// one entry.
fn intern_string(strings: &mut BytesMut, seen: &mut HashMap<Vec<u8>, u32>, s: &str) -> u32 {
    let take = s.len().min(255);
    let bytes = s.as_bytes().get(..take).unwrap_or(s.as_bytes());
    if let Some(&off) = seen.get(bytes) {
        return off;
    }
    let off = u32::try_from(strings.len()).expect("RGDB string table exceeds u32 offset space");
    strings.put_u8(u8::try_from(take).expect("length capped at 255"));
    strings.put_slice(bytes);
    seen.insert(bytes.to_vec(), off);
    off
}

/// Encode one record into its fixed 20-byte form, interning strings.
fn encode_record(
    rec: &LocationRecord,
    strings: &mut BytesMut,
    seen: &mut HashMap<Vec<u8>, u32>,
) -> [u8; RECORD_WIDTH] {
    let mut flags = 0u8;
    if rec.country.is_some() {
        flags |= 1;
    }
    if rec.region.is_some() {
        flags |= 2;
    }
    if rec.city.is_some() {
        flags |= 4;
    }
    if rec.coord.is_some() {
        flags |= 8;
    }
    let mut out = BytesMut::with_capacity(RECORD_WIDTH);
    out.put_u8(flags);
    out.put_u8(rec.granularity.id());
    match rec.country {
        Some(cc) => out.put_slice(&cc.bytes()),
        None => out.put_slice(&[0, 0]),
    }
    match &rec.region {
        Some(s) => out.put_u32_le(intern_string(strings, seen, s)),
        None => out.put_u32_le(NONE),
    }
    match &rec.city {
        Some(s) => out.put_u32_le(intern_string(strings, seen, s)),
        None => out.put_u32_le(NONE),
    }
    match rec.coord {
        Some(c) => {
            out.put_i32_le(micro_deg(c.lat()));
            out.put_i32_le(micro_deg(c.lon()));
        }
        None => {
            out.put_i32_le(0);
            out.put_i32_le(0);
        }
    }
    let bytes: [u8; RECORD_WIDTH] = out
        .as_ref()
        .try_into()
        .expect("record encoding is exactly RECORD_WIDTH bytes");
    bytes
}

/// Flatten a prefix trie into the serialized node-arena layout:
/// `[left, right, record]` triples with [`NONE`] for absent links,
/// root at index 0. The arena in [`PrefixTrie`] is not directly
/// accessible, so rebuild: walk prefixes and re-insert into a local
/// arena with identical semantics.
fn flatten_trie(trie: &PrefixTrie<u32>) -> Vec<[u32; 3]> {
    let mut nodes: Vec<[u32; 3]> = vec![[NONE, NONE, NONE]];
    trie.walk(|prefix, payload| {
        let mut node = 0usize;
        let addr = prefix.network_u32();
        for depth in 0..prefix.len() {
            let bit = usize::from((addr >> (31 - u32::from(depth))) & 1 == 1);
            let next = node_link(&nodes, node, bit);
            let next = if next == NONE {
                let idx =
                    u32::try_from(nodes.len()).expect("RGDB node section exceeds u32 link space");
                nodes.push([NONE, NONE, NONE]);
                set_node_link(&mut nodes, node, bit, idx);
                idx
            } else {
                next
            };
            node = ix(next);
        }
        set_node_link(&mut nodes, node, 2, *payload);
    });
    nodes
}

/// Read one writer-arena link. Every `node`/`slot` pair here comes from
/// an index the arena itself handed out, so a miss is a builder bug.
#[inline]
fn node_link(nodes: &[[u32; 3]], node: usize, slot: usize) -> u32 {
    *nodes
        .get(node)
        .and_then(|n| n.get(slot))
        .expect("arena link in bounds by construction")
}

/// Write one writer-arena link; same invariant as [`node_link`].
#[inline]
fn set_node_link(nodes: &mut [[u32; 3]], node: usize, slot: usize, value: u32) {
    *nodes
        .get_mut(node)
        .and_then(|n| n.get_mut(slot))
        .expect("arena link in bounds by construction") = value;
}

/// Renumber the flattened trie into level order (BFS from the root):
/// node 0 stays the root, its children come next, then the
/// grandchildren, and so on. Scanning nodes in index order, the
/// non-`NONE` child links are then exactly 1, 2, 3, … — the placement
/// invariant the validator pins, which proves in one forward pass that
/// every node is reachable exactly once.
fn bfs_nodes(trie: &PrefixTrie<u32>) -> Vec<[u32; 3]> {
    let arena = flatten_trie(trie);
    // Visit order doubles as the new→old index table.
    let mut order: Vec<usize> = Vec::with_capacity(arena.len());
    let mut new_of: Vec<u32> = vec![NONE; arena.len()];
    order.push(0);
    if let Some(slot) = new_of.get_mut(0) {
        *slot = 0;
    }
    let mut head = 0usize;
    while head < order.len() {
        let old = *order.get(head).expect("head < order.len()");
        head += 1;
        let node = *arena.get(old).expect("flattened links stay in bounds");
        for link in [node[0], node[1]] {
            if link != NONE {
                let renumbered = u32::try_from(order.len()).expect("node count exceeds u32");
                if let Some(slot) = new_of.get_mut(ix(link)) {
                    *slot = renumbered;
                }
                order.push(ix(link));
            }
        }
    }
    debug_assert_eq!(order.len(), arena.len(), "trie arena fully reachable");
    order
        .iter()
        .map(|&old| {
            let n = *arena.get(old).expect("visited nodes are in bounds");
            let remap = |link: u32| {
                if link == NONE {
                    NONE
                } else {
                    *new_of
                        .get(ix(link))
                        .expect("flattened links stay in bounds")
                }
            };
            [remap(n[0]), remap(n[1]), n[2]]
        })
        .collect()
}

/// The canonical stride-16 root table of a trie, as runs of equal
/// entries: depth-first over the top sixteen levels, `emit(first,
/// count, entry)` covers `/16` indices `first..first + count`, where
/// `entry` is the deepest record seen on the path and the depth-16
/// subtrie root (`NONE` for a span the trie does not reach). The
/// writer stores the entries and [`Rgdb2Reader::open`] compares them
/// with the stored table, so "canonical root table" has exactly one
/// definition in the codebase. The walk stops at depth 16, so it ends
/// on any node source.
fn root_entries(
    node_at: impl Fn(u32) -> (u32, u32, u32),
    mut emit: impl FnMut(usize, usize, [u8; ROOT_ENTRY_WIDTH]),
) {
    let entry = |record: u32, node: u32| {
        let ([r0, r1, r2, r3], [n0, n1, n2, n3]) = (record.to_le_bytes(), node.to_le_bytes());
        [r0, r1, r2, r3, n0, n1, n2, n3]
    };
    // (node, depth, first /16 index under this node, best record so far)
    let mut stack: Vec<(u32, u32, usize, u32)> = vec![(0, 0, 0, NONE)];
    while let Some((node, depth, base, mut best)) = stack.pop() {
        let (left, right, record) = node_at(node);
        if record != NONE {
            best = record;
        }
        if depth == 16 {
            emit(base, 1, entry(best, node));
            continue;
        }
        let half = 1usize << (16 - depth - 1);
        for (child, child_base) in [(left, base), (right, base + half)] {
            if child == NONE {
                emit(child_base, half, entry(best, NONE));
            } else {
                stack.push((child, depth + 1, child_base, best));
            }
        }
    }
}

/// Serialize `(prefix, record)` entries into an RGDB image: records
/// deduplicated by their fixed-width encoding and strings by content,
/// plus the stride-16 root table and level-order node placement
/// described in the module docs.
pub fn write_v21<'a, I>(name: &str, entries: I) -> Bytes
where
    I: IntoIterator<Item = (Prefix, &'a LocationRecord)>,
{
    let mut strings = BytesMut::new();
    let mut seen_strings: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut records = BytesMut::new();
    let mut seen_records: HashMap<[u8; RECORD_WIDTH], u32> = HashMap::new();
    let mut trie: PrefixTrie<u32> = PrefixTrie::new();
    let mut record_count = 0u32;
    for (prefix, rec) in entries {
        let encoded = encode_record(rec, &mut strings, &mut seen_strings);
        let index = *seen_records.entry(encoded).or_insert_with(|| {
            let idx = record_count;
            record_count = record_count
                .checked_add(1)
                .expect("RGDB record count exceeds u32");
            records.put_slice(&encoded);
            idx
        });
        trie.insert(prefix, index);
    }
    // The dedup maps are done: free them before the node, root-table
    // and payload passes allocate, so they do not add to the peak.
    drop((seen_strings, seen_records));
    let nodes = bfs_nodes(&trie);
    let mut root = vec![[0u8; ROOT_ENTRY_WIDTH]; ROOT_TABLE_BYTES / ROOT_ENTRY_WIDTH];
    root_entries(
        |idx| {
            let n = nodes
                .get(ix(idx))
                .expect("writer node links stay in bounds");
            (n[0], n[1], n[2])
        },
        |first, count, entry| {
            if let Some(run) = root.get_mut(first..first + count) {
                run.fill(entry);
            }
        },
    );

    // The checksum covers everything after the header.
    let name_bytes = name.as_bytes();
    let mut payload = BytesMut::with_capacity(
        name_bytes.len()
            + ROOT_TABLE_BYTES
            + nodes.len() * NODE_WIDTH
            + records.len()
            + strings.len(),
    );
    payload.put_slice(name_bytes);
    payload.put_slice(root.as_flattened());
    for n in &nodes {
        payload.put_u32_le(n[0]);
        payload.put_u32_le(n[1]);
        payload.put_u32_le(n[2]);
    }
    payload.put_slice(&records);
    payload.put_slice(&strings);
    let checksum = fnv1a(FNV_OFFSET, &payload);

    let mut out = BytesMut::with_capacity(HEADER_LEN + payload.len());
    out.put_slice(MAGIC);
    out.put_u16_le(VERSION);
    out.put_u16_le(u16::try_from(name_bytes.len()).expect("database name exceeds u16 length"));
    out.put_u32_le(u32::try_from(nodes.len()).expect("node count exceeds u32"));
    out.put_u32_le(record_count);
    out.put_u32_le(u32::try_from(strings.len()).expect("string table length exceeds u32"));
    out.put_u64_le(checksum);
    out.put_slice(&payload);
    out.freeze()
}

// ---- reader -----------------------------------------------------------------

/// One record's fields, with strings still as table offsets — the
/// borrow-free intermediate both lookup paths build from.
#[derive(Clone, Copy)]
struct RawRecord {
    granularity: Granularity,
    country: Option<CountryCode>,
    region_off: Option<u32>,
    city_off: Option<u32>,
    coord: Option<Coordinate>,
}

/// A node's `(left, right, record)` fields.
#[inline]
fn node_fields(node: &[u8; NODE_WIDTH]) -> (u32, u32, u32) {
    let [l0, l1, l2, l3, r0, r1, r2, r3, c0, c1, c2, c3] = *node;
    (
        u32::from_le_bytes([l0, l1, l2, l3]),
        u32::from_le_bytes([r0, r1, r2, r3]),
        u32::from_le_bytes([c0, c1, c2, c3]),
    )
}

/// Check one record's canonical fixed-width encoding and return its
/// fields, strings still as table offsets. `at` is the record's
/// absolute offset, which errors are attributed from. The fields are
/// checked in layout order, so the first bad one is the one named.
#[inline]
fn check_record(rec: &[u8; RECORD_WIDTH], at: usize) -> Result<RawRecord, RgdbError> {
    let [flags, gran, ca, cb, r0, r1, r2, r3, c0, c1, c2, c3, a0, a1, a2, a3, o0, o1, o2, o3] =
        *rec;
    let corrupt =
        |field: usize, expected| RgdbError::corrupt(Section::Records, at + field, expected);
    if flags & 0xF0 != 0 {
        return Err(corrupt(0, "known record flag bits"));
    }
    let granularity =
        Granularity::from_id(gran).ok_or_else(|| corrupt(1, "known granularity id"))?;
    let country = if flags & 1 != 0 {
        Some(CountryCode::new(ca, cb).ok_or_else(|| corrupt(2, "ASCII country code"))?)
    } else if (ca, cb) != (0, 0) {
        return Err(corrupt(2, "zeroed absent country field"));
    } else {
        None
    };
    // A string offset is present exactly when its flag bit is set, and
    // NONE exactly when it is clear.
    let offset = |bit: u8, off: u32, field: usize, [present, absent]: [&'static str; 2]| {
        let flagged = flags & bit != 0;
        match (flagged, off == NONE) {
            (true, true) => Err(corrupt(field, present)),
            (false, false) => Err(corrupt(field, absent)),
            _ => Ok(flagged.then_some(off)),
        }
    };
    let region_off = offset(
        2,
        u32::from_le_bytes([r0, r1, r2, r3]),
        4,
        ["present region offset", "NONE absent region offset"],
    )?;
    let city_off = offset(
        4,
        u32::from_le_bytes([c0, c1, c2, c3]),
        8,
        ["present city offset", "NONE absent city offset"],
    )?;
    let (lat, lon) = (
        i32::from_le_bytes([a0, a1, a2, a3]),
        i32::from_le_bytes([o0, o1, o2, o3]),
    );
    let coord = if flags & 8 != 0 {
        Some(
            Coordinate::new(f64::from(lat) / 1e6, f64::from(lon) / 1e6)
                .map_err(|_| corrupt(12, "coordinate within ±90/±180"))?,
        )
    } else if (lat, lon) != (0, 0) {
        return Err(corrupt(12, "zeroed absent coordinate field"));
    } else {
        None
    };
    Ok(RawRecord {
        granularity,
        country,
        region_off,
        city_off,
        coord,
    })
}

/// Fold `chunks` into the checksum state `h`, checking each one in the
/// same iteration while `verdict` holds no error; after the first
/// failure, which `verdict` keeps, the rest is only hashed. The hash
/// is a serial multiply chain, so the checks, which do not depend on
/// it, run in its shadow.
#[inline]
fn fold_checked<const N: usize>(
    h: &mut u64,
    verdict: &mut Result<(), RgdbError>,
    chunks: &[[u8; N]],
    mut check: impl FnMut(usize, &[u8; N]) -> Result<(), RgdbError>,
) {
    let mut rest = chunks.iter();
    if verdict.is_ok() {
        for (idx, chunk) in rest.by_ref().enumerate() {
            *h = fnv1a(*h, chunk);
            if let Err(e) = check(idx, chunk) {
                *verdict = Err(e);
                break;
            }
        }
    }
    *h = fnv1a(*h, rest.as_slice().as_flattened());
}

/// Zero-copy, lock-free reader over a validated RGDB image.
///
/// [`Rgdb2Reader::open`] checks every byte in one forward pass; after
/// that, a point lookup ([`Rgdb2Reader::try_lookup`], the daemon's
/// path) is pure pointer arithmetic over the image bytes — no mutex, no
/// per-lookup allocation on the compact path. The first
/// [`GeoDatabase::locate_batch`] flattens the trie into a range map of
/// record ids, 12 bytes per answered interval, which every later batch
/// sweeps; `open` and the point lookups never build it. Region/city
/// strings are borrowed from the image and interned at the call site,
/// never copied into reader-owned state.
pub struct Rgdb2Reader {
    image: Bytes,
    name: String,
    /// Absolute start of the root table.
    root_start: usize,
    nodes_start: usize,
    node_count: u32,
    records_start: usize,
    record_count: u32,
    strings_start: usize,
    strings_len: usize,
    /// The trie's longest-prefix answers as record-id intervals, built
    /// by the first batch ([`Rgdb2Reader::ranges`]).
    ranges: OnceLock<RangeMap<u32>>,
}

impl std::fmt::Debug for Rgdb2Reader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rgdb2Reader")
            .field("name", &self.name)
            .field("node_count", &self.node_count)
            .field("record_count", &self.record_count)
            .field("strings_len", &self.strings_len)
            .field("image_len", &self.image.len())
            .finish()
    }
}

impl Rgdb2Reader {
    /// Validate and open an image. All structural validation happens
    /// here — node links, record indices, flag canonicality, string
    /// offsets/UTF-8, coordinate ranges, level-order placement, and
    /// root-table canonicality — so lookups never parse.
    ///
    /// The checks run in one forward pass that also computes the
    /// checksum, and a checksum mismatch outranks every structural
    /// error. The verdict is the first failure in this order: the
    /// header (`Truncated`, `BadMagic`, `BadVersion`, the layout
    /// length), the checksum, a zero node count, the name's UTF-8, the
    /// nodes in index order, the level-order placement count, the
    /// records in index order (each record's fields, then its region
    /// and city strings), and the lowest root-table entry that differs
    /// from the one the nodes derive.
    pub fn open(image: Bytes) -> Result<Rgdb2Reader, RgdbError> {
        let mut h = image.get(..HEADER_LEN).ok_or(RgdbError::Truncated)?;
        let mut magic = [0u8; 4];
        h.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(RgdbError::BadMagic);
        }
        let version = h.get_u16_le();
        if version != VERSION {
            return Err(RgdbError::BadVersion(version));
        }
        let name_len = usize::from(h.get_u16_le());
        let node_count = h.get_u32_le();
        let record_count = h.get_u32_le();
        let strings_len = ix(h.get_u32_le());
        let checksum = h.get_u64_le();

        let root_start = HEADER_LEN + name_len;
        let nodes_start = root_start + ROOT_TABLE_BYTES;
        let records_start = nodes_start + ix(node_count) * NODE_WIDTH;
        let strings_start = records_start + ix(record_count) * RECORD_WIDTH;
        let expected_total = strings_start + strings_len;
        if image.len() != expected_total {
            return Err(RgdbError::Truncated);
        }
        let mut reader = Rgdb2Reader {
            image,
            name: String::new(),
            root_start,
            nodes_start,
            node_count,
            records_start,
            record_count,
            strings_start,
            strings_len,
            ranges: OnceLock::new(),
        };
        let (sum, verdict) = reader.check_payload();
        if sum != checksum {
            return Err(RgdbError::ChecksumMismatch);
        }
        if node_count == 0 {
            // Byte 8 is the node_count field in the fixed header.
            return Err(RgdbError::corrupt(
                Section::Header,
                8,
                "nonzero node count (trie needs a root)",
            ));
        }
        reader.name = std::str::from_utf8(reader.span(HEADER_LEN, root_start))
            .map_err(|_| RgdbError::corrupt(Section::Name, HEADER_LEN, "UTF-8 database name"))?
            .to_string();
        verdict?;
        Ok(reader)
    }

    /// The open-time pass: one walk over the payload, in image order,
    /// that folds every byte into the checksum and checks every node
    /// and record in the same iteration — the structural half of the
    /// verdict [`Rgdb2Reader::open`] documents, kept until the
    /// checksum is known. Each distinct string offset is checked once:
    /// a bitset over the string table's byte offsets remembers the
    /// ones that passed, so an offset into the middle of an entry is
    /// judged exactly as a lookup would read it. The root table, which
    /// the nodes derive, is compared last, once every node has passed.
    fn check_payload(&self) -> (u64, Result<(), RgdbError>) {
        let mut verdict = Ok(());
        // The name and the root table.
        let mut h = fnv1a(FNV_OFFSET, self.span(HEADER_LEN, self.nodes_start));
        let mut next_child = 1u32;
        fold_checked(&mut h, &mut verdict, self.nodes(), |idx, node| {
            self.check_node(idx, node, &mut next_child)
        });
        // Scanning nodes in index order, the non-NONE child links were
        // exactly 1, 2, 3, … (the BFS numbering), which proves every
        // node reachable exactly once from the root, acyclicity
        // included, once the count comes out right.
        if verdict.is_ok() && next_child != self.node_count {
            verdict = Err(RgdbError::corrupt(
                Section::Nodes,
                self.nodes_start,
                "every node placed in level order",
            ));
        }
        let (records, _) = self
            .span(self.records_start, self.strings_start)
            .as_chunks::<RECORD_WIDTH>();
        let mut seen = vec![0u64; self.strings_len.div_ceil(64)];
        fold_checked(&mut h, &mut verdict, records, |idx, rec| {
            let raw = check_record(rec, self.records_start + idx * RECORD_WIDTH)?;
            for off in [raw.region_off, raw.city_off].into_iter().flatten() {
                let bit = 1u64 << (off % 64);
                match seen.get_mut(ix(off) / 64) {
                    Some(word) if *word & bit != 0 => {}
                    word => {
                        self.str_at(off)?;
                        // An offset that resolved lies inside the table.
                        if let Some(word) = word {
                            *word |= bit;
                        }
                    }
                }
            }
            Ok(())
        });
        let h = fnv1a(h, self.span(self.strings_start, self.image.len()));
        if verdict.is_ok() {
            verdict = self.check_root_table();
        }
        (h, verdict)
    }

    /// Check node `idx`: its links in range and in level order (the
    /// next non-NONE link must be `next_child`, which advances past
    /// it), and its record index in range.
    #[inline]
    fn check_node(
        &self,
        idx: usize,
        node: &[u8; NODE_WIDTH],
        next_child: &mut u32,
    ) -> Result<(), RgdbError> {
        let (left, right, record) = node_fields(node);
        let at = self.nodes_start + idx * NODE_WIDTH;
        for link in [left, right] {
            if link != NONE {
                if link >= self.node_count {
                    return Err(RgdbError::corrupt(
                        Section::Nodes,
                        at,
                        "node link within node_count",
                    ));
                }
                if link != *next_child {
                    return Err(RgdbError::corrupt(
                        Section::Nodes,
                        at,
                        "level-order child placement",
                    ));
                }
                *next_child = next_child.wrapping_add(1);
            }
        }
        if record != NONE && record >= self.record_count {
            return Err(RgdbError::corrupt(
                Section::Nodes,
                at,
                "record index within record_count",
            ));
        }
        Ok(())
    }

    /// Require the stored root table to equal the one the (checked)
    /// nodes derive, naming the lowest entry that differs: the root
    /// table is pure acceleration and must never be able to change an
    /// answer.
    fn check_root_table(&self) -> Result<(), RgdbError> {
        let (stored, _) = self
            .span(self.root_start, self.nodes_start)
            .as_chunks::<ROOT_ENTRY_WIDTH>();
        let nodes = self.nodes();
        let mut lowest = usize::MAX;
        root_entries(
            |idx| nodes.get(ix(idx)).map_or((NONE, NONE, NONE), node_fields),
            |first, count, entry| {
                let run = stored.get(first..first + count).unwrap_or_default();
                if let Some(at) = run.iter().position(|stored| *stored != entry) {
                    lowest = lowest.min(first + at);
                }
            },
        );
        if lowest == usize::MAX {
            return Ok(());
        }
        Err(RgdbError::corrupt(
            Section::RootTable,
            self.root_start + lowest * ROOT_ENTRY_WIDTH,
            "canonical stride-16 root entry",
        ))
    }

    /// Database display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of deduplicated records in the record array.
    pub fn record_count(&self) -> u32 {
        self.record_count
    }

    /// Image bytes `from..to`: a section, whose bounds `open` checked
    /// against the image length.
    #[inline]
    fn span(&self, from: usize, to: usize) -> &[u8] {
        self.image.get(from..to).unwrap_or_default()
    }

    /// The node section as fixed-width nodes.
    #[inline]
    fn nodes(&self) -> &[[u8; NODE_WIDTH]] {
        self.span(self.nodes_start, self.records_start)
            .as_chunks()
            .0
    }

    #[inline]
    fn node(&self, idx: u32) -> Result<(u32, u32, u32), RgdbError> {
        let at = self.nodes_start + ix(idx) * NODE_WIDTH;
        if idx >= self.node_count {
            return Err(RgdbError::corrupt(
                Section::Nodes,
                at,
                "node link within node_count",
            ));
        }
        let node = (self.image.get(at..))
            .and_then(<[u8]>::first_chunk)
            .ok_or_else(|| RgdbError::corrupt(Section::Nodes, at, "12-byte node in bounds"))?;
        Ok(node_fields(node))
    }

    /// Read and canonically validate the fixed-width record at `idx`:
    /// the check `open` ran on every record ([`check_record`]).
    #[inline]
    fn raw_record(&self, idx: u32) -> Result<RawRecord, RgdbError> {
        let at = self.records_start + ix(idx) * RECORD_WIDTH;
        if idx >= self.record_count {
            return Err(RgdbError::corrupt(
                Section::Records,
                at,
                "record index within record_count",
            ));
        }
        let rec = (self.image.get(at..))
            .and_then(<[u8]>::first_chunk)
            .ok_or_else(|| RgdbError::corrupt(Section::Records, at, "20-byte record in bounds"))?;
        check_record(rec, at)
    }

    /// Borrow the string at table offset `off` straight from the image.
    #[inline]
    fn str_at(&self, off: u32) -> Result<&str, RgdbError> {
        let at = ix(off);
        let abs = self.strings_start + at;
        if at >= self.strings_len {
            return Err(RgdbError::corrupt(
                Section::Strings,
                abs,
                "string offset within string table",
            ));
        }
        let len = usize::from(*self.image.get(abs).ok_or_else(|| {
            RgdbError::corrupt(Section::Strings, abs, "string length byte in bounds")
        })?);
        if at + 1 + len > self.strings_len {
            return Err(RgdbError::corrupt(
                Section::Strings,
                abs + 1,
                "string bytes within string table",
            ));
        }
        let bytes = self.image.get(abs + 1..abs + 1 + len).ok_or_else(|| {
            RgdbError::corrupt(Section::Strings, abs + 1, "string bytes in bounds")
        })?;
        std::str::from_utf8(bytes)
            .map_err(|_| RgdbError::corrupt(Section::Strings, abs + 1, "UTF-8 string bytes"))
    }

    /// Read root-table entry `hi` (an address's top sixteen bits):
    /// `(record, node)`, either side possibly `NONE`.
    #[inline]
    fn root_entry(&self, hi: u32) -> Result<(u32, u32), RgdbError> {
        let at = self.root_start + ix(hi) * ROOT_ENTRY_WIDTH;
        let [r0, r1, r2, r3, n0, n1, n2, n3] = *(self.image.get(at..))
            .and_then(<[u8]>::first_chunk)
            .ok_or_else(|| {
                RgdbError::corrupt(Section::RootTable, at, "8-byte root entry in bounds")
            })?;
        Ok((
            u32::from_le_bytes([r0, r1, r2, r3]),
            u32::from_le_bytes([n0, n1, n2, n3]),
        ))
    }

    /// Resolve `addr` to its longest-prefix record index. The stride-16
    /// root table replaces the first sixteen dependent node hops with
    /// one indexed load; the remaining walk (if any) starts at the
    /// depth-16 subtrie root.
    #[inline]
    fn locate(&self, addr: u32) -> Result<Option<u32>, RgdbError> {
        let (mut best, mut node) = self.root_entry(addr >> 16)?;
        if node != NONE {
            for depth in 16..=32u32 {
                let (left, right, record) = self.node(node)?;
                if record != NONE {
                    best = record;
                }
                if depth == 32 {
                    break;
                }
                let bit = (addr >> (31 - depth)) & 1;
                let next = if bit == 0 { left } else { right };
                if next == NONE {
                    break;
                }
                node = next;
            }
        }
        Ok((best != NONE).then_some(best))
    }

    /// Walk the trie MSB-first and return the deepest record index on
    /// the path together with its depth — the longest-prefix match. The
    /// root-table fast path in [`Rgdb2Reader::locate`] is preferred when
    /// the match depth is not needed.
    fn deepest_match(&self, ip: Ipv4Addr) -> Result<Option<(u32, u8)>, RgdbError> {
        let addr = u32::from(ip);
        let mut node = 0u32;
        let mut best: Option<(u32, u8)> = None;
        for depth in 0..=32u32 {
            let (left, right, record) = self.node(node)?;
            if record != NONE {
                best = Some((record, u8::try_from(depth).expect("trie depth <= 32")));
            }
            if depth == 32 {
                break;
            }
            let bit = (addr >> (31 - depth)) & 1;
            let next = if bit == 0 { left } else { right };
            if next == NONE {
                break;
            }
            node = next;
        }
        Ok(best)
    }

    /// Prefix length of the longest match for `ip`, without decoding the
    /// record. `None` when no prefix on the walk carries a record. The
    /// fuzz differential's LPM-depth check, the fuzz round-trip battery
    /// and the RGDB unit tests compare it with the length of the prefix
    /// that holds `ip`.
    pub fn match_len(&self, ip: Ipv4Addr) -> Result<Option<u8>, RgdbError> {
        Ok(self.deepest_match(ip)?.map(|(_, len)| len))
    }

    /// Build the owning answer for record `idx`.
    fn record_owned(&self, idx: u32) -> Result<LocationRecord, RgdbError> {
        let raw = self.raw_record(idx)?;
        let region = match raw.region_off {
            Some(off) => Some(self.str_at(off)?.to_string()),
            None => None,
        };
        let city = match raw.city_off {
            Some(off) => Some(self.str_at(off)?.to_string()),
            None => None,
        };
        Ok(LocationRecord {
            country: raw.country,
            region,
            city,
            coord: raw.coord,
            granularity: raw.granularity,
        })
    }

    /// Longest-prefix-match lookup returning a structural error on
    /// latent corruption (unreachable on an image that opened — the
    /// open-time pass checked every node and record).
    pub fn try_lookup(&self, ip: Ipv4Addr) -> Result<Option<LocationRecord>, RgdbError> {
        match self.locate(u32::from(ip))? {
            None => Ok(None),
            Some(idx) => self.record_owned(idx).map(Some),
        }
    }

    /// The trie's longest-prefix answers: each maximal address interval
    /// one record answers, with that record's index. Built on first use
    /// by one in-order walk of the validated trie, so `open` and the
    /// point lookups never pay for it.
    fn ranges(&self) -> &RangeMap<u32> {
        self.ranges.get_or_init(|| {
            let mut spans = Vec::new();
            self.flatten(0, 0, 0, NONE, &mut spans);
            let mut map = RangeMapBuilder::new();
            for (first, last, id) in spans {
                map.push(Ipv4Addr::from(first), Ipv4Addr::from(last), id);
            }
            map.build()
                .expect("an in-order trie walk yields ascending disjoint intervals")
        })
    }

    /// Append the answers under `node` — at `depth`, covering the
    /// addresses from `base`, below the deepest record `best` on its
    /// path — to `spans`, in ascending order. A missing child is one
    /// interval of the record carried to it.
    fn flatten(&self, node: u32, depth: u32, base: u32, best: u32, spans: &mut Spans) {
        // Unreachable on a validated image; an unreadable node answers
        // nothing, as the point walk degrades it to a miss.
        let Ok((left, right, record)) = self.node(node) else {
            return;
        };
        let best = if record == NONE { best } else { record };
        if depth == 32 {
            return push_span(spans, base, base, best);
        }
        let half = 1u32 << (31 - depth);
        for (child, first) in [(left, base), (right, base + half)] {
            if child == NONE {
                push_span(spans, first, first + (half - 1), best);
            } else {
                self.flatten(child, depth + 1, first, best, spans);
            }
        }
    }
}

/// Answered address intervals, ascending: `(first, last, record)`.
type Spans = Vec<(u32, u32, u32)>;

/// Append `first..=last`, answered by record `id`: nothing for a miss,
/// and an extension of the previous interval when it ends just before
/// `first` with the same record — as a leaf's two missing children do,
/// so a /24 row is one interval, not two.
fn push_span(spans: &mut Spans, first: u32, last: u32, id: u32) {
    if id == NONE {
        return;
    }
    match spans.last_mut() {
        Some(prev) if prev.2 == id && prev.1.checked_add(1) == Some(first) => prev.1 = last,
        _ => spans.push((first, last, id)),
    }
}

impl GeoDatabase for Rgdb2Reader {
    fn name(&self) -> &str {
        &self.name
    }

    fn lookup(&self, ip: Ipv4Addr) -> Option<LocationRecord> {
        // Images validated at open; treat latent corruption as a miss.
        self.try_lookup(ip).ok().flatten()
    }

    fn lookup_compact(
        &self,
        ip: Ipv4Addr,
        interner: &mut LocationInterner,
    ) -> Option<CompactRecord> {
        let idx = self.locate(u32::from(ip)).ok().flatten()?;
        self.compact_record(idx, interner)
    }

    /// Batched record location — the hot path, and the sweep
    /// [`InMemoryDb`](crate::InMemoryDb) runs: one cursor advances over
    /// the reader's range map of record ids, flattened from the trie on
    /// the first call, as the batch's addresses ascend
    /// ([`RangeMap::locate_batch`]). The ids are record indices,
    /// [`MISS`] on a miss; nothing is decoded here.
    fn locate_batch(&self, batch: &SortedBatch) -> Option<Vec<u32>> {
        let ranges = self.ranges();
        let id = |hit: Option<usize>| {
            hit.and_then(|ix| ranges.value_at(ix))
                .map_or(MISS, |id| *id)
        };
        Some(ranges.locate_batch(batch).map(id).collect())
    }

    /// Decode record `id` with the record check `open` ran, and intern
    /// its region and city, borrowed from the image. Latent corruption
    /// degrades to `None` before anything is interned.
    fn compact_record(&self, id: u32, interner: &mut LocationInterner) -> Option<CompactRecord> {
        let raw = self.raw_record(id).ok()?;
        let region = raw
            .region_off
            .map(|off| self.str_at(off))
            .transpose()
            .ok()?;
        let city = raw.city_off.map(|off| self.str_at(off)).transpose().ok()?;
        Some(CompactRecord {
            country: raw.country,
            region_id: region.map(|s| interner.intern(s)),
            city_id: city.map(|s| interner.intern(s)),
            coord: raw.coord,
            granularity: raw.granularity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<(Prefix, LocationRecord)> {
        let city = LocationRecord {
            country: Some("US".parse().unwrap()),
            region: Some("USA Region 1".into()),
            city: Some("Springfield".into()),
            coord: Some(Coordinate::new(39.8, -89.6).unwrap()),
            granularity: Granularity::SubBlock,
        };
        let country = LocationRecord::country_level("DE".parse().unwrap(), Granularity::Aggregate);
        let centroid = LocationRecord {
            country: Some("FR".parse().unwrap()),
            region: None,
            city: None,
            coord: Some(Coordinate::new(46.2, 2.2).unwrap()),
            granularity: Granularity::Block24,
        };
        let empty_city = LocationRecord {
            country: Some("JP".parse().unwrap()),
            region: Some(String::new()),
            city: Some(String::new()),
            coord: None,
            granularity: Granularity::Block24,
        };
        vec![
            ("6.0.0.0/24".parse().unwrap(), city),
            ("31.0.0.0/16".parse().unwrap(), country),
            ("31.0.1.0/24".parse().unwrap(), centroid),
            ("77.1.0.0/24".parse().unwrap(), empty_city),
        ]
    }

    fn build() -> Rgdb2Reader {
        let recs = sample_records();
        let image = write_v21("Test-DB", recs.iter().map(|(p, r)| (*p, r)));
        Rgdb2Reader::open(image).unwrap()
    }

    /// Prefixes shallower than, at, and deeper than the /16 root-table
    /// stride, so every entry shape (terminal record, subtrie handoff,
    /// empty) and every seeding path is exercised.
    fn stride_records() -> Vec<(Prefix, LocationRecord)> {
        let mk = |cc: &str, city: &str| LocationRecord {
            country: Some(cc.parse().unwrap()),
            region: None,
            city: Some(city.into()),
            coord: None,
            granularity: Granularity::Block24,
        };
        vec![
            ("8.0.0.0/6".parse().unwrap(), mk("US", "shallow-6")),
            ("12.32.0.0/11".parse().unwrap(), mk("CA", "shallow-11")),
            ("12.34.0.0/16".parse().unwrap(), mk("GB", "exact-16")),
            ("12.34.128.0/17".parse().unwrap(), mk("DE", "deep-17")),
            ("12.34.129.0/28".parse().unwrap(), mk("FR", "deep-28")),
            ("200.1.2.240/32".parse().unwrap(), mk("JP", "host-32")),
        ]
    }

    /// Probes into [`stride_records`] with the length of the prefix
    /// that holds each one (`None`: no prefix does).
    const STRIDE_PROBES: [(&str, Option<u8>); 14] = [
        ("8.0.0.1", Some(6)),
        ("11.255.255.255", Some(6)),
        ("12.32.0.5", Some(11)),
        ("12.63.255.254", Some(11)),
        ("12.34.0.1", Some(16)),
        ("12.34.127.255", Some(16)),
        ("12.34.128.1", Some(17)),
        ("12.34.129.7", Some(28)),
        ("12.34.129.15", Some(28)),
        ("12.34.129.16", Some(17)),
        ("200.1.2.240", Some(32)),
        ("200.1.2.241", None),
        ("1.2.3.4", None),
        ("255.255.255.255", None),
    ];

    #[test]
    fn roundtrip_lookups() {
        let db = build();
        assert_eq!(db.name(), "Test-DB");
        let r = db.lookup("6.0.0.200".parse().unwrap()).unwrap();
        assert_eq!(r.city.as_deref(), Some("Springfield"));
        assert_eq!(r.granularity, Granularity::SubBlock);
        let c = r.coord.unwrap();
        assert!((c.lat() - 39.8).abs() < 1e-5);
        // Longest-prefix: /24 centroid inside the /16 country record.
        let r = db.lookup("31.0.1.7".parse().unwrap()).unwrap();
        assert!(r.coord.is_some() && r.city.is_none());
        let r = db.lookup("31.0.99.1".parse().unwrap()).unwrap();
        assert_eq!(r.country.unwrap().as_str(), "DE");
        assert!(db.lookup("99.0.0.1".parse().unwrap()).is_none());
        // Some("") is distinct from None.
        let r = db.lookup("77.1.0.9".parse().unwrap()).unwrap();
        assert_eq!(r.region.as_deref(), Some(""));
        assert_eq!(r.city.as_deref(), Some(""));
        // Match depth: the /24 city record, the /24 centroid nested in
        // the /16 country record, the /16 alone, and no match at all.
        for (ip, depth) in [
            ("6.0.0.200", Some(24)),
            ("31.0.1.7", Some(24)),
            ("31.0.99.1", Some(16)),
            ("99.0.0.1", None),
        ] {
            assert_eq!(db.match_len(ip.parse().unwrap()).unwrap(), depth, "{ip}");
        }
    }

    #[test]
    fn root_table_answers_like_the_full_trie_walk() {
        // The root table is a pure accelerator: the record `locate`
        // reaches through it must be the one a walk from the trie root
        // finds, at the depth of the prefix that holds the probe.
        let recs = stride_records();
        let db = Rgdb2Reader::open(write_v21("walk", recs.iter().map(|(p, r)| (*p, r)))).unwrap();
        for (ip, depth) in STRIDE_PROBES {
            let ip: Ipv4Addr = ip.parse().unwrap();
            let walked = db.deepest_match(ip).unwrap();
            assert_eq!(walked.map(|(_, len)| len), depth, "{ip}");
            assert_eq!(
                db.locate(u32::from(ip)).unwrap(),
                walked.map(|(idx, _)| idx),
                "{ip}"
            );
        }
    }

    #[test]
    fn v21_batched_lookups_match_sequential() {
        for recs in [sample_records(), stride_records()] {
            let db = Rgdb2Reader::open(write_v21("b", recs.iter().map(|(p, r)| (*p, r)))).unwrap();
            // Duplicates included, unsorted order. The second chain hits
            // every `sample_records` prefix: a /24 inside a /16, the /16
            // alone, and the record whose region and city are both
            // `Some("")` at one string offset.
            let ips: Vec<Ipv4Addr> = STRIDE_PROBES
                .iter()
                .chain(STRIDE_PROBES.iter().rev())
                .map(|(ip, _)| *ip)
                .chain(["6.0.0.200", "12.34.129.7", "12.34.129.7"])
                .chain([
                    "31.0.1.7",
                    "6.0.0.200",
                    "99.0.0.1",
                    "77.1.0.3",
                    "31.0.99.1",
                    "6.0.0.1",
                ])
                .map(|s| s.parse().unwrap())
                .collect();
            // The provided `lookup_batch` answers through the record
            // ids the range-map sweep returns, one per batch address...
            let batch = SortedBatch::new(&ips);
            let ids = db.locate_batch(&batch).expect("RGDB has record ids");
            assert_eq!(ids.len(), batch.addrs().len());
            assert_eq!(batch.index().len(), ips.len());
            // ...and must equal the per-address loop, answers and
            // interner order both.
            let mut seq_interner = LocationInterner::new();
            let seq: Vec<_> = ips
                .iter()
                .map(|ip| db.lookup_compact(*ip, &mut seq_interner))
                .collect();
            let mut batch_interner = LocationInterner::new();
            let batch = db.lookup_batch(&ips, &mut batch_interner);
            assert_eq!(seq, batch);
            assert_eq!(seq_interner, batch_interner);
            assert!(db.lookup_batch(&[], &mut batch_interner).is_empty());
        }
    }

    /// A random nested prefix set for seed `seed`: lengths 0 to 32,
    /// most of them at or below three /16s, and the default route and
    /// a host route in every other image, so most walks pass records
    /// carried down from shallower prefixes.
    fn nested_prefixes(seed: u64) -> Vec<(Prefix, LocationRecord)> {
        use routergeo_pool::splitmix64;
        let word = |k: u64| u32::try_from(splitmix64(seed, k) & 0xFFFF_FFFF).unwrap();
        let bases: Vec<u32> = (0..3).map(|k| word(k) & 0xFFFF_0000).collect();
        let count = 4 + u64::from(word(3) % 40);
        let mut prefixes: Vec<Prefix> = (0..count)
            .map(|k| {
                let r = word(100 + k);
                let addr = bases[usize::try_from(r % 3).unwrap()] | (word(200 + k) & 0xFFFF);
                let deeper = u8::try_from((r >> 12) % 17).unwrap();
                let len = match r >> 8 & 7 {
                    0 => deeper,
                    1 => 32,
                    _ => 16 + deeper,
                };
                Prefix::containing(Ipv4Addr::from(addr), len).unwrap()
            })
            .collect();
        if seed.is_multiple_of(2) {
            prefixes.push(Prefix::default_route());
            prefixes.push(Prefix::containing(Ipv4Addr::from(word(4)), 32).unwrap());
        }
        prefixes.sort();
        prefixes.dedup();
        (prefixes.into_iter().zip(0u32..))
            .map(|(p, k)| {
                let rec = LocationRecord {
                    country: Some("US".parse().unwrap()),
                    region: None,
                    city: Some(format!("nested-{k}")),
                    coord: None,
                    granularity: Granularity::SubBlock,
                };
                (p, rec)
            })
            .collect()
    }

    #[test]
    fn range_sweep_matches_the_point_walk_on_nested_prefixes() {
        use routergeo_pool::splitmix64;
        for seed in 0..120u64 {
            let recs = nested_prefixes(seed);
            let db =
                Rgdb2Reader::open(write_v21("nest", recs.iter().map(|(p, r)| (*p, r)))).unwrap();
            // Every prefix's first and last address, each +-1, the two
            // ends of the space, then every third probe again, shuffled.
            let mut probes: Vec<u32> = vec![0, u32::MAX];
            for (p, _) in &recs {
                let (first, last) = p.range_u32();
                for addr in [first, last] {
                    probes.extend([addr.wrapping_sub(1), addr, addr.wrapping_add(1)]);
                }
            }
            let repeats: Vec<u32> = probes.iter().step_by(3).copied().collect();
            probes.extend(repeats);
            for i in (1..probes.len()).rev() {
                let j = usize::try_from(splitmix64(seed ^ 0x5A5A, u64::try_from(i).unwrap()))
                    .unwrap()
                    % (i + 1);
                probes.swap(i, j);
            }
            let ips: Vec<Ipv4Addr> = probes.iter().map(|a| Ipv4Addr::from(*a)).collect();
            let batch = SortedBatch::new(&ips);
            let ids = db.locate_batch(&batch).unwrap();
            assert_eq!(ids.len(), batch.addrs().len(), "seed {seed}");
            for (addr, id) in batch.addrs().iter().zip(&ids) {
                let want = db.locate(*addr).unwrap().unwrap_or(MISS);
                assert_eq!(*id, want, "seed {seed}: {}", Ipv4Addr::from(*addr));
            }
            for (ip, at) in ips.iter().zip(batch.index()) {
                assert_eq!(batch.addrs()[ix(*at)], u32::from(*ip), "seed {seed}");
            }
        }
    }

    #[test]
    fn only_a_batch_builds_the_range_map() {
        let recs = stride_records();
        let db = Rgdb2Reader::open(write_v21("lazy", recs.iter().map(|(p, r)| (*p, r)))).unwrap();
        assert!(db.ranges.get().is_none(), "open built the range map");
        for (ip, _) in STRIDE_PROBES {
            db.try_lookup(ip.parse().unwrap()).unwrap();
        }
        assert!(db.ranges.get().is_none(), "try_lookup built the range map");
        let ips = [Ipv4Addr::new(12, 34, 129, 7)];
        let ids = db.locate_batch(&SortedBatch::new(&ips)).unwrap();
        assert_eq!(ids, [db.locate(u32::from(ips[0])).unwrap().unwrap()]);
        assert!(db.ranges.get().is_some(), "a batch flattens the trie");
    }

    #[test]
    fn the_range_map_holds_one_interval_per_maximal_answer() {
        // A /24 leaf is one interval, not one per missing child, and the
        // /16 is one interval on each side of the /24 nested in it.
        let db = build();
        db.locate_batch(&SortedBatch::new(&[])).unwrap();
        let spans: Vec<(String, String, u32)> = (db.ranges.get().unwrap().iter())
            .map(|(first, last, id)| (first.to_string(), last.to_string(), *id))
            .collect();
        let want = [
            ("6.0.0.0", "6.0.0.255", 0),
            ("31.0.0.0", "31.0.0.255", 1),
            ("31.0.1.0", "31.0.1.255", 2),
            ("31.0.2.0", "31.0.255.255", 1),
            ("77.1.0.0", "77.1.0.255", 3),
        ];
        let want: Vec<_> = (want.iter())
            .map(|(first, last, id)| (first.to_string(), last.to_string(), *id))
            .collect();
        assert_eq!(spans, want);
    }

    #[test]
    fn empty_database_default_route_and_host_route() {
        let image = write_v21("empty", std::iter::empty());
        let db = Rgdb2Reader::open(image).unwrap();
        assert!(db.lookup("1.2.3.4".parse().unwrap()).is_none());
        assert_eq!(db.record_count(), 0);

        let rec = LocationRecord::country_level("US".parse().unwrap(), Granularity::Aggregate);
        let entries = [(Prefix::default_route(), rec)];
        let image = write_v21("all", entries.iter().map(|(p, r)| (*p, r)));
        let db = Rgdb2Reader::open(image).unwrap();
        assert!(db.lookup("255.255.255.255".parse().unwrap()).is_some());
        assert!(db.lookup("0.0.0.0".parse().unwrap()).is_some());

        let rec = LocationRecord::country_level("JP".parse().unwrap(), Granularity::SubBlock);
        let entries = [("1.2.3.4/32".parse::<Prefix>().unwrap(), rec)];
        let image = write_v21("host", entries.iter().map(|(p, r)| (*p, r)));
        let db = Rgdb2Reader::open(image).unwrap();
        assert!(db.lookup("1.2.3.4".parse().unwrap()).is_some());
        assert!(db.lookup("1.2.3.5".parse().unwrap()).is_none());
    }

    #[test]
    fn v21_rejects_root_table_and_placement_corruption() {
        let recs = stride_records();
        let image = write_v21("x", recs.iter().map(|(p, r)| (*p, r)));
        let db = Rgdb2Reader::open(image.clone()).unwrap();

        // A flipped root-table entry fails the canonical re-derivation
        // and is attributed to the root-table section.
        let err = corrupt_at(&image, db.root_start, 0x00).unwrap_err();
        assert_eq!(err.context().unwrap().section, Section::RootTable);
        assert_eq!(
            err.context().unwrap().expected,
            "canonical stride-16 root entry"
        );

        // An in-range but misplaced child link breaks the level-order
        // placement invariant.
        let err = corrupt_at(&image, db.nodes_start, 2).unwrap_err();
        assert_eq!(err.context().unwrap().section, Section::Nodes);

        // Truncating inside the root table is caught by the layout
        // length check.
        assert!(matches!(
            Rgdb2Reader::open(image.slice(..db.root_start + 100)),
            Err(RgdbError::Truncated)
        ));
    }

    #[test]
    fn v21_level_order_placement_holds_in_written_images() {
        for recs in [sample_records(), stride_records()] {
            let db = Rgdb2Reader::open(write_v21("lo", recs.iter().map(|(p, r)| (*p, r)))).unwrap();
            let mut next = 1u32;
            for idx in 0..db.node_count {
                let (left, right, _) = db.node(idx).unwrap();
                for link in [left, right] {
                    if link != NONE {
                        assert_eq!(link, next, "child of node {idx} out of level order");
                        next += 1;
                    }
                }
            }
            assert_eq!(next, db.node_count, "every node placed");
        }
    }

    #[test]
    fn records_and_strings_are_deduplicated() {
        let rec = LocationRecord {
            country: Some("US".parse().unwrap()),
            region: Some("Illinois".into()),
            city: Some("Illinois".into()),
            coord: None,
            granularity: Granularity::Block24,
        };
        let entries: Vec<(Prefix, LocationRecord)> = (0..100)
            .map(|i| {
                let p: Prefix = format!("6.0.{i}.0/24").parse().unwrap();
                (p, rec.clone())
            })
            .collect();
        let image = write_v21("dedup", entries.iter().map(|(p, r)| (*p, r)));
        let db = Rgdb2Reader::open(image).unwrap();
        assert_eq!(db.record_count(), 1);
        // One record, one interned string ("Illinois" shared by region
        // and city): 20 record bytes + 1 len byte + 8 string bytes.
        assert_eq!(db.strings_len, 9);
    }

    #[test]
    fn detects_truncation_and_header_corruption() {
        let recs = sample_records();
        let image = write_v21("t", recs.iter().map(|(p, r)| (*p, r)));
        for cut in [0, 3, HEADER_LEN - 1, image.len() - 1] {
            assert!(
                Rgdb2Reader::open(image.slice(..cut)).is_err(),
                "cut at {cut} not detected"
            );
        }
        let mut bytes = image.to_vec();
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF;
        assert!(matches!(
            Rgdb2Reader::open(Bytes::from(bytes)),
            Err(RgdbError::ChecksumMismatch)
        ));
        let mut bytes = image.to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            Rgdb2Reader::open(Bytes::from(bytes)),
            Err(RgdbError::BadMagic)
        ));
        // Header version 3 is the only one that opens: the retired v1
        // and v2 layouts (versions 1 and 2) and unknown ones are refused.
        for version in [1u8, 2, 7] {
            let mut bytes = image.to_vec();
            bytes[4] = version;
            assert_eq!(
                Rgdb2Reader::open(Bytes::from(bytes)).unwrap_err(),
                RgdbError::BadVersion(u16::from(version))
            );
        }
    }

    /// Re-fix the checksum of `bytes` and open them, so the structural
    /// checks are what judge the image.
    fn open_refixed(mut bytes: Vec<u8>) -> Result<Rgdb2Reader, RgdbError> {
        let sum = fnv1a(FNV_OFFSET, &bytes[HEADER_LEN..]).to_le_bytes();
        bytes[20..28].copy_from_slice(&sum);
        Rgdb2Reader::open(Bytes::from(bytes))
    }

    /// Corrupt one payload byte and re-fix the checksum so the
    /// structural checks are what fire.
    fn corrupt_at(image: &Bytes, at: usize, value: u8) -> Result<Rgdb2Reader, RgdbError> {
        let mut bytes = image.to_vec();
        bytes[at] = value;
        open_refixed(bytes)
    }

    /// A structural error as `(section, offset, expected)`.
    type Verdict = (Section, usize, &'static str);

    /// The structural error `open` gives once every edit is applied and
    /// the checksum re-fixed.
    fn verdict(image: &Bytes, edits: &[(usize, u8)]) -> Verdict {
        let mut bytes = image.to_vec();
        for (at, value) in edits {
            bytes[*at] = *value;
        }
        let err = open_refixed(bytes).unwrap_err();
        let ctx = err
            .context()
            .unwrap_or_else(|| panic!("unattributed: {err}"));
        (ctx.section, ctx.offset, ctx.expected)
    }

    #[test]
    fn a_stale_checksum_outranks_every_section_error() {
        let recs = sample_records();
        let image = write_v21("stale", recs.iter().map(|(p, r)| (*p, r)));
        let db = Rgdb2Reader::open(image.clone()).unwrap();
        // One byte per section, each a structural error once the
        // checksum is re-fixed: an empty /16's root entry pointed at
        // record 0, the root node's record index out of range, an
        // unknown record flag bit, and bad UTF-8 in the first string.
        for (at, value, section) in [
            (db.root_start, 0x00, Section::RootTable),
            (db.nodes_start + 8, 0x77, Section::Nodes),
            (db.records_start, 0xFF, Section::Records),
            (db.strings_start + 1, 0xFF, Section::Strings),
        ] {
            assert_eq!(verdict(&image, &[(at, value)]).0, section, "byte {at}");
            let mut bytes = image.to_vec();
            bytes[at] = value;
            assert_eq!(
                Rgdb2Reader::open(Bytes::from(bytes)).unwrap_err(),
                RgdbError::ChecksumMismatch,
                "{} byte {at} without a re-fixed checksum",
                section.label()
            );
        }
    }

    #[test]
    fn structural_errors_keep_their_precedence() {
        // Record 0 has every field and strings "USA Region 1" (table
        // offset 0) and "Springfield" (13); records 1-3 follow it.
        let recs = sample_records();
        let image = write_v21("order", recs.iter().map(|(p, r)| (*p, r)));
        let db = Rgdb2Reader::open(image.clone()).unwrap();
        let rec = |i: usize| db.records_start + i * RECORD_WIDTH;
        let string = |off: usize| db.strings_start + off;
        let root_node_record = db.nodes_start + 8;
        let cases: [(&[(usize, u8)], Verdict); 8] = [
            // The name before any node.
            (
                &[(HEADER_LEN, 0xFF), (root_node_record, 0x77)],
                (Section::Name, HEADER_LEN, "UTF-8 database name"),
            ),
            // Nodes before records.
            (
                &[(rec(0), 0xFF), (root_node_record, 0x77)],
                (
                    Section::Nodes,
                    db.nodes_start,
                    "record index within record_count",
                ),
            ),
            // Records in index order, whatever the fields.
            (
                &[(rec(2) + 1, 9), (rec(1), 0xF0)],
                (Section::Records, rec(1), "known record flag bits"),
            ),
            // A record's fields before its strings: a latitude far out
            // of range, and bad UTF-8 in its region.
            (
                &[(string(1), 0xFF), (rec(0) + 15, 0x7F)],
                (Section::Records, rec(0) + 12, "coordinate within ±90/±180"),
            ),
            // A record's region before its city, and both before the
            // next record.
            (
                &[(rec(1), 0xFF), (string(14), 0xFF), (string(1), 0xFF)],
                (Section::Strings, string(1), "UTF-8 string bytes"),
            ),
            (
                &[(rec(1), 0xFF), (string(14), 0xFF)],
                (Section::Strings, string(14), "UTF-8 string bytes"),
            ),
            // Records before the root table.
            (
                &[(db.root_start, 0x00), (rec(3), 0xFF)],
                (Section::Records, rec(3), "known record flag bits"),
            ),
            // The lowest differing root entry: 2, not 5.
            (
                &[
                    (db.root_start + 5 * ROOT_ENTRY_WIDTH, 0x00),
                    (db.root_start + 2 * ROOT_ENTRY_WIDTH + 7, 0x00),
                ],
                (
                    Section::RootTable,
                    db.root_start + 2 * ROOT_ENTRY_WIDTH,
                    "canonical stride-16 root entry",
                ),
            ),
        ];
        for (edits, want) in cases {
            assert_eq!(verdict(&image, edits), want, "edits {edits:?}");
        }

        // The placement count before any record: cut the link to the
        // last node, a leaf, so one node goes unplaced.
        let last = db.node_count - 1;
        let parent = (0..db.node_count)
            .find(|idx| [db.node(*idx).unwrap().0, db.node(*idx).unwrap().1].contains(&last))
            .unwrap();
        let side = usize::from(db.node(parent).unwrap().1 == last);
        let link = db.nodes_start + ix(parent) * NODE_WIDTH + side * 4;
        let cut: Vec<(usize, u8)> = (link..link + 4).map(|at| (at, 0xFF)).collect();
        let want = (
            Section::Nodes,
            db.nodes_start,
            "every node placed in level order",
        );
        assert_eq!(
            verdict(&image, &[cut.as_slice(), &[(rec(0), 0xFF)]].concat()),
            want
        );

        // A zero node count before the name: the same image without
        // its node section, so the layout length still adds up.
        let mut bytes = image[..db.nodes_start].to_vec();
        bytes.extend_from_slice(&image[db.records_start..]);
        bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        bytes[HEADER_LEN] = 0xFF;
        assert_eq!(
            open_refixed(bytes).unwrap_err(),
            RgdbError::corrupt(Section::Header, 8, "nonzero node count (trie needs a root)")
        );
    }

    #[test]
    fn a_bad_string_shared_by_two_records_is_named_at_its_offset() {
        let mk = |cc: &str| LocationRecord {
            country: Some(cc.parse().unwrap()),
            region: None,
            city: Some("Shared".into()),
            coord: None,
            granularity: Granularity::Block24,
        };
        let recs = [
            ("10.0.0.0/24".parse::<Prefix>().unwrap(), mk("US")),
            ("10.0.1.0/24".parse::<Prefix>().unwrap(), mk("CA")),
        ];
        let image = write_v21("shared", recs.iter().map(|(p, r)| (*p, r)));
        let db = Rgdb2Reader::open(image.clone()).unwrap();
        assert_eq!(
            (db.record_count(), db.strings_len),
            (2, 7),
            "one shared entry"
        );
        let city_off = |i: usize| {
            let at = db.records_start + i * RECORD_WIDTH + 8;
            u32::from_le_bytes(image[at..at + 4].try_into().unwrap())
        };
        assert_eq!(city_off(0), city_off(1));
        // Bad UTF-8 in the shared entry's last byte: the error names the
        // entry's bytes, at their absolute offset, whichever record
        // reaches them first.
        let bytes = db.strings_start + ix(city_off(0)) + 1;
        assert_eq!(
            verdict(&image, &[(bytes + 5, 0xFF)]),
            (Section::Strings, bytes, "UTF-8 string bytes")
        );
    }

    #[test]
    fn an_offset_into_the_middle_of_a_string_is_read_from_there() {
        // Record 1's city is "\u{5}hello": its entry is the length 6,
        // then 0x05 and "hello". Point record 0's city one byte into
        // that entry and it reads a well-formed five-byte "hello", so
        // the image opens and answers it; two bytes in, the length is
        // 'h' (104), past the end of the table.
        let mk = |city: &str| LocationRecord {
            country: Some("US".parse().unwrap()),
            region: None,
            city: Some(city.into()),
            coord: None,
            granularity: Granularity::Block24,
        };
        let recs = [
            ("10.0.0.0/24".parse::<Prefix>().unwrap(), mk("x")),
            ("10.0.1.0/24".parse::<Prefix>().unwrap(), mk("\u{5}hello")),
        ];
        let image = write_v21("inner", recs.iter().map(|(p, r)| (*p, r)));
        let db = Rgdb2Reader::open(image.clone()).unwrap();
        let city_at = |i: usize| db.records_start + i * RECORD_WIDTH + 8;
        let entry = u32::from_le_bytes(image[city_at(1)..city_at(1) + 4].try_into().unwrap());
        let point_into = |skip: u32| {
            let mut bytes = image.to_vec();
            bytes[city_at(0)..city_at(0) + 4].copy_from_slice(&(entry + skip).to_le_bytes());
            open_refixed(bytes)
        };
        let inner = point_into(1).unwrap();
        let answer = inner
            .try_lookup("10.0.0.9".parse().unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(answer.city.as_deref(), Some("hello"));
        let answer = inner
            .try_lookup("10.0.1.9".parse().unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(answer.city.as_deref(), Some("\u{5}hello"));
        let past = db.strings_start + ix(entry) + 3;
        assert_eq!(
            point_into(2).unwrap_err(),
            RgdbError::corrupt(Section::Strings, past, "string bytes within string table")
        );
    }

    #[test]
    fn open_rejects_noncanonical_records_with_context() {
        let recs = sample_records();
        let image = write_v21("x", recs.iter().map(|(p, r)| (*p, r)));
        let db = Rgdb2Reader::open(image.clone()).unwrap();
        // 0xFF is never valid UTF-8: the name section is blamed at its
        // absolute offset, and the rendered error says so.
        let err = corrupt_at(&image, HEADER_LEN, 0xFF).unwrap_err();
        let ctx = *err.context().expect("structural error carries context");
        assert_eq!(ctx.section, Section::Name);
        assert_eq!(ctx.offset, HEADER_LEN);
        let shown = err.to_string();
        assert!(shown.contains("name section"), "got: {shown}");
        assert!(shown.contains("byte 28"), "got: {shown}");
        let rec0 = db.records_start;
        // Unknown flag bit.
        let err = corrupt_at(&image, rec0, 0xFF).unwrap_err();
        assert_eq!(err.context().unwrap().section, Section::Records);
        // Unknown granularity.
        let err = corrupt_at(&image, rec0 + 1, 9).unwrap_err();
        assert_eq!(err.context().unwrap().expected, "known granularity id");
        // Record 0 in the sample set has all four flags set; point its
        // region offset past the string table.
        let err = corrupt_at(&image, rec0 + 4, 0xEE).unwrap_err();
        assert_eq!(err.context().unwrap().section, Section::Strings);
        // Bad node link: root's record index field.
        let node0 = db.nodes_start;
        let err = corrupt_at(&image, node0 + 8, 0x77).unwrap_err();
        assert_eq!(err.context().unwrap().section, Section::Nodes);
    }
}
