//! RGDB — the binary geolocation database format.
//!
//! An image is a flat, zero-copy layout: one ascending section of
//! answer intervals, fixed-width records and a deduplicated string
//! table, fully validated once at [`Rgdb2Reader::open`], so a lookup
//! is a binary search or a cursor sweep over `&[u8]`: **no parse after
//! open, no locks, no structure built beside the image**. Lookups
//! borrow region/city bytes straight from the image into a
//! [`CompactRecord`]. The interval section is the shape IP2Location
//! ships its databases in: ascending range starts, each row ending
//! where the next begins.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header (28 bytes):
//!   0   magic          b"RGDB"
//!   4   version        u16      (4)
//!   6   name_len       u16      database display name length
//!   8   interval_count u32      number of intervals (at least 1)
//!   12  record_count   u32      number of deduplicated records
//!   16  strings_len    u32      byte length of the string table
//!   20  checksum       u64      FNV-1a64 over name + intervals + records + strings
//! name:      name_len bytes of UTF-8
//! intervals: interval_count × 8 bytes: start u32, record u32
//!            (`record` is an *index* into the record array, or
//!            0xFFFF_FFFF = none: no prefix holds the interval)
//! records:   record_count × 20 bytes, fixed-width:
//!   0   flags       u8   (bit0 country, bit1 region, bit2 city, bit3 coord)
//!   1   granularity u8
//!   2   country     2 ASCII bytes        (zeroed when absent)
//!   4   region_off  u32 into strings     (0xFFFF_FFFF when absent)
//!   8   city_off    u32 into strings     (0xFFFF_FFFF when absent)
//!   12  lat         i32 micro-degrees    (zero when absent)
//!   16  lon         i32 micro-degrees    (zero when absent)
//! strings:   deduplicated `len u8 + bytes` entries, strings_len total
//! ```
//!
//! The intervals partition the address space: the first starts at 0,
//! the starts ascend strictly, and each interval ends where the next
//! begins (the last at 255.255.255.255). An interval's record answers
//! every address in it. [`write_v21`] derives them from
//! `(prefix, record)` rows as longest-prefix answers, so an address
//! gets the record of the longest prefix that holds it.
//!
//! The encoding is **canonical**: no two neighbouring intervals carry
//! the same record, so an image holds one interval per maximal run of
//! equal answers; and unknown flag bits, non-zeroed absent fields,
//! out-of-range offsets, bad UTF-8, or out-of-range coordinates are
//! all rejected at [`Rgdb2Reader::open`]. It reads the payload once,
//! front to back, as fixed-width intervals and records, folding each
//! into the checksum and checking it in the same iteration; the
//! checksum is a serial multiply chain, so the checks cost little
//! beyond it. Each distinct string offset is checked once. A checksum
//! mismatch outranks every structural error; the `open` docs give the
//! full order of the verdicts. Any header version other than 4 is
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
use routergeo_net::{Prefix, SortedBatch};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

const MAGIC: &[u8; 4] = b"RGDB";
/// On-disk header version of the layout.
const VERSION: u16 = 4;
/// A stored "none": an absent string offset, or the record of an
/// interval no prefix holds. It is also the batch contract's [`MISS`],
/// so a swept interval's record is its batch answer as stored.
const NONE: u32 = MISS;
pub(crate) const HEADER_LEN: usize = 28;
/// Fixed byte width of one record in the record array.
const RECORD_WIDTH: usize = 20;
/// Byte width of one interval: `start u32 | record u32`.
const INTERVAL_WIDTH: usize = 8;

/// Image region a structural error is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The 28-byte fixed header.
    Header,
    /// The display-name bytes following the header.
    Name,
    /// The ascending interval section.
    Intervals,
    /// The fixed-width record array.
    Records,
    /// The interned string table.
    Strings,
}

impl Section {
    /// Lower-case label used in rendered errors.
    pub fn label(self) -> &'static str {
        match self {
            Section::Header => "header",
            Section::Name => "name",
            Section::Intervals => "intervals",
            Section::Records => "records",
            Section::Strings => "strings",
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
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold `bytes` into the FNV-1a64 state `h`, so `fnv1a(FNV_OFFSET, b)`
/// is the checksum of `b`. The image checksum (header bytes 20..28) is
/// `fnv1a(FNV_OFFSET, payload)`, the payload being every byte after
/// the header. The writer hashes its payload in one call;
/// [`Rgdb2Reader::open`] carries the state through the payload one
/// interval or record at a time, checking each as it goes.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A stored `u32` index or offset as a slice index. `u32` always fits in
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

/// The longest-prefix answers of `rows` as canonical intervals:
/// `(start, record)` pairs ascending from 0, each ending where the next
/// begins, [`NONE`] where no prefix holds the address, and no two
/// neighbours alike. Of two equal prefixes the later row wins.
fn intervals(mut rows: Vec<(Prefix, u32)>) -> Vec<(u32, u32)> {
    // By network, an enclosing prefix before the ones inside it; the
    // sort is stable, so equal prefixes stay in row order and the
    // dedup hands each run's last record to the one it keeps.
    rows.sort_by_key(|&(prefix, _)| prefix);
    rows.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = later.1;
        }
        same
    });
    let mut out = Vec::new();
    // The first address no interval answers yet (2^32 once all are).
    let mut next = 0u64;
    // The prefixes holding the current one, innermost last, as
    // (last address, record).
    let mut open: Vec<(u64, u32)> = Vec::new();
    for (prefix, record) in rows {
        let (first, last) = prefix.range_u32();
        let first = u64::from(first);
        while let Some(&(end, outer)) = open.last().filter(|(end, _)| *end < first) {
            answer(&mut out, &mut next, end, outer);
            open.pop();
        }
        let outer = open.last().map_or(NONE, |&(_, outer)| outer);
        if let Some(before) = first.checked_sub(1) {
            answer(&mut out, &mut next, before, outer);
        }
        open.push((u64::from(last), record));
    }
    while let Some((end, record)) = open.pop() {
        answer(&mut out, &mut next, end, record);
    }
    answer(&mut out, &mut next, u64::from(u32::MAX), NONE);
    out
}

/// Answer the addresses `*next..=last` with `record`, nothing when the
/// span is empty, joining them to the last interval when it carries
/// the same record.
fn answer(out: &mut Vec<(u32, u32)>, next: &mut u64, last: u64, record: u32) {
    if *next > last {
        return;
    }
    if out.last().is_none_or(|&(_, left)| left != record) {
        let start = u32::try_from(*next).expect("an unanswered address is below 2^32");
        out.push((start, record));
    }
    *next = last + 1;
}

/// Serialize `(prefix, record)` rows into an RGDB image: records
/// deduplicated by their fixed-width encoding and strings by content,
/// and the prefixes turned into canonical longest-prefix intervals (the
/// module docs give the layout). Of two equal prefixes the later row
/// wins.
pub fn write_v21<'a, I>(name: &str, entries: I) -> Bytes
where
    I: IntoIterator<Item = (Prefix, &'a LocationRecord)>,
{
    let mut strings = BytesMut::new();
    let mut seen_strings: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut records = BytesMut::new();
    let mut seen_records: HashMap<[u8; RECORD_WIDTH], u32> = HashMap::new();
    let mut rows: Vec<(Prefix, u32)> = Vec::new();
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
        rows.push((prefix, index));
    }
    // The dedup maps are done: free them before the interval and
    // payload passes allocate, so they do not add to the peak.
    drop((seen_strings, seen_records));
    let intervals = intervals(rows);

    // The checksum covers everything after the header.
    let name_bytes = name.as_bytes();
    let mut payload = BytesMut::with_capacity(
        name_bytes.len() + intervals.len() * INTERVAL_WIDTH + records.len() + strings.len(),
    );
    payload.put_slice(name_bytes);
    for (start, record) in &intervals {
        payload.put_u32_le(*start);
        payload.put_u32_le(*record);
    }
    payload.put_slice(&records);
    payload.put_slice(&strings);
    let checksum = fnv1a(FNV_OFFSET, &payload);

    let mut out = BytesMut::with_capacity(HEADER_LEN + payload.len());
    out.put_slice(MAGIC);
    out.put_u16_le(VERSION);
    out.put_u16_le(u16::try_from(name_bytes.len()).expect("database name exceeds u16 length"));
    out.put_u32_le(u32::try_from(intervals.len()).expect("interval count exceeds u32"));
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

/// An interval's `(start, record)` fields.
#[inline]
fn interval_fields(interval: &[u8; INTERVAL_WIDTH]) -> (u32, u32) {
    let [s0, s1, s2, s3, r0, r1, r2, r3] = *interval;
    (
        u32::from_le_bytes([s0, s1, s2, s3]),
        u32::from_le_bytes([r0, r1, r2, r3]),
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
/// path) is a binary search over the image's interval starts, and a
/// batch ([`GeoDatabase::locate_batch`]) one cursor sweep over them:
/// no mutex, no structure built beside the image, no per-lookup
/// allocation on the compact path. Region/city strings are borrowed
/// from the image and interned at the call site, never copied into
/// reader-owned state.
pub struct Rgdb2Reader {
    image: Bytes,
    name: String,
    intervals_start: usize,
    interval_count: u32,
    records_start: usize,
    record_count: u32,
    strings_start: usize,
    strings_len: usize,
}

impl std::fmt::Debug for Rgdb2Reader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rgdb2Reader")
            .field("name", &self.name)
            .field("interval_count", &self.interval_count)
            .field("record_count", &self.record_count)
            .field("strings_len", &self.strings_len)
            .field("image_len", &self.image.len())
            .finish()
    }
}

impl Rgdb2Reader {
    /// Validate and open an image. All structural validation happens
    /// here — interval order and record indices, canonical joins, flag
    /// canonicality, string offsets/UTF-8 and coordinate ranges — so
    /// lookups never parse.
    ///
    /// The checks run in one forward pass that also computes the
    /// checksum, and a checksum mismatch outranks every structural
    /// error. The verdict is the first failure in this order: the
    /// header (`Truncated`, `BadMagic`, `BadVersion`, the layout
    /// length), the checksum, a zero interval count, the name's UTF-8,
    /// the intervals in index order (each one's start, then its
    /// record), and the records in index order (each record's fields,
    /// then its region and city strings).
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
        let interval_count = h.get_u32_le();
        let record_count = h.get_u32_le();
        let strings_len = ix(h.get_u32_le());
        let checksum = h.get_u64_le();

        let intervals_start = HEADER_LEN + name_len;
        let records_start = intervals_start + ix(interval_count) * INTERVAL_WIDTH;
        let strings_start = records_start + ix(record_count) * RECORD_WIDTH;
        let expected_total = strings_start + strings_len;
        if image.len() != expected_total {
            return Err(RgdbError::Truncated);
        }
        let mut reader = Rgdb2Reader {
            image,
            name: String::new(),
            intervals_start,
            interval_count,
            records_start,
            record_count,
            strings_start,
            strings_len,
        };
        let (sum, verdict) = reader.check_payload();
        if sum != checksum {
            return Err(RgdbError::ChecksumMismatch);
        }
        if interval_count == 0 {
            // Byte 8 is the interval_count field in the fixed header.
            return Err(RgdbError::corrupt(
                Section::Header,
                8,
                "nonzero interval count (the intervals cover every address)",
            ));
        }
        reader.name = std::str::from_utf8(reader.span(HEADER_LEN, intervals_start))
            .map_err(|_| RgdbError::corrupt(Section::Name, HEADER_LEN, "UTF-8 database name"))?
            .to_string();
        verdict?;
        Ok(reader)
    }

    /// The open-time pass: one walk over the payload, in image order,
    /// that folds every byte into the checksum and checks every
    /// interval and record in the same iteration — the structural half
    /// of the verdict [`Rgdb2Reader::open`] documents, kept until the
    /// checksum is known. Each distinct string offset is checked once:
    /// a bitset over the string table's byte offsets remembers the
    /// ones that passed, so an offset into the middle of an entry is
    /// judged exactly as a lookup would read it.
    fn check_payload(&self) -> (u64, Result<(), RgdbError>) {
        let mut verdict = Ok(());
        let mut h = fnv1a(FNV_OFFSET, self.span(HEADER_LEN, self.intervals_start));
        // The left neighbour's (start, record); the first interval has none.
        let mut left: Option<(u32, u32)> = None;
        fold_checked(&mut h, &mut verdict, self.intervals(), |idx, interval| {
            let (start, record) = interval_fields(interval);
            let at = self.intervals_start + idx * INTERVAL_WIDTH;
            let corrupt = |field: usize, expected| {
                RgdbError::corrupt(Section::Intervals, at + field, expected)
            };
            match left {
                None if start != 0 => return Err(corrupt(0, "first interval start 0")),
                Some((prev, _)) if start <= prev => {
                    return Err(corrupt(0, "interval starts strictly ascending"))
                }
                _ => {}
            }
            if record != NONE && record >= self.record_count {
                return Err(corrupt(4, "record index within record_count"));
            }
            if left.is_some_and(|(_, prev)| prev == record) {
                return Err(corrupt(4, "record unlike the left neighbour's"));
            }
            left = Some((start, record));
            Ok(())
        });
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
        (h, verdict)
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

    /// The interval section as fixed-width intervals.
    #[inline]
    fn intervals(&self) -> &[[u8; INTERVAL_WIDTH]] {
        self.span(self.intervals_start, self.records_start)
            .as_chunks()
            .0
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

    /// The record index answering `addr`, from the last interval that
    /// starts at or below it; `None` when that interval is a miss.
    #[inline]
    fn locate(&self, addr: u32) -> Option<u32> {
        let intervals = self.intervals();
        let after = intervals.partition_point(|iv| interval_fields(iv).0 <= addr);
        let (_, record) = interval_fields(intervals.get(after.checked_sub(1)?)?);
        (record != NONE).then_some(record)
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
    /// open-time pass checked every interval and record).
    pub fn try_lookup(&self, ip: Ipv4Addr) -> Result<Option<LocationRecord>, RgdbError> {
        (self.locate(u32::from(ip)))
            .map(|idx| self.record_owned(idx))
            .transpose()
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
        self.compact_record(self.locate(u32::from(ip))?, interner)
    }

    /// Batched record location — the hot path: one cursor advances
    /// over the image's interval section as the batch's addresses
    /// ascend, the sweep [`InMemoryDb`](crate::InMemoryDb) runs over
    /// its range map. The ids are the swept intervals' record indices,
    /// a miss's stored `NONE` being [`MISS`]; nothing is decoded here.
    fn locate_batch(&self, batch: &SortedBatch) -> Option<Vec<u32>> {
        let intervals = self.intervals();
        // The first interval starting after the previous address: the
        // addresses ascend, so it never moves backward.
        let mut next = 0usize;
        let ids = batch.addrs().iter().map(|&addr| {
            while (intervals.get(next)).is_some_and(|iv| interval_fields(iv).0 <= addr) {
                next += 1;
            }
            let holder = next.checked_sub(1).and_then(|at| intervals.get(at));
            holder.map_or(MISS, |iv| interval_fields(iv).1)
        });
        Some(ids.collect())
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

    /// Prefixes from /6 to /32, nested up to four deep across the /16
    /// boundary, so most answers are carried from an enclosing prefix.
    fn layered_records() -> Vec<(Prefix, LocationRecord)> {
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

    /// Probes into [`layered_records`] with the length of the prefix
    /// that holds each one (`None`: no prefix does).
    const LAYERED_PROBES: [(&str, Option<u8>); 14] = [
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

    /// The longest-prefix answer to `addr` over `recs`, as the row
    /// index of the longest prefix that holds it (the later of equal
    /// ones), [`NONE`] when none does: the record id, when the rows'
    /// records are pairwise distinct.
    fn reference(recs: &[(Prefix, LocationRecord)], addr: u32) -> u32 {
        (recs.iter().zip(0u32..))
            .filter(|((p, _), _)| p.contains(Ipv4Addr::from(addr)))
            .max_by_key(|((p, _), k)| (p.len(), *k))
            .map_or(NONE, |(_, k)| k)
    }

    /// The image's intervals as `(start, record)`.
    fn stored(db: &Rgdb2Reader) -> Vec<(u32, u32)> {
        db.intervals().iter().map(interval_fields).collect()
    }

    fn write(recs: &[(Prefix, LocationRecord)]) -> Bytes {
        write_v21("t", recs.iter().map(|(p, r)| (*p, r)))
    }

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
    }

    #[test]
    fn point_lookups_answer_the_longest_prefix() {
        // The interval a binary search finds carries the record of the
        // prefix of the probe's listed length, the longest that holds
        // it, and a probe no prefix holds misses.
        let recs = layered_records();
        let db = Rgdb2Reader::open(write(&recs)).unwrap();
        for (ip, depth) in LAYERED_PROBES {
            let ip: Ipv4Addr = ip.parse().unwrap();
            let holder = depth.map(|len| {
                let k = recs
                    .iter()
                    .position(|(p, _)| p.len() == len && p.contains(ip));
                u32::try_from(k.unwrap()).unwrap()
            });
            assert_eq!(db.locate(u32::from(ip)), holder, "{ip}");
            assert_eq!(holder.unwrap_or(NONE), reference(&recs, u32::from(ip)));
            let want = holder.map(|k| recs[ix(k)].1.clone());
            assert_eq!(db.try_lookup(ip).unwrap(), want, "{ip}");
        }
    }

    #[test]
    fn batched_lookups_match_sequential() {
        for recs in [sample_records(), layered_records()] {
            let db = Rgdb2Reader::open(write(&recs)).unwrap();
            // Duplicates included, unsorted order. The second chain hits
            // every `sample_records` prefix: a /24 inside a /16, the /16
            // alone, and the record whose region and city are both
            // `Some("")` at one string offset.
            let ips: Vec<Ipv4Addr> = LAYERED_PROBES
                .iter()
                .chain(LAYERED_PROBES.iter().rev())
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
            // ids the interval sweep returns, one per batch address...
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
    /// a host route in every other image, so most answers are records
    /// carried from enclosing prefixes.
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
    fn batch_sweep_matches_point_lookups_on_nested_prefixes() {
        use routergeo_pool::splitmix64;
        for seed in 0..120u64 {
            let recs = nested_prefixes(seed);
            let db = Rgdb2Reader::open(write(&recs)).unwrap();
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
                let want = reference(&recs, *addr);
                assert_eq!(*id, want, "seed {seed}: {}", Ipv4Addr::from(*addr));
                assert_eq!(db.locate(*addr).unwrap_or(MISS), want, "seed {seed}");
            }
            for (ip, at) in ips.iter().zip(batch.index()) {
                assert_eq!(batch.addrs()[ix(*at)], u32::from(*ip), "seed {seed}");
            }
        }
    }

    #[test]
    fn the_interval_section_holds_one_interval_per_maximal_answer() {
        // A /24 is one interval, the /16 one on each side of the /24
        // nested in it, and every gap one interval of NONE.
        let db = build();
        let want = [
            ("0.0.0.0", NONE),
            ("6.0.0.0", 0),
            ("6.0.1.0", NONE),
            ("31.0.0.0", 1),
            ("31.0.1.0", 2),
            ("31.0.2.0", 1),
            ("31.1.0.0", NONE),
            ("77.1.0.0", 3),
            ("77.1.1.0", NONE),
        ];
        let want: Vec<(u32, u32)> = (want.iter())
            .map(|(start, id)| (u32::from(start.parse::<Ipv4Addr>().unwrap()), *id))
            .collect();
        assert_eq!(stored(&db), want);
    }

    #[test]
    fn written_images_are_canonical() {
        // The interval starts are exactly the addresses where the
        // longest-prefix answer changes: every stored start is one, and
        // every prefix edge where the answer changes is stored.
        let sets = [sample_records(), layered_records()];
        for recs in sets.into_iter().chain((0..120).map(nested_prefixes)) {
            let db = Rgdb2Reader::open(write(&recs)).unwrap();
            let intervals = stored(&db);
            assert_eq!(intervals[0].0, 0);
            for (start, record) in &intervals {
                assert_eq!(*record, reference(&recs, *start));
                if *start > 0 {
                    assert_ne!(reference(&recs, start - 1), *record, "split at {start}");
                }
            }
            let starts: Vec<u32> = intervals.iter().map(|(start, _)| *start).collect();
            for (p, _) in &recs {
                let (first, last) = p.range_u32();
                for edge in [Some(first), last.checked_add(1)].into_iter().flatten() {
                    if edge > 0 && reference(&recs, edge - 1) != reference(&recs, edge) {
                        assert!(starts.binary_search(&edge).is_ok(), "joined at {edge}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_later_of_two_equal_prefixes_wins() {
        let mk = |city: &str| LocationRecord {
            country: Some("US".parse().unwrap()),
            region: None,
            city: Some(city.into()),
            coord: None,
            granularity: Granularity::Block24,
        };
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        let recs = [(p, mk("first")), (p, mk("second"))];
        let db = Rgdb2Reader::open(write(&recs)).unwrap();
        // Both records are stored; only the later answers.
        assert_eq!(db.record_count(), 2);
        let answer = db.try_lookup("10.0.0.1".parse().unwrap()).unwrap();
        assert_eq!(answer.unwrap().city.as_deref(), Some("second"));
        assert_eq!(
            stored(&db),
            [(0, NONE), (0x0A00_0000, 1), (0x0A00_0100, NONE)]
        );
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
    fn open_rejects_each_interval_fault() {
        let recs = layered_records();
        let image = write(&recs);
        let db = Rgdb2Reader::open(image.clone()).unwrap();
        let iv = |i: usize| db.intervals_start + i * INTERVAL_WIDTH;
        let set = |i: usize, field: usize, value: u32| -> Vec<(usize, u8)> {
            (0..4)
                .map(|b| (iv(i) + field + b, value.to_le_bytes()[b]))
                .collect()
        };
        let [(_, first), (second_start, _), ..] = stored(&db)[..] else {
            panic!("at least two intervals");
        };
        let cases = [
            // A first start other than 0.
            (set(0, 0, 1), (iv(0), "first interval start 0")),
            // A start at, or below, its left neighbour's.
            (
                set(2, 0, second_start),
                (iv(2), "interval starts strictly ascending"),
            ),
            (
                set(2, 0, second_start - 1),
                (iv(2), "interval starts strictly ascending"),
            ),
            // Record ids at record_count and next to NONE.
            (
                set(1, 4, db.record_count()),
                (iv(1) + 4, "record index within record_count"),
            ),
            (
                set(1, 4, NONE - 1),
                (iv(1) + 4, "record index within record_count"),
            ),
            // A split join: the left neighbour's record copied on.
            (
                set(1, 4, first),
                (iv(1) + 4, "record unlike the left neighbour's"),
            ),
        ];
        for (edits, (at, expected)) in cases {
            assert_eq!(
                verdict(&image, &edits),
                (Section::Intervals, at, expected),
                "edits {edits:?}"
            );
        }
        // A cut inside the interval section falls short of the layout.
        assert_eq!(
            Rgdb2Reader::open(image.slice(..iv(1) + 3)).unwrap_err(),
            RgdbError::Truncated
        );
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
        let image = write(&recs);
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
        // Header version 4 is the only one that opens: the retired
        // trie layouts (versions 1 to 3) and unknown ones are refused.
        for version in [1u8, 2, 3, 7] {
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
        let image = write(&recs);
        let db = Rgdb2Reader::open(image.clone()).unwrap();
        // One byte per section, each a structural error once the
        // checksum is re-fixed: the first interval's NONE record made
        // an out-of-range index, an unknown record flag bit, and bad
        // UTF-8 in the first string.
        for (at, value, section) in [
            (db.intervals_start + 4, 0x77, Section::Intervals),
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
        // offset 0) and "Springfield" (13); records 1-3 follow it. The
        // intervals are those of
        // `the_interval_section_holds_one_interval_per_maximal_answer`.
        let recs = sample_records();
        let image = write(&recs);
        let db = Rgdb2Reader::open(image.clone()).unwrap();
        let rec = |i: usize| db.records_start + i * RECORD_WIDTH;
        let string = |off: usize| db.strings_start + off;
        let iv = |i: usize| db.intervals_start + i * INTERVAL_WIDTH;
        // Interval 1's record (0) out of range; interval 2's start
        // (6.0.1.0) dropped below interval 1's; interval 4's record (2)
        // made interval 3's (1).
        let (bad_record, low_start, join) = ((iv(1) + 4, 0x77), (iv(2) + 3, 0x00), (iv(4) + 4, 1));
        let cases: [(&[(usize, u8)], Verdict); 10] = [
            // The name before any interval.
            (
                &[(HEADER_LEN, 0xFF), bad_record],
                (Section::Name, HEADER_LEN, "UTF-8 database name"),
            ),
            // Intervals before records.
            (
                &[(rec(0), 0xFF), bad_record],
                (
                    Section::Intervals,
                    iv(1) + 4,
                    "record index within record_count",
                ),
            ),
            // Intervals in index order, whatever the fault.
            (
                &[join, low_start],
                (
                    Section::Intervals,
                    iv(2),
                    "interval starts strictly ascending",
                ),
            ),
            (
                &[join, bad_record],
                (
                    Section::Intervals,
                    iv(1) + 4,
                    "record index within record_count",
                ),
            ),
            // An interval's start before its record.
            (
                &[(iv(2) + 4, 0x77), low_start],
                (
                    Section::Intervals,
                    iv(2),
                    "interval starts strictly ascending",
                ),
            ),
            (
                &[join],
                (
                    Section::Intervals,
                    iv(4) + 4,
                    "record unlike the left neighbour's",
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
        ];
        for (edits, want) in cases {
            assert_eq!(verdict(&image, edits), want, "edits {edits:?}");
        }

        // A zero interval count before the name: the same image without
        // its interval section, so the layout length still adds up.
        let mut bytes = image[..db.intervals_start].to_vec();
        bytes.extend_from_slice(&image[db.records_start..]);
        bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        bytes[HEADER_LEN] = 0xFF;
        assert_eq!(
            open_refixed(bytes).unwrap_err(),
            RgdbError::corrupt(
                Section::Header,
                8,
                "nonzero interval count (the intervals cover every address)"
            )
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
        // An interval's record index past record_count: the first
        // answered interval's.
        let err = corrupt_at(&image, db.intervals_start + INTERVAL_WIDTH + 4, 0x77).unwrap_err();
        assert_eq!(err.context().unwrap().section, Section::Intervals);
    }
}
