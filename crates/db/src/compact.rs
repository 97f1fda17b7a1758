//! The zero-allocation lookup path: interned location symbols and the
//! `Copy`-able compact record.
//!
//! The analysis workload resolves every (IP, database) pair and then
//! reads only scalar facts — country, coordinates, resolution — yet the
//! owning [`LocationRecord`] carries its region
//! and city as `Option<String>`, so each answer costs heap allocations.
//! [`LocationInterner`] maps those strings to dense `u32` symbol ids
//! exactly once, and [`CompactRecord`] carries the ids by value, so an
//! answer costs no per-lookup allocation.
//!
//! A [`RecordTable`] memoises a backend's records by record id, so a
//! batch or a whole resolved view decodes (and interns) each distinct
//! record once. It hands out 4-byte handles, indices into its table of
//! the records that answered, so a resolved column stores one `u32` per
//! address, not a 48-byte `Option<CompactRecord>`. Decoding in a fixed
//! order — for a view, first sight in (shard, database, address) order
//! — fixes every interner id, so ids never need remapping and are
//! byte-identical at any thread count.

use crate::record::{Granularity, LocationRecord};
use routergeo_geo::{Coordinate, CountryCode};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// FNV-1a as a [`std::hash::Hasher`]: a handful of instructions per
/// byte, no per-hash setup cost. The interner hashes a short location
/// name for every record it decodes; SipHash's HashDoS hardening buys
/// nothing for this private, trusted-key map and costs most of the
/// lookup. Not for untrusted keys.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = h;
    }
}

/// [`BuildHasher`] producing [`FnvHasher`]s seeded with the FNV-1a
/// offset basis. Plug into `HashMap` as the third type parameter.
#[derive(Debug, Default, Clone)]
pub struct FnvBuildHasher;

impl BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(0xCBF2_9CE4_8422_2325)
    }
}

/// A symbol table for region/city names: each distinct string gets a
/// dense `u32` id, assigned in first-seen order.
#[derive(Debug, Default, Clone)]
pub struct LocationInterner {
    strings: Vec<String>,
    ids: HashMap<String, u32, FnvBuildHasher>,
    refs: u64,
}

impl PartialEq for LocationInterner {
    fn eq(&self, other: &Self) -> bool {
        // The id map is derived from `strings`; the ref counter is
        // bookkeeping, not identity.
        self.strings == other.strings
    }
}

impl LocationInterner {
    /// An empty interner.
    pub fn new() -> LocationInterner {
        LocationInterner::default()
    }

    /// Intern `s`, returning its id. The same string always maps to the
    /// same id; a new string gets the next dense id. This is the only
    /// place the compact path allocates, and it allocates once per
    /// *distinct* string, not once per lookup.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.refs += 1;
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len())
            .expect("interner overflow: more than u32::MAX distinct location names");
        self.strings.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        id
    }

    /// The string behind `id`, if assigned.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no string has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Total [`LocationInterner::intern`] calls served — hit-or-miss —
    /// for the `resolve.interner_refs` metric.
    pub fn ref_count(&self) -> u64 {
        self.refs
    }
}

/// The handle of an answer that holds no record.
pub const MISS: u32 = u32::MAX;

/// A [`RecordTable`] slot whose id has not been seen yet.
const UNSEEN: u32 = u32::MAX - 1;

/// A dense memo from a backend's record ids to 4-byte handles: each id
/// is decoded, and its names interned, on first sight only, and the
/// record it decodes to is appended to the table. A handle is that
/// record's index in the table, or [`MISS`]. Ids are small and dense
/// (an RGDB record index, a range-map entry index), so the id map is a
/// `u32` slot per id.
#[derive(Debug, Default)]
pub struct RecordTable {
    /// `slots[id]`: the handle of `id`, or `UNSEEN`.
    slots: Vec<u32>,
    records: Vec<CompactRecord>,
}

impl RecordTable {
    /// The handle of record `id`, decoded by `decode` if this is the
    /// first time the table sees `id`. The id [`MISS`] (a located
    /// miss) has the handle [`MISS`].
    #[inline]
    pub fn handle(&mut self, id: u32, decode: impl FnOnce(u32) -> Option<CompactRecord>) -> u32 {
        if id == MISS {
            return MISS;
        }
        let ix = id as usize;
        if ix >= self.slots.len() {
            self.slots.resize(ix + 1, UNSEEN);
        }
        if self.slots[ix] == UNSEEN {
            self.slots[ix] = self.push(decode(id));
        }
        self.slots[ix]
    }

    /// Append `rec`, an answer that came without a record id, and
    /// return its handle: [`MISS`] for `None`.
    pub fn push(&mut self, rec: Option<CompactRecord>) -> u32 {
        let Some(rec) = rec else {
            return MISS;
        };
        let handle = u32::try_from(self.records.len())
            .ok()
            .filter(|h| *h < UNSEEN)
            .expect("fewer than u32::MAX - 1 records per table");
        self.records.push(rec);
        handle
    }

    /// The record behind `handle`: `None` for [`MISS`].
    #[inline]
    pub fn record(&self, handle: u32) -> Option<CompactRecord> {
        self.records.get(handle as usize).copied()
    }

    /// The records in handle order.
    pub fn records(&self) -> &[CompactRecord] {
        &self.records
    }
}

/// A location answer with every field by value: country and coordinates
/// verbatim, region/city as interner ids. `Copy`, 0 heap bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactRecord {
    /// ISO country code, if known.
    pub country: Option<CountryCode>,
    /// Interned admin-region name, if known.
    pub region_id: Option<u32>,
    /// Interned city name, if the record is city-level.
    pub city_id: Option<u32>,
    /// Coordinates, if any.
    pub coord: Option<Coordinate>,
    /// Entry granularity.
    pub granularity: Granularity,
}

impl CompactRecord {
    /// Compact an owning record, interning its region/city names. Takes
    /// the record by reference: the strings are borrowed into the
    /// interner, never cloned into the result.
    pub fn from_record(rec: &LocationRecord, interner: &mut LocationInterner) -> CompactRecord {
        CompactRecord {
            country: rec.country,
            region_id: rec.region.as_deref().map(|s| interner.intern(s)),
            city_id: rec.city.as_deref().map(|s| interner.intern(s)),
            coord: rec.coord,
            granularity: rec.granularity,
        }
    }

    /// Expand back to an owning record — the exact inverse of
    /// [`CompactRecord::from_record`] under the same interner.
    pub fn to_record(self, interner: &LocationInterner) -> LocationRecord {
        LocationRecord {
            country: self.country,
            region: self
                .region_id
                .and_then(|id| interner.resolve(id))
                .map(str::to_string),
            city: self
                .city_id
                .and_then(|id| interner.resolve(id))
                .map(str::to_string),
            coord: self.coord,
            granularity: self.granularity,
        }
    }

    /// Whether the record provides country-level coverage — mirrors
    /// [`LocationRecord::has_country`].
    pub fn has_country(&self) -> bool {
        self.country.is_some()
    }

    /// Whether the record provides city-level coverage (a city name
    /// with coordinates) — mirrors [`LocationRecord::has_city`].
    pub fn has_city(&self) -> bool {
        self.city_id.is_some() && self.coord.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_ids_are_dense_stable_and_round_trip() {
        let mut i = LocationInterner::new();
        let words = ["Berlin", "Hamburg", "Berlin", "Bremen", "Hamburg", "Berlin"];
        let ids: Vec<u32> = words.iter().map(|w| i.intern(w)).collect();
        // Same string → same id, ids dense in first-seen order.
        assert_eq!(ids, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(i.len(), 3);
        assert_eq!(i.ref_count(), 6);
        // Round-trip exact.
        for (w, id) in words.iter().zip(&ids) {
            assert_eq!(i.resolve(*id), Some(*w));
        }
        assert_eq!(i.resolve(3), None);
    }

    #[test]
    fn compact_round_trips_through_the_interner() {
        let mut i = LocationInterner::new();
        let rec = LocationRecord {
            country: Some("DE".parse().unwrap()),
            region: Some("Berlin".into()),
            city: Some("Berlin".into()),
            coord: Some(Coordinate::new(52.5, 13.4).unwrap()),
            granularity: Granularity::SubBlock,
        };
        let c = CompactRecord::from_record(&rec, &mut i);
        // Region and city share one symbol.
        assert_eq!(c.region_id, Some(0));
        assert_eq!(c.city_id, Some(0));
        assert_eq!(i.len(), 1);
        assert!(c.has_country() && c.has_city());
        assert_eq!(c.to_record(&i), rec);

        let empty = LocationRecord::empty();
        let ce = CompactRecord::from_record(&empty, &mut i);
        assert!(!ce.has_country() && !ce.has_city());
        assert_eq!(ce.to_record(&i), empty);
    }

    #[test]
    fn record_table_decodes_each_id_once() {
        let mut table = RecordTable::default();
        let mut decoded = Vec::new();
        let rec = |cc: &str| {
            CompactRecord::from_record(
                &LocationRecord::country_level(cc.parse().unwrap(), Granularity::Block24),
                &mut LocationInterner::new(),
            )
        };
        for (id, want, handle) in [
            (7, Some("DE"), 0),
            (2, Some("FR"), 1),
            (7, Some("DE"), 0),
            (9, None, MISS),
            (9, None, MISS),
            (MISS, None, MISS),
        ] {
            let got = table.handle(id, |id| {
                decoded.push(id);
                [(7, "DE"), (2, "FR")]
                    .iter()
                    .find(|e| e.0 == id)
                    .map(|e| rec(e.1))
            });
            assert_eq!(got, handle, "id {id}");
            assert_eq!(table.record(got), want.map(rec), "id {id}");
        }
        // First sight only; an id that decodes to nothing is memoised
        // too, and a located miss is never decoded.
        assert_eq!(decoded, vec![7, 2, 9]);
        // An answer without an id is appended, even if it repeats one.
        assert_eq!(table.push(Some(rec("DE"))), 2);
        assert_eq!(table.push(None), MISS);
        assert_eq!(table.records(), [rec("DE"), rec("FR"), rec("DE")]);
    }
}
