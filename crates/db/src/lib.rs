//! Geolocation databases: engine, formats, and synthetic vendors.
//!
//! The paper treats each geolocation database as a black box mapping an IP
//! address to a location record of some resolution. This crate provides:
//!
//! * [`record`] — the record model: country / region / city / coordinates,
//!   resolution, and the granularity tag behind the paper's "block-level
//!   location" analysis (§5.2.3).
//! * [`GeoDatabase`] — the lookup trait every backend implements.
//! * [`inmem`] — an in-memory range database (the working representation).
//! * [`rgdb2`] — **RGDB**, the MaxMind-style binary format (layout
//!   revision v2.1): a checksummed header, a stride-16 root table,
//!   level-order trie nodes, fixed-width records, and a deduplicated
//!   string table. [`Rgdb2Reader`] validates an image fully at open, so
//!   lookups are lock-free pointer arithmetic that borrows straight
//!   from the image bytes.
//! * [`image`] — [`FileImage`], the file-backed image loader: one
//!   allocation, positioned reads, attributed I/O errors.
//! * [`diff`] — snapshot drift measurement: classify how answers change
//!   between two releases of a database (the paper's §5.2 50-day
//!   robustness argument, made testable).
//! * [`synth`] — the four synthetic vendor profiles (IP2Location-Lite,
//!   MaxMind-GeoLite, MaxMind-Paid, NetAcuity) that derive per-block
//!   records from modeled signals: shared registry data, measurement
//!   corpora, DNS hostname hints, and default-centroid fallbacks. See
//!   DESIGN.md §4 for the mechanism-to-finding mapping.

#![deny(clippy::cast_possible_truncation)]

pub mod compact;
pub mod diff;
pub mod image;
pub mod inmem;
pub mod record;
pub mod rgdb2;
pub mod synth;

pub use compact::{CompactRecord, LocationInterner, RecordTable};
pub use image::FileImage;
pub use inmem::InMemoryDb;
pub use record::{Granularity, LocationRecord};
pub use rgdb2::Rgdb2Reader;
pub use routergeo_net::SortedBatch;
pub use synth::{build_vendor, SignalWorld, VendorId, VendorProfile};

use std::net::Ipv4Addr;

/// A geolocation database: IP in, location record out. A backend with
/// a record table also answers in two steps, as a MaxMind search tree
/// yields a data offset: [`GeoDatabase::locate_batch`] gives record ids
/// and [`GeoDatabase::compact_record`] decodes one, so a caller can
/// decode each distinct record once. Batches arrive as a
/// [`SortedBatch`], sorted once however many databases answer it.
pub trait GeoDatabase {
    /// Database display name (e.g. `MaxMind-GeoLite`).
    fn name(&self) -> &str;

    /// Look up one address. `None` means the database has no record at all
    /// for the address (no coverage even at country level).
    fn lookup(&self, ip: Ipv4Addr) -> Option<LocationRecord>;

    /// Look up one address on the compact path: the answer comes back
    /// by value with region/city interned into `interner`. The default
    /// bridges through [`GeoDatabase::lookup`], one transient record
    /// allocation per call; RGDB overrides it to allocate nothing.
    fn lookup_compact(
        &self,
        ip: Ipv4Addr,
        interner: &mut LocationInterner,
    ) -> Option<CompactRecord> {
        self.lookup(ip)
            .map(|rec| CompactRecord::from_record(&rec, interner))
    }

    /// The backend's own record id for each address of `batch`, in the
    /// batch's ascending order ([`SortedBatch::addrs`]): the id where a
    /// record answers, [`compact::MISS`] where none does.
    /// [`GeoDatabase::compact_record`] of that id equals
    /// [`GeoDatabase::lookup_compact`] of the address. `None` (the
    /// default) means the backend has no record ids.
    fn locate_batch(&self, _batch: &SortedBatch) -> Option<Vec<u32>> {
        None
    }

    /// Decode record `id`, an id from [`GeoDatabase::locate_batch`], on
    /// the compact path: its region, then its city, are interned into
    /// `interner`. `None` for an id the backend does not hold.
    fn compact_record(&self, _id: u32, _interner: &mut LocationInterner) -> Option<CompactRecord> {
        None
    }

    /// Look up a batch of addresses on the compact path.
    ///
    /// The answer vector is element-for-element identical to calling
    /// [`GeoDatabase::lookup_compact`] once per address in order —
    /// including interner id assignment — so callers may batch freely
    /// without changing results. A backend with record ids answers
    /// through one [`GeoDatabase::locate_batch`] call on the batch's
    /// [`SortedBatch`], and decodes each distinct record once, in input
    /// order, through a [`RecordTable`]; one without answers address by
    /// address.
    fn lookup_batch(
        &self,
        ips: &[Ipv4Addr],
        interner: &mut LocationInterner,
    ) -> Vec<Option<CompactRecord>> {
        let batch = SortedBatch::new(ips);
        let Some(ids) = self.locate_batch(&batch) else {
            return ips
                .iter()
                .map(|ip| self.lookup_compact(*ip, interner))
                .collect();
        };
        let mut table = RecordTable::default();
        (batch.index().iter())
            .map(|at| {
                let handle =
                    table.handle(ids[*at as usize], |id| self.compact_record(id, interner));
                table.record(handle)
            })
            .collect()
    }
}

/// Forward every method, so a wrapper's overrides survive a borrow or
/// a box.
macro_rules! forward_geo_database {
    ($ty:ty) => {
        impl<T: GeoDatabase + ?Sized> GeoDatabase for $ty {
            fn name(&self) -> &str {
                (**self).name()
            }

            fn lookup(&self, ip: Ipv4Addr) -> Option<LocationRecord> {
                (**self).lookup(ip)
            }

            fn lookup_compact(
                &self,
                ip: Ipv4Addr,
                interner: &mut LocationInterner,
            ) -> Option<CompactRecord> {
                (**self).lookup_compact(ip, interner)
            }

            fn locate_batch(&self, batch: &SortedBatch) -> Option<Vec<u32>> {
                (**self).locate_batch(batch)
            }

            fn compact_record(
                &self,
                id: u32,
                interner: &mut LocationInterner,
            ) -> Option<CompactRecord> {
                (**self).compact_record(id, interner)
            }

            fn lookup_batch(
                &self,
                ips: &[Ipv4Addr],
                interner: &mut LocationInterner,
            ) -> Vec<Option<CompactRecord>> {
                (**self).lookup_batch(ips, interner)
            }
        }
    };
}

forward_geo_database!(&T);
forward_geo_database!(Box<T>);
