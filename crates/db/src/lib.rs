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
//! * [`csvdb`] — an IP2Location-style CSV format (range rows), reader and
//!   writer.
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
pub mod csvdb;
pub mod diff;
pub mod image;
pub mod inmem;
pub mod record;
pub mod rgdb2;
pub mod synth;

pub use compact::{CompactRecord, IdRemap, LocationInterner};
pub use image::FileImage;
pub use inmem::InMemoryDb;
pub use record::{Granularity, LocationRecord};
pub use rgdb2::Rgdb2Reader;
pub use synth::{build_vendor, SignalWorld, VendorId, VendorProfile};

use std::net::Ipv4Addr;

/// A geolocation database: IP in, location record out.
pub trait GeoDatabase {
    /// Database display name (e.g. `MaxMind-GeoLite`).
    fn name(&self) -> &str;

    /// Look up one address. `None` means the database has no record at all
    /// for the address (no coverage even at country level).
    fn lookup(&self, ip: Ipv4Addr) -> Option<LocationRecord>;

    /// Look up one address on the compact, allocation-free path: the
    /// answer comes back by value with region/city interned into
    /// `interner`. The default implementation bridges through
    /// [`GeoDatabase::lookup`] (one transient record allocation);
    /// backends override it to answer without allocating per call.
    fn lookup_compact(
        &self,
        ip: Ipv4Addr,
        interner: &mut LocationInterner,
    ) -> Option<CompactRecord> {
        self.lookup(ip)
            .map(|rec| CompactRecord::from_record(&rec, interner))
    }

    /// Look up a batch of addresses on the compact path.
    ///
    /// The answer vector is element-for-element identical to calling
    /// [`GeoDatabase::lookup_compact`] once per address in order —
    /// including interner id assignment — so callers may batch freely
    /// without changing results. Backends override this to exploit
    /// access locality (sorted range/trie walks, per-answer memoizing);
    /// the default is the sequential loop.
    fn lookup_batch(
        &self,
        ips: &[Ipv4Addr],
        interner: &mut LocationInterner,
    ) -> Vec<Option<CompactRecord>> {
        ips.iter()
            .map(|ip| self.lookup_compact(*ip, interner))
            .collect()
    }
}

impl<T: GeoDatabase + ?Sized> GeoDatabase for &T {
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

    fn lookup_batch(
        &self,
        ips: &[Ipv4Addr],
        interner: &mut LocationInterner,
    ) -> Vec<Option<CompactRecord>> {
        (**self).lookup_batch(ips, interner)
    }
}

impl<T: GeoDatabase + ?Sized> GeoDatabase for Box<T> {
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

    fn lookup_batch(
        &self,
        ips: &[Ipv4Addr],
        interner: &mut LocationInterner,
    ) -> Vec<Option<CompactRecord>> {
        (**self).lookup_batch(ips, interner)
    }
}
