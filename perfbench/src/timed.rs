//! The timing wrapper around [`GeoDatabase::lookup_batch`], and the
//! fault wrapper the self-tests inject.
//!
//! [`Timed`] forwards every call unchanged and adds, per batch call, a
//! `bench.lookup_batch` span and the call's busy time, address count
//! and hit count into a shared [`BatchClock`]. The program itself is
//! not touched: the wrapper is just another `GeoDatabase` handed to
//! `ResolvedView::build_with`.

use routergeo_db::{CompactRecord, GeoDatabase, LocationInterner, LocationRecord};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Totals of the batch calls made through [`Timed`] wrappers. The
/// counters publish nothing else, so `Relaxed` suffices; they are read
/// after the pool has joined its workers.
#[derive(Debug, Default)]
pub struct BatchClock {
    calls: AtomicU64,
    addrs: AtomicU64,
    hits: AtomicU64,
    nanos: AtomicU64,
}

/// A snapshot of a [`BatchClock`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchTotals {
    /// `lookup_batch` calls.
    pub calls: u64,
    /// Addresses looked up.
    pub addrs: u64,
    /// Answers that carried a record.
    pub hits: u64,
    /// Busy time summed over calls (and so over pool workers).
    pub nanos: u64,
}

impl BatchClock {
    /// Current totals.
    pub fn totals(&self) -> BatchTotals {
        BatchTotals {
            calls: self.calls.load(Ordering::Relaxed),
            addrs: self.addrs.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
        }
    }
}

impl BatchTotals {
    /// Totals accumulated since `earlier`.
    pub fn since(self, earlier: BatchTotals) -> BatchTotals {
        BatchTotals {
            calls: self.calls - earlier.calls,
            addrs: self.addrs - earlier.addrs,
            hits: self.hits - earlier.hits,
            nanos: self.nanos - earlier.nanos,
        }
    }

    /// Share of addresses answered with a record.
    pub fn hit_ratio(self) -> f64 {
        if self.addrs == 0 {
            0.0
        } else {
            self.hits as f64 / self.addrs as f64
        }
    }
}

/// A database whose batch lookups are timed into a [`BatchClock`].
pub struct Timed<'a, D> {
    inner: D,
    clock: &'a BatchClock,
}

impl<'a, D> Timed<'a, D> {
    /// Wrap `inner`, timing into `clock`.
    pub fn new(inner: D, clock: &'a BatchClock) -> Timed<'a, D> {
        Timed { inner, clock }
    }
}

impl<D: GeoDatabase> GeoDatabase for Timed<'_, D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn lookup(&self, ip: Ipv4Addr) -> Option<LocationRecord> {
        self.inner.lookup(ip)
    }

    fn lookup_compact(
        &self,
        ip: Ipv4Addr,
        interner: &mut LocationInterner,
    ) -> Option<CompactRecord> {
        self.inner.lookup_compact(ip, interner)
    }

    fn lookup_batch(
        &self,
        ips: &[Ipv4Addr],
        interner: &mut LocationInterner,
    ) -> Vec<Option<CompactRecord>> {
        let mut span = routergeo_obs::span!(
            "bench.lookup_batch",
            db = self.inner.name(),
            addrs = ips.len()
        );
        let t0 = Instant::now();
        let out = self.inner.lookup_batch(ips, interner);
        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let hits = out.iter().filter(|r| r.is_some()).count() as u64;
        span.attr("hits", hits);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        self.clock
            .addrs
            .fetch_add(ips.len() as u64, Ordering::Relaxed);
        self.clock.hits.fetch_add(hits, Ordering::Relaxed);
        self.clock.nanos.fetch_add(nanos, Ordering::Relaxed);
        out
    }
}

/// A database that answers like `inner` except for address `target`
/// (if any), whose batch answer loses its country (or gains one, on a
/// miss).
pub struct Altered<D> {
    inner: D,
    target: Option<Ipv4Addr>,
}

impl<D> Altered<D> {
    /// Alter `inner`'s answer for `target`.
    pub fn new(inner: D, target: Option<Ipv4Addr>) -> Altered<D> {
        Altered { inner, target }
    }

    fn alter(rec: Option<CompactRecord>) -> Option<CompactRecord> {
        match rec {
            Some(mut r) => {
                r.country = match r.country {
                    Some(_) => None,
                    None => routergeo_geo::CountryCode::from_str_exact("AQ"),
                };
                Some(r)
            }
            None => Some(CompactRecord {
                country: routergeo_geo::CountryCode::from_str_exact("AQ"),
                region_id: None,
                city_id: None,
                coord: None,
                granularity: routergeo_db::Granularity::Aggregate,
            }),
        }
    }
}

impl<D: GeoDatabase> GeoDatabase for Altered<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn lookup(&self, ip: Ipv4Addr) -> Option<LocationRecord> {
        self.inner.lookup(ip)
    }

    fn lookup_batch(
        &self,
        ips: &[Ipv4Addr],
        interner: &mut LocationInterner,
    ) -> Vec<Option<CompactRecord>> {
        let mut out = self.inner.lookup_batch(ips, interner);
        let Some(target) = self.target else {
            return out;
        };
        for (ip, rec) in ips.iter().zip(out.iter_mut()) {
            if *ip == target {
                *rec = Altered::<D>::alter(*rec);
            }
        }
        out
    }
}
