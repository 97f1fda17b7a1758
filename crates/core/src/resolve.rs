//! The resolve-once lookup engine (§5 hot path).
//!
//! Coverage, consistency, and accuracy all ask every database about the
//! same address sets. Instead of re-querying per analysis, a
//! [`ResolvedView`] resolves each (IP, database) pair exactly once into
//! columnar struct-of-arrays storage: one `Vec<Option<CompactRecord>>`
//! column per database, with region/city names interned into a shared
//! [`LocationInterner`]. The analyses then tally over the flat columns
//! without a single per-lookup allocation.
//!
//! Construction is sharded through `routergeo_pool`: each shard resolves
//! its slice into a *local* interner and local column chunks, and the
//! pool's ordered fold absorbs each local as soon as every earlier
//! shard has been absorbed, remapping symbol ids into the global table
//! and appending the chunks to preallocated columns. Shard boundaries
//! depend only on the input length, so the view — ids included — is
//! byte-identical at any thread count.

use routergeo_db::{CompactRecord, GeoDatabase, LocationInterner};
use routergeo_pool::Pool;
use std::net::Ipv4Addr;

/// Addresses per shard for the parallel resolvers and evaluators in
/// this crate. Lookups draw no randomness, so the shard seed is
/// irrelevant; the size is fixed (never thread-derived) to keep fold
/// order stable. Sized so the batched readers amortize their
/// per-chunk work (sort, dense memo tables) over many addresses —
/// each distinct record decodes once per shard, so bigger shards mean
/// strictly fewer decodes — while still splitting paper-scale inputs
/// into ~90 shards, plenty of parallelism for any realistic pool.
pub(crate) const LOOKUP_SHARD_SIZE: usize = 16384;

/// Columnar resolve-once answers: `column(db)[i]` is database `db`'s
/// compact answer for the `i`-th input address.
#[derive(Debug, PartialEq)]
pub struct ResolvedView {
    databases: Vec<String>,
    total: usize,
    interner: LocationInterner,
    columns: Vec<Vec<Option<CompactRecord>>>,
}

impl ResolvedView {
    /// Resolve every (IP, database) pair once. Thread count from the
    /// environment ([`Pool::from_env`]).
    pub fn build<D: GeoDatabase + Sync>(dbs: &[D], ips: &[Ipv4Addr]) -> ResolvedView {
        ResolvedView::build_with(dbs, ips, &Pool::from_env())
    }

    /// [`ResolvedView::build`] on an explicit pool: shards resolve into
    /// local interners and column chunks, folded in shard order with
    /// symbol-id remapping, so the view is identical at every thread
    /// count.
    pub fn build_with<D: GeoDatabase + Sync>(
        dbs: &[D],
        ips: &[Ipv4Addr],
        pool: &Pool,
    ) -> ResolvedView {
        let n = dbs.len();
        let mut span = routergeo_obs::span!("core.resolve", databases = n, addresses = ips.len());
        // Register every resolve counter on the orchestrating thread in
        // fixed order, before any worker can first-touch one, so the
        // metrics snapshot renders identically at any thread count.
        let c_lookups = routergeo_obs::counter("resolve.lookups");
        let c_hits = routergeo_obs::counter("resolve.hits");
        let c_misses = routergeo_obs::counter("resolve.misses");
        let c_strings = routergeo_obs::counter("resolve.interner_strings");
        let c_refs = routergeo_obs::counter("resolve.interner_refs");

        let mut interner = LocationInterner::new();
        let mut columns: Vec<Vec<Option<CompactRecord>>> =
            (0..n).map(|_| Vec::with_capacity(ips.len())).collect();
        let mut hits = 0u64;
        let mut refs = 0u64;
        if pool.threads() <= 1 {
            // Serial fast path: resolve chunk-major straight into the
            // global interner. First-seen order is exactly the order the
            // sharded fold below replays, so ids — and therefore the
            // whole view — are bit-identical to the threaded build, with
            // none of the local-table absorb/remap machinery. Going
            // through `for_each_shard` keeps the pool's shard counters
            // and spans identical to the threaded plan.
            pool.for_each_shard(0, ips, LOOKUP_SHARD_SIZE, |_, chunk| {
                for (column, db) in columns.iter_mut().zip(dbs) {
                    let part = db.lookup_batch(chunk, &mut interner);
                    hits += part.iter().filter(|r| r.is_some()).count() as u64;
                    column.extend(part);
                }
            });
            refs = interner.ref_count();
        } else {
            // Each shard resolves into a local interner; the fold
            // absorbs it and appends the remapped answers while the
            // other workers are still resolving later shards.
            pool.fold_shards(
                0,
                ips,
                LOOKUP_SHARD_SIZE,
                |_, chunk| {
                    let mut local = LocationInterner::new();
                    // Batched resolve: backends exploit the whole-chunk
                    // view (sorted range/trie sweeps, per-record
                    // memoizing) while guaranteeing the same answers and
                    // interner ids as the per-address loop.
                    let parts: Vec<_> = dbs
                        .iter()
                        .map(|db| db.lookup_batch(chunk, &mut local))
                        .collect();
                    (local, parts)
                },
                |_, (local, parts)| {
                    refs += local.ref_count();
                    let remap = interner.absorb(&local);
                    for (column, part) in columns.iter_mut().zip(parts) {
                        hits += part.iter().filter(|r| r.is_some()).count() as u64;
                        column.extend(part.into_iter().map(|rec| rec.map(|r| r.remapped(&remap))));
                    }
                },
            );
        }

        let lookups = (ips.len() as u64) * (n as u64);
        c_lookups.add(lookups);
        c_hits.add(hits);
        c_misses.add(lookups - hits);
        c_strings.add(interner.len() as u64);
        c_refs.add(refs);
        span.attr("hits", hits);
        span.attr("interned", interner.len());

        ResolvedView {
            databases: dbs.iter().map(|d| d.name().to_string()).collect(),
            total: ips.len(),
            interner,
            columns,
        }
    }

    /// Database display names, defining the column index order.
    pub fn databases(&self) -> &[String] {
        &self.databases
    }

    /// Number of databases (columns).
    pub fn db_count(&self) -> usize {
        self.databases.len()
    }

    /// Number of resolved addresses (rows).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the view covers no addresses.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The shared symbol table for region/city ids.
    pub fn interner(&self) -> &LocationInterner {
        &self.interner
    }

    /// The full answer column of database `db`.
    pub fn column(&self, db: usize) -> &[Option<CompactRecord>] {
        &self.columns[db]
    }

    /// Database `db`'s answer for the `i`-th address.
    pub fn record(&self, db: usize, i: usize) -> Option<CompactRecord> {
        self.columns[db][i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_db::inmem::{InMemoryDb, InMemoryDbBuilder};
    use routergeo_db::{Granularity, LocationRecord};
    use routergeo_geo::Coordinate;

    /// A database whose city names vary per /24 so distinct symbols keep
    /// appearing across shard boundaries.
    fn striped_db(name: &str, blocks: u8, stride: u8) -> InMemoryDb {
        let mut b = InMemoryDbBuilder::new(name);
        for i in (0..blocks).step_by(usize::from(stride)) {
            b.push_prefix(
                format!("10.{i}.0.0/16").parse().unwrap(),
                LocationRecord {
                    country: Some("US".parse().unwrap()),
                    region: Some(format!("region-{}", i % 7)),
                    city: Some(format!("city-{}-{}", name, i % 13)),
                    coord: Some(Coordinate::new(f64::from(i) / 4.0, -100.0).unwrap()),
                    granularity: Granularity::Block24,
                },
            );
        }
        b.build().unwrap()
    }

    /// `count` addresses spread evenly over 10.0.0.0–10.119.255.255,
    /// the blocks the striped databases cover.
    fn sample_ips(count: usize) -> Vec<Ipv4Addr> {
        let count = u32::try_from(count).unwrap();
        let step = (120u32 << 16) / count;
        (0..count)
            .map(|i| Ipv4Addr::from(0x0A00_0000u32 + i * step))
            .collect()
    }

    /// Three shards, the last one partial, so the threaded build folds
    /// more than one shard and meets a short chunk.
    fn multi_shard_ips() -> Vec<Ipv4Addr> {
        let ips = sample_ips(2 * LOOKUP_SHARD_SIZE + LOOKUP_SHARD_SIZE / 2);
        let shards = routergeo_pool::plan_shards(0, ips.len(), LOOKUP_SHARD_SIZE);
        assert_eq!(shards.len(), 3);
        assert!(shards[2].len() < LOOKUP_SHARD_SIZE);
        ips
    }

    #[test]
    fn parallel_view_is_identical_to_serial() {
        let dbs = [striped_db("a", 120, 1), striped_db("b", 120, 3)];
        let ips = multi_shard_ips();
        let serial = ResolvedView::build_with(&dbs, &ips, &Pool::new(1));
        for threads in [2, 8] {
            let parallel = ResolvedView::build_with(&dbs, &ips, &Pool::new(threads));
            assert_eq!(
                serial, parallel,
                "view differs between 1 and {threads} threads"
            );
        }
        assert_eq!(serial.len(), ips.len());
        assert_eq!(serial.db_count(), 2);
        assert!(serial.interner().len() > 10, "symbols were interned");
    }

    #[test]
    fn every_column_is_preallocated_to_the_address_count() {
        let dbs = [
            striped_db("a", 120, 1),
            striped_db("b", 120, 3),
            striped_db("c", 120, 5),
        ];
        let ips = multi_shard_ips();
        for threads in [1, 2] {
            let view = ResolvedView::build_with(&dbs, &ips, &Pool::new(threads));
            for (d, column) in view.columns.iter().enumerate() {
                assert_eq!(column.capacity(), ips.len(), "threads={threads} column {d}");
            }
        }
    }

    #[test]
    fn view_answers_match_direct_lookups() {
        let dbs = [striped_db("a", 40, 1), striped_db("b", 40, 2)];
        let ips = sample_ips(500);
        let view = ResolvedView::build_with(&dbs, &ips, &Pool::new(2));
        for (d, db) in dbs.iter().enumerate() {
            for (i, ip) in ips.iter().enumerate() {
                let expanded = view.record(d, i).map(|c| c.to_record(view.interner()));
                assert_eq!(expanded, db.lookup(*ip), "db {d} ip {ip}");
            }
        }
    }

    #[test]
    fn v21_views_are_identical_across_threads_and_image_sources() {
        // The multi-threaded resolve default rests on this: a view
        // built over v2.1 root-table readers — the batched frontier
        // walk, not the per-address loop — must be byte-identical at
        // 1, 2, and 8 threads, and a file-backed image must answer
        // exactly like the heap-backed bytes it was written from.
        use routergeo_db::rgdb2::{self, Rgdb2Reader};
        use routergeo_db::FileImage;
        use routergeo_net::Prefix;

        let sources = [striped_db("a", 120, 1), striped_db("b", 120, 3)];
        let images: Vec<_> = sources
            .iter()
            .map(|db| {
                let entries: Vec<_> = db
                    .iter()
                    .flat_map(|(start, end, rec)| {
                        Prefix::cover_range(start, end)
                            .into_iter()
                            .map(move |p| (p, rec))
                    })
                    .collect();
                rgdb2::write_v21(db.name(), entries)
            })
            .collect();
        let heap: Vec<Rgdb2Reader> = images
            .iter()
            .map(|img| Rgdb2Reader::open(img.clone()).unwrap())
            .collect();

        let dir = std::env::temp_dir();
        let paths: Vec<_> = (0..images.len())
            .map(|ix| {
                dir.join(format!(
                    "routergeo-resolve-det-{}-{ix}.rgdb",
                    std::process::id()
                ))
            })
            .collect();
        for (path, img) in paths.iter().zip(&images) {
            std::fs::write(path, img).unwrap();
        }
        let file_backed: Vec<Rgdb2Reader> = paths
            .iter()
            .map(|p| Rgdb2Reader::open(FileImage::load(p).unwrap().into_bytes()).unwrap())
            .collect();
        for path in &paths {
            let _ = std::fs::remove_file(path);
        }

        let ips = multi_shard_ips();
        let serial = ResolvedView::build_with(&heap, &ips, &Pool::new(1));
        for threads in [2, 8] {
            let parallel = ResolvedView::build_with(&heap, &ips, &Pool::new(threads));
            assert_eq!(
                serial, parallel,
                "v2.1 view differs between 1 and {threads} threads"
            );
        }
        let from_disk = ResolvedView::build_with(&file_backed, &ips, &Pool::new(2));
        assert_eq!(
            serial, from_disk,
            "file-backed v2.1 images must answer exactly like the heap bytes"
        );
        // And the batched path must agree with the in-memory source dbs.
        for (d, db) in sources.iter().enumerate() {
            for (i, ip) in ips.iter().enumerate().step_by(97) {
                let expanded = serial.record(d, i).map(|c| c.to_record(serial.interner()));
                assert_eq!(expanded, db.lookup(*ip), "db {d} ip {ip}");
            }
        }
    }

    #[test]
    fn empty_inputs_build_empty_views() {
        let dbs: [InMemoryDb; 0] = [];
        let view = ResolvedView::build_with(&dbs, &[], &Pool::new(1));
        assert!(view.is_empty());
        assert_eq!(view.db_count(), 0);
        assert!(view.interner().is_empty());
    }
}
