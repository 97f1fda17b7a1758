//! The resolve-once lookup engine (§5 hot path).
//!
//! Every analysis in this crate asks the databases about a fixed
//! address set, and reads their answers only through a view. Instead of
//! re-querying per analysis, a [`ResolvedView`] resolves each (IP,
//! database) pair exactly once into columnar storage: per database, one
//! 4-byte handle per address and a table of the distinct records that
//! answered, with region/city names interned into a shared
//! [`LocationInterner`]. A handle is the record's index in its
//! database's table, or [`MISS`], the way a MaxMind DB search tree
//! yields an offset into its data section. The analyses read answers
//! through the handles ([`ResolvedView::record`],
//! [`ResolvedView::column`]) without a single per-lookup allocation.
//!
//! Construction is sharded through `routergeo_pool`: each shard only
//! locates its slice. It sorts the slice once into a [`SortedBatch`]
//! and asks every database for the record ids of the batch's distinct
//! addresses ([`GeoDatabase::locate_batch`]). The pool's ordered fold
//! reads the ids back in input order through the batch's index and
//! turns them into the view's handles as soon as every earlier shard
//! is in, through one [`RecordTable`] per database: each distinct
//! record is decoded and interned once per view, on first sight in
//! (shard, database, address) order. That is the order a per-address
//! loop would intern in, and shard boundaries depend only on the input
//! length, so the view — interner ids included — is byte-identical at
//! any thread count. A database without record ids is answered in the
//! fold by its [`GeoDatabase::lookup_batch`], into the view's own
//! interner, which keeps that order too; each of its answers is
//! appended to its table.

use routergeo_db::compact::MISS;
use routergeo_db::{CompactRecord, GeoDatabase, LocationInterner, RecordTable, SortedBatch};
use routergeo_pool::Pool;
use std::net::Ipv4Addr;

/// Addresses per shard for the parallel resolvers and evaluators in
/// this crate. Lookups draw no randomness, so the shard seed is
/// irrelevant; the size is fixed (never thread-derived) to keep fold
/// order stable. Records decode once per view whatever the size, so it
/// only trades the per-shard work (the sort, each reader's first walk)
/// against parallelism: paper-scale inputs still split into ~90
/// shards, plenty for any realistic pool.
pub const LOOKUP_SHARD_SIZE: usize = 16384;

/// Columnar resolve-once answers: `record(db, i)` is database `db`'s
/// compact answer for the `i`-th input address.
#[derive(Debug)]
pub struct ResolvedView {
    databases: Vec<String>,
    total: usize,
    interner: LocationInterner,
    /// Per database, one handle per address into that database's
    /// table, or [`MISS`].
    handles: Vec<Vec<u32>>,
    /// Per database, the records its handles point at.
    tables: Vec<RecordTable>,
}

/// Answer-wise: equal names, length, interner and answers in every
/// cell. Handles are storage, not identity: a database without record
/// ids appends each of its answers to its table, so equal answers can
/// sit behind different handles.
impl PartialEq for ResolvedView {
    fn eq(&self, other: &ResolvedView) -> bool {
        self.databases == other.databases
            && self.total == other.total
            && self.interner == other.interner
            && (0..self.db_count()).all(|d| self.column(d).iter().eq(other.column(d)))
    }
}

impl ResolvedView {
    /// Resolve every (IP, database) pair once on `pool`: shards locate
    /// record ids, and the fold decodes each distinct record once in
    /// shard order, so the view is identical at every thread count.
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
        let mut handles: Vec<Vec<u32>> = (0..n).map(|_| Vec::with_capacity(ips.len())).collect();
        let mut tables: Vec<RecordTable> = (0..n).map(|_| RecordTable::default()).collect();
        let mut hits = 0u64;
        pool.fold_shards(
            0,
            ips,
            LOOKUP_SHARD_SIZE,
            |_, chunk| {
                let batch = SortedBatch::new(chunk);
                let located: Vec<_> = dbs.iter().map(|db| db.locate_batch(&batch)).collect();
                (batch, located)
            },
            |shard, (batch, located)| {
                let parts = handles.iter_mut().zip(&mut tables).zip(dbs).zip(located);
                for (((column, table), db), ids) in parts {
                    let start = column.len();
                    if let Some(ids) = ids {
                        column.extend(batch.index().iter().map(|at| {
                            table.handle(ids[*at as usize], |id| {
                                db.compact_record(id, &mut interner)
                            })
                        }));
                    } else {
                        let part = db.lookup_batch(&ips[shard.start..shard.end], &mut interner);
                        column.extend(part.into_iter().map(|rec| table.push(rec)));
                    }
                    hits += column[start..].iter().filter(|h| **h != MISS).count() as u64;
                }
            },
        );

        let lookups = (ips.len() as u64) * (n as u64);
        c_lookups.add(lookups);
        c_hits.add(hits);
        c_misses.add(lookups - hits);
        c_strings.add(interner.len() as u64);
        c_refs.add(interner.ref_count());
        span.attr("hits", hits);
        span.attr("interned", interner.len());

        ResolvedView {
            databases: dbs.iter().map(|d| d.name().to_string()).collect(),
            total: ips.len(),
            interner,
            handles,
            tables,
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
    pub fn column(&self, db: usize) -> Column<'_> {
        Column {
            handles: &self.handles[db],
            table: &self.tables[db],
        }
    }

    /// Database `db`'s answer for the `i`-th address.
    pub fn record(&self, db: usize, i: usize) -> Option<CompactRecord> {
        self.tables[db].record(self.handles[db][i])
    }

    /// Panic unless the view has one row per ground-truth entry: the
    /// analyses that pair row `i` with entry `i` check this first.
    pub(crate) fn expect_entries(&self, entries: usize) {
        assert_eq!(
            self.total, entries,
            "view rows must correspond to ground-truth entries"
        );
    }
}

/// One database's answers in a [`ResolvedView`], borrowed: one
/// `Option<CompactRecord>` per address, by value, read through the
/// handles.
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    handles: &'a [u32],
    table: &'a RecordTable,
}

impl<'a> Column<'a> {
    /// Number of answers: the view's address count.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the column holds no answers.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The answers in address order.
    pub fn iter(&self) -> ColumnIter<'a> {
        ColumnIter {
            handles: self.handles.iter(),
            table: self.table,
        }
    }
}

impl<'a> IntoIterator for Column<'a> {
    type Item = Option<CompactRecord>;
    type IntoIter = ColumnIter<'a>;

    fn into_iter(self) -> ColumnIter<'a> {
        self.iter()
    }
}

/// The answers of a [`Column`], by value, in address order.
#[derive(Debug, Clone)]
pub struct ColumnIter<'a> {
    handles: std::slice::Iter<'a, u32>,
    table: &'a RecordTable,
}

impl Iterator for ColumnIter<'_> {
    type Item = Option<CompactRecord>;

    #[inline]
    fn next(&mut self) -> Option<Option<CompactRecord>> {
        let handle = *self.handles.next()?;
        Some(self.table.record(handle))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.handles.size_hint()
    }
}

/// A width-1 view of `dbs` over `ips`, rows in order: the one way the
/// unit tests of this crate's analyses reach their databases.
#[cfg(test)]
pub(crate) fn test_view<D: GeoDatabase + Sync>(
    dbs: &[D],
    ips: impl IntoIterator<Item = Ipv4Addr>,
) -> ResolvedView {
    let ips: Vec<Ipv4Addr> = ips.into_iter().collect();
    ResolvedView::build_with(dbs, &ips, &Pool::new(1))
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

    /// Two and a half shards in which every address occurs twice,
    /// once in each half, so shards meet records seen in earlier ones.
    fn repeated_ips() -> Vec<Ipv4Addr> {
        let half = sample_ips(5 * LOOKUP_SHARD_SIZE / 4);
        half.iter().chain(half.iter().rev()).copied().collect()
    }

    /// A database with no record ids: it answers batches through its
    /// inner database, so the view takes the id-less fallback.
    struct BatchOnly<'a>(&'a InMemoryDb);

    impl GeoDatabase for BatchOnly<'_> {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn lookup(&self, ip: Ipv4Addr) -> Option<LocationRecord> {
            self.0.lookup(ip)
        }

        fn lookup_batch(
            &self,
            ips: &[Ipv4Addr],
            interner: &mut LocationInterner,
        ) -> Vec<Option<CompactRecord>> {
            self.0.lookup_batch(ips, interner)
        }
    }

    #[test]
    fn every_column_is_preallocated_to_the_address_count() {
        let dbs = [
            striped_db("a", 120, 1),
            striped_db("b", 120, 3),
            striped_db("c", 120, 5),
        ];
        let ips = repeated_ips();
        for threads in [1, 2] {
            let view = ResolvedView::build_with(&dbs, &ips, &Pool::new(threads));
            for (d, db) in dbs.iter().enumerate() {
                let handles = &view.handles[d];
                assert_eq!(handles.len(), ips.len(), "threads={threads} column {d}");
                assert_eq!(
                    handles.capacity(),
                    ips.len(),
                    "threads={threads} column {d}"
                );
                // One entry per distinct record that answered: every
                // striped block has its own coordinates.
                let ids: std::collections::BTreeSet<u32> = db
                    .locate_batch(&SortedBatch::new(&ips))
                    .unwrap()
                    .into_iter()
                    .filter(|id| *id != MISS)
                    .collect();
                let table = view.tables[d].records();
                assert_eq!(table.len(), ids.len(), "threads={threads} table {d}");
                for (ix, rec) in table.iter().enumerate() {
                    assert!(!table[..ix].contains(rec), "table {d} holds a record twice");
                }
            }
        }
    }

    #[test]
    fn views_compare_answers_not_handles() {
        let dbs = [striped_db("a", 120, 1), striped_db("b", 120, 3)];
        let wrapped = [BatchOnly(&dbs[0]), BatchOnly(&dbs[1])];
        let ips = repeated_ips();
        for threads in [1, 2] {
            let pool = Pool::new(threads);
            let view = ResolvedView::build_with(&dbs, &ips, &pool);
            let fallback = ResolvedView::build_with(&wrapped, &ips, &pool);
            // The fallback appends every answer, so its handles differ.
            assert_ne!(view.handles, fallback.handles, "threads={threads}");
            assert_eq!(view, fallback, "threads={threads}");

            let mut altered = ResolvedView::build_with(&dbs, &ips, &pool);
            let hit = altered.handles[1].iter().position(|h| *h != MISS).unwrap();
            altered.handles[1][hit] = MISS;
            assert_ne!(view, altered, "threads={threads}");
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
        // built over v2.1 root-table readers — each shard's sorted
        // batch and the resumed batch walk, not the per-address loop —
        // must be byte-identical at 1, 2, and 8 threads, and a
        // file-backed image must answer exactly like the heap-backed
        // bytes it was written from.
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
