//! `ResolvedView::build_with` against its definition: at any width, the
//! view equals a per-address `lookup_compact` loop over the shards in
//! order, and within each shard over the databases in order, all into
//! one interner. Cells and interner are compared with `==`, so the
//! record-id fold must assign every interner id exactly as that loop
//! does.
//!
//! The mix puts a wrapper that has no record ids (it overrides only
//! `lookup_batch`) between two databases that have them, an
//! `InMemoryDb` and an RGDB image, so the fold interleaves the id path
//! and the fallback within each shard. Each database draws its names
//! from a range that overlaps its neighbours', so the order in which
//! databases first meet a name shows in the interner. The inputs span
//! two to three shards, unsorted, with repeats and misses.

use proptest::prelude::*;
use routergeo_core::resolve::{ResolvedView, LOOKUP_SHARD_SIZE};
use routergeo_db::inmem::{InMemoryDb, InMemoryDbBuilder};
use routergeo_db::rgdb2::{self, Rgdb2Reader};
use routergeo_db::{CompactRecord, GeoDatabase, Granularity, LocationInterner, LocationRecord};
use routergeo_geo::Coordinate;
use routergeo_net::Prefix;
use routergeo_pool::{splitmix64, Pool};
use std::net::Ipv4Addr;

/// /24 blocks `10.0.0.0/24 ..` a database may answer for.
const BLOCKS: usize = 24;

/// Per block: whether a record answers, and its region and city picks
/// (`None` leaves the name out).
type BlockSpec = (bool, Option<usize>, Option<usize>);

fn arb_db() -> impl Strategy<Value = Vec<BlockSpec>> {
    let pick = || prop::option::of(0usize..8);
    prop::collection::vec((any::<bool>(), pick(), pick()), BLOCKS..BLOCKS + 1)
}

/// Names are `name-{pick + offset}`: databases with overlapping offsets
/// share some names, so which database meets a name first decides its
/// interner id.
fn build_db(name: &str, blocks: &[BlockSpec], offset: usize) -> InMemoryDb {
    let mut b = InMemoryDbBuilder::new(name);
    let named = |pick: Option<usize>| pick.map(|p| format!("name-{}", p + offset));
    for (block, &(present, region, city)) in blocks.iter().enumerate() {
        if !present {
            continue;
        }
        let block = u8::try_from(block).expect("BLOCKS fits an octet");
        b.push_prefix(
            Prefix::new(Ipv4Addr::new(10, 0, block, 0), 24).expect("an aligned /24"),
            LocationRecord {
                country: Some("DE".parse().expect("a valid code")),
                region: named(region),
                city: named(city),
                coord: Some(Coordinate::new(f64::from(block), 8.5).expect("in range")),
                granularity: Granularity::Block24,
            },
        );
    }
    b.build().expect("/24 blocks never overlap")
}

fn image_of(db: &InMemoryDb) -> Rgdb2Reader {
    let rows: Vec<_> = db
        .iter()
        .flat_map(|(s, e, rec)| Prefix::cover_range(s, e).into_iter().map(move |p| (p, rec)))
        .collect();
    Rgdb2Reader::open(rgdb2::write_v21(db.name(), rows)).expect("the writer's image opens")
}

/// A database with no record ids: it answers batches through its
/// inner database, and everything else through the trait defaults.
struct BatchOnly(InMemoryDb);

impl GeoDatabase for BatchOnly {
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

/// `len` addresses drawn from `seed`: mostly inside the blocks (so
/// shards repeat addresses), some anywhere (mostly misses).
fn addresses(seed: u64, len: usize) -> Vec<Ipv4Addr> {
    (0..len as u64)
        .map(|k| {
            let h = splitmix64(seed, k);
            let low = |x: u64| u32::try_from(x & 0xFFFF_FFFF).expect("masked to 32 bits");
            if h >> 60 == 0 {
                Ipv4Addr::from(low(h >> 20))
            } else {
                Ipv4Addr::from(0x0A00_0000 | low(h % (BLOCKS as u64 + 2)) << 8 | low(h >> 32 & 0x3))
            }
        })
        .collect()
}

/// The definition: per-address `lookup_compact`, shard by shard and,
/// within a shard, database by database, into one interner.
fn reference(
    dbs: &[&(dyn GeoDatabase + Sync)],
    ips: &[Ipv4Addr],
) -> (LocationInterner, Vec<Vec<Option<CompactRecord>>>) {
    let mut interner = LocationInterner::new();
    let mut columns = vec![Vec::new(); dbs.len()];
    for chunk in ips.chunks(LOOKUP_SHARD_SIZE) {
        for (column, db) in columns.iter_mut().zip(dbs) {
            column.extend(chunk.iter().map(|ip| db.lookup_compact(*ip, &mut interner)));
        }
    }
    (interner, columns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn views_equal_the_per_address_loop_at_every_width(
        specs in (arb_db(), arb_db(), arb_db()),
        seed in any::<u64>(),
        extra in 1usize..2 * LOOKUP_SHARD_SIZE,
    ) {
        let mem = build_db("mem", &specs.0, 0);
        let wrapped = BatchOnly(build_db("wrapped", &specs.1, 4));
        let rgdb = image_of(&build_db("rgdb", &specs.2, 8));
        let dbs: [&(dyn GeoDatabase + Sync); 3] = [&mem, &wrapped, &rgdb];
        prop_assert!(wrapped.locate_batch(&[]).is_none());
        prop_assert!(mem.locate_batch(&[]).is_some() && rgdb.locate_batch(&[]).is_some());

        let ips = addresses(seed, LOOKUP_SHARD_SIZE + extra);
        let (interner, columns) = reference(&dbs, &ips);
        for threads in [1, 2, 8] {
            let view = ResolvedView::build_with(&dbs, &ips, &Pool::new(threads));
            prop_assert!(view.interner() == &interner, "interner at {} threads", threads);
            for (d, column) in columns.iter().enumerate() {
                prop_assert!(
                    view.column(d) == column.as_slice(),
                    "column {} at {} threads", d, threads
                );
            }
        }
    }
}
