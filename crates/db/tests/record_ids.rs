//! The record-id contract every backend with ids keeps:
//! `compact_record` of the id `locate_batch` returns for an address of
//! a `SortedBatch` equals `lookup_compact` of that address, with a
//! shared interner, and a miss has the id `MISS`. Checked for
//! `InMemoryDb` and for an RGDB image of the same rows, on unsorted
//! input with repeats, misses inside the covered block and addresses
//! outside it, read back in input order through the batch's index.

use routergeo_db::compact::MISS;
use routergeo_db::inmem::{InMemoryDb, InMemoryDbBuilder};
use routergeo_db::rgdb2::{self, Rgdb2Reader};
use routergeo_db::{GeoDatabase, Granularity, LocationInterner, LocationRecord, SortedBatch};
use routergeo_geo::Coordinate;
use routergeo_net::Prefix;
use std::net::Ipv4Addr;

/// Records inside 10/8 only: a /16 per even second octet, with names
/// that repeat across blocks and some absent.
fn striped() -> InMemoryDb {
    let mut b = InMemoryDbBuilder::new("striped");
    for i in (0u8..40).step_by(2) {
        b.push_prefix(
            format!("10.{i}.0.0/16").parse().expect("a valid prefix"),
            LocationRecord {
                country: Some(
                    if i % 3 == 0 { "US" } else { "BR" }
                        .parse()
                        .expect("a valid code"),
                ),
                region: (i % 4 != 0).then(|| format!("region-{}", i % 5)),
                city: (i % 6 != 0).then(|| format!("city-{}", i % 7)),
                coord: Some(Coordinate::new(f64::from(i), -50.0).expect("in range")),
                granularity: Granularity::Block24,
            },
        );
    }
    b.build().expect("/16 blocks never overlap")
}

#[test]
fn located_ids_decode_like_per_address_lookups() {
    let mem = striped();
    let rows: Vec<_> = mem
        .iter()
        .flat_map(|(s, e, rec)| Prefix::cover_range(s, e).into_iter().map(move |p| (p, rec)))
        .collect();
    let rgdb = Rgdb2Reader::open(rgdb2::write_v21("striped", rows)).unwrap();
    // Unsorted, with duplicates, misses inside 10/8 (odd second
    // octets, the tail) and addresses outside it.
    let ips: Vec<Ipv4Addr> = [
        "10.8.1.1",
        "10.2.0.0",
        "10.3.7.7",
        "10.8.1.1",
        "9.255.255.255",
        "10.38.255.255",
        "10.0.0.1",
        "11.0.0.0",
        "0.0.0.0",
        "10.2.200.3",
        "255.255.255.255",
        "10.39.0.1",
        "10.90.0.0",
        "192.168.1.1",
        "10.12.4.4",
        "10.0.0.1",
        "10.6.6.6",
        "10.8.1.1",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    let batch = SortedBatch::new(&ips);
    let backends: [&dyn GeoDatabase; 2] = [&mem, &rgdb];
    for db in backends {
        let located = db.locate_batch(&batch).expect("both backends have ids");
        assert_eq!(located.len(), batch.addrs().len());
        let ids: Vec<u32> = (batch.index().iter())
            .map(|at| located[*at as usize])
            .collect();
        assert_eq!(ids.len(), ips.len());
        let mut shared = LocationInterner::new();
        for (ip, id) in ips.iter().zip(&ids) {
            let direct = db.lookup_compact(*ip, &mut shared);
            let decoded = (*id != MISS)
                .then(|| db.compact_record(*id, &mut shared))
                .flatten();
            assert_eq!(decoded, direct, "{}: {ip} (id {id})", db.name());
            assert_eq!(*id != MISS, direct.is_some(), "{}: {ip}", db.name());
        }
        // The same address gets the same id; misses get MISS.
        assert_eq!(ids[0], ids[3]);
        assert_eq!(ids[6], ids[15]);
        assert!(ids[2] == MISS && ids[4] == MISS && ids[11] == MISS);
        assert_eq!(
            ids.iter().filter(|id| **id != MISS).count(),
            10,
            "{}",
            db.name()
        );
        assert!(shared.len() > 4, "names were interned");
        assert_eq!(db.compact_record(u32::MAX, &mut shared), None);
    }
}
