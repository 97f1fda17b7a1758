//! Integration: format equivalence and robustness across crates — the
//! in-memory and RGDB binary representations of a vendor database must
//! answer identically, and the RGDB reader must reject garbage rather
//! than panic.

use proptest::prelude::*;
use routergeo::db::rgdb2::{self, Rgdb2Reader};
use routergeo::db::synth::{build_vendor, SignalWorld, VendorId, VendorProfile};
use routergeo::db::{GeoDatabase, InMemoryDb};
use routergeo::net::Prefix;
use routergeo::world::{World, WorldConfig};
use std::net::Ipv4Addr;

fn vendor_db(seed: u64, vendor: VendorId) -> (World, InMemoryDb) {
    let world = World::generate(WorldConfig::tiny(seed));
    let signals = SignalWorld::new(&world);
    let db = build_vendor(&signals, &VendorProfile::preset(vendor));
    (world, db)
}

fn rgdb_image(db: &InMemoryDb) -> bytes::Bytes {
    let entries: Vec<(Prefix, routergeo::db::LocationRecord)> = db
        .iter()
        .flat_map(|(start, end, rec)| {
            Prefix::cover_range(start, end)
                .into_iter()
                .map(move |p| (p, rec.clone()))
        })
        .collect();
    rgdb2::write_v21(db.name(), entries.iter().map(|(p, r)| (*p, r)))
}

#[test]
fn all_formats_answer_identically_for_all_vendors() {
    for vendor in VendorId::ALL {
        let (world, db) = vendor_db(2001, vendor);
        let reader = Rgdb2Reader::open(rgdb_image(&db)).expect("fresh image is valid");
        // Every interface plus unallocated space and boundary addresses.
        let mut probes: Vec<Ipv4Addr> = world.interfaces.iter().map(|i| i.ip).collect();
        probes.extend([
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(255, 255, 255, 255),
            Ipv4Addr::new(203, 0, 113, 1),
        ]);
        for ip in probes.iter().step_by(3) {
            assert_eq!(db.lookup(*ip), reader.lookup(*ip), "{vendor} RGDB at {ip}");
        }
    }
}

#[test]
fn rgdb_rejects_any_single_byte_corruption_of_the_header() {
    let (_, db) = vendor_db(2002, VendorId::NetAcuity);
    let image = rgdb_image(&db);
    // The magic, version, exact-length and checksum checks leave no
    // header byte whose flip still opens.
    for i in 0..28 {
        let mut bytes = image.to_vec();
        bytes[i] ^= 0xA5;
        assert!(
            Rgdb2Reader::open(bytes.into()).is_err(),
            "header byte {i} flipped by 0xA5, yet the image opened"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rgdb_reader_never_panics_on_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Rgdb2Reader::open(bytes::Bytes::from(bytes));
    }
}
