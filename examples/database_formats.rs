//! Database formats: serialize a synthesized vendor database to the RGDB
//! binary format, read it back, and verify both representations answer
//! identically. Also demonstrates the reader's corruption handling.
//!
//! ```sh
//! cargo run --release --example database_formats
//! ```

use routergeo::db::rgdb2::{self, Rgdb2Reader};
use routergeo::db::synth::{build_vendor, SignalWorld, VendorId, VendorProfile};
use routergeo::db::GeoDatabase;
use routergeo::net::Prefix;
use routergeo::world::{World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::tiny(99));
    let signals = SignalWorld::new(&world);
    let db = build_vendor(&signals, &VendorProfile::preset(VendorId::NetAcuity));
    println!("in-memory database: {} range entries", db.len());

    // RGDB: MaxMind-style binary trie with deduplicated records and
    // strings.
    let entries: Vec<(Prefix, routergeo::db::LocationRecord)> = db
        .iter()
        .flat_map(|(start, end, rec)| {
            Prefix::cover_range(start, end)
                .into_iter()
                .map(move |p| (p, rec.clone()))
        })
        .collect();
    let image = rgdb2::write_v21(db.name(), entries.iter().map(|(p, r)| (*p, r)));
    let reader = Rgdb2Reader::open(image.clone()).expect("valid image");
    println!(
        "RGDB image: {} bytes, {} deduplicated records for {} prefixes",
        image.len(),
        reader.record_count(),
        entries.len()
    );

    // Both answer identically for every interface.
    let mut checked = 0usize;
    for iface in world.interfaces.iter().step_by(7) {
        let a = db.lookup(iface.ip);
        let b = reader.lookup(iface.ip);
        assert_eq!(a, b, "RGDB diverged at {}", iface.ip);
        checked += 1;
    }
    println!("\n{checked} lookups agree across in-memory / RGDB");

    // Corruption is detected, not propagated.
    let mut corrupt = image.to_vec();
    let n = corrupt.len();
    corrupt[n / 2] ^= 0xFF;
    let e = Rgdb2Reader::open(corrupt.into()).expect_err("corruption must not pass validation");
    println!("corrupted image rejected: {e}");
}
