//! RGDB writer↔reader round-trip property battery (satellite of the
//! fuzz harness): at every corpus scale and several seeds, a record
//! set serialized by `rgdb2::write_v21` must come back verbatim through
//! the reader — same record at every prefix boundary, `None` between
//! prefixes — the compact path must agree with the allocating one, and
//! the match depth must be the length of the prefix that holds the
//! address.

use routergeo_db::inmem::InMemoryDbBuilder;
use routergeo_db::record::{Granularity, LocationRecord};
use routergeo_db::rgdb2::{self, Rgdb2Reader};
use routergeo_db::{CompactRecord, GeoDatabase, LocationInterner};
use routergeo_fuzz::rng::FuzzRng;
use routergeo_fuzz::{build_entry, Scale};
use std::net::Ipv4Addr;

const SEEDS: [u64; 4] = [1, 2, 47, 0xDEAD_BEEF];

#[test]
fn every_scale_round_trips_every_record() {
    for scale in Scale::ALL {
        for seed in SEEDS {
            let entry = build_entry(seed, scale);
            let reader = Rgdb2Reader::open(entry.image()).expect("corpus image opens");
            let mut rng = FuzzRng::new(seed ^ 0x5EED_CAFE);
            for (prefix, record) in &entry.entries {
                let span = u64::from(u32::from(prefix.last()) - u32::from(prefix.first()));
                let inner = u32::from(prefix.first())
                    + u32::try_from(rng.below(span + 1)).expect("span fits u32");
                for ip in [prefix.first(), prefix.last(), Ipv4Addr::from(inner)] {
                    let got = reader.lookup(ip);
                    assert_eq!(
                        got.as_ref(),
                        Some(record),
                        "seed={seed} scale={} ip={ip} prefix={prefix}",
                        scale.label()
                    );
                }
            }
        }
    }
}

#[test]
fn answers_and_match_depth_come_from_the_containing_prefix() {
    // The corpus prefixes are disjoint, so at most one holds a probe:
    // its record is the answer and its length the match depth, and a
    // probe no prefix holds misses with no depth — at prefix edges, one
    // address beyond each edge, and over a random sweep.
    for scale in Scale::ALL {
        for seed in SEEDS {
            let entry = build_entry(seed, scale);
            let reader = Rgdb2Reader::open(entry.image()).expect("corpus image opens");
            let mut interner = LocationInterner::new();
            let mut rng = FuzzRng::new(seed.rotate_left(9) ^ 0xF0F0);
            let mut probes: Vec<Ipv4Addr> = Vec::new();
            for (prefix, _) in &entry.entries {
                // The edge pair: last covered address and first beyond.
                probes.push(prefix.first());
                probes.push(prefix.last());
                probes.push(Ipv4Addr::from(u32::from(prefix.last()).wrapping_add(1)));
                probes.push(Ipv4Addr::from(u32::from(prefix.first()).wrapping_sub(1)));
            }
            for _ in 0..256 {
                probes.push(Ipv4Addr::from(
                    u32::try_from(rng.next_u64() & 0xFFFF_FFFF).expect("masked"),
                ));
            }
            for ip in probes {
                let holder = entry.entries.iter().find(|(prefix, _)| prefix.contains(ip));
                let want =
                    holder.map(|(_, record)| CompactRecord::from_record(record, &mut interner));
                assert_eq!(
                    reader.lookup_compact(ip, &mut interner),
                    want,
                    "seed={seed} scale={} ip={ip}",
                    scale.label()
                );
                assert_eq!(
                    reader.match_len(ip).expect("valid image"),
                    holder.map(|(prefix, _)| prefix.len()),
                    "seed={seed} scale={} ip={ip}",
                    scale.label()
                );
            }
        }
    }
}

#[test]
fn compact_lookups_match_allocating_lookups() {
    let entry = build_entry(7, Scale::Small);
    let reader = Rgdb2Reader::open(entry.image()).expect("corpus image opens");
    let mut interner = LocationInterner::new();
    let mut rng = FuzzRng::new(0xC0FFEE);
    for _ in 0..512 {
        let ip = Ipv4Addr::from(u32::try_from(rng.next_u64() & 0xFFFF_FFFF).expect("masked"));
        let compact = reader.lookup_compact(ip, &mut interner);
        let full = reader.lookup(ip);
        match (compact, full) {
            (None, None) => {}
            (Some(c), Some(f)) => assert_eq!(c.to_record(&interner), f, "{ip}"),
            (c, f) => panic!("compact/full disagree at {ip}: {c:?} vs {f:?}"),
        }
    }
}

#[test]
fn addresses_outside_every_prefix_miss() {
    // 192.0.2.0/24 (TEST-NET-1) can never collide with the corpus,
    // which carves from 10.0.0.0 upward through a=10..129.
    let entry = build_entry(3, Scale::Tenth);
    let reader = Rgdb2Reader::open(entry.image()).expect("corpus image opens");
    for last in [0u8, 1, 128, 255] {
        let ip = Ipv4Addr::new(192, 0, 2, last);
        assert_eq!(reader.try_lookup(ip).expect("no error"), None, "{ip}");
    }
}

#[test]
fn empty_strings_survive_the_binary_format() {
    // `Some("")` is a present, empty name — not an absent one. The
    // binary layout carries it as a set flag with length 0 (and since
    // the quoted-empty CSV fix, the text format round-trips it too, so
    // the differential corpus now generates it freely).
    let prefix: routergeo_net::Prefix = "10.0.0.0/24".parse().expect("prefix literal");
    let record = LocationRecord {
        country: None,
        region: Some(String::new()),
        city: Some(String::new()),
        coord: None,
        granularity: Granularity::SubBlock,
    };
    let image = rgdb2::write_v21("empties", [(prefix, &record)]);
    let reader = Rgdb2Reader::open(image).expect("image opens");
    let got = reader
        .lookup(Ipv4Addr::new(10, 0, 0, 7))
        .expect("prefix covers the address");
    assert_eq!(got.region.as_deref(), Some(""));
    assert_eq!(got.city.as_deref(), Some(""));
    assert_eq!(got, record);
}

#[test]
fn oversized_strings_are_truncated_at_the_cap_not_corrupted() {
    // The writer caps length-prefixed strings at 255 bytes; a longer
    // source string must round-trip as its 255-byte prefix and leave
    // every neighboring record intact.
    let long = "c".repeat(400);
    let prefix: routergeo_net::Prefix = "10.0.0.0/24".parse().expect("prefix literal");
    let neighbor: routergeo_net::Prefix = "10.0.1.0/24".parse().expect("prefix literal");
    let a = LocationRecord {
        country: None,
        region: None,
        city: Some(long.clone()),
        coord: None,
        granularity: Granularity::SubBlock,
    };
    let b = LocationRecord {
        country: None,
        region: Some("ok".to_string()),
        city: None,
        coord: None,
        granularity: Granularity::Block24,
    };
    let image = rgdb2::write_v21("caps", [(prefix, &a), (neighbor, &b)]);
    let reader = Rgdb2Reader::open(image).expect("image opens");
    let got_a = reader.lookup(Ipv4Addr::new(10, 0, 0, 1)).expect("covered");
    assert_eq!(got_a.city.as_deref(), Some(&long[..255]));
    let got_b = reader.lookup(Ipv4Addr::new(10, 0, 1, 1)).expect("covered");
    assert_eq!(got_b, b);
}

#[test]
fn interner_ids_are_stable_across_backends_for_equal_strings() {
    // An RGDB reader and an `InMemoryDb` over the same record set, one
    // shared interner: the ids a `CompactRecord` carries must depend
    // only on the strings, which is the property the differential
    // pillar's four-way compare rests on.
    let entry = build_entry(5, Scale::Tiny);
    let rgdb = Rgdb2Reader::open(entry.image()).expect("opens");
    let mut builder = InMemoryDbBuilder::new("mem");
    for (prefix, record) in &entry.entries {
        builder.push_prefix(*prefix, record.clone());
    }
    let mem = builder.build().expect("disjoint corpus prefixes");
    let mut interner = LocationInterner::new();
    for (prefix, record) in &entry.entries {
        let a = rgdb.lookup_compact(prefix.first(), &mut interner);
        let b = mem.lookup_compact(prefix.first(), &mut interner);
        assert_eq!(a, b, "{prefix}");
        let expected = CompactRecord::from_record(record, &mut interner);
        assert_eq!(a, Some(expected), "{prefix}");
    }
}
