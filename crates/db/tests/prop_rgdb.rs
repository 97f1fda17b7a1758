//! Property test: an RGDB image answers every address with the record
//! of the longest prefix that holds it. Random nested prefix rows,
//! repeated prefixes included (the later row wins), go through
//! `rgdb2::write_v21` and `Rgdb2Reader::open`; the point lookup, the
//! batch sweep with its record decode, and a brute-force reference over
//! the rows must give the same answer on every probe.

use proptest::prelude::*;
use routergeo_db::compact::MISS;
use routergeo_db::rgdb2::{self, Rgdb2Reader};
use routergeo_db::{GeoDatabase, Granularity, LocationInterner, LocationRecord, SortedBatch};
use routergeo_net::Prefix;
use std::net::Ipv4Addr;

/// Three /16s the prefixes cluster in, so most of them nest in, or
/// enclose, one another.
const BASES: [u32; 3] = [0x0A00_0000, 0x0A01_0000, 0xC0A8_0000];

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (0..BASES.len(), 0u32..0x1_0000, 0u8..=32).prop_map(|(base, low, len)| {
        Prefix::containing(Ipv4Addr::from(BASES[base] | low), len).expect("len in range")
    })
}

/// Row `k`'s record: distinct per row, so an answer names its row.
fn record(k: usize) -> LocationRecord {
    LocationRecord {
        country: Some("NL".parse().expect("a valid code")),
        region: None,
        city: Some(format!("row-{k}")),
        coord: None,
        granularity: Granularity::SubBlock,
    }
}

/// Brute-force longest-prefix match over the rows: the longest prefix
/// holding `ip`, the later row of equal ones.
fn reference(rows: &[(Prefix, LocationRecord)], ip: Ipv4Addr) -> Option<&LocationRecord> {
    (rows.iter().enumerate())
        .filter(|(_, (p, _))| p.contains(ip))
        .max_by_key(|(k, (p, _))| (p.len(), *k))
        .map(|(_, (_, rec))| rec)
}

proptest! {
    #[test]
    fn image_answers_match_the_reference(
        prefixes in proptest::collection::vec(arb_prefix(), 1..48),
        repeats in proptest::collection::vec(any::<prop::sample::Index>(), 0..8),
        probes in proptest::collection::vec(any::<u32>(), 1..64),
    ) {
        let mut listed = prefixes.clone();
        listed.extend(repeats.iter().map(|at| prefixes[at.index(prefixes.len())]));
        let rows: Vec<(Prefix, LocationRecord)> =
            listed.into_iter().enumerate().map(|(k, p)| (p, record(k))).collect();
        let image = rgdb2::write_v21("prop", rows.iter().map(|(p, r)| (*p, r)));
        let db = Rgdb2Reader::open(image).expect("the writer's image opens");

        // Random addresses, and every prefix's edges and their outer
        // neighbours.
        let mut addrs = probes;
        for (p, _) in &rows {
            let (first, last) = p.range_u32();
            addrs.extend([first.wrapping_sub(1), first, last, last.wrapping_add(1)]);
        }
        let ips: Vec<Ipv4Addr> = addrs.into_iter().map(Ipv4Addr::from).collect();
        let batch = SortedBatch::new(&ips);
        let ids = db.locate_batch(&batch).expect("RGDB has record ids");
        prop_assert_eq!(ids.len(), batch.addrs().len());
        let mut interner = LocationInterner::new();
        for (addr, id) in batch.addrs().iter().zip(ids) {
            let ip = Ipv4Addr::from(*addr);
            let want = reference(&rows, ip);
            let looked_up = db.try_lookup(ip).expect("a valid image");
            prop_assert_eq!(looked_up.as_ref(), want, "{}", ip);
            let swept = (id != MISS)
                .then(|| db.compact_record(id, &mut interner).expect("a stored record"))
                .map(|c| c.to_record(&interner));
            prop_assert_eq!(swept.as_ref(), want, "{}", ip);
        }
    }
}
