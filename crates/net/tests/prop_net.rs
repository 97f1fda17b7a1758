//! Property tests: the range map, prefixes and range covers must agree
//! with brute-force references on random inputs.

use proptest::prelude::*;
use routergeo_net::{Prefix, RangeMapBuilder};
use std::net::Ipv4Addr;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| {
        Prefix::containing(Ipv4Addr::from(addr), len).expect("len in range")
    })
}

proptest! {
    #[test]
    fn rangemap_matches_reference(
        // Disjoint-by-construction: carve /16s of distinct top bytes.
        blocks in proptest::collection::btree_set(0u8..=255, 1..20),
        probes in proptest::collection::vec(any::<u32>(), 1..64),
    ) {
        let mut builder = RangeMapBuilder::new();
        let mut reference = Vec::new();
        for (i, b) in blocks.iter().enumerate() {
            let start = Ipv4Addr::new(*b, 0, 0, 0);
            let end = Ipv4Addr::new(*b, 127, 255, 255);
            builder.push(start, end, i);
            reference.push((u32::from(start), u32::from(end), i));
        }
        let map = builder.build().expect("disjoint by construction");
        for probe in probes {
            let ip = Ipv4Addr::from(probe);
            let expected = reference
                .iter()
                .find(|(s, e, _)| (*s..=*e).contains(&probe))
                .map(|(_, _, v)| v);
            prop_assert_eq!(map.lookup(ip), expected);
        }
    }

    #[test]
    fn prefix_parse_display_roundtrip(p in arb_prefix()) {
        let text = p.to_string();
        let back: Prefix = text.parse().expect("display emits valid text");
        prop_assert_eq!(p, back);
    }

    #[test]
    fn prefix_contains_own_range(p in arb_prefix()) {
        prop_assert!(p.contains(p.first()));
        prop_assert!(p.contains(p.last()));
        let (lo, hi) = p.range_u32();
        prop_assert_eq!(u64::from(hi) - u64::from(lo) + 1, p.size());
    }

    #[test]
    fn prefix_split_partitions(p in arb_prefix()) {
        if let Some((lo, hi)) = p.split() {
            prop_assert!(p.covers(&lo) && p.covers(&hi));
            prop_assert_eq!(lo.size() + hi.size(), p.size());
            prop_assert!(!lo.covers(&hi) && !hi.covers(&lo));
        } else {
            prop_assert_eq!(p.len(), 32);
        }
    }
}

proptest! {
    #[test]
    fn cover_range_is_exact_and_disjoint(a in any::<u32>(), b in any::<u32>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        let cover = Prefix::cover_range(Ipv4Addr::from(lo), Ipv4Addr::from(hi));
        // Total size matches the range exactly.
        let total: u64 = cover.iter().map(|p| p.size()).sum();
        prop_assert_eq!(total, u64::from(hi) - u64::from(lo) + 1);
        // Contiguous, ascending, non-overlapping.
        let mut next = u64::from(lo);
        for p in &cover {
            prop_assert_eq!(p.network_u32() as u64, next);
            next += p.size();
        }
        prop_assert_eq!(next, u64::from(hi) + 1);
        // Minimality bound: a range never needs more than 62 CIDR blocks.
        prop_assert!(cover.len() <= 62);
    }

    #[test]
    fn cover_range_roundtrips_through_rangemap(a in any::<u32>(), b in any::<u32>()) {
        let (lo, hi) = (a.min(b), a.max(b));
        let cover = Prefix::cover_range(Ipv4Addr::from(lo), Ipv4Addr::from(hi));
        let mut builder = RangeMapBuilder::new();
        for p in &cover {
            builder.push_prefix(*p, ());
        }
        let map = builder.build().expect("disjoint cover");
        // Boundary and midpoint probes.
        for probe in [lo, hi, lo / 2 + hi / 2] {
            prop_assert!(map.lookup(Ipv4Addr::from(probe)).is_some());
        }
        if lo > 0 {
            prop_assert!(map.lookup(Ipv4Addr::from(lo - 1)).is_none());
        }
        if hi < u32::MAX {
            prop_assert!(map.lookup(Ipv4Addr::from(hi + 1)).is_none());
        }
    }
}
