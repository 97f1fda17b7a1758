//! Property tests for the trace crate's serialization formats and RTT
//! model invariants.

use proptest::prelude::*;
use routergeo_trace::rttmodel::{RttModel, SplitMix64};
use routergeo_trace::wire;
use routergeo_trace::{Hop, TracerouteRecord};
use std::net::Ipv4Addr;

fn arb_record() -> impl Strategy<Value = TracerouteRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(
            (
                any::<u8>(),
                proptest::option::of((any::<u32>(), proptest::option::of(0.0f64..1e5))),
            ),
            0..30,
        ),
        any::<bool>(),
    )
        .prop_map(|(origin, src, dst, hops, reached)| TracerouteRecord {
            origin_id: origin,
            src_ip: Ipv4Addr::from(src),
            dst_ip: Ipv4Addr::from(dst),
            hops: hops
                .into_iter()
                .map(|(no, reply)| match reply {
                    Some((ip, rtt)) => Hop {
                        hop: no,
                        ip: Some(Ipv4Addr::from(ip)),
                        rtt_ms: rtt,
                    },
                    None => Hop::timeout(no),
                })
                .collect(),
            reached,
        })
}

proptest! {
    #[test]
    fn warts_roundtrips_structure(records in proptest::collection::vec(arb_record(), 0..12)) {
        let buf = wire::write_all(&records);
        let back = wire::read_all(&buf).expect("own output parses");
        prop_assert_eq!(back.len(), records.len());
        for (a, b) in records.iter().zip(back.iter()) {
            prop_assert_eq!(a.origin_id, b.origin_id);
            prop_assert_eq!(a.src_ip, b.src_ip);
            prop_assert_eq!(a.dst_ip, b.dst_ip);
            prop_assert_eq!(a.reached, b.reached);
            prop_assert_eq!(a.hops.len(), b.hops.len());
            for (x, y) in a.hops.iter().zip(b.hops.iter()) {
                prop_assert_eq!(x.hop, y.hop);
                prop_assert_eq!(x.ip, y.ip);
                match (x.rtt_ms, y.rtt_ms) {
                    (Some(p), Some(q)) => prop_assert!((p - q).abs() < 0.001),
                    (None, None) => {}
                    other => prop_assert!(false, "{:?}", other),
                }
            }
        }
    }

    #[test]
    fn warts_reader_never_panics_on_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = wire::read_all(&bytes);
    }

    #[test]
    fn warts_reader_never_panics_on_corrupted_valid_streams(
        records in proptest::collection::vec(arb_record(), 1..6),
        flip_at in any::<prop::sample::Index>(),
        flip_bits in 1u8..=255,
    ) {
        let mut buf = wire::write_all(&records);
        let idx = flip_at.index(buf.len());
        buf[idx] ^= flip_bits;
        let _ = wire::read_all(&buf);
    }

    #[test]
    fn atlas_json_roundtrips_structure(rec in arb_record()) {
        let json = rec.to_atlas_json();
        let back = TracerouteRecord::from_atlas_json(&json).expect("parses");
        prop_assert_eq!(rec.hops.len(), back.hops.len());
        prop_assert_eq!(rec.src_ip, back.src_ip);
    }

    #[test]
    fn rtt_model_never_beats_physics(
        seed in any::<u64>(),
        km in 0.0f64..20_000.0,
    ) {
        let model = RttModel::default();
        let mut rng = SplitMix64::new(seed);
        let inflation = model.draw_inflation(&mut rng);
        let rtt = model.hop_rtt_ms(km, inflation, rng.next_f64());
        prop_assert!(rtt >= routergeo_geo::distance::min_rtt_ms(km));
    }

    #[test]
    fn splitmix_uniform_is_in_unit_interval(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..64 {
            let v = rng.next_f64();
            prop_assert!((0.0..1.0).contains(&v));
        }
    }
}
