//! Property tests for the trace crate's RTT model invariants.

use proptest::prelude::*;
use routergeo_trace::rttmodel::{RttModel, SplitMix64};

proptest! {
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
