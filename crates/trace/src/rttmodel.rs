//! The RTT model.
//!
//! The paper's RTT-proximity method depends on one physical invariant:
//! *measured RTT can never be lower than the propagation floor* implied by
//! the fibre distance (§2.3.2 — "a 0.5ms RTT between two locations maps to
//! a distance of at most 50 km — likely much less due to inflation in RTT
//! measurement"). The model therefore composes:
//!
//! * a **floor**: great-circle path distance at ≈ 2/3 c, round trip;
//! * **path inflation**: fibre does not follow geodesics; a per-flow
//!   multiplicative factor in `[1.2, 2.4]`;
//! * **per-hop processing/queueing jitter**: additive, exponential-ish tail;
//! * a **LAN/local constant** for the first metres out of the host.
//!
//! All randomness is drawn from a [SplitMix64] stream keyed by the flow, so
//! the same (campaign, src, dst) triple always measures the same RTTs.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use routergeo_geo::distance::min_rtt_ms;

/// Deterministic 64-bit stream used for per-flow randomness.
///
/// SplitMix64 — tiny, fast, and good enough for simulation jitter. `rand`'s
/// `StdRng` would cost a ChaCha setup per flow; this is two multiplies.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Exponential with the given mean, by inversion of a uniform draw `u`
/// in `[0, 1)`.
fn exponential(mean: f64, u: f64) -> f64 {
    -mean * u.max(1e-12).ln()
}

/// Hash a flow identity into a seed (FNV-1a over the fields).
pub fn flow_seed(campaign_seed: u64, src: u32, dst: u32) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ campaign_seed;
    for b in src.to_be_bytes().into_iter().chain(dst.to_be_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// RTT model parameters.
#[derive(Debug, Clone)]
pub struct RttModel {
    /// Lower bound of the per-flow path-inflation factor.
    pub inflation_min: f64,
    /// Upper bound of the per-flow path-inflation factor.
    pub inflation_max: f64,
    /// Mean of the per-hop additive jitter (exponential), ms.
    pub hop_jitter_mean_ms: f64,
    /// Fixed local/LAN cost added to every hop's RTT, ms.
    pub local_cost_ms: f64,
}

impl Default for RttModel {
    fn default() -> Self {
        RttModel {
            inflation_min: 1.2,
            inflation_max: 2.4,
            hop_jitter_mean_ms: 0.16,
            local_cost_ms: 0.22,
        }
    }
}

impl RttModel {
    /// Draw the flow's path-inflation factor.
    pub fn draw_inflation(&self, rng: &mut SplitMix64) -> f64 {
        rng.uniform(self.inflation_min, self.inflation_max)
    }

    /// RTT in ms for a hop at cumulative path distance `path_km`, given
    /// the flow's inflation factor and `u`, the flow's uniform draw
    /// (`SplitMix64::next_f64`) for this hop's jitter. The trace engine
    /// makes every draw of a flow in one walk and prices hops from them.
    ///
    /// Guaranteed `>= min_rtt_ms(path_km)`: the physical floor is never
    /// undercut.
    pub fn hop_rtt_ms(&self, path_km: f64, inflation: f64, u: f64) -> f64 {
        debug_assert!(inflation >= 1.0, "inflation must not beat physics");
        let floor = min_rtt_ms(path_km);
        floor * inflation + self.local_cost_ms + exponential(self.hop_jitter_mean_ms, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(100);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn exponential_is_positive_with_roughly_right_mean() {
        let mut rng = SplitMix64::new(2);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = exponential(0.5, rng.next_f64());
            assert!(v >= 0.0);
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn flow_seed_distinguishes_flows() {
        let a = flow_seed(1, 10, 20);
        let b = flow_seed(1, 10, 21);
        let c = flow_seed(2, 10, 20);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, flow_seed(1, 10, 20));
    }

    #[test]
    fn rtt_never_beats_physics() {
        let model = RttModel::default();
        let mut rng = SplitMix64::new(7);
        for km in [0.0, 1.0, 50.0, 500.0, 8000.0] {
            let inflation = model.draw_inflation(&mut rng);
            for _ in 0..100 {
                let rtt = model.hop_rtt_ms(km, inflation, rng.next_f64());
                assert!(
                    rtt >= min_rtt_ms(km),
                    "rtt {rtt} below floor {} at {km} km",
                    min_rtt_ms(km)
                );
            }
        }
    }

    #[test]
    fn same_city_hops_often_satisfy_half_ms() {
        // The RTT-proximity extraction needs intra-metro hops (≤ ~20 km)
        // to frequently measure under 0.5 ms.
        let model = RttModel::default();
        let mut rng = SplitMix64::new(11);
        let mut under = 0;
        let n = 2000;
        for _ in 0..n {
            let inflation = model.draw_inflation(&mut rng);
            let rtt = model.hop_rtt_ms(10.0, inflation, rng.next_f64());
            if rtt < 0.5 {
                under += 1;
            }
        }
        let frac = under as f64 / n as f64;
        assert!(frac > 0.25, "only {frac} of 10 km hops under 0.5 ms");
    }

    #[test]
    fn distant_hops_never_satisfy_half_ms() {
        // 60 km of path distance already needs ≥ 0.6 ms.
        let model = RttModel::default();
        let mut rng = SplitMix64::new(13);
        for _ in 0..1000 {
            let inflation = model.draw_inflation(&mut rng);
            let rtt = model.hop_rtt_ms(60.0, inflation, rng.next_f64());
            assert!(rtt > 0.5);
        }
    }
}
