//! Seeded traffic mixes: the request stream the loadgen replays.
//!
//! Request `i` is a **pure function of `(seed, i)`** — generation never
//! consumes shared RNG state — so any subset of the stream can be
//! produced independently, in any order, on any thread. The loadgen's
//! replay and the benchmark client frame the same elements from the
//! same seed, so their streams agree byte for byte.
//!
//! The mix follows the shapes "Lost in the Prefix" observed in real
//! lookup traffic: a Zipf-weighted hot set (popular prefixes dominate),
//! a uniform cold scan (mostly misses), a sliver of generation probes,
//! and a malformed-frame component exercising the rejection path.

use crate::corpus::Corpus;
use crate::protocol::{self, Request};
use bytes::Bytes;
use routergeo_pool::splitmix64;
use std::net::Ipv4Addr;

/// Weighted request classes, percent of the stream.
#[derive(Debug, Clone, Copy)]
pub struct MixWeights {
    /// Zipf-hot lookups over the corpus (always hits).
    pub zipf_pct: u64,
    /// Uniform cold-scan lookups (mostly misses).
    pub cold_pct: u64,
    /// Malformed request bodies.
    pub malformed_pct: u64,
    // Remainder: generation-info probes.
}

impl Default for MixWeights {
    fn default() -> MixWeights {
        MixWeights {
            zipf_pct: 65,
            cold_pct: 20,
            malformed_pct: 10,
        }
    }
}

/// What the stream element is, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// Zipf-hot lookup of `hit_addr(rank)`.
    ZipfLookup,
    /// Uniform cold-scan lookup.
    ColdLookup,
    /// A malformed request body.
    Malformed,
    /// Generation-info probe.
    Generation,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct MixRequest {
    /// The element's index times the mix's `interarrival_ns`. Nothing
    /// reads it; it stays while the benchmark harness builds mixes
    /// through the four-argument [`TrafficMix::new`].
    pub arrival_ns: u64,
    /// Request body bytes as they would appear inside a frame.
    pub body: Bytes,
    /// Class the request was drawn from.
    pub kind: MixKind,
}

/// Malformed body shapes the mix cycles through. All are intact frames
/// (the length prefix is honest) whose *bodies* are nonsense, so the
/// daemon answers `MALFORMED` and keeps the connection.
const MALFORMED_BODIES: [&[u8]; 4] = [
    &[0xEE],                               // unknown op
    &[protocol::OP_LOOKUP, 1, 2],          // short lookup payload
    &[protocol::OP_LOOKUP, 1, 2, 3, 4, 5], // long lookup payload
    &[protocol::OP_GENERATION, 9],         // generation probe with payload
];

/// The seeded stream generator.
#[derive(Debug, Clone)]
pub struct TrafficMix {
    seed: u64,
    corpus: Corpus,
    weights: MixWeights,
    interarrival_ns: u64,
    /// Cumulative fixed-point Zipf weights over corpus ranks.
    zipf_cum: Vec<u64>,
}

impl TrafficMix {
    /// Build a stream over `corpus` with `weights`. `interarrival_ns`
    /// only spaces the elements' `arrival_ns` stamps; the loadgen and
    /// the benchmark pass 0.
    pub fn new(seed: u64, corpus: Corpus, weights: MixWeights, interarrival_ns: u64) -> TrafficMix {
        // Fixed-point harmonic weights: w_k ∝ 1/(k+1), scaled so even the
        // coldest rank keeps a nonzero integer weight.
        const SCALE: u64 = 1 << 16;
        let mut zipf_cum = Vec::with_capacity(corpus.records());
        let mut acc = 0u64;
        for k in 0..corpus.records() {
            acc += SCALE / (u64::try_from(k).expect("record count bounded") + 1);
            zipf_cum.push(acc);
        }
        TrafficMix {
            seed,
            corpus,
            weights,
            interarrival_ns,
            zipf_cum,
        }
    }

    /// The corpus this mix draws from.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Draw the Zipf rank for a uniform `u64`.
    fn zipf_rank(&self, draw: u64) -> usize {
        let total = *self.zipf_cum.last().expect("corpus is non-empty");
        let target = draw % total;
        // First rank whose cumulative weight exceeds the target.
        self.zipf_cum.partition_point(|&c| c <= target)
    }

    /// Generate stream element `i`.
    pub fn request(&self, i: u64) -> MixRequest {
        let r0 = splitmix64(self.seed, i);
        let class = r0 % 100;
        let draw = splitmix64(r0, 1);
        let w = &self.weights;
        let (kind, body) = if class < w.zipf_pct {
            let rank = self.zipf_rank(draw);
            let addr = self.corpus.hit_addr(rank);
            (
                MixKind::ZipfLookup,
                protocol::encode_request(&Request::Lookup(addr)),
            )
        } else if class < w.zipf_pct + w.cold_pct {
            let addr =
                Ipv4Addr::from(u32::try_from(draw & 0xFFFF_FFFF).expect("masked to 32 bits"));
            (
                MixKind::ColdLookup,
                protocol::encode_request(&Request::Lookup(addr)),
            )
        } else if class < w.zipf_pct + w.cold_pct + w.malformed_pct {
            let shape =
                usize::try_from(draw % u64::try_from(MALFORMED_BODIES.len()).expect("small"))
                    .expect("bounded by table length");
            (
                MixKind::Malformed,
                Bytes::from(MALFORMED_BODIES[shape].to_vec()),
            )
        } else {
            (
                MixKind::Generation,
                protocol::encode_request(&Request::Generation),
            )
        };
        MixRequest {
            arrival_ns: i * self.interarrival_ns,
            body,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> TrafficMix {
        TrafficMix::new(42, Corpus::new(128), MixWeights::default(), 20_000)
    }

    #[test]
    fn stream_is_a_pure_function_of_seed_and_index() {
        let a = mix();
        let b = mix();
        // Out-of-order and repeated generation agree byte-for-byte.
        for i in [0u64, 17, 3, 999, 17, 0] {
            let ra = a.request(i);
            let rb = b.request(i);
            assert_eq!(ra.body, rb.body, "request {i}");
            assert_eq!(ra.kind, rb.kind);
            assert_eq!(ra.arrival_ns, i * 20_000);
        }
    }

    #[test]
    fn mix_contains_every_class_at_roughly_the_asked_weights() {
        let m = mix();
        let mut counts = [0u64; 4];
        let n = 4_000u64;
        for i in 0..n {
            let slot = match m.request(i).kind {
                MixKind::ZipfLookup => 0,
                MixKind::ColdLookup => 1,
                MixKind::Malformed => 2,
                MixKind::Generation => 3,
            };
            counts[slot] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        // Zipf dominates; malformed stays a sliver.
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
    }

    #[test]
    fn zipf_is_head_heavy() {
        let m = mix();
        let mut rank0 = 0u64;
        let mut tail = 0u64;
        for i in 0..8_000u64 {
            let req = m.request(i);
            if req.kind != MixKind::ZipfLookup {
                continue;
            }
            let r0 = splitmix64(42, i);
            let rank = m.zipf_rank(splitmix64(r0, 1));
            if rank == 0 {
                rank0 += 1;
            } else if rank >= 64 {
                tail += 1;
            }
        }
        assert!(
            rank0 > tail,
            "rank 0 ({rank0}) should outweigh the 64+ tail ({tail})"
        );
    }

    #[test]
    fn malformed_bodies_are_rejected_by_the_parser() {
        for body in MALFORMED_BODIES {
            assert!(protocol::parse_request(body).is_err());
        }
    }
}
