//! The deterministic virtual-time engine behind `serve_ci.json`.
//!
//! Real socket latency is noise; CI needs numbers that are identical on
//! every machine. The simulator gets both halves honest:
//!
//! * **The work is real.** Every stream element's body bytes go through
//!   the production frame parser, the lookup runs against a real
//!   validated [`Rgdb2Reader`], and the response is encoded with the
//!   production encoder. A parser or trie regression changes the
//!   report.
//! * **The time is virtual.** Service cost is an integer-nanosecond
//!   model keyed on what actually happened — matched prefix depth,
//!   encoded response size, rejection path — and queueing follows the
//!   daemon's discipline: requests land round-robin on `virtual_workers`
//!   chains, wait behind the chain's previous request, and are **shed**
//!   when the backlog exceeds the shed threshold, mirroring the bounded
//!   accept queue.
//!
//! Chain `w` processes stream elements `w, w+W, w+2W, …` and every
//! element is a pure function of `(seed, index)`, so chains are
//! independent: the pool shards them (one chain per shard) and merges
//! in shard order, which is why the report is byte-identical at 1, 2,
//! or 8 worker threads.

use crate::mix::TrafficMix;
use crate::protocol::{self, Request, Response};
use routergeo_db::Rgdb2Reader;
use routergeo_pool::Pool;

/// Base cost of answering any well-formed lookup.
const COST_LOOKUP_BASE_NS: u64 = 1_200;
/// Marginal cost per matched prefix bit (trie walk depth).
const COST_PER_BIT_NS: u64 = 60;
/// Extra cost of walking to a miss (full-depth walk, no decode).
const COST_MISS_NS: u64 = 800;
/// Marginal cost per encoded response byte.
const COST_PER_BYTE_NS: u64 = 8;
/// Cost of rejecting a malformed body.
const COST_MALFORMED_NS: u64 = 900;
/// Cost of a generation-info probe.
const COST_GEN_NS: u64 = 700;

/// Simulator parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Total stream elements.
    pub requests: u64,
    /// Virtual worker chains (the modeled pool width).
    pub virtual_workers: u64,
    /// Backlog age beyond which a request is shed, mirroring the
    /// bounded accept queue.
    pub shed_wait_ns: u64,
}

/// Aggregated virtual-time outcome. All fields are pure functions of
/// `(mix seed, SimConfig, corpus)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOutcome {
    /// Stream elements generated.
    pub requests: u64,
    /// Answered lookups and probes.
    pub served: u64,
    /// Requests shed by the backlog model.
    pub shed: u64,
    /// Malformed bodies rejected.
    pub malformed: u64,
    /// Lookups that matched.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Generation probes answered.
    pub gen_infos: u64,
    /// Virtual p50 response latency.
    pub latency_p50_ns: u64,
    /// Virtual p99 response latency.
    pub latency_p99_ns: u64,
    /// Virtual worst-case response latency.
    pub latency_max_ns: u64,
    /// Virtual makespan: when the last chain went idle.
    pub makespan_ns: u64,
    /// Served requests per virtual second.
    pub virtual_rate_per_sec: u64,
}

#[derive(Default)]
struct ChainOutcome {
    served: u64,
    shed: u64,
    malformed: u64,
    hits: u64,
    misses: u64,
    gen_infos: u64,
    latencies_ns: Vec<u64>,
    busy_until_ns: u64,
}

/// Service cost of one request, derived from the real outcome.
fn service_cost_ns(body: &[u8], reader: &Rgdb2Reader) -> (u64, ChainDelta) {
    match protocol::parse_request(body) {
        Err(_) => (COST_MALFORMED_NS, ChainDelta::Malformed),
        Ok(Request::Generation) => (COST_GEN_NS, ChainDelta::GenInfo),
        Ok(Request::Lookup(ip)) => {
            let matched = reader.match_len(ip).ok().flatten();
            match matched {
                Some(len) => {
                    // Encode the real response so the wire path is
                    // exercised and its size priced in.
                    let resp_len = reader
                        .try_lookup(ip)
                        .ok()
                        .flatten()
                        .map(|record| {
                            protocol::encode_response(&Response::Hit {
                                generation: 1,
                                record,
                            })
                            .len()
                        })
                        .unwrap_or(0);
                    let cost = COST_LOOKUP_BASE_NS
                        + COST_PER_BIT_NS * u64::from(len)
                        + COST_PER_BYTE_NS * u64::try_from(resp_len).expect("frame-capped");
                    (cost, ChainDelta::Hit)
                }
                None => (COST_LOOKUP_BASE_NS + COST_MISS_NS, ChainDelta::Miss),
            }
        }
    }
}

enum ChainDelta {
    Hit,
    Miss,
    GenInfo,
    Malformed,
}

fn run_chain(
    worker: u64,
    mix: &TrafficMix,
    config: &SimConfig,
    reader: &Rgdb2Reader,
) -> ChainOutcome {
    let mut out = ChainOutcome::default();
    let mut i = worker;
    while i < config.requests {
        let req = mix.request(i);
        let start = req.arrival_ns.max(out.busy_until_ns);
        let wait = start - req.arrival_ns;
        if wait > config.shed_wait_ns {
            // Backlog too old: the daemon would have shed at accept.
            out.shed += 1;
            i += config.virtual_workers;
            continue;
        }
        let (cost, delta) = service_cost_ns(&req.body, reader);
        match delta {
            ChainDelta::Hit => {
                out.hits += 1;
                out.served += 1;
            }
            ChainDelta::Miss => {
                out.misses += 1;
                out.served += 1;
            }
            ChainDelta::GenInfo => {
                out.gen_infos += 1;
                out.served += 1;
            }
            ChainDelta::Malformed => out.malformed += 1,
        }
        out.busy_until_ns = start + cost;
        out.latencies_ns.push(wait + cost);
        debug_assert_eq!(req.index, i);
        i += config.virtual_workers;
    }
    out
}

/// Index into a sorted latency vector at percentile `p` (nearest-rank).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let last = sorted.len() - 1;
    let ix = (last * usize::try_from(p).expect("percentile <= 100")) / 100;
    sorted.get(ix).copied().expect("index bounded by len - 1")
}

/// Run the simulation, sharding one chain per virtual worker.
pub fn run_sim(
    mix: &TrafficMix,
    config: &SimConfig,
    reader: &Rgdb2Reader,
    pool: &Pool,
) -> SimOutcome {
    let workers = usize::try_from(config.virtual_workers.max(1)).expect("worker count is small");
    let chains = pool.run_shards(0xC0FF_EE00, workers, 1, |shard| {
        run_chain(
            u64::try_from(shard.index).expect("worker index is small"),
            mix,
            config,
            reader,
        )
    });
    let mut out = SimOutcome {
        requests: config.requests,
        served: 0,
        shed: 0,
        malformed: 0,
        hits: 0,
        misses: 0,
        gen_infos: 0,
        latency_p50_ns: 0,
        latency_p99_ns: 0,
        latency_max_ns: 0,
        makespan_ns: 0,
        virtual_rate_per_sec: 0,
    };
    let mut latencies: Vec<u64> = Vec::new();
    for chain in chains {
        out.served += chain.served;
        out.shed += chain.shed;
        out.malformed += chain.malformed;
        out.hits += chain.hits;
        out.misses += chain.misses;
        out.gen_infos += chain.gen_infos;
        out.makespan_ns = out.makespan_ns.max(chain.busy_until_ns);
        latencies.extend(chain.latencies_ns);
    }
    latencies.sort_unstable();
    out.latency_p50_ns = percentile(&latencies, 50);
    out.latency_p99_ns = percentile(&latencies, 99);
    out.latency_max_ns = latencies.last().copied().unwrap_or(0);
    if let Some(rate) = out
        .served
        .saturating_mul(1_000_000_000)
        .checked_div(out.makespan_ns)
    {
        out.virtual_rate_per_sec = rate;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::mix::MixWeights;

    fn fixture() -> (TrafficMix, Rgdb2Reader) {
        let corpus = Corpus::new(96);
        let image = corpus.image_v21(1);
        let mix = TrafficMix::new(7, corpus, MixWeights::default(), 600);
        (mix, Rgdb2Reader::open(image).expect("image validates"))
    }

    #[test]
    fn conservation_requests_equal_served_plus_shed_plus_malformed() {
        let (mix, reader) = fixture();
        let config = SimConfig {
            requests: 5_000,
            virtual_workers: 4,
            shed_wait_ns: 2_000_000,
        };
        let out = run_sim(&mix, &config, &reader, &Pool::serial());
        assert_eq!(out.requests, out.served + out.shed + out.malformed);
        assert_eq!(out.served, out.hits + out.misses + out.gen_infos);
        assert!(out.hits > 0 && out.misses > 0 && out.malformed > 0);
        assert!(out.latency_p99_ns >= out.latency_p50_ns);
        assert!(out.latency_max_ns >= out.latency_p99_ns);
        assert!(out.virtual_rate_per_sec > 0);
    }

    #[test]
    fn outcome_is_identical_across_thread_counts() {
        let (mix, reader) = fixture();
        let config = SimConfig {
            requests: 3_000,
            virtual_workers: 4,
            shed_wait_ns: 2_000_000,
        };
        let serial = run_sim(&mix, &config, &reader, &Pool::serial());
        for threads in [2, 8] {
            let parallel = run_sim(&mix, &config, &reader, &Pool::new(threads));
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn overload_sheds_and_underload_does_not() {
        let (mix, reader) = fixture();
        let overloaded = run_sim(
            &mix,
            &SimConfig {
                requests: 8_000,
                virtual_workers: 1,
                shed_wait_ns: 100_000,
            },
            &reader,
            &Pool::serial(),
        );
        assert!(overloaded.shed > 0, "1 chain at 600ns spacing must shed");
        let idle_mix = TrafficMix::new(7, Corpus::new(96), MixWeights::default(), 1_000_000);
        let relaxed = run_sim(
            &idle_mix,
            &SimConfig {
                requests: 1_000,
                virtual_workers: 4,
                shed_wait_ns: 100_000,
            },
            &reader,
            &Pool::serial(),
        );
        assert_eq!(relaxed.shed, 0, "1ms spacing never builds a backlog");
    }
}
