//! `routergeo-serve` — the serving story for the RGDB format.
//!
//! The paper's premise is operators consulting geolocation databases on
//! **live traffic**, and its vendors re-release databases continuously —
//! so the repo's serving layer needs two things a batch pipeline never
//! exercises: a long-lived daemon with production back-pressure, and
//! atomic hot-swap between database generations. This crate provides
//! both, plus the deterministic loadgen that gates them in CI:
//!
//! * [`protocol`] — length-prefixed binary framing, request/response
//!   bodies, and the bounded-read frame decoder;
//! * [`daemon`] — [`ServeDaemon`]: bounded worker pool with explicit
//!   load shed and per-connection deadlines (the bulk-whois server's
//!   discipline), per-request latency histograms via `routergeo-obs`,
//!   and [`ServeDaemon::hot_swap`] — open/validate release N+1 while N
//!   serves, flip an `Arc` under an `RwLock`, drain old readers;
//! * [`corpus`] — paired deterministic RGDB generations whose record
//!   payloads are generation-tagged, making torn reads detectable and
//!   swap-phase tallies deterministic;
//! * [`mix`] — seeded traffic mixes (Zipf-hot, cold scan, malformed,
//!   generation probes) where element `i` is a pure function of
//!   `(seed, i)`;
//! * [`sim`] — the virtual-time engine: real parse/lookup/encode work,
//!   integer-nanosecond costs, shardable per virtual worker — the
//!   source of the byte-deterministic numbers in `serve_ci.json`;
//! * [`live`] — real-TCP phases: hot swap under concurrent load,
//!   raw-socket abuse, scripted faultnet chaos, and the ratio-gated
//!   wall-clock measurements;
//! * [`report`] — the deterministic JSON artifact and the
//!   ratio-normalized gate thresholds.
//!
//! The `loadgen` binary ties it together for `cargo xtask serve-check`
//! and the `serve-loadgen` CI gate.

#![deny(clippy::cast_possible_truncation)]

pub mod corpus;
pub mod daemon;
pub mod live;
pub mod mix;
pub mod protocol;
pub mod report;
pub mod sim;

pub use corpus::Corpus;
pub use daemon::{Generation, ServeConfig, ServeDaemon, ServeError, ServeStats, SwapReport};
pub use live::{AbuseOutcome, ServeClient, SwapOutcome, WallStats};
pub use mix::{MixKind, MixRequest, MixWeights, TrafficMix};
pub use protocol::{ProtoError, Request, Response, MAX_FRAME};
pub use report::{gate_violations, ServeReport};
pub use sim::{SimConfig, SimOutcome};

use routergeo_db::Rgdb2Reader;
use routergeo_pool::Pool;

/// The full loadgen plan — a pure function of `(budget_ms, seed)`, like
/// the fuzz harness's trial plan, so a fixed budget always produces the
/// same virtual workload and the same deterministic report.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Mix seed.
    pub seed: u64,
    /// Wall-time budget the plan is sized for.
    pub budget_ms: u64,
    /// Corpus records per generation.
    pub records: usize,
    /// Simulated stream length.
    pub sim_requests: u64,
    /// Virtual worker chains.
    pub virtual_workers: u64,
    /// Virtual inter-arrival gap (mild overload by design, so the shed
    /// path stays exercised).
    pub interarrival_ns: u64,
    /// Virtual backlog age that triggers a shed.
    pub shed_wait_ns: u64,
    /// Concurrent clients in the swap phase.
    pub swap_clients: u64,
    /// Round-trip lookups per swap-phase client.
    pub swap_lookups: u64,
    /// Sequential latency probes in the wall phase.
    pub wall_probes: u64,
    /// Pipelined batches in the wall phase.
    pub wall_batches: u64,
    /// Requests per pipelined batch.
    pub wall_depth: u64,
}

impl LoadgenConfig {
    /// Derive the plan from a budget. Clamps keep a tiny budget
    /// meaningful and a huge one bounded.
    pub fn from_budget(budget_ms: u64, seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            seed,
            budget_ms,
            records: 256,
            sim_requests: budget_ms.saturating_mul(4).clamp(2_000, 48_000),
            virtual_workers: 4,
            interarrival_ns: 500,
            shed_wait_ns: 2_000_000,
            swap_clients: 4,
            swap_lookups: (budget_ms / 40).clamp(50, 300),
            wall_probes: (budget_ms / 10).clamp(100, 1_500),
            wall_batches: (budget_ms / 100).clamp(10, 120),
            wall_depth: 32,
        }
    }
}

/// Everything one loadgen run produces: the deterministic report (the
/// CI artifact) and the wall-clock side channel (stderr + ratio gates).
#[derive(Debug)]
pub struct LoadgenOutcome {
    /// Deterministic report — `serve_ci.json`.
    pub report: ServeReport,
    /// Wall-clock measurements for the ratio gates.
    pub wall: WallStats,
}

/// Run the full loadgen: sim, swap-under-load, abuse, wall clock.
///
/// `pool` shards only the virtual-time sim; the live phases use their
/// own bounded I/O threads, so the report is byte-identical at any
/// pool width.
pub fn run_loadgen(config: &LoadgenConfig, pool: &Pool) -> Result<LoadgenOutcome, ServeError> {
    let corpus = Corpus::new(config.records);
    let mix = TrafficMix::new(
        config.seed,
        corpus,
        MixWeights::default(),
        config.interarrival_ns,
    );
    let reader = Rgdb2Reader::open(corpus.image_v21(1))?;
    let sim = sim::run_sim(
        &mix,
        &SimConfig {
            requests: config.sim_requests,
            virtual_workers: config.virtual_workers,
            shed_wait_ns: config.shed_wait_ns,
        },
        &reader,
        pool,
    );
    let swap = live::run_swap_phase(
        &corpus,
        config.seed,
        config.swap_clients,
        config.swap_lookups,
    )?;
    let abuse = live::run_abuse_phase(&corpus)?;
    let wall = live::run_wall_phase(
        &corpus,
        config.seed,
        config.wall_probes,
        config.wall_batches,
        config.wall_depth,
    )?;
    Ok(LoadgenOutcome {
        report: ServeReport {
            seed: config.seed,
            budget_ms: config.budget_ms,
            records: u64::try_from(corpus.records()).expect("record count bounded"),
            virtual_workers: config.virtual_workers,
            sim,
            swap,
            abuse,
        },
        wall,
    })
}
