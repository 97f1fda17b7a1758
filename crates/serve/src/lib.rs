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
//! * [`replay`] — the mix replayed through the daemon's own frame loop
//!   over an in-memory connection, with every answer and the daemon's
//!   accounting checked exactly: the deterministic half of
//!   `serve_ci.json`;
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
pub mod replay;
pub mod report;

pub use corpus::Corpus;
pub use daemon::{Generation, ServeConfig, ServeDaemon, ServeError, ServeStats, SwapReport};
pub use live::{AbuseOutcome, ServeClient, SwapOutcome, WallStats};
pub use mix::{MixKind, MixRequest, MixWeights, TrafficMix};
pub use protocol::{ProtoError, Request, Response, MAX_FRAME};
pub use replay::ReplayOutcome;
pub use report::{gate_violations, ServeReport};

/// The full loadgen plan — a pure function of `(budget_ms, seed)`, like
/// the fuzz harness's trial plan, so a fixed budget always produces the
/// same replay and the same deterministic report.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Mix seed.
    pub seed: u64,
    /// Wall-time budget the plan is sized for.
    pub budget_ms: u64,
    /// Corpus records per generation.
    pub records: usize,
    /// Mix elements replayed through the daemon's frame loop.
    pub replay_requests: u64,
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
            replay_requests: budget_ms.saturating_mul(4).clamp(2_000, 48_000),
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

/// Run the full loadgen: replay, swap under load, abuse, wall clock.
pub fn run_loadgen(config: &LoadgenConfig) -> Result<LoadgenOutcome, ServeError> {
    let corpus = Corpus::new(config.records);
    let mix = TrafficMix::new(config.seed, corpus, MixWeights::default(), 0);
    let replay = replay::run_replay(&mix, config.replay_requests)?;
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
            replay,
            swap,
            abuse,
        },
        wall,
    })
}
