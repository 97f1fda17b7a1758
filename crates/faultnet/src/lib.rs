//! routergeo-faultnet — deterministic fault injection for socket paths.
//!
//! Resilience claims need a hostile network to test against. This crate
//! provides the two pieces the workspace's fault-matrix tests are built
//! on:
//!
//! - [`proxy::ChaosProxy`], a loopback TCP proxy executing a scripted
//!   [`proxy::FaultPlan`] — connection refusal, accept-then-silence,
//!   mid-stream truncation at byte N, per-chunk latency, seeded byte
//!   corruption, early FIN. Fault assignment is by accepted-connection
//!   index, so a fixed plan yields the same failure schedule every run.
//! - [`clock::Clock`], an injectable time source. Retry/backoff code
//!   sleeps through it; [`clock::TestClock`] makes those sleeps virtual
//!   and records the exact schedule, keeping the fault matrix free of
//!   wall-clock sleeps (and therefore deterministic in CI).

pub mod clock;
pub mod proxy;

pub use clock::{Clock, SystemClock, TestClock};
pub use proxy::{ChaosProxy, ConnRecord, Fault, FaultPlan, ProxyStats};
