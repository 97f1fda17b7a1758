//! routergeo-fuzz — seed-driven structural fuzzing and differential
//! testing for the two surfaces that consume untrusted bytes:
//!
//! 1. **RGDB images** ([`rgdb_fuzz`]) — grammar-aware mutations of
//!    valid images ([`corpus`] + [`mutate`]); the reader must reject
//!    with an attributed [`routergeo_db::rgdb2::RgdbError`], never
//!    panic, and never loop.
//! 2. **The whois wire protocol** ([`proto_fuzz`]) — adversarial byte
//!    streams against both `BulkClient` and `WhoisServer`; per-address
//!    error attribution must survive and workers must shed, not wedge.
//! 3. **Differential lookups** ([`diff`]) — an RGDB image read from
//!    the heap **and** from disk, `CsvDb`, and `InMemoryDb` built from
//!    the same records must agree exactly, and the RGDB match depth must
//!    be the length of the corpus prefix that holds the probe.
//!
//! There is no coverage feedback and no OS-level fuzzer here — just
//! seeded replayable trials, which is what a dependency-free CI gate
//! can afford. Every trial is a pure function of `(seed, scale,
//! class, trial)` so any failure collapses to a one-line spec that
//! [`replay`] re-executes (see `crates/fuzz/corpus/`).

#![deny(clippy::cast_possible_truncation)]

pub mod corpus;
pub mod diff;
pub mod mutate;
pub mod proto_fuzz;
pub mod replay;
pub mod report;
pub mod rgdb_fuzz;
pub mod rng;

pub use corpus::{build_entry, CorpusEntry, Scale};
pub use mutate::MutationClass;
pub use report::FuzzReport;
pub use rng::FuzzRng;

/// Tunable knobs for one harness run. Everything is derived from the
/// millisecond budget by [`FuzzConfig::from_budget`] so that a given
/// budget always produces the same trial plan (and therefore the same
/// JSON report) regardless of machine speed or thread count.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Root seed for the whole run.
    pub seed: u64,
    /// Mutation trials per class per corpus entry.
    pub trials_per_class: u64,
    /// Scenario repetitions for the protocol pillar.
    pub proto_runs: u64,
    /// Random addresses swept per corpus entry in the differential
    /// pillar (on top of the per-prefix boundary probes).
    pub diff_addrs: u64,
}

impl FuzzConfig {
    /// Derive a deterministic trial plan from a millisecond budget.
    ///
    /// The plan is a pure function of the budget — wall-clock time is
    /// never consulted, so `--budget-ms N` yields byte-identical
    /// reports on any machine. The constants were sized so the default
    /// CI budget (30 000 ms) finishes in well under half that on the
    /// slowest builder we care about. `trials_per_class` is
    /// `budget / 550`, sized when three image formats were fuzzed; one
    /// format is left, and the divisor is kept so each remaining
    /// `(seed, scale, class)` runs the same trials as before.
    pub fn from_budget(budget_ms: u64) -> FuzzConfig {
        FuzzConfig {
            seed: 0x9060_17C0_FFEE,
            trials_per_class: (budget_ms / 550).clamp(8, 96),
            proto_runs: (budget_ms / 6000).clamp(1, 5),
            diff_addrs: (budget_ms / 500).clamp(16, 128),
        }
    }
}

/// Run all three pillars and aggregate the report. Serial and
/// deterministic by construction.
pub fn run(config: FuzzConfig) -> FuzzReport {
    let rgdb = rgdb_fuzz::run(&config);
    let proto = proto_fuzz::run(&config);
    let diff = diff::run(&config);
    FuzzReport { rgdb, proto, diff }
}
