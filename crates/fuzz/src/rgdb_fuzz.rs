//! Pillar 1: grammar-aware mutation fuzzing of the RGDB reader.
//!
//! Every trial mutates a valid corpus image with one typed
//! [`MutationClass`] production and feeds the result to
//! [`Rgdb2Reader::open`] plus an address sweep. The reader is held to
//! three promises: it never panics, every structural rejection is
//! attributed (a [`RgdbError::Corrupt`] carries its section and
//! offset), and it never loops (a lookup is a bounded binary search,
//! so a wedge would surface as a harness timeout).
//!
//! A trial is a pure function of `(corpus_seed, scale, class, trial)`
//! — see [`trial_seed`] — which is what lets a violation collapse to
//! the one-line spec format replayed by [`crate::replay`].

use crate::corpus::{build_entry, Scale};
use crate::mutate::{self, MutationClass};
use crate::rng::FuzzRng;
use crate::FuzzConfig;
use bytes::Bytes;
use routergeo_db::rgdb2::{fnv1a, Rgdb2Reader, RgdbError, FNV_OFFSET};
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Addresses swept against every mutant that still opens.
const SWEEP_ADDRS: u64 = 32;

/// Corpus seeds fuzzed per run, each paired with every [`Scale`].
pub const CORPUS_SEEDS: [u64; 2] = [1, 2];

/// Derive the deterministic seed for one mutation trial. Pure in all
/// four coordinates so `crates/fuzz/corpus/` spec lines can re-create
/// the exact mutant bytes. The image checksum's FNV-1a hashes the scale
/// and class labels, then the `v21` label it chained when three image
/// formats were fuzzed, so every coordinate keeps its historical seed.
pub fn trial_seed(corpus_seed: u64, scale: Scale, class: MutationClass, trial: u64) -> u64 {
    let labels: [&[u8]; 3] = [scale.label().as_bytes(), class.label().as_bytes(), b"v21"];
    let h = labels.into_iter().fold(FNV_OFFSET, fnv1a);
    h ^ corpus_seed.rotate_left(17) ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What one mutation trial did.
#[derive(Debug)]
pub enum TrialOutcome {
    /// `open()` rejected the mutant with an attributed error — the
    /// expected fate of most mutations.
    Rejected,
    /// The mutant still opened; the sweep completed and this many
    /// lookups returned (attributed) structural errors.
    Opened {
        /// `try_lookup` calls that returned `Err`.
        lookup_rejections: u64,
    },
    /// The reader panicked — always a violation.
    Panicked,
    /// An error came back without section/offset context — a violation
    /// of the attribution promise.
    Unattributed(String),
}

/// The attribution promise: `Corrupt` must carry context; the other
/// variants (truncated/magic/version/checksum) describe the whole
/// image and are inherently attributed.
fn attributed(e: &RgdbError) -> bool {
    match e {
        RgdbError::Corrupt(_) => e.context().is_some(),
        _ => true,
    }
}

/// Run one trial: open the mutant and, if it opens, sweep seeded
/// addresses through `try_lookup` — alternating between addresses
/// inside the corpus blocks (so mutated records actually decode) and
/// uniform global addresses (so miss intervals are searched too). All
/// reader work happens under `catch_unwind` so a panic becomes a
/// reportable outcome instead of tearing down the harness.
pub fn execute_trial(mutated: Vec<u8>, scale: Scale, sweep_seed: u64) -> TrialOutcome {
    let result = catch_unwind(AssertUnwindSafe(move || {
        match Rgdb2Reader::open(Bytes::from(mutated)) {
            Err(e) => {
                if attributed(&e) {
                    TrialOutcome::Rejected
                } else {
                    TrialOutcome::Unattributed(e.to_string())
                }
            }
            Ok(reader) => {
                let mut rng = FuzzRng::new(sweep_seed);
                let mut rejections = 0u64;
                for probe in 0..SWEEP_ADDRS {
                    let ip = if probe % 2 == 0 {
                        crate::corpus::block_addr(scale, &mut rng)
                    } else {
                        Ipv4Addr::from(u32::try_from(rng.next_u64() & 0xFFFF_FFFF).unwrap_or(0))
                    };
                    match reader.try_lookup(ip) {
                        Ok(_) => {}
                        Err(e) if attributed(&e) => rejections += 1,
                        Err(e) => return TrialOutcome::Unattributed(e.to_string()),
                    }
                }
                TrialOutcome::Opened {
                    lookup_rejections: rejections,
                }
            }
        }
    }));
    result.unwrap_or(TrialOutcome::Panicked)
}

/// Aggregated counts for one mutation class.
#[derive(Debug)]
pub struct ClassOutcome {
    /// The class these counts describe.
    pub class: MutationClass,
    /// Trials executed.
    pub trials: u64,
    /// Mutants rejected at `open()`.
    pub rejected: u64,
    /// Mutants that opened and survived the sweep.
    pub opened: u64,
    /// Structural errors returned by swept lookups (across all opened
    /// mutants).
    pub lookup_rejections: u64,
    /// Reader panics (must be zero).
    pub panics: u64,
    /// Replayable spec lines for every violation.
    pub violations: Vec<String>,
}

/// Report for the whole RGDB pillar.
#[derive(Debug)]
pub struct RgdbOutcome {
    /// Corpus images fuzzed (seeds × scales).
    pub entries: u64,
    /// Per-class aggregates, in [`MutationClass::ALL`] order.
    pub classes: Vec<ClassOutcome>,
}

/// Run the pillar: every class against every corpus image — one per
/// `(seed, scale)` entry — `trials_per_class` times each.
pub fn run(config: &FuzzConfig) -> RgdbOutcome {
    let corpus: Vec<(u64, Scale, Bytes)> = CORPUS_SEEDS
        .iter()
        .flat_map(|&seed| {
            Scale::ALL
                .into_iter()
                .map(move |scale| (seed, scale, build_entry(seed, scale).image()))
        })
        .collect();

    let mut classes = Vec::with_capacity(MutationClass::ALL.len());
    for class in MutationClass::ALL {
        let mut out = ClassOutcome {
            class,
            trials: 0,
            rejected: 0,
            opened: 0,
            lookup_rejections: 0,
            panics: 0,
            violations: Vec::new(),
        };
        for (seed, scale, image) in &corpus {
            for trial in 0..config.trials_per_class {
                let spec = || {
                    format!(
                        "seed={seed} scale={} class={} trial={trial}",
                        scale.label(),
                        class.label()
                    )
                };
                let ts = trial_seed(*seed, *scale, class, trial);
                let mut rng = FuzzRng::new(ts);
                let mutated = mutate::apply(class, image, &mut rng);
                out.trials += 1;
                match execute_trial(mutated, *scale, ts ^ 0xA5A5) {
                    TrialOutcome::Rejected => out.rejected += 1,
                    TrialOutcome::Opened { lookup_rejections } => {
                        out.opened += 1;
                        out.lookup_rejections += lookup_rejections;
                    }
                    TrialOutcome::Panicked => {
                        out.panics += 1;
                        out.violations.push(format!("panic at {}", spec()));
                    }
                    TrialOutcome::Unattributed(msg) => {
                        out.violations
                            .push(format!("unattributed error \"{msg}\" at {}", spec()));
                    }
                }
            }
        }
        classes.push(out);
    }
    RgdbOutcome {
        entries: corpus.len() as u64,
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_survives_a_short_run() {
        let config = FuzzConfig {
            seed: 1,
            trials_per_class: 4,
            proto_runs: 1,
            diff_addrs: 8,
        };
        let outcome = run(&config);
        assert_eq!(outcome.classes.len(), MutationClass::ALL.len());
        for class in &outcome.classes {
            assert_eq!(class.panics, 0, "{}", class.class.label());
            assert!(class.violations.is_empty(), "{:?}", class.violations);
            assert_eq!(class.trials, class.rejected + class.opened);
        }
    }

    #[test]
    fn trial_seeds_separate_coordinates() {
        let a = trial_seed(1, Scale::Tiny, MutationClass::Truncate, 0);
        let b = trial_seed(1, Scale::Tiny, MutationClass::Truncate, 1);
        let c = trial_seed(1, Scale::Small, MutationClass::Truncate, 0);
        let d = trial_seed(2, Scale::Tiny, MutationClass::Truncate, 0);
        let e = trial_seed(1, Scale::Tiny, MutationClass::IntervalTruncate, 0);
        assert!(a != b && a != c && a != d && a != e);
    }

    #[test]
    fn trial_seed_keeps_its_historical_values() {
        // The value this coordinate hashed to when `trial_seed` ran its
        // own FNV-1a loop: the shared image checksum must give the same
        // seed, so every pin in `corpus/` keeps its mutant.
        assert_eq!(
            trial_seed(1, Scale::Tiny, MutationClass::Truncate, 0),
            0xFFF6_0D18_71F9_C214
        );
    }

    #[test]
    fn every_seed_and_scale_is_fuzzed() {
        let config = FuzzConfig {
            seed: 1,
            trials_per_class: 1,
            proto_runs: 1,
            diff_addrs: 8,
        };
        let outcome = run(&config);
        // seeds × scales.
        assert_eq!(
            outcome.entries,
            (CORPUS_SEEDS.len() * Scale::ALL.len()) as u64
        );
    }
}
