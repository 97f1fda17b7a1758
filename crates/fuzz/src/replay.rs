//! Regression-corpus replay: one-line specs that pin past findings.
//!
//! A spec line names the coordinates of a mutation trial:
//!
//! ```text
//! seed=1 scale=tiny class=interval-split-join trial=7
//! ```
//!
//! Because a trial is a pure function of those coordinates (see
//! [`crate::rgdb_fuzz::trial_seed`]), the spec regenerates the exact
//! mutant bytes — no binary blobs to check in. `crates/fuzz/corpus/`
//! holds `.case` files of such lines (plus `#` comments), replayed by
//! `cargo test` so a defect fixed once stays fixed.

use crate::corpus::{build_entry, Scale};
use crate::mutate::{self, MutationClass};
use crate::rgdb_fuzz::{execute_trial, trial_seed, TrialOutcome};
use crate::rng::FuzzRng;

/// The coordinates of one mutation trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayCase {
    /// Corpus seed.
    pub seed: u64,
    /// Corpus scale.
    pub scale: Scale,
    /// Mutation class.
    pub class: MutationClass,
    /// Trial index within the class.
    pub trial: u64,
}

/// Parse one spec line. Blank lines and `#` comments yield `Ok(None)`;
/// anything else must carry all four `key=value` fields.
pub fn parse_spec(line: &str) -> Result<Option<ReplayCase>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut seed = None;
    let mut scale = None;
    let mut class = None;
    let mut trial = None;
    for word in line.split_whitespace() {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| format!("bad token {word:?} (expected key=value)"))?;
        match key {
            "seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                );
            }
            "scale" => {
                scale = Some(Scale::parse(value).ok_or_else(|| format!("bad scale {value:?}"))?);
            }
            "class" => {
                class = Some(
                    MutationClass::parse(value).ok_or_else(|| format!("bad class {value:?}"))?,
                );
            }
            "trial" => {
                trial = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad trial {value:?}"))?,
                );
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    match (seed, scale, class, trial) {
        (Some(seed), Some(scale), Some(class), Some(trial)) => Ok(Some(ReplayCase {
            seed,
            scale,
            class,
            trial,
        })),
        _ => Err(format!("incomplete spec {line:?}")),
    }
}

/// Re-execute one case: regenerate the corpus image, re-apply the
/// mutation, and hold the reader to the no-panic/attribution promises.
pub fn replay(case: &ReplayCase) -> Result<(), String> {
    let image = build_entry(case.seed, case.scale).image();
    let ts = trial_seed(case.seed, case.scale, case.class, case.trial);
    let mut rng = FuzzRng::new(ts);
    let mutated = mutate::apply(case.class, &image, &mut rng);
    match execute_trial(mutated, case.scale, ts ^ 0xA5A5) {
        TrialOutcome::Rejected | TrialOutcome::Opened { .. } => Ok(()),
        TrialOutcome::Panicked => Err(format!("reader panicked replaying {case:?}")),
        TrialOutcome::Unattributed(msg) => {
            Err(format!("unattributed error {msg:?} replaying {case:?}"))
        }
    }
}

/// Replay every spec in a corpus file's text; returns the number of
/// cases executed. The first failing case aborts with its error.
pub fn replay_corpus_text(text: &str) -> Result<u64, String> {
    let mut ran = 0u64;
    for (ix, line) in text.lines().enumerate() {
        let parsed = parse_spec(line).map_err(|e| format!("line {}: {e}", ix + 1))?;
        if let Some(case) = parsed {
            replay(&case).map_err(|e| format!("line {}: {e}", ix + 1))?;
            ran += 1;
        }
    }
    Ok(ran)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_roundtrip() {
        let case = ReplayCase {
            seed: 9,
            scale: Scale::Small,
            class: MutationClass::SectionSplice,
            trial: 3,
        };
        let line = format!(
            "seed={} scale={} class={} trial={}",
            case.seed,
            case.scale.label(),
            case.class.label(),
            case.trial
        );
        assert_eq!(parse_spec(&line), Ok(Some(case)));
        assert_eq!(parse_spec("# comment"), Ok(None));
        assert_eq!(parse_spec("   "), Ok(None));
        assert!(parse_spec("seed=1 scale=tiny").is_err());
        assert!(parse_spec("seed=x scale=tiny class=truncate trial=0").is_err());
        assert_eq!(
            parse_spec(&format!("{line} format=v21")),
            Err("unknown key \"format\"".to_string())
        );
    }

    #[test]
    fn replaying_a_fresh_case_passes() {
        let case = ReplayCase {
            seed: 1,
            scale: Scale::Tiny,
            class: MutationClass::HeaderFieldFlip,
            trial: 0,
        };
        assert_eq!(replay(&case), Ok(()));
    }

    #[test]
    fn corpus_text_is_replayed_line_by_line() {
        let text = "# three cases\n\
                    seed=1 scale=tiny class=truncate trial=0\n\
                    \n\
                    seed=2 scale=small class=record-bit-flip trial=1\n\
                    seed=2 scale=tenth class=interval-record-out-of-range trial=4\n";
        assert_eq!(replay_corpus_text(text), Ok(3));
    }
}
