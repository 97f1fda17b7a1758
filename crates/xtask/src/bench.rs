//! `cargo xtask bench-check` — the perf-baseline gate.
//!
//! `repro --timings` emits `BENCH_pipeline.json`: one stage object per
//! line, with wall-clock milliseconds per pipeline stage. This module
//! parses that deliberately line-oriented format without a JSON library,
//! compares a fresh run against the committed baseline, and fails on a
//! per-stage wall-clock regression beyond the threshold.
//!
//! Two defences keep the gate honest across machines and CI noise:
//!
//! - **Smoothing**: ratios are computed on `wall_ms + SMOOTHING_MS`, so
//!   a 3 ms stage jittering to 9 ms cannot trip a 2× gate, while a 3 ms
//!   stage blowing up to 300 ms still does.
//! - **Median normalisation**: every per-stage ratio is divided by the
//!   median ratio across stages, cancelling the machine-speed factor
//!   between the baseline host and the current host. A uniform 3×-slower
//!   machine passes; one stage regressing 3× relative to its peers fails.

use std::fmt;

/// Per-stage regression threshold on the normalised ratio.
pub const THRESHOLD: f64 = 2.0;

/// Milliseconds added to both sides of a ratio to damp timer noise on
/// sub-ms stages.
pub const SMOOTHING_MS: f64 = 25.0;

/// One timed stage out of `BENCH_pipeline.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name (stable across runs).
    pub name: String,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Items processed.
    pub items: f64,
}

/// A parsed timing report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Master seed of the run.
    pub seed: f64,
    /// Scale name (`tiny`, `small`, …).
    pub scale: String,
    /// Worker threads used.
    pub threads: f64,
    /// Stages in pipeline order.
    pub stages: Vec<Stage>,
}

/// Extract the number following `"key":` on `line`, if present.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the quoted string following `"key":` on `line`, if present.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

/// Parse a `BENCH_pipeline.json` text. The format contract is one stage
/// object per line (which `PipelineTimings::to_json` guarantees); any
/// line without a `"stage":` key is scanned for the top-level fields.
pub fn parse_report(text: &str) -> Result<Report, String> {
    let mut report = Report {
        seed: 0.0,
        scale: String::new(),
        threads: 0.0,
        stages: Vec::new(),
    };
    for line in text.lines() {
        if let Some(name) = field_str(line, "stage") {
            let wall_ms = field_num(line, "wall_ms")
                .ok_or_else(|| format!("stage `{name}` has no wall_ms: {line}"))?;
            let items = field_num(line, "items").unwrap_or(0.0);
            report.stages.push(Stage {
                name,
                wall_ms,
                items,
            });
        } else {
            if let Some(seed) = field_num(line, "seed") {
                report.seed = seed;
            }
            if let Some(scale) = field_str(line, "scale") {
                report.scale = scale;
            }
            if let Some(threads) = field_num(line, "threads") {
                report.threads = threads;
            }
        }
    }
    if report.stages.is_empty() {
        return Err("no stages found — is this a BENCH_pipeline.json file?".into());
    }
    Ok(report)
}

/// One baseline-vs-fresh stage comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Stage name.
    pub stage: String,
    /// Baseline wall-clock ms.
    pub base_ms: f64,
    /// Fresh wall-clock ms.
    pub fresh_ms: f64,
    /// Smoothed fresh/base ratio before normalisation.
    pub ratio: f64,
    /// Ratio divided by the run's median ratio.
    pub normalized: f64,
    /// Whether this stage trips the gate.
    pub failed: bool,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>10.1} {:>10.1} {:>7.2}x {:>7.2}x  {}",
            self.stage,
            self.base_ms,
            self.fresh_ms,
            self.ratio,
            self.normalized,
            if self.failed { "FAIL" } else { "ok" }
        )
    }
}

/// Compare `fresh` against `base`. Both must have run at the same
/// scale and worker count: a width-2 run against a width-1 baseline
/// measures the pool, not a regression. Stages are matched by name in
/// baseline order; a stage missing from the fresh run is an error (a
/// renamed stage must re-bless the baseline). Extra fresh stages are
/// ignored so blessing is forward-compatible.
pub fn compare(base: &Report, fresh: &Report, threshold: f64) -> Result<Vec<Comparison>, String> {
    if base.scale != fresh.scale {
        return Err(format!(
            "scale mismatch: baseline ran at `{}`, fresh at `{}` — re-bless or fix the run",
            base.scale, fresh.scale
        ));
    }
    if base.threads != fresh.threads {
        return Err(format!(
            "threads mismatch: baseline ran at {} thread(s), fresh at {} — re-bless or fix the run",
            base.threads, fresh.threads
        ));
    }
    let mut pairs = Vec::new();
    for b in &base.stages {
        let f = fresh
            .stages
            .iter()
            .find(|f| f.name == b.name)
            .ok_or_else(|| format!("stage `{}` missing from the fresh run", b.name))?;
        let ratio = (f.wall_ms + SMOOTHING_MS) / (b.wall_ms + SMOOTHING_MS);
        // A 0 ms stage on both sides is fine — smoothing makes the ratio
        // exactly 1.0 — but a corrupted report (negative wall_ms) can
        // produce a NaN/∞/non-positive ratio, and one such value would
        // poison the median below and silently pass or fail every other
        // stage. Reject it at the source instead.
        if !ratio.is_finite() || ratio <= 0.0 {
            return Err(format!(
                "stage `{}`: degenerate timing ratio {ratio} (base {} ms, fresh {} ms) — corrupted report?",
                b.name, b.wall_ms, f.wall_ms
            ));
        }
        pairs.push((b, f, ratio));
    }
    let mut ratios: Vec<f64> = pairs.iter().map(|&(_, _, r)| r).collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    if !median.is_finite() || median <= 0.0 {
        return Err("degenerate median ratio".into());
    }
    Ok(pairs
        .into_iter()
        .map(|(b, f, ratio)| {
            let normalized = ratio / median;
            Comparison {
                stage: b.name.clone(),
                base_ms: b.wall_ms,
                fresh_ms: f.wall_ms,
                ratio,
                normalized,
                failed: normalized > threshold,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": 1,
  "seed": 20170301,
  "scale": "tiny",
  "threads": 2,
  "total_wall_ms": 52.500,
  "stages": [
    {"stage": "world", "wall_ms": 12.500, "items": 1000, "items_per_sec": 80000.0},
    {"stage": "ark", "wall_ms": 40.000, "items": 800, "items_per_sec": 20000.0},
    {"stage": "accuracy", "wall_ms": 100.000, "items": 4000, "items_per_sec": 40000.0}
  ]
}
"#;

    fn sample() -> Report {
        parse_report(SAMPLE).expect("sample parses")
    }

    #[test]
    fn parses_header_and_stages() {
        let r = sample();
        assert_eq!(r.seed, 20_170_301.0);
        assert_eq!(r.scale, "tiny");
        assert_eq!(r.threads, 2.0);
        assert_eq!(r.stages.len(), 3);
        assert_eq!(r.stages[0].name, "world");
        assert_eq!(r.stages[1].wall_ms, 40.0);
        assert_eq!(r.stages[2].items, 4000.0);
    }

    #[test]
    fn identical_runs_pass() {
        let cmp = compare(&sample(), &sample(), THRESHOLD).expect("comparable");
        assert!(cmp.iter().all(|c| !c.failed), "{cmp:#?}");
        assert!(cmp.iter().all(|c| (c.normalized - 1.0).abs() < 1e-9));
    }

    #[test]
    fn uniformly_slower_machine_passes() {
        let mut fresh = sample();
        for s in &mut fresh.stages {
            s.wall_ms = s.wall_ms * 3.0 + 2.0 * SMOOTHING_MS; // exact 3x on smoothed ratios
        }
        let cmp = compare(&sample(), &fresh, THRESHOLD).expect("comparable");
        assert!(
            cmp.iter().all(|c| !c.failed),
            "machine speed must normalise away: {cmp:#?}"
        );
    }

    #[test]
    fn single_stage_blowup_fails() {
        let mut fresh = sample();
        fresh.stages[2].wall_ms = 1_000.0; // accuracy regresses 10x
        let cmp = compare(&sample(), &fresh, THRESHOLD).expect("comparable");
        assert!(cmp[2].failed, "{cmp:#?}");
        assert!(!cmp[0].failed && !cmp[1].failed);
    }

    #[test]
    fn sub_ms_jitter_is_smoothed_not_flagged() {
        let mut base = sample();
        base.stages[0].wall_ms = 1.0;
        let mut fresh = base.clone();
        fresh.stages[0].wall_ms = 9.0; // 9x raw, but tiny in absolute terms
        let cmp = compare(&base, &fresh, THRESHOLD).expect("comparable");
        assert!(!cmp[0].failed, "{cmp:#?}");
    }

    #[test]
    fn zero_duration_stage_in_both_runs_is_a_clean_pass() {
        // An instant stage (0 ms on both sides) must contribute a ratio
        // of exactly 1.0 — not 0/0 — and must not disturb the median.
        let mut base = sample();
        base.stages.push(Stage {
            name: "noop".into(),
            wall_ms: 0.0,
            items: 0.0,
        });
        let mut fresh = base.clone();
        fresh.stages[3].wall_ms = 0.0;
        let cmp = compare(&base, &fresh, THRESHOLD).expect("comparable");
        assert_eq!(cmp.len(), 4);
        assert!((cmp[3].ratio - 1.0).abs() < 1e-12, "{cmp:#?}");
        assert!(cmp.iter().all(|c| !c.failed), "{cmp:#?}");
        assert!(cmp.iter().all(|c| c.normalized.is_finite()));
    }

    #[test]
    fn corrupted_negative_timing_is_an_error_not_a_poisoned_median() {
        // wall_ms == -SMOOTHING_MS makes the smoothed denominator 0; the
        // resulting ∞/NaN ratio must be rejected, not fed to the median.
        let mut base = sample();
        base.stages[1].wall_ms = -SMOOTHING_MS;
        let fresh = sample();
        let err = compare(&base, &fresh, THRESHOLD).expect_err("degenerate ratio");
        assert!(err.contains("degenerate timing ratio"), "{err}");
        // Same corruption on the fresh side: 0/positive is 0, also
        // non-positive, also rejected.
        let base = sample();
        let mut fresh = sample();
        fresh.stages[1].wall_ms = -SMOOTHING_MS;
        let err = compare(&base, &fresh, THRESHOLD).expect_err("zero ratio");
        assert!(err.contains("degenerate timing ratio"), "{err}");
    }

    #[test]
    fn missing_stage_and_scale_mismatch_are_errors() {
        let mut fresh = sample();
        fresh.stages.remove(1);
        assert!(compare(&sample(), &fresh, THRESHOLD).is_err());
        let mut fresh = sample();
        fresh.scale = "small".into();
        assert!(compare(&sample(), &fresh, THRESHOLD).is_err());
    }

    #[test]
    fn threads_mismatch_is_an_error() {
        let mut fresh = sample();
        fresh.threads = 1.0;
        let err = compare(&sample(), &fresh, THRESHOLD).expect_err("different widths");
        assert!(err.contains("threads mismatch"), "{err}");
    }

    #[test]
    fn garbage_input_is_rejected() {
        assert!(parse_report("not json at all").is_err());
    }
}
