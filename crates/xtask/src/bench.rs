//! `cargo xtask bench-check` — the perf-baseline gate.
//!
//! `repro --timings` emits `BENCH_pipeline.json`: one stage object per
//! line, with wall-clock milliseconds per pipeline stage. This module
//! parses that deliberately line-oriented format without a JSON library,
//! compares fresh runs against the committed baseline, and fails on a
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
//!
//! A check compares, and a bless writes, the median of [`BLESS_RUNS`]
//! runs ([`median_of_runs`]), so one run taken while the host was busy
//! can neither fail a check nor skew every later ratio.

use std::fmt;

/// Per-stage regression threshold on the normalised ratio.
pub const THRESHOLD: f64 = 2.0;

/// Milliseconds added to both sides of a ratio to damp timer noise on
/// sub-ms stages.
pub const SMOOTHING_MS: f64 = 25.0;

/// Runs a check or a `--bless` takes the median of.
pub const BLESS_RUNS: usize = 5;

/// The measured fields of a timing report, wall clock and peak
/// resident set: [`median_of_runs`] takes the median of each over the
/// runs, and every other field must agree.
const TIMING_KEYS: [&str; 6] = [
    "total_wall_ms",
    "resolve_wall_ms",
    "lookup_ns_per_addr",
    "peak_rss_mb",
    "wall_ms",
    "items_per_sec",
];

/// Find `"key":` on `line` and return the byte range of the number
/// after it.
fn number_span(line: &str, key: &str) -> Option<(usize, usize)> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let start = at + (rest.len() - rest.trim_start().len());
    let len = line[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
        .unwrap_or(line.len() - start);
    Some((start, start + len))
}

/// Merge the timing reports `runs` (the same binary's output, run
/// several times) into one report: each timing field of each line —
/// every stage's `wall_ms` and `items_per_sec`, and the top-level
/// `total_wall_ms`, `resolve_wall_ms`, `lookup_ns_per_addr` and
/// `peak_rss_mb` — becomes the median of that line's field over the
/// runs, printed
/// with the first run's decimals. Every other byte must
/// be the same in every run (stage names, counts, digests); an odd run
/// count makes each median one run's value.
pub fn median_of_runs(runs: &[String]) -> Result<String, String> {
    let Some(first) = runs.first() else {
        return Err("no runs to take the median of".into());
    };
    let lines: Vec<Vec<&str>> = runs.iter().map(|r| r.lines().collect()).collect();
    if lines.iter().any(|l| l.len() != lines[0].len()) {
        return Err("runs differ in line count".into());
    }
    let mut out = String::with_capacity(first.len());
    for (ix, line) in lines[0].iter().enumerate() {
        let mut merged = (*line).to_string();
        let mut masked: Vec<String> = lines.iter().map(|l| l[ix].to_string()).collect();
        for key in TIMING_KEYS {
            let Some((s, e)) = number_span(&merged, key) else {
                continue;
            };
            let mut values = Vec::with_capacity(runs.len());
            for m in &mut masked {
                let (ms, me) = number_span(m, key)
                    .ok_or_else(|| format!("line {}: `{key}` missing from a run", ix + 1))?;
                let v: f64 = m[ms..me]
                    .parse()
                    .map_err(|_| format!("line {}: `{key}` is not a number", ix + 1))?;
                values.push(v);
                m.replace_range(ms..me, "#");
            }
            values.sort_by(f64::total_cmp);
            let median = values[values.len() / 2];
            let decimals = merged[s..e]
                .split_once('.')
                .map_or(0, |(_, frac)| frac.len());
            merged.replace_range(s..e, &format!("{median:.decimals$}"));
        }
        if masked.iter().any(|m| *m != masked[0]) {
            return Err(format!(
                "line {}: runs differ outside their timings: {}",
                ix + 1,
                masked.join(" | ")
            ));
        }
        out.push_str(&merged);
        out.push('\n');
    }
    Ok(out)
}

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
    let (start, end) = number_span(line, key)?;
    line[start..end].parse().ok()
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

    /// `SAMPLE` with every timing field scaled by `k` (one run of a
    /// machine that ran `k` times slower).
    fn run_at(k: f64) -> String {
        SAMPLE
            .replace("52.500", &format!("{:.3}", 52.5 * k))
            .replace("12.500,", &format!("{:.3},", 12.5 * k))
            .replace("40.000,", &format!("{:.3},", 40.0 * k))
            .replace("100.000,", &format!("{:.3},", 100.0 * k))
            .replace("80000.0}", &format!("{:.1}}}", 80_000.0 / k))
    }

    #[test]
    fn median_of_runs_takes_each_timing_fields_median() {
        let mut runs: Vec<String> = [1.0, 9.0, 2.0, 0.5, 3.0].map(run_at).into();
        // A busy host slows one stage of one run only.
        runs[3] = runs[3].replace("\"wall_ms\": 50.000", "\"wall_ms\": 900.000");
        let merged = median_of_runs(&runs).expect("the runs agree outside timings");
        let report = parse_report(&merged).expect("the median parses");
        assert_eq!(report.stages[0].wall_ms, 25.0, "world: median of 12.5 k");
        assert_eq!(report.stages[1].wall_ms, 80.0, "ark: median of 40 k");
        // 100 200 300 900 900: the slowed run moves the median one
        // rank, not to its own 900.
        assert_eq!(report.stages[2].wall_ms, 300.0, "accuracy");
        assert_eq!(report.stages[2].items, 4000.0, "counts are copied");
        // Precision follows the first run's digits; the rest is copied.
        assert_eq!(merged, run_at(2.0).replace("200.000", "300.000"));
        assert_eq!(median_of_runs(&[SAMPLE.to_string()]).unwrap(), SAMPLE);
    }

    #[test]
    fn median_of_runs_rejects_runs_that_differ_outside_timings() {
        let other = SAMPLE.replace("\"items\": 800", "\"items\": 801");
        let err = median_of_runs(&[SAMPLE.to_string(), other, SAMPLE.to_string()])
            .expect_err("item counts differ");
        assert!(err.contains("line 9"), "{err}");
        let short = SAMPLE.replace("  ]\n}\n", "  ]\n");
        assert!(median_of_runs(&[SAMPLE.to_string(), short]).is_err());
        assert!(median_of_runs(&[]).is_err());
        // A digest is not a timing: it must match too.
        let a = "{\n  \"view_digest\": \"00ff\",\n  \"lookup_ns_per_addr\": 2.0\n}\n";
        let b = a.replace("00ff", "00fe");
        assert!(median_of_runs(&[a.to_string(), b]).is_err());
        let c = a.replace("2.0", "4.0");
        let merged = median_of_runs(&[a.to_string(), c.clone(), c]).unwrap();
        assert!(merged.contains("\"lookup_ns_per_addr\": 4.0"), "{merged}");
        // Nor is the peak resident set, which is measured.
        let rss = |mb: &str| format!("{{\n  \"peak_rss_mb\": {mb},\n  \"hits\": 7\n}}\n");
        let merged = median_of_runs(&[rss("90.5"), rss("88.1"), rss("339.0")]).unwrap();
        assert_eq!(merged, rss("90.5"));
    }
}
