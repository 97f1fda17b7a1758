//! Machine-readable pipeline timings (`BENCH_pipeline.json`) and the
//! bench crate's sanctioned wall-clock primitives.
//!
//! The `repro --timings out.json` flag serialises one
//! [`PipelineTimings`] per run: per-stage wall-clock milliseconds and
//! throughput, plus the run parameters (seed, scale, thread count) that
//! make the numbers comparable across machines and commits.
//! `cargo xtask bench-check` consumes the file and compares it against
//! the committed baseline, normalising away absolute machine speed.
//!
//! The format is deliberately line-oriented — one stage object per line —
//! so the std-only parser in `xtask` never needs a real JSON library.
//!
//! This module is also the only bench file allowed to call
//! `Instant::now()` directly (a `clippy.toml` disallowed method): every
//! stage measurement goes through [`time_stage`] or [`StageClock`], which
//! additionally emit a `stage.<name>` observability span when tracing
//! is enabled (see DESIGN.md §9).

use routergeo_world::Scale;
use std::time::Instant;

/// Wall-clock timing of one pipeline stage, for `BENCH_pipeline.json`.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Stage name (stable identifier, used by `cargo xtask bench-check`).
    pub stage: String,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Items processed (addresses, traceroutes, blocks — per stage).
    pub items: usize,
}

impl StageTiming {
    /// Throughput in items per second (0 when the stage was too fast to
    /// time meaningfully).
    pub fn items_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.items as f64 / (self.wall_ms / 1000.0)
        } else {
            0.0
        }
    }
}

/// A running stage measurement: the sanctioned way to time a region
/// that cannot be expressed as one closure (e.g. a stage assembled from
/// several intermediate values). Opens a `stage.<name>` span on start;
/// [`StageClock::finish`] closes it and appends the [`StageTiming`].
pub struct StageClock {
    stage: String,
    t0: Instant,
    span: routergeo_obs::SpanGuard,
}

impl StageClock {
    /// Start timing `stage`.
    #[expect(
        clippy::disallowed_methods,
        reason = "timing.rs owns the bench harness's wall clock"
    )]
    pub fn start(stage: &str) -> StageClock {
        StageClock {
            stage: stage.to_string(),
            t0: Instant::now(),
            span: routergeo_obs::span(&format!("stage.{stage}"), Vec::new()),
        }
    }

    /// Stop the clock, close the span, and append the timing.
    pub fn finish(mut self, stages: &mut Vec<StageTiming>, items: usize) {
        self.span.attr("items", items);
        stages.push(StageTiming {
            stage: self.stage,
            wall_ms: self.t0.elapsed().as_secs_f64() * 1000.0,
            items,
        });
    }
}

/// Time one closure and append it to `stages` under `stage`.
pub fn time_stage<T>(
    stages: &mut Vec<StageTiming>,
    stage: &str,
    items: impl FnOnce(&T) -> usize,
    f: impl FnOnce() -> T,
) -> T {
    let clock = StageClock::start(stage);
    let out = f();
    clock.finish(stages, items(&out));
    out
}

/// A full timing report for one `repro` run.
#[derive(Debug, Clone)]
pub struct PipelineTimings {
    /// Format version; bump when the shape changes.
    pub schema: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// World scale preset.
    pub scale: Scale,
    /// Worker threads the pool actually used.
    pub threads: usize,
    /// Per-stage timings, in pipeline order.
    pub stages: Vec<StageTiming>,
}

impl PipelineTimings {
    /// Total wall-clock milliseconds across all stages.
    pub fn total_wall_ms(&self) -> f64 {
        self.stages.iter().map(|s| s.wall_ms).sum()
    }

    /// Serialise as JSON with one stage object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", self.schema));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"scale\": \"{}\",\n",
            format!("{:?}", self.scale).to_lowercase()
        ));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"total_wall_ms\": {:.3},\n",
            self.total_wall_ms()
        ));
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            let comma = if i + 1 < self.stages.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"wall_ms\": {:.3}, \"items\": {}, \"items_per_sec\": {:.1}}}{}\n",
                s.stage,
                s.wall_ms,
                s.items,
                s.items_per_sec(),
                comma
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineTimings {
        PipelineTimings {
            schema: 1,
            seed: 20_170_301,
            scale: Scale::Tiny,
            threads: 2,
            stages: vec![
                StageTiming {
                    stage: "world".to_string(),
                    wall_ms: 12.5,
                    items: 1000,
                },
                StageTiming {
                    stage: "ark".to_string(),
                    wall_ms: 40.0,
                    items: 800,
                },
            ],
        }
    }

    #[test]
    fn json_is_line_oriented_with_one_stage_per_line() {
        let json = sample().to_json();
        let stage_lines: Vec<&str> = json.lines().filter(|l| l.contains("\"stage\":")).collect();
        assert_eq!(stage_lines.len(), 2);
        assert!(stage_lines[0].contains("\"world\""));
        assert!(stage_lines[0].contains("\"wall_ms\": 12.500"));
        assert!(stage_lines[1].contains("\"items_per_sec\": 20000.0"));
        assert!(json.contains("\"scale\": \"tiny\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"total_wall_ms\": 52.500"));
    }

    #[test]
    fn zero_duration_stage_reports_zero_throughput() {
        let s = StageTiming {
            stage: "noop".to_string(),
            wall_ms: 0.0,
            items: 99,
        };
        assert_eq!(s.items_per_sec(), 0.0);
    }
}
