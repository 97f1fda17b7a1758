//! The aggregated loadgen report and its hand-rolled JSON rendering.
//!
//! `serve_ci.json` is a CI artifact with the same contract as
//! `fuzz_ci.json`: byte-identical across runs and machines for a fixed
//! seed and budget. It is rendered by hand with a fixed field order and
//! no floats or timestamps, and it contains **only** exact accounting —
//! the replay's answer tallies, which the daemon's own accounting must
//! match, and the swap/abuse invariants that hold exactly when the run
//! is green. Wall-clock measurements live in [`WallStats`] and go to
//! stderr; only their *ratios* gate CI (see [`gate_violations`]), so
//! machine speed cancels the way the bench-check gate normalizes its
//! baselines.

use crate::live::{AbuseOutcome, SwapOutcome, WallStats};
use crate::replay::ReplayOutcome;
use std::fmt::Write as _;

/// p99 may exceed p50 by at most this factor (p50 floored at
/// [`TAIL_P50_FLOOR_US`] so loopback noise cannot divide by ~zero).
pub const TAIL_RATIO_MAX: u64 = 100;
/// Floor applied to p50 before the tail-ratio division.
pub const TAIL_P50_FLOOR_US: u64 = 10;
/// Direct in-process lookups may outpace the served pipeline by at most
/// this factor. Both rates come from the same run on the same machine,
/// so the ratio is speed-invariant; a catastrophic daemon regression
/// (per-request sleep, lost pipelining) blows it up by orders of
/// magnitude.
pub const DIRECT_OVER_SERVED_MAX: u64 = 5_000;

/// The full deterministic report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Mix seed.
    pub seed: u64,
    /// Wall-time budget the plan was derived from.
    pub budget_ms: u64,
    /// Corpus records per generation.
    pub records: u64,
    /// Mix replay through the daemon's frame loop.
    pub replay: ReplayOutcome,
    /// Hot-swap-under-load outcome.
    pub swap: SwapOutcome,
    /// Abuse-phase outcome.
    pub abuse: AbuseOutcome,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn str_array(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| format!("\"{}\"", esc(s))).collect();
    format!("[{}]", inner.join(","))
}

impl ServeReport {
    /// Every invariant breach, in report order. Empty is the passing
    /// condition.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let r = &self.replay;
        if r.answers != r.requests {
            out.push(format!(
                "replay answered {} of {} request frames",
                r.answers, r.requests
            ));
        }
        if r.mismatches > 0 {
            out.push(format!(
                "{} replay answers do not fit their request",
                r.mismatches
            ));
        }
        if r.daemon != r.expected_daemon() {
            out.push(format!(
                "daemon accounting {:?} disagrees with the replay's answers {:?}",
                r.daemon,
                r.expected_daemon()
            ));
        }
        let w = &self.swap;
        let tallied = w.ok + w.miss + w.busy + w.errors + w.torn_reads;
        if tallied != w.lookups {
            out.push(format!(
                "swap phase tallied {tallied} outcomes for {} lookups",
                w.lookups
            ));
        }
        if w.busy > 0 {
            out.push(format!("swap phase shed {} lookups", w.busy));
        }
        if w.errors > 0 {
            out.push(format!("swap phase failed {} lookups", w.errors));
        }
        if w.torn_reads > 0 {
            out.push(format!(
                "{} torn reads across the generation flip",
                w.torn_reads
            ));
        }
        if w.generation_before != 1 || w.generation_after != 2 {
            out.push(format!(
                "generation lifecycle broken: saw {} before and {} after the swap",
                w.generation_before, w.generation_after
            ));
        }
        if w.swaps != 1 {
            out.push(format!(
                "expected exactly 1 swap, daemon counted {}",
                w.swaps
            ));
        }
        if !w.drained {
            out.push("old generation still had pinned readers after the drain budget".to_string());
        }
        let a = &self.abuse;
        if a.pokes_attributed != a.pokes {
            out.push(format!(
                "only {}/{} pokes were attributed",
                a.pokes_attributed, a.pokes
            ));
        }
        if a.chaos_attributed != a.chaos_scenarios {
            out.push(format!(
                "only {}/{} chaos scenarios were attributed",
                a.chaos_attributed, a.chaos_scenarios
            ));
        }
        out.extend(a.violations.iter().cloned());
        out
    }

    /// Whether every deterministic invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations().is_empty()
    }

    /// Render the deterministic JSON document (fixed field order, no
    /// floats or timestamps, trailing newline included).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"schema\": \"routergeo-serve-ci-v2\",\n  \"seed\": {},\n  \"budget_ms\": {},\n  \"records\": {},\n",
            self.seed, self.budget_ms, self.records
        );
        let r = &self.replay;
        let _ = write!(
            s,
            "  \"replay\": {{\n    \"requests\": {}, \"answers\": {}, \"mismatches\": {},\n    \
             \"hits\": {}, \"misses\": {}, \"malformed\": {}, \"gen_infos\": {}\n  }},\n",
            r.requests, r.answers, r.mismatches, r.hits, r.misses, r.malformed, r.gen_infos
        );
        let w = &self.swap;
        let _ = write!(
            s,
            "  \"swap\": {{\n    \"clients\": {}, \"lookups\": {}, \"ok\": {}, \"miss\": {},\n    \
             \"busy\": {}, \"errors\": {}, \"torn_reads\": {},\n    \
             \"generation_before\": {}, \"generation_after\": {}, \"swaps\": {}, \"drained\": {}\n  }},\n",
            w.clients,
            w.lookups,
            w.ok,
            w.miss,
            w.busy,
            w.errors,
            w.torn_reads,
            w.generation_before,
            w.generation_after,
            w.swaps,
            w.drained
        );
        let a = &self.abuse;
        let _ = write!(
            s,
            "  \"abuse\": {{\n    \"pokes\": {}, \"pokes_attributed\": {},\n    \
             \"chaos_scenarios\": {}, \"chaos_attributed\": {},\n    \"violations\": {}\n  }},\n",
            a.pokes,
            a.pokes_attributed,
            a.chaos_scenarios,
            a.chaos_attributed,
            str_array(&a.violations)
        );
        let _ = write!(s, "  \"clean\": {}\n}}\n", self.is_clean());
        s
    }
}

/// Ratio-normalized wall-clock gate: returns the violated thresholds,
/// empty when the run passes. Raw rates never gate — only ratios
/// measured within one run, so machine speed cancels.
pub fn gate_violations(wall: &WallStats) -> Vec<String> {
    let mut out = Vec::new();
    let p50 = wall.latency_p50_us.max(TAIL_P50_FLOOR_US);
    if wall.latency_p99_us > p50 * TAIL_RATIO_MAX {
        out.push(format!(
            "latency tail blew up: p99 {}us vs p50 {}us exceeds the {}x ratio gate",
            wall.latency_p99_us, wall.latency_p50_us, TAIL_RATIO_MAX
        ));
    }
    let served = wall.served_per_sec.max(1);
    if wall.direct_per_sec / served > DIRECT_OVER_SERVED_MAX {
        out.push(format!(
            "throughput collapsed: direct {}/s vs served {}/s exceeds the {}x ratio gate",
            wall.direct_per_sec, wall.served_per_sec, DIRECT_OVER_SERVED_MAX
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::ServeStats;

    fn sample() -> ServeReport {
        ServeReport {
            seed: 1,
            budget_ms: 100,
            records: 8,
            replay: ReplayOutcome {
                requests: 10,
                answers: 10,
                mismatches: 0,
                hits: 5,
                misses: 2,
                malformed: 2,
                gen_infos: 1,
                daemon: ServeStats {
                    requests: 10,
                    served: 8,
                    shed: 0,
                    malformed: 2,
                    hits: 5,
                    misses: 2,
                    errors: 0,
                    swaps: 0,
                },
            },
            swap: SwapOutcome {
                clients: 2,
                lookups: 20,
                ok: 15,
                miss: 5,
                busy: 0,
                errors: 0,
                torn_reads: 0,
                generation_before: 1,
                generation_after: 2,
                swaps: 1,
                drained: true,
            },
            abuse: AbuseOutcome {
                pokes: 5,
                pokes_attributed: 5,
                chaos_scenarios: 4,
                chaos_attributed: 4,
                violations: Vec::new(),
            },
        }
    }

    #[test]
    fn clean_report_has_no_violations_and_stable_json() {
        let report = sample();
        assert!(report.is_clean(), "{:?}", report.violations());
        let a = report.to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"clean\": true"), "{a}");
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn every_swap_invariant_is_enforced() {
        let mut broken = sample();
        broken.swap.torn_reads = 1;
        broken.swap.errors = 2;
        broken.swap.busy = 3;
        broken.swap.generation_after = 1;
        broken.swap.swaps = 0;
        broken.swap.drained = false;
        let violations = broken.violations();
        assert!(violations.len() >= 6, "{violations:?}");
        assert!(broken.to_json().contains("\"clean\": false"));
    }

    #[test]
    fn a_lookup_counted_twice_is_a_violation() {
        let mut broken = sample();
        broken.swap.ok += 1;
        assert_eq!(broken.violations().len(), 1, "{:?}", broken.violations());
    }

    #[test]
    fn replay_accounting_is_exact() {
        let (mut dropped, mut unfit, mut skewed) = (sample(), sample(), sample());
        dropped.replay.answers -= 1;
        unfit.replay.mismatches = 1;
        skewed.replay.daemon.shed = 1;
        for broken in [dropped, unfit, skewed] {
            assert!(!broken.is_clean());
        }
    }

    #[test]
    fn gates_are_ratio_normalized() {
        let fast = WallStats {
            latency_p50_us: 20,
            latency_p99_us: 90,
            served_per_sec: 200_000,
            direct_per_sec: 9_000_000,
        };
        assert!(gate_violations(&fast).is_empty());
        // Same shape, 100x slower machine: still passes.
        let slow = WallStats {
            latency_p50_us: 2_000,
            latency_p99_us: 9_000,
            served_per_sec: 2_000,
            direct_per_sec: 90_000,
        };
        assert!(gate_violations(&slow).is_empty());
        // A wedged tail and a collapsed pipeline both trip.
        let wedged = WallStats {
            latency_p50_us: 20,
            latency_p99_us: 5_000_000,
            served_per_sec: 200_000,
            direct_per_sec: 9_000_000,
        };
        assert_eq!(gate_violations(&wedged).len(), 1);
        let collapsed = WallStats {
            latency_p50_us: 20,
            latency_p99_us: 90,
            served_per_sec: 10,
            direct_per_sec: 9_000_000,
        };
        assert_eq!(gate_violations(&collapsed).len(), 1);
    }
}
