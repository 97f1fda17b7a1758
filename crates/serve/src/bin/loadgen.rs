//! `routergeo-loadgen` — deterministic driver for the lookup daemon.
//!
//! ```text
//! loadgen [--budget-ms N] [--seed N] [--json]
//! ```
//!
//! With `--json` the deterministic report is written to stdout —
//! byte-identical for a fixed seed and budget — while the wall-clock
//! measurements and ratio-gate verdicts go to stderr. The exit code is
//! nonzero if any deterministic invariant or ratio gate failed.

#![deny(clippy::cast_possible_truncation)]
#![expect(
    clippy::disallowed_macros,
    reason = "a binary entry point reports CLI diagnostics on stderr"
)]

use routergeo_serve::{gate_violations, run_loadgen, LoadgenConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: loadgen [--budget-ms N] [--seed N] [--json]";

fn main() -> ExitCode {
    let mut budget_ms = 8_000u64;
    let mut seed = 20_170_301u64;
    let mut as_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => as_json = true,
            "--budget-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => budget_ms = v,
                None => {
                    eprintln!("loadgen: --budget-ms needs a millisecond count\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("loadgen: --seed needs an integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            bad => {
                eprintln!("loadgen: unknown flag `{bad}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let config = LoadgenConfig::from_budget(budget_ms, seed);
    let outcome = match run_loadgen(&config) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("loadgen: {err}");
            return ExitCode::FAILURE;
        }
    };
    if as_json {
        print!("{}", outcome.report.to_json());
    }
    let wall = &outcome.wall;
    eprintln!(
        "loadgen: wall p50 {}us p99 {}us | served {}/s direct {}/s (ratio {}x)",
        wall.latency_p50_us,
        wall.latency_p99_us,
        wall.served_per_sec,
        wall.direct_per_sec,
        wall.direct_per_sec / wall.served_per_sec.max(1)
    );
    let mut failed = false;
    for violation in outcome.report.violations() {
        eprintln!("loadgen: VIOLATION: {violation}");
        failed = true;
    }
    for violation in gate_violations(wall) {
        eprintln!("loadgen: GATE: {violation}");
        failed = true;
    }
    if failed {
        eprintln!("loadgen: FAILED");
        ExitCode::FAILURE
    } else {
        eprintln!(
            "loadgen: clean — {} frames replayed and answered in kind, swap {} -> {} under load, \
             {} pokes and {} chaos scenarios attributed",
            outcome.report.replay.answers,
            outcome.report.swap.generation_before,
            outcome.report.swap.generation_after,
            outcome.report.abuse.pokes_attributed,
            outcome.report.abuse.chaos_attributed
        );
        ExitCode::SUCCESS
    }
}
