//! `perfbench WORKLOAD --seed N --seconds S --trace 0|1 [--obs FILE]`
//!
//! Runs one workload and prints its result as one JSON line on stdout
//! (`correct`, `attempted`, `failed`, `metrics`), with a readable
//! summary on stderr. `--trace 1` prints the per-layer metrics instead
//! of the end-to-end ones and writes the spans to `--obs FILE`.

use perfbench::{resolve, serve, tables, Opts};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench tables_tenth|resolve_paper|serve_zipf_swap \
                     --seed N --seconds S --trace 0|1 [--obs FILE]";

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let workload = args.first().ok_or("missing workload")?.clone();
    let mut opts = Opts::new(20_170_301, 10.0);
    let mut rest = args.iter().skip(1);
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--seed" => opts.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err(bad("must be in (0, 60]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--obs" => opts.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workload.as_str() {
        "tables_tenth" => tables::run(&opts),
        "resolve_paper" => resolve::run(&opts),
        "serve_zipf_swap" => serve::run(&opts),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprint!("{}", report.summary(&workload, opts.trace));
    println!("{}", report.json(opts.trace));
    ExitCode::SUCCESS
}
