//! `cargo xtask` — entry point for the workspace static-analysis gate.

#![expect(
    clippy::disallowed_macros,
    reason = "a binary entry point reports CLI diagnostics on stderr"
)]

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::{bench, deps, engine, json, report};

const USAGE: &str = "usage: cargo xtask <command>\n\n\
commands:\n  \
  lint [--waivers] [--json]\n  \
                        run the custom RG rules over workspace sources; non-zero exit on\n  \
                        violations (--json prints machine-readable findings on stdout)\n  \
  deps                  check manifests against the workspace dependency policy\n  \
  bench-check [--bless] run repro --timings at tiny scale five times, at the\n  \
                        baseline's thread count, and gate the per-stage medians of\n  \
                        wall clock against BENCH_pipeline.json (--bless refreshes the\n  \
                        baseline from those medians)\n  \
  report-check [--bless]\n  \
                        run the release `repro all --csv` at tenth scale, seed 20170301,\n  \
                        check that its CSVs hold the README's at-a-glance orderings,\n  \
                        and compare stdout and every CSV byte for byte with\n  \
                        results/results_tenth.txt and results/results_tenth_csv/\n  \
                        (--bless refreshes the golden from this run, orderings first)\n  \
  obs-check FILE        verify the structural invariants of a `repro --obs` JSONL trace\n  \
                        (span accounting, counter identities, histogram totals)\n  \
  fuzz [--budget-ms N] [--json]\n  \
                        run the structural fuzzing + differential harness (RGDB mutants,\n  \
                        whois protocol abuse, three-way lookup agreement); the trial plan\n  \
                        is a pure function of the budget, so output is byte-identical\n  \
                        across runs (default budget 30000 ms)\n  \
  serve-check [--budget-ms N] [--vendor-images]\n  \
                        run the serve loadgen (the traffic mix replayed through the\n  \
                        daemon's frame loop with exact accounting, hot swap under load,\n  \
                        abuse, wall-clock ratio gates) and write the deterministic\n  \
                        report to target/ci-artifacts/serve_ci.json (default budget\n  \
                        8000 ms); --vendor-images additionally sweeps the daemon over\n  \
                        real tenth-scale vendor RGDB images served from disk\n  \
  resolve-check [--budget-ms N] [--bless]\n  \
                        run the paper-scale resolve smoke (four synthetic vendor RGDB\n  \
                        images, 1.5 M batched lookups through ResolvedView) five\n  \
                        times at the baseline's thread count, writing each report to\n  \
                        target/ci-artifacts/resolve_ci.json, and gate their medians;\n  \
                        non-zero exit when a run's resolve stage exceeds the budget\n  \
                        (default 20000 ms), when the runs disagree outside their\n  \
                        timings, when hits, interned or view_digest differ from\n  \
                        BENCH_resolve.json's, when a stage regresses beyond 2x\n  \
                        against it, when lookup_ns_per_addr regresses beyond 2x\n  \
                        (both median-normalised), or when peak_rss_mb exceeds 1.25x\n  \
                        the baseline's (a fixed ceiling); --bless refreshes the\n  \
                        baseline from those medians\n";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(root) = current_root() else {
        eprintln!("xtask: could not locate the workspace root from the current directory");
        return ExitCode::FAILURE;
    };

    match args.first().map(String::as_str) {
        Some("lint") => {
            let show_waivers = args.iter().any(|a| a == "--waivers");
            let as_json = args.iter().any(|a| a == "--json");
            if let Some(bad) = args[1..]
                .iter()
                .find(|a| *a != "--waivers" && *a != "--json")
            {
                eprintln!("xtask lint: unknown flag `{bad}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
            run_lint(&root, show_waivers, as_json)
        }
        Some("deps") => run_deps(&root),
        Some("bench-check") => {
            let bless = args.iter().any(|a| a == "--bless");
            if let Some(bad) = args[1..].iter().find(|a| *a != "--bless") {
                eprintln!("xtask bench-check: unknown flag `{bad}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
            run_bench_check(&root, bless)
        }
        Some("report-check") => {
            let bless = args.iter().any(|a| a == "--bless");
            if let Some(bad) = args[1..].iter().find(|a| *a != "--bless") {
                eprintln!("xtask report-check: unknown flag `{bad}`\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
            run_report_check(&root, bless)
        }
        Some("obs-check") => match args.get(1) {
            Some(file) if args.len() == 2 => run_obs_check(&PathBuf::from(file)),
            _ => {
                eprintln!("xtask obs-check: expected exactly one FILE argument\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("fuzz") => {
            let as_json = args.iter().any(|a| a == "--json");
            let mut budget_ms: u64 = 30_000;
            let mut rest = args[1..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--json" => {}
                    "--budget-ms" => match rest.next().and_then(|v| v.parse().ok()) {
                        Some(v) => budget_ms = v,
                        None => {
                            eprintln!(
                                "xtask fuzz: --budget-ms needs a millisecond count\n\n{USAGE}"
                            );
                            return ExitCode::FAILURE;
                        }
                    },
                    bad => {
                        eprintln!("xtask fuzz: unknown flag `{bad}`\n\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            run_fuzz(budget_ms, as_json)
        }
        Some("serve-check") => {
            let mut budget_ms: u64 = 8_000;
            let mut vendor_images = false;
            let mut rest = args[1..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--vendor-images" => vendor_images = true,
                    "--budget-ms" => match rest.next().and_then(|v| v.parse().ok()) {
                        Some(v) => budget_ms = v,
                        None => {
                            eprintln!(
                                "xtask serve-check: --budget-ms needs a millisecond count\n\n{USAGE}"
                            );
                            return ExitCode::FAILURE;
                        }
                    },
                    bad => {
                        eprintln!("xtask serve-check: unknown flag `{bad}`\n\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            run_serve_check(&root, budget_ms, vendor_images)
        }
        Some("resolve-check") => {
            let mut budget_ms: u64 = 20_000;
            let mut bless = false;
            let mut rest = args[1..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--bless" => bless = true,
                    "--budget-ms" => match rest.next().and_then(|v| v.parse().ok()) {
                        Some(v) => budget_ms = v,
                        None => {
                            eprintln!(
                                "xtask resolve-check: --budget-ms needs a millisecond count\n\n{USAGE}"
                            );
                            return ExitCode::FAILURE;
                        }
                    },
                    bad => {
                        eprintln!("xtask resolve-check: unknown flag `{bad}`\n\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            run_resolve_check(&root, budget_ms, bless)
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn current_root() -> Option<PathBuf> {
    let cwd = env::current_dir().ok()?;
    engine::find_root(&cwd)
}

fn run_lint(root: &Path, show_waivers: bool, as_json: bool) -> ExitCode {
    let outcome = match engine::lint_workspace(root) {
        Ok(o) => o,
        Err(err) => {
            eprintln!("xtask lint: failed to walk workspace: {err}");
            return ExitCode::FAILURE;
        }
    };
    if as_json {
        println!("{}", json::lint_json(&outcome));
        return if outcome.violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    for v in &outcome.violations {
        println!("{v}");
    }
    if show_waivers {
        if outcome.waivers.is_empty() {
            println!("no active waivers");
        } else {
            println!("active waivers:");
            for w in &outcome.waivers {
                println!(
                    "  {}:{} {} ({} finding{}) — {}",
                    w.file,
                    w.line,
                    w.rules.join(","),
                    w.suppressed,
                    if w.suppressed == 1 { "" } else { "s" },
                    w.reason
                );
            }
        }
    }
    eprintln!(
        "xtask lint: {} file(s) scanned, {} violation(s), {} active waiver(s)",
        outcome.files_scanned,
        outcome.violations.len(),
        outcome.waivers.len()
    );
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Worker-count variable the timed binaries read (`routergeo_pool::THREADS_ENV`).
const THREADS_ENV: &str = "ROUTERGEO_THREADS";

/// The worker count `baseline` was recorded at, for [`THREADS_ENV`]: a
/// fresh run is timed at the baseline's width, because
/// `bench::compare` rejects a width mismatch. `None` before the first
/// bless, when the run takes the environment's width.
fn baseline_threads(baseline: &std::path::Path) -> Option<String> {
    let text = std::fs::read_to_string(baseline).ok()?;
    let threads = bench::parse_report(&text).ok()?.threads;
    (threads >= 1.0).then(|| threads.to_string())
}

/// The experiments timed for the baseline: the lab build stages come for
/// free; these names also pull the four analysis stages into the report.
const BENCH_EXPERIMENTS: [&str; 4] = ["table1", "coverage", "consistency", "fig2"];

fn run_bench_check(root: &Path, bless: bool) -> ExitCode {
    let baseline_path = root.join("BENCH_pipeline.json");
    let fresh_path = root.join("target").join("BENCH_pipeline.fresh.json");
    eprintln!("xtask bench-check: timing repro at tiny scale (release)…");
    let merged = timed_runs("bench-check", root, &fresh_path, |cmd| {
        cmd.envs(baseline_threads(&baseline_path).map(|t| (THREADS_ENV, t)))
            .args(["repro", "--"])
            .args(BENCH_EXPERIMENTS)
            .arg("--timings")
            .arg(&fresh_path)
            .env("ROUTERGEO_SCALE", "tiny")
            .env("ROUTERGEO_SEED", "20170301")
            .stdout(std::process::Stdio::null());
        Ok(())
    });
    let merged = match merged {
        Ok(m) if bless => return bless_median("bench-check", &m, &baseline_path),
        Ok(m) => m,
        Err(e) => {
            eprintln!("xtask bench-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cmp = match read_baseline("bench-check", &baseline_path)
        .and_then(|(base, _)| Ok((base, bench::parse_report(&merged)?)))
        .and_then(|(base, fresh)| bench::compare(&base, &fresh, bench::THRESHOLD))
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask bench-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failed = print_comparisons(&cmp);
    eprintln!(
        "xtask bench-check: {} stage(s), {} regression(s) beyond {:.1}x (smoothing {:.0} ms, median-normalised, median of {} runs)",
        cmp.len(),
        failed,
        bench::THRESHOLD,
        bench::SMOOTHING_MS,
        bench::BLESS_RUNS
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run a `routergeo-bench` binary in release [`bench::BLESS_RUNS`]
/// times, for a check and a bless alike, and return the median of the
/// reports each run leaves at `report` ([`bench::median_of_runs`],
/// which fails when the runs differ outside their timings). `setup`
/// adds the binary name, its arguments and environment to a `cargo run
/// --release -q -p routergeo-bench --bin` command.
fn timed_runs(
    cmd: &str,
    root: &Path,
    report: &Path,
    setup: impl Fn(&mut std::process::Command) -> std::io::Result<()>,
) -> Result<String, String> {
    let runs = bench::BLESS_RUNS;
    if let Some(dir) = report.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut texts = Vec::with_capacity(runs);
    for run in 1..=runs {
        eprintln!("xtask {cmd}: run {run} of {runs}");
        let mut command = std::process::Command::new("cargo");
        command.current_dir(root).args([
            "run",
            "--release",
            "-q",
            "-p",
            "routergeo-bench",
            "--bin",
        ]);
        setup(&mut command).map_err(|e| format!("cannot set up the run: {e}"))?;
        match command.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                return Err(format!(
                    "the run exited with {s} (report at {})",
                    report.display()
                ))
            }
            Err(e) => return Err(format!("cannot run cargo: {e}")),
        }
        let text =
            std::fs::read_to_string(report).map_err(|e| format!("{}: {e}", report.display()))?;
        let totals: Vec<String> = [
            "total_wall_ms",
            "resolve_wall_ms",
            "lookup_ns_per_addr",
            "peak_rss_mb",
        ]
        .iter()
        .filter_map(|key| raw_field(&text, key).map(|v| format!("{key} {v}")))
        .collect();
        eprintln!("xtask {cmd}: run {run}: {}", totals.join(", "));
        texts.push(text);
    }
    bench::median_of_runs(&texts).map_err(|e| format!("cannot take the median of the runs: {e}"))
}

/// The committed baseline at `path`, parsed, with its text.
fn read_baseline(cmd: &str, path: &Path) -> Result<(bench::Report, String), String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "{}: {e}\n(run `cargo xtask {cmd} --bless` to create the baseline)",
            path.display()
        )
    })?;
    Ok((bench::parse_report(&text)?, text))
}

/// Print the stage table; return the number of failed stages.
fn print_comparisons(cmp: &[bench::Comparison]) -> usize {
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>8}",
        "stage", "base ms", "fresh ms", "ratio", "norm"
    );
    for c in cmp {
        println!("{c}");
    }
    cmp.iter().filter(|c| c.failed).count()
}

/// Write `merged`, the median of the timing runs, to `baseline`.
fn bless_median(cmd: &str, merged: &str, baseline: &Path) -> ExitCode {
    match std::fs::write(baseline, merged) {
        Ok(()) => {
            eprintln!(
                "xtask {cmd}: blessed {} from the median of {} runs",
                baseline.display(),
                bench::BLESS_RUNS
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("xtask {cmd}: cannot write {}: {err}", baseline.display());
            ExitCode::FAILURE
        }
    }
}

/// The report golden gate: see [`report`].
fn run_report_check(root: &Path, bless: bool) -> ExitCode {
    let out_dir = root.join("target").join("report-check");
    let csv_dir = out_dir.join("csv");
    if out_dir.exists() {
        if let Err(err) = std::fs::remove_dir_all(&out_dir) {
            eprintln!(
                "xtask report-check: cannot clear {}: {err}",
                out_dir.display()
            );
            return ExitCode::FAILURE;
        }
    }

    eprintln!(
        "xtask report-check: repro all at {} scale, seed {} (release)…",
        report::SCALE,
        report::SEED
    );
    let output = std::process::Command::new("cargo")
        .current_dir(root)
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "routergeo-bench",
            "--bin",
            "repro",
            "--",
            "all",
            "--csv",
        ])
        .arg(&csv_dir)
        .env("ROUTERGEO_SCALE", report::SCALE)
        .env("ROUTERGEO_SEED", report::SEED)
        .stderr(std::process::Stdio::inherit())
        .output();
    let stdout = match output {
        Ok(o) if o.status.success() => o.stdout,
        Ok(o) => {
            eprintln!("xtask report-check: repro exited with {}", o.status);
            return ExitCode::FAILURE;
        }
        Err(err) => {
            eprintln!("xtask report-check: cannot run repro: {err}");
            return ExitCode::FAILURE;
        }
    };

    // A re-bless must not flip a finding, so the guard runs on the fresh
    // CSVs before either the compare or the bless.
    let findings = report::ordering_violations(&csv_dir)
        .unwrap_or_else(|err| vec![format!("{}: {err}", csv_dir.display())]);
    if !findings.is_empty() {
        for f in &findings {
            println!("{f}");
        }
        eprintln!(
            "xtask report-check: {} finding(s) of the README no longer hold",
            findings.len()
        );
        return ExitCode::FAILURE;
    }

    if bless {
        return match report::bless(root, &stdout, &csv_dir) {
            Ok(()) => {
                eprintln!(
                    "xtask report-check: blessed {} and {} from this run",
                    report::GOLDEN_STDOUT,
                    report::GOLDEN_CSV_DIR
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("xtask report-check: cannot write the golden: {err}");
                ExitCode::FAILURE
            }
        };
    }

    let mut problems = Vec::new();
    match std::fs::read(root.join(report::GOLDEN_STDOUT)) {
        Ok(golden) => {
            if let Some(diff) = report::first_difference(&golden, &stdout) {
                problems.push(format!("{}: {diff}", report::GOLDEN_STDOUT));
            }
        }
        Err(err) => problems.push(format!("{}: {err}", report::GOLDEN_STDOUT)),
    }
    match report::compare_dirs(&root.join(report::GOLDEN_CSV_DIR), &csv_dir) {
        Ok(diffs) => problems.extend(
            diffs
                .into_iter()
                .map(|d| format!("{}/{d}", report::GOLDEN_CSV_DIR)),
        ),
        Err(err) => problems.push(format!("{}: {err}", report::GOLDEN_CSV_DIR)),
    }
    for p in &problems {
        println!("{p}");
    }
    eprintln!(
        "xtask report-check: {} difference(s) from the golden",
        problems.len()
    );
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_obs_check(path: &std::path::Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("xtask obs-check: cannot read {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let report = match routergeo_obs::check::parse(&text) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("xtask obs-check: {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let violations = routergeo_obs::check::verify(&report);
    for v in &violations {
        println!("{}: {v}", path.display());
    }
    eprintln!(
        "xtask obs-check: {} span(s), {} counter(s), {} histogram(s), {} violation(s)",
        report.spans.len(),
        report.counters.len(),
        report.histograms.len(),
        violations.len()
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_fuzz(budget_ms: u64, as_json: bool) -> ExitCode {
    let config = routergeo_fuzz::FuzzConfig::from_budget(budget_ms);
    let report = routergeo_fuzz::run(config);
    let violations = report.violations();
    if as_json {
        // `to_json` already ends with a newline and must stay
        // byte-identical across runs, so no println framing.
        print!("{}", report.to_json());
    } else {
        for v in &violations {
            println!("{v}");
        }
    }
    let trials: u64 = report.rgdb.classes.iter().map(|c| c.trials).sum();
    let proto_runs: u64 = report.proto.scenarios.iter().map(|s| s.runs).sum();
    let diff_addrs: u64 = report.diff.scales.iter().map(|s| s.addresses).sum();
    eprintln!(
        "xtask fuzz: {} mutation trial(s) across {} class(es), {} protocol scenario run(s), \
         {} differential address(es), {} violation(s)",
        trials,
        report.rgdb.classes.len(),
        proto_runs,
        diff_addrs,
        violations.len()
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The seed pinned for the CI serve/resolve gates: each report is a pure function of
/// `(budget, seed)`, so the artifact diffs cleanly between runs.
const CI_SEED: &str = "20170301";

fn run_serve_check(root: &PathBuf, budget_ms: u64, vendor_images: bool) -> ExitCode {
    let art_dir = root.join("target").join("ci-artifacts");
    if let Err(err) = std::fs::create_dir_all(&art_dir) {
        eprintln!(
            "xtask serve-check: cannot create {}: {err}",
            art_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let artifact = art_dir.join("serve_ci.json");
    let out_file = match std::fs::File::create(&artifact) {
        Ok(f) => f,
        Err(err) => {
            eprintln!(
                "xtask serve-check: cannot create {}: {err}",
                artifact.display()
            );
            return ExitCode::FAILURE;
        }
    };

    eprintln!("xtask serve-check: running loadgen (budget {budget_ms} ms, release)…");
    let status = std::process::Command::new("cargo")
        .current_dir(root)
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "routergeo-serve",
            "--bin",
            "loadgen",
            "--",
            "--budget-ms",
        ])
        .arg(budget_ms.to_string())
        .args(["--seed", CI_SEED, "--json"])
        .stdout(out_file)
        .status();
    match status {
        Ok(s) if s.success() => {
            eprintln!("xtask serve-check: wrote {}", artifact.display());
        }
        Ok(s) => {
            eprintln!(
                "xtask serve-check: loadgen exited with {s} (report at {})",
                artifact.display()
            );
            return ExitCode::FAILURE;
        }
        Err(err) => {
            eprintln!("xtask serve-check: cannot run loadgen: {err}");
            return ExitCode::FAILURE;
        }
    }
    if !vendor_images {
        return ExitCode::SUCCESS;
    }

    // Opt-in: sweep the daemon over real tenth-scale lab vendors encoded
    // as file-backed RGDB images (the `#[ignore]`d half of the
    // vendor_serve suite). Not part of the budgeted CI gate.
    eprintln!("xtask serve-check: tenth-scale vendor RGDB image sweep (release)…");
    let status = std::process::Command::new("cargo")
        .current_dir(root)
        .args([
            "test",
            "--release",
            "-q",
            "-p",
            "routergeo-bench",
            "--test",
            "vendor_serve",
            "--",
            "--ignored",
        ])
        .status();
    match status {
        Ok(s) if s.success() => {
            eprintln!("xtask serve-check: vendor image sweep clean");
            ExitCode::SUCCESS
        }
        Ok(s) => {
            eprintln!("xtask serve-check: vendor image sweep exited with {s}");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("xtask serve-check: cannot run vendor image sweep: {err}");
            ExitCode::FAILURE
        }
    }
}

/// The resolve smoke gate: the paper-scale batched-lookup workload
/// (four synthetic vendor databases as RGDB images, 1.5 M
/// interface addresses through `ResolvedView`) under a wall budget on
/// the resolve stage alone, plus a regression gate of the median of
/// five runs against the blessed `BENCH_resolve.json`: per-stage wall
/// clock AND per-lookup `lookup_ns_per_addr`, both smoothed and
/// median-normalised exactly like bench-check so a uniformly slower
/// machine passes, and the peak resident set under [`RSS_CEILING`]
/// times the baseline's. Synthesis and probes are a pure function of
/// the pinned seed, so everything in the artifact except the measured
/// fields is byte-stable across the runs, and [`RESOLVE_EXACT_KEYS`]
/// must equal the baseline's.
fn run_resolve_check(root: &Path, budget_ms: u64, bless: bool) -> ExitCode {
    let artifact = root
        .join("target")
        .join("ci-artifacts")
        .join("resolve_ci.json");
    let baseline_path = root.join("BENCH_resolve.json");
    eprintln!("xtask resolve-check: paper-scale resolve smoke (budget {budget_ms} ms, release)…");
    let merged = timed_runs("resolve-check", root, &artifact, |cmd| {
        cmd.envs(baseline_threads(&baseline_path).map(|t| (THREADS_ENV, t)))
            .env("ROUTERGEO_SCALE", "paper")
            .env("ROUTERGEO_SEED", CI_SEED)
            .args(["resolve_smoke", "--", "--budget-ms", &budget_ms.to_string()])
            .stdout(std::fs::File::create(&artifact)?);
        Ok(())
    });
    let merged = match merged {
        Ok(m) if bless => return bless_median("resolve-check", &m, &baseline_path),
        Ok(m) => m,
        Err(e) => {
            eprintln!("xtask resolve-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let number = |text: &str, key: &str| {
        raw_field(text, key)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("a report has no `{key}` value"))
    };
    let read = read_baseline("resolve-check", &baseline_path).and_then(|(base, base_text)| {
        let fresh = bench::parse_report(&merged)?;
        let pair = |key| Ok::<_, String>((number(&base_text, key)?, number(&merged, key)?));
        let (ns, rss) = (pair("lookup_ns_per_addr")?, pair("peak_rss_mb")?);
        Ok((base, base_text, fresh, ns, rss))
    });
    let (base, base_text, fresh, (base_ns, fresh_ns), (base_rss, fresh_rss)) = match read {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask resolve-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The view itself must not move: its hit count, interner size and
    // digest are pure functions of the seed and the resolve code.
    let drift: Vec<String> = RESOLVE_EXACT_KEYS
        .iter()
        .filter_map(|key| {
            let (b, f) = (raw_field(&base_text, key), raw_field(&merged, key));
            (b != f).then(|| format!("{key}: baseline {b:?}, fresh {f:?}"))
        })
        .collect();
    if !drift.is_empty() {
        eprintln!(
            "xtask resolve-check: the resolved view changed against {}:\n  {}",
            baseline_path.display(),
            drift.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    let cmp = match bench::compare(&base, &fresh, bench::THRESHOLD) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask resolve-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = print_comparisons(&cmp);

    // Per-lookup cost gate: normalise the fresh/base ratio by the run's
    // median stage ratio (the machine-speed factor bench::compare
    // already derived) so only a *relative* regression fails. The
    // median is recoverable from any unfailed comparison as
    // `ratio / normalized`.
    let machine = (cmp.first())
        .filter(|c| c.normalized > 0.0)
        .map_or(1.0, |c| c.ratio / c.normalized);
    let per_lookup_ratio = if base_ns > 0.0 {
        fresh_ns / base_ns
    } else {
        1.0
    };
    let per_lookup_norm = per_lookup_ratio / machine;
    let lookup_failed = !per_lookup_norm.is_finite() || per_lookup_norm > bench::THRESHOLD;
    println!(
        "{:<14} {:>8.1}ns {:>8.1}ns {:>7.2}x {:>7.2}x  {}",
        "per-lookup",
        base_ns,
        fresh_ns,
        per_lookup_ratio,
        per_lookup_norm,
        if lookup_failed { "FAIL" } else { "ok" }
    );
    if lookup_failed {
        failed += 1;
    }

    // Memory gate: a fixed ceiling, not median-normalised, because a
    // resident set does not scale with machine speed.
    let rss_ratio = fresh_rss / base_rss;
    let rss_failed = !rss_ratio.is_finite() || rss_ratio > RSS_CEILING;
    println!(
        "{:<14} {:>7.1}MiB {:>7.1}MiB {:>7.2}x  (max {:.2}x)  {}",
        "peak_rss_mb",
        base_rss,
        fresh_rss,
        rss_ratio,
        RSS_CEILING,
        if rss_failed { "FAIL" } else { "ok" }
    );
    if rss_failed {
        eprintln!(
            "xtask resolve-check: peak_rss_mb {fresh_rss:.1} MiB is {rss_ratio:.2}x the baseline's \
             {base_rss:.1} MiB, above the {RSS_CEILING:.2}x ceiling"
        );
        failed += 1;
    }
    eprintln!(
        "xtask resolve-check: {} stage(s) + per-lookup gate beyond {:.1}x, peak_rss_mb \
         ceiling {:.2}x: {} regression(s)",
        cmp.len(),
        bench::THRESHOLD,
        RSS_CEILING,
        failed
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Fields of `resolve_ci.json` that must equal the baseline's exactly.
const RESOLVE_EXACT_KEYS: [&str; 3] = ["hits", "interned", "view_digest"];

/// The most a fresh `peak_rss_mb` may be, as a multiple of the
/// baseline's.
const RSS_CEILING: f64 = 1.25;

/// The raw value token after `"key":` in a report text, up to the
/// line's comma: `None` when the key is missing.
fn raw_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let line = rest.lines().next().unwrap_or("");
    Some(line.trim().trim_end_matches(',').trim())
}

fn run_deps(root: &Path) -> ExitCode {
    let violations = match deps::check_workspace(root) {
        Ok(v) => v,
        Err(err) => {
            eprintln!("xtask deps: failed to read manifests: {err}");
            return ExitCode::FAILURE;
        }
    };
    for v in &violations {
        println!("{v}");
    }
    eprintln!("xtask deps: {} violation(s)", violations.len());
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
