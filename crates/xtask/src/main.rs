//! `cargo xtask` — entry point for the workspace static-analysis gate.

#![expect(
    clippy::disallowed_macros,
    reason = "a binary entry point reports CLI diagnostics on stderr"
)]

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::{bench, deps, engine, json};

const USAGE: &str = "usage: cargo xtask <command>\n\n\
commands:\n  \
  lint [--waivers] [--json]\n  \
                        run the custom RG rules over workspace sources; non-zero exit on\n  \
                        violations (--json prints machine-readable findings on stdout)\n  \
  deps                  check manifests against the workspace dependency policy\n  \
  bench-check [--bless] run repro --timings at tiny scale, at the baseline's thread\n  \
                        count, and gate per-stage wall clock against\n  \
                        BENCH_pipeline.json (--bless refreshes the baseline)\n  \
  obs-check FILE        verify the structural invariants of a `repro --obs` JSONL trace\n  \
                        (span accounting, counter identities, histogram totals)\n  \
  fuzz [--budget-ms N] [--json]\n  \
                        run the structural fuzzing + differential harness (RGDB mutants,\n  \
                        whois protocol abuse, three-way lookup agreement); the trial plan\n  \
                        is a pure function of the budget, so output is byte-identical\n  \
                        across runs (default budget 30000 ms)\n  \
  serve-check [--budget-ms N] [--vendor-images]\n  \
                        run the serve loadgen (virtual-time sim, hot swap under load,\n  \
                        abuse, wall-clock ratio gates) and write the deterministic\n  \
                        report to target/ci-artifacts/serve_ci.json (default budget\n  \
                        8000 ms); --vendor-images additionally sweeps the daemon over\n  \
                        real tenth-scale vendor v2.1 images served from disk\n  \
  resolve-check [--budget-ms N] [--bless]\n  \
                        run the paper-scale resolve smoke (four synthetic vendor RGDB\n  \
                        v2.1 images, 1.5 M batched lookups through ResolvedView) at\n  \
                        the baseline's thread count and write the report to\n  \
                        target/ci-artifacts/resolve_ci.json;\n  \
                        non-zero exit when the resolve stage exceeds the budget\n  \
                        (default 20000 ms), when a stage regresses beyond 2x against\n  \
                        BENCH_resolve.json, or when lookup_ns_per_addr regresses\n  \
                        beyond 2x (both median-normalised); --bless refreshes the\n  \
                        baseline\n";

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

fn run_bench_check(root: &PathBuf, bless: bool) -> ExitCode {
    let baseline_path = root.join("BENCH_pipeline.json");
    let fresh_path = root.join("target").join("BENCH_pipeline.fresh.json");
    if let Err(err) = std::fs::create_dir_all(root.join("target")) {
        eprintln!("xtask bench-check: cannot create target dir: {err}");
        return ExitCode::FAILURE;
    }

    eprintln!("xtask bench-check: timing repro at tiny scale (release)…");
    let status = std::process::Command::new("cargo")
        .current_dir(root)
        .envs(baseline_threads(&baseline_path).map(|t| (THREADS_ENV, t)))
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "routergeo-bench",
            "--bin",
            "repro",
            "--",
        ])
        .args(BENCH_EXPERIMENTS)
        .arg("--timings")
        .arg(&fresh_path)
        .env("ROUTERGEO_SCALE", "tiny")
        .env("ROUTERGEO_SEED", "20170301")
        .stdout(std::process::Stdio::null())
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("xtask bench-check: repro exited with {s}");
            return ExitCode::FAILURE;
        }
        Err(err) => {
            eprintln!("xtask bench-check: cannot run repro: {err}");
            return ExitCode::FAILURE;
        }
    }

    if bless {
        return match std::fs::copy(&fresh_path, &baseline_path) {
            Ok(_) => {
                eprintln!(
                    "xtask bench-check: blessed {} from this run",
                    baseline_path.display()
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!(
                    "xtask bench-check: cannot write {}: {err}",
                    baseline_path.display()
                );
                ExitCode::FAILURE
            }
        };
    }

    let read = |p: &std::path::Path| -> Result<bench::Report, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        bench::parse_report(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (base, fresh) = match (read(&baseline_path), read(&fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!(
                "xtask bench-check: {e}\n(run `cargo xtask bench-check --bless` to create the baseline)"
            );
            return ExitCode::FAILURE;
        }
    };
    let cmp = match bench::compare(&base, &fresh, bench::THRESHOLD) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask bench-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>8}",
        "stage", "base ms", "fresh ms", "ratio", "norm"
    );
    for c in &cmp {
        println!("{c}");
    }
    let failed = cmp.iter().filter(|c| c.failed).count();
    eprintln!(
        "xtask bench-check: {} stage(s), {} regression(s) beyond {:.1}x (smoothing {:.0} ms, median-normalised)",
        cmp.len(),
        failed,
        bench::THRESHOLD,
        bench::SMOOTHING_MS
    );
    if failed == 0 {
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
    // as file-backed v2.1 images (the `#[ignore]`d half of the
    // vendor_serve suite). Not part of the budgeted CI gate.
    eprintln!("xtask serve-check: tenth-scale vendor v2.1 image sweep (release)…");
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
/// (four synthetic vendor databases as RGDB v2.1 images, 1.5 M
/// interface addresses through `ResolvedView`) under a wall budget on
/// the resolve stage alone, plus a regression gate against the blessed
/// `BENCH_resolve.json`: per-stage wall clock AND per-lookup
/// `lookup_ns_per_addr`, both smoothed and median-normalised exactly
/// like bench-check so a uniformly slower machine passes. Synthesis and
/// probes are a pure function of the pinned seed, so everything in the
/// artifact except the wall-clock fields is byte-stable.
fn run_resolve_check(root: &PathBuf, budget_ms: u64, bless: bool) -> ExitCode {
    let art_dir = root.join("target").join("ci-artifacts");
    if let Err(err) = std::fs::create_dir_all(&art_dir) {
        eprintln!(
            "xtask resolve-check: cannot create {}: {err}",
            art_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let artifact = art_dir.join("resolve_ci.json");
    let out_file = match std::fs::File::create(&artifact) {
        Ok(f) => f,
        Err(err) => {
            eprintln!(
                "xtask resolve-check: cannot create {}: {err}",
                artifact.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let baseline_path = root.join("BENCH_resolve.json");
    eprintln!("xtask resolve-check: paper-scale resolve smoke (budget {budget_ms} ms, release)…");
    let status = std::process::Command::new("cargo")
        .current_dir(root)
        .envs(baseline_threads(&baseline_path).map(|t| (THREADS_ENV, t)))
        .env("ROUTERGEO_SCALE", "paper")
        .env("ROUTERGEO_SEED", CI_SEED)
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "routergeo-bench",
            "--bin",
            "resolve_smoke",
            "--",
            "--budget-ms",
        ])
        .arg(budget_ms.to_string())
        .stdout(out_file)
        .status();
    match status {
        Ok(s) if s.success() => {
            eprintln!("xtask resolve-check: wrote {}", artifact.display());
        }
        Ok(s) => {
            eprintln!(
                "xtask resolve-check: resolve_smoke exited with {s} (report at {})",
                artifact.display()
            );
            return ExitCode::FAILURE;
        }
        Err(err) => {
            eprintln!("xtask resolve-check: cannot run resolve_smoke: {err}");
            return ExitCode::FAILURE;
        }
    }

    if bless {
        return match std::fs::copy(&artifact, &baseline_path) {
            Ok(_) => {
                eprintln!(
                    "xtask resolve-check: blessed {} from this run",
                    baseline_path.display()
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!(
                    "xtask resolve-check: cannot write {}: {err}",
                    baseline_path.display()
                );
                ExitCode::FAILURE
            }
        };
    }

    let read = |p: &std::path::Path| -> Result<(bench::Report, f64), String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let report = bench::parse_report(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        let per_lookup = lookup_ns_per_addr(&text)
            .ok_or_else(|| format!("{}: no lookup_ns_per_addr field", p.display()))?;
        Ok((report, per_lookup))
    };
    let ((base, base_ns), (fresh, fresh_ns)) = match (read(&baseline_path), read(&artifact)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!(
                "xtask resolve-check: {e}\n(run `cargo xtask resolve-check --bless` to create the baseline)"
            );
            return ExitCode::FAILURE;
        }
    };
    let cmp = match bench::compare(&base, &fresh, bench::THRESHOLD) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask resolve-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>8}",
        "stage", "base ms", "fresh ms", "ratio", "norm"
    );
    for c in &cmp {
        println!("{c}");
    }
    let mut failed = cmp.iter().filter(|c| c.failed).count();

    // Per-lookup cost gate: normalise the fresh/base ratio by the run's
    // median stage ratio (the machine-speed factor bench::compare
    // already derived) so only a *relative* regression fails. The
    // median is recoverable from any unfailed comparison as
    // `ratio / normalized`.
    let machine = cmp.first().map_or(1.0, |c| {
        if c.normalized > 0.0 {
            c.ratio / c.normalized
        } else {
            1.0
        }
    });
    let per_lookup_ratio = if base_ns > 0.0 {
        fresh_ns / base_ns
    } else {
        1.0
    };
    let per_lookup_norm = if machine > 0.0 {
        per_lookup_ratio / machine
    } else {
        per_lookup_ratio
    };
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
    eprintln!(
        "xtask resolve-check: {} stage(s) + per-lookup gate, {} regression(s) beyond {:.1}x",
        cmp.len(),
        failed,
        bench::THRESHOLD
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Pull `lookup_ns_per_addr` out of a resolve_ci.json text.
fn lookup_ns_per_addr(text: &str) -> Option<f64> {
    let pat = "\"lookup_ns_per_addr\":";
    let rest = &text[text.find(pat)? + pat.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
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
