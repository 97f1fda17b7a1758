//! Regenerate every table and figure of the paper (plus extensions).
//!
//! ```text
//! usage: repro [experiment ...] [--csv DIR]
//!   experiments: stats table1 coverage consistency fig1 fig2 fig3 fig4
//!                fig5 arin split validate method recommend
//!                majority endpoints cbg temporal hloc all  (default: all)
//!   --csv DIR: additionally write every table as a CSV file into DIR
//!   --gt-out FILE: export the ground-truth dataset (the paper's released
//!                  artifact) as CSV
//!   --threads N: worker threads for the parallel stages (output is
//!                byte-identical at every N)
//!   --timings FILE: write a machine-readable stage-timing report
//!                   (the BENCH_pipeline.json format consumed by
//!                   `cargo xtask bench-check`)
//!   --obs FILE: enable structured tracing and write the JSONL trace
//!               (spans + metrics snapshot; verify with
//!               `cargo xtask obs-check FILE`)
//! environment:
//!   ROUTERGEO_SCALE   = tiny | small | tenth (default) | paper
//!   ROUTERGEO_SEED    = u64 (default 20170301)
//!   ROUTERGEO_THREADS = worker threads when --threads is not given
//!   ROUTERGEO_OBS     = trace file when --obs is not given
//! ```

#![expect(
    clippy::disallowed_macros,
    reason = "a binary entry point reports CLI diagnostics on stderr"
)]

use routergeo_bench::lab::time_stage;
use routergeo_bench::{experiments as exp, Lab, LabConfig, PipelineTimings};
use routergeo_core::report::TextTable;
use routergeo_cymru::BulkClient;
use std::path::PathBuf;

/// Output sink: prints tables and optionally mirrors them as CSV files.
struct Emitter {
    csv_dir: Option<PathBuf>,
    counter: usize,
}

impl Emitter {
    fn emit(&mut self, slug: &str, table: &TextTable) {
        println!("{}", table.render());
        if let Some(dir) = &self.csv_dir {
            self.counter += 1;
            let path = dir.join(format!("{:02}_{slug}.csv", self.counter));
            if let Err(e) = std::fs::write(&path, table.to_csv()) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
    }
}

fn main() {
    let mut csv_dir: Option<PathBuf> = None;
    let mut gt_out: Option<PathBuf> = None;
    let mut timings_out: Option<PathBuf> = None;
    let mut obs_out: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--csv" {
            match args.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--csv requires a directory argument");
                    std::process::exit(2);
                }
            }
        } else if arg == "--gt-out" {
            match args.next() {
                Some(file) => gt_out = Some(PathBuf::from(file)),
                None => {
                    eprintln!("--gt-out requires a file argument");
                    std::process::exit(2);
                }
            }
        } else if arg == "--timings" {
            match args.next() {
                Some(file) => timings_out = Some(PathBuf::from(file)),
                None => {
                    eprintln!("--timings requires a file argument");
                    std::process::exit(2);
                }
            }
        } else if arg == "--obs" {
            match args.next() {
                Some(file) => obs_out = Some(PathBuf::from(file)),
                None => {
                    eprintln!("--obs requires a file argument");
                    std::process::exit(2);
                }
            }
        } else if arg == "--threads" {
            match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("--threads requires a positive integer argument");
                    std::process::exit(2);
                }
            }
        } else {
            wanted.push(arg);
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    if obs_out.is_none() {
        if let Ok(path) = std::env::var("ROUTERGEO_OBS") {
            if !path.is_empty() {
                obs_out = Some(PathBuf::from(path));
            }
        }
    }
    if obs_out.is_some() {
        routergeo_obs::enable();
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let want = |name: &str| wanted.iter().any(|w| w == name) || wanted.iter().any(|w| w == "all");
    let want_exactly = |name: &str| wanted.iter().any(|w| w == name);
    let mut out = Emitter {
        csv_dir,
        counter: 0,
    };

    let seed = std::env::var("ROUTERGEO_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_170_301u64);
    let mut config = LabConfig::from_env(seed);
    config.threads = threads;
    eprintln!(
        "building lab: seed={} scale={:?} threads={} (ROUTERGEO_SCALE to change)…",
        seed,
        config.scale,
        config.pool().threads()
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "a binary entry point times its own startup for the CLI banner"
    )]
    let t0 = std::time::Instant::now();
    let (mut lab, mut stages) = Lab::build_timed(config);
    eprintln!(
        "lab ready in {:.1?}: {} interfaces, {} routers, Ark set {}, GT {} ({} DNS / {} RTT), overlap {}",
        t0.elapsed(),
        lab.world.interfaces.len(),
        lab.world.routers.len(),
        lab.ark.len(),
        lab.gt.len(),
        lab.gt
            .of_method(routergeo_core::GtMethod::DnsBased)
            .count(),
        lab.gt
            .of_method(routergeo_core::GtMethod::RttProximity)
            .count(),
        lab.gt.overlap.len(),
    );

    if let Some(path) = &gt_out {
        match std::fs::write(path, lab.gt.to_csv()) {
            Ok(()) => eprintln!(
                "wrote ground-truth dataset ({} addresses) to {}",
                lab.gt.len(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    if want_exactly("stats") {
        out.emit("diag_world", &exp::world_stats(&lab));
        out.emit("diag_probes", &exp::probe_stats(&lab));
        out.emit("diag_gt_domains", &exp::gt_domain_stats(&lab));
    }
    if want("table1") {
        let (_, _, t) = time_stage(
            &mut stages,
            "table1",
            |_| lab.gt.len(),
            || exp::table1(&lab),
        );
        out.emit("table1", &t);
    }
    // The Ark analyses (coverage, consistency/Figure 1) share one
    // resolve-once view: every (IP, database) pair is answered exactly
    // once, in the `resolve` stage, and the analyses tally its columns.
    let needs_ark_view = want("coverage") || want("consistency") || want("fig1");
    let ark_view = needs_ark_view.then(|| {
        time_stage(
            &mut stages,
            "resolve",
            |v: &routergeo_core::ResolvedView| v.len() * v.db_count(),
            || exp::ark_view(&lab),
        )
    });
    if want("coverage") {
        let view = ark_view.as_ref().expect("ark view built");
        let (_, t) = time_stage(
            &mut stages,
            "coverage",
            |_| lab.ark.len() * lab.dbs.len(),
            || exp::ark_coverage_from(view),
        );
        out.emit("coverage", &t);
    }
    if want("consistency") || want("fig1") {
        let view = ark_view.as_ref().expect("ark view built");
        let (_, tables) = time_stage(
            &mut stages,
            "consistency",
            |_| lab.ark.len() * lab.dbs.len(),
            || exp::ark_consistency_from(view),
        );
        out.emit("consistency_country", &tables[0]);
        out.emit("fig1_summary", &tables[1]);
        if want_exactly("fig1") {
            for (i, t) in tables.iter().enumerate().skip(2) {
                out.emit(&format!("fig1_cdf_{i}"), t);
            }
        }
    }
    drop(ark_view);

    // The remaining §5.2 experiments, the ARIN case study and the
    // majority and endpoint extensions share one resolve-once view over
    // the ground-truth addresses (the `lookup` stage); the §5.2 figures
    // share one accuracy report from it.
    let needs_accuracy = ["fig2", "fig3", "fig4", "fig5", "split", "recommend"]
        .iter()
        .any(|e| want(e));
    let needs_gt_view = needs_accuracy || ["arin", "majority", "endpoints"].iter().any(|e| want(e));
    let gt_view = needs_gt_view.then(|| {
        time_stage(
            &mut stages,
            "lookup",
            |v: &routergeo_core::ResolvedView| v.len() * v.db_count(),
            || exp::gt_view(&lab),
        )
    });
    let gt = || gt_view.as_ref().expect("ground-truth view built");
    if needs_accuracy {
        let (report, tables) = time_stage(
            &mut stages,
            "accuracy",
            |_| lab.gt.len() * lab.dbs.len(),
            || exp::gt_accuracy_from(&lab, gt()),
        );
        if want("fig2") {
            out.emit("fig2_summary", &tables[0]);
            if want_exactly("fig2") {
                for (i, t) in tables.iter().enumerate().skip(1) {
                    out.emit(&format!("fig2_cdf_{i}"), t);
                }
            }
        }
        if want("fig3") {
            out.emit("fig3_rir", &exp::fig3(&report));
        }
        if want("fig4") {
            let (common_wrong, t) = exp::fig4_from(&lab, gt(), &report);
            out.emit("fig4_countries", &t);
            println!(
                "S5.2.2: the three registry-fed databases agree on the same wrong country \
                 for {common_wrong} ground-truth addresses\n"
            );
        }
        if want("fig5") {
            for (i, t) in exp::fig5(&report).into_iter().enumerate() {
                out.emit(&format!("fig5_db{i}"), &t);
            }
        }
        if want("split") {
            out.emit("split_method", &exp::method_split(&report));
        }
        if want("recommend") {
            println!("{}", exp::recommend(&report));
        }
    }

    if want("arin") {
        let (_, t) = exp::arin(&lab, gt());
        out.emit("arin_case", &t);
    }
    if want("validate") {
        let (_, _, tables) = exp::validation(&lab);
        for (i, t) in tables.iter().enumerate() {
            out.emit(&format!("validate_{i}"), t);
        }
    }
    if want("method") {
        let (_, t) = exp::methodology(&lab);
        out.emit("methodology", &t);
    }

    // Extensions beyond the paper.
    if want("majority") {
        out.emit("ext_majority", &exp::majority(&lab, gt()));
    }
    if want("endpoints") {
        out.emit("ext_endpoints", &exp::endpoints(&lab, gt()));
    }
    if want("cbg") {
        out.emit("ext_cbg", &exp::cbg(&lab));
    }
    if want("hloc") {
        out.emit("ext_hloc", &exp::hloc(&lab));
    }
    if want("temporal") {
        let (drift, acc) = exp::temporal(&lab);
        out.emit("ext_temporal_drift", &drift);
        out.emit("ext_temporal_accuracy", &acc);
    }

    if obs_out.is_some() {
        // Exercise the resilient bulk-whois socket path so the trace
        // carries the cymru retry/degraded counters. Re-annotation is
        // idempotent: it recomputes the RIR tags the lab already holds.
        match lab.spawn_whois() {
            Ok(mut srv) => {
                let client = BulkClient::new(srv.addr());
                let ann = lab.annotate_rir_over_socket(&client);
                eprintln!(
                    "obs: re-annotated RIRs over socket ({} resolved, {} degraded)",
                    ann.resolved, ann.degraded
                );
                srv.shutdown();
            }
            Err(e) => eprintln!("obs: cannot spawn whois server: {e}"),
        }
    }
    if let Some(path) = &obs_out {
        match routergeo_obs::write_jsonl(path) {
            Ok(()) => eprintln!("wrote observability trace to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = &timings_out {
        let report = PipelineTimings {
            schema: 1,
            seed,
            scale: lab.config.scale,
            threads: lab.pool.threads(),
            stages: std::mem::take(&mut stages),
        };
        match std::fs::write(path, report.to_json()) {
            Ok(()) => eprintln!(
                "wrote stage timings ({} stages, {:.1} ms total) to {}",
                report.stages.len(),
                report.total_wall_ms(),
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
}
