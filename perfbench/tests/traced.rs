//! The traced run at tiny sizes: every per-layer metric is printed with
//! its unit, the timing wrapper changes no answer, the replay agrees
//! with the wire, and the JSONL trace passes the `obs-check` verifier.
//!
//! One test only: tracing is process-wide and cannot be switched off.

use perfbench::{resolve, serve, tables, Opts, Report, Size, PER_LAYER};
use std::path::Path;

type Run = fn(&Opts) -> Report;

#[test]
fn traced_runs_print_every_layer_metric_and_a_clean_trace() {
    let workloads: [(&str, Run, &str); 3] = [
        ("tables_tenth", tables::run, "db.inmem.lookups"),
        ("resolve_paper", resolve::run, "db.rgdb2.lookup_batch_calls"),
        ("serve_zipf_swap", serve::run, "serve.daemon.requests"),
    ];
    for (name, run, worked) in workloads {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.jsonl"));
        let report = run(&Opts {
            trace: true,
            trace_out: Some(path.clone()),
            size: Size::Tiny,
            ..Opts::new(9, 0.3)
        });
        assert!(report.correct(true), "{}", report.summary(name, true));
        let json = report.json(true);
        for (metric, unit) in PER_LAYER {
            let entry = format!("\"{metric}\": {{\"value\": ");
            let at = json
                .find(&entry)
                .unwrap_or_else(|| panic!("{name}: no {metric}"));
            let tail = &json[at..];
            let unit_at = tail.find("\"unit\": \"").expect("a unit") + 9;
            assert!(
                tail[unit_at..].starts_with(&format!("{unit}\"")),
                "{name}: {metric}"
            );
        }
        assert!(report.values[worked] > 0.0, "{name}: {worked} is 0");
        assert_eq!(report.values["trace.proof_mismatches"], 0.0, "{name}");

        let text = std::fs::read_to_string(&path).expect("the trace was written");
        let parsed = routergeo_obs::check::parse(&text).expect("the trace parses");
        assert_eq!(routergeo_obs::check::verify(&parsed), Vec::<String>::new());
        assert!(parsed.span_names().iter().any(|s| s.starts_with("bench.")));
    }
}
