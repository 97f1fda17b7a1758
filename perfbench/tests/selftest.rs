//! Self-tests at tiny sizes: every workload prints every end-to-end
//! metric with its unit, an injected wrong answer raises `failed`, and
//! the seed changes the inputs but not the metric names.

use perfbench::{resolve, serve, tables, Fault, Opts, Report, Size, END_TO_END};
use routergeo_bench::Lab;
use routergeo_serve::{Corpus, MixWeights, TrafficMix};

type Run = fn(&Opts) -> Report;

const WORKLOADS: [(&str, Run); 3] = [
    ("tables_tenth", tables::run),
    ("resolve_paper", resolve::run),
    ("serve_zipf_swap", serve::run),
];

fn tiny(seed: u64) -> Opts {
    Opts {
        seconds: 0.3,
        size: Size::Tiny,
        ..Opts::new(seed, 0.3)
    }
}

/// `(name, value, unit)` of every metric in a result line.
fn metrics(json: &str) -> Vec<(String, f64, String)> {
    let body = json
        .split_once("\"metrics\": {")
        .expect("a metrics object")
        .1;
    body.split("}, ")
        .map(|entry| {
            let (name, rest) = entry
                .split_once("\": {\"value\": ")
                .expect("name and value");
            let (value, unit) = rest.split_once(", \"unit\": \"").expect("value and unit");
            (
                name.trim_start_matches('"').to_string(),
                value.parse().expect("a number"),
                unit.split('"').next().expect("a unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    for (name, run) in WORKLOADS {
        let report = run(&tiny(5));
        assert!(report.correct(false), "{}", report.summary(name, false));
        let printed = metrics(&report.json(false));
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(m, u)| (m.to_string(), u.to_string()))
            .collect();
        let got: Vec<(String, String)> = printed
            .iter()
            .map(|(m, _, u)| (m.clone(), u.clone()))
            .collect();
        assert_eq!(got, want, "{name}");
        for (metric, value, _) in &printed {
            assert!(*value > 0.0, "{name}: {metric} = {value}");
        }
    }
}

#[test]
fn an_altered_record_raises_failed() {
    for (name, run) in &WORKLOADS[..2] {
        let report = run(&Opts {
            fault: Fault::AlterRecord,
            ..tiny(5)
        });
        assert!(report.failed > 0, "{name}: {}", report.summary(name, false));
        assert!(!report.correct(false));
        assert!(report.json(false).starts_with("{\"correct\": false"));
    }
}

#[test]
fn a_daemon_serving_the_wrong_generation_raises_failed() {
    let report = serve::run(&Opts {
        fault: Fault::WrongGeneration,
        ..tiny(5)
    });
    assert!(report.failed > 0, "{}", report.summary("serve", false));
    assert!(!report.correct(false));
}

#[test]
fn changing_the_seed_changes_the_inputs_but_not_the_metric_names() {
    let (a, b) = (resolve::setup(1, Size::Tiny), resolve::setup(2, Size::Tiny));
    assert_ne!(a.rows, b.rows);
    assert_ne!(a.ips, b.ips);

    let lab = |seed| Lab::build(tables::lab_config(seed, Size::Tiny));
    assert_ne!(lab(1).ark.interfaces, lab(2).ark.interfaces);

    let mix = |seed| TrafficMix::new(seed, Corpus::new(256), MixWeights::default(), 0);
    let bodies = |m: TrafficMix| (0..64).map(|i| m.request(i).body).collect::<Vec<_>>();
    assert_ne!(bodies(mix(1)), bodies(mix(2)));

    for (name, run) in WORKLOADS {
        let names = |seed| {
            let json = run(&tiny(seed)).json(false);
            metrics(&json)
                .into_iter()
                .map(|(m, _, u)| (m, u))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(1), names(2), "{name}");
    }
}
