//! The loadgen report is a CI artifact: it must be byte-identical
//! across repeated runs, or the `serve-loadgen` gate would flake on
//! diffs.

use routergeo_serve::{run_loadgen, LoadgenConfig};

/// A small plan so the three live phases stay cheap under `cargo test`.
fn small_config() -> LoadgenConfig {
    LoadgenConfig {
        swap_clients: 2,
        swap_lookups: 40,
        wall_probes: 20,
        wall_batches: 4,
        replay_requests: 4_000,
        ..LoadgenConfig::from_budget(500, 20_170_301)
    }
}

#[test]
fn report_is_byte_identical_across_runs() {
    let config = small_config();
    let first = run_loadgen(&config).expect("loadgen runs");
    let second = run_loadgen(&config).expect("loadgen runs");
    assert!(
        first.report.violations().is_empty(),
        "clean run expected: {:?}",
        first.report.violations()
    );
    assert_eq!(
        first.report.to_json(),
        second.report.to_json(),
        "repeated runs must serialize identically"
    );
}

#[test]
fn seed_changes_the_report() {
    let config = small_config();
    let reseeded = LoadgenConfig { seed: 99, ..config };
    let a = run_loadgen(&config).expect("loadgen runs");
    let b = run_loadgen(&reseeded).expect("loadgen runs");
    assert_ne!(
        a.report.to_json(),
        b.report.to_json(),
        "the seed must actually steer the traffic mix"
    );
}
