//! End-to-end graceful degradation: a ground-truth run whose RIR
//! annotation goes through a whois service failing ~50% of connections
//! must complete with a degraded-coverage line in the §5.2 report — not
//! an error, not a hang.

use routergeo_bench::experiments::{fig3, gt_view};
use routergeo_bench::lab::Lab;
use routergeo_core::accuracy::evaluate_from_view;
use routergeo_cymru::clock::TestClock;
use routergeo_cymru::{BulkClient, BulkConfig, RetryPolicy};
use routergeo_faultnet::{ChaosProxy, Fault, FaultPlan, SystemClock};
use std::time::Duration;

#[test]
fn ground_truth_run_survives_half_failing_whois_with_degraded_coverage_line() {
    let mut lab = Lab::tiny(4242);
    let mut srv = lab.spawn_whois().expect("spawn whois");

    // Two of every three connections die; with max_attempts = 2 a chunk
    // whose both attempts land on `Refuse` degrades, one that hits the
    // `PassThrough` slot resolves — a deterministically ~50%-failing
    // service.
    let plan = FaultPlan::cycle(vec![Fault::Refuse, Fault::Refuse, Fault::PassThrough]);
    let mut proxy = ChaosProxy::spawn(srv.addr(), plan, SystemClock::shared()).expect("proxy");

    let config = BulkConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        // Small chunks so the cycle plan spreads failures across many
        // chunks rather than failing or passing the batch wholesale.
        chunk_size: 10,
        retry: RetryPolicy {
            max_attempts: 2,
            base: Duration::from_millis(50),
            max: Duration::from_millis(200),
            jitter_seed: 11,
        },
        // Breaker off: we want sustained partial failure, not fail-fast.
        breaker_threshold: 0,
    };
    let (_clock, handle) = TestClock::shared();
    let client = BulkClient::with_config(proxy.addr(), config, handle);

    let ann = lab.annotate_rir_over_socket(&client);
    assert_eq!(ann.total, lab.gt.len());
    assert!(
        ann.is_degraded(),
        "a 50%-failing proxy should degrade some chunks: {ann:?}"
    );
    assert!(
        ann.resolved > 0,
        "pass-through slots should still resolve some chunks: {ann:?}"
    );
    assert_eq!(ann.resolved + ann.not_found + ann.degraded, ann.total);
    assert_eq!(lab.gt.degraded.len(), ann.degraded);

    // The run completes end to end: evaluation still works and Figure 3
    // carries the degraded-coverage line instead of erroring out.
    let report = evaluate_from_view(&gt_view(&lab), &lab.gt, 20);
    assert!(report.rir_coverage < 1.0);
    assert_eq!(report.degraded[0].total, ann.degraded);
    let f3 = fig3(&report);
    assert_eq!(f3.len(), 6, "5 RIR rows + the degraded line");
    let rendered = f3.render();
    assert!(
        rendered.contains("UNKNOWN (RIR coverage"),
        "missing degraded-coverage line:\n{rendered}"
    );

    // And Table 1 accounts for every address: RIR counts + degraded.
    let (dns, rtt, _) = routergeo_bench::experiments::table1(&lab);
    for row in [&dns, &rtt] {
        assert_eq!(row.per_rir.iter().sum::<usize>() + row.degraded, row.total);
    }

    proxy.shutdown();
    srv.shutdown();
}

#[test]
fn healthy_socket_annotation_leaves_report_unchanged() {
    let mut lab = Lab::tiny(4243);
    let before = lab
        .gt
        .table1_row(routergeo_core::groundtruth::GtMethod::DnsBased);
    let mut srv = lab.spawn_whois().expect("spawn whois");
    let ann = lab.annotate_rir_over_socket(&BulkClient::new(srv.addr()));
    assert_eq!(ann.degraded, 0);
    assert!((ann.coverage() - 1.0).abs() < 1e-9 || ann.not_found > 0);
    let after = lab
        .gt
        .table1_row(routergeo_core::groundtruth::GtMethod::DnsBased);
    assert_eq!(before, after, "healthy socket annotation changed Table 1");
    let report = evaluate_from_view(&gt_view(&lab), &lab.gt, 20);
    assert_eq!(report.rir_coverage, 1.0);
    assert_eq!(fig3(&report).len(), 5, "no degraded line on a healthy run");
    srv.shutdown();
}
