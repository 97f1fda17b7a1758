//! Loopback fault matrix: `BulkClient` against every `ChaosProxy` fault
//! plan, with fixed seeds throughout.
//!
//! Backoff runs on a virtual `TestClock`, so the matrix asserts the
//! *exact* retry counts and backoff schedules without one real sleep —
//! which is what lets CI treat this suite as wall-clock deterministic.

use routergeo_cymru::clock::{Clock, SystemClock, TestClock};
use routergeo_cymru::{
    BulkClient, BulkConfig, BulkOutcome, FailReason, MappingService, RetryPolicy, WhoisServer,
};
use routergeo_faultnet::{ChaosProxy, Fault, FaultPlan};
use routergeo_world::{World, WorldConfig};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tight deadlines so even the stalled-server cases finish in a couple
/// of seconds of wall time.
fn fast_config() -> BulkConfig {
    BulkConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(400),
        write_timeout: Duration::from_millis(400),
        chunk_size: 1_000,
        retry: RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(100),
            max: Duration::from_secs(1),
            jitter_seed: 7,
        },
        breaker_threshold: 3,
    }
}

struct Rig {
    world: World,
    service: Arc<MappingService>,
    server: WhoisServer,
    proxy: ChaosProxy,
}

impl Rig {
    fn new(seed: u64, plan: FaultPlan, proxy_clock: Arc<dyn Clock>) -> Rig {
        let world = World::generate(WorldConfig::tiny(seed));
        let service = Arc::new(MappingService::build(&world));
        let server = WhoisServer::spawn(Arc::clone(&service)).expect("spawn server");
        let proxy = ChaosProxy::spawn(server.addr(), plan, proxy_clock).expect("spawn proxy");
        Rig {
            world,
            service,
            server,
            proxy,
        }
    }

    fn ips(&self, n: usize) -> Vec<Ipv4Addr> {
        self.world
            .interfaces
            .iter()
            .step_by(97)
            .take(n)
            .map(|i| i.ip)
            .collect()
    }

    fn client(&self, config: BulkConfig, clock: Arc<dyn Clock>) -> BulkClient {
        BulkClient::with_config(self.proxy.addr(), config, clock)
    }
}

/// Every found record must agree with the in-process mapping.
fn assert_answers_match(rig: &Rig, outcome: &BulkOutcome) {
    for (ip, rec) in &outcome.found {
        assert_eq!(Some(*rec), rig.service.lookup(*ip), "record for {ip}");
    }
    for ip in &outcome.not_found {
        assert!(rig.service.lookup(*ip).is_none(), "spurious NA for {ip}");
    }
}

#[test]
fn pass_through_proxy_is_transparent() {
    let mut rig = Rig::new(901, FaultPlan::pass_through(), SystemClock::shared());
    let ips = rig.ips(30);
    let (clock, handle) = TestClock::shared();
    let outcome = rig.client(fast_config(), handle).lookup(&ips);
    assert!(outcome.is_complete(), "failed: {:?}", outcome.failed);
    assert_eq!(outcome.answered(), ips.len());
    assert_eq!(outcome.stats.connections, 1);
    assert_eq!(outcome.stats.retries, 0);
    assert!(clock.sleeps().is_empty(), "no backoff on the happy path");
    assert_answers_match(&rig, &outcome);
    rig.proxy.shutdown();
    rig.server.shutdown();
}

#[test]
fn refused_connection_retries_on_schedule_and_recovers() {
    let plan = FaultPlan::sequence(vec![Fault::Refuse]);
    let mut rig = Rig::new(902, plan, SystemClock::shared());
    let ips = rig.ips(20);
    let config = fast_config();
    let (clock, handle) = TestClock::shared();
    let outcome = rig.client(config.clone(), handle).lookup(&ips);
    assert!(outcome.is_complete(), "failed: {:?}", outcome.failed);
    assert_eq!(outcome.stats.connections, 2, "one refusal, one success");
    assert_eq!(outcome.stats.retries, 1);
    // The backoff actually slept is exactly the policy's schedule for
    // chunk 0, cut to the one retry that happened.
    let expected = config.retry.delays_for_chunk(0);
    assert_eq!(outcome.stats.backoff, expected[..1].to_vec());
    assert_eq!(clock.sleeps(), expected[..1].to_vec());
    assert_answers_match(&rig, &outcome);
    rig.proxy.shutdown();
    rig.server.shutdown();
}

#[test]
fn stalled_server_fails_within_deadline_budget_with_per_address_outcomes() {
    // Hold each silent connection for 1 s of real time — well past the
    // 400 ms read deadline, so the deadline (not an EOF) ends attempts.
    let plan = FaultPlan::always(Fault::AcceptSilence {
        hold: Duration::from_secs(1),
    });
    let mut rig = Rig::new(903, plan, SystemClock::shared());
    let ips = rig.ips(10);
    let config = fast_config();
    let (clock, handle) = TestClock::shared();
    #[expect(
        clippy::disallowed_methods,
        reason = "the deadline budget is a bound on real time"
    )]
    let started = Instant::now();
    let outcome = rig.client(config.clone(), handle).lookup(&ips);
    let elapsed = started.elapsed();

    // Deadline budget: each attempt costs at most connect + write + one
    // read deadline; backoff is virtual. Generous 2x slack on top.
    let per_attempt = config.connect_timeout + config.write_timeout + config.read_timeout;
    assert!(
        elapsed < per_attempt * config.retry.max_attempts * 2,
        "stalled server held the client for {elapsed:?}"
    );

    // Every address got an attributed outcome; nothing hung, nothing
    // was silently dropped.
    assert_eq!(outcome.answered(), 0);
    assert_eq!(outcome.failed.len(), ips.len());
    for f in &outcome.failed {
        assert_eq!(f.reason, FailReason::Timeout, "for {}", f.ip);
        assert_eq!(f.attempts, config.retry.max_attempts);
    }
    assert_eq!(
        outcome.stats.connections,
        usize::try_from(config.retry.max_attempts).unwrap()
    );
    // Exhausted retries slept the full schedule for chunk 0.
    assert_eq!(clock.sleeps(), config.retry.delays_for_chunk(0));
    rig.proxy.shutdown();
    rig.server.shutdown();
}

#[test]
fn mid_stream_truncation_resumes_only_the_unanswered_remainder() {
    // Cut the response at byte 180: the banner (~44 bytes) plus the
    // first few rows make it through, the rest of the chunk does not.
    let plan = FaultPlan::sequence(vec![Fault::TruncateAfter(180)]);
    let mut rig = Rig::new(904, plan, SystemClock::shared());
    let ips = rig.ips(25);
    let (_clock, handle) = TestClock::shared();
    let outcome = rig.client(fast_config(), handle).lookup(&ips);
    assert!(outcome.is_complete(), "failed: {:?}", outcome.failed);
    assert_eq!(outcome.answered(), ips.len());
    assert_eq!(outcome.stats.connections, 2);

    // Resume, not restart: the retry connection carried a strictly
    // smaller request than the truncated one.
    let stats = rig.proxy.stats();
    assert_eq!(stats.connections(), 2);
    assert!(
        stats.conns[1].bytes_up < stats.conns[0].bytes_up,
        "retry re-sent the whole chunk: {:?}",
        stats.conns
    );
    assert_eq!(stats.conns[0].bytes_down, 180);
    assert_answers_match(&rig, &outcome);
    rig.proxy.shutdown();
    rig.server.shutdown();
}

#[test]
fn corrupted_stream_is_rejected_and_recovered_on_retry() {
    let plan = FaultPlan::sequence(vec![Fault::CorruptBytes {
        rate_pct: 100,
        seed: 5,
    }]);
    let mut rig = Rig::new(905, plan, SystemClock::shared());
    let ips = rig.ips(15);
    let (_clock, handle) = TestClock::shared();
    let outcome = rig.client(fast_config(), handle).lookup(&ips);
    // Nothing from the corrupted stream leaked into the results…
    assert!(outcome.is_complete(), "failed: {:?}", outcome.failed);
    assert_eq!(outcome.answered(), ips.len());
    assert_answers_match(&rig, &outcome);
    // …and recovery took exactly one retry.
    assert_eq!(outcome.stats.connections, 2);
    assert_eq!(outcome.stats.retries, 1);
    rig.proxy.shutdown();
    rig.server.shutdown();
}

#[test]
fn early_fin_is_detected_as_missing_answers_and_retried() {
    let plan = FaultPlan::sequence(vec![Fault::EarlyFin]);
    let mut rig = Rig::new(906, plan, SystemClock::shared());
    let ips = rig.ips(12);
    let (_clock, handle) = TestClock::shared();
    let outcome = rig.client(fast_config(), handle).lookup(&ips);
    assert!(outcome.is_complete(), "failed: {:?}", outcome.failed);
    assert_eq!(outcome.answered(), ips.len());
    assert_eq!(outcome.stats.connections, 2);
    assert_answers_match(&rig, &outcome);
    rig.proxy.shutdown();
    rig.server.shutdown();
}

#[test]
fn injected_latency_runs_on_virtual_time() {
    // 10 s of injected latency per relayed chunk would blow any real
    // deadline; on the shared virtual clock it must cost nothing.
    let (clock, proxy_handle) = TestClock::shared();
    let plan = FaultPlan::always(Fault::Delay {
        per_chunk: Duration::from_secs(10),
    });
    let mut rig = Rig::new(907, plan, proxy_handle);
    let ips = rig.ips(10);
    let client_handle: Arc<dyn Clock> = Arc::new(clock.clone());
    #[expect(
        clippy::disallowed_methods,
        reason = "the test proves injected latency never sleeps for real"
    )]
    let started = Instant::now();
    let outcome = rig.client(fast_config(), client_handle).lookup(&ips);
    assert!(started.elapsed() < Duration::from_secs(5), "slept for real");
    assert!(outcome.is_complete(), "failed: {:?}", outcome.failed);
    assert!(clock.total_slept() >= Duration::from_secs(10));
    assert!(rig.proxy.stats().injected_delay() >= Duration::from_secs(10));
    rig.proxy.shutdown();
    rig.server.shutdown();
}

#[test]
fn circuit_breaker_fails_remaining_chunks_fast() {
    let plan = FaultPlan::always(Fault::Refuse);
    let mut rig = Rig::new(908, plan, SystemClock::shared());
    let ips = rig.ips(25);
    let mut config = fast_config();
    config.chunk_size = 5; // 25 addresses -> 5 chunks
    config.breaker_threshold = 2;
    config.retry.max_attempts = 2;
    let (_clock, handle) = TestClock::shared();
    let outcome = rig.client(config, handle).lookup(&ips);

    assert!(outcome.stats.breaker_tripped);
    assert_eq!(outcome.stats.chunks, 5);
    // Only the first two chunks touched the network (2 attempts each);
    // the remaining three failed fast with the breaker open.
    assert_eq!(outcome.stats.connections, 4);
    assert_eq!(outcome.failed.len(), 25);
    let open: Vec<_> = outcome
        .failed
        .iter()
        .filter(|f| f.reason == FailReason::CircuitOpen)
        .collect();
    assert_eq!(open.len(), 15);
    assert!(open.iter().all(|f| f.attempts == 0));
    rig.proxy.shutdown();
    rig.server.shutdown();
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the scripted upstream serves the proxy from its own thread"
)]
fn unsolicited_rows_are_quarantined_through_the_proxy() {
    // A scripted upstream that answers the requested addresses but also
    // volunteers rows for addresses the client never asked about —
    // behind a pass-through proxy so the bytes travel the same path as
    // every other matrix entry. The bogus echoes must be quarantined
    // per-address (FailReason::Unsolicited) while the batch completes.
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind upstream");
    let upstream = listener.local_addr().expect("upstream addr");
    let peer = std::thread::spawn(move || {
        if let Ok((mut s, _)) = listener.accept() {
            let mut req = Vec::new();
            let _ = s.read_to_end(&mut req);
            let _ = s.write_all(
                b"Bulk mode; whois.routergeo.test [synthetic]\n\
                  NA | 9.9.9.9 | NA | NA | NA\n\
                  64500 | 66.66.66.66 | 66.66.66.0/24 | US | arin\n\
                  Error: bad address \"77.77.77.77\"\n\
                  NA | 11.11.11.11 | NA | NA | NA\n",
            );
        }
    });
    let proxy = ChaosProxy::spawn(upstream, FaultPlan::pass_through(), SystemClock::shared())
        .expect("spawn proxy");
    let mut config = fast_config();
    config.retry.max_attempts = 1;
    let (_clock, handle) = TestClock::shared();
    let ips: Vec<Ipv4Addr> = vec!["9.9.9.9".parse().unwrap(), "11.11.11.11".parse().unwrap()];
    let outcome = BulkClient::with_config(proxy.addr(), config, handle).lookup(&ips);
    // The peer's own panic, if it had one, fails the test here.
    if let Err(panic) = peer.join() {
        std::panic::resume_unwind(panic);
    }
    assert!(outcome.is_complete(), "failed: {:?}", outcome.failed);
    assert_eq!(
        outcome.answered(),
        ips.len(),
        "rows after bogus echoes parse"
    );
    let quarantined: Vec<Ipv4Addr> = outcome.unsolicited.iter().map(|u| u.ip).collect();
    assert_eq!(
        quarantined,
        vec![
            "66.66.66.66".parse::<Ipv4Addr>().unwrap(),
            "77.77.77.77".parse::<Ipv4Addr>().unwrap(),
        ]
    );
    assert!(outcome
        .unsolicited
        .iter()
        .all(|u| u.reason == FailReason::Unsolicited));
}

#[test]
fn per_chunk_jitter_spreads_backoff_across_chunks() {
    // Two chunks that both fail once: each sleeps its own chunk's
    // deterministic schedule, not a shared one.
    let plan = FaultPlan::cycle(vec![Fault::Refuse, Fault::PassThrough]);
    let mut rig = Rig::new(909, plan, SystemClock::shared());
    let ips = rig.ips(20);
    let mut config = fast_config();
    config.chunk_size = 10; // 2 chunks
    config.breaker_threshold = 0; // breaker off for this one
    let (clock, handle) = TestClock::shared();
    let outcome = rig.client(config.clone(), handle).lookup(&ips);
    assert!(outcome.is_complete(), "failed: {:?}", outcome.failed);
    let expected = vec![
        config.retry.delays_for_chunk(0)[0],
        config.retry.delays_for_chunk(1)[0],
    ];
    assert_eq!(clock.sleeps(), expected);
    assert_ne!(expected[0], expected[1], "chunks share a jitter stream");
    rig.proxy.shutdown();
    rig.server.shutdown();
}
