//! Hot-swap under fire: the daemon must flip generations atomically
//! while concurrent clients hammer it, with no torn reads and the old
//! generation fully drained before `hot_swap` returns.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use bytes::Bytes;
use routergeo_db::rgdb2::RgdbError;
use routergeo_serve::corpus::Corpus;
use routergeo_serve::daemon::{ServeConfig, ServeDaemon, ServeError};
use routergeo_serve::live::{self, ServeClient};
use routergeo_serve::protocol::{Request, Response};

#[test]
fn swap_under_concurrent_load_is_atomic_and_drains() {
    let corpus = Corpus::new(128);
    let outcome = live::run_swap_phase(&corpus, 0xDEAD_BEEF, 6, 120).expect("swap phase completes");

    assert_eq!(outcome.clients, 6);
    assert_eq!(outcome.lookups, 6 * 120);
    assert_eq!(
        outcome.ok + outcome.miss,
        outcome.lookups,
        "every lookup must land as a hit or a miss: {outcome:?}"
    );
    assert_eq!(outcome.busy, 0, "zero sheds during the swap: {outcome:?}");
    assert_eq!(outcome.errors, 0, "zero failed lookups: {outcome:?}");
    assert_eq!(outcome.torn_reads, 0, "no torn reads: {outcome:?}");
    assert_eq!(outcome.generation_before, 1);
    assert_eq!(outcome.generation_after, 2);
    assert_eq!(outcome.swaps, 1);
    assert!(
        outcome.drained,
        "old generation must be fully drained before hot_swap returns"
    );
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test needs a prober and a swapper running at once against the daemon"
)]
fn responses_are_internally_consistent_during_the_flip() {
    // A sharper torn-read probe than the phase runner: one client pins a
    // hot address and checks that every response is wholly from ONE
    // generation — the generation id and the generation-tagged city must
    // always agree, before, during, and after the flip. It probes until
    // `hot_swap` has returned and then 100 times more, so the flip lands
    // inside the probe however long the new image takes to validate.
    let corpus = Corpus::new(64);
    let daemon = ServeDaemon::spawn_with(
        corpus.image_v21(1),
        ServeConfig {
            workers: 4,
            queue_depth: 32,
            ..ServeConfig::default()
        },
    )
    .expect("daemon spawns");
    let addr = daemon.addr();
    let target = corpus.hit_addr(3);

    let barrier = Barrier::new(2);
    let swapped = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let prober = scope.spawn(|| {
            let mut client = ServeClient::connect(addr).expect("client connects");
            let mut seen = [0u64; 2];
            let mut after_swap = 0;
            barrier.wait();
            while after_swap < 100 {
                if swapped.load(Ordering::SeqCst) {
                    after_swap += 1;
                }
                match client.request(&Request::Lookup(target)) {
                    Ok(Response::Hit { generation, record }) => {
                        assert!(
                            generation == 1 || generation == 2,
                            "unknown generation {generation}"
                        );
                        let city = record.city.as_deref().unwrap_or("");
                        assert!(
                            Corpus::city_matches(generation, city),
                            "torn read: generation {generation} with city {city:?}"
                        );
                        seen[usize::from(generation == 2)] += 1;
                    }
                    other => panic!("hot address must always hit, got {other:?}"),
                }
            }
            seen
        });
        barrier.wait();
        let report = daemon.hot_swap(corpus.image_v21(2));
        swapped.store(true, Ordering::SeqCst);
        let report = report.expect("swap succeeds");
        assert_eq!(report.old_generation, 1);
        assert_eq!(report.new_generation, 2);
        assert!(report.drained, "drain must complete: {report:?}");
        let seen = prober.join().expect("prober thread");
        assert!(
            seen[1] >= 100,
            "prober must observe generation 2 after the flip: {seen:?}"
        );
    });

    let stats = daemon.stats();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.shed, 0, "queue depth 32 must absorb one prober");
    drop(daemon);
}

#[test]
fn retired_format_images_are_rejected_at_swap_and_never_served() {
    // Only header version 3 opens. A generation-2 image relabelled as
    // the retired v1 or v2 layout must be refused before the flip with
    // an attributed error: no swap is counted, and generation 1 keeps
    // answering every hit address.
    let corpus = Corpus::new(64);
    let daemon = ServeDaemon::spawn_with(corpus.image_v21(1), ServeConfig::default())
        .expect("daemon spawns");
    let mut client = ServeClient::connect(daemon.addr()).expect("client connects");

    let probe = |client: &mut ServeClient| {
        for k in [0usize, 3, 17, 63] {
            match client.request(&Request::Lookup(corpus.hit_addr(k))) {
                Ok(Response::Hit { generation, record }) => {
                    assert_eq!(generation, 1);
                    let city = record.city.as_deref().unwrap_or("");
                    assert!(
                        Corpus::city_matches(1, city),
                        "generation 1 served city {city:?}"
                    );
                }
                other => panic!("hit address must hit on generation 1, got {other:?}"),
            }
        }
    };
    probe(&mut client);

    for version in [1u8, 2] {
        let mut image = corpus.image_v21(2).to_vec();
        image[4] = version;
        match daemon.hot_swap(Bytes::from(image)) {
            Err(ServeError::Db(RgdbError::BadVersion(v))) => assert_eq!(v, u16::from(version)),
            other => panic!("a version {version} image must be rejected, got {other:?}"),
        }
        assert_eq!(daemon.stats().swaps, 0, "a rejected image is not a swap");
        assert_eq!(daemon.generation(), 1);
        probe(&mut client);
    }

    let stats = daemon.stats();
    assert_eq!(stats.errors, 0);
    // Disconnect first: a connected client holds a daemon worker in
    // `read` until its deadline, and shutdown waits for that worker.
    drop(client);
    drop(daemon);
}

#[test]
fn heap_generation_hot_swaps_to_a_file_backed_v21_image() {
    // Generations are source-agnostic: a daemon booted from a heap
    // image must accept an RGDB image loaded from disk via FileImage,
    // and a bad path must leave the live generation untouched.
    let corpus = Corpus::new(64);
    let daemon = ServeDaemon::spawn(corpus.image_v21(1)).expect("daemon spawns on a heap image");
    let mut client = ServeClient::connect(daemon.addr()).expect("client connects");

    let probe = |client: &mut ServeClient, expect_gen: u32| {
        for k in [0usize, 5, 31, 63] {
            match client.request(&Request::Lookup(corpus.hit_addr(k))) {
                Ok(Response::Hit { generation, record }) => {
                    assert_eq!(generation, expect_gen);
                    let city = record.city.as_deref().unwrap_or("");
                    assert!(
                        Corpus::city_matches(expect_gen, city),
                        "generation {expect_gen} served city {city:?}"
                    );
                }
                other => panic!("hit address must hit on generation {expect_gen}, got {other:?}"),
            }
        }
    };
    probe(&mut client, 1);

    let path = std::env::temp_dir().join(format!(
        "routergeo-serve-swap-{}-g2.rgdb",
        std::process::id()
    ));
    std::fs::write(&path, corpus.image_v21(2)).expect("image written to disk");
    let report = daemon.hot_swap_file(&path).expect("file-backed RGDB swap");
    assert_eq!(report.old_generation, 1);
    assert_eq!(report.new_generation, 2);
    assert!(report.drained);
    probe(&mut client, 2);

    // A missing file is an attributed error and no generation flip.
    let missing = std::env::temp_dir().join("routergeo-serve-swap-does-not-exist.rgdb");
    assert!(daemon.hot_swap_file(&missing).is_err());
    probe(&mut client, 2);

    let stats = daemon.stats();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.errors, 0);
    std::fs::remove_file(&path).ok();
    drop(client);
    drop(daemon);
}

#[test]
fn a_swap_between_pipelined_windows_finds_no_pinned_reader() {
    // Each request pins the generation only while it is answered, never
    // across the read that waits for the next window: a swap between
    // windows must drain without a single poll, and the first reply
    // after it must carry the new generation.
    let corpus = Corpus::new(64);
    let daemon = ServeDaemon::spawn(corpus.image_v21(1)).expect("daemon spawns");
    let mut client = ServeClient::connect(daemon.addr()).expect("client connects");
    let window: Vec<Request> = (0..32)
        .map(|k| Request::Lookup(corpus.hit_addr(k)))
        .collect();
    let check_window = |client: &mut ServeClient, expect_gen: u32| {
        let replies = client.pipeline(&window).expect("the window is answered");
        assert_eq!(replies.len(), window.len());
        for (k, resp) in replies.iter().enumerate() {
            match resp {
                Response::Hit { generation, record } => {
                    assert_eq!(*generation, expect_gen, "reply {k} of the window");
                    assert_eq!(
                        record.city.as_deref(),
                        Some(Corpus::city_tag(expect_gen, k).as_str())
                    );
                }
                other => panic!("hit address must hit, got {other:?}"),
            }
        }
    };
    check_window(&mut client, 1);
    for generation in 2..=5 {
        let report = daemon
            .hot_swap(corpus.image_v21(generation))
            .expect("swap succeeds");
        assert_eq!(report.new_generation, generation);
        assert!(report.drained, "{report:?}");
        assert_eq!(
            report.drain_polls, 0,
            "a generation pin outlived its window: {report:?}"
        );
        check_window(&mut client, generation);
    }
    assert_eq!(daemon.stats().swaps, 4);
}
