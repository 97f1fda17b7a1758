//! Hot-swap under fire: the daemon must flip generations atomically
//! while concurrent clients hammer it, with no torn reads and the old
//! generation fully drained before `hot_swap` returns.

use std::sync::Barrier;

use routergeo_serve::corpus::Corpus;
use routergeo_serve::daemon::{ServeConfig, ServeDaemon};
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
fn responses_are_internally_consistent_during_the_flip() {
    // A sharper torn-read probe than the phase runner: one client pins a
    // hot address and checks that every response is wholly from ONE
    // generation — the generation id and the generation-tagged city must
    // always agree, before, during, and after the flip.
    let corpus = Corpus::new(64);
    let daemon = ServeDaemon::spawn_with(
        corpus.image(1),
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
    std::thread::scope(|scope| {
        // xtask-allow: RG007 one protocol client racing the swap; an I/O thread, not data-parallel fan-out
        let prober = scope.spawn(|| {
            let mut client = ServeClient::connect(addr).expect("client connects");
            let mut seen = [0u64; 2];
            barrier.wait();
            for _ in 0..400 {
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
        let report = daemon.hot_swap(corpus.image(2)).expect("swap succeeds");
        assert_eq!(report.old_generation, 1);
        assert_eq!(report.new_generation, 2);
        assert!(report.drained, "drain must complete: {report:?}");
        let seen = prober.join().expect("prober thread");
        assert!(
            seen[1] > 0,
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
fn v2_images_hot_swap_over_v1_generations_and_back() {
    // The generation slot is format-agnostic: a daemon booted on a v1
    // image must accept a v2 image mid-flight (and vice versa), with
    // identical hit/miss behavior and generation-tagged payloads.
    let corpus = Corpus::new(64);
    let daemon = ServeDaemon::spawn_with(corpus.image(1), ServeConfig::default())
        .expect("daemon spawns on a v1 image");
    let mut client = ServeClient::connect(daemon.addr()).expect("client connects");

    let probe = |client: &mut ServeClient, expect_gen: u32| {
        for k in [0usize, 3, 17, 63] {
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

    // v1 -> v2: the daemon opens the flat image and serves from it.
    let report = daemon.hot_swap(corpus.image_v2(2)).expect("v2 swap");
    assert_eq!(report.old_generation, 1);
    assert_eq!(report.new_generation, 2);
    assert!(report.drained);
    probe(&mut client, 2);

    // v2 -> v1: swapping back off the flat format works the same way.
    let report = daemon.hot_swap(corpus.image(3)).expect("v1 swap");
    assert_eq!(report.new_generation, 3);
    probe(&mut client, 3);

    let stats = daemon.stats();
    assert_eq!(stats.swaps, 2);
    assert_eq!(stats.errors, 0);
    drop(daemon);
}

#[test]
fn heap_generation_hot_swaps_to_a_file_backed_v21_image() {
    // Generations are source-agnostic too: a daemon booted from a heap
    // image must accept a v2.1 image loaded from disk via FileImage,
    // and a bad path must leave the live generation untouched.
    let corpus = Corpus::new(64);
    let daemon = ServeDaemon::spawn(corpus.image(1)).expect("daemon spawns on a heap v1 image");
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
    let report = daemon.hot_swap_file(&path).expect("file-backed v2.1 swap");
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
