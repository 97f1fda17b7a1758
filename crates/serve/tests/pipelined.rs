//! Pipelining over real TCP: frames sent with one write are answered in
//! request order and exactly as an `InMemoryDb` oracle over the corpus
//! rows says; a framing error after valid frames still delivers every
//! earlier answer; and a burst written in full before the client reads
//! completes under the default deadlines.

use routergeo_db::inmem::InMemoryDbBuilder;
use routergeo_db::{GeoDatabase, InMemoryDb};
use routergeo_serve::corpus::Corpus;
use routergeo_serve::daemon::{ServeDaemon, ServeStats};
use routergeo_serve::protocol::{self, Request, Response, MAX_FRAME};
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::time::Duration;

/// The answers generation `generation` of `corpus` must give.
fn oracle(corpus: &Corpus, generation: u32) -> InMemoryDb {
    let mut b = InMemoryDbBuilder::new(format!("serve-corpus-g{generation}"));
    for k in 0..corpus.records() {
        b.push_prefix(corpus.prefix(k), corpus.record(generation, k));
    }
    b.build().expect("corpus prefixes are disjoint")
}

/// One frame of a pipeline.
#[derive(Debug, Clone, Copy)]
enum Probe {
    Lookup(Ipv4Addr),
    Generation,
    /// An intact frame whose body does not parse.
    Malformed,
}

impl Probe {
    fn body(self) -> Vec<u8> {
        match self {
            Probe::Lookup(ip) => protocol::encode_request(&Request::Lookup(ip)).to_vec(),
            Probe::Generation => protocol::encode_request(&Request::Generation).to_vec(),
            Probe::Malformed => vec![0xEE],
        }
    }
}

/// Lookup `i` of a pipeline: hits on corpus prefixes, in-block
/// addresses that may miss, and addresses outside every block.
fn lookup(corpus: &Corpus, i: usize) -> Probe {
    let k = (i * 7) % corpus.records();
    Probe::Lookup(match i % 4 {
        0 | 1 => corpus.hit_addr(k),
        2 => corpus.block_addr(k, 65_535),
        _ => Ipv4Addr::from(0xC801_0000 | u32::try_from(i).expect("small index")),
    })
}

/// Check one answer against the oracle of the live generation.
#[expect(clippy::panic, reason = "a test helper fails its test by panicking")]
fn check(oracle: &InMemoryDb, corpus: &Corpus, probe: Probe, resp: &Response) {
    match (probe, resp) {
        (Probe::Lookup(ip), Response::Hit { generation, record }) => {
            assert_eq!(*generation, 1, "{ip}");
            assert_eq!(oracle.lookup(ip).as_ref(), Some(record), "{ip}");
        }
        (Probe::Lookup(ip), Response::Miss { generation }) => {
            assert_eq!(*generation, 1, "{ip}");
            assert_eq!(oracle.lookup(ip), None, "{ip}");
        }
        (
            Probe::Generation,
            Response::GenerationInfo {
                generation,
                record_count,
                name,
            },
        ) => {
            assert_eq!(*generation, 1);
            assert_eq!(name, oracle.name());
            assert_eq!(
                usize::try_from(*record_count).expect("small"),
                corpus.records()
            );
        }
        (Probe::Malformed, Response::Malformed { .. }) => {}
        (probe, resp) => panic!("{probe:?} answered {resp:?}"),
    }
}

fn connect(daemon: &ServeDaemon) -> (TcpStream, BufReader<TcpStream>) {
    let stream =
        TcpStream::connect_timeout(&daemon.addr(), Duration::from_secs(2)).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read deadline");
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .expect("write deadline");
    let reader = BufReader::new(stream.try_clone().expect("stream clones"));
    (stream, reader)
}

/// Send every probe with one write, then read one answer per probe.
#[expect(clippy::panic, reason = "a test helper fails its test by panicking")]
fn pipeline(daemon: &ServeDaemon, probes: &[Probe]) -> Vec<Response> {
    let (mut stream, mut reader) = connect(daemon);
    let mut wire = Vec::new();
    for probe in probes {
        protocol::put_frame(&mut wire, &probe.body());
    }
    stream
        .write_all(&wire)
        .expect("the whole pipeline is written");
    probes
        .iter()
        .map(|probe| {
            let body = protocol::read_frame(&mut reader)
                .expect("an intact answer frame")
                .unwrap_or_else(|| panic!("connection closed before answering {probe:?}"));
            protocol::parse_response(&body).expect("the answer parses")
        })
        .collect()
}

/// The `stats()` identities, and agreement with what the client sent.
fn check_stats(stats: ServeStats, probes: &[Probe], replies: &[Response]) {
    let count = |f: fn(&Response) -> bool| replies.iter().filter(|r| f(r)).count() as u64;
    assert_eq!(stats.requests, probes.len() as u64);
    assert_eq!(stats.requests, stats.served + stats.shed + stats.malformed);
    assert_eq!((stats.shed, stats.errors), (0, 0));
    assert_eq!(
        stats.malformed,
        count(|r| matches!(r, Response::Malformed { .. }))
    );
    assert_eq!(stats.hits, count(|r| matches!(r, Response::Hit { .. })));
    assert_eq!(stats.misses, count(|r| matches!(r, Response::Miss { .. })));
}

#[test]
fn one_write_of_mixed_frames_is_answered_in_request_order() {
    let corpus = Corpus::new(128);
    let oracle = oracle(&corpus, 1);
    let daemon = ServeDaemon::spawn(corpus.image_v21(1)).expect("daemon spawns");
    let probes: Vec<Probe> = (0..64)
        .map(|i| match i {
            20 => Probe::Malformed,
            41 => Probe::Generation,
            _ => lookup(&corpus, i),
        })
        .collect();
    let replies = pipeline(&daemon, &probes);
    for (probe, resp) in probes.iter().zip(&replies) {
        check(&oracle, &corpus, *probe, resp);
    }
    let hits = replies
        .iter()
        .filter(|r| matches!(r, Response::Hit { .. }))
        .count();
    assert!(
        hits > 0 && hits < 62,
        "the pipeline mixes hits and misses: {hits}"
    );
    check_stats(daemon.stats(), &probes, &replies);
}

#[test]
fn a_framing_error_after_valid_frames_answers_them_first() {
    // An oversize length is only rejected once the frames before it are
    // answered and written; a zero length is rejected while their
    // answers are still buffered.
    let corpus = Corpus::new(64);
    let oracle = oracle(&corpus, 1);
    let daemon = ServeDaemon::spawn(corpus.image_v21(1)).expect("daemon spawns");
    let probes: Vec<Probe> = (0..5).map(|i| lookup(&corpus, i)).collect();
    for (round, bad_len) in [MAX_FRAME + 1, 0].into_iter().enumerate() {
        let (mut stream, mut reader) = connect(&daemon);
        let mut wire = Vec::new();
        for probe in &probes {
            protocol::put_frame(&mut wire, &probe.body());
        }
        wire.extend_from_slice(&bad_len.to_le_bytes());
        stream.write_all(&wire).expect("one write");

        for probe in &probes {
            let body = protocol::read_frame(&mut reader)
                .expect("an intact answer")
                .unwrap_or_else(|| panic!("length {bad_len}: {probe:?} unanswered"));
            let resp = protocol::parse_response(&body).expect("parses");
            check(&oracle, &corpus, *probe, &resp);
        }
        let body = protocol::read_frame(&mut reader)
            .expect("an intact answer")
            .expect("the framing error is answered");
        assert!(matches!(
            protocol::parse_response(&body),
            Ok(Response::Malformed { .. })
        ));
        assert!(
            matches!(protocol::read_frame(&mut reader), Ok(None)),
            "length {bad_len}: EOF follows the one MALFORMED"
        );

        let stats = daemon.stats();
        let rounds = round as u64 + 1;
        assert_eq!(stats.requests, 6 * rounds, "five frames and the bad prefix");
        assert_eq!((stats.served, stats.malformed), (5 * rounds, rounds));
        assert_eq!(stats.hits + stats.misses, 5 * rounds);
    }
}

#[test]
fn a_burst_written_before_reading_completes() {
    const BURST: usize = 4_096;
    let corpus = Corpus::new(256);
    let oracle = oracle(&corpus, 1);
    let daemon = ServeDaemon::spawn(corpus.image_v21(1)).expect("daemon spawns");
    let probes: Vec<Probe> = (0..BURST).map(|i| lookup(&corpus, i)).collect();
    let replies = pipeline(&daemon, &probes);
    assert_eq!(replies.len(), BURST);
    for (probe, resp) in probes.iter().zip(&replies) {
        check(&oracle, &corpus, *probe, resp);
    }
    check_stats(daemon.stats(), &probes, &replies);
}
