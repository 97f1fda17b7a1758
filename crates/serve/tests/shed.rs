//! Load shed at accept, on a real daemon: with its one worker held and
//! its one queue slot taken, the next connection gets exactly one
//! `BUSY` frame, and the queued connection is served once the worker
//! frees up. Every step waits on an answer, never on a sleep.

use std::net::TcpStream;
use std::time::Duration;

use routergeo_serve::corpus::Corpus;
use routergeo_serve::daemon::{ServeConfig, ServeDaemon};
use routergeo_serve::live::ServeClient;
use routergeo_serve::protocol::{self, ProtoError, Request, Response};

fn is_hit(answer: Result<Response, ProtoError>) -> bool {
    matches!(answer, Ok(Response::Hit { generation: 1, .. }))
}

#[test]
fn a_full_queue_sheds_one_busy_and_the_queued_peer_is_served() {
    let corpus = Corpus::new(64);
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let mut daemon = ServeDaemon::spawn_with(corpus.image_v21(1), config).expect("daemon spawns");
    let lookup = Request::Lookup(corpus.hit_addr(0));

    // Answered, so the worker now waits on this connection's next read.
    let mut held = ServeClient::connect(daemon.addr()).expect("connect");
    assert!(is_hit(held.request(&lookup)));
    // Accepted in order: this one takes the queue slot...
    let mut queued = ServeClient::connect(daemon.addr()).expect("connect");
    // ...and this one finds the queue full: one BUSY, then a clean close.
    let mut shed =
        TcpStream::connect_timeout(&daemon.addr(), Duration::from_secs(2)).expect("connect");
    shed.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read deadline");
    let busy = protocol::read_frame(&mut shed).expect("a whole frame");
    let busy = busy.map(|body| protocol::parse_response(&body));
    assert!(matches!(busy, Some(Ok(Response::Busy))), "{busy:?}");
    assert!(matches!(protocol::read_frame(&mut shed), Ok(None)));

    drop(held);
    assert!(is_hit(queued.request(&lookup)), "the queued peer is served");
    drop((queued, shed));
    assert_eq!(daemon.shutdown(), 0);
    let stats = daemon.stats();
    assert_eq!((stats.shed, stats.served, stats.malformed), (1, 2, 0));
    assert_eq!(
        stats.requests,
        stats.served + stats.shed + stats.malformed,
        "{stats:?}"
    );
}
