//! The daemon's `serve.*` metrics after a pipelined run. The metric
//! registry is process-wide, so this file holds one test and no other
//! test shares its process.

use routergeo_obs::check;
use routergeo_serve::corpus::Corpus;
use routergeo_serve::daemon::ServeDaemon;
use routergeo_serve::live::ServeClient;
use routergeo_serve::protocol::{self, Request, Response, MAX_FRAME};
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, TcpStream};
use std::time::Duration;

/// The daemon's metrics in the order it registers them at spawn.
const SERVE_METRICS: [&str; 10] = [
    "serve.requests",
    "serve.served",
    "serve.shed",
    "serve.malformed",
    "serve.lookups",
    "serve.hits",
    "serve.misses",
    "serve.lookup_errors",
    "serve.swaps",
    "serve.latency_us",
];

/// Names of the `serve.*` counters and histograms in a trace, in render
/// (registration) order.
fn serve_metrics(trace: &str) -> Vec<String> {
    trace
        .lines()
        .filter(|l| l.contains("\"type\":\"counter\"") || l.contains("\"type\":\"histogram\""))
        .filter_map(|l| {
            let name = l.split("\"name\":\"").nth(1)?.split('"').next()?;
            name.starts_with("serve.").then(|| name.to_string())
        })
        .collect()
}

#[test]
fn a_pipelined_run_times_every_answered_frame_and_keeps_the_identities() {
    let corpus = Corpus::new(128);
    let mut daemon = ServeDaemon::spawn(corpus.image_v21(1)).expect("daemon spawns");
    assert_eq!(
        serve_metrics(&routergeo_obs::render_jsonl()),
        SERVE_METRICS,
        "every handle is registered at spawn, before any request"
    );

    // Pipelined windows of hits, misses and generation probes, with a
    // swap halfway.
    let mut client = ServeClient::connect(daemon.addr()).expect("client connects");
    let mut intact = 0u64;
    for w in 0..8usize {
        let window: Vec<Request> = (0..32usize)
            .map(|j| match j {
                5 => Request::Generation,
                j if j % 3 == 0 => Request::Lookup(Ipv4Addr::new(200, 0, 0, 1)),
                j => Request::Lookup(corpus.hit_addr(w * 32 + j)),
            })
            .collect();
        let replies = client.pipeline(&window).expect("the window is answered");
        assert_eq!(replies.len(), window.len());
        intact += 32;
        if w == 3 {
            assert!(daemon.hot_swap(corpus.image_v21(2)).expect("swap").drained);
        }
    }
    drop(client);

    // One window of malformed bodies and a lookup, closed by a framing
    // error: three intact frames answered, then MALFORMED and EOF.
    let mut stream =
        TcpStream::connect_timeout(&daemon.addr(), Duration::from_secs(2)).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read deadline");
    let mut wire = Vec::new();
    protocol::put_frame(&mut wire, &[0xEE]);
    protocol::put_frame(
        &mut wire,
        &protocol::encode_request(&Request::Lookup(corpus.hit_addr(0))),
    );
    protocol::put_frame(&mut wire, &[protocol::OP_LOOKUP, 1, 2]);
    wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    stream.write_all(&wire).expect("one write");
    let mut reader = BufReader::new(&stream);
    let mut answers = Vec::new();
    while let Some(body) = protocol::read_frame(&mut reader).expect("intact answers") {
        answers.push(protocol::parse_response(&body).expect("parses"));
    }
    assert!(matches!(
        answers.as_slice(),
        [
            Response::Malformed { .. },
            Response::Hit { generation: 2, .. },
            Response::Malformed { .. },
            Response::Malformed { .. },
        ]
    ));
    intact += 3;
    drop(reader);
    drop(stream);

    // Shutdown joins the workers, so every latency sample is in.
    assert_eq!(daemon.shutdown(), 0);
    let stats = daemon.stats();
    assert_eq!(stats.requests, intact + 1, "the framing error is a request");
    assert_eq!(
        routergeo_obs::histogram("serve.latency_us").count(),
        intact,
        "one latency sample per answered intact frame"
    );

    let trace = routergeo_obs::render_jsonl();
    let report = check::parse(&trace).expect("the trace parses");
    assert_eq!(check::verify(&report), Vec::<String>::new());
    assert_eq!(serve_metrics(&trace), SERVE_METRICS);
    let total = |name: &str| {
        u64::try_from(report.counter(name).expect("registered")).expect("non-negative")
    };
    assert_eq!(total("serve.requests"), stats.requests);
    assert_eq!(total("serve.served"), stats.served);
    assert_eq!(total("serve.malformed"), stats.malformed);
    assert_eq!(total("serve.hits"), stats.hits);
    assert_eq!(total("serve.misses"), stats.misses);
    assert_eq!(total("serve.lookups"), stats.hits + stats.misses);
    assert_eq!(total("serve.swaps"), 1);
    assert_eq!((stats.shed, stats.errors), (0, 0));
}
