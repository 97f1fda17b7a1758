//! `serve_zipf_swap`: the lookup daemon's request path.
//!
//! The daemon serves two RGDB v2.1 generations of
//! `Corpus::new(30_720)` with one worker. One TCP connection replays a
//! seeded `TrafficMix` (65% Zipf-hot lookups, 20% uniform cold lookups,
//! 10% malformed bodies, 5% generation probes): first a depth-1 closed
//! loop, then pipelined windows of 32, with the client thread calling
//! `hot_swap` (g1 <-> g2) between windows at a fixed request cadence.
//! Every answer is checked against an `InMemoryDb` over the corpus rows
//! of the generation the response carries.

use crate::{median, ms, peak_rss_mb, quantile, Fault, Latencies, Opts, Report, Size, TAIL};
use bytes::Bytes;
use routergeo_db::inmem::InMemoryDbBuilder;
use routergeo_db::rgdb2::Rgdb2Reader;
use routergeo_db::{GeoDatabase, InMemoryDb};
use routergeo_serve::protocol::{self, ProtoError, Request, Response};
use routergeo_serve::{Corpus, MixKind, MixWeights, ServeConfig, ServeDaemon, TrafficMix};
use std::hint::black_box;
use std::io::Cursor;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Corpus records per generation (the corpus's maximum).
pub const RECORDS: usize = 30_720;

/// Requests per pipelined window.
pub const WINDOW: usize = 32;

/// Sizes of one run.
struct Shape {
    records: usize,
    setups: usize,
    /// Minimum depth-1 requests.
    depth1: u64,
    /// Requests between hot swaps in the pipelined phase.
    swap_every: u64,
    /// Minimum hot swaps.
    swaps: u64,
    /// Depth-1 requests recorded with a span each in a traced run.
    traced: u64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            records: RECORDS,
            setups: 5,
            depth1: 100_000,
            swap_every: 8_192,
            swaps: 20,
            traced: 40_000,
        },
        Size::Tiny => Shape {
            records: 256,
            setups: 2,
            depth1: 2_000,
            swap_every: 256,
            swaps: 3,
            traced: 1_000,
        },
    }
}

/// The answer oracle of one corpus generation.
fn oracle(corpus: &Corpus, generation: u32) -> InMemoryDb {
    let mut b = InMemoryDbBuilder::new(format!("serve-corpus-g{generation}"));
    for k in 0..corpus.records() {
        b.push_prefix(corpus.prefix(k), corpus.record(generation, k));
    }
    b.build().expect("corpus prefixes are disjoint")
}

/// The daemon, the client connection and the two images.
struct Served {
    daemon: ServeDaemon,
    stream: TcpStream,
    images: [Bytes; 2],
    write_ms: f64,
}

/// Set-up: write both images, spawn the daemon on the first, connect.
/// Under [`Fault::WrongGeneration`] the daemon starts on the image of
/// the generation the client does not expect.
fn setup(corpus: &Corpus, fault: Fault) -> std::io::Result<Served> {
    let t0 = Instant::now();
    let images = {
        let _span = routergeo_obs::span("bench.write_v21", Vec::new());
        [corpus.image_v21(1), corpus.image_v21(2)]
    };
    let write_ms = ms(t0.elapsed());
    let first = usize::from(fault == Fault::WrongGeneration);
    let daemon = {
        let _span = routergeo_obs::span("bench.spawn", Vec::new());
        ServeDaemon::spawn_with(
            images[first].clone(),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .map_err(|e| std::io::Error::other(e.to_string()))?
    };
    let stream = TcpStream::connect_timeout(&daemon.addr(), Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    Ok(Served {
        daemon,
        stream,
        images,
        write_ms,
    })
}

/// One mix request, prepared before its clock starts.
struct Prepared {
    kind: MixKind,
    /// The parsed request, `None` for a malformed body.
    req: Option<Request>,
    /// The mix's body bytes (sent as-is when malformed).
    body: Bytes,
}

fn prepare(mix: &TrafficMix, i: u64) -> Prepared {
    let m = mix.request(i);
    Prepared {
        kind: m.kind,
        req: protocol::parse_request(&m.body).ok(),
        body: m.body,
    }
}

/// Encode (requests are re-encoded inside the clock, as a client
/// would) and write one request frame.
fn send(stream: &mut TcpStream, p: &Prepared) -> std::io::Result<()> {
    match &p.req {
        Some(req) => protocol::write_frame(stream, &protocol::encode_request(req)),
        None => protocol::write_frame(stream, &p.body),
    }
}

/// Read and parse one response frame, keeping its bytes.
fn recv(stream: &mut TcpStream) -> Result<(Bytes, Response), ProtoError> {
    match protocol::read_frame(stream)? {
        Some(body) => {
            let resp = protocol::parse_response(&body)?;
            Ok((body, resp))
        }
        None => Err(ProtoError::Malformed("daemon closed the connection")),
    }
}

/// The client's view of the run: which generation is live and what was
/// answered, for the checks and the comparison with `stats()`.
struct Client {
    /// Live daemon generation id.
    gen_id: u32,
    /// Corpus generation that id serves.
    corpus_gen: u32,
    oracles: [InMemoryDb; 2],
    sent: u64,
    malformed: u64,
    hits: u64,
    misses: u64,
    gens: u64,
}

impl Client {
    /// Check one reply; returns a description when it is wrong. Every
    /// reply that carries a generation must carry the live one, so the
    /// first reply after a swap carries the new generation.
    fn check(&mut self, p: &Prepared, resp: &Response) -> Option<String> {
        self.sent += 1;
        let want = self.gen_id;
        let oracle = &self.oracles[self.corpus_gen as usize - 1];
        match (&p.req, resp) {
            (None, Response::Malformed { .. }) => {
                self.malformed += 1;
                None
            }
            (Some(Request::Lookup(ip)), Response::Hit { generation, record }) => {
                self.hits += 1;
                let expect = oracle.lookup(*ip);
                (*generation != want || expect.as_ref() != Some(record))
                    .then(|| format!("{ip}: HIT g{generation} {record:?}, want g{want} {expect:?}"))
            }
            (Some(Request::Lookup(ip)), Response::Miss { generation }) => {
                self.misses += 1;
                let expect = oracle.lookup(*ip);
                (*generation != want || expect.is_some())
                    .then(|| format!("{ip}: MISS g{generation}, want g{want} {expect:?}"))
            }
            (
                Some(Request::Generation),
                Response::GenerationInfo {
                    generation, name, ..
                },
            ) => {
                self.gens += 1;
                (*generation != want || *name != oracle.name())
                    .then(|| format!("GEN g{generation} {name}, want g{want} {}", oracle.name()))
            }
            (req, resp) => Some(format!("{req:?} answered {resp:?}")),
        }
    }
}

/// One recorded depth-1 lookup, for the in-process replay.
struct Recorded {
    req: Request,
    req_body: Bytes,
    resp: Response,
    resp_body: Bytes,
    corpus_gen: u32,
}

/// What the measured phases produced.
#[derive(Default)]
struct Phases {
    /// Depth-1 lookup round trips: all, Zipf, cold.
    lat: Latencies,
    zipf: Latencies,
    cold: Latencies,
    /// Pipelined windows (ms) and the HIT/MISS answers they carried.
    windows: Vec<f64>,
    answers: u64,
    /// Hot swaps (ms), the standalone opens of their images (ms, traced
    /// runs only) and their drain polls.
    swaps: Vec<f64>,
    opens: Vec<f64>,
    drain_polls: Vec<f64>,
    recorded: Vec<Recorded>,
}

/// The client side of one run: the daemon and its connection, the mix,
/// the client's tallies and the report its checks feed.
struct Traffic<'a> {
    served: Served,
    mix: TrafficMix,
    client: Client,
    report: &'a mut Report,
    /// Index of the next mix request.
    next: u64,
    shape: Shape,
    fault: Fault,
}

impl Traffic<'_> {
    fn check(&mut self, p: &Prepared, resp: &Response) {
        let bad = self.client.check(p, resp);
        (self.report).check(1, u64::from(bad.is_some()), || bad.unwrap_or_default());
    }

    /// Depth-1 closed loop until `until` has passed and at least `min`
    /// requests were sent. With `record`, each request gets a span and
    /// lookups are kept for the replay.
    fn depth1(
        &mut self,
        until: Duration,
        min: u64,
        record: bool,
        out: &mut Phases,
    ) -> Result<(), ProtoError> {
        let t_phase = Instant::now();
        let start = self.next;
        while self.next - start < min || (!record && t_phase.elapsed() < until) {
            let p = prepare(&self.mix, self.next);
            let t0 = Instant::now();
            let span = if record {
                let kind = format!("{:?}", p.kind);
                routergeo_obs::span!("bench.request", req = self.next, kind = kind)
            } else {
                routergeo_obs::SpanGuard::disabled()
            };
            send(&mut self.served.stream, &p)?;
            let (body, resp) = recv(&mut self.served.stream)?;
            drop(span);
            let rtt = t0.elapsed();
            self.next += 1;
            self.check(&p, &resp);
            if let Some(req @ Request::Lookup(_)) = p.req {
                out.lat.push(rtt);
                match p.kind {
                    MixKind::ZipfLookup => out.zipf.push(rtt),
                    _ => out.cold.push(rtt),
                }
                if record {
                    out.recorded.push(Recorded {
                        req,
                        req_body: protocol::encode_request(&req),
                        resp,
                        resp_body: body,
                        corpus_gen: self.client.corpus_gen,
                    });
                }
            }
        }
        Ok(())
    }

    /// Pipelined windows of [`WINDOW`] requests with a hot swap every
    /// `swap_every` requests, until `until` has passed and at least
    /// `swaps` swaps were made.
    fn pipelined(
        &mut self,
        until: Duration,
        traced: bool,
        out: &mut Phases,
    ) -> Result<(), ProtoError> {
        let t_phase = Instant::now();
        let mut since_swap = 0u64;
        while t_phase.elapsed() < until || (out.swaps.len() as u64) < self.shape.swaps {
            let window: Vec<Prepared> = (0..WINDOW as u64)
                .map(|j| prepare(&self.mix, self.next + j))
                .collect();
            let t0 = Instant::now();
            let span = routergeo_obs::span!("bench.window", first_req = self.next, depth = WINDOW);
            for p in &window {
                send(&mut self.served.stream, p)?;
            }
            let mut replies = Vec::with_capacity(WINDOW);
            for _ in 0..WINDOW {
                replies.push(recv(&mut self.served.stream)?.1);
            }
            drop(span);
            out.windows.push(ms(t0.elapsed()));
            self.next += WINDOW as u64;
            for (p, resp) in window.iter().zip(&replies) {
                if matches!(resp, Response::Hit { .. } | Response::Miss { .. }) {
                    out.answers += 1;
                }
                self.check(p, resp);
            }
            since_swap += WINDOW as u64;
            if since_swap >= self.shape.swap_every {
                since_swap = 0;
                self.swap(traced, out);
            }
        }
        Ok(())
    }

    /// Hot-swap to the other corpus generation (under
    /// [`Fault::WrongGeneration`], to the same one again).
    fn swap(&mut self, traced: bool, out: &mut Phases) {
        let client = &mut self.client;
        let next_gen = 3 - client.corpus_gen;
        let served_gen = if self.fault == Fault::WrongGeneration {
            client.corpus_gen
        } else {
            next_gen
        };
        let image = self.served.images[served_gen as usize - 1].clone();
        let _span = routergeo_obs::span!("bench.swap", to = next_gen);
        if traced {
            let t0 = Instant::now();
            let opened = {
                let _open = routergeo_obs::span("bench.open", Vec::new());
                Rgdb2Reader::open(image.clone())
            };
            out.opens.push(ms(t0.elapsed()));
            self.report.check(1, u64::from(opened.is_err()), || {
                format!("image g{served_gen} does not open: {opened:?}")
            });
        }
        let t0 = Instant::now();
        let swapped = {
            let _hot = routergeo_obs::span("bench.hot_swap", Vec::new());
            self.served.daemon.hot_swap(image)
        };
        out.swaps.push(ms(t0.elapsed()));
        let want = client.gen_id + 1;
        let bad = match &swapped {
            Ok(r) => {
                out.drain_polls.push(f64::from(r.drain_polls));
                r.new_generation != want || !r.drained
            }
            Err(_) => true,
        };
        self.report.check(1, u64::from(bad), || {
            format!("swap to g{want}: {swapped:?}")
        });
        client.gen_id = want;
        client.corpus_gen = next_gen;
    }
}

/// Time `f` over every recorded lookup, five times; the median
/// nanoseconds per lookup.
fn per_lookup(recorded: &[Recorded], name: &str, mut f: impl FnMut(&Recorded)) -> f64 {
    let _span = routergeo_obs::span!(name, requests = recorded.len());
    let mut reps = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        recorded.iter().for_each(&mut f);
        reps.push(t0.elapsed().as_secs_f64() * 1e9 / recorded.len().max(1) as f64);
    }
    median(&reps)
}

/// Replay the recorded request and response bytes through the functions
/// the daemon and the client call, timing each layer in-process and
/// checking that each reproduces what went over the wire.
fn replay(s: &Served, recorded: &[Recorded], report: &mut Report) -> f64 {
    let _span = routergeo_obs::span!("bench.replay", requests = recorded.len());
    let readers: Vec<Rgdb2Reader> = s
        .images
        .iter()
        .map(|img| Rgdb2Reader::open(img.clone()).expect("the corpus images validate"))
        .collect();
    let mut bad = 0u64;
    let n = recorded.len() as u64;

    let parse = per_lookup(recorded, "bench.replay.parse_request", |r| {
        let req = protocol::parse_request(black_box(&r.req_body));
        bad += u64::from(req.ok() != Some(r.req));
    });
    let lookup = per_lookup(recorded, "bench.replay.try_lookup", |r| {
        let Request::Lookup(ip) = r.req else { return };
        let got = readers[r.corpus_gen as usize - 1].try_lookup(black_box(ip));
        let same = match (&got, &r.resp) {
            (Ok(Some(a)), Response::Hit { record, .. }) => a == record,
            (Ok(None), Response::Miss { .. }) => true,
            _ => false,
        };
        bad += u64::from(!same);
    });
    let encode = per_lookup(recorded, "bench.replay.encode_response", |r| {
        let body = protocol::encode_response(black_box(&r.resp));
        bad += u64::from(body != r.resp_body);
    });
    let mut wire = Vec::with_capacity(1024);
    let frame = per_lookup(recorded, "bench.replay.frame", |r| {
        for body in [&r.req_body, &r.resp_body] {
            wire.clear();
            let wrote = protocol::write_frame(&mut wire, black_box(body));
            let read = protocol::read_frame(&mut Cursor::new(&wire));
            bad += u64::from(wrote.is_err() || !matches!(read, Ok(Some(b)) if b == *body));
        }
    });
    let client = per_lookup(recorded, "bench.replay.client", |r| {
        let req = protocol::encode_request(black_box(&r.req));
        let resp = protocol::parse_response(black_box(&r.resp_body));
        bad += u64::from(req != r.req_body || resp.ok().as_ref() != Some(&r.resp));
    });
    // The registry lookups the daemon makes for one lookup request; the
    // handles are not incremented, so the daemon's counters stay exact.
    let registry = per_lookup(recorded, "bench.replay.registry", |r| {
        black_box(routergeo_obs::counter("serve.requests"));
        black_box(routergeo_obs::counter("serve.served"));
        black_box(routergeo_obs::counter("serve.lookups"));
        black_box(routergeo_obs::counter(match r.resp {
            Response::Hit { .. } => "serve.hits",
            _ => "serve.misses",
        }));
        black_box(routergeo_obs::histogram("serve.latency_us"));
    });
    report.set("trace.proof_mismatches", bad as f64);
    report.check(n * 5 * 6, bad, || {
        "the in-process replay disagrees with the bytes on the wire".to_string()
    });
    report.set("serve.protocol.parse_request_ns", parse);
    report.set("db.rgdb2.try_lookup_ns", lookup);
    report.set("serve.protocol.encode_response_ns", encode);
    report.set("serve.protocol.frame_ns", frame);
    report.set("serve.protocol.client_ns", client);
    report.set("obs.registry_ns", registry);
    (parse + lookup + encode + frame + client + registry) / 1e3
}

/// Run `serve_zipf_swap`.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let shape = shape(opts.size);
    let corpus = Corpus::new(shape.records);
    report.fact("records", corpus.records());

    // Set-up: both images, spawn, connect; setup_s is the median.
    let mut setup_s = Vec::new();
    let mut write_ms = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..shape.setups {
        if let Some(mut old) = served.take() {
            drop(old.stream);
            old.daemon.shutdown();
        }
        let t0 = Instant::now();
        match setup(&corpus, opts.fault) {
            Ok(s) => {
                setup_s.push(t0.elapsed().as_secs_f64());
                write_ms.push(s.write_ms);
                served = Some(s);
            }
            Err(err) => {
                report.check(1, 1, || format!("set-up failed: {err}"));
                return report;
            }
        }
    }
    let s = served.expect("at least one set-up ran");
    report.fact("image_bytes", s.images[0].len());

    let budget = Duration::from_secs_f64(opts.seconds);
    let (min_depth1, min_traced) = (shape.depth1, shape.traced);
    let mut untraced = Phases::default();
    let mut traced = Phases::default();
    let mut traffic = Traffic {
        served: s,
        mix: TrafficMix::new(opts.seed, corpus, MixWeights::default(), 0),
        client: Client {
            gen_id: 1,
            corpus_gen: 1,
            oracles: [oracle(&corpus, 1), oracle(&corpus, 2)],
            sent: 0,
            malformed: 0,
            hits: 0,
            misses: 0,
            gens: 0,
        },
        report: &mut report,
        next: 0,
        shape,
        fault: opts.fault,
    };
    let outcome = (|| -> Result<(), ProtoError> {
        // Warm the connection, the daemon and both oracles.
        traffic.depth1(Duration::ZERO, 256, false, &mut Phases::default())?;
        if opts.trace {
            traffic.depth1(budget / 4, min_depth1 / 2, false, &mut untraced)?;
            routergeo_obs::enable();
            {
                let _span = routergeo_obs::span!("bench.phase", phase = "depth1");
                traffic.depth1(Duration::ZERO, min_traced, true, &mut traced)?;
            }
            let _span = routergeo_obs::span!("bench.phase", phase = "pipelined");
            traffic.pipelined(budget / 2, true, &mut traced)
        } else {
            traffic.depth1(budget / 2, min_depth1, false, &mut untraced)?;
            traffic.pipelined(budget / 2, false, &mut untraced)
        }
    })();
    let Traffic {
        served: mut s,
        client,
        ..
    } = traffic;
    if let Err(err) = outcome {
        report.check(1, 1, || format!("client i/o failed: {err}"));
    }

    // The daemon's accounting must balance and match the client's.
    let st = s.daemon.stats();
    let want = [
        (
            st.requests,
            st.served + st.shed + st.malformed,
            "requests = served + shed + malformed",
        ),
        (st.shed, 0, "shed"),
        (st.errors, 0, "errors"),
        (st.requests, client.sent, "requests vs client sent"),
        (st.malformed, client.malformed, "malformed vs client"),
        (st.hits, client.hits, "hits vs client"),
        (st.misses, client.misses, "misses vs client"),
        (
            st.served,
            client.hits + client.misses + client.gens,
            "served vs client",
        ),
        (st.swaps, u64::from(client.gen_id - 1), "swaps vs client"),
    ];
    for (got, expect, what) in want {
        report.check(1, u64::from(got != expect), || {
            format!("stats {what}: {got} != {expect}")
        });
    }
    let peak = peak_rss_mb();

    if opts.trace {
        let in_process_us = replay(&s, &traced.recorded, &mut report);
        let p50 = untraced.lat.quantile(0.5);
        report.set("serve.socket_us", p50 - in_process_us);
        report.set("serve.lookup_p50_us", p50);
        report.set("serve.lookup_p99_us", untraced.lat.quantile(0.99));
        report.set("serve.zipf_p50_us", untraced.zipf.quantile(0.5));
        report.set("serve.cold_p50_us", untraced.cold.quantile(0.5));
        for (name, v) in [
            ("serve.daemon.requests", st.requests),
            ("serve.daemon.served", st.served),
            ("serve.daemon.malformed", st.malformed),
            ("serve.daemon.hits", st.hits),
            ("serve.daemon.misses", st.misses),
            ("serve.daemon.shed", st.shed),
            ("serve.daemon.errors", st.errors),
            ("serve.daemon.swaps", st.swaps),
        ] {
            report.set(name, v as f64);
        }
        let open = median(&traced.opens);
        report.set("db.rgdb2.write_v21_ms", median(&write_ms));
        report.set("db.rgdb2.open_ms", open);
        report.set(
            "db.rgdb2.image_bytes",
            (s.images[0].len() + s.images[1].len()) as f64,
        );
        report.set("serve.swap.open_ms", open);
        report.set("serve.swap.drain_polls", median(&traced.drain_polls));
        report.set("serve.swap.rest_ms", median(&traced.swaps) - open);
        report.set("trace.pass_ms", p50 / 1e3);
        let (tail, traced_tail) = (untraced.lat.quantile(TAIL), traced.lat.quantile(TAIL));
        report.set("trace.overhead_pct", (traced_tail / tail - 1.0) * 100.0);
    }

    drop(s.stream);
    let still_active = s.daemon.shutdown();
    report.check(1, still_active as u64, || {
        "connections still active after shutdown".to_string()
    });

    if opts.trace {
        crate::finish_trace(opts, &mut report);
    } else {
        let window_ms = quantile(&untraced.windows, TAIL);
        let answers_per_window = untraced.answers as f64 / untraced.windows.len() as f64;
        report.set("setup_s", median(&setup_s));
        report.set("pass_ms", window_ms);
        report.set("lookups_per_s", answers_per_window / (window_ms / 1e3));
        report.set("lookup_p90_us", untraced.lat.quantile(TAIL));
        report.set("swap_ms", quantile(&untraced.swaps, TAIL));
        report.set("peak_rss_mb", peak);
        report.fact("depth1_lookups", untraced.lat.count());
        report.fact("depth1_p50_us", untraced.lat.quantile(0.5));
        report.fact("swaps", untraced.swaps.len());
    }
    report
}
