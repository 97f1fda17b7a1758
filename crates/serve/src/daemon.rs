//! The lookup daemon: bounded worker pool over hot-swappable RGDB
//! generations.
//!
//! The concurrency discipline is the bulk-whois server's, transplanted:
//! an accept thread `try_send`s connections into a bounded
//! `sync_channel`; overflow is an **explicit load shed** (one `BUSY`
//! frame, then a gentle close) rather than an unbounded backlog; every
//! connection carries read/write deadlines so a stalled peer can wedge
//! at most one worker for a bounded time.
//!
//! Generations: the live database is an `Arc<Generation>` behind an
//! `RwLock`. Lookups clone the `Arc` under a read lock held for
//! nanoseconds, then resolve against that pinned generation — a swap
//! mid-request is invisible to the request. [`ServeDaemon::hot_swap`]
//! opens and validates the next image on the caller's thread (release N
//! keeps serving while N+1 loads), flips the pointer under the write
//! lock, then drains: bounded polling until the old generation's
//! strong count falls to 1, i.e. every in-flight reader has finished.
//!
//! Connection I/O is coalesced: a worker reads frames through a
//! `BufReader` and appends each answer to one output buffer, which goes
//! out with a single write once the read buffer holds no further whole
//! frame, so a pipelined window that arrives whole costs one read and
//! one write. The generation is pinned per request, never across a
//! read, so a swap between windows drains at once.

use crate::protocol::{self, ProtoError, Request, Response};
use bytes::Bytes;
use routergeo_db::rgdb2::RgdbError;
use routergeo_db::{FileImage, Rgdb2Reader};
use routergeo_obs::{Counter, Histogram, Stopwatch};
use std::fmt;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Bytes a connection buffers in each direction: the capacity of its
/// read buffer, and the output size past which buffered answers are
/// written even while whole frames still wait to be read. It bounds a
/// worker's memory and keeps a long burst's answers flowing.
const IO_BUF: usize = 64 * 1024;

/// Tuning knobs for [`ServeDaemon::spawn_with`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded handoff queue depth; overflow is shed as `BUSY`.
    pub queue_depth: usize,
    /// Per-connection read deadline.
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
    /// Sleep between drain polls (swap and shutdown).
    pub drain_poll: Duration,
    /// Maximum drain polls before giving up.
    pub drain_polls_max: u32,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 16,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain_poll: Duration::from_millis(2),
            drain_polls_max: 500,
        }
    }
}

/// One immutable database generation: a validated RGDB reader plus the
/// monotonically increasing id responses carry.
pub struct Generation {
    id: u32,
    reader: Rgdb2Reader,
}

impl Generation {
    /// Generation id (1-based; each swap increments).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The underlying validated reader.
    pub fn reader(&self) -> &Rgdb2Reader {
        &self.reader
    }
}

/// Failures spawning or swapping the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket setup failed.
    Io(std::io::Error),
    /// The RGDB image did not validate.
    Db(RgdbError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(err) => write!(f, "serve i/o: {err}"),
            ServeError::Db(err) => write!(f, "serve db: {err}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> ServeError {
        ServeError::Io(err)
    }
}

impl From<RgdbError> for ServeError {
    fn from(err: RgdbError) -> ServeError {
        ServeError::Db(err)
    }
}

/// Outcome of one [`ServeDaemon::hot_swap`].
#[derive(Debug, Clone, Copy)]
pub struct SwapReport {
    /// Generation that was retired.
    pub old_generation: u32,
    /// Generation now live.
    pub new_generation: u32,
    /// Whether every in-flight reader of the old generation finished
    /// within the drain budget.
    pub drained: bool,
    /// Drain polls performed (0 = no reader was in flight).
    pub drain_polls: u32,
}

/// One accounted event: the daemon's own total, which
/// [`ServeDaemon::stats`] reads, and the process-wide `serve.*` counter
/// that traces render.
struct Tally {
    own: AtomicU64,
    global: Counter,
}

impl Tally {
    fn new(name: &str) -> Tally {
        Tally {
            own: AtomicU64::new(0),
            global: routergeo_obs::counter(name),
        }
    }

    fn incr(&self) {
        self.own.fetch_add(1, Ordering::Relaxed);
        self.global.incr();
    }

    fn get(&self) -> u64 {
        self.own.load(Ordering::Relaxed)
    }
}

/// The daemon's metric handles, resolved from the registry once at
/// spawn so a request never takes the registry lock.
struct Accounting {
    requests: Tally,
    served: Tally,
    shed: Tally,
    malformed: Tally,
    lookups: Counter,
    hits: Tally,
    misses: Tally,
    errors: Tally,
    swaps: Tally,
    latency_us: Histogram,
}

impl Accounting {
    /// Registers in field order (struct fields evaluate as written), so
    /// a trace renders the `serve.*` metrics in this order whichever
    /// request or swap comes first.
    fn register() -> Accounting {
        Accounting {
            requests: Tally::new("serve.requests"),
            served: Tally::new("serve.served"),
            shed: Tally::new("serve.shed"),
            malformed: Tally::new("serve.malformed"),
            lookups: routergeo_obs::counter("serve.lookups"),
            hits: Tally::new("serve.hits"),
            misses: Tally::new("serve.misses"),
            errors: Tally::new("serve.lookup_errors"),
            swaps: Tally::new("serve.swaps"),
            latency_us: routergeo_obs::histogram("serve.latency_us"),
        }
    }

    /// The daemon's own totals, read tally by tally.
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.get(),
            served: self.served.get(),
            shed: self.shed.get(),
            malformed: self.malformed.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            errors: self.errors.get(),
            swaps: self.swaps.get(),
        }
    }
}

/// Snapshot of the daemon's request accounting. The conservation law
/// `requests == served + shed + malformed` holds at rest (between
/// requests) — the same identity `cargo xtask obs-check` enforces on
/// the global `serve.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Frames (or shed connections) that entered accounting.
    pub requests: u64,
    /// Requests answered (hit, miss, generation info, or server error).
    pub served: u64,
    /// Connections shed at accept with `BUSY`.
    pub shed: u64,
    /// Frames rejected as malformed (framing or body).
    pub malformed: u64,
    /// Lookups that matched a prefix.
    pub hits: u64,
    /// Lookups no prefix covered.
    pub misses: u64,
    /// Lookups that failed server-side.
    pub errors: u64,
    /// Completed generation swaps.
    pub swaps: u64,
}

struct Shared {
    current: RwLock<Arc<Generation>>,
    next_gen: AtomicU32,
    acct: Accounting,
    stop: AtomicBool,
    active: AtomicUsize,
    config: ServeConfig,
}

impl Shared {
    /// State for a daemon whose generation 1 is `reader`.
    fn new(reader: Rgdb2Reader, config: ServeConfig) -> Shared {
        Shared {
            current: RwLock::new(Arc::new(Generation { id: 1, reader })),
            next_gen: AtomicU32::new(2),
            acct: Accounting::register(),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            config,
        }
    }

    /// Pin the live generation: clone the `Arc` under a read lock held
    /// only for the clone itself.
    fn generation(&self) -> Arc<Generation> {
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }
}

/// Handle to a running daemon. Dropping without [`ServeDaemon::shutdown`]
/// aborts the accept loop but does not wait for workers.
pub struct ServeDaemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeDaemon {
    /// Spawn with default tuning; `image` becomes generation 1.
    pub fn spawn(image: Bytes) -> Result<ServeDaemon, ServeError> {
        ServeDaemon::spawn_with(image, ServeConfig::default())
    }

    /// Spawn with generation 1 loaded straight from an on-disk image
    /// via [`FileImage`]: one allocation, no intermediate copy, and an
    /// attributed error if the file is unreadable or invalid.
    pub fn spawn_file(path: impl AsRef<Path>) -> Result<ServeDaemon, ServeError> {
        ServeDaemon::spawn(FileImage::load(path)?.into_bytes())
    }

    /// Validate `image`, bind `127.0.0.1:0`, and start the accept loop
    /// plus `config.workers` connection workers.
    pub fn spawn_with(image: Bytes, config: ServeConfig) -> Result<ServeDaemon, ServeError> {
        let reader = Rgdb2Reader::open(image)?;
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(reader, config.clone()));
        let (tx, rx) = sync_channel::<TcpStream>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "long-lived I/O workers, not data-parallel fan-out"
                )]
                std::thread::spawn(move || worker_loop(&rx, &shared))
            })
            .collect();
        let shared2 = Arc::clone(&shared);
        #[expect(
            clippy::disallowed_methods,
            reason = "accept loop must outlive this call; pool shards are scoped"
        )]
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if shared2.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => shed(stream, &shared2),
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
        });
        Ok(ServeDaemon {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Id of the generation currently serving.
    pub fn generation(&self) -> u32 {
        self.shared.generation().id
    }

    /// Snapshot the request accounting.
    pub fn stats(&self) -> ServeStats {
        self.shared.acct.snapshot()
    }

    /// Atomically replace the live generation with `image`.
    ///
    /// The new image is opened and validated **before** the flip, so the
    /// old generation serves uninterrupted while the new one loads, and
    /// a corrupt image never goes live. After the flip the call drains:
    /// bounded polling until no in-flight request still pins the old
    /// generation.
    pub fn hot_swap(&self, image: Bytes) -> Result<SwapReport, ServeError> {
        let reader = Rgdb2Reader::open(image)?;
        let id = self.shared.next_gen.fetch_add(1, Ordering::SeqCst);
        let fresh = Arc::new(Generation { id, reader });
        let mut guard = match self.shared.current.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let old = std::mem::replace(&mut *guard, fresh);
        drop(guard);
        self.shared.acct.swaps.incr();
        let mut polls = 0u32;
        while Arc::strong_count(&old) > 1 && polls < self.shared.config.drain_polls_max {
            std::thread::sleep(self.shared.config.drain_poll);
            polls += 1;
        }
        Ok(SwapReport {
            old_generation: old.id,
            new_generation: id,
            drained: Arc::strong_count(&old) == 1,
            drain_polls: polls,
        })
    }

    /// [`ServeDaemon::hot_swap`] from an on-disk image via
    /// [`FileImage`]. The file is read and validated before the flip,
    /// so an unreadable path or corrupt file leaves the current
    /// generation serving untouched.
    pub fn hot_swap_file(&self, path: impl AsRef<Path>) -> Result<SwapReport, ServeError> {
        self.hot_swap(FileImage::load(path)?.into_bytes())
    }

    /// Stop accepting, join workers, and report connections still active
    /// after the bounded drain (0 in a healthy shutdown).
    pub fn shutdown(&mut self) -> usize {
        if self.accept.is_none() {
            return 0;
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        // Nudge the blocked accept() so the loop observes `stop`.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // The accept thread owned the only sender; workers drain the
        // queue then see Disconnected and exit.
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        let mut polls = 0u32;
        while self.shared.active.load(Ordering::SeqCst) > 0
            && polls < self.shared.config.drain_polls_max
        {
            std::thread::sleep(self.shared.config.drain_poll);
            polls += 1;
        }
        self.shared.active.load(Ordering::SeqCst)
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, shared: &Arc<Shared>) {
    loop {
        let stream = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // xtask-allow: RG011 the workers share one Receiver; blocking in recv with the dispatch lock held IS the handoff protocol
            match guard.recv() {
                Ok(stream) => stream,
                Err(_) => return,
            }
        };
        shared.active.fetch_add(1, Ordering::SeqCst);
        // xtask-allow: RG012 per-connection I/O errors are expected churn; the worker loop must outlive them
        let _ = handle_connection(stream, shared);
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Shed one connection at accept: one `BUSY` frame, gentle close. The
/// whole rejection is deadline-bounded so a stalling client cannot
/// wedge the accept loop.
fn shed(mut stream: TcpStream, shared: &Shared) {
    shared.acct.requests.incr();
    shared.acct.shed.incr();
    let deadline = shared.config.write_timeout.min(Duration::from_secs(1));
    let _ = stream.set_write_timeout(Some(deadline));
    let _ = stream.set_read_timeout(Some(deadline));
    let _ = protocol::write_frame(&mut stream, &protocol::encode_response(&Response::Busy));
    // Drain before closing: closing with unread bytes in the receive
    // buffer makes the kernel answer with RST, which can destroy the
    // BUSY frame in flight.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    drain_bounded(&mut stream);
}

/// Swallow at most 1 MiB of a peer's pending bytes so close does not RST.
fn drain_bounded<R: Read>(r: &mut R) {
    const DRAIN_CAP: usize = 1 << 20;
    let mut sink = [0u8; 4096];
    let mut seen = 0usize;
    while seen < DRAIN_CAP {
        match r.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => seen += n,
        }
    }
}

fn framing_reason(err: &ProtoError) -> &'static str {
    match err {
        ProtoError::FrameTooLarge(_) => "frame exceeds size cap",
        ProtoError::EmptyFrame => "zero-length frame",
        ProtoError::Malformed(why) => why,
        ProtoError::Io(_) => "read failed inside frame",
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(shared.config.read_timeout))?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    // Every write ends with the answer the peer waits for before it
    // sends more; without this, Nagle holds a write back until the
    // previous one is ACKed and delayed ACK turns every round trip into
    // ~40ms on loopback.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::with_capacity(IO_BUF, &stream);
    if serve_frames(&mut reader, &mut &stream, shared)? == Close::Framing {
        // The MALFORMED answer is out. Drain before closing: closing
        // with unread bytes makes the kernel answer with RST, which can
        // destroy it in flight.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        drain_bounded(&mut reader);
    }
    Ok(())
}

/// How a connection's frame loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Close {
    /// The peer closed at a frame boundary.
    Eof,
    /// The daemon is stopping.
    Stop,
    /// A framing error was answered with `MALFORMED`; framing can no
    /// longer be trusted, so the caller closes the connection.
    Framing,
}

/// Answers buffered for the connection's next write, with the stopwatch
/// of each answer `serve.latency_us` times.
#[derive(Default)]
struct Pending {
    bytes: Vec<u8>,
    started: Vec<Stopwatch>,
}

impl Pending {
    fn push(&mut self, resp: &Response, started: Option<Stopwatch>) {
        protocol::put_frame(&mut self.bytes, &protocol::encode_response(resp));
        self.started.extend(started);
    }

    /// Send every buffered answer with one write, then record each
    /// timed answer's latency: the write carrying it has returned.
    fn flush(&mut self, out: &mut impl Write, latency_us: &Histogram) -> std::io::Result<()> {
        if self.bytes.is_empty() {
            return Ok(());
        }
        out.write_all(&self.bytes)?;
        out.flush()?;
        self.bytes.clear();
        for started in self.started.drain(..) {
            latency_us.record(started.elapsed_us());
        }
        Ok(())
    }
}

/// The frame loop of one connection: answer the frames `reader` yields,
/// in order, into `out`, until clean EOF, a framing error, or stop.
///
/// Frames come only from [`protocol::read_frame`]. Answers are appended,
/// length-prefixed, to one buffer that goes out with a single write
/// when `reader` holds no further whole frame (so before any read that
/// could block: the peer may be waiting for these answers before it
/// sends more), when the buffer passes [`IO_BUF`], and before every
/// return. Each request pins the generation inside [`respond`], so no
/// pin outlives its request or is held across a read.
fn serve_frames<R: Read, W: Write>(
    reader: &mut BufReader<R>,
    out: &mut W,
    shared: &Shared,
) -> std::io::Result<Close> {
    let latency_us = &shared.acct.latency_us;
    let mut pending = Pending::default();
    let close = loop {
        if shared.stop.load(Ordering::SeqCst) {
            break Close::Stop;
        }
        if !protocol::holds_frame(reader.buffer()) || pending.bytes.len() >= IO_BUF {
            pending.flush(out, latency_us)?;
        }
        match protocol::read_frame(reader) {
            Ok(Some(body)) => {
                let started = routergeo_obs::stopwatch();
                pending.push(&respond(&body, shared), Some(started));
            }
            Ok(None) => break Close::Eof,
            // The peer vanished mid-frame. Only a read that reached the
            // transport can fail, and those start after a flush.
            Err(ProtoError::Io(err)) => return Err(err),
            Err(err) => {
                shared.acct.requests.incr();
                shared.acct.malformed.incr();
                let resp = Response::Malformed {
                    reason: framing_reason(&err).to_string(),
                };
                pending.push(&resp, None);
                break Close::Framing;
            }
        }
    };
    pending.flush(out, latency_us)?;
    Ok(close)
}

/// Run one in-memory connection whose peer sent `wire` through
/// [`serve_frames`], against a fresh daemon state whose generation 1 is
/// `reader`: the daemon's accounting afterwards, and every answer byte
/// it wrote.
pub(crate) fn replay(reader: Rgdb2Reader, wire: &[u8]) -> std::io::Result<(ServeStats, Vec<u8>)> {
    let shared = Shared::new(reader, ServeConfig::default());
    let mut answers = Vec::new();
    serve_frames(
        &mut BufReader::with_capacity(IO_BUF, wire),
        &mut answers,
        &shared,
    )?;
    Ok((shared.acct.snapshot(), answers))
}

/// Answer one intact frame. Body-level nonsense gets a `MALFORMED`
/// response but keeps the connection: framing is still synchronized.
fn respond(body: &[u8], shared: &Shared) -> Response {
    let acct = &shared.acct;
    acct.requests.incr();
    match protocol::parse_request(body) {
        Err(err) => {
            acct.malformed.incr();
            Response::Malformed {
                reason: framing_reason(&err).to_string(),
            }
        }
        Ok(Request::Generation) => {
            acct.served.incr();
            let generation = shared.generation();
            Response::GenerationInfo {
                generation: generation.id,
                record_count: generation.reader.record_count(),
                name: generation.reader.name().to_string(),
            }
        }
        Ok(Request::Lookup(ip)) => {
            // Pin the generation for the whole request: a swap between
            // the lookup and the response cannot mix generations.
            let generation = shared.generation();
            acct.served.incr();
            acct.lookups.incr();
            match generation.reader.try_lookup(ip) {
                Ok(Some(record)) => {
                    acct.hits.incr();
                    Response::Hit {
                        generation: generation.id,
                        record,
                    }
                }
                Ok(None) => {
                    acct.misses.incr();
                    Response::Miss {
                        generation: generation.id,
                    }
                }
                Err(err) => {
                    acct.errors.incr();
                    Response::ServerError {
                        generation: generation.id,
                        reason: err.to_string(),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::mix::{MixWeights, TrafficMix};
    use std::cell::RefCell;
    use std::io::Cursor;

    fn shared() -> Shared {
        let image = Corpus::new(64).image_v21(1);
        let reader = Rgdb2Reader::open(image).expect("corpus image validates");
        Shared::new(reader, ServeConfig::default())
    }

    /// Bodies of the first `n` requests of a seeded traffic mix: hits,
    /// cold lookups, malformed bodies and generation probes.
    fn mix_bodies(seed: u64, n: u64) -> Vec<Bytes> {
        let mix = TrafficMix::new(seed, Corpus::new(64), MixWeights::default(), 0);
        (0..n).map(|i| mix.request(i).body).collect()
    }

    fn frames(bodies: &[Bytes]) -> Vec<u8> {
        let mut wire = Vec::new();
        for body in bodies {
            protocol::put_frame(&mut wire, body);
        }
        wire
    }

    /// End offsets of the whole frames `bytes` starts with.
    fn frame_ends(bytes: &[u8]) -> Vec<usize> {
        let mut cursor = Cursor::new(bytes);
        let mut ends = Vec::new();
        while let Ok(Some(_)) = protocol::read_frame(&mut cursor) {
            ends.push(usize::try_from(cursor.position()).expect("in-memory offset"));
        }
        ends
    }

    /// What the daemon's side of an in-memory connection saw.
    #[derive(Default)]
    struct Log {
        output: Vec<u8>,
        /// Size of each `write` call.
        writes: Vec<usize>,
        /// Whole answer frames written so far.
        answers: usize,
        /// Transport reads, and those that started while an answer to a
        /// request already delivered had not been written.
        reads: usize,
        early_reads: usize,
    }

    /// The peer's request bytes, delivered in reads that never cross a
    /// cut.
    struct Feed<'a> {
        input: &'a [u8],
        cuts: Vec<usize>,
        request_ends: Vec<usize>,
        pos: usize,
        log: &'a RefCell<Log>,
    }

    impl Read for Feed<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let mut log = self.log.borrow_mut();
            log.reads += 1;
            let delivered = self.request_ends.partition_point(|&end| end <= self.pos);
            if log.answers < delivered {
                log.early_reads += 1;
            }
            let next_cut = self.cuts.partition_point(|&cut| cut <= self.pos);
            let stop = self.cuts.get(next_cut).copied().unwrap_or(self.input.len());
            let n = (stop - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    struct Sink<'a>(&'a RefCell<Log>);

    impl Write for Sink<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let ends = frame_ends(buf);
            assert_eq!(
                ends.last(),
                Some(&buf.len()),
                "a write carries whole answers"
            );
            let mut log = self.0.borrow_mut();
            log.writes.push(buf.len());
            log.answers += ends.len();
            log.output.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Run the frame loop over `input`, delivered in reads ending at
    /// `cuts` (and at the read buffer's capacity).
    fn run(shared: &Shared, input: &[u8], cuts: Vec<usize>) -> (Close, Log) {
        let log = RefCell::new(Log::default());
        let feed = Feed {
            input,
            cuts,
            request_ends: frame_ends(input),
            pos: 0,
            log: &log,
        };
        let mut reader = BufReader::with_capacity(IO_BUF, feed);
        let close = serve_frames(&mut reader, &mut Sink(&log), shared).expect("in-memory I/O");
        drop(reader);
        (close, log.into_inner())
    }

    #[test]
    fn a_pipelined_window_is_answered_with_one_write() {
        let input = frames(&mix_bodies(7, 32));
        let (close, log) = run(&shared(), &input, Vec::new());
        assert_eq!(close, Close::Eof);
        assert_eq!(log.answers, 32);
        assert_eq!(log.writes.len(), 1, "32 frames read at once, one write");
        assert_eq!(log.reads, 2, "one read for the window, one for EOF");
    }

    #[test]
    fn a_depth_one_exchange_gets_one_write_per_request() {
        // A depth-1 peer sends each request after the previous answer,
        // so every read holds exactly one frame.
        let input = frames(&mix_bodies(11, 50));
        let (close, log) = run(&shared(), &input, frame_ends(&input));
        assert_eq!(close, Close::Eof);
        assert_eq!((log.answers, log.writes.len()), (50, 50));
        assert_eq!(log.early_reads, 0);
    }

    #[test]
    fn every_fragmentation_gives_the_same_bytes_and_no_read_waits_on_an_answer() {
        let shared = shared();
        let bodies = mix_bodies(0x5EED, 200);
        let input = frames(&bodies);
        let mut expect = Vec::new();
        for body in &bodies {
            let resp = respond(body, &shared);
            protocol::put_frame(&mut expect, &protocol::encode_response(&resp));
        }
        for chunk in 1..=input.len() {
            let cuts = (chunk..input.len()).step_by(chunk).collect();
            let (close, log) = run(&shared, &input, cuts);
            assert_eq!(close, Close::Eof, "{chunk}-byte reads");
            assert_eq!(log.answers, 200, "{chunk}-byte reads");
            assert_eq!(
                log.early_reads, 0,
                "{chunk}-byte reads: a read began with an answer owed"
            );
            assert!(
                log.output == expect,
                "{chunk}-byte reads changed the output"
            );
        }
    }

    #[test]
    fn a_burst_past_the_output_cap_is_written_in_capped_pieces() {
        let input = frames(&mix_bodies(3, 4096));
        assert!(input.len() <= IO_BUF, "the burst fits one read");
        let (close, log) = run(&shared(), &input, Vec::new());
        assert_eq!(close, Close::Eof);
        assert_eq!(log.answers, 4096);
        assert_eq!(log.early_reads, 0);
        let (last, capped) = log.writes.split_last().expect("answers were written");
        assert!(
            !capped.is_empty(),
            "{} answer bytes, one write",
            log.output.len()
        );
        let max_frame = 4 + usize::try_from(protocol::MAX_FRAME).expect("small");
        for &size in capped {
            assert!(
                (IO_BUF..IO_BUF + max_frame).contains(&size),
                "{size}-byte write"
            );
        }
        assert!(*last < IO_BUF + max_frame);
    }
}
