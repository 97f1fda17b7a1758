//! TCP bulk whois server.
//!
//! Protocol (the netcat-style interface Team Cymru documents):
//!
//! ```text
//! client: begin
//! client: verbose          (optional)
//! client: 6.1.2.3
//! client: 31.0.0.9
//! client: end
//! server: Bulk mode; whois.routergeo.test [synthetic]
//! server: 1007 | 6.1.2.3 | 6.1.2.0/24 | US | arin
//! server: 1012 | 31.0.0.9 | 31.0.0.0/24 | DE | ripencc
//! ```
//!
//! Connections are served by a **bounded worker pool** fed through a
//! bounded queue: when both are saturated the server answers
//! `Error: busy` and closes instead of spawning without limit, so load
//! shedding is explicit and clients can back off. Every connection
//! carries read/write deadlines — a client that sends `begin` and then
//! stalls is dropped when its read deadline fires, it cannot pin a
//! worker forever. [`WhoisServer::shutdown`] drains in flight
//! connections (bounded wait) and reports how many leaked.

use crate::client::{read_line_bounded, LineRead, MAX_LINE};
use crate::MappingService;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum addresses accepted per bulk request (protocol hygiene: a
/// misbehaving client cannot hold a worker forever).
pub const MAX_BULK: usize = 100_000;

/// Worker-pool sizing and per-connection deadlines.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub max_workers: usize,
    /// Accepted connections that may wait for a worker; beyond this the
    /// server sheds load with `Error: busy`.
    pub queue_depth: usize,
    /// Per-connection read deadline (per line, not per request).
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_workers: 16,
            queue_depth: 32,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Handle to a running whois server.
pub struct WhoisServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl WhoisServer {
    /// Bind to `127.0.0.1:0` (ephemeral port) and serve the given
    /// mapping with [`ServerConfig::default`] pool sizing.
    pub fn spawn(service: Arc<MappingService>) -> std::io::Result<WhoisServer> {
        WhoisServer::spawn_with(service, ServerConfig::default())
    }

    /// Bind to `127.0.0.1:0` and serve with explicit pool sizing and
    /// deadlines. The service runs until [`WhoisServer::shutdown`] or
    /// drop.
    pub fn spawn_with(
        service: Arc<MappingService>,
        config: ServerConfig,
    ) -> std::io::Result<WhoisServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..config.max_workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let svc = Arc::clone(&service);
                let counter = Arc::clone(&active);
                let config = config.clone();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "long-lived I/O workers, not data-parallel fan-out"
                )]
                std::thread::spawn(move || worker_loop(&rx, &svc, &counter, &config))
            })
            .collect();

        let stop2 = Arc::clone(&stop);
        let active2 = Arc::clone(&active);
        let write_timeout = config.write_timeout;
        #[expect(
            clippy::disallowed_methods,
            reason = "accept loop must outlive this call; pool shards are scoped"
        )]
        let accept_thread = std::thread::spawn(move || {
            // `tx` lives in this closure: when the accept loop exits the
            // sender drops, workers see `recv` fail and drain out.
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                active2.fetch_add(1, Ordering::SeqCst);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) | Err(TrySendError::Disconnected(stream)) => {
                        // Pool and queue saturated: shed load explicitly
                        // rather than queueing without bound.
                        reject_busy(stream, write_timeout);
                        active2.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        });
        Ok(WhoisServer {
            addr,
            stop,
            active,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address to connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight connections (bounded wait), and
    /// join the pool. Returns the number of connections still active
    /// when the drain deadline expired — 0 on a clean shutdown.
    pub fn shutdown(&mut self) -> usize {
        if self.accept_thread.is_none() {
            return 0;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept (deadline-bounded like every other
        // connect in the workspace).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Drain in-flight connections (bounded wait).
        let mut leaked = self.active.load(Ordering::SeqCst);
        for _ in 0..200 {
            if leaked == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
            leaked = self.active.load(Ordering::SeqCst);
        }
        if leaked == 0 {
            // The sender dropped with the accept thread, so idle workers
            // exit as soon as the queue is empty.
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        } else {
            // Leaked connections still hold workers; detach rather than
            // hang the caller, and report the leak.
            self.workers.clear();
        }
        leaked
    }
}

impl Drop for WhoisServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answer `Error: busy` (deadline-bounded) and close.
fn reject_busy(stream: TcpStream, write_timeout: Duration) {
    // Bound the whole rejection so a stalling client cannot wedge the
    // accept loop.
    let deadline = write_timeout.min(Duration::from_secs(1));
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(deadline));
    let _ = stream.set_read_timeout(Some(deadline));
    let _ = stream.write_all(b"Error: busy\n");
    // Drain the client's request before closing: closing with unread
    // bytes in the receive buffer makes the kernel answer with RST,
    // which can destroy the busy line in flight.
    let mut sink = [0u8; 512];
    loop {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Pool worker: serve queued connections until the sender drops.
fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    service: &MappingService,
    active: &AtomicUsize,
    config: &ServerConfig,
) {
    loop {
        let conn = {
            let Ok(guard) = rx.lock() else { return };
            // xtask-allow: RG011 the workers share one Receiver; blocking in recv with the dispatch lock held IS the handoff protocol
            guard.recv()
        };
        let Ok(stream) = conn else { return };
        // A failed connection is the client's problem; the worker keeps
        // serving.
        // xtask-allow: RG012 per-connection I/O errors are expected churn; the worker loop must outlive them
        let _ = handle_connection(stream, service, config);
        active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Read and discard the rest of a shed client's request, up to a fixed
/// cap — closing with unread bytes in the receive buffer makes the
/// kernel answer RST, which can destroy the error line in flight. The
/// cap keeps a truly endless client from pinning the worker; past it
/// the RST is accepted as the lesser evil.
fn drain_bounded<R: std::io::Read>(r: &mut R) {
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

fn handle_connection(
    stream: TcpStream,
    service: &MappingService,
    config: &ServerConfig,
) -> std::io::Result<()> {
    // Deadlines first: a stalled client is dropped when the next line
    // read exceeds `read_timeout`, freeing the worker.
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    let peer = stream.try_clone()?;
    let mut reader = BufReader::new(peer);
    let mut writer = BufWriter::new(stream);

    // Every request line goes through the bounded reader: a client
    // streaming one endless line is shed at `MAX_LINE` bytes instead of
    // growing the line buffer until the process dies.
    let mut raw = Vec::new();

    // Expect `begin`.
    match read_line_bounded(&mut reader, &mut raw)? {
        LineRead::Eof | LineRead::Line => {}
        LineRead::TooLong => {
            writeln!(writer, "Error: line exceeds {MAX_LINE} bytes")?;
            writer.flush()?;
            drain_bounded(&mut reader);
            return Ok(());
        }
    }
    if String::from_utf8_lossy(&raw).trim() != "begin" {
        writeln!(writer, "Error: expected 'begin'")?;
        return writer.flush();
    }

    writeln!(writer, "Bulk mode; whois.routergeo.test [synthetic]")?;

    let mut count = 0usize;
    loop {
        match read_line_bounded(&mut reader, &mut raw)? {
            LineRead::Eof => break, // client hung up
            LineRead::TooLong => {
                writeln!(writer, "Error: line exceeds {MAX_LINE} bytes")?;
                writer.flush()?;
                drain_bounded(&mut reader);
                return Ok(());
            }
            LineRead::Line => {}
        }
        let line = String::from_utf8_lossy(&raw);
        let trimmed = line.trim();
        if trimmed == "end" {
            break;
        }
        if trimmed.is_empty() || trimmed == "verbose" {
            continue; // verbose changes nothing in the synthetic service
        }
        count += 1;
        if count > MAX_BULK {
            writeln!(writer, "Error: bulk limit exceeded")?;
            break;
        }
        match trimmed.parse::<std::net::Ipv4Addr>() {
            Ok(ip) => writeln!(writer, "{}", service.format_row(ip))?,
            Err(_) => writeln!(writer, "Error: bad address {trimmed:?}")?,
        }
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_world::{World, WorldConfig};
    use std::io::{BufRead, Read};

    fn server() -> (World, WhoisServer) {
        let w = World::generate(WorldConfig::tiny(141));
        let svc = Arc::new(MappingService::build(&w));
        let srv = WhoisServer::spawn(svc).expect("bind");
        (w, srv)
    }

    fn talk(addr: SocketAddr, input: &str) -> String {
        let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
        s.write_all(input.as_bytes()).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_bulk_queries() {
        let (w, mut srv) = server();
        let ip = w.interfaces[0].ip;
        let out = talk(srv.addr(), &format!("begin\nverbose\n{ip}\nend\n"));
        assert!(out.starts_with("Bulk mode;"), "{out}");
        assert!(out.contains(&ip.to_string()), "{out}");
        let info = w.block_info(ip).unwrap();
        assert!(out.contains(&info.rir.name().to_ascii_lowercase()), "{out}");
        assert_eq!(srv.shutdown(), 0);
    }

    #[test]
    fn rejects_missing_begin() {
        let (_, mut srv) = server();
        let out = talk(srv.addr(), "1.2.3.4\nend\n");
        assert!(out.starts_with("Error: expected 'begin'"), "{out}");
        srv.shutdown();
    }

    #[test]
    fn reports_bad_addresses_without_dying() {
        let (w, mut srv) = server();
        let ip = w.interfaces[0].ip;
        let out = talk(srv.addr(), &format!("begin\nnot-an-ip\n{ip}\nend\n"));
        assert!(out.contains("Error: bad address"), "{out}");
        assert!(out.contains(&ip.to_string()), "{out}");
        srv.shutdown();
    }

    #[test]
    fn endless_line_is_shed_not_buffered() {
        // A client streaming one line forever must be cut off at the
        // line cap, not buffered into memory until the process dies.
        let (_, mut srv) = server();
        let mut s = TcpStream::connect_timeout(&srv.addr(), Duration::from_secs(5)).unwrap();
        s.write_all(b"begin\n").unwrap();
        let garbage = vec![b'a'; MAX_LINE * 4];
        s.write_all(&garbage).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("Bulk mode;"), "{out}");
        assert!(out.contains("Error: line exceeds"), "{out}");
        assert_eq!(srv.shutdown(), 0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test needs concurrent clients, one thread each, against the server"
    )]
    fn handles_concurrent_clients() {
        let (w, mut srv) = server();
        let addr = srv.addr();
        let ips: Vec<_> = w.interfaces.iter().take(8).map(|i| i.ip).collect();
        let handles: Vec<_> = ips
            .iter()
            .map(|ip| {
                let ip = *ip;
                std::thread::spawn(move || talk(addr, &format!("begin\n{ip}\nend\n")))
            })
            .collect();
        for (h, ip) in handles.into_iter().zip(ips) {
            let out = h.join().unwrap();
            assert!(out.contains(&ip.to_string()), "{out}");
        }
        srv.shutdown();
    }

    #[test]
    fn sustains_thousands_of_sequential_connections() {
        // Regression test: worker threads must be reaped as connections
        // finish, not accumulated until shutdown (which exhausted memory
        // under benchmark load).
        let (w, mut srv) = server();
        let ip = w.interfaces[0].ip;
        let req = format!("begin\n{ip}\nend\n");
        for _ in 0..2_000 {
            let out = talk(srv.addr(), &req);
            assert!(out.contains(&ip.to_string()));
        }
        // All workers drained shortly after the last connection closes.
        for _ in 0..200 {
            if srv.active.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(srv.active.load(Ordering::SeqCst), 0);
        assert_eq!(srv.shutdown(), 0);
    }

    #[test]
    fn saturated_pool_sheds_load_with_busy() {
        // One worker, a one-slot queue, and no sleeps: every step waits
        // on bytes from the server.
        let w = World::generate(WorldConfig::tiny(142));
        let svc = Arc::new(MappingService::build(&w));
        let ip = w.interfaces[0].ip;
        // Enough rows to overflow the worker's 8 KiB `BufWriter`, so the
        // banner reaches the client while the request is still open.
        let rows = 2 * 8 * 1024 / svc.format_row(ip).len();
        let config = ServerConfig {
            max_workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        };
        let mut srv = WhoisServer::spawn_with(svc, config).expect("bind");

        // Hold the only worker: `begin` and the rows, but no `end`. The
        // banner arrives only once the worker has taken the connection.
        let mut held = TcpStream::connect_timeout(&srv.addr(), Duration::from_secs(2)).unwrap();
        held.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let request = format!("begin\n{}", format!("{ip}\n").repeat(rows));
        held.write_all(request.as_bytes()).unwrap();
        let mut held_out = BufReader::new(held.try_clone().unwrap());
        let mut banner = String::new();
        held_out.read_line(&mut banner).unwrap();
        assert!(banner.starts_with("Bulk mode;"), "{banner}");

        // Accepted in order: this one takes the queue slot...
        let mut queued = TcpStream::connect_timeout(&srv.addr(), Duration::from_secs(2)).unwrap();
        queued
            .write_all(format!("begin\n{ip}\nend\n").as_bytes())
            .unwrap();
        queued.shutdown(std::net::Shutdown::Write).unwrap();
        // ...and this one finds the queue full.
        let out = talk(srv.addr(), &format!("begin\n{ip}\nend\n"));
        assert!(out.starts_with("Error: busy"), "{out}");

        // Release the worker; the queued request is served, and so is
        // the next one.
        held.write_all(b"end\n").unwrap();
        held.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = String::new();
        held_out.read_to_string(&mut rest).unwrap();
        assert_eq!(rest.lines().count(), rows, "rows after the banner");
        let mut out = String::new();
        queued.read_to_string(&mut out).unwrap();
        assert!(out.contains(&ip.to_string()), "{out}");
        let out = talk(srv.addr(), &format!("begin\n{ip}\nend\n"));
        assert!(out.contains(&ip.to_string()), "{out}");
        assert_eq!(srv.shutdown(), 0);
    }

    #[test]
    fn stalled_client_is_dropped_at_the_read_deadline() {
        let w = World::generate(WorldConfig::tiny(143));
        let svc = Arc::new(MappingService::build(&w));
        let config = ServerConfig {
            read_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let mut srv = WhoisServer::spawn_with(svc, config).expect("bind");
        // Send `begin` and stall: the server must hang up on us.
        let mut s = TcpStream::connect_timeout(&srv.addr(), Duration::from_secs(5)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"begin\n").unwrap();
        let mut out = String::new();
        // Banner arrives, then the connection closes at the deadline
        // instead of holding the worker forever.
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("Bulk mode;"), "{out}");
        assert_eq!(srv.shutdown(), 0);
    }

    #[test]
    fn shutdown_is_idempotent() {
        let (_, mut srv) = server();
        assert_eq!(srv.shutdown(), 0);
        assert_eq!(srv.shutdown(), 0);
    }
}
