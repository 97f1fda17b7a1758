//! `ChaosProxy` — a deterministic fault-injecting TCP proxy.
//!
//! The proxy sits between a client and an upstream server on loopback and
//! executes a scripted [`FaultPlan`]: connection `i` receives the plan's
//! `i`-th fault. Every fault is deterministic for a fixed plan and seed,
//! so a resilience test can assert *exact* retry counts and outcomes.
//!
//! Request/response framing follows the bulk-whois shape this workspace
//! exercises (client writes its whole request, then shuts down its write
//! half; the response streams back until EOF), which lets the proxy relay
//! sequentially without a second thread per connection.

use crate::clock::Clock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Relay buffer size; also the latency-injection chunk granularity.
const CHUNK: usize = 512;

/// Socket deadline used on the proxy's own sockets so a misbehaving peer
/// can never wedge a proxy worker.
const IO_DEADLINE: Duration = Duration::from_secs(5);

/// One scripted fault, applied to a single proxied connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Relay faithfully.
    PassThrough,
    /// Close the accepted connection immediately — the client observes a
    /// refusal-like failure before any protocol byte.
    Refuse,
    /// Accept and consume the request but never answer; the connection
    /// is held open for `hold` of real time — pick it larger than the
    /// client's read deadline so the client provably gives up first.
    AcceptSilence {
        /// How long to keep the silent connection open before closing.
        hold: Duration,
    },
    /// Relay the request, then forward only the first `n` response bytes
    /// before closing — a mid-stream truncation at byte `n`.
    TruncateAfter(usize),
    /// Relay faithfully but sleep `per_chunk` on the injected clock
    /// before forwarding each response chunk.
    Delay {
        /// Injected latency per relayed response chunk.
        per_chunk: Duration,
    },
    /// Relay the response but flip each byte with probability
    /// `rate_pct`/100, drawn from a generator seeded with `seed` — the
    /// corruption pattern is identical on every run.
    CorruptBytes {
        /// Percent of response bytes to corrupt (0–100).
        rate_pct: u8,
        /// RNG seed for the corruption pattern.
        seed: u64,
    },
    /// Consume the request, then FIN the client-facing socket without
    /// contacting the upstream at all.
    EarlyFin,
}

impl Fault {
    /// Short stable label for stats and debugging output.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::PassThrough => "pass-through",
            Fault::Refuse => "refuse",
            Fault::AcceptSilence { .. } => "accept-silence",
            Fault::TruncateAfter(_) => "truncate",
            Fault::Delay { .. } => "delay",
            Fault::CorruptBytes { .. } => "corrupt",
            Fault::EarlyFin => "early-fin",
        }
    }
}

/// How the scripted faults map onto the connection sequence.
#[derive(Debug, Clone)]
enum PlanMode {
    /// Connections beyond the script relay faithfully.
    SequenceThenPass,
    /// The script repeats forever.
    Cycle,
}

/// A scripted sequence of faults, indexed by accepted-connection order.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    mode: PlanMode,
}

impl FaultPlan {
    /// Relay every connection faithfully.
    pub fn pass_through() -> FaultPlan {
        FaultPlan::sequence(Vec::new())
    }

    /// Connection `i` gets `faults[i]`; connections past the end of the
    /// script relay faithfully. The natural shape for retry tests:
    /// `sequence(vec![Refuse])` fails the first attempt only.
    pub fn sequence(faults: Vec<Fault>) -> FaultPlan {
        FaultPlan {
            faults,
            mode: PlanMode::SequenceThenPass,
        }
    }

    /// Every connection gets the same fault.
    pub fn always(fault: Fault) -> FaultPlan {
        FaultPlan::cycle(vec![fault])
    }

    /// The script repeats forever: connection `i` gets
    /// `faults[i % len]`. `cycle(vec![Refuse, Refuse, PassThrough])`
    /// models a service failing two of every three connections.
    pub fn cycle(faults: Vec<Fault>) -> FaultPlan {
        FaultPlan {
            faults,
            mode: PlanMode::Cycle,
        }
    }

    fn for_conn(&self, idx: usize) -> Fault {
        if self.faults.is_empty() {
            return Fault::PassThrough;
        }
        match self.mode {
            PlanMode::SequenceThenPass => {
                self.faults.get(idx).cloned().unwrap_or(Fault::PassThrough)
            }
            PlanMode::Cycle => self.faults[idx % self.faults.len()].clone(),
        }
    }
}

/// Per-connection accounting, in accept order.
#[derive(Debug, Clone)]
pub struct ConnRecord {
    /// Label of the fault the connection was given.
    pub fault: &'static str,
    /// Request bytes relayed (or consumed) from the client.
    pub bytes_up: u64,
    /// Response bytes delivered to the client.
    pub bytes_down: u64,
    /// Latency injected on this connection (virtual under a `TestClock`).
    pub injected_delay: Duration,
}

/// Aggregated proxy observations, for test assertions.
#[derive(Debug, Clone, Default)]
pub struct ProxyStats {
    /// One record per accepted connection, in accept order.
    pub conns: Vec<ConnRecord>,
}

impl ProxyStats {
    /// Number of connections accepted.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Total latency injected across all connections.
    pub fn injected_delay(&self) -> Duration {
        self.conns.iter().map(|c| c.injected_delay).sum()
    }

    /// Fault labels in accept order — lets a scripted scenario assert
    /// that each connection received exactly the fault the plan
    /// assigned it (connection `i` → `plan[i]`).
    pub fn fault_labels(&self) -> Vec<&'static str> {
        self.conns.iter().map(|c| c.fault).collect()
    }
}

struct ProxyShared {
    upstream: SocketAddr,
    plan: FaultPlan,
    clock: Arc<dyn Clock>,
    stats: Mutex<ProxyStats>,
    active: AtomicUsize,
}

/// Handle to a running fault-injecting proxy.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<ProxyShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Bind `127.0.0.1:0` and start proxying to `upstream` under `plan`.
    /// Injected latency sleeps on `clock`, so a virtual clock makes delay
    /// faults free of wall time.
    pub fn spawn(
        upstream: SocketAddr,
        plan: FaultPlan,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(ProxyShared {
            upstream,
            plan,
            clock,
            stats: Mutex::new(ProxyStats::default()),
            active: AtomicUsize::new(0),
        });
        let stop2 = Arc::clone(&stop);
        let shared2 = Arc::clone(&shared);
        #[expect(
            clippy::disallowed_methods,
            reason = "accept loop must outlive this call; pool shards are scoped"
        )]
        let accept_thread = std::thread::spawn(move || {
            let mut idx = 0usize;
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let shared = Arc::clone(&shared2);
                let conn_idx = idx;
                idx += 1;
                shared.active.fetch_add(1, Ordering::SeqCst);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "per-connection chaos thread, detached by design"
                )]
                std::thread::spawn(move || {
                    let record = handle(stream, conn_idx, &shared);
                    if let Ok(mut stats) = shared.stats.lock() {
                        // Accept order can race between worker threads;
                        // index the slot explicitly.
                        if stats.conns.len() <= conn_idx {
                            stats.conns.resize(
                                conn_idx + 1,
                                ConnRecord {
                                    fault: "pending",
                                    bytes_up: 0,
                                    bytes_down: 0,
                                    injected_delay: Duration::ZERO,
                                },
                            );
                        }
                        stats.conns[conn_idx] = record;
                    }
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        Ok(ChaosProxy {
            addr,
            stop,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listening address — point the client here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the per-connection observations so far. A relay
    /// thread records its connection only after the client already has
    /// its answer, so the snapshot first waits, with the bound
    /// [`ChaosProxy::shutdown`] uses, for in-flight connections to
    /// finish.
    pub fn stats(&self) -> ProxyStats {
        self.wait_idle();
        self.shared
            .stats
            .lock()
            .map(|g| g.clone())
            .unwrap_or_default()
    }

    /// Poll until no relay thread is in flight, at most 200 polls of
    /// 5 ms. Returns the number still active.
    fn wait_idle(&self) -> usize {
        for _ in 0..200 {
            if self.shared.active.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Stop accepting, join the accept thread, and drain workers
    /// (bounded). Returns the number of still-active connections that
    /// could not be drained.
    pub fn shutdown(&mut self) -> usize {
        if self.accept_thread.is_none() {
            return 0;
        }
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.wait_idle()
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Consume the client's request until its write half closes, returning
/// the bytes read.
fn read_request(client: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; CHUNK];
    loop {
        match client.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
    Ok(buf)
}

fn handle(mut client: TcpStream, idx: usize, shared: &ProxyShared) -> ConnRecord {
    let fault = shared.plan.for_conn(idx);
    let mut record = ConnRecord {
        fault: fault.label(),
        bytes_up: 0,
        bytes_down: 0,
        injected_delay: Duration::ZERO,
    };
    let _ = client.set_read_timeout(Some(IO_DEADLINE));
    let _ = client.set_write_timeout(Some(IO_DEADLINE));

    match fault {
        Fault::Refuse => {
            // Closing without reading makes the kernel send RST on the
            // client's next interaction — a refusal-shaped failure.
            let _ = client.shutdown(Shutdown::Both);
        }
        Fault::AcceptSilence { hold } => {
            // Swallow the request, answer nothing, and keep the socket
            // open (bounded real hold) so the client's read deadline —
            // not an EOF — is what ends the attempt.
            if let Ok(req) = read_request(&mut client) {
                record.bytes_up = req.len() as u64;
            }
            std::thread::sleep(hold.min(IO_DEADLINE));
        }
        Fault::EarlyFin => {
            if let Ok(req) = read_request(&mut client) {
                record.bytes_up = req.len() as u64;
            }
            let _ = client.shutdown(Shutdown::Both);
        }
        Fault::PassThrough
        | Fault::TruncateAfter(_)
        | Fault::Delay { .. }
        | Fault::CorruptBytes { .. } => {
            // xtask-allow: RG012 a broken relay is an injected fault doing its job; the record still captures what moved
            let _ = relay(&mut client, &fault, shared, &mut record);
        }
    }
    record
}

/// Relay request upstream and stream the response back, applying the
/// response-path faults.
fn relay(
    client: &mut TcpStream,
    fault: &Fault,
    shared: &ProxyShared,
    record: &mut ConnRecord,
) -> std::io::Result<()> {
    let request = read_request(client)?;
    record.bytes_up = request.len() as u64;

    let mut upstream = TcpStream::connect_timeout(&shared.upstream, IO_DEADLINE)?;
    upstream.set_read_timeout(Some(IO_DEADLINE))?;
    upstream.set_write_timeout(Some(IO_DEADLINE))?;
    upstream.write_all(&request)?;
    upstream.shutdown(Shutdown::Write)?;

    let mut corrupt_rng = match fault {
        Fault::CorruptBytes { seed, .. } => Some(StdRng::seed_from_u64(*seed)),
        _ => None,
    };
    let truncate_at = match fault {
        Fault::TruncateAfter(n) => Some(*n),
        _ => None,
    };

    let mut forwarded = 0usize;
    let mut chunk = [0u8; CHUNK];
    loop {
        let n = match upstream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => return Err(e),
        };
        let mut slice = chunk[..n].to_vec();
        if let Fault::Delay { per_chunk } = fault {
            shared.clock.sleep(*per_chunk);
            record.injected_delay += *per_chunk;
        }
        if let (Some(rng), Fault::CorruptBytes { rate_pct, .. }) = (corrupt_rng.as_mut(), fault) {
            let rate = f64::from((*rate_pct).min(100)) / 100.0;
            for b in slice.iter_mut() {
                if rng.gen_bool(rate) {
                    *b ^= 0x55;
                }
            }
        }
        let take = match truncate_at {
            Some(limit) => limit.saturating_sub(forwarded).min(slice.len()),
            None => slice.len(),
        };
        if take > 0 {
            client.write_all(&slice[..take])?;
            record.bytes_down += take as u64;
            forwarded += take;
        }
        if truncate_at.is_some_and(|limit| forwarded >= limit) {
            let _ = client.shutdown(Shutdown::Both);
            return Ok(());
        }
    }
    client.flush()?;
    let _ = client.shutdown(Shutdown::Write);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SystemClock, TestClock};
    use std::time::Instant;

    /// A tiny upstream echo server: replies `echo: <request>` and closes.
    #[expect(
        clippy::disallowed_methods,
        reason = "the upstream peer serves the proxy under test from its own thread"
    )]
    fn echo_upstream() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind echo upstream");
        let addr = listener.local_addr().expect("local addr");
        let t = std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { break };
                let mut req = Vec::new();
                if s.read_to_end(&mut req).is_err() {
                    continue;
                }
                if req.is_empty() {
                    break; // shutdown nudge
                }
                let _ = s.write_all(b"echo: ");
                let _ = s.write_all(&req);
            }
        });
        (addr, t)
    }

    fn talk(addr: SocketAddr, req: &str) -> std::io::Result<String> {
        let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        s.set_read_timeout(Some(Duration::from_secs(2)))?;
        s.write_all(req.as_bytes())?;
        s.shutdown(Shutdown::Write)?;
        let mut out = String::new();
        s.read_to_string(&mut out)?;
        Ok(out)
    }

    fn stop_upstream(addr: SocketAddr, t: JoinHandle<()>) {
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
            .map(|s| s.shutdown(Shutdown::Both));
        let _ = t.join();
    }

    #[test]
    fn pass_through_is_transparent() {
        let (up, t) = echo_upstream();
        let mut proxy =
            ChaosProxy::spawn(up, FaultPlan::pass_through(), SystemClock::shared()).expect("spawn");
        let out = talk(proxy.addr(), "hello").expect("proxied round trip");
        assert_eq!(out, "echo: hello");
        let stats = proxy.stats();
        assert_eq!(stats.connections(), 1);
        assert_eq!(stats.conns[0].bytes_up, 5);
        assert_eq!(stats.conns[0].bytes_down, 11);
        assert_eq!(proxy.shutdown(), 0);
        stop_upstream(up, t);
    }

    #[test]
    fn sequence_applies_faults_in_connection_order() {
        let (up, t) = echo_upstream();
        let plan = FaultPlan::sequence(vec![Fault::Refuse]);
        let mut proxy = ChaosProxy::spawn(up, plan, SystemClock::shared()).expect("spawn");
        // First connection dies before any response byte.
        let first = talk(proxy.addr(), "a");
        assert!(
            first.map(|s| s.is_empty()).unwrap_or(true),
            "no echo on refuse"
        );
        // Second passes through.
        let second = talk(proxy.addr(), "b").expect("second conn relays");
        assert_eq!(second, "echo: b");
        proxy.shutdown();
        stop_upstream(up, t);
    }

    #[test]
    fn truncation_cuts_the_response_at_the_requested_byte() {
        let (up, t) = echo_upstream();
        let plan = FaultPlan::always(Fault::TruncateAfter(4));
        let mut proxy = ChaosProxy::spawn(up, plan, SystemClock::shared()).expect("spawn");
        let out = talk(proxy.addr(), "payload").expect("read truncated");
        assert_eq!(out, "echo");
        assert_eq!(proxy.stats().conns[0].bytes_down, 4);
        proxy.shutdown();
        stop_upstream(up, t);
    }

    #[test]
    fn corruption_is_deterministic_for_a_seed() {
        let (up, t) = echo_upstream();
        let plan = FaultPlan::always(Fault::CorruptBytes {
            rate_pct: 100,
            seed: 9,
        });
        let mut proxy = ChaosProxy::spawn(up, plan, SystemClock::shared()).expect("spawn");
        let a = talk(proxy.addr(), "xy").expect("first");
        let b = talk(proxy.addr(), "xy").expect("second");
        assert_eq!(a, b, "same seed, same corruption");
        assert_ne!(a, "echo: xy", "all bytes flipped");
        proxy.shutdown();
        stop_upstream(up, t);
    }

    #[test]
    fn delay_fault_sleeps_on_the_injected_clock_only() {
        let (up, t) = echo_upstream();
        let (clock, handle) = TestClock::shared();
        let plan = FaultPlan::always(Fault::Delay {
            per_chunk: Duration::from_secs(30),
        });
        let mut proxy = ChaosProxy::spawn(up, plan, handle).expect("spawn");
        #[expect(
            clippy::disallowed_methods,
            reason = "the test proves the injected clock's delay never sleeps for real"
        )]
        let started = Instant::now();
        let out = talk(proxy.addr(), "slow").expect("relayed");
        assert_eq!(out, "echo: slow");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "virtual delay slept for real"
        );
        assert!(clock.total_slept() >= Duration::from_secs(30));
        assert!(proxy.stats().injected_delay() >= Duration::from_secs(30));
        proxy.shutdown();
        stop_upstream(up, t);
    }

    #[test]
    fn cycle_plan_repeats() {
        let plan = FaultPlan::cycle(vec![Fault::Refuse, Fault::PassThrough]);
        assert_eq!(plan.for_conn(0), Fault::Refuse);
        assert_eq!(plan.for_conn(1), Fault::PassThrough);
        assert_eq!(plan.for_conn(2), Fault::Refuse);
        let seq = FaultPlan::sequence(vec![Fault::EarlyFin]);
        assert_eq!(seq.for_conn(0), Fault::EarlyFin);
        assert_eq!(seq.for_conn(5), Fault::PassThrough);
    }
}
