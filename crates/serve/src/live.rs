//! Live-wire phases: real TCP against a real daemon.
//!
//! Three phases, three kinds of evidence:
//!
//! * **Swap under load** — concurrent clients hammer lookups while the
//!   main thread hot-swaps generations. Because both generations carry
//!   the same prefix set (see [`Corpus`]), every client's hit/miss
//!   tally is deterministic even though the flip lands at an arbitrary
//!   instant; the only nondeterministic observable would be a torn
//!   read (generation id disagreeing with the record's city tag), and
//!   that is exactly what the phase exists to rule out.
//! * **Abuse** — raw-socket pokes (oversize frames, truncation,
//!   garbage) must each produce the protocol's attributed rejection and
//!   leave the daemon healthy; scripted faultnet chaos (corruption,
//!   truncation, injected delay on a [`TestClock`], early FIN) must
//!   surface as attributed client-side errors, never as daemon damage.
//! * **Wall clock** — sequential round-trip latency and pipelined
//!   throughput, plus a direct in-process lookup rate measured in the
//!   same run. Only the *ratios* gate CI, so machine speed cancels;
//!   the raw numbers are reported on stderr and never enter the
//!   deterministic artifact.

use crate::corpus::Corpus;
use crate::daemon::{ServeConfig, ServeDaemon, ServeError};
use crate::protocol::{self, ProtoError, Request, Response, MAX_FRAME};
use routergeo_db::Rgdb2Reader;
use routergeo_faultnet::{ChaosProxy, Fault, FaultPlan, TestClock};
use routergeo_pool::splitmix64;
use std::io::{BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Duration;

/// A blocking protocol client over one TCP connection. Requests go out
/// with one write per call and responses are read through a buffer, so
/// the client's own syscalls do not dominate what a pipeline measures.
pub struct ServeClient {
    conn: BufReader<TcpStream>,
    /// Request frames of the next write, reused across calls.
    out: Vec<u8>,
}

impl ServeClient {
    /// Connect with bounded timeouts on every operation.
    pub fn connect(addr: SocketAddr) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            conn: BufReader::new(stream),
            out: Vec::new(),
        })
    }

    /// One request/response round trip.
    pub fn request(&mut self, req: &Request) -> Result<Response, ProtoError> {
        self.send(std::slice::from_ref(req))?;
        self.recv()
    }

    /// Pipelined batch: write every request with one `write_all`, then
    /// read every response. Depth is the caller's responsibility;
    /// request frames are ~10 bytes so even deep batches stay far inside
    /// socket buffers.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ProtoError> {
        self.send(reqs)?;
        reqs.iter().map(|_| self.recv()).collect()
    }

    fn send(&mut self, reqs: &[Request]) -> std::io::Result<()> {
        self.out.clear();
        for req in reqs {
            protocol::put_frame(&mut self.out, &protocol::encode_request(req));
        }
        self.conn.get_mut().write_all(&self.out)
    }

    fn recv(&mut self) -> Result<Response, ProtoError> {
        match protocol::read_frame(&mut self.conn)? {
            Some(body) => protocol::parse_response(&body),
            None => Err(ProtoError::Malformed("server closed before answering")),
        }
    }
}

/// Outcome of the swap-under-load phase. Every field is deterministic
/// when the phase is green.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapOutcome {
    /// Concurrent client threads.
    pub clients: u64,
    /// Lookups issued across all clients.
    pub lookups: u64,
    /// Lookups answered with a hit.
    pub ok: u64,
    /// Lookups answered with a miss.
    pub miss: u64,
    /// `BUSY` sheds observed (must be 0: the phase provisions workers
    /// for every client).
    pub busy: u64,
    /// Server errors, unexpected responses, and client I/O failures.
    pub errors: u64,
    /// Responses whose generation id and record payload disagree.
    pub torn_reads: u64,
    /// Generation observed before the swap.
    pub generation_before: u32,
    /// Generation observed after the swap.
    pub generation_after: u32,
    /// Swaps completed by the daemon.
    pub swaps: u64,
    /// Whether the old generation's readers fully drained.
    pub drained: bool,
}

/// Per-client accumulator for the swap phase.
#[derive(Debug, Default, Clone, Copy)]
struct ClientTally {
    ok: u64,
    miss: u64,
    busy: u64,
    errors: u64,
    torn: u64,
}

/// The deterministic address for swap-phase lookup `(client, j)`:
/// 70% guaranteed hits on Zipf-ish ranks, 30% block addresses that may
/// miss — but identically so in both generations.
fn swap_addr(corpus: &Corpus, seed: u64, client: u64, j: u64) -> std::net::Ipv4Addr {
    let r = splitmix64(splitmix64(seed, 0x5A50 + client), j);
    let k = usize::try_from(splitmix64(r, 1) % u64::try_from(corpus.records()).expect("bounded"))
        .expect("rank bounded by record count");
    if r % 10 < 7 {
        corpus.hit_addr(k)
    } else {
        corpus.block_addr(k, splitmix64(r, 2))
    }
}

fn classify(resp: Result<Response, ProtoError>, tally: &mut ClientTally) {
    match resp {
        Ok(Response::Hit { generation, record }) => {
            let city = record.city.as_deref().unwrap_or("");
            if (generation == 1 || generation == 2) && Corpus::city_matches(generation, city) {
                tally.ok += 1;
            } else {
                tally.torn += 1;
            }
        }
        Ok(Response::Miss { generation }) => {
            if generation == 1 || generation == 2 {
                tally.miss += 1;
            } else {
                tally.torn += 1;
            }
        }
        Ok(Response::Busy) => tally.busy += 1,
        Ok(_) => tally.errors += 1,
        Err(_) => tally.errors += 1,
    }
}

fn probe_generation(client: &mut ServeClient) -> u32 {
    match client.request(&Request::Generation) {
        Ok(Response::GenerationInfo { generation, .. }) => generation,
        _ => 0,
    }
}

/// Run the hot-swap-under-load check: `clients` threads of `lookups`
/// round trips each, with one generation swap flipped mid-stream.
pub fn run_swap_phase(
    corpus: &Corpus,
    seed: u64,
    clients: u64,
    lookups: u64,
) -> Result<SwapOutcome, ServeError> {
    let daemon = ServeDaemon::spawn_with(
        corpus.image_v21(1),
        ServeConfig {
            workers: usize::try_from(clients).expect("client count is small") + 2,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )?;
    let mut probe = ServeClient::connect(daemon.addr()).map_err(ServeError::Io)?;
    let generation_before = probe_generation(&mut probe);
    let barrier = Barrier::new(usize::try_from(clients).expect("small") + 1);
    let addr = daemon.addr();
    let mut tallies: Vec<ClientTally> = Vec::new();
    let mut swap_report = None;
    #[expect(
        clippy::disallowed_methods,
        reason = "concurrent protocol clients driving load during the swap; I/O threads, \
                  not data-parallel fan-out"
    )]
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                let corpus = &corpus;
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    let mut client = match ServeClient::connect(addr) {
                        Ok(client) => client,
                        Err(_) => {
                            tally.errors += lookups;
                            barrier.wait();
                            return tally;
                        }
                    };
                    barrier.wait();
                    for j in 0..lookups {
                        let ip = swap_addr(corpus, seed, c, j);
                        classify(client.request(&Request::Lookup(ip)), &mut tally);
                    }
                    tally
                })
            })
            .collect();
        barrier.wait();
        swap_report = Some(daemon.hot_swap(corpus.image_v21(2)));
        for handle in handles {
            if let Ok(tally) = handle.join() {
                tallies.push(tally);
            }
        }
    });
    let generation_after = probe_generation(&mut probe);
    let stats = daemon.stats();
    let swap = swap_report
        .transpose()?
        .ok_or_else(|| ServeError::Io(std::io::Error::other("swap never ran")))?;
    let mut out = SwapOutcome {
        clients,
        lookups: clients * lookups,
        ok: 0,
        miss: 0,
        busy: 0,
        errors: 0,
        torn_reads: 0,
        generation_before,
        generation_after,
        swaps: stats.swaps,
        drained: swap.drained,
    };
    for t in &tallies {
        out.ok += t.ok;
        out.miss += t.miss;
        out.busy += t.busy;
        out.errors += t.errors;
        out.torn_reads += t.torn;
    }
    if tallies.len() != usize::try_from(clients).expect("small") {
        out.errors += 1; // a client thread died entirely
    }
    Ok(out)
}

/// Outcome of the abuse phase (raw pokes + scripted faultnet chaos).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbuseOutcome {
    /// Raw-socket pokes thrown at the daemon.
    pub pokes: u64,
    /// Pokes that produced exactly the expected attributed rejection.
    pub pokes_attributed: u64,
    /// Scripted chaos connections through the proxy.
    pub chaos_scenarios: u64,
    /// Chaos scenarios whose client-side failure was attributed.
    pub chaos_attributed: u64,
    /// Human-readable descriptions of anything unexpected.
    pub violations: Vec<String>,
}

/// Read one response frame from a raw stream.
fn raw_response(stream: &mut TcpStream) -> Result<Option<Response>, ProtoError> {
    match protocol::read_frame(stream)? {
        Some(body) => Ok(Some(protocol::parse_response(&body)?)),
        None => Ok(None),
    }
}

fn raw_connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    Ok(stream)
}

/// Expect: a `MALFORMED` response, then EOF (the daemon closed).
fn expect_malformed_then_close(stream: &mut TcpStream) -> Result<(), String> {
    match raw_response(stream) {
        Ok(Some(Response::Malformed { .. })) => {}
        other => return Err(format!("wanted MALFORMED, got {other:?}")),
    }
    match protocol::read_frame(stream) {
        Ok(None) => Ok(()),
        other => Err(format!("wanted EOF after MALFORMED, got {other:?}")),
    }
}

/// Run the abuse phase against a fresh daemon.
pub fn run_abuse_phase(corpus: &Corpus) -> Result<AbuseOutcome, ServeError> {
    let daemon = ServeDaemon::spawn(corpus.image_v21(1))?;
    let addr = daemon.addr();
    let mut out = AbuseOutcome {
        pokes: 0,
        pokes_attributed: 0,
        chaos_scenarios: 0,
        chaos_attributed: 0,
        violations: Vec::new(),
    };

    // --- raw pokes: framing attacks straight at the daemon ------------
    type Poke = (&'static str, fn(&mut TcpStream) -> Result<(), String>);
    let pokes: [Poke; 5] = [
        ("zero-length frame", |stream| {
            stream.write_all(&[0, 0, 0, 0]).map_err(|e| e.to_string())?;
            expect_malformed_then_close(stream)
        }),
        ("oversize frame length", |stream| {
            stream
                .write_all(&(MAX_FRAME + 1).to_le_bytes())
                .map_err(|e| e.to_string())?;
            expect_malformed_then_close(stream)
        }),
        ("truncated body", |stream| {
            stream
                .write_all(&[8, 0, 0, 0, 0xAA, 0xBB])
                .map_err(|e| e.to_string())?;
            stream
                .shutdown(Shutdown::Write)
                .map_err(|e| e.to_string())?;
            expect_malformed_then_close(stream)
        }),
        ("giant length burst", |stream| {
            stream.write_all(&[0xFF; 64]).map_err(|e| e.to_string())?;
            expect_malformed_then_close(stream)
        }),
        ("unknown op keeps the connection", |stream| {
            // Intact frame, nonsense body: MALFORMED but the connection
            // survives and answers the next valid request.
            protocol::write_frame(stream, &[0xEE]).map_err(|e| e.to_string())?;
            match raw_response(stream) {
                Ok(Some(Response::Malformed { .. })) => {}
                other => return Err(format!("wanted MALFORMED, got {other:?}")),
            }
            protocol::write_frame(stream, &protocol::encode_request(&Request::Generation))
                .map_err(|e| e.to_string())?;
            match raw_response(stream) {
                Ok(Some(Response::GenerationInfo { .. })) => Ok(()),
                other => Err(format!("wanted GEN after MALFORMED, got {other:?}")),
            }
        }),
    ];
    for (name, poke) in pokes {
        out.pokes += 1;
        let mut stream = raw_connect(addr).map_err(ServeError::Io)?;
        match poke(&mut stream) {
            Ok(()) => out.pokes_attributed += 1,
            Err(why) => out.violations.push(format!("poke `{name}`: {why}")),
        }
    }

    // --- scripted chaos through the faultnet proxy --------------------
    // One-shot connections (write request, FIN, read response) match the
    // proxy's sequential relay model; the daemon sees a clean one-frame
    // conversation either way.
    let (_test_clock, clock) = TestClock::shared();
    let plan = FaultPlan::sequence(vec![
        Fault::CorruptBytes {
            rate_pct: 100,
            seed: 11,
        },
        Fault::TruncateAfter(2),
        Fault::Delay {
            per_chunk: Duration::from_millis(250),
        },
        Fault::EarlyFin,
    ]);
    let proxy = ChaosProxy::spawn(addr, plan, clock).map_err(ServeError::Io)?;
    let hit = Request::Lookup(corpus.hit_addr(0));
    let one_shot = |label: &str| -> Result<Option<Response>, String> {
        let mut stream = raw_connect(proxy.addr()).map_err(|e| e.to_string())?;
        protocol::write_frame(&mut stream, &protocol::encode_request(&hit))
            .map_err(|e| format!("{label}: write: {e}"))?;
        stream
            .shutdown(Shutdown::Write)
            .map_err(|e| format!("{label}: fin: {e}"))?;
        raw_response(&mut stream).map_err(|e| e.to_string())
    };
    // Corruption: every response byte flipped — the frame cannot decode.
    out.chaos_scenarios += 1;
    match one_shot("corrupt") {
        Err(_) => out.chaos_attributed += 1,
        Ok(resp) => out
            .violations
            .push(format!("corrupt relay decoded cleanly: {resp:?}")),
    }
    // Truncation at byte 2: EOF inside the length prefix.
    out.chaos_scenarios += 1;
    match one_shot("truncate") {
        Err(_) => out.chaos_attributed += 1,
        Ok(resp) => out
            .violations
            .push(format!("truncated relay decoded cleanly: {resp:?}")),
    }
    // Injected delay on a TestClock: the response arrives untouched and
    // the latency lands on the virtual clock, not on this run's wall.
    out.chaos_scenarios += 1;
    match one_shot("delay") {
        Ok(Some(Response::Hit { generation: 1, .. })) => out.chaos_attributed += 1,
        other => out
            .violations
            .push(format!("delayed relay did not serve the hit: {other:?}")),
    }
    // Early FIN: the proxy consumes the request and closes — clean EOF.
    out.chaos_scenarios += 1;
    match one_shot("early-fin") {
        Ok(None) => out.chaos_attributed += 1,
        other => out
            .violations
            .push(format!("early-fin produced a response: {other:?}")),
    }
    let stats = proxy.stats();
    if stats.fault_labels() != vec!["corrupt", "truncate", "delay", "early-fin"] {
        out.violations
            .push(format!("chaos plan misapplied: {:?}", stats.fault_labels()));
    }
    if stats.injected_delay() < Duration::from_millis(250) {
        out.violations.push(format!(
            "delay fault injected only {:?} of virtual latency",
            stats.injected_delay()
        ));
    }

    // --- the daemon must have survived all of it ----------------------
    let mut health = ServeClient::connect(addr).map_err(ServeError::Io)?;
    match health.request(&Request::Lookup(corpus.hit_addr(0))) {
        Ok(Response::Hit { generation: 1, .. }) => {}
        other => out
            .violations
            .push(format!("daemon unhealthy after abuse: {other:?}")),
    }
    Ok(out)
}

/// Wall-clock observations — never part of the deterministic artifact.
#[derive(Debug, Clone, Copy)]
pub struct WallStats {
    /// Sequential round-trip p50, microseconds: the median of the p50s
    /// of five consecutive slices of the probes.
    pub latency_p50_us: u64,
    /// Sequential round-trip p99, microseconds: the median of the p99s
    /// of five consecutive slices of the probes, so one stall does not
    /// set it.
    pub latency_p99_us: u64,
    /// Pipelined served lookups per second.
    pub served_per_sec: u64,
    /// Direct in-process lookups per second, same run, same corpus.
    pub direct_per_sec: u64,
}

/// Consecutive slices the sequential probes are timed in.
const LATENCY_SLICES: usize = 5;

/// The sequential round-trip `(p50, p99)` of `latencies`, in probe
/// order: each percentile is taken within [`LATENCY_SLICES`]
/// consecutive slices, and the median over the slices is reported. A
/// scheduler stall lands in one slice and raises that slice's p99
/// alone, so the tail gate trips only on a tail that recurs through
/// most of the run.
fn sliced_percentiles(latencies: &[u64]) -> (u64, u64) {
    let per_slice = latencies.len().div_ceil(LATENCY_SLICES).max(1);
    let (p50s, p99s): (Vec<u64>, Vec<u64>) = latencies
        .chunks(per_slice)
        .map(|slice| {
            let mut sorted = slice.to_vec();
            sorted.sort_unstable();
            let pick = |p: usize| {
                let last = sorted.len().saturating_sub(1);
                sorted.get(last * p / 100).copied().unwrap_or(0)
            };
            (pick(50), pick(99))
        })
        .unzip();
    let median = |mut v: Vec<u64>| {
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    };
    (median(p50s), median(p99s))
}

/// Measure round-trip latency and pipelined throughput, plus the direct
/// in-process rate the throughput gate normalizes against.
pub fn run_wall_phase(
    corpus: &Corpus,
    seed: u64,
    probes: u64,
    batches: u64,
    depth: u64,
) -> Result<WallStats, ServeError> {
    let image = corpus.image_v21(1);
    let daemon = ServeDaemon::spawn(image.clone())?;
    let mut client = ServeClient::connect(daemon.addr()).map_err(ServeError::Io)?;
    let addr_for = |j: u64| {
        let r = splitmix64(seed, 0xA11 + j);
        let k = usize::try_from(r % u64::try_from(corpus.records()).expect("bounded"))
            .expect("rank bounded");
        corpus.hit_addr(k)
    };
    // Warm the connection and the daemon's caches so latency measures
    // steady state.
    for j in 0..64 {
        client
            .request(&Request::Lookup(addr_for(j)))
            .map_err(|e| ServeError::Io(std::io::Error::other(e.to_string())))?;
    }
    let mut latencies = Vec::with_capacity(usize::try_from(probes).expect("bounded"));
    for j in 0..probes {
        let req = Request::Lookup(addr_for(j));
        let timer = routergeo_obs::stopwatch();
        client
            .request(&req)
            .map_err(|e| ServeError::Io(std::io::Error::other(e.to_string())))?;
        latencies.push(timer.elapsed_us());
    }
    let (latency_p50_us, latency_p99_us) = sliced_percentiles(&latencies);

    let reqs: Vec<Request> = (0..depth).map(|j| Request::Lookup(addr_for(j))).collect();
    let timer = routergeo_obs::stopwatch();
    for _ in 0..batches {
        client
            .pipeline(&reqs)
            .map_err(|e| ServeError::Io(std::io::Error::other(e.to_string())))?;
    }
    let served_us = timer.elapsed_us().max(1);
    let served_per_sec = (batches * depth).saturating_mul(1_000_000) / served_us;

    let reader = Rgdb2Reader::open(image)?;
    let timer = routergeo_obs::stopwatch();
    let mut checksum = 0u64;
    for j in 0..batches * depth {
        if reader.try_lookup(addr_for(j % depth))?.is_some() {
            checksum += 1;
        }
    }
    let direct_us = timer.elapsed_us().max(1);
    let direct_per_sec = checksum.max(1).saturating_mul(1_000_000) / direct_us;
    Ok(WallStats {
        latency_p50_us,
        latency_p99_us,
        served_per_sec,
        direct_per_sec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::gate_violations;

    /// The gate's verdict on 1,000 sequential probes of 31 us whose
    /// slices in `stalled` each hold a 20-probe stall of 3,526 us, as
    /// one run of `ci.sh` read.
    fn tail_gate_with_stalls_in(stalled: &[usize]) -> Vec<String> {
        let mut latencies = vec![31u64; 1_000];
        for slice in stalled {
            let start = slice * 200 + 50;
            latencies[start..start + 20].fill(3_526);
        }
        let (latency_p50_us, latency_p99_us) = sliced_percentiles(&latencies);
        assert_eq!(latency_p50_us, 31);
        gate_violations(&WallStats {
            latency_p50_us,
            latency_p99_us,
            served_per_sec: 200_000,
            direct_per_sec: 3_000_000,
        })
    }

    #[test]
    fn a_stall_confined_to_one_slice_passes_the_tail_gate() {
        assert!(tail_gate_with_stalls_in(&[]).is_empty());
        for slice in 0..LATENCY_SLICES {
            assert!(
                tail_gate_with_stalls_in(&[slice]).is_empty(),
                "slice {slice}"
            );
        }
    }

    #[test]
    fn the_same_stall_in_three_slices_fails_the_tail_gate() {
        let failed = tail_gate_with_stalls_in(&[0, 2, 4]);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains("p99 3526us"), "{failed:?}");
    }

    #[test]
    fn slices_cover_every_probe_in_order() {
        // 1..=10 in order: slices [1,2] [3,4] … [9,10]; their p50s are
        // 1, 3, 5, 7, 9 and p99s 1, 3, 5, 7, 9 (the lower of two).
        let latencies: Vec<u64> = (1..=10).collect();
        assert_eq!(sliced_percentiles(&latencies), (5, 5));
        assert_eq!(sliced_percentiles(&[]), (0, 0));
        assert_eq!(sliced_percentiles(&[7]), (7, 7));
    }
}
