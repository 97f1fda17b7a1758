//! Bulk whois client.
//!
//! Two entry points:
//!
//! * [`BulkClient`] — the resilient path: connect/read/write deadlines,
//!   request chunking with per-chunk resume, bounded retries with
//!   exponential backoff + seeded jitter, per-address error attribution
//!   via [`BulkOutcome`], and a circuit breaker that fails remaining
//!   chunks fast after consecutive chunk failures. Backoff sleeps run on
//!   an injectable [`Clock`], so tests assert the exact schedule on
//!   virtual time.
//! * [`bulk_lookup`] — the original all-or-nothing convenience wrapper,
//!   now built on `BulkClient` (it inherits the deadlines, so a stalled
//!   server can no longer hang it forever).

use crate::CymruRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use routergeo_faultnet::clock::{Clock, SystemClock};
use routergeo_geo::Rir;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A parsed bulk-lookup answer for one address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BulkAnswer {
    /// The service mapped the address.
    Found(Ipv4Addr, CymruRecord),
    /// The service had no mapping (`NA` row).
    NotFound(Ipv4Addr),
}

impl BulkAnswer {
    /// The address this answer is for (the echoed IP column).
    pub fn ip(&self) -> Ipv4Addr {
        match self {
            BulkAnswer::Found(ip, _) => *ip,
            BulkAnswer::NotFound(ip) => *ip,
        }
    }
}

/// Errors from the all-or-nothing [`bulk_lookup`] wrapper.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent something unparseable.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "whois I/O error: {e}"),
            ClientError::Protocol(s) => write!(f, "whois protocol error: {s}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Why an address (or the attempt serving it) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailReason {
    /// Socket-level failure, by [`std::io::ErrorKind`].
    Io(std::io::ErrorKind),
    /// A configured connect/read/write deadline fired.
    Timeout,
    /// The server sent something unparseable (bad banner, bad row).
    Protocol(String),
    /// The server echoed an answer or error row for this address even
    /// though it was never requested. The row is quarantined in
    /// [`BulkOutcome::unsolicited`]; requested addresses are unaffected.
    Unsolicited,
    /// The response stream ended cleanly but this address was never
    /// answered — the short-count case a bare EOF loop would miss.
    MissingAnswer,
    /// The server reported an error for this address or batch.
    ServerError(String),
    /// The circuit breaker was open; the chunk was never attempted.
    CircuitOpen,
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailReason::Io(kind) => write!(f, "i/o error: {kind:?}"),
            FailReason::Timeout => write!(f, "deadline exceeded"),
            FailReason::Protocol(s) => write!(f, "protocol error: {s}"),
            FailReason::Unsolicited => f.write_str("answer for unrequested address"),
            FailReason::MissingAnswer => write!(f, "no answer before end of stream"),
            FailReason::ServerError(s) => write!(f, "server error: {s}"),
            FailReason::CircuitOpen => write!(f, "circuit breaker open"),
        }
    }
}

/// One address that could not be resolved after all retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrFailure {
    /// The unresolved address.
    pub ip: Ipv4Addr,
    /// The last failure observed while trying to resolve it.
    pub reason: FailReason,
    /// Connection attempts made for the chunk carrying this address
    /// (0 when the circuit breaker skipped the chunk entirely).
    pub attempts: u32,
}

/// Bounded-retry schedule: exponential backoff with seeded jitter.
///
/// The schedule is a pure function of `(policy, chunk index)`, so a test
/// can compute the exact delays a client will sleep via
/// [`RetryPolicy::delays_for_chunk`] and compare them against a
/// recording clock.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Connection attempts per chunk (at least 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base: Duration,
    /// Backoff ceiling (pre-jitter).
    pub max: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(100),
            max: Duration::from_secs(5),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The exact backoff sleeps for `chunk_idx`: entry `k` is the delay
    /// between attempt `k+1` and attempt `k+2`. Each entry is
    /// `min(base · 2^k, max)` plus jitter drawn from a generator seeded
    /// by `jitter_seed` and the chunk index, so distinct chunks spread
    /// out while every run of the same configuration is identical.
    pub fn delays_for_chunk(&self, chunk_idx: usize) -> Vec<Duration> {
        let salt = u64::try_from(chunk_idx).unwrap_or(u64::MAX);
        let mut rng =
            StdRng::seed_from_u64(self.jitter_seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let half_base_ms = u64::try_from(self.base.as_millis() / 2).unwrap_or(u64::MAX);
        (0..self.max_attempts.saturating_sub(1))
            .map(|k| {
                let doubling = 1u32.checked_shl(k).unwrap_or(u32::MAX);
                let backoff = self
                    .base
                    .checked_mul(doubling)
                    .unwrap_or(self.max)
                    .min(self.max);
                let jitter = if half_base_ms == 0 {
                    Duration::ZERO
                } else {
                    Duration::from_millis(rng.gen_range(0..=half_base_ms))
                };
                backoff + jitter
            })
            .collect()
    }
}

/// Deadlines, batching, and resilience knobs for [`BulkClient`].
#[derive(Debug, Clone)]
pub struct BulkConfig {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Socket read deadline (per read, not per response).
    pub read_timeout: Duration,
    /// Socket write deadline.
    pub write_timeout: Duration,
    /// Addresses per connection; a mid-stream failure re-fetches only
    /// the unanswered remainder of one chunk, never the whole batch.
    pub chunk_size: usize,
    /// Retry/backoff schedule applied per chunk.
    pub retry: RetryPolicy,
    /// Consecutive chunk failures that trip the circuit breaker
    /// (0 disables the breaker).
    pub breaker_threshold: u32,
}

impl Default for BulkConfig {
    fn default() -> Self {
        BulkConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(1),
            chunk_size: 10_000,
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
        }
    }
}

/// Transport accounting for one [`BulkClient::lookup`] call.
#[derive(Debug, Clone, Default)]
pub struct BulkStats {
    /// Chunks the request was split into.
    pub chunks: usize,
    /// TCP connection attempts (including retries).
    pub connections: usize,
    /// Re-attempts after a failed connection.
    pub retries: usize,
    /// Backoff sleeps actually performed, in order.
    pub backoff: Vec<Duration>,
    /// Whether the circuit breaker skipped at least one chunk.
    pub breaker_tripped: bool,
}

/// Per-address result of a bulk lookup: every requested address lands in
/// exactly one of the three buckets, so a partially-down service yields
/// partial data plus attributed failures instead of an all-or-nothing
/// `Err`.
#[derive(Debug, Clone, Default)]
pub struct BulkOutcome {
    /// Addresses the service mapped, in request order.
    pub found: Vec<(Ipv4Addr, CymruRecord)>,
    /// Addresses the service answered `NA` for, in request order.
    pub not_found: Vec<Ipv4Addr>,
    /// Addresses that exhausted retries (or hit the open breaker).
    pub failed: Vec<AddrFailure>,
    /// Addresses the server volunteered rows for without being asked
    /// (reason is always [`FailReason::Unsolicited`]). These are *not*
    /// requested addresses and live outside the three buckets above;
    /// they are quarantined here for diagnostics so a corrupted stream
    /// can neither poison the merge nor abort the batch.
    pub unsolicited: Vec<AddrFailure>,
    /// Transport accounting for the whole call.
    pub stats: BulkStats,
}

impl BulkOutcome {
    /// Addresses the server answered (found or `NA`).
    pub fn answered(&self) -> usize {
        self.found.len() + self.not_found.len()
    }

    /// True when no address failed.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Resilient bulk whois client (see the module docs for the design).
pub struct BulkClient {
    addr: SocketAddr,
    config: BulkConfig,
    clock: Arc<dyn Clock>,
}

/// What one connection attempt produced. `failure` is the attempt-level
/// problem, if any; `answers`/`addr_errors` are kept even when the
/// attempt failed mid-stream, which is what makes resume incremental.
struct Attempt {
    answers: Vec<BulkAnswer>,
    addr_errors: Vec<(Ipv4Addr, String)>,
    /// Echoed IPs that parse but were never requested — quarantined,
    /// never merged, never fatal (see [`FailReason::Unsolicited`]).
    unsolicited: Vec<Ipv4Addr>,
    failure: Option<FailReason>,
}

impl BulkClient {
    /// Client with [`BulkConfig::default`] deadlines on the real clock.
    pub fn new(addr: SocketAddr) -> BulkClient {
        BulkClient::with_config(addr, BulkConfig::default(), SystemClock::shared())
    }

    /// Client with explicit knobs and an injectable clock for backoff
    /// sleeps (pass a `TestClock` handle to run retries on virtual time).
    pub fn with_config(addr: SocketAddr, config: BulkConfig, clock: Arc<dyn Clock>) -> BulkClient {
        BulkClient {
            addr,
            config,
            clock,
        }
    }

    /// Resolve a batch of addresses with per-address outcomes.
    ///
    /// Duplicate request addresses are resolved once. The call is
    /// deadline-bounded: every socket operation carries a timeout, so a
    /// stalled server costs at most
    /// `attempts · (connect + read/write deadlines) + backoff` per chunk
    /// and can never hang the caller.
    pub fn lookup(&self, ips: &[Ipv4Addr]) -> BulkOutcome {
        let mut span = routergeo_obs::span!("cymru.bulk_lookup", requested = ips.len());
        let mut out = BulkOutcome::default();
        let mut seen = HashSet::new();
        let unique: Vec<Ipv4Addr> = ips.iter().copied().filter(|ip| seen.insert(*ip)).collect();
        routergeo_obs::counter("cymru.addrs_requested").add(unique.len() as u64);
        let chunks_ok = routergeo_obs::counter("cymru.chunks_ok");
        let chunks_failed = routergeo_obs::counter("cymru.chunks_failed");
        let chunks_skipped = routergeo_obs::counter("cymru.chunks_skipped");
        let chunk_size = self.config.chunk_size.max(1);
        let mut consecutive_failures = 0u32;
        for (chunk_idx, chunk) in unique.chunks(chunk_size).enumerate() {
            out.stats.chunks += 1;
            if self.config.breaker_threshold > 0
                && consecutive_failures >= self.config.breaker_threshold
            {
                if !out.stats.breaker_tripped {
                    routergeo_obs::counter("cymru.breaker_trips").incr();
                }
                out.stats.breaker_tripped = true;
                chunks_skipped.incr();
                for ip in chunk {
                    out.failed.push(AddrFailure {
                        ip: *ip,
                        reason: FailReason::CircuitOpen,
                        attempts: 0,
                    });
                }
                continue;
            }
            if self.run_chunk(chunk_idx, chunk, &mut out) {
                chunks_ok.incr();
                consecutive_failures = 0;
            } else {
                chunks_failed.incr();
                consecutive_failures += 1;
            }
        }
        routergeo_obs::counter("cymru.chunks").add(out.stats.chunks as u64);
        routergeo_obs::counter("cymru.retries").add(out.stats.retries as u64);
        routergeo_obs::counter("cymru.backoff_waits").add(out.stats.backoff.len() as u64);
        routergeo_obs::counter("cymru.addrs_found").add(out.found.len() as u64);
        routergeo_obs::counter("cymru.addrs_not_found").add(out.not_found.len() as u64);
        routergeo_obs::counter("cymru.addrs_failed").add(out.failed.len() as u64);
        routergeo_obs::counter("cymru.addrs_unsolicited").add(out.unsolicited.len() as u64);
        span.attr("chunks", out.stats.chunks);
        span.attr("retries", out.stats.retries);
        span.attr("failed", out.failed.len());
        out
    }

    /// Drive one chunk to completion or retry exhaustion. Returns true
    /// when the chunk finished cleanly (per-address server errors count
    /// as clean — they are answers, not transport failures).
    fn run_chunk(&self, chunk_idx: usize, chunk: &[Ipv4Addr], out: &mut BulkOutcome) -> bool {
        let delays = self.config.retry.delays_for_chunk(chunk_idx);
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut pending: Vec<Ipv4Addr> = chunk.to_vec();
        let mut answered: HashMap<Ipv4Addr, BulkAnswer> = HashMap::new();
        let mut addr_failed: HashMap<Ipv4Addr, AddrFailure> = HashMap::new();
        let mut last_failure = FailReason::MissingAnswer;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            out.stats.connections += 1;
            let attempt = self.attempt(&pending);
            for ans in attempt.answers {
                answered.insert(ans.ip(), ans);
            }
            for (ip, msg) in attempt.addr_errors {
                addr_failed.insert(
                    ip,
                    AddrFailure {
                        ip,
                        reason: FailReason::ServerError(msg),
                        attempts,
                    },
                );
            }
            for ip in attempt.unsolicited {
                // First sighting wins; retries re-reading the same bogus
                // row must not duplicate the quarantine entry.
                if !out.unsolicited.iter().any(|u| u.ip == ip) {
                    out.unsolicited.push(AddrFailure {
                        ip,
                        reason: FailReason::Unsolicited,
                        attempts,
                    });
                }
            }
            // Resume: only still-unanswered addresses are re-requested.
            pending.retain(|ip| !answered.contains_key(ip) && !addr_failed.contains_key(ip));
            if pending.is_empty() {
                break;
            }
            last_failure = attempt.failure.unwrap_or(FailReason::MissingAnswer);
            if attempts >= max_attempts {
                break;
            }
            let delay_idx = usize::try_from(attempts - 1).unwrap_or(usize::MAX);
            if let Some(d) = delays.get(delay_idx) {
                self.clock.sleep(*d);
                out.stats.backoff.push(*d);
            }
            out.stats.retries += 1;
        }

        let exhausted: HashSet<Ipv4Addr> = pending.iter().copied().collect();
        for ip in chunk {
            if let Some(ans) = answered.remove(ip) {
                match ans {
                    BulkAnswer::Found(ip, rec) => out.found.push((ip, rec)),
                    BulkAnswer::NotFound(ip) => out.not_found.push(ip),
                }
            } else if let Some(f) = addr_failed.remove(ip) {
                out.failed.push(f);
            } else if exhausted.contains(ip) {
                out.failed.push(AddrFailure {
                    ip: *ip,
                    reason: last_failure.clone(),
                    attempts,
                });
            }
        }
        exhausted.is_empty()
    }

    /// One connection attempt for the given (still-pending) addresses.
    fn attempt(&self, pending: &[Ipv4Addr]) -> Attempt {
        let mut a = Attempt {
            answers: Vec::new(),
            addr_errors: Vec::new(),
            unsolicited: Vec::new(),
            failure: None,
        };
        let mut stream = match TcpStream::connect_timeout(&self.addr, self.config.connect_timeout) {
            Ok(s) => s,
            Err(e) => {
                a.failure = Some(classify(&e));
                return a;
            }
        };
        if let Err(e) = stream
            .set_read_timeout(Some(self.config.read_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.config.write_timeout)))
        {
            a.failure = Some(classify(&e));
            return a;
        }
        let mut request = String::with_capacity(pending.len() * 16 + 16);
        request.push_str("begin\nverbose\n");
        for ip in pending {
            request.push_str(&ip.to_string());
            request.push('\n');
        }
        request.push_str("end\n");
        if let Err(e) = stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.shutdown(Shutdown::Write))
        {
            a.failure = Some(classify(&e));
            return a;
        }

        let expected: HashSet<Ipv4Addr> = pending.iter().copied().collect();
        let mut reader = BufReader::new(stream);
        let mut saw_banner = false;
        let mut raw = Vec::new();
        loop {
            match read_line_bounded(&mut reader, &mut raw) {
                Ok(LineRead::Eof) => break,
                Ok(LineRead::Line) => {}
                Ok(LineRead::TooLong) => {
                    // A server streaming an endless line is attacking
                    // client memory; drop the connection rather than
                    // buffer it. Answers already parsed are kept.
                    a.failure = Some(FailReason::Protocol(format!(
                        "response line exceeds {MAX_LINE} bytes"
                    )));
                    break;
                }
                Err(e) => {
                    a.failure = Some(classify(&e));
                    break;
                }
            }
            let line = String::from_utf8_lossy(&raw);
            let line = line.trim_end_matches('\r');
            if !saw_banner {
                saw_banner = true;
                if let Some(msg) = line.strip_prefix("Error:") {
                    // e.g. `Error: busy` from a saturated server —
                    // batch-level and retryable.
                    a.failure = Some(FailReason::ServerError(msg.trim().to_string()));
                    break;
                }
                if !line.starts_with("Bulk mode;") {
                    a.failure = Some(FailReason::Protocol(format!("bad banner: {line:?}")));
                    break;
                }
                continue;
            }
            match parse_line(line) {
                Row::Answer(ans) => {
                    // Validate the echoed IP against the request; an
                    // unrequested echo is quarantined out of the merge
                    // so a corrupted stream cannot poison the outcome,
                    // and parsing continues — the echo mismatch is a
                    // property of that row, not of the whole attempt.
                    if expected.contains(&ans.ip()) {
                        a.answers.push(ans);
                    } else {
                        a.unsolicited.push(ans.ip());
                    }
                }
                Row::AddrError(ip, msg) => {
                    if expected.contains(&ip) {
                        a.addr_errors.push((ip, msg));
                    } else {
                        a.unsolicited.push(ip);
                    }
                }
                Row::Batch(msg) => {
                    a.failure = Some(FailReason::ServerError(msg));
                    break;
                }
                Row::Malformed(msg) => {
                    // Keep consuming: later rows may still parse, and
                    // whatever stays unanswered is retried.
                    if a.failure.is_none() {
                        a.failure = Some(FailReason::Protocol(msg));
                    }
                }
            }
        }
        a
    }
}

/// Longest response row the client will buffer. Real rows are well
/// under 200 bytes; anything longer is a server (or proxy) attacking
/// client memory, not a protocol variant.
pub(crate) const MAX_LINE: usize = 4096;

/// Result of one bounded line read.
pub(crate) enum LineRead {
    /// A complete line (newline stripped) is in the buffer.
    Line,
    /// Clean end of stream with nothing buffered.
    Eof,
    /// The line exceeded [`MAX_LINE`] before a newline arrived; the
    /// connection should be dropped.
    TooLong,
}

/// Read one `\n`-terminated line into `out` without ever buffering more
/// than [`MAX_LINE`] bytes — the bounded replacement for
/// `BufRead::read_line`, which grows its buffer with whatever the peer
/// streams.
pub(crate) fn read_line_bounded<R: BufRead>(
    r: &mut R,
    out: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    out.clear();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(if out.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            out.extend_from_slice(buf.get(..pos).unwrap_or(buf));
            r.consume(pos + 1);
            return Ok(if out.len() > MAX_LINE {
                LineRead::TooLong
            } else {
                LineRead::Line
            });
        }
        let take = buf.len();
        out.extend_from_slice(buf);
        r.consume(take);
        if out.len() > MAX_LINE {
            return Ok(LineRead::TooLong);
        }
    }
}

/// Map socket errors to [`FailReason`], folding both timeout kinds
/// (`read_timeout` surfaces `WouldBlock` on Unix, `TimedOut` elsewhere).
fn classify(e: &std::io::Error) -> FailReason {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => FailReason::Timeout,
        kind => FailReason::Io(kind),
    }
}

/// One response line, classified.
enum Row {
    /// A well-formed answer row.
    Answer(BulkAnswer),
    /// An `Error:` row the server attributed to one requested address.
    AddrError(Ipv4Addr, String),
    /// An `Error:` row about the whole batch (limit exceeded, busy, …).
    Batch(String),
    /// A row that parses as neither.
    Malformed(String),
}

/// Classify one response row. `Error:` rows no longer abort the batch:
/// an attributable `bad address "a.b.c.d"` becomes a per-address
/// failure and parsing continues with the next row.
fn parse_line(line: &str) -> Row {
    if let Some(msg) = line.strip_prefix("Error:") {
        let msg = msg.trim();
        if let Some(quoted) = msg.strip_prefix("bad address ") {
            if let Ok(ip) = quoted.trim().trim_matches('"').parse::<Ipv4Addr>() {
                return Row::AddrError(ip, msg.to_string());
            }
        }
        return Row::Batch(msg.to_string());
    }
    match parse_answer(line) {
        Ok(ans) => Row::Answer(ans),
        Err(msg) => Row::Malformed(msg),
    }
}

/// Parse one pipe-separated answer row.
fn parse_answer(line: &str) -> Result<BulkAnswer, String> {
    let parts: Vec<&str> = line.split('|').map(str::trim).collect();
    if parts.len() != 5 {
        return Err(format!("bad row: {line:?}"));
    }
    let ip: Ipv4Addr = parts[1]
        .parse()
        .map_err(|_| format!("bad ip in row: {line:?}"))?;
    if parts[0] == "NA" {
        return Ok(BulkAnswer::NotFound(ip));
    }
    let asn: u32 = parts[0]
        .parse()
        .map_err(|_| format!("bad asn in row: {line:?}"))?;
    let prefix = parts[2]
        .parse()
        .map_err(|_| format!("bad prefix in row: {line:?}"))?;
    let country = parts[3]
        .parse()
        .map_err(|_| format!("bad country in row: {line:?}"))?;
    let rir: Rir = parts[4]
        .parse()
        .map_err(|_| format!("bad registry in row: {line:?}"))?;
    Ok(BulkAnswer::Found(
        ip,
        CymruRecord {
            asn,
            prefix,
            country,
            rir,
        },
    ))
}

/// Query the bulk whois service for a batch of addresses, all or
/// nothing.
///
/// Compatibility wrapper over [`BulkClient`] with default deadlines and
/// retries: any address failing after retries turns the whole call into
/// an `Err`, but deadlines still bound the wait. Answers come back in
/// request order (duplicates each get their answer).
pub fn bulk_lookup(addr: SocketAddr, ips: &[Ipv4Addr]) -> Result<Vec<BulkAnswer>, ClientError> {
    let outcome = BulkClient::new(addr).lookup(ips);
    if let Some(f) = outcome.failed.first() {
        return Err(match &f.reason {
            FailReason::Io(kind) => ClientError::Io(std::io::Error::new(
                *kind,
                format!("lookup failed for {}", f.ip),
            )),
            FailReason::Timeout => ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("lookup timed out for {}", f.ip),
            )),
            other => ClientError::Protocol(format!("{other} for {}", f.ip)),
        });
    }
    let mut by_ip: HashMap<Ipv4Addr, BulkAnswer> = HashMap::new();
    for (ip, rec) in &outcome.found {
        by_ip.insert(*ip, BulkAnswer::Found(*ip, *rec));
    }
    for ip in &outcome.not_found {
        by_ip.insert(*ip, BulkAnswer::NotFound(*ip));
    }
    Ok(ips.iter().filter_map(|ip| by_ip.get(ip).cloned()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MappingService, WhoisServer};
    use routergeo_world::{World, WorldConfig};
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    #[test]
    fn end_to_end_bulk_lookup() {
        let w = World::generate(WorldConfig::tiny(151));
        let svc = Arc::new(MappingService::build(&w));
        let mut srv = WhoisServer::spawn(Arc::clone(&svc)).unwrap();

        let ips: Vec<Ipv4Addr> = w
            .interfaces
            .iter()
            .step_by(97)
            .take(50)
            .map(|i| i.ip)
            .chain(std::iter::once("203.0.113.1".parse().unwrap()))
            .collect();
        let answers = bulk_lookup(srv.addr(), &ips).unwrap();
        assert_eq!(answers.len(), ips.len());
        for (answer, ip) in answers.iter().zip(&ips) {
            match answer {
                BulkAnswer::Found(aip, rec) => {
                    assert_eq!(aip, ip);
                    // Must agree with the in-process service.
                    assert_eq!(Some(*rec), svc.lookup(*ip));
                }
                BulkAnswer::NotFound(aip) => {
                    assert_eq!(aip, ip);
                    assert!(svc.lookup(*ip).is_none());
                }
            }
        }
        srv.shutdown();
    }

    #[test]
    fn bulk_client_outcome_is_complete_against_healthy_server() {
        let w = World::generate(WorldConfig::tiny(152));
        let svc = Arc::new(MappingService::build(&w));
        let mut srv = WhoisServer::spawn(svc).unwrap();
        let ips: Vec<Ipv4Addr> = w
            .interfaces
            .iter()
            .step_by(211)
            .take(20)
            .map(|i| i.ip)
            .chain(std::iter::once("203.0.113.1".parse().unwrap()))
            .collect();
        let outcome = BulkClient::new(srv.addr()).lookup(&ips);
        assert!(outcome.is_complete());
        assert_eq!(outcome.answered(), ips.len());
        assert_eq!(outcome.found.len(), 20);
        assert_eq!(
            outcome.not_found,
            vec!["203.0.113.1".parse::<Ipv4Addr>().unwrap()]
        );
        assert_eq!(outcome.stats.connections, 1);
        assert_eq!(outcome.stats.retries, 0);
        srv.shutdown();
    }

    /// Serve one scripted response (after consuming the request), then
    /// close the listener. The test joins the peer through
    /// [`join_peer`] once its client is done.
    #[expect(
        clippy::disallowed_methods,
        reason = "the scripted peer serves the client under test from its own thread"
    )]
    fn scripted_server(response: &'static str) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let mut req = Vec::new();
                let _ = s.read_to_end(&mut req);
                let _ = s.write_all(response.as_bytes());
            }
        });
        (addr, peer)
    }

    /// Join a scripted peer, failing the test with the peer's own panic
    /// if it had one.
    fn join_peer(peer: JoinHandle<()>) {
        if let Err(panic) = peer.join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn per_address_error_rows_do_not_abort_the_batch() {
        let (addr, peer) = scripted_server(
            "Bulk mode; whois.routergeo.test [synthetic]\n\
             NA | 9.9.9.9 | NA | NA | NA\n\
             Error: bad address \"10.0.0.1\"\n\
             NA | 11.11.11.11 | NA | NA | NA\n",
        );
        let config = BulkConfig {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..BulkConfig::default()
        };
        let ips: Vec<Ipv4Addr> = vec![
            "9.9.9.9".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
            "11.11.11.11".parse().unwrap(),
        ];
        let outcome = BulkClient::with_config(addr, config, SystemClock::shared()).lookup(&ips);
        join_peer(peer);
        // Rows after the error line were still consumed...
        assert_eq!(outcome.not_found.len(), 2);
        // ...and the error was attributed to exactly one address.
        assert_eq!(outcome.failed.len(), 1);
        assert_eq!(outcome.failed[0].ip, ips[1]);
        assert!(matches!(
            outcome.failed[0].reason,
            FailReason::ServerError(_)
        ));
    }

    #[test]
    fn unsolicited_rows_are_quarantined_without_aborting() {
        // Both an answer row and an error row for never-requested
        // addresses: neither may poison the merge, fail the batch, or
        // stop parsing of the rows after them.
        let (addr, peer) = scripted_server(
            "Bulk mode; whois.routergeo.test [synthetic]\n\
             NA | 9.9.9.9 | NA | NA | NA\n\
             NA | 66.66.66.66 | NA | NA | NA\n\
             Error: bad address \"77.77.77.77\"\n\
             NA | 11.11.11.11 | NA | NA | NA\n",
        );
        let config = BulkConfig {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..BulkConfig::default()
        };
        let ips: Vec<Ipv4Addr> = vec!["9.9.9.9".parse().unwrap(), "11.11.11.11".parse().unwrap()];
        let outcome = BulkClient::with_config(addr, config, SystemClock::shared()).lookup(&ips);
        join_peer(peer);
        assert!(outcome.is_complete(), "failed: {:?}", outcome.failed);
        assert_eq!(outcome.answered(), 2, "rows after the bogus echoes parse");
        let quarantined: Vec<Ipv4Addr> = outcome.unsolicited.iter().map(|u| u.ip).collect();
        assert_eq!(
            quarantined,
            vec![
                "66.66.66.66".parse::<Ipv4Addr>().unwrap(),
                "77.77.77.77".parse::<Ipv4Addr>().unwrap(),
            ]
        );
        for u in &outcome.unsolicited {
            assert_eq!(u.reason, FailReason::Unsolicited);
        }
    }

    #[test]
    fn oversized_response_line_fails_the_attempt_not_the_process() {
        // 1 MiB of banner with no newline: the bounded reader must cut
        // the connection at MAX_LINE instead of buffering it all.
        let big: &'static str = Box::leak(format!("Bulk mode; {}", "x".repeat(1 << 20)).into());
        let (addr, peer) = scripted_server(big);
        let config = BulkConfig {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..BulkConfig::default()
        };
        let ips: Vec<Ipv4Addr> = vec!["9.9.9.9".parse().unwrap()];
        let outcome = BulkClient::with_config(addr, config, SystemClock::shared()).lookup(&ips);
        join_peer(peer);
        assert_eq!(outcome.failed.len(), 1);
        assert!(
            matches!(&outcome.failed[0].reason, FailReason::Protocol(s) if s.contains("exceeds")),
            "{:?}",
            outcome.failed[0].reason
        );
    }

    #[test]
    fn short_response_surfaces_missing_answers_per_address() {
        // Server answers only the first address, then EOFs cleanly —
        // the old client silently returned one answer for two requests.
        let (addr, peer) = scripted_server(
            "Bulk mode; whois.routergeo.test [synthetic]\n\
             NA | 9.9.9.9 | NA | NA | NA\n",
        );
        let config = BulkConfig {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..BulkConfig::default()
        };
        let ips: Vec<Ipv4Addr> = vec!["9.9.9.9".parse().unwrap(), "10.0.0.1".parse().unwrap()];
        let outcome = BulkClient::with_config(addr, config, SystemClock::shared()).lookup(&ips);
        join_peer(peer);
        assert_eq!(outcome.not_found.len(), 1);
        assert_eq!(outcome.failed.len(), 1);
        assert_eq!(outcome.failed[0].ip, ips[1]);
        assert_eq!(outcome.failed[0].reason, FailReason::MissingAnswer);
    }

    #[test]
    fn parse_line_classifies_rows() {
        assert!(matches!(parse_line("garbage"), Row::Malformed(_)));
        assert!(matches!(parse_line("1 | 2 | 3"), Row::Malformed(_)));
        assert!(matches!(
            parse_line("x | 1.2.3.4 | 1.2.3.0/24 | US | arin"),
            Row::Malformed(_)
        ));
        assert!(matches!(
            parse_line("1 | nope | 1.2.3.0/24 | US | arin"),
            Row::Malformed(_)
        ));
        assert!(matches!(
            parse_line("Error: bulk limit exceeded"),
            Row::Batch(_)
        ));
        assert!(matches!(parse_line("Error: busy"), Row::Batch(_)));
        assert!(matches!(
            parse_line("Error: bad address \"10.0.0.1\""),
            Row::AddrError(ip, _) if ip == "10.0.0.1".parse::<Ipv4Addr>().unwrap()
        ));
        // Unattributable bad-address stays batch-level.
        assert!(matches!(
            parse_line("Error: bad address \"not-an-ip\""),
            Row::Batch(_)
        ));
        assert!(matches!(
            parse_line("NA | 9.9.9.9 | NA | NA | NA"),
            Row::Answer(BulkAnswer::NotFound(_))
        ));
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(100),
            max: Duration::from_millis(350),
            jitter_seed: 42,
        };
        let a = policy.delays_for_chunk(3);
        let b = policy.delays_for_chunk(3);
        assert_eq!(a, b, "same chunk, same schedule");
        assert_eq!(a.len(), 4);
        let half_jitter = Duration::from_millis(50);
        // Exponential ramp: 100, 200, 350 (capped), 350 — plus ≤ base/2.
        for (delay, floor) in a.iter().zip([100u64, 200, 350, 350]) {
            let floor = Duration::from_millis(floor);
            assert!(
                *delay >= floor && *delay <= floor + half_jitter,
                "{delay:?}"
            );
        }
        assert_ne!(
            policy.delays_for_chunk(0),
            policy.delays_for_chunk(1),
            "chunks get distinct jitter"
        );
    }
}
