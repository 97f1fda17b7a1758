//! Pillar 2: protocol fuzzing of the whois client and server.
//!
//! Three scenario families, all seeded and all quick enough to repeat
//! `proto_runs` times inside the CI budget:
//!
//! * **Client vs scripted peer** — `BulkClient` talks through a
//!   pass-through [`ChaosProxy`] to a one-shot scripted upstream that
//!   answers with seeded adversarial bytes (garbage lines, binary
//!   junk, oversized answers, mid-token FINs, echo mismatches, empty
//!   responses). The client must neither panic nor wedge, and every
//!   requested address must land in exactly one outcome bucket.
//! * **Client vs faulty proxy** — the real `WhoisServer` behind a
//!   `ChaosProxy` injecting `CorruptBytes` / `EarlyFin` /
//!   `TruncateAfter`; the batch must complete on retry and every
//!   answer must match the in-process `MappingService`.
//! * **Adversarial client vs server** — raw seeded byte streams at the
//!   `WhoisServer` (through the proxy), followed by a well-formed
//!   health probe: the worker pool must shed the abuse and keep
//!   serving.
//!
//! The report carries only deterministic fields (scenario names, run
//! counts, invariant violations) — never `io::ErrorKind`s or timings,
//! which vary by platform and scheduling.

use crate::rng::FuzzRng;
use crate::FuzzConfig;
use routergeo_cymru::clock::{SystemClock, TestClock};
use routergeo_cymru::{
    BulkClient, BulkConfig, BulkOutcome, FailReason, MappingService, RetryPolicy, WhoisServer,
};
use routergeo_faultnet::{ChaosProxy, Fault, FaultPlan};
use routergeo_world::{World, WorldConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Mirror of the client/server line cap (`MAX_LINE` in
/// `routergeo_cymru::client`, which is crate-private): oversized-line
/// scenarios send a multiple of this.
const LINE_CAP: usize = 4096;

/// Banner the scripted peer leads with, byte-compatible with the real
/// server's.
const BANNER: &[u8] = b"Bulk mode; whois.routergeo.test [synthetic]\n";

/// Counts for one scenario.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Stable scenario name.
    pub scenario: &'static str,
    /// Times the scenario ran.
    pub runs: u64,
    /// Requested addresses that came back attributed to exactly one
    /// bucket, summed over runs.
    pub attributed: u64,
    /// Invariant violations (empty on a healthy run).
    pub violations: Vec<String>,
}

/// Report for the protocol pillar.
#[derive(Debug)]
pub struct ProtoOutcome {
    /// Per-scenario aggregates, in a fixed order.
    pub scenarios: Vec<ScenarioOutcome>,
}

/// Tight deadlines so even the nastiest scenario resolves in well under
/// a second of wall time; retries back off on a virtual clock.
fn fast_config(max_attempts: u32) -> BulkConfig {
    BulkConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        chunk_size: 1_000,
        retry: RetryPolicy {
            max_attempts,
            base: Duration::from_millis(50),
            max: Duration::from_millis(500),
            jitter_seed: 11,
        },
        breaker_threshold: 0,
    }
}

/// The bucket-partition invariant: every requested address lands in
/// exactly one of found / not-found / failed, and nothing lands there
/// without being requested. Returns a description of the first breach.
fn partition_breach(requested: &[Ipv4Addr], out: &BulkOutcome) -> Option<String> {
    let mut seen: BTreeMap<Ipv4Addr, u32> = BTreeMap::new();
    for (ip, _) in &out.found {
        *seen.entry(*ip).or_insert(0) += 1;
    }
    for ip in &out.not_found {
        *seen.entry(*ip).or_insert(0) += 1;
    }
    for f in &out.failed {
        *seen.entry(f.ip).or_insert(0) += 1;
    }
    for ip in requested {
        match seen.get(ip) {
            Some(1) => {}
            Some(n) => return Some(format!("{ip} attributed {n} times")),
            None => return Some(format!("{ip} has no attributed outcome")),
        }
    }
    for ip in seen.keys() {
        if !requested.contains(ip) {
            return Some(format!("{ip} attributed but never requested"));
        }
    }
    for u in &out.unsolicited {
        if u.reason != FailReason::Unsolicited {
            return Some(format!("{} quarantined with non-Unsolicited reason", u.ip));
        }
    }
    None
}

/// One-shot scripted peer: accepts a single connection, reads the whole
/// request, writes `response`, and closes (a response that does not end
/// in a newline therefore FINs mid-token).
fn scripted_peer(response: Vec<u8>) -> Result<SocketAddr, String> {
    let listener =
        TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind scripted peer: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("scripted peer addr: {e}"))?;
    #[expect(
        clippy::disallowed_methods,
        reason = "one-shot scripted peer for a single fuzz scenario; it ends with the \
                  connection, there is no fan-out to make deterministic"
    )]
    std::thread::spawn(move || {
        if let Ok((mut s, _)) = listener.accept() {
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = s.set_write_timeout(Some(Duration::from_secs(5)));
            let mut req = Vec::new();
            let _ = s.read_to_end(&mut req);
            let _ = s.write_all(&response);
        }
    });
    Ok(addr)
}

/// Render the scripted response bytes for one client scenario.
fn scripted_response(scenario: &'static str, rng: &mut FuzzRng) -> Vec<u8> {
    let mut out = Vec::new();
    match scenario {
        "client-garbage-lines" => {
            out.extend_from_slice(BANNER);
            let lines = rng.range(3, 20);
            for _ in 0..lines {
                let len = rng.range(0, 80);
                for _ in 0..len {
                    // Printable ASCII, pipes included, so some lines
                    // parse as almost-rows.
                    let b = 0x20 + u8::try_from(rng.below(0x5F)).unwrap_or(0);
                    out.push(b);
                }
                out.push(b'\n');
            }
        }
        "client-binary-junk" => {
            let len = rng.range(64, 2048);
            for _ in 0..len {
                out.push(u8::try_from(rng.below(256)).unwrap_or(0));
            }
        }
        "client-oversized-line" => {
            out.extend_from_slice(BANNER);
            let len = LINE_CAP * usize::try_from(rng.range(2, 8)).unwrap_or(2);
            out.extend(std::iter::repeat_n(b'x', len));
            out.push(b'\n');
        }
        "client-mid-token-fin" => {
            out.extend_from_slice(BANNER);
            // A row cut mid-IP; no trailing newline, so the FIN lands
            // inside the token.
            out.extend_from_slice(b"64500 | 198.51.");
        }
        "client-echo-mismatch" => {
            out.extend_from_slice(BANNER);
            // Rows answering addresses the client never asked about.
            for _ in 0..rng.range(1, 5) {
                let last = rng.below(250);
                let line = format!("64500 | 203.0.113.{last} | 203.0.113.0/24 | US | synthetic\n");
                out.extend_from_slice(line.as_bytes());
            }
        }
        // "client-empty-response" and anything unrecognized: close with
        // no bytes at all.
        _ => {}
    }
    out
}

/// Run the client-vs-scripted-peer scenarios.
fn run_client_scenarios(config: &FuzzConfig, scenarios: &mut Vec<ScenarioOutcome>) {
    const NAMES: [&str; 6] = [
        "client-garbage-lines",
        "client-binary-junk",
        "client-oversized-line",
        "client-mid-token-fin",
        "client-echo-mismatch",
        "client-empty-response",
    ];
    let requested: Vec<Ipv4Addr> = vec![
        Ipv4Addr::new(198, 51, 100, 1),
        Ipv4Addr::new(198, 51, 100, 2),
        Ipv4Addr::new(198, 51, 100, 3),
    ];
    for (s_ix, name) in NAMES.iter().enumerate() {
        let mut out = ScenarioOutcome {
            scenario: name,
            runs: 0,
            attributed: 0,
            violations: Vec::new(),
        };
        for run in 0..config.proto_runs {
            out.runs += 1;
            let mut rng = FuzzRng::new(config.seed ^ (s_ix as u64).rotate_left(32) ^ run);
            let response = scripted_response(name, &mut rng);
            let fail = |msg: String| format!("scenario={name} run={run}: {msg}");
            let upstream = match scripted_peer(response) {
                Ok(a) => a,
                Err(e) => {
                    out.violations.push(fail(e));
                    continue;
                }
            };
            let mut proxy =
                match ChaosProxy::spawn(upstream, FaultPlan::pass_through(), SystemClock::shared())
                {
                    Ok(p) => p,
                    Err(e) => {
                        out.violations.push(fail(format!("spawn proxy: {e}")));
                        continue;
                    }
                };
            let (_clock, handle) = TestClock::shared();
            let client = BulkClient::with_config(proxy.addr(), fast_config(1), handle);
            let ips = requested.clone();
            let outcome = catch_unwind(AssertUnwindSafe(move || client.lookup(&ips)));
            match outcome {
                Err(_) => out.violations.push(fail("client panicked".to_string())),
                Ok(res) => match partition_breach(&requested, &res) {
                    Some(breach) => out.violations.push(fail(breach)),
                    None => out.attributed += requested.len() as u64,
                },
            }
            proxy.shutdown();
        }
        scenarios.push(out);
    }
}

/// Run the client-vs-faulty-proxy scenarios against the real server.
fn run_proxy_fault_scenarios(
    config: &FuzzConfig,
    service: &Arc<MappingService>,
    server_addr: SocketAddr,
    ips: &[Ipv4Addr],
    scenarios: &mut Vec<ScenarioOutcome>,
) {
    const NAMES: [&str; 3] = ["proxy-corrupt-bytes", "proxy-early-fin", "proxy-truncate"];
    for (s_ix, name) in NAMES.iter().enumerate() {
        let mut out = ScenarioOutcome {
            scenario: name,
            runs: 0,
            attributed: 0,
            violations: Vec::new(),
        };
        for run in 0..config.proto_runs {
            out.runs += 1;
            let mut rng = FuzzRng::new(config.seed ^ (s_ix as u64).rotate_left(40) ^ run);
            let fail = |msg: String| format!("scenario={name} run={run}: {msg}");
            let fault = match *name {
                "proxy-corrupt-bytes" => Fault::CorruptBytes {
                    rate_pct: 100,
                    seed: rng.next_u64(),
                },
                "proxy-early-fin" => Fault::EarlyFin,
                _ => Fault::TruncateAfter(usize::try_from(rng.range(60, 400)).unwrap_or(60)),
            };
            let plan = FaultPlan::sequence(vec![fault]);
            let mut proxy = match ChaosProxy::spawn(server_addr, plan, SystemClock::shared()) {
                Ok(p) => p,
                Err(e) => {
                    out.violations.push(fail(format!("spawn proxy: {e}")));
                    continue;
                }
            };
            let (_clock, handle) = TestClock::shared();
            let client = BulkClient::with_config(proxy.addr(), fast_config(3), handle);
            let ips_owned = ips.to_vec();
            let outcome = catch_unwind(AssertUnwindSafe(move || client.lookup(&ips_owned)));
            match outcome {
                Err(_) => out.violations.push(fail("client panicked".to_string())),
                Ok(res) => {
                    if let Some(breach) = partition_breach(ips, &res) {
                        out.violations.push(fail(breach));
                    } else if !res.is_complete() {
                        out.violations.push(fail(format!(
                            "batch incomplete behind a single-shot fault: {} failed",
                            res.failed.len()
                        )));
                    } else {
                        // Nothing from the damaged stream may leak into
                        // the answers.
                        let mut clean = true;
                        for (ip, rec) in &res.found {
                            if service.lookup(*ip) != Some(*rec) {
                                out.violations
                                    .push(fail(format!("{ip} answered with a corrupted record")));
                                clean = false;
                                break;
                            }
                        }
                        for ip in &res.not_found {
                            if service.lookup(*ip).is_some() {
                                clean = false;
                                out.violations.push(fail(format!("{ip} spuriously NA")));
                                break;
                            }
                        }
                        if clean {
                            out.attributed += ips.len() as u64;
                        }
                    }
                }
            }
            proxy.shutdown();
        }
        scenarios.push(out);
    }
}

/// Write seeded adversarial bytes straight at the server (through the
/// given proxy), read whatever comes back, and return it.
fn poke(addr: SocketAddr, payload: &[u8]) -> Result<Vec<u8>, String> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_millis(500))
        .map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| format!("deadline: {e}"))?;
    s.set_write_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| format!("deadline: {e}"))?;
    let _ = s.write_all(payload);
    let _ = s.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    let _ = s.read_to_end(&mut response);
    Ok(response)
}

/// Render the raw bytes for one server-side scenario.
fn server_payload(scenario: &'static str, rng: &mut FuzzRng) -> Vec<u8> {
    match scenario {
        "server-no-begin" => b"hello\n198.51.100.1\nend\n".to_vec(),
        "server-garbage" => {
            let mut out = b"begin\n".to_vec();
            for _ in 0..rng.range(2, 10) {
                let len = rng.range(1, 60);
                for _ in 0..len {
                    out.push(0x20 + u8::try_from(rng.below(0x5F)).unwrap_or(0));
                }
                out.push(b'\n');
            }
            out.extend_from_slice(b"end\n");
            out
        }
        "server-endless-line" => {
            let mut out = b"begin\n".to_vec();
            out.extend(std::iter::repeat_n(b'z', LINE_CAP * 4));
            out
        }
        "server-binary" => {
            let len = rng.range(32, 1024);
            let mut out = Vec::new();
            for _ in 0..len {
                out.push(u8::try_from(rng.below(256)).unwrap_or(0));
            }
            out
        }
        // "server-early-fin" and anything unrecognized: a lone `begin`
        // followed by the FIN.
        _ => b"begin\n".to_vec(),
    }
}

/// Run the adversarial-client-vs-server scenarios, each followed by a
/// well-formed health probe proving the worker pool still serves.
fn run_server_scenarios(
    config: &FuzzConfig,
    server_addr: SocketAddr,
    proxy_addr: SocketAddr,
    probe_ips: &[Ipv4Addr],
    scenarios: &mut Vec<ScenarioOutcome>,
) {
    const NAMES: [&str; 5] = [
        "server-no-begin",
        "server-garbage",
        "server-endless-line",
        "server-binary",
        "server-early-fin",
    ];
    for (s_ix, name) in NAMES.iter().enumerate() {
        let mut out = ScenarioOutcome {
            scenario: name,
            runs: 0,
            attributed: 0,
            violations: Vec::new(),
        };
        for run in 0..config.proto_runs {
            out.runs += 1;
            let mut rng = FuzzRng::new(config.seed ^ (s_ix as u64).rotate_left(48) ^ run);
            let fail = |msg: String| format!("scenario={name} run={run}: {msg}");
            let payload = server_payload(name, &mut rng);
            match poke(proxy_addr, &payload) {
                Err(e) => out.violations.push(fail(e)),
                Ok(response) => {
                    // The shed paths answer with an attributed error
                    // line before closing; these two scenarios have a
                    // deterministic response shape worth pinning.
                    let text = String::from_utf8_lossy(&response);
                    if *name == "server-no-begin" && !text.contains("Error: expected 'begin'") {
                        out.violations
                            .push(fail(format!("missing begin-error line, got {text:?}")));
                    }
                    if *name == "server-endless-line" && !text.contains("Error: line exceeds") {
                        out.violations
                            .push(fail(format!("missing line-cap error, got {text:?}")));
                    }
                }
            }
            // Health probe: the pool must shed the abuse and keep
            // answering well-formed batches, directly at the server.
            let (_clock, handle) = TestClock::shared();
            let client = BulkClient::with_config(server_addr, fast_config(2), handle);
            let ips_owned = probe_ips.to_vec();
            let probe_outcome = catch_unwind(AssertUnwindSafe(move || client.lookup(&ips_owned)));
            match probe_outcome {
                Err(_) => out
                    .violations
                    .push(fail("health probe panicked".to_string())),
                Ok(res) => {
                    if !res.is_complete() {
                        out.violations.push(fail(format!(
                            "health probe incomplete after abuse: {} failed",
                            res.failed.len()
                        )));
                    } else {
                        out.attributed += probe_ips.len() as u64;
                    }
                }
            }
        }
        scenarios.push(out);
    }
}

/// Run the whole pillar. One synthetic world and one real server are
/// shared by the proxy-fault and server-side families; the scripted
/// scenarios bring their own peers.
pub fn run(config: &FuzzConfig) -> ProtoOutcome {
    let mut scenarios = Vec::new();
    run_client_scenarios(config, &mut scenarios);

    let world = World::generate(WorldConfig::tiny(config.seed ^ 0x5EED));
    let service = Arc::new(MappingService::build(&world));
    let ips: Vec<Ipv4Addr> = world
        .interfaces
        .iter()
        .step_by(97)
        .take(8)
        .map(|i| i.ip)
        .collect();
    let mut server = match WhoisServer::spawn(Arc::clone(&service)) {
        Ok(s) => s,
        Err(e) => {
            scenarios.push(ScenarioOutcome {
                scenario: "harness",
                runs: 0,
                attributed: 0,
                violations: vec![format!("spawn whois server: {e}")],
            });
            return ProtoOutcome { scenarios };
        }
    };
    run_proxy_fault_scenarios(config, &service, server.addr(), &ips, &mut scenarios);

    match ChaosProxy::spawn(
        server.addr(),
        FaultPlan::pass_through(),
        SystemClock::shared(),
    ) {
        Ok(mut proxy) => {
            run_server_scenarios(config, server.addr(), proxy.addr(), &ips, &mut scenarios);
            proxy.shutdown();
        }
        Err(e) => scenarios.push(ScenarioOutcome {
            scenario: "harness",
            runs: 0,
            attributed: 0,
            violations: vec![format!("spawn pass-through proxy: {e}")],
        }),
    }
    server.shutdown();
    ProtoOutcome { scenarios }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_round_is_clean() {
        let config = FuzzConfig {
            seed: 0xF00D,
            trials_per_class: 1,
            proto_runs: 1,
            diff_addrs: 4,
        };
        let outcome = run(&config);
        // 6 client + 3 proxy-fault + 5 server scenarios.
        assert_eq!(outcome.scenarios.len(), 14);
        for s in &outcome.scenarios {
            assert!(
                s.violations.is_empty(),
                "{}: {:#?}",
                s.scenario,
                s.violations
            );
            assert_eq!(s.runs, 1);
        }
    }
}
