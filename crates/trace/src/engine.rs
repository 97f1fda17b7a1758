//! The traceroute engine: PoP paths → hop-by-hop measurements.
//!
//! Given a PoP-level path (from [`crate::graph`]), the engine selects the
//! ingress router and interface at every PoP (per-flow deterministic, so a
//! campaign's flows spread load across a PoP's routers the way real ECMP
//! does), assigns RTTs from the [`crate::rttmodel`], and injects loss —
//! both individual non-responding hops and early path abort, mirroring the
//! fault injection the smoltcp examples make standard practice.

use crate::graph::PathTree;
use crate::record::{Hop, TracerouteRecord};
use crate::rttmodel::{flow_seed, RttModel, SplitMix64};
use routergeo_geo::Coordinate;
use routergeo_world::{PopId, World};
use std::net::Ipv4Addr;

/// Traceroute engine over one world.
pub struct TraceEngine<'w> {
    world: &'w World,
    /// RTT model parameters.
    pub model: RttModel,
    /// Probability that an individual hop does not respond.
    pub hop_loss: f64,
    /// Probability per hop that the remainder of the path is lost
    /// (filtered ICMP, rate limiting, routing anomaly).
    pub abort_prob: f64,
    /// Probability the destination itself answers when the path completes.
    pub dst_reply_prob: f64,
    /// Probability the source's first hop is a NAT/CPE gateway answering
    /// from private address space (invisible to interface extraction) —
    /// most Atlas probes sit behind home routers.
    pub private_first_hop: f64,
    campaign_seed: u64,
}

impl<'w> TraceEngine<'w> {
    /// Engine with default fault rates.
    pub fn new(world: &'w World, campaign_seed: u64) -> Self {
        TraceEngine {
            world,
            model: RttModel::default(),
            hop_loss: 0.04,
            abort_prob: 0.01,
            dst_reply_prob: 0.85,
            private_first_hop: 0.55,
            campaign_seed,
        }
    }

    /// The world this engine traces over.
    pub fn world(&self) -> &'w World {
        self.world
    }

    /// Trace from the source of `tree` to `dst_ip` whose /24 is deployed at
    /// `dst_pop`. Returns `None` when the destination PoP is unreachable in
    /// the topology graph.
    #[allow(
        clippy::too_many_arguments,
        reason = "one call per traceroute; the arguments are the trace's independent inputs"
    )]
    pub fn trace(
        &self,
        tree: &PathTree,
        src_coord: Coordinate,
        origin_id: u32,
        src_ip: Ipv4Addr,
        dst_pop: PopId,
        dst_ip: Ipv4Addr,
    ) -> Option<TracerouteRecord> {
        let path = tree.path_to(dst_pop)?;
        Some(self.trace_along(&path, src_coord, origin_id, src_ip, dst_ip))
    }

    /// Trace along an explicit PoP path with cumulative distances from the
    /// source. Used directly when the path was computed from the far end
    /// (anycast target trees) and reversed.
    pub fn trace_along(
        &self,
        path: &[(PopId, f32)],
        src_coord: Coordinate,
        origin_id: u32,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
    ) -> TracerouteRecord {
        let mut rng = SplitMix64::new(flow_seed(
            self.campaign_seed,
            u32::from(src_ip),
            u32::from(dst_ip),
        ));
        let inflation = self.model.draw_inflation(&mut rng);
        let mut hops: Vec<Hop> = Vec::with_capacity(path.len() + 2);
        let mut hop_no = 1u8;
        let mut aborted = false;

        for (i, (pop_id, cum_km)) in path.iter().enumerate() {
            // Within the source PoP, emit the gateway router and (sometimes)
            // one more local router; other PoPs contribute their ingress.
            let local_hops = if i == 0 {
                1 + usize::from(rng.chance(0.5))
            } else {
                1
            };
            for k in 0..local_hops {
                if rng.chance(self.abort_prob) {
                    aborted = true;
                    break;
                }
                // A measurement host has exactly one gateway: the first
                // hop is sticky per source address, not per flow — and for
                // many hosts it is a private-space CPE.
                if i == 0 && k == 0 {
                    let h = flow_seed(self.campaign_seed, u32::from(src_ip), 0xC9E);
                    if (h % 10_000) as f64 / 10_000.0 < self.private_first_hop {
                        let gw = Ipv4Addr::new(192, 168, (h >> 16) as u8, 1);
                        let rtt = self.model.hop_rtt_ms(0.0, inflation, &mut rng);
                        hops.push(Hop::reply(hop_no, gw, rtt));
                        hop_no = hop_no.saturating_add(1);
                        continue;
                    }
                }
                let sticky = (i == 0 && k == 0)
                    .then(|| flow_seed(self.campaign_seed, u32::from(src_ip), 0x6A7E));
                let hop = self.emit_hop(
                    *pop_id,
                    k as u64,
                    *cum_km as f64,
                    inflation,
                    src_coord,
                    sticky,
                    &mut rng,
                    hop_no,
                );
                hops.push(hop);
                hop_no = hop_no.saturating_add(1);
            }
            if aborted {
                break;
            }
        }

        let reached = !aborted && rng.chance(self.dst_reply_prob);
        if reached {
            let total_km = path.last().map(|(_, d)| *d as f64).unwrap_or(0.0);
            let rtt = self.model.hop_rtt_ms(total_km, inflation, &mut rng);
            hops.push(Hop::reply(hop_no, dst_ip, rtt));
        }

        TracerouteRecord {
            origin_id,
            src_ip,
            dst_ip,
            hops,
            reached,
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "per-hop state threaded through the walk without an ad-hoc struct"
    )]
    fn emit_hop(
        &self,
        pop_id: PopId,
        salt: u64,
        cum_km: f64,
        inflation: f64,
        src_coord: Coordinate,
        sticky: Option<u64>,
        rng: &mut SplitMix64,
        hop_no: u8,
    ) -> Hop {
        if rng.chance(self.hop_loss) {
            return Hop::timeout(hop_no);
        }
        let pop = self.world.pop(pop_id);
        let n_routers = pop.router_count() as u64;
        debug_assert!(n_routers > 0, "PoP without routers");
        let pick = match sticky {
            // Keep the rng stream in step either way.
            Some(s) => {
                let _ = rng.next_u64();
                s
            }
            None => rng.next_u64(),
        }
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9));
        let router_id = pop.routers.start + (pick % n_routers) as u32;
        let router = &self.world.routers[router_id as usize];
        let n_if = router.interface_count() as u64;
        let if_idx = router.interfaces.start + ((pick >> 32) % n_if) as u32;
        let ip = self.world.interfaces[if_idx as usize].ip;

        // The physical floor is the direct distance from the measurement
        // source to the actual router; the path distance drives the
        // inflated component. Never undercuts physics w.r.t. true
        // locations — the invariant RTT-proximity extraction relies on.
        let direct_km = src_coord.distance_km(&router.coord);
        let eff_km = cum_km.max(direct_km);
        let rtt = self.model.hop_rtt_ms(eff_km, inflation, rng);
        Hop::reply(hop_no, ip, rtt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Topology;
    use routergeo_geo::distance::min_rtt_ms;
    use routergeo_world::{World, WorldConfig};

    fn setup() -> (World, Topology) {
        let w = World::generate(WorldConfig::tiny(31));
        let t = Topology::build(&w);
        (w, t)
    }

    #[test]
    fn trace_is_deterministic_per_flow() {
        let (w, topo) = setup();
        let engine = TraceEngine::new(&w, 7);
        let src = w.pops[0].id;
        let tree = topo.shortest_paths(src);
        let src_coord = w.city(w.pop(src).city).coord;
        let dst_pop = w.pops[w.pops.len() / 2].id;
        let dst_ip: Ipv4Addr = "198.51.100.7".parse().unwrap();
        let a = engine
            .trace(
                &tree,
                src_coord,
                0,
                "203.0.113.1".parse().unwrap(),
                dst_pop,
                dst_ip,
            )
            .unwrap();
        let b = engine
            .trace(
                &tree,
                src_coord,
                0,
                "203.0.113.1".parse().unwrap(),
                dst_pop,
                dst_ip,
            )
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hop_rtts_are_monotone_modulo_jitter() {
        let (w, topo) = setup();
        let mut engine = TraceEngine::new(&w, 9);
        engine.hop_loss = 0.0;
        engine.abort_prob = 0.0;
        let src = w.pops[1].id;
        let tree = topo.shortest_paths(src);
        let src_coord = w.city(w.pop(src).city).coord;
        let dst_pop = w.pops[w.pops.len() - 1].id;
        let rec = engine
            .trace(
                &tree,
                src_coord,
                0,
                "203.0.113.2".parse().unwrap(),
                dst_pop,
                "198.51.100.9".parse().unwrap(),
            )
            .unwrap();
        assert!(rec.hops.len() >= 2);
        // RTTs broadly increase along the path (allow 1 ms of jitter slack).
        let rtts: Vec<f64> = rec.hops.iter().filter_map(|h| h.rtt_ms).collect();
        for pair in rtts.windows(2) {
            assert!(pair[1] + 1.0 >= pair[0], "rtts {rtts:?}");
        }
    }

    #[test]
    fn hop_rtt_never_beats_distance_to_true_router_location() {
        let (w, topo) = setup();
        let mut engine = TraceEngine::new(&w, 11);
        engine.hop_loss = 0.0;
        engine.abort_prob = 0.0;
        for (si, di) in [(0usize, 5usize), (2, 9), (4, 20)] {
            let src = w.pops[si % w.pops.len()].id;
            let tree = topo.shortest_paths(src);
            let src_coord = w.city(w.pop(src).city).coord;
            let dst_pop = w.pops[di % w.pops.len()].id;
            let rec = engine
                .trace(
                    &tree,
                    src_coord,
                    0,
                    "203.0.113.3".parse().unwrap(),
                    dst_pop,
                    "198.51.100.1".parse().unwrap(),
                )
                .unwrap();
            for hop in &rec.hops {
                let (Some(ip), Some(rtt)) = (hop.ip, hop.rtt_ms) else {
                    continue;
                };
                if ip == rec.dst_ip {
                    continue;
                }
                let router = w.router_of_ip(ip).expect("hop is an interface");
                let direct = src_coord.distance_km(&router.coord);
                assert!(
                    rtt >= min_rtt_ms(direct),
                    "hop {ip} rtt {rtt} beats physics for {direct} km"
                );
            }
        }
    }

    #[test]
    fn loss_produces_timeout_hops() {
        let (w, topo) = setup();
        let mut engine = TraceEngine::new(&w, 13);
        engine.hop_loss = 0.9;
        engine.abort_prob = 0.0;
        let src = w.pops[0].id;
        let tree = topo.shortest_paths(src);
        let src_coord = w.city(w.pop(src).city).coord;
        let dst_pop = w.pops[w.pops.len() / 3].id;
        let rec = engine
            .trace(
                &tree,
                src_coord,
                0,
                "203.0.113.4".parse().unwrap(),
                dst_pop,
                "198.51.100.2".parse().unwrap(),
            )
            .unwrap();
        assert!(
            rec.hops.iter().any(|h| h.ip.is_none()),
            "expected timeouts at 90% loss"
        );
    }

    #[test]
    fn emitted_interfaces_belong_to_path_pops() {
        let (w, topo) = setup();
        let mut engine = TraceEngine::new(&w, 17);
        engine.hop_loss = 0.0;
        engine.abort_prob = 0.0;
        engine.dst_reply_prob = 0.0;
        let src = w.pops[2].id;
        let tree = topo.shortest_paths(src);
        let src_coord = w.city(w.pop(src).city).coord;
        let dst_pop = w.pops[w.pops.len() - 2].id;
        let path: Vec<PopId> = tree
            .path_to(dst_pop)
            .unwrap()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        let rec = engine
            .trace(
                &tree,
                src_coord,
                0,
                "203.0.113.5".parse().unwrap(),
                dst_pop,
                "198.51.100.3".parse().unwrap(),
            )
            .unwrap();
        for hop in &rec.hops {
            if let Some(ip) = hop.ip {
                let router = w.router_of_ip(ip).expect("interface");
                assert!(path.contains(&router.pop), "hop outside path");
            }
        }
    }
}
