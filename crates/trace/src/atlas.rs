//! Atlas-style built-in measurements (§2.3.2).
//!
//! Every RIPE Atlas probe continuously traceroutes a set of well-known
//! targets (DNS root servers). The synthetic equivalent: a handful of
//! anycast services, each with instances at several global-transit PoPs;
//! every probe traces to its nearest instance of every service. The
//! resulting records — origin probe, target, intermediate hops, RTTs — are
//! what `routergeo-rtt` mines for 0.5 ms-proximity ground truth.
//!
//! Anycast routing trick: rather than running Dijkstra per probe
//! (thousands of sources), each *target* gets one multi-source walk from
//! all of its instances at once ([`Topology::nearest_paths`]), and paths
//! are reversed — the graph is undirected, so the shortest path is the
//! same in both directions. The walk labels every PoP with its nearest
//! instance, ties going to the instance drawn first, so a probe reads
//! its nearest instance and the path from it directly: one walk per
//! target instead of one tree per instance.

use crate::engine::TraceEngine;
use crate::graph::{PathTree, Topology};
use crate::record::TracerouteRecord;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use routergeo_world::{OperatorKind, PopId, World};
use std::net::Ipv4Addr;

/// Built-in measurement configuration.
#[derive(Debug, Clone)]
pub struct AtlasConfig {
    /// Campaign seed.
    pub seed: u64,
    /// Number of anycast target services (13 root servers in reality).
    pub targets: usize,
    /// Anycast instances per service.
    pub instances_per_target: usize,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            seed: 0xA71A5,
            targets: 13,
            instances_per_target: 8,
        }
    }
}

/// Prepared built-in measurement campaign.
pub struct AtlasBuiltins<'w> {
    engine: TraceEngine<'w>,
    /// Per target: service address plus the shortest paths from its
    /// nearest instance to every PoP.
    targets: Vec<(Ipv4Addr, PathTree)>,
}

/// Place every target's anycast instances: per target, its service
/// address and its instance PoPs in draw order.
fn place_instances(world: &World, config: &AtlasConfig) -> Vec<(Ipv4Addr, Vec<PopId>)> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0075);
    let global_pops: Vec<PopId> = world
        .pops
        .iter()
        .filter(|p| world.operator(p.op).kind == OperatorKind::GlobalTransit)
        .map(|p| p.id)
        .collect();
    (0..config.targets)
        .map(|t| {
            let mut pool = global_pops.clone();
            pool.shuffle(&mut rng);
            pool.truncate(config.instances_per_target.min(pool.len()).max(1));
            // Service addresses live outside the router plan
            // (100.64.0.0/10 is never allocated to operators).
            (Ipv4Addr::new(100, 64 + (t as u8 % 64), 0, 53), pool)
        })
        .collect()
}

impl<'w> AtlasBuiltins<'w> {
    /// Place anycast instances and walk each target's paths from them.
    pub fn new(world: &'w World, topo: &Topology, config: AtlasConfig) -> Self {
        let placed = place_instances(world, &config);
        let _span = routergeo_obs::span!("atlas.trees", targets = placed.len());
        let targets = placed
            .into_iter()
            .map(|(addr, instances)| (addr, topo.nearest_paths(&instances)))
            .collect();
        AtlasBuiltins {
            engine: TraceEngine::new(world, config.seed),
            targets,
        }
    }

    /// Number of services configured.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Run the built-ins for every probe in the world: each probe traces
    /// to its nearest instance of every service. Records are returned in
    /// (probe, target) order.
    pub fn run(&self) -> Vec<TracerouteRecord> {
        let world = self.engine.world();
        let _span = routergeo_obs::span!(
            "atlas.run",
            probes = world.probes.len(),
            targets = self.targets.len()
        );
        let mut out = Vec::with_capacity(world.probes.len() * self.targets.len());
        for probe in &world.probes {
            // Probe host address: outside the router plan.
            let src_ip = Ipv4Addr::new(
                240,
                (probe.id.0 >> 16) as u8,
                (probe.id.0 >> 8) as u8,
                probe.id.0 as u8,
            );
            for (addr, paths) in &self.targets {
                // The nearest instance's path to the probe, instance first.
                let Some(path) = paths.path_to(probe.host_pop) else {
                    continue;
                };
                let total = path.last().map(|(_, d)| *d).unwrap_or(0.0);
                let reversed: Vec<(PopId, f32)> = path
                    .iter()
                    .rev()
                    .map(|(pop, cum)| (*pop, total - *cum))
                    .collect();
                let rec =
                    self.engine
                        .trace_along(&reversed, probe.true_coord, probe.id.0, src_ip, *addr);
                out.push(rec);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::oracle_tree;
    use routergeo_world::{World, WorldConfig};

    fn run_builtins(seed: u64) -> (World, Vec<TracerouteRecord>) {
        let w = World::generate(WorldConfig::tiny(seed));
        let topo = Topology::build(&w);
        let cfg = AtlasConfig {
            seed: 3,
            targets: 4,
            instances_per_target: 3,
        };
        let records = AtlasBuiltins::new(&w, &topo, cfg).run();
        (w, records)
    }

    #[test]
    fn one_walk_per_target_matches_the_per_instance_trees() {
        // For every probe × target: the nearest instance by the
        // first-minimum rule over the per-instance trees (the oracle
        // Dijkstra), its PoP path, and the bits of every cumulative
        // distance on it.
        let presets: [fn(u64) -> WorldConfig; 2] = [WorldConfig::tiny, WorldConfig::small];
        for make in presets {
            for seed in [1, 7, 20_170_301] {
                let w = World::generate(make(seed));
                let topo = Topology::build(&w);
                let cfg = AtlasConfig {
                    seed,
                    targets: 13,
                    instances_per_target: 8,
                };
                for (addr, instances) in place_instances(&w, &cfg) {
                    let forest = topo.nearest_paths(&instances);
                    let trees: Vec<PathTree> =
                        instances.iter().map(|&i| oracle_tree(&topo, i)).collect();
                    for probe in &w.probes {
                        let nearest = trees
                            .iter()
                            .enumerate()
                            .filter_map(|(i, t)| t.distance_km(probe.host_pop).map(|d| (d, i)))
                            .min_by(|a, b| a.0.total_cmp(&b.0));
                        let want = nearest.and_then(|(_, i)| trees[i].path_to(probe.host_pop));
                        let got = forest.path_to(probe.host_pop);
                        let at = format!("seed {seed}, {addr}, {}", probe.id);
                        if let (Some(path), Some((_, i))) = (&got, nearest) {
                            assert_eq!(path[0].0, instances[i], "instance: {at}");
                        }
                        let bits = |p: Option<Vec<(PopId, f32)>>| {
                            p.map(|p| {
                                p.iter()
                                    .map(|&(pop, d)| (pop, d.to_bits()))
                                    .collect::<Vec<_>>()
                            })
                        };
                        assert_eq!(bits(got), bits(want), "path: {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_probe_measures_every_target() {
        let (w, records) = run_builtins(51);
        assert_eq!(records.len(), w.probes.len() * 4);
        let probes: std::collections::HashSet<_> = records.iter().map(|r| r.origin_id).collect();
        assert_eq!(probes.len(), w.probes.len());
    }

    #[test]
    fn first_hops_are_near_the_probe() {
        // The property RTT-proximity extraction depends on: hops measured
        // under 0.5 ms are physically within 50 km of the probe.
        let (w, records) = run_builtins(52);
        let mut checked = 0;
        for rec in &records {
            let probe = &w.probes[rec.origin_id as usize];
            for hop in &rec.hops {
                let (Some(ip), Some(rtt)) = (hop.ip, hop.rtt_ms) else {
                    continue;
                };
                if rtt >= 0.5 || ip == rec.dst_ip {
                    continue;
                }
                // Private CPE gateways are not world interfaces.
                let Some(router) = w.router_of_ip(ip) else {
                    assert!(ip.is_private(), "non-interface public hop {ip}");
                    continue;
                };
                let d = probe.true_coord.distance_km(&router.coord);
                assert!(d <= 50.0, "hop {ip} at {d} km with rtt {rtt}");
                checked += 1;
            }
        }
        assert!(checked > 50, "too few sub-0.5ms hops: {checked}");
    }

    #[test]
    fn most_probes_have_multiple_local_hops() {
        // §2.3.2: >80% of RTT-proximity addresses are ≥2 hops from the
        // probe, i.e. the built-ins expose more than just the gateway.
        let (_, records) = run_builtins(53);
        let with_two = records
            .iter()
            .filter(|r| r.hops.iter().filter(|h| h.ip.is_some()).count() >= 2)
            .count();
        assert!(with_two * 10 > records.len() * 7);
    }

    #[test]
    fn target_addresses_are_not_world_interfaces() {
        let (w, records) = run_builtins(54);
        for rec in records.iter().take(100) {
            assert!(w.find_interface(rec.dst_ip).is_none());
        }
    }

    #[test]
    fn deterministic() {
        let (_, a) = run_builtins(55);
        let (_, b) = run_builtins(55);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }
}
