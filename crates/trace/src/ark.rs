//! Ark-style topology campaign (§2.1).
//!
//! CAIDA Ark monitors traceroute a randomly selected address in every
//! routed /24. The synthetic campaign does the same over the world's block
//! plan: monitors hosted in stub networks around the world take turns
//! tracing to a random host in randomly drawn /24 blocks; the interface
//! addresses observed on paths form the **Ark-topo-router dataset** the
//! paper's coverage and consistency analysis (§5.1) runs on.

use crate::engine::{Step, TraceEngine};
use crate::graph::{PathTree, Topology};
use crate::record::TracerouteRecord;
use crate::rttmodel::SplitMix64;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use routergeo_pool::{plan_shards, Pool, Shard};
use routergeo_world::{InterfaceId, OperatorKind, PopId, World};
use std::net::Ipv4Addr;

/// Traceroutes per shard. Fixed (never derived from the thread count) so
/// the per-shard destination RNG streams — and therefore the extracted
/// dataset — are identical at every thread count.
const ARK_SHARD_SIZE: usize = 1024;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct ArkConfig {
    /// Campaign RNG seed (independent of the world seed).
    pub seed: u64,
    /// Number of monitors (Ark runs of order dozens).
    pub monitors: usize,
    /// Number of traceroutes to run. `None` = eight passes over every
    /// allocated /24 (the paper probes every routed /24 repeatedly over a
    /// week).
    pub traceroutes: Option<usize>,
}

impl Default for ArkConfig {
    fn default() -> Self {
        ArkConfig {
            seed: 0xA4C,
            monitors: 40,
            traceroutes: None,
        }
    }
}

/// The extracted Ark-topo-router dataset: unique router interface
/// addresses observed on traceroute paths.
#[derive(Debug, Clone)]
pub struct ArkDataset {
    /// Sorted unique interface addresses.
    pub interfaces: Vec<Ipv4Addr>,
    /// Number of traceroutes run to produce it.
    pub traceroutes_run: usize,
}

impl ArkDataset {
    /// Number of interface addresses.
    pub fn len(&self) -> usize {
        self.interfaces.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.interfaces.is_empty()
    }
}

/// A prepared Ark campaign: monitors chosen, shortest-path trees computed.
pub struct ArkCampaign<'w> {
    engine: TraceEngine<'w>,
    monitors: Vec<Monitor>,
    config: ArkConfig,
}

struct Monitor {
    pop: PopId,
    tree: PathTree,
    src_ip: Ipv4Addr,
}

impl<'w> ArkCampaign<'w> {
    /// Prepare a campaign: pick monitors (spread across countries, hosted
    /// in stub networks like real Ark vantage points) and precompute a
    /// shortest-path tree per monitor.
    pub fn new(world: &'w World, topo: &Topology, config: ArkConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x13D0);
        // Group stub PoPs by country, then take one per country in random
        // country order until we have enough monitors.
        let mut by_country: std::collections::HashMap<_, Vec<PopId>> = Default::default();
        for pop in &world.pops {
            if world.operator(pop.op).kind == OperatorKind::Stub {
                by_country
                    .entry(world.city(pop.city).country)
                    .or_default()
                    .push(pop.id);
            }
        }
        let mut countries: Vec<_> = by_country.keys().copied().collect();
        countries.sort();
        countries.shuffle(&mut rng);
        let mut pops = Vec::new();
        'outer: loop {
            for c in &countries {
                let pool = &by_country[c];
                pops.push(pool[rng.gen_range(0..pool.len())]);
                if pops.len() >= config.monitors {
                    break 'outer;
                }
            }
            if countries.is_empty() {
                break;
            }
        }

        let trees = routergeo_obs::span!("ark.trees", monitors = pops.len());
        let monitors = pops
            .into_iter()
            .enumerate()
            .map(|(i, pop)| Monitor {
                pop,
                tree: topo.shortest_paths(pop),
                // Monitor host addresses live outside the router plan.
                src_ip: Ipv4Addr::new(203, (i >> 8) as u8, (i & 0xFF) as u8, 10),
            })
            .collect();
        drop(trees);

        ArkCampaign {
            engine: TraceEngine::new(world, config.seed),
            monitors,
            config,
        }
    }

    /// Number of monitors actually provisioned.
    pub fn monitor_count(&self) -> usize {
        self.monitors.len()
    }

    /// Total traceroutes a full campaign runs (the `traceroutes`
    /// override, or eight passes over every allocated /24).
    pub fn total_traceroutes(&self) -> usize {
        let blocks = self.engine.world().plan().blocks();
        if blocks.is_empty() || self.monitors.is_empty() {
            return 0;
        }
        self.config
            .traceroutes
            .unwrap_or_else(|| blocks.len().saturating_mul(8))
    }

    /// Run one shard of the campaign, invoking `sink` on every record.
    ///
    /// Destination draws come from the shard's private [`SplitMix64`]
    /// stream, so the traceroutes of shard `k` are the same no matter
    /// which worker (or how many workers) executes it. Monitors rotate
    /// round-robin on the *global* traceroute index, mirroring Ark's
    /// team probing.
    pub fn run_shard<F: FnMut(&TracerouteRecord)>(&self, shard: &Shard, mut sink: F) {
        let world = self.engine.world();
        self.for_each_trace(shard, |monitor, origin_id, dst_pop, dst_ip| {
            let src_coord = world.city(world.pop(monitor.pop).city).coord;
            if let Some(rec) = self.engine.trace(
                &monitor.tree,
                src_coord,
                origin_id,
                monitor.src_ip,
                dst_pop,
                dst_ip,
            ) {
                sink(&rec);
            }
        });
    }

    /// The traceroutes of one shard, in order: each one's monitor, origin
    /// id, destination PoP and destination address, drawn from the
    /// shard's stream.
    fn for_each_trace(&self, shard: &Shard, mut visit: impl FnMut(&Monitor, u32, PopId, Ipv4Addr)) {
        let blocks = self.engine.world().plan().blocks();
        if blocks.is_empty() || self.monitors.is_empty() {
            return;
        }
        let mut rng = SplitMix64::new(shard.seed);
        for i in shard.start..shard.end {
            let origin = i % self.monitors.len();
            let block = &blocks[(rng.next_u64() % blocks.len() as u64) as usize];
            let host = 1 + rng.next_u64() % 254;
            let dst_ip = block.block.nth(host).expect("host in /24");
            visit(&self.monitors[origin], origin as u32, block.pop, dst_ip);
        }
    }

    /// Run the whole campaign serially, invoking `sink` on every
    /// traceroute record in global order.
    pub fn run<F: FnMut(&TracerouteRecord)>(&self, mut sink: F) -> usize {
        let total = self.total_traceroutes();
        for shard in plan_shards(self.config.seed ^ 0xDE57, total, ARK_SHARD_SIZE) {
            self.run_shard(&shard, &mut sink);
        }
        total
    }

    /// Run the campaign and extract the unique interface addresses —
    /// the Ark-topo-router dataset. Thread count from the environment
    /// ([`Pool::from_env`]).
    pub fn extract_dataset(&self) -> ArkDataset {
        self.extract_dataset_with(&Pool::from_env())
    }

    /// [`extract_dataset`](ArkCampaign::extract_dataset) on an explicit
    /// pool. Shards run concurrently and walk their traceroutes without
    /// pricing a hop or building a record: each yields the ids of the
    /// interfaces that answered short of the destination, and the fold
    /// marks them, in shard order, in one bit per world interface. The
    /// marked addresses, sorted, are byte-identical at every thread
    /// count and equal to the interface addresses of
    /// [`responding_intermediate_ips`](TracerouteRecord::responding_intermediate_ips)
    /// over [`run`](ArkCampaign::run).
    pub fn extract_dataset_with(&self, pool: &Pool) -> ArkDataset {
        let world = self.engine.world();
        let total = self.total_traceroutes();
        let mut span = routergeo_obs::span!(
            "ark.extract",
            traceroutes = total,
            monitors = self.monitors.len()
        );
        routergeo_obs::counter("ark.traceroutes").add(total as u64);
        let mut seen = vec![0u64; world.interfaces.len().div_ceil(64)];
        pool.fold_count(
            self.config.seed ^ 0xDE57,
            total,
            ARK_SHARD_SIZE,
            |shard| {
                let mut answered: Vec<InterfaceId> = Vec::new();
                let mut path = Vec::new();
                self.for_each_trace(shard, |monitor, _, dst_pop, dst_ip| {
                    if !monitor.tree.path_into(dst_pop, &mut path) {
                        return;
                    }
                    self.engine
                        .walk(&path, monitor.src_ip, dst_ip, |_, step| match step {
                            // A hop answering from the destination address
                            // counts as the destination, as in
                            // `responding_intermediate_ips`; a private CPE
                            // gateway is no world interface.
                            Step::Interface { id, ip, .. } if ip != dst_ip => answered.push(id),
                            _ => {}
                        });
                });
                answered
            },
            |_, answered| {
                for id in answered {
                    seen[id.index() / 64] |= 1 << (id.index() % 64);
                }
            },
        );
        let mut interfaces: Vec<Ipv4Addr> = world
            .interfaces
            .iter()
            .enumerate()
            .filter(|(i, _)| seen[i / 64] & (1 << (i % 64)) != 0)
            .map(|(_, interface)| interface.ip)
            .collect();
        interfaces.sort();
        interfaces.dedup();
        routergeo_obs::counter("ark.interfaces").add(interfaces.len() as u64);
        span.attr("interfaces", interfaces.len());
        ArkDataset {
            interfaces,
            traceroutes_run: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_world::{World, WorldConfig};
    use std::collections::HashSet;

    fn campaign(world: &World) -> (Topology, ArkConfig) {
        let topo = Topology::build(world);
        let cfg = ArkConfig {
            seed: 5,
            monitors: 10,
            traceroutes: Some(2_000),
        };
        (topo, cfg)
    }

    #[test]
    fn dataset_is_deterministic() {
        let w = World::generate(WorldConfig::tiny(41));
        let (topo, cfg) = campaign(&w);
        let a = ArkCampaign::new(&w, &topo, cfg.clone()).extract_dataset();
        let b = ArkCampaign::new(&w, &topo, cfg).extract_dataset();
        assert_eq!(a.interfaces, b.interfaces);
        assert!(!a.is_empty());
    }

    #[test]
    fn parallel_dataset_is_identical_to_serial() {
        let w = World::generate(WorldConfig::tiny(46));
        let (topo, cfg) = campaign(&w);
        let c = ArkCampaign::new(&w, &topo, cfg);
        let serial = c.extract_dataset_with(&Pool::serial());
        for threads in [2, 8] {
            let parallel = c.extract_dataset_with(&Pool::new(threads));
            assert_eq!(serial.interfaces, parallel.interfaces, "threads={threads}");
            assert_eq!(serial.traceroutes_run, parallel.traceroutes_run);
        }
        assert!(!serial.is_empty());
    }

    #[test]
    fn extraction_equals_the_record_path_at_every_width() {
        // The record path: run every traceroute into a record, keep the
        // responding hops short of the destination that are router
        // interfaces, sort and deduplicate.
        let w = World::generate(WorldConfig::tiny(41));
        let topo = Topology::build(&w);
        let cfg = ArkConfig {
            seed: 5,
            monitors: 10,
            traceroutes: Some(4_000),
        };
        let c = ArkCampaign::new(&w, &topo, cfg);
        let mut want = Vec::new();
        let mut dst_on_path = Vec::new();
        c.run(|rec| {
            want.extend(
                rec.responding_intermediate_ips()
                    .filter(|ip| w.find_interface(*ip).is_some()),
            );
            // An intermediate hop answering from the destination address.
            let at_dst = rec.hops.iter().filter(|h| h.ip == Some(rec.dst_ip)).count();
            if at_dst > usize::from(rec.reached) {
                dst_on_path.push(rec.dst_ip);
            }
        });
        want.sort();
        want.dedup();
        // Pin the destination exclusion: some destination is an interface
        // on its own path that no other traceroute saw.
        assert!(
            dst_on_path.iter().any(|ip| want.binary_search(ip).is_err()),
            "no destination-only interface among {dst_on_path:?}"
        );
        for threads in [1, 2, 8] {
            let got = c.extract_dataset_with(&Pool::new(threads));
            assert_eq!(got.interfaces, want, "threads={threads}");
            assert_eq!(got.traceroutes_run, 4_000);
        }
    }

    #[test]
    fn run_matches_sharded_traversal() {
        // `run` must visit exactly the shard plan in order: collecting
        // per-shard records by hand reproduces the serial sink stream.
        let w = World::generate(WorldConfig::tiny(47));
        let (topo, cfg) = campaign(&w);
        let c = ArkCampaign::new(&w, &topo, cfg.clone());
        let mut via_run = Vec::new();
        let total = c.run(|rec| via_run.push(rec.dst_ip));
        let mut via_shards = Vec::new();
        for shard in plan_shards(cfg.seed ^ 0xDE57, total, ARK_SHARD_SIZE) {
            c.run_shard(&shard, |rec| via_shards.push(rec.dst_ip));
        }
        assert_eq!(via_run, via_shards);
    }

    #[test]
    fn dataset_contains_only_real_interfaces() {
        let w = World::generate(WorldConfig::tiny(42));
        let (topo, cfg) = campaign(&w);
        let ds = ArkCampaign::new(&w, &topo, cfg).extract_dataset();
        for ip in &ds.interfaces {
            assert!(w.find_interface(*ip).is_some(), "{ip} not an interface");
        }
    }

    #[test]
    fn more_traceroutes_discover_more_interfaces() {
        let w = World::generate(WorldConfig::tiny(43));
        let topo = Topology::build(&w);
        let small = ArkCampaign::new(
            &w,
            &topo,
            ArkConfig {
                seed: 5,
                monitors: 10,
                traceroutes: Some(200),
            },
        )
        .extract_dataset();
        let large = ArkCampaign::new(
            &w,
            &topo,
            ArkConfig {
                seed: 5,
                monitors: 10,
                traceroutes: Some(4_000),
            },
        )
        .extract_dataset();
        assert!(large.len() > small.len());
    }

    #[test]
    fn campaign_discovers_multiple_operators() {
        let w = World::generate(WorldConfig::tiny(44));
        let (topo, cfg) = campaign(&w);
        let ds = ArkCampaign::new(&w, &topo, cfg).extract_dataset();
        let mut ops = HashSet::new();
        for ip in &ds.interfaces {
            ops.insert(w.block_info(*ip).unwrap().op);
        }
        assert!(ops.len() > 10, "only {} operators discovered", ops.len());
    }

    #[test]
    fn monitors_span_countries() {
        let w = World::generate(WorldConfig::tiny(45));
        let topo = Topology::build(&w);
        let c = ArkCampaign::new(
            &w,
            &topo,
            ArkConfig {
                seed: 5,
                monitors: 12,
                traceroutes: Some(1),
            },
        );
        assert_eq!(c.monitor_count(), 12);
        let countries: HashSet<_> = c
            .monitors
            .iter()
            .map(|m| w.city(w.pop(m.pop).city).country)
            .collect();
        assert!(countries.len() >= 8, "monitors clustered: {countries:?}");
    }
}
