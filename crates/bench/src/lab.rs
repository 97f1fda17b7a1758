//! Lab assembly: build the whole pipeline once, reuse across experiments.

use routergeo_core::groundtruth::{GroundTruth, RirAnnotation};
use routergeo_cymru::{BulkClient, MappingService, WhoisServer};
use routergeo_db::synth::{build_vendor_with, SignalWorld, VendorProfile};
use routergeo_db::InMemoryDb;
use routergeo_dns::RuleEngine;
use routergeo_gazetteer::Gazetteer;
use routergeo_net::Prefix;
use routergeo_pool::Pool;
use routergeo_rtt::{build_dataset, ProximityConfig, QaReport, RttProximityDataset};
use routergeo_trace::{
    ArkCampaign, ArkConfig, ArkDataset, AtlasBuiltins, AtlasConfig, Topology, TracerouteRecord,
};
use routergeo_world::{Scale, World, WorldConfig};

pub use crate::timing::{time_stage, StageClock, StageTiming};

/// Lab construction knobs.
#[derive(Debug, Clone)]
pub struct LabConfig {
    /// Master seed.
    pub seed: u64,
    /// World size preset.
    pub scale: Scale,
    /// Scale factor on the paper's per-domain DNS ground-truth targets
    /// (1.0 = the paper's counts; small worlds need less).
    pub dns_gt_scale: f64,
    /// Ark traceroute count (`None`: eight passes over every allocated
    /// /24, as `ArkCampaign::total_traceroutes` runs them).
    pub ark_traceroutes: Option<usize>,
    /// Ark monitor count.
    pub ark_monitors: usize,
    /// Atlas anycast services.
    pub atlas_targets: usize,
    /// Instances per service.
    pub atlas_instances: usize,
    /// RTT-proximity thresholds and QA knobs.
    pub proximity: ProximityConfig,
    /// Worker threads for the parallel stages (`None`: honour
    /// `ROUTERGEO_THREADS`, falling back to the machine's parallelism).
    /// Output is byte-identical at every setting.
    pub threads: Option<usize>,
}

impl LabConfig {
    /// Paper-shaped defaults at the given scale.
    pub fn new(seed: u64, scale: Scale) -> LabConfig {
        LabConfig {
            seed,
            scale,
            dns_gt_scale: match scale {
                Scale::Tiny => 0.02,
                Scale::Small => 0.05,
                Scale::Tenth | Scale::Paper => 1.0,
            },
            ark_traceroutes: None,
            ark_monitors: 40,
            atlas_targets: match scale {
                Scale::Tiny => 4,
                Scale::Small => 6,
                _ => 13,
            },
            atlas_instances: match scale {
                Scale::Tiny | Scale::Small => 4,
                _ => 8,
            },
            proximity: ProximityConfig::default(),
            threads: None,
        }
    }

    /// The worker pool this config resolves to.
    pub fn pool(&self) -> Pool {
        match self.threads {
            Some(n) => Pool::new(n),
            None => Pool::from_env(),
        }
    }

    /// Resolve the scale from `ROUTERGEO_SCALE`, defaulting to `Tenth`
    /// (the benchmark default; `paper` runs the full 1.6 M-interface
    /// world).
    pub fn from_env(seed: u64) -> LabConfig {
        LabConfig::new(seed, Scale::from_env(Scale::Tenth))
    }
}

/// The assembled lab.
pub struct Lab {
    /// Construction knobs used.
    pub config: LabConfig,
    /// The synthetic world (oracle).
    pub world: World,
    /// The four vendor databases in the paper's order:
    /// IP2Location-Lite, MaxMind-GeoLite, MaxMind-Paid, NetAcuity.
    pub dbs: Vec<InMemoryDb>,
    /// IP→ASN/RIR mapping (Team Cymru substitute).
    pub whois: MappingService,
    /// DRoP rule engine with the seven ground-truth domains.
    pub engine: RuleEngine,
    /// Ark-topo-router dataset (§2.1).
    pub ark: ArkDataset,
    /// RTT-proximity dataset after QA (§2.3.2, §3.2).
    pub rtt: RttProximityDataset,
    /// Independent later snapshot at a 1 ms threshold, without QA — the
    /// Giotsas et al. comparison dataset of §3.1/§3.2.
    pub rtt_1ms: RttProximityDataset,
    /// Probe-QA counters (§3.2).
    pub qa: QaReport,
    /// The raw Atlas built-in measurement records (kept for the CBG
    /// extension experiment, which reuses the probes as landmarks).
    pub atlas_records: Vec<TracerouteRecord>,
    /// Combined ground truth (§2.3.3).
    pub gt: GroundTruth,
    /// GeoNames-like gazetteer (§4).
    pub gazetteer: Gazetteer,
    /// Worker pool used for the parallel stages; experiments reuse it so
    /// one `--threads` knob governs the whole run.
    pub pool: Pool,
}

impl Lab {
    /// Build everything. The construction order mirrors the paper's
    /// pipeline; every stage is deterministic in `config` — including the
    /// thread count, which never changes output bytes.
    pub fn build(config: LabConfig) -> Lab {
        Lab::build_timed(config).0
    }

    /// [`Lab::build`] plus per-stage wall-clock timings, for
    /// `repro --timings` / `BENCH_pipeline.json`.
    pub fn build_timed(config: LabConfig) -> (Lab, Vec<StageTiming>) {
        let pool = config.pool();
        let mut stages = Vec::new();

        let world = time_stage(
            &mut stages,
            "world",
            |w: &World| w.interfaces.len(),
            || World::generate(WorldConfig::new(config.seed, config.scale)),
        );
        let topo = time_stage(
            &mut stages,
            "topology",
            |_| world.interfaces.len(),
            || Topology::build(&world),
        );

        // §2.1 Ark campaign → router interface dataset.
        let ark = time_stage(
            &mut stages,
            "ark",
            |d: &ArkDataset| d.interfaces.len(),
            || {
                ArkCampaign::new(
                    &world,
                    &topo,
                    ArkConfig {
                        seed: config.seed ^ 0xA4C,
                        monitors: config.ark_monitors,
                        traceroutes: config.ark_traceroutes,
                    },
                )
                .extract_dataset_with(&pool)
            },
        );

        // §2.3.2 Atlas built-ins → RTT-proximity ground truth.
        let atlas_clock = StageClock::start("atlas_rtt");
        let records = AtlasBuiltins::new(
            &world,
            &topo,
            AtlasConfig {
                seed: config.seed ^ 0xA71A5,
                targets: config.atlas_targets,
                instances_per_target: config.atlas_instances,
            },
        )
        .run();
        let (rtt, qa) = build_dataset(&world, &records, &config.proximity);

        // The 1ms-RTT-proximity comparison set: a *different* measurement
        // campaign (later snapshot, different flows) at a 1 ms threshold,
        // accepted without QA — as the externally-provided dataset was.
        let records_1ms = AtlasBuiltins::new(
            &world,
            &topo,
            AtlasConfig {
                seed: config.seed ^ 0x16_1A5,
                targets: config.atlas_targets,
                instances_per_target: config.atlas_instances,
            },
        )
        .run();
        let onems_cfg = ProximityConfig {
            threshold_ms: 1.0,
            centroid_radius_km: 0.0,
            nearby_max_km: f64::MAX,
            ..config.proximity.clone()
        };
        let (rtt_1ms, _) = build_dataset(&world, &records_1ms, &onems_cfg);
        atlas_clock.finish(&mut stages, rtt.len() + rtt_1ms.len());

        // §2.3.1 DNS-based ground truth + §2.3.3 combination.
        let engine = RuleEngine::with_gt_rules(&world);
        let whois = MappingService::build(&world);
        let gt = time_stage(
            &mut stages,
            "ground_truth",
            |g: &GroundTruth| g.entries.len(),
            || {
                let dns = GroundTruth::dns_based(&world, &engine, &whois, config.dns_gt_scale);
                GroundTruth::combine(dns, GroundTruth::from_rtt(&rtt, &whois))
            },
        );

        // §2.2 the four databases.
        let signals = SignalWorld::new(&world);
        let dbs = time_stage(
            &mut stages,
            "vendor_dbs",
            |dbs: &Vec<InMemoryDb>| dbs.len() * world.plan().blocks().len(),
            || {
                VendorProfile::all_presets()
                    .iter()
                    .map(|p| build_vendor_with(&signals, p, &pool))
                    .collect()
            },
        );

        let gazetteer = Gazetteer::from_world(&world, config.seed ^ 0x6E0, 3.0);

        let lab = Lab {
            config,
            world,
            dbs,
            whois,
            engine,
            ark,
            rtt,
            rtt_1ms,
            qa,
            atlas_records: records,
            gt,
            gazetteer,
            pool,
        };
        (lab, stages)
    }

    /// Spawn a live bulk whois server over this lab's world — the
    /// socket twin of [`Lab::whois`], for exercising the resilient
    /// lookup path (optionally through a fault-injecting proxy).
    pub fn spawn_whois(&self) -> std::io::Result<WhoisServer> {
        WhoisServer::spawn(std::sync::Arc::new(MappingService::build(&self.world)))
    }

    /// Re-annotate the ground truth's RIRs through `client` (typically
    /// pointed at [`Lab::spawn_whois`], possibly via a chaos proxy).
    /// Failures degrade the per-region report instead of aborting.
    pub fn annotate_rir_over_socket(&mut self, client: &BulkClient) -> RirAnnotation {
        self.gt.annotate_rir_bulk(client)
    }

    /// Serialize each vendor database to an RGDB image, in the paper's
    /// vendor order — the serving twin of [`Lab::dbs`]. Each range is
    /// decomposed into covering CIDR prefixes, so a daemon serving the
    /// image answers exactly what the in-memory range map would.
    pub fn vendor_images(&self) -> Vec<bytes::Bytes> {
        self.dbs
            .iter()
            .enumerate()
            .map(|(ix, db)| {
                routergeo_db::rgdb2::write_v21(&format!("vendor-{ix}"), Lab::vendor_entries(db))
            })
            .collect()
    }

    /// The covering-prefix rows a vendor database serializes to.
    fn vendor_entries(db: &InMemoryDb) -> Vec<(Prefix, &routergeo_db::LocationRecord)> {
        db.iter()
            .flat_map(|(start, end, rec)| {
                Prefix::cover_range(start, end)
                    .into_iter()
                    .map(move |p| (p, rec))
            })
            .collect()
    }

    /// Convenience: a small lab for tests.
    pub fn small(seed: u64) -> Lab {
        Lab::build(LabConfig::new(seed, Scale::Small))
    }

    /// Convenience: a tiny lab for unit tests.
    pub fn tiny(seed: u64) -> Lab {
        Lab::build(LabConfig::new(seed, Scale::Tiny))
    }
}
