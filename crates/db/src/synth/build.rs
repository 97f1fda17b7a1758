//! Vendor database generation.

use super::signals::SignalWorld;
use super::{CityPolicy, VendorProfile};
use crate::inmem::{InMemoryDb, InMemoryDbBuilder};
use crate::record::{Granularity, LocationRecord};
use routergeo_geo::country::lookup;
use routergeo_geo::Coordinate;
use routergeo_pool::Pool;
use routergeo_world::{BlockInfo, CityId};

/// Address blocks per shard when building a vendor image in parallel.
/// Fixed (never thread-derived): every block's record is a pure hash of
/// `(vendor, block)` via [`SignalWorld`], so sharding only changes which
/// worker computes it, never what is computed.
const VENDOR_SHARD_SIZE: usize = 2048;

/// How a vendor arrived at a block's location — drives the resolution and
/// granularity of the published record.
enum Evidence {
    Dns(CityId),
    MeasHost(CityId),
    MeasBlock(CityId),
    Registry(CityId),
}

/// The vendor's own coordinates for a city: the true city centre offset by
/// a deterministic per-(table, city) jitter of at most `jitter_km`.
fn vendor_city_coord(
    world: &routergeo_world::World,
    table_salt: u64,
    refresh: f64,
    jitter_km: f64,
    city: CityId,
) -> Coordinate {
    let c = world.city(city);
    // Old-revision cities use an alternate salt: same city, different
    // digitized point (still within the jitter radius).
    let mut h = (city.0 as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
    h ^= h >> 29;
    let table_salt = if (h % 10_000) as f64 / 10_000.0 < refresh {
        table_salt
    } else {
        table_salt ^ 0x01D_7AB1E
    };
    let mut z = table_salt ^ (city.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let bearing = (z % 360_000) as f64 / 1000.0;
    let dist = jitter_km * (((z >> 20) % 10_000) as f64 / 10_000.0).sqrt();
    routergeo_geo::distance::destination(&c.coord, bearing, dist)
}

/// The record a vendor publishes for one block, or `None` when the
/// vendor's corpus misses the block. Pure in `(signals, profile, info)`
/// — every draw is a stateless hash — so blocks can be computed in any
/// order, on any worker.
fn block_record(
    signals: &SignalWorld<'_>,
    profile: &VendorProfile,
    info: &BlockInfo,
) -> Option<LocationRecord> {
    let world = signals.world();

    // Record coverage: drawn on the corpus stream so vendors sharing a
    // corpus (the MaxMind editions) miss the same blocks.
    let cov = signals.draw(profile.corpus.salt() ^ 0xC07E, info);
    if cov >= profile.record_coverage {
        return None;
    }

    // Gather evidence in the vendor's priority order.
    let dns = if profile.uses_dns {
        signals.dns_hint(
            profile.coord_table_salt,
            profile.dns_avail,
            profile.dns_stale,
            info,
        )
    } else {
        None
    };
    let avail = match signals.block_kind(info) {
        super::signals::BlockKind::Stub => profile.meas_avail_stub,
        super::signals::BlockKind::DomesticTransit => profile.meas_avail_domestic,
        super::signals::BlockKind::GlobalTransit => profile.meas_avail_transit,
    };
    let meas = signals.measurement_at_epoch(
        profile.corpus,
        avail,
        profile.corpus_lag,
        profile.epoch,
        info,
    );
    let (registry_country, registry_city) = signals.registry(info);

    let evidence = match (dns, meas) {
        (Some(city), _) => Evidence::Dns(city),
        (None, Some(m)) if m.host_precision => Evidence::MeasHost(m.city),
        (None, Some(m)) => Evidence::MeasBlock(m.city),
        (None, None) => Evidence::Registry(registry_city),
    };

    let (city, granularity, confident) = match evidence {
        Evidence::Dns(c) => (c, Granularity::SubBlock, true),
        Evidence::MeasHost(c) => (c, Granularity::SubBlock, true),
        Evidence::MeasBlock(c) => (c, Granularity::Block24, true),
        Evidence::Registry(c) => (c, Granularity::Aggregate, false),
    };

    // Country: from the evidence city when confident, from the
    // registry otherwise (the registry city *is* in the registry
    // country, but stating it explicitly keeps the mechanism visible).
    let country = if confident {
        world.city(city).country
    } else {
        registry_country
    };

    // City policy decides the published resolution.
    let publish_city = match profile.city_policy {
        CityPolicy::Always { p_centroid } => {
            if !confident && signals.draw(0x0CE2_701D, info) < p_centroid {
                // Country-centroid fallback: coordinates, no city.
                return Some(LocationRecord {
                    country: Some(country),
                    region: None,
                    city: None,
                    coord: lookup(country).map(|i| i.centroid()),
                    granularity,
                });
            }
            true
        }
        CityPolicy::Confident {
            p_city_from_registry,
        } => confident || signals.draw(0x02E6_C17F, info) < p_city_from_registry,
    };

    let record = if publish_city {
        let c = world.city(city);
        LocationRecord {
            country: Some(country),
            region: Some(c.region.clone()),
            city: Some(c.name.clone()),
            coord: Some(vendor_city_coord(
                world,
                profile.coord_table_salt,
                profile.coord_table_refresh,
                profile.coord_jitter_km,
                city,
            )),
            granularity,
        }
    } else {
        LocationRecord::country_level(country, granularity)
    };
    Some(record)
}

/// Build one vendor's database over the whole address plan. Thread
/// count from the environment ([`Pool::from_env`]).
pub fn build_vendor(signals: &SignalWorld<'_>, profile: &VendorProfile) -> InMemoryDb {
    build_vendor_with(signals, profile, &Pool::from_env())
}

/// [`build_vendor`] on an explicit pool. Shards of the block plan are
/// rendered concurrently and their `(prefix, record)` rows fed to the
/// builder in shard order, each shard as soon as every earlier one is
/// in — the same insertion sequence as the serial loop, so the image
/// is byte-identical at every thread count.
pub fn build_vendor_with(
    signals: &SignalWorld<'_>,
    profile: &VendorProfile,
    pool: &Pool,
) -> InMemoryDb {
    let world = signals.world();
    let blocks = world.plan().blocks();
    let mut span = routergeo_obs::span!(
        "db.synth",
        vendor = profile.id.name(),
        blocks = blocks.len()
    );
    routergeo_obs::counter("db.synth.blocks").add(blocks.len() as u64);
    let mut builder = InMemoryDbBuilder::new(profile.id.name());
    let mut rows = 0usize;
    pool.fold_shards(
        0,
        blocks,
        VENDOR_SHARD_SIZE,
        |_, chunk| {
            chunk
                .iter()
                .filter_map(|info| block_record(signals, profile, info).map(|r| (info.block, r)))
                .collect::<Vec<_>>()
        },
        |_, shard_rows| {
            rows += shard_rows.len();
            for (prefix, record) in shard_rows {
                builder.push_prefix(prefix, record);
            }
        },
    );
    span.attr("rows", rows);
    builder.build().expect("plan blocks are disjoint")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::VendorId;
    use crate::GeoDatabase;
    use routergeo_geo::CITY_RANGE_KM;
    use routergeo_world::{World, WorldConfig};

    fn all_dbs(world: &World) -> Vec<InMemoryDb> {
        let signals = SignalWorld::new(world);
        VendorProfile::all_presets()
            .iter()
            .map(|p| build_vendor(&signals, p))
            .collect()
    }

    #[test]
    fn determinism() {
        let w = World::generate(WorldConfig::tiny(171));
        let signals = SignalWorld::new(&w);
        let p = VendorProfile::preset(VendorId::NetAcuity);
        let a = build_vendor(&signals, &p);
        let b = build_vendor(&signals, &p);
        for iface in w.interfaces.iter().step_by(41) {
            assert_eq!(a.lookup(iface.ip), b.lookup(iface.ip));
        }
    }

    #[test]
    fn parallel_image_is_identical_to_serial() {
        let w = World::generate(WorldConfig::tiny(178));
        let signals = SignalWorld::new(&w);
        for p in VendorProfile::all_presets() {
            let serial = build_vendor_with(&signals, &p, &Pool::serial());
            for threads in [2, 8] {
                let parallel = build_vendor_with(&signals, &p, &Pool::new(threads));
                for iface in w.interfaces.iter().step_by(17) {
                    assert_eq!(
                        serial.lookup(iface.ip),
                        parallel.lookup(iface.ip),
                        "{} threads={threads} ip={}",
                        p.id.name(),
                        iface.ip
                    );
                }
            }
        }
    }

    #[test]
    fn coverage_ordering_matches_paper() {
        // IP2Location and NetAcuity: near-perfect city coverage.
        // MaxMind: high country coverage, much lower city coverage, with
        // the paid edition above the free one.
        let w = World::generate(WorldConfig::tiny(172));
        let dbs = all_dbs(&w);
        let city_cov: Vec<f64> = dbs
            .iter()
            .map(|db| {
                let mut have = 0usize;
                for iface in &w.interfaces {
                    if db.lookup(iface.ip).map(|r| r.has_city()).unwrap_or(false) {
                        have += 1;
                    }
                }
                have as f64 / w.interfaces.len() as f64
            })
            .collect();
        let (ip2, mm_g, mm_p, neta) = (city_cov[0], city_cov[1], city_cov[2], city_cov[3]);
        assert!(ip2 > 0.9, "IP2Location city coverage {ip2}");
        assert!(neta > 0.9, "NetAcuity city coverage {neta}");
        assert!(mm_g < mm_p, "GeoLite {mm_g} !< Paid {mm_p}");
        assert!(mm_p < 0.85 && mm_g < 0.70, "MaxMind too confident");
    }

    #[test]
    fn maxmind_editions_agree_when_both_answer_cities() {
        let w = World::generate(WorldConfig::tiny(173));
        let dbs = all_dbs(&w);
        let (g, p) = (&dbs[1], &dbs[2]);
        let mut identical = 0usize;
        let mut both = 0usize;
        for iface in &w.interfaces {
            let (Some(rg), Some(rp)) = (g.lookup(iface.ip), p.lookup(iface.ip)) else {
                continue;
            };
            if rg.has_city() && rp.has_city() {
                both += 1;
                if rg.coord == rp.coord {
                    identical += 1;
                }
            }
        }
        assert!(both > 100);
        let frac = identical as f64 / both as f64;
        assert!(frac > 0.55, "identical coords only {frac}");
    }

    #[test]
    fn netacuity_wins_on_country_accuracy() {
        let w = World::generate(WorldConfig::tiny(174));
        let dbs = all_dbs(&w);
        let acc: Vec<f64> = dbs
            .iter()
            .map(|db| {
                let mut right = 0usize;
                let mut total = 0usize;
                for iface in &w.interfaces {
                    let truth = w.true_country(iface.ip).unwrap();
                    if let Some(c) = db.lookup(iface.ip).and_then(|r| r.country) {
                        total += 1;
                        if c == truth {
                            right += 1;
                        }
                    }
                }
                right as f64 / total as f64
            })
            .collect();
        let neta = acc[3];
        for (i, other) in acc.iter().enumerate().take(3) {
            assert!(
                neta > *other,
                "NetAcuity {neta} not above {} {other}",
                dbs[i].name()
            );
        }
        // All databases look decent on the full interface population
        // (stubs dominate); the paper's GT-focused numbers come from the
        // transit-heavy subset.
        assert!(acc.iter().all(|a| *a > 0.7), "{acc:?}");
    }

    #[test]
    fn registry_fallback_pulls_foreign_blocks_home() {
        // The §5.2.3 mechanism: some blocks deployed outside their
        // registry country must be located in the registry country.
        let w = World::generate(WorldConfig::tiny(175));
        let signals = SignalWorld::new(&w);
        let db = build_vendor(&signals, &VendorProfile::preset(VendorId::MaxMindPaid));
        let mut pulled = 0usize;
        for info in w.plan().blocks() {
            let deployed = w.city(info.city).country;
            if deployed == info.registry_country {
                continue;
            }
            let ip = info.block.nth(1).unwrap();
            if let Some(r) = db.lookup(ip) {
                if r.country == Some(info.registry_country) {
                    pulled += 1;
                }
            }
        }
        assert!(pulled > 0, "registry pull never happened");
    }

    #[test]
    fn city_answers_are_vendor_city_coords() {
        // A city-level answer's coordinates must be within the vendor
        // jitter of some real city of the claimed name — and the claimed
        // city name must exist.
        let w = World::generate(WorldConfig::tiny(176));
        let dbs = all_dbs(&w);
        for db in &dbs {
            for iface in w.interfaces.iter().step_by(23) {
                let Some(r) = db.lookup(iface.ip) else {
                    continue;
                };
                if !r.has_city() {
                    continue;
                }
                let name = r.city.as_deref().unwrap();
                let city = w
                    .cities
                    .iter()
                    .find(|c| c.name == name)
                    .unwrap_or_else(|| panic!("unknown city {name}"));
                let d = r.coord.unwrap().distance_km(&city.coord);
                assert!(
                    d <= CITY_RANGE_KM,
                    "{}: vendor coord {d} km from {}",
                    db.name(),
                    name
                );
            }
        }
    }

    #[test]
    fn granularity_tags_follow_evidence() {
        let w = World::generate(WorldConfig::tiny(177));
        let dbs = all_dbs(&w);
        for db in &dbs {
            let mut kinds = std::collections::HashSet::new();
            for iface in &w.interfaces {
                if let Some(r) = db.lookup(iface.ip) {
                    kinds.insert(r.granularity);
                }
            }
            assert!(
                kinds.contains(&Granularity::Aggregate),
                "{} has no registry-derived records",
                db.name()
            );
            assert!(
                kinds.contains(&Granularity::SubBlock),
                "{} has no host-precision records",
                db.name()
            );
        }
    }
}
