//! HLOC-style hint verification (related work \[27\], Scheitle et al.):
//! cross-check DNS location hints against latency constraints.
//!
//! A decoded hostname hint claims a location; every RTT measurement to the
//! same address bounds where the address can physically be. A hint whose
//! claimed location violates a constraint is *refuted* — exactly how stale
//! hostnames (the §3.1 churn problem) are caught in practice. Hints with
//! no tight-enough measurements stay *unverifiable*.

use routergeo_dns::rules::geolocate_interface;
use routergeo_dns::RuleEngine;
use routergeo_geo::Coordinate;
use routergeo_rtt::cbg::{collect_constraints, Constraint};
use routergeo_trace::TracerouteRecord;
use routergeo_world::World;
use std::net::Ipv4Addr;

/// Outcome of verifying one hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintVerdict {
    /// Every constraint is satisfied by the claimed location.
    Confirmed,
    /// At least one constraint is violated beyond the slack.
    Refuted,
    /// No latency constraints available for the address.
    Unverifiable,
}

/// Check a claimed location against distance constraints.
///
/// `slack_km` absorbs intra-city scatter: the hint names a city centre
/// while the constraint bounds the router itself.
pub fn verify_location(
    claimed: &Coordinate,
    constraints: &[Constraint],
    slack_km: f64,
) -> HintVerdict {
    if constraints.is_empty() {
        return HintVerdict::Unverifiable;
    }
    for c in constraints {
        if c.at.distance_km(claimed) > c.radius_km + slack_km {
            return HintVerdict::Refuted;
        }
    }
    HintVerdict::Confirmed
}

/// Aggregate verification results over a set of hint-bearing addresses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HlocReport {
    /// Addresses whose hostname decoded to a location.
    pub decoded: usize,
    /// Hints consistent with every latency constraint.
    pub confirmed: usize,
    /// Hints contradicted by latency.
    pub refuted: usize,
    /// Hints without usable constraints.
    pub unverifiable: usize,
    /// Refuted addresses (for inspection).
    pub refuted_addrs: Vec<Ipv4Addr>,
}

impl HlocReport {
    /// Fraction of verifiable hints that were confirmed.
    pub fn confirmation_rate(&self) -> f64 {
        routergeo_geo::stats::ratio(self.confirmed, self.confirmed + self.refuted)
    }
}

/// Verify every decodable interface hint against constraints mined from
/// measurement records. `hostname_of` lets the caller substitute evolved
/// (churned) hostnames; pass `None` to use the world's current rDNS.
pub fn verify_hints(
    world: &World,
    engine: &RuleEngine,
    records: &[TracerouteRecord],
    max_rtt_ms: f64,
    slack_km: f64,
    hostname_of: Option<&dyn Fn(routergeo_world::InterfaceId) -> Option<String>>,
) -> HlocReport {
    let constraints = collect_constraints(world, records, max_rtt_ms);
    let mut report = HlocReport::default();
    for (i, _iface) in world.interfaces.iter().enumerate() {
        let id = routergeo_world::InterfaceId::from_index(i);
        let decoded = match hostname_of {
            Some(f) => f(id).and_then(|name| engine.decode(&name)),
            None => geolocate_interface(world, engine, id),
        };
        let Some(city) = decoded else { continue };
        report.decoded += 1;
        let claimed = world.city(city).coord;
        let ip = world.interfaces[i].ip;
        let cs = constraints.get(&ip).map(Vec::as_slice).unwrap_or(&[]);
        match verify_location(&claimed, cs, slack_km) {
            HintVerdict::Confirmed => report.confirmed += 1,
            HintVerdict::Refuted => {
                report.refuted += 1;
                report.refuted_addrs.push(ip);
            }
            HintVerdict::Unverifiable => report.unverifiable += 1,
        }
    }
    report.refuted_addrs.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_dns::{ChurnConfig, ChurnModel, ChurnOutcome};
    use routergeo_trace::{AtlasBuiltins, AtlasConfig, Topology};
    use routergeo_world::{World, WorldConfig};

    fn c(lat: f64, lon: f64) -> Coordinate {
        Coordinate::new(lat, lon).unwrap()
    }

    #[test]
    fn verdict_logic() {
        let claim = c(50.0, 8.0);
        // Constraint satisfied: landmark 30 km away, radius 50 km.
        let near = Constraint {
            at: c(50.0, 8.4),
            radius_km: 50.0,
        };
        // Constraint violated: landmark 1,000+ km away, radius 50 km.
        let far = Constraint {
            at: c(40.0, 8.0),
            radius_km: 50.0,
        };
        assert_eq!(
            verify_location(&claim, &[], 25.0),
            HintVerdict::Unverifiable
        );
        assert_eq!(
            verify_location(&claim, &[near], 25.0),
            HintVerdict::Confirmed
        );
        assert_eq!(
            verify_location(&claim, &[near, far], 25.0),
            HintVerdict::Refuted
        );
    }

    #[test]
    fn fresh_hints_are_confirmed_stale_hints_refuted() {
        let w = World::generate(WorldConfig::tiny(601));
        let topo = Topology::build(&w);
        let records = AtlasBuiltins::new(
            &w,
            &topo,
            AtlasConfig {
                seed: 6,
                targets: 6,
                instances_per_target: 4,
            },
        )
        .run();
        let engine = RuleEngine::with_gt_rules(&w);

        // Current (truthful) hostnames: verifiable hints must be almost
        // entirely confirmed.
        let fresh = verify_hints(&w, &engine, &records, 20.0, 30.0, None);
        assert!(fresh.decoded > 100, "decoded {}", fresh.decoded);
        // Most verifiable fresh hints confirm; the refuted tail comes from
        // *moved probes* acting as bad landmarks (the same §3.2 problem the
        // paper's QA targets — HLOC inherits it).
        assert!(
            fresh.confirmation_rate() > 0.75,
            "fresh hints refuted: {fresh:?}"
        );

        // Churned hostnames: the moved ones now carry stale hints; the
        // confirmation rate must drop measurably.
        let model = ChurnModel::new(&w, ChurnConfig::default());
        let churned = |id: routergeo_world::InterfaceId| -> Option<String> {
            match model.evolve(id) {
                ChurnOutcome::Same(h)
                | ChurnOutcome::RenamedSameLocation(h)
                | ChurnOutcome::HintLost(h) => Some(h),
                // The address kept its OLD hostname but the router moved:
                // model the § 3.1 failure by returning the original name
                // for moved interfaces.
                ChurnOutcome::Moved(h, _) => Some(h),
                ChurnOutcome::Gone => None,
            }
        };
        let evolved = verify_hints(&w, &engine, &records, 20.0, 30.0, Some(&churned));
        assert!(
            evolved.confirmation_rate() <= fresh.confirmation_rate(),
            "churn did not reduce confirmation: {} vs {}",
            evolved.confirmation_rate(),
            fresh.confirmation_rate()
        );
    }

    #[test]
    fn planted_stale_hint_is_refuted() {
        // Decode every interface to a fixed distant city: any address with
        // tight constraints must refute it.
        let w = World::generate(WorldConfig::tiny(602));
        let topo = Topology::build(&w);
        let records = AtlasBuiltins::new(
            &w,
            &topo,
            AtlasConfig {
                seed: 7,
                targets: 5,
                instances_per_target: 3,
            },
        )
        .run();
        let constraints = collect_constraints(&w, &records, 5.0);
        let mut refuted = 0usize;
        let mut checked = 0usize;
        for (ip, cs) in &constraints {
            let Some(router) = w.router_of_ip(*ip) else {
                continue;
            };
            // Claim a location ~2,000 km away from the true router.
            let claim = routergeo_geo::distance::destination(&router.coord, 90.0, 2_000.0);
            checked += 1;
            if verify_location(&claim, cs, 30.0) == HintVerdict::Refuted {
                refuted += 1;
            }
        }
        assert!(checked > 50);
        assert!(
            refuted * 10 >= checked * 8,
            "only {refuted}/{checked} planted lies refuted"
        );
    }
}
