//! World generation and the ground-truth oracle.

use crate::addressing::{AddressPlan, BlockInfo, RirAllocator};
use crate::ases::{
    GlobalOperatorSpec, HostnameStyle, Operator, OperatorKind, EXTRA_GLOBAL_OPERATORS, GT_OPERATORS,
};
use crate::cities::City;
use crate::config::{Scale, WorldConfig};
use crate::ids::{AsId, CityId, InterfaceId, PopId, ProbeId, RouterId};
use crate::probes::{Probe, ProbeLocationQuality};
use crate::topology::{Interface, Pop, Router};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use routergeo_geo::country::{lookup, COUNTRIES};
use routergeo_geo::distance::destination;
use routergeo_geo::{Coordinate, CountryCode, Rir};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Per-scale tuning constants (see `config::Scale`).
#[derive(Debug, Clone, Copy)]
struct ScaleParams {
    /// Multiplier on operator `size` for global PoP counts.
    presence: f64,
    /// Multiplier on routers-per-transit-PoP (domestic transits).
    routers: f64,
    /// Multiplier on routers-per-PoP for global transits (backbones are a
    /// small share of the world's interfaces).
    global_routers: f64,
    /// Multiplier on stub counts per country weight.
    stubs: f64,
}

fn params(scale: Scale) -> ScaleParams {
    match scale {
        Scale::Tiny => ScaleParams {
            presence: 0.35,
            routers: 0.4,
            global_routers: 0.35,
            stubs: 0.04,
        },
        Scale::Small => ScaleParams {
            presence: 0.9,
            routers: 0.8,
            global_routers: 0.7,
            stubs: 0.35,
        },
        Scale::Tenth => ScaleParams {
            presence: 4.5,
            routers: 3.0,
            global_routers: 1.8,
            stubs: 9.0,
        },
        // Presence grows sublinearly with scale: operators' home-country
        // city counts saturate, so unchecked presence growth would skew
        // their interface mix toward foreign PoPs and away from the
        // calibrated registry-mismatch share.
        Scale::Paper => ScaleParams {
            presence: 6.5,
            routers: 11.0,
            global_routers: 5.5,
            stubs: 170.0,
        },
    }
}

/// The fully generated synthetic world. See the crate docs for the model.
///
/// ```
/// use routergeo_world::{World, WorldConfig};
/// let world = World::generate(WorldConfig::tiny(42));
/// let ip = world.interfaces[0].ip;
/// // The oracle knows every interface's true location…
/// let (city, coord) = world.true_location(ip).unwrap();
/// // …which always lies in the deployment city's metro area.
/// assert!(coord.distance_km(&world.city(city).coord) < 40.0);
/// // Identical seeds regenerate identical worlds.
/// let again = World::generate(WorldConfig::tiny(42));
/// assert_eq!(again.interfaces[0].ip, ip);
/// ```
#[derive(Debug)]
pub struct World {
    /// Generation configuration (including the seed).
    pub config: WorldConfig,
    /// All cities, indexed by [`CityId`].
    pub cities: Vec<City>,
    /// All operators, indexed by [`AsId`].
    pub operators: Vec<Operator>,
    /// All PoPs, indexed by [`PopId`].
    pub pops: Vec<Pop>,
    /// All routers, indexed by [`RouterId`].
    pub routers: Vec<Router>,
    /// All interfaces, indexed by [`InterfaceId`].
    pub interfaces: Vec<Interface>,
    /// All probes, indexed by [`ProbeId`].
    pub probes: Vec<Probe>,
    plan: AddressPlan,
    if_by_ip: HashMap<u32, u32>,
    cities_by_country: HashMap<CountryCode, Vec<CityId>>,
}

impl World {
    /// Generate a world from `config`. Deterministic in the config.
    pub fn generate(config: WorldConfig) -> World {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0057_A7E0_F7EA);
        let p = params(config.scale);

        let cities = crate::cities::generate(config.seed);
        let mut cities_by_country: HashMap<CountryCode, Vec<CityId>> = HashMap::new();
        for c in &cities {
            cities_by_country.entry(c.country).or_default().push(c.id);
        }

        let operators = build_operators(&config, &p, &cities, &cities_by_country, &mut rng);

        let mut world = World {
            config,
            cities,
            operators,
            pops: Vec::new(),
            routers: Vec::new(),
            interfaces: Vec::new(),
            probes: Vec::new(),
            plan: AddressPlan::new(),
            if_by_ip: HashMap::new(),
            cities_by_country,
        };
        build_topology(&mut world, &p, &mut rng);
        build_probes(&mut world, &mut rng);
        world.if_by_ip = world
            .interfaces
            .iter()
            .enumerate()
            .map(|(i, iface)| (u32::from(iface.ip), i as u32))
            .collect();
        world
    }

    // ---- accessors -------------------------------------------------------

    /// The address plan (all allocated /24 blocks).
    pub fn plan(&self) -> &AddressPlan {
        &self.plan
    }

    /// City by id.
    pub fn city(&self, id: CityId) -> &City {
        &self.cities[id.index()]
    }

    /// Operator by id.
    pub fn operator(&self, id: AsId) -> &Operator {
        &self.operators[id.index()]
    }

    /// PoP by id.
    pub fn pop(&self, id: PopId) -> &Pop {
        &self.pops[id.index()]
    }

    /// Router by id.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    /// Interface by id.
    pub fn interface(&self, id: InterfaceId) -> &Interface {
        &self.interfaces[id.index()]
    }

    /// Probe by id.
    pub fn probe(&self, id: ProbeId) -> &Probe {
        &self.probes[id.index()]
    }

    /// City ids of a country (empty slice if none).
    pub fn cities_in(&self, country: CountryCode) -> &[CityId] {
        self.cities_by_country
            .get(&country)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Find the interface that owns `ip`.
    pub fn find_interface(&self, ip: Ipv4Addr) -> Option<InterfaceId> {
        self.if_by_ip.get(&u32::from(ip)).map(|&i| InterfaceId(i))
    }

    /// The router owning `ip`, if it is an interface address.
    pub fn router_of_ip(&self, ip: Ipv4Addr) -> Option<&Router> {
        self.find_interface(ip)
            .map(|i| self.router(self.interfaces[i.index()].router))
    }

    /// Oracle: the true physical location of an interface address —
    /// the owning router's coordinates and its PoP's city.
    pub fn true_location(&self, ip: Ipv4Addr) -> Option<(CityId, Coordinate)> {
        let router = self.router_of_ip(ip)?;
        Some((self.pop(router.pop).city, router.coord))
    }

    /// Oracle: true country of an interface address.
    pub fn true_country(&self, ip: Ipv4Addr) -> Option<CountryCode> {
        self.true_location(ip)
            .map(|(city, _)| self.city(city).country)
    }

    /// Allocation metadata of the /24 containing `ip`.
    pub fn block_info(&self, ip: Ipv4Addr) -> Option<&BlockInfo> {
        self.plan.lookup(ip)
    }

    /// The RIR that allocated `ip` (via the block plan).
    pub fn rir_of_ip(&self, ip: Ipv4Addr) -> Option<Rir> {
        self.block_info(ip).map(|b| b.rir)
    }

    /// Iterate the interface ids belonging to one operator.
    pub fn interfaces_of_operator(&self, op: AsId) -> Vec<InterfaceId> {
        let mut out = Vec::new();
        for pop in &self.pops {
            if pop.op != op {
                continue;
            }
            for rid in pop.router_ids() {
                let r = &self.routers[rid.index()];
                out.extend(r.interfaces.clone().map(InterfaceId));
            }
        }
        out
    }

    /// Operator id by name, if present.
    pub fn operator_by_name(&self, name: &str) -> Option<AsId> {
        self.operators
            .iter()
            .position(|o| o.name == name)
            .map(AsId::from_index)
    }
}

// ---- generation helpers ----------------------------------------------------

fn build_operators(
    config: &WorldConfig,
    p: &ScaleParams,
    cities: &[City],
    by_country: &HashMap<CountryCode, Vec<CityId>>,
    rng: &mut StdRng,
) -> Vec<Operator> {
    let mut ops = Vec::new();
    let mut asn = 1000u32;

    let specs: Vec<GlobalOperatorSpec> = GT_OPERATORS
        .iter()
        .chain(
            EXTRA_GLOBAL_OPERATORS
                .iter()
                .take(config.extra_global_transits),
        )
        .copied()
        .collect();

    for spec in specs {
        let country: CountryCode = spec.country.parse().expect("spec country");
        let info = lookup(country).expect("spec country in table");
        let hq = primary_city(by_country, country);
        let presence = if spec.regional {
            let target = (spec.size as usize * 2).max(2);
            pick_cities_in_country(by_country, cities, country, target, hq, rng)
        } else {
            let target = ((spec.size as f64 * p.presence).round() as usize).max(3);
            pick_cities_global(cities, info.rir, country, target, hq, rng)
        };
        ops.push(Operator {
            id: AsId::from_index(ops.len()),
            asn: next_asn(&mut asn),
            name: spec.name.to_string(),
            kind: OperatorKind::GlobalTransit,
            domain: Some(spec.domain.to_string()),
            style: spec.style,
            rdns_coverage: 0.97,
            has_gt_rules: spec.gt_rules,
            registry_country: country,
            home_rir: info.rir,
            hq_city: hq,
            presence,
            size: spec.size,
            foreign_pop_scale: spec.foreign_pop_scale,
        });
    }

    // Domestic transit operators.
    for info in COUNTRIES {
        let country = info.code();
        let n = if info.weight >= 50 {
            config.domestic_transits_per_country + 1
        } else {
            config.domestic_transits_per_country
        };
        let hq = primary_city(by_country, country);
        for i in 0..n {
            let city_count = by_country[&country].len();
            let target = ((city_count as f64) * rng.gen_range(0.5..0.9)).ceil() as usize;
            let mut presence =
                pick_cities_in_country(by_country, cities, country, target.max(1), hq, rng);
            // Regional carriers: some "domestic" transits also run PoPs in
            // neighbouring countries of the same region while keeping one
            // registry country — a major source of intra-region country
            // errors for registry-fed databases (visible in the paper's
            // RIPE NCC numbers).
            let cross_share = if info.rir == Rir::RipeNcc { 0.35 } else { 0.08 };
            if rng.gen_bool(cross_share) {
                let abroad: Vec<CityId> = cities
                    .iter()
                    .filter(|c| {
                        c.country != country && lookup(c.country).map(|i| i.rir) == Some(info.rir)
                    })
                    .map(|c| c.id)
                    .collect();
                let extra = (presence.len() / 3).clamp(1, 3);
                for _ in 0..extra {
                    if abroad.is_empty() {
                        break;
                    }
                    let pick = abroad[rng.gen_range(0..abroad.len())];
                    if !presence.contains(&pick) {
                        presence.push(pick);
                    }
                }
            }
            let name = format!("{}net{}", country.as_str().to_ascii_lowercase(), i + 1);
            let style = match rng.gen_range(0..10) {
                0..=2 => HostnameStyle::CityName,
                3..=4 => HostnameStyle::Iata,
                5..=8 => HostnameStyle::Opaque,
                _ => HostnameStyle::None,
            };
            let domain = (style != HostnameStyle::None).then(|| format!("{name}.net"));
            ops.push(Operator {
                id: AsId::from_index(ops.len()),
                asn: next_asn(&mut asn),
                name,
                kind: OperatorKind::DomesticTransit,
                domain,
                style,
                rdns_coverage: 0.7,
                has_gt_rules: false,
                registry_country: country,
                home_rir: info.rir,
                hq_city: hq,
                presence,
                size: (info.weight / 4).max(1),
                foreign_pop_scale: 0.4,
            });
        }
    }

    // Stub operators.
    for info in COUNTRIES {
        let country = info.code();
        let count = ((config.stub_density * info.weight as f64 * p.stubs).round() as usize).max(1);
        let city_ids = &by_country[&country];
        for i in 0..count {
            let city = *weighted_city_choice(cities, city_ids, rng);
            let name = format!("{}stub{}", country.as_str().to_ascii_lowercase(), i + 1);
            let style = if rng.gen_bool(0.45) {
                HostnameStyle::Opaque
            } else {
                HostnameStyle::None
            };
            let domain = (style != HostnameStyle::None).then(|| format!("{name}.example"));
            ops.push(Operator {
                id: AsId::from_index(ops.len()),
                asn: next_asn(&mut asn),
                name,
                kind: OperatorKind::Stub,
                domain,
                style,
                rdns_coverage: 0.35,
                has_gt_rules: false,
                registry_country: country,
                home_rir: info.rir,
                hq_city: city,
                presence: vec![city],
                size: 1,
                foreign_pop_scale: 1.0,
            });
        }
    }

    ops
}

fn next_asn(asn: &mut u32) -> u32 {
    let v = *asn;
    *asn += 1;
    v
}

fn primary_city(by_country: &HashMap<CountryCode, Vec<CityId>>, country: CountryCode) -> CityId {
    // cities::generate emits the primary city first for each country.
    by_country[&country][0]
}

fn weighted_city_choice<'a>(cities: &[City], ids: &'a [CityId], rng: &mut StdRng) -> &'a CityId {
    ids.choose_weighted(rng, |id| cities[id.index()].weight as f64)
        .expect("non-empty city list")
}

fn pick_cities_in_country(
    by_country: &HashMap<CountryCode, Vec<CityId>>,
    cities: &[City],
    country: CountryCode,
    target: usize,
    hq: CityId,
    rng: &mut StdRng,
) -> Vec<CityId> {
    let pool = &by_country[&country];
    let mut picked = vec![hq];
    let mut rest: Vec<CityId> = pool.iter().copied().filter(|c| *c != hq).collect();
    while picked.len() < target && !rest.is_empty() {
        let idx = weighted_index(&rest, cities, rng);
        picked.push(rest.swap_remove(idx));
    }
    picked
}

fn pick_cities_global(
    cities: &[City],
    home_rir: Rir,
    home_country: CountryCode,
    target: usize,
    hq: CityId,
    rng: &mut StdRng,
) -> Vec<CityId> {
    let mut picked = vec![hq];
    let mut rest: Vec<CityId> = cities.iter().filter(|c| c.id != hq).map(|c| c.id).collect();
    let target = target.min(cities.len());
    while picked.len() < target && !rest.is_empty() {
        // Weighted by city weight with a home bias: ×3 same country,
        // ×1.5 same RIR region.
        let total: f64 = rest
            .iter()
            .map(|id| global_bias(cities, *id, home_rir, home_country))
            .sum();
        let mut roll = rng.gen_range(0.0..total);
        let mut chosen = rest.len() - 1;
        for (i, id) in rest.iter().enumerate() {
            roll -= global_bias(cities, *id, home_rir, home_country);
            if roll <= 0.0 {
                chosen = i;
                break;
            }
        }
        picked.push(rest.swap_remove(chosen));
    }
    picked
}

fn global_bias(cities: &[City], id: CityId, home_rir: Rir, home_country: CountryCode) -> f64 {
    let c = &cities[id.index()];
    let info = lookup(c.country).expect("city country in table");
    let mut w = c.weight as f64;
    if c.country == home_country {
        w *= 2.5;
    } else if info.rir == home_rir {
        w *= 1.5;
    }
    w
}

fn weighted_index(ids: &[CityId], cities: &[City], rng: &mut StdRng) -> usize {
    let total: f64 = ids.iter().map(|id| cities[id.index()].weight as f64).sum();
    let mut roll = rng.gen_range(0.0..total);
    for (i, id) in ids.iter().enumerate() {
        roll -= cities[id.index()].weight as f64;
        if roll <= 0.0 {
            return i;
        }
    }
    ids.len() - 1
}

fn build_topology(world: &mut World, p: &ScaleParams, rng: &mut StdRng) {
    let mut allocators: HashMap<Rir, RirAllocator> = Rir::ALL
        .iter()
        .map(|r| (*r, RirAllocator::new(*r)))
        .collect();

    // Interface-count distribution ≈ the paper's 3.4 interfaces/router.
    let iface_counts: [(u32, f64); 4] = [(2, 0.25), (3, 0.35), (4, 0.25), (5, 0.15)];

    #[allow(clippy::type_complexity, reason = "one-shot generation scratch tuple")]
    let ops: Vec<(
        AsId,
        OperatorKind,
        Vec<CityId>,
        u16,
        f64,
        Rir,
        CountryCode,
        CityId,
    )> = world
        .operators
        .iter()
        .map(|o| {
            (
                o.id,
                o.kind,
                o.presence.clone(),
                o.size,
                match o.kind {
                    OperatorKind::GlobalTransit => {
                        world.config.routers_per_transit_pop
                            * p.global_routers
                            * (0.6 + o.size as f64 / 18.0)
                    }
                    OperatorKind::DomesticTransit => {
                        world.config.routers_per_transit_pop * p.routers * 0.6
                    }
                    OperatorKind::Stub => world.config.routers_per_stub,
                },
                o.home_rir,
                o.registry_country,
                o.hq_city,
            )
        })
        .collect();

    let foreign_scale: Vec<f64> = world
        .operators
        .iter()
        .map(|o| o.foreign_pop_scale)
        .collect();

    // Local-RIR share per operator (only global transits use it).
    let local_share: Vec<f64> = world
        .operators
        .iter()
        .map(|o| match o.kind {
            OperatorKind::GlobalTransit => crate::ases::GT_OPERATORS
                .iter()
                .chain(crate::ases::EXTRA_GLOBAL_OPERATORS.iter())
                .find(|s| s.name == o.name)
                .map(|s| s.local_rir_share)
                .unwrap_or(0.1),
            _ => 0.0,
        })
        .collect();

    for (op_id, kind, presence, _size, router_base, home_rir, reg_country, hq_city) in ops {
        // Shared infrastructure blocks: transit operators number a share of
        // their interfaces (loopbacks, link nets) out of operator-wide
        // blocks rather than per-PoP ones. The whole block registers and
        // "lives" at the HQ, but its addresses sit on routers in many
        // cities — the paper's §5.2.3 block-co-locality error source
        // ("block-level location assignments can be responsible for large
        // geolocation errors for interface addresses not co-located with
        // the other addresses in their block").
        let mut shared = SharedBlocks::new(
            kind != OperatorKind::Stub,
            PopId::from_index(world.pops.len()),
        );
        for city_id in presence {
            let pop_id = PopId::from_index(world.pops.len());
            let city_coord = world.cities[city_id.index()].coord;

            // Router count for this PoP. Global transit networks keep most
            // of their routers in the registry country: the HQ metro is the
            // largest site, other home-country PoPs are full-size, and
            // foreign PoPs are small — which keeps the share of
            // foreign-deployed (registry-mismatched) interfaces realistic.
            let home = world.cities[city_id.index()].country == reg_country;
            let mult = if city_id == hq_city && kind == OperatorKind::GlobalTransit {
                2.0
            } else if home || kind == OperatorKind::Stub {
                1.0
            } else {
                foreign_scale[op_id.index()]
            };
            let n_routers = ((router_base * mult * rng.gen_range(0.5..1.5)).round() as u32).max(1);

            let router_start = world.routers.len() as u32;
            let mut pop_iface_total = 0u32;
            let mut per_router_ifaces = Vec::with_capacity(n_routers as usize);
            for _ in 0..n_routers {
                let roll: f64 = rng.gen();
                let mut acc = 0.0;
                let mut n_if = 3u32;
                for (n, w) in iface_counts {
                    acc += w;
                    if roll <= acc {
                        n_if = n;
                        break;
                    }
                }
                per_router_ifaces.push(n_if);
                pop_iface_total += n_if;
            }

            // Allocate /24 blocks for the PoP.
            let n_blocks = pop_iface_total.div_ceil(220).max(1);
            let city_rir = lookup(world.cities[city_id.index()].country)
                .expect("city country")
                .rir;
            let mut block_indices = Vec::with_capacity(n_blocks as usize);
            let mut block_prefixes = Vec::with_capacity(n_blocks as usize);
            for _ in 0..n_blocks {
                let rir = if rng.gen_bool(local_share[op_id.index()]) {
                    city_rir
                } else {
                    home_rir
                };
                let block = allocators
                    .get_mut(&rir)
                    .expect("allocator per RIR")
                    .alloc24()
                    .expect("pool exhausted: world too large for synthetic pools");
                // Blocks issued by a *different* RIR than the operator's
                // home registry belong to a local subsidiary: the registry
                // record points at the deployment country (NTT's APNIC
                // space registers in Asia, not to the US parent). Home-RIR
                // blocks keep the parent org's country — the §5.2.3 error
                // mechanism.
                let (registry_country, registry_city) = if rir != home_rir {
                    (world.cities[city_id.index()].country, city_id)
                } else if rng.gen_bool(0.03) {
                    // Stale/wrong whois data: the org relocated or the
                    // record was never accurate; point at a neighbouring
                    // country of the same region. This is the baseline
                    // error floor every registry-fed database shows even
                    // in otherwise-easy regions (Figure 3's ~6% AFRINIC).
                    let candidates: Vec<&routergeo_geo::country::CountryInfo> =
                        routergeo_geo::country::countries_in_rir(rir)
                            .filter(|c| c.code() != reg_country)
                            .collect();
                    if candidates.is_empty() {
                        (reg_country, hq_city)
                    } else {
                        let pick = candidates[rng.gen_range(0..candidates.len())];
                        let city = world.cities_by_country[&pick.code()][0];
                        (pick.code(), city)
                    }
                } else {
                    (reg_country, hq_city)
                };
                block_indices.push(world.plan.len() as u32);
                block_prefixes.push(block);
                world.plan.insert(BlockInfo {
                    block,
                    op: op_id,
                    pop: pop_id,
                    city: city_id,
                    rir,
                    registry_country,
                    registry_city,
                });
            }

            // Create routers + interfaces, filling addresses from the blocks
            // (and, for transit, partly from the operator's shared blocks).
            let mut block_cursor = 0usize;
            let mut host = 1u64; // skip .0
            for n_if in per_router_ifaces {
                let router_id = RouterId::from_index(world.routers.len());
                let bearing = rng.gen_range(0.0..360.0);
                let dist = 15.0 * rng.gen::<f64>().sqrt();
                let coord = destination(&city_coord, bearing, dist);
                let if_start = world.interfaces.len() as u32;
                for _ in 0..n_if {
                    if shared.enabled && rng.gen_bool(SHARED_BLOCK_SHARE) {
                        let ip = shared.next_ip(
                            &mut world.plan,
                            &mut allocators,
                            op_id,
                            home_rir,
                            reg_country,
                            hq_city,
                        );
                        world.interfaces.push(Interface {
                            ip,
                            router: router_id,
                        });
                        continue;
                    }
                    if host >= 255 {
                        block_cursor += 1;
                        host = 1;
                    }
                    let ip = block_prefixes[block_cursor]
                        .nth(host)
                        .expect("host offset < 255");
                    host += 1;
                    world.interfaces.push(Interface {
                        ip,
                        router: router_id,
                    });
                }
                world.routers.push(Router {
                    id: router_id,
                    pop: pop_id,
                    coord,
                    interfaces: if_start..world.interfaces.len() as u32,
                });
            }

            world.pops.push(Pop {
                id: pop_id,
                op: op_id,
                city: city_id,
                routers: router_start..world.routers.len() as u32,
                blocks: block_indices,
            });
        }
    }
}

/// Target probe distribution by RIR, approximating the real RIPE Atlas
/// deployment (Europe-heavy, with small but non-zero populations
/// everywhere) — Table 1's RTT row depends on it.
const PROBE_RIR_SHARE: [(Rir, f64); 5] = [
    (Rir::RipeNcc, 0.66),
    (Rir::Arin, 0.235),
    (Rir::Apnic, 0.068),
    (Rir::Afrinic, 0.022),
    (Rir::Lacnic, 0.015),
];

/// Share of a transit operator's interfaces numbered out of shared
/// operator-wide blocks instead of per-PoP ones.
const SHARED_BLOCK_SHARE: f64 = 0.10;

/// Allocator state for one operator's shared infrastructure blocks.
struct SharedBlocks {
    enabled: bool,
    hq_pop: PopId,
    current: Option<routergeo_net::Prefix>,
    host: u64,
}

impl SharedBlocks {
    fn new(enabled: bool, hq_pop: PopId) -> SharedBlocks {
        SharedBlocks {
            enabled,
            hq_pop,
            current: None,
            host: 1,
        }
    }

    /// Next address from the shared pool, allocating a fresh /24 (recorded
    /// in the plan as deployed at the HQ) when the current one fills up.
    fn next_ip(
        &mut self,
        plan: &mut AddressPlan,
        allocators: &mut HashMap<Rir, RirAllocator>,
        op: AsId,
        home_rir: Rir,
        reg_country: CountryCode,
        hq_city: CityId,
    ) -> Ipv4Addr {
        if self.current.is_none() || self.host >= 255 {
            let block = allocators
                .get_mut(&home_rir)
                .expect("allocator per RIR")
                .alloc24()
                .expect("pool exhausted: world too large for synthetic pools");
            plan.insert(BlockInfo {
                block,
                op,
                pop: self.hq_pop,
                city: hq_city,
                rir: home_rir,
                registry_country: reg_country,
                registry_city: hq_city,
            });
            self.current = Some(block);
            self.host = 1;
        }
        let ip = self
            .current
            .expect("just ensured")
            .nth(self.host)
            .expect("host < 255");
        self.host += 1;
        ip
    }
}

fn build_probes(world: &mut World, rng: &mut StdRng) {
    // Candidate host PoPs: stub networks only, grouped by the RIR of
    // their country.
    let mut pools: HashMap<Rir, Vec<PopId>> = HashMap::new();
    for p in &world.pops {
        if world.operators[p.op.index()].kind != OperatorKind::Stub {
            continue;
        }
        let country = world.cities[p.city.index()].country;
        let rir = lookup(country).expect("country").rir;
        pools.entry(rir).or_default().push(p.id);
    }
    if pools.is_empty() {
        return;
    }
    // Per-pool city weights — sublinear in city size: Atlas hosts sit in
    // small towns nearly as often as in metros.
    let pool_weights: HashMap<Rir, Vec<f64>> = pools
        .iter()
        .map(|(rir, pops)| {
            let w = pops
                .iter()
                .map(|pid| {
                    (world.cities[world.pops[pid.index()].city.index()].weight as f64).powf(0.4)
                })
                .collect();
            (*rir, w)
        })
        .collect();

    for i in 0..world.config.probe_count {
        // Pick the RIR by target share (fall back to RIPE when a region
        // has no stub PoPs at this scale), then a weighted city within it.
        let mut roll: f64 = rng.gen();
        let mut rir = Rir::RipeNcc;
        for (r, share) in PROBE_RIR_SHARE {
            roll -= share;
            if roll <= 0.0 {
                rir = r;
                break;
            }
        }
        let (pops, weights) = match pools.get(&rir) {
            Some(p) if !p.is_empty() => (p, &pool_weights[&rir]),
            _ => (&pools[&Rir::RipeNcc], &pool_weights[&Rir::RipeNcc]),
        };
        let total: f64 = weights.iter().sum();
        let mut roll = rng.gen_range(0.0..total);
        let mut chosen = pops.len() - 1;
        for (j, w) in weights.iter().enumerate() {
            roll -= w;
            if roll <= 0.0 {
                chosen = j;
                break;
            }
        }
        let host_pop = pops[chosen];
        let city_id = world.pops[host_pop.index()].city;
        let city = &world.cities[city_id.index()];
        let info = lookup(city.country).expect("country");

        let true_coord = jitter(rng, &city.coord, 8.0);
        let roll: f64 = rng.gen();
        let (registered_coord, registered_country, quality) = if roll
            < world.config.probe_default_centroid_rate
        {
            (
                jitter(rng, &info.centroid(), 2.0),
                city.country,
                ProbeLocationQuality::DefaultCentroid,
            )
        } else if roll < world.config.probe_default_centroid_rate + world.config.probe_moved_rate {
            // Stale registration: points at a different city.
            let other = stale_city(world, city_id, rng);
            let oc = &world.cities[other.index()];
            (
                jitter(rng, &oc.coord, 2.0),
                oc.country,
                ProbeLocationQuality::Moved,
            )
        } else {
            (
                jitter(rng, &true_coord, 1.5),
                city.country,
                ProbeLocationQuality::Accurate,
            )
        };

        world.probes.push(Probe {
            id: ProbeId::from_index(i),
            host_pop,
            true_city: city_id,
            true_coord,
            registered_country,
            registered_coord,
            quality,
        });
    }
}

fn stale_city(world: &World, current: CityId, rng: &mut StdRng) -> CityId {
    let country = world.cities[current.index()].country;
    let domestic: Vec<CityId> = world
        .cities_in(country)
        .iter()
        .copied()
        .filter(|c| *c != current)
        .collect();
    if !domestic.is_empty() && rng.gen_bool(0.8) {
        domestic[rng.gen_range(0..domestic.len())]
    } else {
        loop {
            let idx = rng.gen_range(0..world.cities.len());
            if idx != current.index() {
                return CityId::from_index(idx);
            }
        }
    }
}

fn jitter(rng: &mut StdRng, center: &Coordinate, max_km: f64) -> Coordinate {
    let bearing = rng.gen_range(0.0..360.0);
    let dist = max_km * rng.gen::<f64>().sqrt();
    destination(center, bearing, dist)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> World {
        World::generate(WorldConfig::tiny(11))
    }

    #[test]
    fn deterministic_generation() {
        let a = World::generate(WorldConfig::tiny(5));
        let b = World::generate(WorldConfig::tiny(5));
        assert_eq!(a.interfaces.len(), b.interfaces.len());
        assert_eq!(a.routers.len(), b.routers.len());
        for (x, y) in a.interfaces.iter().zip(b.interfaces.iter()) {
            assert_eq!(x.ip, y.ip);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldConfig::tiny(5));
        let b = World::generate(WorldConfig::tiny(6));
        let same = a
            .interfaces
            .iter()
            .zip(b.interfaces.iter())
            .filter(|(x, y)| x.ip == y.ip)
            .count();
        assert!(same < a.interfaces.len().min(b.interfaces.len()));
    }

    #[test]
    fn interface_ips_are_unique() {
        let w = tiny();
        let mut seen = std::collections::HashSet::new();
        for iface in &w.interfaces {
            assert!(seen.insert(iface.ip), "duplicate {}", iface.ip);
            let oct = iface.ip.octets();
            assert!(oct[3] != 0 && oct[3] != 255, "reserved host {}", iface.ip);
        }
    }

    #[test]
    fn oracle_roundtrip() {
        let w = tiny();
        for (i, iface) in w.interfaces.iter().enumerate().step_by(7) {
            let id = w.find_interface(iface.ip).expect("find");
            assert_eq!(id.index(), i);
            let (city, coord) = w.true_location(iface.ip).expect("loc");
            let city_coord = w.city(city).coord;
            assert!(coord.distance_km(&city_coord) <= 16.0);
        }
        assert!(w.find_interface("203.0.113.7".parse().unwrap()).is_none());
    }

    #[test]
    fn routers_are_within_city_range_of_city() {
        // The 40 km city-range must tolerate metro scatter.
        let w = tiny();
        for r in &w.routers {
            let city = w.city(w.pop(r.pop).city);
            assert!(r.coord.distance_km(&city.coord) < 40.0);
        }
    }

    #[test]
    fn blocks_cover_all_interfaces() {
        let w = tiny();
        let mut shared = 0usize;
        for iface in &w.interfaces {
            let info = w.block_info(iface.ip).expect("block for interface");
            let r = w.router_of_ip(iface.ip).unwrap();
            if info.pop == r.pop {
                continue;
            }
            // Shared infrastructure blocks: same operator, registered at
            // the HQ, hosting interfaces from other PoPs.
            assert_eq!(info.op, w.pop(r.pop).op, "foreign block on router");
            assert_eq!(info.city, w.operator(info.op).hq_city);
            shared += 1;
        }
        assert!(shared > 0, "no shared-block interfaces generated");
    }

    #[test]
    fn block_rir_matches_pool_octet() {
        let w = tiny();
        for b in w.plan().blocks() {
            let oct = b.block.network().octets()[0];
            assert_eq!(crate::addressing::rir_of_octet(oct), Some(b.rir));
        }
    }

    #[test]
    fn gt_operators_exist_with_rules() {
        let w = tiny();
        for spec in crate::ases::GT_OPERATORS {
            let id = w.operator_by_name(spec.name).expect(spec.name);
            let op = w.operator(id);
            assert!(op.has_gt_rules);
            assert!(!w.interfaces_of_operator(id).is_empty(), "{}", spec.name);
        }
    }

    #[test]
    fn global_transit_blocks_have_foreign_deployments() {
        // The §5.2.3 mechanism: some ARIN-registered blocks deployed
        // outside the registry country.
        let w = tiny();
        let foreign = w
            .plan()
            .blocks()
            .iter()
            .filter(|b| {
                let deployed = w.city(b.city).country;
                deployed != b.registry_country
            })
            .count();
        assert!(foreign > 0, "no registry/deployment mismatches generated");
    }

    #[test]
    fn probes_have_expected_quality_mix() {
        let w = World::generate(WorldConfig::small(3));
        let total = w.probes.len();
        assert!(total >= 300);
        let bad = w
            .probes
            .iter()
            .filter(|p| p.quality != ProbeLocationQuality::Accurate)
            .count();
        // ~2.4% configured; allow slack.
        assert!(bad > 0, "no bad probes at all");
        assert!((bad as f64) < total as f64 * 0.10, "{bad}/{total} bad");
        // Accurate probes register within ~1.5 km.
        for p in &w.probes {
            if p.quality == ProbeLocationQuality::Accurate {
                assert!(p.registration_error_km() < 4.0);
            }
        }
    }

    #[test]
    fn probes_are_europe_heavy() {
        let w = World::generate(WorldConfig::small(4));
        let ripe = w
            .probes
            .iter()
            .filter(|p| {
                let c = w.city(p.true_city);
                lookup(c.country).unwrap().rir == Rir::RipeNcc
            })
            .count();
        assert!(
            ripe * 2 > w.probes.len(),
            "RIPE probes {} of {}",
            ripe,
            w.probes.len()
        );
    }

    #[test]
    fn scales_are_ordered() {
        let tiny = World::generate(WorldConfig::tiny(9));
        let small = World::generate(WorldConfig::small(9));
        assert!(small.interfaces.len() > tiny.interfaces.len() * 2);
    }

    #[test]
    fn pops_router_ranges_partition() {
        let w = tiny();
        let mut covered = 0usize;
        for pop in &w.pops {
            for rid in pop.router_ids() {
                assert_eq!(w.router(rid).pop, pop.id);
                covered += 1;
            }
        }
        assert_eq!(covered, w.routers.len());
    }
}
