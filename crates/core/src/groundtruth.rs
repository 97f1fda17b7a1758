//! Ground-truth construction (§2.3) and Table 1 statistics.

use routergeo_cymru::{BulkClient, MappingService};
use routergeo_dns::rules::geolocate_interface;
use routergeo_dns::RuleEngine;
use routergeo_geo::stats::ratio;
use routergeo_geo::{Coordinate, CountryCode, Rir};
use routergeo_rtt::RttProximityDataset;
use routergeo_world::{InterfaceId, World};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Which pipeline produced a ground-truth entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GtMethod {
    /// Decoded from hostname hints with operator-confirmed rules (§2.3.1).
    DnsBased,
    /// Credited from a probe within the RTT threshold (§2.3.2).
    RttProximity,
}

/// One ground-truth address with its city-accuracy location.
#[derive(Debug, Clone)]
pub struct GtEntry {
    /// The router interface address.
    pub ip: Ipv4Addr,
    /// City-accuracy location.
    pub coord: Coordinate,
    /// Country of that location.
    pub country: CountryCode,
    /// Allocating RIR (from the whois substrate), when known.
    pub rir: Option<Rir>,
    /// Producing pipeline.
    pub method: GtMethod,
    /// Domain the entry decoded from (DNS-based entries only).
    pub domain: Option<String>,
}

/// The paper's per-domain DNS ground-truth sizes (§2.3.1), used to scale
/// the synthetic DNS-based dataset to Table 1 proportions.
pub const DNS_DOMAIN_TARGETS: [(&str, usize); 7] = [
    ("cogentco", 6_462),
    ("ntt", 2_331),
    ("pnap", 1_437),
    ("seabone", 1_405),
    ("peak10", 170),
    ("digitalwest", 29),
    ("belwue", 23),
];

/// The combined ground-truth dataset.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// All entries, DNS-based first, ascending by address within each
    /// method. Addresses are unique: overlap between the two pipelines is
    /// kept only as DNS-based, as in the paper (§5.2.4).
    pub entries: Vec<GtEntry>,
    /// Addresses found by both pipelines (the 109 of §3.1).
    pub overlap: Vec<Ipv4Addr>,
    /// Addresses whose RIR annotation over the bulk whois socket path
    /// exhausted its retries (see [`GroundTruth::annotate_rir_bulk`]).
    /// These entries carry `rir: None` and are reported as a degraded
    /// bucket in the §5.2 per-region breakdown instead of failing the
    /// run. Empty when the annotation ran in-process. This is a
    /// run-time artifact and is not serialized to the released CSV.
    pub degraded: Vec<Ipv4Addr>,
}

impl GroundTruth {
    /// Build the DNS-based ground truth: decode hostnames of the
    /// ground-truth operators' interfaces with the authoritative rules,
    /// taking up to the per-domain target counts (address order).
    pub fn dns_based(
        world: &World,
        engine: &RuleEngine,
        whois: &MappingService,
        scale: f64,
    ) -> Vec<GtEntry> {
        let mut entries = Vec::new();
        for (name, target) in DNS_DOMAIN_TARGETS {
            let Some(op_id) = world.operator_by_name(name) else {
                continue;
            };
            let op = world.operator(op_id);
            let domain = op.domain.clone().unwrap_or_default();
            let target = ((target as f64 * scale).round() as usize).max(1);
            let mut ifaces: Vec<InterfaceId> = world.interfaces_of_operator(op_id);
            ifaces.sort_by_key(|i| world.interface(*i).ip);
            // Spread the sample across the operator's whole address space
            // (and therefore across all its PoPs), as Ark discovery does —
            // taking the numerically-lowest addresses would bias toward
            // the earliest-allocated PoPs.
            let stride = (ifaces.len() / target.max(1)).max(1);
            let ifaces: Vec<InterfaceId> = ifaces
                .iter()
                .step_by(stride)
                .chain(ifaces.iter().skip(1).step_by(stride))
                .chain(ifaces.iter().skip(2).step_by(stride))
                .copied()
                .collect();
            let mut taken = 0usize;
            let mut seen = std::collections::HashSet::new();
            for id in ifaces {
                if taken >= target {
                    break;
                }
                if !seen.insert(id) {
                    continue;
                }
                let Some(city) = geolocate_interface(world, engine, id) else {
                    continue;
                };
                let ip = world.interface(id).ip;
                let c = world.city(city);
                entries.push(GtEntry {
                    ip,
                    coord: c.coord,
                    country: c.country,
                    rir: whois.lookup(ip).map(|r| r.rir),
                    method: GtMethod::DnsBased,
                    domain: Some(domain.clone()),
                });
                taken += 1;
            }
        }
        entries
    }

    /// Wrap an RTT-proximity dataset as ground-truth entries.
    pub fn from_rtt(dataset: &RttProximityDataset, whois: &MappingService) -> Vec<GtEntry> {
        dataset
            .entries
            .iter()
            .map(|e| GtEntry {
                ip: e.ip,
                coord: e.coord,
                country: e.country,
                rir: whois.lookup(e.ip).map(|r| r.rir),
                method: GtMethod::RttProximity,
                domain: None,
            })
            .collect()
    }

    /// Combine the two pipelines, keeping overlap addresses only in the
    /// DNS-based part (as the paper does).
    pub fn combine(dns: Vec<GtEntry>, rtt: Vec<GtEntry>) -> GroundTruth {
        let dns_ips: std::collections::HashSet<Ipv4Addr> = dns.iter().map(|e| e.ip).collect();
        let mut overlap = Vec::new();
        let mut entries = dns;
        for e in rtt {
            if dns_ips.contains(&e.ip) {
                overlap.push(e.ip);
            } else {
                entries.push(e);
            }
        }
        overlap.sort();
        GroundTruth {
            entries,
            overlap,
            degraded: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ground truth is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries of one method.
    pub fn of_method(&self, method: GtMethod) -> impl Iterator<Item = &GtEntry> {
        self.entries.iter().filter(move |e| e.method == method)
    }

    /// Table 1 row for one method: (total, countries, unique coords,
    /// per-RIR counts in ARIN, APNIC, AFRINIC, LACNIC, RIPENCC order,
    /// plus addresses whose RIR annotation degraded).
    pub fn table1_row(&self, method: GtMethod) -> Table1Row {
        let mut countries = std::collections::HashSet::new();
        let mut coords = std::collections::HashSet::new();
        let mut by_rir: HashMap<Rir, usize> = HashMap::new();
        let mut total = 0usize;
        let mut degraded = 0usize;
        let degraded_set: std::collections::HashSet<Ipv4Addr> =
            self.degraded.iter().copied().collect();
        for e in self.of_method(method) {
            total += 1;
            countries.insert(e.country);
            coords.insert(e.coord);
            if let Some(rir) = e.rir {
                *by_rir.entry(rir).or_default() += 1;
            } else if degraded_set.contains(&e.ip) {
                degraded += 1;
            }
        }
        Table1Row {
            total,
            countries: countries.len(),
            unique_coords: coords.len(),
            per_rir: Rir::TABLE1_ORDER.map(|r| by_rir.get(&r).copied().unwrap_or(0)),
            degraded,
        }
    }

    /// Re-annotate every entry's RIR over the bulk whois **socket
    /// path**, with graceful degradation: addresses whose lookups
    /// exhaust the client's retries keep `rir: None` and are recorded
    /// in [`GroundTruth::degraded`], so a partially-down whois service
    /// shrinks the per-region breakdown instead of aborting the run.
    pub fn annotate_rir_bulk(&mut self, client: &BulkClient) -> RirAnnotation {
        let mut span = routergeo_obs::span!("core.annotate_rir", addresses = self.entries.len());
        let ips: Vec<Ipv4Addr> = self.entries.iter().map(|e| e.ip).collect();
        let outcome = client.lookup(&ips);
        let rir_by_ip: HashMap<Ipv4Addr, Rir> = outcome
            .found
            .iter()
            .map(|(ip, rec)| (*ip, rec.rir))
            .collect();
        let failed: std::collections::HashSet<Ipv4Addr> =
            outcome.failed.iter().map(|f| f.ip).collect();
        let mut ann = RirAnnotation {
            total: self.entries.len(),
            ..RirAnnotation::default()
        };
        self.degraded.clear();
        for e in &mut self.entries {
            if let Some(rir) = rir_by_ip.get(&e.ip) {
                e.rir = Some(*rir);
                ann.resolved += 1;
            } else if failed.contains(&e.ip) {
                e.rir = None;
                ann.degraded += 1;
                self.degraded.push(e.ip);
            } else {
                e.rir = None;
                ann.not_found += 1;
            }
        }
        routergeo_obs::counter("gt.rir_degraded").add(ann.degraded as u64);
        span.attr("resolved", ann.resolved);
        span.attr("degraded", ann.degraded);
        ann
    }
}

/// Summary of one socket-path RIR annotation pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RirAnnotation {
    /// Ground-truth addresses annotated.
    pub total: usize,
    /// Addresses the whois service mapped to a RIR.
    pub resolved: usize,
    /// Addresses the service answered `NA` for.
    pub not_found: usize,
    /// Addresses whose lookups exhausted retries (degraded bucket).
    pub degraded: usize,
}

impl RirAnnotation {
    /// Fraction of addresses with a resolved RIR.
    pub fn coverage(&self) -> f64 {
        ratio(self.resolved, self.total)
    }

    /// Whether the annotation degraded at all.
    pub fn is_degraded(&self) -> bool {
        self.degraded > 0
    }
}

impl GroundTruth {
    /// Serialize as the released-dataset CSV (the paper publishes its
    /// ground truth via IMPACT; this is the equivalent artifact):
    /// `ip,lat,lon,country,rir,method,domain`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("ip,lat,lon,country,rir,method,domain\n");
        for e in &self.entries {
            out.push_str(&format!(
                "{},{:.6},{:.6},{},{},{},{}\n",
                e.ip,
                e.coord.lat(),
                e.coord.lon(),
                e.country,
                e.rir.map(|r| r.name()).unwrap_or("NA"),
                match e.method {
                    GtMethod::DnsBased => "dns",
                    GtMethod::RttProximity => "rtt",
                },
                e.domain.as_deref().unwrap_or("-"),
            ));
        }
        out
    }

    /// Parse a released-dataset CSV back into a ground truth.
    pub fn from_csv(text: &str) -> Result<GroundTruth, GtParseError> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 || line.trim().is_empty() {
                continue; // header
            }
            let lineno = i + 1;
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 7 {
                return Err(GtParseError {
                    line: lineno,
                    what: "column count",
                });
            }
            let err = |what: &'static str| GtParseError { line: lineno, what };
            let ip: Ipv4Addr = fields[0].parse().map_err(|_| err("ip"))?;
            let lat: f64 = fields[1].parse().map_err(|_| err("lat"))?;
            let lon: f64 = fields[2].parse().map_err(|_| err("lon"))?;
            let coord = Coordinate::new(lat, lon).map_err(|_| err("coordinate"))?;
            let country = fields[3].parse().map_err(|_| err("country"))?;
            let rir = match fields[4] {
                "NA" => None,
                s => Some(s.parse().map_err(|_| err("rir"))?),
            };
            let method = match fields[5] {
                "dns" => GtMethod::DnsBased,
                "rtt" => GtMethod::RttProximity,
                _ => return Err(err("method")),
            };
            let domain = match fields[6] {
                "-" => None,
                s => Some(s.to_string()),
            };
            entries.push(GtEntry {
                ip,
                coord,
                country,
                rir,
                method,
                domain,
            });
        }
        Ok(GroundTruth {
            entries,
            overlap: Vec::new(),
            degraded: Vec::new(),
        })
    }
}

/// Error parsing a released ground-truth CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GtParseError {
    /// 1-based line number.
    pub line: usize,
    /// Field that failed.
    pub what: &'static str,
}

impl std::fmt::Display for GtParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ground-truth CSV line {}: bad {}", self.line, self.what)
    }
}

impl std::error::Error for GtParseError {}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Total addresses.
    pub total: usize,
    /// Unique countries.
    pub countries: usize,
    /// Unique coordinates.
    pub unique_coords: usize,
    /// Counts per RIR in Table 1 column order
    /// (ARIN, APNIC, AFRINIC, LACNIC, RIPENCC).
    pub per_rir: [usize; 5],
    /// Addresses whose RIR annotation degraded (unknown registry after
    /// retry exhaustion); 0 on a healthy run.
    pub degraded: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_rtt::{build_dataset, ProximityConfig};
    use routergeo_trace::{AtlasBuiltins, AtlasConfig, Topology};
    use routergeo_world::{World, WorldConfig};

    fn build_gt(seed: u64) -> (World, GroundTruth) {
        let w = World::generate(WorldConfig::small(seed));
        let engine = RuleEngine::with_gt_rules(&w);
        let whois = MappingService::build(&w);
        let dns = GroundTruth::dns_based(&w, &engine, &whois, 0.02);
        let topo = Topology::build(&w);
        let records = AtlasBuiltins::new(
            &w,
            &topo,
            AtlasConfig {
                seed: 7,
                targets: 5,
                instances_per_target: 4,
            },
        )
        .run();
        let (rtt, _) = build_dataset(&w, &records, &ProximityConfig::default());
        let rtt = GroundTruth::from_rtt(&rtt, &whois);
        (w, GroundTruth::combine(dns, rtt))
    }

    #[test]
    fn dns_entries_are_exactly_true_cities() {
        let (w, gt) = build_gt(201);
        let mut n = 0;
        for e in gt.of_method(GtMethod::DnsBased) {
            let (city, _) = w.true_location(e.ip).expect("interface");
            assert_eq!(w.city(city).coord, e.coord, "{}", e.ip);
            assert!(e.domain.is_some());
            n += 1;
        }
        assert!(n > 100, "DNS GT too small: {n}");
    }

    #[test]
    fn rtt_entries_are_near_true_locations() {
        let (w, gt) = build_gt(202);
        let mut n = 0;
        let mut far = 0;
        for e in gt.of_method(GtMethod::RttProximity) {
            let router = w.router_of_ip(e.ip).expect("interface");
            if e.coord.distance_km(&router.coord) > 60.0 {
                far += 1;
            }
            assert!(e.domain.is_none());
            n += 1;
        }
        assert!(n > 100, "RTT GT too small: {n}");
        assert!((far as f64) < n as f64 * 0.05, "{far}/{n} far entries");
    }

    #[test]
    fn combine_removes_duplicates() {
        let (_, gt) = build_gt(203);
        let mut ips: Vec<_> = gt.entries.iter().map(|e| e.ip).collect();
        let before = ips.len();
        ips.sort();
        ips.dedup();
        assert_eq!(ips.len(), before, "duplicate addresses in combined GT");
    }

    #[test]
    fn dns_proportions_follow_targets() {
        let (_, gt) = build_gt(204);
        let mut per_domain: HashMap<&str, usize> = HashMap::new();
        for e in gt.of_method(GtMethod::DnsBased) {
            *per_domain.entry(e.domain.as_deref().unwrap()).or_default() += 1;
        }
        let cogent = per_domain.get("cogentco.com").copied().unwrap_or(0);
        for (d, n) in &per_domain {
            assert!(cogent >= *n, "cogent {cogent} < {d} {n}");
        }
    }

    #[test]
    fn table1_rows_are_consistent() {
        let (_, gt) = build_gt(205);
        for method in [GtMethod::DnsBased, GtMethod::RttProximity] {
            let row = gt.table1_row(method);
            assert_eq!(row.total, gt.of_method(method).count());
            assert!(row.countries <= row.unique_coords.max(1));
            let rir_sum: usize = row.per_rir.iter().sum();
            assert_eq!(
                rir_sum + row.degraded,
                row.total,
                "all addresses must map to a RIR or the degraded bucket"
            );
            assert_eq!(row.degraded, 0, "in-process annotation cannot degrade");
        }
    }

    #[test]
    fn socket_annotation_matches_in_process_annotation() {
        let (w, mut gt) = build_gt(208);
        let before: Vec<_> = gt.entries.iter().map(|e| (e.ip, e.rir)).collect();
        let svc = std::sync::Arc::new(MappingService::build(&w));
        let mut srv = routergeo_cymru::WhoisServer::spawn(svc).expect("spawn");
        let ann = gt.annotate_rir_bulk(&BulkClient::new(srv.addr()));
        assert_eq!(ann.total, gt.len());
        assert_eq!(ann.degraded, 0);
        assert!(ann.coverage() > 0.99, "coverage {}", ann.coverage());
        assert!(gt.degraded.is_empty());
        let after: Vec<_> = gt.entries.iter().map(|e| (e.ip, e.rir)).collect();
        assert_eq!(before, after, "socket path must agree with in-process");
        srv.shutdown();
    }

    #[test]
    fn dead_whois_service_degrades_instead_of_failing() {
        let (_, mut gt) = build_gt(209);
        // Bind then immediately drop: connections to this port are
        // refused, so every chunk exhausts its retries.
        let addr = {
            let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let config = routergeo_cymru::BulkConfig {
            retry: routergeo_cymru::RetryPolicy {
                max_attempts: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let (_, clock) = routergeo_cymru::clock::TestClock::shared();
        let ann = gt.annotate_rir_bulk(&BulkClient::with_config(addr, config, clock));
        assert_eq!(ann.degraded, ann.total);
        assert!(ann.is_degraded());
        assert_eq!(ann.coverage(), 0.0);
        assert_eq!(gt.degraded.len(), gt.len());
        // The degraded bucket flows into Table 1 instead of an error.
        let row = gt.table1_row(GtMethod::DnsBased);
        assert_eq!(row.degraded, row.total);
        assert_eq!(row.per_rir.iter().sum::<usize>(), 0);
    }

    #[test]
    fn csv_export_roundtrips() {
        let (_, gt) = build_gt(207);
        let csv = gt.to_csv();
        assert!(csv.starts_with("ip,lat,lon,country,rir,method,domain\n"));
        let back = GroundTruth::from_csv(&csv).expect("own output parses");
        assert_eq!(back.len(), gt.len());
        for (a, b) in gt.entries.iter().zip(back.entries.iter()) {
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.coord, b.coord);
            assert_eq!(a.country, b.country);
            assert_eq!(a.rir, b.rir);
            assert_eq!(a.method, b.method);
            assert_eq!(a.domain, b.domain);
        }
        // Table 1 statistics survive the round trip.
        assert_eq!(
            gt.table1_row(GtMethod::DnsBased),
            back.table1_row(GtMethod::DnsBased)
        );
    }

    #[test]
    fn csv_parser_rejects_malformed_rows() {
        let header = "ip,lat,lon,country,rir,method,domain\n";
        for (row, what) in [
            ("zz,1,2,US,ARIN,dns,-", "ip"),
            ("1.2.3.4,99,2,US,ARIN,dns,-", "coordinate"),
            ("1.2.3.4,1,2,USA,ARIN,dns,-", "country"),
            ("1.2.3.4,1,2,US,XXRIN,dns,-", "rir"),
            ("1.2.3.4,1,2,US,ARIN,carrier-pigeon,-", "method"),
            ("1.2.3.4,1,2,US,ARIN,dns", "column count"),
        ] {
            let text = format!("{header}{row}\n");
            let e = GroundTruth::from_csv(&text).unwrap_err();
            assert_eq!(e.what, what, "{row}");
            assert_eq!(e.line, 2);
        }
    }

    #[test]
    fn rtt_set_spans_more_countries_than_dns_set() {
        // Table 1: DNS 53 countries vs RTT 118 — probes are everywhere,
        // transit PoPs are not.
        let (_, gt) = build_gt(206);
        let dns = gt.table1_row(GtMethod::DnsBased);
        let rtt = gt.table1_row(GtMethod::RttProximity);
        assert!(
            rtt.countries > dns.countries,
            "rtt {} vs dns {}",
            rtt.countries,
            dns.countries
        );
        // And far more unique coordinates per address.
        assert!(rtt.unique_coords * dns.total > dns.unique_coords * rtt.total);
    }
}
