//! DRoP-style decoding rules.
//!
//! Two decoders are provided:
//!
//! * [`RuleEngine`] — authoritative per-domain rules, as used to build the
//!   paper's ground truth: it knows, for each of the seven ground-truth
//!   domains, *which* label carries the location token and *what kind* of
//!   token it is. It never guesses.
//! * [`GenericDecoder`] — a greedy miner that tries every label of every
//!   hostname against the dictionary (airport, CLLI, city name). This is
//!   the kind of inference a commercial vendor could run over all domains;
//!   NetAcuity's vendor profile uses it (§5.2.4 concludes NetAcuity is the
//!   only database that appears to exploit hostname hints).

use crate::dict::HintDictionary;
use crate::hostname;
use routergeo_world::ases::HostnameStyle;
use routergeo_world::{CityId, World};

/// The kind of location token a rule extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HintKind {
    /// Three-letter airport-style code followed by digits (`dll01`).
    Airport,
    /// Six-letter CLLI-style code followed by digits (`dllstx09`).
    Clli,
    /// Full city name, optionally followed by a digit (`frankfurt2`).
    CityName,
}

/// A per-domain decoding rule: in hostnames under `domain_suffix`, label
/// `label_index` (0-based from the left) carries a token of kind `kind`.
#[derive(Debug, Clone)]
pub struct DomainRule {
    /// Domain suffix the rule applies to (matched with `ends_with`).
    pub domain_suffix: String,
    /// Token kind.
    pub kind: HintKind,
    /// 0-based label position of the location token.
    pub label_index: usize,
}

/// Strip a trailing run of digits from a token.
fn strip_digits(token: &str) -> &str {
    token.trim_end_matches(|c: char| c.is_ascii_digit())
}

impl DomainRule {
    /// Apply the rule to a hostname, returning the city the token decodes
    /// to. `None` when the hostname does not match the rule's shape or the
    /// token is not in the dictionary.
    pub fn decode(&self, hostname: &str, dict: &HintDictionary) -> Option<CityId> {
        if !hostname.ends_with(self.domain_suffix.as_str()) {
            return None;
        }
        let label = hostname.split('.').nth(self.label_index)?;
        let token = strip_digits(label);
        if token.is_empty() || token.len() == label.len() {
            // Location labels always carry a numeric site suffix.
            return None;
        }
        match self.kind {
            HintKind::Airport => (token.len() == 3).then(|| dict.airport(token)).flatten(),
            HintKind::Clli => (token.len() == 6).then(|| dict.clli(token)).flatten(),
            HintKind::CityName => dict.city_name(token),
        }
    }
}

/// The authoritative rule set plus dictionary: DRoP with operator-provided
/// rules.
pub struct RuleEngine {
    rules: Vec<DomainRule>,
    dict: HintDictionary,
}

impl RuleEngine {
    /// Build the engine with ground-truth rules for exactly the operators
    /// that have them (`Operator::has_gt_rules`), deriving each rule from
    /// the operator's hostname convention.
    pub fn with_gt_rules(world: &World) -> RuleEngine {
        let dict = HintDictionary::build(world);
        let mut rules = Vec::new();
        for op in &world.operators {
            if !op.has_gt_rules {
                continue;
            }
            let Some(domain) = op.domain.as_deref() else {
                continue;
            };
            let kind = match op.style {
                HostnameStyle::Iata => HintKind::Airport,
                HostnameStyle::Clli => HintKind::Clli,
                HostnameStyle::CityName => HintKind::CityName,
                HostnameStyle::Opaque | HostnameStyle::None => continue,
            };
            rules.push(DomainRule {
                domain_suffix: domain.to_string(),
                kind,
                label_index: 2,
            });
        }
        RuleEngine { rules, dict }
    }

    /// The rule domains (for reporting).
    pub fn domains(&self) -> Vec<&str> {
        self.rules
            .iter()
            .map(|r| r.domain_suffix.as_str())
            .collect()
    }

    /// The dictionary in use.
    pub fn dict(&self) -> &HintDictionary {
        &self.dict
    }

    /// Whether some rule applies to this hostname's domain.
    pub fn has_rule_for(&self, hostname: &str) -> bool {
        self.rules
            .iter()
            .any(|r| hostname.ends_with(r.domain_suffix.as_str()))
    }

    /// Decode a hostname with the authoritative rules.
    pub fn decode(&self, hostname: &str) -> Option<CityId> {
        self.rules
            .iter()
            .find_map(|r| r.decode(hostname, &self.dict))
    }
}

/// The greedy decoder: tries every label against every token kind.
///
/// More coverage, more risk: a label can coincidentally match a dictionary
/// token for the wrong city. That trade-off is intrinsic to rule-less
/// hint mining and is visible in the vendor evaluation.
pub struct GenericDecoder {
    dict: HintDictionary,
}

impl GenericDecoder {
    /// Build over a world's dictionary.
    pub fn new(world: &World) -> GenericDecoder {
        GenericDecoder {
            dict: HintDictionary::build(world),
        }
    }

    /// Try to decode any location hint in the hostname, scanning labels
    /// left to right, skipping the domain's last two labels.
    pub fn decode(&self, hostname: &str) -> Option<CityId> {
        let labels: Vec<&str> = hostname.split('.').collect();
        let scan = labels.len().saturating_sub(2);
        for label in &labels[..scan] {
            let token = strip_digits(label);
            if token.is_empty() {
                continue;
            }
            if token.len() == 6 {
                if let Some(c) = self.dict.clli(token) {
                    return Some(c);
                }
            }
            if token.len() == 3 && token.len() < label.len() {
                if let Some(c) = self.dict.airport(token) {
                    return Some(c);
                }
            }
            if token.len() >= 4 {
                if let Some(c) = self.dict.city_name(token) {
                    return Some(c);
                }
            }
        }
        None
    }
}

/// Decode an interface's location via rDNS + authoritative rules — the
/// full DNS ground-truth path for one interface.
pub fn geolocate_interface(
    world: &World,
    engine: &RuleEngine,
    iface: routergeo_world::InterfaceId,
) -> Option<CityId> {
    let name = hostname::rdns(world, iface)?;
    engine.decode(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use routergeo_world::{InterfaceId, World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::tiny(81))
    }

    #[test]
    fn engine_has_seven_gt_domains() {
        let w = world();
        let engine = RuleEngine::with_gt_rules(&w);
        let mut domains = engine.domains();
        domains.sort();
        assert_eq!(
            domains,
            vec![
                "belwue.de",
                "cogentco.com",
                "digitalwest.net",
                "ntt.net",
                "peak10.net",
                "pnap.net",
                "seabone.net",
            ]
        );
    }

    #[test]
    fn gt_rules_decode_gt_hostnames_to_true_city() {
        let w = world();
        let engine = RuleEngine::with_gt_rules(&w);
        let mut decoded = 0;
        for spec in routergeo_world::ases::GT_OPERATORS {
            let op = w.operator_by_name(spec.name).unwrap();
            for id in w.interfaces_of_operator(op) {
                let Some(city) = geolocate_interface(&w, &engine, id) else {
                    continue;
                };
                let ip = w.interface(id).ip;
                let (true_city, _) = w.true_location(ip).unwrap();
                assert_eq!(city, true_city, "{} decoded to wrong city", ip);
                decoded += 1;
            }
        }
        assert!(decoded > 100, "only {decoded} ground-truth decodes");
    }

    #[test]
    fn engine_ignores_rule_less_domains() {
        let w = world();
        let engine = RuleEngine::with_gt_rules(&w);
        // gtt is opaque and rule-less; lumen has hints but no GT rules.
        for name in ["gtt", "lumen", "telia"] {
            let op = w.operator_by_name(name).unwrap();
            for id in w.interfaces_of_operator(op).into_iter().take(30) {
                assert_eq!(geolocate_interface(&w, &engine, id), None);
            }
        }
    }

    #[test]
    fn generic_decoder_reads_non_gt_hint_domains() {
        let w = world();
        let generic = GenericDecoder::new(&w);
        // lumen uses CLLI hints without GT rules; the generic decoder
        // should still read many of them.
        let op = w.operator_by_name("lumen").unwrap();
        let mut hits = 0;
        let mut total = 0;
        for id in w.interfaces_of_operator(op) {
            if let Some(name) = hostname::rdns(&w, id) {
                total += 1;
                if let Some(city) = generic.decode(&name) {
                    let (true_city, _) = w.true_location(w.interface(id).ip).unwrap();
                    if city == true_city {
                        hits += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(
            hits * 2 > total,
            "generic decoder hit only {hits}/{total} lumen names"
        );
    }

    #[test]
    fn generic_decoder_rejects_opaque_names() {
        let w = world();
        let generic = GenericDecoder::new(&w);
        let op = w.operator_by_name("gtt").unwrap();
        let mut false_hits = 0;
        let mut total = 0;
        for id in w.interfaces_of_operator(op).into_iter().take(200) {
            if let Some(name) = hostname::rdns(&w, id) {
                total += 1;
                if generic.decode(&name).is_some() {
                    false_hits += 1;
                }
            }
        }
        assert!(total > 0);
        // Hex blobs can occasionally collide with a token; keep it rare.
        assert!(
            false_hits * 10 <= total,
            "{false_hits}/{total} opaque names decoded"
        );
    }

    #[test]
    fn rule_requires_site_digits() {
        let w = world();
        let engine = RuleEngine::with_gt_rules(&w);
        // A label without the numeric site suffix must not decode.
        assert_eq!(engine.decode("ae-1.r01.xyz.cogentco.com"), None);
        assert_eq!(engine.decode(""), None);
        assert_eq!(engine.decode("..."), None);
    }

    #[test]
    fn decode_survives_malformed_hostnames() {
        let w = world();
        let engine = RuleEngine::with_gt_rules(&w);
        let generic = GenericDecoder::new(&w);
        for s in [
            "",
            ".",
            "...",
            "a",
            "0.0.0.cogentco.com",
            "\u{0}weird.\u{7f}.cogentco.com",
            "xn--caf-dma.example",
        ] {
            let _ = engine.decode(s);
            let _ = generic.decode(s);
        }
    }

    #[test]
    fn stale_hostname_decodes_to_stale_city() {
        // The §3.1 mechanism: an address reassigned to a router in another
        // city while keeping its old hostname decodes to the OLD city.
        let w = world();
        let engine = RuleEngine::with_gt_rules(&w);
        let cogent = w.operator_by_name("cogentco").unwrap();
        let ifaces = w.interfaces_of_operator(cogent);
        let old = ifaces
            .iter()
            .find_map(|id| {
                hostname::rdns(&w, *id).filter(|_| geolocate_interface(&w, &engine, *id).is_some())
            })
            .expect("some decodable cogent hostname");
        let old_city = engine.decode(&old).unwrap();
        // Decoding the same (stale) hostname later still yields the old
        // city regardless of where the address now lives.
        assert_eq!(engine.decode(&old), Some(old_city));
    }

    #[test]
    fn strip_digits_behaviour() {
        assert_eq!(strip_digits("dllstx09"), "dllstx");
        assert_eq!(strip_digits("abc"), "abc");
        assert_eq!(strip_digits("123"), "");
        assert_eq!(strip_digits(""), "");
    }

    #[test]
    fn interfaces_without_rdns_do_not_geolocate() {
        let w = world();
        let engine = RuleEngine::with_gt_rules(&w);
        let mut none_count = 0;
        for i in (0..w.interfaces.len()).step_by(11) {
            let id = InterfaceId::from_index(i);
            if hostname::rdns(&w, id).is_none() {
                assert_eq!(geolocate_interface(&w, &engine, id), None);
                none_count += 1;
            }
        }
        assert!(none_count > 0);
    }
}
