//! DNS-based router geolocation (the DRoP pipeline, §2.3.1): reverse-DNS a
//! set of router interfaces, decode location hints with the authoritative
//! per-domain rules, and check the results against the oracle. Also shows
//! the greedy generic decoder a vendor without rules would use, and the
//! hostname churn model from §3.1.
//!
//! ```sh
//! cargo run --release --example dns_geolocate
//! ```

use routergeo::dns::{hostname, ChurnConfig, ChurnModel, ChurnOutcome, GenericDecoder, RuleEngine};
use routergeo::world::{World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::small(21));
    let engine = RuleEngine::with_gt_rules(&world);
    let generic = GenericDecoder::new(&world);
    println!("rule domains: {:?}\n", engine.domains());

    // Decode some hostnames of a ground-truth operator.
    let cogent = world.operator_by_name("cogentco").expect("cogent exists");
    let mut shown = 0;
    println!("{:<46} {:<14} truth", "hostname", "decoded");
    for id in world.interfaces_of_operator(cogent) {
        let Some(name) = hostname::rdns(&world, id) else {
            continue;
        };
        let decoded = engine.decode(&name);
        let ip = world.interface(id).ip;
        let (true_city, _) = world
            .true_location(ip)
            .expect("an interface has a location");
        println!(
            "{:<46} {:<14} {}",
            name,
            decoded
                .map(|c| world.city(c).name.clone())
                .unwrap_or_else(|| "(no match)".into()),
            world.city(true_city).name
        );
        shown += 1;
        if shown >= 8 {
            break;
        }
    }

    // Aggregate accuracy of both decoders over all hint-bearing operators.
    let mut rules_hits = 0usize;
    let mut generic_hits = 0usize;
    let mut named = 0usize;
    for (idx, iface) in world.interfaces.iter().enumerate() {
        let id = routergeo::world::InterfaceId::from_index(idx);
        let Some(name) = hostname::rdns(&world, id) else {
            continue;
        };
        named += 1;
        let (true_city, _) = world
            .true_location(iface.ip)
            .expect("an interface has a location");
        if engine.decode(&name) == Some(true_city) {
            rules_hits += 1;
        }
        if generic.decode(&name) == Some(true_city) {
            generic_hits += 1;
        }
    }
    println!(
        "\nover {named} named interfaces: authoritative rules decode {:.1}%, \
         greedy miner {:.1}% (the miner reads domains the rules cannot)",
        100.0 * rules_hits as f64 / named as f64,
        100.0 * generic_hits as f64 / named as f64
    );

    // Churn (§3.1): what happens to these hostnames after ~16 months.
    let model = ChurnModel::new(&world, ChurnConfig::default());
    let (mut same, mut renamed, mut moved, mut lost, mut gone) = (0, 0, 0, 0, 0);
    let ids = world.interfaces_of_operator(cogent);
    for id in &ids {
        match model.evolve(*id) {
            ChurnOutcome::Same(_) => same += 1,
            ChurnOutcome::RenamedSameLocation(_) => renamed += 1,
            ChurnOutcome::Moved(_, _) => moved += 1,
            ChurnOutcome::HintLost(_) => lost += 1,
            ChurnOutcome::Gone => gone += 1,
        }
    }
    println!(
        "\n16-month churn over {} cogent interfaces: {} same, {} renamed-in-place, \
         {} moved, {} hint lost, {} rDNS gone",
        ids.len(),
        same,
        renamed,
        moved,
        lost,
        gone
    );
}
