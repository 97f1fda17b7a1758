//! Extensions walk-through: constraint-based (delay-based) geolocation
//! and DRoP-style rule inference — the pieces a researcher would reach
//! for when the databases fall short.
//!
//! ```sh
//! cargo run --release --example delay_and_inference
//! ```

use routergeo::dns::{infer_rules, InferenceConfig};
use routergeo::rtt::cbg;
use routergeo::trace::{AtlasBuiltins, AtlasConfig, Topology};
use routergeo::world::{World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::small(77));
    let topo = Topology::build(&world);
    let records = AtlasBuiltins::new(&world, &topo, AtlasConfig::default()).run();
    println!("{} built-in measurement records", records.len());

    // 1. Delay-based geolocation: use the probes as CBG landmarks.
    let results = cbg::evaluate_cbg(&world, &records, 20.0, 2);
    let mut errs: Vec<f64> = results.iter().map(|(_, _, e)| *e).collect();
    errs.sort_by(f64::total_cmp);
    if !errs.is_empty() {
        println!(
            "\nCBG located {} routers: median error {:.1} km, p90 {:.1} km",
            errs.len(),
            errs[errs.len() / 2],
            errs[errs.len() * 9 / 10]
        );
    }
    // Show one worked example.
    if let Some((ip, est, err)) = results.first() {
        println!(
            "  e.g. {ip}: estimate {:.2},{:.2} from {} landmarks \
             (confidence {:.0} km, actual error {err:.1} km)",
            est.coord.lat(),
            est.coord.lon(),
            est.landmarks,
            est.confidence_km
        );
    }

    // 2. Rule inference: learn per-domain hostname rules from RTT-located
    //    addresses, the way DRoP built its 1,398-domain rule base.
    let samples = routergeo::dns::infer::training_from_world(&world, 3);
    let rules = infer_rules(&world, &samples, &InferenceConfig::default());
    println!(
        "\ninferred decoding rules for {} domains from {} training samples:",
        rules.len(),
        samples.len()
    );
    for r in rules.iter().take(10) {
        println!(
            "  {:<22} label #{} as {:?} (support {}, precision {:.1}%)",
            r.rule.domain_suffix,
            r.rule.label_index,
            r.rule.kind,
            r.support,
            r.precision * 100.0
        );
    }
}
