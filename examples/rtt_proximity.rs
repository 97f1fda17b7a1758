//! RTT-proximity ground truth (§2.3.2 / §3.2): run Atlas-style built-in
//! traceroutes, extract sub-0.5 ms hops, disqualify bad probes, and check
//! the resulting locations against the oracle. Also shows a measurement
//! record in the Atlas JSON shape.
//!
//! ```sh
//! cargo run --release --example rtt_proximity
//! ```

use routergeo::rtt::{build_dataset, ProximityConfig};
use routergeo::trace::{AtlasBuiltins, AtlasConfig, Topology};
use routergeo::world::{World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::small(33));
    let topo = Topology::build(&world);

    // Run the built-ins: every probe traces its nearest instance of each
    // anycast service.
    let builtins = AtlasBuiltins::new(&world, &topo, AtlasConfig::default());
    let records = builtins.run();
    println!(
        "{} probes ran {} traceroutes toward {} services",
        world.probes.len(),
        records.len(),
        builtins.target_count()
    );

    // The records render in the Atlas JSON shape.
    let json = records[0].to_atlas_json();
    println!("\nsample record as Atlas JSON:\n{json}\n");

    // Extract + QA (§3.2).
    let config = ProximityConfig::default();
    let (dataset, qa) = build_dataset(&world, &records, &config);
    println!("candidates before QA:     {}", qa.candidates_before);
    println!(
        "default-centroid probes:  {} (removed {} addresses)",
        qa.centroid_probes.len(),
        qa.removed_by_centroid
    );
    println!(
        "RTT-nearby groups:        {} ({} inconsistent; {} probes disqualified, {} addresses removed)",
        qa.nearby_groups, qa.inconsistent_groups, qa.disqualified_probes.len(),
        qa.removed_by_consistency
    );
    println!("final dataset:            {} addresses", dataset.len());
    println!(
        "unique countries / coords: {} / {}",
        dataset.country_count(),
        dataset.unique_coord_count()
    );

    // Oracle check: the credited locations really are near the routers.
    let mut worst: f64 = 0.0;
    let mut within50 = 0usize;
    for e in &dataset.entries {
        let router = world.router_of_ip(e.ip).expect("interface");
        let d = e.coord.distance_km(&router.coord);
        worst = worst.max(d);
        if d <= 50.0 {
            within50 += 1;
        }
    }
    println!(
        "\noracle check: {:.2}% of entries within the 50 km bound (worst: {:.0} km)",
        100.0 * within50 as f64 / dataset.len().max(1) as f64,
        worst
    );
}
