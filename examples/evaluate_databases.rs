//! Full evaluation pipeline on a small world: build ground truth, measure
//! coverage / consistency / accuracy of all four databases, and print the
//! data-driven recommendations — the paper's §5 and §6 in miniature.
//!
//! ```sh
//! cargo run --release --example evaluate_databases
//! ```

use routergeo::core::accuracy::evaluate_from_view;
use routergeo::core::consistency::consistency_from_view;
use routergeo::core::coverage::coverage_from_view;
use routergeo::core::groundtruth::GroundTruth;
use routergeo::core::recommend::recommendations;
use routergeo::core::report::pct;
use routergeo::core::ResolvedView;
use routergeo::cymru::MappingService;
use routergeo::db::synth::{build_vendor, SignalWorld, VendorProfile};
use routergeo::dns::RuleEngine;
use routergeo::pool::Pool;
use routergeo::rtt::{build_dataset, ProximityConfig};
use routergeo::trace::{ArkCampaign, ArkConfig, AtlasBuiltins, AtlasConfig, Topology};
use routergeo::world::{World, WorldConfig};

fn main() {
    let world = World::generate(WorldConfig::small(7));
    let topo = Topology::build(&world);

    // Ark-style interface discovery (§2.1).
    let ark = ArkCampaign::new(&world, &topo, ArkConfig::default()).extract_dataset();
    println!("Ark-topo-router set: {} interfaces", ark.len());

    // Ground truth (§2.3): DNS hints + RTT proximity.
    let engine = RuleEngine::with_gt_rules(&world);
    let whois = MappingService::build(&world);
    let records = AtlasBuiltins::new(&world, &topo, AtlasConfig::default()).run();
    let (rtt, qa) = build_dataset(&world, &records, &ProximityConfig::default());
    let dns = GroundTruth::dns_based(&world, &engine, &whois, 0.05);
    let gt = GroundTruth::combine(dns, GroundTruth::from_rtt(&rtt, &whois));
    println!(
        "ground truth: {} addresses ({} probes disqualified by QA)\n",
        gt.len(),
        qa.centroid_probes.len() + qa.disqualified_probes.len()
    );

    // The four databases (§2.2).
    let signals = SignalWorld::new(&world);
    let dbs: Vec<_> = VendorProfile::all_presets()
        .iter()
        .map(|p| build_vendor(&signals, p))
        .collect();

    // Every analysis reads the databases' answers through a view that
    // resolves each (address, database) pair once.
    let pool = Pool::from_env();
    let ark_view = ResolvedView::build_with(&dbs, &ark.interfaces, &pool);

    // Coverage over the Ark set (§5.1).
    println!(
        "{:<18} country-cov  city-cov   (over the Ark set)",
        "database"
    );
    for d in 0..dbs.len() {
        let cov = coverage_from_view(&ark_view, d);
        println!(
            "{:<18} {:>10}  {:>8}",
            cov.database,
            pct(cov.country_coverage()),
            pct(cov.city_coverage())
        );
    }

    // Consistency (§5.1).
    let cons = consistency_from_view(&ark_view);
    println!(
        "\nall-database country agreement: {} over {} covered addresses",
        pct(cons.all_agreement()),
        cons.all_country_covered
    );

    // Accuracy vs ground truth (§5.2).
    let gt_ips: Vec<_> = gt.entries.iter().map(|e| e.ip).collect();
    let report = evaluate_from_view(&ResolvedView::build_with(&dbs, &gt_ips, &pool), &gt, 10);
    println!("\n{:<18} country-acc  city-acc(40km)  city-cov", "database");
    for acc in &report.overall {
        println!(
            "{:<18} {:>10}  {:>13}  {:>8}",
            acc.database,
            pct(acc.country_accuracy()),
            pct(acc.city_accuracy()),
            pct(acc.city_coverage())
        );
    }

    // Recommendations (§6) — derived from the numbers above.
    println!("\nRecommendations:");
    for (i, rec) in recommendations(&report).iter().enumerate() {
        println!("  {}. {}", i + 1, rec.text);
        println!("     evidence: {}", rec.evidence);
    }
}
