//! Cross-crate integration: the full paper pipeline on a small world,
//! asserting the invariants that hold *between* crates — the ground truth
//! is true, the vendor ordering matches the paper, and the analysis
//! modules agree with each other.

use routergeo::core::accuracy::evaluate_from_view;
use routergeo::core::consistency::consistency_from_view;
use routergeo::core::coverage::coverage_from_view;
use routergeo::core::groundtruth::{GroundTruth, GtMethod};
use routergeo::core::recommend::recommendations;
use routergeo::core::ResolvedView;
use routergeo::cymru::MappingService;
use routergeo::db::synth::{build_vendor, SignalWorld, VendorProfile};
use routergeo::db::InMemoryDb;
use routergeo::dns::RuleEngine;
use routergeo::pool::Pool;
use routergeo::rtt::{build_dataset, ProximityConfig};
use routergeo::trace::{ArkCampaign, ArkConfig, AtlasBuiltins, AtlasConfig, Topology};
use routergeo::world::{World, WorldConfig};

struct Pipeline {
    world: World,
    dbs: Vec<InMemoryDb>,
    gt: GroundTruth,
    ark: routergeo::trace::ArkDataset,
}

fn pipeline(seed: u64) -> Pipeline {
    let world = World::generate(WorldConfig::small(seed));
    let topo = Topology::build(&world);
    let ark = ArkCampaign::new(
        &world,
        &topo,
        ArkConfig {
            seed: seed ^ 1,
            monitors: 16,
            traceroutes: Some(12_000),
        },
    )
    .extract_dataset();
    let engine = RuleEngine::with_gt_rules(&world);
    let whois = MappingService::build(&world);
    let records = AtlasBuiltins::new(
        &world,
        &topo,
        AtlasConfig {
            seed: seed ^ 2,
            targets: 8,
            instances_per_target: 4,
        },
    )
    .run();
    let (rtt, _) = build_dataset(&world, &records, &ProximityConfig::default());
    let dns = GroundTruth::dns_based(&world, &engine, &whois, 0.05);
    let gt = GroundTruth::combine(dns, GroundTruth::from_rtt(&rtt, &whois));
    let signals = SignalWorld::new(&world);
    let dbs = VendorProfile::all_presets()
        .iter()
        .map(|p| build_vendor(&signals, p))
        .collect();
    Pipeline {
        world,
        dbs,
        gt,
        ark,
    }
}

#[test]
fn ground_truth_is_actually_true() {
    let p = pipeline(1001);
    assert!(p.gt.len() > 800, "GT too small: {}", p.gt.len());
    // DNS entries: exact city coordinates of the true city.
    for e in p.gt.of_method(GtMethod::DnsBased) {
        let (city, _) = p.world.true_location(e.ip).expect("interface");
        assert_eq!(p.world.city(city).coord, e.coord);
    }
    // RTT entries: within ~60 km of the true router for ≥95%.
    let mut far = 0usize;
    let mut total = 0usize;
    for e in p.gt.of_method(GtMethod::RttProximity) {
        let router = p.world.router_of_ip(e.ip).expect("interface");
        total += 1;
        if e.coord.distance_km(&router.coord) > 60.0 {
            far += 1;
        }
    }
    assert!(total > 300);
    assert!((far as f64) < total as f64 * 0.05, "{far}/{total} far");
}

#[test]
fn paper_ordering_holds_end_to_end() {
    let p = pipeline(1002);
    let ips: Vec<_> = p.gt.entries.iter().map(|e| e.ip).collect();
    let view = ResolvedView::build_with(&p.dbs, &ips, &Pool::from_env());
    let report = evaluate_from_view(&view, &p.gt, 20);

    // NetAcuity best country accuracy; registry-fed databases comparable.
    let accs: Vec<f64> = report
        .overall
        .iter()
        .map(|a| a.country_accuracy())
        .collect();
    assert!(accs[3] > accs[0] && accs[3] > accs[1] && accs[3] > accs[2]);
    let spread = (accs[0] - accs[1]).abs().max((accs[0] - accs[2]).abs());
    assert!(
        spread < 0.08,
        "registry-fed databases not comparable: {accs:?}"
    );

    // MaxMind city coverage low, paid above free; full-coverage databases
    // at (near) 100%.
    let city_cov: Vec<f64> = report.overall.iter().map(|a| a.city_coverage()).collect();
    assert!(city_cov[1] < city_cov[2] && city_cov[2] < 0.8);
    assert!(city_cov[0] > 0.9 && city_cov[3] > 0.9);

    // IP2Location least accurate at city level.
    let city_acc: Vec<f64> = report.overall.iter().map(|a| a.city_accuracy()).collect();
    assert!(city_acc[0] < city_acc[2] && city_acc[0] < city_acc[3]);

    // The recommendation engine reaches the paper's conclusion from data.
    let recs = recommendations(&report);
    assert!(
        recs.iter().any(|r| r.text.contains("NetAcuity")),
        "{recs:#?}"
    );
}

#[test]
fn coverage_and_consistency_agree_on_population() {
    let p = pipeline(1003);
    let view = ResolvedView::build_with(&p.dbs, &p.ark.interfaces, &Pool::from_env());
    let cons = consistency_from_view(&view);
    for i in 0..p.dbs.len() {
        let cov = coverage_from_view(&view, i);
        assert_eq!(cov.total, cons.total);
        // Every pair's agreement denominators cannot exceed the smaller
        // country coverage of the two databases.
        for j in 0..p.dbs.len() {
            if i != j {
                let a = cons.country_agree[i][j];
                assert!((0.0..=1.0).contains(&a));
            }
        }
    }
    // Figure 1 population is bounded by the weakest city coverage.
    let min_city = (0..p.dbs.len())
        .map(|i| coverage_from_view(&view, i).with_city)
        .min()
        .unwrap();
    assert!(cons.city_in_all <= min_city);
}

#[test]
fn ark_set_is_a_subset_of_world_interfaces() {
    let p = pipeline(1004);
    assert!(!p.ark.is_empty());
    for ip in &p.ark.interfaces {
        assert!(p.world.find_interface(*ip).is_some(), "{ip}");
    }
    // Sorted and unique.
    for w in p.ark.interfaces.windows(2) {
        assert!(w[0] < w[1]);
    }
}

#[test]
fn gt_rir_tags_match_the_whois_service() {
    let p = pipeline(1005);
    let whois = MappingService::build(&p.world);
    for e in p.gt.entries.iter().step_by(13) {
        let expected = whois.lookup(e.ip).map(|r| r.rir);
        assert_eq!(e.rir, expected, "{}", e.ip);
    }
}
