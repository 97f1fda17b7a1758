//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Each ablation sweeps one methodological knob the paper had to choose
//! and prints the sensitivity of the headline metric to it:
//!
//! * the 40 km city-range threshold (§4);
//! * the 0.5 ms RTT-proximity threshold (§2.3.2);
//! * probe QA on/off (§3.2);
//! * the vendors' reliance on registry data (DESIGN.md §4, signal model).

#![expect(
    missing_docs,
    reason = "`criterion_group!` expands to an undocumented `pub fn`"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use routergeo_bench::experiments::gt_view;
use routergeo_bench::Lab;
use routergeo_core::accuracy::evaluate_entries;
use routergeo_core::groundtruth::GroundTruth;
use routergeo_core::ResolvedView;
use routergeo_cymru::MappingService;
use routergeo_db::synth::{build_vendor, SignalWorld, VendorId, VendorProfile};
use routergeo_db::GeoDatabase;
use routergeo_rtt::{build_dataset, extract_candidates, ProximityConfig};
use routergeo_trace::{AtlasBuiltins, AtlasConfig, Topology};
use std::sync::OnceLock;

fn lab() -> &'static Lab {
    static LAB: OnceLock<Lab> = OnceLock::new();
    LAB.get_or_init(|| Lab::small(20_170_301))
}

/// Ablation 1: city-range threshold sweep. The paper argues for 40 km;
/// the sweep shows how sensitive "city accuracy" is to that choice.
fn ablate_city_range(c: &mut Criterion) {
    let lab = lab();
    println!("== Ablation: city-range threshold (MaxMind-Paid city accuracy) ==");
    let acc = evaluate_entries(&gt_view(lab), 2, &lab.gt.entries);
    for km in [10.0, 20.0, 40.0, 60.0, 100.0] {
        let frac = acc.error_cdf.fraction_leq(km);
        println!("  <= {km:>5.0} km: {:.1}%", frac * 100.0);
    }
    // Sanity: 40 km already captures almost all of the mass that 100 km
    // does — widening the "city" radius past 40 km barely changes the
    // verdicts, which is the paper's argument for the threshold.
    let at40 = acc.error_cdf.fraction_leq(40.0);
    let at100 = acc.error_cdf.fraction_leq(100.0);
    assert!(
        at40 > at100 * 0.9,
        "city-range knee moved: {at40} vs {at100}"
    );
    c.bench_function("ablate_city_range_sweep", |b| {
        b.iter(|| [10.0, 20.0, 40.0, 60.0, 100.0].map(|km| acc.error_cdf.fraction_leq(km)))
    });
}

/// Ablation 2: RTT threshold sweep — dataset size vs location quality.
fn ablate_rtt_threshold(c: &mut Criterion) {
    let lab = lab();
    let topo = Topology::build(&lab.world);
    let records = AtlasBuiltins::new(
        &lab.world,
        &topo,
        AtlasConfig {
            seed: 11,
            targets: 6,
            instances_per_target: 4,
        },
    )
    .run();
    println!("== Ablation: RTT-proximity threshold ==");
    let mut last_size = 0usize;
    for ms in [0.25, 0.5, 1.0, 2.0] {
        let config = ProximityConfig {
            threshold_ms: ms,
            ..Default::default()
        };
        let set = extract_candidates(&lab.world, &records, &config);
        // Quality: share of candidates within the implied distance bound
        // of their probes' TRUE locations (oracle check).
        let mut ok = 0usize;
        let mut total = 0usize;
        for (ip, probes) in &set.by_ip {
            let Some(router) = lab.world.router_of_ip(*ip) else {
                continue;
            };
            for (probe, _) in probes {
                total += 1;
                let p = &lab.world.probes[probe.index()];
                let bound = routergeo_geo::rtt_to_max_distance_km(ms);
                if p.true_coord.distance_km(&router.coord) <= bound {
                    ok += 1;
                }
            }
        }
        println!(
            "  {ms:>4} ms: {:>6} addrs, physical bound holds {:.2}%",
            set.len(),
            100.0 * ok as f64 / total.max(1) as f64
        );
        assert!(set.len() >= last_size, "threshold sweep not monotone");
        assert_eq!(ok, total, "physical bound violated at {ms} ms");
        last_size = set.len();
    }
    let cfg = ProximityConfig::default();
    c.bench_function("ablate_rtt_extraction", |b| {
        b.iter(|| extract_candidates(&lab.world, &records, &cfg))
    });
}

/// Ablation 3: probe QA on/off — how much bad-probe pollution QA removes.
fn ablate_probe_qa(c: &mut Criterion) {
    let lab = lab();
    let topo = Topology::build(&lab.world);
    let records = AtlasBuiltins::new(
        &lab.world,
        &topo,
        AtlasConfig {
            seed: 12,
            targets: 6,
            instances_per_target: 4,
        },
    )
    .run();
    // QA off: accept every candidate with its lowest-RTT probe location.
    let no_qa_cfg = ProximityConfig {
        centroid_radius_km: 0.0, // disables pass 1
        nearby_max_km: f64::MAX, // disables pass 2
        ..Default::default()
    };
    let (ds_off, _) = build_dataset(&lab.world, &records, &no_qa_cfg);
    let (ds_on, report) = build_dataset(&lab.world, &records, &ProximityConfig::default());
    let bad = |ds: &routergeo_rtt::RttProximityDataset| {
        ds.entries
            .iter()
            .filter(|e| {
                lab.world
                    .router_of_ip(e.ip)
                    .map(|r| e.coord.distance_km(&r.coord) > 60.0)
                    .unwrap_or(false)
            })
            .count() as f64
            / ds.len().max(1) as f64
    };
    let (bad_off, bad_on) = (bad(&ds_off), bad(&ds_on));
    println!("== Ablation: probe QA ==");
    println!(
        "  QA off: {} addrs, {:.2}% mislocated >60 km",
        ds_off.len(),
        bad_off * 100.0
    );
    println!(
        "  QA on : {} addrs, {:.2}% mislocated >60 km ({} centroid probes, {} disqualified)",
        ds_on.len(),
        bad_on * 100.0,
        report.centroid_probes.len(),
        report.disqualified_probes.len()
    );
    assert!(bad_on <= bad_off, "QA made the dataset worse");
    let default_cfg = ProximityConfig::default();
    c.bench_function("ablate_qa_full_pipeline", |b| {
        b.iter(|| build_dataset(&lab.world, &records, &default_cfg))
    });
}

/// Ablation 4: registry reliance — re-synthesize MaxMind-Paid with the
/// measurement corpus disabled (registry only) and fully available.
fn ablate_registry_weight(c: &mut Criterion) {
    let lab = lab();
    let signals = SignalWorld::new(&lab.world);
    let whois = MappingService::build(&lab.world);
    let gt = GroundTruth {
        entries: lab.gt.entries.clone(),
        overlap: lab.gt.overlap.clone(),
        degraded: lab.gt.degraded.clone(),
    };
    let _ = whois;
    let ips: Vec<_> = gt.entries.iter().map(|e| e.ip).collect();
    println!("== Ablation: measurement corpus availability (MaxMind-Paid profile) ==");
    for (label, stub, dom, transit) in [
        ("registry-only", 0.0, 0.0, 0.0),
        ("paper-calibrated", 0.85, 0.55, 0.19),
        ("full-corpus", 1.0, 1.0, 1.0),
    ] {
        let mut profile = VendorProfile::preset(VendorId::MaxMindPaid);
        profile.meas_avail_stub = stub;
        profile.meas_avail_domestic = dom;
        profile.meas_avail_transit = transit;
        let db = build_vendor(&signals, &profile);
        let view = ResolvedView::build_with(&[&db], &ips, &lab.pool);
        let acc = evaluate_entries(&view, 0, &gt.entries);
        println!(
            "  {label:>16}: country {:.1}%  city(40km) {:.1}% over {} city answers",
            acc.country_accuracy() * 100.0,
            acc.city_accuracy() * 100.0,
            acc.city_covered,
        );
        let _ = db.lookup(lab.world.interfaces[0].ip);
    }
    c.bench_function("ablate_vendor_resynthesis", |b| {
        b.iter(|| build_vendor(&signals, &VendorProfile::preset(VendorId::MaxMindPaid)))
    });
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = ablate_city_range, ablate_rtt_threshold, ablate_probe_qa,
              ablate_registry_weight
}
criterion_main!(ablations);
