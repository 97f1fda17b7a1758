//! Criterion benches for every paper artifact (E1–E12 in DESIGN.md).
//!
//! Each bench times the *analysis* stage of one table/figure over a shared
//! prebuilt lab (the pipeline build is timed separately in
//! `performance.rs`), prints the rendered table once so `cargo bench`
//! doubles as a miniature repro run, and asserts the headline qualitative
//! shape so a regression in the synthesis shows up as a bench failure.

#![expect(
    missing_docs,
    reason = "`criterion_group!` expands to an undocumented `pub fn`"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use routergeo_bench::{experiments as exp, Lab};
use routergeo_core::ResolvedView;
use std::sync::OnceLock;

fn lab() -> &'static Lab {
    static LAB: OnceLock<Lab> = OnceLock::new();
    LAB.get_or_init(|| {
        // Small scale keeps a full `cargo bench` run in minutes while
        // exercising every pipeline stage; the repro binary covers the
        // tenth/paper scales.
        Lab::small(20_170_301)
    })
}

/// The lab's Ark view, for the one-off renders and assertions; the
/// timed loops resolve their own, as `repro` does once per run.
fn ark() -> &'static ResolvedView {
    static ARK: OnceLock<ResolvedView> = OnceLock::new();
    ARK.get_or_init(|| exp::ark_view(lab()))
}

/// The lab's ground-truth view, as [`ark`] is its Ark view.
fn gtv() -> &'static ResolvedView {
    static GT: OnceLock<ResolvedView> = OnceLock::new();
    GT.get_or_init(|| exp::gt_view(lab()))
}

fn bench_table1(c: &mut Criterion) {
    let lab = lab();
    let (dns, rtt, table) = exp::table1(lab);
    println!("{}", table.render());
    assert!(
        dns.total > 0 && rtt.total > 0,
        "E1: both GT methods present"
    );
    c.bench_function("E1_table1", |b| b.iter(|| exp::table1(lab)));
}

fn bench_coverage(c: &mut Criterion) {
    let lab = lab();
    let (reports, table) = exp::ark_coverage_from(ark());
    println!("{}", table.render());
    // §5.1 headline: IP2Location/NetAcuity ≈ full city coverage, MaxMind
    // editions far below with paid > free.
    assert!(reports[0].city_coverage() > 0.9);
    assert!(reports[3].city_coverage() > 0.9);
    assert!(reports[1].city_coverage() < reports[2].city_coverage());
    assert!(reports[2].city_coverage() < 0.8);
    c.bench_function("E2_ark_coverage", |b| {
        b.iter(|| exp::ark_coverage_from(&exp::ark_view(lab)))
    });
}

fn bench_consistency(c: &mut Criterion) {
    let lab = lab();
    let (report, tables) = exp::ark_consistency_from(ark());
    println!("{}", tables[0].render());
    println!("{}", tables[1].render());
    // Figure 1 headline: the MaxMind pair mostly agrees; cross-vendor
    // pairs disagree on the city for a large share of addresses.
    let mm_pair = report.pair_disagreement(1, 2).expect("pair computed");
    for (i, j) in [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)] {
        let cross = report.pair_disagreement(i, j).expect("pair computed");
        assert!(
            cross > mm_pair,
            "E3: cross-vendor pair ({i},{j}) {cross} not above MM pair {mm_pair}"
        );
        assert!(cross > 0.2, "E3: cross-vendor disagreement too low");
    }
    // Country level: the MaxMind pair agrees the most.
    assert!(report.country_agree[1][2] > report.country_agree[0][3]);
    c.bench_function("E3_ark_consistency", |b| {
        b.iter(|| exp::ark_consistency_from(&exp::ark_view(lab)))
    });
}

fn bench_accuracy(c: &mut Criterion) {
    let lab = lab();
    let (report, tables) = exp::gt_accuracy_from(lab, gtv());
    println!("{}", tables[0].render());
    // §5.2.1 headline: NetAcuity clearly best at country level; the three
    // registry-fed databases are comparable; MaxMind city coverage low.
    let neta = &report.overall[3];
    for other in &report.overall[..3] {
        assert!(neta.country_accuracy() > other.country_accuracy() + 0.02);
    }
    assert!(report.overall[1].city_coverage() < 0.6);
    assert!(report.overall[0].city_accuracy() < report.overall[3].city_accuracy());
    c.bench_function("E4_gt_accuracy_fig2", |b| {
        b.iter(|| exp::gt_accuracy_from(lab, &exp::gt_view(lab)))
    });
}

fn bench_regional(c: &mut Criterion) {
    let lab = lab();
    let (report, _) = exp::gt_accuracy_from(lab, gtv());
    println!("{}", exp::fig3(&report).render());
    for t in exp::fig5(&report) {
        println!("{}", t.render());
    }
    // Figure 3 headline: NetAcuity most accurate in the two big regions.
    let arin = 0;
    let ripe = 4;
    for region in [arin, ripe] {
        let neta_err = 1.0 - report.by_rir[3][region].country_accuracy();
        for db in 0..3 {
            let err = 1.0 - report.by_rir[db][region].country_accuracy();
            assert!(
                neta_err < err,
                "E5: NetAcuity not best in region {region}: {neta_err} vs db{db} {err}"
            );
        }
    }
    c.bench_function("E5_E7_regional_breakdowns", |b| {
        b.iter(|| {
            let f3 = exp::fig3(&report);
            let f5 = exp::fig5(&report);
            (f3, f5)
        })
    });
}

fn bench_countries(c: &mut Criterion) {
    let lab = lab();
    let (report, _) = exp::gt_accuracy_from(lab, gtv());
    let (common_wrong, table) = exp::fig4_from(lab, gtv(), &report);
    println!("{}", table.render());
    println!("common wrong across registry-fed DBs: {common_wrong}\n");
    // Figure 4 headline: US excellent everywhere; the registry-fed
    // databases share a large pool of identical wrong answers.
    let us = report
        .by_country
        .iter()
        .find(|(cc, _, _)| cc.as_str() == "US")
        .expect("US in top countries");
    for acc in &us.2 {
        assert!(acc.country_accuracy() > 0.9, "E6: US accuracy dropped");
    }
    assert!(common_wrong > 0, "E6: no common wrong answers");
    c.bench_function("E6_fig4_countries", |b| {
        b.iter(|| exp::fig4_from(lab, &exp::gt_view(lab), &report))
    });
}

fn bench_arin_case(c: &mut Criterion) {
    let lab = lab();
    let (cases, table) = exp::arin(lab, gtv());
    println!("{}", table.render());
    // §5.2.3 headline: a majority of non-US ARIN ground truth is pulled
    // into the US by the registry-fed databases, and the wrong city
    // answers are overwhelmingly block-level.
    let mm_paid = &cases[2];
    assert!(
        mm_paid.pull_rate() > 0.4,
        "E8: pull rate {}",
        mm_paid.pull_rate()
    );
    if mm_paid.us_city_wrong > 0 {
        let blk = mm_paid.wrong_block_level as f64 / mm_paid.us_city_wrong as f64;
        assert!(blk > 0.7, "E8: wrong answers not block-level: {blk}");
    }
    c.bench_function("E8_arin_case", |b| {
        b.iter(|| exp::arin(lab, &exp::gt_view(lab)))
    });
}

fn bench_method_split(c: &mut Criterion) {
    let lab = lab();
    let (report, _) = exp::gt_accuracy_from(lab, gtv());
    println!("{}", exp::method_split(&report).render());
    // §5.2.4 headline: the registry-fed databases do far worse on the
    // DNS-based (backbone) set than on the RTT set; NetAcuity is the only
    // database anywhere near parity.
    for db in 0..3 {
        let [dns, rtt] = &report.by_method[db];
        assert!(
            dns.city_accuracy() + 0.15 < rtt.city_accuracy(),
            "E9: db{db} lost its DNS-set deficit"
        );
    }
    let [neta_dns, neta_rtt] = &report.by_method[3];
    assert!(
        (neta_dns.city_accuracy() - neta_rtt.city_accuracy()).abs() < 0.15,
        "E9: NetAcuity not near parity: {} vs {}",
        neta_dns.city_accuracy(),
        neta_rtt.city_accuracy()
    );
    c.bench_function("E9_method_split", |b| b.iter(|| exp::method_split(&report)));
}

fn bench_validation(c: &mut Criterion) {
    let lab = lab();
    let (overlap, churn, tables) = exp::validation(lab);
    for t in &tables {
        println!("{}", t.render());
    }
    // §3.1 headline: the two GT methods agree on their overlap; churn over
    // 16 months moves ~7% of addresses.
    if overlap.common > 20 {
        assert!(overlap.frac_within_40km() > 0.9, "E10: GT methods disagree");
    }
    assert!(churn.moved_fraction() < 0.15, "E10: churn blew up");
    assert!(churn.same > churn.changed(), "E10: churn inverted");
    // §3.2 headline: QA removes few probes, not the population.
    let qa = &lab.qa;
    assert!(qa.centroid_probes.len() < qa.probes_total / 5);
    c.bench_function("E10_E11_validation", |b| b.iter(|| exp::validation(lab)));
}

fn bench_methodology(c: &mut Criterion) {
    let lab = lab();
    let (report, table) = exp::methodology(lab);
    println!("{}", table.render());
    // §4 headline: everything within 40 km >99% of the time.
    assert!(report.min_gazetteer_agreement() > 0.99);
    assert!(report.min_cross_db_agreement() > 0.99);
    c.bench_function("E12_methodology", |b| b.iter(|| exp::methodology(lab)));
}

criterion_group! {
    name = experiments;
    config = Criterion::default().sample_size(10);
    targets = bench_table1, bench_coverage, bench_consistency, bench_accuracy,
              bench_regional, bench_countries, bench_arin_case,
              bench_method_split, bench_validation, bench_methodology
}
criterion_main!(experiments);
