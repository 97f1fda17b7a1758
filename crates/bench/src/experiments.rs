//! One function per paper artifact (see DESIGN.md's experiment index).
//!
//! Each returns structured results plus rendered [`TextTable`]s, so the
//! `repro` binary can print them and the Criterion benches can assert the
//! qualitative shapes without re-parsing text.

use crate::Lab;
use routergeo_core::accuracy::{self, AccuracyReport};
use routergeo_core::arin_case::{arin_case_study, ArinCaseStudy};
use routergeo_core::consistency::{consistency_from_view, ConsistencyReport};
use routergeo_core::coverage::{coverage_from_view, CoverageReport};
use routergeo_core::groundtruth::{GtMethod, Table1Row};
use routergeo_core::methodology::{methodology_checks, MethodologyReport};
use routergeo_core::recommend::recommendations;
use routergeo_core::report::{cdf_series, pct, TextTable};
use routergeo_core::resolve::ResolvedView;
use routergeo_core::validation::{
    churn_stats, dns_vs_onems, dns_vs_rtt, rtt_vs_onems, ChurnStats, OverlapAgreement,
};
use routergeo_dns::ChurnConfig;
use routergeo_geo::{Rir, CITY_RANGE_KM};
use std::net::Ipv4Addr;

/// Diagnostic: composition of the world and the Ark set — operator-kind
/// shares and the share of addresses whose registry country disagrees with
/// their true country (the raw material for every country-level error).
pub fn world_stats(lab: &Lab) -> TextTable {
    use routergeo_world::OperatorKind;
    let mut t = TextTable::new(
        "Diagnostics: world / Ark composition",
        &[
            "population",
            "total",
            "global",
            "domestic",
            "stub",
            "registry!=true",
        ],
    );
    let classify = |ips: &mut dyn Iterator<Item = std::net::Ipv4Addr>| {
        let (mut g, mut d, mut s, mut mismatch, mut total) =
            (0usize, 0usize, 0usize, 0usize, 0usize);
        for ip in ips {
            let Some(info) = lab.world.block_info(ip) else {
                continue;
            };
            total += 1;
            match lab.world.operator(info.op).kind {
                OperatorKind::GlobalTransit => g += 1,
                OperatorKind::DomesticTransit => d += 1,
                OperatorKind::Stub => s += 1,
            }
            let true_cc = lab.world.city(info.city).country;
            if info.registry_country != true_cc {
                mismatch += 1;
            }
        }
        (total, g, d, s, mismatch)
    };
    let (total, g, d, s, m) = classify(&mut lab.world.interfaces.iter().map(|i| i.ip));
    t.row(&[
        "world interfaces".into(),
        total.to_string(),
        pct(routergeo_geo::stats::ratio(g, total)),
        pct(routergeo_geo::stats::ratio(d, total)),
        pct(routergeo_geo::stats::ratio(s, total)),
        pct(routergeo_geo::stats::ratio(m, total)),
    ]);
    let (total, g, d, s, m) = classify(&mut lab.ark.interfaces.iter().copied());
    t.row(&[
        "Ark set".into(),
        total.to_string(),
        pct(routergeo_geo::stats::ratio(g, total)),
        pct(routergeo_geo::stats::ratio(d, total)),
        pct(routergeo_geo::stats::ratio(s, total)),
        pct(routergeo_geo::stats::ratio(m, total)),
    ]);
    let (total, g, d, s, m) = classify(&mut lab.gt.entries.iter().map(|e| e.ip));
    t.row(&[
        "ground truth".into(),
        total.to_string(),
        pct(routergeo_geo::stats::ratio(g, total)),
        pct(routergeo_geo::stats::ratio(d, total)),
        pct(routergeo_geo::stats::ratio(s, total)),
        pct(routergeo_geo::stats::ratio(m, total)),
    ]);
    t
}

/// Diagnostic: per-domain DNS ground-truth sizes vs the paper's targets.
pub fn gt_domain_stats(lab: &Lab) -> TextTable {
    let mut counts: std::collections::HashMap<&str, usize> = Default::default();
    for e in lab.gt.of_method(GtMethod::DnsBased) {
        *counts
            .entry(e.domain.as_deref().unwrap_or("?"))
            .or_default() += 1;
    }
    let mut t = TextTable::new(
        "Diagnostics: DNS ground truth per domain (paper targets in S2.3.1)",
        &["domain", "addresses", "paper"],
    );
    for (name, target) in routergeo_core::groundtruth::DNS_DOMAIN_TARGETS {
        let domain = lab
            .world
            .operator_by_name(name)
            .and_then(|id| lab.world.operator(id).domain.clone())
            .unwrap_or_default();
        t.row(&[
            domain.clone(),
            counts
                .get(domain.as_str())
                .copied()
                .unwrap_or(0)
                .to_string(),
            target.to_string(),
        ]);
    }
    t
}

/// Diagnostic: probe population by RIR (registered country's registry).
pub fn probe_stats(lab: &Lab) -> TextTable {
    let mut by_rir: std::collections::HashMap<Rir, usize> = Default::default();
    for p in &lab.world.probes {
        if let Some(info) = routergeo_geo::country::lookup(p.registered_country) {
            *by_rir.entry(info.rir).or_default() += 1;
        }
    }
    let mut t = TextTable::new("Diagnostics: probes by registered RIR", &["RIR", "probes"]);
    for rir in Rir::TABLE1_ORDER {
        t.row(&[
            rir.name().to_string(),
            by_rir.get(&rir).copied().unwrap_or(0).to_string(),
        ]);
    }
    t
}

/// E1 — Table 1: ground-truth statistics and regional distribution.
pub fn table1(lab: &Lab) -> (Table1Row, Table1Row, TextTable) {
    let dns = lab.gt.table1_row(GtMethod::DnsBased);
    let rtt = lab.gt.table1_row(GtMethod::RttProximity);
    let mut t = TextTable::new(
        "Table 1: location statistics and regional distribution of ground truth",
        &[
            "Ground Truth",
            "Total",
            "Countries",
            "lat/lon",
            "ARIN",
            "APNIC",
            "AFRINIC",
            "LACNIC",
            "RIPENCC",
            "degraded",
        ],
    );
    for (name, row) in [("DNS-based", &dns), ("RTT-proximity", &rtt)] {
        t.row(&[
            name.to_string(),
            row.total.to_string(),
            row.countries.to_string(),
            row.unique_coords.to_string(),
            row.per_rir[0].to_string(),
            row.per_rir[1].to_string(),
            row.per_rir[2].to_string(),
            row.per_rir[3].to_string(),
            row.per_rir[4].to_string(),
            row.degraded.to_string(),
        ]);
    }
    (dns, rtt, t)
}

/// Resolve the Ark interface set once across all databases — the shared
/// view the coverage and consistency stages consume.
pub fn ark_view(lab: &Lab) -> ResolvedView {
    ResolvedView::build_with(&lab.dbs, &lab.ark.interfaces, &lab.pool)
}

/// Resolve the ground-truth addresses once across all databases, rows
/// in `lab.gt.entries` order — the shared view every §5.2 accuracy
/// figure, the ARIN case study and the majority and endpoint
/// extensions consume.
pub fn gt_view(lab: &Lab) -> ResolvedView {
    let ips: Vec<Ipv4Addr> = lab.gt.entries.iter().map(|e| e.ip).collect();
    ResolvedView::build_with(&lab.dbs, &ips, &lab.pool)
}

/// E2a — §5.1 coverage of the four databases over the Ark set, from the
/// Ark view ([`ark_view`]).
pub fn ark_coverage_from(view: &ResolvedView) -> (Vec<CoverageReport>, TextTable) {
    let reports: Vec<CoverageReport> = (0..view.db_count())
        .map(|d| coverage_from_view(view, d))
        .collect();
    let mut t = TextTable::new(
        format!(
            "S5.1: database coverage over the Ark-topo-router set ({} interfaces)",
            view.len()
        ),
        &["Database", "country-level", "city-level"],
    );
    for r in &reports {
        t.row(&[
            r.database.clone(),
            pct(r.country_coverage()),
            pct(r.city_coverage()),
        ]);
    }
    (reports, t)
}

/// E2b + E3 — §5.1 pairwise consistency and the Figure 1 distance CDFs,
/// from the Ark view ([`ark_view`]).
pub fn ark_consistency_from(view: &ResolvedView) -> (ConsistencyReport, Vec<TextTable>) {
    let report = consistency_from_view(view);
    let mut tables = Vec::new();

    let mut t = TextTable::new(
        "S5.1: pairwise country-level agreement over the Ark set",
        &["Pair", "agreement"],
    );
    let n = report.databases.len();
    for i in 0..n {
        for j in i + 1..n {
            t.row(&[
                format!("{} vs {}", report.databases[i], report.databases[j]),
                pct(report.country_agree[i][j]),
            ]);
        }
    }
    t.row(&["ALL databases".to_string(), pct(report.all_agreement())]);
    tables.push(t);

    let mut t = TextTable::new(
        format!(
            "Figure 1: pairwise city-level distance, over {} addresses city-level in all 4 DBs",
            report.city_in_all
        ),
        &["Pair", "identical", "> 40 km", "median km"],
    );
    for i in 0..n {
        for j in i + 1..n {
            let cdf = report.pair(i, j).expect("pair computed");
            t.row(&[
                format!("{} vs {}", report.databases[i], report.databases[j]),
                pct(cdf.fraction_leq(0.0)),
                pct(cdf.fraction_gt(CITY_RANGE_KM)),
                cdf.median().map(|m| format!("{m:.1}")).unwrap_or_default(),
            ]);
        }
    }
    // NaN-drop footer: distances that could not enter any CDF. Mirrors
    // the fig3 degraded-coverage line — never silently shrink a figure.
    if report.dropped_nan > 0 {
        t.row(&[
            "DROPPED (non-finite distance)".to_string(),
            report.dropped_nan.to_string(),
            String::new(),
            String::new(),
        ]);
    }
    tables.push(t);

    // Full CDF series for the paper's four plotted pairs.
    for (i, j) in [(1usize, 2usize), (0, 3), (2, 3), (0, 2)] {
        if let Some(cdf) = report.pair(i, j) {
            tables.push(cdf_series(
                &format!("{} vs {}", report.databases[i], report.databases[j]),
                cdf,
                -2,
                4,
            ));
        }
    }
    (report, tables)
}

/// E4 — §5.2.1 coverage and accuracy over ground truth + Figure 2 CDFs,
/// from the ground-truth view ([`gt_view`]).
pub fn gt_accuracy_from(lab: &Lab, view: &ResolvedView) -> (AccuracyReport, Vec<TextTable>) {
    let report = accuracy::evaluate_from_view(view, &lab.gt, 20);
    let mut tables = Vec::new();

    let mut t = TextTable::new(
        format!(
            "S5.2.1: coverage and accuracy over the ground truth ({} addresses)",
            lab.gt.len()
        ),
        &[
            "Database",
            "country cov",
            "country acc",
            "city cov",
            "city acc(40km)",
            "n(city)",
        ],
    );
    for a in &report.overall {
        t.row(&[
            a.database.clone(),
            pct(a.country_coverage()),
            pct(a.country_accuracy()),
            pct(a.city_coverage()),
            pct(a.city_accuracy()),
            a.city_covered.to_string(),
        ]);
    }
    // NaN-drop footer, as in Figure 1: errors excluded from the CDFs.
    let dropped: usize = report.overall.iter().map(|a| a.dropped_nan).sum();
    if dropped > 0 {
        t.row(&[
            "DROPPED (non-finite error)".to_string(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            dropped.to_string(),
        ]);
    }
    tables.push(t);

    for a in &report.overall {
        tables.push(cdf_series(
            &format!(
                "Figure 2: {} vs ground truth ({})",
                a.database, a.city_covered
            ),
            &a.error_cdf,
            -3,
            4,
        ));
    }
    (report, tables)
}

/// E5 — Figure 3: country-level accuracy stacked by RIR.
pub fn fig3(report: &AccuracyReport) -> TextTable {
    let mut t = TextTable::new(
        "Figure 3: country-level accuracy breakdown by RIR (percent incorrect)",
        &[
            "RIR",
            "n",
            "IP2Loc-Lite",
            "MM-GeoLite",
            "MM-Paid",
            "NetAcuity",
        ],
    );
    for (k, rir) in Rir::TABLE1_ORDER.iter().enumerate() {
        let n = report.by_rir[0][k].total;
        let mut cells = vec![rir.name().to_string(), n.to_string()];
        for db in 0..report.databases.len() {
            let a = &report.by_rir[db][k];
            cells.push(pct(1.0 - a.country_accuracy()));
        }
        t.row(&cells);
    }
    // Degraded-coverage line: when the RIR annotation lost addresses
    // (whois service partially down), report the bucket instead of
    // silently shrinking the regional rows.
    if report.rir_coverage < 1.0 && !report.degraded.is_empty() {
        let n = report.degraded[0].total;
        let mut cells = vec![
            format!("UNKNOWN (RIR coverage {})", pct(report.rir_coverage)),
            n.to_string(),
        ];
        for db in 0..report.databases.len() {
            let a = &report.degraded[db];
            cells.push(pct(1.0 - a.country_accuracy()));
        }
        t.row(&cells);
    }
    t
}

/// E6 — Figure 4: per-country accuracy for the top-20 ground-truth
/// countries, plus the §5.2.2 common-wrong-answer count, read from the
/// three registry-fed columns of the ground-truth view ([`gt_view`]).
pub fn fig4_from(lab: &Lab, view: &ResolvedView, report: &AccuracyReport) -> (usize, TextTable) {
    let mut t = TextTable::new(
        "Figure 4: country-level accuracy for the top-20 ground-truth countries",
        &[
            "CC",
            "n",
            "IP2Loc-Lite",
            "MM-GeoLite",
            "MM-Paid",
            "NetAcuity",
        ],
    );
    for (cc, n, accs) in &report.by_country {
        let mut cells = vec![cc.to_string(), n.to_string()];
        for a in accs {
            cells.push(format!("{:.2}", a.country_accuracy()));
        }
        t.row(&cells);
    }
    let common_wrong = accuracy::common_wrong_from_view(view, [0, 1, 2], &lab.gt);
    (common_wrong, t)
}

/// E7 — Figures 5a/5b: city-level error by RIR (all four databases; the
/// paper plots MaxMind-Paid and NetAcuity and omits the rest for space).
pub fn fig5(report: &AccuracyReport) -> Vec<TextTable> {
    let mut tables = Vec::new();
    for (db_idx, name) in report.databases.iter().enumerate() {
        let mut t = TextTable::new(
            format!("Figure 5: {name} city-level error by RIR"),
            &["RIR", "n(city)", "<=40km", "median km", "coverage"],
        );
        for (k, rir) in Rir::TABLE1_ORDER.iter().enumerate() {
            let a = &report.by_rir[db_idx][k];
            t.row(&[
                rir.name().to_string(),
                a.city_covered.to_string(),
                pct(a.city_accuracy()),
                a.error_cdf
                    .median()
                    .map(|m| format!("{m:.1}"))
                    .unwrap_or_default(),
                pct(a.city_coverage()),
            ]);
        }
        tables.push(t);
    }
    tables
}

/// E8 — §5.2.3 ARIN case study, for every database of the ground-truth
/// view ([`gt_view`]; the paper dissects MaxMind-Paid).
pub fn arin(lab: &Lab, view: &ResolvedView) -> (Vec<ArinCaseStudy>, TextTable) {
    let cases: Vec<ArinCaseStudy> = (0..view.db_count())
        .map(|d| arin_case_study(view, d, &lab.gt))
        .collect();
    let mut t = TextTable::new(
        "S5.2.3: ARIN case study",
        &[
            "Database",
            "ARIN gt",
            "non-US",
            "pulled->US",
            "w/ city",
            ">1000km",
            "US city ans",
            "wrong(>40km)",
            "wrong blk-lvl",
            "right blk-lvl",
        ],
    );
    for c in &cases {
        t.row(&[
            c.database.clone(),
            c.arin_total.to_string(),
            c.arin_non_us.to_string(),
            c.non_us_pulled_to_us.to_string(),
            c.pulled_with_city.to_string(),
            c.pulled_city_over_1000km.to_string(),
            c.us_city_answers.to_string(),
            c.us_city_wrong.to_string(),
            c.wrong_block_level.to_string(),
            c.right_block_level.to_string(),
        ]);
    }
    (cases, t)
}

/// E9 — §5.2.4 accuracy split by ground-truth method.
pub fn method_split(report: &AccuracyReport) -> TextTable {
    let mut t = TextTable::new(
        "S5.2.4: city accuracy/coverage by ground-truth method",
        &[
            "Database",
            "DNS acc",
            "DNS cov",
            "RTT acc",
            "RTT cov",
            "better on DNS?",
        ],
    );
    for (i, name) in report.databases.iter().enumerate() {
        let [dns, rtt] = &report.by_method[i];
        t.row(&[
            name.clone(),
            pct(dns.city_accuracy()),
            pct(dns.city_coverage()),
            pct(rtt.city_accuracy()),
            pct(rtt.city_coverage()),
            if dns.city_accuracy() > rtt.city_accuracy() {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    t
}

/// E10/E11 — §3 ground-truth validation: cross-dataset agreement, probe
/// QA counters, and hostname churn.
pub fn validation(lab: &Lab) -> (OverlapAgreement, ChurnStats, Vec<TextTable>) {
    let overlap = dns_vs_rtt(&lab.gt, &lab.rtt);
    let churn = churn_stats(&lab.world, &lab.engine, &lab.gt, ChurnConfig::default());
    let mut tables = Vec::new();

    let mut t = TextTable::new(
        "S3.1: DNS-based vs RTT-proximity agreement on common addresses",
        &["common", "<=10km", "<=40km", "<=100km"],
    );
    t.row(&[
        overlap.common.to_string(),
        overlap.within_10km.to_string(),
        overlap.within_40km.to_string(),
        overlap.within_100km.to_string(),
    ]);
    tables.push(t);

    let onems_dns = dns_vs_onems(&lab.gt, &lab.rtt_1ms);
    let onems_rtt = rtt_vs_onems(&lab.rtt, &lab.rtt_1ms);
    let mut t = TextTable::new(
        format!(
            "S3.1/S3.2: vs the later 1ms-RTT-proximity set ({} addrs)",
            lab.rtt_1ms.len()
        ),
        &["comparison", "common", "<=40km", "<=100km"],
    );
    t.row(&[
        "DNS-based vs 1ms".into(),
        onems_dns.common.to_string(),
        pct(onems_dns.frac_within_40km()),
        pct(onems_dns.frac_within_100km()),
    ]);
    t.row(&[
        "0.5ms (QA'd) vs 1ms".into(),
        onems_rtt.common.to_string(),
        pct(onems_rtt.frac_within_40km()),
        pct(onems_rtt.frac_within_100km()),
    ]);
    tables.push(t);

    let mut t = TextTable::new(
        "S3.1: 16-month hostname churn over the DNS-based ground truth",
        &[
            "total",
            "same",
            "changed",
            "gone",
            "chg same loc",
            "chg moved",
            "chg no hint",
        ],
    );
    t.row(&[
        churn.total.to_string(),
        churn.same.to_string(),
        churn.changed().to_string(),
        churn.gone.to_string(),
        churn.changed_same_location.to_string(),
        churn.changed_moved.to_string(),
        churn.changed_hint_lost.to_string(),
    ]);
    tables.push(t);

    let q = &lab.qa;
    let mut t = TextTable::new(
        "S3.2: RTT-proximity probe QA",
        &[
            "candidates",
            "centroid probes",
            "removed(centroid)",
            "nearby groups",
            "inconsistent",
            "disqualified",
            "removed(consist)",
            "final",
        ],
    );
    t.row(&[
        q.candidates_before.to_string(),
        q.centroid_probes.len().to_string(),
        q.removed_by_centroid.to_string(),
        q.nearby_groups.to_string(),
        q.inconsistent_groups.to_string(),
        q.disqualified_probes.len().to_string(),
        q.removed_by_consistency.to_string(),
        q.final_size.to_string(),
    ]);
    tables.push(t);

    (overlap, churn, tables)
}

/// E12 — §4 methodology checks.
pub fn methodology(lab: &Lab) -> (MethodologyReport, TextTable) {
    // Sample the Ark set to bound cost at paper scale.
    let sample: Vec<Ipv4Addr> = lab
        .ark
        .interfaces
        .iter()
        .step_by((lab.ark.len() / 50_000).max(1))
        .copied()
        .collect();
    let view = ResolvedView::build_with(&lab.dbs, &sample, &lab.pool);
    let report = methodology_checks(&view, &lab.gazetteer);
    let mut t = TextTable::new(
        "S4: methodology checks (coordinates within 40 km)",
        &["Check", "compared", "within 40 km"],
    );
    for (name, total, ok) in &report.gazetteer_check {
        t.row(&[
            format!("{name} vs gazetteer"),
            total.to_string(),
            pct(routergeo_geo::stats::ratio(*ok, *total)),
        ]);
    }
    for (a, b, total, ok) in &report.cross_db_check {
        t.row(&[
            format!("{a} vs {b} (same city)"),
            total.to_string(),
            pct(routergeo_geo::stats::ratio(*ok, *total)),
        ]);
    }
    (report, t)
}

/// Extension X1 — the majority-vote methodology of the prior work the
/// paper contrasts against (§7): apparent accuracy (vs the databases'
/// majority) against true accuracy (vs ground truth), plus the blind spot
/// (agreeing while wrong), from the ground-truth view ([`gt_view`]).
pub fn majority(lab: &Lab, view: &ResolvedView) -> TextTable {
    let comparisons = routergeo_core::majority::compare_against_majority(view, &lab.gt);
    let mut t = TextTable::new(
        "Extension: majority-vote vs ground-truth evaluation (country level)",
        &[
            "Database",
            "scored",
            "apparent acc",
            "true acc",
            "overstated by",
            "agree-but-wrong",
        ],
    );
    for c in &comparisons {
        t.row(&[
            c.database.clone(),
            c.scored.to_string(),
            pct(c.apparent_accuracy()),
            pct(c.true_accuracy()),
            pct(c.overstatement()),
            c.agree_but_wrong.to_string(),
        ]);
    }
    t
}

/// Extension X2 — §8's closing claim: databases geolocate end hosts better
/// than routers. The routers are the ground-truth view's ([`gt_view`]);
/// the end hosts get a view of their own.
pub fn endpoints(lab: &Lab, view: &ResolvedView) -> TextTable {
    use routergeo_core::endpoint::{endpoint_ground_truth, routers_vs_endpoints};
    let hosts = endpoint_ground_truth(&lab.world, 5_000);
    let ips: Vec<Ipv4Addr> = hosts.iter().map(|e| e.ip).collect();
    let host_view = ResolvedView::build_with(&lab.dbs, &ips, &lab.pool);
    let comparisons = routers_vs_endpoints(view, &lab.gt, &host_view, &hosts);
    let mut t = TextTable::new(
        "Extension: router vs end-host accuracy",
        &[
            "Database",
            "router country",
            "endpoint country",
            "gap",
            "router city",
            "endpoint city",
        ],
    );
    for c in &comparisons {
        t.row(&[
            c.database.clone(),
            pct(c.routers.country_accuracy()),
            pct(c.endpoints.country_accuracy()),
            pct(c.country_gap()),
            pct(c.routers.city_accuracy()),
            pct(c.endpoints.city_accuracy()),
        ]);
    }
    t
}

/// Extension X3 — delay-based geolocation (the paper's §1 alternative):
/// CBG over the Atlas probe fleet vs the databases, on the routers CBG can
/// reach with ≥ 2 landmarks.
pub fn cbg(lab: &Lab) -> TextTable {
    let results = routergeo_rtt::cbg::evaluate_cbg(&lab.world, &lab.atlas_records, 20.0, 2);
    let ips: Vec<Ipv4Addr> = results.iter().map(|(ip, _, _)| *ip).collect();
    let view = ResolvedView::build_with(&lab.dbs, &ips, &lab.pool);
    let mut t = TextTable::new(
        format!(
            "Extension: CBG (delay-based) vs databases over {} multi-landmark routers",
            results.len()
        ),
        &["Method", "median km", "<=40km", "<=100km", "coverage"],
    );
    let (cbg_cdf, mut dropped_nan) =
        routergeo_geo::EmpiricalCdf::from_iter_lossy(results.iter().map(|(_, _, err)| *err));
    t.row(&[
        "CBG (probes as landmarks)".to_string(),
        cbg_cdf
            .median()
            .map(|m| format!("{m:.1}"))
            .unwrap_or_default(),
        pct(cbg_cdf.fraction_leq(40.0)),
        pct(cbg_cdf.fraction_leq(100.0)),
        "100.0%".to_string(),
    ]);
    for (d, name) in view.databases().iter().enumerate() {
        let mut errs = Vec::new();
        let mut covered = 0usize;
        for (rec, ip) in view.column(d).iter().zip(&ips) {
            let Some(rec) = rec.filter(|r| r.has_city()) else {
                continue;
            };
            covered += 1;
            let router = lab.world.router_of_ip(*ip).expect("interface");
            errs.push(rec.coord.expect("city").distance_km(&router.coord));
        }
        let (cdf, db_dropped) = routergeo_geo::EmpiricalCdf::from_iter_lossy(errs);
        dropped_nan += db_dropped;
        t.row(&[
            name.clone(),
            cdf.median().map(|m| format!("{m:.1}")).unwrap_or_default(),
            pct(cdf.fraction_leq(40.0)),
            pct(cdf.fraction_leq(100.0)),
            pct(routergeo_geo::stats::ratio(covered, results.len())),
        ]);
    }
    if dropped_nan > 0 {
        t.row(&[
            "DROPPED (non-finite error)".to_string(),
            dropped_nan.to_string(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    t
}

/// Extension X4 — temporal drift: re-release every database one epoch
/// later (the paper's 50-day re-access, §5.2) and check that the drift is
/// small and the accuracy conclusions are unchanged.
pub fn temporal(lab: &Lab) -> (TextTable, TextTable) {
    use routergeo_db::diff::diff_answers;
    use routergeo_db::synth::{build_vendor_with, SignalWorld, VendorProfile};

    let signals = SignalWorld::new(&lab.world);
    let later: Vec<_> = VendorProfile::all_presets()
        .into_iter()
        .map(|p| build_vendor_with(&signals, &p.at_epoch(1), &lab.pool))
        .collect();
    // One view over the ground truth holds both releases: column `d` is
    // database `d`, column `n + d` its re-release.
    let n = lab.dbs.len();
    let releases: Vec<_> = lab.dbs.iter().chain(&later).collect();
    let gt_ips: Vec<Ipv4Addr> = lab.gt.entries.iter().map(|e| e.ip).collect();
    let view = ResolvedView::build_with(&releases, &gt_ips, &lab.pool);

    let mut drift = TextTable::new(
        "Extension: snapshot drift over one release epoch (ground-truth addresses)",
        &[
            "Database",
            "any change",
            "material (>40km or country)",
            "median move km",
        ],
    );
    for d in 0..n {
        let report = diff_answers(&view.databases()[d], view.column(d), view.column(n + d));
        drift.row(&[
            report.database.clone(),
            pct(report.any_change_rate()),
            pct(report.material_change_rate()),
            report
                .move_cdf
                .median()
                .map(|m| format!("{m:.1}"))
                .unwrap_or_else(|| "0".into()),
        ]);
    }

    let report = accuracy::evaluate_from_view(&view, &lab.gt, 5);
    let (before, after) = report.overall.split_at(n);
    let mut acc = TextTable::new(
        "Extension: accuracy before/after one release epoch",
        &[
            "Database",
            "country acc (old)",
            "country acc (new)",
            "city acc (old)",
            "city acc (new)",
        ],
    );
    for (a, b) in before.iter().zip(after) {
        acc.row(&[
            a.database.clone(),
            pct(a.country_accuracy()),
            pct(b.country_accuracy()),
            pct(a.city_accuracy()),
            pct(b.city_accuracy()),
        ]);
    }
    (drift, acc)
}

/// Extension X5 — HLOC-style hint verification: confirm/refute hostname
/// hints with latency constraints, before and after 16 months of churn.
pub fn hloc(lab: &Lab) -> TextTable {
    use routergeo_core::hloc::verify_hints;
    use routergeo_dns::{ChurnConfig, ChurnModel, ChurnOutcome};

    let fresh = verify_hints(
        &lab.world,
        &lab.engine,
        &lab.atlas_records,
        20.0,
        30.0,
        None,
    );
    let model = ChurnModel::new(&lab.world, ChurnConfig::default());
    let churned = |id: routergeo_world::InterfaceId| -> Option<String> {
        match model.evolve(id) {
            ChurnOutcome::Same(h)
            | ChurnOutcome::RenamedSameLocation(h)
            | ChurnOutcome::HintLost(h)
            | ChurnOutcome::Moved(h, _) => Some(h),
            ChurnOutcome::Gone => None,
        }
    };
    let evolved = verify_hints(
        &lab.world,
        &lab.engine,
        &lab.atlas_records,
        20.0,
        30.0,
        Some(&churned),
    );

    let mut t = TextTable::new(
        "Extension: HLOC-style hint verification with latency constraints",
        &[
            "snapshot",
            "decoded",
            "confirmed",
            "refuted",
            "unverifiable",
            "confirm rate",
        ],
    );
    for (label, r) in [
        ("fresh hostnames", &fresh),
        ("after 16-month churn", &evolved),
    ] {
        t.row(&[
            label.to_string(),
            r.decoded.to_string(),
            r.confirmed.to_string(),
            r.refuted.to_string(),
            r.unverifiable.to_string(),
            pct(r.confirmation_rate()),
        ]);
    }
    t
}

/// §6 — the recommendations derived from the measured report.
pub fn recommend(report: &AccuracyReport) -> String {
    let mut out = String::from("== S6: recommendations ==\n");
    for (i, rec) in recommendations(report).iter().enumerate() {
        out.push_str(&format!("{}. {}\n   [{}]\n", i + 1, rec.text, rec.evidence));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    // One shared tiny lab and its two views: building them is the
    // expensive part.
    fn lab() -> &'static Lab {
        static LAB: OnceLock<Lab> = OnceLock::new();
        LAB.get_or_init(|| Lab::tiny(777))
    }

    fn ark() -> &'static ResolvedView {
        static ARK: OnceLock<ResolvedView> = OnceLock::new();
        ARK.get_or_init(|| ark_view(lab()))
    }

    fn gtv() -> &'static ResolvedView {
        static GT: OnceLock<ResolvedView> = OnceLock::new();
        GT.get_or_init(|| gt_view(lab()))
    }

    /// The §5.2.2 common-wrong count read from the ground-truth view
    /// must match a naive triple-`lookup` loop over the ground truth.
    #[test]
    fn common_wrong_count_matches_naive_triple_lookup() {
        use routergeo_db::GeoDatabase;
        let l = lab();
        let (report, _) = gt_accuracy_from(l, gtv());
        let (shared_wrong, _) = fig4_from(l, gtv(), &report);
        let naive_wrong =
            l.gt.entries
                .iter()
                .filter(|e| {
                    let ans: Vec<_> = l.dbs[..3]
                        .iter()
                        .map(|d| d.lookup(e.ip).and_then(|r| r.country))
                        .collect();
                    matches!(
                        (&ans[0], &ans[1], &ans[2]),
                        (Some(a), Some(b), Some(c)) if a == b && b == c && *a != e.country
                    )
                })
                .count();
        assert_eq!(shared_wrong, naive_wrong);
    }

    #[test]
    fn table1_has_two_rows_and_consistent_totals() {
        let (dns, rtt, t) = table1(lab());
        assert_eq!(t.len(), 2);
        assert_eq!(dns.total + rtt.total, lab().gt.len());
        assert!(dns.total > 0 && rtt.total > 0);
    }

    #[test]
    fn ark_coverage_shape() {
        let (reports, t) = ark_coverage_from(ark());
        assert_eq!(reports.len(), 4);
        assert_eq!(t.len(), 4);
        // IP2Location/NetAcuity city coverage above MaxMind's.
        assert!(reports[0].city_coverage() > reports[1].city_coverage());
        assert!(reports[3].city_coverage() > reports[2].city_coverage());
        // MaxMind country coverage still high.
        assert!(reports[1].country_coverage() > 0.95);
    }

    #[test]
    fn consistency_shape() {
        let (report, tables) = ark_consistency_from(ark());
        assert!(!tables.is_empty());
        // MaxMind pair agrees more than cross-vendor pairs.
        let mm = report.country_agree[1][2];
        for (i, j) in [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)] {
            assert!(
                mm >= report.country_agree[i][j],
                "MM pair {mm} vs ({i},{j}) {}",
                report.country_agree[i][j]
            );
        }
        assert!(report.all_agreement() > 0.5);
    }

    #[test]
    fn accuracy_and_figures_render() {
        let (report, tables) = gt_accuracy_from(lab(), gtv());
        assert_eq!(report.overall.len(), 4);
        assert!(!tables.is_empty());
        let f3 = fig3(&report);
        assert_eq!(f3.len(), 5);
        let (_, f4) = fig4_from(lab(), gtv(), &report);
        assert!(f4.len() <= 20 && !f4.is_empty());
        let f5 = fig5(&report);
        assert_eq!(f5.len(), 4);
        let split = method_split(&report);
        assert_eq!(split.len(), 4);
    }

    #[test]
    fn netacuity_best_country_accuracy_on_gt() {
        let (report, _) = gt_accuracy_from(lab(), gtv());
        let neta = report.overall[3].country_accuracy();
        for other in &report.overall[..3] {
            assert!(
                neta > other.country_accuracy(),
                "NetAcuity {neta} vs {} {}",
                other.database,
                other.country_accuracy()
            );
        }
    }

    #[test]
    fn arin_case_runs() {
        let (cases, t) = arin(lab(), gtv());
        assert_eq!(cases.len(), 4);
        assert_eq!(t.len(), 4);
        // The registry pull must exist for the registry-fed databases.
        assert!(cases[2].non_us_pulled_to_us > 0, "{:?}", cases[2]);
    }

    #[test]
    fn validation_runs() {
        let (_, churn, tables) = validation(lab());
        assert_eq!(tables.len(), 4);
        assert_eq!(churn.total, churn.same + churn.changed() + churn.gone);
    }

    #[test]
    fn methodology_passes() {
        let (report, _) = methodology(lab());
        assert!(report.min_gazetteer_agreement() > 0.99);
        assert!(report.min_cross_db_agreement() > 0.99);
    }

    #[test]
    fn majority_vote_overstates_registry_fed_databases() {
        let t = majority(lab(), gtv());
        assert_eq!(t.len(), 4);
        let comparisons = routergeo_core::majority::compare_against_majority(gtv(), &lab().gt);
        // Registry-fed databases look better under majority methodology
        // than they are; NetAcuity (the dissenter) does not.
        for c in &comparisons[..3] {
            assert!(c.overstatement() > 0.0, "{c:?}");
        }
        assert!(
            comparisons[3].overstatement() < comparisons[0].overstatement(),
            "NetAcuity should benefit least from majority scoring"
        );
    }

    #[test]
    fn endpoints_are_easier_than_routers() {
        use routergeo_core::endpoint::{endpoint_ground_truth, routers_vs_endpoints};
        let t = endpoints(lab(), gtv());
        assert_eq!(t.len(), 4);
        let hosts = endpoint_ground_truth(&lab().world, 2_000);
        let ips: Vec<Ipv4Addr> = hosts.iter().map(|e| e.ip).collect();
        let host_view = ResolvedView::build_with(&lab().dbs, &ips, &lab().pool);
        let cmp = routers_vs_endpoints(gtv(), &lab().gt, &host_view, &hosts);
        // The registry-fed databases must show a clear endpoint advantage;
        // NetAcuity's hint mining can nearly close the gap on tiny worlds.
        for c in &cmp[..3] {
            assert!(c.country_gap() > 0.0, "{}", c.database);
        }
        assert!(cmp[3].country_gap() > -0.05, "{}", cmp[3].database);
    }

    #[test]
    fn cbg_extension_runs_and_is_competitive() {
        let _ = cbg(lab());
        let results = routergeo_rtt::cbg::evaluate_cbg(&lab().world, &lab().atlas_records, 20.0, 2);
        assert!(results.len() > 100, "{} CBG targets", results.len());
        let (cdf, dropped) =
            routergeo_geo::EmpiricalCdf::from_iter_lossy(results.iter().map(|(_, _, e)| *e));
        assert_eq!(dropped, 0, "CBG errors are finite");
        assert!(cdf.median().unwrap() < 100.0);
    }

    #[test]
    fn temporal_drift_is_small_and_preserves_conclusions() {
        let (drift, _) = temporal(lab());
        assert_eq!(drift.len(), 4);
        use routergeo_db::diff::diff_answers;
        use routergeo_db::synth::{build_vendor, SignalWorld, VendorId, VendorProfile};
        let signals = SignalWorld::new(&lab().world);
        let later = build_vendor(
            &signals,
            &VendorProfile::preset(VendorId::MaxMindPaid).at_epoch(1),
        );
        let ips: Vec<Ipv4Addr> = lab().gt.entries.iter().map(|e| e.ip).collect();
        let view = ResolvedView::build_with(&[&lab().dbs[2], &later], &ips, &lab().pool);
        let report = diff_answers(&view.databases()[0], view.column(0), view.column(1));
        assert!(
            report.material_change_rate() < 0.06,
            "drift too large: {}",
            report.material_change_rate()
        );
        // Conclusions preserved: NetAcuity still wins after the re-release.
        let after: Vec<_> = VendorProfile::all_presets()
            .into_iter()
            .map(|p| build_vendor(&signals, &p.at_epoch(1)))
            .collect();
        let after = ResolvedView::build_with(&after, &ips, &lab().pool);
        let rep = accuracy::evaluate_from_view(&after, &lab().gt, 5);
        for other in &rep.overall[..3] {
            assert!(rep.overall[3].country_accuracy() > other.country_accuracy());
        }
    }

    #[test]
    fn recommendations_render() {
        let (report, _) = gt_accuracy_from(lab(), gtv());
        let text = recommend(&report);
        assert!(text.contains("NetAcuity"), "{text}");
    }
}
