//! Integration: the full Tiny-scale report is byte-identical at every
//! thread count. This is the contract behind `routergeo_pool`'s sharded
//! map-reduce — shard boundaries and per-shard seeds depend only on the
//! input, never on how many workers drain the shard queue, and results
//! merge in shard order. CI runs this as its determinism gate.

use routergeo::core::report::TextTable;
use routergeo::world::Scale;
use routergeo_bench::{experiments as exp, Lab, LabConfig};

/// Render every experiment of `repro all` — Table 1, coverage,
/// consistency (with the Figure 1 CDFs), the §5.2 accuracy figures and
/// common-wrong count, the ARIN case study, validation, methodology, the
/// recommendations and the five extensions — into one string for byte
/// comparison. The Ark and ground-truth analyses read the two shared
/// views, as `repro` does.
fn full_report(threads: usize) -> String {
    let mut config = LabConfig::new(20_170_301, Scale::Tiny);
    config.threads = Some(threads);
    let lab = Lab::build(config);
    assert_eq!(lab.pool.threads(), threads);

    let ark = exp::ark_view(&lab);
    let gt = exp::gt_view(&lab);
    let (report, accuracy) = exp::gt_accuracy_from(&lab, &gt);
    let (common_wrong, fig4) = exp::fig4_from(&lab, &gt, &report);

    let mut tables = vec![exp::table1(&lab).2, exp::ark_coverage_from(&ark).1];
    tables.extend(exp::ark_consistency_from(&ark).1);
    tables.extend(accuracy);
    tables.extend([exp::fig3(&report), fig4]);
    tables.extend(exp::fig5(&report));
    tables.extend([exp::method_split(&report), exp::arin(&lab, &gt).1]);
    tables.extend(exp::validation(&lab).2);
    tables.extend([
        exp::methodology(&lab).1,
        exp::majority(&lab, &gt),
        exp::endpoints(&lab, &gt),
        exp::cbg(&lab),
        exp::hloc(&lab),
    ]);
    let (drift, temporal_accuracy) = exp::temporal(&lab);
    tables.extend([drift, temporal_accuracy]);

    let mut out: String = tables.iter().map(TextTable::render).collect();
    out.push_str(&format!("common wrong: {common_wrong}\n"));
    out.push_str(&exp::recommend(&report));
    out
}

#[test]
fn tiny_report_is_byte_identical_across_thread_counts() {
    let serial = full_report(1);
    assert!(serial.len() > 1_000, "report suspiciously short:\n{serial}");
    for threads in [2, 8] {
        let parallel = full_report(threads);
        assert_eq!(
            serial, parallel,
            "report bytes differ between 1 and {threads} threads"
        );
    }
}
