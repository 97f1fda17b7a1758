//! Input parity: at seed 20170301 the workloads see the inputs that
//! `resolve-check` (`BENCH_resolve.json`) and `repro --timings` see, so
//! their numbers line up. Paper-size inputs: run with `--release`.

use perfbench::{resolve, tables, Size};
use routergeo_bench::Lab;
use routergeo_core::ResolvedView;
use routergeo_pool::Pool;

const SEED: u64 = 20_170_301;

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-size inputs: run with --release")]
fn resolve_paper_reproduces_the_bench_resolve_input() {
    let inputs = resolve::setup(SEED, Size::Full);
    let view = ResolvedView::build_with(&inputs.readers, &inputs.ips, &Pool::new(resolve::WIDTH));
    let hits: usize = (0..view.db_count())
        .map(|d| view.column(d).iter().filter(|r| r.is_some()).count())
        .sum();
    assert_eq!(view.len() * view.db_count(), 6_000_000);
    assert_eq!(hits, 4_373_839);
    assert_eq!(view.interner().len(), 4_608);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "tenth-scale lab: run with --release")]
fn tables_tenth_reproduces_repros_tenth_scale_lab() {
    let lab = Lab::build(tables::lab_config(SEED, Size::Full));
    assert_eq!(lab.ark.interfaces.len(), 85_021);
    assert_eq!(lab.gt.entries.len(), 16_850);
}
