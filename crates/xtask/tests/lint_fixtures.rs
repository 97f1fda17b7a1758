//! End-to-end fixture tests for the lint engine: exact rule IDs, line
//! numbers, and waiver behaviour — plus the acceptance gate that the
//! workspace's own tree lints clean.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::deps;
use xtask::engine::{self, lint_source, rules_for};
use xtask::rules::RuleSet;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).expect("fixture file readable")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the root")
        .to_path_buf()
}

#[test]
fn bad_fixture_reports_exact_rules_and_lines() {
    let out = lint_source("bad_rules.rs", &fixture("bad_rules.rs"), &RuleSet::all());
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG001", 5), // .expect("")
            ("RG004", 9), // a == 0.5
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    assert!(out.waivers.is_empty());
}

#[test]
fn bad_fixture_reports_exact_columns() {
    let out = lint_source("bad_rules.rs", &fixture("bad_rules.rs"), &RuleSet::all());
    let expect = &out.violations[0];
    assert_eq!((expect.line, expect.col), (5, 7), "col of `expect` token");
    let float_eq = &out.violations[1];
    assert_eq!((float_eq.line, float_eq.col), (9, 7), "col of `==` token");
}

#[test]
fn bad_fixture_would_fail_the_lint_gate() {
    // The acceptance criterion: reintroducing any fixture-bad snippet
    // makes the lint exit non-zero, which maps to a non-empty violation
    // list here.
    let out = lint_source("bad_rules.rs", &fixture("bad_rules.rs"), &RuleSet::all());
    assert!(!out.violations.is_empty());
}

#[test]
fn test_code_in_fixture_is_exempt() {
    let out = lint_source("bad_rules.rs", &fixture("bad_rules.rs"), &RuleSet::all());
    assert!(
        out.violations.iter().all(|v| v.line < 12),
        "nothing inside #[cfg(test)] may be flagged: {:#?}",
        out.violations
    );
}

#[test]
fn waived_fixture_is_clean_and_audited() {
    let out = lint_source(
        "good_waived.rs",
        &fixture("good_waived.rs"),
        &RuleSet::all(),
    );
    assert!(
        out.violations.is_empty(),
        "waivers must suppress everything: {:#?}",
        out.violations
    );
    let got: Vec<(u32, &str)> = out
        .waivers
        .iter()
        .map(|w| (w.line, w.rules[0].as_str()))
        .collect();
    assert_eq!(got, vec![(4, "RG001"), (7, "RG004")]);
    assert!(
        out.waivers.iter().all(|w| !w.reason.is_empty()),
        "every audited waiver carries its reason"
    );
}

#[test]
fn stale_and_malformed_waivers_fail() {
    let out = lint_source(
        "bad_waivers.rs",
        &fixture("bad_waivers.rs"),
        &RuleSet::all(),
    );
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![(XW_STALE, 4), (XW_MALFORMED, 7)],
        "{:#?}",
        out.violations
    );
}

const XW_STALE: &str = "XW002";
const XW_MALFORMED: &str = "XW001";

#[test]
fn rg006_fixture_reports_cleared_deadlines() {
    let out = lint_source("bad_rg006.rs", &fixture("bad_rg006.rs"), &RuleSet::all());
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG006", 16), // set_read_timeout(None)
            ("RG006", 17), // set_write_timeout(None)
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // TcpStream::connect (clippy's), connect_timeout, Some(..) deadlines,
    // and #[cfg(test)] code pass.
}

#[test]
fn rg009_fixture_reports_allocating_lookups_and_honours_waivers() {
    let out = lint_source("bad_rg009.rs", &fixture("bad_rg009.rs"), &RuleSet::all());
    let got: Vec<(&str, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG009", 7),  // db.lookup(*ip) in a tally loop
            ("RG009", 15), // d.lookup(ip) in a map chain
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // lookup_compact, view.record, path-form country::lookup, and
    // #[cfg(test)] code pass; the waived bridge is suppressed and audited.
    assert_eq!(out.waivers.len(), 1);
    assert_eq!(out.waivers[0].rules, vec!["RG009".to_string()]);
    assert_eq!(out.waivers[0].suppressed, 1);
}

#[test]
fn rg011_fixture_flags_guards_held_across_blocking_calls() {
    let out = lint_source("bad_rg011.rs", &fixture("bad_rg011.rs"), &RuleSet::all());
    let got: Vec<(&str, u32, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line, v.col))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG011", 16, 15),  // decode_record under `guard`
            ("RG011", 27, 18),  // thread::sleep under read guard
            ("RG011", 103, 21), // a wait handed `guard` while `entries` is held
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // Scoped probe, decode-after-drop, re-lock-to-publish, and the
    // three `Condvar` waits handed their guard pass.
    let msg = &out.violations[0].message;
    assert!(
        msg.contains("`decode_record`") && msg.contains("`guard`") && msg.contains("line 9"),
        "message names the call, the guard, and the acquisition line: {msg}"
    );
    let msg = &out.violations[2].message;
    assert!(
        msg.contains("`wait_timeout_while`") && msg.contains("`entries`"),
        "the finding names the held guard, not the one handed over: {msg}"
    );
}

#[test]
fn rg012_fixture_flags_swallowed_results() {
    let out = lint_source("bad_rg012.rs", &fixture("bad_rg012.rs"), &RuleSet::all());
    let got: Vec<(&str, u32, u32)> = out
        .violations
        .iter()
        .map(|v| (v.rule.as_str(), v.line, v.col))
        .collect();
    assert_eq!(
        got,
        vec![
            ("RG012", 6, 21), // statement-position .ok()
            ("RG012", 7, 5),  // let _: Result<..> typed discard
            ("RG012", 8, 5),  // let _ = in-file fallible call
        ],
        "full diagnostics: {:#?}",
        out.violations
    );
    // is_ok(), unwrap_or, propagation, and #[cfg(test)] discards pass.
}

#[test]
fn scope_tree_of_net_lib_is_pinned_byte_exact() {
    // The scope tree of a real workspace file, rendered and compared
    // byte-for-byte. Regenerate after intentional changes with:
    //   BLESS=1 cargo test -p xtask --test lint_fixtures scope_tree
    let src = fs::read_to_string(workspace_root().join("crates/net/src/lib.rs"))
        .expect("crates/net/src/lib.rs readable");
    let lexed = xtask::lexer::lex(&src);
    let rendered = xtask::scope::build(&lexed).render();
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/net_lib_scope.txt");
    if std::env::var("BLESS").is_ok() {
        fs::write(&golden_path, &rendered).expect("golden writable");
    }
    let golden = fs::read_to_string(&golden_path).expect("golden scope render present");
    assert_eq!(
        rendered, golden,
        "scope tree of crates/net/src/lib.rs drifted from the golden render"
    );
}

#[test]
fn only_core_analysis_modules_carry_rg009() {
    let coverage = rules_for("crates/core/src/coverage.rs").expect("in scope");
    assert!(coverage.rg009);
    let resolve = rules_for("crates/core/src/resolve.rs").expect("in scope");
    assert!(!resolve.rg009, "the view builder itself resolves lookups");
    let inmem = rules_for("crates/db/src/inmem.rs").expect("in scope");
    assert!(!inmem.rg009, "database impls own their lookups");
}

#[test]
fn fixtures_are_outside_workspace_lint_scope() {
    assert!(rules_for("crates/xtask/tests/fixtures/bad_rules.rs").is_none());
}

#[test]
fn workspace_tree_lints_clean() {
    let out = engine::lint_workspace(&workspace_root()).expect("workspace walk succeeds");
    assert!(out.files_scanned > 50, "walk found the workspace sources");
    assert!(
        out.violations.is_empty(),
        "the tree must stay lint-clean; fix or waive:\n{}",
        out.violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_manifests_pass_dependency_policy() {
    let violations = deps::check_workspace(&workspace_root()).expect("manifests readable");
    assert!(
        violations.is_empty(),
        "dependency policy violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
