//! Lint driver: file classification, waiver application, workspace walk.
//!
//! The engine decides which [`RuleSet`] applies to each file from its
//! workspace-relative path, lints every in-scope `.rs` file, subtracts
//! waived findings, and reports stale or malformed waivers as findings
//! of their own so the waiver ledger can never rot silently.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::lexer;
use crate::rules::{self, Finding, RuleSet};

/// Library crates subject to RG001 and RG012: everything under
/// `crates/` that external code links against. `xtask` dogfoods the
/// same rules; `bench` is a harness binary and exempt.
const LIB_CRATES: [&str; 16] = [
    "geo",
    "net",
    "db",
    "core",
    "trace",
    "world",
    "dns",
    "rtt",
    "cymru",
    "faultnet",
    "gazetteer",
    "pool",
    "obs",
    "xtask",
    "fuzz",
    "serve",
];

/// The analysis modules that must consume the resolve-once
/// `ResolvedView` (or its answer columns) rather than re-querying
/// databases; RG009 (no allocating `GeoDatabase::lookup`) applies only
/// here. `core::methodology` reads the view too, but stays out: the
/// rule matches tokens, and its `Gazetteer::lookup` shares the name.
const RG009_FILES: [&str; 7] = [
    "crates/core/src/coverage.rs",
    "crates/core/src/consistency.rs",
    "crates/core/src/accuracy.rs",
    "crates/core/src/arin_case.rs",
    "crates/core/src/majority.rs",
    "crates/core/src/endpoint.rs",
    "crates/db/src/diff.rs",
];

/// Directory names never descended into during the workspace walk.
/// `vendor/` holds offline API stubs for third-party crates — external
/// code by policy, like any vendored dependency. `results/` holds
/// generated experiment artifacts, never source.
const SKIP_DIRS: [&str; 8] = [
    "target", "vendor", ".git", "tests", "benches", "examples", "fixtures", "results",
];

/// A diagnostic bound to a file, ready for display as
/// `file:line:col RULE-ID message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule identifier.
    pub rule: String,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{} {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// A waiver that matched at least one finding, for `--waivers` audits.
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    /// Workspace-relative path.
    pub file: String,
    /// Line of the waiver comment.
    pub line: u32,
    /// Rules it suppressed.
    pub rules: Vec<String>,
    /// The justification given in the comment.
    pub reason: String,
    /// How many findings it suppressed.
    pub suppressed: usize,
}

/// Result of linting one file or the whole workspace.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Findings that survive waiver subtraction — these fail the build.
    pub violations: Vec<Diagnostic>,
    /// Waivers that suppressed at least one finding.
    pub waivers: Vec<WaiverRecord>,
    /// Number of files actually linted.
    pub files_scanned: usize,
}

impl Outcome {
    fn absorb(&mut self, other: Outcome) {
        self.violations.extend(other.violations);
        self.waivers.extend(other.waivers);
        self.files_scanned += other.files_scanned;
    }
}

/// Decide which rules apply to the file at workspace-relative path
/// `rel` (forward slashes). `None` means the file is out of scope.
pub fn rules_for(rel: &str) -> Option<RuleSet> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let first = rel.split('/').next().unwrap_or("");
    if SKIP_DIRS.contains(&first) || rel.split('/').any(|c| SKIP_DIRS.contains(&c)) {
        return None;
    }

    let mut rules = RuleSet::default();
    if let Some(rest) = rel.strip_prefix("crates/") {
        let krate = rest.split('/').next().unwrap_or("");
        if !rest[krate.len()..].starts_with("/src/") {
            return None; // crate-level build scripts, fixtures, …
        }
        rules.rg001 = LIB_CRATES.contains(&krate);
        rules.rg004 = true;
        rules.rg006 = true;
        rules.rg009 = RG009_FILES.contains(&rel);
        // Holding a lock across a blocking call is a hazard everywhere.
        rules.rg011 = true;
        // Swallowed Results are a library-crate concern; the bench
        // harness may discard at will.
        rules.rg012 = LIB_CRATES.contains(&krate);
    } else if rel.starts_with("src/") {
        // Umbrella library + CLI binaries: RG001 and RG012 are
        // library-crate rules.
        rules.rg004 = true;
        rules.rg006 = true;
        rules.rg011 = true;
    } else {
        return None;
    }
    Some(rules)
}

/// Lint a single source text as if it lived at `rel`. Pure — fixture
/// tests drive this directly.
pub fn lint_source(rel: &str, src: &str, rules: &RuleSet) -> Outcome {
    let lexed = lexer::lex(src);
    let ctx = rules::build_context(&lexed);
    let mut findings = rules::run_rules(&lexed, &ctx, rules);
    let waivers = rules::parse_waivers(&lexed, &mut findings);

    // Keep (rule, line) of every pre-waiver finding so a stale waiver
    // can report where its target drifted to.
    let all_findings: Vec<(String, u32)> = findings
        .iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect();

    let mut used = vec![0usize; waivers.len()];
    let mut violations = Vec::new();
    for f in findings {
        let slot = waivers
            .iter()
            .position(|w| w.applies_to == f.line && w.rules.iter().any(|r| r == f.rule));
        match slot {
            Some(ix) if f.rule != "XW001" => used[ix] += 1,
            _ => violations.push(to_diag(rel, &f)),
        }
    }
    let mut records = Vec::new();
    for (w, &count) in waivers.iter().zip(&used) {
        if count == 0 {
            // Line-drift aid: point at the nearest surviving finding for
            // the same rule, so a waiver whose code moved is a one-line
            // fix rather than an archaeology session.
            let nearest = all_findings
                .iter()
                .filter(|(rule, _)| w.rules.iter().any(|r| r == rule))
                .min_by_key(|(_, line)| line.abs_diff(w.applies_to));
            let hint = match nearest {
                Some((rule, line)) => format!(
                    "nearest {rule} finding is now on line {line} — move the waiver or \
                     remove it"
                ),
                None => format!(
                    "no {} findings remain in this file; remove it",
                    w.rules.join(",")
                ),
            };
            violations.push(Diagnostic {
                file: rel.to_string(),
                line: w.line,
                col: 1,
                rule: "XW002".into(),
                message: format!(
                    "stale waiver for {} — no matching finding on line {}; {}",
                    w.rules.join(","),
                    w.applies_to,
                    hint
                ),
            });
        } else {
            records.push(WaiverRecord {
                file: rel.to_string(),
                line: w.line,
                rules: w.rules.clone(),
                reason: w.reason.clone(),
                suppressed: count,
            });
        }
    }
    violations.sort_by_key(|v| (v.line, v.col));
    Outcome {
        violations,
        waivers: records,
        files_scanned: 1,
    }
}

fn to_diag(rel: &str, f: &Finding) -> Diagnostic {
    Diagnostic {
        file: rel.to_string(),
        line: f.line,
        col: f.col,
        rule: f.rule.to_string(),
        message: f.message.clone(),
    }
}

/// Lint every in-scope file under the workspace root.
pub fn lint_workspace(root: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    walk(root, root, &mut out)?;
    out.violations
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    out.waivers
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Outcome) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if let Some(rules) = rules_for(&rel) {
                if rules.is_empty() {
                    continue;
                }
                let src = fs::read_to_string(&path)?;
                out.absorb(lint_source(&rel, &src, &rules));
            }
        }
    }
    Ok(())
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        let geo = rules_for("crates/geo/src/coord.rs").expect("in scope");
        assert!(geo.rg001 && geo.rg004 && geo.rg006 && !geo.rg009);

        let faultnet = rules_for("crates/faultnet/src/proxy.rs").expect("in scope");
        assert!(faultnet.rg001 && faultnet.rg006);

        let pool = rules_for("crates/pool/src/lib.rs").expect("in scope");
        assert!(pool.rg001 && pool.rg012);

        let core = rules_for("crates/core/src/accuracy.rs").expect("in scope");
        assert!(core.rg009, "analysis modules must use the ResolvedView");
        let consistency = rules_for("crates/core/src/consistency.rs").expect("in scope");
        assert!(consistency.rg009);
        for view_fed in [
            "crates/core/src/arin_case.rs",
            "crates/core/src/majority.rs",
            "crates/core/src/endpoint.rs",
            "crates/db/src/diff.rs",
        ] {
            let rules = rules_for(view_fed).expect("in scope");
            assert!(rules.rg009, "{view_fed} reads answers, not databases");
        }
        let methodology = rules_for("crates/core/src/methodology.rs").expect("in scope");
        assert!(
            !methodology.rg009,
            "the gazetteer's own `lookup` would trip the token rule"
        );
        let resolve = rules_for("crates/core/src/resolve.rs").expect("in scope");
        assert!(!resolve.rg009, "the view builder itself resolves lookups");
        let inmem = rules_for("crates/db/src/inmem.rs").expect("in scope");
        assert!(!inmem.rg009, "database impls own their lookups");

        let serve = rules_for("crates/serve/src/daemon.rs").expect("in scope");
        assert!(
            serve.rg001 && serve.rg006,
            "the daemon is a lib crate: empty-expect and socket rules apply"
        );

        let bench = rules_for("crates/bench/src/lab.rs").expect("in scope");
        assert!(!bench.rg001 && bench.rg004 && bench.rg006);

        let obs = rules_for("crates/obs/src/lib.rs").expect("in scope");
        assert!(obs.rg001 && obs.rg012);

        let xtask_main = rules_for("crates/xtask/src/main.rs").expect("in scope");
        assert!(xtask_main.rg001);

        let root_bin = rules_for("src/bin/routergeo.rs").expect("in scope");
        assert!(!root_bin.rg001 && root_bin.rg004 && root_bin.rg006);

        assert!(rules_for("vendor/rand/src/lib.rs").is_none());
        assert!(rules_for("crates/geo/tests/prop_geo.rs").is_none());
        assert!(rules_for("crates/xtask/tests/fixtures/bad.rs").is_none());
        assert!(rules_for("target/debug/build/foo.rs").is_none());
        assert!(rules_for("README.md").is_none());
    }

    #[test]
    fn scope_rule_classification_by_path() {
        let rgdb = rules_for("crates/db/src/rgdb2.rs").expect("in scope");
        assert!(rgdb.rg011 && rgdb.rg012);

        let geo = rules_for("crates/geo/src/coord.rs").expect("in scope");
        assert!(geo.rg011 && geo.rg012);

        let fuzz = rules_for("crates/fuzz/src/mutate.rs").expect("in scope");
        assert!(
            fuzz.rg001 && fuzz.rg012,
            "the fuzz harness is a library crate and dogfoods the gates"
        );
        let bench = rules_for("crates/bench/src/lab.rs").expect("in scope");
        assert!(
            bench.rg011 && !bench.rg012,
            "bench harness may discard Results"
        );
        let bin = rules_for("src/bin/routergeo.rs").expect("in scope");
        assert!(bin.rg011 && !bin.rg012);

        assert!(rules_for("results/leftover.rs").is_none());
    }

    #[test]
    fn stale_waiver_reports_nearest_current_match() {
        let src = "fn f() {\n    let a = 1; // xtask-allow: RG001 drifted\n    \
                   let x = y.expect(\"\");\n}\n";
        let out = lint_source("lib.rs", src, &RuleSet::all());
        let stale = out
            .violations
            .iter()
            .find(|v| v.rule == "XW002")
            .expect("stale waiver reported");
        assert!(
            stale
                .message
                .contains("nearest RG001 finding is now on line 3"),
            "{}",
            stale.message
        );
    }

    #[test]
    fn stale_waiver_with_no_matching_rule_suggests_removal() {
        let src = "fn f() {\n    let a = 1; // xtask-allow: RG009 gone\n}\n";
        let out = lint_source("lib.rs", src, &RuleSet::all());
        let stale = out
            .violations
            .iter()
            .find(|v| v.rule == "XW002")
            .expect("stale waiver reported");
        assert!(
            stale.message.contains("no RG009 findings remain"),
            "{}",
            stale.message
        );
    }

    #[test]
    fn waiver_suppresses_and_stale_waiver_fails() {
        let src = "fn f() {\n    let x = y.expect(\"\"); // xtask-allow: RG001 y seeded above\n\
                       let z = 1; // xtask-allow: RG001 nothing here\n}\n";
        let out = lint_source("lib.rs", src, &RuleSet::all());
        assert_eq!(out.waivers.len(), 1);
        assert_eq!(out.waivers[0].suppressed, 1);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].rule, "XW002");
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress() {
        let src = "fn f() { let x = y.expect(\"\"); } // xtask-allow: RG004 wrong rule\n";
        let out = lint_source("lib.rs", src, &RuleSet::all());
        let rules: Vec<_> = out.violations.iter().map(|v| v.rule.as_str()).collect();
        assert!(rules.contains(&"RG001"), "{rules:?}");
        assert!(rules.contains(&"XW002"), "{rules:?}");
    }

    #[test]
    fn diagnostic_display_format() {
        let d = Diagnostic {
            file: "crates/geo/src/coord.rs".into(),
            line: 7,
            col: 13,
            rule: "RG004".into(),
            message: "float `==` comparison".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/geo/src/coord.rs:7:13 RG004 float `==` comparison"
        );
    }
}
