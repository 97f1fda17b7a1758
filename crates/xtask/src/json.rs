//! Machine-readable output for `cargo xtask lint --json`.
//!
//! Hand-rolled emission (the workspace vendors no serde): every string
//! passes through one escape routine, field order is fixed, and
//! collections arrive pre-sorted from the engine, so the output is
//! byte-deterministic — CI can diff two runs directly.

use std::fmt::Write as _;

use crate::engine::Outcome;

/// Render a lint [`Outcome`] as one line of JSON.
pub fn lint_json(out: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"files_scanned\":{}", out.files_scanned);
    s.push_str(",\"violations\":[");
    for (n, v) in out.violations.iter().enumerate() {
        if n > 0 {
            s.push(',');
        }
        s.push_str("{\"file\":");
        push_str_value(&mut s, &v.file);
        let _ = write!(s, ",\"line\":{},\"col\":{},\"rule\":", v.line, v.col);
        push_str_value(&mut s, &v.rule);
        s.push_str(",\"message\":");
        push_str_value(&mut s, &v.message);
        s.push('}');
    }
    s.push_str("],\"waivers\":[");
    for (n, w) in out.waivers.iter().enumerate() {
        if n > 0 {
            s.push(',');
        }
        s.push_str("{\"file\":");
        push_str_value(&mut s, &w.file);
        let _ = write!(s, ",\"line\":{},\"rules\":[", w.line);
        for (m, r) in w.rules.iter().enumerate() {
            if m > 0 {
                s.push(',');
            }
            push_str_value(&mut s, r);
        }
        s.push_str("],\"reason\":");
        push_str_value(&mut s, &w.reason);
        let _ = write!(s, ",\"suppressed\":{}}}", w.suppressed);
    }
    s.push_str("]}");
    s
}

/// Append `value` as a quoted JSON string with the required escapes.
fn push_str_value(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Diagnostic, Outcome, WaiverRecord};

    #[test]
    fn lint_json_is_exact_and_escaped() {
        let out = Outcome {
            violations: vec![Diagnostic {
                file: "crates/core/src/coverage.rs".into(),
                line: 7,
                col: 13,
                rule: "RG009".into(),
                message: "allocating `lookup` — use \"ResolvedView\"".into(),
            }],
            waivers: vec![WaiverRecord {
                file: "crates/cymru/src/server.rs".into(),
                line: 217,
                rules: vec!["RG011".into()],
                reason: "handoff discipline".into(),
                suppressed: 1,
            }],
            files_scanned: 2,
        };
        assert_eq!(
            lint_json(&out),
            "{\"files_scanned\":2,\"violations\":[{\"file\":\"crates/core/src/coverage.rs\",\
             \"line\":7,\"col\":13,\"rule\":\"RG009\",\"message\":\"allocating \
             `lookup` — use \\\"ResolvedView\\\"\"}],\"waivers\":[{\"file\":\
             \"crates/cymru/src/server.rs\",\"line\":217,\"rules\":[\"RG011\"],\
             \"reason\":\"handoff discipline\",\"suppressed\":1}]}"
        );
    }

    #[test]
    fn empty_outcome_renders_empty_arrays() {
        let out = Outcome::default();
        assert_eq!(
            lint_json(&out),
            "{\"files_scanned\":0,\"violations\":[],\"waivers\":[]}"
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut s = String::new();
        push_str_value(&mut s, "a\nb\t\"c\"\\d\u{1}");
        assert_eq!(s, "\"a\\nb\\t\\\"c\\\"\\\\d\\u0001\"");
    }
}
