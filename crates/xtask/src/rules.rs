//! The custom lint rules evaluated over a lexed token stream: the six
//! checks clippy cannot express (RG001, RG004, RG006, RG009, RG011,
//! RG012). Everything clippy can express lives in the workspace lint
//! table and `clippy.toml` instead.
//!
//! Each rule is a pure function of the token stream plus precomputed
//! context: the brace-matched scope tree ([`crate::scope`]) and the
//! intra-function facts ([`crate::facts`] — guard liveness, fallible
//! functions). Test code — anything under `#[cfg(test)]` or annotated
//! `#[test]`, tracked structurally by the scope tree — is exempt from
//! every rule, matching the project policy that panics are the correct
//! failure mode inside tests.

use crate::facts::{self, Facts};
use crate::lexer::{Lexed, Tok, TokKind};
use crate::scope::{self, ScopeTree};

/// Which rules apply to a given file. Produced by
/// [`crate::engine::rules_for`] from the file's workspace-relative path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// RG001: no `.expect("")` with an empty message in library code
    /// (`.unwrap()` is clippy's `unwrap_used`).
    pub rg001: bool,
    /// RG004: no `==` / `!=` on floating-point values.
    pub rg004: bool,
    /// RG006: no `set_read_timeout(None)` / `set_write_timeout(None)`
    /// (`TcpStream::connect` is a clippy `disallowed_methods` entry).
    pub rg006: bool,
    /// RG009: no allocating `GeoDatabase::lookup` calls in the
    /// view-fed analysis modules (`engine::RG009_FILES`) — they resolve
    /// once through a `ResolvedView` and tally compact columns.
    pub rg009: bool,
    /// RG011: no lock guard held across a blocking call (`lookup*`,
    /// `decode_*`/`parse_*`, socket I/O, pool dispatch) — parsing or
    /// waiting under a lock serializes every other reader.
    pub rg011: bool,
    /// RG012: no silently swallowed `Result` in library crates —
    /// `let _ = fallible(…)` for an in-file fallible function,
    /// statement-position `.ok();`, or an explicit `let _: Result` bind.
    pub rg012: bool,
}

impl RuleSet {
    /// A set with every rule enabled (used by fixtures).
    pub fn all() -> Self {
        RuleSet {
            rg001: true,
            rg004: true,
            rg006: true,
            rg009: true,
            rg011: true,
            rg012: true,
        }
    }

    /// Whether no rule at all applies.
    pub fn is_empty(&self) -> bool {
        *self == RuleSet::default()
    }
}

/// A single finding, before waiver application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`RG0xx`, or `XW00x` for waiver faults).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Context shared by the rules: the scope tree and the intra-function
/// facts.
pub struct Context {
    /// The brace-matched scope tree; its `test_mask[i]` is true when
    /// token `i` belongs to a test item.
    pub tree: ScopeTree,
    /// Guard liveness and fallible functions.
    pub facts: Facts,
}

const COORD_ACCESSORS: [&str; 4] = ["lat", "lon", "latitude", "longitude"];

/// Build the shared [`Context`] for a lexed file. Test masking comes
/// from the scope tree, which tracks `#[cfg(test)]` regions
/// structurally (brace-matched) rather than by item-end heuristic.
pub fn build_context(lexed: &Lexed) -> Context {
    let tree = scope::build(lexed);
    let facts = facts::build(lexed, &tree);
    Context { tree, facts }
}

/// Run every enabled rule; findings come back in token order.
pub fn run_rules(lexed: &Lexed, ctx: &Context, rules: &RuleSet) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &lexed.tokens;

    for i in 0..toks.len() {
        if ctx.tree.test_mask[i] {
            continue;
        }
        if rules.rg001 {
            check_rg001(toks, i, &mut findings);
        }
        if rules.rg004 {
            check_rg004(toks, i, &mut findings);
        }
        if rules.rg006 {
            check_rg006(toks, i, &mut findings);
        }
        if rules.rg009 {
            check_rg009(toks, i, &mut findings);
        }
    }
    // Scope/fact-driven rules run once per file over the extracted
    // facts rather than per token.
    if rules.rg011 {
        check_rg011(toks, ctx, &mut findings);
    }
    if rules.rg012 {
        check_rg012(toks, ctx, &mut findings);
    }
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

fn tok_is(toks: &[Tok], i: usize, kind: TokKind, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == kind && t.text == text)
}

/// RG001: `.expect("")` in library code. Clippy has no lint for an
/// empty message, and `clippy::expect_used` would also refuse every
/// `.expect("reason")` the project relies on.
fn check_rg001(toks: &[Tok], i: usize, out: &mut Vec<Finding>) {
    if !tok_is(toks, i, TokKind::Punct, ".") {
        return;
    }
    let Some(name) = toks.get(i + 1) else { return };
    if name.kind != TokKind::Ident {
        return;
    }
    if name.text == "expect" && tok_is(toks, i + 2, TokKind::Punct, "(") {
        if let Some(arg) = toks.get(i + 3) {
            if arg.kind == TokKind::Str
                && arg.text.trim().is_empty()
                && tok_is(toks, i + 4, TokKind::Punct, ")")
            {
                out.push(Finding {
                    rule: "RG001",
                    line: name.line,
                    col: name.col,
                    message: "`.expect(\"\")` with an empty message — give the panic a \
                              diagnosable reason or propagate an error"
                        .into(),
                });
            }
        }
    }
}

/// RG004: `==` / `!=` on floating-point values. Heuristic: either side
/// of the operator is a float literal, or the left operand is a call to
/// a coordinate accessor (`lat()`, `lon()`, …). Clippy's `float_cmp`
/// skips comparisons with zero and functions whose name contains `eq`.
fn check_rg004(toks: &[Tok], i: usize, out: &mut Vec<Finding>) {
    let t = &toks[i];
    if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
        return;
    }
    let float_right = match toks.get(i + 1) {
        Some(n) if n.kind == TokKind::Float => true,
        // Negated literal: `== -180.0`.
        Some(n) if n.kind == TokKind::Punct && n.text == "-" => {
            toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Float)
        }
        _ => false,
    };
    let float_neighbor = (i > 0 && toks[i - 1].kind == TokKind::Float) || float_right;
    let coord_left =
        i > 0 && tok_is(toks, i - 1, TokKind::Punct, ")") && coord_call_end(toks, i - 1);
    let coord_right = coord_call_ahead(toks, i + 1);
    if float_neighbor || coord_left || coord_right {
        out.push(Finding {
            rule: "RG004",
            line: t.line,
            col: t.col,
            message: format!(
                "float `{}` comparison — use an epsilon helper from `geo::distance` \
                 (`approx_eq`) instead of exact equality",
                t.text
            ),
        });
    }
}

/// Whether the `)` at `close` ends a call to a coordinate accessor,
/// i.e. the tokens read `… . lat ( )`.
fn coord_call_end(toks: &[Tok], close: usize) -> bool {
    if close < 2 || !tok_is(toks, close - 1, TokKind::Punct, "(") {
        return false;
    }
    let name = &toks[close - 2];
    name.kind == TokKind::Ident && COORD_ACCESSORS.contains(&name.text.as_str())
}

/// Whether a coordinate accessor call appears shortly after `start`,
/// before the expression plausibly ends. Bounded lookahead keeps this a
/// heuristic rather than an expression parser.
fn coord_call_ahead(toks: &[Tok], start: usize) -> bool {
    for j in start..(start + 8).min(toks.len()) {
        let t = &toks[j];
        if t.kind == TokKind::Punct
            && matches!(t.text.as_str(), ";" | "," | "{" | "&" | "|" | "==" | "!=")
        {
            return false;
        }
        if t.kind == TokKind::Ident
            && COORD_ACCESSORS.contains(&t.text.as_str())
            && tok_is(toks, j + 1, TokKind::Punct, "(")
            && tok_is(toks, j + 2, TokKind::Punct, ")")
        {
            return true;
        }
    }
    false
}

/// RG006: `set_read_timeout(None)` / `set_write_timeout(None)` outside
/// tests — it clears a configured deadline, returning the socket to
/// unbounded blocking. Clippy's `disallowed-methods` cannot match an
/// argument, so this clause stays custom; the deadline-less
/// `TcpStream::connect` is a `clippy.toml` entry. The justified
/// exception carries a waiver.
fn check_rg006(toks: &[Tok], i: usize, out: &mut Vec<Finding>) {
    let t = &toks[i];
    if t.kind == TokKind::Ident
        && (t.text == "set_read_timeout" || t.text == "set_write_timeout")
        && tok_is(toks, i + 1, TokKind::Punct, "(")
        && tok_is(toks, i + 2, TokKind::Ident, "None")
    {
        out.push(Finding {
            rule: "RG006",
            line: t.line,
            col: t.col,
            message: format!(
                "`{}(None)` removes the socket deadline — pass `Some(duration)` so blocked \
                 I/O cannot hang forever",
                t.text
            ),
        });
    }
}

/// RG009: the allocating `GeoDatabase::lookup` inside a view-fed
/// analysis module. The analyses tally pre-resolved `ResolvedView`
/// columns; a direct `.lookup(` call re-queries the
/// database per address and clones a `LocationRecord` (two `String`
/// allocations) per answer, exactly the per-lookup cost the resolve-once
/// engine removed. The rule matches the method-call form (`.lookup(`);
/// the lexer reads `lookup_compact` as one identifier, so the compact
/// path never trips it.
fn check_rg009(toks: &[Tok], i: usize, out: &mut Vec<Finding>) {
    let t = &toks[i];
    if t.kind != TokKind::Ident || t.text != "lookup" {
        return;
    }
    if i == 0 || !tok_is(toks, i - 1, TokKind::Punct, ".") {
        return;
    }
    if !tok_is(toks, i + 1, TokKind::Punct, "(") {
        return;
    }
    out.push(Finding {
        rule: "RG009",
        line: t.line,
        col: t.col,
        message: "allocating `GeoDatabase::lookup` in a view-fed analysis module — \
                  resolve once through `ResolvedView` (or `lookup_compact`) and tally \
                  the compact columns"
            .into(),
    });
}

/// Calls considered blocking while a lock guard is live: prefix
/// families (`lookup*` queries, `decode_*`/`parse_*` of untrusted
/// input) plus exact socket/pool/channel operations and the `Condvar`
/// waits. Bare `read` / `write` / `join` are deliberately absent —
/// `Path::join` and `fmt::Write::write_str` would swamp the rule with
/// false positives, and the guard-acquisition forms of `read`/`write`
/// are already what RG011 is protecting.
const RG011_BLOCKING: [&str; 21] = [
    "try_lookup",
    "connect",
    "connect_timeout",
    "accept",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "flush",
    "recv",
    "recv_from",
    "recv_timeout",
    "send_to",
    "sleep",
    "wait",
    "wait_while",
    "wait_timeout",
    "wait_timeout_while",
    "fold_shards",
    "fold_count",
    "map_reduce",
];

fn is_blocking_call(name: &str) -> bool {
    name.starts_with("lookup")
        || name.starts_with("decode_")
        || name.starts_with("parse_")
        || RG011_BLOCKING.contains(&name)
}

/// RG011: a blocking call while a lock guard is live. The facts pass
/// gives each guard binding a liveness range (to the enclosing scope's
/// close, the guarded block, or an explicit `drop`); any call to a
/// blocking-family function inside that range serializes every other
/// holder of the lock for the call's duration — the `Mutex<HashMap>`
/// decode-cache hazard. A call whose first argument is the guard
/// itself takes it over, as `cv.wait(guard)` does to release the lock
/// while it blocks, so it is not a finding for that guard; a second
/// guard live across the same wait still is.
fn check_rg011(toks: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    for g in &ctx.facts.guards {
        if ctx
            .tree
            .test_mask
            .get(g.binding_tok)
            .copied()
            .unwrap_or(false)
        {
            continue;
        }
        for k in g.start..g.end.min(toks.len()) {
            let t = &toks[k];
            if t.kind != TokKind::Ident || !is_blocking_call(&t.text) {
                continue;
            }
            if !tok_is(toks, k + 1, TokKind::Punct, "(") {
                continue;
            }
            if k > 0 && tok_is(toks, k - 1, TokKind::Ident, "fn") {
                continue; // a declaration, not a call
            }
            if tok_is(toks, k + 2, TokKind::Ident, &g.name)
                && (tok_is(toks, k + 3, TokKind::Punct, ")")
                    || tok_is(toks, k + 3, TokKind::Punct, ","))
            {
                continue; // the guard is handed over, not held
            }
            out.push(Finding {
                rule: "RG011",
                line: t.line,
                col: t.col,
                message: format!(
                    "blocking call `{}` while guard `{}` (acquired via `.{}()` on line {}) \
                     is held — narrow the critical section or `drop({})` first",
                    t.text, g.name, g.method, g.line, g.name
                ),
            });
        }
    }
}

/// RG012: a silently swallowed `Result`. Three shapes: statement-
/// position `.ok();` (converts the error to `None` and drops it),
/// `let _ = fallible(…)` where `fallible` is declared in this file with
/// a `Result` return type, and an explicit `let _: Result<…> = …` bind.
/// The in-file signature table keeps the rule auditable: discarding a
/// cross-crate `Result` (e.g. socket teardown) is invisible to it, but
/// every discard of one of *our own* fallible calls must be justified
/// with a waiver.
fn check_rg012(toks: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if ctx.tree.test_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        if tok_is(toks, i, TokKind::Punct, ".")
            && tok_is(toks, i + 1, TokKind::Ident, "ok")
            && tok_is(toks, i + 2, TokKind::Punct, "(")
            && tok_is(toks, i + 3, TokKind::Punct, ")")
            && tok_is(toks, i + 4, TokKind::Punct, ";")
            && statement_discards(toks, i)
        {
            out.push(Finding {
                rule: "RG012",
                line: toks[i + 1].line,
                col: toks[i + 1].col,
                message: "statement-position `.ok();` swallows the error — handle it, \
                          propagate it, or waive with a justification"
                    .into(),
            });
        }
        if !(tok_is(toks, i, TokKind::Ident, "let") && tok_is(toks, i + 1, TokKind::Ident, "_")) {
            continue;
        }
        if tok_is(toks, i + 2, TokKind::Punct, ":") {
            // `let _: Result<…> = …;` — an explicitly typed discard.
            let mut fallible = false;
            for t in toks.iter().skip(i + 3) {
                if t.kind == TokKind::Punct && (t.text == "=" || t.text == ";") {
                    break;
                }
                if t.kind == TokKind::Ident && t.text == "Result" {
                    fallible = true;
                }
            }
            if fallible {
                out.push(Finding {
                    rule: "RG012",
                    line: toks[i].line,
                    col: toks[i].col,
                    message: "`let _: Result<…>` discards the error — handle it, propagate \
                              it, or waive with a justification"
                        .into(),
                });
            }
        } else if tok_is(toks, i + 2, TokKind::Punct, "=") {
            // `let _ = …;` — flag when the RHS calls an in-file fallible
            // function (identifier directly followed by `(`; macro bangs
            // like `write!` have a `!` in between and never match).
            let mut depth = 0i32;
            let mut j = i + 3;
            while j < toks.len() {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                }
                if t.kind == TokKind::Ident
                    && ctx.facts.fallible_fns.contains(&t.text)
                    && tok_is(toks, j + 1, TokKind::Punct, "(")
                {
                    out.push(Finding {
                        rule: "RG012",
                        line: toks[i].line,
                        col: toks[i].col,
                        message: format!(
                            "`let _ = …` discards the `Result` of `{}` (declared fallible \
                             in this file) — handle it, propagate it, or waive with a \
                             justification",
                            t.text
                        ),
                    });
                    break;
                }
                j += 1;
            }
        }
    }
}

/// Whether the `.ok()` whose `.` sits at `dot` begins at statement
/// position: walking back, we hit a statement boundary (`;`, `{`, `}`)
/// before any evidence the value is consumed (`let`, `return`, `=`,
/// `?`, a match arm, or a control-flow head).
fn statement_discards(toks: &[Tok], dot: usize) -> bool {
    let mut k = dot;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            return true;
        }
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "let" | "return" | "if" | "while" | "match")
        {
            return false;
        }
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), "=" | "?" | "=>") {
            return false;
        }
    }
    true
}

/// A parsed `xtask-allow` waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Line the waiver comment sits on.
    pub line: u32,
    /// Line the waiver applies to (its own line if it trails code, the
    /// next code line when it stands alone).
    pub applies_to: u32,
    /// Rule IDs the waiver covers.
    pub rules: Vec<String>,
    /// Mandatory free-form justification.
    pub reason: String,
}

/// Marker that introduces a waiver inside a comment.
pub const WAIVER_MARKER: &str = "xtask-allow:";

/// Extract waivers from comments. Malformed waivers (no rule ID or no
/// reason) are reported as `XW001` findings so they cannot silently
/// disable a rule.
pub fn parse_waivers(lexed: &Lexed, findings: &mut Vec<Finding>) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for c in &lexed.comments {
        let Some(pos) = c.text.find(WAIVER_MARKER) else {
            continue;
        };
        let rest = &c.text[pos + WAIVER_MARKER.len()..];
        let mut rules = Vec::new();
        let mut reason_start = rest.len();
        for (off, word) in split_words(rest) {
            let id = word.trim_end_matches(',');
            if is_rule_id(id) {
                rules.push(id.to_string());
            } else {
                reason_start = off;
                break;
            }
        }
        let reason = rest[reason_start.min(rest.len())..].trim().to_string();
        if rules.is_empty() || reason.is_empty() {
            findings.push(Finding {
                rule: "XW001",
                line: c.line,
                col: 1,
                message: "malformed waiver — expected `// xtask-allow: RGxxx <reason>` \
                          with at least one rule ID and a non-empty reason"
                    .into(),
            });
            continue;
        }
        let end_line = c.end_line;
        let standalone = !lexed.tokens.iter().any(|t| t.line == c.line);
        let applies_to = if standalone {
            lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .filter(|&l| l > end_line)
                .min()
                .unwrap_or(end_line + 1)
        } else {
            c.line
        };
        waivers.push(Waiver {
            line: c.line,
            applies_to,
            rules,
            reason,
        });
    }
    waivers
}

fn split_words(s: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, ch) in s.char_indices() {
        if ch.is_whitespace() {
            if let Some(st) = start.take() {
                out.push((st, &s[st..i]));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(st) = start {
        out.push((st, &s[st..]));
    }
    out
}

fn is_rule_id(word: &str) -> bool {
    word.len() == 5
        && (word.starts_with("RG") || word.starts_with("XW"))
        && word[2..].bytes().all(|b| b.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(src: &str, rules: RuleSet) -> Vec<Finding> {
        let lexed = lex(src);
        let ctx = build_context(&lexed);
        run_rules(&lexed, &ctx, &rules)
    }

    #[test]
    fn rg001_flags_empty_expect_only() {
        let fs = findings(
            "fn f() { x.unwrap(); y.expect(\"\"); z.expect(\"reason\"); w.unwrap_or(3); }",
            RuleSet {
                rg001: true,
                ..RuleSet::default()
            },
        );
        assert_eq!(fs.len(), 1, "`.unwrap()` is clippy's unwrap_used: {fs:?}");
        assert_eq!((fs[0].rule, fs[0].col), ("RG001", 24));
    }

    #[test]
    fn rg004_skips_test_modules() {
        let src = "fn a(x: f64) -> bool { x == 0.5 }\n\
                   #[cfg(test)]\nmod tests {\n fn b(y: f64) -> bool { y == 0.5 }\n}\n";
        let fs = findings(
            src,
            RuleSet {
                rg004: true,
                ..RuleSet::default()
            },
        );
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 1);
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn a(x: f64) -> bool { x == 0.5 }\n";
        let fs = findings(
            src,
            RuleSet {
                rg004: true,
                ..RuleSet::default()
            },
        );
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn rg004_float_literal_and_accessors() {
        let src = "fn f() { if x == 0.0 {} if a.lat() == b.lat() {} if n == 3 {} }";
        let fs = findings(
            src,
            RuleSet {
                rg004: true,
                ..RuleSet::default()
            },
        );
        assert_eq!(fs.len(), 2);
    }

    #[test]
    fn rg006_flags_cleared_deadlines_only() {
        let src = "fn f(a: SocketAddr) {\n\
                   let s = TcpStream::connect(a);\n\
                   let t = TcpStream::connect_timeout(&a, d);\n\
                   t.set_read_timeout(None);\n\
                   t.set_write_timeout(Some(d));\n\
                   }\n\
                   #[cfg(test)]\nmod tests { fn g(a: SocketAddr) { TcpStream::connect(a); } }\n";
        let fs = findings(
            src,
            RuleSet {
                rg006: true,
                ..RuleSet::default()
            },
        );
        // `TcpStream::connect` (line 2) is clippy's disallowed_methods.
        let got: Vec<u32> = fs.iter().map(|f| f.line).collect();
        assert_eq!(got, vec![4], "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "RG006"));
    }

    #[test]
    fn rg009_flags_allocating_lookup_calls_only() {
        let src = "fn f(db: &D, view: &ResolvedView) {\n\
                   let rec = db.lookup(ip);\n\
                   let compact = db.lookup_compact(ip, &mut interner);\n\
                   let cached = view.record(0, i);\n\
                   let table = country::lookup(cc);\n\
                   map.lookup(ip);\n\
                   }\n\
                   #[cfg(test)]\nmod tests { fn g() { db.lookup(ip); } }\n";
        let fs = findings(
            src,
            RuleSet {
                rg009: true,
                ..RuleSet::default()
            },
        );
        let got: Vec<u32> = fs.iter().map(|f| f.line).collect();
        assert_eq!(got, vec![2, 6], "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "RG009"));
    }

    #[test]
    fn rg011_flags_blocking_calls_under_live_guards_only() {
        let src = "fn f(&self) {\n\
                   let mut cache = self.decoded.lock().unwrap();\n\
                   let rec = decode_record(slice);\n\
                   cache.insert(at, rec);\n\
                   }\n\
                   fn g(&self) {\n\
                   let state = self.m.lock().unwrap();\n\
                   let n = state.len();\n\
                   drop(state);\n\
                   let rec = decode_record(slice);\n\
                   }\n";
        let fs = findings(
            src,
            RuleSet {
                rg011: true,
                ..RuleSet::default()
            },
        );
        let got: Vec<u32> = fs.iter().map(|f| f.line).collect();
        assert_eq!(got, vec![3], "{fs:?}");
        assert_eq!(fs[0].rule, "RG011");
        assert!(fs[0].message.contains("cache"));
    }

    #[test]
    fn rg011_if_let_guard_does_not_leak_past_its_block() {
        let src = "fn f(&self) {\n\
                   if let Ok(stats) = self.stats.lock() { stats.bump(); }\n\
                   let rec = decode_record(slice);\n\
                   }\n";
        let fs = findings(
            src,
            RuleSet {
                rg011: true,
                ..RuleSet::default()
            },
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn rg012_flags_swallowed_results() {
        let src = "fn fallible() -> std::io::Result<()> { Ok(()) }\n\
                   fn f(sock: &S) {\n\
                   let _ = fallible();\n\
                   sock.shutdown().ok();\n\
                   let _: Result<(), E> = sock.close();\n\
                   let used = fallible();\n\
                   let _ = infallible_elsewhere();\n\
                   let ok = sock.shutdown().ok();\n\
                   }\n";
        let fs = findings(
            src,
            RuleSet {
                rg012: true,
                ..RuleSet::default()
            },
        );
        let got: Vec<u32> = fs.iter().map(|f| f.line).collect();
        assert_eq!(got, vec![3, 4, 5], "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "RG012"));
    }

    #[test]
    fn rg012_ignores_macro_discards_and_question_marks() {
        let src = "fn fallible() -> Result<(), E> { Ok(()) }\n\
                   fn f(out: &mut W) -> Result<(), E> {\n\
                   let _ = write!(out, \"x\");\n\
                   fallible()?;\n\
                   Ok(())\n\
                   }\n";
        let fs = findings(
            src,
            RuleSet {
                rg012: true,
                ..RuleSet::default()
            },
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn waiver_parsing_and_malformed() {
        let src = "// xtask-allow: RG001 index checked above\nlet x = v.get(0);\n\
                   // xtask-allow: RG001\nlet y = 1;\n";
        let lexed = lex(src);
        let mut faults = Vec::new();
        let ws = parse_waivers(&lexed, &mut faults);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].applies_to, 2);
        assert_eq!(ws[0].reason, "index checked above");
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].rule, "XW001");
    }

    #[test]
    fn trailing_waiver_applies_to_own_line() {
        let src = "let x = v.unwrap(); // xtask-allow: RG001 seeded above\n";
        let lexed = lex(src);
        let mut faults = Vec::new();
        let ws = parse_waivers(&lexed, &mut faults);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].applies_to, 1);
    }
}
