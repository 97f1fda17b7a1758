//! Brace-matched scope tree over the lexed token stream.
//!
//! The lint engine needs more than a flat token stream: "a lock guard is
//! live in this scope", "this call sits inside a `#[cfg(test)]` module".
//! This module builds that structure in one pass: every `{ … }` region
//! becomes a [`Scope`] node, classified by the construct that introduced
//! it (`fn`, `impl`, `mod`, `trait`, closure, or a plain block), with
//! `#[cfg(test)]` / `#[test]` regions tracked structurally — the gated
//! item's scope carries `test = true` and every token inside it is
//! masked, replacing the older item-end heuristic.
//!
//! The lexer has already removed everything that can confuse brace
//! matching — braces inside string literals, char literals (`'{'`),
//! comments, and raw strings never reach the token stream — so matching
//! here is exact. Macro bodies keep balanced delimiters by Rust's grammar
//! and simply contribute ordinary block scopes.
//!
//! Known limits (documented, pinned in tests): a const-generic brace in a
//! return type (`fn f() -> [u8; { N }]`) would claim the pending `fn`
//! early, and a closure whose body is a bare expression (no braces) does
//! not get its own scope. Neither shape occurs in this workspace.

use crate::lexer::{Lexed, Tok, TokKind};

/// What introduced a scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// The whole file.
    Root,
    /// A function body (`fn name(…) { … }`).
    Fn,
    /// A closure body (`|args| { … }`).
    Closure,
    /// An `impl … { … }` block.
    Impl,
    /// A `trait … { … }` block.
    Trait,
    /// A `mod name { … }` block.
    Mod,
    /// Any other braced region: struct/enum bodies, match/if/loop blocks,
    /// struct literals, macro braces.
    Block,
}

impl ScopeKind {
    /// Short display name used by [`ScopeTree::render`].
    pub fn label(self) -> &'static str {
        match self {
            ScopeKind::Root => "root",
            ScopeKind::Fn => "fn",
            ScopeKind::Closure => "closure",
            ScopeKind::Impl => "impl",
            ScopeKind::Trait => "trait",
            ScopeKind::Mod => "mod",
            ScopeKind::Block => "block",
        }
    }
}

/// One node of the scope tree.
#[derive(Debug, Clone)]
pub struct Scope {
    /// What introduced the scope.
    pub kind: ScopeKind,
    /// Item name for `fn` / `mod` / `impl` / `trait` scopes.
    pub name: Option<String>,
    /// Token index of the opening `{` (0 for the root).
    pub open: usize,
    /// Token index of the matching `}`; `tokens.len()` when unterminated
    /// (and always for the root).
    pub close: usize,
    /// 1-based line of the introducing token (`fn`, `mod`, the `{`…).
    pub line: u32,
    /// 1-based column of the introducing token.
    pub col: u32,
    /// Whether the scope sits inside a `#[cfg(test)]` / `#[test]` item.
    pub test: bool,
    /// Parent scope index (`None` for the root).
    pub parent: Option<usize>,
    /// Child scope indices in source order.
    pub children: Vec<usize>,
}

/// The scope tree plus per-token derived maps.
#[derive(Debug)]
pub struct ScopeTree {
    /// All scopes; index 0 is the root.
    pub scopes: Vec<Scope>,
    /// `enclosing[i]` is the innermost scope containing token `i`.
    pub enclosing: Vec<usize>,
    /// `test_mask[i]` is true when token `i` belongs to a test-gated
    /// item, including the gating attribute tokens themselves.
    pub test_mask: Vec<bool>,
}

/// Keywords that can precede `[` without making it an index expression
/// (`let [a, b] = …`, `for x in [1, 2]`, `return [0; 4]`, …).
const NON_POSTFIX_KEYWORDS: [&str; 24] = [
    "let", "mut", "ref", "in", "if", "while", "match", "return", "else", "move", "static", "const",
    "as", "dyn", "impl", "for", "where", "use", "pub", "break", "continue", "type", "enum",
    "struct",
];

/// Whether the token can end an expression, making a following `[` an
/// index/slice operation and a following `|` a binary operator.
pub fn ends_expression(t: &Tok) -> bool {
    match t.kind {
        TokKind::Ident => !NON_POSTFIX_KEYWORDS.contains(&t.text.as_str()),
        TokKind::Int | TokKind::Float | TokKind::Str | TokKind::Char | TokKind::Lifetime => true,
        TokKind::Punct => matches!(t.text.as_str(), ")" | "]" | "}" | "?"),
    }
}

/// Pending item classification between its keyword and its `{`.
struct Pending {
    kind: ScopeKind,
    name: Option<String>,
    line: u32,
    col: u32,
}

/// Build the scope tree for a lexed file. Never panics: unbalanced
/// braces close at end-of-file.
pub fn build(lexed: &Lexed) -> ScopeTree {
    let toks = &lexed.tokens;
    let mut scopes = vec![Scope {
        kind: ScopeKind::Root,
        name: None,
        open: 0,
        close: toks.len(),
        line: 1,
        col: 1,
        test: false,
        parent: None,
        children: Vec::new(),
    }];
    let mut stack: Vec<usize> = vec![0];
    let mut enclosing = vec![0usize; toks.len()];
    let mut test_mask = vec![false; toks.len()];

    let mut pending: Option<Pending> = None;
    // Token index of the `#[cfg(test)]`-ish attribute waiting for its item.
    let mut pending_test: Option<usize> = None;
    // Scope index -> attribute token that gated it (for mask back-fill).
    let mut gated_by: Vec<Option<usize>> = vec![None];
    let mut bracket_depth = 0i32;

    let mut i = 0usize;
    while i < toks.len() {
        let top = *stack.last().unwrap_or(&0);
        enclosing[i] = top;
        let t = &toks[i];

        // Attributes: `#[…]` / `#![…]` — skip them, noting test gates.
        if t.kind == TokKind::Punct && t.text == "#" && is_attr_open(toks, i) {
            let open = if tok_text(toks, i + 1) == Some("!") {
                i + 2
            } else {
                i + 1
            };
            let close = matching_square(toks, open).unwrap_or(toks.len() - 1);
            for slot in enclosing.iter_mut().take(close + 1).skip(i) {
                *slot = top;
            }
            if pending_test.is_none() && attr_gates_tests(&toks[open + 1..close]) {
                pending_test = Some(i);
            }
            i = close + 1;
            continue;
        }

        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "fn") => {
                let name = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident);
                pending = Some(Pending {
                    kind: ScopeKind::Fn,
                    name: name.map(|n| n.text.clone()),
                    line: t.line,
                    col: t.col,
                });
            }
            (TokKind::Ident, "impl") => {
                pending = Some(Pending {
                    kind: ScopeKind::Impl,
                    name: impl_name(toks, i + 1),
                    line: t.line,
                    col: t.col,
                });
            }
            (TokKind::Ident, "trait") => {
                let name = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident);
                pending = Some(Pending {
                    kind: ScopeKind::Trait,
                    name: name.map(|n| n.text.clone()),
                    line: t.line,
                    col: t.col,
                });
            }
            (TokKind::Ident, "mod") => {
                let name = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident);
                pending = Some(Pending {
                    kind: ScopeKind::Mod,
                    name: name.map(|n| n.text.clone()),
                    line: t.line,
                    col: t.col,
                });
            }
            (TokKind::Punct, "|") => {
                if let Some(body_open) = closure_body_brace(toks, i) {
                    if pending.is_none() {
                        pending = Some(Pending {
                            kind: ScopeKind::Closure,
                            name: None,
                            line: t.line,
                            col: t.col,
                        });
                        // Jump to just before the body brace so an inner
                        // `|` in the parameter list is not re-examined.
                        for slot in enclosing.iter_mut().take(body_open).skip(i) {
                            *slot = top;
                        }
                        i = body_open;
                        continue;
                    }
                }
            }
            (TokKind::Punct, "[") => bracket_depth += 1,
            (TokKind::Punct, "]") => bracket_depth -= 1,
            (TokKind::Punct, "{") => {
                let p = pending.take().unwrap_or(Pending {
                    kind: ScopeKind::Block,
                    name: None,
                    line: t.line,
                    col: t.col,
                });
                let parent = top;
                let test = scopes[parent].test || pending_test.is_some();
                let ix = scopes.len();
                scopes.push(Scope {
                    kind: p.kind,
                    name: p.name,
                    open: i,
                    close: toks.len(),
                    line: p.line,
                    col: p.col,
                    test,
                    parent: Some(parent),
                    children: Vec::new(),
                });
                scopes[parent].children.push(ix);
                gated_by.push(pending_test.take());
                stack.push(ix);
                enclosing[i] = ix;
            }
            (TokKind::Punct, "}") if stack.len() > 1 => {
                let ix = stack.pop().unwrap_or(0);
                scopes[ix].close = i;
                enclosing[i] = ix;
                if let Some(attr_start) = gated_by.get(ix).copied().flatten() {
                    for slot in test_mask.iter_mut().take(i + 1).skip(attr_start) {
                        *slot = true;
                    }
                }
            }
            (TokKind::Punct, ";") if bracket_depth == 0 => {
                // A `;` before any brace terminates the pending item:
                // trait method declarations (`fn f();`) and brace-less
                // gated items (`#[cfg(test)] mod tests;`).
                pending = None;
                if let Some(attr_start) = pending_test.take() {
                    for slot in test_mask.iter_mut().take(i + 1).skip(attr_start) {
                        *slot = true;
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Tokens inside any scope flagged `test` are masked even when the
    // gating attribute sat on an ancestor.
    for (ix, slot) in enclosing.iter().enumerate() {
        if scopes.get(*slot).is_some_and(|s| s.test) {
            test_mask[ix] = true;
        }
    }

    ScopeTree {
        scopes,
        enclosing,
        test_mask,
    }
}

impl ScopeTree {
    /// Innermost scope containing token `i` (root when out of range).
    pub fn scope_of(&self, i: usize) -> &Scope {
        let ix = self.enclosing.get(i).copied().unwrap_or(0);
        self.scopes.get(ix).unwrap_or(&self.scopes[0])
    }

    /// Innermost enclosing `fn` or closure scope of token `i`, if any.
    pub fn enclosing_fn(&self, i: usize) -> Option<&Scope> {
        let mut ix = self.enclosing.get(i).copied().unwrap_or(0);
        loop {
            let s = self.scopes.get(ix)?;
            if matches!(s.kind, ScopeKind::Fn | ScopeKind::Closure) {
                return Some(s);
            }
            ix = s.parent?;
        }
    }

    /// Iterate scopes of a given kind.
    pub fn of_kind(&self, kind: ScopeKind) -> impl Iterator<Item = &Scope> {
        self.scopes.iter().filter(move |s| s.kind == kind)
    }

    /// Render the tree as indented text — one line per scope with kind,
    /// name, token span, line span, and flags. The format is pinned
    /// byte-exact against a real workspace file in the fixture tests, so
    /// treat changes as breaking.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(0, 0, &mut out);
        out
    }

    fn render_node(&self, ix: usize, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let Some(s) = self.scopes.get(ix) else { return };
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(out, "{}", s.kind.label());
        if let Some(name) = &s.name {
            let _ = write!(out, " {name}");
        }
        let _ = write!(out, " @{}:{} tok[{}..{}]", s.line, s.col, s.open, s.close);
        if s.test {
            out.push_str(" test");
        }
        out.push('\n');
        for child in &s.children {
            self.render_node(*child, depth + 1, out);
        }
    }
}

fn tok_text(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).map(|t| t.text.as_str())
}

fn is_attr_open(toks: &[Tok], i: usize) -> bool {
    match tok_text(toks, i + 1) {
        Some("[") => true,
        Some("!") => tok_text(toks, i + 2) == Some("["),
        _ => false,
    }
}

/// Index of the `]` matching the `[` at `open`.
fn matching_square(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether the attribute body gates the following item to test builds:
/// it mentions `test` without a `not(…)` or `cfg_attr` wrapper.
fn attr_gates_tests(body: &[Tok]) -> bool {
    let mut saw_test = false;
    for t in body {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "cfg_attr" | "not" => return false,
            "test" => saw_test = true,
            _ => {}
        }
    }
    saw_test
}

/// First identifier of the implemented type/trait, skipping the generic
/// parameter list (`impl<V> PrefixTrie<V>` → `PrefixTrie`).
fn impl_name(toks: &[Tok], mut i: usize) -> Option<String> {
    if tok_text(toks, i) == Some("<") {
        let mut depth = 0i32;
        while let Some(t) = toks.get(i) {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

/// If the `|` at `i` opens a closure parameter list whose body is a
/// braced block, return the index of that `{`.
fn closure_body_brace(toks: &[Tok], i: usize) -> Option<usize> {
    // Expression position: a `|` after an expression end is bitwise-or
    // (or a pattern alternative), not a closure.
    if i > 0 && ends_expression(&toks[i - 1]) {
        return None;
    }
    // Scan for the closing `|` of the parameter list at bracket depth 0.
    let mut depth = 0i32;
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                "|" if depth == 0 => {
                    return (tok_text(toks, j + 1) == Some("{")).then_some(j + 1);
                }
                ";" | "{" => return None, // ran off the statement
                _ => {}
            }
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> ScopeTree {
        build(&lex(src))
    }

    fn kinds(t: &ScopeTree) -> Vec<(ScopeKind, Option<String>)> {
        t.scopes.iter().map(|s| (s.kind, s.name.clone())).collect()
    }

    #[test]
    fn fn_impl_mod_scopes_are_classified() {
        let t = tree("mod m { impl<V> Foo<V> { fn bar(&self) { let x = 1; } } }");
        let ks = kinds(&t);
        assert_eq!(ks[0], (ScopeKind::Root, None));
        assert_eq!(ks[1], (ScopeKind::Mod, Some("m".into())));
        assert_eq!(ks[2], (ScopeKind::Impl, Some("Foo".into())));
        assert_eq!(ks[3], (ScopeKind::Fn, Some("bar".into())));
        // Nesting: root -> mod -> impl -> fn.
        assert_eq!(t.scopes[3].parent, Some(2));
        assert_eq!(t.scopes[2].parent, Some(1));
    }

    #[test]
    fn braces_are_matched_exactly() {
        let t = tree("fn a() { if x { y(); } else { z(); } } fn b() {}");
        let fns: Vec<_> = t.of_kind(ScopeKind::Fn).collect();
        assert_eq!(fns.len(), 2);
        let a = fns[0];
        let blocks: Vec<_> = t.of_kind(ScopeKind::Block).collect();
        assert_eq!(blocks.len(), 2, "if and else blocks");
        assert!(blocks.iter().all(|b| b.open > a.open && b.close < a.close));
    }

    #[test]
    fn unsafe_block_and_unsafe_fn() {
        let t = tree("unsafe fn f() { unsafe { g(); } } unsafe impl Send for X {}");
        assert!(t.of_kind(ScopeKind::Fn).next().is_some(), "fn scope");
        let b = t.of_kind(ScopeKind::Block).next().expect("unsafe block");
        assert_eq!(b.parent, Some(1));
        let im = t.of_kind(ScopeKind::Impl).next().expect("impl scope");
        assert_eq!(im.name.as_deref(), Some("Send"));
    }

    #[test]
    fn cfg_test_marks_scopes_structurally() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let t = tree(src);
        let live = t.of_kind(ScopeKind::Fn).next().expect("live fn");
        assert!(!live.test);
        let m = t.of_kind(ScopeKind::Mod).next().expect("tests mod");
        assert!(m.test);
        let helper = t.of_kind(ScopeKind::Fn).nth(1).expect("helper fn");
        assert!(helper.test, "scopes inside a gated item inherit test");
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let t = tree("#[cfg(not(test))]\nfn live() { body(); }");
        assert!(!t.of_kind(ScopeKind::Fn).next().expect("fn").test);
        assert!(t.test_mask.iter().all(|m| !m));
    }

    #[test]
    fn braceless_gated_items_mask_to_semicolon() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() {}";
        let t = tree(src);
        let lexed = lex(src);
        // Every token through the `;` is masked; `fn live` is not.
        let semi = lexed
            .tokens
            .iter()
            .position(|t| t.text == ";")
            .expect("semicolon");
        assert!(t.test_mask[..=semi].iter().all(|m| *m));
        assert!(t.test_mask[semi + 1..].iter().all(|m| !m));
    }

    #[test]
    fn closures_with_braced_bodies_get_scopes() {
        let t = tree("fn f() { run(|x| { x + 1 }); let g = || { 2 }; let h = |a, b| a | b; }");
        let closures: Vec<_> = t.of_kind(ScopeKind::Closure).collect();
        assert_eq!(closures.len(), 2, "expression-bodied closure has no scope");
    }

    #[test]
    fn bitwise_or_is_not_a_closure() {
        let t = tree("fn f(a: u32, b: u32) -> u32 { a | b }");
        assert_eq!(t.of_kind(ScopeKind::Closure).count(), 0);
    }

    #[test]
    fn braces_in_literals_do_not_break_matching() {
        let src = "fn f() { let a = \"} { }\"; let b = '{'; let c = r#\"{{{\"#; }";
        let t = tree(src);
        let f = t.of_kind(ScopeKind::Fn).next().expect("fn scope");
        let lexed = lex(src);
        assert_eq!(
            f.close,
            lexed.tokens.len() - 1,
            "body closes at the real brace"
        );
        assert_eq!(t.scopes.len(), 2, "root + fn only");
    }

    #[test]
    fn trait_method_declarations_do_not_leak_pending_fn() {
        let t = tree("trait T { fn a(&self); fn b(&self) { default(); } }");
        let fns: Vec<_> = t.of_kind(ScopeKind::Fn).collect();
        assert_eq!(fns.len(), 1, "only the defaulted method has a body scope");
        assert_eq!(fns[0].name.as_deref(), Some("b"));
    }

    #[test]
    fn array_type_semicolons_do_not_cancel_pending() {
        let t = tree("fn f(x: [u8; 4]) { body(); }");
        let fns: Vec<_> = t.of_kind(ScopeKind::Fn).collect();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name.as_deref(), Some("f"));
    }

    #[test]
    fn enclosing_fn_walks_up_through_blocks() {
        let src = "fn outer() { if a { inner_call(); } }";
        let t = tree(src);
        let lexed = lex(src);
        let call = lexed
            .tokens
            .iter()
            .position(|t| t.text == "inner_call")
            .expect("call token");
        let f = t.enclosing_fn(call).expect("enclosing fn");
        assert_eq!(f.name.as_deref(), Some("outer"));
    }

    #[test]
    fn unbalanced_braces_close_at_eof() {
        let t = tree("fn f() { let x = 1;");
        let f = t.of_kind(ScopeKind::Fn).next().expect("fn scope");
        assert_eq!(f.close, lex("fn f() { let x = 1;").tokens.len());
    }

    #[test]
    fn render_is_stable() {
        let t = tree("fn f() { g(); }\n#[cfg(test)]\nmod tests { fn t() {} }\n");
        assert_eq!(
            t.render(),
            "root @1:1 tok[0..27]\n  fn f @1:1 tok[4..9]\n  mod tests @3:1 tok[19..26] test\n    fn t @3:13 tok[24..25] test\n"
        );
    }
}
