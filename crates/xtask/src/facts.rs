//! Intra-function fact extraction over the scope tree.
//!
//! Where [`crate::scope`] answers "what region am I in", this pass
//! answers "what is live here": which lock guards a statement holds and
//! which in-file functions return `Result`. The RG011 and RG012 rules
//! consume these facts instead of re-deriving them token by token.
//!
//! All of it is deliberately intra-file: the engine has no crate graph,
//! so a fact is only recorded when the evidence is in the same source
//! file. That keeps every rule's false-positive story auditable — a
//! guard binding is a `let` whose right-hand side calls `.lock()` /
//! `.read()` / `.write()` with no arguments, a fallible callee is a
//! `fn` declared in this file with `Result` in its return type, and so
//! on. Cross-file helpers (e.g. a free function that returns a
//! `MutexGuard`) are out of scope by design and documented in
//! CONTRIBUTING.md.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::scope::ScopeTree;

/// A live lock-guard binding: `let g = m.lock()…;`, `if let Ok(g) =
/// m.lock()`, `let Ok(g) = m.lock() else { … };`.
#[derive(Debug, Clone)]
pub struct GuardBinding {
    /// The bound variable name.
    pub name: String,
    /// Acquisition method: `lock`, `read`, or `write`.
    pub method: String,
    /// 1-based line of the binding.
    pub line: u32,
    /// 1-based column of the binding.
    pub col: u32,
    /// Token index of the `let` keyword.
    pub binding_tok: usize,
    /// First token index at which the guard is live.
    pub start: usize,
    /// Token index at which liveness ends: the enclosing scope's `}`,
    /// or an explicit `drop(name)` call.
    pub end: usize,
}

/// The extracted facts for one file.
#[derive(Debug, Default)]
pub struct Facts {
    /// Live lock-guard bindings with their liveness ranges.
    pub guards: Vec<GuardBinding>,
    /// Names of functions declared in this file whose return type
    /// mentions `Result`.
    pub fallible_fns: Vec<String>,
}

/// Methods whose no-argument call form acquires a lock guard.
const GUARD_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Extract all facts for a lexed file.
pub fn build(lexed: &Lexed, tree: &ScopeTree) -> Facts {
    let toks = &lexed.tokens;
    let mut facts = Facts {
        guards: Vec::new(),
        fallible_fns: fallible_fns(toks),
    };
    collect_guards(toks, tree, &mut facts.guards);
    facts
}

/// Names of `fn`s declared in the file whose return type mentions
/// `Result` (covers `io::Result<T>` and aliases spelled `Result`).
fn fallible_fns(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let mut saw_arrow = false;
        let mut fallible = false;
        let mut depth = 0i32;
        for t in toks.iter().skip(i + 2) {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "(" | "[") => depth += 1,
                (TokKind::Punct, ")" | "]") => depth -= 1,
                (TokKind::Punct, "->") if depth == 0 => saw_arrow = true,
                (TokKind::Punct, "{" | ";") if depth == 0 => break,
                (TokKind::Ident, "Result") if saw_arrow => fallible = true,
                _ => {}
            }
        }
        if fallible && !out.contains(&name.text) {
            out.push(name.text.clone());
        }
    }
    out
}

/// Collect guard bindings with liveness ranges.
fn collect_guards(toks: &[Tok], tree: &ScopeTree, out: &mut Vec<GuardBinding>) {
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "let") {
            continue;
        }
        // `if let` / `while let` bind into the *following block* rather
        // than the rest of the current scope.
        let block_form = i > 0
            && toks[i - 1].kind == TokKind::Ident
            && matches!(toks[i - 1].text.as_str(), "if" | "while");

        let Some((name, after_pat)) = binding_name(toks, i + 1) else {
            continue;
        };
        // Find the `=` introducing the right-hand side.
        let Some(eq) = (after_pat..toks.len().min(after_pat + 12))
            .find(|&j| toks[j].kind == TokKind::Punct && toks[j].text == "=")
        else {
            continue;
        };
        // Scan the RHS for a no-argument `.lock()` / `.read()` /
        // `.write()` up to the statement terminator.
        let term = if block_form { "{" } else { ";" };
        let mut depth = 0i32;
        let mut method: Option<&str> = None;
        let mut term_ix = None;
        let mut j = eq + 1;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" if !(depth == 0 && t.text == term) => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    _ => {}
                }
                if t.text == term && depth == 0 {
                    term_ix = Some(j);
                    break;
                }
            }
            if t.text == "."
                && toks.get(j + 1).is_some_and(|m| {
                    m.kind == TokKind::Ident && GUARD_METHODS.contains(&m.text.as_str())
                })
                && tok_text(toks, j + 2) == Some("(")
                && tok_text(toks, j + 3) == Some(")")
            {
                method = Some(match toks[j + 1].text.as_str() {
                    "lock" => "lock",
                    "read" => "read",
                    _ => "write",
                });
            }
            j += 1;
        }
        let (Some(method), Some(term_ix)) = (method, term_ix) else {
            continue;
        };
        if name == "_" {
            continue; // dropped immediately, never live
        }

        let (start, mut end) = if block_form {
            // Liveness is exactly the block the pattern guards.
            match tree.scopes.iter().find(|s| s.open == term_ix) {
                Some(s) => (s.open, s.close),
                None => (term_ix, toks.len()),
            }
        } else {
            (term_ix + 1, tree.scope_of(i).close)
        };
        // An explicit `drop(name)` ends liveness early.
        for k in start..end.min(toks.len()) {
            if toks[k].kind == TokKind::Ident
                && toks[k].text == "drop"
                && tok_text(toks, k + 1) == Some("(")
                && toks.get(k + 2).is_some_and(|t| t.text == name)
                && tok_text(toks, k + 3) == Some(")")
            {
                end = k;
                break;
            }
        }
        out.push(GuardBinding {
            name: name.to_string(),
            method: method.to_string(),
            line: toks[i].line,
            col: toks[i].col,
            binding_tok: i,
            start,
            end,
        });
    }
}

/// The identifier bound by the pattern starting at `j`, plus the index
/// just past the pattern. Handles `name`, `mut name`, `Ok(name)` /
/// `Some(name)` (with optional `mut`). Tuple and struct patterns return
/// `None` — no workspace guard uses them.
fn binding_name(toks: &[Tok], mut j: usize) -> Option<(&str, usize)> {
    if tok_text(toks, j) == Some("mut") {
        j += 1;
    }
    let head = toks.get(j)?;
    if head.kind != TokKind::Ident {
        return None;
    }
    if matches!(head.text.as_str(), "Ok" | "Some") && tok_text(toks, j + 1) == Some("(") {
        let mut k = j + 2;
        if tok_text(toks, k) == Some("mut") {
            k += 1;
        }
        let inner = toks.get(k)?;
        if inner.kind == TokKind::Ident && tok_text(toks, k + 1) == Some(")") {
            return Some((&inner.text, k + 2));
        }
        return None;
    }
    Some((&head.text, j + 1))
}

fn tok_text(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).map(|t| t.text.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope;

    fn facts(src: &str) -> Facts {
        let lexed = lex(src);
        let tree = scope::build(&lexed);
        build(&lexed, &tree)
    }

    #[test]
    fn plain_let_guard_is_live_to_scope_end() {
        let src = "fn f(&self) { let mut cache = self.m.lock().unwrap(); cache.insert(1); }";
        let fs = facts(src);
        assert_eq!(fs.guards.len(), 1);
        let g = &fs.guards[0];
        assert_eq!((g.name.as_str(), g.method.as_str()), ("cache", "lock"));
        let toks = lex(src).tokens;
        assert_eq!(toks[g.end].text, "}", "live to the fn close");
    }

    #[test]
    fn match_rhs_guard_is_detected() {
        let src = "fn f(&self) { let mut c = match self.m.lock() { Ok(g) => g, Err(p) => p.into_inner(), }; c.get(&k); }";
        let fs = facts(src);
        assert_eq!(fs.guards.len(), 1);
        assert_eq!(fs.guards[0].name, "c");
    }

    #[test]
    fn if_let_guard_is_live_only_in_its_block() {
        let src = "fn f(&self) { if let Ok(st) = self.m.lock() { st.push(1); } after(); }";
        let fs = facts(src);
        assert_eq!(fs.guards.len(), 1);
        let g = &fs.guards[0];
        let toks = lex(src).tokens;
        let after = toks.iter().position(|t| t.text == "after").expect("after");
        assert!(g.end < after, "guard dies with the if-let block");
    }

    #[test]
    fn let_else_guard_binds_rest_of_scope() {
        let src = "fn f(&self) { let Ok(guard) = self.rx.lock() else { return }; guard.recv(); }";
        let fs = facts(src);
        assert_eq!(fs.guards.len(), 1);
        let g = &fs.guards[0];
        assert_eq!(g.name, "guard");
        let toks = lex(src).tokens;
        let recv = toks.iter().position(|t| t.text == "recv").expect("recv");
        assert!(g.start < recv && recv < g.end);
    }

    #[test]
    fn drop_ends_liveness_early() {
        let src = "fn f(&self) { let g = self.m.lock().unwrap(); g.touch(); drop(g); later(); }";
        let fs = facts(src);
        let g = &fs.guards[0];
        let toks = lex(src).tokens;
        let later = toks.iter().position(|t| t.text == "later").expect("later");
        assert!(g.end < later, "drop(g) ends the range");
    }

    #[test]
    fn rwlock_read_write_and_io_read_are_distinguished() {
        let src = "fn f(&self) { let r = self.l.read().unwrap(); let n = file.read(&mut buf); }";
        let fs = facts(src);
        assert_eq!(fs.guards.len(), 1, "read(&mut buf) takes arguments");
        assert_eq!(fs.guards[0].method, "read");
    }

    #[test]
    fn underscore_binding_is_not_live() {
        let fs = facts("fn f(&self) { let _ = self.m.lock(); }");
        assert!(fs.guards.is_empty());
    }

    #[test]
    fn fallible_fn_table_reads_return_types() {
        let src = "fn a() -> std::io::Result<()> { Ok(()) }\n\
                   fn b() -> u32 { 1 }\n\
                   fn c(x: Result<u8, E>) { }\n\
                   pub fn d() -> Result<Vec<u8>, Error> { Ok(vec![]) }\n";
        let fs = facts(src);
        assert_eq!(fs.fallible_fns, vec!["a".to_string(), "d".to_string()]);
    }
}
