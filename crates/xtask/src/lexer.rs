//! Token-level scanner for Rust source.
//!
//! The lint engine works on a token stream rather than a full AST: the
//! build environment has no `syn`, and every rule the engine enforces is
//! expressible over tokens plus light context (attribute spans, brace
//! depth, comment positions). The lexer understands everything that can
//! confuse a naive text scan — nested block comments, raw strings, byte
//! strings, char-vs-lifetime disambiguation, numeric literal shapes — so
//! the rules never fire inside string or comment text.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
    /// Integer literal (including suffixed like `3u8`).
    Int,
    /// Float literal (has `.`, an exponent, or an `f32`/`f64` suffix).
    Float,
    /// String-ish literal (`"…"`, `r#"…"#`, `b"…"`). `text` holds the
    /// unquoted inner bytes for ordinary (non-raw) strings.
    Str,
    /// Char or byte literal.
    Char,
    /// Punctuation. Multi-char operators that the rules care about
    /// (`==`, `!=`, `::`, `->`, `..`, `..=`) come through as one token.
    Punct,
}

/// One token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token.
    pub kind: TokKind,
    /// Token text. For [`TokKind::Str`] this is the *inner* text with
    /// simple escapes resolved (enough to recognise the empty string).
    pub text: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

/// One comment with its position; rules read waivers here.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Full comment text excluding the delimiters.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (equals `line` for `//` comments;
    /// block comments may span several).
    pub end_line: u32,
}

/// A fully lexed file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in order.
    pub tokens: Vec<Tok>,
    /// Comments in order.
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens and comments. Unterminated constructs never
/// panic — the lexer consumes to end-of-file and returns what it has.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed::default();

    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek_at(1) == Some('/') => lex_line_comment(&mut cur, &mut out),
            '/' if cur.peek_at(1) == Some('*') => lex_block_comment(&mut cur, &mut out),
            '"' => lex_string(&mut cur, &mut out, line, col),
            'r' if matches!(cur.peek_at(1), Some('"' | '#')) && raw_string_follows(&cur, 1) => {
                cur.bump();
                lex_raw_string(&mut cur, &mut out, line, col);
            }
            'b' if cur.peek_at(1) == Some('"') => {
                cur.bump();
                lex_string(&mut cur, &mut out, line, col);
            }
            'b' if cur.peek_at(1) == Some('\'') => {
                cur.bump();
                lex_char(&mut cur, &mut out, line, col);
            }
            'b' if cur.peek_at(1) == Some('r') && raw_string_follows(&cur, 2) => {
                cur.bump();
                cur.bump();
                lex_raw_string(&mut cur, &mut out, line, col);
            }
            '\'' => lex_char_or_lifetime(&mut cur, &mut out, line, col),
            c if is_ident_start(c) => {
                let mut text = String::new();
                while let Some(c) = cur.peek() {
                    if is_ident_continue(c) {
                        text.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                    col,
                });
            }
            c if c.is_ascii_digit() => lex_number(&mut cur, &mut out, line, col),
            _ => lex_punct(&mut cur, &mut out, line, col),
        }
    }
    out
}

/// Whether the characters after the `r` at `cur.pos + off - 1` look like a
/// raw-string opener (`r"`, `r#"`, `r##"`, …) rather than an identifier
/// like `r#keyword`.
fn raw_string_follows(cur: &Cursor, mut off: usize) -> bool {
    while cur.peek_at(off) == Some('#') {
        off += 1;
    }
    cur.peek_at(off) == Some('"')
}

fn lex_line_comment(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let mut text = String::new();
    while let Some(c) = cur.peek() {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    let body = text
        .trim_start_matches('/')
        .trim_start_matches('!')
        .to_string();
    out.comments.push(Comment {
        text: body,
        line,
        end_line: line,
    });
}

fn lex_block_comment(cur: &mut Cursor, out: &mut Lexed) {
    let line = cur.line;
    let mut text = String::new();
    cur.bump();
    cur.bump();
    let mut depth = 1u32;
    while let Some(c) = cur.peek() {
        if c == '/' && cur.peek_at(1) == Some('*') {
            depth += 1;
            cur.bump();
            cur.bump();
            text.push_str("/*");
        } else if c == '*' && cur.peek_at(1) == Some('/') {
            depth -= 1;
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
            text.push_str("*/");
        } else {
            text.push(c);
            cur.bump();
        }
    }
    out.comments.push(Comment {
        text,
        line,
        end_line: cur.line,
    });
}

fn lex_string(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    cur.bump(); // opening quote
    let mut inner = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '"' => break,
            '\\' => {
                if let Some(esc) = cur.bump() {
                    match esc {
                        'n' => inner.push('\n'),
                        't' => inner.push('\t'),
                        'r' => inner.push('\r'),
                        '0' => inner.push('\0'),
                        '\n' => {} // line continuation
                        other => inner.push(other),
                    }
                }
            }
            _ => inner.push(c),
        }
    }
    out.tokens.push(Tok {
        kind: TokKind::Str,
        text: inner,
        line,
        col,
    });
}

fn lex_raw_string(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut hashes = 0usize;
    while cur.peek() == Some('#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump(); // opening quote
    let closer: String = std::iter::once('"')
        .chain(std::iter::repeat_n('#', hashes))
        .collect();
    let mut inner = String::new();
    'outer: while let Some(c) = cur.peek() {
        if c == '"' {
            // Check for `"###...` closer of the right arity.
            for (i, want) in closer.chars().enumerate() {
                if cur.peek_at(i) != Some(want) {
                    inner.push(cur.bump().unwrap_or('"'));
                    continue 'outer;
                }
            }
            for _ in 0..closer.len() {
                cur.bump();
            }
            break;
        }
        inner.push(c);
        cur.bump();
    }
    out.tokens.push(Tok {
        kind: TokKind::Str,
        text: inner,
        line,
        col,
    });
}

fn lex_char(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    cur.bump(); // opening quote
    if cur.peek() == Some('\\') {
        cur.bump();
        cur.bump();
    } else {
        cur.bump();
    }
    if cur.peek() == Some('\'') {
        cur.bump();
    }
    out.tokens.push(Tok {
        kind: TokKind::Char,
        text: String::new(),
        line,
        col,
    });
}

fn lex_char_or_lifetime(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    // `'a'` is a char; `'a` (no closing quote right after one char) is a
    // lifetime; `'\n'` is a char.
    if cur.peek_at(1) == Some('\\') || cur.peek_at(2) == Some('\'') {
        lex_char(cur, out, line, col);
        return;
    }
    cur.bump(); // the quote
    let mut text = String::from("'");
    while let Some(c) = cur.peek() {
        if is_ident_continue(c) {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    out.tokens.push(Tok {
        kind: TokKind::Lifetime,
        text,
        line,
        col,
    });
}

fn lex_number(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    let mut is_float = false;

    let radix_prefix = cur.peek() == Some('0')
        && matches!(cur.peek_at(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'));
    if radix_prefix {
        text.push(cur.bump().unwrap_or('0'));
        text.push(cur.bump().unwrap_or('x'));
        while let Some(c) = cur.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
    } else {
        while let Some(c) = cur.peek() {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
        // Fractional part: a dot followed by a digit (so `0..10` stays
        // two ints and a range operator).
        if cur.peek() == Some('.') && cur.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            text.push('.');
            cur.bump();
            while let Some(c) = cur.peek() {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
        // Exponent.
        if matches!(cur.peek(), Some('e' | 'E'))
            && (cur.peek_at(1).is_some_and(|c| c.is_ascii_digit())
                || (matches!(cur.peek_at(1), Some('+' | '-'))
                    && cur.peek_at(2).is_some_and(|c| c.is_ascii_digit())))
        {
            is_float = true;
            text.push(cur.bump().unwrap_or('e'));
            if matches!(cur.peek(), Some('+' | '-')) {
                text.push(cur.bump().unwrap_or('+'));
            }
            while let Some(c) = cur.peek() {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
        // Suffix (`u8`, `f64`, …).
        let mut suffix = String::new();
        while let Some(c) = cur.peek() {
            if is_ident_continue(c) {
                suffix.push(c);
                cur.bump();
            } else {
                break;
            }
        }
        if suffix == "f32" || suffix == "f64" {
            is_float = true;
        }
        text.push_str(&suffix);
    }

    out.tokens.push(Tok {
        kind: if is_float {
            TokKind::Float
        } else {
            TokKind::Int
        },
        text,
        line,
        col,
    });
}

fn lex_punct(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let c = cur.bump().unwrap_or(' ');
    let mut text = String::from(c);
    // Join the few multi-char operators the rules inspect, so `!=` never
    // looks like a macro bang and `..` never looks like member access.
    let joined = matches!(
        (c, cur.peek()),
        ('=', Some('=') | Some('>'))
            | ('!' | '<' | '>', Some('='))
            | (':', Some(':'))
            | ('-', Some('>'))
            | ('.', Some('.'))
    );
    if joined {
        if let Some(n) = cur.bump() {
            text.push(n);
        }
        if text == ".." && cur.peek() == Some('=') {
            text.push('=');
            cur.bump();
        }
    }
    out.tokens.push(Tok {
        kind: TokKind::Punct,
        text,
        line,
        col,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn ranges_are_not_floats() {
        let ks = kinds("0..10 0.5..0.9 1..=9u32");
        assert_eq!(ks[0], (TokKind::Int, "0".into()));
        assert_eq!(ks[1], (TokKind::Punct, "..".into()));
        assert_eq!(ks[2], (TokKind::Int, "10".into()));
        assert_eq!(ks[3], (TokKind::Float, "0.5".into()));
        assert_eq!(ks[5], (TokKind::Float, "0.9".into()));
        assert_eq!(ks[7], (TokKind::Punct, "..=".into()));
        assert_eq!(ks[8], (TokKind::Int, "9u32".into()));
    }

    #[test]
    fn floats_by_suffix_and_exponent() {
        let ks = kinds("1e6 2f64 0x1E 3.0");
        assert_eq!(ks[0].0, TokKind::Float);
        assert_eq!(ks[1].0, TokKind::Float);
        assert_eq!(ks[2].0, TokKind::Int);
        assert_eq!(ks[3].0, TokKind::Float);
    }

    #[test]
    fn strings_and_rules_inside_them_are_inert() {
        let lexed = lex(r#"let s = "a.unwrap() // not a comment";"#);
        assert_eq!(lexed.comments.len(), 0);
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("unwrap"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let lexed = lex(r###"let s = r#"has "quotes" inside"#;"###);
        let s = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("string token");
        assert_eq!(s.text, r#"has "quotes" inside"#);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let ks = kinds("'a 'x' '\\n' 'static");
        assert_eq!(ks[0].0, TokKind::Lifetime);
        assert_eq!(ks[1].0, TokKind::Char);
        assert_eq!(ks[2].0, TokKind::Char);
        assert_eq!(ks[3].0, TokKind::Lifetime);
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* outer /* inner */ still */ /// doc line\nfn x() {}");
        assert_eq!(lexed.comments.len(), 2);
    }

    #[test]
    fn comment_end_lines_span_blocks() {
        let lexed = lex("/* one\n   two\n   three */ x // tail\n");
        assert_eq!((lexed.comments[0].line, lexed.comments[0].end_line), (1, 3));
        assert_eq!((lexed.comments[1].line, lexed.comments[1].end_line), (3, 3));
    }

    #[test]
    fn positions_are_one_based() {
        let lexed = lex("a\n  b");
        assert_eq!((lexed.tokens[0].line, lexed.tokens[0].col), (1, 1));
        assert_eq!((lexed.tokens[1].line, lexed.tokens[1].col), (2, 3));
    }

    #[test]
    fn equality_operators_join() {
        let ks = kinds("a == b != c ! d");
        assert_eq!(ks[1], (TokKind::Punct, "==".into()));
        assert_eq!(ks[3], (TokKind::Punct, "!=".into()));
        assert_eq!(ks[5], (TokKind::Punct, "!".into()));
    }
}
