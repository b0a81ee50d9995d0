//! A minimal Rust lexer: just enough token structure for invariant rules.
//!
//! This is deliberately not a real Rust front-end. The rule passes behind
//! [`crate::lint_source`] only need four things from the source text:
//!
//! 1. identifiers and punctuation with their line numbers,
//! 2. string/char literal *contents* kept out of the identifier stream (so a
//!    log message mentioning `partial_cmp` never fires R1),
//! 3. comments stripped from the token stream but preserved separately (so
//!    R8 can find the `// SAFETY:` comment above an `unsafe` block),
//! 4. correct handling of raw strings and nested block comments, the two
//!    constructs that break naive regex-based scanners.
//!
//! Everything else — generics vs. shifts, lifetimes vs. chars, numeric
//! suffixes — is resolved only far enough to not corrupt the stream.

/// What a token is, with only as much payload as the rules need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `fn`, `partial_cmp`, ...).
    Ident(String),
    /// String, raw-string, byte-string or char literal; payload is the raw
    /// content between the delimiters (escapes left unprocessed).
    Str(String),
    /// Numeric literal (payload unused by rules; kept for debuggability).
    Num(String),
    /// Any single non-ident, non-literal character (`.`, `(`, `{`, `#`, ...).
    Punct(char),
}

/// One token plus the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// The token's kind and payload.
    pub kind: TokKind,
}

/// One comment (line or block), stripped from the token stream.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based source line the comment starts on.
    pub line: u32,
    /// Comment body without the `//` / `/*` delimiters, trimmed.
    pub text: String,
}

/// Lexes `src` into (tokens, comments). Never fails: unterminated literals
/// simply run to end of input, which is the right degraded behaviour for a
/// linter (the compiler will reject the file anyway).
pub fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    // Counts newlines in b[from..to] into `line`.
    let count_lines = |b: &[u8], from: usize, to: usize, line: &mut u32| {
        *line += b[from..to].iter().filter(|&&c| c == b'\n').count() as u32;
    };

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                comments.push(Comment {
                    line,
                    text: src[start..j].trim_matches('/').trim().to_string(),
                });
                i = j;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1u32;
                let mut j = start;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        if b[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                comments.push(Comment {
                    line: start_line,
                    text: src[start..end].trim_matches('*').trim().to_string(),
                });
                i = j;
            }
            b'"' => {
                let (content, j) = scan_string(src, i + 1);
                count_lines(b, i, j, &mut line);
                toks.push(Token {
                    line,
                    kind: TokKind::Str(content),
                });
                i = j;
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let next = b.get(i + 1).copied();
                let after = b.get(i + 2).copied();
                let is_lifetime = matches!(next, Some(n) if n == b'_' || n.is_ascii_alphabetic())
                    && after != Some(b'\'');
                if is_lifetime {
                    let mut j = i + 1;
                    while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                        j += 1;
                    }
                    i = j; // lifetimes carry no rule signal; drop them
                } else {
                    let (content, j) = scan_char(src, i + 1);
                    count_lines(b, i, j, &mut line);
                    toks.push(Token {
                        line,
                        kind: TokKind::Str(content),
                    });
                    i = j;
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                // Raw / byte string prefixes first: r", r#", b", br", rb is not rust.
                if let Some((content, j)) = scan_raw_or_byte_string(src, i) {
                    let start_line = line;
                    count_lines(b, i, j, &mut line);
                    toks.push(Token {
                        line: start_line,
                        kind: TokKind::Str(content),
                    });
                    i = j;
                    continue;
                }
                let mut j = i + 1;
                while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                toks.push(Token {
                    line,
                    kind: TokKind::Ident(src[i..j].to_string()),
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                let mut seen_dot = false;
                while j < b.len() {
                    let d = b[j];
                    if d == b'_' || d.is_ascii_alphanumeric() {
                        j += 1;
                    } else if d == b'.'
                        && !seen_dot
                        && b.get(j + 1).is_some_and(|n| n.is_ascii_digit())
                    {
                        // `1.5` consumes the dot; `0..n` leaves `..` alone.
                        seen_dot = true;
                        j += 1;
                    } else {
                        break;
                    }
                }
                toks.push(Token {
                    line,
                    kind: TokKind::Num(src[i..j].to_string()),
                });
                i = j;
            }
            c => {
                toks.push(Token {
                    line,
                    kind: TokKind::Punct(c as char),
                });
                i += 1;
            }
        }
    }
    (toks, comments)
}

/// Scans a cooked string body starting just after the opening quote; returns
/// (content, index past the closing quote).
fn scan_string(src: &str, start: usize) -> (String, usize) {
    let b = src.as_bytes();
    let mut j = start;
    while j < b.len() {
        match b[j] {
            b'\\' => j = (j + 2).min(b.len()),
            b'"' => return (src[start..j].to_string(), j + 1),
            _ => j += 1,
        }
    }
    (src[start..].to_string(), b.len())
}

/// Scans a char literal body starting just after the opening quote.
fn scan_char(src: &str, start: usize) -> (String, usize) {
    let b = src.as_bytes();
    let mut j = start;
    while j < b.len() {
        match b[j] {
            b'\\' => j = (j + 2).min(b.len()),
            b'\'' => return (src[start..j].to_string(), j + 1),
            b'\n' => break, // stray quote, not a literal; bail at line end
            _ => j += 1,
        }
    }
    (src[start..j].to_string(), j)
}

/// Recognises `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#` starting at `i`
/// (which points at the `r` / `b`). Returns (content, end index) or None if
/// this is an ordinary identifier.
fn scan_raw_or_byte_string(src: &str, i: usize) -> Option<(String, usize)> {
    let b = src.as_bytes();
    let mut j = i;
    let mut raw = false;
    match b[j] {
        b'r' => {
            raw = true;
            j += 1;
        }
        b'b' => {
            j += 1;
            if b.get(j) == Some(&b'r') {
                raw = true;
                j += 1;
            }
        }
        _ => return None,
    }
    if raw {
        let mut hashes = 0usize;
        while b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if b.get(j) != Some(&b'"') {
            return None;
        }
        j += 1;
        let body_start = j;
        let closer: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        while j < b.len() {
            if b[j..].starts_with(&closer) {
                return Some((src[body_start..j].to_string(), j + closer.len()));
            }
            j += 1;
        }
        Some((src[body_start..].to_string(), b.len()))
    } else {
        // Plain byte string `b"..."`.
        if b.get(j) != Some(&b'"') {
            return None;
        }
        let (content, end) = scan_string(src, j + 1);
        Some((content, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // partial_cmp in a comment
            /* nested /* partial_cmp */ still comment */
            let msg = "partial_cmp in a string";
            let raw = r#"partial_cmp raw"#;
            let real = a.total_cmp(&b);
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "partial_cmp"), "{ids:?}");
        assert!(ids.iter().any(|s| s == "total_cmp"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let (toks, _) = lex(src);
        let strs: Vec<_> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Str(_)))
            .collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].kind, TokKind::Str("x".into()));
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "let a = \"x\ny\";\nfn g() {}\n";
        let (toks, _) = lex(src);
        let g = toks
            .iter()
            .find(|t| t.kind == TokKind::Ident("g".into()))
            .expect("token g present");
        assert_eq!(g.line, 3);
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let src = "let a = 1;\n// SAFETY: fixture\nlet b = 2;\n";
        let (_, comments) = lex(src);
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].line, 2);
        assert_eq!(comments[0].text, "SAFETY: fixture");
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let src = "for i in 0..n { let x = 1.5; }";
        let (toks, _) = lex(src);
        let dots = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct('.'))
            .count();
        assert_eq!(dots, 2, "both range dots survive, float dot is consumed");
    }
}
