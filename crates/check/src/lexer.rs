//! A minimal token-level Rust lexer.
//!
//! `marconi-check`'s contract rules are *lexical*: they match token
//! patterns like `. expect (` or `struct FooTicket`, so a full parse (syn)
//! is unnecessary — and unavailable offline. The lexer therefore only has
//! to get the hard lexical cases right, because a mis-lexed string or
//! comment would produce false findings:
//!
//! * line (`//`) and nested block (`/* /* */ */`) comments, kept separately
//!   as [`Comment`]s so waiver annotations can be recognized;
//! * string, raw-string (`r#"…"#`), byte-string, char, and byte literals
//!   (`'a'` vs lifetime `'a` disambiguation included);
//! * raw identifiers (`r#type`).
//!
//! Everything else degrades gracefully: numbers are lexed loosely and
//! multi-character operators come out as single-character [`TokKind::Punct`]
//! tokens, which is exactly what sequence matching wants (`::` is `:`,`:`).

/// The coarse token classes the lint rules match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (rules match keywords by text).
    Ident,
    /// Lifetime such as `'a` (quote included in the text).
    Lifetime,
    /// String literal of any flavor; [`Tok::text`] holds the *content*
    /// between the quotes, so prefix rules can match messages directly.
    Str,
    /// Character or byte literal.
    Char,
    /// Numeric literal.
    Num,
    /// A single punctuation character.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Token text (for [`TokKind::Str`], the content between the quotes).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// `true` if this is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// `true` if this is the identifier/keyword `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// A comment, carried out-of-band so rules see an uninterrupted token
/// stream but waiver annotations (`// check:allow(rule): reason`) can
/// still be found by line.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Full comment text including the `//` / `/*` markers.
    pub text: String,
}

/// Lexer output: the token stream plus all comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order, comments and whitespace stripped.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Lexes `src` into tokens and comments. Never fails: unterminated
/// literals simply run to end-of-file, which is good enough for linting
/// (the compiler rejects such files anyway).
#[must_use]
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! push {
        ($kind:expr, $text:expr, $line:expr) => {
            out.toks.push(Tok {
                kind: $kind,
                text: $text,
                line: $line,
            })
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: src[start..i].to_owned(),
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let (start, start_line) = (i, line);
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    text: src[start..i].to_owned(),
                });
            }
            b'"' => {
                let (content, nl, end) = lex_string(src, i + 1);
                push!(TokKind::Str, content, line);
                line += nl;
                i = end;
            }
            b'\'' => {
                // Lifetime vs char literal: `'a` / `'static` vs `'a'`,
                // `'\n'`, `'\u{1F600}'`.
                if b.get(i + 1).copied().is_some_and(is_ident_start) && b.get(i + 2) != Some(&b'\'')
                {
                    let start = i;
                    i += 1;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    push!(TokKind::Lifetime, src[start..i].to_owned(), line);
                } else {
                    let start = i;
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    push!(TokKind::Char, src[start..i].to_owned(), line);
                }
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let word = &src[start..i];
                // Literal prefixes and raw identifiers.
                match (word, b.get(i).copied()) {
                    ("r" | "br", Some(b'"' | b'#')) => {
                        if word == "r" && b.get(i) == Some(&b'#') && {
                            // Distinguish r#"raw str"# from r#ident.
                            let mut j = i;
                            while b.get(j) == Some(&b'#') {
                                j += 1;
                            }
                            b.get(j) != Some(&b'"')
                        } {
                            // Raw identifier r#ident.
                            i += 1; // the '#'
                            let id_start = i;
                            while i < b.len() && is_ident_continue(b[i]) {
                                i += 1;
                            }
                            push!(TokKind::Ident, src[id_start..i].to_owned(), line);
                        } else {
                            let (content, nl, end) = lex_raw_string(src, i);
                            push!(TokKind::Str, content, line);
                            line += nl;
                            i = end;
                        }
                    }
                    ("b", Some(b'"')) => {
                        let (content, nl, end) = lex_string(src, i + 1);
                        push!(TokKind::Str, content, line);
                        line += nl;
                        i = end;
                    }
                    ("b", Some(b'\'')) => {
                        i += 1;
                        let start = i;
                        while i < b.len() {
                            match b[i] {
                                b'\\' => i += 2,
                                b'\'' => {
                                    i += 1;
                                    break;
                                }
                                _ => i += 1,
                            }
                        }
                        push!(TokKind::Char, src[start..i].to_owned(), line);
                    }
                    _ => push!(TokKind::Ident, word.to_owned(), line),
                }
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                let mut seen_dot = false;
                while i < b.len() {
                    if is_ident_continue(b[i]) {
                        i += 1;
                    } else if b[i] == b'.'
                        && !seen_dot
                        && b.get(i + 1).copied().is_some_and(|d| d.is_ascii_digit())
                    {
                        // `1.5` but not the range `0..4` or method `1.pow()`.
                        seen_dot = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                push!(TokKind::Num, src[start..i].to_owned(), line);
            }
            _ => {
                push!(TokKind::Punct, src[i..i + 1].to_owned(), line);
                i += 1;
            }
        }
    }
    out
}

/// Lexes a plain (escaped) string starting just after the opening quote;
/// returns (content, newlines crossed, index after the closing quote).
fn lex_string(src: &str, mut i: usize) -> (String, u32, usize) {
    let b = src.as_bytes();
    let start = i;
    let mut nl = 0u32;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => {
                return (src[start..i].to_owned(), nl, i + 1);
            }
            b'\n' => {
                nl += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (src[start..i].to_owned(), nl, i)
}

/// Lexes a raw string starting at the `#`s or quote (after the `r`/`br`
/// prefix); returns (content, newlines crossed, index past the close).
fn lex_raw_string(src: &str, mut i: usize) -> (String, u32, usize) {
    let b = src.as_bytes();
    let mut hashes = 0usize;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(b.get(i), Some(&b'"'), "raw string must open with a quote");
    i += 1;
    let start = i;
    let mut nl = 0u32;
    while i < b.len() {
        if b[i] == b'"' {
            let mut j = i + 1;
            let mut h = 0usize;
            while h < hashes && b.get(j) == Some(&b'#') {
                h += 1;
                j += 1;
            }
            if h == hashes {
                return (src[start..i].to_owned(), nl, j);
            }
            i += 1;
        } else {
            if b[i] == b'\n' {
                nl += 1;
            }
            i += 1;
        }
    }
    (src[start..i].to_owned(), nl, i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn comments_are_stripped_and_kept() {
        let l = lex("a // line\n/* block /* nested */ */ b");
        assert_eq!(l.toks.len(), 2);
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.toks[1].text, "b");
        assert_eq!(l.toks[1].line, 2);
    }

    #[test]
    fn strings_hide_their_content_from_the_token_stream() {
        let l = lex(r#"x(".unwrap() Instant") "#);
        assert!(l.toks.iter().all(|t| t.text != "unwrap"));
        assert_eq!(l.toks[2].kind, TokKind::Str);
        assert_eq!(l.toks[2].text, ".unwrap() Instant");
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let l = lex(r##"let s = r#"quote " inside"#; let r#type = 1;"##);
        let strs: Vec<_> = l.toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "quote \" inside");
        assert!(l.toks.iter().any(|t| t.is_ident("type")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; }");
        let lifetimes = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = l.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let k = kinds("0..4 1.5 0x_ff 1e-3");
        assert_eq!(k[0], (TokKind::Num, "0".into()));
        assert_eq!(k[1], (TokKind::Punct, ".".into()));
        assert_eq!(k[2], (TokKind::Punct, ".".into()));
        assert_eq!(k[3], (TokKind::Num, "4".into()));
        assert_eq!(k[4], (TokKind::Num, "1.5".into()));
        assert_eq!(k[5], (TokKind::Num, "0x_ff".into()));
    }

    #[test]
    fn byte_literals() {
        let l = lex(r#"let a = b"bytes"; let c = b'x';"#);
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "bytes"));
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Char));
    }
}
