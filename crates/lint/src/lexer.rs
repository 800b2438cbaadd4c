//! A minimal Rust tokenizer — just enough structure for the parser.
//!
//! The build environment is offline, so `syn` is unavailable; the parser
//! and the `lint:allow` reader only need identifiers, punctuation, literal
//! boundaries and comment text with accurate line/column spans, all of
//! which a hand-rolled scanner provides. String/char/raw-string literals and
//! (nested) comments are consumed as single units so their *contents* can
//! never produce false positives (`"HashMap"` in a doc string is not a
//! `HashMap` use).

/// What kind of lexeme a token is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword (`match`, `HashMap`, `as`, …).
    Ident,
    /// Punctuation. Multi-character operators the rules care about
    /// (`=>`, `::`, `->`, `..=`, `..`) are fused into one token.
    Punct,
    /// String or byte-string literal (including raw forms), one token.
    Str,
    /// Character literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One token with its source position (1-based line and column).
#[derive(Clone, Debug)]
pub struct Tok {
    /// Lexeme class.
    pub kind: TokKind,
    /// Exact source text (for `Str`/`Char` the delimiters are included).
    pub text: String,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column of the first character.
    pub col: u32,
}

/// A comment, kept separately from the token stream (the rules scan these
/// for `lint:allow` directives).
#[derive(Clone, Debug)]
pub struct Comment {
    /// Text without the `//` / `/*` delimiters.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// Tokenizer output: code tokens plus the comment side-channel.
#[derive(Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenize `src`. Unterminated literals/comments are tolerated (the rest
/// of the file is consumed as that literal) — the lexer must never panic
/// on weird input since it runs over fixture files too.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    // Advance over one char, maintaining line/col.
    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < n {
        let c = b[i];
        let (tl, tc) = (line, col);

        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }

        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i + 2;
            while i < n && b[i] != '\n' {
                bump!();
            }
            out.comments.push(Comment {
                text: b[start..i].iter().collect(),
                line: tl,
            });
            continue;
        }

        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i + 2;
            bump!();
            bump!();
            let mut depth = 1u32;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    bump!();
                    bump!();
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    bump!();
                    bump!();
                } else {
                    bump!();
                }
            }
            let end = if i >= 2 { i - 2 } else { i };
            out.comments.push(Comment {
                text: b[start..end.max(start)].iter().collect(),
                line: tl,
            });
            continue;
        }

        // Raw strings / raw byte strings / byte strings / raw identifiers.
        if c == 'r' || c == 'b' {
            // r"..."  r#"..."#  br"..."  b"..."  r#ident
            let mut j = i;
            let mut prefix = String::new();
            while j < n && (b[j] == 'r' || b[j] == 'b') && prefix.len() < 2 {
                prefix.push(b[j]);
                j += 1;
            }
            let is_raw = prefix.contains('r');
            if j < n && (b[j] == '"' || (is_raw && b[j] == '#')) {
                // Count hashes for raw strings.
                let mut hashes = 0usize;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == '"' {
                    // Consume through the matching close quote.
                    let start = i;
                    while i < j {
                        bump!();
                    }
                    bump!(); // opening quote
                    loop {
                        if i >= n {
                            break;
                        }
                        if !is_raw && b[i] == '\\' && i + 1 < n {
                            bump!();
                            bump!();
                            continue;
                        }
                        if b[i] == '"' {
                            // Check for the right number of closing hashes.
                            let mut k = i + 1;
                            let mut h = 0usize;
                            while k < n && b[k] == '#' && h < hashes {
                                h += 1;
                                k += 1;
                            }
                            if h == hashes {
                                bump!();
                                for _ in 0..hashes {
                                    bump!();
                                }
                                break;
                            }
                        }
                        bump!();
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Str,
                        text: b[start..i].iter().collect(),
                        line: tl,
                        col: tc,
                    });
                    continue;
                } else if is_raw && hashes > 0 && j < n && is_ident_start(b[j]) {
                    // Raw identifier r#match.
                    while i < j {
                        bump!();
                    }
                    let start = i;
                    while i < n && is_ident_continue(b[i]) {
                        bump!();
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Ident,
                        text: b[start..i].iter().collect(),
                        line: tl,
                        col: tc,
                    });
                    continue;
                }
                // `r #` that wasn't a raw string/ident: fall through, lex
                // `r` as an identifier below.
            }
        }

        // Plain string literal.
        if c == '"' {
            let start = i;
            bump!();
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    bump!();
                    bump!();
                    continue;
                }
                if b[i] == '"' {
                    bump!();
                    break;
                }
                bump!();
            }
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: b[start..i].iter().collect(),
                line: tl,
                col: tc,
            });
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            // 'x' or '\n' → char; 'ident (no closing quote) → lifetime.
            let is_char = (i + 1 < n && b[i + 1] == '\\') || (i + 2 < n && b[i + 2] == '\'');
            if is_char {
                let start = i;
                bump!(); // '
                if i < n && b[i] == '\\' {
                    bump!();
                }
                if i < n {
                    bump!();
                }
                if i < n && b[i] == '\'' {
                    bump!();
                }
                out.toks.push(Tok {
                    kind: TokKind::Char,
                    text: b[start..i].iter().collect(),
                    line: tl,
                    col: tc,
                });
            } else {
                let start = i;
                bump!();
                while i < n && is_ident_continue(b[i]) {
                    bump!();
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: b[start..i].iter().collect(),
                    line: tl,
                    col: tc,
                });
            }
            continue;
        }

        // Number.
        if c.is_ascii_digit() {
            let start = i;
            while i < n {
                let d = b[i];
                // `0..5` must not swallow the range dots: a `.` only
                // belongs to the number when a digit follows.
                let frac_dot = d == '.' && i + 1 < n && b[i + 1].is_ascii_digit();
                if d.is_ascii_alphanumeric() || d == '_' || frac_dot {
                    bump!();
                } else {
                    break;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                text: b[start..i].iter().collect(),
                line: tl,
                col: tc,
            });
            continue;
        }

        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                bump!();
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: b[start..i].iter().collect(),
                line: tl,
                col: tc,
            });
            continue;
        }

        // Punctuation, fusing the operators the rules inspect.
        let two: String = b[i..n.min(i + 2)].iter().collect();
        let three: String = b[i..n.min(i + 3)].iter().collect();
        let fused: &str = if three == "..=" {
            "..="
        } else if two == "=>" || two == "::" || two == ".." || two == "->" {
            match two.as_str() {
                "=>" => "=>",
                "::" => "::",
                ".." => "..",
                _ => "->",
            }
        } else {
            ""
        };
        if !fused.is_empty() {
            for _ in 0..fused.len() {
                bump!();
            }
            out.toks.push(Tok {
                kind: TokKind::Punct,
                text: fused.to_string(),
                line: tl,
                col: tc,
            });
        } else {
            bump!();
            out.toks.push(Tok {
                kind: TokKind::Punct,
                text: c.to_string(),
                line: tl,
                col: tc,
            });
        }
    }
    out
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn fuses_operators() {
        assert_eq!(
            texts("a => b :: c .. d ..= e -> f"),
            ["a", "=>", "b", "::", "c", "..", "d", "..=", "e", "->", "f"]
        );
    }

    #[test]
    fn literals_are_opaque() {
        let l = lex(r#"let s = "HashMap => Instant::now"; // HashMap"#);
        assert!(l.toks.iter().all(|t| t.text != "HashMap"));
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].text.trim(), "HashMap");
    }

    #[test]
    fn raw_strings_and_chars() {
        let l = lex(r##"let x = r#"a "quoted" _ =>"#; let c = '\n'; let lt: &'static str = "";"##);
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
        assert!(!l.toks.iter().any(|t| t.text == "quoted"));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still */ fn x() {}");
        assert_eq!(l.toks[0].text, "fn");
        assert_eq!(l.comments.len(), 1);
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("a\n  b");
        assert_eq!((l.toks[0].line, l.toks[0].col), (1, 1));
        assert_eq!((l.toks[1].line, l.toks[1].col), (2, 3));
    }

    #[test]
    fn range_after_number() {
        assert_eq!(texts("0..5"), ["0", "..", "5"]);
        assert_eq!(texts("1.5 + 2"), ["1.5", "+", "2"]);
    }
}
