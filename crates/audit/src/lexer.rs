//! A hand-rolled, line/column-accurate Rust lexer — just enough for
//! `sc-audit`'s rule engine, and deliberately not `syn`: the auditor
//! must stay dependency-free so it builds before (and independently of)
//! everything it gates, per the vendored-offline build policy.
//!
//! The lexer understands the parts of the grammar that make naive
//! `grep`-style auditing wrong:
//!
//! * line comments, nested block comments (skipped, except that
//!   `sc-audit:` directives inside line comments are captured),
//! * string literals with escapes, raw strings `r#"…"#` with any number
//!   of `#`s, byte strings, char literals,
//! * the char-literal vs. lifetime ambiguity (`'a'` vs `'a`),
//! * numeric literals (so `1_000.partial` never splits oddly).
//!
//! Everything else is emitted as identifier or single-char punctuation
//! tokens carrying their 1-based line and column, which is all the rule
//! matchers need.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `unwrap`, `unsafe`, …).
    Ident,
    /// A single punctuation character (`.`, `:`, `<`, `(`, `!`, …).
    Punct,
    /// String / raw-string / byte-string literal (contents dropped).
    Str,
    /// Char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Numeric literal.
    Num,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Token text. For `Str`/`Char` literals this is empty — rules never
    /// look inside literals, which is precisely the false-positive class
    /// the lexer exists to kill.
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Token {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Is this a punctuation token with this character?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// A `// sc-audit: allow(rule, reason = "…")` directive found in a
/// comment, recorded with the line it sits on. A directive suppresses
/// findings of `rule` on its own line (trailing-comment style) and on
/// the next line that holds any token (annotation-above style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// Rule key being allowed (`unordered`, `float-cmp`, `state-flow`,
    /// `parallel`, `orphan`).
    pub rule: String,
    /// The mandatory human justification.
    pub reason: String,
    pub line: u32,
}

/// Lexer output: the token stream plus any audit directives.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub directives: Vec<AllowDirective>,
    /// Lines (1-based) on which at least one token starts — used to
    /// resolve "the next code line after a directive".
    pub token_lines: Vec<u32>,
}

/// Lex one source file.
pub fn lex(src: &str) -> Lexed {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    out: Lexed,
    _src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            out: Lexed::default(),
            _src: src,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
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

    fn push(&mut self, kind: TokenKind, text: String, line: u32, col: u32) {
        if self.out.token_lines.last() != Some(&line) {
            self.out.token_lines.push(line);
        }
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => {
                    self.bump();
                    self.string_body('"');
                    self.push(TokenKind::Str, String::new(), line, col);
                }
                'r' | 'b' if self.raw_or_byte_string(line, col) => {}
                'b' if self.peek(1) == Some('\'') => {
                    // Byte-char literal `b'x'` / `b'\n'` — without this
                    // arm the `b` would leak as an identifier token.
                    self.bump(); // `b`
                    self.bump(); // opening `'`
                    self.string_body('\'');
                    self.push(TokenKind::Char, String::new(), line, col);
                }
                'r' if self.peek(1) == Some('#')
                    && self
                        .peek(2)
                        .is_some_and(|c| c == '_' || c.is_alphanumeric()) =>
                {
                    // Raw identifier `r#unsafe`: an ordinary name, not
                    // the keyword — keep the `r#` in the text so keyword
                    // matchers (R3's `unsafe` counter) never see it.
                    self.bump();
                    self.bump();
                    self.ident(line, col);
                    let t = self.out.tokens.last_mut().expect("ident just pushed");
                    t.text.insert_str(0, "r#");
                }
                '\'' => self.char_or_lifetime(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                c if c == '_' || c.is_alphanumeric() => self.ident(line, col),
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct, c.to_string(), line, col);
                }
            }
        }
        self.out
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `rb`-less etc.
    /// Returns false (consuming nothing) when the `r`/`b` starts a plain
    /// identifier instead.
    fn raw_or_byte_string(&mut self, line: u32, col: u32) -> bool {
        // Look ahead without consuming: r…, b…, br…, rb is not a thing.
        let mut i = 1;
        if self.peek(0) == Some('b') && self.peek(1) == Some('r') {
            i = 2;
        }
        // Count #s.
        let mut hashes = 0;
        while self.peek(i) == Some('#') {
            hashes += 1;
            i += 1;
        }
        if self.peek(i) != Some('"') {
            return false; // identifier like `radius` or `b` variable
        }
        // b"…" (no r): only valid with zero hashes and i == 1.
        let is_raw = self.peek(0) == Some('r') || self.peek(1) == Some('r');
        if !is_raw && hashes > 0 {
            return false;
        }
        // Consume prefix + hashes + opening quote.
        for _ in 0..=i {
            self.bump();
        }
        if is_raw {
            // Raw: no escapes; ends at `"` + same number of `#`s.
            'outer: while let Some(c) = self.bump() {
                if c == '"' {
                    for _ in 0..hashes {
                        if self.peek(0) != Some('#') {
                            continue 'outer;
                        }
                        self.bump();
                    }
                    break;
                }
            }
        } else {
            self.string_body('"');
        }
        self.push(TokenKind::Str, String::new(), line, col);
        true
    }

    /// Consume a (non-raw) string/char body after the opening delimiter,
    /// honoring backslash escapes. The closing delimiter is consumed.
    fn string_body(&mut self, delim: char) {
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump(); // the escaped char, whatever it is
            } else if c == delim {
                break;
            }
        }
    }

    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        // 'a' is a char, 'a (not followed by ') is a lifetime, '\n' is a
        // char, 'static is a lifetime.
        let c1 = self.peek(1);
        let c2 = self.peek(2);
        let is_lifetime = match (c1, c2) {
            (Some('\\'), _) => false,
            (Some(c), Some('\'')) if c != '\'' => false, // 'x'
            (Some(c), _) if c == '_' || c.is_alphanumeric() => true,
            _ => false,
        };
        self.bump(); // the opening '
        if is_lifetime {
            let mut name = String::new();
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    name.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, name, line, col);
        } else {
            self.string_body('\'');
            self.push(TokenKind::Char, String::new(), line, col);
        }
    }

    fn number(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                // `1.5` continues the number; `1..n` and `v.iter()` don't.
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Num, text, line, col);
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line, col);
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut body = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            body.push(c);
            self.bump();
        }
        if let Some(d) = parse_directive(&body, line) {
            self.out.directives.push(d);
        }
    }

    fn block_comment(&mut self) {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }
}

/// Parse `sc-audit: allow(rule, reason = "…")` out of a line-comment
/// body. Whitespace is flexible; the reason string is mandatory — an
/// allow without a written justification is ignored (and the rule will
/// still fire, which is the point).
fn parse_directive(comment: &str, line: u32) -> Option<AllowDirective> {
    let rest = comment.trim_start_matches('/').trim_start();
    let rest = rest.strip_prefix("sc-audit:")?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    let inner = &rest[..close];
    let (rule, tail) = match inner.find(',') {
        Some(i) => (&inner[..i], &inner[i + 1..]),
        None => return None, // reason is not optional
    };
    let rule = rule.trim().to_string();
    let tail = tail.trim();
    let tail = tail.strip_prefix("reason")?.trim_start();
    let tail = tail.strip_prefix('=')?.trim_start();
    let tail = tail.strip_prefix('"')?;
    let end = tail.rfind('"')?;
    let reason = tail[..end].to_string();
    if rule.is_empty() || reason.is_empty() {
        return None;
    }
    Some(AllowDirective { rule, reason, line })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let src = r#"let msg = "call unwrap() on HashMap<Supi, _>";"#;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "msg"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"Instant::now() "quoted" inside"#; let x = 1;"###;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "s", "let", "x"]);
    }

    #[test]
    fn line_and_block_comments_are_skipped() {
        let src = "// thread_rng() here\n/* SystemTime::now()\n /* nested unwrap() */ */\nfn f() {}";
        let ids = idents(src);
        assert_eq!(ids, vec!["fn", "f"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a str) { let c = '\\''; let d = 'x'; }";
        let l = lex(src);
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokenKind::Char).count(),
            2
        );
    }

    #[test]
    fn positions_are_line_col_accurate() {
        let src = "fn main() {\n    x.unwrap();\n}";
        let l = lex(src);
        let unwrap = l.tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!((unwrap.line, unwrap.col), (2, 7));
    }

    #[test]
    fn directive_parses_with_reason() {
        let src = "// sc-audit: allow(state-flow, reason = \"ephemeral radio state\")\nmap: HashMap<Supi, u8>,";
        let l = lex(src);
        assert_eq!(l.directives.len(), 1);
        assert_eq!(l.directives[0].rule, "state-flow");
        assert_eq!(l.directives[0].reason, "ephemeral radio state");
        assert_eq!(l.directives[0].line, 1);
    }

    #[test]
    fn directive_without_reason_is_ignored() {
        let src = "// sc-audit: allow(state-flow)\nx";
        assert!(lex(src).directives.is_empty());
    }

    #[test]
    fn numbers_do_not_merge_with_method_calls() {
        let src = "let x = 1_000.5; let r = 0..n; v.iter();";
        let l = lex(src);
        assert!(l.tokens.iter().any(|t| t.kind == TokenKind::Num && t.text == "1_000.5"));
        assert!(l.tokens.iter().any(|t| t.is_ident("iter")));
    }
}
