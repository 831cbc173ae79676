//! Lexer hardening regressions: raw strings, byte literals, nested
//! block comments, and lifetime-vs-char ambiguity. Every case here is
//! a way a naive tokenizer leaks literal/comment *content* into the
//! token stream — which the rules would then mistake for code (e.g. a
//! doc string mentioning `unwrap()` counting against the R3 ratchet).

use sc_audit::lexer::{lex, TokenKind};

/// Identifier texts only — what the rules actually pattern-match on.
fn idents(src: &str) -> Vec<String> {
    lex(src)
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect()
}

#[test]
fn raw_string_content_is_opaque() {
    let src = r##"let q = r#"select unwrap() from panic!"#; done();"##;
    let ids = idents(src);
    assert!(ids.contains(&"done".to_string()), "{ids:?}");
    assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
    assert!(!ids.contains(&"select".to_string()), "{ids:?}");
}

#[test]
fn multi_hash_raw_string_finds_its_own_closer() {
    // The inner `"#` must NOT terminate an `r##"…"##` literal.
    let src = "let q = r##\"has \"# inside\"##; after();\n";
    let ids = idents(src);
    assert!(ids.contains(&"after".to_string()), "{ids:?}");
    assert!(!ids.contains(&"inside".to_string()), "{ids:?}");
}

#[test]
fn byte_and_raw_byte_strings_are_opaque() {
    let src = "let a = b\"unwrap()\"; let b2 = br#\"expect()\"#; tail();\n";
    let ids = idents(src);
    assert!(ids.contains(&"tail".to_string()), "{ids:?}");
    assert!(!ids.contains(&"unwrap".to_string()), "{ids:?}");
    assert!(!ids.contains(&"expect".to_string()), "{ids:?}");
}

#[test]
fn byte_char_literal_does_not_leak_an_ident() {
    // Regression: `b'x'` used to lex as ident `b` + char — and
    // `b'\''`-style escapes could desync the whole stream.
    let src = "let n = b'x'; let q = b'\\''; follow();\n";
    let toks = lex(src);
    let ids: Vec<&str> = toks
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    assert!(ids.contains(&"follow"), "{ids:?}");
    assert!(!ids.contains(&"b"), "byte-char prefix leaked: {ids:?}");
    assert_eq!(
        toks.tokens.iter().filter(|t| t.kind == TokenKind::Char).count(),
        2,
        "{:?}",
        toks.tokens
    );
}

#[test]
fn nested_block_comments_balance() {
    // Rust block comments nest; a depth counter (not "first */") is
    // required or everything after the inner close leaks as code.
    let src = "/* outer /* inner unwrap() */ still comment panic!() */ alive();\n";
    let ids = idents(src);
    assert_eq!(ids, vec!["alive".to_string()], "{ids:?}");
}

#[test]
fn block_comment_directives_do_not_count() {
    // Allow directives are line-comment-only; a block comment that
    // *mentions* the syntax must not create a directive.
    let src = "/* sc-audit: allow(state-flow, reason = \"nope\") */\nlet x = 1;\n";
    let lexed = lex(src);
    assert!(lexed.directives.is_empty(), "{:?}", lexed.directives);
}

#[test]
fn lifetimes_are_not_char_literals() {
    // `'a` in generics/references must not start a char literal and
    // swallow the rest of the line.
    let src = "fn f<'a, 'b: 'a>(x: &'a str, y: &'static u8) -> &'a str { visible(); x }\n";
    let ids = idents(src);
    assert!(ids.contains(&"visible".to_string()), "{ids:?}");
    assert!(ids.contains(&"str".to_string()), "{ids:?}");
    // And a real char literal right next to a lifetime still lexes.
    let src2 = "let c: char = 'x'; fn g<'q>(v: &'q u8) {} seen();\n";
    let toks = lex(src2);
    assert_eq!(
        toks.tokens.iter().filter(|t| t.kind == TokenKind::Char).count(),
        1,
        "{:?}",
        toks.tokens
    );
    assert!(
        toks.tokens.iter().any(|t| t.is_ident("seen")),
        "{:?}",
        toks.tokens
    );
}

#[test]
fn escaped_quotes_and_escaped_backslashes_close_correctly() {
    // `"\\"` ends the string (escaped backslash then close quote);
    // `"\""` does not end at the escaped quote.
    let src = r#"let a = "\\"; let b = "\""; end();"#;
    let ids = idents(src);
    assert!(ids.contains(&"end".to_string()), "{ids:?}");
}

#[test]
fn raw_identifiers_keep_their_text() {
    let src = "let r#type = 1; let r#match = r#type; used();\n";
    let ids = idents(src);
    assert!(ids.contains(&"used".to_string()), "{ids:?}");
}

#[test]
fn positions_survive_multiline_literals() {
    // Tokens after a multi-line raw string land on the right line —
    // positions are load-bearing for findings and allow-directives.
    let src = "let q = r#\"line1\nline2\nline3\"#;\nmarker();\n";
    let toks = lex(src);
    let m = toks
        .tokens
        .iter()
        .find(|t| t.is_ident("marker"))
        .expect("marker token");
    assert_eq!(m.line, 4, "{:?}", toks.tokens);
    assert_eq!(m.col, 1);
}
