//! A zero-dependency recursive-descent parser over the [`crate::lexer`]
//! token stream, producing the item-level AST in [`crate::ast`].
//!
//! Design rule: **total, never wrong about positions**. The parser
//! understands items (type aliases, structs, enums, statics/consts,
//! fns, impl/trait/mod blocks, the items inside an item-position macro
//! such as `thread_local!`) and type expressions; everything else —
//! expression bodies, attributes, macro definitions, where clauses — is skipped
//! with balanced delimiters. An unrecognized construct therefore costs
//! recall (no finding), never a spurious finding or a crash, which is
//! the right failure mode for a CI gate.

use crate::ast::{Ast, Field, FnItem, Item, ItemKind, TypeExpr};
use crate::lexer::{Lexed, Token, TokenKind};

/// Parse one lexed file. `excuse` reports whether a field declared on a
/// given line is covered by a `state-flow` allow directive
/// (resolved against the same file's directives by the caller).
pub fn parse(lexed: &Lexed, excuse: &dyn Fn(u32) -> bool) -> Ast {
    let mut p = Parser {
        toks: &lexed.tokens,
        pos: 0,
        out: Ast::default(),
        excuse,
    };
    p.items(None, false, usize::MAX);
    p.out
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    out: Ast,
    excuse: &'a dyn Fn(u32) -> bool,
}

/// Keywords that can prefix an item before its defining keyword.
const MODIFIERS: &[&str] = &["pub", "const", "unsafe", "async", "extern", "default"];

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(s))
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek().is_some_and(|t| t.is_punct(c))
    }

    /// Skip a balanced region opened by the punct at the current
    /// position (`{`/`(`/`[`/`<`), leaving `pos` one past the closer.
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0i32;
        while let Some(t) = self.bump() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skip to the next `;` at zero bracket depth (static/const
    /// initializers, use decls, …). Consumes the `;`.
    fn skip_to_semi(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.bump() {
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    ";" if depth <= 0 => return,
                    _ => {}
                }
            }
        }
    }

    /// Skip attributes `#[…]` / `#![…]` and item modifiers, returning
    /// whether any attribute mentioned `cfg(test)`.
    fn skip_attrs_and_modifiers(&mut self) -> bool {
        let mut cfg_test = false;
        loop {
            if self.at_punct('#') {
                self.bump();
                if self.at_punct('!') {
                    self.bump();
                }
                if self.at_punct('[') {
                    let start = self.pos;
                    self.skip_balanced('[', ']');
                    let body = &self.toks[start..self.pos];
                    if body.iter().any(|t| t.is_ident("cfg"))
                        && body.iter().any(|t| t.is_ident("test"))
                    {
                        cfg_test = true;
                    }
                }
                continue;
            }
            // `pub` may carry `(crate)` / `(in path)`.
            if self.at_ident("pub") {
                self.bump();
                if self.at_punct('(') {
                    self.skip_balanced('(', ')');
                }
                continue;
            }
            // `const` only counts as a modifier before `fn` (else it
            // introduces a const item, handled by the caller).
            if self.at_ident("const") && self.toks.get(self.pos + 1).is_some_and(|t| t.is_ident("fn"))
            {
                self.bump();
                continue;
            }
            if MODIFIERS[2..].iter().any(|m| self.at_ident(m)) {
                // unsafe / async / extern / default
                let was_extern = self.at_ident("extern");
                self.bump();
                if was_extern && self.peek().is_some_and(|t| t.kind == TokenKind::Str) {
                    self.bump(); // the ABI string
                }
                continue;
            }
            return cfg_test;
        }
    }

    /// Parse items until the closing `}` of the enclosing block (or
    /// EOF). `end` is a token-index fence for safety.
    fn items(&mut self, self_ty: Option<&str>, in_tests: bool, end: usize) {
        while self.pos < end && self.pos < self.toks.len() {
            if self.at_punct('}') {
                self.bump();
                return;
            }
            let cfg_test = self.skip_attrs_and_modifiers();
            let in_tests = in_tests || cfg_test;
            let Some(t) = self.peek() else { return };
            let (line, col) = (t.line, t.col);
            match (t.kind, t.text.as_str()) {
                (TokenKind::Ident, "type") => self.type_alias(line, col, in_tests),
                (TokenKind::Ident, "struct") => self.struct_item(line, col, in_tests),
                (TokenKind::Ident, "enum") => self.enum_item(line, col, in_tests),
                (TokenKind::Ident, "static") | (TokenKind::Ident, "const") => {
                    self.static_item(line, col, in_tests)
                }
                (TokenKind::Ident, "fn") => self.fn_item(self_ty, line, col, in_tests),
                (TokenKind::Ident, "impl") => self.impl_block(in_tests),
                (TokenKind::Ident, "trait") => self.trait_block(in_tests),
                (TokenKind::Ident, "mod") => self.mod_block(self_ty, in_tests),
                (TokenKind::Ident, "use") | (TokenKind::Ident, "macro_rules") => {
                    // `use path::{a, b};` — braces before the semi;
                    // `macro_rules! name { … }` — a brace body, no semi.
                    self.bump();
                    if self.at_punct('!') {
                        self.bump();
                        self.bump(); // macro name
                        while let Some(t) = self.peek() {
                            if t.is_punct('{') {
                                self.skip_balanced('{', '}');
                                break;
                            }
                            if t.is_punct(';') {
                                self.bump();
                                break;
                            }
                            self.bump();
                        }
                    } else {
                        self.skip_to_semi();
                    }
                }
                (TokenKind::Punct, "{") => self.skip_balanced('{', '}'),
                (TokenKind::Ident, _) if self.toks.get(self.pos + 1).is_some_and(|n| n.is_punct('!')) => {
                    self.macro_items(self_ty, in_tests)
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// `type Name<…>? = Target;` (associated `type Name;` in traits is
    /// skipped).
    fn type_alias(&mut self, line: u32, col: u32, in_tests: bool) {
        self.bump(); // `type`
        let Some(name) = self.ident_text() else {
            self.skip_to_semi();
            return;
        };
        if self.at_punct('<') {
            self.skip_balanced('<', '>');
        }
        // Bounds (`type X: Bound;`) or bodyless associated type.
        if !self.at_punct('=') {
            self.skip_to_semi();
            return;
        }
        self.bump(); // `=`
        let target = self.type_expr();
        self.skip_to_semi();
        self.out.items.push(Item {
            name,
            line,
            col,
            in_tests,
            kind: ItemKind::Alias { target },
        });
    }

    fn struct_item(&mut self, line: u32, col: u32, in_tests: bool) {
        self.bump(); // `struct`
        let Some(name) = self.ident_text() else { return };
        if self.at_punct('<') {
            self.skip_balanced('<', '>');
        }
        let mut fields = Vec::new();
        if self.at_punct('(') {
            // Tuple struct: `struct Name(pub T, U);`
            let close = self.matching(self.pos, '(', ')');
            self.bump(); // `(`
            let mut idx = 0usize;
            while self.pos < close {
                self.skip_attrs_and_modifiers();
                if self.at_punct(')') {
                    break;
                }
                let (fl, fc) = self
                    .peek()
                    .map(|t| (t.line, t.col))
                    .unwrap_or((line, col));
                let ty = self.type_expr();
                fields.push(Field {
                    name: idx.to_string(),
                    excused: (self.excuse)(fl),
                    ty,
                    line: fl,
                    col: fc,
                });
                idx += 1;
                if self.at_punct(',') {
                    self.bump();
                }
            }
            self.pos = close + 1;
            self.skip_to_semi();
        } else if self.at_punct('{') {
            let close = self.matching(self.pos, '{', '}');
            self.bump(); // `{`
            while self.pos < close {
                self.skip_attrs_and_modifiers();
                if self.at_punct('}') {
                    break;
                }
                let Some(fname) = self.ident_text() else { break };
                let (fl, fc) = (self.toks[self.pos - 1].line, self.toks[self.pos - 1].col);
                if !self.at_punct(':') {
                    break; // malformed; bail on this struct body
                }
                self.bump(); // `:`
                let ty = self.type_expr();
                fields.push(Field {
                    name: fname,
                    excused: (self.excuse)(fl),
                    ty,
                    line: fl,
                    col: fc,
                });
                if self.at_punct(',') {
                    self.bump();
                }
            }
            self.pos = close + 1;
        } else {
            // Unit struct `struct Name;`
            self.skip_to_semi();
        }
        self.out.items.push(Item {
            name,
            line,
            col,
            in_tests,
            kind: ItemKind::Struct { fields },
        });
    }

    fn enum_item(&mut self, line: u32, col: u32, in_tests: bool) {
        self.bump(); // `enum`
        let Some(name) = self.ident_text() else { return };
        if self.at_punct('<') {
            self.skip_balanced('<', '>');
        }
        let mut variants = Vec::new();
        if self.at_punct('{') {
            let close = self.matching(self.pos, '{', '}');
            self.bump();
            while self.pos < close {
                self.skip_attrs_and_modifiers();
                if self.at_punct('}') {
                    break;
                }
                let Some(vname) = self.ident_text() else { break };
                let (vl, vc) = (self.toks[self.pos - 1].line, self.toks[self.pos - 1].col);
                let mut payload = TypeExpr {
                    head: "(tuple)".into(),
                    args: Vec::new(),
                    line: vl,
                    col: vc,
                };
                if self.at_punct('(') {
                    let pclose = self.matching(self.pos, '(', ')');
                    self.bump();
                    while self.pos < pclose {
                        if self.at_punct(')') {
                            break;
                        }
                        payload.args.push(self.type_expr());
                        if self.at_punct(',') {
                            self.bump();
                        }
                    }
                    self.pos = pclose + 1;
                } else if self.at_punct('{') {
                    let pclose = self.matching(self.pos, '{', '}');
                    self.bump();
                    while self.pos < pclose {
                        self.skip_attrs_and_modifiers();
                        if self.at_punct('}') {
                            break;
                        }
                        if self.ident_text().is_none() {
                            break;
                        }
                        if self.at_punct(':') {
                            self.bump();
                            payload.args.push(self.type_expr());
                        }
                        if self.at_punct(',') {
                            self.bump();
                        }
                    }
                    self.pos = pclose + 1;
                }
                if self.at_punct('=') {
                    // Discriminant: skip the expression to `,` / `}`.
                    while let Some(t) = self.peek() {
                        if t.is_punct(',') || t.is_punct('}') {
                            break;
                        }
                        self.bump();
                    }
                }
                variants.push(Field {
                    name: vname,
                    ty: payload,
                    line: vl,
                    col: vc,
                    excused: (self.excuse)(vl),
                });
                if self.at_punct(',') {
                    self.bump();
                }
            }
            self.pos = close + 1;
        }
        self.out.items.push(Item {
            name,
            line,
            col,
            in_tests,
            kind: ItemKind::Enum { variants },
        });
    }

    /// `name! { … }` / `name!(…);` / `name![…];` in item position: the
    /// body is read as items, so the statics a `thread_local!` declares
    /// are seen like any other.
    fn macro_items(&mut self, self_ty: Option<&str>, in_tests: bool) {
        self.bump(); // macro name
        self.bump(); // `!`
        let delims = match self.peek().map(|t| t.text.as_str()) {
            Some("{") => ('{', '}'),
            Some("(") => ('(', ')'),
            Some("[") => ('[', ']'),
            _ => return,
        };
        let close = self.matching(self.pos, delims.0, delims.1);
        self.bump();
        self.items(self_ty, in_tests, close);
        self.pos = self.pos.max(close + 1);
        if self.at_punct(';') {
            self.bump();
        }
    }

    /// `static NAME: Ty = …;` / `const NAME: Ty = …;` (and
    /// `lazy_static!`'s `static ref NAME: Ty = …;`)
    fn static_item(&mut self, line: u32, col: u32, in_tests: bool) {
        self.bump(); // `static` / `const`
        if self.at_ident("mut") || self.at_ident("ref") {
            self.bump();
        }
        let Some(name) = self.ident_text() else {
            self.skip_to_semi();
            return;
        };
        if !self.at_punct(':') {
            self.skip_to_semi(); // `const _: () = …` etc. degrade fine
            return;
        }
        self.bump();
        let ty = self.type_expr();
        self.skip_to_semi();
        self.out.items.push(Item {
            name,
            line,
            col,
            in_tests,
            kind: ItemKind::Static { ty },
        });
    }

    fn fn_item(&mut self, self_ty: Option<&str>, line: u32, col: u32, in_tests: bool) {
        self.bump(); // `fn`
        let Some(name) = self.ident_text() else { return };
        if self.at_punct('<') {
            self.skip_balanced('<', '>');
        }
        let mut params = Vec::new();
        if self.at_punct('(') {
            let close = self.matching(self.pos, '(', ')');
            self.bump();
            while self.pos < close {
                self.skip_attrs_and_modifiers();
                if self.at_punct(')') {
                    break;
                }
                // Receiver forms: `self`, `&self`, `&'a mut self`.
                let save = self.pos;
                while self.pos < close
                    && self.peek().is_some_and(|t| {
                        t.is_punct('&')
                            || t.kind == TokenKind::Lifetime
                            || t.is_ident("mut")
                    })
                {
                    self.bump();
                }
                if self.at_ident("self") {
                    self.bump();
                    if self.at_punct(',') {
                        self.bump();
                    }
                    continue;
                }
                self.pos = save;
                // Pattern: plain ident, `mut ident`, or anything more
                // complex (tuple/struct patterns) — skip to the `:`.
                if self.at_ident("mut") {
                    self.bump();
                }
                let pname = if self.peek().is_some_and(|t| t.kind == TokenKind::Ident)
                    && self.toks.get(self.pos + 1).is_some_and(|t| t.is_punct(':'))
                {
                    self.ident_text().unwrap_or_default()
                } else {
                    // Complex pattern: scan to `:` at depth 0 within the
                    // parameter list.
                    let mut depth = 0i32;
                    while self.pos < close {
                        let Some(t) = self.peek() else { break };
                        match t.text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            ":" if depth == 0 => break,
                            "," if depth == 0 => break,
                            _ => {}
                        }
                        self.bump();
                    }
                    String::new()
                };
                if self.at_punct(':') {
                    self.bump();
                    let ty = self.type_expr();
                    params.push((pname, ty));
                }
                // Advance over a trailing `,` (or stray tokens up to it).
                let mut depth = 0i32;
                while self.pos < close {
                    let Some(t) = self.peek() else { break };
                    match t.text.as_str() {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" => depth -= 1,
                        "," if depth <= 0 => {
                            self.bump();
                            break;
                        }
                        _ => {}
                    }
                    self.bump();
                }
            }
            self.pos = close + 1;
        }
        // Return type.
        let mut ret = None;
        if self.at_punct('-') && self.toks.get(self.pos + 1).is_some_and(|t| t.is_punct('>')) {
            self.bump();
            self.bump();
            ret = Some(self.type_expr());
        }
        // Where clause: scan to the body `{` or a `;` at depth 0.
        let mut body = None;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                ";" if depth <= 0 => {
                    self.bump();
                    break;
                }
                "{" if depth <= 0 => {
                    let start = self.pos;
                    self.skip_balanced('{', '}');
                    body = Some((start, self.pos));
                    break;
                }
                _ => {}
            }
            if t.kind != TokenKind::Punct {
                depth = depth.max(0); // idents never change depth
            }
            self.bump();
        }
        self.out.items.push(Item {
            name,
            line,
            col,
            in_tests,
            kind: ItemKind::Fn(FnItem {
                self_ty: self_ty.map(str::to_string),
                params,
                ret,
                body,
            }),
        });
    }

    /// `impl<…>? Type {` / `impl<…>? Trait for Type {` — parse the
    /// block's items with `self_ty` set to the implemented type's head.
    fn impl_block(&mut self, in_tests: bool) {
        self.bump(); // `impl`
        if self.at_punct('<') {
            self.skip_balanced('<', '>');
        }
        let first = self.type_expr();
        let self_head = if self.at_ident("for") {
            self.bump();
            self.type_expr().head
        } else {
            first.head
        };
        // Where clause → `{`.
        while let Some(t) = self.peek() {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') {
                self.bump();
                return;
            }
            self.bump();
        }
        if self.at_punct('{') {
            let close = self.matching(self.pos, '{', '}');
            self.bump();
            self.items(Some(&self_head), in_tests, close);
            self.pos = self.pos.max(close + 1);
        }
    }

    /// `trait Name {…}` — default method bodies are parsed as fns with
    /// the trait as their self type.
    fn trait_block(&mut self, in_tests: bool) {
        self.bump(); // `trait`
        let Some(name) = self.ident_text() else { return };
        while let Some(t) = self.peek() {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') {
                self.bump();
                return;
            }
            self.bump();
        }
        if self.at_punct('{') {
            let close = self.matching(self.pos, '{', '}');
            self.bump();
            self.items(Some(&name), in_tests, close);
            self.pos = self.pos.max(close + 1);
        }
    }

    fn mod_block(&mut self, self_ty: Option<&str>, in_tests: bool) {
        self.bump(); // `mod`
        let name = self.ident_text().unwrap_or_default();
        let in_tests = in_tests || name == "tests" || name == "test";
        if self.at_punct(';') {
            self.bump();
            return;
        }
        if self.at_punct('{') {
            let close = self.matching(self.pos, '{', '}');
            self.bump();
            self.items(self_ty, in_tests, close);
            self.pos = self.pos.max(close + 1);
        }
    }

    /// Consume one identifier token, returning its text.
    fn ident_text(&mut self) -> Option<String> {
        if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) {
            let t = self.bump().map(|t| t.text.clone());
            t
        } else {
            None
        }
    }

    /// Index of the token closing the balanced region opened at `open_at`
    /// (which must hold the opening punct). Falls back to the last token.
    fn matching(&self, open_at: usize, open: char, close: char) -> usize {
        let mut depth = 0i32;
        for (i, t) in self.toks.iter().enumerate().skip(open_at) {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.toks.len().saturating_sub(1)
    }

    /// Parse a type expression at the current position. Total: consumes
    /// at least the tokens that structurally belong to one type, and
    /// produces *something* for every input.
    fn type_expr(&mut self) -> TypeExpr {
        // Strip reference/pointer sigils, lifetimes, and qualifiers.
        while let Some(t) = self.peek() {
            if t.is_punct('&')
                || t.is_punct('*')
                || t.kind == TokenKind::Lifetime
                || t.is_ident("mut")
                || t.is_ident("dyn")
                || t.is_ident("impl")
                || t.is_ident("const")
            {
                self.bump();
            } else {
                break;
            }
        }
        let Some(t) = self.peek() else {
            return TypeExpr::default();
        };
        let (line, col) = (t.line, t.col);

        // Tuple `(A, B)` — also covers parenthesized types `(A)`.
        if t.is_punct('(') {
            let close = self.matching(self.pos, '(', ')');
            self.bump();
            let mut out = TypeExpr {
                head: "(tuple)".into(),
                args: Vec::new(),
                line,
                col,
            };
            while self.pos < close {
                if self.at_punct(')') {
                    break;
                }
                out.args.push(self.type_expr());
                if self.at_punct(',') {
                    self.bump();
                } else if self.pos < close && !self.at_punct(')') {
                    self.bump(); // stray token inside tuple — stay total
                }
            }
            self.pos = close + 1;
            return out;
        }

        // Array / slice `[T; N]` / `[T]`.
        if t.is_punct('[') {
            let close = self.matching(self.pos, '[', ']');
            self.bump();
            let inner = self.type_expr();
            self.pos = close + 1;
            return TypeExpr {
                head: "[array]".into(),
                args: vec![inner],
                line,
                col,
            };
        }

        // `fn(...) -> R` pointer type.
        if t.is_ident("fn") || t.is_ident("Fn") || t.is_ident("FnMut") || t.is_ident("FnOnce") {
            let head = t.text.clone();
            self.bump();
            let mut out = TypeExpr {
                head,
                args: Vec::new(),
                line,
                col,
            };
            if self.at_punct('(') {
                let close = self.matching(self.pos, '(', ')');
                self.bump();
                while self.pos < close {
                    if self.at_punct(')') {
                        break;
                    }
                    out.args.push(self.type_expr());
                    // Separator comma, or one recovery bump so a
                    // construct type_expr didn't consume can't stall us.
                    if self.at_punct(',') || self.pos < close {
                        self.bump();
                    }
                }
                self.pos = close + 1;
            }
            if self.at_punct('-') && self.toks.get(self.pos + 1).is_some_and(|x| x.is_punct('>')) {
                self.bump();
                self.bump();
                out.args.push(self.type_expr());
            }
            return out;
        }

        if t.kind != TokenKind::Ident {
            // `!` (never), `_`, or something we don't model.
            let head = t.text.clone();
            self.bump();
            return TypeExpr {
                head,
                args: Vec::new(),
                line,
                col,
            };
        }

        // Path: `a::b::C` — keep the final segment as head.
        let mut head = t.text.clone();
        let (mut hline, mut hcol) = (line, col);
        self.bump();
        while self.at_punct(':')
            && self.toks.get(self.pos + 1).is_some_and(|x| x.is_punct(':'))
            && self
                .toks
                .get(self.pos + 2)
                .is_some_and(|x| x.kind == TokenKind::Ident)
        {
            self.bump();
            self.bump();
            let seg = self.toks[self.pos].clone();
            head = seg.text.clone();
            hline = seg.line;
            hcol = seg.col;
            self.bump();
        }
        let mut out = TypeExpr {
            head,
            args: Vec::new(),
            line: hline,
            col: hcol,
        };

        // Generic arguments.
        if self.at_punct('<') {
            let close = self.matching(self.pos, '<', '>');
            self.bump();
            while self.pos < close {
                let Some(t) = self.peek() else { break };
                if t.is_punct('>') {
                    break;
                }
                if t.kind == TokenKind::Lifetime {
                    self.bump();
                } else if t.kind == TokenKind::Num {
                    self.bump(); // const-generic literal
                } else if t.kind == TokenKind::Ident
                    && self.toks.get(self.pos + 1).is_some_and(|x| x.is_punct('='))
                {
                    // Associated binding `Item = T`: keep the rhs type.
                    self.bump();
                    self.bump();
                    out.args.push(self.type_expr());
                } else if t.is_punct(',') {
                    self.bump();
                } else if t.is_punct('{') {
                    self.skip_balanced('{', '}'); // const-generic block
                } else {
                    out.args.push(self.type_expr());
                }
            }
            self.pos = close + 1;
        }
        // `Result<T, E>`-style trailing `+ Bound` in trait objects: skip
        // bounds so the next field/param parse starts clean.
        while self.at_punct('+') {
            self.bump();
            if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                self.bump();
            } else if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) {
                self.type_expr();
            } else {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src), &|_| false)
    }

    fn find<'a>(ast: &'a Ast, name: &str) -> &'a Item {
        ast.items
            .iter()
            .find(|i| i.name == name)
            .unwrap_or_else(|| panic!("item `{name}` not parsed"))
    }

    #[test]
    fn alias_struct_enum_static_parse() {
        let src = "
            pub type SessionKey = Supi;
            pub struct Tracked { pub supi: Supi, rtt: f64 }
            struct Newtype(pub Supi);
            enum E { A, B(Supi), C { g: Guti } }
            static TABLE: [Step; 4] = [];
            const LIMIT: usize = 9;
        ";
        let ast = parse_src(src);
        match &find(&ast, "SessionKey").kind {
            ItemKind::Alias { target } => assert_eq!(target.render(), "Supi"),
            k => panic!("{k:?}"),
        }
        match &find(&ast, "Tracked").kind {
            ItemKind::Struct { fields } => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].name, "supi");
                assert_eq!(fields[0].ty.render(), "Supi");
            }
            k => panic!("{k:?}"),
        }
        match &find(&ast, "Newtype").kind {
            ItemKind::Struct { fields } => {
                assert_eq!(fields[0].name, "0");
                assert_eq!(fields[0].ty.render(), "Supi");
            }
            k => panic!("{k:?}"),
        }
        match &find(&ast, "E").kind {
            ItemKind::Enum { variants } => {
                assert_eq!(variants.len(), 3);
                assert!(variants[1].ty.mentions("Supi"));
                assert!(variants[2].ty.mentions("Guti"));
            }
            k => panic!("{k:?}"),
        }
        match &find(&ast, "TABLE").kind {
            ItemKind::Static { ty } => assert!(ty.mentions("Step")),
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn generics_paths_and_wrappers() {
        let src = "struct S { m: std::collections::HashMap<CellId, Vec<Supi>>, o: Option<&'static str>, t: (Supi, u32), }";
        let ast = parse_src(src);
        match &find(&ast, "S").kind {
            ItemKind::Struct { fields } => {
                assert_eq!(fields[0].ty.render(), "HashMap<CellId, Vec<Supi>>");
                assert_eq!(fields[1].ty.head, "Option");
                assert_eq!(fields[2].ty.render(), "(Supi, u32)");
            }
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn impl_methods_carry_self_ty_and_body_ranges() {
        let src = "
            struct Cache { n: u32 }
            impl Cache {
                pub fn bump(&mut self, by: u32) -> u32 { self.n += by; self.n }
            }
            impl Default for Cache { fn default() -> Self { Cache { n: 0 } } }
            fn free(x: u64) {}
        ";
        let ast = parse_src(src);
        let fns: Vec<_> = ast.fns().collect();
        assert_eq!(fns.len(), 3);
        let bump = fns.iter().find(|(i, _)| i.name == "bump").expect("bump");
        assert_eq!(bump.1.self_ty.as_deref(), Some("Cache"));
        assert_eq!(bump.1.params.len(), 1);
        assert_eq!(bump.1.params[0].0, "by");
        assert!(bump.1.body.is_some());
        let default = fns.iter().find(|(i, _)| i.name == "default").expect("default");
        assert_eq!(default.1.self_ty.as_deref(), Some("Cache"));
        let free = fns.iter().find(|(i, _)| i.name == "free").expect("free");
        assert!(free.1.self_ty.is_none());
        assert_eq!(free.1.params[0].0, "x");
    }

    #[test]
    fn test_mods_and_cfg_test_are_marked() {
        let src = "
            struct Live { x: u32 }
            #[cfg(test)]
            mod tests {
                struct Harness { m: HashMap<Supi, u8> }
                fn run() {}
            }
        ";
        let ast = parse_src(src);
        assert!(!find(&ast, "Live").in_tests);
        assert!(find(&ast, "Harness").in_tests);
        assert!(find(&ast, "run").in_tests);
    }

    #[test]
    fn where_clauses_and_trait_defaults_do_not_derail() {
        let src = "
            pub fn pmap<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
            where T: Send, R: Send, F: Fn(T) -> R + Sync,
            { items.into_iter().map(f).collect() }
            trait Probe { fn hit(&self) -> bool { true } fn req(&self); }
            struct After { y: Vec<Supi> }
        ";
        let ast = parse_src(src);
        assert!(!find(&ast, "pmap").in_tests);
        let hit = ast.fns().find(|(i, _)| i.name == "hit").expect("hit");
        assert_eq!(hit.1.self_ty.as_deref(), Some("Probe"));
        assert!(hit.1.body.is_some());
        let req = ast.fns().find(|(i, _)| i.name == "req").expect("req");
        assert!(req.1.body.is_none());
        // The item *after* the generic fn still parses — the where
        // clause and trait block were skipped with balance intact.
        assert!(find(&ast, "After").kind_is_struct_with_supi());
    }

    impl ItemKind {
        fn is_struct_with_supi(&self) -> bool {
            matches!(self, ItemKind::Struct { fields } if fields.iter().any(|f| f.ty.mentions("Supi")))
        }
    }

    impl Item {
        fn kind_is_struct_with_supi(&self) -> bool {
            self.kind.is_struct_with_supi()
        }
    }

    #[test]
    fn excused_fields_are_marked() {
        let src = "struct S {\n    a: HashMap<Supi, u8>,\n    b: u32,\n}";
        let ast = parse(&lex(src), &|line| line == 2);
        match &find(&ast, "S").kind {
            ItemKind::Struct { fields } => {
                assert!(fields[0].excused);
                assert!(!fields[1].excused);
            }
            k => panic!("{k:?}"),
        }
    }
}
