//! The lightweight AST produced by [`crate::parser`]: just enough
//! item-level structure for the R4/R5 dataflow rules — type aliases,
//! struct/enum shapes, function signatures with body token ranges, and
//! statics — without becoming a real Rust front-end. Expression-level
//! analysis stays on the token stream (the parser records body *ranges*
//! and [`crate::flow`] scans inside them), which keeps the parser small
//! and total: anything it does not understand it skips with balanced
//! delimiters, so a new syntax form degrades to "no finding", never to
//! a parse abort.

/// A structural type expression: a head name plus generic arguments.
///
/// References, lifetimes, `mut`, `dyn`/`impl` are stripped; paths keep
/// only their final segment (`std::collections::HashMap` → `HashMap`);
/// tuples use the sentinel head `"(tuple)"`, arrays/slices `"[array]"`,
/// and function pointers `"fn"`. This loses enough precision to stay
/// simple and keeps enough to answer the one question R4 asks: which
/// named types does this type reach?
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TypeExpr {
    pub head: String,
    pub args: Vec<TypeExpr>,
    /// Source position of the head token (1-based line/col).
    pub line: u32,
    pub col: u32,
}

impl TypeExpr {
    pub fn leaf(head: &str, line: u32, col: u32) -> Self {
        Self {
            head: head.to_string(),
            args: Vec::new(),
            line,
            col,
        }
    }

    /// Does this type expression mention `name` anywhere (head or any
    /// argument, recursively)?
    pub fn mentions(&self, name: &str) -> bool {
        self.head == name || self.args.iter().any(|a| a.mentions(name))
    }

    /// Render for messages: `HashMap<CellId, Vec<Supi>>`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    fn render_into(&self, s: &mut String) {
        match self.head.as_str() {
            "(tuple)" => {
                s.push('(');
                for (i, a) in self.args.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    a.render_into(s);
                }
                s.push(')');
            }
            "[array]" => {
                s.push('[');
                if let Some(a) = self.args.first() {
                    a.render_into(s);
                }
                s.push(']');
            }
            _ => {
                s.push_str(&self.head);
                if !self.args.is_empty() {
                    s.push('<');
                    for (i, a) in self.args.iter().enumerate() {
                        if i > 0 {
                            s.push_str(", ");
                        }
                        a.render_into(s);
                    }
                    s.push('>');
                }
            }
        }
    }
}

/// A named field of a struct (or, reusing the shape, an enum variant's
/// payload — the variant name with its payload types as a tuple).
#[derive(Debug, Clone)]
pub struct Field {
    pub name: String,
    pub ty: TypeExpr,
    pub line: u32,
    pub col: u32,
    /// Covered by a `// sc-audit: allow(state-flow, …)`
    /// directive: the justification excuses the store *and* everything
    /// that transitively contains it, so excused fields are invisible to
    /// the R4 embeds/retains computation (otherwise every container of
    /// an allowed store would re-fire the rule one level up).
    pub excused: bool,
}

/// What kind of item this is.
#[derive(Debug, Clone)]
pub enum ItemKind {
    /// `type Name = Target;`
    Alias { target: TypeExpr },
    /// `struct Name { fields }` / `struct Name(T, U);` (tuple fields
    /// are named `"0"`, `"1"`, …).
    Struct { fields: Vec<Field> },
    /// `enum Name { V, V(T), V { f: T } }` — one [`Field`] per variant,
    /// payload types flattened into a tuple.
    Enum { variants: Vec<Field> },
    /// `static NAME: Ty = …;` or `const NAME: Ty = …;`
    Static { ty: TypeExpr },
    /// `fn name(params) -> ret { body }`
    Fn(FnItem),
}

/// A function item (free, inherent, trait-default).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The `impl`/`trait` self type, when the fn lives inside one.
    pub self_ty: Option<String>,
    /// Named parameters with their types (`self` receivers omitted).
    pub params: Vec<(String, TypeExpr)>,
    pub ret: Option<TypeExpr>,
    /// Half-open token-index range of the body, `{` .. one past `}`,
    /// into the file's token stream. `None` for bodyless (trait
    /// required / extern) fns.
    pub body: Option<(usize, usize)>,
}

/// One parsed item with its source position.
#[derive(Debug, Clone)]
pub struct Item {
    pub name: String,
    pub line: u32,
    pub col: u32,
    /// Item sits under a `mod tests`/`#[cfg(test)]` subtree: R4/R5 skip
    /// it (test harnesses intentionally build legacy stateful scenery).
    pub in_tests: bool,
    pub kind: ItemKind,
}

/// A parsed file: the flat item list (impl/mod nesting flattened, with
/// fns carrying their `self_ty`).
#[derive(Debug, Clone, Default)]
pub struct Ast {
    pub items: Vec<Item>,
}

impl Ast {
    /// Iterate fn items with their names.
    pub fn fns(&self) -> impl Iterator<Item = (&Item, &FnItem)> {
        self.items.iter().filter_map(|i| match &i.kind {
            ItemKind::Fn(f) => Some((i, f)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_roundtrips_common_shapes() {
        let supi = TypeExpr::leaf("Supi", 1, 1);
        let vec = TypeExpr {
            head: "Vec".into(),
            args: vec![supi.clone()],
            line: 1,
            col: 1,
        };
        let map = TypeExpr {
            head: "HashMap".into(),
            args: vec![TypeExpr::leaf("CellId", 1, 1), vec],
            line: 1,
            col: 1,
        };
        assert_eq!(map.render(), "HashMap<CellId, Vec<Supi>>");
        assert!(map.mentions("Supi"));
        assert!(!map.mentions("Guti"));
        let tup = TypeExpr {
            head: "(tuple)".into(),
            args: vec![supi, TypeExpr::leaf("u32", 1, 1)],
            line: 1,
            col: 1,
        };
        assert_eq!(tup.render(), "(Supi, u32)");
    }
}
