//! **R6 `orphan`** — no module without a caller.
//!
//! A module `crates/<c>/src/<m>.rs` stays only if something that *runs*
//! reaches it. The roots are the files nothing has to call: every
//! crate's `lib.rs` (the `EXPERIMENTS` table is `sc-emu`'s), `main.rs`
//! and `src/bin/`, plus the workspace's root `src/`, `tests/`,
//! `examples/` and `benchmark/src/`, which the engine lexes for this
//! rule only. A module's own `#[cfg(test)]` code, its crate's `tests/`
//! and `benches/` are not roots and are not read: code that only its own
//! tests run is weight, not evidence.
//!
//! File F references module `m` of crate `c` when a path in F starts at
//! a root of `c` — `sc_<c>` or `<c>`, or `crate` / `self` / `super`
//! inside `c` — and its next segment, with `use` groups flattened and
//! an inline `lib.rs` module such as `prelude` stepped through, is `m`
//! or a name `c`'s `lib.rs` re-exports from `m`. So an unrelated
//! `Entity::Pcf` elsewhere does not keep a module `pcf` alive, which a
//! name-level search cannot tell. Where F glob-imports that root
//! (`use sc_c::*`, `use c::prelude::*`) the names arrive unqualified,
//! and F falls back to bare matching: a path there that starts with a
//! re-exported name, or with `m::`. In `c`'s own `lib.rs` the modules
//! are in scope as they are, so there a bare `m` counts too — that is
//! how the `experiment!(fig05, …)` rows reach their modules.
//! `mod m;` and `pub use` lines of a `lib.rs` are not references.
//!
//! Liveness spreads from the roots to a fixpoint, so a module reached
//! only from orphans is an orphan. A finding sits on the `mod` line in
//! `lib.rs`, is fatal (no baseline counter), and is suppressed
//! only by `// sc-audit: allow(orphan, reason = "…")` there. Where the
//! rule approximates (macro arguments, `super` in a nested module, a
//! local named like a crate) it errs toward *no finding*; the one shape
//! it does not read is a `pub use m::*` in `lib.rs`, which re-exports
//! no name it can see — name them.

use crate::flow::matching;
use crate::lexer::{Lexed, Token, TokenKind};
use crate::rules::{is_allowed, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// Where `crates/<c>/src/<first>[.rs|/…]` sits: (`c`, `first`).
fn place(rel: &str) -> Option<(&str, &str)> {
    let (c, rest) = rel.strip_prefix("crates/")?.split_once("/src/")?;
    let first = rest.split('/').next()?;
    Some((c, first.strip_suffix(".rs").unwrap_or(first)))
}

fn path_sep(toks: &[Token], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(':')) && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

/// End of the statement starting at `from`: its `;`, or the `}` of its
/// first block, whichever comes first outside `(…)` / `[…]`.
fn statement_end(toks: &[Token], from: usize) -> usize {
    let mut i = from;
    while let Some(t) = toks.get(i) {
        match t.text.as_str() {
            ";" => return i,
            "{" => return matching(toks, i, "{", "}"),
            "(" => i = matching(toks, i, "(", ")"),
            "[" => i = matching(toks, i, "[", "]"),
            _ => {}
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Tokens R6 must not read as references: items under a `#[cfg(test)]`
/// attribute and, in a `lib.rs`, the `mod m;` / `pub use …;` lines.
fn masked(toks: &[Token], is_lib: bool) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let end = if t.is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let close = matching(toks, i + 1, "[", "]");
            let has = |s: &str| toks[i..close].iter().any(|t| t.is_ident(s));
            if has("cfg") && has("test") && !has("not") {
                statement_end(toks, close + 1)
            } else {
                i = close + 1;
                continue;
            }
        } else if is_lib && t.is_ident("mod") && toks.get(i + 2).is_some_and(|t| t.is_punct(';')) {
            i + 2
        } else if is_lib && t.is_ident("use") && i > 0 && ["pub", ")"].contains(&toks[i - 1].text.as_str()) {
            statement_end(toks, i)
        } else {
            i += 1;
            continue;
        };
        mask[i..=end].fill(true);
        i = end + 1;
    }
    mask
}

/// Every path among the unmasked tokens, as its segments, with the
/// `{…}` groups of a `use` flattened: `use a::{b::T, c::*}` reads
/// `[a]`, `[a, b, T]`, `[a, c, *]`.
fn paths<'a>(toks: &'a [Token], mask: &[bool]) -> Vec<Vec<&'a str>> {
    let mut out: Vec<Vec<&str>> = Vec::new();
    // Per open `{`: the path its group continues (none for a block).
    let mut open: Vec<Vec<&str>> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let continues = i >= 2 && path_sep(toks, i - 2);
        if t.is_punct('{') {
            open.push(out.last().filter(|_| continues).cloned().unwrap_or_default());
        } else if t.is_punct('}') {
            open.pop();
        } else if t.kind == TokenKind::Ident
            && !(mask[i] || continues || t.text == "as" || (i > 0 && toks[i - 1].is_punct('.')))
        {
            let mut segs = open.last().cloned().unwrap_or_default();
            let mut j = i;
            loop {
                segs.push(toks[j].text.as_str());
                let next = toks.get(j + 3).filter(|_| path_sep(toks, j + 1));
                if !next.is_some_and(|n| n.kind == TokenKind::Ident || n.is_punct('*')) {
                    break;
                }
                j += 3;
            }
            out.push(segs);
        }
    }
    out
}

/// `p` without its leading `crate` / `self` / `super` segments.
fn unrooted<'a, 'p>(p: &'p [&'a str]) -> &'p [&'a str] {
    let lead = p.iter().take_while(|s| ["crate", "self", "super"].contains(s)).count();
    &p[lead..]
}

/// What `crates/<c>/src/lib.rs` declares.
#[derive(Default)]
struct CrateRoot<'a> {
    /// `mod m;` declarations outside `#[cfg(test)]`, in source order,
    /// each with the position of its `mod` token.
    mods: Vec<(&'a str, u32, u32)>,
    /// Inline `mod x { … }` blocks: transparent path segments.
    inline: BTreeSet<&'a str>,
    /// Name → the module a `use` line brings it to the crate root from.
    reexports: BTreeMap<&'a str, &'a str>,
}

impl<'a> CrateRoot<'a> {
    fn read(toks: &'a [Token]) -> Self {
        let mut root = CrateRoot::default();
        let tests = &masked(toks, false);
        let live = |kw: &'static str| {
            toks.iter().enumerate().filter(move |(i, t)| !tests[*i] && t.is_ident(kw)).map(|(i, _)| i)
        };
        for i in live("mod") {
            let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else { continue };
            if toks.get(i + 2).is_some_and(|n| n.is_punct(';')) {
                root.mods.push((&name.text, toks[i].line, toks[i].col));
            } else {
                root.inline.insert(&name.text);
            }
        }
        for i in live("use") {
            let line = i + 1..statement_end(toks, i).max(i + 1);
            for p in paths(&toks[line.clone()], &tests[line]) {
                if let [m, .., name] = *unrooted(&p) {
                    if root.has(m) && name != "self" {
                        root.reexports.insert(name, m);
                    }
                }
            }
        }
        root
    }

    fn has(&self, m: &str) -> bool {
        self.mods.iter().any(|(name, ..)| *name == m)
    }

    /// The module a path names, its segments counted from this crate's
    /// root; `*` where it globs the root instead.
    fn resolve(&self, segs: &[&'a str]) -> Option<&'a str> {
        match *segs {
            [s, ref rest @ ..] if self.inline.contains(s) => self.resolve(rest),
            [s, ..] if s == "*" || self.has(s) => Some(s),
            [s, ..] => self.reexports.get(s).copied(),
            [] => None,
        }
    }
}

/// R6 over a whole workspace: `files` are (relative path, tokens) for
/// everything under `crates/` plus the reference-only roots. Returns
/// the findings and, apart, the ones an `allow(orphan, …)` suppresses.
pub fn rule_orphan(files: &[(&str, &Lexed)]) -> (Vec<Finding>, Vec<Finding>) {
    // Who is what: module files by (crate, module), `lib.rs` by crate,
    // and the files liveness starts from.
    let mut nodes: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut roots: BTreeMap<&str, (usize, CrateRoot)> = BTreeMap::new();
    let mut live: Vec<usize> = Vec::new();
    for (idx, (rel, lexed)) in files.iter().enumerate() {
        match place(rel) {
            Some((c, "lib")) => {
                roots.insert(c, (idx, CrateRoot::read(&lexed.tokens)));
                live.push(idx);
            }
            Some((_, "main" | "bin")) => live.push(idx),
            Some(node) => nodes.entry(node).or_default().push(idx),
            // `crates/<c>/tests`, `benches`: neither module nor root.
            None if rel.starts_with("crates/") => {}
            None => live.push(idx),
        }
    }

    let mut reached: BTreeSet<(&str, &str)> = BTreeSet::new();
    while let Some(idx) = live.pop() {
        let (rel, lexed) = files[idx];
        let at = place(rel);
        let (own, is_lib) = (at.map(|(c, _)| c), at.is_some_and(|(_, first)| first == "lib"));
        let paths = paths(&lexed.tokens, &masked(&lexed.tokens, is_lib));
        let mut refs: Vec<(&str, &str)> = Vec::new();
        // Crates whose names are in scope unqualified here.
        let mut bare: Vec<&str> = own.filter(|_| is_lib).into_iter().collect();
        for p in &paths {
            let c = match p[0] {
                "crate" | "self" | "super" => own,
                name => Some(name.strip_prefix("sc_").unwrap_or(name)),
            };
            let Some((&c, (_, root))) = c.and_then(|c| roots.get_key_value(c)) else { continue };
            match root.resolve(unrooted(&p[1..])) {
                Some("*") => bare.push(c),
                Some(m) => refs.push((c, m)),
                None => {}
            }
        }
        for c in bare {
            let (_, root) = &roots[c];
            let in_root = own == Some(c) && is_lib;
            // A module's bare name is a path head, or in scope in its
            // own `lib.rs`; a re-exported name counts anywhere.
            let named = paths.iter().filter(|p| p.len() > 1 || in_root || !root.has(p[0]));
            refs.extend(named.filter_map(|p| root.resolve(p)).map(|m| (c, m)));
        }
        for node in refs {
            if let Some(node_files) = nodes.get(&node) {
                if reached.insert(node) {
                    live.extend(node_files);
                }
            }
        }
    }

    let (mut findings, mut suppressed) = (Vec::new(), Vec::new());
    for (c, (lib, root)) in &roots {
        let (file, lexed) = files[*lib];
        for &(m, line, col) in &root.mods {
            if reached.contains(&(*c, m)) || !nodes.contains_key(&(*c, m)) {
                continue;
            }
            let out = if is_allowed(lexed, "orphan", line) { &mut suppressed } else { &mut findings };
            out.push(Finding {
                file: file.to_string(),
                line,
                col,
                rule: "R6-orphan",
                message: format!(
                    "module `{c}::{m}` is reached by no experiment, binary, root test, example or \
                     benchmark (its own tests, its crate's `tests/` and benches do not count); delete \
                     it with its re-exports or annotate with `// sc-audit: allow(orphan, reason = \"…\")`"
                ),
            });
        }
    }
    (findings, suppressed)
}
