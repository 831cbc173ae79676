//! The dataflow rule families layered on the AST + symbol table:
//!
//! * **R4 `state-flow`** — statelessness, the paper's S1–S5 claim (no
//!   per-UE state on the satellite) as a mechanical check. R4 asks the
//!   *typed* question: does this satellite-scope storage site (struct
//!   field, enum payload, static, lock wrapper) retain a value
//!   embedding a per-UE key — spelled out (`HashMap<Supi, …>`) or
//!   through type aliases, newtype wrappers, generic instantiations,
//!   and cross-crate struct fields? A site that spells a lock over a
//!   growable buffer (`Mutex<Vec<Vec<u8>>>`) is convicted too, key or
//!   not, unless it names an arena pool type. Findings carry a flow
//!   trace (retention site → embed chain → key declaration → mutating
//!   method → callers) for `--explain`.
//! * **R5 `parallel`** — determinism of the `SC_EMU_THREADS` parallel
//!   sweep: closures spawned into `thread::scope`/`parallel_map*`
//!   regions must not mutate captured locals, take ad-hoc locks, or
//!   iterate hash-ordered collections — any of which can reorder
//!   writes and break the byte-stable-results invariant.
//!
//! Both rules honor `// sc-audit: allow(...)` directives (R4 under
//! `state-flow`, R5 under `parallel`), skip `#[cfg(test)]`/`mod tests`
//! items, and are fatal on any unsuppressed finding.

use crate::ast::{Ast, ItemKind, TypeExpr};
use crate::lexer::{Lexed, Token, TokenKind};
use crate::rules::{hash_typed_names, is_allowed, path_matches, Config, ORDER_INSENSITIVE};
use crate::symbols::{Symbols, TypeDecl, TypeDeclKind};
use std::collections::HashSet;

/// One hop of a flow trace, printable as `file:line:col note`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStep {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub note: String,
}

/// An R4/R5 finding: position + message like [`crate::rules::Finding`],
/// plus the explaining trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowFinding {
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// `R4-state-flow` or `R5-parallel`.
    pub rule: &'static str,
    pub message: String,
    pub trace: Vec<FlowStep>,
}

impl std::fmt::Display for FlowFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{} {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// One parsed file, as assembled by the engine's first pass.
#[derive(Debug)]
pub struct FileUnit {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    pub lexed: Lexed,
    pub ast: Ast,
}

/// Collection heads that *retain* their elements for the life of the
/// container (growable, long-lived when stored in a field/static).
const COLLECTIONS: &[&str] = &[
    "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Vec", "VecDeque", "BinaryHeap",
];

/// Interior-mutability wrappers: holding one of these over an embedding
/// type is shared-mutable per-UE state.
const LOCKS: &[&str] = &["Mutex", "RwLock", "RefCell"];

/// Growable buffers that, held under a lock, are retained shared-mutable
/// scratch even with no per-UE key in sight (as opposed to, say,
/// `Mutex<SuffixAllocator>`, which holds fixed-shape internals).
const GROWABLE: &[&str] = &[
    "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Vec", "VecDeque", "String",
];

/// Transparent wrappers the retention probe looks through.
const WRAPPERS: &[&str] = &["Option", "Box", "Arc", "Rc", "Cell"];

/// In-place mutators, for capture-mutation detection and flow traces.
const MUTATORS: &[&str] = &[
    "insert", "push", "push_back", "push_front", "extend", "append", "entry", "remove",
    "clear", "retain", "replace",
];

// ---------------------------------------------------------------------
// R4 — state-flow
// ---------------------------------------------------------------------

/// Run R4 over every unit in `cfg.stateful_scope`.
pub fn rule_state_flow(units: &[FileUnit], symbols: &Symbols, cfg: &Config) -> Vec<FlowFinding> {
    let mut az = Analyzer {
        symbols,
        cfg,
        visiting: Vec::new(),
    };
    let mut out = Vec::new();
    for unit in units {
        if !path_matches(&unit.rel, &cfg.stateful_scope) {
            continue;
        }
        for item in &unit.ast.items {
            if item.in_tests {
                continue;
            }
            match &item.kind {
                ItemKind::Struct { fields } => {
                    for f in fields.iter().filter(|f| !f.excused) {
                        if let Some((why, chain)) = az.convicts(&f.ty) {
                            let mut trace = vec![FlowStep {
                                file: unit.rel.clone(),
                                line: f.line,
                                col: f.col,
                                note: format!(
                                    "state retained in field `{}.{}: {}`",
                                    item.name,
                                    f.name,
                                    f.ty.render()
                                ),
                            }];
                            trace.extend(chain);
                            trace.extend(mutation_chain(symbols, &item.name, &f.name));
                            out.push(FlowFinding {
                                file: unit.rel.clone(),
                                line: f.line,
                                col: f.col,
                                rule: "R4-state-flow",
                                message: format!(
                                    "field `{}.{}: {}` retains per-UE state ({why}) in \
                                     satellite-side module; delegate to the UE (S1/S3–S5) \
                                     or annotate `// sc-audit: allow(state-flow, reason = \
                                     \"…\")` — run with --explain for the flow trace",
                                    item.name,
                                    f.name,
                                    f.ty.render()
                                ),
                                trace,
                            });
                        }
                    }
                }
                ItemKind::Enum { variants } => {
                    for v in variants.iter().filter(|v| !v.excused) {
                        if let Some((why, chain)) = az.convicts(&v.ty) {
                            let mut trace = vec![FlowStep {
                                file: unit.rel.clone(),
                                line: v.line,
                                col: v.col,
                                note: format!(
                                    "state retained in variant `{}::{}`",
                                    item.name, v.name
                                ),
                            }];
                            trace.extend(chain);
                            out.push(FlowFinding {
                                file: unit.rel.clone(),
                                line: v.line,
                                col: v.col,
                                rule: "R4-state-flow",
                                message: format!(
                                    "enum variant `{}::{}` carries retained per-UE state \
                                     ({why}) in satellite-side module",
                                    item.name, v.name
                                ),
                                trace,
                            });
                        }
                    }
                }
                ItemKind::Static { ty } => {
                    // Bare `const KEY: Supi` is a copied constant, not
                    // retention — only retaining shapes fire here.
                    if let Some((why, chain)) = az.convicts(ty) {
                        let mut trace = vec![FlowStep {
                            file: unit.rel.clone(),
                            line: item.line,
                            col: item.col,
                            note: format!("state retained in static `{}`", item.name),
                        }];
                        trace.extend(chain);
                        out.push(FlowFinding {
                            file: unit.rel.clone(),
                            line: item.line,
                            col: item.col,
                            rule: "R4-state-flow",
                            message: format!(
                                "static `{}: {}` retains per-UE state ({why}); satellite \
                                 process lifetime is unbounded retention",
                                item.name,
                                ty.render()
                            ),
                            trace,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    out.retain(|f| {
        let unit = units.iter().find(|u| u.rel == f.file).expect("own unit");
        !is_allowed(&unit.lexed, "state-flow", f.line)
    });
    out
}

/// Append the write-path trace: which method mutates `owner.field`, and
/// who calls it (two caller hops, deterministic first-match).
fn mutation_chain(symbols: &Symbols, owner: &str, field: &str) -> Vec<FlowStep> {
    let mut steps = Vec::new();
    let Some(m) = symbols.mutators_of(owner, field).next() else {
        return steps;
    };
    steps.push(FlowStep {
        file: m.file.clone(),
        line: m.line,
        col: m.col,
        note: format!("written by `{}::{}`", owner, m.name),
    });
    let mut current = m.name.clone();
    for _ in 0..2 {
        let Some(c) = symbols.callers_of(&current).find(|f| f.name != current) else {
            break;
        };
        let qualified = match &c.self_ty {
            Some(s) => format!("{}::{}", s, c.name),
            None => c.name.clone(),
        };
        steps.push(FlowStep {
            file: c.file.clone(),
            line: c.line,
            col: c.col,
            note: format!("reached from `{qualified}`"),
        });
        current = c.name.clone();
    }
    steps
}

/// The memo-free recursive core. Cycles are cut with `visiting`; the
/// workspace is small enough (and chains shallow enough) that a memo
/// table would be tuning, not necessity — see the audit.sh wall-clock
/// budget, which keeps this honest.
struct Analyzer<'a> {
    symbols: &'a Symbols,
    cfg: &'a Config,
    visiting: Vec<String>,
}

impl Analyzer<'_> {
    /// What R4 convicts at a storage site declared in scope: retained
    /// per-UE state, or else a lock over a growable buffer spelled at the
    /// site itself. Ad-hoc shared-mutable scratch is how per-UE state
    /// creeps back by accretion, so it goes through the arena pool or
    /// carries a reasoned allow.
    fn convicts(&mut self, ty: &TypeExpr) -> Option<(String, Vec<FlowStep>)> {
        self.retains(ty).or_else(|| {
            let lock = adhoc_lock(ty, self.cfg)?;
            let why = format!(
                "lock-wrapped growable buffer `{lock}<…>`; pool scratch through the arena \
                 API (`MessageArena`/`BufId`)"
            );
            Some((why, Vec::new()))
        })
    }

    /// Does `ty` transitively embed a per-UE key? Returns the chain of
    /// hops (alias / field / variant, each with its decl site) ending
    /// at the key's own declaration.
    fn embeds(&mut self, ty: &TypeExpr) -> Option<Vec<FlowStep>> {
        if self.cfg.per_ue_keys.iter().any(|k| k == &ty.head) {
            let mut steps = Vec::new();
            if let Some(decl) = self.first_decl(&ty.head) {
                steps.push(FlowStep {
                    file: decl.file.clone(),
                    line: decl.line,
                    col: decl.col,
                    note: format!("per-UE key type `{}` declared here", ty.head),
                });
            }
            return Some(steps);
        }
        for arg in &ty.args {
            if let Some(chain) = self.embeds(arg) {
                return Some(chain);
            }
        }
        if self.visiting.iter().any(|v| v == &ty.head) {
            return None; // recursive type; already being checked above
        }
        self.visiting.push(ty.head.clone());
        let result = self.embeds_resolved(&ty.head);
        self.visiting.pop();
        result
    }

    /// Resolve `name` through the symbol table and recurse.
    fn embeds_resolved(&mut self, name: &str) -> Option<Vec<FlowStep>> {
        let decls = self.symbols.types.get(name)?.clone();
        for decl in &decls {
            match &decl.kind {
                TypeDeclKind::Alias(target) => {
                    if let Some(chain) = self.embeds(target) {
                        return Some(prepend(
                            decl,
                            format!("type alias `{name}` = `{}`", target.render()),
                            chain,
                        ));
                    }
                }
                TypeDeclKind::Struct(fields) => {
                    for f in fields.iter().filter(|f| !f.excused) {
                        if let Some(chain) = self.embeds(&f.ty) {
                            return Some(prepend_at(
                                decl,
                                f.line,
                                f.col,
                                format!("struct `{name}` field `{}`: `{}`", f.name, f.ty.render()),
                                chain,
                            ));
                        }
                    }
                }
                TypeDeclKind::Enum(variants) => {
                    for v in variants.iter().filter(|v| !v.excused) {
                        if let Some(chain) = self.embeds(&v.ty) {
                            return Some(prepend_at(
                                decl,
                                v.line,
                                v.col,
                                format!("enum `{name}` variant `{}` carries `{}`", v.name, v.ty.render()),
                                chain,
                            ));
                        }
                    }
                }
            }
        }
        None
    }

    /// Does `ty` *retain* per-UE state? (Embedding alone is not
    /// retention: `supi: Supi` on a request message is a value in
    /// flight. Retention is a growable collection, an interior-mutable
    /// wrapper, or a struct that itself retains.)
    fn retains(&mut self, ty: &TypeExpr) -> Option<(String, Vec<FlowStep>)> {
        if COLLECTIONS.contains(&ty.head.as_str()) {
            for arg in &ty.args {
                if let Some(chain) = self.embeds(arg) {
                    return Some((
                        format!("`{}` accumulates values embedding a per-UE key", ty.head),
                        chain,
                    ));
                }
            }
            return None;
        }
        if LOCKS.contains(&ty.head.as_str()) {
            // The arena pool is recycled handle-addressed scratch, never
            // subscriber-keyed.
            if locks_pool(ty, self.cfg) {
                return None;
            }
            for arg in &ty.args {
                if let Some((why, chain)) = self.retains(arg) {
                    return Some((format!("lock-wrapped: {why}"), chain));
                }
                if let Some(chain) = self.embeds(arg) {
                    return Some((
                        format!("`{}` holds shared-mutable per-UE data", ty.head),
                        chain,
                    ));
                }
            }
            return None;
        }
        if WRAPPERS.contains(&ty.head.as_str()) {
            for arg in &ty.args {
                if let Some(found) = self.retains(arg) {
                    return Some(found);
                }
            }
            return None;
        }
        // Resolve the head: alias hop, or a struct/enum whose own
        // fields retain. In-scope declarations are skipped — they are
        // flagged at their *own* field declaration, so reporting the
        // outer use too would double-count one defect.
        if self.visiting.iter().any(|v| v == &ty.head) {
            return None;
        }
        self.visiting.push(ty.head.clone());
        let result = self.retains_resolved(&ty.head);
        self.visiting.pop();
        result
    }

    fn retains_resolved(&mut self, name: &str) -> Option<(String, Vec<FlowStep>)> {
        let decls = self.symbols.types.get(name)?.clone();
        for decl in &decls {
            match &decl.kind {
                TypeDeclKind::Alias(target) => {
                    if let Some((why, chain)) = self.retains(target) {
                        return Some((
                            why,
                            prepend(decl, format!("type alias `{name}` = `{}`", target.render()), chain),
                        ));
                    }
                }
                TypeDeclKind::Struct(fields) => {
                    if path_matches(&decl.file, &self.cfg.stateful_scope) {
                        continue; // flagged at its own field decl
                    }
                    for f in fields.iter().filter(|f| !f.excused) {
                        if let Some((why, chain)) = self.retains(&f.ty) {
                            return Some((
                                why,
                                prepend_at(
                                    decl,
                                    f.line,
                                    f.col,
                                    format!(
                                        "via struct `{name}` (defined outside satellite scope) \
                                         field `{}`: `{}`",
                                        f.name,
                                        f.ty.render()
                                    ),
                                    chain,
                                ),
                            ));
                        }
                    }
                }
                TypeDeclKind::Enum(variants) => {
                    if path_matches(&decl.file, &self.cfg.stateful_scope) {
                        continue;
                    }
                    for v in variants.iter().filter(|v| !v.excused) {
                        if let Some((why, chain)) = self.retains(&v.ty) {
                            return Some((
                                why,
                                prepend_at(
                                    decl,
                                    v.line,
                                    v.col,
                                    format!("via enum `{name}` variant `{}`", v.name),
                                    chain,
                                ),
                            ));
                        }
                    }
                }
            }
        }
        None
    }

    fn first_decl(&self, name: &str) -> Option<&TypeDecl> {
        self.symbols.types.get(name)?.first()
    }
}

/// Is the lock `ty` the sanctioned arena pool: a lock of a pool type
/// itself (`Mutex<MessageArena>`), or of a growable of bare pool
/// handles (`Mutex<Vec<BufId>>`)? A lock that merely mentions a pool
/// type beside other data (`Mutex<Vec<(BufId, Supi)>>`) is not.
fn locks_pool(ty: &TypeExpr, cfg: &Config) -> bool {
    let bare = |t: &TypeExpr| t.args.is_empty() && cfg.pool_types.contains(&t.head);
    let pool = |t: &TypeExpr| {
        bare(t)
            || (GROWABLE.contains(&t.head.as_str()) && !t.args.is_empty() && t.args.iter().all(bare))
    };
    !ty.args.is_empty() && ty.args.iter().all(pool)
}

/// The first lock in `ty`'s own spelling that wraps a growable buffer
/// and is not the arena pool (see [`locks_pool`]).
fn adhoc_lock<'t>(ty: &'t TypeExpr, cfg: &Config) -> Option<&'t str> {
    let buffer = |a: &TypeExpr| GROWABLE.iter().any(|g| a.mentions(g));
    if LOCKS.contains(&ty.head.as_str()) && ty.args.iter().any(buffer) && !locks_pool(ty, cfg) {
        return Some(&ty.head);
    }
    ty.args.iter().find_map(|a| adhoc_lock(a, cfg))
}

fn prepend(decl: &TypeDecl, note: String, mut chain: Vec<FlowStep>) -> Vec<FlowStep> {
    chain.insert(
        0,
        FlowStep {
            file: decl.file.clone(),
            line: decl.line,
            col: decl.col,
            note,
        },
    );
    chain
}

fn prepend_at(decl: &TypeDecl, line: u32, col: u32, note: String, mut chain: Vec<FlowStep>) -> Vec<FlowStep> {
    chain.insert(
        0,
        FlowStep {
            file: decl.file.clone(),
            line,
            col,
            note,
        },
    );
    chain
}

// ---------------------------------------------------------------------
// R5 — parallel-determinism
// ---------------------------------------------------------------------

/// Run R5 over every unit in `cfg.parallel_scope` (the sc-emu sweep
/// engine and its callers).
pub fn rule_parallel(units: &[FileUnit], cfg: &Config) -> Vec<FlowFinding> {
    let mut out = Vec::new();
    for unit in units {
        if !path_matches(&unit.rel, &cfg.parallel_scope) {
            continue;
        }
        parallel_one(unit, &mut out);
    }
    out.retain(|f| {
        let unit = units.iter().find(|u| u.rel == f.file).expect("own unit");
        !is_allowed(&unit.lexed, "parallel", f.line)
    });
    out
}

fn parallel_one(unit: &FileUnit, out: &mut Vec<FlowFinding>) {
    let toks = &unit.lexed.tokens;
    let hashed = hash_typed_names(toks);
    // Token ranges of fn bodies under test subtrees: spawn sites inside
    // them are harness scenery, not sweep-engine code.
    let test_ranges: Vec<(usize, usize)> = unit
        .ast
        .fns()
        .filter(|(i, _)| i.in_tests)
        .filter_map(|(_, f)| f.body)
        .collect();
    let in_tests = |idx: usize| test_ranges.iter().any(|&(a, b)| a <= idx && idx < b);

    for (i, t) in toks.iter().enumerate() {
        let is_api =
            t.kind == TokenKind::Ident && (t.text == "spawn" || t.text.starts_with("parallel_map"));
        if !is_api || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) || in_tests(i) {
            continue;
        }
        let args_close = matching(toks, i + 1, "(", ")");
        let spawn_step = FlowStep {
            file: unit.rel.clone(),
            line: t.line,
            col: t.col,
            note: format!("parallel closure passed to `{}` here", t.text),
        };

        // (a) captured `let mut` locals: declared before the spawn in
        // this file, not shadowed by the closure's own params/lets.
        let mut captured: Vec<(String, u32, u32)> = Vec::new();
        for j in 0..i {
            if toks[j].is_ident("let")
                && toks.get(j + 1).is_some_and(|n| n.is_ident("mut"))
                && toks.get(j + 2).is_some_and(|n| n.kind == TokenKind::Ident)
            {
                let n = &toks[j + 2];
                captured.retain(|(name, _, _)| name != &n.text);
                captured.push((n.text.clone(), n.line, n.col));
            }
        }
        // Every closure argument runs on the workers: the per-item
        // closure and, for `parallel_map_init`, the per-worker `init` —
        // and so does a closure bound by `let` and passed by name
        // (`s.spawn(worker)`).
        let mut closures = Vec::new();
        let mut from = i + 2;
        while let Some(c) = closure_in(toks, from, args_close) {
            from = c.1 .1;
            closures.push(c);
        }
        for j in i + 2..args_close {
            let alone = toks[j - 1].is_punct('(') || toks[j - 1].is_punct(',');
            let ends = toks[j + 1].is_punct(')') || toks[j + 1].is_punct(',');
            if toks[j].kind == TokenKind::Ident && alone && ends {
                closures.extend(let_bound_closure(toks, i, &toks[j].text));
            }
        }
        for (params, body) in closures {
            let mut local: HashSet<&str> = params.iter().map(String::as_str).collect();
            for j in body.0..body.1 {
                if toks[j].is_ident("let") {
                    let mut k = j + 1;
                    if toks.get(k).is_some_and(|n| n.is_ident("mut")) {
                        k += 1;
                    }
                    if let Some(n) = toks.get(k).filter(|n| n.kind == TokenKind::Ident) {
                        local.insert(&n.text);
                    }
                }
            }

            for j in body.0..body.1 {
                let tk = &toks[j];
                if tk.kind != TokenKind::Ident {
                    continue;
                }
                let field_access = j > 0 && toks[j - 1].is_punct('.');

                // (a) mutation of a captured local.
                if !field_access && !local.contains(tk.text.as_str()) {
                    if let Some((_, dl, dc)) = captured.iter().find(|(n, _, _)| n == &tk.text) {
                        if is_mutation(toks, j) {
                            out.push(FlowFinding {
                                file: unit.rel.clone(),
                                line: tk.line,
                                col: tk.col,
                                rule: "R5-parallel",
                                message: format!(
                                    "parallel closure mutates captured `{}`; cross-thread write \
                                     order is nondeterministic under SC_EMU_THREADS — return the \
                                     value and aggregate through the slot-ordered results \
                                     protocol, or annotate `// sc-audit: allow(parallel, reason \
                                     = \"…\")`",
                                    tk.text
                                ),
                                trace: vec![
                                    spawn_step.clone(),
                                    FlowStep {
                                        file: unit.rel.clone(),
                                        line: *dl,
                                        col: *dc,
                                        note: format!("captured binding `{}` declared here", tk.text),
                                    },
                                ],
                            });
                        }
                    }
                }

                // (b) ad-hoc shared-mutable access inside the closure.
                if field_access
                    && (tk.text == "lock" || tk.text == "write" || tk.text == "borrow_mut")
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                {
                    out.push(FlowFinding {
                        file: unit.rel.clone(),
                        line: tk.line,
                        col: tk.col,
                        rule: "R5-parallel",
                        message: format!(
                            "`.{}()` on shared state inside a parallel closure; acquisition \
                             order varies across runs — writes must be slot-ordered and \
                             commutative to keep results byte-stable, or annotate \
                             `// sc-audit: allow(parallel, reason = \"…\")`",
                            tk.text
                        ),
                        trace: vec![spawn_step.clone()],
                    });
                }

                // (c) hash-ordered iteration inside the closure.
                let is_hashed = hashed.binary_search(&tk.text).is_ok();
                if is_hashed && !field_access {
                    let iterates = {
                        let m = toks.get(j + 1).zip(toks.get(j + 2));
                        let method_iter = m.is_some_and(|(d, n)| {
                            d.is_punct('.')
                                && ["iter", "keys", "values", "into_iter", "drain"]
                                    .iter()
                                    .any(|x| n.is_ident(x))
                        });
                        let for_in = (body.0..j).rev().take(6).any(|k| toks[k].is_ident("in"))
                            && (body.0..j).rev().take(8).any(|k| toks[k].is_ident("for"));
                        method_iter || for_in
                    };
                    if iterates {
                        let stmt_end = (j..body.1)
                            .find(|&k| toks[k].is_punct(';') || toks[k].is_punct('{'))
                            .unwrap_or(body.1 - 1);
                        let sanctioned = toks[j..=stmt_end].iter().any(|x| {
                            x.kind == TokenKind::Ident && ORDER_INSENSITIVE.contains(&x.text.as_str())
                        });
                        if !sanctioned {
                            out.push(FlowFinding {
                                file: unit.rel.clone(),
                                line: tk.line,
                                col: tk.col,
                                rule: "R5-parallel",
                                message: format!(
                                    "hash-ordered iteration over `{}` inside a parallel closure; \
                                     per-thread order differences leak into results — sort first \
                                     or use a BTree collection",
                                    tk.text
                                ),
                                trace: vec![spawn_step.clone()],
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Is the identifier at `j` the target of a mutation (`x = …`, `x += …`,
/// `x.push(…)`)?
fn is_mutation(toks: &[Token], j: usize) -> bool {
    let Some(n1) = toks.get(j + 1) else { return false };
    if n1.is_punct('=') {
        // `=` but not `==` / `=>`.
        return !toks
            .get(j + 2)
            .is_some_and(|n| n.is_punct('=') || n.is_punct('>'));
    }
    if n1.kind == TokenKind::Punct
        && matches!(n1.text.as_str(), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^")
        && toks.get(j + 2).is_some_and(|n| n.is_punct('='))
    {
        return true;
    }
    n1.is_punct('.')
        && toks
            .get(j + 2)
            .is_some_and(|n| MUTATORS.contains(&n.text.as_str()))
        && toks.get(j + 3).is_some_and(|n| n.is_punct('('))
}

/// The closure bound by the last `let name = …;` before token `before`,
/// if that binding is a closure.
fn let_bound_closure(
    toks: &[Token],
    before: usize,
    name: &str,
) -> Option<(Vec<String>, (usize, usize))> {
    let at = (1..before)
        .rev()
        .find(|&k| toks[k - 1].is_ident("let") && toks[k].is_ident(name))?;
    let eq = at + 1;
    if !toks.get(eq).is_some_and(|t| t.is_punct('=')) {
        return None;
    }
    let rhs = toks.get(eq + 1)?;
    if !(rhs.is_punct('|') || rhs.is_ident("move")) {
        return None;
    }
    let mut depth = 0i32;
    let end = (eq + 1..toks.len()).find(|&k| {
        match toks[k].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
        depth == 0 && toks[k].is_punct(';')
    })?;
    closure_in(toks, eq + 1, end)
}

/// Find the first closure `|params| body` / `move || { body }` between
/// token indices `start` and `end`; returns its param names and the
/// half-open body range.
fn closure_in(toks: &[Token], start: usize, end: usize) -> Option<(Vec<String>, (usize, usize))> {
    let mut j = start;
    while j < end {
        if toks[j].is_punct('|') {
            break;
        }
        // Skip nested groups so `f(a[i], || …)` finds the closure.
        match toks[j].text.as_str() {
            "(" => j = matching(toks, j, "(", ")"),
            "[" => j = matching(toks, j, "[", "]"),
            "{" => j = matching(toks, j, "{", "}"),
            _ => {}
        }
        j += 1;
    }
    if j >= end {
        return None;
    }
    // Params up to the closing `|`.
    let mut params = Vec::new();
    let mut k = j + 1;
    while k < end && !toks[k].is_punct('|') {
        if toks[k].kind == TokenKind::Ident && !toks[k].is_ident("mut") {
            // First ident of each comma-separated pattern is the binding.
            if params.is_empty() || toks[k - 1].is_punct(',') || toks[k - 1].is_ident("mut") {
                params.push(toks[k].text.clone());
            }
        }
        k += 1;
    }
    if k >= end {
        return None;
    }
    let body_start = k + 1;
    let body_end = if toks.get(body_start).is_some_and(|t| t.is_punct('{')) {
        matching(toks, body_start, "{", "}") + 1
    } else {
        // Expression body: to the `,`/`)` closing this argument.
        let mut depth = 0i32;
        let mut e = body_start;
        while e < end {
            match toks[e].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth <= 0 => break,
                _ => {}
            }
            e += 1;
        }
        e
    };
    Some((params, (body_start, body_end.min(end + 1))))
}

/// Index of the token closing the balanced region opened at `open_at`.
pub(crate) fn matching(toks: &[Token], open_at: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open_at) {
        if t.kind == TokenKind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn units(files: &[(&str, &str)]) -> Vec<FileUnit> {
        files
            .iter()
            .map(|(rel, src)| {
                let lexed = lex(src);
                let excuse = |line: u32| is_allowed(&lexed, "state-flow", line);
                let ast = parse(&lexed, &excuse);
                FileUnit {
                    rel: rel.to_string(),
                    lexed,
                    ast,
                }
            })
            .collect()
    }

    fn r4(files: &[(&str, &str)]) -> Vec<FlowFinding> {
        let us = units(files);
        let symbols = Symbols::build(
            us.iter()
                .map(|u| (u.rel.as_str(), &u.ast, u.lexed.tokens.as_slice())),
        );
        rule_state_flow(&us, &symbols, &Config::default())
    }

    const IDS: (&str, &str) = (
        "crates/fiveg/src/ids.rs",
        "pub struct Supi(pub u64);\npub type SessionKey = Supi;\npub struct TrackedUe { pub supi: Supi, pub rtt: f64 }",
    );

    #[test]
    fn alias_laundered_key_is_caught_with_trace() {
        let f = r4(&[
            IDS,
            (
                "crates/spacecore/src/satcache.rs",
                "pub struct SessionCache { pub seen: HashSet<SessionKey> }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "R4-state-flow");
        assert_eq!((f[0].line, f[0].file.as_str()), (1, "crates/spacecore/src/satcache.rs"));
        let notes: Vec<_> = f[0].trace.iter().map(|s| s.note.as_str()).collect();
        assert!(notes.iter().any(|n| n.contains("type alias `SessionKey`")), "{notes:?}");
        assert!(notes.iter().any(|n| n.contains("per-UE key type `Supi`")), "{notes:?}");
    }

    #[test]
    fn field_embedded_key_through_cross_crate_struct() {
        let f = r4(&[
            IDS,
            (
                "crates/spacecore/src/satcache.rs",
                "pub struct SessionCache { pub recent: Vec<TrackedUe> }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0]
            .trace
            .iter()
            .any(|s| s.note.contains("struct `TrackedUe` field `supi`")), "{:?}", f[0].trace);
    }

    #[test]
    fn plain_value_fields_and_out_of_scope_are_negative() {
        let f = r4(&[
            IDS,
            (
                "crates/fiveg/src/msg.rs",
                "pub struct Register { pub supi: Supi, pub seq: u32 }",
            ),
            (
                "crates/emu/src/ground.rs",
                "pub struct GroundDb { pub all: Vec<TrackedUe> }",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_and_excused_fields_suppress_including_containers() {
        let f = r4(&[
            IDS,
            (
                "crates/spacecore/src/satellite.rs",
                "pub struct Sat {\n    // sc-audit: allow(state-flow, reason = \"bounded LRU, evicted on handover\")\n    pub seen: HashSet<SessionKey>,\n}\npub struct Fleet { pub sats: Vec<Sat> }",
            ),
        ]);
        // The allowed field is suppressed AND `Vec<Sat>` does not
        // cascade-fire one level up (the field is excused in the table).
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn statics_declared_inside_macros_are_read() {
        // `thread_local!` (and `lazy_static!`'s `static ref`) declare
        // their statics inside a macro body; the parser reads the body
        // as items, so each store is convicted like a plain static.
        let f = r4(&[
            IDS,
            (
                "crates/spacecore/src/satellite.rs",
                "thread_local! {\n    static SEEN: RefCell<HashMap<Supi, u32>> = RefCell::new(HashMap::new());\n}\n\
                 lazy_static! {\n    static ref LOG: Mutex<Vec<u8>> = Mutex::new(Vec::new());\n}\n",
            ),
        ]);
        let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [2, 5], "{f:?}");
        assert!(f[0].message.contains("per-UE key"), "{}", f[0].message);
        assert!(f[1].message.contains("lock-wrapped growable buffer"), "{}", f[1].message);
    }

    #[test]
    fn mutation_chain_appears_in_trace() {
        let f = r4(&[
            IDS,
            (
                "crates/spacecore/src/satcache.rs",
                "pub struct SessionCache { pub seen: HashSet<SessionKey> }\n\
                 impl SessionCache { pub fn note(&mut self, k: SessionKey) { self.seen.insert(k); } }\n\
                 pub struct Sat { pub cache: SessionCache }\n\
                 impl Sat { pub fn handle(&mut self, k: SessionKey) { self.cache.note(k); } }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        let notes: Vec<_> = f[0].trace.iter().map(|s| s.note.as_str()).collect();
        assert!(notes.iter().any(|n| n.contains("written by `SessionCache::note`")), "{notes:?}");
        assert!(notes.iter().any(|n| n.contains("reached from `Sat::handle`")), "{notes:?}");
    }

    fn r5(src: &str) -> Vec<FlowFinding> {
        let us = units(&[("crates/emu/src/par.rs", src)]);
        rule_parallel(&us, &Config::default())
    }

    #[test]
    fn captured_mut_flagged_param_and_local_ok() {
        let src = "
            fn sweep(s: &Scope) {
                let mut total = 0u64;
                s.spawn(move || {
                    let mut local = 0;
                    local += 1;
                    total += local;
                });
            }
        ";
        let f = r5(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "R5-parallel");
        assert!(f[0].message.contains("captured `total`"), "{}", f[0].message);
        assert!(f[0].trace.iter().any(|s| s.note.contains("declared here")));
    }

    #[test]
    fn every_closure_argument_is_checked() {
        // `parallel_map_init(threads, items, init, f)`: the per-worker
        // `init` and the per-item `f` both run on the workers.
        let src = "
            fn sweep(items: Vec<u32>) {
                let mut built = 0u64;
                let mut seen = 0u64;
                parallel_map_init(2, items, || { built += 1; Vec::new() }, |buf, i| {
                    buf.push(i);
                    seen += 1;
                });
            }
        ";
        let f = r5(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("captured `built`"), "{}", f[0].message);
        assert!(f[1].message.contains("captured `seen`"), "{}", f[1].message);
    }

    #[test]
    fn closure_passed_by_name_is_checked() {
        let src = "
            fn sweep(s: &Scope, shared: &Mutex<Vec<u8>>) {
                let worker = || loop {
                    shared.lock().push(1);
                };
                let helper = 3;
                s.spawn(worker);
                s.spawn(helper);
            }
        ";
        let f = r5(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains(".lock()"), "{}", f[0].message);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn lock_in_closure_flagged_and_allow_suppresses() {
        let src = "
            fn sweep(s: &Scope, shared: &Mutex<Vec<u8>>) {
                s.spawn(|| { shared.lock().push(1); });
            }
        ";
        let f = r5(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains(".lock()"), "{}", f[0].message);

        let src = "
            fn sweep(s: &Scope, shared: &Mutex<Vec<u8>>) {
                // sc-audit: allow(parallel, reason = \"slot-ordered; one writer per index\")
                s.spawn(|| { shared.lock().push(1); });
            }
        ";
        assert!(r5(src).is_empty());
    }

    #[test]
    fn hash_iteration_in_closure_flagged_unless_order_insensitive() {
        let src = "
            fn sweep(s: &Scope, m: &HashMap<u32, f64>) {
                let m: HashMap<u32, f64> = HashMap::new();
                s.spawn(|| { for (k, v) in &m { emit(k, v); } });
            }
        ";
        let f = r5(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("hash-ordered"), "{}", f[0].message);

        let src = "
            fn sweep(s: &Scope) {
                let m: HashMap<u32, f64> = HashMap::new();
                s.spawn(move || { let t: f64 = m.values().sum(); use_it(t); });
            }
        ";
        assert!(r5(src).is_empty());
    }

    #[test]
    fn spawn_in_test_mod_is_skipped() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn harness(s: &Scope, shared: &Mutex<Vec<u8>>) {
                    s.spawn(|| { shared.lock().push(1); });
                }
            }
        ";
        assert!(r5(src).is_empty());
    }
}
