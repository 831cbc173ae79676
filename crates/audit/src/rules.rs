//! The rule families enforced by `sc-audit`, expressed over the token
//! stream of [`crate::lexer`]:
//!
//! * **R1 `stateful`** — per-UE keyed collections (`HashMap`/`BTreeMap`
//!   keyed by `Supi`, `Imsi`, `UeId`, `Suci`, `Guti`, `Tmsi`) are
//!   forbidden in satellite-side modules unless carrying an explicit
//!   `// sc-audit: allow(stateful, reason = "…")` justification. This is
//!   the paper's S1–S5 claim (no per-UE state on the satellite) as a
//!   mechanical check. A second probe flags *retained lock-wrapped
//!   collections* (`Mutex<Vec<…>>`, `RwLock<HashMap<…>>`, …) — ad-hoc
//!   shared-mutable buffers that tend to grow into session state. The
//!   arena API is the sanctioned way to pool encode buffers: types in
//!   [`Config::pool_types`] (`MessageArena`, `BufId`) hold recycled,
//!   content-free scratch space keyed by handle, never by subscriber, so
//!   `Mutex<MessageArena>` (and pools of `BufId` handles) are exempt.
//! * **R2 `timing`/`rng`/`unordered`/`float-cmp`** — determinism: no
//!   wall-clock reads outside the timing allowlist, no unseeded RNG, no
//!   direct iteration of hash-ordered collections into emitted results,
//!   no `partial_cmp(..).unwrap()` (use `total_cmp`).
//! * **R3 ratchet** — per-crate counts of `unwrap()` / `expect(` /
//!   `panic!` / `unsafe`, compared against `audit.baseline.toml` by the
//!   engine (counting happens here, comparison in [`crate::engine`]).

use crate::lexer::{Lexed, Token, TokenKind};

/// A single rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Rule id, e.g. `R1-stateful`.
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{} {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Per-crate panic-hygiene counters (the R3 ratchet quantities).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PanicCounts {
    pub unwrap: u32,
    pub expect: u32,
    pub panic: u32,
    pub r#unsafe: u32,
}

impl PanicCounts {
    pub fn total(&self) -> u32 {
        self.unwrap + self.expect + self.panic + self.r#unsafe
    }

    pub fn add(&mut self, o: &PanicCounts) {
        self.unwrap += o.unwrap;
        self.expect += o.expect;
        self.panic += o.panic;
        self.r#unsafe += o.r#unsafe;
    }
}

/// Static rule configuration. The defaults encode this repository's
/// layout; tests override them to point at fixtures.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes where R1 (per-UE keyed collections) applies: the
    /// satellite-side modules and the 5G NF hot paths. The sc-obs
    /// windowed-series buffers inside this scope are fine by
    /// construction — dense window-indexed `Vec`s keyed by sim-time
    /// window, never by subscriber identity — so R1's per-UE-key probe
    /// does not (and must not) fire on the series API.
    pub stateful_scope: Vec<String>,
    /// Files (or path prefixes) allowed to read wall clocks: the two
    /// wall-clock reporters and the Criterion targets.
    pub timing_allowlist: Vec<String>,
    /// Path prefixes where R5 (parallel-determinism) applies: the
    /// emulator's deterministic parallel sweep engine and its callers.
    pub parallel_scope: Vec<String>,
    /// Type names treated as per-UE keys.
    pub per_ue_keys: Vec<String>,
    /// Pooled-buffer types from the message arena API. These hold
    /// recycled scratch space addressed by handle (`BufId`), never by
    /// subscriber identity, so lock-wrapping them on the satellite is
    /// not retained per-UE state and R1's retained-lock probe skips
    /// them.
    pub pool_types: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            stateful_scope: vec![
                "crates/spacecore/src/".into(),
                "crates/fiveg/src/".into(),
                "crates/obs/src/".into(),
            ],
            timing_allowlist: vec![
                "crates/emu/src/fig18.rs".into(),
                "crates/emu/src/report.rs".into(),
                "crates/bench/benches/".into(),
            ],
            parallel_scope: vec!["crates/emu/src/".into()],
            per_ue_keys: ["Supi", "Imsi", "UeId", "Suci", "Guti", "Tmsi"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            pool_types: ["MessageArena", "BufId"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

/// Iterator-chain methods whose result does not depend on hash-map
/// iteration order, and type names that restore a total order; their
/// presence in the same statement suppresses R2-unordered (and R5's
/// hash-iteration probe in [`crate::flow`]).
pub(crate) const ORDER_INSENSITIVE: &[&str] = &[
    "sum", "count", "len", "is_empty", "min", "max", "min_by", "max_by", "min_by_key",
    "max_by_key", "all", "any", "contains", "contains_key", "sort", "sort_by", "sort_unstable",
    "sort_by_key", "sort_unstable_by", "sort_unstable_by_key", "BTreeMap", "BTreeSet",
];

/// Audit one file's token stream. `rel_path` is workspace-relative with
/// forward slashes (it selects which rules apply). Returns the findings
/// and the file's R3 counters.
pub fn audit_tokens(rel_path: &str, lexed: &Lexed, cfg: &Config) -> (Vec<Finding>, PanicCounts) {
    let mut findings = Vec::new();
    let toks = &lexed.tokens;

    rule_stateful(rel_path, lexed, cfg, &mut findings);
    rule_retained_lock(rel_path, lexed, cfg, &mut findings);
    rule_timing(rel_path, lexed, cfg, &mut findings);
    rule_rng(rel_path, lexed, &mut findings);
    rule_float_cmp(rel_path, lexed, &mut findings);
    rule_unordered(rel_path, lexed, &mut findings);

    // R3 — counting only; ratcheting against the baseline happens at
    // workspace level.
    let mut counts = PanicCounts::default();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        match t.text.as_str() {
            "unwrap" if prev_dot && next_paren => counts.unwrap += 1,
            "expect" if prev_dot && next_paren => counts.expect += 1,
            "panic" if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) => counts.panic += 1,
            "unsafe" => counts.r#unsafe += 1,
            _ => {}
        }
    }

    // Apply `sc-audit: allow(rule, reason = …)` suppressions.
    findings.retain(|f| !is_allowed(lexed, rule_key(f.rule), f.line));
    (findings, counts)
}

/// Map a rule id to its allow()-directive key.
fn rule_key(rule: &str) -> &str {
    rule.split_once('-').map_or(rule, |(_, k)| k)
}

/// Is a finding of `key` on `line` covered by a directive? A directive
/// covers its own line (trailing comment) and the next line that holds
/// any token (annotation-above).
pub(crate) fn is_allowed(lexed: &Lexed, key: &str, line: u32) -> bool {
    lexed.directives.iter().any(|d| {
        d.rule == key
            && (d.line == line
                || lexed
                    .token_lines
                    .iter()
                    .find(|&&l| l > d.line)
                    .is_some_and(|&l| l == line))
    })
}

pub(crate) fn path_matches(rel_path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p.as_str()))
}

/// R1 — per-UE keyed collection type mentions in satellite-side scope.
/// `pub(crate)`: the engine re-runs this pre-suppression to compute the
/// sites R4 must not double-report.
pub(crate) fn rule_stateful(rel_path: &str, lexed: &Lexed, cfg: &Config, out: &mut Vec<Finding>) {
    if !path_matches(rel_path, &cfg.stateful_scope) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("BTreeMap")) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else { continue };
        if !next.is_punct('<') {
            continue;
        }
        // Collect identifiers in the key position: everything from the
        // `<` to the first `,` at angle depth 1 / paren depth 0.
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut key_idents: Vec<&Token> = Vec::new();
        for tk in &toks[i + 1..] {
            match tk.kind {
                TokenKind::Punct => match tk.text.as_str() {
                    "<" => angle += 1,
                    ">" => {
                        angle -= 1;
                        if angle == 0 {
                            break;
                        }
                    }
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "," if angle == 1 && paren == 0 => break,
                    ";" => break, // malformed / end of item
                    _ => {}
                },
                TokenKind::Ident
                    if angle >= 1 => {
                        key_idents.push(tk);
                    }
                _ => {}
            }
        }
        if let Some(k) = key_idents
            .iter()
            .find(|k| cfg.per_ue_keys.iter().any(|p| p == &k.text))
        {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                col: t.col,
                rule: "R1-stateful",
                message: format!(
                    "per-UE keyed collection `{}<{}, …>` in satellite-side module; \
                     delegate this state to the UE (S1/S3–S5) or annotate with \
                     `// sc-audit: allow(stateful, reason = \"…\")`",
                    t.text, k.text
                ),
            });
        }
    }
}

/// Growable collection types whose presence inside a lock wrapper marks
/// retained mutable state (as opposed to, say, `Mutex<SuffixAllocator>`
/// or a telemetry handle, which hold fixed-shape internals).
const GROWABLE: &[&str] = &[
    "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Vec", "VecDeque", "String",
];

/// R1 (retained-lock probe) — lock-wrapped growable collections in
/// satellite-side scope. A `Mutex<Vec<u8>>` scratch buffer is how per-UE
/// state sneaks back in by accretion; the arena API is the sanctioned
/// pool (see [`Config::pool_types`]). Skips wrappers that
///
/// * mention a pool type (`Mutex<MessageArena>`, `Mutex<Vec<BufId>>`) —
///   recycled handle-addressed scratch, not session state, or
/// * mention a per-UE key — the keyed-map probe already reports those
///   with the sharper message.
pub(crate) fn rule_retained_lock(rel_path: &str, lexed: &Lexed, cfg: &Config, out: &mut Vec<Finding>) {
    if !path_matches(rel_path, &cfg.stateful_scope) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("Mutex") || t.is_ident("RwLock") || t.is_ident("RefCell")) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('<')) {
            continue; // `Mutex::new(…)` expression etc. — type uses only
        }
        // Collect identifiers in the balanced angle region.
        let mut angle = 0i32;
        let mut inner: Vec<&Token> = Vec::new();
        for tk in &toks[i + 1..] {
            match tk.kind {
                TokenKind::Punct => match tk.text.as_str() {
                    "<" => angle += 1,
                    ">" => {
                        angle -= 1;
                        if angle == 0 {
                            break;
                        }
                    }
                    ";" => break, // malformed / end of item
                    _ => {}
                },
                TokenKind::Ident if angle >= 1 => inner.push(tk),
                _ => {}
            }
        }
        let mentions = |names: &[String]| {
            inner
                .iter()
                .any(|k| names.iter().any(|n| n == &k.text))
        };
        if mentions(&cfg.pool_types) || mentions(&cfg.per_ue_keys) {
            continue;
        }
        if !inner
            .iter()
            .any(|k| GROWABLE.contains(&k.text.as_str()))
        {
            continue;
        }
        out.push(Finding {
            file: rel_path.to_string(),
            line: t.line,
            col: t.col,
            rule: "R1-stateful",
            message: format!(
                "lock-wrapped growable collection `{}<…>` retained in satellite-side \
                 module; pool scratch buffers through the arena API (`MessageArena`/\
                 `BufId`) or annotate with `// sc-audit: allow(stateful, reason = \"…\")`",
                t.text
            ),
        });
    }
}

/// R2 — wall-clock reads outside the timing allowlist.
fn rule_timing(rel_path: &str, lexed: &Lexed, cfg: &Config, out: &mut Vec<Finding>) {
    if path_matches(rel_path, &cfg.timing_allowlist) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("Instant") || t.is_ident("SystemTime")) {
            continue;
        }
        if toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 3).is_some_and(|a| a.is_ident("now"))
        {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                col: t.col,
                rule: "R2-timing",
                message: format!(
                    "`{}::now()` outside the timing allowlist breaks byte-identical \
                     results; thread simulated time through instead (telemetry \
                     belongs in sc-obs, whose `Recorder::event`, histograms, \
                     `span_open`/`span_close` spans, and the windowed \
                     `series_inc`/`series_gauge` time-series all take sim-time, \
                     never wall-clock)",
                    t.text
                ),
            });
        }
    }
}

/// R2 — unseeded randomness.
fn rule_rng(rel_path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for t in &lexed.tokens {
        if t.is_ident("thread_rng") || t.is_ident("from_entropy") || t.is_ident("OsRng") {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                col: t.col,
                rule: "R2-rng",
                message: format!(
                    "`{}` is unseeded; use `StdRng::seed_from_u64` so runs replay",
                    t.text
                ),
            });
        }
    }
}

/// R2 — `partial_cmp(..).unwrap()/expect(..)`: panics on NaN and reads
/// worse than `total_cmp`.
fn rule_float_cmp(rel_path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("partial_cmp") {
            continue;
        }
        // Skip over the balanced argument list, if any.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|a| a.is_punct('(')) {
            let mut depth = 0i32;
            while let Some(tk) = toks.get(j) {
                if tk.is_punct('(') {
                    depth += 1;
                } else if tk.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        } else {
            continue; // `fn partial_cmp` definition etc.
        }
        if toks.get(j).is_some_and(|a| a.is_punct('.'))
            && toks
                .get(j + 1)
                .is_some_and(|a| a.is_ident("unwrap") || a.is_ident("expect"))
        {
            out.push(Finding {
                file: rel_path.to_string(),
                line: t.line,
                col: t.col,
                rule: "R2-float-cmp",
                message: "`partial_cmp(..).unwrap()` panics on NaN; use `total_cmp`".into(),
            });
        }
    }
}

/// Identifiers declared in this token stream with a `HashMap`/`HashSet`
/// type — `let [mut] name = … HashMap::new()` bindings and
/// `name: …HashMap<…` field/param annotations. Sorted and deduped for
/// `binary_search`. Shared by R2-unordered and R5's hash-iteration
/// probe in [`crate::flow`].
pub(crate) fn hash_typed_names(toks: &[Token]) -> Vec<String> {
    let mut hashed: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "let" {
            // let [mut] name … = … HashMap::new() / HashSet::new() …;
            let mut j = i + 1;
            if toks.get(j).is_some_and(|a| a.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j).filter(|a| a.kind == TokenKind::Ident) else {
                continue;
            };
            for tk in &toks[j..] {
                if tk.is_punct(';') {
                    break;
                }
                if tk.is_ident("HashMap") || tk.is_ident("HashSet") {
                    hashed.push(name.text.clone());
                    break;
                }
            }
        } else if toks.get(i + 1).is_some_and(|a| a.is_punct(':')) {
            // name: …HashMap<…  (struct field or parameter; look a few
            // tokens ahead so `Mutex<HashMap<…>>` still matches).
            let window = toks.iter().skip(i + 2).take(8);
            let mut depth_break = false;
            for tk in window {
                if tk.is_punct(';') || tk.is_punct('{') {
                    depth_break = true;
                }
                if depth_break {
                    break;
                }
                if tk.is_ident("HashMap") || tk.is_ident("HashSet") {
                    hashed.push(t.text.clone());
                    break;
                }
            }
        }
    }
    hashed.sort_unstable();
    hashed.dedup();
    hashed
}

/// R2 — iteration over hash-ordered collections whose order can leak
/// into emitted results.
///
/// Heuristic, deliberately simple: identifiers declared in this file
/// with a `HashMap`/`HashSet` type (field/param/let annotations, or
/// `= HashMap::new()`) are tracked; `x.iter()`, `x.keys()`,
/// `x.values()`, `x.drain()`, `x.into_iter()` and `for … in … x` over a
/// tracked name are flagged — also through a `.lock()`/`.borrow()`/
/// `.read()` guard — unless either
///
/// * the surrounding statement contains an order-insensitive sink
///   (`sum`, `len`, `sort*`, a B-tree collection, …), or
/// * the iteration feeds a `let`-bound collection that is later sorted
///   (`let mut v = m.iter()…collect(); v.sort_by(…)` — the repo's
///   standard collect-then-sort emission idiom).
///
/// Escape hatch: `// sc-audit: allow(unordered, reason = "…")`.
fn rule_unordered(rel_path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;

    // Pass 1 — collect hash-typed identifiers.
    let hashed = hash_typed_names(toks);
    if hashed.is_empty() {
        return;
    }

    // Pass 2 — flag order-sensitive uses.
    const ITER_METHODS: &[&str] = &["iter", "keys", "values", "into_iter", "iter_mut", "values_mut", "drain"];
    for (i, t) in toks.iter().enumerate() {
        let is_tracked = t.kind == TokenKind::Ident && hashed.binary_search(&t.text).is_ok();
        if !is_tracked {
            continue;
        }
        let direct_iter = {
            // Walk `name(.lock())*.<method>`, skipping guard adapters.
            let mut j = i + 1;
            loop {
                if !toks.get(j).is_some_and(|a| a.is_punct('.')) {
                    break false;
                }
                let Some(m) = toks.get(j + 1) else { break false };
                if ITER_METHODS.iter().any(|it| m.is_ident(it)) {
                    break true;
                }
                let is_guard = ["lock", "borrow", "read"].iter().any(|g| m.is_ident(g))
                    && toks.get(j + 2).is_some_and(|a| a.is_punct('('))
                    && toks.get(j + 3).is_some_and(|a| a.is_punct(')'));
                if !is_guard {
                    break false;
                }
                j += 4;
            }
        };
        // `for k in &name {` / `for (k, v) in name.iter() {` — the
        // method-call form is covered by `direct_iter`; the borrow form
        // needs the loop check.
        let in_for_header = {
            let mut found = false;
            for back in (0..i).rev() {
                let tk = &toks[back];
                if tk.is_punct('{') || tk.is_punct(';') || tk.is_punct('}') {
                    break;
                }
                if tk.is_ident("for") {
                    // Ensure there's an `in` between `for` and us.
                    found = toks[back..i].iter().any(|x| x.is_ident("in"));
                    break;
                }
            }
            found && toks.get(i + 1).is_some_and(|a| a.is_punct('{') || a.is_punct('.'))
        };
        if !direct_iter && !in_for_header {
            continue;
        }
        // Statement window: previous ; { } to next ; or block open.
        let start = (0..i)
            .rev()
            .find(|&k| {
                let tk = &toks[k];
                tk.is_punct(';') || tk.is_punct('{') || tk.is_punct('}')
            })
            .map_or(0, |k| k + 1);
        let mut end = i;
        for (k, tk) in toks.iter().enumerate().skip(i) {
            end = k;
            if tk.is_punct(';') || tk.is_punct('{') {
                break;
            }
        }
        let sanctioned = toks[start..=end].iter().any(|tk| {
            tk.kind == TokenKind::Ident && ORDER_INSENSITIVE.contains(&tk.text.as_str())
        });
        if sanctioned {
            continue;
        }
        // Collect-then-sort idiom: the statement is `let [mut] v = …;`
        // and `v.sort*` appears later in the file.
        if toks[start].is_ident("let") {
            let mut b = start + 1;
            if toks.get(b).is_some_and(|a| a.is_ident("mut")) {
                b += 1;
            }
            if let Some(bound) = toks.get(b).filter(|a| a.kind == TokenKind::Ident) {
                let sorted_later = toks.windows(3).skip(end).any(|w| {
                    w[0].is_ident(&bound.text)
                        && w[1].is_punct('.')
                        && w[2].kind == TokenKind::Ident
                        && w[2].text.starts_with("sort")
                });
                if sorted_later {
                    continue;
                }
            }
        }
        out.push(Finding {
            file: rel_path.to_string(),
            line: t.line,
            col: t.col,
            rule: "R2-unordered",
            message: format!(
                "iteration over hash-ordered `{}` can leak nondeterministic order into \
                 results; sort before emitting, use a BTree collection, or annotate \
                 `// sc-audit: allow(unordered, reason = \"…\")`",
                t.text
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> (Vec<Finding>, PanicCounts) {
        audit_tokens(path, &lex(src), &Config::default())
    }

    const SAT: &str = "crates/spacecore/src/satellite.rs";

    #[test]
    fn per_ue_hashmap_field_flagged_in_scope() {
        let src = "struct S { active: Mutex<HashMap<Supi, ActiveSession>>, }";
        let (f, _) = run(SAT, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R1-stateful");
    }

    #[test]
    fn tuple_key_flagged() {
        let src = "struct S { sessions: HashMap<(Supi, SessionId), PduSession>, }";
        let (f, _) = run("crates/fiveg/src/smf.rs", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn non_ue_key_ok_and_out_of_scope_ok() {
        let (f, _) = run(SAT, "struct S { per_anchor: HashMap<u32, u32>, }");
        assert!(f.is_empty());
        let (f, _) = run(
            "crates/emu/src/fig05.rs",
            "struct S { m: HashMap<Supi, u8>, }",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = "struct S {\n    // sc-audit: allow(stateful, reason = \"ephemeral\")\n    active: HashMap<Supi, u8>,\n}";
        let (f, _) = run(SAT, src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn arena_pool_exempt_from_retained_lock() {
        // The arena API is the sanctioned pool: a locked `MessageArena`
        // (or a pool of `BufId` handles) is recycled scratch space, not
        // per-UE state.
        let src = "struct S {\n    arena: parking_lot::Mutex<sc_fiveg::arena::MessageArena>,\n    handles: Mutex<Vec<arena::BufId>>,\n}";
        let (f, _) = run(SAT, src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn adhoc_locked_buffer_flagged() {
        let src = "struct S { scratch: Mutex<Vec<Vec<u8>>>, }";
        let (f, _) = run(SAT, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "R1-stateful");
        assert!(f[0].message.contains("MessageArena"), "{}", f[0].message);
        // Out of satellite scope: fine.
        let (f, _) = run("crates/emu/src/fig05.rs", src);
        assert!(f.is_empty(), "{f:?}");
        // Annotated: suppressed.
        let src = "struct S {\n    // sc-audit: allow(stateful, reason = \"bounded reorder window\")\n    scratch: Mutex<Vec<Vec<u8>>>,\n}";
        let (f, _) = run(SAT, src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn per_ue_locked_map_reported_once_by_keyed_probe() {
        // `Mutex<HashMap<Supi, …>>` is the keyed-map probe's finding;
        // the retained-lock probe must not double-report it.
        let src = "struct S { active: Mutex<HashMap<Supi, ActiveSession>>, }";
        let (f, _) = run(SAT, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("per-UE keyed collection"), "{}", f[0].message);
    }

    #[test]
    fn instant_now_flagged_outside_allowlist() {
        let (f, _) = run(SAT, "fn f() { let t = Instant::now(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R2-timing");
        let (f, _) = run("crates/emu/src/fig18.rs", "fn f() { let t = Instant::now(); }");
        assert!(f.is_empty());
    }

    #[test]
    fn obs_crate_is_not_timing_allowlisted() {
        // sc-obs records sim-time only: a wall-clock read inside it is a
        // bug, not a telemetry feature.
        let (f, _) = run("crates/obs/src/recorder.rs", "fn f() { let t = Instant::now(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R2-timing");
        assert!(f[0].message.contains("sc-obs"), "{}", f[0].message);
    }

    #[test]
    fn obs_crate_is_in_stateful_scope() {
        // A per-UE keyed map inside the observability layer would smuggle
        // session state out of the stateless core — R1 watches for it.
        let src = "struct S { m: HashMap<Supi, u64>, }";
        let (f, _) = run("crates/obs/src/recorder.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "R1-stateful");
    }

    #[test]
    fn partial_cmp_unwrap_flagged() {
        let (f, _) = run(SAT, "fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R2-float-cmp");
        // total_cmp and unwrap_or are fine.
        let (f, _) = run(SAT, "fn f() { v.sort_by(|a, b| a.total_cmp(b)); x.partial_cmp(y).unwrap_or(Less); }");
        assert!(f.is_empty());
    }

    #[test]
    fn unordered_iteration_flagged_unless_sorted() {
        let src = "struct S { m: HashMap<u32, f64>, }\nfn f(s: &S) -> Vec<u32> { s.m.keys().copied().collect() }";
        let (f, _) = run(SAT, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "R2-unordered");
        let src = "struct S { m: HashMap<u32, f64>, }\nfn f(s: &S) -> f64 { s.m.values().sum() }";
        let (f, _) = run(SAT, src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn collect_then_sort_is_sanctioned() {
        let src = "struct S { m: HashMap<u32, f64>, }\nfn f(s: &S) -> Vec<u32> {\n    let mut v: Vec<u32> = s.m.keys().copied().collect();\n    v.sort_unstable();\n    v\n}";
        let (f, _) = run(SAT, src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn iteration_through_lock_guard_flagged() {
        let src = "struct S { m: Mutex<HashMap<u32, f64>>, }\nfn f(s: &S) -> Vec<u32> { s.m.lock().keys().copied().collect() }";
        let (f, _) = run(SAT, src);
        // Two findings: the retained-lock probe on the field, and the
        // unordered-iteration probe on the emission path under test.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == "R2-unordered"), "{f:?}");
    }

    #[test]
    fn for_loop_over_map_flagged() {
        let src = "fn f() {\n    let mut m = HashMap::new();\n    m.insert(1, 2);\n    for (k, v) in &m { emit(k, v); }\n}";
        let (f, _) = run(SAT, src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn panic_counts_ignore_strings_and_comments() {
        let src = "// unwrap() in a comment\nfn f() { x.unwrap(); y.expect(\"panic!(\"); let s = \"unsafe \"; }";
        let (_, c) = run(SAT, src);
        assert_eq!(c.unwrap, 1);
        assert_eq!(c.expect, 1);
        assert_eq!(c.panic, 0);
        assert_eq!(c.r#unsafe, 0);
    }

    #[test]
    fn unwrap_or_not_counted() {
        let (_, c) = run(SAT, "fn f() { x.unwrap_or(0); x.unwrap_or_default(); }");
        assert_eq!(c.unwrap, 0);
    }
}
