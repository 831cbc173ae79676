//! R4/R5 dataflow corpus tests over `tests/fixtures/flowcases/`.
//!
//! The corpus is a mini-workspace with seeded true positives
//! (alias-laundered key, cross-crate field-embedded key, nested
//! generic, captured-mut / ad-hoc-lock / hash-iteration closures) and
//! known negatives (message structs, ground-side storage, excused
//! stores). Library-level tests pin finding positions and flow-trace
//! content; binary-level tests pin the exit code, `--explain` output,
//! and that no baseline can grandfather a dataflow finding.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use sc_audit::baseline::Baseline;
use sc_audit::engine::{audit_sources, Report};
use sc_audit::rules::Config;

const IDS: &str = include_str!("fixtures/flowcases/ids.rs");
const ALIAS: &str = include_str!("fixtures/flowcases/alias.rs");
const TRACKED: &str = include_str!("fixtures/flowcases/tracked.rs");
const SATCACHE: &str = include_str!("fixtures/flowcases/satcache.rs");
const MSG: &str = include_str!("fixtures/flowcases/msg.rs");
const GROUND: &str = include_str!("fixtures/flowcases/ground.rs");
const ALLOWED: &str = include_str!("fixtures/flowcases/allowed.rs");
const PAR: &str = include_str!("fixtures/flowcases/par.rs");
const POOL: &str = include_str!("fixtures/flowcases/pool.rs");

const CORPUS: &[(&str, &str)] = &[
    ("crates/fiveg/src/ids.rs", IDS),
    ("crates/fiveg/src/alias.rs", ALIAS),
    ("crates/fiveg/src/tracked.rs", TRACKED),
    ("crates/fiveg/src/msg.rs", MSG),
    ("crates/spacecore/src/satcache.rs", SATCACHE),
    ("crates/spacecore/src/allowed.rs", ALLOWED),
    ("crates/emu/src/ground.rs", GROUND),
    ("crates/emu/src/par.rs", PAR),
];

fn corpus() -> Vec<(String, String)> {
    CORPUS
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect()
}

fn audit_corpus() -> Report {
    audit_sources(&corpus(), &Baseline::default(), &Config::default())
}

/// 1-based line of the first source line containing `needle`, so the
/// assertions survive comment edits to the fixtures.
fn line_of(src: &str, needle: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(needle))
        .map(|i| i as u32 + 1)
        .unwrap_or_else(|| panic!("fixture lost marker {needle:?}"))
}

#[test]
fn corpus_r4_convicts_exactly_the_three_seeded_stores() {
    let report = audit_corpus();
    let r4: Vec<_> = report
        .flow
        .iter()
        .filter(|f| f.rule == "R4-state-flow")
        .collect();
    assert_eq!(r4.len(), 3, "{r4:?}");
    for f in &r4 {
        assert_eq!(f.file, "crates/spacecore/src/satcache.rs", "{f}");
    }
    let lines: Vec<u32> = r4.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![
            line_of(SATCACHE, "pub seen:"),
            line_of(SATCACHE, "pub recent:"),
            line_of(SATCACHE, "pub by_cell:"),
        ],
        "{r4:?}"
    );
}

#[test]
fn alias_laundered_store_trace_walks_alias_to_key_decl() {
    let report = audit_corpus();
    let f = report
        .flow
        .iter()
        .find(|f| f.line == line_of(SATCACHE, "pub seen:"))
        .expect("seen finding");
    assert!(f.message.contains("SessionCache.seen"), "{}", f.message);
    let notes: Vec<&str> = f.trace.iter().map(|s| s.note.as_str()).collect();
    assert!(
        notes.iter().any(|n| n.contains("type alias `SessionKey` = `Supi`")),
        "{notes:?}"
    );
    let alias_step = f
        .trace
        .iter()
        .find(|s| s.note.contains("type alias `SessionKey`"))
        .unwrap();
    assert_eq!(alias_step.file, "crates/fiveg/src/alias.rs");
    assert_eq!(alias_step.line, line_of(ALIAS, "pub type SessionKey"));
    let key_step = f
        .trace
        .iter()
        .find(|s| s.note.contains("per-UE key type `Supi` declared here"))
        .expect("trace ends at the key declaration");
    assert_eq!(key_step.file, "crates/fiveg/src/ids.rs");
    assert_eq!(key_step.line, line_of(IDS, "pub struct Supi"));
}

#[test]
fn trace_includes_the_mutation_call_chain() {
    let report = audit_corpus();
    let f = report
        .flow
        .iter()
        .find(|f| f.line == line_of(SATCACHE, "pub seen:"))
        .expect("seen finding");
    let notes: Vec<&str> = f.trace.iter().map(|s| s.note.as_str()).collect();
    assert!(
        notes.iter().any(|n| n.contains("written by `SessionCache::note`")),
        "{notes:?}"
    );
    assert!(
        notes.iter().any(|n| n.contains("reached from `Satellite::handle`")),
        "{notes:?}"
    );
}

#[test]
fn cross_crate_field_embedding_is_traced_through_the_struct() {
    let report = audit_corpus();
    let f = report
        .flow
        .iter()
        .find(|f| f.line == line_of(SATCACHE, "pub recent:"))
        .expect("recent finding");
    let step = f
        .trace
        .iter()
        .find(|s| s.note.contains("struct `TrackedUe` field `supi`"))
        .unwrap_or_else(|| panic!("{:?}", f.trace));
    assert_eq!(step.file, "crates/fiveg/src/tracked.rs");
    assert_eq!(step.line, line_of(TRACKED, "pub supi:"));
}

#[test]
fn corpus_r5_convicts_exactly_the_three_seeded_closures() {
    let report = audit_corpus();
    let r5: Vec<_> = report
        .flow
        .iter()
        .filter(|f| f.rule == "R5-parallel")
        .collect();
    assert_eq!(r5.len(), 3, "{r5:?}");
    for f in &r5 {
        assert_eq!(f.file, "crates/emu/src/par.rs", "{f}");
    }

    let cap = r5
        .iter()
        .find(|f| f.line == line_of(PAR, "total += 1"))
        .expect("captured-mut finding");
    assert!(cap.message.contains("mutates captured `total`"), "{}", cap.message);
    assert!(
        cap.trace
            .iter()
            .any(|s| s.note.contains("captured binding `total` declared here")
                && s.line == line_of(PAR, "let mut total")),
        "{:?}",
        cap.trace
    );

    let lock = r5
        .iter()
        .find(|f| f.line == line_of(PAR, "shared.lock()"))
        .expect("ad-hoc lock finding");
    assert!(lock.message.contains("`.lock()` on shared state"), "{}", lock.message);

    let iter = r5
        .iter()
        .find(|f| f.line == line_of(PAR, "for (k, v) in &m"))
        .expect("hash-iteration finding");
    assert!(
        iter.message.contains("hash-ordered iteration over `m`"),
        "{}",
        iter.message
    );
}

#[test]
fn corpus_negatives_stay_negative() {
    let report = audit_corpus();
    // Token rules: the only candidate (hash iteration in par.rs) is
    // R2-allowed with a reason, so the corpus is token-clean.
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    // No dataflow finding outside the two seeded files.
    for f in &report.flow {
        assert!(
            f.file.ends_with("satcache.rs") || f.file.ends_with("par.rs"),
            "unexpected finding: {f}"
        );
    }
    // Specifically: messages in flight, ground-side storage, excused
    // stores, and containers of excused stores are all silent.
    let counts_line = line_of(SATCACHE, "pub counts:");
    assert!(
        report.flow.iter().all(|f| f.line != counts_line),
        "satellite-scope counters keyed by CellId are not per-UE state"
    );
}

/// Only a lock of the pool type itself, or of a growable of bare
/// handles, is exempt: naming `BufId` beside a per-UE key or beside
/// plain scratch does not launder the lock.
#[test]
fn pool_exemption_covers_the_pool_and_bare_handles_only() {
    let sources = [("crates/fiveg/src/ids.rs", IDS), ("crates/spacecore/src/pool.rs", POOL)]
        .map(|(rel, src)| (rel.to_string(), src.to_string()));
    let report = audit_sources(&sources, &Baseline::default(), &Config::default());
    let lines: Vec<u32> = report.flow.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![
            line_of(POOL, "pub held_by:"),
            line_of(POOL, "pub owner_of:"),
            line_of(POOL, "pub scratch:"),
        ],
        "{:?}",
        report.flow
    );
    assert!(report.flow.iter().all(|f| f.rule == "R4-state-flow"));
    assert!(report.flow[2].message.contains("growable buffer"), "{}", report.flow[2].message);
}

#[test]
fn corpus_flow_findings_are_fatal_without_a_ceiling() {
    // No baseline grandfathers a dataflow finding: the corpus fails on
    // its findings alone, and the R3 ratchet has nothing to say.
    let report = audit_corpus();
    assert!(!report.is_clean());
    assert!(report.ratchet.is_empty(), "{:?}", report.ratchet);
}

// ---------------------------------------------------------------- binary

/// Materialize the corpus under `CARGO_TARGET_TMPDIR/<tag>` and return
/// the tree root; callers then invoke the binary repeatedly with
/// different flags against the same tree.
fn corpus_tree(tag: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear previous run");
    }
    for (rel, src) in CORPUS {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("mkdir");
        fs::write(&path, src).expect("write fixture");
    }
    root
}

fn run_in(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sc-audit"))
        .arg("--root")
        .arg(root)
        .arg("--baseline")
        .arg(root.join("audit.baseline.toml"))
        .args(extra)
        .output()
        .expect("binary runs");
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    (out.status.code().expect("exit code"), text)
}

#[test]
fn binary_fails_on_corpus_and_explains_the_flow() {
    let root = corpus_tree("flow-explain");
    let (code, out) = run_in(&root, &["--explain"]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("R4-state-flow"), "{out}");
    assert!(out.contains("R5-parallel"), "{out}");
    assert!(out.contains("↳"), "--explain prints trace steps: {out}");
    assert!(out.contains("type alias `SessionKey` = `Supi`"), "{out}");
}

#[test]
fn update_baseline_cannot_grandfather_a_flow_finding() {
    let root = corpus_tree("flow-update");

    // --update-baseline records the R3 counters and nothing else, so
    // the seeded corpus still fails right after it.
    let (code, out) = run_in(&root, &["--update-baseline"]);
    assert_eq!(code, 1, "{out}");
    let baseline = fs::read_to_string(root.join("audit.baseline.toml")).expect("written");
    assert!(baseline.contains("[spacecore]"), "{baseline}");
    assert!(!baseline.contains("r4") && !baseline.contains("r5"), "{baseline}");
    let (code, out) = run_in(&root, &[]);
    assert_eq!(code, 1, "{out}");

    // --warn-only reports but does not gate (tier-1 mode).
    let (code, out) = run_in(&root, &["--warn-only"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("R4-state-flow"), "{out}");
}
