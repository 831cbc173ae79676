//! Workspace walker and ratchet comparison: ties the lexer, the
//! parser, the symbol table, the rules, and the baseline together into
//! the `sc-audit` verdict.
//!
//! The run is two-pass. Pass 1 lexes every file, runs the token rules
//! (R2/R3), and parses each token stream into its AST. Pass 2 merges
//! the ASTs into a workspace [`Symbols`] table and runs the dataflow
//! rules (R4/R5 in [`crate::flow`]) — which is what lets a type alias
//! declared in `sc-fiveg` convict a struct field in `sc-spacecore` —
//! and the module-reachability rule (R6 in [`crate::orphan`]), the one
//! rule that also reads the files outside `crates/`.

use crate::baseline::Baseline;
use crate::flow::{self, FileUnit, FlowFinding};
use crate::lexer::{self, Lexed};
use crate::orphan;
use crate::parser;
use crate::rules::{self, audit_tokens, Config, Finding, PanicCounts};
use crate::symbols::Symbols;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Everything one audit run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// R2/R6 findings (already annotation-filtered), in deterministic
    /// file/position order, R6 last.
    pub findings: Vec<Finding>,
    /// R6 findings an `allow(orphan, …)` suppressed: the modules kept
    /// caller-less on purpose.
    pub allowed_orphans: Vec<Finding>,
    /// R4/R5 dataflow findings (annotation-filtered, sorted), each with
    /// its flow trace. Fatal like `findings`: no baseline grandfathers
    /// them.
    pub flow: Vec<FlowFinding>,
    /// Measured R3 counters per crate directory name.
    pub counts: BTreeMap<String, PanicCounts>,
    /// R3 counters above their checked-in ceilings.
    pub ratchet: Vec<RatchetViolation>,
    /// Crates now strictly below their baseline — candidates for
    /// `--update-baseline`.
    pub improvements: Vec<(String, &'static str, u32, u32)>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// One R3 counter that exceeded its checked-in ceiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetViolation {
    pub krate: String,
    pub counter: &'static str,
    pub current: u32,
    pub baseline: u32,
}

impl std::fmt::Display for RatchetViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crates/{}: R3-ratchet {} count {} exceeds baseline {} — remove the new \
             site or (after review) regenerate with --update-baseline",
            self.krate,
            self.counter,
            self.current,
            self.baseline
        )
    }
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.flow.is_empty() && self.ratchet.is_empty()
    }
}

/// Collect every `.rs` file under `<root>/crates`, skipping build
/// output and the auditor's own violation fixtures, then the callers
/// R6 reads for references only. Sorted for deterministic output.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} has no crates/ directory", root.display()),
        ));
    }
    walk(&crates_dir, &mut files)?;
    for dir in REFERENCE_ONLY {
        let dir = root.join(dir);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Directories outside `crates/` whose files can keep a module alive
/// (R6). They are lexed for references and never audited: R2–R5 and
/// the R3 counters see `crates/` only.
const REFERENCE_ONLY: [&str; 4] = ["src", "tests", "examples", "benchmark/src"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // target/: build output. fixtures/: sc-audit's own test
            // inputs, which violate the rules on purpose.
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (rule scopes and output
/// stay stable across platforms).
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.to_string_lossy().replace('\\', "/")
}

/// Crate directory name for a `crates/<name>/…` relative path.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Audit a whole workspace rooted at `root` against `baseline`.
pub fn audit_workspace(root: &Path, baseline: &Baseline, cfg: &Config) -> io::Result<Report> {
    let mut sources = Vec::new();
    for file in collect_files(root)? {
        let src = fs::read_to_string(&file)?;
        sources.push((rel_path(root, &file), src));
    }
    Ok(audit_sources(&sources, baseline, cfg))
}

/// Audit a set of (relative-path, source) pairs as one mini-workspace:
/// the full two-pass pipeline including the cross-file R4/R5 dataflow
/// rules and R6. Paths outside `crates/` are R6's reference-only
/// callers. `audit_workspace` is this plus the directory walk; the
/// fixture tests call it directly with in-memory corpora.
pub fn audit_sources(sources: &[(String, String)], baseline: &Baseline, cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut units: Vec<FileUnit> = Vec::new();
    // Files outside `crates/`: R6 reads them, nothing audits them.
    let mut callers: Vec<(&str, Lexed)> = Vec::new();

    for (rel, src) in sources {
        let lexed = lexer::lex(src);
        if !rel.starts_with("crates/") {
            callers.push((rel, lexed));
            continue;
        }
        let (findings, counts) = audit_tokens(rel, &lexed);
        report.findings.extend(findings);
        if let Some(krate) = crate_of(rel) {
            report
                .counts
                .entry(krate.to_string())
                .or_default()
                .add(&counts);
        }
        report.files_scanned += 1;

        // Fields under an allow(state-flow) are excused in the AST so
        // containers of justified stores don't cascade-fire R4.
        let excuse = |line: u32| rules::is_allowed(&lexed, "state-flow", line);
        let ast = parser::parse(&lexed, &excuse);
        units.push(FileUnit {
            rel: rel.clone(),
            lexed,
            ast,
        });
    }

    let symbols = Symbols::build(
        units
            .iter()
            .map(|u| (u.rel.as_str(), &u.ast, u.lexed.tokens.as_slice())),
    );
    report.flow = flow::rule_state_flow(&units, &symbols, cfg);
    report.flow.extend(flow::rule_parallel(&units, cfg));
    report.flow.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });

    let audited = units.iter().map(|u| (u.rel.as_str(), &u.lexed));
    let files: Vec<_> = audited.chain(callers.iter().map(|(rel, lexed)| (*rel, lexed))).collect();
    let (orphans, allowed) = orphan::rule_orphan(&files);
    report.findings.extend(orphans);
    report.allowed_orphans = allowed;
    compare_ratchet(baseline, &mut report);
    report
}

/// Fill in `report.ratchet` / `report.improvements` from the measured
/// R3 counts. Crates absent from the baseline ratchet at zero.
fn compare_ratchet(baseline: &Baseline, report: &mut Report) {
    for (krate, counts) in &report.counts {
        let base = baseline.crates.get(krate).copied().unwrap_or_default();
        for (counter, cur, allowed) in [
            ("unwrap", counts.unwrap, base.unwrap),
            ("expect", counts.expect, base.expect),
            ("panic", counts.panic, base.panic),
            ("unsafe", counts.r#unsafe, base.r#unsafe),
        ] {
            if cur > allowed {
                report.ratchet.push(RatchetViolation {
                    krate: krate.clone(),
                    counter,
                    current: cur,
                    baseline: allowed,
                });
            } else if cur < allowed {
                report.improvements.push((krate.clone(), counter, cur, allowed));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_of_parses() {
        assert_eq!(crate_of("crates/fiveg/src/amf.rs"), Some("fiveg"));
        assert_eq!(crate_of("src/lib.rs"), None);
    }

    #[test]
    fn ratchet_flags_only_increases() {
        let mut report = Report::default();
        report.counts.insert(
            "fiveg".into(),
            PanicCounts {
                unwrap: 5,
                expect: 1,
                panic: 0,
                r#unsafe: 0,
            },
        );
        let mut counts = BTreeMap::new();
        counts.insert(
            "fiveg".into(),
            PanicCounts {
                unwrap: 4, // ratchet says 4, we measured 5 → violation
                expect: 2, // measured 1 < 2 → improvement
                panic: 0,
                r#unsafe: 0,
            },
        );
        compare_ratchet(&Baseline::from_counts(&counts), &mut report);
        assert_eq!(report.ratchet.len(), 1);
        assert_eq!(report.ratchet[0].counter, "unwrap");
        assert_eq!(report.improvements.len(), 1);
        assert_eq!(report.improvements[0].1, "expect");
    }

    #[test]
    fn unknown_crate_ratchets_at_zero() {
        let mut report = Report::default();
        report.counts.insert(
            "newcrate".into(),
            PanicCounts {
                unwrap: 1,
                ..Default::default()
            },
        );
        compare_ratchet(&Baseline::default(), &mut report);
        assert_eq!(report.ratchet.len(), 1);
        assert_eq!(report.ratchet[0].baseline, 0);
    }
}
