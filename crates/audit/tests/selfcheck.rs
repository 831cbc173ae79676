//! Self-check: the live workspace must audit clean against its own
//! checked-in baseline, and the real `sc-audit` binary must reproduce
//! the library verdict through its exit code — including non-zero exits
//! for the two acceptance injections it owns (stateful satellite field,
//! ratchet overrun). The third, a wall-clock read, is clippy's: its
//! exit code comes from `support::lint`, and the tree is scanned for
//! anything that could mute the ban.

mod support;

use sc_audit::baseline::Baseline;
use sc_audit::engine::audit_workspace;
use sc_audit::lexer::{lex, Token};
use sc_audit::rules::Config;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The real workspace root: two levels up from crates/audit.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn live_workspace_is_clean_under_checked_in_baseline() {
    let root = workspace_root();
    let baseline_path = root.join("audit.baseline.toml");
    let text = fs::read_to_string(&baseline_path)
        .expect("audit.baseline.toml is checked in at the workspace root");
    let baseline = Baseline::parse(&text).expect("baseline parses");
    let report = audit_workspace(&root, &baseline, &Config::default())
        .expect("workspace walks");
    assert!(report.files_scanned > 100, "scanned {}", report.files_scanned);
    assert!(
        report.findings.is_empty(),
        "R2/R6 findings on the live tree:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // R6: nothing uncalled, bar the two modules kept until a soak
    // executes procedures on real satellites.
    let allowed: Vec<&str> = report
        .allowed_orphans
        .iter()
        .filter_map(|f| f.message.split('`').nth(1))
        .collect();
    assert_eq!(allowed, ["spacecore::deployment", "spacecore::paging"]);
    assert!(
        report.flow.is_empty(),
        "R4/R5 dataflow findings on the live tree:\n{}",
        report
            .flow
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.ratchet.is_empty(),
        "R3 ratchet regressions:\n{}",
        report
            .ratchet
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn wall_clock_opt_outs_are_exactly_the_timers() -> io::Result<()> {
    // clippy.toml bans the wall clock and fails on an expect that stops
    // firing. This pins the other direction: besides clippy.toml itself,
    // only the two timers name the lint anywhere in the tree, each as a
    // reasoned inner `#![expect]`. An `allow` or outer attribute, a
    // lint group, a manifest lint table, a `-A` flag in a script, or a
    // second clippy.toml (which replaces the root one for its crate)
    // lands on this list too — so no new timer, least of all in sc-obs,
    // appears without it changing.
    let root = workspace_root();
    let mut named = Vec::new();
    name_the_lint(&root, &root, &mut named)?;
    named.sort();
    assert_eq!(
        named,
        ["clippy.toml", "crates/emu/src/fig18.rs", "crates/emu/src/report.rs"]
    );
    Ok(())
}

/// Push every file under `dir` (build output and VCS metadata aside)
/// that can switch `clippy::disallowed_methods` off, relative to `root`.
/// Rust source counts by token, so comments and string literals do not:
/// a file whose every mention is `#![expect(clippy::disallowed_methods,
/// reason = …` is listed by path, any other mention (or the `style` /
/// `all` groups) with a suffix. Manifests, configs and scripts count if
/// they say `disallowed` at all; a `clippy.toml` counts by name.
fn name_the_lint(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                name_the_lint(root, &path, out)?;
            }
            continue;
        }
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().into_owned();
        if name.ends_with(".rs") {
            let toks = lex(&fs::read_to_string(&path)?).tokens;
            let text = |w: &[Token]| w.iter().map(|t| t.text.as_str()).collect::<String>();
            let mentions: Vec<usize> = (3..toks.len())
                .filter(|&i| {
                    text(&toks[i - 3..i]) == "clippy::"
                        && ["disallowed_methods", "style", "all"].iter().any(|l| toks[i].is_ident(l))
                })
                .collect();
            let reasoned = |i: usize| {
                toks.get(i.wrapping_sub(8)..i + 3)
                    .is_some_and(|w| text(w) == "#![expect(clippy::disallowed_methods,reason")
            };
            if mentions.iter().all(|&i| reasoned(i)) {
                out.extend((!mentions.is_empty()).then(|| rel.clone()));
            } else {
                out.push(format!("{rel}: not a reasoned #![expect]"));
            }
        } else if name.ends_with(".toml") || name.ends_with(".sh") || name == "Makefile" {
            let says = fs::read_to_string(&path)?.contains("disallowed");
            if says || name.ends_with("clippy.toml") {
                out.push(rel);
            }
        }
    }
    Ok(())
}

#[test]
fn analyzer_audits_its_own_crate_cleanly() {
    // The analyzer must be able to eat its own dogfood: lex, parse, and
    // dataflow-analyze every source file in crates/audit without any
    // unsuppressed finding. (R3 counts are covered by the checked-in
    // baseline in the live-workspace test above; here we pin the
    // finding-producing rules to zero on our own code.)
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut sources = Vec::new();
    for entry in fs::read_dir(&src_dir).expect("src dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = format!(
                "crates/audit/src/{}",
                path.file_name().unwrap().to_string_lossy()
            );
            sources.push((rel, fs::read_to_string(&path).expect("read source")));
        }
    }
    assert!(sources.len() >= 9, "found {} sources", sources.len());
    let report =
        sc_audit::engine::audit_sources(&sources, &Baseline::default(), &Config::default());
    assert!(
        report.findings.is_empty() && report.flow.is_empty(),
        "sc-audit flags itself:\n{}\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n"),
        report
            .flow
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Build a throwaway mini-workspace under the cargo-provided tmpdir and
/// run the actual binary against it.
fn run_binary(tag: &str, files: &[(&str, &str)], baseline: Option<&str>) -> (i32, String) {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    // Rebuild from scratch each run so reruns stay deterministic.
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear previous run");
    }
    for (rel, src) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture paths have parents"))
            .expect("mkdir");
        fs::write(&path, src).expect("write fixture");
    }
    let baseline_arg = root.join("audit.baseline.toml");
    if let Some(text) = baseline {
        fs::write(&baseline_arg, text).expect("write baseline");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_sc-audit"))
        .arg("--root")
        .arg(&root)
        .arg("--baseline")
        .arg(&baseline_arg)
        .output()
        .expect("binary runs");
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    (out.status.code().expect("exit code"), text)
}

const CLEAN_SRC: &str = "pub fn id(x: u32) -> u32 { x }\n";

#[test]
fn binary_exits_zero_on_clean_tree() {
    let (code, out) = run_binary(
        "clean",
        &[("crates/spacecore/src/lib.rs", CLEAN_SRC)],
        None,
    );
    assert_eq!(code, 0, "{out}");
}

#[test]
fn binary_exits_nonzero_on_stateful_satellite_injection() {
    let (code, out) = run_binary(
        "inject-stateful",
        &[(
            "crates/spacecore/src/satellite.rs",
            include_str!("fixtures/stateful_satellite.rs"),
        )],
        None,
    );
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("R4-state-flow"), "{out}");
}

#[test]
fn binary_exits_nonzero_on_wallclock_injection() -> Result<(), String> {
    // The wall-clock ban is the compiler's, so the binary that must exit
    // non-zero is the lint step of scripts/audit.sh, here run over the
    // shared fixture package. That no file in the tree mutes the ban
    // outside the timers is `wall_clock_opt_outs_are_exactly_the_timers`.
    let lint = support::lint()?;
    assert!(!lint.ok, "{}", lint.stderr);
    assert!(lint.stderr.contains("could not compile `wall-clock-lint` (bin \"clock\")"), "{}", lint.stderr);
    Ok(())
}

#[test]
fn binary_exits_nonzero_on_ratchet_overrun() {
    let (code, out) = run_binary(
        "inject-ratchet",
        &[(
            "crates/spacecore/src/injected.rs",
            include_str!("fixtures/panicky.rs"),
        )],
        Some("[spacecore]\nunwrap = 2\n"),
    );
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("R3-ratchet"), "{out}");
    assert!(out.contains("exceeds baseline 2"), "{out}");
}

#[test]
fn binary_update_baseline_then_rerun_is_clean() {
    let tag = "ratchet-roundtrip";
    let files = [(
        "crates/spacecore/src/injected.rs",
        include_str!("fixtures/panicky.rs"),
    )];
    // First run ratchets at zero (no baseline file) → violation.
    let (code, out) = run_binary(tag, &files, None);
    assert_eq!(code, 1, "{out}");

    // Regenerate the baseline in place, then the same tree passes.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let baseline_path = root.join("audit.baseline.toml");
    let status = Command::new(env!("CARGO_BIN_EXE_sc-audit"))
        .arg("--root")
        .arg(&root)
        .arg("--baseline")
        .arg(&baseline_path)
        .arg("--update-baseline")
        .status()
        .expect("binary runs");
    assert!(status.success());
    let written = fs::read_to_string(&baseline_path).expect("baseline written");
    assert!(written.contains("unwrap = 3"), "{written}");

    let out = Command::new(env!("CARGO_BIN_EXE_sc-audit"))
        .arg("--root")
        .arg(&root)
        .arg("--baseline")
        .arg(&baseline_path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn binary_warn_only_downgrades_exit() {
    let (code, out) = run_binary(
        "warn-only",
        &[(
            "crates/spacecore/src/satellite.rs",
            include_str!("fixtures/stateful_satellite.rs"),
        )],
        None,
    );
    assert_eq!(code, 1, "precondition: fatal by default ({out})");

    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("warn-only");
    let out = Command::new(env!("CARGO_BIN_EXE_sc-audit"))
        .arg("--root")
        .arg(&root)
        .arg("--warn-only")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "warn-only reports but passes");
}
