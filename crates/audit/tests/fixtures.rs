//! Per-rule fixture tests: each file under `tests/fixtures/` violates
//! (or legitimately suppresses) exactly one rule. The engine walker
//! skips any directory named `fixtures`, so these sources are never
//! scanned as part of the real workspace — they are injected here at
//! hand-picked workspace-relative paths instead. The wall-clock and
//! unseeded-RNG fixtures go to the compiler, which owns those bans
//! (`support::lint`).

mod support;

use sc_audit::baseline::Baseline;
use sc_audit::engine::{audit_sources, Report};
use sc_audit::rules::Config;

/// Audit one fixture source as if it lived at `rel`, under `baseline`.
fn audit_against(rel: &str, src: &str, baseline: &Baseline) -> Report {
    audit_sources(&[(rel.into(), src.into())], baseline, &Config::default())
}

/// Audit one fixture source as if it lived at `rel`.
fn audit_fixture(rel: &str, src: &str) -> Report {
    audit_against(rel, src, &Baseline::default())
}

#[test]
fn per_ue_hashmap_in_satellite_module_is_flagged() {
    // Acceptance injection (a): a per-UE HashMap field appears in
    // spacecore::satellite.
    let src = include_str!("fixtures/stateful_satellite.rs");
    let report = audit_fixture("crates/spacecore/src/satellite.rs", src);
    assert!(!report.is_clean());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.flow.len(), 1, "{:?}", report.flow);
    let f = &report.flow[0];
    assert_eq!(f.rule, "R4-state-flow");
    assert!(f.message.contains("Supi"), "names the per-UE key: {}", f.message);
    // Line points at the field.
    assert_eq!(f.line, 8);
}

#[test]
fn same_store_outside_stateful_scope_is_fine() {
    // The identical source in a ground-side crate is not R4's business.
    let src = include_str!("fixtures/stateful_satellite.rs");
    let report = audit_fixture("crates/dataset/src/population.rs", src);
    assert!(report.is_clean(), "{:?} {:?}", report.findings, report.flow);
}

#[test]
fn annotated_store_with_reason_is_suppressed() {
    let src = include_str!("fixtures/allowed_stateful.rs");
    let report = audit_fixture("crates/spacecore/src/satellite.rs", src);
    assert!(report.is_clean(), "{:?} {:?}", report.findings, report.flow);
}

#[test]
fn allow_without_reason_is_ignored() {
    let src = include_str!("fixtures/unreasoned_allow.rs");
    let report = audit_fixture("crates/spacecore/src/satellite.rs", src);
    assert_eq!(report.flow.len(), 1, "{:?}", report.flow);
    assert_eq!(report.flow[0].rule, "R4-state-flow");
}

#[test]
fn instant_now_outside_allowlist_is_flagged() -> Result<(), String> {
    // Acceptance injection (b): `Instant::now()` appears in a file that
    // does not opt out — clippy's `disallowed_methods` fails the build.
    let lint = support::lint()?;
    let out = &lint.stderr;
    assert!(!lint.ok, "{out}");
    assert!(
        out.contains("disallowed method `std::time::Instant::now`\n --> outside.rs:6:5"),
        "{out}"
    );
    Ok(())
}

#[test]
fn instant_now_inside_allowlist_is_fine() -> Result<(), String> {
    // The allowlist is the set of files carrying a reasoned expect: the
    // same read draws no error there, and the expect is fulfilled.
    let out = &support::lint()?.stderr;
    assert!(!out.contains("timer.rs"), "{out}");
    Ok(())
}

#[test]
fn thread_rng_is_flagged_everywhere() -> Result<(), String> {
    // Unseeded constructors do not exist in the vendored `rand`, so no
    // file anywhere can call one: rustc rejects each by name.
    let out = &support::lint()?.stderr;
    assert!(out.contains("could not compile `wall-clock-lint` (bin \"rng\")"), "{out}");
    for name in ["thread_rng", "from_entropy", "OsRng"] {
        assert!(out.contains(&format!("`{name}`")), "{name}: {out}");
    }
    Ok(())
}

#[test]
fn partial_cmp_unwrap_is_flagged() {
    let src = include_str!("fixtures/float_cmp.rs");
    let report = audit_fixture("crates/emu/src/fig05.rs", src);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "R2-float-cmp");
    assert!(report.findings[0].message.contains("total_cmp"));
}

#[test]
fn hashmap_iteration_into_emitted_result_is_flagged() {
    let src = include_str!("fixtures/unordered_emit.rs");
    let report = audit_fixture("crates/emu/src/fig12.rs", src);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "R2-unordered");
}

#[test]
fn unwraps_beyond_ratchet_are_violations() {
    // Acceptance injection (c): three unwrap() sites land in a crate
    // whose baseline allows two.
    let src = include_str!("fixtures/panicky.rs");
    let baseline = Baseline::parse("[spacecore]\nunwrap = 2\n").expect("literal baseline");
    let report = audit_against("crates/spacecore/src/injected.rs", src, &baseline);
    assert!(report.findings.is_empty(), "R2 clean: {:?}", report.findings);
    assert_eq!(report.ratchet.len(), 1, "{:?}", report.ratchet);
    let v = &report.ratchet[0];
    assert_eq!((v.krate.as_str(), v.counter), ("spacecore", "unwrap"));
    assert_eq!((v.current, v.baseline), (3, 2));
    assert!(!report.is_clean());
}

#[test]
fn unwraps_at_or_below_ratchet_pass() {
    let src = include_str!("fixtures/panicky.rs");
    let baseline = Baseline::parse("[spacecore]\nunwrap = 3\n").expect("literal baseline");
    let report = audit_against("crates/spacecore/src/injected.rs", src, &baseline);
    assert!(report.is_clean(), "{:?}", report.ratchet);
}

#[test]
fn finding_display_is_file_line_col_rule() {
    let src = include_str!("fixtures/float_cmp.rs");
    let report = audit_fixture("crates/emu/src/fig05.rs", src);
    let line = report.findings[0].to_string();
    assert!(
        line.starts_with("crates/emu/src/fig05.rs:4:"),
        "grep-able `file:line:col rule message` shape, got: {line}"
    );
    assert!(line.contains(" R2-float-cmp "), "{line}");
}
