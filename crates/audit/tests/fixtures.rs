//! Per-rule fixture tests: each file under `tests/fixtures/` violates
//! (or legitimately suppresses) exactly one rule. The engine walker
//! skips any directory named `fixtures`, so these sources are never
//! scanned as part of the real workspace — they are injected here at
//! hand-picked workspace-relative paths instead.

use sc_audit::baseline::Baseline;
use sc_audit::engine::{audit_one, compare_ratchet, Report};
use sc_audit::rules::Config;

/// Audit one fixture source as if it lived at `rel`.
fn audit_fixture(rel: &str, src: &str) -> Report {
    let mut report = Report::default();
    audit_one(rel, src, &Config::default(), &mut report);
    report
}

#[test]
fn per_ue_hashmap_in_satellite_module_is_flagged() {
    // Acceptance injection (a): a per-UE HashMap field appears in
    // spacecore::satellite.
    let src = include_str!("fixtures/stateful_satellite.rs");
    let report = audit_fixture("crates/spacecore/src/satellite.rs", src);
    assert!(!report.is_clean());
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "R1-stateful");
    assert!(f.message.contains("Supi"), "names the per-UE key: {}", f.message);
    // Line/column point at the HashMap token on the field.
    assert_eq!(f.line, 8);
}

#[test]
fn same_store_outside_stateful_scope_is_fine() {
    // The identical source in a ground-side crate is not R1's business.
    let src = include_str!("fixtures/stateful_satellite.rs");
    let report = audit_fixture("crates/dataset/src/population.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn annotated_store_with_reason_is_suppressed() {
    let src = include_str!("fixtures/allowed_stateful.rs");
    let report = audit_fixture("crates/spacecore/src/satellite.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn allow_without_reason_is_ignored() {
    let src = include_str!("fixtures/unreasoned_allow.rs");
    let report = audit_fixture("crates/spacecore/src/satellite.rs", src);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "R1-stateful");
}

#[test]
fn instant_now_outside_allowlist_is_flagged() {
    // Acceptance injection (b): `Instant::now()` appears outside the
    // timing allowlist.
    let src = include_str!("fixtures/timing_instant.rs");
    let report = audit_fixture("crates/netsim/src/des.rs", src);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "R2-timing");
}

#[test]
fn instant_now_inside_allowlist_is_fine() {
    let src = include_str!("fixtures/timing_instant.rs");
    for rel in [
        "crates/emu/src/fig18.rs",
        "crates/emu/src/report.rs",
        "crates/bench/benches/ablation_routing.rs",
    ] {
        let report = audit_fixture(rel, src);
        assert!(report.findings.is_empty(), "{rel}: {:?}", report.findings);
    }
    // Only the Criterion targets are allowlisted, not the rest of sc-bench.
    let report = audit_fixture("crates/bench/src/bin/anything.rs", src);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "R2-timing");
}

#[test]
fn thread_rng_is_flagged_everywhere() {
    let src = include_str!("fixtures/rng_thread.rs");
    for rel in ["crates/emu/src/fig18.rs", "crates/orbit/src/coverage.rs"] {
        let report = audit_fixture(rel, src);
        assert_eq!(report.findings.len(), 1, "{rel}");
        assert_eq!(report.findings[0].rule, "R2-rng");
    }
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
    let mut report = audit_fixture("crates/spacecore/src/injected.rs", src);
    assert!(report.findings.is_empty(), "R1/R2 clean: {:?}", report.findings);

    let baseline = Baseline::parse("[spacecore]\nunwrap = 2\n").expect("literal baseline");
    compare_ratchet(&baseline, &mut report);
    assert_eq!(report.ratchet.len(), 1, "{:?}", report.ratchet);
    let v = &report.ratchet[0];
    assert_eq!((v.krate.as_str(), v.counter), ("spacecore", "unwrap"));
    assert_eq!((v.current, v.baseline), (3, 2));
    assert!(!report.is_clean());
}

#[test]
fn unwraps_at_or_below_ratchet_pass() {
    let src = include_str!("fixtures/panicky.rs");
    let mut report = audit_fixture("crates/spacecore/src/injected.rs", src);
    let baseline = Baseline::parse("[spacecore]\nunwrap = 3\n").expect("literal baseline");
    compare_ratchet(&baseline, &mut report);
    assert!(report.is_clean(), "{:?}", report.ratchet);
}

#[test]
fn finding_display_is_file_line_col_rule() {
    let src = include_str!("fixtures/timing_instant.rs");
    let report = audit_fixture("crates/netsim/src/des.rs", src);
    let line = report.findings[0].to_string();
    assert!(
        line.starts_with("crates/netsim/src/des.rs:5:"),
        "grep-able `file:line:col rule message` shape, got: {line}"
    );
    assert!(line.contains(" R2-timing "), "{line}");
}
