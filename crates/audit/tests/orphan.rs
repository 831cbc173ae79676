//! R6 `orphan` over in-memory corpora: each test is a mini-workspace
//! through `audit_sources`, built where the rule could be wrong — what
//! counts as a caller, what only looks like one, and how a reference is
//! spelled.

use sc_audit::baseline::Baseline;
use sc_audit::engine::{audit_sources, Report};
use sc_audit::rules::Config;

fn audit(files: &[(&str, &str)]) -> Report {
    let sources: Vec<(String, String)> =
        files.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect();
    audit_sources(&sources, &Baseline::default(), &Config::default())
}

/// The modules R6 flags, as `crate::module`, in report order.
fn orphans(report: &Report) -> Vec<&str> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == "R6-orphan")
        .map(|f| f.message.split('`').nth(1).unwrap_or("message lost the module name"))
        .collect()
}

const ITEM: &str = "pub struct T;\npub fn f() {}\n";

#[test]
fn uncalled_module_is_flagged_on_its_mod_line() {
    let report = audit(&[
        ("crates/geo/src/lib.rs", "//! doc\npub mod cells;\npub mod subcell;\npub use subcell::T;\n"),
        ("crates/geo/src/cells.rs", ITEM),
        ("crates/geo/src/subcell.rs", ITEM),
        ("tests/t.rs", "use sc_geo::cells::T;\n"),
    ]);
    assert_eq!(orphans(&report), ["geo::subcell"], "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!((f.file.as_str(), f.line, f.col), ("crates/geo/src/lib.rs", 3, 5));
    assert!(!report.is_clean(), "zero-tolerance: no baseline counter absorbs it");
}

#[test]
fn own_tests_crate_tests_and_benches_are_not_callers() {
    let report = audit(&[
        ("crates/orbit/src/lib.rs", "pub mod passes;\npub mod doppler;\npub mod coverage;\n"),
        (
            "crates/orbit/src/passes.rs",
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { crate::passes::f(); crate::coverage::f(); }\n}\n",
        ),
        ("crates/orbit/src/doppler.rs", ITEM),
        ("crates/orbit/src/coverage.rs", ITEM),
        ("crates/orbit/tests/props.rs", "use sc_orbit::passes::f;\n"),
        ("crates/bench/benches/kernel.rs", "use sc_orbit::doppler::f;\n"),
    ]);
    assert_eq!(orphans(&report), ["orbit::passes", "orbit::doppler", "orbit::coverage"]);
}

#[test]
fn every_kind_of_root_keeps_its_module() {
    let report = audit(&[
        (
            "crates/emu/src/lib.rs",
            "pub mod a;\npub mod b;\npub mod c;\npub mod d;\npub mod fig05;\npub mod dead;\n\
             macro_rules! experiment { ($m:ident) => { $m::run() }; }\n\
             pub static EXPERIMENTS: &[fn()] = &[experiment!(fig05)];\n",
        ),
        ("crates/emu/src/a.rs", ITEM),
        ("crates/emu/src/b.rs", ITEM),
        ("crates/emu/src/c.rs", ITEM),
        ("crates/emu/src/d.rs", ITEM),
        ("crates/emu/src/fig05.rs", "pub fn run() {}\n"),
        ("crates/emu/src/dead.rs", ITEM),
        ("tests/root.rs", "#[test]\nfn t() { sc_emu::a::f(); }\n"),
        ("examples/demo.rs", "fn main() { sc_emu::b::f(); }\n"),
        ("crates/emu/src/bin/scemu.rs", "fn main() { sc_emu::c::f(); }\n"),
        ("benchmark/src/layers.rs", "pub fn layer() { sc_emu::d::f(); }\n"),
    ]);
    assert_eq!(orphans(&report), ["emu::dead"]);
}

#[test]
fn a_module_reached_only_from_an_orphan_is_an_orphan_in_the_same_run() {
    let lib = ("crates/fiveg/src/lib.rs", "pub mod corenet;\npub mod upf;\npub mod nas;\n");
    let corenet = ("crates/fiveg/src/corenet.rs", "use crate::upf::T;\nuse super::nas;\npub fn f() {}\n");
    let (upf, nas) = (("crates/fiveg/src/upf.rs", ITEM), ("crates/fiveg/src/nas.rs", ITEM));
    let report = audit(&[lib, corenet, upf, nas, ("tests/t.rs", "use sc_fiveg::nas::T;\n")]);
    assert_eq!(orphans(&report), ["fiveg::corenet", "fiveg::upf"]);
    // With a caller for the head of the chain, the whole chain lives.
    let report = audit(&[lib, corenet, upf, nas, ("tests/t.rs", "use sc_fiveg::corenet::f;\n")]);
    assert_eq!(orphans(&report), [] as [&str; 0]);
}

#[test]
fn a_same_named_variant_elsewhere_does_not_keep_a_module_alive() {
    // The shadow that hid `pcf` from a name-level search: `Entity::Pcf`
    // is everywhere, `pcf::Pcf` nowhere.
    let report = audit(&[
        (
            "crates/fiveg/src/lib.rs",
            "pub mod messages;\npub mod pcf;\npub use messages::Entity;\npub use pcf::{Pcf, PolicyDecision};\n",
        ),
        ("crates/fiveg/src/messages.rs", "pub enum Entity { Amf, Pcf }\n"),
        ("crates/fiveg/src/pcf.rs", "pub struct Pcf;\npub struct PolicyDecision;\n"),
        (
            "tests/t.rs",
            "use sc_fiveg::Entity;\nfn t(e: Entity) -> bool { matches!(e, Entity::Pcf | sc_fiveg::Entity::Pcf) }\n",
        ),
    ]);
    assert_eq!(orphans(&report), ["fiveg::pcf"]);
}

#[test]
fn groups_reexports_and_globs_are_read_as_written() {
    let lib = "pub mod a;\npub mod b;\npub mod c;\npub mod d;\npub mod e;\n\
               pub use c::{Other, Renamed as ByAlias};\n\
               pub mod prelude {\n    pub use crate::d::Deployment;\n    pub use crate::e::Paging;\n}\n\
               pub use prelude::*;\n";
    let corpus = |caller: &'static str| {
        audit(&[
            ("crates/x/src/lib.rs", lib),
            ("crates/x/src/a.rs", ITEM),
            ("crates/x/src/b.rs", ITEM),
            ("crates/x/src/c.rs", "pub struct Other;\npub struct Renamed;\n"),
            ("crates/x/src/d.rs", "pub struct Deployment;\n"),
            ("crates/x/src/e.rs", "pub struct Paging;\n"),
            ("tests/t.rs", caller),
        ])
    };
    // One `{…}` group: a path entry, a module entry, a re-exported name.
    let report = corpus("use sc_x::{a::T, b, ByAlias};\n");
    assert_eq!(orphans(&report), ["x::d", "x::e"]);
    // A prelude glob brings names in bare; only the ones used count, and
    // a qualified `Local::Paging` is not the prelude's `Paging`.
    let report = corpus("use sc_x::prelude::*;\nfn t() { let _ = (Deployment, Local::Paging); }\n");
    assert_eq!(orphans(&report), ["x::a", "x::b", "x::c", "x::e"]);
    // Through the prelude by name.
    let report = corpus("use sc_x::prelude::Paging;\n");
    assert_eq!(orphans(&report), ["x::a", "x::b", "x::c", "x::d"]);
}

#[test]
fn allow_needs_a_reason_exactly_as_for_r1() {
    let corpus = |lib: &'static str| {
        audit(&[("crates/spacecore/src/lib.rs", lib), ("crates/spacecore/src/paging.rs", ITEM)])
    };
    let report = corpus("// sc-audit: allow(orphan, reason = \"kept for a planned caller\")\npub mod paging;\n");
    assert_eq!(orphans(&report), [] as [&str; 0]);
    assert_eq!(report.allowed_orphans.len(), 1);
    assert!(report.is_clean());

    let report = corpus("// sc-audit: allow(orphan)\npub mod paging;\n");
    assert_eq!(orphans(&report), ["spacecore::paging"]);
    assert!(report.allowed_orphans.is_empty());
}

#[test]
fn callers_outside_crates_are_read_for_references_only() {
    // The same source convicts under `crates/` and is invisible to
    // R2–R5 and the R3 counters under `tests/`.
    let src = include_str!("fixtures/float_cmp.rs");
    let report = audit(&[("tests/t.rs", src), ("benchmark/src/main.rs", src)]);
    assert!(report.findings.is_empty() && report.counts.is_empty(), "{:?}", report.findings);
    assert_eq!(report.files_scanned, 0);
    let report = audit(&[("crates/netsim/src/des.rs", src)]);
    assert_eq!(report.findings.len(), 1);
}
