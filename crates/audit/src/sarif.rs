//! SARIF 2.1.0 output (`sc-audit --format json`), hand-rolled so the
//! auditor stays dependency-free. The subset emitted — tool driver with
//! rule metadata, `results` with physical locations, `codeFlows` for
//! the R4/R5 traces — is what CI annotators and SARIF viewers consume.
//! Ordering is deterministic: results arrive pre-sorted from the
//! engine, rules are listed in id order, and every map key is emitted
//! in a fixed sequence, so two identical audits produce byte-identical
//! artifacts (the repo's diffable-telemetry discipline applies to the
//! auditor too).

use crate::engine::Report;
use crate::flow::FlowFinding;
use crate::rules::Finding;

/// The rule catalog, in id order, as (id, short description).
const RULES: &[(&str, &str)] = &[
    (
        "R1-stateful",
        "Per-UE keyed or lock-wrapped growable collections are forbidden in satellite-side modules (paper claim S1-S5: no per-UE state on the satellite).",
    ),
    (
        "R2-float-cmp",
        "partial_cmp().unwrap() panics on NaN; use total_cmp for a deterministic total order.",
    ),
    (
        "R2-rng",
        "Unseeded randomness breaks replayable runs; seed explicitly (StdRng::seed_from_u64).",
    ),
    (
        "R2-timing",
        "Wall-clock reads outside the timing allowlist break byte-identical results.",
    ),
    (
        "R2-unordered",
        "Iteration over hash-ordered collections can leak nondeterministic order into results.",
    ),
    (
        "R3-ratchet",
        "Per-crate unwrap/expect/panic!/unsafe counts may only decrease (audit.baseline.toml).",
    ),
    (
        "R4-state-flow",
        "Dataflow statelessness: no satellite-scope storage site may transitively retain a value embedding a per-UE key (through aliases, generics, struct fields, crates).",
    ),
    (
        "R5-parallel",
        "Parallel-determinism: closures in the SC_EMU_THREADS sweep must not mutate captures, take ad-hoc locks, or iterate hash-ordered collections.",
    ),
    (
        "R6-orphan",
        "Every module is reached by an experiment row, a binary, a root test, an example or the benchmark; its own tests, its crate's tests/ and benches do not count.",
    ),
];

/// Render the whole report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &Report, warn_only: bool) -> String {
    let level = if warn_only { "warning" } else { "error" };
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"sc-audit\",\n");
    out.push_str(&format!(
        "          \"version\": {},\n",
        json_str(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str("          \"informationUri\": \"DESIGN.md\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{}\n",
            json_str(id),
            json_str(desc),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");

    let mut results: Vec<String> = Vec::new();
    for f in &report.findings {
        results.push(token_result(f, level));
    }
    for f in &report.flow {
        results.push(flow_result(f, level));
    }
    for r in &report.ratchet {
        results.push(format!(
            "{{\"ruleId\": {}, \"level\": {}, \"message\": {{\"text\": {}}}, \
             \"locations\": [{}]}}",
            json_str(ratchet_rule(r.counter)),
            json_str(level),
            json_str(&format!(
                "crates/{}: {} count {} exceeds baseline {}",
                r.krate, r.counter, r.current, r.baseline
            )),
            location("audit.baseline.toml", 1, 1),
        ));
    }
    for (i, r) in results.iter().enumerate() {
        out.push_str("        ");
        out.push_str(r);
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

fn ratchet_rule(counter: &str) -> &'static str {
    match counter {
        "r4" => "R4-state-flow",
        "r5" => "R5-parallel",
        _ => "R3-ratchet",
    }
}

fn token_result(f: &Finding, level: &str) -> String {
    format!(
        "{{\"ruleId\": {}, \"level\": {}, \"message\": {{\"text\": {}}}, \
         \"locations\": [{}]}}",
        json_str(f.rule),
        json_str(level),
        json_str(&f.message),
        location(&f.file, f.line, f.col),
    )
}

fn flow_result(f: &FlowFinding, level: &str) -> String {
    let mut s = format!(
        "{{\"ruleId\": {}, \"level\": {}, \"message\": {{\"text\": {}}}, \
         \"locations\": [{}]",
        json_str(f.rule),
        json_str(level),
        json_str(&f.message),
        location(&f.file, f.line, f.col),
    );
    if !f.trace.is_empty() {
        s.push_str(", \"codeFlows\": [{\"threadFlows\": [{\"locations\": [");
        for (i, step) in f.trace.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"location\": {{\"physicalLocation\": {}, \"message\": {{\"text\": {}}}}}}}",
                physical(&step.file, step.line, step.col),
                json_str(&step.note),
            ));
        }
        s.push_str("]}]}]");
    }
    s.push('}');
    s
}

fn location(file: &str, line: u32, col: u32) -> String {
    format!("{{\"physicalLocation\": {}}}", physical(file, line, col))
}

fn physical(file: &str, line: u32, col: u32) -> String {
    format!(
        "{{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}",
        json_str(file),
        line.max(1),
        col.max(1)
    )
}

/// Minimal JSON string encoder.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowFinding, FlowStep};

    #[test]
    fn escapes_and_structure() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let mut report = Report::default();
        report.findings.push(Finding {
            file: "crates/x/src/a.rs".into(),
            line: 3,
            col: 7,
            rule: "R1-stateful",
            message: "per-UE keyed collection `HashMap<Supi, …>`".into(),
        });
        report.flow.push(FlowFinding {
            file: "crates/x/src/a.rs".into(),
            line: 9,
            col: 5,
            rule: "R4-state-flow",
            message: "field retains per-UE state".into(),
            trace: vec![FlowStep {
                file: "crates/x/src/b.rs".into(),
                line: 1,
                col: 1,
                note: "type alias `K` = `Supi`".into(),
            }],
        });
        let sarif = to_sarif(&report, false);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"ruleId\": \"R4-state-flow\""));
        assert!(sarif.contains("\"codeFlows\""));
        assert!(sarif.contains("\"startLine\": 9"));
        assert!(sarif.contains("type alias `K`"));
        // Deterministic: same input, same bytes.
        assert_eq!(sarif, to_sarif(&report, false));
        // warn-only demotes severity.
        assert!(to_sarif(&report, true).contains("\"level\": \"warning\""));
    }
}
