//! The two JSON documents the benchmark writes: the one-line result
//! and the span file. The vendored `serde_json` stand-in has no map
//! type, and metric names are data here, so both are emitted by hand.

use crate::trace::{Span, NO_PARENT};
use std::fmt::Write;

/// One measured value with its unit, as printed and as emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A JSON number with every digit `f64` carries (`null` for NaN and
/// infinities, which JSON cannot spell).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result object the driver reads from the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(m.name),
            number(m.value),
            string(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// The metrics of a result line written by [`result_line`], by name.
/// `None` when the line is not one, or a value is not a number.
pub fn parse_metrics(line: &str) -> Option<Vec<(String, f64)>> {
    let mut rest = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    while let Some((head, tail)) = rest.split_once("\": {\"value\": ") {
        let name = head.rsplit_once('"')?.1;
        let (value, after) = tail.split_once(", \"unit\"")?;
        out.push((name.to_string(), value.parse().ok()?));
        rest = after;
    }
    Some(out)
}

/// The span file: one object per span, in recording order, so a
/// span's `parent` always names an earlier `id`.
pub fn trace_file(workload: &str, seed: u64, spans: &[Span], dropped: u64) -> String {
    let mut out = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"spans_dropped\": {dropped},\n  \"spans\": [",
        string(workload)
    );
    for (id, s) in spans.iter().enumerate() {
        out.push_str(if id == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": ",
            string(s.kind.name()),
            s.start_ns,
            s.end_ns
        );
        if s.parent == NO_PARENT {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", s.parent);
        }
        let _ = write!(out, ", \"unit\": {}}}", s.unit);
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Kind;

    #[test]
    fn numbers_keep_digits_and_reject_non_finite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric {
                    name: "wall_s",
                    value: 1.25,
                    unit: "s",
                },
                Metric {
                    name: "ops_per_s",
                    value: 800.0,
                    unit: "1/s",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 800.0, \"unit\": \"1/s\"}}}"
        );
        assert!(!line.contains('\n'));
        assert_eq!(
            parse_metrics(&line),
            Some(vec![
                ("wall_s".to_string(), 1.25),
                ("ops_per_s".to_string(), 800.0)
            ])
        );
        assert_eq!(parse_metrics("every workload passed"), None);
        let nan = result_line(
            false,
            1,
            1,
            &[Metric {
                name: "wall_s",
                value: f64::NAN,
                unit: "s",
            }],
        );
        assert_eq!(parse_metrics(&nan), None);
    }

    #[test]
    fn trace_file_links_parents_by_id() {
        let spans = [
            Span {
                kind: Kind::Ledger,
                start_ns: 5,
                end_ns: 50,
                parent: NO_PARENT,
                unit: 1,
            },
            Span {
                kind: Kind::Establish,
                start_ns: 10,
                end_ns: 20,
                parent: 0,
                unit: 7,
            },
        ];
        let doc = trace_file("serve", 9, &spans, 3);
        assert!(doc.contains("\"workload\": \"serve\""));
        assert!(doc.contains("\"spans_dropped\": 3"));
        assert!(doc.contains(
            "{\"id\": 0, \"name\": \"ledger\", \"start_ns\": 5, \"end_ns\": 50, \"parent\": null, \"unit\": 1}"
        ));
        assert!(doc.contains(
            "{\"id\": 1, \"name\": \"spacecore.establish\", \"start_ns\": 10, \"end_ns\": 20, \"parent\": 0, \"unit\": 7}"
        ));
    }
}
