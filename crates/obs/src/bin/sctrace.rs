//! `sctrace` — analyze sc-obs telemetry sidecars.
//!
//! ```text
//! sctrace tree <telemetry.json>            indented span tree
//! sctrace critical-path <telemetry.json>   per-kind p50/p95/p99 + slowest chains
//! sctrace folded <telemetry.json>          flamegraph-compatible folded stacks
//! sctrace series <telemetry.json>          windowed series sparkline table
//! sctrace diff <a.json> <b.json>          what moved from A to B
//! ```
//!
//! `series` renders the windowed time-series section: one row per
//! series with total, peak window, steady-state (median), the
//! peak/steady storm-amplitude ratio, and a sparkline of the shape.
//!
//! `diff` lists every counter, histogram statistic, drop counter and
//! series total/peak that differs from A to B, with its relative
//! change, then the first differing windows of each series; a sidecar
//! diffed against its own rerun prints `no differences`. It is a report,
//! not a gate: like every subcommand it exits 1 only when it cannot read
//! or parse its input. Output is a pure function of the input bytes, so
//! reports are as byte-stable as the sidecars themselves.

use sc_obs::sidecar::Sidecar;
use sc_obs::trace::{render_diff, render_series, SpanView, TraceCommand, TraceForest};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sctrace: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match TraceCommand::parse(args)? {
        TraceCommand::Spans { view, path } => {
            let sc = load(&path)?;
            let forest = TraceForest::build(&sc.spans);
            let report = match view {
                SpanView::Tree => forest.render_tree(),
                SpanView::CriticalPath => forest.render_critical_paths(),
                SpanView::Folded => forest.render_folded(),
            };
            print!("{report}");
            if sc.spans_dropped > 0 {
                eprintln!(
                    "sctrace: note: {} spans were shed by the bounded ring; the tree is partial",
                    sc.spans_dropped
                );
            }
        }
        TraceCommand::Series { path } => print!("{}", render_series(&load(&path)?)),
        TraceCommand::Diff { a, b } => print!("{}", render_diff(&load(&a)?, &load(&b)?)),
    }
    Ok(ExitCode::SUCCESS)
}

fn load(path: &str) -> Result<Sidecar, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Sidecar::parse(&text).map_err(|e| format!("{path}: {e}"))
}
