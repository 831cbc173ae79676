//! Trace-tree analysis over parsed sidecars.
//!
//! [`TraceForest`] rebuilds the span tree a sidecar serialized flat
//! (ids unique, parents ahead of children, bounded depth —
//! [`Sidecar::parse`] rejects anything else) and renders the views the
//! `sctrace` binary exposes: an indented `tree`, a `critical-path`
//! table with the longest child chain per root, flamegraph-compatible
//! `folded` stacks, and an A/B `diff` of two sidecars with a regression
//! gate for CI.
//!
//! Every rendering is a pure function of its input sidecar(s), so the
//! output inherits the telemetry byte-stability guarantee: identical
//! sidecars → identical reports.

use crate::hist::Histogram;
use crate::sidecar::{Sidecar, SidecarSpan};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A span forest indexed for tree walks.
pub struct TraceForest<'a> {
    spans: &'a [SidecarSpan],
    /// Child indices per parent id, in recording order.
    children: BTreeMap<u64, Vec<usize>>,
    /// Indices of root spans (no parent, or parent shed from the ring).
    roots: Vec<usize>,
}

impl<'a> TraceForest<'a> {
    /// Index `spans` into a forest. A span whose parent was shed by the
    /// bounded ring is promoted to a root rather than dropped.
    pub fn build(spans: &'a [SidecarSpan]) -> Self {
        let present: BTreeMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut roots = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent.filter(|p| present.contains_key(p)) {
                Some(p) => children.entry(p).or_default().push(i),
                None => roots.push(i),
            }
        }
        Self {
            spans,
            children,
            roots,
        }
    }

    /// Root spans in recording order.
    pub fn roots(&self) -> impl Iterator<Item = &SidecarSpan> {
        self.roots.iter().filter_map(|i| self.spans.get(*i))
    }

    fn child_indices(&self, id: u64) -> &[usize] {
        self.children.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The critical path under span index `i`: at each level follow the
    /// child whose subtree finishes last (ties: first recorded). That
    /// child is what kept the parent open, so the chain explains the
    /// root's latency.
    pub fn critical_path(&self, i: usize) -> Vec<usize> {
        let mut path = vec![i];
        let mut cur = i;
        while let Some(span) = self.spans.get(cur) {
            let next = self
                .child_indices(span.id)
                .iter()
                .copied()
                .max_by(|a, b| {
                    let fa = self.finish(*a);
                    let fb = self.finish(*b);
                    // total_cmp, then prefer the EARLIER index on ties so
                    // the walk is deterministic and recording-ordered.
                    fa.total_cmp(&fb).then(b.cmp(a))
                });
            match next {
                Some(n) => {
                    path.push(n);
                    cur = n;
                }
                None => break,
            }
        }
        path
    }

    /// Latest finish time in the subtree under index `i` (the span's own
    /// end, or start for an open span, maxed over descendants).
    fn finish(&self, i: usize) -> f64 {
        let Some(span) = self.spans.get(i) else {
            return f64::NEG_INFINITY;
        };
        let mut best = span.end.unwrap_or(span.start);
        for c in self.child_indices(span.id) {
            best = best.max(self.finish(*c));
        }
        best
    }

    /// Indented tree listing with sim-time durations and fields.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for r in &self.roots {
            self.render_node(&mut out, *r, 0);
        }
        if self.roots.is_empty() {
            out.push_str("(no spans)\n");
        }
        out
    }

    fn render_node(&self, out: &mut String, i: usize, depth: usize) {
        self.render_line(out, i, depth);
        if let Some(s) = self.spans.get(i) {
            for c in self.child_indices(s.id) {
                self.render_node(out, *c, depth + 1);
            }
        }
    }

    fn render_line(&self, out: &mut String, i: usize, depth: usize) {
        let Some(s) = self.spans.get(i) else {
            return;
        };
        for _ in 0..depth {
            out.push_str("  ");
        }
        match s.end {
            Some(e) => {
                let _ = write!(out, "{} [{:.3}..{:.3}] +{:.3}", s.kind, s.start, e, e - s.start);
            }
            None => {
                let _ = write!(out, "{} [{:.3}..open]", s.kind, s.start);
            }
        }
        for (k, v) in &s.fields {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }

    /// The `critical-path` report: a per-root-kind percentile table of
    /// root durations (bucket-interpolated p50/p95/p99), then the
    /// longest chain under each kind's slowest root.
    pub fn render_critical_paths(&self) -> String {
        let mut out = String::new();
        // Group roots by kind, keeping recording order of first sight.
        let mut kinds: Vec<&str> = Vec::new();
        let mut by_kind: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for i in &self.roots {
            if let Some(s) = self.spans.get(*i) {
                if !by_kind.contains_key(s.kind.as_str()) {
                    kinds.push(&s.kind);
                }
                by_kind.entry(&s.kind).or_default().push(*i);
            }
        }
        if kinds.is_empty() {
            out.push_str("(no root spans)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "{:<44} {:>5} {:>10} {:>10} {:>10}",
            "root kind", "n", "p50", "p95", "p99"
        );
        for kind in &kinds {
            let idxs = by_kind.get(kind).map(Vec::as_slice).unwrap_or(&[]);
            let mut h = Histogram::new();
            for i in idxs {
                if let Some(d) = self.spans.get(*i).and_then(SidecarSpan::duration) {
                    h.observe(d);
                }
            }
            let fmt = |q: f64| match h.percentile(q) {
                Some(p) => format!("{p:.3}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<44} {:>5} {:>10} {:>10} {:>10}",
                kind,
                idxs.len(),
                fmt(0.5),
                fmt(0.95),
                fmt(0.99)
            );
        }
        for kind in &kinds {
            let idxs = by_kind.get(kind).map(Vec::as_slice).unwrap_or(&[]);
            // Slowest root of this kind (ties: first recorded).
            let slowest = idxs.iter().copied().max_by(|a, b| {
                let da = self.spans.get(*a).and_then(SidecarSpan::duration).unwrap_or(-1.0);
                let db = self.spans.get(*b).and_then(SidecarSpan::duration).unwrap_or(-1.0);
                da.total_cmp(&db).then(b.cmp(a))
            });
            let Some(slowest) = slowest else {
                continue;
            };
            let _ = writeln!(out, "\nslowest {kind}:");
            for (depth, i) in self.critical_path(slowest).into_iter().enumerate() {
                self.render_line(&mut out, i, depth + 1);
            }
        }
        out
    }

    /// Flamegraph-compatible folded stacks: one line per distinct
    /// root-to-node kind path, `kind;kind;kind <self-time>`, where
    /// self-time is the span's duration minus its children's, clamped at
    /// zero and scaled ×1000 to keep integer resolution (ms → µs for
    /// the netsim/relay spans). Sorted by path for byte-stable output.
    pub fn render_folded(&self) -> String {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for r in &self.roots {
            self.fold_into(&mut agg, *r, String::new());
        }
        let mut out = String::new();
        for (path, v) in agg {
            let _ = writeln!(out, "{path} {v}");
        }
        out
    }

    fn fold_into(&self, agg: &mut BTreeMap<String, u64>, i: usize, prefix: String) {
        let Some(s) = self.spans.get(i) else {
            return;
        };
        let path = if prefix.is_empty() {
            s.kind.clone()
        } else {
            format!("{prefix};{}", s.kind)
        };
        let own = s.duration().unwrap_or(0.0);
        let child_sum: f64 = self
            .child_indices(s.id)
            .iter()
            .filter_map(|c| self.spans.get(*c).and_then(SidecarSpan::duration))
            .sum();
        let self_time = ((own - child_sum).max(0.0) * 1000.0).round() as u64;
        *agg.entry(path.clone()).or_insert(0) += self_time;
        for c in self.child_indices(s.id) {
            self.fold_into(agg, *c, path.clone());
        }
    }
}

/// The `series` report: one row per windowed series — window count,
/// total, peak window, a steady-state estimate (median over the
/// series' span, implicit zeros included for counters), the
/// peak/steady ratio that quantifies a storm's amplitude, and a
/// sparkline of the per-window shape. A pure function of the sidecar
/// bytes, so the report is as byte-stable as the sidecar.
pub fn render_series(sc: &Sidecar) -> String {
    if sc.series.is_empty() {
        return "(no windowed series recorded)\n".to_string();
    }
    let mut out = String::new();
    let window_ticks = sc.series.values().next().map_or(0, |s| s.window_ticks);
    let _ = writeln!(
        out,
        "windowed series ({} ticks/window = {} sim-time unit(s) per window)",
        window_ticks,
        window_ticks as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "{:<44} {:>7} {:>5} {:>12} {:>12} {:>6} {:>9} {:>11}  shape",
        "series", "kind", "n", "total", "peak", "@win", "steady", "peak/stdy"
    );
    for (name, s) in &sc.series {
        let n = s.windows();
        let (peak_w, peak_v) = s.peak().unwrap_or((0, 0.0));
        let steady = steady_state(s);
        let ratio = if steady > 0.0 {
            format!("{:.2}", peak_v / steady)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:<44} {:>7} {:>5} {:>12} {:>12} {:>6} {:>9} {:>11}  {}",
            name,
            s.kind,
            n,
            trim_num(s.total()),
            trim_num(peak_v),
            peak_w,
            trim_num(steady),
            ratio,
            sparkline(s, 60)
        );
    }
    if sc.series_dropped > 0 {
        let _ = writeln!(
            out,
            "note: {} series sample(s) were shed (capacity/kind/time); series are partial",
            sc.series_dropped
        );
    }
    out
}

/// Median per-window value over the series' span. Counter series count
/// untouched windows as zero (a silent window is part of the steady
/// state) — counted, never materialised, so a far-out window costs
/// nothing; gauge series take the median of written samples only.
fn steady_state(s: &crate::sidecar::SidecarSeries) -> f64 {
    let mut vals: Vec<f64> = s.points.iter().map(|(_, v)| *v).collect();
    vals.sort_by(f64::total_cmp);
    let zeros = if s.kind == "counter" {
        s.windows().saturating_sub(vals.len() as u64)
    } else {
        0
    };
    let n = vals.len() as u64 + zeros;
    if n == 0 {
        return 0.0;
    }
    // The sorted per-window values are `vals` with the zeros spliced in
    // after the negatives.
    let at = vals.partition_point(|v| *v < 0.0) as u64;
    let kth = |k: u64| match k {
        k if k < at => vals[k as usize],
        k if k < at + zeros => 0.0,
        k => vals[(k - zeros) as usize],
    };
    let mid = n / 2;
    if n % 2 == 1 {
        kth(mid)
    } else {
        (kth(mid - 1) + kth(mid)) / 2.0
    }
}

/// Render the series' per-window shape into at most `cols` glyphs:
/// windows are chunked evenly, each chunk shows the max value inside
/// it, scaled against the series peak over eight block heights.
fn sparkline(s: &crate::sidecar::SidecarSeries, cols: u64) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let n = s.windows();
    if n == 0 {
        return String::new();
    }
    let peak = s.peak().map_or(0.0, |(_, v)| v);
    let cols = cols.clamp(1, n);
    let mut line = String::new();
    // Points ascend by window, so each chunk's points are one run.
    let mut next = 0;
    for c in 0..cols {
        // Even chunking: chunk c covers windows [c*n/cols, (c+1)*n/cols);
        // u128 because `c * n` outgrows u64 for a far-out window.
        let to = (u128::from(c + 1) * u128::from(n)) / u128::from(cols);
        let mut chunk_max = 0.0f64;
        while let Some((_, v)) = s.points.get(next).filter(|(w, _)| u128::from(*w) < to) {
            chunk_max = chunk_max.max(*v);
            next += 1;
        }
        let idx = if peak > 0.0 {
            (((chunk_max / peak) * 8.0).ceil() as usize).clamp(0, 8)
        } else {
            0
        };
        line.push(if idx == 0 { GLYPHS[0] } else { GLYPHS[idx - 1] });
    }
    line
}

/// Compact number formatting for the series table: integers print bare,
/// fractions keep two decimals.
fn trim_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

/// Compare two sidecars metric-by-metric: one line per counter,
/// histogram statistic (count, mean, p50, p95, p99), windowed series
/// quantity (total, peak) or drop counter
/// (`events_dropped`/`spans_dropped`/`series_dropped` — silent ring or
/// window shedding) that differs from `a` to `b`, with its relative
/// change, or `(absent)` on the side that lacks it. Window-aligned
/// series deltas follow (first differing windows) so a shifted storm is
/// attributable. Identical sidecars report `no differences`.
pub fn render_diff(a: &Sidecar, b: &Sidecar) -> String {
    let mut text = String::new();
    let mut compare = |name: String, va: Option<f64>, vb: Option<f64>| match (va, vb) {
        (Some(x), Some(y)) if x != y => {
            let pct = if x != 0.0 {
                (y - x) / x.abs() * 100.0
            } else {
                100.0
            };
            let _ = writeln!(text, "{name}: {x} -> {y} ({pct:+.2}%)");
        }
        (Some(x), None) => {
            let _ = writeln!(text, "{name}: {x} -> (absent)");
        }
        (None, Some(y)) => {
            let _ = writeln!(text, "{name}: (absent) -> {y}");
        }
        _ => {}
    };

    let counter_names: std::collections::BTreeSet<&String> =
        a.counters.keys().chain(b.counters.keys()).collect();
    for name in counter_names {
        compare(
            format!("counter {name}"),
            a.counters.get(name).map(|v| *v as f64),
            b.counters.get(name).map(|v| *v as f64),
        );
    }
    let hist_names: std::collections::BTreeSet<&String> =
        a.histograms.keys().chain(b.histograms.keys()).collect();
    for name in hist_names {
        let ha = a.histograms.get(name);
        let hb = b.histograms.get(name);
        compare(
            format!("hist {name} count"),
            ha.map(|h| h.count as f64),
            hb.map(|h| h.count as f64),
        );
        compare(
            format!("hist {name} mean"),
            ha.and_then(|h| h.mean()),
            hb.and_then(|h| h.mean()),
        );
        for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            compare(
                format!("hist {name} {label}"),
                ha.and_then(|h| h.percentile(q)),
                hb.and_then(|h| h.percentile(q)),
            );
        }
    }
    // Drop counters: a run that overflows a ring or series capacity
    // must not differ silently.
    compare(
        "events_dropped".to_string(),
        Some(a.events_dropped as f64),
        Some(b.events_dropped as f64),
    );
    compare(
        "spans_dropped".to_string(),
        Some(a.spans_dropped as f64),
        Some(b.spans_dropped as f64),
    );
    compare(
        "series_dropped".to_string(),
        Some(a.series_dropped as f64),
        Some(b.series_dropped as f64),
    );
    let series_names: std::collections::BTreeSet<&String> =
        a.series.keys().chain(b.series.keys()).collect();
    let mut window_lines = String::new();
    for name in series_names {
        let sa = a.series.get(name);
        let sb = b.series.get(name);
        compare(
            format!("series {name} total"),
            sa.map(|s| s.total()),
            sb.map(|s| s.total()),
        );
        compare(
            format!("series {name} peak"),
            sa.and_then(|s| s.peak()).map(|(_, v)| v),
            sb.and_then(|s| s.peak()).map(|(_, v)| v),
        );
        // Window-aligned deltas: the first few windows whose values
        // differ, so a shifted or reshaped storm is visible, not just
        // its magnitude.
        if let (Some(sa), Some(sb)) = (sa, sb) {
            let windows: std::collections::BTreeSet<u64> = sa
                .points
                .iter()
                .chain(sb.points.iter())
                .map(|(w, _)| *w)
                .collect();
            let mut shown = 0;
            let mut differing = 0;
            for w in windows {
                let va = sa.value_at(w).unwrap_or(0.0);
                let vb = sb.value_at(w).unwrap_or(0.0);
                if va != vb {
                    differing += 1;
                    if shown < 3 {
                        let _ = writeln!(window_lines, "series {name} w{w}: {va} -> {vb}");
                        shown += 1;
                    }
                }
            }
            if differing > shown {
                let _ = writeln!(
                    window_lines,
                    "series {name}: {} more differing window(s)",
                    differing - shown
                );
            }
        }
    }
    text.push_str(&window_lines);
    if text.is_empty() {
        text.push_str("no differences\n");
    }
    text
}

/// `sctrace`'s usage line, printed for any command line
/// [`TraceCommand::parse`] rejects.
pub const USAGE: &str = "usage: sctrace <tree|critical-path|folded|series> <telemetry.json>\n       sctrace diff <a.json> <b.json>";

/// One of [`TraceForest`]'s span renderings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanView {
    Tree,
    CriticalPath,
    Folded,
}

/// A parsed `sctrace` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCommand {
    /// `tree`, `critical-path` or `folded` over one sidecar.
    Spans { view: SpanView, path: String },
    /// `series` over one sidecar.
    Series { path: String },
    /// `diff` from sidecar `a` to sidecar `b`.
    Diff { a: String, b: String },
}

impl TraceCommand {
    /// Parse the arguments after the binary name. A missing or unknown
    /// subcommand, a missing path or an extra argument is an error
    /// carrying [`USAGE`]; no input panics.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let spans = |view, path: &String| Self::Spans { view, path: path.clone() };
        match args {
            [cmd, path] if cmd == "tree" => Ok(spans(SpanView::Tree, path)),
            [cmd, path] if cmd == "critical-path" => Ok(spans(SpanView::CriticalPath, path)),
            [cmd, path] if cmd == "folded" => Ok(spans(SpanView::Folded, path)),
            [cmd, path] if cmd == "series" => Ok(Self::Series { path: path.clone() }),
            [cmd, a, b] if cmd == "diff" => Ok(Self::Diff {
                a: a.clone(),
                b: b.clone(),
            }),
            _ => Err(USAGE.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sidecar::Sidecar;
    use crate::Recorder;
    use proptest::prelude::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn trace_command_parses_every_subcommand() {
        let parse = |w: &[&str]| TraceCommand::parse(&args(w));
        let spans = |view| Ok(TraceCommand::Spans { view, path: "t.json".into() });
        assert_eq!(parse(&["tree", "t.json"]), spans(SpanView::Tree));
        assert_eq!(parse(&["critical-path", "t.json"]), spans(SpanView::CriticalPath));
        assert_eq!(parse(&["folded", "t.json"]), spans(SpanView::Folded));
        assert_eq!(
            parse(&["series", "t.json"]),
            Ok(TraceCommand::Series { path: "t.json".into() })
        );
        assert_eq!(
            parse(&["diff", "a", "b"]),
            Ok(TraceCommand::Diff { a: "a".into(), b: "b".into() })
        );
        for bad in [&[][..], &["tree"], &["tree", "a", "b"], &["diff", "a"], &["diff", "a", "b", "c"], &["dump", "a"]] {
            assert_eq!(parse(bad), Err(USAGE.to_string()), "{bad:?}");
        }
    }

    /// Words an `sctrace` command line is made of — the subcommands,
    /// paths, flags, the empty string — or arbitrary characters.
    fn arg_word() -> impl Strategy<Value = String> {
        const WORDS: [&str; 9] =
            ["tree", "critical-path", "folded", "series", "diff", "", "-", "--help", "t.json"];
        (0usize..12, proptest::collection::vec(any::<u32>(), 0..12)).prop_map(|(k, cs)| {
            match WORDS.get(k) {
                Some(w) => (*w).to_string(),
                None => cs.into_iter().filter_map(char::from_u32).collect(),
            }
        })
    }

    proptest! {
        /// Panic budget: any argv parses to `Ok` or `Err`, and an `Ok`
        /// names exactly the paths it was given.
        #[test]
        fn trace_command_parse_never_panics(argv in proptest::collection::vec(arg_word(), 0..5)) {
            match TraceCommand::parse(&argv) {
                Ok(TraceCommand::Spans { path, .. } | TraceCommand::Series { path }) => {
                    prop_assert_eq!(argv.len(), 2);
                    prop_assert_eq!(&path, &argv[1]);
                }
                Ok(TraceCommand::Diff { a, b }) => {
                    prop_assert_eq!(argv.len(), 3);
                    prop_assert_eq!((&a, &b), (&argv[1], &argv[2]));
                }
                Err(e) => prop_assert_eq!(e, USAGE.to_string()),
            }
        }
    }

    fn traced_sidecar() -> Result<Sidecar, String> {
        let r = Recorder::new();
        // Ground-routed procedure: root kept open by a long hop.
        let g = r.span_open(None, "proc.ground", 0.0, vec![]);
        r.span(Some(g), "hop.sat_ground", 0.0, 30.0, vec![]);
        r.span(Some(g), "hop.local", 30.0, 32.0, vec![]);
        r.span_close(g, 32.0);
        // Local procedure: short hops only.
        let l = r.span_open(None, "proc.local", 0.0, vec![]);
        r.span(Some(l), "hop.local", 0.0, 2.0, vec![]);
        r.span_close(l, 2.0);
        Sidecar::parse(&r.snapshot().to_json("unit")).map_err(|e| e.to_string())
    }

    #[test]
    fn forest_finds_roots_and_children() -> Result<(), String> {
        let sc = traced_sidecar()?;
        let f = TraceForest::build(&sc.spans);
        let kinds: Vec<&str> = f.roots().map(|s| s.kind.as_str()).collect();
        assert_eq!(kinds, vec!["proc.ground", "proc.local"]);
        Ok(())
    }

    #[test]
    fn orphaned_span_promotes_to_root() -> Result<(), String> {
        let r = Recorder::with_capacities(8, 2);
        let root = r.span_open(None, "proc", 0.0, vec![]);
        r.span(Some(root), "a", 0.0, 1.0, vec![]);
        r.span(Some(root), "b", 1.0, 2.0, vec![]); // sheds "proc"
        let sc =
            Sidecar::parse(&r.snapshot().to_json("unit")).map_err(|e| e.to_string())?;
        assert_eq!(sc.spans_dropped, 1);
        let f = TraceForest::build(&sc.spans);
        assert_eq!(f.roots().count(), 2);
        Ok(())
    }

    #[test]
    fn critical_path_follows_last_finisher() -> Result<(), String> {
        let sc = traced_sidecar()?;
        let f = TraceForest::build(&sc.spans);
        // Root 0 is proc.ground (index 0); its critical path must run
        // through hop.local (ends at 32.0), not hop.sat_ground (30.0).
        let path = f.critical_path(0);
        let kinds: Vec<&str> = path
            .iter()
            .filter_map(|i| sc.spans.get(*i))
            .map(|s| s.kind.as_str())
            .collect();
        assert_eq!(kinds, vec!["proc.ground", "hop.local"]);
        Ok(())
    }

    #[test]
    fn tree_and_folded_render_are_stable() -> Result<(), String> {
        let (a, b) = (traced_sidecar()?, traced_sidecar()?);
        let fa = TraceForest::build(&a.spans);
        let fb = TraceForest::build(&b.spans);
        assert_eq!(fa.render_tree(), fb.render_tree());
        assert_eq!(fa.render_folded(), fb.render_folded());
        assert!(fa.render_tree().contains("proc.ground"));
        // Folded stacks: ground root's self time is 0 (fully covered by
        // hops); the sat-ground hop keeps its full 30 ms = 30000.
        let folded = fa.render_folded();
        assert!(folded.contains("proc.ground;hop.sat_ground 30000"), "{folded}");
        Ok(())
    }

    #[test]
    fn render_critical_paths_tables_per_kind() -> Result<(), String> {
        let sc = traced_sidecar()?;
        let out = TraceForest::build(&sc.spans).render_critical_paths();
        assert!(out.contains("proc.ground"), "{out}");
        assert!(out.contains("proc.local"), "{out}");
        assert!(out.contains("slowest proc.ground:"), "{out}");
        Ok(())
    }

    #[test]
    fn diff_of_identical_sidecars_is_clean() -> Result<(), String> {
        let (a, b) = (traced_sidecar()?, traced_sidecar()?);
        assert_eq!(render_diff(&a, &b), "no differences\n");
        Ok(())
    }

    #[test]
    fn diff_flags_increases_beyond_threshold() -> Result<(), String> {
        let ra = Recorder::new();
        ra.inc("net.tx", 100);
        ra.observe("lat", 10.0);
        let rb = Recorder::new();
        rb.inc("net.tx", 120);
        rb.observe("lat", 10.0);
        let a = Sidecar::parse(&ra.snapshot().to_json("u")).map_err(|e| e.to_string())?;
        let b = Sidecar::parse(&rb.snapshot().to_json("u")).map_err(|e| e.to_string())?;
        // Only the counter that moved is reported, with its change.
        assert_eq!(render_diff(&a, &b), "counter net.tx: 100 -> 120 (+20.00%)\n");
        assert_eq!(render_diff(&b, &a), "counter net.tx: 120 -> 100 (-16.67%)\n");
        // A counter on one side only is reported absent on the other.
        rb.inc("net.rx", 7);
        let b = Sidecar::parse(&rb.snapshot().to_json("u")).map_err(|e| e.to_string())?;
        let r = render_diff(&a, &b);
        assert!(r.contains("counter net.rx: (absent) -> 7\n"), "{r}");
        assert!(render_diff(&b, &a).contains("counter net.rx: 7 -> (absent)\n"));
        Ok(())
    }

    /// A storm-shaped sidecar: steady 10/window with a spike to 40 at
    /// window 3, plus a gauge sampled in two windows.
    fn stormy_sidecar(spike: u64) -> Result<Sidecar, String> {
        let r = Recorder::new();
        for w in 0..6u64 {
            r.series_inc_tick("load.per_s", w * crate::WINDOW_TICKS, 10);
        }
        r.series_inc_tick("load.per_s", 3 * crate::WINDOW_TICKS, spike - 10);
        r.series_gauge_tick("depth", 0, 5.0);
        r.series_gauge_tick("depth", 4 * crate::WINDOW_TICKS, 7.0);
        Sidecar::parse(&r.snapshot().to_json("unit")).map_err(|e| e.to_string())
    }

    #[test]
    fn diff_gates_series_totals_and_peaks() -> Result<(), String> {
        let a = stormy_sidecar(40)?;
        let b = stormy_sidecar(80)?;
        // Peak 40 -> 80, total 90 -> 130.
        let r = render_diff(&a, &b);
        assert!(r.contains("series load.per_s total: 90 -> 130 (+44.44%)\n"), "{r}");
        assert!(r.contains("series load.per_s peak: 40 -> 80 (+100.00%)\n"), "{r}");
        // Window-aligned delta names the reshaped window.
        assert!(r.contains("series load.per_s w3: 40 -> 80"), "{r}");
        // Self-diff stays clean.
        assert_eq!(render_diff(&a, &stormy_sidecar(40)?), "no differences\n");
        Ok(())
    }

    #[test]
    fn diff_gates_drop_counters() -> Result<(), String> {
        let ra = Recorder::new();
        let a = Sidecar::parse(&ra.snapshot().to_json("u")).map_err(|e| e.to_string())?;
        let rb = Recorder::new();
        rb.series_inc("shed", -1.0, 1); // negative time: dropped
        let b = Sidecar::parse(&rb.snapshot().to_json("u")).map_err(|e| e.to_string())?;
        assert_eq!(render_diff(&a, &b), "series_dropped: 0 -> 1 (+100.00%)\n");
        Ok(())
    }

    #[test]
    fn far_out_window_is_counted_not_allocated() -> Result<(), String> {
        // One point at window 2^34 on a counter series: a Vec of every
        // implicit zero window would be 128 GiB.
        let json = Recorder::new().snapshot().to_json("unit").replace(
            "\"series\": {}",
            "\"series\": {\"s\":{\"kind\":\"counter\",\"window_ticks\":1000000,\"points\":[[3,4],[17179869184,9]]}}",
        );
        let sc = Sidecar::parse(&json).map_err(|e| e.to_string())?;
        let s = sc.series.get("s").ok_or("series s missing")?;
        assert_eq!(s.windows(), (1 << 34) + 1);
        // All but two windows are zero, so the median is.
        assert_eq!(steady_state(s), 0.0);
        let line = sparkline(s, 60);
        assert_eq!(line.chars().count(), 60);
        // 4/9 of the peak in the first chunk, the peak in the last.
        assert!(line.starts_with('▄') && line.ends_with('█'), "{line}");
        assert!(render_series(&sc).contains("17179869185"));
        Ok(())
    }

    #[test]
    fn render_series_tables_storm_shape() -> Result<(), String> {
        let sc = stormy_sidecar(40)?;
        let out = render_series(&sc);
        assert!(out.contains("load.per_s"), "{out}");
        assert!(out.contains("depth"), "{out}");
        // Peak 40 at window 3; steady-state (median of 10,10,10,40,10,10) = 10;
        // ratio 4.00.
        assert!(out.contains("4.00"), "{out}");
        // Sparkline: 6 windows, peak glyph at the spike.
        assert!(out.contains('█'), "{out}");
        // Stable across re-renders of the same bytes.
        assert_eq!(out, render_series(&stormy_sidecar(40)?));
        // A run that recorded no series (fig05's sidecar) says so.
        let none = Sidecar::parse(&Recorder::new().snapshot().to_json("u"))
            .map_err(|e| e.to_string())?;
        assert_eq!(render_series(&none), "(no windowed series recorded)\n");
        Ok(())
    }
}
