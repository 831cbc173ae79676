//! Reading telemetry sidecars back in.
//!
//! [`Sidecar::parse`] is the inverse of [`crate::Snapshot::to_json`]: a
//! hand-rolled, zero-dependency JSON reader for the one schema the writer
//! emits ([`crate::SCHEMA`]; any other generation is rejected).
//! It backs the `sctrace` analysis binary, which must not pull serde
//! into this crate. Parsing is strict about structure (a malformed
//! sidecar or a missing section is an error, not a guess) but lenient
//! about *extra* object keys. What the analyses in [`crate::trace`]
//! rely on is checked here, where the bytes enter: span ids are
//! unique, a parent present in the file precedes its children, span
//! trees nest at most `MAX_SPAN_DEPTH` deep, and a series' windows
//! ascend strictly.
//!
//! Everything returns `Result` — this crate ratchets at zero panic
//! sites, sidecar included.

use crate::hist::percentile_from_buckets;
use std::collections::BTreeMap;

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing stopped.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "telemetry parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// One histogram as serialized: exact sidecars plus sparse buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct SidecarHist {
    pub count: u64,
    pub sum: f64,
    pub min: Option<f64>,
    pub max: Option<f64>,
    /// Sparse `(upper_bound, count)` pairs, ascending; `None` = overflow.
    pub buckets: Vec<(Option<f64>, u64)>,
}

impl SidecarHist {
    /// Mean sample, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Bucket-interpolated quantile, same rule as
    /// [`crate::Histogram::percentile`].
    pub fn percentile(&self, q: f64) -> Option<f64> {
        percentile_from_buckets(&self.buckets, self.count, self.min, self.max, q)
    }
}

/// One span as serialized.
#[derive(Debug, Clone, PartialEq)]
pub struct SidecarSpan {
    pub id: u64,
    pub parent: Option<u64>,
    pub kind: String,
    pub start: f64,
    /// `None` = the span was still open (or closed at a non-finite time).
    pub end: Option<f64>,
    /// Field key/value pairs in serialized (sorted-key) order, values
    /// rendered as display strings.
    pub fields: Vec<(String, String)>,
}

impl SidecarSpan {
    /// `end - start` for a closed span.
    pub fn duration(&self) -> Option<f64> {
        self.end.map(|e| e - self.start)
    }

    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One windowed series as serialized (`sc-obs/3` `"series"` section).
#[derive(Debug, Clone, PartialEq)]
pub struct SidecarSeries {
    /// `"counter"` or `"gauge"`.
    pub kind: String,
    /// Window width in integer µs-grid ticks.
    pub window_ticks: u64,
    /// Sparse `(window, value)` points, ascending window order.
    pub points: Vec<(u64, f64)>,
}

impl SidecarSeries {
    /// Sum over all points (per-window totals for counters).
    pub fn total(&self) -> f64 {
        self.points.iter().map(|(_, v)| v).sum()
    }

    /// The `(window, value)` with the largest value (ties: earliest
    /// window), `None` for an empty series.
    pub fn peak(&self) -> Option<(u64, f64)> {
        self.points
            .iter()
            .copied()
            .max_by(|(wa, va), (wb, vb)| va.total_cmp(vb).then(wb.cmp(wa)))
    }

    /// Number of windows spanned: last touched window + 1 (saturating).
    pub fn windows(&self) -> u64 {
        self.points.last().map_or(0, |(w, _)| w.saturating_add(1))
    }

    /// The value in window `w` (0.0 for an untouched counter window,
    /// `None` only when no point exists at `w` and the series is a
    /// gauge — callers treat absence per kind). A binary search:
    /// `points` ascend by window.
    pub fn value_at(&self, w: u64) -> Option<f64> {
        self.points.binary_search_by_key(&w, |(pw, _)| *pw).ok().map(|i| self.points[i].1)
    }
}

/// A parsed telemetry sidecar.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sidecar {
    pub schema: String,
    pub experiment: String,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, SidecarHist>,
    /// Number of serialized events (the analyzer only needs the count).
    pub events: usize,
    pub events_dropped: u64,
    pub spans: Vec<SidecarSpan>,
    pub spans_dropped: u64,
    /// Windowed series.
    pub series: BTreeMap<String, SidecarSeries>,
    pub series_dropped: u64,
}

impl Sidecar {
    /// Parse a telemetry sidecar (schema [`crate::SCHEMA`] only).
    pub fn parse(input: &str) -> Result<Sidecar, ParseError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        let root = p.value(0)?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.err("trailing data after top-level object"));
        }
        Sidecar::from_value(&root)
    }

    fn from_value(root: &Value) -> Result<Sidecar, ParseError> {
        let obj = root
            .as_obj()
            .ok_or_else(|| err_at(0, "top level is not an object"))?;
        let schema = get_str(obj, "schema")?;
        if schema != crate::SCHEMA {
            return Err(err_at(0, &format!("unsupported schema {schema:?}")));
        }
        let mut out = Sidecar {
            schema,
            experiment: get_str(obj, "experiment")?,
            ..Sidecar::default()
        };
        for (k, v) in get(obj, "counters")?.as_obj_or_empty() {
            out.counters.insert(
                k.clone(),
                v.as_u64()
                    .ok_or_else(|| err_at(0, &format!("counter {k:?} is not a u64")))?,
            );
        }
        for (k, v) in get(obj, "gauges")?.as_obj_or_empty() {
            out.gauges.insert(
                k.clone(),
                v.as_f64()
                    .ok_or_else(|| err_at(0, &format!("gauge {k:?} is not a number")))?,
            );
        }
        for (k, v) in get(obj, "histograms")?.as_obj_or_empty() {
            out.histograms.insert(k.clone(), parse_hist(k, v)?);
        }
        out.events = get(obj, "events")?.as_arr_or_empty().len();
        out.events_dropped = get(obj, "events_dropped")?
            .as_u64()
            .ok_or_else(|| err_at(0, "events_dropped is not a u64"))?;
        for (i, sv) in get(obj, "spans")?.as_arr_or_empty().iter().enumerate() {
            out.spans.push(parse_span(i, sv)?);
        }
        check_span_order(&out.spans)?;
        out.spans_dropped = get(obj, "spans_dropped")?
            .as_u64()
            .ok_or_else(|| err_at(0, "spans_dropped is not a u64"))?;
        for (k, v) in get(obj, "series")?.as_obj_or_empty() {
            out.series.insert(k.clone(), parse_series(k, v)?);
        }
        out.series_dropped = get(obj, "series_dropped")?
            .as_u64()
            .ok_or_else(|| err_at(0, "series_dropped is not a u64"))?;
        Ok(out)
    }

    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

fn parse_hist(name: &str, v: &Value) -> Result<SidecarHist, ParseError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| err_at(0, &format!("histogram {name:?} is not an object")))?;
    let mut buckets = Vec::new();
    for b in get(obj, "buckets")?.as_arr_or_empty() {
        let pair = b.as_arr_or_empty();
        match (pair.first(), pair.get(1)) {
            (Some(bound), Some(count)) => buckets.push((
                bound.as_f64(),
                count
                    .as_u64()
                    .ok_or_else(|| err_at(0, &format!("bucket count in {name:?} is not a u64")))?,
            )),
            _ => return Err(err_at(0, &format!("bucket in {name:?} is not a pair"))),
        }
    }
    Ok(SidecarHist {
        count: get(obj, "count")?
            .as_u64()
            .ok_or_else(|| err_at(0, &format!("count of {name:?} is not a u64")))?,
        sum: get(obj, "sum")?
            .as_f64()
            .ok_or_else(|| err_at(0, &format!("sum of {name:?} is not a number")))?,
        min: find(obj, "min").and_then(Value::as_f64),
        max: find(obj, "max").and_then(Value::as_f64),
        buckets,
    })
}

/// The span-list shape [`crate::trace::TraceForest`] walks without
/// re-checking: every id once, a parent that is in the file ahead of
/// its children (one shed by the ring is simply absent), and trees no
/// deeper than [`MAX_SPAN_DEPTH`]. [`crate::span`] emits nothing else.
fn check_span_order(spans: &[SidecarSpan]) -> Result<(), ParseError> {
    let bad = |i: usize, why: String| Err(err_at(0, &format!("span #{i} {why}")));
    let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    // Depth of every span seen so far, by id.
    let mut depth_of: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let depth = match s.parent.filter(|p| ids.contains(p)) {
            None => 0,
            Some(p) => match depth_of.get(&p) {
                Some(d) if *d < MAX_SPAN_DEPTH => d + 1,
                Some(_) => return bad(i, format!("nests deeper than {MAX_SPAN_DEPTH}")),
                None => return bad(i, format!("has parent {p}, which is not earlier in the file")),
            },
        };
        if depth_of.insert(s.id, depth).is_some() {
            return bad(i, format!("repeats id {}", s.id));
        }
    }
    Ok(())
}

fn parse_series(name: &str, v: &Value) -> Result<SidecarSeries, ParseError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| err_at(0, &format!("series {name:?} is not an object")))?;
    let mut points: Vec<(u64, f64)> = Vec::new();
    for p in get(obj, "points")?.as_arr_or_empty() {
        let pair = p.as_arr_or_empty();
        match (pair.first().and_then(Value::as_u64), pair.get(1).and_then(Value::as_f64)) {
            (Some(w), Some(_)) if points.last().is_some_and(|(last, _)| w <= *last) => {
                return Err(err_at(0, &format!("series {name:?} window {w} does not ascend")))
            }
            (Some(w), Some(v)) => points.push((w, v)),
            _ => {
                return Err(err_at(
                    0,
                    &format!("series {name:?} point is not a [window, value] pair"),
                ))
            }
        }
    }
    Ok(SidecarSeries {
        kind: get_str(obj, "kind")?,
        window_ticks: get(obj, "window_ticks")?
            .as_u64()
            .ok_or_else(|| err_at(0, &format!("window_ticks of {name:?} is not a u64")))?,
        points,
    })
}

fn parse_span(i: usize, v: &Value) -> Result<SidecarSpan, ParseError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| err_at(0, &format!("span #{i} is not an object")))?;
    let mut fields = Vec::new();
    for (k, fv) in get(obj, "fields")?.as_obj_or_empty() {
        fields.push((k.clone(), fv.display()));
    }
    Ok(SidecarSpan {
        id: get(obj, "id")?
            .as_u64()
            .ok_or_else(|| err_at(0, &format!("span #{i} id is not a u64")))?,
        parent: match get(obj, "parent")? {
            Value::Null => None,
            p => Some(
                p.as_u64()
                    .ok_or_else(|| err_at(0, &format!("span #{i} parent is not a u64")))?,
            ),
        },
        kind: get_str(obj, "kind")?,
        start: get(obj, "start")?
            .as_f64()
            .ok_or_else(|| err_at(0, &format!("span #{i} start is not a number")))?,
        end: get(obj, "end")?.as_f64(),
        fields,
    })
}

// ---- generic JSON value ------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    /// Raw number token, parsed lazily so u64 counters stay lossless.
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    fn as_obj_or_empty(&self) -> &[(String, Value)] {
        self.as_obj().unwrap_or(&[])
    }

    fn as_arr_or_empty(&self) -> &[Value] {
        match self {
            Value::Arr(a) => a,
            _ => &[],
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A display rendering for span field values (numbers keep their
    /// serialized token, strings their contents).
    fn display(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Num(raw) => raw.clone(),
            Value::Str(s) => s.clone(),
            Value::Arr(_) => "[…]".to_string(),
            Value::Obj(_) => "{…}".to_string(),
        }
    }
}

fn find<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Result<&'a Value, ParseError> {
    find(obj, key).ok_or_else(|| err_at(0, &format!("missing key {key:?}")))
}

fn get_str(obj: &[(String, Value)], key: &str) -> Result<String, ParseError> {
    get(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| err_at(0, &format!("{key:?} is not a string")))
}

fn err_at(at: usize, msg: &str) -> ParseError {
    ParseError {
        at,
        msg: msg.to_string(),
    }
}

// ---- recursive-descent parser ------------------------------------------

/// Nesting bound; documented sidecars nest 4 deep, this leaves headroom
/// while keeping hostile inputs from exhausting the stack.
const MAX_DEPTH: usize = 32;

/// Bound on span-tree depth, for the same reason: the tree walks in
/// [`crate::trace`] recurse (and indent) once per level. Emitted trees
/// are procedure → step → hop, 3 deep.
const MAX_SPAN_DEPTH: usize = 32;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        err_at(self.pos, msg)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.consume(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.consume(b':')?;
            let v = self.value(depth + 1)?;
            out.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.consume(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(code);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged:
                    // copy the whole scalar at once (`text` is already
                    // valid, so nothing past it is re-checked).
                    match self.text.get(self.pos..).and_then(|s| s.chars().next()) {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err(self.err("invalid UTF-8")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if raw.parse::<f64>().is_err() {
            return Err(err_at(start, &format!("invalid number token {raw:?}")));
        }
        Ok(Value::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldValue, Recorder};

    fn sample_json() -> String {
        let r = Recorder::new();
        r.inc("net.msgs", 7);
        r.set_gauge("net.load", 0.75);
        for v in [2.0, 30.0, 30.0, 700.0] {
            r.observe("net.delay_ms", v);
        }
        r.event(1.0, "net.step", vec![("idx", FieldValue::from(0u64))]);
        r.series_inc("net.msgs_per_s", 0.5, 3);
        r.series_inc("net.msgs_per_s", 2.5, 4);
        r.series_gauge("net.depth", 1.0, 7.5);
        let root = r.span_open(None, "proc", 0.0, vec![("route", FieldValue::from("ground"))]);
        r.span(Some(root), "hop", 0.0, 30.0, vec![("dist_km", FieldValue::from(550.0))]);
        r.span_close_with(root, 62.0, vec![("completed", FieldValue::from(1u64))]);
        r.snapshot().to_json("unit")
    }

    #[test]
    fn round_trips_an_emitted_snapshot() -> Result<(), ParseError> {
        let sc = Sidecar::parse(&sample_json())?;
        assert_eq!(sc.schema, crate::SCHEMA);
        assert_eq!(sc.experiment, "unit");
        assert_eq!(sc.counter("net.msgs"), 7);
        assert_eq!(sc.gauges.get("net.load"), Some(&0.75));
        let h = sc.histograms.get("net.delay_ms");
        assert_eq!(h.map(|h| h.count), Some(4));
        assert_eq!(h.and_then(|h| h.min), Some(2.0));
        assert_eq!(h.and_then(|h| h.max), Some(700.0));
        assert_eq!(sc.events, 1);
        assert_eq!(sc.spans.len(), 2);
        assert_eq!(sc.spans[0].kind, "proc");
        assert_eq!(sc.spans[0].parent, None);
        assert_eq!(sc.spans[0].field("route"), Some("ground"));
        assert_eq!(sc.spans[0].field("completed"), Some("1"));
        assert_eq!(sc.spans[1].parent, Some(0));
        assert_eq!(sc.spans[1].duration(), Some(30.0));
        let s = sc.series.get("net.msgs_per_s");
        assert_eq!(s.map(|s| s.kind.as_str()), Some("counter"));
        assert_eq!(s.map(|s| s.window_ticks), Some(crate::WINDOW_TICKS));
        assert_eq!(s.map(|s| s.points.clone()), Some(vec![(0, 3.0), (2, 4.0)]));
        assert_eq!(s.map(|s| s.total()), Some(7.0));
        assert_eq!(s.and_then(|s| s.peak()), Some((2, 4.0)));
        assert_eq!(s.map(|s| s.windows()), Some(3));
        assert_eq!(s.and_then(|s| s.value_at(0)), Some(3.0));
        assert_eq!(s.and_then(|s| s.value_at(1)), None);
        let g = sc.series.get("net.depth");
        assert_eq!(g.map(|g| g.kind.as_str()), Some("gauge"));
        assert_eq!(g.map(|g| g.points.clone()), Some(vec![(1, 7.5)]));
        assert_eq!(sc.series_dropped, 0);
        Ok(())
    }

    #[test]
    fn open_span_null_end_parses_as_none() -> Result<(), ParseError> {
        let r = Recorder::new();
        r.span_open(None, "open", 3.5, vec![]);
        let sc = Sidecar::parse(&r.snapshot().to_json("unit"))?;
        assert_eq!(sc.spans[0].end, None);
        assert_eq!(sc.spans[0].duration(), None);
        assert_eq!(sc.spans[0].start, 3.5);
        Ok(())
    }

    #[test]
    fn rejects_garbage_and_unknown_schema() {
        assert!(Sidecar::parse("not json").is_err());
        assert!(Sidecar::parse("{}").is_err());
        // Every generation but the writer's gets the same error: a
        // future one, and the two retired ones.
        for other in ["sc-obs/99", "sc-obs/1", "sc-obs/2"] {
            let err = Sidecar::parse(&sample_json().replace(crate::SCHEMA, other));
            let msg = err.err().map(|e| e.msg).unwrap_or_default();
            assert_eq!(msg, format!("unsupported schema {other:?}"));
        }
        // The writer emits every section; a file missing one is malformed.
        for section in ["spans", "spans_dropped", "series", "series_dropped"] {
            let renamed = sample_json().replace(&format!("\"{section}\":"), "\"x\":");
            let msg = Sidecar::parse(&renamed).err().map(|e| e.msg).unwrap_or_default();
            assert_eq!(msg, format!("missing key {section:?}"));
        }
        // Trailing data after the object.
        let mut j = sample_json();
        j.push_str("{}");
        assert!(Sidecar::parse(&j).is_err());
    }

    /// A minimal sidecar around hand-written `spans` and `series` sections.
    fn hostile(spans: &str, series: &str) -> String {
        format!(
            r#"{{"schema":"{}","experiment":"h","counters":{{}},"gauges":{{}},"histograms":{{}},"events":[],"events_dropped":0,"spans":[{spans}],"spans_dropped":0,"series":{{{series}}},"series_dropped":0}}"#,
            crate::SCHEMA
        )
    }

    /// Why `parse` rejected `json` ("" when it did not).
    fn rejection(json: &str) -> String {
        Sidecar::parse(json).err().map(|e| e.msg).unwrap_or_default()
    }

    fn span(id: u64, parent: &str) -> String {
        format!(r#"{{"id":{id},"parent":{parent},"kind":"k","start":0,"end":1,"fields":{{}}}}"#)
    }

    #[test]
    fn rejects_span_lists_the_forest_cannot_walk() {
        let msg = |spans: &[String]| rejection(&hostile(&spans.join(","), ""));
        // A repeated id that is its own parent: `sctrace tree` never
        // returned on this one.
        assert_eq!(msg(&[span(1, "null"), span(2, "1"), span(2, "2")]), "span #2 repeats id 2");
        assert_eq!(msg(&[span(1, "null"), span(1, "null")]), "span #1 repeats id 1");
        // A parent that is in the file, but not earlier (or is the span itself).
        assert_eq!(
            msg(&[span(2, "3"), span(3, "null")]),
            "span #0 has parent 3, which is not earlier in the file"
        );
        assert_eq!(msg(&[span(5, "5")]), "span #0 has parent 5, which is not earlier in the file");
        // A parent the ring shed is merely absent: still a root.
        assert_eq!(msg(&[span(7, "3"), span(8, "7")]), "");
        // A chain one level past the bound.
        let chain = |n: u64| -> Vec<String> {
            (0..n).map(|i| span(i, &i.checked_sub(1).map_or("null".into(), |p| p.to_string()))).collect()
        };
        assert_eq!(msg(&chain(MAX_SPAN_DEPTH as u64 + 1)), "");
        assert_eq!(
            msg(&chain(MAX_SPAN_DEPTH as u64 + 2)),
            format!("span #{} nests deeper than {MAX_SPAN_DEPTH}", MAX_SPAN_DEPTH + 1)
        );
    }

    #[test]
    fn rejects_series_windows_that_do_not_ascend() {
        let series = |points: &str| {
            hostile("", &format!(r#""s":{{"kind":"counter","window_ticks":1,"points":[{points}]}}"#))
        };
        for points in ["[3,1],[3,2]", "[3,1],[2,1]"] {
            let msg = rejection(&series(points));
            assert!(msg.starts_with("series \"s\" window") && msg.ends_with("does not ascend"), "{msg}");
        }
        // The last window a u64 can name: `windows()` saturates.
        let far = Sidecar::parse(&series("[18446744073709551615,1]")).ok();
        let s = far.as_ref().and_then(|sc| sc.series.get("s"));
        assert_eq!(s.map(SidecarSeries::windows), Some(u64::MAX));
        assert_eq!(s.and_then(|s| s.value_at(u64::MAX)), Some(1.0));
    }

    #[test]
    fn percentile_matches_in_process_histogram() {
        let mut h = crate::Histogram::new();
        let r = Recorder::new();
        for v in [1.0, 4.0, 4.0, 9.0, 60.0, 120.0, 800.0, 3000.0] {
            h.observe(v);
            r.observe("x", v);
        }
        let parsed = Sidecar::parse(&r.snapshot().to_json("unit")).ok();
        let side = parsed.as_ref().and_then(|s| s.histograms.get("x"));
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(side.and_then(|s| s.percentile(q)), h.percentile(q), "q={q}");
        }
    }

    #[test]
    fn string_escapes_round_trip() -> Result<(), ParseError> {
        let r = Recorder::new();
        r.span_open(None, "k", 0.0, vec![("msg", FieldValue::from("a\"b\\c\nd"))]);
        let sc = Sidecar::parse(&r.snapshot().to_json("unit"))?;
        assert_eq!(sc.spans[0].field("msg"), Some("a\"b\\c\nd"));
        Ok(())
    }
}
