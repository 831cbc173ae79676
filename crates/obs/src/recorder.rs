//! The [`Recorder`] handle threaded through instrumented code.

use crate::events::{Event, EventRing, FieldValue};
use crate::hist::Histogram;
use crate::series::SeriesSet;
use crate::snapshot::Snapshot;
use crate::span::{SpanId, SpanRing};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Default bound on the structured-event ring. Large enough for every
/// per-figure replay in this repository; storms beyond it shed oldest
/// events and count the loss.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Default bound on the causal-span ring, sized like the event ring:
/// every per-figure replay fits; heavier traces shed oldest spans and
/// count the loss ([`Snapshot::spans_dropped`]).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

#[derive(Debug)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Histogram>,
    events: EventRing,
    spans: SpanRing,
    series: SeriesSet,
}

impl Inner {
    fn new(event_capacity: usize, span_capacity: usize) -> Self {
        Self {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            events: EventRing::new(event_capacity),
            spans: SpanRing::new(span_capacity),
            series: SeriesSet::default(),
        }
    }
}

/// A cheap, cloneable telemetry handle.
///
/// Clones share one underlying registry, so a recorder can be threaded
/// into several components of the same simulation (scheduler + AMF +
/// relay) and their series land in one snapshot. A **disabled** recorder
/// (the [`Default`]) holds nothing and makes every operation a no-op
/// `Option` check — instrumented hot paths cost nothing when telemetry
/// is off.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Recorder {
    /// An enabled recorder with the default event- and span-ring
    /// capacities.
    pub fn new() -> Self {
        Self::with_capacities(DEFAULT_EVENT_CAPACITY, DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled recorder with explicit event- and span-ring capacities.
    pub fn with_capacities(event_capacity: usize, span_capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Inner::new(
                event_capacity,
                span_capacity,
            )))),
        }
    }

    /// The no-op recorder.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Is this recorder collecting anything?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
        self.inner.as_ref().map(|m| {
            let mut guard = m.lock().unwrap_or_else(|p| p.into_inner());
            f(&mut guard)
        })
    }

    /// Add `by` to the counter `name`.
    pub fn inc(&self, name: &'static str, by: u64) {
        self.with_inner(|i| {
            *i.counters.entry(name).or_insert(0) += by;
        });
    }

    /// Set the gauge `name` to `v` (last write wins, including across
    /// [`Recorder::absorb`], which replays children in merge order).
    pub fn set_gauge(&self, name: &'static str, v: f64) {
        self.with_inner(|i| {
            i.gauges.insert(name, v);
        });
    }

    /// Record a sample into the histogram `name`.
    pub fn observe(&self, name: &'static str, v: f64) {
        self.with_inner(|i| {
            i.hists.entry(name).or_default().observe(v);
        });
    }

    /// Merge a locally filled histogram into the histogram `name` —
    /// what a caller that batched its samples off the recorder's lock
    /// uses in place of one [`Recorder::observe`] per sample. An empty
    /// `h` leaves no name behind, as zero `observe` calls would.
    pub fn merge_hist(&self, name: &'static str, h: &Histogram) {
        if h.count() > 0 {
            self.with_inner(|i| i.hists.entry(name).or_default().merge(h));
        }
    }

    /// Add `by` to the **counter series** `name` in the 1.0-unit window
    /// holding sim-time `t_sim` (the emitting module's native time
    /// base; see docs/TELEMETRY.md for units per series). Windowed
    /// counters merge additively across children, like plain counters.
    pub fn series_inc(&self, name: &'static str, t_sim: f64, by: u64) {
        self.with_inner(|i| i.series.inc(name, t_sim, by));
    }

    /// [`Recorder::series_inc`] for callers already on the integer
    /// µs-tick grid (the load engine's `tick()` values).
    pub fn series_inc_tick(&self, name: &'static str, tick: u64, by: u64) {
        self.with_inner(|i| i.series.inc_tick(name, tick, by));
    }

    /// Write `v` into the **gauge series** `name` in the window holding
    /// sim-time `t_sim` (last write per window wins, including across
    /// [`Recorder::absorb`], which replays children in merge order).
    pub fn series_gauge(&self, name: &'static str, t_sim: f64, v: f64) {
        self.with_inner(|i| i.series.gauge(name, t_sim, v));
    }

    /// [`Recorder::series_gauge`] on the integer µs-tick grid.
    pub fn series_gauge_tick(&self, name: &'static str, tick: u64, v: f64) {
        self.with_inner(|i| i.series.gauge_tick(name, tick, v));
    }

    /// Append a structured event at simulated time `t_sim` (the emitting
    /// module's time base; see docs/TELEMETRY.md for units per kind).
    pub fn event(&self, t_sim: f64, kind: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        self.with_inner(|i| {
            i.events.push(Event {
                t: t_sim,
                kind,
                fields,
            });
        });
    }

    /// Open a causal span at simulated time `start`. Returns
    /// [`SpanId::DISABLED`] (a harmless sentinel: closing it is a no-op,
    /// parenting on it records a root) when the recorder is disabled.
    /// Pass `parent = None` for a root span — procedure attempts are
    /// roots; their steps, transmissions, and relay hops parent on them.
    pub fn span_open(
        &self,
        parent: Option<SpanId>,
        kind: &'static str,
        start: f64,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> SpanId {
        self.with_inner(|i| i.spans.open(parent, kind, start, fields))
            .unwrap_or(SpanId::DISABLED)
    }

    /// Close span `id` at simulated time `end`. No-op for a disabled
    /// recorder, the [`SpanId::DISABLED`] sentinel, or a shed id; a
    /// non-finite `end` leaves the span open (serialized as `null`).
    pub fn span_close(&self, id: SpanId, end: f64) {
        self.span_close_with(id, end, vec![]);
    }

    /// Close span `id` at `end`, attaching `extra` fields (e.g. the
    /// outcome only known at completion time).
    pub fn span_close_with(&self, id: SpanId, end: f64, extra: Vec<(&'static str, FieldValue)>) {
        if id == SpanId::DISABLED {
            return;
        }
        self.with_inner(|i| i.spans.close(id, end, extra));
    }

    /// Record an already-complete span (open + close in one call), for
    /// instants whose duration is known up front, like a relay hop.
    pub fn span(
        &self,
        parent: Option<SpanId>,
        kind: &'static str,
        start: f64,
        end: f64,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> SpanId {
        self.with_inner(|i| {
            let id = i.spans.open(parent, kind, start, fields);
            i.spans.close(id, end, vec![]);
            id
        })
        .unwrap_or(SpanId::DISABLED)
    }

    /// A fresh, independent recorder for one parallel cell: enabled
    /// (with the parent's ring capacities) iff the parent is. Merge it
    /// back with [`Recorder::absorb`] in input-slot order.
    pub fn child(&self) -> Recorder {
        match self.with_inner(|i| (i.events.capacity(), i.spans.capacity())) {
            Some((ev_cap, sp_cap)) => Recorder::with_capacities(ev_cap, sp_cap),
            None => Recorder::disabled(),
        }
    }

    /// Merge a child's series into this recorder: counters and histogram
    /// buckets add, gauges take the child's value, events append in the
    /// child's order, and spans are remapped onto this recorder's id
    /// space (parent links preserved). A no-op when either side is
    /// disabled or both are the same registry.
    pub fn absorb(&self, child: &Recorder) {
        let (Some(mine), Some(theirs)) = (&self.inner, &child.inner) else {
            return;
        };
        if Arc::ptr_eq(mine, theirs) {
            return;
        }
        let snap = child.snapshot();
        self.with_inner(|i| {
            for (name, v) in &snap.counters {
                *i.counters.entry(name).or_insert(0) += v;
            }
            for (name, v) in &snap.gauges {
                i.gauges.insert(name, *v);
            }
            for (name, h) in &snap.histograms {
                i.hists.entry(name).or_default().merge(h);
            }
            for ev in &snap.events {
                i.events.push(ev.clone());
            }
            // Events the child already shed stay shed; keep the count.
            i.events.note_dropped(snap.events_dropped);
            i.spans
                .absorb(&snap.spans, snap.span_ids_allocated, snap.spans_dropped);
            i.series.merge(&snap.series);
        });
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.with_inner(|i| Snapshot {
            counters: i.counters.clone(),
            gauges: i.gauges.clone(),
            histograms: i.hists.clone(),
            events: i.events.iter().cloned().collect(),
            events_dropped: i.events.dropped(),
            spans: i.spans.iter().cloned().collect(),
            spans_dropped: i.spans.dropped(),
            span_ids_allocated: i.spans.ids_allocated(),
            series: i.series.clone(),
        })
        .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        r.inc("a", 1);
        r.set_gauge("b", 2.0);
        r.observe("c", 3.0);
        r.series_inc("s", 0.0, 1);
        r.series_gauge("t", 0.0, 1.0);
        r.event(0.0, "d", vec![]);
        let sp = r.span_open(None, "e", 0.0, vec![]);
        assert_eq!(sp, SpanId::DISABLED);
        r.span_close(sp, 1.0);
        r.span(Some(sp), "f", 0.0, 1.0, vec![]);
        assert!(!r.enabled());
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let r = Recorder::new();
        let r2 = r.clone();
        r.inc("x", 1);
        r2.inc("x", 2);
        assert_eq!(r.snapshot().counter("x"), 3);
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let r = Recorder::new();
        r.inc("net.msgs", 5);
        r.inc("net.msgs", 2);
        r.set_gauge("net.load", 0.5);
        r.set_gauge("net.load", 0.75);
        r.observe("net.delay_ms", 10.0);
        r.observe("net.delay_ms", 30.0);
        let s = r.snapshot();
        assert_eq!(s.counter("net.msgs"), 7);
        assert_eq!(s.gauge("net.load"), Some(0.75));
        let h = s.histogram("net.delay_ms");
        assert_eq!(h.map(|h| h.count()), Some(2));
        assert_eq!(h.and_then(|h| h.mean()), Some(20.0));
    }

    #[test]
    fn merge_hist_equals_observing_each_sample() {
        let per_sample = Recorder::new();
        let batched = Recorder::new();
        let mut local = Histogram::new();
        for v in [3.0, 480.0, 1560.0] {
            per_sample.observe("h", v);
            local.observe(v);
        }
        batched.merge_hist("h", &local);
        batched.merge_hist("never_observed", &Histogram::new());
        assert_eq!(batched.snapshot().to_json("t"), per_sample.snapshot().to_json("t"));
        Recorder::disabled().merge_hist("h", &local);
    }

    #[test]
    fn events_keep_order_and_sim_time() {
        let r = Recorder::new();
        r.event(1.5, "step", vec![("idx", FieldValue::from(0usize))]);
        r.event(0.5, "step", vec![("idx", FieldValue::from(1usize))]);
        let s = r.snapshot();
        // Insertion order, not time order: the caller's schedule is the
        // ground truth.
        let ts: Vec<f64> = s.events.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![1.5, 0.5]);
    }

    #[test]
    fn child_of_disabled_is_disabled() {
        assert!(!Recorder::disabled().child().enabled());
        assert!(Recorder::new().child().enabled());
    }

    #[test]
    fn absorb_merges_in_slot_order() {
        let parent = Recorder::new();
        let a = parent.child();
        let b = parent.child();
        a.inc("cells", 1);
        b.inc("cells", 1);
        a.set_gauge("last", 1.0);
        b.set_gauge("last", 2.0);
        a.observe("h", 1.0);
        b.observe("h", 100.0);
        a.event(1.0, "cell", vec![]);
        b.event(2.0, "cell", vec![]);
        parent.absorb(&a);
        parent.absorb(&b);
        let s = parent.snapshot();
        assert_eq!(s.counter("cells"), 2);
        assert_eq!(s.gauge("last"), Some(2.0));
        assert_eq!(s.histogram("h").map(|h| h.count()), Some(2));
        let ts: Vec<f64> = s.events.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![1.0, 2.0]);
    }

    #[test]
    fn absorb_adds_counter_series_and_replays_gauge_series() {
        let parent = Recorder::new();
        let a = parent.child();
        let b = parent.child();
        a.series_inc("win.c", 0.5, 2);
        b.series_inc("win.c", 0.5, 3);
        b.series_inc_tick("win.c", 2_000_000, 1);
        a.series_gauge("win.g", 1.0, 10.0);
        b.series_gauge_tick("win.g", 1_000_000, 20.0);
        parent.absorb(&a);
        parent.absorb(&b);
        let s = parent.snapshot();
        assert_eq!(
            s.series.get("win.c").map(|d| d.points()),
            Some(vec![(0, 5.0), (2, 1.0)])
        );
        assert_eq!(
            s.series.get("win.g").map(|d| d.points()),
            Some(vec![(1, 20.0)])
        );
        assert_eq!(s.series.dropped(), 0);
    }

    #[test]
    fn absorb_same_registry_is_noop() {
        let r = Recorder::new();
        r.inc("x", 1);
        let alias = r.clone();
        r.absorb(&alias);
        assert_eq!(r.snapshot().counter("x"), 1);
    }

    #[test]
    fn spans_round_trip_through_snapshot() {
        let r = Recorder::new();
        let root = r.span_open(None, "proc", 0.0, vec![("kind", FieldValue::from("c2"))]);
        let hop = r.span(Some(root), "hop", 0.0, 2.0, vec![]);
        r.span_close_with(root, 5.0, vec![("completed", FieldValue::from(1u64))]);
        let s = r.snapshot();
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.spans[0].end, Some(5.0));
        assert_eq!(s.spans[0].fields.len(), 2);
        assert_eq!(s.spans[1].id, hop.0);
        assert_eq!(s.spans[1].parent, Some(root.0));
        assert_eq!(s.spans[1].duration(), Some(2.0));
        assert_eq!(s.spans_dropped, 0);
        assert_eq!(s.span_ids_allocated, 2);
    }

    #[test]
    fn absorb_remaps_child_span_ids_in_slot_order() {
        let parent = Recorder::new();
        let a = parent.child();
        let b = parent.child();
        // Both children allocate ids starting at 0; the merge must keep
        // them distinct and keep each tree's parent links intact.
        let ra = a.span_open(None, "proc", 0.0, vec![]);
        a.span(Some(ra), "step", 0.0, 1.0, vec![]);
        a.span_close(ra, 1.0);
        let rb = b.span_open(None, "proc", 10.0, vec![]);
        b.span(Some(rb), "step", 10.0, 12.0, vec![]);
        b.span_close(rb, 12.0);
        parent.absorb(&a);
        parent.absorb(&b);
        let s = parent.snapshot();
        let ids: Vec<u64> = s.spans.iter().map(|sp| sp.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[3].parent, Some(2));
        assert_eq!(s.span_ids_allocated, 4);
    }

    #[test]
    fn child_inherits_span_capacity() {
        let parent = Recorder::with_capacities(8, 1);
        let c = parent.child();
        c.span(None, "a", 0.0, 1.0, vec![]);
        c.span(None, "b", 1.0, 2.0, vec![]); // sheds "a" in the child
        parent.absorb(&c);
        let s = parent.snapshot();
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans_dropped, 1);
        assert_eq!(s.span_ids_allocated, 2);
    }

    #[test]
    fn merged_snapshot_is_thread_count_invariant() {
        // The property the emu engine relies on: N children merged in
        // slot order produce the same snapshot regardless of which
        // thread ran which child.
        let build = |order: &[usize]| {
            let parent = Recorder::new();
            let children: Vec<Recorder> = (0..4).map(|_| parent.child()).collect();
            // "Work" happens in an arbitrary order…
            for &i in order {
                if let Some(c) = children.get(i) {
                    c.inc("work", (i + 1) as u64);
                    c.observe("cost", i as f64);
                    c.series_inc("work_per_s", i as f64, (i + 1) as u64);
                    c.event(i as f64, "done", vec![("cell", FieldValue::from(i))]);
                    let root = c.span_open(None, "cell", i as f64, vec![]);
                    c.span(Some(root), "work", i as f64, (i + 1) as f64, vec![]);
                    c.span_close(root, (i + 2) as f64);
                }
            }
            // …but the merge is always slot order.
            for c in &children {
                parent.absorb(c);
            }
            parent.snapshot().to_json("invariance")
        };
        let a = build(&[0, 1, 2, 3]);
        let b = build(&[3, 1, 0, 2]);
        assert_eq!(a, b);
    }
}
