//! Windowed time-series: the `sc-obs/3` time axis.
//!
//! A [`SeriesSet`] records per-window values over **simulated** time,
//! chopped into fixed-width windows whose edges sit on an integer
//! microsecond-tick grid: a sample at sim-time `t` lands in window
//! `round(t·1e6) / WINDOW_TICKS`. With the default
//! [`WINDOW_TICKS`] = 1 000 000 the window is exactly 1.0 native time
//! unit — the churn engine's `WINDOW_S`, the window `ext_mload` /
//! `ext_chaosload` count their events in — so the rounding rule
//! matches the engine's own `tick()` grid (an event scheduled
//! *exactly* on a window boundary belongs to the window it opens).
//!
//! Two series kinds exist, chosen by first touch of a name:
//!
//! * **counter** series ([`SeriesData::Counter`]): a dense
//!   window-indexed `Vec<u64>` of per-window totals. Merging adds
//!   element-wise, so per-chunk tallies fold identically under any
//!   partition, thread count, or merge order — the same additivity
//!   argument as plain counters.
//! * **gauge** series ([`SeriesData::Gauge`]): a dense window-indexed
//!   `Vec<Option<f64>>` of last-written samples. Merging replays the
//!   child's written windows over the parent's (last write wins in
//!   merge order), like plain gauges — deterministic because children
//!   always absorb in input-slot order.
//!
//! Buffers are **dense window-indexed Vecs, not per-UE keyed state**:
//! nothing here identifies a subscriber, so recording into a series
//! from a stateless processing path stays within the sc-audit R4
//! state-flow rules. Windows at or past the per-series capacity are
//! shed and counted ([`SeriesSet::dropped`]) — truncation is never
//! silent, mirroring the event/span rings.

use std::collections::BTreeMap;

/// Ticks per window: 1 000 000 µs-grid ticks = 1.0 native sim-time
/// unit, aligned to the churn engine's `WINDOW_S`.
pub const WINDOW_TICKS: u64 = 1_000_000;

/// Default bound on windows per series: 4096 windows ≈ 68 minutes of
/// sim-time at 1 s windows, far past every soak in this repository.
/// Samples landing at or beyond it are shed and counted.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// Map sim-time `t` (native unit) onto the integer µs-tick grid.
/// `None` for negative or non-finite times (those samples are shed).
pub fn tick_of(t: f64) -> Option<u64> {
    if !t.is_finite() || t < 0.0 {
        return None;
    }
    let tick = (t * 1e6).round();
    (tick <= u64::MAX as f64).then_some(tick as u64)
}

/// What one series holds per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Per-window totals; merges add element-wise.
    Counter,
    /// Per-window last-written samples; merges overwrite written windows.
    Gauge,
}

impl SeriesKind {
    /// The serialized kind tag.
    pub fn label(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }
}

/// One series' dense window-indexed buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesData {
    Counter(Vec<u64>),
    Gauge(Vec<Option<f64>>),
}

impl SeriesData {
    /// Which kind this buffer is.
    pub fn kind(&self) -> SeriesKind {
        match self {
            SeriesData::Counter(_) => SeriesKind::Counter,
            SeriesData::Gauge(_) => SeriesKind::Gauge,
        }
    }

    /// Number of windows allocated (index of the last touched window + 1).
    pub fn windows(&self) -> usize {
        match self {
            SeriesData::Counter(v) => v.len(),
            SeriesData::Gauge(v) => v.len(),
        }
    }

    /// Sparse `(window, value)` points in ascending window order:
    /// non-zero windows for counters, written windows for gauges.
    pub fn points(&self) -> Vec<(u64, f64)> {
        match self {
            SeriesData::Counter(v) => v
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(w, n)| (w as u64, *n as f64))
                .collect(),
            SeriesData::Gauge(v) => v
                .iter()
                .enumerate()
                .filter_map(|(w, s)| s.map(|x| (w as u64, x)))
                .collect(),
        }
    }
}

/// The windowed time-series registry inside a recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSet {
    window_ticks: u64,
    capacity: usize,
    series: BTreeMap<&'static str, SeriesData>,
    dropped: u64,
}

impl Default for SeriesSet {
    fn default() -> Self {
        Self::with_config(WINDOW_TICKS, DEFAULT_SERIES_CAPACITY)
    }
}

impl SeriesSet {
    /// A set with an explicit window width (ticks) and per-series
    /// window capacity. A zero `window_ticks` is clamped to 1.
    pub fn with_config(window_ticks: u64, capacity: usize) -> Self {
        Self {
            window_ticks: window_ticks.max(1),
            capacity,
            series: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// Window width in µs-grid ticks.
    pub fn window_ticks(&self) -> u64 {
        self.window_ticks
    }

    /// Per-series window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The window index tick `tick` falls into.
    pub fn window_of(&self, tick: u64) -> u64 {
        tick / self.window_ticks
    }

    /// Samples shed so far: beyond-capacity windows, kind-mismatched
    /// writes, non-finite gauge samples, and negative/non-finite times.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True when nothing was recorded and nothing was shed.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty() && self.dropped == 0
    }

    /// Iterate `(name, data)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &SeriesData)> {
        self.series.iter().map(|(k, v)| (*k, v))
    }

    /// The buffer under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&SeriesData> {
        self.series.get(name)
    }

    /// Number of distinct series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Note samples shed elsewhere (merge plumbing).
    pub fn note_dropped(&mut self, n: u64) {
        self.dropped = self.dropped.saturating_add(n);
    }

    /// Add `by` to the counter series `name` in the window holding
    /// `tick`. First touch fixes the series' kind to counter.
    pub fn inc_tick(&mut self, name: &'static str, tick: u64, by: u64) {
        let w = self.window_of(tick) as usize;
        if w >= self.capacity {
            self.dropped += 1;
            return;
        }
        match self
            .series
            .entry(name)
            .or_insert_with(|| SeriesData::Counter(Vec::new()))
        {
            SeriesData::Counter(v) => {
                if v.len() <= w {
                    v.resize(w + 1, 0);
                }
                v[w] = v[w].saturating_add(by);
            }
            SeriesData::Gauge(_) => self.dropped += 1,
        }
    }

    /// Write `v` into the gauge series `name` in the window holding
    /// `tick` (last write per window wins). Non-finite samples are
    /// shed; first touch fixes the series' kind to gauge.
    pub fn gauge_tick(&mut self, name: &'static str, tick: u64, v: f64) {
        if !v.is_finite() {
            self.dropped += 1;
            return;
        }
        let w = self.window_of(tick) as usize;
        if w >= self.capacity {
            self.dropped += 1;
            return;
        }
        match self
            .series
            .entry(name)
            .or_insert_with(|| SeriesData::Gauge(Vec::new()))
        {
            SeriesData::Gauge(g) => {
                if g.len() <= w {
                    g.resize(w + 1, None);
                }
                g[w] = Some(v);
            }
            SeriesData::Counter(_) => self.dropped += 1,
        }
    }

    /// [`Self::inc_tick`] at sim-time `t` (native unit); negative or
    /// non-finite times are shed.
    pub fn inc(&mut self, name: &'static str, t: f64, by: u64) {
        match tick_of(t) {
            Some(tick) => self.inc_tick(name, tick, by),
            None => self.dropped += 1,
        }
    }

    /// [`Self::gauge_tick`] at sim-time `t` (native unit); negative or
    /// non-finite times are shed.
    pub fn gauge(&mut self, name: &'static str, t: f64, v: f64) {
        match tick_of(t) {
            Some(tick) => self.gauge_tick(name, tick, v),
            None => self.dropped += 1,
        }
    }

    /// Merge `other` into `self`: counter windows add element-wise,
    /// gauge windows take the other's written values (last write wins
    /// in merge order), shed counts accumulate. A window-width mismatch
    /// sheds the other set's points rather than guessing a rebinning.
    pub fn merge(&mut self, other: &SeriesSet) {
        self.dropped = self.dropped.saturating_add(other.dropped);
        if other.window_ticks != self.window_ticks {
            let points: u64 = other.series.values().map(|d| d.points().len() as u64).sum();
            self.dropped = self.dropped.saturating_add(points);
            return;
        }
        for (name, data) in &other.series {
            match data {
                SeriesData::Counter(theirs) => {
                    for (w, by) in theirs.iter().enumerate() {
                        if *by > 0 {
                            self.inc_tick(name, w as u64 * self.window_ticks, *by);
                        }
                    }
                }
                SeriesData::Gauge(theirs) => {
                    for (w, s) in theirs.iter().enumerate() {
                        if let Some(v) = s {
                            self.gauge_tick(name, w as u64 * self.window_ticks, *v);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_windows_accumulate_on_the_tick_grid() {
        let mut s = SeriesSet::default();
        s.inc("a", 0.0, 1);
        s.inc("a", 0.999_999, 2); // last tick of window 0
        s.inc("a", 1.0, 5); // exactly on the boundary → window 1
        s.inc("a", 2.5, 7);
        assert_eq!(s.get("a").map(|d| d.kind()), Some(SeriesKind::Counter));
        assert_eq!(
            s.get("a").map(|d| d.points()),
            Some(vec![(0, 3.0), (1, 5.0), (2, 7.0)])
        );
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn boundary_rounding_matches_the_engines_tick_grid() {
        // 59.9999996 s rounds to tick 60_000_000 → window 60, exactly
        // like `(t * 1e6).round()` in the load engine.
        assert_eq!(tick_of(59.999_999_6), Some(60_000_000));
        assert_eq!(tick_of(59.999_999_4), Some(59_999_999));
        assert_eq!(tick_of(-1.0), None);
        assert_eq!(tick_of(f64::NAN), None);
        assert_eq!(tick_of(f64::INFINITY), None);
    }

    #[test]
    fn gauge_last_write_per_window() {
        let mut s = SeriesSet::default();
        s.gauge("g", 0.25, 1.0);
        s.gauge("g", 0.75, 2.0);
        s.gauge("g", 3.0, 9.0);
        assert_eq!(s.get("g").map(|d| d.kind()), Some(SeriesKind::Gauge));
        assert_eq!(s.get("g").map(SeriesData::windows), Some(4));
        assert_eq!(s.get("g").map(|d| d.points()), Some(vec![(0, 2.0), (3, 9.0)]));
    }

    #[test]
    fn capacity_sheds_and_counts() {
        let mut s = SeriesSet::with_config(WINDOW_TICKS, 2);
        s.inc("a", 0.0, 1);
        s.inc("a", 5.0, 1); // window 5 ≥ capacity 2
        s.gauge("g", 7.0, 1.0);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.get("a").map(SeriesData::windows), Some(1));
    }

    #[test]
    fn kind_mismatch_and_nonfinite_shed() {
        let mut s = SeriesSet::default();
        s.inc("x", 0.0, 1);
        s.gauge("x", 0.0, 2.0); // counter series: gauge write shed
        s.gauge("g", 0.0, f64::NAN);
        s.inc("y", f64::NAN, 1);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.get("x").map(|d| d.kind()), Some(SeriesKind::Counter));
    }

    #[test]
    fn merge_is_order_invariant_for_counters() {
        let mk = |windows: &[(f64, u64)]| {
            let mut s = SeriesSet::default();
            for (t, by) in windows {
                s.inc("c", *t, *by);
            }
            s
        };
        let a = mk(&[(0.5, 1), (2.5, 3)]);
        let b = mk(&[(1.5, 2), (2.5, 4)]);
        let mut ab = SeriesSet::default();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = SeriesSet::default();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(
            ab.get("c").map(|d| d.points()),
            Some(vec![(0, 1.0), (1, 2.0), (2, 7.0)])
        );
    }

    #[test]
    fn merge_gauges_last_write_in_merge_order() {
        let mut a = SeriesSet::default();
        a.gauge("g", 0.0, 1.0);
        let mut b = SeriesSet::default();
        b.gauge("g", 0.0, 2.0);
        b.gauge("g", 4.0, 5.0);
        let mut m = SeriesSet::default();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.get("g").map(|d| d.points()), Some(vec![(0, 2.0), (4, 5.0)]));
    }

    #[test]
    fn merge_accumulates_dropped_and_rejects_width_mismatch() {
        let mut a = SeriesSet::with_config(WINDOW_TICKS, 1);
        a.inc("c", 5.0, 1); // shed
        let mut m = SeriesSet::default();
        m.merge(&a);
        assert_eq!(m.dropped(), 1);
        let mut odd = SeriesSet::with_config(500_000, DEFAULT_SERIES_CAPACITY);
        odd.inc("c", 0.0, 1);
        m.merge(&odd);
        assert_eq!(m.dropped(), 2);
        assert!(m.get("c").is_none());
    }

    #[test]
    fn empty_and_len_track_contents() {
        let mut s = SeriesSet::default();
        assert!(s.is_empty());
        s.inc("a", 0.0, 1);
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s.window_ticks(), WINDOW_TICKS);
        assert_eq!(s.capacity(), DEFAULT_SERIES_CAPACITY);
    }
}
