//! Windowed SLO rules over [`crate::series::SeriesSet`] buffers.
//!
//! An [`SloRule`] names a counter/gauge series and a per-window budget;
//! [`SloTracker::evaluate`] walks the series window-by-window and turns
//! it into **burn-rate** samples (`value / budget`, the fraction of the
//! window's budget the run consumed — >1.0 is a breach) plus a breach
//! summary. [`SloTracker::record`] writes the result back into a
//! recorder: a `slo.burn.<rule>` gauge series, a
//! `slo.breached_windows.<rule>` counter, and one `slo.breach` event at
//! the **first** breached window per rule, so a storm that blows
//! through its budget is visible at a glance in the sidecar.
//!
//! Evaluation is a pure function of the series buffer and the rule —
//! no clocks, no iteration-order dependence — so running it once at
//! end-of-run on the merged top-level recorder keeps the sidecar
//! byte-identical across thread counts.

use crate::recorder::Recorder;
use crate::series::{SeriesData, SeriesSet};

/// One windowed SLO rule.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Short rule name; series/counters derive from it
    /// (`slo.burn.<name>`, `slo.breached_windows.<name>`). Must be a
    /// static string because metric names are.
    pub name: &'static str,
    /// The series this rule watches.
    pub series: &'static str,
    /// Per-window budget: the windowed value must stay ≤ this.
    /// Non-positive budgets make every non-zero window a breach (burn
    /// is reported as `value` vs a budget of 0 → capped at the value).
    pub budget: f64,
    /// First window (inclusive) the rule applies to.
    pub from_window: u64,
    /// Last window (exclusive); `u64::MAX` = to the end of the series.
    pub to_window: u64,
    /// Gauge series [`SloTracker::record`] writes burn rates into.
    /// Metric names are `&'static str`, so the caller supplies the
    /// spelling rather than this crate formatting one at runtime.
    pub burn_series: &'static str,
    /// Counter [`SloTracker::record`] adds breached windows to.
    pub breach_counter: &'static str,
}

impl SloRule {
    /// A rule over the whole time axis, recording into the generic
    /// `slo.burn.other` / `slo.breached_windows.other` names until
    /// [`SloRule::emit_as`] supplies rule-specific ones.
    pub fn new(name: &'static str, series: &'static str, budget: f64) -> Self {
        Self {
            name,
            series,
            budget,
            from_window: 0,
            to_window: u64::MAX,
            burn_series: "slo.burn.other",
            breach_counter: "slo.breached_windows.other",
        }
    }

    /// Restrict the rule to windows `[from, to)`.
    pub fn over_windows(mut self, from: u64, to: u64) -> Self {
        self.from_window = from;
        self.to_window = to;
        self
    }

    /// Name the burn-rate series and breach counter this rule records.
    pub fn emit_as(mut self, burn_series: &'static str, breach_counter: &'static str) -> Self {
        self.burn_series = burn_series;
        self.breach_counter = breach_counter;
        self
    }
}

/// One rule's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// The rule's name.
    pub name: &'static str,
    /// `(window, burn)` samples for every in-range window the series
    /// touched, ascending.
    pub burn: Vec<(u64, f64)>,
    /// Windows whose value exceeded the budget.
    pub breached_windows: u64,
    /// First breached window and its value, if any window breached.
    pub first_breach: Option<(u64, f64)>,
    /// Highest burn rate seen (0.0 when the series never fired in range).
    pub max_burn: f64,
}

/// Evaluates a fixed rule list against a series set.
#[derive(Debug, Clone, Default)]
pub struct SloTracker {
    rules: Vec<SloRule>,
}

impl SloTracker {
    /// A tracker over `rules`.
    pub fn new(rules: Vec<SloRule>) -> Self {
        Self { rules }
    }

    /// Evaluate every rule against `series`, in rule order.
    pub fn evaluate(&self, series: &SeriesSet) -> Vec<SloVerdict> {
        self.rules
            .iter()
            .map(|rule| evaluate_rule(rule, series))
            .collect()
    }

    /// Evaluate and write the verdicts into `obs`: per rule a
    /// `slo.burn.<name>` gauge series, a `slo.breached_windows.<name>`
    /// counter (emitted even at zero, so the sidecar shows the rule
    /// ran), and an `slo.breach` event at the first breached window.
    /// `window_s` converts window indices back to sim-time seconds for
    /// the event timestamp. Returns the verdicts.
    pub fn record(&self, obs: &Recorder, window_s: f64) -> Vec<SloVerdict> {
        let verdicts = self.evaluate(&obs.snapshot().series);
        for (rule, v) in self.rules.iter().zip(verdicts.iter()) {
            for (w, burn) in &v.burn {
                obs.series_gauge(rule.burn_series, *w as f64 * window_s, *burn);
            }
            obs.inc(rule.breach_counter, v.breached_windows);
            if let Some((w, value)) = v.first_breach {
                obs.event(
                    w as f64 * window_s,
                    "slo.breach",
                    vec![
                        ("rule", crate::FieldValue::from(rule.name)),
                        ("window", crate::FieldValue::from(w)),
                        ("value", crate::FieldValue::from(value)),
                        ("budget", crate::FieldValue::from(rule.budget)),
                    ],
                );
            }
        }
        verdicts
    }
}

fn evaluate_rule(rule: &SloRule, series: &SeriesSet) -> SloVerdict {
    let mut burn = Vec::new();
    let mut breached = 0u64;
    let mut first_breach = None;
    let mut max_burn = 0.0f64;
    if let Some(data) = series.get(rule.series) {
        for (w, value) in touched_windows(data) {
            if w < rule.from_window || w >= rule.to_window {
                continue;
            }
            let rate = if rule.budget > 0.0 {
                value / rule.budget
            } else if value > 0.0 {
                value
            } else {
                0.0
            };
            burn.push((w, rate));
            max_burn = max_burn.max(rate);
            if value > rule.budget {
                breached += 1;
                if first_breach.is_none() {
                    first_breach = Some((w, value));
                }
            }
        }
    }
    SloVerdict {
        name: rule.name,
        burn,
        breached_windows: breached,
        first_breach,
        max_burn,
    }
}

/// Every allocated window of `data` with its value: counters report all
/// windows (zeros included — a silent window is budget news too),
/// gauges only the written ones.
fn touched_windows(data: &SeriesData) -> Vec<(u64, f64)> {
    match data {
        SeriesData::Counter(v) => v
            .iter()
            .enumerate()
            .map(|(w, n)| (w as u64, *n as f64))
            .collect(),
        SeriesData::Gauge(v) => v
            .iter()
            .enumerate()
            .filter_map(|(w, s)| s.map(|x| (w as u64, x)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm_recorder() -> Recorder {
        let r = Recorder::new();
        // Steady 10/window, storm of 35 at w=3 decaying through w=5.
        for (w, n) in [(0u64, 10u64), (1, 10), (2, 10), (3, 35), (4, 20), (5, 12)] {
            r.series_inc("est", w as f64, n);
        }
        r
    }

    #[test]
    fn burn_and_breach_detection() {
        let tracker = SloTracker::new(vec![SloRule::new("chaosload.surge", "est", 30.0)]);
        let v = tracker.evaluate(&storm_recorder().snapshot().series);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].breached_windows, 1);
        assert_eq!(v[0].first_breach, Some((3, 35.0)));
        assert!((v[0].max_burn - 35.0 / 30.0).abs() < 1e-12);
        assert_eq!(v[0].burn.len(), 6);
    }

    #[test]
    fn window_range_limits_the_rule() {
        let tracker = SloTracker::new(vec![
            SloRule::new("chaosload.recovery", "est", 15.0).over_windows(5, u64::MAX),
        ]);
        let v = tracker.evaluate(&storm_recorder().snapshot().series);
        // Only window 5 (value 12) is in range: no breach.
        assert_eq!(v[0].burn, vec![(5, 12.0 / 15.0)]);
        assert_eq!(v[0].breached_windows, 0);
        assert_eq!(v[0].first_breach, None);
    }

    #[test]
    fn missing_series_yields_empty_verdict() {
        let tracker = SloTracker::new(vec![SloRule::new("chaosload.surge", "absent", 1.0)]);
        let v = tracker.evaluate(&SeriesSet::default());
        assert_eq!(v[0].burn, vec![]);
        assert_eq!(v[0].max_burn, 0.0);
        assert_eq!(v[0].first_breach, None);
    }

    #[test]
    fn record_emits_burn_series_counter_and_first_breach_event() {
        let r = storm_recorder();
        let tracker = SloTracker::new(vec![SloRule::new("chaosload.surge", "est", 30.0)
            .emit_as(
                "slo.burn.chaosload.surge",
                "slo.breached_windows.chaosload.surge",
            )]);
        let v = tracker.record(&r, 1.0);
        let snap = r.snapshot();
        assert_eq!(snap.counter("slo.breached_windows.chaosload.surge"), 1);
        let burn = snap.series.get("slo.burn.chaosload.surge").map(|d| d.points());
        assert_eq!(burn.as_ref().map(Vec::len), Some(6));
        let breach = snap.events.iter().find(|e| e.kind == "slo.breach");
        assert_eq!(breach.map(|e| e.t), Some(3.0));
        assert_eq!(v[0].breached_windows, 1);
    }

    #[test]
    fn zero_budget_counts_every_nonzero_window() {
        let tracker = SloTracker::new(vec![SloRule::new("chaosload.surge", "est", 0.0)]);
        let v = tracker.evaluate(&storm_recorder().snapshot().series);
        assert_eq!(v[0].breached_windows, 6);
        assert_eq!(v[0].max_burn, 35.0);
    }
}
