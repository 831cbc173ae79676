//! Deterministic discrete-event scheduler.
//!
//! A binary-heap scheduler with one hard guarantee the emulation relies
//! on: **determinism**. Events are ordered by timestamp and, at equal
//! timestamps, by insertion sequence (FIFO). Replaying the same workload
//! therefore produces identical traces — the property that makes every
//! figure in EXPERIMENTS.md regenerable bit-for-bit.
//!
//! One heap is enough: `ProcedureSim` keeps a handful of events pending
//! at a time, and no workload drains a large queue (the churn soaks run
//! each UE as its own event stream; only the engine's test-only oracle
//! drains a queue in batches). `crates/netsim/tests/calendar_props.rs`
//! (pop order) and `des_props.rs` (`drain_until` horizons, `reset`,
//! telemetry) property-test the queue against a linear-scan oracle.

use sc_obs::Recorder;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a point in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent<E> {
    /// Simulated time, seconds.
    pub time: f64,
    /// Insertion sequence number (tie-breaker).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> Eq for ScheduledEvent<E> where E: PartialEq {}

impl<E: PartialEq> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E: PartialEq> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic event queue.
///
/// ```
/// use sc_netsim::des::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "later");
/// q.schedule(1.0, "sooner");
/// q.schedule(1.0, "sooner-but-second");
/// assert_eq!(q.pop().unwrap().event, "sooner");
/// assert_eq!(q.pop().unwrap().event, "sooner-but-second");
/// assert_eq!(q.pop().unwrap().event, "later");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Pending events, earliest first by the inverted [`Ord`].
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    now: f64,
    /// Telemetry handle (disabled by default; see `sc-obs`). Counts
    /// `netsim.des.scheduled` / `netsim.des.processed`, and per-window
    /// series `netsim.des.processed_per_window` (events per 1.0
    /// sim-time unit) plus the `netsim.des.queue_depth` gauge series
    /// sampled at each processed event — the time axis of a load storm.
    obs: Recorder,
}

impl<E: PartialEq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: PartialEq> EventQueue<E> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
            obs: Recorder::disabled(),
        }
    }

    /// Attach a telemetry recorder; every subsequent schedule/pop is
    /// counted under `netsim.des.*`. Timestamps stay simulated time —
    /// this queue never reads a wall clock.
    pub fn attach_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Return the queue to its initial state (time 0, empty, sequence
    /// counter rewound) while keeping the heap's allocation for reuse.
    /// Lets a simulation arena run many procedures through one queue
    /// without re-allocating per run; a reset queue behaves exactly
    /// like a fresh one.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = 0.0;
    }

    /// Schedule an event at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is not finite or is before the current time
    /// (causality violation).
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(time.is_finite(), "event time must be finite");
        assert!(
            time >= self.now,
            "causality violation: scheduling at {time} but now is {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.obs.enabled() {
            self.obs.inc("netsim.des.scheduled", 1);
        }
        self.heap.push(ScheduledEvent { time, seq, event });
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        if self.obs.enabled() {
            self.obs.inc("netsim.des.processed", 1);
            self.obs.series_inc("netsim.des.processed_per_window", ev.time, 1);
            self.obs
                .series_gauge("netsim.des.queue_depth", ev.time, self.heap.len() as f64);
        }
        Some(ev)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drain every event with `time < horizon` — a **half-open** batch
    /// window — into `batch` (cleared first), in exactly the order repeated
    /// [`Self::pop`] calls would return them. Returns the batch size.
    ///
    /// This is the batch-processing face of the queue: a caller steps
    /// simulated time in fixed windows, drains each window wholesale,
    /// and processes the drained slice without re-entering the queue
    /// per event. Half-open windows compose — `[t0, t1)`, `[t1, t2)`, …
    /// partition the time axis, so `drain_until(t1)` then
    /// `drain_until(t2)` sees every event exactly once.
    ///
    /// Deferred processing is only equivalent to interleaved
    /// processing when no handler reaction can land inside the window
    /// being processed. Callers must therefore never schedule a
    /// follow-up less than one full window ahead of the event that
    /// triggered it; with windows no wider than the shortest follow-up
    /// delay (the churn engine's oracle), a reaction to an event in
    /// `[t, t + w)` lands at or past `t + w` — always a later batch.
    /// The clock ends at the last drained event, as it would after
    /// popping it, so scheduling from the processing loop obeys the
    /// same causality assert as scheduling from a handler.
    pub fn drain_until(&mut self, horizon: f64, batch: &mut Vec<ScheduledEvent<E>>) -> usize {
        batch.clear();
        while self.heap.peek().is_some_and(|ev| ev.time < horizon) {
            batch.extend(self.pop());
        }
        batch.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 3);
        q.schedule(1.0, 1);
        q.schedule(2.0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(1.5, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 1.5);
        q.schedule(q.now() + 0.5, ());
        assert_eq!(q.pop().map(|e| e.time), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn cannot_schedule_in_the_past() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(4.0, ());
    }

    #[test]
    fn drain_until_matches_pop_order_and_is_half_open() {
        let times = [0.0, 0.9, 1.0, 1.0, 1.5, 2.0, 700.0, 0.25];
        let mut q = EventQueue::new();
        let mut reference = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
            reference.schedule(t, i);
        }
        let mut batch = Vec::new();
        // Window [0, 1): strictly-before events only.
        assert_eq!(q.drain_until(1.0, &mut batch), 3);
        let got: Vec<(f64, usize)> = batch.iter().map(|e| (e.time, e.event)).collect();
        assert_eq!(got, vec![(0.0, 0), (0.25, 7), (0.9, 1)]);
        // Window [1, 2): the t = 1.0 ties pop FIFO; t = 2.0 excluded.
        q.drain_until(2.0, &mut batch);
        let got: Vec<(f64, usize)> = batch.iter().map(|e| (e.time, e.event)).collect();
        assert_eq!(got, vec![(1.0, 2), (1.0, 3), (1.5, 4)]);
        // The remaining drain picks up exactly the events at or past
        // t = 2.0, still in (time, seq) order.
        q.drain_until(f64::INFINITY, &mut batch);
        let got: Vec<(f64, usize)> = batch.iter().map(|e| (e.time, e.event)).collect();
        assert_eq!(got, vec![(2.0, 5), (700.0, 6)]);
        assert!(q.is_empty());
        // Sanity: the windowed drains together visited every event the
        // reference queue holds, in the same global order.
        let mut all = Vec::new();
        while let Some(e) = reference.pop() {
            all.push(e.event);
        }
        assert_eq!(all, vec![0, 7, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn drain_until_windows_equal_whole_pop_sequence() {
        // Windowed drains concatenated = one straight pop drain.
        let build = || {
            let mut q = EventQueue::new();
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..500u32 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let t = (rng % 10_000) as f64 / 100.0; // [0, 100)
                q.schedule(t, i);
            }
            q
        };
        let mut straight = build();
        let want: Vec<(f64, u64)> =
            std::iter::from_fn(|| straight.pop().map(|e| (e.time, e.seq))).collect();
        let mut windowed = build();
        let mut got = Vec::new();
        let mut batch = Vec::new();
        for w in 0..100u32 {
            windowed.drain_until((w + 1) as f64, &mut batch);
            got.extend(batch.iter().map(|e| (e.time, e.seq)));
        }
        assert_eq!(got, want);
        assert!(windowed.is_empty());
    }

    #[test]
    fn drain_until_advances_clock_and_allows_next_window_schedules() {
        let mut q = EventQueue::new();
        q.schedule(0.25, "a");
        q.schedule(0.75, "b");
        let mut batch = Vec::new();
        q.drain_until(1.0, &mut batch);
        assert_eq!(q.now(), 0.75);
        // A follow-up one full window ahead of the drained event is
        // always schedulable — the ext_mload contract.
        for e in &batch {
            q.schedule(e.time + 1.0, "follow-up");
        }
        q.drain_until(2.5, &mut batch);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].time, 1.25);
    }

    #[test]
    fn drain_until_counts_processed_events() {
        let rec = Recorder::new();
        let mut q = EventQueue::new();
        q.attach_recorder(rec.clone());
        for i in 0..10 {
            q.schedule(i as f64 * 0.1, i);
        }
        let mut batch = Vec::new();
        q.drain_until(0.55, &mut batch);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("netsim.des.processed"), 6);
        // All six events fall in series window 0 ([0.0, 1.0)); the
        // depth gauge holds the post-pop queue length of the last one.
        let per_window = snap
            .series
            .get("netsim.des.processed_per_window")
            .map(|d| d.points());
        assert_eq!(per_window, Some(vec![(0, 6.0)]));
        let depth = snap
            .series
            .get("netsim.des.queue_depth")
            .map(|d| d.points());
        assert_eq!(depth, Some(vec![(0, 4.0)]));
    }

    #[test]
    fn recorder_counts_schedules_and_pops() {
        let rec = Recorder::new();
        let mut q = EventQueue::new();
        q.attach_recorder(rec.clone());
        q.schedule(1.0, ());
        q.schedule(2.0, ());
        q.pop();
        let s = rec.snapshot();
        assert_eq!(s.counter("netsim.des.scheduled"), 2);
        assert_eq!(s.counter("netsim.des.processed"), 1);
    }

    #[test]
    fn determinism_across_replays() {
        let run = || {
            let mut q = EventQueue::new();
            for i in 0..50u64 {
                q.schedule((i % 7) as f64, i);
            }
            std::iter::from_fn(|| q.pop().map(|e| (e.time, e.event))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn schedule_after_horizon_probe_stays_ordered() {
        // A probe that drains nothing leaves the clock where it was, so
        // a later schedule before the probed horizon still pops first.
        let mut q = EventQueue::new();
        q.schedule(100.75, "late");
        assert_eq!(q.drain_until(100.5, &mut Vec::new()), 0);
        q.schedule(2.0, "early");
        assert_eq!(q.pop().map(|e| e.event), Some("early"));
        assert_eq!(q.pop().map(|e| e.event), Some("late"));
    }

    #[test]
    fn reset_rewinds_time_sequence_and_events() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 1);
        q.schedule(400.0, 2);
        q.schedule(1e6, 3);
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), 0.0);
        // A reset queue replays exactly like a fresh one.
        q.schedule(5.0, 10);
        q.schedule(5.0, 11);
        assert_eq!(q.pop().map(|e| e.event), Some(10));
        assert_eq!(q.pop().map(|e| e.event), Some(11));
    }
}
