//! Deterministic discrete-event scheduler.
//!
//! A calendar-queue scheduler with one hard guarantee the emulation
//! relies on: **determinism**. Events are ordered by timestamp and, at
//! equal timestamps, by insertion sequence (FIFO). Replaying the same
//! workload therefore produces identical traces — the property that
//! makes every figure in EXPERIMENTS.md regenerable bit-for-bit.
//!
//! # Structure
//!
//! The queue partitions simulated time into fixed-width *days* of
//! [`EventQueue::BUCKET_WIDTH_S`] units of the caller's clock each
//! (seconds for the churn soaks, milliseconds for `ProcedureSim`) and
//! keeps four tiers:
//!
//! - `active`: the current day as it stood when the calendar reached
//!   it, put in `(time, seq)` order once by the day promotion below.
//!   Pops are `pop_front` — O(1).
//! - `late`: a binary heap for events scheduled into the current day
//!   (or an earlier one) after it was promoted — same-day schedules, and
//!   day 0's events scheduled before the first pop. A pop takes
//!   whichever of `active`'s front and `late`'s minimum comes first;
//!   when `active` runs dry, `late`'s events are promoted into it. Only
//!   [`EventQueue::pop`] callers and same-day schedules use it:
//!   [`EventQueue::drain_until`] never promotes a day that starts at or
//!   past its horizon, so a batch's next-day follow-ups go to the wheel
//!   like any later event.
//! - `wheel`: unsorted buckets for the next [`EventQueue::WHEEL_SLOTS`]
//!   days, indexed by `day % WHEEL_SLOTS`, with a word bitmap marking
//!   occupied slots. Scheduling into the wheel is O(1); a bucket is
//!   promoted into `active` when its day becomes current and both
//!   `active` and `late` are empty.
//! - `overflow`: a binary heap for events beyond the wheel horizon.
//!   Spills are counted as `netsim.des.wheel_spills`; spilled events
//!   migrate back into the wheel as the calendar advances.
//!
//! **Day promotion** (a wheel bucket, or the drained `late` heap, into
//! `active`) is one routine, linear in the day's size for the days the
//! soaks and `ProcedureSim` produce. A stable counting pass scatters the
//! events by `⌊(time − day_start) · K⌋` into `K = n.next_power_of_two()`
//! sub-day buckets — a monotone map of the time, so events of different
//! buckets already stand in order — and an insertion pass on the exact
//! `(time, seq)` key then finishes the job. The insertion pass is a
//! complete sort, so the order is exact for any input (equal times,
//! −0.0 before +0.0, overflow-migrated events whose `seq` is not
//! monotone, even events outside the day, which share the first or last
//! bucket); its cost is the number of out-of-order pairs left inside a
//! bucket, none for ties scheduled in `seq` order. The count and
//! scatter buffers and the day buffers themselves are the queue's and
//! are reused from day to day: a promoted bucket trades its buffer with
//! the emptied `active` one instead of being copied.
//!
//! Every tier orders by the same `(time, seq)` key, so the pop sequence
//! is identical to the reference binary-heap scheduler kept in
//! [`mod@reference`] — `crates/netsim/tests/calendar_props.rs`
//! property-tests the equivalence on random workloads.

use sc_obs::Recorder;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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

/// Ascending `(time, seq)` — the canonical event order.
fn event_order<E>(a: &ScheduledEvent<E>, b: &ScheduledEvent<E>) -> Ordering {
    a.time
        .total_cmp(&b.time)
        .then_with(|| a.seq.cmp(&b.seq))
}

/// [`event_order`] as an integer key: `f64::total_cmp`'s own bit
/// transform of the time (so −0.0 still sorts before +0.0), then the
/// sequence number. A day's insertion pass compares it without a float
/// compare.
fn order_key<E>(ev: &ScheduledEvent<E>) -> (i64, u64) {
    let bits = ev.time.to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64, ev.seq)
}

/// Scratch space of the day promotion ([`DaySort::order`]), kept by the
/// queue so that no day allocates once the buffers have grown to the
/// largest day seen.
#[derive(Debug, Clone, Default)]
struct DaySort {
    /// Per sub-day bucket: its size, then its next free position.
    counts: Vec<usize>,
    /// Per event: its bucket, then its position after the scatter.
    dest: Vec<usize>,
}

impl DaySort {
    /// Put `events` in `(time, seq)` order. `day_start` is the start of
    /// the day they belong to; an event outside the day lands in the
    /// first or last bucket, which costs time but not exactness. (The
    /// `late` heap holds events from before the current day after a
    /// `drain_until` whose horizon cut a day has promoted it ahead of the
    /// clock, but they pop before the day's own events, so no promotion
    /// sees them.)
    fn order<E>(&mut self, events: &mut [ScheduledEvent<E>], day_start: f64) {
        let n = events.len();
        if n < 2 {
            return;
        }
        // Stable counting pass: bucket by the time's offset into the
        // day. The map is monotone (a float subtraction, a scaling by a
        // power of two, a saturating cast and a clamp), so equal times
        // share a bucket and the buckets come in time order.
        let k = n.next_power_of_two();
        let (scale, last) = (k as f64 / BUCKET_WIDTH_S, k as i64 - 1);
        self.counts.clear();
        self.counts.resize(k, 0);
        self.dest.clear();
        for ev in events.iter() {
            let b = (((ev.time - day_start) * scale) as i64).clamp(0, last) as usize;
            self.counts[b] += 1;
            self.dest.push(b);
        }
        let mut first = 0;
        for c in self.counts.iter_mut() {
            (*c, first) = (first, first + *c);
        }
        for d in self.dest.iter_mut() {
            let slot = &mut self.counts[*d];
            *d = *slot;
            *slot += 1;
        }
        // Move every event to its position in place, one cycle of the
        // permutation at a time; each swap settles one event.
        for i in 0..n {
            loop {
                let j = self.dest[i];
                if j == i {
                    break;
                }
                events.swap(i, j);
                self.dest.swap(i, j);
            }
        }
        // Insertion pass on the exact key: only pairs inside a bucket
        // can still be out of order.
        for i in 1..n {
            let mut j = i;
            while j > 0 && order_key(&events[j]) < order_key(&events[j - 1]) {
                events.swap(j - 1, j);
                j -= 1;
            }
        }
    }
}

const BUCKET_WIDTH_S: f64 = 1.0;
const WHEEL_SLOTS: usize = 256;
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;

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
    /// The current day's events as of its promotion, sorted by
    /// `(time, seq)`.
    active: VecDeque<ScheduledEvent<E>>,
    /// Events scheduled into the current day (or an earlier one) after
    /// its promotion, or before the first pop; earliest first by the
    /// inverted [`Ord`].
    late: BinaryHeap<ScheduledEvent<E>>,
    /// Future-day buckets; slot `day % WHEEL_SLOTS`. Empty (never
    /// allocated) until an event actually lands beyond the current day,
    /// so short procedure sims pay nothing for the wheel.
    wheel: Vec<Vec<ScheduledEvent<E>>>,
    /// Bitmap of occupied wheel slots.
    occupied: [u64; BITMAP_WORDS],
    /// Events at `WHEEL_SLOTS` or more days past `base_day`.
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Buffers of the day promotion.
    day_sort: DaySort,
    /// Day of the `active` tier; wheel slots cover
    /// `(base_day, base_day + WHEEL_SLOTS)`.
    base_day: u64,
    pending: usize,
    next_seq: u64,
    now: f64,
    /// Telemetry handle (disabled by default; see `sc-obs`). Counts
    /// `netsim.des.scheduled` / `netsim.des.processed` /
    /// `netsim.des.wheel_spills`, and per-window series
    /// `netsim.des.processed_per_window` (events per 1.0 sim-time
    /// unit) plus the `netsim.des.queue_depth` gauge series sampled at
    /// each processed event — the time axis of a load storm.
    obs: Recorder,
}

impl<E: PartialEq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: PartialEq> EventQueue<E> {
    /// Calendar bucket width: 1.0 unit of the caller's clock per day
    /// (1 s for the churn soaks, 1 ms for `ProcedureSim`, whose wheel
    /// horizon is therefore 256 ms).
    pub const BUCKET_WIDTH_S: f64 = BUCKET_WIDTH_S;
    /// Number of wheel slots (days covered before spilling to the
    /// overflow heap).
    pub const WHEEL_SLOTS: usize = WHEEL_SLOTS;

    pub fn new() -> Self {
        Self {
            active: VecDeque::new(),
            late: BinaryHeap::new(),
            wheel: Vec::new(),
            occupied: [0; BITMAP_WORDS],
            overflow: BinaryHeap::new(),
            day_sort: DaySort::default(),
            base_day: 0,
            pending: 0,
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
    /// counter rewound) while keeping bucket allocations for reuse.
    /// Lets a simulation arena run many procedures through one queue
    /// without re-allocating per run; a reset queue behaves exactly
    /// like a fresh one.
    pub fn reset(&mut self) {
        self.active.clear();
        self.late.clear();
        for w in 0..BITMAP_WORDS {
            let mut word = self.occupied[w];
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                self.wheel[w * 64 + bit].clear();
                word &= word - 1;
            }
        }
        self.occupied = [0; BITMAP_WORDS];
        self.overflow.clear();
        self.base_day = 0;
        self.pending = 0;
        self.next_seq = 0;
        self.now = 0.0;
    }

    /// Calendar day of a (non-negative, finite) timestamp. Saturates
    /// for times beyond `u64` days, which only ever classifies an
    /// event into the overflow heap — ordering there is exact.
    fn day_of(time: f64) -> u64 {
        (time / Self::BUCKET_WIDTH_S) as u64
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
        let observed = self.obs.enabled();
        if observed {
            self.obs.inc("netsim.des.scheduled", 1);
        }
        self.pending += 1;
        let ev = ScheduledEvent { time, seq, event };
        let day = Self::day_of(time);
        if day <= self.base_day {
            self.late.push(ev);
        } else if day - self.base_day < WHEEL_SLOTS as u64 {
            if self.wheel.is_empty() {
                self.wheel = std::iter::repeat_with(Vec::new).take(WHEEL_SLOTS).collect();
            }
            let slot = (day % WHEEL_SLOTS as u64) as usize;
            self.wheel[slot].push(ev);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            if observed {
                self.obs.inc("netsim.des.wheel_spills", 1);
            }
            self.overflow.push(ev);
        }
    }

    /// First occupied wheel day after `base_day`, with its slot.
    fn next_wheel_day(&self) -> Option<(u64, usize)> {
        if self.occupied == [0; BITMAP_WORDS] {
            return None;
        }
        let start = ((self.base_day + 1) % WHEEL_SLOTS as u64) as usize;
        for step in 0..WHEEL_SLOTS {
            let slot = (start + step) % WHEEL_SLOTS;
            if self.occupied[slot / 64] >> (slot % 64) & 1 == 1 {
                return Some((self.base_day + 1 + step as u64, slot));
            }
        }
        None
    }

    /// Start of the current day, in the caller's clock.
    fn day_start(&self) -> f64 {
        self.base_day as f64 * Self::BUCKET_WIDTH_S
    }

    /// The emptied `active` tier's buffer (both callers run only once
    /// `active` is dry), to stage the next day in.
    fn spare_buffer(&mut self) -> Vec<ScheduledEvent<E>> {
        Vec::from(std::mem::take(&mut self.active))
    }

    /// Make `active` or `late` hold the next event (unless everything
    /// is drained, or the next day starts at or past `horizon`). A dry
    /// `active` first takes whatever `late` holds, promoted in one go —
    /// one ordering pass instead of a heap pop per event for a day filled
    /// before its first pop (every queue's day 0) — and only when both
    /// are empty does the calendar advance. It never advances to a day
    /// that starts at or past `horizon`: that day keeps filling in the
    /// wheel, so a follow-up scheduled into it before it is reached never
    /// takes the `late` heap.
    fn ensure_active(&mut self, horizon: f64) {
        if self.active.is_empty() && !self.late.is_empty() {
            let spare = BinaryHeap::from(self.spare_buffer());
            let mut day = std::mem::replace(&mut self.late, spare).into_vec();
            self.day_sort.order(&mut day, self.day_start());
            self.active = VecDeque::from(day);
        }
        while self.active.is_empty() && self.late.is_empty() && self.activate_next_day(horizon) {}
    }

    /// Advance `base_day` to the next day holding events and promote
    /// that day's bucket into the (empty) `active` tier. Returns false,
    /// and leaves the calendar as it is, when the calendar is empty or
    /// its next day starts at or past `horizon`.
    ///
    /// The next day is the *earlier* of the next occupied wheel slot
    /// and the earliest overflow day: overflow events spill relative
    /// to the `base_day` at schedule time, so once the clock advances
    /// an overflow day can predate everything left in the wheel.
    /// Whenever the calendar lands on a new day, overflow events that
    /// now fit the wheel horizon are migrated in.
    fn activate_next_day(&mut self, horizon: f64) -> bool {
        let wheel_next = self.next_wheel_day();
        let overflow_day = self.overflow.peek().map(|ev| Self::day_of(ev.time));
        let target = match (wheel_next.map(|(d, _)| d), overflow_day) {
            (None, None) => return false,
            (Some(d), None) => d,
            (None, Some(d)) => d,
            (Some(w), Some(o)) => w.min(o),
        };
        if target as f64 * Self::BUCKET_WIDTH_S >= horizon {
            return false;
        }
        self.base_day = target;
        // The bucket's buffer becomes `active`'s; the slot keeps the old
        // `active` buffer for its next day.
        let mut current = self.spare_buffer();
        if let Some((day, slot)) = wheel_next {
            if day == target {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
                std::mem::swap(&mut current, &mut self.wheel[slot]);
            }
        }
        // Migrate every overflow event the wheel can now hold.
        while let Some(head) = self.overflow.peek() {
            let day = Self::day_of(head.time);
            if day - self.base_day >= WHEEL_SLOTS as u64 {
                break;
            }
            let Some(ev) = self.overflow.pop() else { break };
            if day == self.base_day {
                current.push(ev);
            } else {
                if self.wheel.is_empty() {
                    self.wheel =
                        std::iter::repeat_with(Vec::new).take(WHEEL_SLOTS).collect();
                }
                let slot = (day % WHEEL_SLOTS as u64) as usize;
                self.wheel[slot].push(ev);
                self.occupied[slot / 64] |= 1 << (slot % 64);
            }
        }
        self.day_sort.order(&mut current, self.day_start());
        self.active = VecDeque::from(current);
        true
    }

    /// Pop the earliest event if it is due before `horizon`, advancing
    /// the clock to its timestamp: the earlier in `(time, seq)` of
    /// `active`'s front and `late`'s minimum.
    fn pop_before(&mut self, horizon: f64) -> Option<ScheduledEvent<E>> {
        self.ensure_active(horizon);
        let from_late = match (self.active.front(), self.late.peek()) {
            (Some(a), Some(l)) => event_order(l, a) == Ordering::Less,
            (a, _) => a.is_none(),
        };
        let head = if from_late {
            self.late.peek()
        } else {
            self.active.front()
        };
        match head {
            Some(ev) if ev.time < horizon => {}
            _ => return None,
        }
        let ev = if from_late {
            self.late.pop()
        } else {
            self.active.pop_front()
        }?;
        self.pending -= 1;
        self.now = ev.time;
        if self.obs.enabled() {
            self.obs.inc("netsim.des.processed", 1);
            self.obs.series_inc("netsim.des.processed_per_window", ev.time, 1);
            self.obs
                .series_gauge("netsim.des.queue_depth", ev.time, self.pending as f64);
        }
        Some(ev)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        // Event times are finite, so every pending event is due.
        self.pop_before(f64::INFINITY)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending
    }

    pub fn is_empty(&self) -> bool {
        self.pending == 0
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
    /// triggered it; with windows of [`Self::BUCKET_WIDTH_S`] and
    /// minimum follow-up delays of the same width (the churn engine's
    /// calendar oracle), a reaction to an event in `[t, t + w)` lands
    /// at or past `t + w` — always a later batch. The clock ends at the
    /// last drained event, as it would after popping it, so scheduling
    /// from the processing loop obeys the same causality assert as
    /// scheduling from a handler.
    pub fn drain_until(&mut self, horizon: f64, batch: &mut Vec<ScheduledEvent<E>>) -> usize {
        batch.clear();
        while let Some(ev) = self.pop_before(horizon) {
            batch.push(ev);
        }
        batch.len()
    }
}

pub mod reference {
    //! The original binary-heap scheduler, retained as an executable
    //! specification. [`ReferenceQueue`] defines the pop order the
    //! calendar queue must reproduce, and the differential property
    //! tests run both side by side.

    use super::ScheduledEvent;
    use std::collections::BinaryHeap;

    /// Minimal binary-heap event queue with the exact semantics of the
    /// pre-calendar [`super::EventQueue`].
    #[derive(Debug, Clone, Default)]
    pub struct ReferenceQueue<E: PartialEq> {
        heap: BinaryHeap<ScheduledEvent<E>>,
        next_seq: u64,
        now: f64,
    }

    impl<E: PartialEq> ReferenceQueue<E> {
        pub fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: 0.0,
            }
        }

        pub fn now(&self) -> f64 {
            self.now
        }

        /// Schedule at absolute `time`; same causality panics as
        /// [`super::EventQueue::schedule`].
        pub fn schedule(&mut self, time: f64, event: E) {
            assert!(time.is_finite(), "event time must be finite");
            assert!(
                time >= self.now,
                "causality violation: scheduling at {time} but now is {}",
                self.now
            );
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(ScheduledEvent { time, seq, event });
        }

        /// The event the next [`Self::pop`] returns.
        pub fn peek(&self) -> Option<&ScheduledEvent<E>> {
            self.heap.peek()
        }

        pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
            let ev = self.heap.pop()?;
            self.now = ev.time;
            Some(ev)
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
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
    fn overflow_spills_are_counted_and_ordered() {
        let rec = Recorder::new();
        let mut q = EventQueue::new();
        q.attach_recorder(rec.clone());
        // Far beyond the wheel horizon → overflow heap.
        q.schedule(1e6, "far");
        q.schedule(2e6, "farther");
        q.schedule(0.5, "near");
        let s = rec.snapshot();
        assert_eq!(s.counter("netsim.des.wheel_spills"), 2);
        assert_eq!(q.pop().map(|e| e.event), Some("near"));
        assert_eq!(q.pop().map(|e| e.event), Some("far"));
        assert_eq!(q.pop().map(|e| e.event), Some("farther"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn pops_see_through_all_tiers() {
        let mut q = EventQueue::new();
        // Overflow alone: the calendar jumps straight to its day.
        q.schedule(1e7, "overflow");
        assert_eq!(q.pop().map(|e| e.event), Some("overflow"));
        // One event per tier, scheduled latest first: overflow, wheel,
        // and the already-sorted current day's late heap.
        q.schedule(2e7, "overflow");
        q.schedule(1e7 + 12.25, "wheel");
        q.schedule(1e7 + 0.125, "late");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().map(|e| e.event), Some("late"));
        assert_eq!(q.pop().map(|e| e.event), Some("wheel"));
        assert_eq!(q.pop().map(|e| e.event), Some("overflow"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_migrates_into_wheel_as_clock_advances() {
        // Regression: an event spills to overflow relative to the
        // base_day at schedule time; once pops advance the calendar,
        // that day comes within the wheel horizon and may even share a
        // day with freshly wheeled events. The spilled event must pop
        // in time order, not after the whole wheel drains.
        let mut q = EventQueue::new();
        q.schedule(300.2, "overflow-early"); // day 300: beyond wheel at base_day 0
        q.schedule(100.0, "advance");
        assert_eq!(q.pop().map(|e| e.event), Some("advance"));
        q.schedule(300.7, "wheel-late"); // same day, now within the wheel
        assert_eq!(q.pop().map(|e| e.event), Some("overflow-early"));
        assert_eq!(q.pop().map(|e| e.event), Some("wheel-late"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedule_after_horizon_probe_stays_ordered() {
        // A horizon inside a day promotes that day while probing it,
        // ahead of the clock; later schedules into the days before it
        // must still pop in time order.
        let mut q = EventQueue::new();
        q.schedule(100.75, "late");
        assert_eq!(q.drain_until(100.5, &mut Vec::new()), 0);
        assert_eq!(q.base_day, 100);
        q.schedule(2.0, "early");
        assert_eq!(q.pop().map(|e| e.event), Some("early"));
        assert_eq!(q.pop().map(|e| e.event), Some("late"));
    }

    /// `drain_until(h)` promotes no day that starts at or past `h`: an
    /// event scheduled at `h + 0.5` afterwards joins its day in the
    /// wheel rather than the `late` heap, and the next drain returns it
    /// in order with that day's other events.
    #[test]
    fn drain_until_leaves_days_past_the_horizon_in_the_wheel() {
        let mut q = EventQueue::new();
        for t in [0.25, 1.75, 1.25, 3.5] {
            q.schedule(t, t);
        }
        let mut batch = Vec::new();
        assert_eq!(q.drain_until(1.0, &mut batch), 1);
        assert_eq!((q.now(), q.base_day), (0.25, 0));
        q.schedule(1.5, 1.5);
        assert!(q.late.is_empty(), "the follow-up took the late heap");
        q.drain_until(2.0, &mut batch);
        let got: Vec<f64> = batch.iter().map(|e| e.event).collect();
        assert_eq!(got, vec![1.25, 1.5, 1.75]);
        assert_eq!((q.now(), q.len()), (1.75, 1));
    }

    /// Draining a whole day leaves the queue exactly as popping it
    /// would: the same events, clock and pending count, day after day
    /// into one reused buffer.
    #[test]
    fn whole_day_hand_out_equals_popping_the_day() {
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..40u32 {
                q.schedule(f64::from(i * 7 % 40) / 10.0, i);
            }
            q
        };
        let (mut whole, mut popped) = (build(), build());
        let mut batch = Vec::new();
        for h in 1..=4 {
            whole.drain_until(f64::from(h), &mut batch);
            let want: Vec<(f64, u64)> = std::iter::from_fn(|| popped.pop())
                .take(10)
                .map(|e| (e.time, e.seq))
                .collect();
            let got: Vec<(f64, u64)> = batch.iter().map(|e| (e.time, e.seq)).collect();
            assert_eq!(got, want, "day {}", h - 1);
            assert_eq!((whole.now(), whole.len()), (popped.now(), popped.len()));
        }
        assert!(whole.is_empty());
    }

    #[test]
    fn reset_rewinds_time_sequence_and_events() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 1);
        q.schedule(400.0, 2); // wheel
        q.schedule(1e6, 3); // overflow
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

    /// The day promotion is a complete sort whatever it is given: times
    /// before the day (bucket 0), past it (the last bucket), −0.0 beside
    /// +0.0, heavy ties and `seq` in any order.
    #[test]
    fn day_sort_orders_any_input() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut sorter = DaySort::default();
        for n in [0usize, 1, 2, 3, 17, 64, 65, 1000] {
            let mut events: Vec<ScheduledEvent<u64>> = (0..n)
                .map(|i| {
                    let r = next();
                    let time = match r % 6 {
                        0 => -0.0,
                        1 => 0.0,
                        2 => 5.0 + (r >> 40) as f64 / (1u64 << 24) as f64 * 4.0,
                        3 => 7.5,
                        _ => 7.0 + (r >> 40) as f64 / (1u64 << 24) as f64,
                    };
                    ScheduledEvent { time, seq: next(), event: i as u64 }
                })
                .collect();
            let mut want = events.clone();
            want.sort_by(event_order);
            sorter.order(&mut events, 7.0);
            let key = |v: &[ScheduledEvent<u64>]| -> Vec<(u64, u64, u64)> {
                v.iter().map(|e| (e.time.to_bits(), e.seq, e.event)).collect()
            };
            assert_eq!(key(&events), key(&want), "n={n}");
        }
    }

    #[test]
    fn matches_reference_on_mixed_tiers() {
        let mut cal = EventQueue::new();
        let mut refq = reference::ReferenceQueue::new();
        let times = [
            0.0, 700.0, 0.0, 3.5, 1e5, 255.9, 256.0, 12.0, 12.0, 1e5, 0.25,
        ];
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(t, i);
            refq.schedule(t, i);
        }
        loop {
            let (a, b) = (cal.pop(), refq.pop());
            assert_eq!(a.is_some(), b.is_some(), "queues ended at different lengths");
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!((a.time, a.seq, a.event), (b.time, b.seq, b.event));
                }
                _ => break,
            }
        }
    }
}
