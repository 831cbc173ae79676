//! The event-queue oracle and workload generators shared by
//! `des_props.rs` and `calendar_props.rs`.
//!
//! The oracle is the pop order written out plainly — pending events in a
//! `Vec`, the next one found by a linear scan for the least
//! `(time.total_cmp, seq)` — and shares no code with [`EventQueue`].
//! [`Pair`] feeds the queue and the oracle the same schedules and checks
//! every pop, drain, clock and pending count against the oracle.

use proptest::prelude::*;
use sc_netsim::des::{EventQueue, ScheduledEvent};
use sc_obs::Recorder;

/// An event as both sides report it: the time by its bits (so −0.0 and
/// +0.0 are told apart), the sequence number and the payload.
pub type Key = (u64, u64, usize);

fn key(e: &ScheduledEvent<usize>) -> Key {
    (e.time.to_bits(), e.seq, e.event)
}

/// The specification of the pop order. With an enabled recorder it
/// records what a recorded queue must: one count per schedule, and one
/// count, one window increment and one depth sample per pop.
pub struct Oracle {
    pub pending: Vec<(f64, u64, usize)>,
    next_seq: u64,
    pub now: f64,
    obs: Recorder,
}

impl Oracle {
    pub fn new(obs: Recorder) -> Self {
        Self {
            pending: Vec::new(),
            next_seq: 0,
            now: 0.0,
            obs,
        }
    }

    pub fn schedule(&mut self, time: f64, event: usize) {
        self.pending.push((time, self.next_seq, event));
        self.next_seq += 1;
        self.obs.inc("netsim.des.scheduled", 1);
    }

    /// Index of the earliest pending event.
    fn earliest(&self) -> Option<usize> {
        (0..self.pending.len()).min_by(|&a, &b| {
            let (a, b) = (self.pending[a], self.pending[b]);
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
        })
    }

    pub fn peek_time(&self) -> Option<f64> {
        self.earliest().map(|i| self.pending[i].0)
    }

    pub fn pop(&mut self) -> Option<Key> {
        let (time, seq, event) = self.pending.swap_remove(self.earliest()?);
        self.now = time;
        self.obs.inc("netsim.des.processed", 1);
        self.obs
            .series_inc("netsim.des.processed_per_window", time, 1);
        self.obs
            .series_gauge("netsim.des.queue_depth", time, self.pending.len() as f64);
        Some((time.to_bits(), seq, event))
    }
}

/// The queue and the oracle, fed the same schedules.
pub struct Pair {
    pub q: EventQueue<usize>,
    pub oracle: Oracle,
    pub next: usize,
}

impl Pair {
    pub fn new(q: EventQueue<usize>) -> Self {
        Self {
            q,
            oracle: Oracle::new(Recorder::disabled()),
            next: 0,
        }
    }

    pub fn schedule(&mut self, time: f64) {
        self.q.schedule(time, self.next);
        self.oracle.schedule(time, self.next);
        self.next += 1;
    }

    pub fn now(&self) -> f64 {
        self.q.now()
    }

    /// Pop both; they agree on the event, the clock and the count left.
    pub fn pop(&mut self) -> Option<Key> {
        let got = self.q.pop().map(|e| key(&e));
        assert_eq!(got, self.oracle.pop(), "queue and oracle disagree");
        self.assert_in_step();
        got
    }

    /// `drain_until(horizon)`: the batch is the oracle's next pops, all
    /// before the horizon, and the oracle's next event is not.
    pub fn drain_until(&mut self, horizon: f64, batch: &mut Vec<ScheduledEvent<usize>>) {
        let n = self.q.drain_until(horizon, batch);
        assert_eq!(n, batch.len());
        for e in batch.iter() {
            assert!(e.time < horizon, "{} drained at horizon {horizon}", e.time);
            assert_eq!(Some(key(e)), self.oracle.pop(), "horizon {horizon}");
        }
        if let Some(t) = self.oracle.peek_time() {
            assert!(t >= horizon, "{t} left before horizon {horizon}");
        }
        self.assert_in_step();
    }

    fn assert_in_step(&self) {
        assert_eq!(self.q.now().to_bits(), self.oracle.now.to_bits(), "clocks");
        assert_eq!(self.q.len(), self.oracle.pending.len(), "pending counts");
        assert_eq!(self.q.is_empty(), self.oracle.pending.is_empty());
    }

    /// Pop both dry.
    pub fn finish(&mut self) {
        while self.pop().is_some() {}
    }
}

/// Times that matter to an ordering: both signed zeros, exact ties,
/// neighbours one ulp apart, and far times up to 2·10⁷.
pub const TABLE: [f64; 16] = [
    -0.0,
    0.0,
    0.5,
    1.0,
    1.0 + f64::EPSILON,
    7.25,
    12.0,
    255.9,
    256.0,
    300.2,
    700.0,
    1e5,
    1e6,
    1e7,
    1e7 + 12.25,
    2e7,
];

/// Where a schedule lands, relative to the clock.
#[derive(Debug, Clone, Copy)]
pub enum When {
    /// A [`TABLE`] time, or the clock itself once that time is past.
    Table(usize),
    /// The clock plus a non-negative offset.
    After(f64),
}

impl When {
    pub fn at(self, now: f64) -> f64 {
        match self {
            When::Table(i) if TABLE[i] >= now => TABLE[i],
            When::Table(_) => now,
            When::After(dt) => now + dt,
        }
    }
}

/// A unit fraction, snapped to sixteenths one time in three so that
/// workloads carry plenty of exact ties (and horizons on a binary grid
/// land on event times).
pub fn tie_prone_frac() -> impl Strategy<Value = f64> {
    (0u32..3, 0.0f64..1.0).prop_map(|(k, f)| if k == 0 { (f * 16.0).floor() / 16.0 } else { f })
}

/// Table times one time in four; otherwise an offset of zero (a
/// schedule at exactly the clock), up to 1, up to 256 or up to 10⁷.
pub fn when() -> impl Strategy<Value = When> {
    (0u32..12, 0usize..TABLE.len(), tie_prone_frac()).prop_map(|(k, i, f)| match k {
        0..=2 => When::Table(i),
        3 => When::After(0.0),
        4..=7 => When::After(f),
        8..=10 => When::After(f * 256.0),
        _ => When::After(f * 1e7),
    })
}

/// The batch widths a windowed caller may drain at: whole units, and
/// widths whose horizons fall mid-unit, on and off the binary grid.
pub const WIDTHS: [f64; 4] = [1.0, 0.5, 0.3, 0.25];

/// A windowed soak in miniature: schedule `seeds`, then drain windows
/// `[k·w, (k+1)·w)` and, after each batch, schedule `follow_ups` behind
/// the drained events in order — none, one at exactly the clock, or one
/// at a delay in `[0, 2w)` (no earlier than the clock), so some land
/// behind the horizon just drained, some in the next window and some
/// later — until the follow-ups are spent and the queue is empty.
/// Windows with nothing due are skipped straight to the next event, as
/// a caller that knows the next time would.
pub fn windowed_soak(p: &mut Pair, width: f64, seeds: &[When], follow_ups: &[(u32, f64)]) {
    for w in seeds {
        p.schedule(w.at(0.0));
    }
    let mut follow = follow_ups.iter();
    let mut batch = Vec::new();
    let mut k = 0u64;
    while let Some(head) = p.oracle.peek_time() {
        k = k.max((head / width) as u64);
        p.drain_until((k + 1) as f64 * width, &mut batch);
        for e in &batch {
            match follow.next() {
                Some(&(0, _)) => {}
                Some(&(1, _)) => p.schedule(p.now()),
                Some(&(_, f)) => p.schedule(p.now().max(e.time + 2.0 * width * f)),
                None => break,
            }
        }
        k += 1;
    }
    assert!(p.q.is_empty(), "the queue kept events the oracle drained");
}

/// Follow-up choices for [`windowed_soak`].
pub fn follow_ups() -> impl Strategy<Value = Vec<(u32, f64)>> {
    proptest::collection::vec((0u32..4, 0.0f64..1.0), 0..300)
}
