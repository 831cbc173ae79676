//! Differential property tests: the calendar-queue [`EventQueue`]
//! against the retained binary-heap [`reference::ReferenceQueue`].
//!
//! The reference queue is the executable specification of the pop
//! order (ascending time, FIFO among equal timestamps); these tests
//! pin the calendar queue to it on random workloads that exercise all
//! four tiers — the sorted `active` day, the same-day `late` heap, the
//! 256-slot wheel, and the overflow heap — plus interleaved pops,
//! ties, `reset`, `drain_until` windows, and dense days of thousands
//! of events with hundreds more scheduled into them mid-drain, and
//! signed-zero and equal-time ties.
//!
//! A block of windowed `drain_until` drains at four batch widths, with
//! follow-ups scheduled between batches, pins the drains — and the
//! telemetry of a recorded queue — to the reference.
//!
//! A day is promoted into `active` by a counting pass over sub-day
//! buckets and an insertion pass; the last block aims at that routine:
//! days of one event, days of thousands of events on a handful of
//! distinct times, days that mix wheel events with overflow events
//! migrated in behind them (so `seq` is not monotone inside the day),
//! and a `late` heap holding events from before the current day.

use proptest::prelude::*;
use sc_netsim::des::{reference::ReferenceQueue, EventQueue, ScheduledEvent};
use sc_obs::Recorder;

/// Drain both queues and assert the full `(time, seq, event)` pop
/// sequences are identical, times compared by their bits (so −0.0 and
/// +0.0 are told apart).
fn assert_drains_equal(cal: &mut EventQueue<usize>, refq: &mut ReferenceQueue<usize>) {
    loop {
        let (a, b) = (cal.pop(), refq.pop());
        let bits = |e: Option<ScheduledEvent<usize>>| e.map(|e| (e.time.to_bits(), e.seq, e.event));
        let (a, b) = (bits(a), bits(b));
        assert_eq!(a, b, "calendar and reference disagree");
        if a.is_none() {
            break;
        }
    }
}

/// Map a tier selector and a unit fraction onto an offset that lands
/// in the current day (< 1 s), the wheel (< 256 days), or the
/// overflow heap (>= 256 days). Overflow is deliberately rare, as in
/// real workloads.
fn tiered(sel: u32, frac: f64) -> f64 {
    match sel % 9 {
        0..=3 => frac,
        4..=7 => frac * 256.0,
        _ => 256.0 + frac * 1.0e6,
    }
}

/// Offsets spanning all three tiers.
fn any_offset() -> impl Strategy<Value = f64> {
    (0u32..9, 0.0f64..1.0).prop_map(|(s, f)| tiered(s, f))
}

/// A unit fraction, snapped to sixteenths one time in three so that
/// dense days carry plenty of exact ties.
fn tie_prone_frac() -> impl Strategy<Value = f64> {
    (0u32..3, 0.0f64..1.0).prop_map(|(k, f)| if k == 0 { (f * 16.0).floor() / 16.0 } else { f })
}

/// One dense calendar day: its index (day 0 starts in the queue's
/// current day, days past 255 spill to the overflow heap) and 2 000 to
/// 2 400 timestamps inside it.
fn dense_day() -> impl Strategy<Value = (f64, Vec<f64>)> {
    (
        (0u32..6).prop_map(|k| f64::from([0, 1, 7, 255, 256, 300][k as usize])),
        proptest::collection::vec(tie_prone_frac(), 2000..2400),
    )
        .prop_map(|(day, fracs)| {
            let times = fracs.iter().map(|f| day + f).collect();
            (day, times)
        })
}

/// 200 to 240 fractions of the rest of a day: a burst of same-day
/// schedules.
fn same_day_burst() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(tie_prone_frac(), 200..240)
}

/// Schedule `times` into both queues, numbering events from `*next`.
fn schedule_both(
    cal: &mut EventQueue<usize>,
    refq: &mut ReferenceQueue<usize>,
    times: impl IntoIterator<Item = f64>,
    next: &mut usize,
) {
    for t in times {
        cal.schedule(t, *next);
        refq.schedule(t, *next);
        *next += 1;
    }
}

/// Times in `[now, day_end)` at the given fractions of the way there.
fn rest_of_day(now: f64, day_end: f64, fracs: &[f64]) -> Vec<f64> {
    fracs.iter().map(|f| now + f * (day_end - now)).collect()
}

proptest! {
    /// Schedule-everything-then-drain: identical pop order across the
    /// tier mix.
    #[test]
    fn drain_matches_reference(offsets in proptest::collection::vec(any_offset(), 1..200)) {
        let mut cal = EventQueue::new();
        let mut refq = ReferenceQueue::new();
        for (i, dt) in offsets.iter().enumerate() {
            cal.schedule(*dt, i);
            refq.schedule(*dt, i);
        }
        assert_drains_equal(&mut cal, &mut refq);
    }

    /// Quantized timestamps force heavy ties; FIFO among equal times
    /// must match the reference exactly.
    #[test]
    fn tie_heavy_drain_matches_reference(
        quanta in proptest::collection::vec(0u32..8, 1..300),
    ) {
        let mut cal = EventQueue::new();
        let mut refq = ReferenceQueue::new();
        for (i, q) in quanta.iter().enumerate() {
            let t = f64::from(*q) * 0.5;
            cal.schedule(t, i);
            refq.schedule(t, i);
        }
        assert_drains_equal(&mut cal, &mut refq);
    }

    /// Interleaved schedule/pop: pops advance the clock, later
    /// schedules land relative to it (as real simulations do), and
    /// every intermediate pop must agree.
    #[test]
    fn interleaved_ops_match_reference(
        // `Some(dt)` schedules at `now + dt`; `None` pops.
        ops in proptest::collection::vec(
            (0u32..4, 0u32..9, 0.0f64..1.0)
                .prop_map(|(op, s, f)| (op < 3).then(|| tiered(s, f))),
            1..250,
        ),
    ) {
        let mut cal = EventQueue::new();
        let mut refq = ReferenceQueue::new();
        let mut next = 0usize;
        for op in ops {
            match op {
                Some(dt) => {
                    let t = cal.now() + dt;
                    cal.schedule(t, next);
                    refq.schedule(t, next);
                    next += 1;
                }
                None => {
                    let (a, b) = (cal.pop(), refq.pop());
                    prop_assert_eq!(
                        a.as_ref().map(|e| (e.time, e.seq, e.event)),
                        b.as_ref().map(|e| (e.time, e.seq, e.event))
                    );
                    prop_assert_eq!(cal.now(), refq.now());
                }
            }
            prop_assert_eq!(cal.len(), refq.len());
        }
        assert_drains_equal(&mut cal, &mut refq);
    }

    /// A reset calendar queue replays exactly like a fresh reference
    /// queue — reuse across procedure runs cannot leak state.
    #[test]
    fn reset_queue_matches_fresh_reference(
        warmup in proptest::collection::vec(any_offset(), 0..60),
        replay in proptest::collection::vec(any_offset(), 1..60),
    ) {
        let mut cal = EventQueue::new();
        for (i, dt) in warmup.iter().enumerate() {
            cal.schedule(*dt, i);
        }
        // Drain roughly half, then reset mid-flight.
        for _ in 0..warmup.len() / 2 {
            cal.pop();
        }
        cal.reset();
        prop_assert_eq!(cal.len(), 0);
        prop_assert_eq!(cal.now(), 0.0);

        let mut refq = ReferenceQueue::new();
        for (i, dt) in replay.iter().enumerate() {
            cal.schedule(*dt, i);
            refq.schedule(*dt, i);
        }
        assert_drains_equal(&mut cal, &mut refq);
    }

    /// `drain_until` returns exactly the prefix of the reference's pop
    /// order that lies strictly before the horizon, and leaves the rest
    /// pending in the same order.
    #[test]
    fn drain_until_matches_reference_prefix(
        offsets in proptest::collection::vec(any_offset(), 1..150),
        pick in (0usize..300, 0.0f64..400.0),
    ) {
        // Half the horizons sit exactly on an event's time.
        let horizon = if pick.0 % 2 == 0 { offsets[pick.0 % offsets.len()] } else { pick.1 };
        let mut cal = EventQueue::new();
        let mut refq = ReferenceQueue::new();
        schedule_both(&mut cal, &mut refq, offsets, &mut 0);
        let want: Vec<(f64, u64, usize)> =
            std::iter::from_fn(|| refq.pop().map(|e| (e.time, e.seq, e.event))).collect();
        let due = want.iter().take_while(|e| e.0 < horizon).count();

        let mut batch = Vec::new();
        prop_assert_eq!(cal.drain_until(horizon, &mut batch), due);
        let got: Vec<(f64, u64, usize)> =
            batch.iter().map(|e| (e.time, e.seq, e.event)).collect();
        prop_assert_eq!(&got[..], &want[..due]);
        let rest: Vec<(f64, u64, usize)> =
            std::iter::from_fn(|| cal.pop().map(|e| (e.time, e.seq, e.event))).collect();
        prop_assert_eq!(&rest[..], &want[due..]);
    }

    /// A dense day — thousands of events in one calendar day, landing
    /// in the current day, the wheel, or the overflow heap — pops in
    /// reference order, and so do bursts of 200+ events scheduled into
    /// the rest of the day between runs of pops.
    #[test]
    fn dense_day_with_same_day_schedules_between_pops_matches_reference(
        dense in dense_day(),
        rounds in proptest::collection::vec((0usize..600, same_day_burst()), 3..6),
    ) {
        let (day, seed) = dense;
        let mut cal = EventQueue::new();
        let mut refq = ReferenceQueue::new();
        let mut next = 0;
        schedule_both(&mut cal, &mut refq, seed, &mut next);
        for (pops, burst) in rounds {
            for _ in 0..pops {
                let (a, b) = (cal.pop(), refq.pop());
                prop_assert_eq!(
                    a.as_ref().map(|e| (e.time, e.seq, e.event)),
                    b.as_ref().map(|e| (e.time, e.seq, e.event))
                );
            }
            let now = cal.now().max(day);
            schedule_both(&mut cal, &mut refq, rest_of_day(now, day + 1.0, &burst), &mut next);
            prop_assert_eq!(cal.len(), refq.len());
        }
        assert_drains_equal(&mut cal, &mut refq);
    }

    /// Signed zeros and equal times in every tier: a day's insertion
    /// pass compares an integer key, which must order −0.0 before +0.0
    /// (as `total_cmp` does) and keep FIFO among equal times. Times are
    /// compared by their bits, since `-0.0 == 0.0`.
    #[test]
    fn signed_zero_and_equal_time_ties_match_reference(
        picks in proptest::collection::vec(0usize..8, 1..300),
        pops in 0usize..300,
    ) {
        const TIMES: [f64; 8] = [-0.0, 0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 7.25, 300.0, 300.0];
        let mut cal = EventQueue::new();
        let mut refq = ReferenceQueue::new();
        let bits = |e: Option<ScheduledEvent<usize>>| e.map(|e| (e.time.to_bits(), e.seq, e.event));
        for (i, &k) in picks.iter().enumerate() {
            cal.schedule(TIMES[k], i);
            refq.schedule(TIMES[k], i);
        }
        // Pop part of the way, then schedule the same times again where
        // causality allows: ties across the `late` heap and a sorted day.
        for _ in 0..pops.min(picks.len()) {
            prop_assert_eq!(bits(cal.pop()), bits(refq.pop()));
        }
        for (i, &k) in picks.iter().enumerate() {
            if TIMES[k] >= cal.now() {
                cal.schedule(TIMES[k], picks.len() + i);
                refq.schedule(TIMES[k], picks.len() + i);
            }
        }
        loop {
            let (a, b) = (bits(cal.pop()), bits(refq.pop()));
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The same dense day drained in sub-day `drain_until` windows,
    /// with a burst of 200+ same-day schedules between windows: each
    /// batch is the reference's next pops, and nothing before the
    /// horizon is left behind.
    #[test]
    fn dense_day_with_same_day_schedules_between_drains_matches_reference(
        dense in dense_day(),
        rounds in proptest::collection::vec((0.0f64..1.0, same_day_burst()), 3..6),
    ) {
        let (day, seed) = dense;
        let mut cal = EventQueue::new();
        let mut refq = ReferenceQueue::new();
        let mut next = 0;
        schedule_both(&mut cal, &mut refq, seed, &mut next);
        let mut batch = Vec::new();
        let mut horizon = day;
        for (step, burst) in rounds {
            // Advance the horizon through the day, on a sixteenth so
            // that it often ties with seeded events.
            horizon += step * (day + 1.0 - horizon);
            horizon = day + ((horizon - day) * 16.0).floor() / 16.0;
            cal.drain_until(horizon, &mut batch);
            for e in &batch {
                prop_assert!(e.time < horizon);
                let r = refq.pop();
                prop_assert_eq!(
                    Some((e.time, e.seq, e.event)),
                    r.map(|r| (r.time, r.seq, r.event))
                );
            }
            // The reference's next event (probed on a copy) is due at
            // or past the horizon.
            if let Some(r) = refq.clone().pop() {
                prop_assert!(r.time >= horizon, "{} left before {horizon}", r.time);
            }
            let now = cal.now().max(horizon);
            schedule_both(&mut cal, &mut refq, rest_of_day(now, day + 1.0, &burst), &mut next);
            prop_assert_eq!(cal.len(), refq.len());
        }
        assert_drains_equal(&mut cal, &mut refq);
    }
}

proptest! {
    /// Days of one event each, on days spread over the current day, the
    /// wheel and the overflow heap, with pops in between and a second
    /// lone event scheduled behind some of them.
    #[test]
    fn one_event_days_match_reference(
        days in proptest::collection::vec((0u32..2000, 0.0f64..1.0, any::<bool>()), 1..120),
    ) {
        let mut cal = EventQueue::new();
        let mut refq = ReferenceQueue::new();
        let mut next = 0;
        // One event per distinct day.
        let mut seen = std::collections::BTreeSet::new();
        for (day, frac, _) in &days {
            if seen.insert(*day) {
                schedule_both(&mut cal, &mut refq, [f64::from(*day) + frac], &mut next);
            }
        }
        for (_, frac, follow_up) in days {
            let (a, b) = (cal.pop(), refq.pop());
            prop_assert_eq!(
                a.as_ref().map(|e| (e.time, e.seq, e.event)),
                b.as_ref().map(|e| (e.time, e.seq, e.event))
            );
            if follow_up {
                // A lone event a few days ahead: a one-event wheel day.
                let t = cal.now() + 3.0 + frac;
                schedule_both(&mut cal, &mut refq, [t], &mut next);
            }
        }
        assert_drains_equal(&mut cal, &mut refq);
    }

    /// Thousands of events on at most a handful of distinct times, in
    /// the first day (promoted from the `late` heap, whose storage order
    /// is not `seq` order), on a wheel day and on an overflow day.
    #[test]
    fn tie_heavy_thousand_event_days_match_reference(
        day in (0u32..3).prop_map(|k| f64::from([0, 9, 400][k as usize])),
        distinct in 1usize..5,
        picks in proptest::collection::vec(0usize..5, 2000..4000),
        pops in 0usize..3000,
    ) {
        const FRACS: [f64; 5] = [0.0, 0.125, 0.5, 0.5 + f64::EPSILON, 0.875];
        let mut cal = EventQueue::new();
        let mut refq = ReferenceQueue::new();
        let mut next = 0;
        let times: Vec<f64> = picks.iter().map(|k| day + FRACS[k % distinct]).collect();
        schedule_both(&mut cal, &mut refq, times.iter().copied(), &mut next);
        for _ in 0..pops {
            let (a, b) = (cal.pop(), refq.pop());
            prop_assert_eq!(
                a.as_ref().map(|e| (e.time, e.seq, e.event)),
                b.as_ref().map(|e| (e.time, e.seq, e.event))
            );
        }
        // The same times again where causality allows: ties between the
        // promoted day and the `late` heap.
        let now = cal.now();
        schedule_both(&mut cal, &mut refq, times.into_iter().filter(|t| *t >= now), &mut next);
        assert_drains_equal(&mut cal, &mut refq);
    }

    /// Events spilled to the overflow heap, then, once the clock has
    /// moved their day into the wheel horizon, more events into the same
    /// day — equal times included. The migrated events enter the bucket
    /// in `(time, seq)` order ahead of the wheel's own, so `seq` is not
    /// monotone in the bucket (it is among equal times).
    #[test]
    fn wheel_and_migrated_overflow_day_matches_reference(
        target in 256u32..700,
        spilled in proptest::collection::vec(tie_prone_frac(), 1..400),
        wheeled in proptest::collection::vec(tie_prone_frac(), 1..400),
        lead in 1u32..255,
    ) {
        let day = f64::from(target);
        let mut cal = EventQueue::new();
        let mut refq = ReferenceQueue::new();
        let mut next = 0;
        // At base day 0 the target day is past the wheel: overflow.
        schedule_both(&mut cal, &mut refq, spilled.iter().map(|f| day + f), &mut next);
        // Move the clock to within `lead` days of the target.
        let advance = day - f64::from(lead);
        schedule_both(&mut cal, &mut refq, [advance], &mut next);
        let (a, b) = (cal.pop(), refq.pop());
        prop_assert_eq!(a.map(|e| e.seq), b.map(|e| e.seq));
        // Now the target day is inside the wheel horizon.
        schedule_both(&mut cal, &mut refq, wheeled.iter().map(|f| day + f), &mut next);
        schedule_both(&mut cal, &mut refq, spilled.iter().map(|f| day + f), &mut next);
        assert_drains_equal(&mut cal, &mut refq);
    }

    /// A `drain_until` horizon inside a far day promotes that day while
    /// the clock stays behind it; everything scheduled afterwards into
    /// the days in between sits in the `late` heap, before the current
    /// day, beside more of the current day's events.
    #[test]
    fn late_events_before_the_current_day_match_reference(
        far in 2u32..600,
        before in proptest::collection::vec(0.0f64..1.0, 1..300),
        same_day in proptest::collection::vec(tie_prone_frac(), 0..300),
        pops in 0usize..600,
    ) {
        let day = f64::from(far);
        let mut cal = EventQueue::new();
        let mut refq = ReferenceQueue::new();
        let mut next = 0;
        schedule_both(&mut cal, &mut refq, [day + 0.5, -0.0, 0.0], &mut next);
        let mut batch = Vec::new();
        cal.drain_until(day + 0.25, &mut batch);
        for e in &batch {
            let r = refq.pop();
            prop_assert_eq!(Some((e.time.to_bits(), e.seq)), r.map(|r| (r.time.to_bits(), r.seq)));
        }
        // The probe found nothing due before `day + 0.25` past the zeros
        // and left the far day current.
        prop_assert_eq!(cal.drain_until(day + 0.25, &mut batch), 0);
        schedule_both(&mut cal, &mut refq, before.iter().map(|f| 1.0 + f * (day - 1.0)), &mut next);
        schedule_both(&mut cal, &mut refq, same_day.iter().map(|f| day + f), &mut next);
        for _ in 0..pops {
            let (a, b) = (cal.pop(), refq.pop());
            prop_assert_eq!(
                a.as_ref().map(|e| (e.time, e.seq, e.event)),
                b.as_ref().map(|e| (e.time, e.seq, e.event))
            );
        }
        assert_drains_equal(&mut cal, &mut refq);
    }
}

/// The batch widths the churn soaks may run at: the calendar day, and
/// widths whose horizons fall mid-day, on and off the day's binary grid.
const WIDTHS: [f64; 4] = [1.0, 0.5, 0.3, 0.25];

/// A windowed soak in miniature: seed `seeds` (offsets across the
/// current day, the wheel and the overflow heap), then drain windows
/// `[k·w, (k+1)·w)` and, after each batch, schedule `follow_ups` behind
/// the drained events in order — a delay in `[0, 2w)`, no earlier than
/// the clock, so some land in a day already promoted (the `late` heap)
/// and some in later days —
/// until the follow-ups are spent and the queue is empty. `on_batch`
/// sees the reference, each batch's horizon and its events. Windows
/// with nothing due are skipped straight to the next event, as a
/// caller that knows the next time would. Returns the number of events
/// scheduled.
fn windowed_soak(
    cal: &mut EventQueue<usize>,
    refq: &mut ReferenceQueue<usize>,
    width: f64,
    seeds: &[f64],
    follow_ups: &[(bool, f64)],
    mut on_batch: impl FnMut(&mut ReferenceQueue<usize>, f64, &[ScheduledEvent<usize>]),
) -> usize {
    let mut next = 0;
    schedule_both(cal, refq, seeds.iter().copied(), &mut next);
    let mut follow = follow_ups.iter();
    let mut batch = Vec::new();
    let mut k = 0u64;
    while let Some(head) = refq.peek() {
        k = k.max((head.time / width) as u64);
        let horizon = (k + 1) as f64 * width;
        cal.drain_until(horizon, &mut batch);
        on_batch(refq, horizon, &batch);
        for e in &batch {
            match follow.next() {
                Some(&(true, f)) => {
                    let t = cal.now().max(e.time + 2.0 * width * f);
                    schedule_both(cal, refq, [t], &mut next);
                }
                Some(_) => {}
                None => break,
            }
        }
        k += 1;
    }
    assert!(
        cal.is_empty(),
        "the calendar kept events the reference drained"
    );
    next
}

proptest! {
    /// Windowed drains at every width equal the reference's pops: each
    /// batch is exactly the reference's events before the horizon, in
    /// order, and the clock and pending count agree after every batch.
    #[test]
    fn windowed_drains_with_follow_ups_match_reference(
        seeds in proptest::collection::vec(any_offset(), 1..150),
        follow_ups in proptest::collection::vec((any::<bool>(), 0.0f64..1.0), 0..300),
    ) {
        for width in WIDTHS {
            let (mut cal, mut refq) = (EventQueue::new(), ReferenceQueue::new());
            windowed_soak(&mut cal, &mut refq, width, &seeds, &follow_ups, |refq, horizon, batch| {
                for e in batch {
                    let r = refq.pop().map(|r| (r.time.to_bits(), r.seq, r.event));
                    assert_eq!(Some((e.time.to_bits(), e.seq, e.event)), r, "width {width}");
                }
                if let Some(r) = refq.peek() {
                    assert!(r.time >= horizon, "width {width}: {} left before {horizon}", r.time);
                }
            });
            prop_assert_eq!(cal.now(), refq.now());
        }
    }

    /// A queue with an enabled recorder drains event by event: its
    /// `netsim.des.*` counters and series are exactly what one count,
    /// one window increment and one depth sample per reference pop,
    /// plus one count per schedule and per spill, record. Follow-ups are
    /// less than two windows ahead, so only seeds past day 255 spill.
    #[test]
    fn recorded_drains_keep_per_event_telemetry(
        seeds in proptest::collection::vec(any_offset(), 1..150),
        follow_ups in proptest::collection::vec((any::<bool>(), 0.0f64..1.0), 0..300),
    ) {
        for width in WIDTHS {
            let (rec, mirror) = (Recorder::new(), Recorder::new());
            let mut cal = EventQueue::new();
            cal.attach_recorder(rec.clone());
            let mut refq = ReferenceQueue::new();
            let scheduled = windowed_soak(&mut cal, &mut refq, width, &seeds, &follow_ups, |refq, _, batch| {
                for _ in batch {
                    if let Some(r) = refq.pop() {
                        mirror.inc("netsim.des.processed", 1);
                        mirror.series_inc("netsim.des.processed_per_window", r.time, 1);
                        mirror.series_gauge("netsim.des.queue_depth", r.time, refq.len() as f64);
                    }
                }
            });
            let spills = seeds.iter().filter(|t| **t >= 256.0).count() as u64;
            mirror.inc("netsim.des.scheduled", scheduled as u64);
            if spills > 0 {
                mirror.inc("netsim.des.wheel_spills", spills);
            }
            prop_assert_eq!(rec.snapshot(), mirror.snapshot(), "width {}", width);
        }
    }
}
