//! Property tests of the pop order of [`EventQueue`], the simulation's
//! event calendar, against the linear-scan oracle (the reference) in
//! `support`: every pop, batch, clock and pending count must equal the
//! oracle's, times compared by their bits (so −0.0 and +0.0 are told
//! apart).
//!
//! The workloads: schedule-then-drain over times up to 2·10⁷, heavy
//! ties, signed zeros and one-ulp neighbours with schedules between
//! pops, schedules interleaved with pops, dense days (thousands of
//! events inside one unit of the clock) with bursts scheduled into
//! them between pops and between `drain_until` windows, and windowed
//! drains at four widths with follow-ups.

mod support;

use proptest::prelude::*;
use sc_netsim::des::EventQueue;
use support::{follow_ups, tie_prone_frac, when, windowed_soak, Pair, WIDTHS};

/// One dense day: its start (at the origin, near it, and far out where
/// the float grid is coarser) and 2 000 to 2 400 timestamps inside it.
fn dense_day() -> impl Strategy<Value = (f64, Vec<f64>)> {
    (
        (0usize..6).prop_map(|k| [0.0, 1.0, 7.0, 256.0, 1e5, 1e7][k]),
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

/// Schedule `times` into both sides.
fn schedule_all(p: &mut Pair, times: impl IntoIterator<Item = f64>) {
    for t in times {
        p.schedule(t);
    }
}

/// Times in `[now, day_end)` at the given fractions of the way there.
fn rest_of_day(now: f64, day_end: f64, fracs: &[f64]) -> Vec<f64> {
    fracs.iter().map(|f| now + f * (day_end - now)).collect()
}

proptest! {
    /// Schedule everything, then pop everything.
    #[test]
    fn drain_matches_reference(whens in proptest::collection::vec(when(), 1..300)) {
        let mut p = Pair::new(EventQueue::new());
        schedule_all(&mut p, whens.iter().map(|w| w.at(0.0)));
        p.finish();
    }

    /// Quantized timestamps force heavy ties; FIFO among equal times
    /// must match the reference exactly.
    #[test]
    fn tie_heavy_drain_matches_reference(
        quanta in proptest::collection::vec(0u32..8, 1..300),
    ) {
        let mut p = Pair::new(EventQueue::new());
        schedule_all(&mut p, quanta.iter().map(|&q| f64::from(q) * 0.5));
        p.finish();
    }

    /// Signed zeros, one-ulp neighbours and equal times: −0.0 pops before
    /// +0.0 (as `total_cmp` orders them) and equal times pop FIFO, also
    /// when the same times are scheduled again after part of the drain.
    #[test]
    fn signed_zero_and_equal_time_ties_match_reference(
        picks in proptest::collection::vec(0usize..8, 1..300),
        pops in 0usize..300,
    ) {
        const TIMES: [f64; 8] = [-0.0, 0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 7.25, 300.0, 300.0];
        let mut p = Pair::new(EventQueue::new());
        schedule_all(&mut p, picks.iter().map(|&k| TIMES[k]));
        for _ in 0..pops.min(picks.len()) {
            p.pop();
        }
        let now = p.now();
        schedule_all(&mut p, picks.iter().map(|&k| TIMES[k]).filter(|&t| t >= now));
        p.finish();
    }

    /// Schedules and pops interleaved: each schedule lands relative to
    /// the clock the pops have advanced, as a simulation's handlers do.
    #[test]
    fn interleaved_ops_match_reference(
        // `Some` schedules; `None` pops.
        ops in proptest::collection::vec(
            (0u32..5, when()).prop_map(|(op, w)| (op < 3).then_some(w)),
            1..400,
        ),
    ) {
        let mut p = Pair::new(EventQueue::new());
        for op in ops {
            match op {
                Some(w) => p.schedule(w.at(p.now())),
                None => {
                    p.pop();
                }
            }
        }
        p.finish();
    }

    /// A dense day pops in reference order, and so do bursts of 200+
    /// events scheduled into the rest of the day between runs of pops.
    #[test]
    fn dense_day_with_same_day_schedules_between_pops_matches_reference(
        dense in dense_day(),
        rounds in proptest::collection::vec((0usize..600, same_day_burst()), 3..6),
    ) {
        let (day, seed) = dense;
        let mut p = Pair::new(EventQueue::new());
        schedule_all(&mut p, seed);
        for (pops, burst) in rounds {
            for _ in 0..pops {
                p.pop();
            }
            let now = p.now().max(day);
            schedule_all(&mut p, rest_of_day(now, day + 1.0, &burst));
        }
        p.finish();
    }

    /// The same dense day drained in `drain_until` windows inside the
    /// day, with a burst of 200+ same-day schedules between windows:
    /// each batch is the reference's next pops, and nothing before the
    /// horizon is left behind.
    #[test]
    fn dense_day_with_same_day_schedules_between_drains_matches_reference(
        dense in dense_day(),
        rounds in proptest::collection::vec((0.0f64..1.0, same_day_burst()), 3..6),
    ) {
        let (day, seed) = dense;
        let mut p = Pair::new(EventQueue::new());
        schedule_all(&mut p, seed);
        let mut batch = Vec::new();
        let mut horizon = day;
        for (step, burst) in rounds {
            // Advance the horizon through the day, on a sixteenth so
            // that it often ties with seeded events.
            horizon += step * (day + 1.0 - horizon);
            horizon = day + ((horizon - day) * 16.0).floor() / 16.0;
            p.drain_until(horizon, &mut batch);
            let now = p.now().max(horizon);
            schedule_all(&mut p, rest_of_day(now, day + 1.0, &burst));
        }
        p.finish();
    }

    /// Windowed drains at every width equal the reference's pops: each
    /// batch is exactly the reference's events before the horizon, in
    /// order, and the clock and pending count agree after every batch.
    #[test]
    fn windowed_drains_with_follow_ups_match_reference(
        seeds in proptest::collection::vec(when(), 1..150),
        follow_ups in follow_ups(),
    ) {
        for width in WIDTHS {
            windowed_soak(&mut Pair::new(EventQueue::new()), width, &seeds, &follow_ups);
        }
    }
}
