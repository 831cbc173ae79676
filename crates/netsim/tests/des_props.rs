//! Property tests of [`EventQueue`]'s entry points beyond pop order,
//! against the linear-scan oracle in `support`: `drain_until` at
//! horizons on an event's time, a schedule after an empty horizon probe,
//! `reset`, and the telemetry of a recorded queue. The pop order itself
//! (ties, signed zeros, far times, schedules between pops and between
//! windowed drains) is checked by `calendar_props.rs`.

mod support;

use proptest::prelude::*;
use sc_netsim::des::EventQueue;
use sc_obs::Recorder;
use support::{follow_ups, tie_prone_frac, when, windowed_soak, Oracle, Pair, WIDTHS};

proptest! {
    /// `drain_until` returns exactly the prefix of the pop order that
    /// lies strictly before the horizon, and leaves the rest pending.
    #[test]
    fn drain_until_matches_oracle_prefix(
        whens in proptest::collection::vec(when(), 1..150),
        pick in (0usize..300, 0.0f64..400.0),
    ) {
        let mut p = Pair::new(EventQueue::new());
        let times: Vec<f64> = whens.iter().map(|w| w.at(0.0)).collect();
        for &t in &times {
            p.schedule(t);
        }
        // Half the horizons sit exactly on an event's time.
        let horizon = if pick.0 % 2 == 0 { times[pick.0 % times.len()] } else { pick.1 };
        p.drain_until(horizon, &mut Vec::new());
        p.finish();
    }

    /// A probe that drains nothing leaves the queue as it was: events
    /// scheduled afterwards between the clock and the probed horizon,
    /// and beside the far event, pop in order.
    #[test]
    fn schedule_after_empty_horizon_probe_matches_oracle(
        far in 2u32..600,
        before in proptest::collection::vec(0.0f64..1.0, 1..300),
        same_day in proptest::collection::vec(tie_prone_frac(), 0..300),
        pops in 0usize..600,
    ) {
        let day = f64::from(far);
        let mut p = Pair::new(EventQueue::new());
        for t in [day + 0.5, -0.0, 0.0] {
            p.schedule(t);
        }
        let mut batch = Vec::new();
        p.drain_until(day + 0.25, &mut batch);
        p.drain_until(day + 0.25, &mut batch);
        prop_assert!(batch.is_empty());
        for f in before {
            p.schedule(1.0 + f * (day - 1.0));
        }
        for f in same_day {
            p.schedule(day + f);
        }
        for _ in 0..pops {
            p.pop();
        }
        p.finish();
    }

    /// A reset queue replays exactly like a fresh oracle — reuse across
    /// procedure runs cannot leak state.
    #[test]
    fn reset_queue_matches_fresh_oracle(
        warmup in proptest::collection::vec(when(), 0..60),
        replay in proptest::collection::vec(when(), 1..60),
    ) {
        let mut q = EventQueue::new();
        for (i, w) in warmup.iter().enumerate() {
            q.schedule(w.at(0.0), i);
        }
        // Drain roughly half, then reset mid-flight.
        for _ in 0..warmup.len() / 2 {
            q.pop();
        }
        q.reset();
        prop_assert_eq!(q.len(), 0);
        prop_assert_eq!(q.now(), 0.0);
        let mut p = Pair::new(q);
        for w in replay {
            p.schedule(w.at(0.0));
        }
        p.finish();
    }

    /// A recorded queue's telemetry equals the recording oracle's: one
    /// count per schedule, and one count, one window increment and one
    /// depth sample per oracle pop.
    #[test]
    fn recorded_drains_keep_per_event_telemetry(
        seeds in proptest::collection::vec(when(), 1..150),
        follow_ups in follow_ups(),
    ) {
        for width in WIDTHS {
            let (rec, mirror) = (Recorder::new(), Recorder::new());
            let mut q = EventQueue::new();
            q.attach_recorder(rec.clone());
            let mut p = Pair { q, oracle: Oracle::new(mirror.clone()), next: 0 };
            windowed_soak(&mut p, width, &seeds, &follow_ups);
            prop_assert_eq!(rec.snapshot(), mirror.snapshot(), "width {}", width);
        }
    }
}
