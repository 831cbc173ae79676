//! Property-based tests for the chaos-injection layer (`sc-netsim::chaos`).
//!
//! The properties the `ext_chaos` experiment's byte-stability checks
//! lean on: identical seed + timeline ⇒ bit-identical outcomes, a node
//! dead from t = 0 behaves exactly as one crashed at t = 0, and
//! partition-as-transient retries recover runs a legacy
//! abort-on-partition simulator loses.

use proptest::prelude::*;
use sc_netsim::chaos::FailureTimeline;
use sc_netsim::failure::{LossProcess, Xorshift64};
use sc_netsim::sim::{steps_from_pairs, ProcedureSim, SimConfig, SimStep};
use sc_netsim::topo::Graph;

/// A small ring-with-chords topology: every node reachable over at least
/// two disjoint routes, so single crashes reroute rather than partition.
fn ring_with_chords(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_bidirectional(i, (i + 1) % n, 5.0 + (i % 3) as f64);
    }
    for i in 0..n / 2 {
        g.add_bidirectional(i, i + n / 2, 17.0);
    }
    g
}

fn procedure(n: usize, legs: usize) -> Vec<SimStep> {
    let pairs: Vec<(&str, usize, usize)> = (0..legs)
        .map(|i| {
            if i % 2 == 0 {
                ("fwd", 0usize, n / 2)
            } else {
                ("bwd", n / 2, 0usize)
            }
        })
        .collect();
    steps_from_pairs(&pairs)
}

proptest! {
    /// Identical seed and timeline ⇒ bit-identical `SimOutcome`
    /// sequences, including every delivery timestamp.
    #[test]
    fn same_seed_same_timeline_bit_identical(
        seed in any::<u64>(),
        p_crash in 0.0f64..0.3,
        p_loss in 0.0f64..0.3,
        legs in 1usize..6,
    ) {
        let n = 12;
        let g = ring_with_chords(n);
        let tl = FailureTimeline::random_crashes(n, p_crash, 300.0, Some(150.0), seed)
            .without_node(0)
            .without_node(n / 2)
            .loss_burst(50.0, 200.0, 0.2)
            .with_seed(seed ^ 0xABCD);
        let steps = procedure(n, legs);
        let cfg = SimConfig {
            retry_on_partition: true,
            total_deadline_ms: 5_000.0,
            backoff_factor: 1.5,
            rto_cap_ms: 1_000.0,
            ..SimConfig::default()
        };
        let run = || {
            let sim = ProcedureSim::with_timeline(&g, &tl, cfg.clone());
            (0..4)
                .map(|i| sim.run(&steps, &mut LossProcess::new(p_loss, seed ^ i)))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Initially-dead nodes replay exactly as crashes scheduled at t = 0
    /// (`FailureTimeline::crash`'s documented equivalence).
    #[test]
    fn initially_dead_matches_crash_at_time_zero(
        seed in any::<u64>(),
        p_dead in 0.0f64..0.4,
        p_loss in 0.0f64..0.4,
        legs in 1usize..6,
    ) {
        let n = 12;
        let g = ring_with_chords(n);
        let dead = FailureTimeline::random_dead(n, p_dead, seed)
            .without_node(0)
            .without_node(n / 2);
        let crashed = dead
            .initial_dead()
            .iter()
            .fold(FailureTimeline::none(), |tl, &node| tl.crash(0.0, node));
        let steps = procedure(n, legs);
        let run = |tl: &FailureTimeline| {
            ProcedureSim::with_timeline(&g, tl, SimConfig::default())
                .run(&steps, &mut LossProcess::new(p_loss, seed ^ 1))
        };
        prop_assert_eq!(run(&dead), run(&crashed));
    }

    /// A crash-then-recover of the only transit node defeats the legacy
    /// abort-on-partition run but not a backoff-enabled retry run.
    #[test]
    fn retry_rides_out_crash_where_abort_fails(
        down_ms in 50.0f64..2_000.0,
        weight in 1.0f64..50.0,
    ) {
        // Line 0—1—2: node 1 is the only transit; dead from t = 0,
        // back at `down_ms`.
        let mut g = Graph::new(3);
        g.add_bidirectional(0, 1, weight);
        g.add_bidirectional(1, 2, weight);
        let tl = FailureTimeline::none().crash(0.0, 1).recover(down_ms, 1);
        let steps = steps_from_pairs(&[("req", 0, 2), ("rsp", 2, 0)]);
        let mut loss = LossProcess::new(0.0, 1);

        let abort = ProcedureSim::with_timeline(&g, &tl, SimConfig::default())
            .run(&steps, &mut loss.clone());
        prop_assert!(!abort.completed, "legacy semantics must abort");

        let retry_cfg = SimConfig {
            retry_on_partition: true,
            backoff_factor: 2.0,
            rto_cap_ms: 800.0,
            total_deadline_ms: 20_000.0,
            ..SimConfig::default()
        };
        let retry = ProcedureSim::with_timeline(&g, &tl, retry_cfg)
            .run(&steps, &mut loss);
        prop_assert!(retry.completed, "retry must ride out the outage");
        prop_assert!(retry.latency_ms >= down_ms);
    }
}

/// `random_crashes` as it was first built: one `crash` (and `recover`)
/// push per drawn node, each inserted after every event at or before
/// its time.
fn random_crashes_by_push(
    num_nodes: usize,
    p_crash: f64,
    horizon_ms: f64,
    recover_after_ms: Option<f64>,
    seed: u64,
) -> FailureTimeline {
    let mut rng = Xorshift64::new(seed);
    let mut tl = FailureTimeline::none().with_seed(seed);
    for node in 0..num_nodes {
        if rng.chance(p_crash) {
            let t = rng.next_f64() * horizon_ms;
            tl = tl.crash(t, node);
            if let Some(d) = recover_after_ms {
                tl = tl.recover(t + d, node);
            }
        }
    }
    tl
}

proptest! {
    /// The one-sort build equals the push-by-push build: at crash rates
    /// 0 and 1 and between, on horizons short enough that most times
    /// quantize to the same µs (ties keep push order), with recoveries
    /// at, after or without the crash — and stays equal when more
    /// events are chained on.
    #[test]
    fn random_crashes_equals_the_push_by_push_build(
        num_nodes in 0usize..300,
        rate in 0usize..4,
        horizon_ms in 0.0f64..5_000.0,
        short in any::<bool>(),
        recover in 0usize..3,
        seed in any::<u64>(),
    ) {
        let p = [0.0, 1.0, 0.15, 0.5][rate];
        let horizon_ms = if short { horizon_ms * 1e-6 } else { horizon_ms };
        let after = [None, Some(0.0), Some(horizon_ms / 3.0)][recover];
        let sorted = FailureTimeline::random_crashes(num_nodes, p, horizon_ms, after, seed);
        let pushed = random_crashes_by_push(num_nodes, p, horizon_ms, after, seed);
        prop_assert_eq!(&sorted, &pushed);
        let chain = |tl: FailureTimeline| {
            tl.without_node(num_nodes / 2)
                .crash(horizon_ms / 2.0, 1)
                .loss_burst(0.0, horizon_ms, 0.3)
        };
        prop_assert_eq!(chain(sorted), chain(pushed));
    }
}
