//! `ProcedureSim`'s route memo pinned to the search it skips.
//!
//! `sc_netsim::sim::RouteMemo` reuses a resolved route until an applied
//! chaos event can change Dijkstra's answer (the rule and its argument
//! are in `sim.rs`'s module doc). Here a `ChaosCursor` walks generated
//! timelines — random crashes with and without recovery, link flaps, a
//! protected endpoint — and at every stop the memoised `(cost bits,
//! hops)`, or `None` for a partition, must be what the public
//! `Graph::shortest_path_avoiding` returns for the same cursor: on tori
//! with unit weights (every route tied many ways), on tori with three
//! weight classes, zero included (ties between routes of different hop
//! counts), and on the Starlink ISL graph `ext_chaos` replays over.
//! The memo's healthy routes (each pair's failure-free shortest path)
//! outlive `clear()`, so one memo walks one to four timelines back to
//! back, as `ext_chaos`'s per-worker scratch does for the solutions'
//! replays of each run's schedule, and a pair the
//! failure-free graph already disconnects must read `None` throughout.
//! `ext_chaos`'s own seeds are compile-time constants, so these
//! timelines are the unseen-seed half of its byte-identity claim.
//!
//! A `SimScratch` (the memo with the simulator's buffers) outlives more
//! than one schedule: `ext_chaos` lends each worker's one scratch to
//! every group the worker claims, and `ext_resilience` one scratch to
//! its whole sweep. So the last properties replay whole procedures:
//! one scratch carried across generated timelines — crash rates,
//! recover times, loss bursts, endpoints and step lists all varying —
//! must give every `SimOutcome` a fresh scratch gives.

use proptest::prelude::*;
use sc_netsim::chaos::FailureTimeline;
use sc_netsim::failure::{LossProcess, Xorshift64};
use sc_netsim::isl::{IslConfig, IslNetwork};
use sc_netsim::sim::{ProcedureSim, RouteMemo, SimConfig, SimScratch, SimStep};
use sc_netsim::topo::{Graph, NodeId};
use sc_obs::Recorder;
use sc_orbit::{ConstellationConfig, GroundStationSet, IdealPropagator, SatId};
use std::sync::OnceLock;

const HORIZON_MS: f64 = 300.0;
const P_CRASH: [f64; 4] = [0.0, 0.1, 0.3, 0.5];
const RECOVER_MS: [Option<f64>; 4] = [None, Some(5.0), Some(30.0), Some(200.0)];

/// `w × h` torus; edge `k` (in build order) weighs `weights[k % len]`.
fn torus(w: usize, h: usize, weights: &[f64]) -> Graph {
    let mut g = Graph::new(w * h);
    let mut k = 0;
    for y in 0..h {
        for x in 0..w {
            for to in [y * w + (x + 1) % w, ((y + 1) % h) * w + x] {
                g.add_bidirectional(y * w + x, to, weights[k % weights.len()]);
                k += 1;
            }
        }
    }
    g
}

/// A seeded timeline over the first `crashable` nodes of `graph`:
/// random crashes, `flaps` link flaps on existing edges, and `keep`
/// stripped back out (so one endpoint is always alive while the others
/// come and go, which is what partitions and heals them).
fn timeline(
    graph: &Graph,
    crashable: usize,
    flaps: usize,
    keep: NodeId,
    rng: &mut Xorshift64,
) -> FailureTimeline {
    let p = P_CRASH[rng.below(P_CRASH.len())];
    let recover = RECOVER_MS[rng.below(RECOVER_MS.len())];
    let mut tl = FailureTimeline::random_crashes(crashable, p, HORIZON_MS, recover, rng.next_u64());
    for _ in 0..flaps {
        let a = rng.below(graph.len());
        let degree = graph.neighbors(a).count();
        if degree == 0 {
            continue;
        }
        let (b, _) = graph
            .neighbors(a)
            .nth(rng.below(degree))
            .expect("index < degree");
        let down = rng.next_f64() * HORIZON_MS;
        tl = tl.link_flap(down, down + rng.next_f64() * 100.0, a, b);
    }
    tl.without_node(keep)
}

/// Walk one cursor and `memo`, cleared, through `tl` in `stops` random
/// steps; at each stop query a random subset of `pairs` (an entry may
/// sit through several batches of events before it is asked for again).
fn memo_matches_fresh_search(
    graph: &Graph,
    memo: &mut RouteMemo<'_>,
    tl: &FailureTimeline,
    pairs: &[(NodeId, NodeId)],
    stops: usize,
    rng: &mut Xorshift64,
) {
    let obs = Recorder::disabled();
    let mut cursor = tl.cursor();
    memo.clear();
    let mut now = 0.0;
    for _ in 0..stops {
        memo.observe(cursor.advance_to(now, &obs));
        for &(from, to) in pairs {
            if rng.chance(0.3) {
                continue;
            }
            let fresh = graph
                .shortest_path_avoiding(
                    from,
                    to,
                    |n| cursor.is_dead(n),
                    |a, b| cursor.link_down(a, b),
                )
                .map(|p| (p.cost.to_bits(), p.hops()));
            let memoised = memo
                .resolve(&cursor, from, to)
                .map(|(cost, hops)| (cost.to_bits(), hops));
            assert_eq!(memoised, fresh, "{from} -> {to} at t = {now} ms");
        }
        now += rng.next_f64() * 2.0 * (HORIZON_MS + 250.0) / stops as f64;
    }
}

/// `replays` generated timelines on one `w × h` torus, walked back to
/// back by one memo.
fn torus_case(weights: &[f64], w: usize, h: usize, replays: usize, seed: u64) {
    let mut rng = Xorshift64::new(seed);
    let g = torus(w, h, weights);
    let n = g.len();
    let (a, b, c) = (rng.below(n), rng.below(n), rng.below(n));
    let mut memo = RouteMemo::new(&g);
    for _ in 0..replays {
        let tl = timeline(&g, n, 3, a, &mut rng);
        let pairs = [(a, b), (b, a), (a, c), (c, b)];
        memo_matches_fresh_search(&g, &mut memo, &tl, &pairs, 60, &mut rng);
    }
}

/// Two disjoint `w × h` unit tori, nodes `0..wh` and `wh..2wh`.
fn two_tori(w: usize, h: usize) -> Graph {
    let one = torus(w, h, &[1.0]);
    let n = one.len();
    let mut g = Graph::new(2 * n);
    for a in 0..n {
        for (b, weight) in one.neighbors(a) {
            g.add_edge(a, b, weight);
            g.add_edge(a + n, b + n, weight);
        }
    }
    g
}

fn starlink() -> &'static IslNetwork {
    static NET: OnceLock<IslNetwork> = OnceLock::new();
    NET.get_or_init(|| {
        let prop = IdealPropagator::new(ConstellationConfig::starlink());
        let stations = GroundStationSet::starlink_like();
        IslNetwork::build(&prop, &stations, 0.0, IslConfig::default())
    })
}

proptest! {
    #[test]
    fn memo_matches_fresh_search_on_unit_tori(
        w in 3usize..9,
        h in 3usize..9,
        replays in 1usize..5,
        seed in any::<u64>(),
    ) {
        torus_case(&[1.0], w, h, replays, seed);
    }

    #[test]
    fn memo_matches_fresh_search_on_weighted_tori(
        w in 3usize..9,
        h in 3usize..9,
        replays in 1usize..5,
        seed in any::<u64>(),
    ) {
        torus_case(&[0.0, 1.0, 2.0], w, h, replays, seed);
    }

    /// A pair in different components has no failure-free route, so it
    /// is a partition at every stop of every replay; the pairs inside
    /// one component still match the fresh search.
    #[test]
    fn disconnected_pair_reads_none_at_every_stop(w in 3usize..6, h in 3usize..6, seed in any::<u64>()) {
        let mut rng = Xorshift64::new(seed);
        let g = two_tori(w, h);
        let n = g.len() / 2;
        let (a, b, c) = (rng.below(n), rng.below(n), n + rng.below(n));
        prop_assert!(g.shortest_path(a, c, |_| false).is_none());
        prop_assert!(g.shortest_path(c, a, |_| false).is_none());
        let obs = Recorder::disabled();
        let mut memo = RouteMemo::new(&g);
        for _ in 0..3 {
            let tl = timeline(&g, g.len(), 3, a, &mut rng);
            memo_matches_fresh_search(&g, &mut memo, &tl, &[(a, b), (a, c), (c, a)], 30, &mut rng);
            let mut cursor = tl.cursor();
            memo.clear();
            for t in [0.0, HORIZON_MS / 2.0, HORIZON_MS + 250.0] {
                memo.observe(cursor.advance_to(t, &obs));
                prop_assert_eq!(memo.resolve(&cursor, a, c), None);
                prop_assert_eq!(memo.resolve(&cursor, c, a), None);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `ext_chaos`'s own shape: serving satellite ⇄ gateway over the
    /// Starlink graph, the serving satellite protected.
    #[test]
    fn memo_matches_fresh_search_on_starlink(replays in 1usize..4, seed in any::<u64>()) {
        let net = starlink();
        let mut rng = Xorshift64::new(seed);
        let serving = net.sat_node(SatId::new(10, 6));
        let gateway = net.ground_node(0);
        let mut memo = RouteMemo::new(net.graph());
        for _ in 0..replays {
            let tl = timeline(net.graph(), net.num_sats(), 8, serving, &mut rng);
            memo_matches_fresh_search(
                net.graph(),
                &mut memo,
                &tl,
                &[(serving, gateway), (gateway, serving)],
                40,
                &mut rng,
            );
        }
    }
}

/// `replays` procedures over `graph`, each on its own generated
/// timeline, endpoints and step list, replayed once with one scratch
/// carried across them all and once with a fresh scratch: the outcomes
/// must be equal. The endpoints of each replay come from one pool of
/// four nodes, so later replays ask for pairs that earlier ones left
/// in the carried memo.
fn carried_scratch_matches_fresh(
    graph: &Graph,
    crashable: usize,
    replays: usize,
    rng: &mut Xorshift64,
) {
    const LABELS: [&str; 4] = ["a", "b", "c", "d"];
    let pool: Vec<NodeId> = (0..4).map(|_| rng.below(graph.len())).collect();
    let mut carried = SimScratch::new(graph);
    for _ in 0..replays {
        let ends: Vec<NodeId> = (0..3).map(|_| pool[rng.below(pool.len())]).collect();
        let steps: Vec<SimStep> = (0..1 + rng.below(8))
            .map(|i| SimStep {
                label: LABELS[i % LABELS.len()],
                from: ends[rng.below(ends.len())],
                to: ends[rng.below(ends.len())],
            })
            .collect();
        let burst = rng.next_f64() * HORIZON_MS;
        let tl = timeline(graph, crashable, 2, ends[0], rng)
            .loss_burst(0.0, burst, 0.3)
            .with_seed(rng.next_u64());
        let cfg = SimConfig {
            max_attempts: 6,
            backoff_factor: 2.0,
            rto_cap_ms: 400.0,
            retry_on_partition: rng.chance(0.5),
            total_deadline_ms: 2_000.0,
            loss_per_hop: rng.chance(0.5),
            ..SimConfig::default()
        };
        let sim = ProcedureSim::with_timeline(graph, &tl, cfg);
        let seed = rng.next_u64();
        let carried_outcome = sim.run_in(&steps, &mut LossProcess::new(0.02, seed), &mut carried);
        let fresh = sim.run(&steps, &mut LossProcess::new(0.02, seed));
        assert_eq!(carried_outcome, fresh, "{steps:?}");
    }
}

proptest! {
    #[test]
    fn scratch_carried_across_timelines_matches_fresh_on_weighted_tori(
        w in 3usize..8,
        h in 3usize..8,
        replays in 2usize..10,
        seed in any::<u64>(),
    ) {
        let g = torus(w, h, &[0.0, 1.0, 2.0]);
        carried_scratch_matches_fresh(&g, g.len(), replays, &mut Xorshift64::new(seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On the graph `ext_chaos` replays over, the satellites crashable.
    #[test]
    fn scratch_carried_across_timelines_matches_fresh_on_starlink(
        replays in 2usize..8,
        seed in any::<u64>(),
    ) {
        let net = starlink();
        carried_scratch_matches_fresh(net.graph(), net.num_sats(), replays, &mut Xorshift64::new(seed));
    }
}
