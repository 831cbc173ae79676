//! Property-based tests for the network substrate.

use proptest::prelude::*;
use sc_netsim::des::EventQueue;
use sc_netsim::chaos::FailureTimeline;
use sc_netsim::failure::{GilbertElliott, LossProcess};
use sc_netsim::flow::TcpFlow;
use sc_netsim::queueing::MM1Model;
use sc_netsim::topo::Graph;

proptest! {
    #[test]
    fn event_queue_pops_in_time_order(times in proptest::collection::vec(0.0f64..1e6, 1..100)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(*t, i);
        }
        let mut prev = f64::NEG_INFINITY;
        while let Some(e) = q.pop() {
            prop_assert!(e.time >= prev);
            prev = e.time;
        }
    }

    #[test]
    fn event_queue_fifo_within_ties(n in 1usize..200) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(1.0, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn dijkstra_cost_never_below_direct_edge(
        edges in proptest::collection::vec((0usize..12, 0usize..12, 0.1f64..100.0), 1..60),
    ) {
        let mut g = Graph::new(12);
        let mut direct: std::collections::HashMap<(usize, usize), f64> =
            std::collections::HashMap::new();
        for (a, b, w) in &edges {
            if a != b {
                g.add_edge(*a, *b, *w);
                let e = direct.entry((*a, *b)).or_insert(f64::INFINITY);
                *e = e.min(*w);
            }
        }
        // sc-audit: allow(unordered, reason = "property holds per edge independently; iteration order cannot affect the prop_assert outcomes")
        for ((a, b), w) in &direct {
            if let Some(p) = g.shortest_path(*a, *b, |_| false) {
                prop_assert!(p.cost <= *w + 1e-9, "{a}->{b}: {} > {w}", p.cost);
                // Path endpoints correct.
                prop_assert_eq!(p.path[0], *a);
                prop_assert_eq!(*p.path.last().unwrap(), *b);
            }
        }
    }

    #[test]
    fn dijkstra_triangle_inequality(
        edges in proptest::collection::vec((0usize..10, 0usize..10, 0.1f64..50.0), 5..40),
        via in 0usize..10,
    ) {
        let mut g = Graph::new(10);
        for (a, b, w) in &edges {
            if a != b {
                g.add_bidirectional(*a, *b, *w);
            }
        }
        if let (Some(ab), Some(av), Some(vb)) = (
            g.shortest_path(0, 9, |_| false),
            g.shortest_path(0, via, |_| false),
            g.shortest_path(via, 9, |_| false),
        ) {
            prop_assert!(ab.cost <= av.cost + vb.cost + 1e-9);
        }
    }

    #[test]
    fn blocked_nodes_never_appear_on_paths(
        edges in proptest::collection::vec((0usize..10, 0usize..10, 0.1f64..50.0), 5..40),
        blocked in 1usize..9,
    ) {
        let mut g = Graph::new(10);
        for (a, b, w) in &edges {
            if a != b {
                g.add_bidirectional(*a, *b, *w);
            }
        }
        if let Some(p) = g.shortest_path(0, 9, |n| n == blocked) {
            prop_assert!(!p.path.contains(&blocked));
        }
    }

    #[test]
    fn loss_process_rate_in_range(p in 0.0f64..1.0, seed in any::<u64>()) {
        let mut lp = LossProcess::new(p, seed);
        let n = 5000;
        let losses = (0..n).filter(|_| lp.lost()).count() as f64 / n as f64;
        prop_assert!((losses - p).abs() < 0.05, "{losses} vs {p}");
    }

    #[test]
    fn gilbert_elliott_stationary(p_gb in 0.001f64..0.2, p_bg in 0.01f64..0.5, seed in 1u64..1000) {
        let mut ge = GilbertElliott::new(p_gb, p_bg, 0.0, 1.0, seed);
        let n = 30_000;
        let rate = (0..n).filter(|_| ge.lost()).count() as f64 / n as f64;
        let expect = ge.stationary_loss();
        prop_assert!((rate - expect).abs() < 0.05, "{rate} vs {expect}");
    }

    #[test]
    fn random_dead_fraction(p in 0.0f64..0.5, seed in any::<u64>()) {
        let tl = FailureTimeline::random_dead(5000, p, seed);
        let frac = tl.initial_dead().len() as f64 / 5000.0;
        prop_assert!((frac - p).abs() < 0.05);
    }

    #[test]
    fn mm1_latency_monotone(service_ms in 0.1f64..20.0, l1 in 0.0f64..500.0, dl in 0.0f64..500.0) {
        let m = MM1Model::from_service_time(service_ms / 1000.0, 10.0);
        prop_assert!(m.sojourn_s(l1 + dl) >= m.sojourn_s(l1) - 1e-12);
    }

    #[test]
    fn tcp_flow_never_negative_throughput(rtt in 0.01f64..0.5, outage_at in 1.0f64..5.0) {
        let mut f = TcpFlow::new(rtt);
        let mut t = 0.0;
        while t < 20.0 {
            let up = !(outage_at..outage_at + 1.0).contains(&t);
            let thr = f.step(t, up);
            prop_assert!(thr >= 0.0);
            prop_assert!(thr.is_finite());
            t += rtt;
        }
    }
}
