//! Property-based tests for the network substrate.

use proptest::prelude::*;
use sc_netsim::des::EventQueue;
use sc_netsim::chaos::FailureTimeline;
use sc_netsim::failure::{GilbertElliott, LossProcess, Xorshift64};
use sc_netsim::flow::TcpFlow;
use sc_netsim::queueing::MM1Model;
use sc_netsim::topo::{Graph, NodeId, PathScratch};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

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

/// The Dijkstra kernel `Graph::route_in` replaced, kept as the oracle of
/// its plain and its goal-directed searches alike: a
/// `BinaryHeap` of `(dist, node)` items under `total_cmp`-then-node order
/// and 24-byte generation-stamped labels with a `usize` predecessor.
/// Like the kernel it reuses its labels from search to search.
mod reference {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct QItem {
        dist: f64,
        node: NodeId,
    }
    impl Eq for QItem {}
    impl Ord for QItem {
        fn cmp(&self, o: &Self) -> Ordering {
            o.dist
                .total_cmp(&self.dist)
                .then_with(|| o.node.cmp(&self.node))
        }
    }
    impl PartialOrd for QItem {
        fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
            Some(self.cmp(o))
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct Label {
        stamp: u32,
        dist: f64,
        prev: NodeId,
    }

    const _: () = assert!(size_of::<Label>() == 24);

    const UNREACHED: Label = Label {
        stamp: 0,
        dist: f64::INFINITY,
        prev: usize::MAX,
    };

    #[derive(Default)]
    pub struct Kernel {
        generation: u32,
        labels: Vec<Label>,
        heap: BinaryHeap<QItem>,
    }

    impl Kernel {
        fn dist(&self, node: NodeId) -> f64 {
            let l = &self.labels[node];
            if l.stamp == self.generation {
                l.dist
            } else {
                f64::INFINITY
            }
        }

        fn relabel(&mut self, node: NodeId, dist: f64, prev: NodeId) {
            self.labels[node] = Label {
                stamp: self.generation,
                dist,
                prev,
            };
        }

        /// `(cost, hops)` and the path, source first, as the replaced
        /// `route_in` found them.
        pub fn route(
            &mut self,
            g: &Graph,
            src: NodeId,
            dst: NodeId,
            blocked: impl Fn(NodeId) -> bool,
            blocked_edge: impl Fn(NodeId, NodeId) -> bool,
        ) -> Option<((f64, usize), Vec<NodeId>)> {
            if blocked(src) || blocked(dst) {
                return None;
            }
            self.generation += 1;
            if self.labels.len() < g.len() {
                self.labels.resize(g.len(), UNREACHED);
            }
            self.heap.clear();
            self.relabel(src, 0.0, src);
            self.heap.push(QItem { dist: 0.0, node: src });
            while let Some(QItem { dist: d, node }) = self.heap.pop() {
                if node == dst {
                    break;
                }
                if d > self.dist(node) {
                    continue;
                }
                for (to, weight) in g.neighbors(node) {
                    if blocked(to) || blocked_edge(node, to) {
                        continue;
                    }
                    let nd = d + weight;
                    if nd < self.dist(to) {
                        self.relabel(to, nd, node);
                        self.heap.push(QItem { dist: nd, node: to });
                    }
                }
            }
            let cost = self.dist(dst);
            if cost.is_infinite() {
                return None;
            }
            let mut path = vec![dst];
            while path[path.len() - 1] != src {
                path.push(self.labels[path[path.len() - 1]].prev);
            }
            path.reverse();
            Some(((cost, path.len() - 1), path))
        }
    }
}

/// `w × h` torus followed by `isolated` nodes with no edges; edge `k`
/// (in build order) weighs `weight(k)`.
fn torus_with_islands(w: usize, h: usize, isolated: usize, weight: impl Fn(usize) -> f64) -> Graph {
    let mut g = Graph::new(w * h + isolated);
    let mut k = 0;
    for y in 0..h {
        for x in 0..w {
            for to in [y * w + (x + 1) % w, ((y + 1) % h) * w + x] {
                g.add_bidirectional(y * w + x, to, weight(k));
                k += 1;
            }
        }
    }
    g
}

/// `searches` queries on `g` through one reused `PathScratch` and one
/// reused reference kernel: random blocked nodes and undirected links
/// (drawn afresh per query, denser as `p_block` grows), one query in
/// eight from a node to itself, and pairs that touch the isolated
/// nodes, which no search reaches. Path, cost bits and hops must agree.
///
/// With `directed`, each query's search is directed by the potential of
/// its destination, searched on the failure-free graph in the same
/// scratch just before; the potential itself must read 0 at the
/// destination and, at the source, the failure-free cost (`+∞` exactly
/// when the reference finds no failure-free route).
fn kernel_matches_reference(g: &Graph, p_block: f64, searches: usize, directed: bool, seed: u64) {
    let mut rng = Xorshift64::new(seed);
    let n = g.len();
    let mut scratch = PathScratch::new();
    let mut oracle = reference::Kernel::default();
    for _ in 0..searches {
        let dead: Vec<bool> = (0..n).map(|_| rng.chance(p_block / 2.0)).collect();
        let cut: HashSet<(NodeId, NodeId)> = (0..n)
            .flat_map(|a| g.neighbors(a).map(move |(b, _)| (a.min(b), a.max(b))))
            .filter(|_| rng.chance(p_block))
            .collect();
        let blocked = |v: NodeId| dead[v];
        let blocked_edge = |a: NodeId, b: NodeId| cut.contains(&(a.min(b), a.max(b)));
        let src = rng.below(n);
        let dst = if rng.chance(0.125) { src } else { rng.below(n) };

        let potential = directed.then(|| g.potential_to(dst, &mut scratch));
        if let Some(p) = &potential {
            assert_eq!((p.dst(), p.at(dst).to_bits()), (dst, 0.0f64.to_bits()));
            let free = oracle.route(g, src, dst, |_| false, |_, _| false);
            match free {
                None => assert_eq!(p.at(src), f64::INFINITY, "{src} -> {dst}"),
                Some(((cost, _), _)) => assert!(
                    (p.at(src) - cost).abs() <= 1e-12 * cost,
                    "{src} -> {dst}: potential {} against failure-free cost {cost}",
                    p.at(src)
                ),
            }
        }
        let want = oracle.route(g, src, dst, blocked, blocked_edge);
        let got = g.route_in(
            src,
            dst,
            blocked,
            blocked_edge,
            potential.as_ref(),
            &mut scratch,
        );
        let mut path: Vec<NodeId> = scratch.path_rev().collect();
        path.reverse();
        assert_eq!(
            got.map(|(cost, hops)| (cost.to_bits(), hops)),
            want.as_ref().map(|((cost, hops), _)| (cost.to_bits(), *hops)),
            "{src} -> {dst}"
        );
        assert_eq!(path, want.map(|(_, p)| p).unwrap_or_default(), "{src} -> {dst}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn route_in_matches_reference_kernel_on_unit_tori(
        w in 2usize..9,
        h in 2usize..9,
        isolated in 0usize..3,
        p_block in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let g = torus_with_islands(w, h, isolated, |_| 1.0);
        kernel_matches_reference(&g, p_block, 40, false, seed);
    }

    #[test]
    fn route_in_matches_reference_kernel_with_signed_zero_weights(
        w in 2usize..9,
        h in 2usize..9,
        isolated in 0usize..3,
        p_block in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        // Three classes — zero of either sign, 1 and 2 — so routes of
        // different hop counts tie, and −0.0 meets +0.0 labels.
        let mut rng = Xorshift64::new(seed ^ 0x5EED);
        let classes: Vec<f64> = (0..2 * w * h)
            .map(|_| [0.0, -0.0, 1.0, 2.0][rng.below(4)])
            .collect();
        let g = torus_with_islands(w, h, isolated, |k| classes[k]);
        kernel_matches_reference(&g, p_block, 40, false, seed);
    }

    #[test]
    fn directed_route_in_matches_reference_kernel_on_unit_tori(
        w in 2usize..9,
        h in 2usize..9,
        isolated in 0usize..3,
        p_block in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let g = torus_with_islands(w, h, isolated, |_| 1.0);
        kernel_matches_reference(&g, p_block, 40, true, seed);
    }

    #[test]
    fn directed_route_in_matches_reference_kernel_with_signed_zero_weights(
        w in 2usize..9,
        h in 2usize..9,
        isolated in 0usize..3,
        p_block in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let mut rng = Xorshift64::new(seed ^ 0x5EED);
        let classes: Vec<f64> = (0..2 * w * h)
            .map(|_| [0.0, -0.0, 1.0, 2.0][rng.below(4)])
            .collect();
        let g = torus_with_islands(w, h, isolated, |k| classes[k]);
        kernel_matches_reference(&g, p_block, 40, true, seed);
    }

    #[test]
    fn directed_route_in_matches_reference_kernel_on_one_way_inexact_graphs(
        w in 2usize..9,
        h in 2usize..9,
        ends in 0usize..4,
        chords in 0usize..24,
        p_block in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let g = one_way_graph(w, h, ends, chords, seed);
        kernel_matches_reference(&g, p_block, 40, true, seed);
    }
}

/// A `w × h` torus whose links run one way only (+x and +y), `chords`
/// random one-way chords across it, then `ends` nodes that only send
/// into the torus (no node reaches them: `h = ∞` towards them from
/// everywhere else) and `ends` that only receive from it (they reach
/// nothing), and one node with no edge at all. Every weight is one of
/// 0.1, 0.3 and 3.3, which f64 does not hold exactly, so routes of
/// equal real cost and different hop counts split by rounding — and a
/// potential searched over out-edges instead of in-edges would be a
/// wrong bound.
fn one_way_graph(w: usize, h: usize, ends: usize, chords: usize, seed: u64) -> Graph {
    let mut rng = Xorshift64::new(seed ^ 0x0E_3A7);
    let mut weight = || [0.1, 0.3, 3.3][rng.below(3)];
    let torus = w * h;
    let mut links = Vec::new();
    for y in 0..h {
        for x in 0..w {
            links.push((y * w + x, y * w + (x + 1) % w));
            links.push((y * w + x, ((y + 1) % h) * w + x));
        }
    }
    let mut picks = Xorshift64::new(seed ^ 0xC40_8D5);
    links.extend((0..chords).map(|_| (picks.below(torus), picks.below(torus))));
    for i in 0..ends {
        links.push((torus + i, picks.below(torus)));
        links.push((picks.below(torus), torus + ends + i));
    }
    let mut g = Graph::new(torus + 2 * ends + 1);
    for (a, b) in links {
        g.add_edge(a, b, weight());
    }
    g
}

#[test]
#[should_panic(expected = "exceed 32-bit node ids")]
fn graph_refuses_more_nodes_than_32_bit_labels_name() {
    let _ = Graph::new(u32::MAX as usize + 1);
}
