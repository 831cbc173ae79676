//! Weighted graph and Dijkstra shortest paths.
//!
//! The shortest-path routing here is the *baseline* satellite routing the
//! paper's alternatives use (state-dependent, recomputed as the topology
//! changes); SpaceCore's stateless Algorithm 1 (in the `spacecore` crate)
//! is evaluated against it for path stretch.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Index of a node in a [`Graph`].
pub type NodeId = usize;

/// One directed edge.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Edge {
    to: NodeId,
    /// Edge weight — the emulation uses one-way delay in milliseconds.
    weight: f64,
}

/// A directed weighted graph (adjacency lists).
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<Edge>>,
}

/// Result of a shortest-path query.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// Node sequence from source to destination (inclusive).
    pub path: Vec<NodeId>,
    /// Total weight (delay, ms).
    pub cost: f64,
}

impl PathResult {
    /// Number of hops (edges) on the path.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Heap key of the Dijkstra loop: `key`'s bits over `node`, popped
/// smallest first. No key is ever negative or −0.0 — a key is a label,
/// or a label plus a [`Potential`] entry; the source's label and every
/// potential's destination entry are +0.0, [`Graph::add_edge`] admits
/// only finite weights ≥ 0, and +0.0 + (−0.0) = +0.0 — and on
/// non-negative doubles the bit order is `f64::total_cmp`'s, so keys
/// pop in `(key, node)` order.
fn heap_key(key: f64, node: NodeId) -> Reverse<u128> {
    Reverse((u128::from(key.to_bits()) << 64) | node as u128)
}

/// Inverse of [`heap_key`].
fn heap_entry(Reverse(key): Reverse<u128>) -> (f64, NodeId) {
    (f64::from_bits((key >> 64) as u64), key as u64 as NodeId)
}

/// Relative slack of the bounded pass: with an A* cost `C` it keeps
/// every relaxation whose `label + h` is at most `C · (1 + PRUNE_SLACK)`.
/// A label, a potential entry and `C` are each float sums of
/// non-negative weights along fewer than `n` hops, so each is within
/// `n·ε` of its exact value (ε = 2⁻⁵³), and the three together within
/// `4n·ε` ≤ 2⁻¹⁹ for any graph [`Graph::new`] builds. The slack is
/// eight times that.
const PRUNE_SLACK: f64 = 1.0 / 65_536.0;

/// How one pass of the Dijkstra loop uses `h`, a lower bound on each
/// node's distance to the destination: entries pop in
/// `(label + h, node)` order if `keyed` (A*), else in `(label, node)`
/// order, and a relaxation whose `label + h` exceeds `bound` is
/// skipped.
struct Pass<H> {
    h: H,
    keyed: bool,
    bound: f64,
}

/// The pass with no potential: `h ≡ 0`, nothing skipped.
fn plain() -> Pass<impl Fn(NodeId) -> f64> {
    Pass {
        h: |_| 0.0,
        keyed: false,
        bound: f64::INFINITY,
    }
}

/// Failure-free distance from every node to one destination, `+∞` for
/// a node with no path to it: the potential [`Graph::route_in`] directs
/// its search with. A view only removes nodes and edges, so these
/// bound the distances of every view from below. Built by
/// [`Graph::potential_to`].
#[derive(Debug, Clone, PartialEq)]
pub struct Potential {
    dst: NodeId,
    h: Vec<f64>,
}

impl Potential {
    /// The destination the distances lead to.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The failure-free distance from `node` to [`Self::dst`].
    pub fn at(&self, node: NodeId) -> f64 {
        self.h[node]
    }
}

/// The in-edges of every node of a [`Graph`] in flat arrays: node `v`'s
/// tails are `tails[starts[v]..starts[v + 1]]`, the edges' weights
/// `weights` at the same indices — 12 bytes an edge. The reverse graph
/// a [`Potential`] is searched on.
struct InEdges {
    starts: Vec<usize>,
    /// Fits: [`Graph::new`] refuses graphs whose ids a `u32` cannot name.
    tails: Vec<u32>,
    weights: Vec<f64>,
}

impl InEdges {
    fn of_graph(g: &Graph) -> Self {
        // Count each node's in-edges, sum them into each node's end,
        // then place every edge by stepping its head's end back.
        let mut starts = vec![0; g.adj.len() + 1];
        for e in g.adj.iter().flatten() {
            starts[e.to] += 1;
        }
        let mut end = 0;
        for s in &mut starts {
            end += *s;
            *s = end;
        }
        let (mut tails, mut weights) = (vec![0; end], vec![0.0; end]);
        for (from, out) in g.adj.iter().enumerate() {
            for e in out {
                starts[e.to] -= 1;
                (tails[starts[e.to]], weights[starts[e.to]]) = (from as u32, e.weight);
            }
        }
        Self {
            starts,
            tails,
            weights,
        }
    }

    fn of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let at = self.starts[v]..self.starts[v + 1];
        (self.tails[at.clone()].iter())
            .zip(&self.weights[at])
            .map(|(&tail, &weight)| (tail as NodeId, weight))
    }
}

/// One node's Dijkstra label. Live only while `stamp` equals the
/// scratch's current generation; anything older reads as unreached.
#[derive(Debug, Clone, Copy)]
struct Label {
    stamp: u32,
    /// Fits: [`Graph::new`] refuses graphs whose ids a `u32` cannot name.
    prev: u32,
    dist: f64,
}

/// Reusable working memory for [`Graph::route_in`]: generation-stamped
/// labels (starting a search is O(1), not an `n`-sized fill) and the
/// heap. After a successful search it also holds the found path.
#[derive(Debug, Clone, Default)]
pub struct PathScratch {
    generation: u32,
    labels: Vec<Label>,
    heap: BinaryHeap<Reverse<u128>>,
    /// Endpoints of the last search, if it reached its destination.
    found: Option<(NodeId, NodeId)>,
}

impl PathScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Nodes of the last found path, destination first. Empty after a
    /// search that found none.
    pub fn path_rev(&self) -> impl Iterator<Item = NodeId> + '_ {
        let src = self.found.map(|(src, _)| src);
        std::iter::successors(self.found.map(|(_, dst)| dst), move |&cur| {
            (Some(cur) != src).then(|| self.labels[cur].prev as NodeId)
        })
    }

    /// Start a search over `n` nodes: every label reads as unreached.
    fn begin(&mut self, n: usize) {
        const UNREACHED: Label = Label {
            stamp: 0,
            prev: u32::MAX,
            dist: f64::INFINITY,
        };
        if self.generation == u32::MAX {
            self.labels.fill(UNREACHED);
            self.generation = 0;
        }
        self.generation += 1;
        if self.labels.len() < n {
            self.labels.resize(n, UNREACHED);
        }
        self.heap.clear();
    }

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
            prev: prev as u32,
            dist,
        };
    }

    /// The one Dijkstra loop: from `src` over the out-edges `out(v)` of
    /// `n` nodes, entering `b` from `a` only if `open(a, b)`, until it
    /// pops `dst` — or, with none, until the heap runs dry. Labels and
    /// predecessors stay readable until the next search.
    ///
    /// A label is replaced only by a strictly smaller one, and an entry
    /// is stale once its node's current label no longer gives its key.
    fn settle<E: Iterator<Item = (NodeId, f64)>, H: Fn(NodeId) -> f64>(
        &mut self,
        out: impl Fn(NodeId) -> E,
        n: usize,
        src: NodeId,
        dst: Option<NodeId>,
        open: impl Fn(NodeId, NodeId) -> bool,
        pass: Pass<H>,
    ) {
        let lift = |v| if pass.keyed { (pass.h)(v) } else { 0.0 };
        self.begin(n);
        self.relabel(src, 0.0, src);
        self.heap.push(heap_key(lift(src), src));

        while let Some(entry) = self.heap.pop() {
            let (key, node) = heap_entry(entry);
            if Some(node) == dst {
                break;
            }
            let d = self.dist(node);
            if key > d + lift(node) {
                continue;
            }
            for (to, weight) in out(node) {
                if !open(node, to) {
                    continue;
                }
                let nd = d + weight;
                if nd < self.dist(to) && nd + (pass.h)(to) <= pass.bound {
                    self.relabel(to, nd, node);
                    self.heap.push(heap_key(nd + lift(to), to));
                }
            }
        }
    }
}

impl Graph {
    /// Create a graph with `n` nodes and no edges.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX`: the search labels name a
    /// node's predecessor in 32 bits.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "{n} nodes exceed 32-bit node ids");
        Self {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Add a directed edge.
    ///
    /// # Panics
    /// Panics on out-of-range nodes or non-finite/negative weights.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: f64) {
        assert!(from < self.adj.len() && to < self.adj.len(), "node out of range");
        assert!(weight.is_finite() && weight >= 0.0, "bad weight {weight}");
        self.adj[from].push(Edge { to, weight });
    }

    /// Add edges in both directions with the same weight.
    pub fn add_bidirectional(&mut self, a: NodeId, b: NodeId, weight: f64) {
        self.add_edge(a, b, weight);
        self.add_edge(b, a, weight);
    }

    /// Out-neighbours of a node with weights.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.adj[n].iter().map(|e| (e.to, e.weight))
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|v| v.len()).sum()
    }

    /// The failure-free distance from every node to `dst`: one search
    /// from `dst` over the graph reversed, run to exhaustion in
    /// `scratch` (which then holds no found path). The reversed graph
    /// lives for the call only.
    pub fn potential_to(&self, dst: NodeId, scratch: &mut PathScratch) -> Potential {
        let in_edges = InEdges::of_graph(self);
        scratch.found = None;
        let n = self.adj.len();
        scratch.settle(|v| in_edges.of(v), n, dst, None, |_, _| true, plain());
        Potential {
            dst,
            h: (0..n).map(|v| scratch.dist(v)).collect(),
        }
    }

    /// Dijkstra shortest path from `src` to `dst`, skipping nodes for
    /// which `blocked(node)` is true (used for failure injection: dead
    /// satellites simply vanish from the graph).
    ///
    /// Returns `None` when `dst` is unreachable.
    pub fn shortest_path(
        &self,
        src: NodeId,
        dst: NodeId,
        blocked: impl Fn(NodeId) -> bool,
    ) -> Option<PathResult> {
        self.shortest_path_avoiding(src, dst, blocked, |_, _| false)
    }

    /// [`Self::shortest_path`] with an additional undirected-edge filter:
    /// edges for which `blocked_edge(a, b)` is true are skipped — the
    /// routing view of a flapped inter-satellite laser link
    /// (`sc-netsim::chaos`), where both endpoints are alive but the link
    /// between them is not.
    pub fn shortest_path_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        blocked: impl Fn(NodeId) -> bool,
        blocked_edge: impl Fn(NodeId, NodeId) -> bool,
    ) -> Option<PathResult> {
        let mut scratch = PathScratch::new();
        let (cost, _) = self.route_in(src, dst, blocked, blocked_edge, None, &mut scratch)?;
        let mut path: Vec<NodeId> = scratch.path_rev().collect();
        path.reverse();
        Some(PathResult { path, cost })
    }

    /// The route search behind [`Self::shortest_path_avoiding`], against
    /// caller-owned working memory, returning only `(cost, hops)`. The
    /// found path's nodes stay readable through
    /// [`PathScratch::path_rev`] until the scratch's next search.
    ///
    /// The answer is part of the contract — the route the heap finds
    /// popping in `(dist, node)` order, a label replaced only by a
    /// strictly smaller one — because [`crate::sim::RouteMemo`]'s
    /// invalidation rule is exact only for that route. With no
    /// potential (`to_dst` = `None`, i.e. `h ≡ 0`) that is one pass of
    /// the loop. With `to_dst`, the failure-free distances to `dst`, it
    /// is two:
    ///
    /// 1. A* — entries pop by `label + h` — which stops at `dst` with
    ///    `C`, the cost of a real path of the view;
    /// 2. the `(dist, node)`-ordered pass, skipping every relaxation
    ///    whose `label + h` exceeds `C` by more than a relative rounding
    ///    allowance of 2⁻¹⁶.
    ///
    /// Both return the same route: the second pass is the plain search
    /// of the view minus the skipped edges, no edge of the plain route
    /// is skipped, and `crate::sim`'s lemma (its module doc, "Route
    /// resolution") says such a subgraph yields the same chain, cost
    /// bits and hops. The A* keys `label + h` are never negative or
    /// −0.0 either, so the heap's `u128` bit order is still
    /// `total_cmp`'s.
    ///
    /// # Panics
    /// Panics if `to_dst` leads to another node than `dst`, or belongs
    /// to a graph of another size.
    pub fn route_in(
        &self,
        src: NodeId,
        dst: NodeId,
        blocked: impl Fn(NodeId) -> bool,
        blocked_edge: impl Fn(NodeId, NodeId) -> bool,
        to_dst: Option<&Potential>,
        scratch: &mut PathScratch,
    ) -> Option<(f64, usize)> {
        scratch.found = None;
        if blocked(src) || blocked(dst) {
            return None;
        }
        let n = self.adj.len();
        let out = move |v: NodeId| self.neighbors(v);
        let open = |a, b| !blocked(b) && !blocked_edge(a, b);
        match to_dst {
            None => scratch.settle(out, n, src, Some(dst), open, plain()),
            Some(p) => {
                assert!(p.dst == dst && p.h.len() == n, "potential of another route");
                let h = |v: NodeId| p.h[v];
                let astar = Pass {
                    h,
                    keyed: true,
                    bound: f64::INFINITY,
                };
                scratch.settle(out, n, src, Some(dst), open, astar);
                let c = scratch.dist(dst);
                if c.is_finite() {
                    let bounded = Pass {
                        h,
                        keyed: false,
                        bound: c * (1.0 + PRUNE_SLACK),
                    };
                    scratch.settle(out, n, src, Some(dst), open, bounded);
                }
            }
        }

        let cost = scratch.dist(dst);
        if cost.is_infinite() {
            return None;
        }
        scratch.found = Some((src, dst));
        Some((cost, scratch.path_rev().count() - 1))
    }

    /// Hop count of the shortest path by *hops* (unit weights), or `None`
    /// if unreachable. Used for the paper's "multi-hop (up to 48)
    /// signaling delivery" analysis (§3.2).
    pub fn hop_distance(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        // BFS.
        if src == dst {
            return Some(0);
        }
        let mut dist = vec![usize::MAX; self.adj.len()];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(n) = queue.pop_front() {
            for e in &self.adj[n] {
                if dist[e.to] == usize::MAX {
                    dist[e.to] = dist[n] + 1;
                    if e.to == dst {
                        return Some(dist[e.to]);
                    }
                    queue.push_back(e.to);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small diamond: 0 → 1 → 3 (cost 2), 0 → 2 → 3 (cost 10).
    fn diamond() -> Graph {
        let mut g = Graph::new(4);
        g.add_bidirectional(0, 1, 1.0);
        g.add_bidirectional(1, 3, 1.0);
        g.add_bidirectional(0, 2, 5.0);
        g.add_bidirectional(2, 3, 5.0);
        g
    }

    #[test]
    fn picks_cheapest_path() {
        let g = diamond();
        let r = g.shortest_path(0, 3, |_| false).unwrap();
        assert_eq!(r.path, vec![0, 1, 3]);
        assert!((r.cost - 2.0).abs() < 1e-12);
        assert_eq!(r.hops(), 2);
    }

    #[test]
    fn routes_around_blocked_node() {
        let g = diamond();
        let r = g.shortest_path(0, 3, |n| n == 1).unwrap();
        assert_eq!(r.path, vec![0, 2, 3]);
        assert!((r.cost - 10.0).abs() < 1e-12);
    }

    #[test]
    fn routes_around_blocked_edge() {
        let g = diamond();
        // Cut the cheap 1—3 edge (undirected semantics: either order).
        let cut = |a: NodeId, b: NodeId| (a.min(b), a.max(b)) == (1, 3);
        let r = g.shortest_path_avoiding(0, 3, |_| false, cut).unwrap();
        assert_eq!(r.path, vec![0, 2, 3]);
        assert!((r.cost - 10.0).abs() < 1e-12);
        // Cut everything into 3: unreachable, nodes all alive.
        let r = g.shortest_path_avoiding(0, 3, |_| false, |a, b| a.max(b) == 3);
        assert!(r.is_none());
    }

    #[test]
    fn unreachable_when_all_cut() {
        let g = diamond();
        assert!(g.shortest_path(0, 3, |n| n == 1 || n == 2).is_none());
    }

    #[test]
    fn blocked_endpoint_is_unreachable() {
        let g = diamond();
        assert!(g.shortest_path(0, 3, |n| n == 3).is_none());
        assert!(g.shortest_path(0, 3, |n| n == 0).is_none());
    }

    #[test]
    fn trivial_self_path() {
        let g = diamond();
        let r = g.shortest_path(2, 2, |_| false).unwrap();
        assert_eq!(r.path, vec![2]);
        assert_eq!(r.hops(), 0);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn reused_scratch_matches_fresh_searches() {
        let g = diamond();
        let mut ring = Graph::new(10);
        for i in 0..10 {
            ring.add_bidirectional(i, (i + 1) % 10, 1.0);
        }
        let mut scratch = PathScratch::new();
        // Small graph, larger graph, a blocked search, small again: no
        // label of an earlier search leaks into a later one.
        let searches: [(&Graph, NodeId, NodeId, NodeId); 5] = [
            (&g, 0, 3, usize::MAX),
            (&ring, 0, 5, usize::MAX),
            (&g, 0, 3, 1),
            (&g, 0, 3, 3),
            (&g, 2, 2, usize::MAX),
        ];
        for (graph, src, dst, dead) in searches {
            let fresh = graph.shortest_path(src, dst, |n| n == dead);
            let got = graph.route_in(src, dst, |n| n == dead, |_, _| false, None, &mut scratch);
            assert_eq!(got, fresh.as_ref().map(|p| (p.cost, p.hops())));
            let mut path: Vec<NodeId> = scratch.path_rev().collect();
            path.reverse();
            assert_eq!(path, fresh.map(|p| p.path).unwrap_or_default());
        }
    }

    #[test]
    fn potential_follows_in_edges_and_directs_the_same_route() {
        // One-way: 0 → 1 → 2 and 0 → 2, 3 → 0; node 4 has no edge.
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(0, 2, 5.0);
        g.add_edge(3, 0, 0.5);
        let mut scratch = PathScratch::new();
        let h = |p: &Potential| (0..5).map(|v| p.at(v)).collect::<Vec<_>>();
        let inf = f64::INFINITY;
        let to_2 = g.potential_to(2, &mut scratch);
        assert_eq!(h(&to_2), [3.0, 2.0, 0.0, 3.5, inf]);
        let to_3 = g.potential_to(3, &mut scratch);
        assert_eq!(h(&to_3), [inf, inf, inf, 0.0, inf]);
        assert_eq!(scratch.path_rev().count(), 0);
        let mut route = |src, dead: NodeId, to_dst| {
            g.route_in(src, 2, |n| n == dead, |_, _| false, to_dst, &mut scratch)
        };
        assert_eq!(route(3, usize::MAX, None), Some((3.5, 3)));
        assert_eq!(route(3, usize::MAX, Some(&to_2)), Some((3.5, 3)));
        assert_eq!(route(3, 1, None), Some((5.5, 2)));
        assert_eq!(route(3, 1, Some(&to_2)), Some((5.5, 2)));
        assert_eq!(route(4, usize::MAX, Some(&to_2)), None);
        route(3, usize::MAX, Some(&to_2));
        assert_eq!(scratch.path_rev().collect::<Vec<_>>(), [2, 1, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "potential of another route")]
    fn potential_of_another_destination_is_refused() {
        let g = diamond();
        let mut scratch = PathScratch::new();
        let to_3 = g.potential_to(3, &mut scratch);
        g.route_in(0, 2, |_| false, |_, _| false, Some(&to_3), &mut scratch);
    }

    #[test]
    fn hop_distance_bfs() {
        let g = diamond();
        assert_eq!(g.hop_distance(0, 3), Some(2));
        assert_eq!(g.hop_distance(0, 0), Some(0));
        let mut g2 = Graph::new(2);
        assert_eq!(g2.hop_distance(0, 1), None);
        g2.add_edge(0, 1, 1.0);
        assert_eq!(g2.hop_distance(0, 1), Some(1));
        // Directed: reverse still unreachable.
        assert_eq!(g2.hop_distance(1, 0), None);
    }

    #[test]
    fn ring_distances() {
        // 10-node ring: max hop distance is 5.
        let mut g = Graph::new(10);
        for i in 0..10 {
            g.add_bidirectional(i, (i + 1) % 10, 1.0);
        }
        assert_eq!(g.hop_distance(0, 5), Some(5));
        assert_eq!(g.hop_distance(0, 9), Some(1));
        let r = g.shortest_path(0, 5, |_| false).unwrap();
        assert_eq!(r.hops(), 5);
    }

    #[test]
    fn label_packs_to_16_bytes() {
        assert_eq!(size_of::<Label>(), 16);
    }

    #[test]
    fn heap_key_round_trips_and_orders_as_dist_then_node() {
        let dists = [0.0, 1e-300, 0.5, 1.0, 1.0 + f64::EPSILON, 7.25, 1e300];
        let nodes = [0, 1, 2, u32::MAX as NodeId - 1];
        for (d1, n1) in dists.iter().flat_map(|&d| nodes.map(|n| (d, n))) {
            let (d, n) = heap_entry(heap_key(d1, n1));
            assert_eq!((d.to_bits(), n), (d1.to_bits(), n1));
            for (d2, n2) in dists.iter().flat_map(|&d| nodes.map(|n| (d, n))) {
                // Min-heap: the larger key is the smaller (dist, node).
                let want = d1.total_cmp(&d2).then(n1.cmp(&n2)).reverse();
                assert_eq!(heap_key(d1, n1).cmp(&heap_key(d2, n2)), want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad weight")]
    fn rejects_negative_weight() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, -1.0);
    }
}
