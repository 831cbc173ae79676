//! Message-level procedure simulation over the ISL network.
//!
//! The rate models in `sc-dataset`/`spacecore` answer *aggregate*
//! questions (msg/s, CPU%). This module answers the *per-run* question:
//! what actually happens, message by message, when a signaling procedure
//! executes across a real topology with propagation delays, per-node
//! processing, loss, and retransmissions — the level at which the
//! paper's what-if emulations replay their captures (§3 Methodology).
//!
//! [`ProcedureSim`] walks a Figure 9 step table through the
//! discrete-event queue: each step is released only when its predecessor
//! has been delivered (signaling procedures are serialized), each
//! message traverses the current shortest path between its endpoints,
//! and each hop can lose the message (triggering a timeout-based
//! retransmission, as NAS does). The result is a timeline plus the
//! end-to-end procedure latency — with failure injection, the machinery
//! behind the "any signaling loss/error can block the entire procedure"
//! claim of §3.3.
//!
//! # Route resolution
//!
//! Every transmission is routed against the failure view *current at
//! its send* — but the Dijkstra behind it runs only when neither a
//! remembered route nor the failure-free one can answer. A
//! [`RouteMemo`] keeps, per `(from, to)` pair, the last resolved
//! `(cost, hops)` and the nodes of its path, and is told every event
//! the cursor applies:
//!
//! * a `Recover` or `LinkUp` (a *heal*) drops every entry,
//! * a `Crash(n)` drops the entries whose path contains `n`; a
//!   `LinkDown(a, b)` those whose path contains both `a` and `b`,
//! * a remembered partition (`None`) falls only to a heal,
//! * burst windows do not touch routing.
//!
//! A miss first tries the pair's *healthy route*: [`Graph::route_in`]
//! with nothing blocked, searched once per pair and kept for the
//! memo's lifetime. If the current view leaves all of it standing —
//! none of its nodes dead, none of its links down — it is the answer,
//! and it is remembered like a searched route, so the rules above
//! drop it. Only otherwise does the view get its own search, directed
//! by the destination's *potential* — every node's failure-free
//! distance to it, searched once per destination over the reversed
//! graph and kept for the memo's lifetime too: [`Graph::route_in`]
//! runs A* on `label + h` for `C`, the cost of a real route of the
//! view, then the `(dist, node)`-ordered search again, skipping every
//! relaxation whose `label + h` exceeds `C` (by more than a rounding
//! allowance). A pair with no failure-free route has none in any view.
//!
//! This is exact, not approximate: a hit returns the very bits a fresh
//! [`Graph::route_in`] would. The argument, once. Weights are
//! non-negative and f64 addition is monotone, so the labels a search
//! pops never decrease, and a finished search has
//! `D[v] ≤ D[u] + w(u, v)` on every open edge. The heap pops the least
//! `(dist, node)` and a label is replaced only by a strictly smaller
//! one, so `prev[v]` is the *first popped* neighbour that offers `v`
//! its final label. Let `P = p0 … pk` be the predecessor chain returned
//! on the view `G`, let `G′` be `G` minus nodes and edges that are not
//! on `P`, and `D`, `D′` the labels of the two searches (the early exit
//! at the destination is no matter: all of `P` is popped before it).
//!
//! 1. `D ≤ D′` wherever `D′` is finite: a `G′` label is a sum along a
//!    chain that is open in `G` too.
//! 2. `pi` keeps its label — `p(i-1)`, popped with its old label,
//!    offers `D[pi]`, and (1) lets nothing undercut it — and whatever
//!    `G′` pops before `pi`, `G` pops before `pi`. Take such a `u`, in
//!    `G′` pop order. Popped before `p(i-1)`: that is this claim, one
//!    step down the chain. Popped after it, `pi` already sits in the
//!    heap, so `(D′[u], u)` is below `pi`'s key; `u`'s `G′` predecessor
//!    is, by this same claim, popped before `pi` in `G` as well and by
//!    (1) offers `u` no more than `D′[u]` there — `u` is in `G`'s heap
//!    under a key below `pi`'s before `pi` can be popped.
//! 3. `pi` keeps its predecessor: a rival that `G′` pops before
//!    `p(i-1)` and that offers `pi` its label is, by (2) and (1), popped
//!    before `p(i-1)` in `G` and offers no more there — `prev[pi]` would
//!    not have been `p(i-1)`.
//!
//! Hence the same chain, so the same `cost` (a sum taken along the
//! chain, in chain order) and the same `hops` — all this module reads
//! of a route: the delivery delay, the per-hop loss draws and the
//! span's `hops` field. A partition of `G` is one of `G′`. Putting a
//! node or an edge back can create a cheaper or an earlier-popped rival
//! anywhere, which is why a heal forgets everything (keeping entries
//! across a heal would take a separate, bounded-detour argument, not
//! attempted here).
//!
//! The directed search's pruning is the same argument once more. Each
//! node is relaxed at most once, so the pruned pass *is* the plain
//! search of `G` minus the edges it skipped, and it returns `P` unless
//! it skips an edge of `P`. Suppose it does; up to the first such skip,
//! at `p(i-1)`'s pop, it runs exactly as the plain search of `G` minus
//! the edges skipped so far, which returns `P` with the labels `D` —
//! so `p(i-1)` pops with `D[p(i-1)]` and offers `pi` exactly `D[pi]`.
//! And `h[pi]` is at most the cost of any route from `pi` to the
//! destination in `G` (a view only removes), the rest of `P` among
//! them, so `D[pi] + h[pi]` is at most `D` at the destination — the
//! least cost of a route of `G`, so at most `C` — up to the rounding
//! that the allowance covers: that offer is not skipped.
//!
//! The healthy route is the same argument with `G` the failure-free
//! graph and `G′` the current view. A view only removes — dead nodes,
//! and down links in both directions — and the intact check has just
//! seen that it removes nothing on `P₀`, the healthy chain: so `G′` is
//! `G` minus nodes and edges that are not on `P₀`, and its search
//! returns `P₀` with the same cost bits and the same hops. In a sparse
//! failure field `P₀` usually stands, so a run's first send of a pair
//! and the re-resolutions after a heal mostly cost no search.
//!
//! `tests/route_memo_props.rs` holds the memo to the public
//! [`Graph::shortest_path_avoiding`] on generated timelines.

use crate::chaos::{ChaosAction, ChaosCursor, ChaosEvent, FailureTimeline};
use crate::des::EventQueue;
use crate::failure::LossProcess;
use crate::topo::{Graph, NodeId, PathScratch, Potential};
use sc_obs::{FieldValue, Recorder, SpanId};

/// One abstract message of a procedure: from/to node plus a label.
///
/// Labels are `&'static str`: every step list ultimately comes from
/// static tables (the Figure 9 procedures, experiment literals), so
/// building and replaying steps allocates nothing per label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStep {
    pub label: &'static str,
    pub from: NodeId,
    pub to: NodeId,
}

/// Outcome of simulating one procedure run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Did every step complete within the retry budget?
    pub completed: bool,
    /// End-to-end latency (ms) until the last delivery (or the time of
    /// abandonment).
    pub latency_ms: f64,
    /// Per-step delivery times, ms (only completed steps).
    pub deliveries: Vec<(&'static str, f64)>,
    /// Total transmissions, including retransmissions.
    pub transmissions: u32,
}

/// Simulator configuration.
///
/// The chaos-hardening knobs (`backoff_factor`, `rto_cap_ms`,
/// `retry_on_partition`, `total_deadline_ms`) all default to the legacy
/// behavior — fixed RTO, abort on partition, no deadline — so existing
/// experiments replay byte-identically unless a caller opts in.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Per-hop processing delay already included in edge weights; this
    /// is the additional endpoint processing per message, ms.
    pub endpoint_processing_ms: f64,
    /// Base retransmission timeout, ms (NAS timers are seconds;
    /// signaling over LEO uses tighter timers).
    pub rto_ms: f64,
    /// Maximum transmissions per step before declaring failure.
    pub max_attempts: u32,
    /// Multiplier applied to the RTO per retransmission (exponential
    /// backoff). `1.0` keeps the fixed legacy RTO.
    pub backoff_factor: f64,
    /// Upper bound on the backed-off RTO, ms (`f64::INFINITY` = no cap).
    pub rto_cap_ms: f64,
    /// Treat a routing partition as transient: wait a backoff and
    /// re-resolve instead of aborting the procedure — what a chaos run
    /// needs when an intermediate satellite crashes mid-procedure and
    /// recovers (or routing heals around it) moments later.
    pub retry_on_partition: bool,
    /// Total simulated-time budget for the procedure, ms. Sends past
    /// the deadline abort the run (`f64::INFINITY` = unbounded).
    pub total_deadline_ms: f64,
    /// Draw the ambient loss process once per *hop* instead of once per
    /// transmission: every ISL hop is an independent frame-error
    /// opportunity, so long (and chaos-detoured) paths lose more. The
    /// legacy default draws once per transmission regardless of path
    /// length.
    pub loss_per_hop: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            endpoint_processing_ms: 1.0,
            rto_ms: 400.0,
            max_attempts: 4,
            backoff_factor: 1.0,
            rto_cap_ms: f64::INFINITY,
            retry_on_partition: false,
            total_deadline_ms: f64::INFINITY,
            loss_per_hop: false,
        }
    }
}

impl SimConfig {
    /// The (capped, backed-off) RTO armed for transmission `attempt`
    /// (1-based). With the default `backoff_factor = 1.0` this is
    /// exactly `rto_ms` for every attempt.
    pub fn rto_for(&self, attempt: u32) -> f64 {
        (self.rto_ms * self.backoff_factor.powi(attempt.saturating_sub(1) as i32))
            .min(self.rto_cap_ms)
    }
}

/// One remembered route: what [`Graph::route_in`] returned for the
/// pair, and the nodes of the path it found (none for a partition).
#[derive(Default)]
struct MemoEntry {
    from: NodeId,
    to: NodeId,
    route: Option<(f64, usize)>,
    nodes: Vec<NodeId>,
}

impl MemoEntry {
    fn is(&self, from: NodeId, to: NodeId) -> bool {
        self.from == from && self.to == to
    }

    /// Does `cursor`'s view leave this route standing: no node of it
    /// dead, no link of it down?
    fn intact(&self, cursor: &ChaosCursor<'_>) -> bool {
        !self.nodes.iter().any(|&n| cursor.is_dead(n))
            && !self.nodes.windows(2).any(|l| cursor.link_down(l[0], l[1]))
    }
}

/// Routes resolved so far in one replay, keyed by `(from, to)` and
/// dropped exactly when an applied chaos event can change Dijkstra's
/// answer, each pair's *healthy route* — its shortest path in the
/// failure-free graph — and each destination's [`Potential`], the
/// failure-free distances to it that direct a view's search. The rules
/// and why they are exact are in the [module doc](self#route-resolution).
///
/// One memo serves one [`ChaosCursor`] from t = 0: every slice
/// [`ChaosCursor::advance_to`] returns goes to [`Self::observe`], and
/// [`Self::clear`] starts the next replay. The healthy routes and the
/// potentials outlive `clear()`: they depend on the graph alone, and
/// the memo borrows that graph from [`Self::new`] on, so they never
/// answer for another.
pub struct RouteMemo<'g> {
    graph: &'g Graph,
    /// `entries[..live]` are remembered; the tail only keeps its path
    /// buffers for reuse.
    entries: Vec<MemoEntry>,
    live: usize,
    /// One per pair ever resolved; never dropped.
    healthy: Vec<MemoEntry>,
    /// One per destination ever searched in a view; never dropped.
    potentials: Vec<Potential>,
    paths: PathScratch,
    searches: u64,
}

impl<'g> RouteMemo<'g> {
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            entries: Vec::new(),
            live: 0,
            healthy: Vec::new(),
            potentials: Vec::new(),
            paths: PathScratch::new(),
            searches: 0,
        }
    }

    /// Forget every route of the current view (a new replay, a new
    /// cursor). The healthy routes and the potentials stay.
    pub fn clear(&mut self) {
        self.live = 0;
    }

    /// Route searches so far: one per failure-free route and one per
    /// view search (its two passes count once, the potentials' reverse
    /// searches not at all).
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// Account for the events the cursor just applied.
    pub fn observe(&mut self, applied: &[ChaosEvent]) {
        for ev in applied {
            match ev.action {
                ChaosAction::Recover(_) | ChaosAction::LinkUp(..) => self.clear(),
                ChaosAction::Crash(n) => self.drop_if(|path| path.contains(&n)),
                ChaosAction::LinkDown(a, b) => {
                    self.drop_if(|path| path.contains(&a) && path.contains(&b));
                }
                ChaosAction::BurstStart { .. } | ChaosAction::BurstEnd => {}
            }
        }
    }

    /// `(cost, hops)` of the route `from → to` under `cursor`'s current
    /// view, `None` for a partition: bit-for-bit what
    /// [`Graph::shortest_path_avoiding`] answers for the same view.
    /// A remembered route, else the pair's healthy route if the view
    /// leaves it intact, else a search of the view directed by `to`'s
    /// potential.
    pub fn resolve(
        &mut self,
        cursor: &ChaosCursor<'_>,
        from: NodeId,
        to: NodeId,
    ) -> Option<(f64, usize)> {
        if let Some(e) = self.entries[..self.live].iter().find(|e| e.is(from, to)) {
            return e.route;
        }
        let i = match self.healthy.iter().position(|e| e.is(from, to)) {
            Some(i) => i,
            None => {
                let route = self.search(from, to, |_| false, |_, _| false, false);
                self.healthy.push(MemoEntry {
                    from,
                    to,
                    route,
                    nodes: self.paths.path_rev().collect(),
                });
                self.healthy.len() - 1
            }
        };
        let healthy = &self.healthy[i];
        // A pair with no failure-free route has no route in any view.
        let standing = healthy.intact(cursor);
        let route = if standing {
            healthy.route
        } else {
            self.search(
                from,
                to,
                |n| cursor.is_dead(n),
                |a, b| cursor.link_down(a, b),
                true,
            )
        };
        if self.live == self.entries.len() {
            self.entries.push(MemoEntry::default());
        }
        let e = &mut self.entries[self.live];
        self.live += 1;
        (e.from, e.to, e.route) = (from, to, route);
        e.nodes.clear();
        if standing {
            e.nodes.extend_from_slice(&self.healthy[i].nodes);
        } else {
            e.nodes.extend(self.paths.path_rev());
        }
        route
    }

    /// The one route search of the memo, directed by `to`'s potential
    /// if `directed`; its path stays in `paths`.
    fn search(
        &mut self,
        from: NodeId,
        to: NodeId,
        blocked: impl Fn(NodeId) -> bool,
        blocked_edge: impl Fn(NodeId, NodeId) -> bool,
        directed: bool,
    ) -> Option<(f64, usize)> {
        let p = directed.then(|| self.potential_of(to));
        self.searches += 1;
        let to_dst = p.map(|i| &self.potentials[i]);
        self.graph
            .route_in(from, to, blocked, blocked_edge, to_dst, &mut self.paths)
    }

    /// Index of `to`'s potential, searched on first use.
    fn potential_of(&mut self, to: NodeId) -> usize {
        if let Some(i) = self.potentials.iter().position(|p| p.dst() == to) {
            return i;
        }
        self.potentials
            .push(self.graph.potential_to(to, &mut self.paths));
        self.potentials.len() - 1
    }

    fn drop_if(&mut self, hit: impl Fn(&[NodeId]) -> bool) {
        let mut i = 0;
        while i < self.live {
            if hit(&self.entries[i].nodes) {
                self.live -= 1;
                self.entries.swap(i, self.live);
            } else {
                i += 1;
            }
        }
    }
}

/// Reusable per-run working memory for [`ProcedureSim`], bound to the
/// graph the simulator routes over.
///
/// One run needs an event queue, five per-step vectors and the route
/// memo with its Dijkstra scratch; a sweep that replays thousands of
/// procedures can hand the same scratch to every
/// [`ProcedureSim::run_in`] call and amortize all of those allocations
/// to one (what a run still allocates is its outcome's `deliveries`,
/// and span fields when telemetry is on), and each pair's failure-free
/// search to one. Outcomes and telemetry are bit-identical to the
/// scratch-free entry points — the queue's [`EventQueue::reset`]
/// rewinds time and the sequence counter completely, and the memo's
/// routes of the view are cleared per run (its healthy routes and
/// potentials, properties of the graph alone, are kept).
pub struct SimScratch<'g> {
    q: EventQueue<Ev>,
    delivered: Vec<bool>,
    in_flight: Vec<Option<u32>>,
    partition_retries: Vec<u32>,
    step_spans: Vec<SpanId>,
    tx_spans: Vec<SpanId>,
    routes: RouteMemo<'g>,
    /// Test oracle: route every send with its own plain search of the
    /// view, as if there were neither a memo, nor healthy routes, nor
    /// potentials.
    #[cfg(test)]
    forget_before_send: bool,
}

impl<'g> SimScratch<'g> {
    /// Scratch for simulators over `graph`; [`ProcedureSim::run_in`]
    /// refuses it for any other.
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            q: EventQueue::new(),
            delivered: Vec::new(),
            in_flight: Vec::new(),
            partition_retries: Vec::new(),
            step_spans: Vec::new(),
            tx_spans: Vec::new(),
            routes: RouteMemo::new(graph),
            #[cfg(test)]
            forget_before_send: false,
        }
    }
}

/// Message-level procedure simulator.
pub struct ProcedureSim<'a> {
    graph: &'a Graph,
    /// The one failure view: nodes dead from t = 0 plus scheduled events.
    failures: &'a FailureTimeline,
    cfg: SimConfig,
    /// Telemetry (disabled by default): `netsim.sim.*` counters, the
    /// per-procedure latency histogram, and one `netsim.delivery` event
    /// per delivered step, all stamped with DES sim-time (ms).
    obs: Recorder,
}

#[derive(Debug, Clone, PartialEq)]
enum Ev {
    /// Attempt transmission of step `idx` (attempt number).
    Send { idx: usize, attempt: u32 },
    /// Step `idx` delivered.
    Delivered { idx: usize },
    /// RTO check for step `idx`, attempt `attempt`.
    Timeout { idx: usize, attempt: u32 },
}

impl<'a> ProcedureSim<'a> {
    /// Simulate over `graph` against `timeline`: it is replayed as the
    /// DES clock advances, every transmission is routed against the
    /// *current* dead-node/link set, and open loss-burst windows add
    /// their own per-transmission losses. [`FailureTimeline::none`] is
    /// the failure-free run.
    pub fn with_timeline(graph: &'a Graph, timeline: &'a FailureTimeline, cfg: SimConfig) -> Self {
        Self {
            graph,
            failures: timeline,
            cfg,
            obs: Recorder::disabled(),
        }
    }

    /// Attach a telemetry recorder (builder style); the recorder is
    /// also propagated into the internal event queue, so `netsim.des.*`
    /// counters cover every scheduled/processed event of each run.
    pub fn with_recorder(mut self, obs: Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// Run a serialized step list; `loss` draws per-transmission losses.
    pub fn run(&self, steps: &[SimStep], loss: &mut LossProcess) -> SimOutcome {
        self.run_traced(steps, loss, None)
    }

    /// [`Self::run`] against a caller-owned [`SimScratch`], reusing its
    /// event queue, per-step buffers, healthy routes and potentials. The
    /// hot-loop entry point: sweeps that replay thousands of procedures
    /// back to back pay for the scratch once instead of per run.
    ///
    /// # Panics
    /// Panics if `scratch` was made for another graph than this
    /// simulator's.
    pub fn run_in(
        &self,
        steps: &[SimStep],
        loss: &mut LossProcess,
        scratch: &mut SimScratch<'_>,
    ) -> SimOutcome {
        self.run_traced_in(steps, loss, None, scratch)
    }

    /// [`Self::run`], with the procedure's root span parented on
    /// `parent` (e.g. a fiveg procedure span), so the caller's causal
    /// context and this run's hop/retransmission spans form one tree.
    ///
    /// Span shapes (all sim-time ms, recorded only when telemetry is
    /// enabled — outcomes are bit-identical either way):
    /// * `netsim.sim.procedure` — root, one per run; `steps` field, and
    ///   `completed` (0/1) attached on close.
    /// * `netsim.sim.step` — child of the root, opened at the step's
    ///   first transmission, closed at delivery (left open when the
    ///   procedure blocks mid-step).
    /// * `netsim.sim.tx` — child of its step, one per transmission;
    ///   `attempt` and `hops` fields. A lost transmission is emitted
    ///   closed over `[send, send+rto]` with `lost=1` — the time the
    ///   loss cost before its timeout recovered it. Spurious-RTO
    ///   suppressions emit a zero-width `netsim.sim.spurious_rto` child
    ///   of the step, and partition waits a `netsim.sim.partition_retry`
    ///   spanning the backoff — so chaos-rerouted retries stay linked to
    ///   the procedure they delayed.
    pub fn run_traced(
        &self,
        steps: &[SimStep],
        loss: &mut LossProcess,
        parent: Option<SpanId>,
    ) -> SimOutcome {
        self.run_traced_in(steps, loss, parent, &mut SimScratch::new(self.graph))
    }

    /// [`Self::run_traced`] against a caller-owned [`SimScratch`];
    /// outcome- and telemetry-identical. Panics as [`Self::run_in`].
    pub fn run_traced_in(
        &self,
        steps: &[SimStep],
        loss: &mut LossProcess,
        parent: Option<SpanId>,
        scratch: &mut SimScratch<'_>,
    ) -> SimOutcome {
        assert!(
            std::ptr::eq(self.graph, scratch.routes.graph),
            "SimScratch is bound to another graph"
        );
        self.obs.inc("netsim.sim.procedures", 1);
        // Spans allocate field vectors; skip all of it when disabled so
        // the hot path stays an Option check.
        let traced = self.obs.enabled();
        let root = if traced {
            self.obs.span_open(
                parent,
                "netsim.sim.procedure",
                0.0,
                vec![("steps", FieldValue::from(steps.len()))],
            )
        } else {
            SpanId::DISABLED
        };
        let SimScratch {
            q,
            delivered,
            in_flight,
            partition_retries,
            step_spans,
            tx_spans,
            routes,
            #[cfg(test)]
            forget_before_send,
        } = scratch;
        q.reset();
        q.attach_recorder(self.obs.clone());
        // The failure view, replayed as the DES clock advances.
        let mut cursor = self.failures.cursor();
        routes.clear();
        let mut deliveries: Vec<(&'static str, f64)> = Vec::new();
        delivered.clear();
        delivered.resize(steps.len(), false);
        // Attempt number of the transmission currently on the wire (its
        // delivery is scheduled), per step; `None` while nothing is in
        // flight. Lets the RTO distinguish "lost" from "merely slower
        // than the timer" and stay silent for the latter.
        in_flight.clear();
        in_flight.resize(steps.len(), None);
        // Partition retries taken so far, per step (drives their backoff).
        partition_retries.clear();
        partition_retries.resize(steps.len(), 0u32);
        let mut transmissions = 0u32;
        let mut completed = true;
        let mut last_time = 0.0f64;

        if steps.is_empty() {
            self.obs.inc("netsim.sim.completed", 1);
            self.obs.observe("netsim.sim.procedure_latency_ms", 0.0);
            if traced {
                self.obs
                    .span_close_with(root, 0.0, vec![("completed", FieldValue::from(1u64))]);
            }
            return SimOutcome {
                completed: true,
                latency_ms: 0.0,
                deliveries,
                transmissions: 0,
            };
        }
        // Per-step span handles: the step span opens at the step's first
        // transmission; the tx span tracks the attempt currently on the
        // wire. DISABLED doubles as "not opened yet" — an enabled
        // recorder never returns it.
        step_spans.clear();
        step_spans.resize(steps.len(), SpanId::DISABLED);
        tx_spans.clear();
        tx_spans.resize(steps.len(), SpanId::DISABLED);
        q.schedule(0.0, Ev::Send { idx: 0, attempt: 1 });

        while let Some(ev) = q.pop() {
            let now = ev.time;
            last_time = now;
            routes.observe(cursor.advance_to(now, &self.obs));
            match ev.event {
                Ev::Send { idx, attempt } => {
                    if delivered[idx] {
                        continue;
                    }
                    if now > self.cfg.total_deadline_ms {
                        completed = false;
                        break; // procedure deadline budget exhausted
                    }
                    if attempt > self.cfg.max_attempts {
                        completed = false;
                        break; // the whole procedure is blocked (§3.3)
                    }
                    transmissions += 1;
                    self.obs.inc("netsim.sim.transmissions", 1);
                    if attempt > 1 {
                        self.obs.inc("netsim.sim.retransmissions", 1);
                    }
                    if traced && step_spans[idx] == SpanId::DISABLED {
                        step_spans[idx] = self.obs.span_open(
                            Some(root),
                            "netsim.sim.step",
                            now,
                            vec![
                                ("idx", FieldValue::from(idx)),
                                ("label", FieldValue::from(steps[idx].label)),
                            ],
                        );
                    }
                    let step = &steps[idx];
                    // Routed against the view current at this send: a
                    // chaos run reroutes around nodes that died after
                    // the procedure started.
                    let route = routes.resolve(&cursor, step.from, step.to);
                    #[cfg(test)]
                    let route = if *forget_before_send {
                        routes.search(
                            step.from,
                            step.to,
                            |n| cursor.is_dead(n),
                            |a, b| cursor.link_down(a, b),
                            false,
                        )
                    } else {
                        route
                    };
                    match route {
                        None if self.cfg.retry_on_partition => {
                            // Partition-as-transient: wait a backoff and
                            // re-resolve, bounded by the deadline budget
                            // (or, unbounded budgets, the attempt cap).
                            partition_retries[idx] += 1;
                            let backoff = self.cfg.rto_for(partition_retries[idx]);
                            let within = if self.cfg.total_deadline_ms.is_finite() {
                                now + backoff <= self.cfg.total_deadline_ms
                            } else {
                                partition_retries[idx] < self.cfg.max_attempts
                            };
                            if !within {
                                completed = false;
                                break; // partition outlasted the budget
                            }
                            self.obs.inc("netsim.sim.partition_retries", 1);
                            if traced {
                                self.obs.span(
                                    Some(step_spans[idx]),
                                    "netsim.sim.partition_retry",
                                    now,
                                    now + backoff,
                                    vec![],
                                );
                            }
                            q.schedule(now + backoff, Ev::Send { idx, attempt });
                        }
                        None => {
                            completed = false;
                            break; // endpoints partitioned
                        }
                        Some((cost, hops)) => {
                            let lost = if self.cfg.loss_per_hop {
                                // First lossy hop kills the transmission.
                                (0..hops).any(|_| loss.lost())
                            } else {
                                loss.lost()
                            };
                            // Open Fig. 13b-style burst window?
                            let lost = lost || cursor.burst_loss(&self.obs);
                            let rto = self.cfg.rto_for(attempt);
                            if lost {
                                self.obs.inc("netsim.sim.losses", 1);
                                if traced {
                                    self.obs.span(
                                        Some(step_spans[idx]),
                                        "netsim.sim.tx",
                                        now,
                                        now + rto,
                                        vec![
                                            ("attempt", FieldValue::from(attempt as u64)),
                                            ("hops", FieldValue::from(hops)),
                                            ("lost", FieldValue::from(1u64)),
                                        ],
                                    );
                                }
                                in_flight[idx] = None;
                                // Lost somewhere en route: only the RTO
                                // recovers it.
                                q.schedule(now + rto, Ev::Timeout { idx, attempt });
                            } else {
                                let delay = cost + self.cfg.endpoint_processing_ms;
                                if traced {
                                    tx_spans[idx] = self.obs.span_open(
                                        Some(step_spans[idx]),
                                        "netsim.sim.tx",
                                        now,
                                        vec![
                                            ("attempt", FieldValue::from(attempt as u64)),
                                            ("hops", FieldValue::from(hops)),
                                        ],
                                    );
                                }
                                in_flight[idx] = Some(attempt);
                                q.schedule(now + delay, Ev::Delivered { idx });
                                // Timeout still armed; a delivery that
                                // merely outlasts it is recognized as in
                                // flight and not retransmitted.
                                q.schedule(now + rto, Ev::Timeout { idx, attempt });
                            }
                        }
                    }
                }
                Ev::Delivered { idx } => {
                    if delivered[idx] {
                        continue;
                    }
                    delivered[idx] = true;
                    if traced {
                        self.obs.span_close(tx_spans[idx], now);
                        self.obs.span_close(step_spans[idx], now);
                    }
                    self.obs.event(
                        now,
                        "netsim.delivery",
                        vec![
                            ("idx", FieldValue::from(idx)),
                            ("step", FieldValue::from(steps[idx].label)),
                        ],
                    );
                    deliveries.push((steps[idx].label, now));
                    if idx + 1 < steps.len() {
                        q.schedule(now, Ev::Send {
                            idx: idx + 1,
                            attempt: 1,
                        });
                    } else {
                        break; // procedure complete
                    }
                }
                Ev::Timeout { idx, attempt } => {
                    if delivered[idx] {
                        continue;
                    }
                    if in_flight[idx] == Some(attempt) {
                        // The transmission is still on the wire — its
                        // delivery delay simply exceeds the RTO. A naive
                        // timer would duplicate an in-flight message
                        // here; suppress it.
                        self.obs.inc("netsim.sim.spurious_rto", 1);
                        if traced {
                            self.obs.span(
                                Some(step_spans[idx]),
                                "netsim.sim.spurious_rto",
                                now,
                                now,
                                vec![("attempt", FieldValue::from(attempt as u64))],
                            );
                        }
                        continue;
                    }
                    q.schedule(now, Ev::Send {
                        idx,
                        attempt: attempt + 1,
                    });
                }
            }
        }

        let all = delivered.iter().all(|d| *d);
        let completed = completed && all;
        self.obs.inc(
            if completed {
                "netsim.sim.completed"
            } else {
                "netsim.sim.blocked"
            },
            1,
        );
        self.obs.observe("netsim.sim.procedure_latency_ms", last_time);
        if traced {
            self.obs.span_close_with(
                root,
                last_time,
                vec![("completed", FieldValue::from(u64::from(completed)))],
            );
        }
        SimOutcome {
            completed,
            latency_ms: last_time,
            deliveries,
            transmissions,
        }
    }
}

/// Build the `SimStep` list for a Figure 9-style sequence of
/// (entity-kind, entity-kind) hops given an entity placement. The step
/// descriptions come from the caller (typically
/// `sc-fiveg::messages::Procedure` translated per split).
pub fn steps_from_pairs(
    pairs: &[(&'static str, NodeId, NodeId)],
) -> Vec<SimStep> {
    pairs
        .iter()
        .map(|&(label, from, to)| SimStep { label, from, to })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line topology 0—1—2—3 with 10 ms links.
    fn line() -> Graph {
        let mut g = Graph::new(4);
        g.add_bidirectional(0, 1, 10.0);
        g.add_bidirectional(1, 2, 10.0);
        g.add_bidirectional(2, 3, 10.0);
        g
    }

    fn no_failures() -> FailureTimeline {
        FailureTimeline::none()
    }

    #[test]
    fn lossless_run_sums_path_delays() {
        let g = line();
        let nf = no_failures();
        let sim = ProcedureSim::with_timeline(&g, &nf, SimConfig::default());
        let steps = steps_from_pairs(&[("a", 0, 3), ("b", 3, 0)]);
        let mut loss = LossProcess::new(0.0, 1);
        let o = sim.run(&steps, &mut loss);
        assert!(o.completed);
        assert_eq!(o.transmissions, 2);
        // Each leg: 30 ms path + 1 ms endpoint = 31 ms; serialized → 62.
        assert!((o.latency_ms - 62.0).abs() < 1e-9, "{}", o.latency_ms);
        assert_eq!(o.deliveries.len(), 2);
    }

    #[test]
    fn loss_adds_rto_delays() {
        let g = line();
        let nf = no_failures();
        let sim = ProcedureSim::with_timeline(&g, &nf, SimConfig::default());
        let steps = steps_from_pairs(&[("a", 0, 3)]);
        // Always lose the first transmission, deliver the second.
        let mut loss = LossProcess::new(0.0, 1);
        // Simulate "first lost" by a 100% loss process bounded by
        // attempts? Instead use 50% loss and a seed that loses first.
        let mut lossy = LossProcess::new(0.9999, 7);
        let o = sim.run(&steps, &mut lossy);
        // With near-certain loss, the run exhausts its attempts.
        assert!(!o.completed);
        assert_eq!(o.transmissions, SimConfig::default().max_attempts);
        // Clean process for contrast.
        let o2 = sim.run(&steps, &mut loss);
        assert!(o2.completed);
        assert!(o2.latency_ms < o.latency_ms);
    }

    #[test]
    fn moderate_loss_recovers_with_retries() {
        let g = line();
        let nf = no_failures();
        let sim = ProcedureSim::with_timeline(&g, &nf, SimConfig::default());
        let steps = steps_from_pairs(&[("a", 0, 2), ("b", 2, 1), ("c", 1, 3)]);
        let mut completed = 0;
        let mut total_tx = 0;
        for seed in 0..200 {
            let mut loss = LossProcess::new(0.2, seed);
            let o = sim.run(&steps, &mut loss);
            if o.completed {
                completed += 1;
            }
            total_tx += o.transmissions;
        }
        // P(step survives 4 attempts) = 1 - 0.2^4 ≈ 0.9984 per step.
        assert!(completed > 190, "{completed}");
        // Retransmissions happened: more transmissions than steps.
        assert!(total_tx > 200 * 3, "{total_tx}");
    }

    #[test]
    fn partition_blocks_procedure() {
        let g = line();
        let nf = FailureTimeline::none().dead_from_start(1); // cuts 0 from the rest
        let sim = ProcedureSim::with_timeline(&g, &nf, SimConfig::default());
        let steps = steps_from_pairs(&[("a", 0, 3)]);
        let mut loss = LossProcess::new(0.0, 1);
        let o = sim.run(&steps, &mut loss);
        assert!(!o.completed);
        assert!(o.deliveries.is_empty());
    }

    #[test]
    fn reroute_around_failed_intermediate() {
        // Diamond: 0-1-3 (fast) / 0-2-3 (slow); failing 1 reroutes.
        let mut g = Graph::new(4);
        g.add_bidirectional(0, 1, 5.0);
        g.add_bidirectional(1, 3, 5.0);
        g.add_bidirectional(0, 2, 20.0);
        g.add_bidirectional(2, 3, 20.0);
        let nf = FailureTimeline::none().dead_from_start(1);
        let sim = ProcedureSim::with_timeline(&g, &nf, SimConfig::default());
        let steps = steps_from_pairs(&[("a", 0, 3)]);
        let mut loss = LossProcess::new(0.0, 1);
        let o = sim.run(&steps, &mut loss);
        assert!(o.completed);
        assert!((o.latency_ms - 41.0).abs() < 1e-9, "{}", o.latency_ms);
    }

    #[test]
    fn empty_procedure_trivially_completes() {
        let g = line();
        let nf = no_failures();
        let sim = ProcedureSim::with_timeline(&g, &nf, SimConfig::default());
        let o = sim.run(&[], &mut LossProcess::new(0.5, 1));
        assert!(o.completed);
        assert_eq!(o.latency_ms, 0.0);
    }

    #[test]
    fn recorder_sees_full_procedure_accounting() {
        let g = line();
        let nf = no_failures();
        let rec = Recorder::new();
        let sim =
            ProcedureSim::with_timeline(&g, &nf, SimConfig::default()).with_recorder(rec.clone());
        let steps = steps_from_pairs(&[("req", 0, 3), ("rsp", 3, 0)]);
        let mut loss = LossProcess::new(0.0, 1);
        let o = sim.run(&steps, &mut loss);
        assert!(o.completed);
        let s = rec.snapshot();
        assert_eq!(s.counter("netsim.sim.procedures"), 1);
        assert_eq!(s.counter("netsim.sim.transmissions"), 2);
        assert_eq!(s.counter("netsim.sim.completed"), 1);
        assert_eq!(s.counter("netsim.sim.retransmissions"), 0);
        assert!(s.counter("netsim.des.scheduled") >= 4);
        // One delivery event per step, stamped with DES sim-time (ms).
        let deliveries: Vec<f64> = s
            .events
            .iter()
            .filter(|e| e.kind == "netsim.delivery")
            .map(|e| e.t)
            .collect();
        assert_eq!(deliveries.len(), 2);
        assert!((deliveries[1] - o.latency_ms).abs() < 1e-9);
        // Latency histogram carries the same sim-time quantity.
        assert_eq!(
            s.histogram("netsim.sim.procedure_latency_ms")
                .and_then(|h| h.max()),
            Some(o.latency_ms)
        );
    }

    #[test]
    fn spans_form_a_procedure_tree() {
        let g = line();
        let nf = no_failures();
        let rec = Recorder::new();
        let sim =
            ProcedureSim::with_timeline(&g, &nf, SimConfig::default()).with_recorder(rec.clone());
        let steps = steps_from_pairs(&[("req", 0, 3), ("rsp", 3, 0)]);
        let o = sim.run(&steps, &mut LossProcess::new(0.0, 1));
        assert!(o.completed);
        let s = rec.snapshot();
        // Root + 2 steps + 2 transmissions.
        let kinds: Vec<&str> = s.spans.iter().map(|sp| sp.kind).collect();
        assert_eq!(
            kinds,
            vec![
                "netsim.sim.procedure",
                "netsim.sim.step",
                "netsim.sim.tx",
                "netsim.sim.step",
                "netsim.sim.tx",
            ]
        );
        let root = &s.spans[0];
        assert_eq!(root.parent, None);
        assert_eq!(root.end, Some(o.latency_ms));
        // Steps parent on the root; transmissions on their step.
        assert_eq!(s.spans[1].parent, Some(root.id));
        assert_eq!(s.spans[2].parent, Some(s.spans[1].id));
        assert_eq!(s.spans[3].parent, Some(root.id));
        assert_eq!(s.spans[4].parent, Some(s.spans[3].id));
        // Second step starts when the first delivers.
        assert_eq!(s.spans[1].end, Some(s.spans[3].start));
        // Outcomes are identical with telemetry off.
        let plain = ProcedureSim::with_timeline(&g, &nf, SimConfig::default());
        let o2 = plain.run(&steps, &mut LossProcess::new(0.0, 1));
        assert_eq!(o, o2);
    }

    #[test]
    fn lost_transmission_span_carries_rto_width() {
        let g = line();
        let nf = no_failures();
        let rec = Recorder::new();
        let cfg = SimConfig {
            max_attempts: 8,
            ..SimConfig::default()
        };
        let sim = ProcedureSim::with_timeline(&g, &nf, cfg.clone()).with_recorder(rec.clone());
        let steps = steps_from_pairs(&[("a", 0, 3)]);
        // Seed 3 loses the first transmissions (see backoff test above).
        let o = sim.run(&steps, &mut LossProcess::new(0.9, 3));
        let s = rec.snapshot();
        let lost: Vec<_> = s
            .spans
            .iter()
            .filter(|sp| {
                sp.kind == "netsim.sim.tx"
                    && sp.fields.iter().any(|(k, _)| *k == "lost")
            })
            .collect();
        assert_eq!(lost.len() as u64, s.counter("netsim.sim.losses"));
        for sp in &lost {
            assert_eq!(sp.duration(), Some(cfg.rto_ms));
        }
        // Blocked procedures leave their current step span open.
        if !o.completed {
            let open_steps = s
                .spans
                .iter()
                .filter(|sp| sp.kind == "netsim.sim.step" && sp.end.is_none())
                .count();
            assert_eq!(open_steps, 1);
        }
    }

    #[test]
    fn run_traced_parents_root_on_caller_span() {
        let g = line();
        let nf = no_failures();
        let rec = Recorder::new();
        let outer = rec.span_open(None, "fiveg.proc.test", 0.0, vec![]);
        let sim =
            ProcedureSim::with_timeline(&g, &nf, SimConfig::default()).with_recorder(rec.clone());
        let steps = steps_from_pairs(&[("a", 0, 3)]);
        let o = sim.run_traced(&steps, &mut LossProcess::new(0.0, 1), Some(outer));
        rec.span_close(outer, o.latency_ms);
        let s = rec.snapshot();
        assert_eq!(s.spans[0].kind, "fiveg.proc.test");
        assert_eq!(s.spans[1].kind, "netsim.sim.procedure");
        assert_eq!(s.spans[1].parent, Some(s.spans[0].id));
    }

    #[test]
    fn slow_delivery_does_not_trigger_spurious_rto() {
        // Regression: path delay (3 × 200 ms) far exceeds the RTO
        // (50 ms). The armed Timeout fires while the transmission is
        // still in flight; it must be suppressed, not duplicated.
        let mut g = Graph::new(4);
        g.add_bidirectional(0, 1, 200.0);
        g.add_bidirectional(1, 2, 200.0);
        g.add_bidirectional(2, 3, 200.0);
        let nf = no_failures();
        let rec = Recorder::new();
        let cfg = SimConfig {
            rto_ms: 50.0,
            ..SimConfig::default()
        };
        let sim = ProcedureSim::with_timeline(&g, &nf, cfg).with_recorder(rec.clone());
        let steps = steps_from_pairs(&[("slow", 0, 3)]);
        let o = sim.run(&steps, &mut LossProcess::new(0.0, 1));
        assert!(o.completed);
        assert_eq!(o.transmissions, 1, "in-flight delivery must not retransmit");
        assert!((o.latency_ms - 601.0).abs() < 1e-9, "{}", o.latency_ms);
        let s = rec.snapshot();
        assert_eq!(s.counter("netsim.sim.spurious_rto"), 1);
        assert_eq!(s.counter("netsim.sim.retransmissions"), 0);
    }

    #[test]
    fn per_hop_loss_scales_with_path_length() {
        let g = line();
        let nf = no_failures();
        // Self-addressed step (0 hops): per-hop ambient loss can never
        // touch it, even at p = 1.0.
        let cfg = SimConfig {
            loss_per_hop: true,
            ..SimConfig::default()
        };
        let sim = ProcedureSim::with_timeline(&g, &nf, cfg);
        let steps = steps_from_pairs(&[("local", 2, 2)]);
        let o = sim.run(&steps, &mut LossProcess::new(1.0, 1));
        assert!(o.completed);
        assert_eq!(o.transmissions, 1);
        // Longer paths lose more (1 hop vs 3 hops, no retries).
        let cfg1 = SimConfig {
            loss_per_hop: true,
            max_attempts: 1,
            ..SimConfig::default()
        };
        let sim = ProcedureSim::with_timeline(&g, &nf, cfg1);
        let short = steps_from_pairs(&[("s", 0, 1)]);
        let long = steps_from_pairs(&[("l", 0, 3)]);
        let mut short_ok = 0;
        let mut long_ok = 0;
        for seed in 0..400 {
            if sim.run(&short, &mut LossProcess::new(0.3, seed)).completed {
                short_ok += 1;
            }
            if sim.run(&long, &mut LossProcess::new(0.3, seed + 1000)).completed {
                long_ok += 1;
            }
        }
        // P(short) = 0.7 vs P(long) = 0.7^3 ≈ 0.34.
        assert!(short_ok > long_ok + 40, "short {short_ok} long {long_ok}");
    }

    #[test]
    fn rto_backoff_grows_and_caps() {
        let cfg = SimConfig {
            rto_ms: 100.0,
            backoff_factor: 2.0,
            rto_cap_ms: 350.0,
            ..SimConfig::default()
        };
        assert_eq!(cfg.rto_for(1), 100.0);
        assert_eq!(cfg.rto_for(2), 200.0);
        assert_eq!(cfg.rto_for(3), 350.0); // capped from 400
        assert_eq!(cfg.rto_for(9), 350.0);
        // Legacy defaults: fixed RTO, bit-exact.
        let legacy = SimConfig::default();
        for a in 1..10 {
            assert_eq!(legacy.rto_for(a), legacy.rto_ms);
        }
    }

    #[test]
    fn backoff_stretches_recovery_time() {
        let g = line();
        let nf = no_failures();
        let steps = steps_from_pairs(&[("a", 0, 3)]);
        // Seeded so the first few transmissions are lost.
        let fixed = ProcedureSim::with_timeline(&g, &nf, SimConfig {
            max_attempts: 8,
            ..SimConfig::default()
        });
        let backed = ProcedureSim::with_timeline(&g, &nf, SimConfig {
            max_attempts: 8,
            backoff_factor: 2.0,
            ..SimConfig::default()
        });
        let o_fixed = fixed.run(&steps, &mut LossProcess::new(0.9, 3));
        let o_backed = backed.run(&steps, &mut LossProcess::new(0.9, 3));
        // Identical loss draws (same seed): completion parity, but the
        // backed-off run waits longer between its retries.
        assert_eq!(o_fixed.completed, o_backed.completed);
        assert_eq!(o_fixed.transmissions, o_backed.transmissions);
        if o_fixed.transmissions > 1 {
            assert!(o_backed.latency_ms > o_fixed.latency_ms);
        }
    }

    #[test]
    fn total_deadline_aborts_late_sends() {
        let g = line();
        let nf = no_failures();
        let cfg = SimConfig {
            max_attempts: 100,
            total_deadline_ms: 900.0, // two 400 ms RTOs fit, not many more
            ..SimConfig::default()
        };
        let sim = ProcedureSim::with_timeline(&g, &nf, cfg);
        let steps = steps_from_pairs(&[("a", 0, 3)]);
        let o = sim.run(&steps, &mut LossProcess::new(1.0, 1));
        assert!(!o.completed);
        assert!(o.latency_ms <= 1300.0, "{}", o.latency_ms);
        assert!(o.transmissions <= 3, "{}", o.transmissions);
    }

    #[test]
    fn partition_retry_survives_crash_then_recover() {
        // 0—1—3 only (no detour): node 1 dead from t=0, recovers at
        // t=1000 ms. Legacy behavior aborts immediately; with
        // retry_on_partition the run waits out the outage and completes.
        let mut g = Graph::new(4);
        g.add_bidirectional(0, 1, 10.0);
        g.add_bidirectional(1, 3, 10.0);
        let tl = FailureTimeline::none().crash(0.0, 1).recover(1000.0, 1);
        let abort = ProcedureSim::with_timeline(&g, &tl, SimConfig::default());
        let steps = steps_from_pairs(&[("a", 0, 3)]);
        let o = abort.run(&steps, &mut LossProcess::new(0.0, 1));
        assert!(!o.completed, "legacy semantics abort on partition");

        let rec = Recorder::new();
        let retry = ProcedureSim::with_timeline(&g, &tl, SimConfig {
            retry_on_partition: true,
            total_deadline_ms: 5000.0,
            ..SimConfig::default()
        })
        .with_recorder(rec.clone());
        let o = retry.run(&steps, &mut LossProcess::new(0.0, 1));
        assert!(o.completed, "partition-as-transient rides out the crash");
        assert!(o.latency_ms >= 1000.0, "{}", o.latency_ms);
        let s = rec.snapshot();
        assert!(s.counter("netsim.sim.partition_retries") >= 1);
        assert_eq!(s.counter("netsim.chaos.crashes"), 1);
        assert_eq!(s.counter("netsim.chaos.recoveries"), 1);
    }

    #[test]
    fn partition_retry_respects_deadline_budget() {
        // Node 1 never recovers: the retry loop must terminate at the
        // deadline instead of spinning forever.
        let mut g = Graph::new(4);
        g.add_bidirectional(0, 1, 10.0);
        g.add_bidirectional(1, 3, 10.0);
        let tl = FailureTimeline::none().crash(0.0, 1);
        let sim = ProcedureSim::with_timeline(&g, &tl, SimConfig {
            retry_on_partition: true,
            total_deadline_ms: 2000.0,
            ..SimConfig::default()
        });
        let steps = steps_from_pairs(&[("a", 0, 3)]);
        let o = sim.run(&steps, &mut LossProcess::new(0.0, 1));
        assert!(!o.completed);
        assert!(o.latency_ms <= 2000.0, "{}", o.latency_ms);
    }

    #[test]
    fn chaos_reroute_mid_procedure() {
        // Diamond: fast 0-1-3 and slow 0-2-3. Node 1 dies at t=20 ms —
        // after step "a" (which uses the fast path) but before step "b"
        // resolves, so "b" reroutes onto the slow path dynamically.
        let mut g = Graph::new(4);
        g.add_bidirectional(0, 1, 5.0);
        g.add_bidirectional(1, 3, 5.0);
        g.add_bidirectional(0, 2, 20.0);
        g.add_bidirectional(2, 3, 20.0);
        let tl = FailureTimeline::none().crash(20.0, 1);
        let sim = ProcedureSim::with_timeline(&g, &tl, SimConfig::default());
        let steps = steps_from_pairs(&[("a", 0, 3), ("b", 3, 0)]);
        let o = sim.run(&steps, &mut LossProcess::new(0.0, 1));
        assert!(o.completed);
        // Leg a: 10 + 1 = 11 ms (fast). Leg b starts at 11 < 20 … but
        // resolves at its own Send pop at t = 11 — still fast? No: the
        // cursor has only advanced to 11, node 1 alive, so leg b also
        // takes the fast path and delivers at 22. Crash at 20 happens
        // while b is in flight — delivery already scheduled, unaffected
        // (the message left node 1 before the crash reached routing).
        assert!((o.latency_ms - 22.0).abs() < 1e-9, "{}", o.latency_ms);

        // Crash earlier (t = 5 ms): leg a is in flight on the fast path,
        // leg b (resolved at t = 11) must reroute onto the slow path.
        let tl2 = FailureTimeline::none().crash(5.0, 1);
        let sim2 = ProcedureSim::with_timeline(&g, &tl2, SimConfig::default());
        let o2 = sim2.run(&steps, &mut LossProcess::new(0.0, 1));
        assert!(o2.completed);
        // Leg a delivers at 11, leg b reroutes: 40 + 1 = 41 → total 52.
        assert!((o2.latency_ms - 52.0).abs() < 1e-9, "{}", o2.latency_ms);
    }

    /// Ring of `n` nodes (5–7 ms links) with 17 ms chords across it:
    /// every pair has several routes, of different hop counts.
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

    #[test]
    fn memoised_replay_equals_one_search_per_send() {
        use crate::failure::Xorshift64;
        let n = 16;
        let g = ring_with_chords(n);
        // 12 alternating legs, as a home-routed recovery ping-pongs.
        let legs: Vec<(&str, NodeId, NodeId)> = (0..12)
            .map(|i| {
                if i % 2 == 0 {
                    ("up", 0, n / 2)
                } else {
                    ("down", n / 2, 0)
                }
            })
            .collect();
        let steps = steps_from_pairs(&legs);
        let mut rng = Xorshift64::new(0x5EED);
        let mut memo = SimScratch::new(&g);
        let mut oracle = SimScratch {
            forget_before_send: true,
            ..SimScratch::new(&g)
        };
        let mut blocked = 0;
        for case in 0..600 {
            let p_crash = [0.0, 0.1, 0.3, 0.5][rng.below(4)];
            let recover = [None, Some(5.0), Some(30.0), Some(200.0)][rng.below(4)];
            let (down, a) = (rng.next_f64() * 300.0, rng.below(n));
            // Crashes and heals land while the ~20 ms legs are running;
            // node 0 is protected, its peer n/2 is not (partitions).
            let tl = FailureTimeline::random_crashes(n, p_crash, 300.0, recover, rng.next_u64())
                .without_node(0)
                .link_flap(down, down + rng.next_f64() * 100.0, a, (a + 1) % n)
                .loss_burst(20.0, 150.0, 0.3)
                .with_seed(rng.next_u64());
            let cfg = SimConfig {
                rto_ms: 60.0,
                max_attempts: 6,
                backoff_factor: 1.5,
                rto_cap_ms: 300.0,
                retry_on_partition: case % 2 == 0,
                total_deadline_ms: 2_000.0,
                loss_per_hop: true,
                ..SimConfig::default()
            };
            let sim = ProcedureSim::with_timeline(&g, &tl, cfg);
            let seed = rng.next_u64();
            let got = sim.run_in(&steps, &mut LossProcess::new(0.05, seed), &mut memo);
            let want = sim.run_in(&steps, &mut LossProcess::new(0.05, seed), &mut oracle);
            assert_eq!(got, want, "case {case}");
            blocked += usize::from(!got.completed);
        }
        assert!((50..550).contains(&blocked), "{blocked} of 600 blocked");
    }

    /// Diamond of `chaos_reroute_mid_procedure` (healthy route 0-1-3,
    /// detour 0-2-3) with a spur 2—4 off both.
    fn diamond_with_spur() -> Graph {
        let mut g = Graph::new(5);
        g.add_bidirectional(0, 1, 5.0);
        g.add_bidirectional(1, 3, 5.0);
        g.add_bidirectional(0, 2, 20.0);
        g.add_bidirectional(2, 3, 20.0);
        g.add_bidirectional(2, 4, 1.0);
        g
    }

    #[test]
    fn crashes_off_the_healthy_route_search_nothing() {
        let g = diamond_with_spur();
        // Both crashes, a recovery (a heal) and a flap of an unused
        // link land while the legs run: none touches 0-1-3.
        let tl = FailureTimeline::none()
            .crash(0.0, 2)
            .crash(12.0, 4)
            .recover(30.0, 2)
            .link_flap(5.0, 25.0, 0, 2);
        let sim = ProcedureSim::with_timeline(&g, &tl, SimConfig::default());
        let steps = steps_from_pairs(&[("up", 0, 3), ("down", 3, 0), ("up", 0, 3)]);
        let mut scratch = SimScratch::new(&g);
        for _ in 0..5 {
            let o = sim.run_in(&steps, &mut LossProcess::new(0.0, 1), &mut scratch);
            assert_eq!(o, sim.run(&steps, &mut LossProcess::new(0.0, 1)));
            assert!((o.latency_ms - 33.0).abs() < 1e-9, "{}", o.latency_ms);
        }
        // One failure-free search per pair, over all five replays.
        assert_eq!(scratch.routes.searches(), 2);
    }

    #[test]
    fn dead_node_on_the_healthy_route_costs_one_view_search() {
        let g = diamond_with_spur();
        let tl = FailureTimeline::none()
            .crash(0.0, 1)
            .loss_burst(40.0, 60.0, 0.5)
            .recover(100.0, 1)
            .crash(150.0, 1);
        let obs = Recorder::disabled();
        let mut cursor = tl.cursor();
        let mut memo = RouteMemo::new(&g);
        let detour = Some((40.0, 2));
        let healthy = Some((10.0, 2));
        // Node 1 dead: the failure-free search, then one of the view —
        // and none again while no event touches the route (the burst
        // does not).
        for (t, want, searches) in [
            (0.0, detour, 2),
            (20.0, detour, 2),
            (50.0, detour, 2),
            // The heal drops the entry; the healthy route stands again.
            (100.0, healthy, 2),
            (120.0, healthy, 2),
            // The next crash on it drops it once more: one view search.
            (150.0, detour, 3),
            (200.0, detour, 3),
        ] {
            memo.observe(cursor.advance_to(t, &obs));
            for _ in 0..3 {
                assert_eq!(memo.resolve(&cursor, 0, 3), want, "t = {t}");
            }
            assert_eq!(memo.searches(), searches, "t = {t}");
        }
    }

    #[test]
    fn each_destination_gets_one_potential_that_outlives_clear() {
        let g = diamond_with_spur();
        // Node 1 dead from the start breaks the healthy routes 0-1-3 and
        // 3-1-0 both ways: each replay searches the view once per pair.
        let tl = FailureTimeline::none().crash(0.0, 1);
        let obs = Recorder::disabled();
        let mut memo = RouteMemo::new(&g);
        for replay in 1..=3 {
            memo.clear();
            // The potentials of the replays before are still there.
            let dsts: Vec<NodeId> = memo.potentials.iter().map(|p| p.dst()).collect();
            assert_eq!(dsts, if replay == 1 { vec![] } else { vec![3, 0] });
            let mut cursor = tl.cursor();
            memo.observe(cursor.advance_to(0.0, &obs));
            assert_eq!(memo.resolve(&cursor, 0, 3), Some((40.0, 2)));
            assert_eq!(memo.resolve(&cursor, 3, 0), Some((40.0, 2)));
            // The failure-free searches once, the view's once a replay;
            // the potentials' searches are not counted.
            assert_eq!(memo.searches(), 2 + 2 * replay);
        }
        // One potential per destination, each the failure-free distance.
        assert_eq!(memo.potentials.len(), 2);
        let h = |p: &Potential| (0..g.len()).map(|v| p.at(v)).collect::<Vec<_>>();
        assert_eq!(h(&memo.potentials[0]), [10.0, 5.0, 20.0, 0.0, 21.0]);
        assert_eq!(h(&memo.potentials[1]), [0.0, 5.0, 20.0, 10.0, 21.0]);
    }

    #[test]
    #[should_panic(expected = "bound to another graph")]
    fn scratch_of_another_graph_is_refused() {
        let (g, other) = (line(), line());
        let nf = no_failures();
        let sim = ProcedureSim::with_timeline(&g, &nf, SimConfig::default());
        let steps = steps_from_pairs(&[("a", 0, 3)]);
        let mut scratch = SimScratch::new(&other);
        sim.run_in(&steps, &mut LossProcess::new(0.0, 1), &mut scratch);
    }

    #[test]
    fn reused_scratch_equals_fresh_runs() {
        let g = line();
        // Node 2 dies at t = 15 ms: while the first leg is on the wire.
        let tl = FailureTimeline::none().crash(15.0, 2);
        let long = steps_from_pairs(&[("a", 0, 1), ("b", 1, 0), ("c", 0, 1), ("d", 1, 1)]);
        let short = steps_from_pairs(&[("a", 0, 1)]);
        // Legacy abort-on-partition: leg "b" finds 0 cut off and the run
        // blocks with leg "a"'s RTO timer still queued.
        let cut = steps_from_pairs(&[("a", 0, 3), ("b", 3, 0)]);
        let rec_reused = Recorder::new();
        let rec_fresh = Recorder::new();
        let traced = |rec: &Recorder| {
            ProcedureSim::with_timeline(&g, &tl, SimConfig::default()).with_recorder(rec.clone())
        };
        let quiet = ProcedureSim::with_timeline(&g, &tl, SimConfig::default());
        let mut scratch = SimScratch::new(&g);
        let loss = || LossProcess::new(0.2, 9);

        // A traced run, then quiet ones on the same scratch — run 0 and
        // runs 1–39 of an `ext_chaos` cell.
        let first = traced(&rec_reused).run_in(&long, &mut loss(), &mut scratch);
        assert_eq!(first, traced(&rec_fresh).run(&long, &mut loss()));
        for steps in [&short, &cut, &long, &[][..], &cut, &short] {
            let reused = quiet.run_in(steps, &mut loss(), &mut scratch);
            assert_eq!(reused, quiet.run(steps, &mut loss()));
        }
        // Leg "a" went through on its first transmission (so its timer
        // is the queued event) and leg "b" never left.
        let o = quiet.run(&cut, &mut loss());
        assert!(
            !o.completed && o.transmissions == 2 && o.deliveries.len() == 1,
            "{o:?}"
        );
        // The quiet runs added nothing to the first run's recorder.
        assert_eq!(rec_reused.snapshot(), rec_fresh.snapshot());
        assert_eq!(rec_fresh.snapshot().counter("netsim.sim.procedures"), 1);
    }

    #[test]
    fn longer_procedures_are_more_fragile() {
        // §3.3: "any signaling loss/error can block the entire
        // procedure" — completion probability decays with step count.
        let g = line();
        let nf = no_failures();
        let cfg = SimConfig {
            max_attempts: 1, // no retries: raw fragility
            ..SimConfig::default()
        };
        let sim = ProcedureSim::with_timeline(&g, &nf, cfg);
        let long: Vec<SimStep> =
            steps_from_pairs(&(0..24).map(|_| ("s", 0usize, 3usize)).collect::<Vec<_>>());
        let short: Vec<SimStep> =
            steps_from_pairs(&(0..4).map(|_| ("s", 0usize, 3usize)).collect::<Vec<_>>());
        let mut long_ok = 0;
        let mut short_ok = 0;
        for seed in 0..300 {
            if sim.run(&long, &mut LossProcess::new(0.05, seed)).completed {
                long_ok += 1;
            }
            if sim.run(&short, &mut LossProcess::new(0.05, seed + 1000)).completed {
                short_ok += 1;
            }
        }
        assert!(short_ok > long_ok + 30, "short {short_ok} long {long_ok}");
    }
}
