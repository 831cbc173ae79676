//! Deterministic chaos injection: sim-time-ordered failure timelines.
//!
//! A [`FailureTimeline`] is the one failure view of the simulator: a set
//! of nodes dead from t = 0 — "what if these satellites were already
//! gone when the procedure started?", the Figure 13a decay regime — plus
//! a seeded, time-ordered schedule of events for the harder §3.3
//! question: what happens when a satellite dies *mid-procedure*, a laser
//! link flaps while a message is in flight, or a radio-link loss burst
//! (Fig. 13b) opens right as a signaling exchange begins.
//! [`crate::sim::ProcedureSim`] consults it as the DES clock advances,
//! so routing reroutes around nodes that died after the procedure
//! started (when a route is re-resolved is `sim`'s business: see its
//! module doc).
//!
//! Everything is deterministic: the schedule is fixed up front, burst
//! loss draws come from a counted splitmix64 hash stream keyed by the
//! timeline seed (so the n-th draw is a pure function of `(seed, n)`,
//! never of which cursor clone evaluates it), and event application
//! order is (time, insertion order) — [`FailureTimeline`] inserts each
//! new event after every event scheduled at or before its time — so
//! chaos runs replay bit-identically, the property the `ext_chaos`
//! experiment's byte-stability checks enforce. Engines that replay one
//! timeline against many independent UEs use
//! [`ChaosCursor::burst_loss_keyed`] instead: the loss decision is keyed
//! by `(seed, entity, draw#)` and is therefore invariant to which cursor
//! evaluates it and in what order.
//!
//! Event times are quantized to the integer-microsecond grid on insert
//! ([`quantize_ms_to_us_grid`]) — the same tick resolution
//! `spacecore::shard::CellLedger` accounts busy-time in — so a chaos
//! window split across `drain_until` batch boundaries lands on exactly
//! the same tick no matter how the batches are cut.

use crate::failure::Xorshift64;
use crate::topo::NodeId;
use sc_obs::{FieldValue, Recorder};
use std::collections::HashSet;

/// Quantize a simulated time (ms) onto the integer-microsecond tick
/// grid. `CellLedger` integrates busy time in integer µs ticks; chaos
/// windows that open and close on the same grid sum exactly across
/// `drain_until` batch boundaries, where a raw f64 ms timestamp could
/// straddle a tick.
pub fn quantize_ms_to_us_grid(t_ms: f64) -> f64 {
    (t_ms * 1000.0).round() / 1000.0
}

/// One chaos action, applied at a scheduled simulated time.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Node (satellite or ground station) fails: it blocks routing and
    /// cannot source or sink messages.
    Crash(NodeId),
    /// Node comes back (replacement satellite slots in, reboot, …).
    Recover(NodeId),
    /// Undirected link becomes unusable (laser misalignment, §3.2).
    LinkDown(NodeId, NodeId),
    /// Undirected link realigns.
    LinkUp(NodeId, NodeId),
    /// A loss-burst window opens: every transmission additionally
    /// suffers Bernoulli(`p_loss`) loss — the bad state of a
    /// Gilbert–Elliott process (Fig. 13b), scheduled explicitly.
    BurstStart {
        /// Extra per-transmission loss probability while the window is open.
        p_loss: f64,
    },
    /// The most recent open burst window closes (LIFO on overlap).
    BurstEnd,
}

/// An action bound to its simulated time (ms, the DES unit).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// Simulated time the action takes effect, ms.
    pub time_ms: f64,
    /// What happens.
    pub action: ChaosAction,
}

impl ChaosEvent {
    /// `action` at `t_ms` quantized to the µs grid.
    fn at(t_ms: f64, action: ChaosAction) -> Self {
        assert!(t_ms >= 0.0 && t_ms.is_finite(), "bad chaos time {t_ms}");
        Self { time_ms: quantize_ms_to_us_grid(t_ms), action }
    }
}

/// A sim-time-ordered schedule of failure events.
///
/// Build one with the fluent methods ([`Self::dead_from_start`],
/// [`Self::crash`], [`Self::link_flap`], [`Self::loss_burst`], …) or
/// generate a seeded random one with [`Self::random_dead`] (decay: dead
/// before the run) or [`Self::random_crashes`] (crashes during it).
#[derive(Debug, Default, PartialEq)]
pub struct FailureTimeline {
    /// Sorted by `time_ms`; ties keep insertion order.
    events: Vec<ChaosEvent>,
    /// Nodes dead from t = 0, ascending and unique.
    initial_dead: Vec<NodeId>,
    /// Seed for the replay cursor's burst-loss draws.
    seed: u64,
}

/// A clone is made to be extended (`ext_chaos` appends each solution's
/// loss burst and re-crash to a shared schedule), so its events keep
/// room for those four pushes instead of doubling on the first one.
/// [`Clone::clone_from`] copies into the target's own buffers, so a
/// timeline reused for one replay after another allocates only when a
/// schedule outgrows every earlier one.
impl Clone for FailureTimeline {
    fn clone(&self) -> Self {
        let mut copy = Self::default();
        copy.clone_from(self);
        copy
    }

    fn clone_from(&mut self, source: &Self) {
        self.events.clear();
        self.events.reserve(source.events.len() + 4);
        self.events.extend_from_slice(&source.events);
        self.initial_dead.clone_from(&source.initial_dead);
        self.seed = source.seed;
    }
}

impl FailureTimeline {
    /// The empty timeline: nothing ever fails.
    pub fn none() -> Self {
        Self::default()
    }

    /// Satellite decay: each of `num_nodes` nodes is independently dead
    /// from t = 0 with probability `p_dead` (Fig. 13a: ~1/40 ≈ 0.025 for
    /// Starlink). No events are scheduled, so nothing recovers.
    pub fn random_dead(num_nodes: usize, p_dead: f64, seed: u64) -> Self {
        let mut rng = Xorshift64::new(seed);
        Self {
            initial_dead: (0..num_nodes).filter(|_| rng.chance(p_dead)).collect(),
            ..Self::default()
        }
    }

    /// Seeded random crash schedule over `num_nodes` nodes: each node
    /// independently crashes with probability `p_crash`, at a uniform
    /// time in `[0, horizon_ms)`; with `recover_after_ms = Some(d)` it
    /// recovers `d` ms after crashing (satellite replacement), with
    /// `None` it stays down.
    pub fn random_crashes(
        num_nodes: usize,
        p_crash: f64,
        horizon_ms: f64,
        recover_after_ms: Option<f64>,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&p_crash));
        assert!(horizon_ms >= 0.0 && horizon_ms.is_finite());
        // No draw can succeed, and the generator is this call's own.
        if p_crash == 0.0 {
            return Self { seed, ..Self::default() };
        }
        let mut rng = Xorshift64::new(seed);
        let mut events = Vec::new();
        for node in 0..num_nodes {
            if rng.chance(p_crash) {
                let t = rng.next_f64() * horizon_ms;
                events.push(ChaosEvent::at(t, ChaosAction::Crash(node)));
                if let Some(d) = recover_after_ms {
                    events.push(ChaosEvent::at(t + d, ChaosAction::Recover(node)));
                }
            }
        }
        // `push`'s order — after every event at or before its time — is
        // the order of (time, push index): one sort instead of an insert
        // per event. The loop above pushes node by node, each node's
        // crash before its recovery, so (node, is recovery) ranks the
        // pushes. The keys are unique, so an unstable sort, in place, is
        // that order exactly.
        let pushed = |e: &ChaosEvent| match e.action {
            ChaosAction::Crash(n) => (n, false),
            ChaosAction::Recover(n) => (n, true),
            // Never pushed above; any fixed rank keeps the order total.
            _ => (NodeId::MAX, true),
        };
        events.sort_unstable_by(|a, b| {
            a.time_ms
                .total_cmp(&b.time_ms)
                .then_with(|| pushed(a).cmp(&pushed(b)))
        });
        Self { events, seed, ..Self::default() }
    }

    /// Seed for burst-loss draws (deterministic per timeline).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// `node` is dead from t = 0 — before any event, with no crash
    /// telemetry. A scheduled [`Self::recover`] can still revive it.
    pub fn dead_from_start(mut self, node: NodeId) -> Self {
        if let Err(at) = self.initial_dead.binary_search(&node) {
            self.initial_dead.insert(at, node);
        }
        self
    }

    /// Schedule a node crash at `t_ms`. `t_ms = 0.0` routes exactly as
    /// [`Self::dead_from_start`] does.
    pub fn crash(self, t_ms: f64, node: NodeId) -> Self {
        self.push(t_ms, ChaosAction::Crash(node))
    }

    /// Schedule a node recovery at `t_ms`.
    pub fn recover(self, t_ms: f64, node: NodeId) -> Self {
        self.push(t_ms, ChaosAction::Recover(node))
    }

    /// Take the undirected link `a`–`b` down over `[t_down_ms, t_up_ms)`.
    pub fn link_flap(self, t_down_ms: f64, t_up_ms: f64, a: NodeId, b: NodeId) -> Self {
        assert!(t_down_ms <= t_up_ms, "link flap must end after it starts");
        self.push(t_down_ms, ChaosAction::LinkDown(a, b))
            .push(t_up_ms, ChaosAction::LinkUp(a, b))
    }

    /// Open a loss-burst window over `[t_start_ms, t_end_ms)` during
    /// which every transmission additionally suffers Bernoulli(`p_loss`)
    /// loss. Overlapping windows nest LIFO; the innermost probability
    /// applies.
    pub fn loss_burst(self, t_start_ms: f64, t_end_ms: f64, p_loss: f64) -> Self {
        assert!(t_start_ms <= t_end_ms, "burst must end after it starts");
        assert!((0.0..=1.0).contains(&p_loss));
        self.push(t_start_ms, ChaosAction::BurstStart { p_loss })
            .push(t_end_ms, ChaosAction::BurstEnd)
    }

    /// Strip every event touching `node` (and remove it from the initial
    /// dead set) — used to protect an endpoint the scenario requires
    /// alive, e.g. the satellite the UE re-establishes to.
    pub fn without_node(mut self, node: NodeId) -> Self {
        self.events.retain(|e| match e.action {
            ChaosAction::Crash(n) | ChaosAction::Recover(n) => n != node,
            ChaosAction::LinkDown(a, b) | ChaosAction::LinkUp(a, b) => a != node && b != node,
            ChaosAction::BurstStart { .. } | ChaosAction::BurstEnd => true,
        });
        self.initial_dead.retain(|&n| n != node);
        self
    }

    /// The scheduled events, in replay order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Nodes dead from t = 0.
    pub fn initial_dead(&self) -> &[NodeId] {
        &self.initial_dead
    }

    /// No events and no initially-dead nodes?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.initial_dead.is_empty()
    }

    /// Start a replay cursor at t = 0.
    pub fn cursor(&self) -> ChaosCursor<'_> {
        // Sized from the initial dead set (ascending, so its last id is
        // the largest); a crash beyond it grows the set, and ids beyond
        // its length are alive.
        let len = self.initial_dead.last().map_or(0, |&n| n + 1);
        let mut dead = vec![false; len];
        for &n in &self.initial_dead {
            dead[n] = true;
        }
        ChaosCursor {
            timeline: self,
            next: 0,
            dead,
            dead_count: self.initial_dead.len(),
            links_down: HashSet::new(),
            bursts: Vec::new(),
            draw_seed: self.seed.wrapping_add(0x051C_4A05),
            draws: 0,
        }
    }

    fn push(mut self, t_ms: f64, action: ChaosAction) -> Self {
        let ev = ChaosEvent::at(t_ms, action);
        // After every event at or before its time — the order a push
        // followed by a stable sort gives, without the sort — so replay
        // order is a pure function of the build sequence.
        let at = self
            .events
            .partition_point(|e| e.time_ms.total_cmp(&ev.time_ms).is_le());
        self.events.insert(at, ev);
        self
    }
}

/// Monotone replay cursor over a [`FailureTimeline`].
///
/// [`Self::advance_to`] applies every event scheduled at or before the
/// given time (the DES pops events in time order, so the cursor only
/// moves forward); the query methods then answer for "now". Chaos
/// telemetry (`netsim.chaos.*` counters, `chaos.crash` /
/// `chaos.recover` events stamped with the *scheduled* sim-time) is
/// emitted as events are applied.
///
/// The dead set is dense — `dead[node]`, plus a count — because routing
/// asks [`Self::is_dead`] once per relaxed edge. It starts as long as
/// the initial dead set needs and grows on a crash beyond its end, to
/// the next power of two past the crashed id (so the replays of a sweep
/// ask the allocator for a handful of sizes, which it reuses); an id
/// beyond its end is alive.
#[derive(Debug, Clone)]
pub struct ChaosCursor<'a> {
    timeline: &'a FailureTimeline,
    /// Next unapplied event index.
    next: usize,
    dead: Vec<bool>,
    dead_count: usize,
    /// Normalized (min, max) undirected down links.
    links_down: HashSet<(NodeId, NodeId)>,
    /// LIFO stack of open burst-window probabilities.
    bursts: Vec<f64>,
    /// Burst-draw hash-stream key (timeline seed, domain-separated).
    draw_seed: u64,
    /// Draws consumed from the cursor's own stream ([`Self::burst_loss`]).
    draws: u64,
}

/// splitmix64 finalizer — the same stateless hash stream the
/// load engines key their per-UE draws with.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Top 53 bits of a hash as a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl<'a> ChaosCursor<'a> {
    /// Apply every event with `time_ms <= t_ms`; returns the events
    /// this call applied, in replay order (empty when none were due).
    pub fn advance_to(&mut self, t_ms: f64, obs: &Recorder) -> &'a [ChaosEvent] {
        let first = self.next;
        while let Some(ev) = self.timeline.events.get(self.next) {
            if ev.time_ms > t_ms {
                break;
            }
            match ev.action {
                ChaosAction::Crash(n) => {
                    if n >= self.dead.len() {
                        self.dead.resize((n + 1).next_power_of_two(), false);
                    }
                    if !self.dead[n] {
                        self.dead[n] = true;
                        self.dead_count += 1;
                        obs.inc("netsim.chaos.crashes", 1);
                        obs.event(ev.time_ms, "chaos.crash", vec![("node", FieldValue::from(n))]);
                    }
                }
                ChaosAction::Recover(n) => {
                    if self.is_dead(n) {
                        self.dead[n] = false;
                        self.dead_count -= 1;
                        obs.inc("netsim.chaos.recoveries", 1);
                        obs.event(
                            ev.time_ms,
                            "chaos.recover",
                            vec![("node", FieldValue::from(n))],
                        );
                    }
                }
                ChaosAction::LinkDown(a, b) => {
                    if self.links_down.insert((a.min(b), a.max(b))) {
                        obs.inc("netsim.chaos.link_downs", 1);
                    }
                }
                ChaosAction::LinkUp(a, b) => {
                    if self.links_down.remove(&(a.min(b), a.max(b))) {
                        obs.inc("netsim.chaos.link_ups", 1);
                    }
                }
                ChaosAction::BurstStart { p_loss } => {
                    self.bursts.push(p_loss);
                    obs.inc("netsim.chaos.burst_windows", 1);
                }
                ChaosAction::BurstEnd => {
                    self.bursts.pop();
                }
            }
            self.next += 1;
        }
        &self.timeline.events[first..self.next]
    }

    /// Is `node` dead right now?
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead.get(node).is_some_and(|&d| d)
    }

    /// Is the undirected link `a`–`b` down right now?
    pub fn link_down(&self, a: NodeId, b: NodeId) -> bool {
        !self.links_down.is_empty() && self.links_down.contains(&(a.min(b), a.max(b)))
    }

    /// Number of currently-dead nodes.
    pub fn dead_count(&self) -> usize {
        self.dead_count
    }

    /// Draw one burst loss for a transmission happening now. Consumes
    /// cursor randomness only while a burst window is open, so runs
    /// without bursts never touch the draw counter. The n-th draw is a
    /// pure function of `(timeline seed, n)` — a counted hash stream,
    /// not evolving RNG state — so a cursor clone replaying the same
    /// draw sequence reproduces the same losses bit-for-bit.
    pub fn burst_loss(&mut self, obs: &Recorder) -> bool {
        let Some(&p) = self.bursts.last() else {
            return false;
        };
        let u = unit(mix64(self.draw_seed ^ mix64(self.draws)));
        self.draws += 1;
        let lost = u < p;
        if lost {
            obs.inc("netsim.chaos.burst_losses", 1);
        }
        lost
    }

    /// Keyed burst-loss draw for per-entity fan-out: the decision for
    /// `(key, draw)` — e.g. a UE id and that UE's own draw counter — is
    /// a pure hash of `(timeline seed, key, draw)`, so it does not
    /// depend on which cursor evaluates it or in what order queries
    /// interleave. Like [`Self::burst_loss`], it
    /// only draws while a burst window is open.
    pub fn burst_loss_keyed(&self, key: u64, draw: u64, obs: &Recorder) -> bool {
        let Some(&p) = self.bursts.last() else {
            return false;
        };
        let u = unit(mix64(mix64(self.draw_seed ^ key).wrapping_add(draw)));
        let lost = u < p;
        if lost {
            obs.inc("netsim.chaos.burst_losses", 1);
        }
        lost
    }

    /// Is a loss-burst window currently open?
    pub fn in_burst(&self) -> bool {
        !self.bursts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_timeline_blocks_nothing() {
        let tl = FailureTimeline::none();
        assert!(tl.is_empty());
        let mut c = tl.cursor();
        let obs = Recorder::disabled();
        c.advance_to(1e9, &obs);
        assert!(!c.is_dead(0));
        assert!(!c.link_down(0, 1));
        assert!(!c.burst_loss(&obs));
    }

    #[test]
    fn initially_dead_nodes_are_dead_from_time_zero() {
        let tl = FailureTimeline::none()
            .dead_from_start(7)
            .dead_from_start(3)
            .dead_from_start(7);
        assert_eq!(tl.initial_dead(), &[3, 7], "ascending, unique");
        // Dead before the first event is applied, and with no event
        // scheduled, for good.
        let mut c = tl.cursor();
        assert!(c.is_dead(3) && c.is_dead(7) && !c.is_dead(4));
        assert_eq!(c.dead_count(), 2);
        c.advance_to(1e12, &Recorder::disabled());
        assert!(c.is_dead(3));
    }

    #[test]
    fn random_dead_is_seeded_decay() {
        let tl = FailureTimeline::random_dead(10_000, 0.025, 3);
        assert_eq!(tl, FailureTimeline::random_dead(10_000, 0.025, 3));
        assert!(tl.events().is_empty());
        let frac = tl.initial_dead().len() as f64 / 10_000.0;
        assert!((frac - 0.025).abs() < 0.01, "{frac}");
        assert!(tl.initial_dead().windows(2).all(|w| w[0] < w[1]));
        assert!(FailureTimeline::random_dead(100, 0.0, 3).is_empty());
    }

    #[test]
    fn crash_then_recover_applies_in_order() {
        let tl = FailureTimeline::none().crash(100.0, 5).recover(400.0, 5);
        let obs = Recorder::new();
        let mut c = tl.cursor();
        c.advance_to(99.9, &obs);
        assert!(!c.is_dead(5));
        c.advance_to(100.0, &obs);
        assert!(c.is_dead(5));
        assert_eq!(c.dead_count(), 1);
        c.advance_to(400.0, &obs);
        assert!(!c.is_dead(5));
        let s = obs.snapshot();
        assert_eq!(s.counter("netsim.chaos.crashes"), 1);
        assert_eq!(s.counter("netsim.chaos.recoveries"), 1);
        // Events are stamped with the scheduled time, not the query time.
        let kinds: Vec<(f64, &str)> = s
            .events
            .iter()
            .map(|e| (e.t, e.kind))
            .collect();
        assert_eq!(kinds, vec![(100.0, "chaos.crash"), (400.0, "chaos.recover")]);
    }

    #[test]
    fn link_flap_window() {
        let tl = FailureTimeline::none().link_flap(10.0, 20.0, 8, 2);
        let mut c = tl.cursor();
        let obs = Recorder::disabled();
        c.advance_to(9.0, &obs);
        assert!(!c.link_down(2, 8));
        c.advance_to(10.0, &obs);
        assert!(c.link_down(2, 8));
        assert!(c.link_down(8, 2), "undirected");
        assert!(!c.link_down(2, 9));
        c.advance_to(20.0, &obs);
        assert!(!c.link_down(2, 8));
    }

    #[test]
    fn burst_window_draws_only_while_open() {
        let tl = FailureTimeline::none()
            .loss_burst(50.0, 150.0, 1.0)
            .with_seed(9);
        let obs = Recorder::new();
        let mut c = tl.cursor();
        c.advance_to(0.0, &obs);
        assert!(!c.in_burst());
        assert!(!c.burst_loss(&obs));
        c.advance_to(60.0, &obs);
        assert!(c.in_burst());
        assert!(c.burst_loss(&obs), "p = 1.0 always loses");
        c.advance_to(150.0, &obs);
        assert!(!c.in_burst());
        assert!(!c.burst_loss(&obs));
        assert_eq!(obs.snapshot().counter("netsim.chaos.burst_losses"), 1);
    }

    #[test]
    fn random_crashes_seeded_and_recovering() {
        let tl = FailureTimeline::random_crashes(1000, 0.1, 5_000.0, Some(2_000.0), 7);
        let again = FailureTimeline::random_crashes(1000, 0.1, 5_000.0, Some(2_000.0), 7);
        assert_eq!(tl, again, "same seed, same schedule");
        let other = FailureTimeline::random_crashes(1000, 0.1, 5_000.0, Some(2_000.0), 8);
        assert_ne!(tl, other, "different seed, different schedule");
        let crashes = tl
            .events()
            .iter()
            .filter(|e| matches!(e.action, ChaosAction::Crash(_)))
            .count();
        let recoveries = tl
            .events()
            .iter()
            .filter(|e| matches!(e.action, ChaosAction::Recover(_)))
            .count();
        assert_eq!(crashes, recoveries, "every crash schedules a recovery");
        assert!((50..=150).contains(&crashes), "{crashes} crashes at p=0.1");
        // Fully replayed, everything has recovered.
        let mut c = tl.cursor();
        c.advance_to(f64::MAX, &Recorder::disabled());
        assert_eq!(c.dead_count(), 0);
    }

    #[test]
    fn without_node_protects_it() {
        let tl = FailureTimeline::random_crashes(100, 1.0, 1_000.0, None, 3);
        let mut c = tl.cursor();
        c.advance_to(1_000.0, &Recorder::disabled());
        assert!(c.is_dead(42));
        let protected = tl.without_node(42);
        let mut c = protected.cursor();
        c.advance_to(1_000.0, &Recorder::disabled());
        assert!(!c.is_dead(42));
        assert_eq!(c.dead_count(), 99);
    }

    #[test]
    fn event_times_quantize_to_the_microsecond_grid() {
        // 0.1 ms is not exactly representable; the grid snaps it so the
        // stored tick count is integral.
        let tl = FailureTimeline::none()
            .crash(0.1 + 1e-9, 1)
            .recover(1_234.567_890_1, 1);
        for e in tl.events() {
            let ticks = e.time_ms * 1000.0;
            assert_eq!(ticks, ticks.round(), "time {} not on µs grid", e.time_ms);
        }
        assert_eq!(tl.events()[0].time_ms, 0.1);
        assert_eq!(tl.events()[1].time_ms, 1234.568);
        // Monotone: quantization never reorders a flap window.
        let flap = FailureTimeline::none().link_flap(9.999_999_6, 10.000_000_4, 0, 1);
        assert!(flap.events()[0].time_ms <= flap.events()[1].time_ms);
    }

    #[test]
    fn burst_stream_is_counted_not_stateful() {
        let tl = FailureTimeline::none()
            .loss_burst(0.0, 1_000.0, 0.5)
            .with_seed(42);
        let obs = Recorder::disabled();
        let mut a = tl.cursor();
        a.advance_to(10.0, &obs);
        let seq_a: Vec<bool> = (0..64).map(|_| a.burst_loss(&obs)).collect();
        // A fresh cursor replays the identical sequence: draws are a
        // function of (seed, draw#), not of accumulated RNG state.
        let mut b = tl.cursor();
        b.advance_to(500.0, &obs);
        let seq_b: Vec<bool> = (0..64).map(|_| b.burst_loss(&obs)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&l| l) && seq_a.iter().any(|&l| !l), "p=0.5 mixes");
    }

    #[test]
    fn keyed_burst_draws_are_order_and_cursor_independent() {
        let tl = FailureTimeline::none()
            .loss_burst(0.0, 1_000.0, 0.4)
            .with_seed(7);
        let obs = Recorder::disabled();
        let mut c1 = tl.cursor();
        c1.advance_to(1.0, &obs);
        let mut c2 = tl.cursor();
        c2.advance_to(999.0, &obs);
        // Interleaved vs sequential query order, different cursors:
        // every (key, draw) decision matches.
        for key in 0..50u64 {
            for draw in 0..4u64 {
                assert_eq!(
                    c1.burst_loss_keyed(key, draw, &obs),
                    c2.burst_loss_keyed(key, draw, &obs)
                );
            }
        }
        // Consuming the cursor's own stream does not perturb keyed draws.
        let before = c1.burst_loss_keyed(3, 0, &obs);
        c1.burst_loss(&obs);
        assert_eq!(before, c1.burst_loss_keyed(3, 0, &obs));
        // Outside a burst window nothing is ever lost.
        let mut closed = tl.cursor();
        closed.advance_to(2_000.0, &obs);
        assert!(!closed.burst_loss_keyed(3, 0, &obs));
    }

    #[test]
    fn clone_equals_its_source_and_takes_four_pushes_in_place() {
        let base = FailureTimeline::random_crashes(500, 0.2, 100.0, Some(10.0), 3)
            .dead_from_start(7)
            .with_seed(11);
        let copy = base.clone();
        assert_eq!(copy, base);
        let room = copy.events.capacity();
        let grown = copy.loss_burst(0.0, 50.0, 0.3).crash(20.0, 1).recover(30.0, 1);
        assert_eq!(grown.events.capacity(), room);
        assert_eq!(grown.events.len(), base.events.len() + 4);
    }

    #[test]
    fn insert_order_equals_push_then_stable_sort() {
        let mut rng = Xorshift64::new(11);
        let mut tl = FailureTimeline::none();
        let mut reference = Vec::new();
        for node in 0..200 {
            let t = rng.below(20) as f64 * 0.5; // twenty slots: mostly ties
            tl = tl.crash(t, node);
            reference.push(ChaosEvent {
                time_ms: t,
                action: ChaosAction::Crash(node),
            });
        }
        reference.sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms));
        assert_eq!(tl.events(), reference);
    }

    #[test]
    fn advance_to_returns_the_events_it_applied() {
        let tl = FailureTimeline::none()
            .crash(10.0, 4)
            .link_flap(10.0, 30.0, 1, 2)
            .recover(20.0, 4);
        let obs = Recorder::disabled();
        let mut c = tl.cursor();
        assert!(c.advance_to(9.0, &obs).is_empty());
        let applied = c.advance_to(10.0, &obs);
        assert_eq!(applied, &tl.events()[..2]);
        // The slice borrows the timeline, not the cursor.
        assert!(c.is_dead(4) && c.link_down(2, 1));
        assert!(
            c.advance_to(10.0, &obs).is_empty(),
            "nothing is applied twice"
        );
        assert_eq!(c.advance_to(1e9, &obs), &tl.events()[2..]);
    }

    #[test]
    fn crash_past_the_initial_dead_set_grows_it() {
        let tl = FailureTimeline::none()
            .dead_from_start(2)
            .crash(5.0, 40)
            .crash(6.0, 9)
            .recover(7.0, 2);
        let obs = Recorder::new();
        let mut c = tl.cursor();
        assert_eq!(c.dead.len(), 3, "sized from the initial dead set");
        assert!(c.is_dead(2) && !c.is_dead(3) && !c.is_dead(40) && !c.is_dead(1_000));
        c.advance_to(5.0, &obs);
        assert!(c.dead.len() > 40, "grown by the crash of 40");
        assert!(c.is_dead(40) && c.is_dead(2) && !c.is_dead(39) && !c.is_dead(41));
        assert!(!c.is_dead(c.dead.len()), "beyond the length is alive");
        c.advance_to(7.0, &obs);
        assert!(c.is_dead(9) && c.is_dead(40) && !c.is_dead(2));
        assert_eq!(c.dead_count(), 2);
        assert_eq!(obs.snapshot().counter("netsim.chaos.crashes"), 2);
        assert_eq!(obs.snapshot().counter("netsim.chaos.recoveries"), 1);
        // With nothing dead from the start, the set starts empty.
        assert!(FailureTimeline::none().crash(1.0, 3).cursor().dead.is_empty());
    }

    #[test]
    fn clone_from_reuses_the_target_and_equals_a_clone() {
        let big = FailureTimeline::random_crashes(500, 0.2, 100.0, Some(10.0), 3)
            .dead_from_start(7)
            .with_seed(11);
        let small = FailureTimeline::random_crashes(50, 0.2, 100.0, None, 4).with_seed(5);
        let mut buf = FailureTimeline::none();
        buf.clone_from(&big);
        assert_eq!(buf, big.clone());
        let room = buf.events.capacity();
        assert!(room >= big.events.len() + 4);
        buf.clone_from(&small);
        assert_eq!(buf, small);
        assert_eq!(buf.events.capacity(), room, "the larger buffer is kept");
    }

    #[test]
    fn zero_crash_rate_is_the_empty_schedule() {
        for n in [0, 1, 1_584] {
            let tl = FailureTimeline::random_crashes(n, 0.0, 5_000.0, Some(500.0), 9);
            assert!(tl.is_empty());
            assert_eq!(tl, FailureTimeline::none().with_seed(9));
        }
    }

    #[test]
    fn dense_view_treats_unnamed_ids_as_alive() {
        // The view grows to the largest id that has crashed (here 7);
        // queries and recoveries beyond it are alive.
        let tl = FailureTimeline::none().crash(5.0, 7).recover(6.0, 1_000);
        let obs = Recorder::new();
        let mut c = tl.cursor();
        c.advance_to(10.0, &obs);
        assert!(c.is_dead(7) && !c.is_dead(8) && !c.is_dead(1_000));
        assert_eq!(c.dead_count(), 1);
        assert_eq!(obs.snapshot().counter("netsim.chaos.recoveries"), 0);
        // A repeated crash is counted once.
        let tl = FailureTimeline::none()
            .crash(1.0, 3)
            .crash(2.0, 3)
            .recover(3.0, 3);
        let mut c = tl.cursor();
        c.advance_to(2.0, &obs);
        assert_eq!(c.dead_count(), 1);
        c.advance_to(3.0, &obs);
        assert_eq!(c.dead_count(), 0);
    }

    #[test]
    fn events_sorted_by_time_stable_on_ties() {
        let tl = FailureTimeline::none()
            .crash(200.0, 1)
            .crash(100.0, 2)
            .recover(200.0, 2);
        let times: Vec<f64> = tl.events().iter().map(|e| e.time_ms).collect();
        assert_eq!(times, vec![100.0, 200.0, 200.0]);
        // Tie at 200: crash(1) was inserted before recover(2).
        assert_eq!(tl.events()[1].action, ChaosAction::Crash(1));
        assert_eq!(tl.events()[2].action, ChaosAction::Recover(2));
    }
}
