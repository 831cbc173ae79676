//! Cell-keyed substrate of the sustained-load engine.
//!
//! The paper's natural key is the **geospatial cell**: all serving
//! state for a UE lives in the cell the UE occupies, never in the
//! satellite passing overhead (§4.1). This module gives the million-UE
//! engine (`sc-emu`'s `churn`, behind `ext_mload` and `ext_chaosload`)
//! that model as data structures:
//!
//! * [`ShardMap`] — partitions the row-major cell index space of a
//!   [`sc_geo::cells::CellGrid`] into contiguous, balanced bands of
//!   orbital-plane columns, every cell with exactly one owner: the
//!   engine's static cell → serving-satellite coverage map.
//! * [`CellLedger`] — active-session accounting **dense by cell index**
//!   (a `Vec<u32>`, no per-UE keyed collections — the whole point of the
//!   stateless design is that satellites hold no UE-keyed maps), with a
//!   busy-time integral over a measurement window. The integral is the
//!   sum of each session's clipped `[connect, release]` tick interval,
//!   so the engine, which runs each UE alone, sums those intervals
//!   instead of keeping a ledger.
//! * [`CellStorm`] — the per-cell overload windows a failure timeline
//!   opens, a pure function of the timeline.
//! * [`ProcedureCosts`] / [`ShardStats`] / [`ChaosStats`] — the
//!   signaling bill of the churn events, derived once from
//!   [`crate::mobility::MobilityManager`] and the Figure 9 / Figure 16
//!   procedure message counts, tallied in plain additive counters.
//!
//! Everything here is `u64` sums (or integer-tick integrals): merging
//! partial results in any grouping reproduces the whole-run numbers
//! exactly, which is what lets `ext_mload` assert byte-identical output
//! across `SC_EMU_THREADS`.

use crate::mobility::{MobilityEvent, MobilityManager};
use sc_fiveg::conn::ConnState;
use sc_fiveg::messages::{Procedure, ProcedureKind};
use sc_geo::cells::{CellGrid, CellId};

/// Row-major index of a cell in its grid: `col * slots + row`, matching
/// [`CellGrid::iter_cells`] order.
pub fn cell_index(grid: &CellGrid, id: CellId) -> usize {
    id.col as usize * grid.slots() as usize + id.row as usize
}

/// Inverse of [`cell_index`]: the [`CellId`] at a row-major index.
pub fn cell_at(grid: &CellGrid, index: usize) -> CellId {
    let slots = grid.slots() as usize;
    CellId::new((index / slots) as u16, (index % slots) as u16)
}

/// A contiguous, balanced partition of `cells` row-major cell indices
/// into `shards` shards. Shard `k` owns `[k·cells/shards ceil-rounded …)`
/// — every shard's size is within one cell of every other's, and shards
/// follow the grid's column order, so a shard is a band of orbital
/// planes.
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    cells: usize,
    shards: usize,
}

impl ShardMap {
    /// Partition `cells` into at most `shards` shards (clamped to
    /// `[1, cells]` so no shard is ever empty).
    ///
    /// # Panics
    /// Panics if `cells` is zero.
    pub fn new(cells: usize, shards: usize) -> Self {
        assert!(cells > 0, "cannot shard an empty grid");
        Self {
            cells,
            shards: shards.clamp(1, cells),
        }
    }

    /// Number of shards after clamping.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Owner shard of a row-major cell index.
    ///
    /// # Panics
    /// Panics if `cell` is out of range.
    pub fn shard_of(&self, cell: usize) -> usize {
        assert!(cell < self.cells, "cell {cell} out of range {}", self.cells);
        cell * self.shards / self.cells
    }

    /// The cell-index range shard `k` owns.
    pub fn range(&self, shard: usize) -> std::ops::Range<usize> {
        let start = (shard * self.cells).div_ceil(self.shards);
        let end = ((shard + 1) * self.cells).div_ceil(self.shards);
        start..end
    }
}

/// Active-session ledger over a dense cell-index space, with busy-time
/// integration over a `[window_start, window_end]` measurement window.
///
/// `connect`/`release`/`move_session` advance a running integral of
/// `active_total · dt`, clamped to the window — so
/// `busy_integral / (window_end − window_start)` is the exact
/// time-averaged concurrent session count over the measured interval,
/// regardless of how calls interleave with the window edges.
///
/// The integral accumulates in **integer microsecond ticks** (`u64`),
/// quantizing *timestamps* rather than durations: a constant-count
/// interval split at any intermediate event contributes
/// `n·(tick(b)−tick(m)) + n·(tick(m)−tick(a)) = n·(tick(b)−tick(a))`
/// exactly. Float accumulation would pick up last-ulp differences from
/// the grouping of events into shards; integer ticks make the summed
/// integral bit-identical under any shard layout.
#[derive(Debug, Clone)]
pub struct CellLedger {
    active: Vec<u32>,
    total_active: u64,
    start_us: u64,
    end_us: u64,
    last_us: u64,
    busy_us: u64,
}

/// An instant on the ledger's integer-microsecond grid. A simulation
/// timestamp in seconds converts with [`From<f64>`], rounding to the
/// nearest tick; a caller that already holds the tick wraps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tick(pub u64);

impl From<f64> for Tick {
    fn from(t_s: f64) -> Self {
        Self(round_u64(t_s * 1e6))
    }
}

/// `x.round() as u64` without the call into the runtime's `round` (a
/// library call on the baseline x86-64 target): `x − trunc(x)` is exact,
/// so comparing it with ½ rounds half away from zero exactly as `round`
/// does. Negative and NaN inputs give 0 and values past `u64::MAX`
/// saturate, as the `as` cast of `round` does.
pub fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

impl CellLedger {
    /// A ledger over `cells` cells measuring `[window_start,
    /// window_end]`, both in seconds.
    pub fn new(cells: usize, window_start: f64, window_end: f64) -> Self {
        assert!(window_end >= window_start && window_start >= 0.0);
        Self {
            active: vec![0; cells],
            total_active: 0,
            start_us: Tick::from(window_start).0,
            end_us: Tick::from(window_end).0,
            last_us: 0,
            busy_us: 0,
        }
    }

    /// Accumulate `active_total · dt` over the part of
    /// `[last_t, now]` inside the window.
    fn advance(&mut self, now_us: u64) {
        let a = self.last_us.max(self.start_us);
        let b = now_us.min(self.end_us);
        if b > a {
            self.busy_us += self.total_active * (b - a);
        }
        self.last_us = self.last_us.max(now_us);
    }

    /// A session came up in `cell` at tick `now`.
    pub fn connect(&mut self, cell: usize, now: impl Into<Tick>) {
        self.advance(now.into().0);
        self.active[cell] += 1;
        self.total_active += 1;
    }

    /// A session in `cell` ended at tick `now`.
    pub fn release(&mut self, cell: usize, now: impl Into<Tick>) {
        self.advance(now.into().0);
        debug_assert!(self.active[cell] > 0, "release without a session");
        self.active[cell] -= 1;
        self.total_active -= 1;
    }

    /// An active session's UE crossed from cell `from` to cell `to`:
    /// the state record moves between cells, the total is unchanged (no
    /// integral advance needed).
    pub fn move_session(&mut self, from: usize, to: usize) {
        debug_assert!(self.active[from] > 0, "move without a session");
        self.active[from] -= 1;
        self.active[to] += 1;
    }

    /// Close the integral at the window end.
    pub fn finish(&mut self) {
        self.advance(self.end_us);
    }

    /// `∫ active_total dt` over the window in microsecond ticks — the
    /// exact, shard-additive form. Sum these across shards *before*
    /// converting to seconds.
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }

    /// Per-cell active counts, dense by cell index.
    pub fn cell_active(&self) -> &[u32] {
        &self.active
    }
}

/// The per-event signaling bill of the churn model, both designs,
/// resolved once from the mobility decision table
/// ([`MobilityManager::handle`]) and the Figure 9 / Figure 16 procedure
/// builders so hot-path accounting never rebuilds a [`Procedure`]. A
/// crash's re-establishment bills the same two establishments.
#[derive(Debug, Clone, Copy)]
pub struct ProcedureCosts {
    /// SpaceCore localized establishment ([`ProcedureKind::LocalEstablishment`]),
    /// no home round-trip.
    pub local_establishment: u32,
    /// Legacy C2 home-routed establishment.
    pub legacy_establishment: u32,
    /// SpaceCore active-UE satellite sweep: local handover via the UE
    /// replica ([`ProcedureKind::ReplicaHandover`]).
    pub local_handover: u32,
    /// Legacy active-UE satellite sweep: full C3 handover.
    pub legacy_handover: u32,
    /// Legacy idle-UE satellite sweep: C4 mobility registration
    /// (SpaceCore's is zero — asserted at construction).
    pub legacy_idle_sweep: u32,
    /// UE crossing a geospatial cell: C4 in both designs (§4.3).
    pub cell_crossing: u32,
    /// RRC release, both designs ([`ProcedureKind::RrcRelease`]).
    pub release: u32,
    /// A failed crash-recovery attempt: one unanswered probe, both designs.
    pub recovery_probe: u32,
}

impl ProcedureCosts {
    /// Build from the paper's decision table.
    pub fn paper() -> Self {
        let sc = MobilityManager::spacecore();
        let legacy = MobilityManager::legacy();
        let sc_idle = sc.handle(MobilityEvent::SatelliteSweep(ConnState::Idle));
        debug_assert_eq!(
            sc_idle.signaling_messages, 0,
            "geospatial idle sweeps must be free"
        );
        let messages = |k| Procedure::build(k).message_count() as u32;
        Self {
            local_establishment: messages(ProcedureKind::LocalEstablishment),
            legacy_establishment: messages(ProcedureKind::SessionEstablishment),
            local_handover: sc
                .handle(MobilityEvent::SatelliteSweep(ConnState::Connected))
                .signaling_messages,
            legacy_handover: legacy
                .handle(MobilityEvent::SatelliteSweep(ConnState::Connected))
                .signaling_messages,
            legacy_idle_sweep: legacy
                .handle(MobilityEvent::SatelliteSweep(ConnState::Idle))
                .signaling_messages,
            cell_crossing: sc
                .handle(MobilityEvent::UeCellCrossing(ConnState::Idle))
                .signaling_messages,
            release: messages(ProcedureKind::RrcRelease),
            recovery_probe: 1,
        }
    }
}

/// Additive churn tallies for one shard: event counts plus the running
/// signaling bill under both designs. Merging is plain `+=`, so any
/// shard grouping sums to the same totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub arrivals: u64,
    /// Arrivals that found the session already up (no establishment).
    pub piggybacked: u64,
    pub establishments: u64,
    pub releases: u64,
    /// Active-UE satellite sweeps (local handover under SpaceCore).
    pub local_handovers: u64,
    /// Idle-UE satellite sweeps (free under SpaceCore, C4 under legacy).
    pub idle_sweeps: u64,
    pub cell_crossings: u64,
    /// Signaling messages billed to the SpaceCore design.
    pub spacecore_msgs: u64,
    /// Signaling messages billed to the legacy stateful design.
    pub legacy_msgs: u64,
}

impl ShardStats {
    /// Merge another shard's tallies into this one.
    pub fn absorb(&mut self, o: &ShardStats) {
        self.arrivals += o.arrivals;
        self.piggybacked += o.piggybacked;
        self.establishments += o.establishments;
        self.releases += o.releases;
        self.local_handovers += o.local_handovers;
        self.idle_sweeps += o.idle_sweeps;
        self.cell_crossings += o.cell_crossings;
        self.spacecore_msgs += o.spacecore_msgs;
        self.legacy_msgs += o.legacy_msgs;
    }

    /// Bill a session arrival; returns the SpaceCore-side message count
    /// (zero when the session was already up and the data rides the
    /// existing bearer).
    pub fn bill_arrival(&mut self, costs: &ProcedureCosts, connected: bool) -> u32 {
        self.arrivals += 1;
        if connected {
            self.piggybacked += 1;
            0
        } else {
            self.establishments += 1;
            self.spacecore_msgs += costs.local_establishment as u64;
            self.legacy_msgs += costs.legacy_establishment as u64;
            costs.local_establishment
        }
    }

    /// Bill an RRC release; returns the SpaceCore-side message count.
    pub fn bill_release(&mut self, costs: &ProcedureCosts) -> u32 {
        self.releases += 1;
        self.spacecore_msgs += costs.release as u64;
        self.legacy_msgs += costs.release as u64;
        costs.release
    }

    /// Bill a satellite sweep past a UE; returns the SpaceCore-side
    /// message count (zero for idle UEs — earth-fixed tracking areas).
    pub fn bill_sweep(&mut self, costs: &ProcedureCosts, connected: bool) -> u32 {
        if connected {
            self.local_handovers += 1;
            self.spacecore_msgs += costs.local_handover as u64;
            self.legacy_msgs += costs.legacy_handover as u64;
            costs.local_handover
        } else {
            self.idle_sweeps += 1;
            self.legacy_msgs += costs.legacy_idle_sweep as u64;
            0
        }
    }

    /// Bill a UE crossing a geospatial cell; returns the SpaceCore-side
    /// message count (C4 in both designs).
    pub fn bill_crossing(&mut self, costs: &ProcedureCosts) -> u32 {
        self.cell_crossings += 1;
        self.spacecore_msgs += costs.cell_crossing as u64;
        self.legacy_msgs += costs.cell_crossing as u64;
        costs.cell_crossing
    }
}

/// Dense per-cell overload/admission-control windows for chaos
/// injection, **by cell index** (`Vec<u64>` of µs ticks — no per-UE
/// keyed collections, same statelessness rule `CellLedger` obeys).
///
/// When a serving satellite crashes (or its feeder link drops), every
/// cell in its footprint opens a *storm*: until `overload_until_us`
/// the replacement satellite sheds or defers low-priority signaling.
/// The windows derive purely from the failure timeline, so every UE
/// reads the same ones.
#[derive(Debug, Clone)]
pub struct CellStorm {
    overload_until_us: Vec<u64>,
}

impl CellStorm {
    /// Quiet state over `cells` cells: no overload.
    pub fn new(cells: usize) -> Self {
        Self {
            overload_until_us: vec![0; cells],
        }
    }

    /// Open a storm over a contiguous cell range (a crashed satellite's
    /// footprint) until `until_us`; overlapping storms keep the later
    /// close.
    pub fn open(&mut self, cells: std::ops::Range<usize>, until_us: u64) {
        for c in cells {
            self.overload_until_us[c] = self.overload_until_us[c].max(until_us);
        }
    }

    /// Is the cell's serving satellite inside an overload window at
    /// `now_us`?
    pub fn overloaded(&self, cell: usize, now_us: u64) -> bool {
        now_us < self.overload_until_us[cell]
    }

}

/// Additive robustness tallies for one shard of the chaos soak:
/// drop/re-establishment counts, the overload-shedding ledger, and the
/// recovery signaling bill under both designs. Merging is plain `+=`,
/// like [`ShardStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Sessions dropped by satellite crashes.
    pub dropped: u64,
    /// Re-establishment attempts (paced first tries plus retries).
    pub reattach_attempts: u64,
    /// Attempts that failed (satellite still down, link down, burst loss).
    pub reattach_failures: u64,
    /// Sessions successfully re-established locally.
    pub reattached: u64,
    /// Sessions that exhausted the retry budget and were declared lost.
    pub budget_exhausted: u64,
    /// Connected-UE sweeps whose handover signaling was deferred by the
    /// overload gate.
    pub deferred_handovers: u64,
    /// RRC releases deferred by the overload gate.
    pub deferred_releases: u64,
    /// Cell-crossing C4 updates shed (dropped outright) by the gate.
    pub shed_crossings: u64,
    /// Fresh establishments deferred because the serving satellite was
    /// down at arrival.
    pub deferred_establishments: u64,
    /// Attempts killed by a loss-burst window.
    pub burst_losses: u64,
    /// Recovery signaling billed to the SpaceCore design.
    pub spacecore_msgs: u64,
    /// Recovery signaling billed to the legacy stateful design.
    pub legacy_msgs: u64,
}

impl ChaosStats {
    /// Merge another shard's tallies into this one.
    pub fn absorb(&mut self, o: &ChaosStats) {
        self.dropped += o.dropped;
        self.reattach_attempts += o.reattach_attempts;
        self.reattach_failures += o.reattach_failures;
        self.reattached += o.reattached;
        self.budget_exhausted += o.budget_exhausted;
        self.deferred_handovers += o.deferred_handovers;
        self.deferred_releases += o.deferred_releases;
        self.shed_crossings += o.shed_crossings;
        self.deferred_establishments += o.deferred_establishments;
        self.burst_losses += o.burst_losses;
        self.spacecore_msgs += o.spacecore_msgs;
        self.legacy_msgs += o.legacy_msgs;
    }

    /// Bill a failed re-establishment attempt (one wasted probe each
    /// design).
    pub fn bill_attempt_failure(&mut self, costs: &ProcedureCosts) {
        self.reattach_attempts += 1;
        self.reattach_failures += 1;
        self.spacecore_msgs += costs.recovery_probe as u64;
        self.legacy_msgs += costs.recovery_probe as u64;
    }

    /// Bill a successful re-establishment: SpaceCore's local
    /// establishment, legacy's home-routed C2 re-registration.
    pub fn bill_reattach(&mut self, costs: &ProcedureCosts) {
        self.reattach_attempts += 1;
        self.reattached += 1;
        self.spacecore_msgs += costs.local_establishment as u64;
        self.legacy_msgs += costs.legacy_establishment as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_covers_every_cell_contiguously() {
        for (cells, shards) in [(1584, 64), (1584, 7), (66, 8), (10, 10), (5, 64), (1, 1)] {
            let m = ShardMap::new(cells, shards);
            assert!(m.shards() >= 1 && m.shards() <= cells);
            let mut owner_by_range = vec![usize::MAX; cells];
            for s in 0..m.shards() {
                for c in m.range(s) {
                    assert_eq!(owner_by_range[c], usize::MAX, "cell {c} owned twice");
                    owner_by_range[c] = s;
                }
            }
            for (c, &owner) in owner_by_range.iter().enumerate() {
                assert_eq!(owner, m.shard_of(c), "cells={cells} shards={shards} cell={c}");
            }
        }
    }

    #[test]
    fn cell_index_roundtrips_in_iter_order() {
        let grid = CellGrid::new(53f64.to_radians(), 72, 22);
        for (i, id) in grid.iter_cells().enumerate() {
            assert_eq!(cell_index(&grid, id), i);
            assert_eq!(cell_at(&grid, i), id);
        }
    }

    #[test]
    fn shard_map_is_balanced_within_one_cell() {
        let m = ShardMap::new(1584, 64);
        let sizes: Vec<usize> = (0..m.shards()).map(|s| m.range(s).len()).collect();
        let (min, max) = (sizes.iter().min().copied(), sizes.iter().max().copied());
        assert!(max.zip(min).is_some_and(|(hi, lo)| hi - lo <= 1), "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 1584);
    }

    #[test]
    fn ledger_busy_integral_clamps_to_window() {
        // Window [10, 20]; one session from t=5 to t=15, another from
        // t=12 to t=30 → integral = 1·(15−10) + 1·(20−12) = 13.
        let mut l = CellLedger::new(4, 10.0, 20.0);
        l.connect(0, 5.0);
        l.connect(1, Tick(12_000_000));
        l.release(0, 15.0);
        l.finish();
        assert_eq!(l.busy_us(), 13_000_000);
        assert_eq!(l.cell_active(), &[0, 1, 0, 0]);
    }

    /// Seconds convert to the nearest µs tick, so a timestamp and its
    /// tick are the same instant to the ledger.
    #[test]
    fn seconds_round_to_the_nearest_tick() {
        assert_eq!(Tick::from(1.5), Tick(1_500_000));
        assert_eq!(Tick::from(2.000_000_4), Tick(2_000_000));
        assert_eq!(Tick::from(2.000_000_6), Tick(2_000_001));
        let (mut by_s, mut by_tick) = (CellLedger::new(2, 1.0, 9.0), CellLedger::new(2, 1.0, 9.0));
        by_s.connect(1, 0.5);
        by_s.release(1, 3.25);
        by_tick.connect(1, Tick(500_000));
        by_tick.release(1, Tick(3_250_000));
        by_s.finish();
        by_tick.finish();
        assert_eq!(by_s.busy_us(), by_tick.busy_us());
        assert_eq!(by_s.busy_us(), 2_250_000);
    }

    /// `round_u64` is `round() as u64` at halves and one ulp either side
    /// of them, through the integers-and-halves binade 2⁵²–2⁵³ and past
    /// it, on the µs grid of event times, at `u64::MAX` and beyond, and
    /// for negative, infinite and NaN inputs.
    #[test]
    fn round_u64_matches_round() {
        let check = |x: f64| {
            for y in [x, x.next_down(), x.next_up()] {
                assert_eq!(round_u64(y), y.round() as u64, "{y:e}");
            }
        };
        for x in [
            0.0, -0.0, 0.5, 0.499_999_999_999_999_94, 1.5, 2.5, -0.5, -0.7, -1e300,
            2f64.powi(52), 2f64.powi(53), 2f64.powi(63), 2f64.powi(64), 1e300,
            f64::MAX, f64::INFINITY, f64::NEG_INFINITY, f64::NAN,
        ] {
            check(x);
        }
        // A splitmix64 walk over 52-bit integers and every shift.
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..200_000u64 {
            h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB) ^ (z >> 31);
            let k = z >> 12;
            let shift = (i % 64) as i32;
            check(k as f64 + 0.5);
            check((k >> (i % 53)) as f64 + 0.5);
            check(2f64.powi(52) + k as f64 / 2.0);
            check(k as f64 * 2f64.powi(shift));
            check((k % 150_000_000) as f64 * 1e-6 * 1e6);
        }
    }

    #[test]
    fn ledger_move_session_keeps_totals() {
        let mut l = CellLedger::new(3, 0.0, 10.0);
        l.connect(0, 1.0);
        l.move_session(0, 2);
        assert_eq!(l.cell_active(), &[0, 0, 1]);
        l.release(2, 4.0);
        l.finish();
        assert_eq!(l.busy_us(), 3_000_000);
    }

    #[test]
    fn costs_follow_the_decision_table() {
        let c = ProcedureCosts::paper();
        assert_eq!(c.local_establishment, 4);
        assert_eq!(c.legacy_establishment, 13);
        assert_eq!(c.local_handover, 3);
        assert!(c.legacy_handover > c.local_handover);
        assert_eq!(c.legacy_idle_sweep, 12);
        assert_eq!(c.cell_crossing, 12);
        assert_eq!(c.release, 2);
    }

    #[test]
    fn stats_absorb_matches_single_stream() {
        let costs = ProcedureCosts::paper();
        let mut whole = ShardStats::default();
        let mut a = ShardStats::default();
        let mut b = ShardStats::default();
        for i in 0..10u32 {
            let connected = i % 3 == 0;
            whole.bill_arrival(&costs, connected);
            whole.bill_sweep(&costs, connected);
            let part = if i % 2 == 0 { &mut a } else { &mut b };
            part.bill_arrival(&costs, connected);
            part.bill_sweep(&costs, connected);
        }
        whole.bill_release(&costs);
        whole.bill_crossing(&costs);
        a.bill_release(&costs);
        b.bill_crossing(&costs);
        a.absorb(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn cell_storm_windows_merge_by_latest_close() {
        let mut s = CellStorm::new(10);
        assert!((0..10).all(|c| !s.overloaded(c, 0)));
        s.open(2..5, 5_000_000);
        assert!(s.overloaded(3, 4_999_999) && !s.overloaded(3, 5_000_000));
        assert!(!s.overloaded(5, 2_000_000), "outside the footprint");
        // A second overlapping storm never shortens the overload window.
        s.open(3..6, 4_000_000);
        assert!(s.overloaded(3, 4_500_000), "earlier window still open");
        assert!(s.overloaded(5, 3_999_999));
        let open_at = |t| (0..10).filter(|&c| s.overloaded(c, t)).count();
        assert_eq!(open_at(3_000_000), 4);
    }

    #[test]
    fn chaos_stats_absorb_matches_single_stream() {
        let costs = ProcedureCosts::paper();
        let mut whole = ChaosStats::default();
        let mut a = ChaosStats::default();
        let mut b = ChaosStats::default();
        for i in 0..9u32 {
            let part = if i % 2 == 0 { &mut a } else { &mut b };
            if i % 3 == 0 {
                whole.bill_attempt_failure(&costs);
                part.bill_attempt_failure(&costs);
            } else {
                whole.bill_reattach(&costs);
                part.bill_reattach(&costs);
            }
        }
        whole.dropped += 4;
        a.dropped += 4;
        a.absorb(&b);
        assert_eq!(a, whole);
        assert_eq!(whole.reattach_attempts, whole.reattached + whole.reattach_failures);
        // The stateless recovery bill stays far below the home-routed one.
        assert!(whole.legacy_msgs > 2 * whole.spacecore_msgs);
    }

    #[test]
    fn spacecore_bill_is_far_below_legacy() {
        // The headline: under the paper's churn mix the idle-sweep C4s
        // dominate the legacy bill and vanish under SpaceCore.
        let costs = ProcedureCosts::paper();
        let mut s = ShardStats::default();
        for i in 0..1000u32 {
            s.bill_sweep(&costs, i % 9 == 0); // ~11% active
        }
        assert!(s.legacy_msgs > 5 * s.spacecore_msgs);
    }
}
