//! The churn engine behind `ext_mload` and `ext_chaosload`.
//!
//! [`run`] draws a population and drives every UE through continuous
//! churn: Poisson session arrivals (a localized 4-message establishment
//! on an idle UE, a piggyback on a connected one), RRC releases 10–15 s
//! later, a satellite sweep once per ~165.8 s transit (a local handover
//! if connected, nothing if idle), and rare cell crossings. The config's
//! [`FailureTimeline`](sc_netsim::chaos::FailureTimeline) is replayed
//! against every UE; a crash drops the footprint's connected sessions
//! into paced stateless re-establishment and opens the overload gate
//! (see `ext_chaosload`). An empty timeline drops nothing: the
//! failure-free soak is the same code on the same events.
//!
//! **Each UE is its own event stream.** SpaceCore's satellites keep no
//! per-UE state (§4.2), and neither does the engine: a UE's events
//! touch only its own record, read satellite, link, burst and overload
//! state that is a pure function of the timeline and the event's
//! instant, and add into order-free integer tallies. A global
//! `(time, seq)` order over all UEs thus carries nothing beyond each
//! UE's own order, so each UE runs alone to the horizon: its pending
//! events sit in one slot per kind (arrival, sweep, crossing, the live
//! release, the live re-attach), the earliest by `(time, UE-local seq)`
//! runs next, and a crash applies at its instant before the UE's events
//! at that instant. UEs run in fixed-size id chunks on the workers, and
//! each chunk places, then runs: its placement pass ([`placed`]) fills
//! two flat arrays on the worker's stack, the cell and the label of
//! each of its UEs (5 bytes a UE, alive for one chunk), and only then
//! do its UEs run, one after another, into one [`ChurnOut`]; the chunks
//! fold in id order.
//!
//! **The timeline as a function of time.** A calendar replaying the
//! timeline through one shared cursor advances it to `t·1000` ms before
//! each event at `t` s and to a marker's exact `time_ms` when the
//! marker fires, markers first at their instant. An event at `t` thus
//! sees the prefix with `time_ms ≤ max(t·1000, time_ms of every
//! in-horizon marker with time_ms/1000 ≤ t)`, and the overload windows
//! those markers opened. `Run::new` computes both once per run; a UE
//! walks an index into each as its clock advances.
//!
//! **Horizon rule.** An event timed at or past the horizon is never
//! queued, though the draws that timed it are spent, so every hash
//! stream is the one an unbounded run would see. An event is counted
//! when queued: a release or re-attach that a crash or a give-up made
//! stale counts without running, as in a calendar that pops and
//! ignores it. Every draw is a pure hash of `(seed, UE id, draw#)`
//! ([`ue_unit`]); stale events consume none.
//!
//! **What a chunk records.** No `sc_obs::Recorder`: integer tallies,
//! per-second window vectors and histograms of integer-valued samples,
//! whose float sums stay exact (the per-event cost is a dense per-µs
//! tally, folded in once per chunk). The busy integral is the sum of
//! each session's `[connect, release]` tick interval clipped to the
//! measured window — `CellLedger`'s integral. All of it adds, so the
//! fold is the same for every thread count; the experiment modules emit
//! telemetry from the folded `ChurnOut` once.
//!
//! The handlers are written once over a `Seam`. The test-only
//! `oracle` driver runs them for all UEs through one global
//! `EventQueue::drain_until` calendar, and the engine's tests hold
//! every artifact to it.

use crate::ext_chaosload::ChaosloadConfig;
use sc_dataset::population::{Draw, PopulationModel};
use sc_dataset::workload::WorkloadParams;
use sc_geo::cells::CellGrid;
use sc_geo::sphere::GeoPoint;
use sc_netsim::chaos::{ChaosAction, ChaosCursor};
use sc_obs::{Histogram, Recorder};
use spacecore::shard::{
    cell_at, cell_index, round_u64, CellStorm, ChaosStats, ProcedureCosts, ShardMap, ShardStats,
    Tick,
};
use std::ops::Range;

#[cfg(test)]
mod oracle;

/// Minimum follow-up delay: every reaction the engine schedules (churn
/// follow-ups, retries, backoffs, deferrals) is at least this far ahead.
/// Loss *detection* is likewise quantized up to it — the plan-level
/// 200 ms would put retries closer than any other reaction.
pub const MIN_DELAY_S: f64 = 1.0;
/// Simulated per-message processing cost, µs — the Figure 16b scale of
/// a satellite-local signaling step.
const PER_MSG_US: f64 = 120.0;
/// Width of the per-window vectors in [`ChurnOut`], s: the `sc-obs`
/// series window, indexed by event time.
pub const WINDOW_S: f64 = 1.0;
/// Resolution of the time-to-re-established slot counts, µs (0.25 s).
const TT_SLOT_US: u64 = 250_000;
/// UEs per parallel chunk.
pub const CHUNK: usize = 16_384;

/// Microsecond tick of a simulation timestamp (the `CellLedger` grid).
fn tick(t_s: f64) -> u64 {
    Tick::from(t_s).0
}

/// The [`WINDOW_S`] window holding event time `t_s` (< the horizon, so
/// inside every per-window vector).
fn win_of(t_s: f64) -> usize {
    (t_s / WINDOW_S) as usize
}

/// UEs per stage batch of [`placed`]: each stage's inputs and outputs
/// for a batch stay in L1.
pub const PLACE_BATCH: usize = 64;

/// The placement pass over the UEs from id `first` on, one per slot of
/// `cells` and `labels`: each UE, drawn straight from the population's
/// seeded stream, gets its row-major cell index and its `label`, in id
/// order. The pass runs in stages over batches of [`PLACE_BATCH`] UEs:
/// the seeked draws, then their points, then the points' cells, then
/// their labels, each stage one tight loop. The sampler is seeked to
/// UE `first`, so any partition of the ids into ranges yields, range
/// after range, what one serial pass over `pop.sample_ues` yields.
///
/// # Panics
/// Panics unless `cells` and `labels` have one slot per UE each.
pub fn placed(
    pop: &PopulationModel,
    seed: u64,
    grid: &CellGrid,
    label: &(dyn Fn(&GeoPoint) -> u8 + Sync),
    first: usize,
    cells: &mut [u32],
    labels: &mut [u8],
) {
    assert_eq!(cells.len(), labels.len(), "one cell and one label per UE");
    let mut draws = pop.draws_at(seed, first);
    let mut batch = [Draw::default(); PLACE_BATCH];
    let mut points = [GeoPoint { lat: 0.0, lon: 0.0 }; PLACE_BATCH];
    for (cells, labels) in cells.chunks_mut(PLACE_BATCH).zip(labels.chunks_mut(PLACE_BATCH)) {
        // The batch first: zipping ends on it without a draw too many.
        let batch = &mut batch[..cells.len()];
        for (slot, d) in batch.iter_mut().zip(&mut draws) {
            *slot = d;
        }
        for (p, d) in points.iter_mut().zip(&*batch) {
            *p = pop.point_of(d);
        }
        for (c, p) in cells.iter_mut().zip(&points) {
            *c = cell_index(grid, grid.cell_of_point(p)) as u32;
        }
        for (l, p) in labels.iter_mut().zip(&points) {
            *l = label(p);
        }
    }
}

/// splitmix64 finalizer: the stateless per-UE hash stream.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Uniform `[0, 1)` draw for `(seed, ue, draw#)` — a pure hash, so the
/// value depends only on the UE's own draw counter, never on which
/// chunk or thread evaluates it.
pub fn ue_unit(seed: u64, ue: u32, draw: u32) -> f64 {
    let h = mix64(seed ^ mix64(((ue as u64) << 32) | draw as u64));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Exponential draw with mean `mean_s`, clamped to [`MIN_DELAY_S`]. The
/// clamp shifts < 1% of the mass for the ≥ 100 s means used here.
fn exp_clamped(mean_s: f64, u: f64) -> f64 {
    (-mean_s * (1.0 - u).max(1e-12).ln()).max(MIN_DELAY_S)
}

/// Connection state of one UE.
#[derive(Clone, Copy, PartialEq)]
enum Link {
    Idle,
    Connected,
    /// Between a drop (or a blocked fresh establishment) and the
    /// re-establishment that resolves it.
    Reattaching,
}

/// [`Ue::crash`] of a UE that is not recovering a dropped session.
const NO_CRASH: u16 = u16::MAX;

/// One UE's churn + recovery state.
struct Ue {
    /// Global UE id — the hash-stream key.
    id: u32,
    /// Current row-major cell index.
    cell: u32,
    /// Draws consumed from this UE's hash stream.
    draws: u32,
    /// Session generation: bumped on every drop/teardown so stale
    /// `Release`/`Reattach` events from a previous session are ignored.
    /// Bumps are ≥ [`MIN_DELAY_S`] apart and an event waits far less
    /// than 65 536 of them, so 16 bits cannot alias.
    gen: u16,
    /// Attempts made in the current re-establishment chain.
    attempt: u16,
    /// Index of the crash this recovery belongs to, [`NO_CRASH`] for a
    /// blocked fresh establishment. The drop instant is that crash's.
    crash: u16,
    state: Link,
    /// Caller-assigned class (see [`run`]), fixed at placement.
    class: u8,
}

impl Ue {
    fn new(id: u32, cell: u32, class: u8) -> Self {
        Self {
            id,
            cell,
            draws: 0,
            gen: 0,
            attempt: 0,
            crash: NO_CRASH,
            state: Link::Idle,
            class,
        }
    }

    fn draw(&mut self, seed: u64) -> f64 {
        let u = ue_unit(seed, self.id, self.draws);
        self.draws += 1;
        u
    }
}

/// One UE's churn events. A UE has at most one pending event of each
/// kind that can still run: [`Ev::slot`] is its place in [`Stream`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Arrive,
    Sweep,
    Cross,
    /// Ends the session of the given generation.
    Release(u16),
    /// Next attempt of the re-establishment chain of the given generation.
    Reattach(u16),
}

impl Ev {
    fn slot(self) -> usize {
        match self {
            Ev::Arrive => 0,
            Ev::Sweep => 1,
            Ev::Cross => 2,
            Ev::Release(_) => 3,
            Ev::Reattach(_) => 4,
        }
    }
}

/// One crash of the scenario and its recovery accounting: additive
/// counts plus the time-to-re-established slot histogram.
#[derive(Debug, Clone)]
pub struct CrashTrack {
    pub t_s: f64,
    pub sat: usize,
    /// The crashed satellite's footprint, row-major cell indices.
    pub cells: Range<usize>,
    pub dropped: u64,
    pub reattached: u64,
    pub survived: u64,
    pub late: u64,
    pub lost: u64,
    pub pending: u64,
    /// `slots[i]` = sessions re-established with offset in
    /// `[i·0.25 s, (i+1)·0.25 s)`; the last slot collects ≥ deadline.
    slots: Vec<u64>,
}

impl CrashTrack {
    fn absorb(&mut self, o: &CrashTrack) {
        self.dropped += o.dropped;
        self.reattached += o.reattached;
        self.survived += o.survived;
        self.late += o.late;
        self.lost += o.lost;
        self.pending += o.pending;
        add_into(&mut self.slots, &o.slots);
    }

    /// Exact time to 99 % re-established: the first slot boundary by
    /// which ≥ ⌈0.99 · dropped⌉ sessions were back, `None` if 99 % was
    /// never reached within the deadline.
    pub fn tt99_s(&self) -> Option<f64> {
        if self.dropped == 0 {
            return None;
        }
        let target = (self.dropped * 99).div_ceil(100);
        let mut cum = 0u64;
        for (i, &n) in self.slots[..self.slots.len() - 1].iter().enumerate() {
            cum += n;
            if cum >= target {
                return Some((i + 1) as f64 * (TT_SLOT_US as f64 * 1e-6));
            }
        }
        None
    }
}

/// An overload window bound to the timeline event that opens it: a
/// crash (footprint overloaded until recovery + hold) or a feeder-link
/// drop (the cut-off satellite defers non-essential signaling until
/// realignment + hold — sessions stay up, the control plane backs off).
struct StormWin {
    /// The opening marker's instant, s.
    t_s: f64,
    cells: Range<usize>,
    until_s: f64,
}

fn add_into(acc: &mut [u64], other: &[u64]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

/// What one chunk of UEs produces and, once [`run`] has folded the
/// chunks in id order, what the whole run produced. Window vectors are
/// indexed by `floor(event time / WINDOW_S)`.
#[derive(Debug, Clone)]
pub struct ChurnOut {
    pub stats: ShardStats,
    pub chaos: ChaosStats,
    /// Events queued below the horizon over warmup + measured windows
    /// (chaos markers are bookkeeping and not counted).
    pub events_total: u64,
    pub events_measured: u64,
    /// Busy-time integral in integer µs ticks — exact under summation.
    pub busy_us: u64,
    /// Active sessions per cell at the horizon.
    pub cell_active_end: Vec<u64>,
    /// Per-event SpaceCore processing cost, measured window.
    pub step_us: Histogram,
    /// Hold time of each fresh establishment; filled only on request.
    pub session_hold_ms: Histogram,
    /// Drop → re-established offset of each recovered session.
    pub reattach_ms: Histogram,
    pub crashes: Vec<CrashTrack>,
    pub events_win: Vec<u64>,
    /// Establishments per window, storm cells only.
    pub est_storm_win: Vec<u64>,
    /// Re-registration signaling per window, storm cells only
    /// (establishments + re-establishment attempts a live satellite saw).
    pub rereg_storm_win: Vec<u64>,
    /// Signaling the overload gate (or an outage) deferred into the
    /// paced lane, and C4 updates it shed outright, per window.
    pub gate_deferred_win: Vec<u64>,
    pub gate_shed_win: Vec<u64>,
    pub reattaching_at_horizon: u64,
    /// UEs and measured-window session arrivals per caller-assigned class.
    pub class_ues: Vec<u64>,
    pub class_arrivals: Vec<u64>,
}

impl ChurnOut {
    fn zero(run: &Run<'_>) -> Self {
        let windows = || vec![0u64; run.windows];
        Self {
            stats: ShardStats::default(),
            chaos: ChaosStats::default(),
            events_total: 0,
            events_measured: 0,
            busy_us: 0,
            cell_active_end: vec![0; run.grid.cell_count()],
            step_us: Histogram::new(),
            session_hold_ms: Histogram::new(),
            reattach_ms: Histogram::new(),
            crashes: run.crashes.clone(),
            events_win: windows(),
            est_storm_win: windows(),
            rereg_storm_win: windows(),
            gate_deferred_win: windows(),
            gate_shed_win: windows(),
            reattaching_at_horizon: 0,
            class_ues: vec![0; run.classes],
            class_arrivals: vec![0; run.classes],
        }
    }

    /// Sums and bucket merges only.
    fn absorb(mut self, o: &ChurnOut) -> Self {
        self.stats.absorb(&o.stats);
        self.chaos.absorb(&o.chaos);
        self.events_total += o.events_total;
        self.events_measured += o.events_measured;
        self.busy_us += o.busy_us;
        add_into(&mut self.cell_active_end, &o.cell_active_end);
        self.step_us.merge(&o.step_us);
        self.session_hold_ms.merge(&o.session_hold_ms);
        self.reattach_ms.merge(&o.reattach_ms);
        for (row, or) in self.crashes.iter_mut().zip(&o.crashes) {
            row.absorb(or);
        }
        add_into(&mut self.events_win, &o.events_win);
        add_into(&mut self.est_storm_win, &o.est_storm_win);
        add_into(&mut self.rereg_storm_win, &o.rereg_storm_win);
        add_into(&mut self.gate_deferred_win, &o.gate_deferred_win);
        add_into(&mut self.gate_shed_win, &o.gate_shed_win);
        self.reattaching_at_horizon += o.reattaching_at_horizon;
        add_into(&mut self.class_ues, &o.class_ues);
        add_into(&mut self.class_arrivals, &o.class_arrivals);
        self
    }
}

/// Write a folded window vector as the counter series `name`. Windows
/// that counted nothing stay unwritten, as per-event `series_inc` calls
/// would have left them.
pub fn emit_series(obs: &Recorder, name: &'static str, win: &[u64]) {
    for (w, &v) in win.iter().enumerate() {
        if v > 0 {
            obs.series_inc_tick(name, w as u64 * sc_obs::WINDOW_TICKS, v);
        }
    }
}

/// Immutable per-run context every worker borrows: the config, the
/// static maps, the cost models and the resolved chaos scenario — all
/// pure functions of the config.
struct Run<'a> {
    cfg: &'a ChaosloadConfig,
    params: WorkloadParams,
    grid: CellGrid,
    /// Serving satellite of each cell: the static footprint map
    /// (`ShardMap::shard_of` over the satellites), looked up once here.
    serving: Vec<u32>,
    costs: ProcedureCosts,
    horizon: f64,
    /// The measured window on the tick grid.
    start_us: u64,
    end_us: u64,
    /// [`WINDOW_S`] windows covering the horizon.
    windows: usize,
    /// Time-to-re-established slots inside the deadline.
    in_slots: usize,
    classes: usize,
    record_holds: bool,
    /// Zeroed per-crash rows, in timeline order.
    crashes: Vec<CrashTrack>,
    /// Overload windows, in timeline order.
    storms: Vec<StormWin>,
    /// `storm_after[j]`: the per-cell storm state once `storms[..j]`
    /// have opened.
    storm_after: Vec<CellStorm>,
    /// The timeline's distinct instants, ms, ascending.
    instants: Vec<f64>,
    /// `cursor_after[j]`: the replay cursor once every event at
    /// `instants[..j]` has applied.
    cursor_after: Vec<ChaosCursor<'a>>,
    /// Cells inside any crash footprint.
    in_storm: Vec<bool>,
}

impl<'a> Run<'a> {
    /// Check the config and resolve the scenario.
    fn new(cfg: &'a ChaosloadConfig, classes: usize, record_holds: bool) -> Self {
        let grid = CellGrid::new(53f64.to_radians(), 72, 22);
        let deadline_us = tick(cfg.deadline_s);
        assert!(
            deadline_us.is_multiple_of(TT_SLOT_US),
            "deadline_s must sit on the 0.25 s re-establishment slot grid"
        );
        assert!(
            (1..=grid.cell_count()).contains(&cfg.sats),
            "need 1 <= sats <= cells for a footprint per satellite"
        );
        assert!(cfg.budget.max_attempts <= u32::from(u16::MAX), "attempt counter is 16-bit");
        assert!(cfg.load.total_ues as u64 <= 1 << 32, "UE id is a 32-bit hash-stream key");
        let horizon = cfg.load.warmup_s + cfg.load.measure_s;
        // Static cell → serving-satellite footprint map.
        let coverage = ShardMap::new(grid.cell_count(), cfg.sats);
        let in_slots = (deadline_us / TT_SLOT_US) as usize;

        let events = cfg.timeline.events();
        let mut crashes = Vec::new();
        let mut storms = Vec::new();
        let mut in_storm = vec![false; grid.cell_count()];
        for (k, e) in events.iter().enumerate() {
            let t_s = e.time_ms / 1000.0;
            if t_s >= horizon {
                continue;
            }
            // Overloaded until the matching `closes` event + hold.
            let until_s = |closes: ChaosAction| {
                let closed = events[k + 1..].iter().find(|r| r.action == closes);
                closed.map_or(horizon, |r| r.time_ms / 1000.0) + cfg.overload_hold_s
            };
            match e.action {
                ChaosAction::Crash(sat) if sat < cfg.sats => {
                    let cells = coverage.range(sat);
                    in_storm[cells.clone()].fill(true);
                    storms.push(StormWin {
                        t_s,
                        cells: cells.clone(),
                        until_s: until_s(ChaosAction::Recover(sat)),
                    });
                    crashes.push(CrashTrack {
                        t_s,
                        sat,
                        cells,
                        dropped: 0,
                        reattached: 0,
                        survived: 0,
                        late: 0,
                        lost: 0,
                        pending: 0,
                        slots: vec![0; in_slots + 1],
                    });
                }
                ChaosAction::LinkDown(a, b) if a.min(b) < cfg.sats => {
                    let sat = if a < cfg.sats { a } else { b };
                    storms.push(StormWin {
                        t_s,
                        cells: coverage.range(sat),
                        until_s: until_s(ChaosAction::LinkUp(a, b)),
                    });
                }
                _ => {}
            }
        }
        assert!(crashes.len() < NO_CRASH as usize, "crash index is 16-bit");

        let mut storm = CellStorm::new(grid.cell_count());
        let mut storm_after = vec![storm.clone()];
        for w in &storms {
            storm.open(w.cells.clone(), tick(w.until_s));
            storm_after.push(storm.clone());
        }
        let mut instants: Vec<f64> = events.iter().map(|e| e.time_ms).collect();
        instants.dedup();
        let mut cursor = cfg.timeline.cursor();
        let mut cursor_after = vec![cursor.clone()];
        for &t_ms in &instants {
            cursor.advance_to(t_ms, &Recorder::disabled());
            cursor_after.push(cursor.clone());
        }
        Self {
            cfg,
            params: WorkloadParams::paper_defaults(),
            serving: (0..grid.cell_count()).map(|c| coverage.shard_of(c) as u32).collect(),
            grid,
            costs: ProcedureCosts::paper(),
            horizon,
            start_us: tick(cfg.load.warmup_s),
            end_us: tick(horizon),
            windows: (horizon / WINDOW_S).ceil() as usize,
            in_slots,
            classes,
            record_holds,
            crashes,
            storms,
            storm_after,
            instants,
            cursor_after,
            in_storm,
        }
    }

    /// The instant `t` as every handler reads it.
    fn now(&self, t: f64) -> Now {
        Now {
            t,
            us: tick(t),
            win: win_of(t),
            measured: t >= self.cfg.load.warmup_s,
        }
    }

    /// µs of `[from_us, to_us]` inside the measured window.
    fn measured_us(&self, from_us: u64, to_us: u64) -> u64 {
        to_us.min(self.end_us).saturating_sub(from_us.max(self.start_us))
    }
}

/// An event's instant as every handler reads it, computed once per
/// event.
#[derive(Clone, Copy)]
struct Now {
    /// Event time, s.
    t: f64,
    /// `tick(t)`: the µs grid of the storm windows and the ledger.
    us: u64,
    /// `win_of(t)`: the event's [`WINDOW_S`] window.
    win: usize,
    /// Inside the measured window (at or past the warm-up).
    measured: bool,
}

/// What the handlers need of the driver that runs them.
trait Seam<'a> {
    /// Queue `ev` for the UE being handled at `t`, below the horizon.
    fn queue(&mut self, t: f64, ev: Ev);
    /// The timeline, replayed as far as the event being handled sees it.
    fn cursor(&self) -> &ChaosCursor<'a>;
    /// The overload windows the event being handled sees.
    fn storm(&self) -> &CellStorm;
    /// The UE being handled brought a session up in `cell` at `now_us`.
    fn connect(&mut self, cell: usize, now_us: u64);
    /// The UE being handled ended its session in `cell` at `now_us`.
    fn release(&mut self, cell: usize, now_us: u64);
    /// The UE being handled carried its session from `from` to `to`.
    fn moved(&mut self, from: usize, to: usize);
}

/// The handlers, over the driver `S` that schedules their follow-ups.
struct Engine<'r, S> {
    run: &'r Run<'r>,
    seed: u64,
    seam: S,
    /// What the chaos cursor records into: nothing (see the module docs).
    quiet: Recorder,
    /// `step_tally[v]`: measured events that cost `v` simulated µs,
    /// folded into `out.step_us` by [`Engine::finish`]. The samples are
    /// integers, so the fold is exactly the per-event histogram.
    step_tally: Vec<u64>,
    out: ChurnOut,
}

impl<'r, S: Seam<'r>> Engine<'r, S> {
    fn new(run: &'r Run<'r>, seam: S) -> Self {
        Self {
            run,
            seed: run.cfg.load.seed,
            seam,
            quiet: Recorder::disabled(),
            step_tally: Vec::new(),
            out: ChurnOut::zero(run),
        }
    }

    /// Schedule `ev` at `t` under the horizon rule (see the module
    /// docs), counting it if it is queued.
    fn at(&mut self, t: f64, ev: Ev) {
        if t < self.run.horizon {
            self.out.events_total += 1;
            self.out.events_measured += u64::from(t >= self.run.cfg.load.warmup_s);
            self.out.events_win[win_of(t)] += 1;
            self.seam.queue(t, ev);
        }
    }

    /// A UE's first events: an exponential first arrival (stationary
    /// Poisson from t = 0), a uniform sweep phase and an exponential
    /// first crossing.
    fn seed(&mut self, ue: &mut Ue) {
        let (run, seed) = (self.run, self.seed);
        self.out.class_ues[ue.class as usize] += 1;
        let arrive = exp_clamped(run.params.session_interarrival_s, ue.draw(seed));
        let sweep = ue.draw(seed) * run.params.transit_s;
        let cross = exp_clamped(run.cfg.load.crossing_interval_s, ue.draw(seed));
        self.at(arrive, Ev::Arrive);
        self.at(sweep, Ev::Sweep);
        self.at(cross, Ev::Cross);
    }

    /// Run `ev`. A `Release`/`Reattach` left behind by a session that a
    /// crash or a give-up has since ended is stale: it is dropped
    /// without consuming a draw, so it is invisible to the hash streams.
    fn dispatch(&mut self, now: Now, ue: &mut Ue, ev: Ev) {
        match ev {
            Ev::Arrive => self.arrive(now, ue),
            Ev::Sweep => self.sweep(now, ue),
            Ev::Cross => self.cross(now, ue),
            Ev::Release(gen) if ue.gen == gen && ue.state == Link::Connected => {
                self.release(now, ue)
            }
            Ev::Reattach(gen) if ue.gen == gen && ue.state == Link::Reattaching => {
                self.reattach(now, ue)
            }
            Ev::Release(_) | Ev::Reattach(_) => {}
        }
    }

    /// Draw the per-event cost jitter and, for measured events with
    /// SpaceCore-side work, tally the processing cost in integer
    /// simulated µs. The draw always happens, so a UE's stream position
    /// never depends on the measurement window.
    fn observe_cost(&mut self, ue: &mut Ue, msgs: u32, measured: bool) {
        let u = ue.draw(self.seed);
        if measured && msgs > 0 {
            let us = round_u64(msgs as f64 * PER_MSG_US * (0.75 + 0.5 * u)) as usize;
            if us >= self.step_tally.len() {
                self.step_tally.resize(us + 1, 0);
            }
            self.step_tally[us] += 1;
        }
    }

    /// Is the serving satellite of `cell` unreachable right now (dead or
    /// feeder link down)? Burst loss is drawn separately, per attempt.
    fn service_down(&self, cell: usize) -> bool {
        let sat = self.run.serving[cell] as usize;
        let cursor = self.seam.cursor();
        cursor.is_dead(sat) || cursor.link_down(sat, self.run.cfg.gateway())
    }

    fn overloaded(&self, cell: usize, now: Now) -> bool {
        self.seam.storm().overloaded(cell, now.us)
    }

    /// Inside a loss-burst window, draw whether this UE's transmission
    /// is lost (a keyed draw on the UE's own counter).
    fn burst_lost(&mut self, ue: &mut Ue, measured: bool) -> bool {
        let cursor = self.seam.cursor();
        if !cursor.in_burst() {
            return false;
        }
        let lost = cursor.burst_loss_keyed(ue.id as u64, ue.draws as u64, &self.quiet);
        ue.draws += 1;
        self.out.chaos.burst_losses += u64::from(lost && measured);
        lost
    }

    /// Bring the UE's session up at `now`: draw the U(10, 15) s hold and
    /// schedule the release that ends it.
    fn start_session(&mut self, now: Now, ue: &mut Ue) -> f64 {
        let u = ue.draw(self.seed);
        let hold = self.run.params.inactivity_release_s - 2.5 + 5.0 * u;
        ue.state = Link::Connected;
        self.seam.connect(ue.cell as usize, now.us);
        self.at(now.t + hold, Ev::Release(ue.gen));
        hold
    }

    /// Schedule attempt `ue.attempt` of the UE's chain. Recovery chains
    /// back off exponentially (deadline-bound); fresh-admission chains
    /// enter the paced half-rate admission lane.
    fn schedule_attempt(&mut self, t: f64, ue: &mut Ue) {
        let budget = &self.run.cfg.budget;
        let u = ue.draw(self.seed);
        let delay = if ue.crash != NO_CRASH || !self.run.cfg.paced {
            budget.backoff_s(u32::from(ue.attempt), u)
        } else {
            let key = ((ue.id as u64) << 16) | 0xFF00 | u64::from(ue.attempt);
            budget.admission_attempt_s(budget.slot(mix64(self.seed ^ mix64(key))), u)
        };
        self.at(t + delay.max(MIN_DELAY_S), Ev::Reattach(ue.gen));
    }

    /// After a failed or barred attempt: try again, or give the session
    /// up once the budget is spent.
    fn retry_or_give_up(&mut self, now: Now, ue: &mut Ue) {
        if u32::from(ue.attempt) < self.run.cfg.budget.max_attempts {
            ue.attempt += 1;
            return self.schedule_attempt(now.t, ue);
        }
        if now.measured {
            self.out.chaos.budget_exhausted += 1;
            if ue.crash != NO_CRASH {
                self.out.crashes[ue.crash as usize].lost += 1;
            }
        }
        ue.state = Link::Idle;
        ue.gen = ue.gen.wrapping_add(1);
        ue.crash = NO_CRASH;
        ue.attempt = 0;
    }

    fn arrive(&mut self, now: Now, ue: &mut Ue) {
        let (run, measured) = (self.run, now.measured);
        let u = ue.draw(self.seed);
        let next = now.t + exp_clamped(run.params.session_interarrival_s, u);
        let cell = ue.cell as usize;
        if measured {
            self.out.class_arrivals[ue.class as usize] += 1;
        }
        if ue.state != Link::Idle {
            // Data rides the existing bearer — or, while re-establishing,
            // piggybacks on the recovery exchange already in flight.
            if measured {
                self.out.stats.bill_arrival(&run.costs, true);
            }
        } else {
            let down = self.service_down(cell);
            // Admission control: an alive-but-storming satellite
            // broadcasts access-class barring, so new-session requests
            // are never even transmitted — recovery traffic keeps the
            // bucket's full token rate.
            let barred = !down && self.overloaded(cell, now);
            if down || barred || self.burst_lost(ue, measured) {
                // Admission is deferred into the paced lane (no session
                // to lose yet, so no crash row).
                ue.state = Link::Reattaching;
                ue.gen = ue.gen.wrapping_add(1);
                ue.attempt = 1;
                if measured {
                    self.out.stats.arrivals += 1;
                    self.out.chaos.deferred_establishments += 1;
                    self.out.gate_deferred_win[now.win] += 1;
                    // Only a burst-lost setup actually transmitted to a
                    // live satellite; barred UEs stay silent and against
                    // a dead one there is no cell to signal to — no
                    // surge counted.
                    if run.in_storm[cell] && !down && !barred {
                        self.out.rereg_storm_win[now.win] += 1;
                    }
                }
                self.schedule_attempt(now.t, ue);
            } else {
                let hold = self.start_session(now, ue);
                let msgs = if measured {
                    if run.record_holds {
                        self.out.session_hold_ms.observe(round_u64(hold * 1000.0) as f64);
                    }
                    if run.in_storm[cell] {
                        self.out.est_storm_win[now.win] += 1;
                        self.out.rereg_storm_win[now.win] += 1;
                    }
                    self.out.stats.bill_arrival(&run.costs, false)
                } else {
                    run.costs.local_establishment
                };
                self.observe_cost(ue, msgs, measured);
            }
        }
        self.at(next, Ev::Arrive);
    }

    fn release(&mut self, now: Now, ue: &mut Ue) {
        let cell = ue.cell as usize;
        if self.overloaded(cell, now) {
            // Overload gate: the release is low-priority signaling —
            // defer it past the storm.
            if now.measured {
                self.out.chaos.deferred_releases += 1;
                self.out.gate_deferred_win[now.win] += 1;
            }
            let u = ue.draw(self.seed);
            self.at(now.t + MIN_DELAY_S + u, Ev::Release(ue.gen));
        } else {
            ue.state = Link::Idle;
            self.seam.release(cell, now.us);
            let msgs = if now.measured {
                self.out.stats.bill_release(&self.run.costs)
            } else {
                self.run.costs.release
            };
            self.observe_cost(ue, msgs, now.measured);
        }
    }

    fn sweep(&mut self, now: Now, ue: &mut Ue) {
        let (run, measured) = (self.run, now.measured);
        let u = ue.draw(self.seed);
        let next = (now.t + run.params.transit_s * (0.75 + 0.5 * u)).max(now.t + MIN_DELAY_S);
        if ue.state != Link::Connected {
            // Free under geospatial tracking areas; billed as a C4 on
            // the legacy side.
            if measured {
                self.out.stats.bill_sweep(&run.costs, false);
            }
        } else if self.overloaded(ue.cell as usize, now) {
            // Defer the handover signaling, not the satellite: retry
            // shortly, the normal sweep cadence resumes once it lands.
            if measured {
                self.out.chaos.deferred_handovers += 1;
                self.out.gate_deferred_win[now.win] += 1;
            }
            let u = ue.draw(self.seed);
            return self.at(now.t + MIN_DELAY_S + u, Ev::Sweep);
        } else {
            let msgs = if measured {
                self.out.stats.bill_sweep(&run.costs, true)
            } else {
                run.costs.local_handover
            };
            self.observe_cost(ue, msgs, measured);
        }
        self.at(next, Ev::Sweep);
    }

    fn cross(&mut self, now: Now, ue: &mut Ue) {
        let (run, measured) = (self.run, now.measured);
        let u = ue.draw(self.seed);
        let dir = ((u * 4.0) as usize).min(3);
        let old = cell_at(&run.grid, ue.cell as usize);
        let new_idx = cell_index(&run.grid, run.grid.neighbors(old)[dir]);
        if ue.state == Link::Connected {
            self.seam.moved(ue.cell as usize, new_idx);
        }
        ue.cell = new_idx as u32;
        let msgs = if self.overloaded(new_idx, now) {
            // Shed: the destination satellite is storming; the C4
            // update is dropped outright (the cell record is eventually
            // consistent). Cost jitter still draws below so the stream
            // stays aligned.
            if measured {
                self.out.chaos.shed_crossings += 1;
                self.out.gate_shed_win[now.win] += 1;
            }
            0
        } else if measured {
            self.out.stats.bill_crossing(&run.costs)
        } else {
            run.costs.cell_crossing
        };
        self.observe_cost(ue, msgs, measured);
        let u = ue.draw(self.seed);
        self.at(now.t + exp_clamped(run.cfg.load.crossing_interval_s, u), Ev::Cross);
    }

    fn reattach(&mut self, now: Now, ue: &mut Ue) {
        let (run, measured) = (self.run, now.measured);
        let cell = ue.cell as usize;
        let crash = ue.crash;
        let down = self.service_down(cell);
        if crash == NO_CRASH && !down && self.overloaded(cell, now) {
            // Fresh admission still barred by the overload broadcast:
            // stay silent, re-enter the half-rate admission lane.
            if measured {
                self.out.chaos.deferred_establishments += 1;
                self.out.gate_deferred_win[now.win] += 1;
            }
            return self.retry_or_give_up(now, ue);
        }
        let failed = down || self.burst_lost(ue, measured);
        // Surge accounting: an attempt is signaling load on the
        // satellite only if a live satellite saw it — against a dead one
        // there is no cell to reach, the UE just keeps scanning.
        if measured && run.in_storm[cell] && !down {
            self.out.rereg_storm_win[now.win] += 1;
        }
        if failed {
            if measured {
                self.out.chaos.bill_attempt_failure(&run.costs);
            }
            return self.retry_or_give_up(now, ue);
        }
        // Stateless local re-establishment at the replacement satellite
        // (legacy re-runs the home-routed C2), or a deferred fresh
        // establishment landing: the same local bill either way.
        if crash != NO_CRASH {
            if measured {
                self.out.chaos.bill_reattach(&run.costs);
                let row = &mut self.out.crashes[crash as usize];
                row.reattached += 1;
                let off_us = now.us - tick(row.t_s);
                let slot = ((off_us / TT_SLOT_US) as usize).min(run.in_slots);
                row.slots[slot] += 1;
                if slot < run.in_slots {
                    row.survived += 1;
                } else {
                    row.late += 1;
                }
                self.out.reattach_ms.observe(round_u64(off_us as f64 / 1000.0) as f64);
            }
        } else if measured {
            let stats = &mut self.out.stats;
            stats.establishments += 1;
            stats.spacecore_msgs += run.costs.local_establishment as u64;
            stats.legacy_msgs += run.costs.legacy_establishment as u64;
            if run.in_storm[cell] {
                self.out.est_storm_win[now.win] += 1;
            }
        }
        ue.crash = NO_CRASH;
        ue.attempt = 0;
        self.start_session(now, ue);
        self.observe_cost(ue, run.costs.local_establishment, measured);
    }

    /// Crash `row` at its instant `now`: if the UE holds a session in
    /// the footprint, drop it and pace its re-establishment through the
    /// budget.
    fn crash(&mut self, now: Now, row: usize, ue: &mut Ue) {
        let cfg = self.run.cfg;
        if ue.state != Link::Connected || !self.run.crashes[row].cells.contains(&(ue.cell as usize))
        {
            return;
        }
        ue.state = Link::Reattaching;
        ue.gen = ue.gen.wrapping_add(1); // invalidates the pending Release
        ue.attempt = 1;
        ue.crash = row as u16;
        self.seam.release(ue.cell as usize, now.us);
        if now.measured {
            self.out.chaos.dropped += 1;
            self.out.crashes[row].dropped += 1;
        }
        let u = ue.draw(self.seed);
        let first = if cfg.paced {
            let key = ((ue.id as u64) << 8) | row as u64;
            cfg.budget.first_attempt_s(cfg.budget.slot(mix64(self.seed ^ mix64(key))), u)
        } else {
            // Thundering herd: everyone storms the replacement right
            // after detection.
            cfg.budget.detect_s + 0.2 * u
        };
        self.at(now.t + first, Ev::Reattach(ue.gen));
    }

    /// The UE at the horizon: a chain still re-establishing is pending.
    fn finish_ue(&mut self, ue: &Ue) {
        if ue.state == Link::Reattaching {
            self.out.reattaching_at_horizon += 1;
            if ue.crash != NO_CRASH {
                self.out.crashes[ue.crash as usize].pending += 1;
            }
        }
    }

    /// Fold the step-cost tally into its histogram.
    fn finish(mut self) -> ChurnOut {
        for (us, &n) in self.step_tally.iter().enumerate() {
            self.out.step_us.observe_n(us as f64, n);
        }
        self.out
    }
}

/// An empty [`Stream`] slot.
const EMPTY: (f64, u32, Ev) = (f64::INFINITY, u32::MAX, Ev::Arrive);

/// The per-UE driver: the UE's pending events by [`Ev::slot`], as
/// `(time, UE-local scheduling seq, event)`; where its clock stands in
/// `Run::cursor_after` (`epoch`) and `Run::storm_after` (`opened`); the
/// tick its session came up at; and the chunk's busy integral.
struct Stream<'r> {
    run: &'r Run<'r>,
    slots: [(f64, u32, Ev); 5],
    next_seq: u32,
    epoch: usize,
    opened: usize,
    since_us: u64,
    busy_us: u64,
}

impl<'r> Stream<'r> {
    /// A fresh UE's stream, adding to the busy integral `busy_us`.
    fn new(run: &'r Run<'r>, busy_us: u64) -> Self {
        Self { run, slots: [EMPTY; 5], next_seq: 0, epoch: 0, opened: 0, since_us: 0, busy_us }
    }

    /// The slot of the earliest pending event by `(time, seq)`.
    fn earliest(&self) -> usize {
        let key = |k: usize| (self.slots[k].0, self.slots[k].1);
        (1..5).fold(0, |k, j| if key(j) < key(k) { j } else { k })
    }

    /// Move the UE's clock to `t`: apply the timeline prefix and open
    /// the storms an event at `t` sees (see the module docs).
    fn advance_to(&mut self, t: f64) {
        let run = self.run;
        while let Some(&t_ms) = run.instants.get(self.epoch) {
            let marker_s = t_ms / 1000.0;
            if !(t_ms <= t * 1000.0 || (marker_s < run.horizon && marker_s <= t)) {
                break;
            }
            self.epoch += 1;
        }
        while run.storms.get(self.opened).is_some_and(|w| w.t_s <= t) {
            self.opened += 1;
        }
    }
}

impl<'r> Seam<'r> for Stream<'r> {
    fn queue(&mut self, t: f64, ev: Ev) {
        self.slots[ev.slot()] = (t, self.next_seq, ev);
        self.next_seq += 1;
    }

    fn cursor(&self) -> &ChaosCursor<'r> {
        &self.run.cursor_after[self.epoch]
    }

    fn storm(&self) -> &CellStorm {
        &self.run.storm_after[self.opened]
    }

    fn connect(&mut self, _cell: usize, now_us: u64) {
        self.since_us = now_us;
    }

    fn release(&mut self, _cell: usize, now_us: u64) {
        self.busy_us += self.run.measured_us(self.since_us, now_us);
    }

    fn moved(&mut self, _from: usize, _to: usize) {}
}

impl<'r> Engine<'r, Stream<'r>> {
    /// Run one UE from its first event to the horizon.
    fn drive(&mut self, ue: &mut Ue) {
        let run = self.run;
        self.seam = Stream::new(run, self.seam.busy_us);
        self.seed(ue);
        let mut crashes = run.crashes.iter().enumerate().peekable();
        loop {
            let k = self.seam.earliest();
            let (t, _, ev) = self.seam.slots[k];
            if let Some((row, c)) = crashes.next_if(|(_, c)| c.t_s <= t) {
                self.crash(run.now(c.t_s), row, ue);
                continue;
            }
            if t == f64::INFINITY {
                break;
            }
            self.seam.slots[k] = EMPTY;
            self.seam.advance_to(t);
            self.dispatch(run.now(t), ue, ev);
        }
        if ue.state == Link::Connected {
            self.seam.busy_us += run.measured_us(self.seam.since_us, run.end_us);
            self.out.cell_active_end[ue.cell as usize] += 1;
        }
        self.finish_ue(ue);
    }
}

/// Run the churn soak `cfg` describes on `threads` workers and fold the
/// chunks in id order. The UEs are drawn from `pop`; `label` assigns
/// each UE one of `classes` classes from its position, for the per-class tallies;
/// `record_holds` asks for the telemetry-only `session_hold_ms`
/// histogram. The result is identical for every `threads`.
///
/// # Panics
/// Panics on a config the engine cannot run faithfully: a deadline off
/// the 0.25 s slot grid, `sats` outside `1..=cells`, or more than 2³²
/// UEs (ids are the 32-bit hash-stream keys).
pub fn run(
    threads: usize,
    cfg: &ChaosloadConfig,
    pop: &PopulationModel,
    classes: usize,
    label: &(dyn Fn(&GeoPoint) -> u8 + Sync),
    record_holds: bool,
) -> ChurnOut {
    let run = Run::new(cfg, classes, record_holds);
    let n = cfg.load.total_ues;
    let chunks: Vec<Range<usize>> =
        (0..n).step_by(CHUNK).map(|first| first..n.min(first + CHUNK)).collect();
    let outs = crate::engine::parallel_map_with(threads, chunks, |ids| {
        // On the stack: the same pages serve every chunk a worker runs,
        // where two heap arrays a chunk fragment the workers' arenas.
        let (mut cells, mut classes) = ([0u32; CHUNK], [0u8; CHUNK]);
        let (cells, classes) = (&mut cells[..ids.len()], &mut classes[..ids.len()]);
        placed(pop, cfg.load.seed, &run.grid, label, ids.start, cells, classes);
        let mut engine = Engine::new(&run, Stream::new(&run, 0));
        for ((id, &cell), &class) in ids.zip(&*cells).zip(&*classes) {
            engine.drive(&mut Ue::new(id as u32, cell, class));
        }
        engine.out.busy_us = engine.seam.busy_us;
        engine.finish()
    });
    outs.iter().fold(ChurnOut::zero(&run), ChurnOut::absorb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ue_unit_is_a_pure_function_of_the_key() {
        for (seed, ue, draw) in [(0u64, 0u32, 0u32), (7, 42, 9), (u64::MAX, u32::MAX, u32::MAX)] {
            assert_eq!(ue_unit(seed, ue, draw), ue_unit(seed, ue, draw));
            assert!((0.0..1.0).contains(&ue_unit(seed, ue, draw)));
        }
        assert_ne!(ue_unit(1, 2, 3), ue_unit(1, 2, 4));
        assert_ne!(ue_unit(1, 2, 3), ue_unit(1, 3, 3));
        assert_ne!(ue_unit(1, 2, 3), ue_unit(2, 2, 3));
    }

    #[test]
    fn exp_clamped_floors_at_the_batch_window_and_keeps_the_mean() {
        assert_eq!(exp_clamped(100.0, 0.0), MIN_DELAY_S);
        assert!(exp_clamped(100.0, 0.999) > 100.0);
        let n = 20_000;
        let mean = (0..n).map(|i| exp_clamped(106.9, ue_unit(3, 0, i))).sum::<f64>() / n as f64;
        assert!((mean - 106.9).abs() < 0.05 * 106.9, "{mean}");
    }

    /// The oracle's batches are no wider than the shortest follow-up
    /// delay, and the series windows are the engine's.
    #[test]
    fn batch_window_matches_calendar_day() {
        assert_eq!(oracle::BATCH_WINDOW_S, MIN_DELAY_S);
        assert_eq!(WINDOW_S * 1e6, sc_obs::WINDOW_TICKS as f64);
    }

    /// The horizon rule: an event at or past the horizon is never
    /// queued nor counted, one just before it is.
    #[test]
    fn only_events_before_the_horizon_are_queued() {
        let cfg = ChaosloadConfig::smoke();
        let run = Run::new(&cfg, 1, false);
        let mut engine = Engine::new(&run, Stream::new(&run, 0));
        engine.at(run.horizon, Ev::Arrive);
        engine.at(run.horizon + 1.0, Ev::Sweep);
        assert_eq!(engine.seam.slots, [EMPTY; 5]);
        assert_eq!(engine.out.events_total, 0);
        engine.at(run.horizon - 1e-6, Ev::Cross);
        assert_eq!(engine.seam.earliest(), Ev::Cross.slot());
        assert_eq!(engine.seam.slots[Ev::Cross.slot()], (run.horizon - 1e-6, 0, Ev::Cross));
        assert_eq!(engine.out.events_total, 1);
        assert_eq!(engine.out.events_win.iter().sum::<u64>(), 1);
    }

    /// The smoke soak run UE by UE equals the calendar oracle at the
    /// default batch width and at a quarter of it.
    #[test]
    fn horizon_bounded_smoke_soak_is_invariant_to_the_batch_width() {
        let cfg = ChaosloadConfig::smoke();
        let pop = PopulationModel::world_bank_like();
        let want = format!("{:?}", run(2, &cfg, &pop, 1, &|_| 0, true));
        for width in [1.0, 0.25] {
            let got = oracle::run(&cfg, &pop, 1, &|_| 0, true, width);
            assert_eq!(format!("{got:?}"), want, "width {width}");
        }
    }

    fn rejected(edit: impl FnOnce(&mut ChaosloadConfig)) {
        let mut cfg = ChaosloadConfig::smoke();
        cfg.load.total_ues = 10;
        edit(&mut cfg);
        run(1, &cfg, &PopulationModel::world_bank_like(), 1, &|_| 0, false);
    }

    #[test]
    #[should_panic(expected = "slot grid")]
    fn off_grid_deadline_is_rejected() {
        rejected(|c| c.deadline_s = 12.1);
    }

    #[test]
    #[should_panic(expected = "sats <= cells")]
    fn zero_satellites_are_rejected() {
        rejected(|c| c.sats = 0);
    }

    /// UE ids are the `u32` keys of the hash streams: one more UE than
    /// they can number would alias two UEs' streams.
    #[test]
    #[should_panic(expected = "32-bit hash-stream key")]
    fn more_ues_than_32_bit_ids_are_rejected() {
        rejected(|c| c.load.total_ues = (1 << 32) + 1);
    }

    #[test]
    #[should_panic(expected = "one cell and one label per UE")]
    fn placement_arrays_of_unequal_length_are_rejected() {
        let pop = PopulationModel::world_bank_like();
        let grid = CellGrid::new(53f64.to_radians(), 72, 22);
        placed(&pop, 0, &grid, &|_| 0, 0, &mut [0; 3], &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "sats <= cells")]
    fn more_satellites_than_cells_are_rejected() {
        rejected(|c| c.sats = 1585);
    }
}
