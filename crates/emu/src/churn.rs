//! The sharded churn engine behind `ext_mload` and `ext_chaosload`.
//!
//! [`run`] draws a population, pins every UE to its geospatial cell and
//! to the shard owning that cell ([`place_labelled`]), and drives each
//! shard's UEs through continuous churn on one calendar-queue DES per
//! shard:
//! Poisson session arrivals (a localized 4-message establishment on an
//! idle UE, a piggyback on a connected one), RRC releases 10–15 s
//! later, a satellite sweep once per ~165.8 s transit (a local handover
//! if connected, nothing if idle), and rare cell crossings. The
//! config's [`FailureTimeline`](sc_netsim::chaos::FailureTimeline) is
//! replayed into every shard; a crash drops the footprint's connected
//! sessions into paced stateless re-establishment and opens the
//! overload gate (see `ext_chaosload` for the two mechanisms). An empty
//! timeline opens no window and drops nothing: the failure-free soak is
//! the same code on the same events.
//!
//! **Batching ≡ interleaving.** A shard drains its queue in
//! `batch_window_s`-wide half-open batches ([`EventQueue::drain_until`])
//! and every follow-up it schedules is at least [`MIN_DELAY_S`] ≥ one
//! batch ahead, so a reaction never lands inside the batch being
//! processed. Chaos timestamps sit on the integer-µs grid, so a crash on
//! a batch boundary is applied on the same tick at any batch width.
//!
//! **Horizon rule.** The last batch ends at the horizon, so an event
//! timed at or past it would never be processed: it is never queued.
//! The draws that timed it are spent all the same, so every hash stream
//! is the one an unbounded queue would see, and each shard's queue is
//! empty once its last batch has drained.
//!
//! **Streamed placement, no serial prefix.** Every UE reads the same
//! six words of the population sampler's seeded stream, so
//! [`PopulationModel::draws_at`] seeks straight to any UE. Each
//! placement chunk draws its own UEs' hotspots and uniforms and turns
//! them into points ([`PopulationModel::point_of`]) inside the parallel
//! cell pass: neither the draws nor the points are ever materialised,
//! and no part of the sampler runs serially.
//!
//! **Hash streams.** Every random draw is a pure hash of
//! `(seed, UE id, draw#)` ([`ue_unit`]) rather than stateful RNG: a UE's
//! own events are totally ordered by its shard's DES, so its draw
//! counter sequence — and every value — is identical under any shard
//! layout or thread schedule. Stale events consume no draws.
//!
//! **What a shard may record.** Shards touch no `sc_obs::Recorder`.
//! Each fills a [`ChurnOut`]: integer tallies, per-second window
//! vectors, and histograms of **integer-valued** samples (µs, ms), whose
//! float sums stay exact. That exactness lets the per-event cost
//! histogram be kept as a dense per-µs tally and folded in once, when
//! the shard's drain ends (`Histogram::observe_n`), into the histogram
//! per-event observes would give. All of it adds, so the slot-order fold
//! is the same for every thread count and every partition of the cells. The
//! two experiment modules turn the folded `ChurnOut` into their result
//! schema and emit their metric namespace from it once. Gauges, events
//! and spans would encode shard layout and are written only at top
//! level; the per-shard DES queues stay recorder-free for the same
//! reason, and per-shard chaos cursors replay silently.

use crate::ext_chaosload::ChaosloadConfig;
use sc_dataset::population::PopulationModel;
use sc_dataset::workload::WorkloadParams;
use sc_geo::cells::CellGrid;
use sc_geo::sphere::GeoPoint;
use sc_netsim::chaos::{ChaosAction, ChaosCursor};
use sc_netsim::des::EventQueue;
use sc_obs::{Histogram, Recorder};
use spacecore::shard::{
    cell_at, cell_index, CellLedger, CellStorm, ChaosStats, ProcedureCosts, ShardMap, ShardStats,
    Tick,
};
use std::ops::Range;

/// Default batch window width; equals the DES calendar day
/// (`EventQueue::BUCKET_WIDTH_S`) so a window never spans day
/// promotions mid-drain. A config may narrow it.
pub const BATCH_WINDOW_S: f64 = 1.0;
/// Minimum follow-up delay: every reaction the engine schedules (churn
/// follow-ups, retries, backoffs, deferrals) is at least one full
/// default batch window ahead. Loss *detection* is likewise quantized up
/// to this — the plan-level 200 ms would land retries inside the window
/// that scheduled them.
pub const MIN_DELAY_S: f64 = BATCH_WINDOW_S;
/// Simulated per-message processing cost, µs — the Figure 16b scale of
/// a satellite-local signaling step.
const PER_MSG_US: f64 = 120.0;
/// Width of the per-window vectors in [`ChurnOut`], s: the `sc-obs`
/// series window. Indexed by event time, never by batch number.
pub const WINDOW_S: f64 = 1.0;
/// Resolution of the time-to-re-established slot counts, µs (0.25 s).
const TT_SLOT_US: u64 = 250_000;
/// UEs per parallel placement chunk.
const PLACE_CHUNK: usize = 16_384;

/// Microsecond tick of a simulation timestamp (the `CellLedger` grid).
fn tick(t_s: f64) -> u64 {
    Tick::from(t_s).0
}

/// The [`WINDOW_S`] window holding event time `t_s` (< the horizon, so
/// inside every per-window vector).
fn win_of(t_s: f64) -> usize {
    (t_s / WINDOW_S) as usize
}

/// The placement stage: pin every point to its cell and hand it to the
/// shard owning that cell, as a compact `(UE id, cell index)` record
/// (the id is the point's index — the hash-stream key). Cells are
/// computed in parallel over fixed-size id ranges; the scatter is serial
/// and walks ids upwards into exactly-sized vectors. **Ordering
/// contract:** `out[s]` lists shard `s`'s UEs in ascending id order for
/// every `threads` value — the order a shard seeds its DES in, so every
/// byte of the artifacts rests on it.
pub fn place(
    threads: usize,
    points: &[GeoPoint],
    grid: &CellGrid,
    shard_map: &ShardMap,
) -> Vec<Vec<(u32, u32)>> {
    let points_of = |ids: Range<usize>| points[ids].iter().copied();
    place_labelled(threads, points.len(), &points_of, grid, shard_map, &|_| 0).0
}

/// [`place`] over `n` UEs whose points `points` produces one id range
/// at a time, inside the parallel pass, plus each point's `label` by
/// id — computed in the same pass. [`run`] hands it the population
/// sampler seeked to each range's first UE, so the whole sampler runs
/// on every worker and no per-UE record outlives its chunk.
pub fn place_labelled<P: Iterator<Item = GeoPoint>>(
    threads: usize,
    n: usize,
    points: &(dyn Fn(Range<usize>) -> P + Sync),
    grid: &CellGrid,
    shard_map: &ShardMap,
    label: &(dyn Fn(&GeoPoint) -> u8 + Sync),
) -> (Vec<Vec<(u32, u32)>>, Vec<u8>) {
    let chunks: Vec<Range<usize>> = (0..n)
        .step_by(PLACE_CHUNK)
        .map(|first| first..n.min(first + PLACE_CHUNK))
        .collect();
    let pinned = crate::engine::parallel_map_with(threads, chunks, |ids| {
        let mut cells = Vec::with_capacity(ids.len());
        let mut labels = Vec::with_capacity(ids.len());
        for p in points(ids) {
            cells.push(cell_index(grid, grid.cell_of_point(&p)) as u32);
            labels.push(label(&p));
        }
        (cells, labels)
    });
    let cells = || pinned.iter().flat_map(|(cells, _)| cells);
    let owner: Vec<u32> = (0..shard_map.cells())
        .map(|c| shard_map.shard_of(c) as u32)
        .collect();
    let mut sizes = vec![0usize; shard_map.shards()];
    for &cell in cells() {
        sizes[owner[cell as usize] as usize] += 1;
    }
    let mut out: Vec<Vec<(u32, u32)>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (id, &cell) in cells().enumerate() {
        out[owner[cell as usize] as usize].push((id as u32, cell));
    }
    let labels = pinned.iter().flat_map(|(_, labels)| labels).copied().collect();
    (out, labels)
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
/// shard or thread evaluates it.
pub fn ue_unit(seed: u64, ue: u32, draw: u32) -> f64 {
    let h = mix64(seed ^ mix64(((ue as u64) << 32) | draw as u64));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Exponential draw with mean `mean_s`, clamped to [`MIN_DELAY_S`] (the
/// batch-window contract). The clamp shifts < 1% of the mass for the
/// ≥ 100 s means used here.
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

/// One UE's churn + recovery state inside its shard.
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
    fn draw(&mut self, seed: u64) -> f64 {
        let u = ue_unit(seed, self.id, self.draws);
        self.draws += 1;
        u
    }
}

/// Churn + chaos events; UE payloads are shard-local indices.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Arrive(u32),
    Release { ue: u32, gen: u16 },
    Sweep(u32),
    Cross(u32),
    Reattach { ue: u32, gen: u16 },
    /// Index into the timeline's event list; scheduled before any UE
    /// event so same-tick ties resolve chaos-first in every shard.
    Chaos(u32),
}

// Peak RSS of a soak is a few shards' `Ue`s and queued events; these two
// sizes were measured to be ≈ 13 MB of it at 1M UEs when left to grow.
const _: () = assert!(size_of::<Ev>() <= 8);
const _: () = assert!(size_of::<Ue>() <= 24);

/// One crash of the scenario and its recovery accounting: additive
/// counts plus the time-to-re-established slot histogram.
#[derive(Debug, Clone)]
pub struct CrashTrack {
    pub t_s: f64,
    pub sat: usize,
    /// The crashed satellite's footprint, row-major cell indices.
    pub cells: Range<usize>,
    /// The timeline event that is this crash.
    ev_idx: usize,
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
    ev_idx: usize,
    cells: Range<usize>,
    until_s: f64,
}

fn add_into(acc: &mut [u64], other: &[u64]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

/// What one shard produces and, once [`run`] has folded the shards in
/// slot order, what the whole run produced. Window vectors are indexed by
/// `floor(event time / WINDOW_S)`.
#[derive(Debug, Clone)]
pub struct ChurnOut {
    pub stats: ShardStats,
    pub chaos: ChaosStats,
    /// Events processed over warmup + measured windows (chaos markers,
    /// replayed in every shard, are bookkeeping and not counted).
    pub events_total: u64,
    pub events_measured: u64,
    /// Busy-time integral in integer µs ticks — exact under summation.
    pub busy_us: u64,
    /// Active sessions per cell at the horizon. A cell's sessions can
    /// live in any shard (crossings migrate UEs), so sum before counting.
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

/// Immutable per-run context every shard worker borrows: the config,
/// the static maps, the cost models and the resolved chaos scenario —
/// all pure functions of the config, identical for every shard.
struct Run<'a> {
    cfg: &'a ChaosloadConfig,
    params: WorkloadParams,
    grid: CellGrid,
    /// Serving satellite of each cell: the static footprint map
    /// (`ShardMap::shard_of` over the satellites), looked up once here.
    serving: Vec<u32>,
    costs: ProcedureCosts,
    horizon: f64,
    /// [`WINDOW_S`] windows covering the horizon.
    windows: usize,
    /// Time-to-re-established slots inside the deadline.
    in_slots: usize,
    classes: usize,
    record_holds: bool,
    /// Zeroed per-crash rows, in timeline order.
    crashes: Vec<CrashTrack>,
    storms: Vec<StormWin>,
    /// Cells inside any crash footprint.
    in_storm: Vec<bool>,
}

impl<'a> Run<'a> {
    /// Check the config and resolve the scenario.
    fn new(cfg: &'a ChaosloadConfig, classes: usize, record_holds: bool) -> Self {
        let grid = CellGrid::new(53f64.to_radians(), 72, 22);
        let deadline_us = tick(cfg.deadline_s);
        assert!(
            cfg.batch_window_s > 0.0 && cfg.batch_window_s <= MIN_DELAY_S,
            "batch window must not exceed the minimum follow-up delay"
        );
        assert!(
            deadline_us.is_multiple_of(TT_SLOT_US),
            "deadline_s must sit on the 0.25 s re-establishment slot grid"
        );
        assert!(
            (1..=grid.cell_count()).contains(&cfg.sats),
            "need 1 <= sats <= cells for a footprint per satellite"
        );
        assert!(cfg.budget.max_attempts <= u32::from(u16::MAX), "attempt counter is 16-bit");
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
                        ev_idx: k,
                        cells: cells.clone(),
                        until_s: until_s(ChaosAction::Recover(sat)),
                    });
                    crashes.push(CrashTrack {
                        t_s,
                        sat,
                        cells,
                        ev_idx: k,
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
                        ev_idx: k,
                        cells: coverage.range(sat),
                        until_s: until_s(ChaosAction::LinkUp(a, b)),
                    });
                }
                _ => {}
            }
        }
        assert!(crashes.len() < NO_CRASH as usize, "crash index is 16-bit");
        Self {
            cfg,
            params: WorkloadParams::paper_defaults(),
            serving: (0..grid.cell_count()).map(|c| coverage.shard_of(c) as u32).collect(),
            grid,
            costs: ProcedureCosts::paper(),
            horizon,
            windows: (horizon / WINDOW_S).ceil() as usize,
            in_slots,
            classes,
            record_holds,
            crashes,
            storms,
            in_storm,
        }
    }

}

/// An event's instant as every handler reads it, computed once per
/// event by [`Shard::step`].
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

/// One shard mid-drain: its UEs, its DES, its dense per-cell state and
/// the output it is filling.
struct Shard<'a> {
    run: &'a Run<'a>,
    seed: u64,
    ues: Vec<Ue>,
    q: EventQueue<Ev>,
    ledger: CellLedger,
    storm: CellStorm,
    /// Replay cursor over the shared timeline, advanced on this shard's
    /// own DES clock.
    cursor: ChaosCursor<'a>,
    /// What the cursor records into: nothing (see the module docs).
    quiet: Recorder,
    /// `step_tally[v]`: measured events that cost `v` simulated µs,
    /// folded into `out.step_us` once, when the drain ends. The samples
    /// are integers, so the fold is exactly the per-event histogram.
    step_tally: Vec<u64>,
    out: ChurnOut,
}

impl<'a> Shard<'a> {
    /// Seed the queue: chaos markers first (smallest sequence numbers
    /// in *every* shard), then each UE, in local order, gets an
    /// exponential first arrival (stationary Poisson from t = 0), a
    /// uniform sweep phase and an exponential first crossing.
    fn new(run: &'a Run<'a>, ues: Vec<Ue>) -> Self {
        let cfg = run.cfg;
        let seed = cfg.load.seed;
        let mut shard = Self {
            run,
            seed,
            ues,
            q: EventQueue::new(),
            ledger: CellLedger::new(run.grid.cell_count(), cfg.load.warmup_s, run.horizon),
            storm: CellStorm::new(run.grid.cell_count()),
            cursor: cfg.timeline.cursor(),
            quiet: Recorder::disabled(),
            step_tally: Vec::new(),
            out: ChurnOut::zero(run),
        };
        for (k, e) in cfg.timeline.events().iter().enumerate() {
            shard.at(e.time_ms / 1000.0, Ev::Chaos(k as u32));
        }
        for i in 0..shard.ues.len() as u32 {
            let ue = &mut shard.ues[i as usize];
            shard.out.class_ues[ue.class as usize] += 1;
            let arrive = exp_clamped(run.params.session_interarrival_s, ue.draw(seed));
            let sweep = ue.draw(seed) * run.params.transit_s;
            let cross = exp_clamped(cfg.load.crossing_interval_s, ue.draw(seed));
            shard.at(arrive, Ev::Arrive(i));
            shard.at(sweep, Ev::Sweep(i));
            shard.at(cross, Ev::Cross(i));
        }
        shard
    }

    /// Schedule `ev` at `t` under the horizon rule (see the module
    /// docs): an event at or past the horizon is dropped.
    fn at(&mut self, t: f64, ev: Ev) {
        if t < self.run.horizon {
            self.q.schedule(t, ev);
        }
    }

    fn drain(mut self) -> ChurnOut {
        let width = self.run.cfg.batch_window_s;
        let batches = (self.run.horizon / width).ceil() as u64;
        let mut batch = Vec::new();
        for w in 0..batches {
            let end = ((w + 1) as f64 * width).min(self.run.horizon);
            self.q.drain_until(end, &mut batch);
            for ev in &batch {
                self.step(ev.time, ev.event);
            }
        }
        debug_assert!(self.q.is_empty(), "an event past the last batch was queued");
        self.ledger.finish();
        for ue in self.ues.iter().filter(|u| u.state == Link::Reattaching) {
            self.out.reattaching_at_horizon += 1;
            if ue.crash != NO_CRASH {
                self.out.crashes[ue.crash as usize].pending += 1;
            }
        }
        self.out.busy_us = self.ledger.busy_us();
        for (acc, &n) in self.out.cell_active_end.iter_mut().zip(self.ledger.cell_active()) {
            *acc = u64::from(n);
        }
        for (us, &n) in self.step_tally.iter().enumerate() {
            self.out.step_us.observe_n(us as f64, n);
        }
        self.out
    }

    fn step(&mut self, t: f64, ev: Ev) {
        let now = Now {
            t,
            us: tick(t),
            win: win_of(t),
            measured: t >= self.run.cfg.load.warmup_s,
        };
        self.cursor.advance_to(t * 1000.0, &self.quiet);
        // Chaos markers are replayed in *every* shard: schedule
        // bookkeeping, not workload, so they stay out of the tallies.
        if !matches!(ev, Ev::Chaos(_)) {
            self.out.events_total += 1;
            self.out.events_measured += u64::from(now.measured);
            self.out.events_win[now.win] += 1;
        }
        // A `Release`/`Reattach` left behind by a session that a crash
        // or a give-up has since ended is stale: it is dropped without
        // consuming a draw, so it is invisible to the hash streams.
        match ev {
            Ev::Arrive(i) => self.arrive(now, i),
            Ev::Release { ue, gen } => {
                let u = &self.ues[ue as usize];
                if u.gen == gen && u.state == Link::Connected {
                    self.release(now, ue);
                }
            }
            Ev::Sweep(i) => self.sweep(now, i),
            Ev::Cross(i) => self.cross(now, i),
            Ev::Reattach { ue, gen } => {
                let u = &self.ues[ue as usize];
                if u.gen == gen && u.state == Link::Reattaching {
                    self.reattach(now, ue);
                }
            }
            Ev::Chaos(k) => self.chaos(now, k as usize),
        }
    }

    /// Draw the per-event cost jitter and, for measured events with
    /// SpaceCore-side work, tally the processing cost in integer
    /// simulated µs (folded into `out.step_us` when the drain ends). The
    /// draw always happens, so a UE's stream position never depends on
    /// the measurement window.
    fn observe_cost(&mut self, i: u32, msgs: u32, measured: bool) {
        let u = self.ues[i as usize].draw(self.seed);
        if measured && msgs > 0 {
            let us = (msgs as f64 * PER_MSG_US * (0.75 + 0.5 * u)).round() as usize;
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
        self.cursor.is_dead(sat) || self.cursor.link_down(sat, self.run.cfg.gateway())
    }

    /// Inside a loss-burst window, draw whether this UE's transmission
    /// is lost (a keyed draw on the UE's own counter).
    fn burst_lost(&mut self, i: u32, measured: bool) -> bool {
        if !self.cursor.in_burst() {
            return false;
        }
        let ue = &mut self.ues[i as usize];
        let lost = self.cursor.burst_loss_keyed(ue.id as u64, ue.draws as u64, &self.quiet);
        ue.draws += 1;
        self.out.chaos.burst_losses += u64::from(lost && measured);
        lost
    }

    /// Bring the UE's session up at `now`: draw the U(10, 15) s hold and
    /// schedule the release that ends it.
    fn start_session(&mut self, now: Now, i: u32) -> f64 {
        let ue = &mut self.ues[i as usize];
        let u = ue.draw(self.seed);
        let hold = self.run.params.inactivity_release_s - 2.5 + 5.0 * u;
        ue.state = Link::Connected;
        let gen = ue.gen;
        self.ledger.connect(ue.cell as usize, Tick(now.us));
        self.at(now.t + hold, Ev::Release { ue: i, gen });
        hold
    }

    /// Schedule attempt `ue.attempt` of the UE's chain. Recovery chains
    /// back off exponentially (deadline-bound); fresh-admission chains
    /// enter the paced half-rate admission lane.
    fn schedule_attempt(&mut self, t: f64, i: u32) {
        let budget = &self.run.cfg.budget;
        let ue = &mut self.ues[i as usize];
        let u = ue.draw(self.seed);
        let delay = if ue.crash != NO_CRASH || !self.run.cfg.paced {
            budget.backoff_s(u32::from(ue.attempt), u)
        } else {
            let key = ((ue.id as u64) << 16) | 0xFF00 | u64::from(ue.attempt);
            budget.admission_attempt_s(budget.slot(mix64(self.seed ^ mix64(key))), u)
        };
        let gen = ue.gen;
        self.at(t + delay.max(MIN_DELAY_S), Ev::Reattach { ue: i, gen });
    }

    /// After a failed or barred attempt: try again, or give the session
    /// up once the budget is spent.
    fn retry_or_give_up(&mut self, now: Now, i: u32) {
        let ue = &mut self.ues[i as usize];
        if u32::from(ue.attempt) < self.run.cfg.budget.max_attempts {
            ue.attempt += 1;
            return self.schedule_attempt(now.t, i);
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

    fn arrive(&mut self, now: Now, i: u32) {
        let (run, measured) = (self.run, now.measured);
        let ue = &mut self.ues[i as usize];
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
            let barred = !down && self.storm.overloaded(cell, now.us);
            if down || barred || self.burst_lost(i, measured) {
                // Admission is deferred into the paced lane (no session
                // to lose yet, so no crash row).
                let ue = &mut self.ues[i as usize];
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
                self.schedule_attempt(now.t, i);
            } else {
                let hold = self.start_session(now, i);
                let msgs = if measured {
                    if run.record_holds {
                        self.out.session_hold_ms.observe((hold * 1000.0).round());
                    }
                    if run.in_storm[cell] {
                        self.out.est_storm_win[now.win] += 1;
                        self.out.rereg_storm_win[now.win] += 1;
                    }
                    self.out.stats.bill_arrival(&run.costs, false)
                } else {
                    run.costs.local_establishment
                };
                self.observe_cost(i, msgs, measured);
            }
        }
        self.at(next, Ev::Arrive(i));
    }

    fn release(&mut self, now: Now, i: u32) {
        let ue = &mut self.ues[i as usize];
        let cell = ue.cell as usize;
        if self.storm.overloaded(cell, now.us) {
            // Overload gate: the release is low-priority signaling —
            // defer it past the storm.
            if now.measured {
                self.out.chaos.deferred_releases += 1;
                self.out.gate_deferred_win[now.win] += 1;
            }
            let (u, gen) = (ue.draw(self.seed), ue.gen);
            self.at(now.t + MIN_DELAY_S + u, Ev::Release { ue: i, gen });
        } else {
            ue.state = Link::Idle;
            self.ledger.release(cell, Tick(now.us));
            let msgs = if now.measured {
                self.out.stats.bill_release(&self.run.costs)
            } else {
                self.run.costs.release
            };
            self.observe_cost(i, msgs, now.measured);
        }
    }

    fn sweep(&mut self, now: Now, i: u32) {
        let (run, measured) = (self.run, now.measured);
        let ue = &mut self.ues[i as usize];
        let u = ue.draw(self.seed);
        let next = (now.t + run.params.transit_s * (0.75 + 0.5 * u)).max(now.t + MIN_DELAY_S);
        if ue.state != Link::Connected {
            // Free under geospatial tracking areas; billed as a C4 on
            // the legacy side.
            if measured {
                self.out.stats.bill_sweep(&run.costs, false);
            }
        } else if self.storm.overloaded(ue.cell as usize, now.us) {
            // Defer the handover signaling, not the satellite: retry
            // shortly, the normal sweep cadence resumes once it lands.
            if measured {
                self.out.chaos.deferred_handovers += 1;
                self.out.gate_deferred_win[now.win] += 1;
            }
            let u = ue.draw(self.seed);
            self.at(now.t + MIN_DELAY_S + u, Ev::Sweep(i));
            return;
        } else {
            let msgs = if measured {
                self.out.stats.bill_sweep(&run.costs, true)
            } else {
                run.costs.local_handover
            };
            self.observe_cost(i, msgs, measured);
        }
        self.at(next, Ev::Sweep(i));
    }

    fn cross(&mut self, now: Now, i: u32) {
        let (run, measured) = (self.run, now.measured);
        let ue = &mut self.ues[i as usize];
        let u = ue.draw(self.seed);
        let dir = ((u * 4.0) as usize).min(3);
        let old = cell_at(&run.grid, ue.cell as usize);
        let new_idx = cell_index(&run.grid, run.grid.neighbors(old)[dir]);
        if ue.state == Link::Connected {
            self.ledger.move_session(ue.cell as usize, new_idx);
        }
        ue.cell = new_idx as u32;
        let msgs = if self.storm.overloaded(new_idx, now.us) {
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
        self.observe_cost(i, msgs, measured);
        let u = self.ues[i as usize].draw(self.seed);
        self.at(now.t + exp_clamped(run.cfg.load.crossing_interval_s, u), Ev::Cross(i));
    }

    fn reattach(&mut self, now: Now, i: u32) {
        let (run, measured) = (self.run, now.measured);
        let ue = &self.ues[i as usize];
        let cell = ue.cell as usize;
        let crash = ue.crash;
        let down = self.service_down(cell);
        if crash == NO_CRASH && !down && self.storm.overloaded(cell, now.us) {
            // Fresh admission still barred by the overload broadcast:
            // stay silent, re-enter the half-rate admission lane.
            if measured {
                self.out.chaos.deferred_establishments += 1;
                self.out.gate_deferred_win[now.win] += 1;
            }
            return self.retry_or_give_up(now, i);
        }
        let failed = down || self.burst_lost(i, measured);
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
            return self.retry_or_give_up(now, i);
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
                self.out.reattach_ms.observe((off_us as f64 / 1000.0).round());
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
        let ue = &mut self.ues[i as usize];
        ue.crash = NO_CRASH;
        ue.attempt = 0;
        self.start_session(now, i);
        self.observe_cost(i, run.costs.local_establishment, measured);
    }

    /// Apply timeline event `k`: open the overload windows it starts
    /// and, for a crash, drop every connected session in the footprint
    /// and pace its re-establishment through the budget.
    fn chaos(&mut self, now: Now, k: usize) {
        let cfg = self.run.cfg;
        // Apply through the event's *exact* quantized timestamp: the
        // s → ms roundtrip in `step` can land one ulp short of it.
        self.cursor.advance_to(cfg.timeline.events()[k].time_ms, &self.quiet);
        for sw in self.run.storms.iter().filter(|s| s.ev_idx == k) {
            self.storm.open(sw.cells.clone(), now.us, tick(sw.until_s));
        }
        let Some(row) = self.out.crashes.iter().position(|c| c.ev_idx == k) else {
            return; // recover/link/burst/flap: no drops
        };
        let footprint = self.out.crashes[row].cells.clone();
        for j in 0..self.ues.len() as u32 {
            let ue = &mut self.ues[j as usize];
            let cell = ue.cell as usize;
            if ue.state != Link::Connected || !footprint.contains(&cell) {
                continue;
            }
            ue.state = Link::Reattaching;
            ue.gen = ue.gen.wrapping_add(1); // invalidates the pending Release
            ue.attempt = 1;
            ue.crash = row as u16;
            self.ledger.release(cell, Tick(now.us));
            if now.measured {
                self.out.chaos.dropped += 1;
                self.out.crashes[row].dropped += 1;
            }
            let u = ue.draw(self.seed);
            let first = if cfg.paced {
                let key = ((ue.id as u64) << 8) | row as u64;
                cfg.budget.first_attempt_s(cfg.budget.slot(mix64(self.seed ^ mix64(key))), u)
            } else {
                // Thundering herd: everyone storms the replacement
                // right after detection.
                cfg.budget.detect_s + 0.2 * u
            };
            let gen = ue.gen;
            self.at(now.t + first, Ev::Reattach { ue: j, gen });
        }
    }
}

/// Run the churn soak `cfg` describes on `threads` workers and fold the
/// shards in slot order. The UEs are drawn from `pop`; `label` assigns
/// each UE one of `classes` classes from its position, for the per-class tallies;
/// `record_holds` asks for the telemetry-only `session_hold_ms`
/// histogram. The result is identical for every `threads` and every
/// `cfg.load.shards`.
///
/// # Panics
/// Panics on a config the engine cannot run faithfully: a batch window
/// outside `(0, MIN_DELAY_S]`, a deadline off the 0.25 s slot grid, or
/// `sats` outside `1..=cells`.
pub fn run(
    threads: usize,
    cfg: &ChaosloadConfig,
    pop: &PopulationModel,
    classes: usize,
    label: &(dyn Fn(&GeoPoint) -> u8 + Sync),
    record_holds: bool,
) -> ChurnOut {
    let run = Run::new(cfg, classes, record_holds);
    let shard_map = ShardMap::new(run.grid.cell_count(), cfg.load.shards);
    // Each placement chunk draws its own UEs, straight from its slice
    // of the seeded stream: nothing of the sampler is serial.
    let points = |ids: Range<usize>| {
        let n = ids.len();
        pop.draws_at(cfg.load.seed, ids.start).take(n).map(|d| pop.point_of(&d))
    };
    let (placed, classes_of) =
        place_labelled(threads, cfg.load.total_ues, &points, &run.grid, &shard_map, label);

    let outs = crate::engine::parallel_map_with(threads, placed, |placed| {
        let ues = placed
            .iter()
            .map(|&(id, cell)| Ue {
                id,
                cell,
                draws: 0,
                gen: 0,
                attempt: 0,
                crash: NO_CRASH,
                state: Link::Idle,
                class: classes_of[id as usize],
            })
            .collect();
        Shard::new(&run, ues).drain()
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

    #[test]
    fn batch_window_matches_calendar_day() {
        assert_eq!(BATCH_WINDOW_S, EventQueue::<Ev>::BUCKET_WIDTH_S);
        assert_eq!(WINDOW_S * 1e6, sc_obs::WINDOW_TICKS as f64);
    }

    /// The horizon rule: an event at or past the horizon is never
    /// queued, one just before it is. `Shard::new` seeds through the
    /// same rule, so only in-horizon chaos markers are queued.
    #[test]
    fn only_events_before_the_horizon_are_queued() {
        let cfg = ChaosloadConfig::smoke();
        let run = Run::new(&cfg, 1, false);
        let mut shard = Shard::new(&run, Vec::new());
        let markers = cfg.timeline.events().iter();
        let due = markers.filter(|e| e.time_ms / 1000.0 < run.horizon).count();
        assert_eq!(shard.q.len(), due);
        shard.at(run.horizon, Ev::Arrive(0));
        shard.at(run.horizon + 1.0, Ev::Sweep(0));
        assert_eq!(shard.q.len(), due);
        shard.at(run.horizon - 1e-6, Ev::Cross(0));
        assert_eq!(shard.q.len(), due + 1);
    }

    /// The smoke soak with its queue bounded by the horizon drains empty
    /// (`Shard::drain` asserts it in debug builds) and folds to the same
    /// output at the default batch width and at a quarter of it.
    #[test]
    fn horizon_bounded_smoke_soak_is_invariant_to_the_batch_width() {
        let outs = [1.0, 0.25].map(|batch_window_s| {
            let cfg = ChaosloadConfig {
                batch_window_s,
                ..ChaosloadConfig::smoke()
            };
            format!("{:?}", run(2, &cfg, &PopulationModel::world_bank_like(), 1, &|_| 0, true))
        });
        assert_eq!(outs[0], outs[1]);
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

    #[test]
    #[should_panic(expected = "sats <= cells")]
    fn more_satellites_than_cells_are_rejected() {
        rejected(|c| c.sats = 1585);
    }
}
