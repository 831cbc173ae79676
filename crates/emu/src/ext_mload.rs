//! Extension experiment: million-UE sharded sustained-load engine.
//!
//! The per-figure sweeps sample populations; this engine *serves* one.
//! It draws `total_ues` UEs from the World-Bank population mixture,
//! pins each to its geospatial cell on the Starlink grid (72 × 22, the
//! paper's natural shard key) and to the contiguous shard owning that
//! cell ([`crate::churn::place`] — cells computed in parallel, each
//! shard's UEs always in ascending id order; the shard worker then
//! classifies their regions and builds their churn state), and drives
//! every UE through continuous churn on one calendar-queue DES per shard:
//!
//! * **session arrivals** — Poisson, mean 106.9 s per UE (§3.1); an
//!   arrival on an idle UE runs the localized establishment (4 msgs
//!   SpaceCore vs the 13-msg home-routed C2), an arrival on a connected
//!   UE rides the existing bearer;
//! * **RRC releases** — 10–15 s after establishment (§3.1);
//! * **satellite sweeps** — once per ~165.8 s coverage transit: a local
//!   3-msg handover for connected UEs, *nothing* for idle ones under
//!   geospatial tracking areas (legacy bills a C3/C4 respectively);
//! * **cell crossings** — rare UE mobility across cells, C4 both ways.
//!
//! Each shard's events are drained in [`BATCH_WINDOW_S`]-wide batches
//! ([`EventQueue::drain_until`]); every follow-up delay is at least
//! [`MIN_DELAY_S`] = one window, so batch processing is event-for-event
//! identical to interleaved processing. All randomness is a per-UE
//! splitmix64 hash stream keyed by `(seed, ue, draw#)` — independent of
//! shard layout and thread schedule. Every reported quantity is a sum
//! (or bucket merge) over disjoint cell ranges, and every histogram
//! observation is **integer-valued** so float sums stay associative —
//! which together make results *and* telemetry byte-identical across
//! `SC_EMU_THREADS` and across shard counts. Shards run under
//! [`crate::engine::parallel_map_obs_with`], which merges per-shard
//! recorders in slot order.
//!
//! Wall-clock throughput (steady-state events/s, p99 step cost, peak
//! RSS) is reported by `bench-report`'s `mload` section, not here:
//! `results/ext_mload.json` holds only deterministic quantities.

use sc_dataset::population::{PopulationModel, Region};
use sc_dataset::workload::WorkloadParams;
use sc_geo::cells::CellGrid;
use sc_netsim::des::EventQueue;
use serde::Serialize;
use spacecore::shard::{cell_at, cell_index, CellLedger, ProcedureCosts, ShardMap, ShardStats};

/// Batch window width; equals the DES calendar day
/// (`EventQueue::BUCKET_WIDTH_S`) so a window never spans day
/// promotions mid-drain.
pub const BATCH_WINDOW_S: f64 = 1.0;
/// Minimum follow-up delay: one full batch window, the contract that
/// makes deferred batch processing equivalent to per-event processing
/// (see [`EventQueue::drain_until`]).
pub const MIN_DELAY_S: f64 = BATCH_WINDOW_S;
/// Simulated per-message processing cost, µs — the Figure 16b scale of
/// a satellite-local signaling step. Costs are recorded in integer
/// microseconds: integer-valued f64 observations sum exactly, so
/// histogram sidecars stay byte-identical under any shard grouping.
const PER_MSG_US: f64 = 120.0;

/// Engine configuration. [`MloadConfig::full`] is the million-UE soak
/// the acceptance figures come from; [`MloadConfig::smoke`] is the
/// bounded tier-1 variant.
#[derive(Debug, Clone)]
pub struct MloadConfig {
    /// Live UEs under churn management.
    pub total_ues: usize,
    /// Requested shard count (clamped to the cell count).
    pub shards: usize,
    /// Ramp-in window excluded from every measured quantity, s.
    pub warmup_s: f64,
    /// Measured steady-state window, s.
    pub measure_s: f64,
    /// Root seed for placement and all churn draws.
    pub seed: u64,
    /// Mean interval between geospatial cell crossings per UE, s
    /// (Table 3 cells are hundreds of km wide — crossings are rare).
    pub crossing_interval_s: f64,
}

impl MloadConfig {
    /// The million-UE sustained soak: 30 s ramp + 120 s measured.
    pub fn full() -> Self {
        Self {
            total_ues: 1_000_000,
            shards: 64,
            warmup_s: 30.0,
            measure_s: 120.0,
            seed: 0x5C_10AD,
            crossing_interval_s: 600.0,
        }
    }

    /// Bounded smoke variant for `scripts/tier1.sh` byte-stability
    /// checks: same mechanics, seconds of wall time.
    pub fn smoke() -> Self {
        Self {
            total_ues: 20_000,
            shards: 8,
            warmup_s: 5.0,
            measure_s: 20.0,
            ..Self::full()
        }
    }
}

/// Result of one run. Everything here is deterministic in the config —
/// no wall-clock, no thread count, no shard count (shard layout is an
/// execution detail, deliberately **absent** from the schema;
/// `tests/mload_props.rs` asserts the bytes are invariant to it).
#[derive(Debug, Clone, Serialize)]
pub struct ExtMload {
    pub total_ues: usize,
    pub cells: usize,
    pub warmup_s: f64,
    pub measure_s: f64,
    /// Events processed over warmup + measured windows.
    pub events_total: u64,
    /// Events processed inside the measured window.
    pub events_measured: u64,
    /// `events_measured / measure_s` — simulated event throughput.
    pub events_per_sim_s: f64,
    /// Time-averaged concurrent sessions over the measured window.
    pub mean_active_sessions: f64,
    pub active_sessions_at_end: u64,
    /// Cells holding at least one active session at the horizon.
    pub occupied_cells: u64,
    pub arrivals: u64,
    pub establishments: u64,
    pub piggybacked_arrivals: u64,
    pub releases: u64,
    pub local_handovers: u64,
    pub idle_sweeps: u64,
    pub cell_crossings: u64,
    pub spacecore_msgs: u64,
    pub legacy_msgs: u64,
    pub spacecore_msgs_per_s: f64,
    pub legacy_msgs_per_s: f64,
    /// `legacy_msgs / spacecore_msgs` — the stateless signaling win.
    pub signaling_reduction: f64,
    /// p99 of the per-event SpaceCore processing cost, simulated ms
    /// (bucket-interpolated from the µs histogram; deterministic).
    pub p99_step_cost_ms: Option<f64>,
    pub regions: Vec<RegionRow>,
}

/// Per-region slice of the load (region fixed at placement).
#[derive(Debug, Clone, Serialize)]
pub struct RegionRow {
    pub region: &'static str,
    pub ues: u64,
    /// Session arrivals inside the measured window.
    pub arrivals: u64,
}

use crate::churn::ue_unit;

/// Exponential draw with mean `mean_s`, clamped to [`MIN_DELAY_S`].
/// The clamp is the batch-window contract; it shifts < 1% of the mass
/// for the ≥ 100 s means used here.
fn exp_clamped(mean_s: f64, u: f64) -> f64 {
    crate::churn::exp_clamped(mean_s, u, MIN_DELAY_S)
}

/// One UE's churn state inside its shard.
struct Ue {
    /// Global UE id — the hash-stream key.
    id: u32,
    /// Current row-major cell index.
    cell: u32,
    region: u8,
    connected: bool,
    /// Draws consumed from this UE's hash stream. The UE's own events
    /// are totally ordered by the DES, so the counter sequence — and
    /// therefore every draw — is identical under any shard layout.
    draws: u32,
}

impl Ue {
    fn draw(&mut self, seed: u64) -> f64 {
        let u = ue_unit(seed, self.id, self.draws);
        self.draws += 1;
        u
    }
}

/// Churn events; the payload is the UE's index within its shard.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Arrive(u32),
    Release(u32),
    Sweep(u32),
    Cross(u32),
}

/// Everything one shard returns: additive tallies plus mergeable
/// histograms, no ordering-sensitive state.
struct ShardOut {
    stats: ShardStats,
    events_total: u64,
    events_measured: u64,
    /// Busy-time integral in integer µs ticks — exact under summation.
    busy_us: u64,
    cell_active_end: Vec<u32>,
    step_hist: sc_obs::Histogram,
    region_ues: [u64; 6],
    region_arrivals: [u64; 6],
}

/// Draw the per-event cost jitter and, for events that do
/// SpaceCore-side work inside the measured window, record the
/// processing cost (integer simulated µs) in the shard histogram and
/// the telemetry series. The jitter draw always happens so the UE's
/// stream position never depends on the measurement window.
fn observe_cost(
    seed: u64,
    ue: &mut Ue,
    msgs: u32,
    measured: bool,
    hist: &mut sc_obs::Histogram,
    rec: &sc_obs::Recorder,
) {
    let u = ue.draw(seed);
    if measured && msgs > 0 {
        let cost_us = (msgs as f64 * PER_MSG_US * (0.75 + 0.5 * u)).round();
        hist.observe(cost_us);
        rec.observe("emu.mload.step_us", cost_us);
    }
}

fn run_shard(
    cfg: &MloadConfig,
    grid: &CellGrid,
    costs: &ProcedureCosts,
    mut ues: Vec<Ue>,
    rec: &sc_obs::Recorder,
) -> ShardOut {
    let params = WorkloadParams::paper_defaults();
    let horizon = cfg.warmup_s + cfg.measure_s;
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut ledger = CellLedger::new(grid.cell_count(), cfg.warmup_s, horizon);
    let mut stats = ShardStats::default();
    let mut step_hist = sc_obs::Histogram::new();
    let mut region_ues = [0u64; 6];
    let mut region_arrivals = [0u64; 6];
    let mut events_total = 0u64;
    let mut events_measured = 0u64;

    // Initial schedule, in local UE order (deterministic): exponential
    // first arrival (stationary Poisson from t = 0), uniform sweep
    // phase, exponential first crossing.
    for (i, ue) in ues.iter_mut().enumerate() {
        region_ues[ue.region as usize] += 1;
        let i = i as u32;
        let u = ue.draw(cfg.seed);
        q.schedule(exp_clamped(params.session_interarrival_s, u), Ev::Arrive(i));
        let u = ue.draw(cfg.seed);
        q.schedule(u * params.transit_s, Ev::Sweep(i));
        let u = ue.draw(cfg.seed);
        q.schedule(exp_clamped(cfg.crossing_interval_s, u), Ev::Cross(i));
    }

    let windows = (horizon / BATCH_WINDOW_S).ceil() as u64;
    let mut batch = Vec::new();
    for w in 0..windows {
        let end = ((w + 1) as f64 * BATCH_WINDOW_S).min(horizon);
        q.drain_until(end, &mut batch);
        // Windowed event rate: BATCH_WINDOW_S equals the series window
        // (1.0 s), so a drained batch maps to exactly one window — the
        // counter series adds elementwise across shards and is
        // therefore shard- and thread-invariant like the counters.
        if !batch.is_empty() {
            rec.series_inc_tick(
                "emu.mload.events_per_s",
                w * sc_obs::WINDOW_TICKS,
                batch.len() as u64,
            );
        }
        for ev in &batch {
            let t = ev.time;
            let measured = t >= cfg.warmup_s;
            events_total += 1;
            if measured {
                events_measured += 1;
            }
            match ev.event {
                Ev::Arrive(i) => {
                    let ue = &mut ues[i as usize];
                    let u = ue.draw(cfg.seed);
                    let next = t + exp_clamped(params.session_interarrival_s, u);
                    if measured {
                        region_arrivals[ue.region as usize] += 1;
                    }
                    if ue.connected {
                        if measured {
                            stats.bill_arrival(costs, true);
                        }
                    } else {
                        let u = ue.draw(cfg.seed);
                        let hold = params.inactivity_release_s - 2.5 + 5.0 * u; // U(10, 15)
                        ue.connected = true;
                        let cell = ue.cell as usize;
                        ledger.connect(cell, t);
                        q.schedule(t + hold, Ev::Release(i));
                        let msgs = if measured {
                            rec.observe("emu.mload.session_hold_ms", (hold * 1000.0).round());
                            stats.bill_arrival(costs, false)
                        } else {
                            costs.local_establishment
                        };
                        observe_cost(cfg.seed, &mut ues[i as usize], msgs, measured, &mut step_hist, rec);
                    }
                    q.schedule(next, Ev::Arrive(i));
                }
                Ev::Release(i) => {
                    let ue = &mut ues[i as usize];
                    ue.connected = false;
                    ledger.release(ue.cell as usize, t);
                    let msgs = if measured {
                        stats.bill_release(costs)
                    } else {
                        costs.release
                    };
                    observe_cost(cfg.seed, &mut ues[i as usize], msgs, measured, &mut step_hist, rec);
                }
                Ev::Sweep(i) => {
                    let ue = &mut ues[i as usize];
                    let u = ue.draw(cfg.seed);
                    let next = (t + params.transit_s * (0.75 + 0.5 * u)).max(t + MIN_DELAY_S);
                    if ue.connected {
                        let msgs = if measured {
                            stats.bill_sweep(costs, true)
                        } else {
                            costs.local_handover
                        };
                        observe_cost(cfg.seed, &mut ues[i as usize], msgs, measured, &mut step_hist, rec);
                    } else if measured {
                        // Free under geospatial tracking areas; billed
                        // as a C4 on the legacy side.
                        stats.bill_sweep(costs, false);
                    }
                    q.schedule(next, Ev::Sweep(i));
                }
                Ev::Cross(i) => {
                    let ue = &mut ues[i as usize];
                    let u = ue.draw(cfg.seed);
                    let dir = ((u * 4.0) as usize).min(3);
                    let old = cell_at(grid, ue.cell as usize);
                    let new_idx = cell_index(grid, grid.neighbors(old)[dir]);
                    if ue.connected {
                        ledger.move_session(ue.cell as usize, new_idx);
                    }
                    ue.cell = new_idx as u32;
                    let msgs = if measured {
                        stats.bill_crossing(costs)
                    } else {
                        costs.cell_crossing
                    };
                    observe_cost(cfg.seed, &mut ues[i as usize], msgs, measured, &mut step_hist, rec);
                    let ue = &mut ues[i as usize];
                    let u = ue.draw(cfg.seed);
                    q.schedule(t + exp_clamped(cfg.crossing_interval_s, u), Ev::Cross(i));
                }
            }
        }
    }
    ledger.finish();

    // Shard telemetry: counters, (integer-valued) histograms, and
    // counter *series* only — all three merge commutatively and sum
    // exactly, so the absorbed snapshot is invariant to shard count and
    // thread count. Events, spans and gauges would encode shard layout;
    // the per-shard DES queues likewise stay recorder-free — their
    // rung/spill counters depend on how cells are grouped.
    rec.inc("emu.mload.events", events_total);
    rec.inc("emu.mload.arrivals", stats.arrivals);
    rec.inc("emu.mload.establishments", stats.establishments);
    rec.inc("emu.mload.piggybacked", stats.piggybacked);
    rec.inc("emu.mload.releases", stats.releases);
    rec.inc("emu.mload.handovers_local", stats.local_handovers);
    rec.inc("emu.mload.sweeps_idle", stats.idle_sweeps);
    rec.inc("emu.mload.cell_crossings", stats.cell_crossings);
    rec.inc("emu.mload.msgs_spacecore", stats.spacecore_msgs);
    rec.inc("emu.mload.msgs_legacy", stats.legacy_msgs);

    ShardOut {
        stats,
        events_total,
        events_measured,
        busy_us: ledger.busy_us(),
        cell_active_end: ledger.cell_active().to_vec(),
        step_hist,
        region_ues,
        region_arrivals,
    }
}

/// Run with the default worker count, telemetry off.
pub fn run() -> ExtMload {
    run_config_with(
        crate::engine::thread_count(),
        &sc_obs::Recorder::disabled(),
        &MloadConfig::full(),
    )
}

/// Full config with telemetry (the `ext_mload` binary's default mode).
pub fn run_obs(obs: &sc_obs::Recorder) -> ExtMload {
    run_config_with(crate::engine::thread_count(), obs, &MloadConfig::full())
}

/// Smoke config with telemetry (the `--smoke` mode tier-1 exercises).
pub fn run_smoke_obs(obs: &sc_obs::Recorder) -> ExtMload {
    run_config_with(crate::engine::thread_count(), obs, &MloadConfig::smoke())
}

/// The engine proper: explicit worker count and config. Results and
/// merged telemetry are byte-identical for every `threads` value and
/// every `cfg.shards` value.
pub fn run_config_with(threads: usize, obs: &sc_obs::Recorder, cfg: &MloadConfig) -> ExtMload {
    let grid = CellGrid::new(53f64.to_radians(), 72, 22);
    let shard_map = ShardMap::new(grid.cell_count(), cfg.shards);
    let costs = ProcedureCosts::paper();
    let pop = PopulationModel::world_bank_like();

    let points = pop.sample_ues(cfg.total_ues, cfg.seed);
    let placed = crate::churn::place(threads, &points, &grid, &shard_map);
    let outs = crate::engine::parallel_map_obs_with(threads, obs, placed, |placed, rec| {
        let ues = placed
            .iter()
            .map(|&(id, cell)| {
                let region = pop.region_of(&points[id as usize]).index() as u8;
                Ue { id, cell, region, connected: false, draws: 0 }
            })
            .collect();
        run_shard(cfg, &grid, &costs, ues, rec)
    });

    // Slot-order fold: sums and bucket merges only.
    let mut stats = ShardStats::default();
    let mut events_total = 0u64;
    let mut events_measured = 0u64;
    let mut busy_us = 0u64;
    let mut cell_active = vec![0u64; grid.cell_count()];
    let mut step_hist = sc_obs::Histogram::new();
    let mut region_ues = [0u64; 6];
    let mut region_arrivals = [0u64; 6];
    for o in &outs {
        stats.absorb(&o.stats);
        events_total += o.events_total;
        events_measured += o.events_measured;
        busy_us += o.busy_us;
        for (acc, v) in cell_active.iter_mut().zip(o.cell_active_end.iter()) {
            *acc += *v as u64;
        }
        step_hist.merge(&o.step_hist);
        for r in 0..Region::ALL.len() {
            region_ues[r] += o.region_ues[r];
            region_arrivals[r] += o.region_arrivals[r];
        }
    }
    let active_end: u64 = cell_active.iter().sum();
    let occupied = cell_active.iter().filter(|c| **c > 0).count() as u64;
    let mean_active = busy_us as f64 * 1e-6 / cfg.measure_s;
    obs.set_gauge("emu.mload.active_sessions", active_end as f64);
    obs.set_gauge("emu.mload.mean_active_sessions", mean_active);
    obs.set_gauge("emu.mload.occupied_cells", occupied as f64);

    ExtMload {
        total_ues: cfg.total_ues,
        cells: grid.cell_count(),
        warmup_s: cfg.warmup_s,
        measure_s: cfg.measure_s,
        events_total,
        events_measured,
        events_per_sim_s: events_measured as f64 / cfg.measure_s,
        mean_active_sessions: mean_active,
        active_sessions_at_end: active_end,
        occupied_cells: occupied,
        arrivals: stats.arrivals,
        establishments: stats.establishments,
        piggybacked_arrivals: stats.piggybacked,
        releases: stats.releases,
        local_handovers: stats.local_handovers,
        idle_sweeps: stats.idle_sweeps,
        cell_crossings: stats.cell_crossings,
        spacecore_msgs: stats.spacecore_msgs,
        legacy_msgs: stats.legacy_msgs,
        spacecore_msgs_per_s: stats.spacecore_msgs as f64 / cfg.measure_s,
        legacy_msgs_per_s: stats.legacy_msgs as f64 / cfg.measure_s,
        signaling_reduction: stats.legacy_msgs as f64 / stats.spacecore_msgs.max(1) as f64,
        p99_step_cost_ms: step_hist.percentile(0.99).map(|us| us / 1000.0),
        regions: Region::ALL
            .iter()
            .enumerate()
            .map(|(r, reg)| RegionRow {
                region: reg.name(),
                ues: region_ues[r],
                arrivals: region_arrivals[r],
            })
            .collect(),
    }
}

/// Text rendering.
pub fn render(r: &ExtMload) -> String {
    let fmt = crate::report::fmt_num;
    let mut t = crate::report::TextTable::new(&["quantity", "value"]);
    t.row(vec!["live UEs".into(), fmt(r.total_ues as f64)]);
    t.row(vec!["geospatial cells".into(), fmt(r.cells as f64)]);
    t.row(vec![
        "measured window (s)".into(),
        format!("{:.0} (after {:.0} warmup)", r.measure_s, r.warmup_s),
    ]);
    t.row(vec!["events (measured)".into(), fmt(r.events_measured as f64)]);
    t.row(vec!["events / sim-s".into(), fmt(r.events_per_sim_s)]);
    t.row(vec![
        "mean active sessions".into(),
        fmt(r.mean_active_sessions),
    ]);
    t.row(vec![
        "active at horizon".into(),
        fmt(r.active_sessions_at_end as f64),
    ]);
    t.row(vec!["occupied cells".into(), fmt(r.occupied_cells as f64)]);
    t.row(vec!["establishments".into(), fmt(r.establishments as f64)]);
    t.row(vec![
        "local handovers".into(),
        fmt(r.local_handovers as f64),
    ]);
    t.row(vec![
        "idle sweeps (free)".into(),
        fmt(r.idle_sweeps as f64),
    ]);
    t.row(vec![
        "SpaceCore msgs/s".into(),
        fmt(r.spacecore_msgs_per_s),
    ]);
    t.row(vec!["legacy msgs/s".into(), fmt(r.legacy_msgs_per_s)]);
    t.row(vec![
        "signaling reduction".into(),
        format!("{:.1}x", r.signaling_reduction),
    ]);
    if let Some(p) = r.p99_step_cost_ms {
        t.row(vec!["p99 step cost (ms)".into(), format!("{p:.3}")]);
    }
    let mut reg = crate::report::TextTable::new(&["region", "UEs", "arrivals (measured)"]);
    for row in &r.regions {
        reg.row(vec![
            row.region.to_string(),
            fmt(row.ues as f64),
            fmt(row.arrivals as f64),
        ]);
    }
    format!(
        "Extension — sharded sustained-load engine ({} UEs on geospatial cells)\n{}\n{}",
        fmt(r.total_ues as f64),
        t.render(),
        reg.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn tiny() -> MloadConfig {
        MloadConfig {
            total_ues: 2_000,
            shards: 8,
            warmup_s: 5.0,
            measure_s: 20.0,
            seed: 0x5C_10AD,
            crossing_interval_s: 120.0,
        }
    }

    /// One cached smoke-size run for the shape assertions.
    fn cached() -> &'static ExtMload {
        static CACHE: OnceLock<ExtMload> = OnceLock::new();
        CACHE.get_or_init(|| {
            run_config_with(2, &sc_obs::Recorder::disabled(), &MloadConfig::smoke())
        })
    }

    #[test]
    fn batch_window_matches_calendar_day() {
        assert_eq!(BATCH_WINDOW_S, EventQueue::<Ev>::BUCKET_WIDTH_S);
        // MIN_DELAY_S >= BATCH_WINDOW_S is definitional (`MIN_DELAY_S =
        // BATCH_WINDOW_S`); the batching ≡ interleaving argument in the
        // module docs depends on it.
    }

    #[test]
    fn churn_rates_match_the_paper_constants() {
        let r = cached();
        let n = r.total_ues as f64;
        // Arrivals: Poisson with mean interarrival 106.9 s.
        let want_arrivals = n * r.measure_s / 106.9;
        assert!(
            (r.arrivals as f64 - want_arrivals).abs() < 0.1 * want_arrivals,
            "arrivals {} want ~{want_arrivals}",
            r.arrivals
        );
        // Active fraction ≈ 11.7% of the population.
        let frac = r.mean_active_sessions / n;
        assert!((0.08..=0.16).contains(&frac), "active fraction {frac}");
        // Sweeps: one per transit per UE, idle-dominated.
        let sweeps = r.idle_sweeps + r.local_handovers;
        let want_sweeps = n * r.measure_s / 165.8;
        assert!(
            (sweeps as f64 - want_sweeps).abs() < 0.15 * want_sweeps,
            "sweeps {sweeps} want ~{want_sweeps}"
        );
        assert!(r.idle_sweeps > 4 * r.local_handovers);
    }

    #[test]
    fn stateless_signaling_reduction_holds_under_sustained_load() {
        let r = cached();
        assert!(r.signaling_reduction > 3.0, "{}", r.signaling_reduction);
        assert!(r.spacecore_msgs > 0);
        assert!(r.p99_step_cost_ms.is_some());
        assert!(r.events_per_sim_s > 0.0);
        assert_eq!(
            r.arrivals,
            r.establishments + r.piggybacked_arrivals,
            "every arrival is either an establishment or a piggyback"
        );
        // Sessions that ended plus sessions still up = sessions started
        // (measured-window releases can exceed establishments by the
        // warmup carry-over, so compare totals loosely).
        assert!(r.active_sessions_at_end > 0);
        assert!(r.occupied_cells > 0 && r.occupied_cells <= r.cells as u64);
        let region_ues: u64 = r.regions.iter().map(|x| x.ues).sum();
        assert_eq!(region_ues, r.total_ues as u64);
    }

    #[test]
    fn results_and_telemetry_thread_invariant() {
        let cfg = tiny();
        let reference = {
            let obs = sc_obs::Recorder::new();
            let r = run_config_with(1, &obs, &cfg);
            (serde_json::to_string(&r).unwrap(), obs.snapshot().to_json("t"))
        };
        for threads in [2, 4] {
            let obs = sc_obs::Recorder::new();
            let r = run_config_with(threads, &obs, &cfg);
            assert_eq!(serde_json::to_string(&r).unwrap(), reference.0, "threads={threads}");
            assert_eq!(obs.snapshot().to_json("t"), reference.1, "threads={threads}");
        }
    }

    #[test]
    fn results_and_telemetry_shard_invariant() {
        let base = tiny();
        let reference = {
            let obs = sc_obs::Recorder::new();
            let r = run_config_with(2, &obs, &MloadConfig { shards: 1, ..base.clone() });
            (serde_json::to_string(&r).unwrap(), obs.snapshot().to_json("t"))
        };
        for shards in [3, 16, 1584, 5000] {
            let obs = sc_obs::Recorder::new();
            let r = run_config_with(2, &obs, &MloadConfig { shards, ..base.clone() });
            assert_eq!(serde_json::to_string(&r).unwrap(), reference.0, "shards={shards}");
            assert_eq!(obs.snapshot().to_json("t"), reference.1, "shards={shards}");
        }
    }

    #[test]
    fn churn_schedule_deterministic_in_seed() {
        let cfg = tiny();
        let a = run_config_with(2, &sc_obs::Recorder::disabled(), &cfg);
        let b = run_config_with(4, &sc_obs::Recorder::disabled(), &cfg);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        let other = run_config_with(
            2,
            &sc_obs::Recorder::disabled(),
            &MloadConfig { seed: 99, ..cfg },
        );
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&other).unwrap(),
            "different seeds must produce different churn"
        );
    }

    #[test]
    fn hash_stream_is_uniform_ish() {
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let u = ue_unit(7, i % 97, i / 97);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }

    #[test]
    fn exp_clamped_respects_floor_and_mean() {
        assert_eq!(exp_clamped(100.0, 0.0), MIN_DELAY_S.max(0.0));
        let mut sum = 0.0;
        let n = 20_000;
        for i in 0..n {
            sum += exp_clamped(106.9, ue_unit(3, 0, i));
        }
        let mean = sum / n as f64;
        assert!((mean - 106.9).abs() < 0.05 * 106.9, "{mean}");
        for i in 0..1000 {
            assert!(exp_clamped(106.9, ue_unit(4, 1, i)) >= MIN_DELAY_S);
        }
    }
}
