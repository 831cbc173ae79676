//! Extension experiment: million-UE sustained load on a failure-free
//! sky.
//!
//! The per-figure sweeps sample populations; this experiment *serves*
//! one: `total_ues` UEs from the World-Bank population mixture under
//! continuous churn on the Starlink cell grid, for a ramp plus a
//! measured window. It is the churn engine ([`crate::churn`], which
//! documents the per-UE event streams and the determinism contract) run
//! on an empty failure timeline, with every UE labelled by its population
//! region. What this module adds is the config, the result schema — the
//! paper's stateless signaling win at serving scale, plus a per-region
//! table — and the `emu.mload.*` telemetry.
//!
//! `results/ext_mload.json` holds only deterministic quantities;
//! wall-clock throughput and peak RSS of the same run are scbench's
//! `soak` workload (`benchmark/README.md`).

use crate::churn::{self, ChurnOut};
use crate::ext_chaosload::ChaosloadConfig;
use sc_dataset::population::{PopulationModel, Region};
use serde::Serialize;

pub use crate::churn::MIN_DELAY_S;

/// Engine configuration. [`MloadConfig::full`] is the million-UE soak
/// the acceptance figures come from; [`MloadConfig::smoke`] is the
/// bounded tier-1 variant.
#[derive(Debug, Clone)]
pub struct MloadConfig {
    /// Live UEs under churn management.
    pub total_ues: usize,
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
            warmup_s: 5.0,
            measure_s: 20.0,
            ..Self::full()
        }
    }
}

/// Result of one run. Everything here is deterministic in the config —
/// no wall-clock and no thread count (`tests/mload_props.rs` asserts
/// the bytes are invariant to it).
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

/// Run with the default worker count, telemetry off.
pub fn run() -> ExtMload {
    run_config_with(
        crate::engine::thread_count(),
        &sc_obs::Recorder::disabled(),
        &MloadConfig::full(),
    )
}

/// Full config with telemetry (what `scemu ext_mload` runs).
pub fn run_obs(obs: &sc_obs::Recorder) -> ExtMload {
    run_config_with(crate::engine::thread_count(), obs, &MloadConfig::full())
}

/// Smoke config with telemetry (the `--smoke` mode tier-1 exercises).
pub fn run_smoke_obs(obs: &sc_obs::Recorder) -> ExtMload {
    run_config_with(crate::engine::thread_count(), obs, &MloadConfig::smoke())
}

/// Explicit worker count and config. Results and telemetry are
/// byte-identical for every `threads` value.
pub fn run_config_with(threads: usize, obs: &sc_obs::Recorder, cfg: &MloadConfig) -> ExtMload {
    let pop = PopulationModel::world_bank_like();
    let out = churn::run(
        threads,
        &ChaosloadConfig::failure_free(cfg.clone()),
        &pop,
        Region::ALL.len(),
        &|p| pop.region_of(p).index() as u8,
        obs.enabled(),
    );
    report(obs, cfg, &out)
}

/// The result schema and the `emu.mload.*` telemetry of a folded run.
pub(crate) fn report(obs: &sc_obs::Recorder, cfg: &MloadConfig, out: &ChurnOut) -> ExtMload {
    let stats = &out.stats;
    let active_end: u64 = out.cell_active_end.iter().sum();
    let occupied = out.cell_active_end.iter().filter(|c| **c > 0).count() as u64;
    let mean_active = out.busy_us as f64 * 1e-6 / cfg.measure_s;

    obs.inc("emu.mload.events", out.events_total);
    obs.inc("emu.mload.arrivals", stats.arrivals);
    obs.inc("emu.mload.establishments", stats.establishments);
    obs.inc("emu.mload.piggybacked", stats.piggybacked);
    obs.inc("emu.mload.releases", stats.releases);
    obs.inc("emu.mload.handovers_local", stats.local_handovers);
    obs.inc("emu.mload.sweeps_idle", stats.idle_sweeps);
    obs.inc("emu.mload.cell_crossings", stats.cell_crossings);
    obs.inc("emu.mload.msgs_spacecore", stats.spacecore_msgs);
    obs.inc("emu.mload.msgs_legacy", stats.legacy_msgs);
    obs.merge_hist("emu.mload.step_us", &out.step_us);
    obs.merge_hist("emu.mload.session_hold_ms", &out.session_hold_ms);
    churn::emit_series(obs, "emu.mload.events_per_s", &out.events_win);
    obs.set_gauge("emu.mload.active_sessions", active_end as f64);
    obs.set_gauge("emu.mload.mean_active_sessions", mean_active);
    obs.set_gauge("emu.mload.occupied_cells", occupied as f64);

    ExtMload {
        total_ues: cfg.total_ues,
        cells: out.cell_active_end.len(),
        warmup_s: cfg.warmup_s,
        measure_s: cfg.measure_s,
        events_total: out.events_total,
        events_measured: out.events_measured,
        events_per_sim_s: out.events_measured as f64 / cfg.measure_s,
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
        p99_step_cost_ms: out.step_us.percentile(0.99).map(|us| us / 1000.0),
        regions: Region::ALL
            .iter()
            .zip(out.class_ues.iter().zip(&out.class_arrivals))
            .map(|(reg, (&ues, &arrivals))| RegionRow { region: reg.name(), ues, arrivals })
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
    // The header's wording is pinned by `results/ext_mload.txt`.
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

    /// One cached smoke-size run for the shape assertions.
    fn cached() -> &'static ExtMload {
        static CACHE: OnceLock<ExtMload> = OnceLock::new();
        CACHE.get_or_init(|| {
            run_config_with(2, &sc_obs::Recorder::disabled(), &MloadConfig::smoke())
        })
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
}
