//! Extension experiment: chaos under load — fault-injected million-UE
//! soak with retry budgets, overload shedding, and recovery SLOs.
//!
//! `ext_mload` serves a million UEs on a failure-free sky; this
//! experiment runs the same churn engine ([`crate::churn`], which
//! documents the per-UE event streams, how each reads the timeline and
//! the determinism contract) on a seeded [`FailureTimeline`]: a serving
//! satellite crashes mid-soak (and its replacement re-crashes
//! mid-recovery), a feeder link flaps, and a loss-burst window opens
//! over the recovery. Every session the crash drops goes through
//! `RecoveryPlan`-costed **stateless local re-establishment** at the
//! replacement satellite (4 messages vs the 13-message home-routed
//! re-registration the legacy design pays), and two robustness
//! mechanisms shape the resulting signaling storm:
//!
//! * **Retry budget** ([`spacecore::recovery::RetryBudget`]) — a
//!   per-cell token bucket with jittered exponential backoff. Admission
//!   is *stateless*: each dropped UE hashes into one of the bucket's
//!   refill slots, so the storm drains at a fixed per-cell rate without
//!   any first-come-first-served state that would couple UEs. The
//!   per-cell bucket clocks live in dense cell-indexed Vecs
//!   ([`spacecore::shard::CellStorm`]).
//! * **Overload gate** — while a crashed satellite's footprint is
//!   inside its overload window (crash → recovery + hold), the serving
//!   satellite sheds or defers low-priority signaling: connected-UE
//!   mobility updates and RRC releases are deferred (retried after ≥
//!   [`MIN_DELAY_S`]), cell-crossing C4 updates are shed outright.
//!   The saturation signal is derived from the failure timeline, not
//!   from a queue depth — a deliberate choice: a signal that depends
//!   on other UEs' traffic would couple the UEs' event streams.
//!
//! What this module adds to the engine is the scenario presets, the
//! result schema and the SLO pass. Recovery SLOs reported per crash:
//! sessions dropped, time to 99 % re-established (exact, from 0.25 s
//! offset slot counts), session survival within the deadline, and the
//! signaling-surge amplitude — peak re-registration rate over the
//! crashed footprint's cells versus those cells' steady-state C1
//! establishment rate. The acceptance bar (≥ 98 % survival, surge ≤ 3×)
//! is asserted by `tests/churn_equivalence.rs`: on a smoke-config run,
//! and on the full run through its checked-in telemetry sidecar.

use crate::churn::{self, ChurnOut, WINDOW_S};
use sc_dataset::population::PopulationModel;
use sc_netsim::chaos::FailureTimeline;
use serde::Serialize;
use spacecore::recovery::RetryBudget;

pub use crate::churn::MIN_DELAY_S;
pub use crate::ext_mload::MloadConfig;

/// Engine configuration: the `ext_mload` churn substrate plus the
/// failure scenario and the robustness policies.
#[derive(Debug, Clone)]
pub struct ChaosloadConfig {
    /// Churn substrate (population, windows, seed).
    pub load: MloadConfig,
    /// Satellites covering the grid; [`spacecore::shard::ShardMap`]
    /// is the static cell → serving-satellite footprint map.
    pub sats: usize,
    /// The failure scenario. Node ids `0..sats` are satellites;
    /// [`Self::gateway`] is the feeder-link ground node.
    pub timeline: FailureTimeline,
    /// Re-establishment deadline: a dropped session survives iff it
    /// re-establishes within this many seconds of the crash.
    pub deadline_s: f64,
    /// Retry-budget policy (pacing slots + backoff).
    pub budget: RetryBudget,
    /// Paced admission on/off. `false` is the thundering-herd contrast:
    /// every dropped UE retries right after detection.
    pub paced: bool,
    /// Overload window extension past the satellite's recovery, s.
    pub overload_hold_s: f64,
}

impl ChaosloadConfig {
    /// The million-UE chaos soak the acceptance figures come from:
    /// satellite 11 crashes at t = 60 s under load, its replacement
    /// re-crashes at t = 63.5 s (mid-recovery), a feeder link flaps
    /// over [90, 93) s, and a 20 % loss burst covers [60, 70) s.
    pub fn full() -> Self {
        let sats = 24;
        let sat = 5;
        let flap_sat = 20;
        let timeline = FailureTimeline::none()
            .crash(60_000.0, sat)
            .recover(62_000.0, sat)
            .crash(63_500.0, sat)
            .recover(65_500.0, sat)
            .link_flap(90_000.0, 93_000.0, flap_sat, sats)
            .loss_burst(60_000.0, 70_000.0, 0.2)
            .with_seed(0xC4A0_5EED);
        Self {
            load: MloadConfig::full(),
            sats,
            timeline,
            deadline_s: 20.0,
            // 160 slots × 0.1 s spread the 14 k-session storm over
            // 16 s — the last first-attempt lands ~3 s inside the 20 s
            // deadline, and the paced rate stays well under 3× the
            // footprint's steady C1 rate.
            budget: RetryBudget {
                tokens: 160,
                ..RetryBudget::paper_defaults()
            },
            paced: true,
            overload_hold_s: 4.0,
        }
    }

    /// Bounded smoke variant for tier-1 byte-stability checks: same
    /// scenario shape (crash + mid-recovery re-crash + flap + burst) on
    /// the 20 k-UE smoke churn.
    pub fn smoke() -> Self {
        let sats = 24;
        let sat = 5;
        let flap_sat = 20;
        let timeline = FailureTimeline::none()
            .crash(10_000.0, sat)
            .recover(12_000.0, sat)
            .crash(12_500.0, sat)
            .recover(14_000.0, sat)
            .link_flap(18_000.0, 19_500.0, flap_sat, sats)
            .loss_burst(10_000.0, 14_000.0, 0.2)
            .with_seed(0xC4A0_5EED);
        Self {
            load: MloadConfig::smoke(),
            sats,
            timeline,
            deadline_s: 12.0,
            budget: RetryBudget {
                tokens: 96,
                ..RetryBudget::paper_defaults()
            },
            ..Self::full()
        }
    }

    /// `load` on a sky where nothing fails: the empty timeline opens no
    /// overload window and drops no session, so the robustness policy
    /// fields are inert. This is the whole of `ext_mload`'s scenario.
    pub fn failure_free(load: MloadConfig) -> Self {
        Self {
            load,
            timeline: FailureTimeline::none(),
            ..Self::full()
        }
    }

    /// The feeder-link ground node id (satellites are `0..sats`).
    pub fn gateway(&self) -> usize {
        self.sats
    }
}

/// Result of one run — deterministic in the config, invariant to the
/// thread count (`tests/chaosload_props.rs`).
#[derive(Debug, Clone, Serialize)]
pub struct ExtChaosload {
    pub total_ues: usize,
    pub cells: usize,
    pub sats: usize,
    pub warmup_s: f64,
    pub measure_s: f64,
    pub deadline_s: f64,
    pub paced: bool,
    pub events_total: u64,
    pub events_measured: u64,
    pub mean_active_sessions: f64,
    pub arrivals: u64,
    pub establishments: u64,
    pub piggybacked_arrivals: u64,
    pub releases: u64,
    pub local_handovers: u64,
    pub idle_sweeps: u64,
    pub cell_crossings: u64,
    /// Churn + recovery signaling, both designs.
    pub spacecore_msgs: u64,
    pub legacy_msgs: u64,
    pub signaling_reduction: f64,
    // Robustness:
    pub sessions_dropped: u64,
    pub reattach_attempts: u64,
    pub reattach_failures: u64,
    pub sessions_reestablished: u64,
    pub sessions_survived: u64,
    pub sessions_late: u64,
    pub sessions_lost: u64,
    pub reattaching_at_horizon: u64,
    /// `sessions_survived / sessions_dropped` — the acceptance metric.
    pub session_survival: f64,
    pub budget_exhausted: u64,
    pub deferred_handovers: u64,
    pub deferred_releases: u64,
    pub shed_crossings: u64,
    pub deferred_establishments: u64,
    pub burst_losses: u64,
    /// Mean C1 establishments/s over the crashed footprint's cells,
    /// pre-crash measured windows.
    pub steady_c1_per_s: f64,
    /// Peak re-registration signaling/s over those cells, any measured
    /// window.
    pub peak_rereg_per_s: f64,
    /// `peak_rereg_per_s / steady_c1_per_s` — must stay ≤ 3 with the
    /// retry budget on.
    pub surge_amplitude: f64,
    pub p99_step_cost_ms: Option<f64>,
    pub reattach_ms_p50: Option<f64>,
    pub reattach_ms_p99: Option<f64>,
    pub crashes: Vec<CrashRow>,
    /// Re-registration signaling per 1 s window over the storm cells —
    /// the folded source of `peak_rereg_per_s` and the
    /// `emu.chaosload.rereg_storm_per_s` telemetry series; the storm's
    /// time axis in the results JSON. `sctrace series` renders it;
    /// `tests/churn_equivalence.rs` holds its peak to the measured window.
    pub rereg_storm_win: Vec<u64>,
}

/// Per-crash recovery SLO row.
#[derive(Debug, Clone, Serialize)]
pub struct CrashRow {
    pub t_s: f64,
    pub satellite: usize,
    pub footprint_cells: usize,
    pub dropped: u64,
    pub reestablished: u64,
    pub survived: u64,
    pub late: u64,
    pub lost: u64,
    pub pending: u64,
    /// Time to 99 % re-established, s (`None`: not reached within the
    /// deadline).
    pub tt99_s: Option<f64>,
}

/// Run with the default worker count, telemetry off.
pub fn run() -> ExtChaosload {
    run_config_with(
        crate::engine::thread_count(),
        &sc_obs::Recorder::disabled(),
        &ChaosloadConfig::full(),
    )
}

/// Full config with telemetry (what `scemu ext_chaosload` runs).
pub fn run_obs(obs: &sc_obs::Recorder) -> ExtChaosload {
    run_config_with(crate::engine::thread_count(), obs, &ChaosloadConfig::full())
}

/// Smoke config with telemetry (the `--smoke` tier-1 mode).
pub fn run_smoke_obs(obs: &sc_obs::Recorder) -> ExtChaosload {
    run_config_with(crate::engine::thread_count(), obs, &ChaosloadConfig::smoke())
}

/// Explicit worker count and config. Results and telemetry are
/// byte-identical for every `threads` value.
pub fn run_config_with(threads: usize, obs: &sc_obs::Recorder, cfg: &ChaosloadConfig) -> ExtChaosload {
    let pop = PopulationModel::world_bank_like();
    report(obs, cfg, churn::run(threads, cfg, &pop, 1, &|_| 0, obs.enabled()))
}

/// The result schema, the `emu.chaosload.*` telemetry and the SLO pass
/// of a folded run.
pub(crate) fn report(obs: &sc_obs::Recorder, cfg: &ChaosloadConfig, out: ChurnOut) -> ExtChaosload {
    let (stats, cstats) = (&out.stats, &out.chaos);
    let horizon = cfg.load.warmup_s + cfg.load.measure_s;
    let windows = out.rereg_storm_win.len();
    let cells_occupied_end = out.cell_active_end.iter().filter(|&&n| n > 0).count();

    // Surge SLO: steady state is the storm cells' establishment rate
    // over the pre-crash measured windows; peak is the worst measured
    // re-registration window over the same cells. Integer sums → the
    // ratio is exact and order-free.
    let warmup_win = (cfg.load.warmup_s / WINDOW_S) as usize;
    let first_crash_win = out
        .crashes
        .first()
        .map_or(windows, |c| (c.t_s / WINDOW_S) as usize)
        .min(windows);
    let steady_windows = &out.est_storm_win[warmup_win.min(first_crash_win)..first_crash_win];
    let steady_c1_per_s = if steady_windows.is_empty() {
        0.0
    } else {
        steady_windows.iter().sum::<u64>() as f64 / (steady_windows.len() as f64 * WINDOW_S)
    };
    let peak_rereg_per_s = out.rereg_storm_win[warmup_win.min(windows)..]
        .iter()
        .max()
        .copied()
        .unwrap_or(0) as f64
        / WINDOW_S;
    let surge_amplitude = if steady_c1_per_s > 0.0 {
        peak_rereg_per_s / steady_c1_per_s
    } else {
        0.0
    };

    let dropped = cstats.dropped;
    let survived: u64 = out.crashes.iter().map(|r| r.survived).sum();
    let late: u64 = out.crashes.iter().map(|r| r.late).sum();
    let lost: u64 = out.crashes.iter().map(|r| r.lost).sum();
    let session_survival = if dropped > 0 {
        survived as f64 / dropped as f64
    } else {
        1.0
    };

    obs.inc("emu.chaosload.events", out.events_total);
    obs.inc("emu.chaosload.arrivals", stats.arrivals);
    obs.inc("emu.chaosload.establishments", stats.establishments);
    obs.inc("emu.chaosload.piggybacked", stats.piggybacked);
    obs.inc("emu.chaosload.releases", stats.releases);
    obs.inc("emu.chaosload.handovers_local", stats.local_handovers);
    obs.inc("emu.chaosload.sweeps_idle", stats.idle_sweeps);
    obs.inc("emu.chaosload.cell_crossings", stats.cell_crossings);
    obs.inc("emu.chaosload.msgs_spacecore", stats.spacecore_msgs + cstats.spacecore_msgs);
    obs.inc("emu.chaosload.msgs_legacy", stats.legacy_msgs + cstats.legacy_msgs);
    obs.inc("emu.chaosload.dropped", cstats.dropped);
    obs.inc("emu.chaosload.reattach_attempts", cstats.reattach_attempts);
    obs.inc("emu.chaosload.reattach_failures", cstats.reattach_failures);
    obs.inc("emu.chaosload.reattached", cstats.reattached);
    obs.inc("emu.chaosload.budget_exhausted", cstats.budget_exhausted);
    obs.inc("emu.chaosload.deferred_handovers", cstats.deferred_handovers);
    obs.inc("emu.chaosload.deferred_releases", cstats.deferred_releases);
    obs.inc("emu.chaosload.shed_crossings", cstats.shed_crossings);
    obs.inc("emu.chaosload.deferred_establishments", cstats.deferred_establishments);
    obs.inc("emu.chaosload.burst_losses", cstats.burst_losses);
    obs.merge_hist("emu.chaosload.step_us", &out.step_us);
    obs.merge_hist("emu.chaosload.session_hold_ms", &out.session_hold_ms);
    obs.merge_hist("emu.chaosload.reattach_ms", &out.reattach_ms);
    churn::emit_series(obs, "emu.chaosload.gate_deferred_per_s", &out.gate_deferred_win);
    churn::emit_series(obs, "emu.chaosload.gate_shed_per_s", &out.gate_shed_win);
    churn::emit_series(obs, "emu.chaosload.est_storm_per_s", &out.est_storm_win);
    churn::emit_series(obs, "emu.chaosload.rereg_storm_per_s", &out.rereg_storm_win);

    // The chaos schedule's own telemetry: one serial replay (the
    // engine's cursors are silent).
    cfg.timeline.cursor().advance_to(horizon * 1000.0, obs);
    for c in &out.crashes {
        let mut fields = vec![
            ("sat", sc_obs::FieldValue::from(c.sat)),
            ("dropped", sc_obs::FieldValue::from(c.dropped)),
            ("survived", sc_obs::FieldValue::from(c.survived)),
        ];
        if let Some(tt) = c.tt99_s() {
            fields.push(("tt99_s", sc_obs::FieldValue::from(tt)));
        }
        obs.event(c.t_s, "chaosload.crash", fields);
    }
    obs.set_gauge("emu.chaosload.cells_occupied_end", cells_occupied_end as f64);
    obs.set_gauge("emu.chaosload.session_survival", session_survival);
    obs.set_gauge("emu.chaosload.steady_c1_per_s", steady_c1_per_s);
    obs.set_gauge("emu.chaosload.peak_rereg_per_s", peak_rereg_per_s);
    obs.set_gauge("emu.chaosload.surge_amplitude", surge_amplitude);

    // The windowed SLO pass over the re-registration series: burn =
    // signaling per window against the surge budget (3× the storm
    // cells' steady C1 rate), plus a recovery rule — once every crash's
    // re-establishment deadline has passed, the storm must have decayed
    // back under 2× steady. `SloTracker::record` writes the
    // `slo.burn.*` gauge series, the `slo.breached_windows.*` counters,
    // and one `slo.breach` event at each rule's first breach.
    if obs.enabled() {
        let surge_budget = 3.0 * steady_c1_per_s * WINDOW_S;
        let recovery_win = out
            .crashes
            .iter()
            .map(|c| ((c.t_s + cfg.deadline_s) / WINDOW_S).ceil() as u64)
            .max()
            .unwrap_or(0);
        let recovery_budget = 2.0 * steady_c1_per_s * WINDOW_S;
        let tracker = sc_obs::SloTracker::new(vec![
            sc_obs::SloRule::new(
                "chaosload.surge",
                "emu.chaosload.rereg_storm_per_s",
                surge_budget,
            )
            .over_windows(warmup_win as u64, windows as u64)
            .emit_as(
                "slo.burn.chaosload_surge",
                "slo.breached_windows.chaosload_surge",
            ),
            sc_obs::SloRule::new(
                "chaosload.recovery",
                "emu.chaosload.rereg_storm_per_s",
                recovery_budget,
            )
            .over_windows(recovery_win, windows as u64)
            .emit_as(
                "slo.burn.chaosload_recovery",
                "slo.breached_windows.chaosload_recovery",
            ),
        ]);
        tracker.record(obs, WINDOW_S);
    }

    ExtChaosload {
        total_ues: cfg.load.total_ues,
        cells: out.cell_active_end.len(),
        sats: cfg.sats,
        warmup_s: cfg.load.warmup_s,
        measure_s: cfg.load.measure_s,
        deadline_s: cfg.deadline_s,
        paced: cfg.paced,
        events_total: out.events_total,
        events_measured: out.events_measured,
        mean_active_sessions: out.busy_us as f64 * 1e-6 / cfg.load.measure_s,
        arrivals: stats.arrivals,
        establishments: stats.establishments,
        piggybacked_arrivals: stats.piggybacked,
        releases: stats.releases,
        local_handovers: stats.local_handovers,
        idle_sweeps: stats.idle_sweeps,
        cell_crossings: stats.cell_crossings,
        spacecore_msgs: stats.spacecore_msgs + cstats.spacecore_msgs,
        legacy_msgs: stats.legacy_msgs + cstats.legacy_msgs,
        signaling_reduction: (stats.legacy_msgs + cstats.legacy_msgs) as f64
            / (stats.spacecore_msgs + cstats.spacecore_msgs).max(1) as f64,
        sessions_dropped: dropped,
        reattach_attempts: cstats.reattach_attempts,
        reattach_failures: cstats.reattach_failures,
        sessions_reestablished: cstats.reattached,
        sessions_survived: survived,
        sessions_late: late,
        sessions_lost: lost,
        reattaching_at_horizon: out.reattaching_at_horizon,
        session_survival,
        budget_exhausted: cstats.budget_exhausted,
        deferred_handovers: cstats.deferred_handovers,
        deferred_releases: cstats.deferred_releases,
        shed_crossings: cstats.shed_crossings,
        deferred_establishments: cstats.deferred_establishments,
        burst_losses: cstats.burst_losses,
        steady_c1_per_s,
        peak_rereg_per_s,
        surge_amplitude,
        p99_step_cost_ms: out.step_us.percentile(0.99).map(|us| us / 1000.0),
        reattach_ms_p50: out.reattach_ms.percentile(0.50),
        reattach_ms_p99: out.reattach_ms.percentile(0.99),
        crashes: out
            .crashes
            .iter()
            .map(|row| CrashRow {
                t_s: row.t_s,
                satellite: row.sat,
                footprint_cells: row.cells.len(),
                dropped: row.dropped,
                reestablished: row.reattached,
                survived: row.survived,
                late: row.late,
                lost: row.lost,
                pending: row.pending,
                tt99_s: row.tt99_s(),
            })
            .collect(),
        rereg_storm_win: out.rereg_storm_win,
    }
}

/// Text rendering.
pub fn render(r: &ExtChaosload) -> String {
    let fmt = crate::report::fmt_num;
    let mut t = crate::report::TextTable::new(&["quantity", "value"]);
    t.row(vec!["live UEs".into(), fmt(r.total_ues as f64)]);
    t.row(vec![
        "satellites / cells".into(),
        format!("{} / {}", r.sats, r.cells),
    ]);
    t.row(vec![
        "measured window (s)".into(),
        format!("{:.0} (after {:.0} warmup)", r.measure_s, r.warmup_s),
    ]);
    t.row(vec!["events (measured)".into(), fmt(r.events_measured as f64)]);
    t.row(vec![
        "mean active sessions".into(),
        fmt(r.mean_active_sessions),
    ]);
    t.row(vec![
        "sessions dropped".into(),
        fmt(r.sessions_dropped as f64),
    ]);
    t.row(vec![
        "re-established (survived / late / lost)".into(),
        format!(
            "{} ({} / {} / {})",
            fmt(r.sessions_reestablished as f64),
            fmt(r.sessions_survived as f64),
            r.sessions_late,
            r.sessions_lost
        ),
    ]);
    t.row(vec![
        "session survival".into(),
        format!("{:.2}%", r.session_survival * 100.0),
    ]);
    t.row(vec![
        "reattach attempts (failures)".into(),
        format!("{} ({})", fmt(r.reattach_attempts as f64), fmt(r.reattach_failures as f64)),
    ]);
    t.row(vec![
        "steady C1 / peak re-reg (per s, storm cells)".into(),
        format!("{:.1} / {:.1}", r.steady_c1_per_s, r.peak_rereg_per_s),
    ]);
    t.row(vec![
        "surge amplitude".into(),
        format!("{:.2}x ({})", r.surge_amplitude, if r.paced { "paced" } else { "unpaced" }),
    ]);
    t.row(vec![
        "deferred (handover / release / establish)".into(),
        format!(
            "{} / {} / {}",
            fmt(r.deferred_handovers as f64),
            fmt(r.deferred_releases as f64),
            fmt(r.deferred_establishments as f64)
        ),
    ]);
    t.row(vec![
        "shed crossings / burst losses".into(),
        format!("{} / {}", fmt(r.shed_crossings as f64), fmt(r.burst_losses as f64)),
    ]);
    t.row(vec![
        "signaling reduction".into(),
        format!("{:.1}x", r.signaling_reduction),
    ]);
    if let Some(p) = r.reattach_ms_p99 {
        t.row(vec![
            "reattach ms (p50 / p99)".into(),
            format!("{:.0} / {p:.0}", r.reattach_ms_p50.unwrap_or(0.0)),
        ]);
    }
    if let Some(p) = r.p99_step_cost_ms {
        t.row(vec!["p99 step cost (ms)".into(), format!("{p:.3}")]);
    }
    let mut cr = crate::report::TextTable::new(&[
        "crash t (s)",
        "sat",
        "cells",
        "dropped",
        "survived",
        "tt99 (s)",
    ]);
    for c in &r.crashes {
        cr.row(vec![
            format!("{:.1}", c.t_s),
            c.satellite.to_string(),
            c.footprint_cells.to_string(),
            fmt(c.dropped as f64),
            fmt(c.survived as f64),
            c.tt99_s.map_or("—".into(), |v| format!("{v:.2}")),
        ]);
    }
    format!(
        "Extension — chaos under load ({} UEs, crash/re-crash + flap + burst)\n{}\n{}",
        fmt(r.total_ues as f64),
        t.render(),
        cr.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One cached smoke run for the shape assertions.
    fn cached() -> &'static ExtChaosload {
        static CACHE: OnceLock<ExtChaosload> = OnceLock::new();
        CACHE.get_or_init(|| run_config_with(2, &sc_obs::Recorder::disabled(), &ChaosloadConfig::smoke()))
    }

    #[test]
    fn crash_drops_sessions_and_stateless_recovery_brings_them_back() {
        let r = cached();
        assert_eq!(r.crashes.len(), 2, "crash + mid-recovery re-crash");
        assert!(r.sessions_dropped > 50, "{}", r.sessions_dropped);
        assert!(r.crashes[0].dropped > r.crashes[1].dropped / 2);
        // The acceptance bar on the smoke config too: ≥ 98 % survival.
        assert!(
            r.session_survival >= 0.98,
            "survival {}",
            r.session_survival
        );
        let pending: u64 = r.crashes.iter().map(|c| c.pending).sum();
        assert_eq!(
            r.sessions_dropped,
            r.sessions_survived + r.sessions_late + r.sessions_lost + pending,
            "every dropped session is accounted for"
        );
        // tt99 reported for the main crash, within the deadline.
        let tt99 = r.crashes[0].tt99_s.expect("99% re-established");
        assert!(tt99 > 0.0 && tt99 <= r.deadline_s, "tt99 {tt99}");
    }

    #[test]
    fn overload_gate_sheds_and_defers_low_priority_signaling() {
        let r = cached();
        assert!(r.deferred_handovers > 0, "storm must defer handovers");
        assert!(r.deferred_releases > 0, "storm must defer releases");
        assert!(r.shed_crossings > 0, "storm must shed C4 crossings");
        assert!(r.deferred_establishments > 0, "flap must defer establishments");
        assert!(r.burst_losses > 0, "burst window must kill some attempts");
        // Shedding is bounded: the gate never touches more signaling
        // than the churn it rides on.
        assert!(r.deferred_handovers < r.local_handovers);
        assert!(r.deferred_releases < r.releases);
    }

    #[test]
    fn recovery_is_costed_by_the_recovery_plans() {
        let r = cached();
        // Every reattach billed 4 vs 13: recovery widens the reduction
        // above the pure-churn ratio only if failures stay rare; at
        // minimum the global ratio must hold up under chaos.
        assert!(r.signaling_reduction > 3.0, "{}", r.signaling_reduction);
        // Every billed attempt either failed or re-established (deferred
        // fresh establishments that land bill as establishments instead).
        assert_eq!(
            r.reattach_attempts,
            r.sessions_reestablished + r.reattach_failures
        );
    }
}
