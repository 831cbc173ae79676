//! The two soak experiments are one churn engine (`sc_emu::churn`):
//! `ext_mload` is `ext_chaosload` on an empty `FailureTimeline`. The
//! differential law below pins that — every result field the two
//! schemas share agrees to the bit, and an empty timeline leaves every
//! chaos tally at zero — and the recovery SLOs are held twice: on a
//! smoke-config run, and on the full run's checked-in sidecar.

use proptest::prelude::*;
use sc_emu::ext_chaosload::{self, ChaosloadConfig, MloadConfig};
use sc_emu::ext_mload;
use sc_obs::Recorder;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn chaosload_on_an_empty_timeline_equals_mload(
        total_ues in 50usize..500,
        seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let load = MloadConfig {
            total_ues,
            warmup_s: 3.0,
            measure_s: 9.0,
            seed,
            crossing_interval_s: 60.0,
        };
        let off = Recorder::disabled();
        let m = ext_mload::run_config_with(threads, &off, &load);
        let c = ext_chaosload::run_config_with(2, &off, &ChaosloadConfig::failure_free(load));

        prop_assert_eq!(
            (m.total_ues, m.cells, m.warmup_s, m.measure_s, m.events_total, m.events_measured),
            (c.total_ues, c.cells, c.warmup_s, c.measure_s, c.events_total, c.events_measured)
        );
        prop_assert_eq!(
            [m.arrivals, m.establishments, m.piggybacked_arrivals, m.releases, m.local_handovers,
             m.idle_sweeps, m.cell_crossings, m.spacecore_msgs, m.legacy_msgs],
            [c.arrivals, c.establishments, c.piggybacked_arrivals, c.releases, c.local_handovers,
             c.idle_sweeps, c.cell_crossings, c.spacecore_msgs, c.legacy_msgs]
        );
        prop_assert_eq!(m.mean_active_sessions.to_bits(), c.mean_active_sessions.to_bits());
        prop_assert_eq!(m.signaling_reduction.to_bits(), c.signaling_reduction.to_bits());
        prop_assert_eq!(
            m.p99_step_cost_ms.map(f64::to_bits),
            c.p99_step_cost_ms.map(f64::to_bits)
        );

        prop_assert_eq!(
            [c.sessions_dropped, c.reattach_attempts, c.reattach_failures,
             c.sessions_reestablished, c.sessions_survived, c.sessions_late, c.sessions_lost,
             c.reattaching_at_horizon, c.budget_exhausted, c.deferred_handovers,
             c.deferred_releases, c.shed_crossings, c.deferred_establishments, c.burst_losses],
            [0u64; 14]
        );
        prop_assert!(c.crashes.is_empty());
        prop_assert!(c.rereg_storm_win.iter().all(|&n| n == 0));
    }
}

/// The acceptance bar of the chaos soak, on the smoke scenario: ≥ 98 %
/// of dropped sessions back inside the deadline, every dropped session
/// accounted for, the paced re-registration surge ≤ 3× the footprint's
/// steady C1 rate — and the retry budget is what holds it there.
#[test]
fn smoke_scenario_meets_the_recovery_slos() {
    let off = Recorder::disabled();
    let paced = ext_chaosload::run_config_with(2, &off, &ChaosloadConfig::smoke());
    assert!(paced.sessions_dropped > 0);
    assert!(paced.session_survival >= 0.98, "survival {}", paced.session_survival);
    let pending: u64 = paced.crashes.iter().map(|c| c.pending).sum();
    assert_eq!(
        paced.sessions_dropped,
        paced.sessions_survived + paced.sessions_late + paced.sessions_lost + pending,
        "every dropped session is accounted for"
    );
    assert!(paced.steady_c1_per_s > 0.0);
    assert!(paced.surge_amplitude <= 3.0, "paced surge {}", paced.surge_amplitude);

    let herd = ChaosloadConfig {
        paced: false,
        ..ChaosloadConfig::smoke()
    };
    let unpaced = ext_chaosload::run_config_with(2, &off, &herd);
    assert!(
        unpaced.surge_amplitude > 2.0 * paced.surge_amplitude,
        "unpaced {} vs paced {}",
        unpaced.surge_amplitude,
        paced.surge_amplitude
    );
}

/// The same bar on the full million-UE run, read off its checked-in
/// sidecar — no run: `SC_OBS=1 scripts/tier1.sh` regenerates the full
/// run and `cmp`s `results/ext_chaosload.telemetry.json` against it (as
/// scbench `chaos-soak` does the result JSON beside it).
#[test]
fn full_run_sidecar_meets_the_recovery_slos() -> Result<(), Box<dyn std::error::Error>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/ext_chaosload.telemetry.json");
    let sc = sc_obs::sidecar::Sidecar::parse(&std::fs::read_to_string(path)?)?;
    let gauge = |name: &str| sc.gauges.get(name).copied().ok_or(format!("no gauge {name}"));
    let survival = gauge("emu.chaosload.session_survival")?;
    assert!(survival >= 0.98, "survival {survival}");
    let surge = gauge("emu.chaosload.surge_amplitude")?;
    assert!(surge > 0.0 && surge <= 3.0, "surge {surge}");
    for rule in ["chaosload_surge", "chaosload_recovery"] {
        let name = format!("slo.breached_windows.{rule}");
        assert_eq!(sc.counters.get(&name), Some(&0), "{name}");
    }
    let storm = sc
        .series
        .get("emu.chaosload.rereg_storm_per_s")
        .ok_or("no re-registration storm series")?;
    let (peak_win, _) = storm.peak().ok_or("empty storm series")?;
    let load = ChaosloadConfig::full().load;
    let measured = load.warmup_s as u64..(load.warmup_s + load.measure_s) as u64;
    assert!(measured.contains(&peak_win), "storm peaks at window {peak_win}, outside {measured:?}");
    Ok(())
}
