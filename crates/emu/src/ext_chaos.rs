//! Extension experiment (beyond the paper's figures): session survival
//! under serving-satellite crashes — the §3.3 / Fig. 13 failure regime
//! replayed message-by-message over the chaos-injected constellation.
//!
//! Scenario: a UE holds an active session; its serving satellite dies
//! (decay, Fig. 13a). The constellation around it is simultaneously
//! unhealthy — a seeded fraction of the fabric crashes (and recovers
//! after a configurable outage), and a post-failure radio loss burst
//! (Fig. 13b) is open while recovery runs. Each solution then executes
//! its crash-recovery exchange from
//! [`spacecore::recovery::RecoveryPlan`] over a
//! [`sc_netsim::chaos::FailureTimeline`]-driven [`ProcedureSim`]:
//! stateless SpaceCore re-establishes *locally* at the next visible
//! satellite from the UE's self-carried replica (4 messages), while the
//! stateful baselines must detect the loss and redo their home-routed
//! registration across the degraded ISL fabric. A session survives only
//! if the solution's IP can survive a serving-satellite change at all
//! (Fig. 21) *and* the recovery exchange completes within the service
//! deadline.
//!
//! Swept: crash rate × crash-recover duration × the five solutions.
//! The fabric's crash schedule of a run depends only on the crash rate,
//! the recover time and the run, so the sweep works in eight groups of
//! (crash rate, recover time), heaviest first: each run of a group
//! draws its base schedule once, every solution replays a copy with its
//! own loss burst appended, and the group's runs share one
//! [`SimScratch`]. Each (solution, group) cell still records into its
//! own telemetry child, merged in solution-major cell order.
//! Everything is seeded; reruns are byte-identical under any
//! `SC_EMU_THREADS`.

use sc_netsim::chaos::FailureTimeline;
use sc_netsim::failure::{LossProcess, Xorshift64};
use sc_netsim::isl::{IslConfig, IslNetwork};
use sc_netsim::sim::{ProcedureSim, SimConfig, SimScratch, SimStep};
use sc_orbit::{ConstellationConfig, GroundStationSet, IdealPropagator, SatId};
use serde::Serialize;
use spacecore::recovery::RecoveryPlan;
use spacecore::solutions::SolutionKind;

/// Fabric crash rates swept (fraction of satellites, Fig. 13a regime).
pub const CRASH_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.15];
/// Crash-to-recover durations swept, ms (satellite replacement / reboot).
pub const RECOVER_MS: [f64; 2] = [500.0, 5_000.0];
/// Recovery runs per configuration.
pub const RUNS: u64 = 40;
/// Service-continuity deadline, ms: the session is lost if recovery has
/// not completed within this budget after the serving-satellite crash.
pub const DEADLINE_MS: f64 = 4_000.0;
/// Fabric crash times are drawn uniformly over this window, ms.
const HORIZON_MS: f64 = 5_000.0;
/// Post-failure radio loss burst (Fig. 13b): open over
/// `[0, BURST_MS)` after the crash, with this extra per-transmission
/// loss probability.
const BURST_MS: f64 = 2_500.0;
const BURST_P: f64 = 0.35;
/// Ambient per-*hop* signaling loss (`SimConfig::loss_per_hop`): long
/// and chaos-detoured ISL paths compound it, local exchanges dodge it.
const AMBIENT_LOSS: f64 = 0.005;
/// Base seeds (timeline schedule / burst draws / re-crash / ambient loss).
const SEED_TIMELINE: u64 = 0xC4A5;
const SEED_BURST: u64 = 0xB0B5;
const SEED_RECRASH: u64 = 0x5EC0;
const SEED_LOSS: u64 = 0x10_55;

#[derive(Debug, Clone, Serialize)]
pub struct ExtChaos {
    pub points: Vec<ChaosPoint>,
}

#[derive(Debug, Clone, Serialize, PartialEq)]
pub struct ChaosPoint {
    pub solution: String,
    /// Fraction of fabric satellites crashing during the window.
    pub crash_rate: f64,
    /// Outage duration before a crashed satellite recovers, ms.
    pub recover_ms: f64,
    /// Fraction of runs whose recovery exchange completed in budget.
    pub completion_rate: f64,
    /// Fraction of runs whose *session* survived: completion × the
    /// solution's Fig. 21 IP-stability gate.
    pub session_survival: f64,
    /// Mean detection + recovery-exchange latency over completed runs,
    /// ms; `None` (JSON `null`) when no run completed.
    pub mean_recovery_ms: Option<f64>,
    /// Mean transmissions per run (retries included).
    pub mean_transmissions: f64,
}

/// The recovery exchange as network legs: local plans run entirely on
/// the new serving satellite; home-routed plans ping-pong between it and
/// the gateway.
fn recovery_steps(plan: &RecoveryPlan, new_serving: usize, gateway: usize) -> Vec<SimStep> {
    // Static label table: `SimStep` labels are `&'static str` (no per-run
    // allocation), and the exchange is at most the 13 messages of a full
    // C2 re-run. Same "m<i>" strings the telemetry always carried.
    const M_LABELS: [&str; 13] = [
        "m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8", "m9", "m10", "m11", "m12", "m13",
    ];
    assert!(
        plan.messages as usize <= M_LABELS.len(),
        "recovery exchange exceeds label table"
    );
    (0..plan.messages)
        .map(|i| {
            let (from, to) = if plan.local {
                (new_serving, new_serving)
            } else if i % 2 == 0 {
                (new_serving, gateway)
            } else {
                (gateway, new_serving)
            };
            SimStep {
                label: M_LABELS[i as usize],
                from,
                to,
            }
        })
        .collect()
}

/// Chaos-hardened simulator settings: exponential backoff with a cap,
/// partitions treated as transient, all bounded by what is left of the
/// service deadline once the solution has detected the crash.
fn chaos_config(plan: &RecoveryPlan) -> SimConfig {
    SimConfig {
        rto_ms: 400.0,
        max_attempts: 8,
        backoff_factor: 2.0,
        rto_cap_ms: 3_200.0,
        retry_on_partition: true,
        total_deadline_ms: (DEADLINE_MS - plan.detection_delay_ms).max(0.0),
        loss_per_hop: true,
        ..SimConfig::default()
    }
}

/// One (crash rate, recover time) pair: its runs draw one fabric
/// schedule each, which all five solutions replay.
struct Group {
    crash_rate: f64,
    recover_ms: f64,
}

/// One solution's cell of a [`Group`]: its exchange and its tallies.
struct Cell<'r> {
    kind: SolutionKind,
    plan: RecoveryPlan,
    steps: Vec<SimStep>,
    cfg: SimConfig,
    /// The loss burst's end in the solution's clock, which starts when
    /// it *detects* the crash.
    burst_left: f64,
    rec: &'r sc_obs::Recorder,
    completed: u64,
    lat_sum: f64,
    tx_sum: u64,
}

/// The five cells of `group`, in [`SolutionKind::ALL`] order, each
/// recording into its own `recs` entry. Run `r` of every cell replays
/// the same base schedule — the fabric's crashes, the old serving
/// satellite's crash, `new_serving` protected — plus the cell's own
/// loss burst and the shared re-crash, pushed in that order; the one
/// [`SimScratch`] is exact across cells because a run clears the memo's
/// routes of the view and keeps only the graph's healthy routes.
fn run_group(net: &IslNetwork, group: Group, recs: &[sc_obs::Recorder]) -> Vec<ChaosPoint> {
    let old_serving = net.sat_node(SatId::new(10, 5));
    let new_serving = net.sat_node(SatId::new(10, 6)); // next along the plane
    let gateway = net.ground_node(0);
    let mut cells: Vec<Cell<'_>> = SolutionKind::ALL
        .into_iter()
        .zip(recs)
        .map(|(kind, rec)| {
            let plan = RecoveryPlan::for_solution(kind);
            rec.inc("emu.ext_chaos.cells", 1);
            Cell {
                kind,
                steps: recovery_steps(&plan, new_serving, gateway),
                cfg: chaos_config(&plan),
                burst_left: (BURST_MS - plan.detection_delay_ms).max(0.0),
                plan,
                rec,
                completed: 0,
                lat_sum: 0.0,
                tx_sum: 0,
            }
        })
        .collect();

    let mut scratch = SimScratch::new(net.graph());
    for run in 0..RUNS {
        let base = FailureTimeline::random_crashes(
            net.num_sats(),
            group.crash_rate,
            HORIZON_MS,
            Some(group.recover_ms),
            SEED_TIMELINE ^ (run * 7 + 1),
        )
        .without_node(new_serving)
        .crash(0.0, old_serving);
        // The replacement satellite is itself subject to the fabric
        // crash rate: with probability `crash_rate` it too dies, at a
        // uniform time inside the deadline window, and comes back after
        // `recover_ms`. Fast local recovery has a short exposure window
        // and usually finishes before the blow lands — or rides it out
        // as a transient partition; slow home-routed recovery is almost
        // always caught mid-exchange.
        let mut recrash = Xorshift64::new(SEED_RECRASH ^ (run * 31 + 1));
        let recrash_at =
            (recrash.next_f64() < group.crash_rate).then(|| recrash.next_f64() * DEADLINE_MS);
        for cell in &mut cells {
            let mut tl = base
                .clone()
                .loss_burst(0.0, cell.burst_left, BURST_P)
                .with_seed(SEED_BURST ^ run);
            if let Some(t) = recrash_at {
                tl = tl.crash(t, new_serving).recover(t + group.recover_ms, new_serving);
            }
            // Telemetry for the first run of each cell only: counters stay
            // cheap, and the chaos event stream stays bounded while still
            // exercising every metric (the schedule is seeded per run, so
            // run 0 is representative).
            let run_rec = if run == 0 {
                cell.rec.clone()
            } else {
                sc_obs::Recorder::disabled()
            };
            let sim = ProcedureSim::with_timeline(net.graph(), &tl, cell.cfg.clone())
                .with_recorder(run_rec);
            let mut loss = LossProcess::new(AMBIENT_LOSS, SEED_LOSS ^ (run * 13 + 1));
            let o = sim.run_in(&cell.steps, &mut loss, &mut scratch);
            cell.rec.inc("emu.ext_chaos.runs", 1);
            if o.completed {
                cell.completed += 1;
                cell.lat_sum += cell.plan.detection_delay_ms + o.latency_ms;
                if cell.plan.ip_survives {
                    cell.rec.inc("emu.ext_chaos.survivals", 1);
                }
            }
            cell.tx_sum += o.transmissions as u64;
        }
    }

    cells
        .into_iter()
        .map(|cell| {
            let completion_rate = cell.completed as f64 / RUNS as f64;
            ChaosPoint {
                solution: cell.kind.name().to_string(),
                crash_rate: group.crash_rate,
                recover_ms: group.recover_ms,
                completion_rate,
                session_survival: if cell.plan.ip_survives {
                    completion_rate
                } else {
                    0.0
                },
                mean_recovery_ms: if cell.completed > 0 {
                    Some(cell.lat_sum / cell.completed as f64)
                } else {
                    None
                },
                mean_transmissions: cell.tx_sum as f64 / RUNS as f64,
            }
        })
        .collect()
}

/// Run the experiment with the default worker count.
pub fn run() -> ExtChaos {
    run_obs(&sc_obs::Recorder::disabled())
}

/// [`run`] with telemetry.
pub fn run_obs(obs: &sc_obs::Recorder) -> ExtChaos {
    run_with(crate::engine::thread_count(), obs)
}

/// [`run`] with an explicit worker count; the result — and the merged
/// telemetry — is byte-identical for every `threads` value.
pub fn run_with(threads: usize, obs: &sc_obs::Recorder) -> ExtChaos {
    let cfg = ConstellationConfig::starlink();
    let prop = IdealPropagator::new(cfg.clone());
    let stations = GroundStationSet::starlink_like();
    let net = IslNetwork::build(&prop, &stations, 0.0, IslConfig::default());

    // Points and telemetry are solution-major: cell `k * GROUPS + g` is
    // solution `k` in group `g`, groups in crash-rate-major order. Each
    // cell records into its own child, merged in cell order after the
    // map, so every counter and event lands as if the cells ran one by
    // one.
    const GROUPS: usize = CRASH_RATES.len() * RECOVER_MS.len();
    let children: Vec<sc_obs::Recorder> = (0..SolutionKind::ALL.len() * GROUPS)
        .map(|_| obs.child())
        .collect();
    // Heaviest groups first, so the last group a worker claims is a
    // light one: the highest crash rate first and, within a rate, the
    // short outage (its recoveries clear the memo's routes more often).
    let groups: Vec<(usize, Group, Vec<sc_obs::Recorder>)> = (0..CRASH_RATES.len())
        .rev()
        .flat_map(|c| (0..RECOVER_MS.len()).map(move |r| (c, r)))
        .map(|(c, r)| {
            let g = c * RECOVER_MS.len() + r;
            let group = Group {
                crash_rate: CRASH_RATES[c],
                recover_ms: RECOVER_MS[r],
            };
            let recs = children.iter().skip(g).step_by(GROUPS).cloned().collect();
            (g, group, recs)
        })
        .collect();
    let by_group = crate::engine::parallel_map_with(threads, groups, |(g, group, recs)| {
        (g, run_group(&net, group, &recs))
    });
    for c in &children {
        obs.absorb(c);
    }

    let mut slots: Vec<Option<ChaosPoint>> = vec![None; children.len()];
    for (g, points) in by_group {
        for (k, p) in points.into_iter().enumerate() {
            slots[k * GROUPS + g] = Some(p);
        }
    }
    ExtChaos {
        points: slots.into_iter().flatten().collect(),
    }
}

/// Text rendering.
pub fn render(r: &ExtChaos) -> String {
    let mut t = crate::report::TextTable::new(&[
        "solution",
        "crash rate",
        "recover (ms)",
        "completion",
        "session survival",
        "mean recovery (ms)",
        "mean tx",
    ]);
    for p in &r.points {
        t.row(vec![
            p.solution.clone(),
            format!("{:.0}%", p.crash_rate * 100.0),
            format!("{:.0}", p.recover_ms),
            format!("{:.0}%", p.completion_rate * 100.0),
            format!("{:.0}%", p.session_survival * 100.0),
            match p.mean_recovery_ms {
                Some(ms) => crate::report::fmt_num(ms),
                None => "-".into(),
            },
            crate::report::fmt_num(p.mean_transmissions),
        ]);
    }
    format!(
        "Extension — session survival under serving-satellite crashes (chaos DES over Starlink)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Deterministic; run once for all tests.
    fn cached() -> &'static ExtChaos {
        static CACHE: OnceLock<ExtChaos> = OnceLock::new();
        CACHE.get_or_init(run)
    }

    fn points_at(r: &ExtChaos, crash: f64, recover: f64) -> Vec<&ChaosPoint> {
        r.points
            .iter()
            .filter(|p| p.crash_rate == crash && p.recover_ms == recover)
            .collect()
    }

    #[test]
    fn stateless_survival_strictly_dominates_at_every_nonzero_crash_rate() {
        // The headline acceptance criterion: stateless local
        // re-establishment sustains strictly higher session survival
        // than every stateful baseline in every nonzero-crash-rate cell.
        let r = cached();
        for crash in CRASH_RATES.into_iter().filter(|c| *c > 0.0) {
            for recover in RECOVER_MS {
                let cell = points_at(r, crash, recover);
                let sc = cell
                    .iter()
                    .find(|p| p.solution == "SpaceCore")
                    .expect("SpaceCore point");
                for p in &cell {
                    if p.solution != "SpaceCore" {
                        assert!(
                            sc.session_survival > p.session_survival,
                            "crash {crash} recover {recover}: SpaceCore {} vs {} {}",
                            sc.session_survival,
                            p.solution,
                            p.session_survival
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn satellite_bound_ips_never_survive() {
        // SkyCore/Baoyun/DPCM bind the UE's address to the dead
        // satellite (Fig. 21): zero survival even when their recovery
        // exchange completes.
        let r = cached();
        for p in &r.points {
            if matches!(p.solution.as_str(), "SkyCore" | "Baoyun" | "DPCM") {
                assert_eq!(p.session_survival, 0.0, "{}", p.solution);
            }
        }
    }

    #[test]
    fn local_recovery_is_fast_and_robust() {
        let r = cached();
        for p in &r.points {
            if p.solution == "SpaceCore" {
                assert!(p.session_survival >= 0.9, "{p:?}");
                if let Some(ms) = p.mean_recovery_ms {
                    assert!(ms < DEADLINE_MS, "{p:?}");
                }
            }
        }
    }

    #[test]
    fn home_routed_recovery_pays_in_latency() {
        // Where 5G NTN recovers at all, it is slower than SpaceCore's
        // local path in the same cell.
        let r = cached();
        for crash in CRASH_RATES {
            for recover in RECOVER_MS {
                let cell = points_at(r, crash, recover);
                let sc = cell.iter().find(|p| p.solution == "SpaceCore").unwrap();
                let ntn = cell.iter().find(|p| p.solution == "5G NTN").unwrap();
                if let (Some(sc_ms), Some(ntn_ms)) = (sc.mean_recovery_ms, ntn.mean_recovery_ms) {
                    assert!(sc_ms < ntn_ms, "crash {crash} recover {recover}");
                }
            }
        }
    }

    #[test]
    fn every_cell_present() {
        let r = cached();
        assert_eq!(
            r.points.len(),
            SolutionKind::ALL.len() * CRASH_RATES.len() * RECOVER_MS.len()
        );
    }

    #[test]
    fn parallel_and_serial_runs_bit_identical_with_telemetry() {
        let reference = {
            let obs = sc_obs::Recorder::new();
            let r = run_with(1, &obs);
            (
                serde_json::to_string(&r).unwrap(),
                obs.snapshot().to_json("t"),
            )
        };
        for threads in [2, 3, 4, 16] {
            let obs = sc_obs::Recorder::new();
            let r = run_with(threads, &obs);
            assert_eq!(
                serde_json::to_string(&r).unwrap(),
                reference.0,
                "threads={threads}"
            );
            assert_eq!(obs.snapshot().to_json("t"), reference.1, "threads={threads}");
        }
    }

    #[test]
    fn telemetry_covers_chaos_and_recovery_metrics() {
        let obs = sc_obs::Recorder::new();
        let _ = run_with(1, &obs);
        let s = obs.snapshot();
        assert!(s.counter("netsim.chaos.crashes") > 0);
        assert!(s.counter("netsim.chaos.recoveries") > 0);
        assert!(s.counter("netsim.chaos.burst_windows") > 0);
        assert!(s.counter("netsim.chaos.burst_losses") > 0);
        assert_eq!(
            s.counter("emu.ext_chaos.runs"),
            (SolutionKind::ALL.len() * CRASH_RATES.len() * RECOVER_MS.len()) as u64 * RUNS
        );
        assert!(s.counter("emu.ext_chaos.survivals") > 0);
        assert!(s.events.iter().any(|e| e.kind == "chaos.crash"));
        assert!(s.events.iter().any(|e| e.kind == "chaos.recover"));
    }
}
