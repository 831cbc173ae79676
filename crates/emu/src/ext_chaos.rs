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
//! draws its base schedule once, and every solution replays a copy with
//! its own loss burst appended. What a sweep shares:
//!
//! * **One replay per distinct exchange.** A replay reads only its
//!   solution's exchange — steps, [`SimConfig`], loss-burst window —
//!   and the run's schedule, re-crash and loss seed. Solutions whose
//!   exchanges are equal (5G NTN and Baoyun: a 13-message home-routed
//!   C2 after 1 000 ms of detection; they differ only in what the replay
//!   never reads) replay once per run, and the outcome is tallied into
//!   each of their cells. Sharing is decided by equality of those
//!   inputs, not by solution. A replay that records telemetry (run 0
//!   under an enabled recorder) still runs once per cell, so each cell's
//!   child recorder receives its own.
//! * **One route memo per worker.** The groups map with
//!   [`crate::engine::parallel_map_init`], and each worker's one
//!   [`SimScratch`] serves every group it claims: a replay clears the
//!   memo's routes of the view, and the healthy routes and potentials
//!   it keeps are properties of the graph alone (the exactness argument
//!   is in `sc_netsim::sim`'s module doc), so they carry across groups
//!   exactly.
//!
//! Each (solution, group) cell records into its own telemetry child,
//! merged in solution-major cell order. Everything is seeded; reruns
//! are byte-identical under any `SC_EMU_THREADS`.

use sc_netsim::chaos::FailureTimeline;
use sc_netsim::failure::{LossProcess, Xorshift64};
use sc_netsim::isl::{IslConfig, IslNetwork};
use sc_netsim::sim::{ProcedureSim, SimConfig, SimOutcome, SimScratch, SimStep};
use sc_netsim::topo::Graph;
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

/// The three nodes every replay names: the serving satellite that
/// crashes, the next one along its plane, where the UE recovers, and
/// the home-facing gateway.
#[derive(Clone, Copy)]
struct Endpoints {
    old_serving: usize,
    new_serving: usize,
    gateway: usize,
}

impl Endpoints {
    fn of(net: &IslNetwork) -> Self {
        Self {
            old_serving: net.sat_node(SatId::new(10, 5)),
            new_serving: net.sat_node(SatId::new(10, 6)),
            gateway: net.ground_node(0),
        }
    }
}

/// The recovery exchange as network legs: local plans run entirely on
/// the new serving satellite; home-routed plans ping-pong between it and
/// the gateway.
fn recovery_steps(plan: &RecoveryPlan, at: Endpoints) -> Vec<SimStep> {
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
                (at.new_serving, at.new_serving)
            } else if i % 2 == 0 {
                (at.new_serving, at.gateway)
            } else {
                (at.gateway, at.new_serving)
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
#[derive(Debug, Clone, Copy)]
struct Group {
    crash_rate: f64,
    recover_ms: f64,
}

/// All that a replay reads of its solution. Two solutions with equal
/// exchanges replay every run alike.
#[derive(PartialEq)]
struct Exchange {
    steps: Vec<SimStep>,
    cfg: SimConfig,
    /// The loss burst's end in the solution's clock, which starts when
    /// it *detects* the crash.
    burst_left: f64,
}

impl Exchange {
    fn of(plan: &RecoveryPlan, at: Endpoints) -> Self {
        Self {
            steps: recovery_steps(plan, at),
            cfg: chaos_config(plan),
            burst_left: (BURST_MS - plan.detection_delay_ms).max(0.0),
        }
    }
}

/// Run `run` of a group: the fabric schedule every solution replays.
struct RunSchedule {
    run: u64,
    new_serving: usize,
    /// The fabric's crashes and the old serving satellite's crash, the
    /// new serving satellite protected.
    base: FailureTimeline,
    /// When the new serving satellite is hit in turn, and when it is
    /// back, if it is hit.
    recrash: Option<(f64, f64)>,
}

impl RunSchedule {
    fn draw(net: &IslNetwork, at: Endpoints, group: Group, run: u64) -> Self {
        let base = FailureTimeline::random_crashes(
            net.num_sats(),
            group.crash_rate,
            HORIZON_MS,
            Some(group.recover_ms),
            SEED_TIMELINE ^ (run * 7 + 1),
        )
        .without_node(at.new_serving)
        .crash(0.0, at.old_serving);
        // The replacement satellite is itself subject to the fabric
        // crash rate: with probability `crash_rate` it too dies, at a
        // uniform time inside the deadline window, and comes back after
        // `recover_ms`. Fast local recovery has a short exposure window
        // and usually finishes before the blow lands — or rides it out
        // as a transient partition; slow home-routed recovery is almost
        // always caught mid-exchange.
        let mut recrash = Xorshift64::new(SEED_RECRASH ^ (run * 31 + 1));
        let recrash = (recrash.next_f64() < group.crash_rate).then(|| {
            let t = recrash.next_f64() * DEADLINE_MS;
            (t, t + group.recover_ms)
        });
        Self {
            run,
            new_serving: at.new_serving,
            base,
            recrash,
        }
    }

    /// Replay `ex` over this run's schedule: `tl` takes a copy of the
    /// base, then the exchange's loss burst and the re-crash, pushed in
    /// that order. `rec` records the replay.
    fn replay(
        &self,
        graph: &Graph,
        ex: &Exchange,
        rec: sc_obs::Recorder,
        tl: &mut FailureTimeline,
        scratch: &mut SimScratch<'_>,
    ) -> SimOutcome {
        tl.clone_from(&self.base);
        let mut built = std::mem::take(tl)
            .loss_burst(0.0, ex.burst_left, BURST_P)
            .with_seed(SEED_BURST ^ self.run);
        if let Some((down, up)) = self.recrash {
            built = built.crash(down, self.new_serving).recover(up, self.new_serving);
        }
        *tl = built;
        let sim = ProcedureSim::with_timeline(graph, tl, ex.cfg.clone()).with_recorder(rec);
        let mut loss = LossProcess::new(AMBIENT_LOSS, SEED_LOSS ^ (self.run * 13 + 1));
        sim.run_in(&ex.steps, &mut loss, scratch)
    }
}

/// One solution's cell of a [`Group`]: its exchange and its tallies.
struct Cell<'r> {
    kind: SolutionKind,
    plan: RecoveryPlan,
    exchange: Exchange,
    /// The first cell, in [`SolutionKind::ALL`] order, whose exchange
    /// equals this one's: this cell's own index when none comes before.
    replays_as: usize,
    rec: &'r sc_obs::Recorder,
    completed: u64,
    lat_sum: f64,
    tx_sum: u64,
}

impl Cell<'_> {
    fn tally(&mut self, o: &SimOutcome) {
        self.rec.inc("emu.ext_chaos.runs", 1);
        if o.completed {
            self.completed += 1;
            self.lat_sum += self.plan.detection_delay_ms + o.latency_ms;
            if self.plan.ip_survives {
                self.rec.inc("emu.ext_chaos.survivals", 1);
            }
        }
        self.tx_sum += o.transmissions as u64;
    }
}

/// The five cells of a group, in [`SolutionKind::ALL`] order, each
/// recording into its own `recs` entry.
fn cells(at: Endpoints, recs: &[sc_obs::Recorder]) -> Vec<Cell<'_>> {
    let mut cells: Vec<Cell<'_>> = SolutionKind::ALL
        .into_iter()
        .zip(recs)
        .map(|(kind, rec)| {
            let plan = RecoveryPlan::for_solution(kind);
            Cell {
                kind,
                exchange: Exchange::of(&plan, at),
                plan,
                replays_as: 0,
                rec,
                completed: 0,
                lat_sum: 0.0,
                tx_sum: 0,
            }
        })
        .collect();
    for k in 0..cells.len() {
        cells[k].replays_as = (0..k)
            .find(|&j| cells[j].exchange == cells[k].exchange)
            .unwrap_or(k);
    }
    cells
}

/// Run every run of `group` over `scratch`. Each run replays each
/// distinct exchange once and tallies the outcome into every cell that
/// shares it; a replay that records telemetry (run 0, under an enabled
/// recorder) runs for its own cell. The worker's one [`SimScratch`] is
/// exact across cells, runs and groups: a run clears the memo's routes
/// of the view and keeps only the graph's healthy routes and
/// potentials.
fn run_group(
    net: &IslNetwork,
    group: Group,
    recs: &[sc_obs::Recorder],
    scratch: &mut SimScratch<'_>,
) -> Vec<ChaosPoint> {
    let at = Endpoints::of(net);
    let mut cells = cells(at, recs);
    for cell in &cells {
        cell.rec.inc("emu.ext_chaos.cells", 1);
    }

    let mut tl = FailureTimeline::none();
    let mut outcomes: Vec<SimOutcome> = Vec::with_capacity(cells.len());
    let mut outcome_of = vec![0; cells.len()];
    for run in 0..RUNS {
        let schedule = RunSchedule::draw(net, at, group, run);
        outcomes.clear();
        for k in 0..cells.len() {
            // Telemetry for the first run of each cell only: counters stay
            // cheap, and the chaos event stream stays bounded while still
            // exercising every metric (the schedule is seeded per run, so
            // run 0 is representative).
            let rec = if run == 0 {
                cells[k].rec.clone()
            } else {
                sc_obs::Recorder::disabled()
            };
            let j = cells[k].replays_as;
            outcome_of[k] = if j < k && !rec.enabled() {
                outcome_of[j]
            } else {
                let ex = &cells[k].exchange;
                outcomes.push(schedule.replay(net.graph(), ex, rec, &mut tl, scratch));
                outcomes.len() - 1
            };
            cells[k].tally(&outcomes[outcome_of[k]]);
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
    let by_group = crate::engine::parallel_map_init(
        threads,
        groups,
        || SimScratch::new(net.graph()),
        |scratch, (g, group, recs)| (g, run_group(&net, group, &recs, scratch)),
    );
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

    fn groups() -> impl Iterator<Item = Group> {
        CRASH_RATES.into_iter().flat_map(|crash_rate| {
            RECOVER_MS.into_iter().map(move |recover_ms| Group {
                crash_rate,
                recover_ms,
            })
        })
    }

    #[test]
    fn cells_sharing_an_exchange_replay_alike() {
        let prop = IdealPropagator::new(ConstellationConfig::starlink());
        let net = IslNetwork::build(
            &prop,
            &GroundStationSet::starlink_like(),
            0.0,
            IslConfig::default(),
        );
        let at = Endpoints::of(&net);
        let recs = vec![sc_obs::Recorder::disabled(); SolutionKind::ALL.len()];
        let cells = cells(at, &recs);
        let shared: Vec<(&str, &str)> = cells
            .iter()
            .filter(|c| c.kind != cells[c.replays_as].kind)
            .map(|c| (cells[c.replays_as].kind.name(), c.kind.name()))
            .collect();
        // 4 distinct exchanges of 5: 4 × 40 × 8 = 1 280 replays a sweep.
        assert_eq!(shared, [("5G NTN", "Baoyun")]);
        for group in groups() {
            for run in 0..4 {
                let schedule = RunSchedule::draw(&net, at, group, run);
                for c in cells.iter().filter(|c| c.kind != cells[c.replays_as].kind) {
                    let own = |ex: &Exchange| {
                        schedule.replay(
                            net.graph(),
                            ex,
                            sc_obs::Recorder::disabled(),
                            &mut FailureTimeline::none(),
                            &mut SimScratch::new(net.graph()),
                        )
                    };
                    assert_eq!(
                        own(&c.exchange),
                        own(&cells[c.replays_as].exchange),
                        "{group:?} run {run}: {}",
                        c.kind.name()
                    );
                }
            }
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
