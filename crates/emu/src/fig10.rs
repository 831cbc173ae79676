//! Figure 10 — signaling migration overhead of satellites and ground
//! stations, four stateful options × four constellations × capacities.
//!
//! Rows reproduced: per-satellite session-establishment signaling,
//! per-satellite mobility signaling, and per-ground-station load, for
//! satellite capacities {2K, 10K, 20K, 30K} — with the paper's
//! qualitative facts: 10³–10⁵ msg/s per satellite, about an order of
//! magnitude more per ground station, and "None" GS mobility load for
//! options 3-4 (mobility handled in space).

use sc_dataset::workload::{RateModel, WorkloadParams};
use sc_fiveg::messages::{Procedure, ProcedureKind};
use sc_fiveg::nf::SplitOption;
use sc_orbit::ConstellationConfig;
use serde::Serialize;

/// Satellite capacities swept by the paper.
pub const CAPACITIES: [u32; 4] = [2_000, 10_000, 20_000, 30_000];

/// Number of gateways serving each constellation.
pub const GROUND_STATIONS: usize = 30;

#[derive(Debug, Clone, Serialize)]
pub struct Fig10 {
    pub cells: Vec<Cell>,
}

/// One (constellation, option, capacity) cell of the figure.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    pub constellation: String,
    pub option: String,
    pub capacity: u32,
    /// Session-establishment signaling at the satellite, msg/s.
    pub sat_session_msgs: f64,
    /// Mobility signaling at the satellite, msg/s.
    pub sat_mobility_msgs: f64,
    /// Total ground-station load, msg/s (0 = the paper's "None").
    pub gs_msgs: f64,
}

/// Run the experiment.
pub fn run() -> Fig10 {
    run_with(crate::engine::thread_count())
}

/// Run with an explicit worker count. Output is identical for every
/// `threads` value; tests diff the JSON against `threads = 1`.
pub fn run_with(threads: usize) -> Fig10 {
    run_obs_with(threads, &sc_obs::Recorder::disabled())
}

/// [`run`] with telemetry (engine worker count).
pub fn run_obs(obs: &sc_obs::Recorder) -> Fig10 {
    run_obs_with(crate::engine::thread_count(), obs)
}

/// [`run_with`] with telemetry. Cells fan out over per-unit child
/// recorders merged in input order
/// ([`crate::engine::parallel_map_obs_with`]), so the merged snapshot is
/// byte-identical for every `threads` value. When the recorder is
/// enabled, a signaling-storm miniature additionally exercises the
/// stateful AMF/SMF paths, the SUCI concealments, the stateless
/// satellite-local contrast, and one message-level C2 replay.
pub fn run_obs_with(threads: usize, obs: &sc_obs::Recorder) -> Fig10 {
    if obs.enabled() {
        storm_miniature(obs);
    }
    let units: Vec<(ConstellationConfig, SplitOption)> = ConstellationConfig::all_presets()
        .iter()
        .flat_map(|cfg| SplitOption::STATEFUL.iter().map(|&o| (cfg.clone(), o)))
        .collect();
    let groups = crate::engine::parallel_map_obs_with(threads, obs, units, |(cfg, option), rec| {
        rec.inc("emu.fig10.units", 1);
        let params = WorkloadParams::for_constellation(&cfg);
        let model = RateModel::new(params);
        let mut cells = Vec::new();
        for capacity in CAPACITIES {
            let split = option.split();
            let sessions = model.session_rate(capacity);
            let handovers = model.handover_rate(capacity);
            let mob_regs = if matches!(
                option,
                SplitOption::SessionMobility | SplitOption::AllFunctions
            ) {
                model.mobility_reg_rate(capacity)
            } else {
                0.0
            };

            let c2 = Procedure::build_obs(ProcedureKind::SessionEstablishment, rec);
            let paging = Procedure::build_obs(ProcedureKind::Paging, rec);
            let c3 = Procedure::build_obs(ProcedureKind::Handover, rec);
            let c4 = Procedure::build_obs(ProcedureKind::MobilityRegistration, rec);

            let sat_session = sessions
                * (c2.satellite_messages(&split) as f64 * model.radio_overhead
                    + params.downlink_fraction * paging.satellite_messages(&split) as f64);
            let sat_mobility = handovers * c3.satellite_messages(&split) as f64
                + mob_regs * c4.satellite_messages(&split) as f64;

            let per_sat_gs = sessions * c2.ground_messages(&split) as f64
                + handovers * c3.ground_messages(&split) as f64
                + mob_regs * c4.ground_messages(&split) as f64;
            let gs = per_sat_gs * cfg.total_sats() as f64 / GROUND_STATIONS as f64;

            rec.inc("emu.fig10.cells", 1);
            rec.observe("emu.fig10.sat_session_msgs", sat_session);
            rec.observe("emu.fig10.sat_mobility_msgs", sat_mobility);
            rec.observe("emu.fig10.gs_msgs", gs);

            cells.push(Cell {
                constellation: cfg.name.to_string(),
                option: option.name().to_string(),
                capacity,
                sat_session_msgs: sat_session,
                sat_mobility_msgs: sat_mobility,
                gs_msgs: gs,
            });
        }
        cells
    });
    Fig10 {
        cells: groups.into_iter().flatten().collect(),
    }
}

/// The Fig. 10 storm in miniature: a handful of UEs run the stateful
/// satellite-sweep cycle (SUCI-concealed registration at one AMF, PDU
/// session at the SMF, context transfer to the next AMF) that the
/// figure's rates aggregate; one UE takes the stateless satellite-local
/// path (Algorithm 2) for contrast; and one C2 is replayed
/// message-by-message over both a ground-routed UE—satellite—ground
/// topology and a satellite-local UE—satellite one, each traced under a
/// route-tagged `fiveg.proc.*` root span (the `sctrace critical-path`
/// contrast in docs/TELEMETRY.md).
fn storm_miniature(obs: &sc_obs::Recorder) {
    use sc_fiveg::amf::Amf;
    use sc_fiveg::ids::{PlmnId, SessionId};
    use sc_fiveg::smf::Smf;
    use sc_fiveg::state::SessionState;

    let plmn = PlmnId::new(460, 1);
    let mut old_amf = Amf::new(1, plmn);
    let mut new_amf = Amf::new(2, plmn);
    old_amf.attach_recorder(obs.clone());
    new_amf.attach_recorder(obs.clone());
    let mut smf = Smf::new(vec![100], 0xFD00_0000_0000_0001);
    smf.attach_recorder(obs.clone());
    let suci_home = sc_crypto::suci::SuciHomeKey::generate(0x0A10);

    for i in 0..8u64 {
        let s = SessionState::sample(i);
        // One UE cycle per 1.0 ms series window: registration (C1) and
        // session (C2) open the window, the satellite sweep's handover
        // (C3) and AMF relocation (C4) land inside it — so the merged
        // sidecar carries all four `fiveg.msgs_per_window.*` series
        // with a real time axis.
        let t = i as f64;
        Procedure::build_obs_at(ProcedureKind::InitialRegistration, obs, t);
        Procedure::build_obs_at(ProcedureKind::SessionEstablishment, obs, t);
        Procedure::build_obs_at(ProcedureKind::Handover, obs, t + 0.25);
        Procedure::build_obs_at(ProcedureKind::MobilityRegistration, obs, t + 0.5);
        let _ = sc_crypto::suci::conceal_obs(
            obs,
            suci_home.public,
            suci_home.params,
            0x4600_0100_0000 + i,
            500 + i,
        );
        old_amf.register(&s, 0);
        let _ = smf.establish(s.id.supi, SessionId(1), 0);
        if let Ok(ctx) = old_amf.transfer_out(s.id.supi) {
            new_amf.transfer_in(ctx, 1);
        }
    }

    // Stateless contrast: Algorithm 2's satellite-local establishment
    // (feeds `spacecore.satellite.*` and `crypto.statecrypt.*`/ABE).
    let home = spacecore::home::HomeNetwork::new(spacecore::home::HomeConfig::default());
    let mut sat = spacecore::satellite::SpaceCoreSatellite::provision(
        &home,
        sc_orbit::SatId::new(0, 0),
    );
    sat.attach_recorder(obs.clone());
    let mut ue = home.register_ue(1, &sc_geo::sphere::GeoPoint::from_degrees(39.9, 116.4));
    sat.establish_session(&home, &mut ue, 1.0);

    // One C2 at message level over each architecture, traced under a
    // `fiveg.proc.c2_session_establishment` root span tagged with its
    // route — the pair `sctrace critical-path` contrasts. Ground-routed:
    // UE(0) — satellite(1) — ground(2), with the 30 ms feeder link
    // dominating every core-bound leg.
    let mut g = sc_netsim::topo::Graph::new(3);
    g.add_bidirectional(0, 1, 2.0);
    g.add_bidirectional(1, 2, 30.0);
    let nf = sc_netsim::chaos::FailureTimeline::none();
    let sim =
        sc_netsim::sim::ProcedureSim::with_timeline(&g, &nf, sc_netsim::sim::SimConfig::default())
            .with_recorder(obs.clone());
    let c2 = Procedure::build_obs_at(ProcedureKind::SessionEstablishment, obs, 0.0);
    let steps = crate::obs::replay_steps(&c2);
    crate::obs::replay_traced(
        obs,
        &sim,
        &c2,
        &steps,
        "ground",
        &mut sc_netsim::failure::LossProcess::new(0.0, 1),
    );

    // Satellite-local contrast: the same C2 with the core on the
    // serving satellite — UE(0) — satellite(1), radio leg only. Its
    // critical path is all 2 ms UE↔satellite hops.
    let mut g_local = sc_netsim::topo::Graph::new(2);
    g_local.add_bidirectional(0, 1, 2.0);
    let sim_local = sc_netsim::sim::ProcedureSim::with_timeline(
        &g_local,
        &nf,
        sc_netsim::sim::SimConfig::default(),
    )
    .with_recorder(obs.clone());
    let local_steps = crate::obs::replay_steps_local(&c2);
    crate::obs::replay_traced(
        obs,
        &sim_local,
        &c2,
        &local_steps,
        "local",
        &mut sc_netsim::failure::LossProcess::new(0.0, 1),
    );
}

/// Text rendering.
pub fn render(r: &Fig10) -> String {
    let mut t = crate::report::TextTable::new(&[
        "constellation",
        "option",
        "capacity",
        "sat session msg/s",
        "sat mobility msg/s",
        "ground station msg/s",
    ]);
    for c in &r.cells {
        t.row(vec![
            c.constellation.clone(),
            c.option.clone(),
            c.capacity.to_string(),
            crate::report::fmt_num(c.sat_session_msgs),
            crate::report::fmt_num(c.sat_mobility_msgs),
            if c.gs_msgs == 0.0 {
                "None".into()
            } else {
                crate::report::fmt_num(c.gs_msgs)
            },
        ]);
    }
    format!(
        "Fig. 10 — signaling overhead: 4 options × 4 constellations\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'a>(r: &'a Fig10, cons: &str, opt: &str, cap: u32) -> &'a Cell {
        r.cells
            .iter()
            .find(|c| c.constellation == cons && c.option == opt && c.capacity == cap)
            .expect("cell exists")
    }

    #[test]
    fn has_all_cells() {
        let r = run();
        assert_eq!(r.cells.len(), 4 * 4 * 4);
    }

    #[test]
    fn parallel_json_bit_identical_to_serial() {
        let serial = serde_json::to_string_pretty(&run_with(1)).unwrap();
        for threads in [2, 8] {
            let parallel = serde_json::to_string_pretty(&run_with(threads)).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn run_obs_telemetry_thread_invariant_and_output_unchanged(
    ) -> Result<(), serde_json::Error> {
        let plain = serde_json::to_string(&run_with(1))?;
        let rec1 = sc_obs::Recorder::new();
        let r1 = run_obs_with(1, &rec1);
        assert_eq!(serde_json::to_string(&r1)?, plain, "telemetry must not perturb results");
        let rec4 = sc_obs::Recorder::new();
        run_obs_with(4, &rec4);
        assert_eq!(
            rec1.snapshot().to_json("fig10"),
            rec4.snapshot().to_json("fig10"),
            "telemetry must be byte-identical across thread counts"
        );
        let snap = rec1.snapshot();
        assert_eq!(snap.counter("emu.fig10.units"), 16);
        assert_eq!(snap.counter("emu.fig10.cells"), 64);
        assert_eq!(snap.counter("spacecore.satellite.local_establishments"), 1);
        assert_eq!(snap.counter("fiveg.amf.registrations"), 8);
        assert_eq!(snap.counter("fiveg.smf.establishments"), 8);
        assert_eq!(snap.counter("crypto.suci.concealments"), 8);
        assert_eq!(snap.counter("netsim.sim.procedures"), 2);
        assert!(snap.metric_names().len() >= 10, "{:?}", snap.metric_names());

        // The storm's traced C2 replays: one ground-routed root, one
        // satellite-local, and the ground route's longest hop chain runs
        // through the 30 ms satellite↔ground feeder legs while the local
        // one never exceeds the 2 ms radio leg.
        let routes: Vec<&str> = snap
            .spans
            .iter()
            .filter(|s| s.kind == "fiveg.proc.c2_session_establishment")
            .filter_map(|s| {
                s.fields.iter().find_map(|(k, v)| match (k, v) {
                    (&"route", sc_obs::FieldValue::Str(r)) => Some(r.as_str()),
                    _ => None,
                })
            })
            .collect();
        assert_eq!(routes, vec!["ground", "local"]);
        Ok(())
    }

    #[test]
    fn session_storm_magnitudes_starlink() {
        // Paper: "each satellite suffers from 1,035-41,559 signalings/s
        // from session establishments, depending on … capacity".
        let r = run();
        let low = cell(&r, "Starlink", "Radio only", 2_000).sat_session_msgs;
        let high = cell(&r, "Starlink", "Data session", 30_000).sat_session_msgs;
        assert!(low > 200.0 && low < 5_000.0, "{low}");
        assert!(high > 4_000.0 && high < 60_000.0, "{high}");
    }

    #[test]
    fn ground_station_order_of_magnitude_worse() {
        // §3: "This cost is worsened at the ground stations by one order
        // of magnitude due to space-terrestrial asymmetry (except for
        // Option 4)."
        let r = run();
        for cons in ["Starlink", "Kuiper"] {
            let c = cell(&r, cons, "Radio only", 20_000);
            assert!(
                c.gs_msgs > 5.0 * (c.sat_session_msgs + c.sat_mobility_msgs) / 10.0,
                "{cons}: gs {} sat {}",
                c.gs_msgs,
                c.sat_session_msgs
            );
            assert!(c.gs_msgs > c.sat_session_msgs, "{cons}");
        }
    }

    #[test]
    fn option4_has_no_ground_load() {
        let r = run();
        for cons in ["Starlink", "OneWeb", "Kuiper", "Iridium"] {
            for cap in CAPACITIES {
                assert_eq!(cell(&r, cons, "All functions", cap).gs_msgs, 0.0, "{cons}");
            }
        }
    }

    #[test]
    fn mobility_registrations_only_for_options_3_4() {
        let r = run();
        // Options 1-2: mobility = handovers only; options 3-4 add C4
        // storms on top.
        let ho_only = cell(&r, "Starlink", "Radio only", 30_000).sat_mobility_msgs;
        let with_regs = cell(&r, "Starlink", "Session & mobility", 30_000).sat_mobility_msgs;
        assert!(with_regs > ho_only, "{with_regs} vs {ho_only}");
    }

    #[test]
    fn load_scales_with_capacity() {
        let r = run();
        let a = cell(&r, "Kuiper", "Data session", 2_000).sat_session_msgs;
        let b = cell(&r, "Kuiper", "Data session", 20_000).sat_session_msgs;
        assert!((b / a - 10.0).abs() < 1e-6);
    }

    #[test]
    fn render_marks_none() {
        let txt = render(&run());
        assert!(txt.contains("None"));
    }
}
