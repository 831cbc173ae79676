//! Orbital edge computing scenario (§2.2, value proposition 3).
//!
//! "Upon satellite attacks/failures, the UE can quickly migrate to other
//! available satellites and recover from failures/attacks with its local
//! state replicas" (§4.3) — the property that makes a stateless core
//! "a necessary first step to simplify the fault/attack tolerance for
//! orbital edge computing".
//!
//! This example runs an edge workload session against a satellite,
//! kills that satellite mid-service, and measures the recovery: the UE
//! re-establishes on the next satellite from its replica in a handful of
//! messages, while a legacy core would have lost the serving state with
//! the dead node and re-run full registration through the home. It also
//! uses the message-level simulator to quantify the recovery signaling
//! time over the real ISL fabric.
//!
//! Run with: `cargo run --example orbital_edge`

use sc_netsim::chaos::FailureTimeline;
use sc_netsim::failure::LossProcess;
use sc_netsim::isl::{IslConfig, IslNetwork};
use sc_netsim::sim::{steps_from_pairs, ProcedureSim, SimConfig};
use sc_geo::GeoPoint;
use sc_orbit::{ConstellationConfig, GroundStationSet, IdealPropagator};
use sc_orbit::coverage::CoverageModel;
use spacecore::prelude::*;

fn main() {
    let cfg = ConstellationConfig::starlink();
    let prop = IdealPropagator::new(cfg.clone());
    let cov = CoverageModel::new(&prop);
    let home = HomeNetwork::new(HomeConfig::default());

    // An edge client in a remote area runs inference against the
    // serving satellite's edge compute.
    let client_pos = GeoPoint::from_degrees(-44.0, 171.6); // rural NZ
    let mut client = home.register_ue(31_337, &client_pos);

    let first = cov.serving_sat(&client_pos, 0.0).expect("covered");
    let sat_a = SpaceCoreSatellite::provision(&home, first.sat);
    let o = sat_a.establish_session(&home, &mut client, 0.0);
    println!(
        "edge session on {}: local={} ({} messages)",
        first.sat, o.local, o.signaling_messages
    );

    // The serving satellite dies (radiation hit).
    println!("\n*** satellite {} fails ***", first.sat);
    // Everything it held is gone — and that's fine: the client holds
    // the state.
    drop(sat_a);

    // Recovery: next-best satellite, served from the replica.
    let next = cov
        .visible_sats(&client_pos, 5.0)
        .into_iter()
        .find(|v| v.sat != first.sat)
        .expect("redundant coverage");
    let sat_b = SpaceCoreSatellite::provision(&home, next.sat);
    let r = sat_b.establish_session(&home, &mut client, 5.0);
    println!(
        "recovered on {}: local={} in {} messages, {} home round-trips",
        next.sat, r.local, r.signaling_messages, r.home_round_trips
    );

    // Quantify the recovery signaling over the real network with the
    // message-level simulator: 4 local messages UE↔satellite vs. a
    // legacy 13-message re-establishment through the home.
    let gs = GroundStationSet::starlink_like();
    let net = IslNetwork::build(&prop, &gs, 5.0, IslConfig::default());
    let failures = FailureTimeline::none().dead_from_start(net.sat_node(first.sat));
    let sim = ProcedureSim::with_timeline(net.graph(), &failures, SimConfig::default());

    let ue_node = net.sat_node(next.sat); // radio attach point
    let (gnode, _) = nearest_ground(&net, &client_pos);

    // SpaceCore recovery: all four messages stay on the serving satellite.
    let local_steps = steps_from_pairs(&[
        ("rrc request", ue_node, ue_node),
        ("rrc setup", ue_node, ue_node),
        ("setup complete + replica", ue_node, ue_node),
        ("session accept", ue_node, ue_node),
    ]);
    // Legacy recovery: NAS exchanges ping-pong with the home.
    let legacy_steps = steps_from_pairs(&[
        ("rrc request", ue_node, ue_node),
        ("rrc setup", ue_node, ue_node),
        ("service request", ue_node, gnode),
        ("auth challenge", gnode, ue_node),
        ("auth response", ue_node, gnode),
        ("security mode", gnode, ue_node),
        ("security complete", ue_node, gnode),
        ("session request", ue_node, gnode),
        ("policy", gnode, gnode),
        ("forwarding rules", gnode, ue_node),
        ("session accept", gnode, ue_node),
    ]);
    let mut loss = LossProcess::new(0.01, 7);
    let local = sim.run(&local_steps, &mut loss);
    let mut loss2 = LossProcess::new(0.01, 7);
    let legacy = sim.run(&legacy_steps, &mut loss2);
    println!(
        "\nrecovery signaling time over the real fabric:\n  SpaceCore local: {:.1} ms ({} transmissions)\n  legacy via home: {:.1} ms ({} transmissions)",
        local.latency_ms, local.transmissions, legacy.latency_ms, legacy.transmissions
    );
    assert!(local.latency_ms < legacy.latency_ms);
    println!("\norbital edge scenario complete");
}

fn nearest_ground(net: &IslNetwork, p: &GeoPoint) -> (usize, f64) {
    let gs = GroundStationSet::starlink_like();
    let (idx, d) = gs
        .stations()
        .iter()
        .enumerate()
        .map(|(i, g)| (i, g.location.distance_km(p)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    (net.ground_node(idx), d)
}
