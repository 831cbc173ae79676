//! Emergency communications scenario (§2.2, value proposition 4).
//!
//! "In disasters or wars, the terrestrial mobile infrastructure can be
//! destroyed. In this case, satellites as radio and core functions can
//! offer complementary services for emergency communications."
//!
//! This example knocks out the terrestrial infrastructure around a
//! disaster zone, fails a slice of the constellation (Fig. 13a's ~1/40
//! decay rate plus battle damage), hijacks one satellite, and shows
//! that pre-registered SpaceCore UEs keep communicating:
//!
//! * sessions establish locally from UE replicas with zero home contact,
//! * a hijacked satellite is revoked by a policy-epoch refresh,
//! * Algorithm 1 keeps delivering across the degraded ISL fabric.
//!
//! Run with: `cargo run --example emergency_comms`

use sc_geo::GeoPoint;
use sc_netsim::chaos::FailureTimeline;
use sc_orbit::{ConstellationConfig, Constellation, IdealPropagator, Propagator, SatId};
use spacecore::prelude::*;

fn main() {
    let cfg = ConstellationConfig::starlink();
    let prop = IdealPropagator::new(cfg.clone());
    let constellation = Constellation::new(cfg.clone());
    let home = HomeNetwork::new(HomeConfig::default());

    // Civilians registered *before* the disaster, while the home was
    // reachable. Their replicas are their lifeline now.
    let zone = GeoPoint::from_degrees(48.0, 35.0);
    let mut ues: Vec<_> = (0..50)
        .map(|i| home.register_ue(70_000 + i, &zone))
        .collect();
    println!("{} UEs registered before the disaster", ues.len());

    // Disaster: terrestrial core unreachable; 5% of satellites dead.
    let failures = FailureTimeline::random_dead(cfg.total_sats(), 0.05, 0xBAD);
    let lost = failures.cursor();
    println!(
        "disaster strikes: terrestrial infrastructure down, {} satellites lost",
        lost.dead_count()
    );

    // Find a surviving satellite over the zone and serve everyone.
    let snapshot = prop.snapshot(0.0);
    let serving = constellation
        .sats()
        .filter(|s| !lost.is_dead(constellation.index_of(*s)))
        .min_by(|a, b| {
            let da = snapshot[constellation.index_of(*a)].subpoint.distance_km(&zone);
            let db = snapshot[constellation.index_of(*b)].subpoint.distance_km(&zone);
            da.partial_cmp(&db).expect("finite")
        })
        .expect("survivors exist");
    let sat = SpaceCoreSatellite::provision(&home, serving);
    let mut served = 0;
    for ue in ues.iter_mut() {
        let o = sat.establish_session(&home, ue, 1.0);
        assert!(o.local, "no home needed");
        served += 1;
    }
    println!("satellite {serving} serves {served}/{} UEs locally", ues.len());

    // One satellite is hijacked. Exposure: only its active sessions.
    println!(
        "hijack of {serving} would expose {} session keys (SkyCore-style replication would expose the full subscriber database)",
        sat.hijack_exposure().len()
    );

    // Home revokes the hijacked satellite with an epoch-scoped policy:
    // fresh replicas demand the new epoch attribute.
    let hijacked =
        SpaceCoreSatellite::provision_with_attrs(&home, serving, &["role:satellite", "authorized"]);
    let epoch_home = HomeNetwork::new(HomeConfig {
        satellite_policy: sc_crypto::policy::AccessTree::all_of(&[
            "role:satellite",
            "authorized",
            "epoch:2",
        ]),
        ..HomeConfig::default()
    });
    let mut fresh_ue = epoch_home.register_ue(90_001, &zone);
    let denied = hijacked.try_local_establishment(&epoch_home, &mut fresh_ue, 2.0);
    assert!(denied.is_err(), "revoked satellite cannot decrypt");
    let good = SpaceCoreSatellite::provision_with_attrs(
        &epoch_home,
        SatId::new(10, 10),
        &["role:satellite", "authorized", "epoch:2"],
    );
    let ok = good.try_local_establishment(&epoch_home, &mut fresh_ue, 2.0);
    assert!(ok.is_ok());
    println!("hijacked satellite revoked via policy epoch; epoch-2 satellites still serve");

    // Cross-zone delivery over the degraded fabric (Algorithm 1).
    let relay = GeoRelay::for_shell(&cfg);
    let berlin = GeoPoint::from_degrees(52.5, 13.4);
    let tr = relay
        .deliver_ground_to_ground(&prop, &zone, &berlin, 0.0, 1.0)
        .expect("coverage");
    println!(
        "message relayed to Berlin: delivered={} hops={} delay={:.1} ms",
        tr.delivered,
        tr.hops(),
        tr.delay_ms
    );
    println!("emergency scenario complete");
}
