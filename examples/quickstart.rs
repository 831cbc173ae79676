//! Quickstart: the SpaceCore lifecycle in one file.
//!
//! 1. Build a home network on the Starlink shell.
//! 2. Register a UE (legacy C1 through the home; the home delegates the
//!    encrypted state replica to the device and allocates its
//!    geospatial address).
//! 3. A satellite serves the UE *locally* from the replica — zero home
//!    round-trips (Fig. 16).
//! 4. The satellite sweeps on; the next one takes over via a local
//!    handover with the replica (Fig. 16c). No mobility registration
//!    fires.
//! 5. The home throttles the UE after its quota (home-controlled state
//!    update, §4.4); the old replica version is rejected by the device.
//!
//! Run with: `cargo run --example quickstart`

use spacecore::prelude::*;
use sc_fiveg::messages::{Procedure, ProcedureKind};
use sc_geo::GeoPoint;
use sc_orbit::SatId;

fn main() {
    // 1. Home network (legacy 5G core + SpaceCore extensions).
    let home = HomeNetwork::new(HomeConfig::default());
    println!("home network up: PLMN {}", home.config().plmn);

    // 2. Initial registration from Beijing.
    let beijing = GeoPoint::from_degrees(39.9042, 116.4074);
    let mut ue = home.register_ue(8_6131_0001, &beijing);
    println!(
        "registered {}: geospatial address {}",
        ue.supi, ue.address
    );

    // 3. Localized session establishment.
    let sat_a = SpaceCoreSatellite::provision(&home, SatId::new(3, 7));
    let outcome = sat_a.establish_session(&home, &mut ue, 10.0);
    assert!(outcome.local);
    let messages = |k| Procedure::build(k).message_count() as u32;
    assert_eq!(outcome.signaling_messages, messages(ProcedureKind::LocalEstablishment));
    println!(
        "session via {}: local={} messages={} home-round-trips={}",
        sat_a.id, outcome.local, outcome.signaling_messages, outcome.home_round_trips
    );

    // 4. The satellite sweeps past; local handover to the next one.
    let sat_b = SpaceCoreSatellite::provision(&home, SatId::new(3, 8));
    let ho = sat_b.handover_in(&home, &mut ue, 175.0).expect("authorized");
    sat_a.release(ue.supi);
    assert_eq!(ho.signaling_messages, messages(ProcedureKind::ReplicaHandover));
    println!(
        "handover to {}: messages={} (legacy C3 would need {} + state migration)",
        sat_b.id,
        ho.signaling_messages,
        messages(ProcedureKind::Handover)
    );

    // Idle satellite sweeps cost nothing at all:
    let mm = MobilityManager::spacecore();
    let idle = mm.handle(MobilityEvent::SatelliteSweep(
        sc_fiveg::conn::ConnState::Idle,
    ));
    println!(
        "idle-UE satellite sweep: {} signaling messages (legacy: {})",
        idle.signaling_messages,
        MobilityManager::legacy()
            .handle(MobilityEvent::SatelliteSweep(
                sc_fiveg::conn::ConnState::Idle
            ))
            .signaling_messages
    );

    // 5. Home-controlled state update: quota crossed → throttle.
    let quota = ue.session.billing.quota_bytes;
    let update = home
        .apply_usage_report(&mut ue, quota + 1)
        .expect("quota crossed");
    let new_version = update.version;
    ue.install_update(ue.session.clone(), update).expect("fresh version");
    println!(
        "home throttled the UE to {} kbps via state v{}",
        ue.session.qos.ambr_kbps, new_version
    );

    println!("quickstart complete");
}
