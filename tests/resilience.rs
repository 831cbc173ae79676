//! Resilience integration tests: failures and attacks (§3.3, Fig. 13,
//! Fig. 19, Appendix B) exercised across crates.

use sc_geo::GeoPoint;
use sc_netsim::chaos::FailureTimeline;
use sc_netsim::failure::{AttackInjector, GilbertElliott};
use sc_netsim::isl::{IslConfig, IslNetwork};
use sc_orbit::{ConstellationConfig, GroundStationSet, IdealPropagator, SatId};
use spacecore::home::HomeConfig;
use spacecore::prelude::*;

/// Dead satellites: Dijkstra routes around them; connectivity survives
/// the Fig. 13a decay rate (~1/40) and much worse.
#[test]
fn routing_survives_satellite_decay() {
    let prop = IdealPropagator::new(ConstellationConfig::starlink());
    let gs = GroundStationSet::starlink_like();
    let net = IslNetwork::build(&prop, &gs, 0.0, IslConfig::default());

    for p_fail in [0.025, 0.10] {
        let decayed = FailureTimeline::random_dead(net.num_sats(), p_fail, 99);
        let failures = decayed.cursor();
        let src = net.sat_node(SatId::new(0, 0));
        let dst = net.sat_node(SatId::new(36, 11));
        if failures.is_dead(src) || failures.is_dead(dst) {
            continue;
        }
        let clean = net
            .graph()
            .shortest_path(src, dst, |n| n >= net.num_sats())
            .expect("connected");
        let degraded = net
            .graph()
            .shortest_path(src, dst, |n| n >= net.num_sats() || failures.is_dead(n))
            .expect("still connected under decay");
        assert!(degraded.cost >= clean.cost, "detours cannot be cheaper");
        assert!(
            degraded.cost < 3.0 * clean.cost,
            "p={p_fail}: detour {} vs {}",
            degraded.cost,
            clean.cost
        );
    }
}

/// Bursty radio-link loss (Fig. 13b): a stateful multi-message
/// procedure fails if *any* message is lost; SpaceCore's 4-message local
/// exchange survives far more often than the 24-message legacy C1.
#[test]
fn short_procedures_survive_bursty_loss() {
    let trials = 2000;
    let legacy_msgs = 24; // C1 step count
    let local_msgs = 4; // SpaceCore local establishment
    let mut legacy_ok = 0;
    let mut local_ok = 0;
    let mut ge = GilbertElliott::tiantong_profile(7);
    for _ in 0..trials {
        if (0..legacy_msgs).all(|_| !ge.lost()) {
            legacy_ok += 1;
        }
        if (0..local_msgs).all(|_| !ge.lost()) {
            local_ok += 1;
        }
    }
    let legacy_rate = legacy_ok as f64 / trials as f64;
    let local_rate = local_ok as f64 / trials as f64;
    assert!(
        local_rate > legacy_rate + 0.05,
        "local {local_rate} vs legacy {legacy_rate}"
    );
}

/// Hijack exposure: a hijacked SpaceCore satellite exposes exactly its
/// active sessions, and release shrinks the exposure — while a
/// SkyCore-style replicated store would expose everything registered.
#[test]
fn hijack_exposure_is_bounded_and_shrinks() {
    let home = HomeNetwork::new(HomeConfig::default());
    let sat = SpaceCoreSatellite::provision(&home, SatId::new(5, 5));
    let mut ues: Vec<_> = (0..40)
        .map(|i| home.register_ue(1000 + i, &GeoPoint::from_degrees(35.0, 139.0)))
        .collect();
    for ue in ues.iter_mut() {
        assert!(sat.establish_session(&home, ue, 1.0).local);
    }
    assert_eq!(sat.hijack_exposure().len(), 40);
    for ue in &ues {
        sat.release(ue.supi);
    }
    assert_eq!(sat.hijack_exposure().len(), 0, "stateless after release");
}

/// Man-in-the-middle on ISLs: tapped links capture legacy state
/// migrations; Algorithm 1 paths that avoid tapped links leak nothing,
/// and the attack-injector bookkeeping composes with real paths.
#[test]
fn mitm_taps_compose_with_real_paths() {
    let prop = IdealPropagator::new(ConstellationConfig::iridium());
    let gs = GroundStationSet::starlink_like();
    let net = IslNetwork::build(&prop, &gs, 0.0, IslConfig::default());
    let mut atk = AttackInjector::new();

    let src = net.sat_node(SatId::new(0, 0));
    let dst = net.sat_node(SatId::new(3, 5));
    let path = net
        .graph()
        .shortest_path(src, dst, |n| n >= net.num_sats())
        .expect("connected");
    // Tap the middle hop of the found path.
    let mid = path.path.len() / 2;
    atk.tap_link(path.path[mid - 1], path.path[mid]);
    assert!(atk.path_tapped(&path.path));

    // Re-route around the tapped link's downstream node: clean again.
    let avoided = net
        .graph()
        .shortest_path(src, dst, |n| n >= net.num_sats() || n == path.path[mid])
        .expect("alternative exists");
    assert!(!atk.path_tapped(&avoided.path));
}

/// Replay defence: an expired replica is refused even by an authorized
/// satellite; a refreshed replica works again (Appendix B).
#[test]
fn ttl_replay_defence_end_to_end() {
    let home = HomeNetwork::new(HomeConfig {
        state_ttl_s: 100.0,
        ..HomeConfig::default()
    });
    let sat = SpaceCoreSatellite::provision(&home, SatId::new(2, 2));
    let mut ue = home.register_ue(77, &GeoPoint::from_degrees(0.0, 0.0));

    assert!(sat.try_local_establishment(&home, &mut ue, 50.0).is_ok());
    // Past the TTL: rejected, falls back to home.
    let err = sat.try_local_establishment(&home, &mut ue, 150.0).unwrap_err();
    assert!(matches!(
        err,
        spacecore::satellite::LocalPathFailure::Crypto(
            sc_crypto::statecrypt::StateCryptError::Expired
        )
    ));
    let rolled_back = sat.establish_session(&home, &mut ue, 150.0);
    assert!(!rolled_back.local);

    // Home refresh (version 2 → TTL window 200 s): local path works again.
    let (session, replica) = home.refresh_state(&ue, 150.0);
    ue.install_update(session, replica).expect("fresh version");
    assert!(sat.try_local_establishment(&home, &mut ue, 150.0).is_ok());
}

/// A compromised UE cannot forge a better state: re-encrypting a
/// modified state under the public parameters fails the home envelope
/// check at the satellite (Appendix B "UE-side state manipulation").
#[test]
fn ue_state_forgery_detected_end_to_end() {
    let home = HomeNetwork::new(HomeConfig::default());
    let sat = SpaceCoreSatellite::provision(&home, SatId::new(4, 4));
    let mut ue = home.register_ue(88, &GeoPoint::from_degrees(20.0, 30.0));

    // The selfish UE grants itself unlimited bandwidth and re-wraps the
    // state with the public ABE parameters under the same policy.
    let mut forged_session = ue.session.clone();
    forged_session.qos.ambr_kbps = u32::MAX;
    forged_session.billing.quota_bytes = u64::MAX;
    let policy = ue.replica.ciphertext.policy();
    let forged_ct = sc_crypto::abe::AbeSystem::encrypt(
        home.crypto().public_key(),
        &forged_session.encode(),
        &policy,
        12345,
    );
    ue.replica.ciphertext = forged_ct;

    let err = sat.try_local_establishment(&home, &mut ue, 1.0).unwrap_err();
    assert!(matches!(
        err,
        spacecore::satellite::LocalPathFailure::Crypto(
            sc_crypto::statecrypt::StateCryptError::BadHomeSignature
        )
    ));
}

/// Polar cross-link shutdown (Fig. 13 context / §3.2 footnote): paths
/// between near-polar satellites get longer but stay connected.
#[test]
fn polar_crosslink_shutdown_lengthens_paths() {
    let prop = IdealPropagator::new(ConstellationConfig::oneweb());
    let gs = GroundStationSet::starlink_like();
    let with_cutoff = IslNetwork::build(&prop, &gs, 0.0, IslConfig::default());
    let without = IslNetwork::build(
        &prop,
        &gs,
        0.0,
        IslConfig {
            polar_cutoff_lat: None,
            ..IslConfig::default()
        },
    );
    let src = with_cutoff.sat_node(SatId::new(0, 10));
    let dst = with_cutoff.sat_node(SatId::new(9, 10));
    let block_grounds = |net: &IslNetwork, n: usize| n >= net.num_sats();
    let a = with_cutoff
        .graph()
        .shortest_path(src, dst, |n| block_grounds(&with_cutoff, n))
        .expect("connected with cutoff");
    let b = without
        .graph()
        .shortest_path(src, dst, |n| block_grounds(&without, n))
        .expect("connected without cutoff");
    assert!(a.cost >= b.cost, "cutoff cannot shorten paths");
}
