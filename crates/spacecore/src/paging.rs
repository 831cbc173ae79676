//! Stateless paging and downlink delivery (§4.2 "Downlink session
//! establishment").
//!
//! Legacy 5G pages through the anchor: the gateway notifies the AMF,
//! which knows the UE's tracking area and asks its base stations to
//! broadcast. SpaceCore has no anchor and no per-UE location state in
//! the network — instead, the packet itself carries the UE's geospatial
//! cell (inside its address), Algorithm 1 relays it to a satellite
//! covering that cell, and *that* satellite broadcasts the page. The UE
//! then runs the localized uplink establishment (Fig. 16a) to receive.

use crate::home::HomeNetwork;
use crate::relay::{GeoRelay, RelayTrace};
use crate::satellite::SpaceCoreSatellite;
use crate::uestate::UeDevice;
use sc_geo::addr::GeoAddress;
use sc_orbit::{Propagator, SatId};

/// Outcome of a stateless downlink delivery attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct PagingOutcome {
    /// The relay trace to the covering satellite.
    pub relay: RelayTrace,
    /// Satellite that broadcast the page.
    pub paging_sat: SatId,
    /// Did the UE answer (it answers iff it is inside the paged cell)?
    pub ue_answered: bool,
    /// Total signaling messages: relay hops are data-plane; the paging
    /// broadcast + the UE's local establishment (Fig. 16a) are control.
    pub signaling_messages: u32,
    /// End-to-end delay until the session was up, ms.
    pub total_delay_ms: f64,
}

/// Deliver downlink data to `address` starting from `ingress`, paging
/// the destination UE and establishing its session locally.
///
/// `ue` is the device the page is *meant* for; whether it answers
/// depends on whether it actually resides in the addressed cell — the
/// consistency the geospatial design guarantees as long as the UE
/// updated its address on cell crossings (§4.3).
pub fn deliver_downlink(
    relay: &GeoRelay,
    prop: &dyn Propagator,
    home: &HomeNetwork,
    ingress: SatId,
    address: GeoAddress,
    ue: &mut UeDevice,
    t: f64,
) -> PagingOutcome {
    // Route to the addressed cell's centre coordinate.
    let grid = home.cell_grid();
    let dst_coord = grid.cell_center(address.ue_cell);
    let trace = relay.trace(prop, ingress, dst_coord, t, 1.0);

    let paging_sat = *trace.path.last().expect("trace path non-empty");
    if !trace.delivered {
        return PagingOutcome {
            relay: trace,
            paging_sat,
            ue_answered: false,
            signaling_messages: 0,
            total_delay_ms: f64::INFINITY,
        };
    }

    // The satellite broadcasts the page in the addressed cell; the UE
    // hears it iff it is in that cell.
    let ue_in_cell = grid.cell_of_point(&ue.position) == address.ue_cell;
    if !ue_in_cell {
        return PagingOutcome {
            total_delay_ms: trace.delay_ms,
            relay: trace,
            paging_sat,
            ue_answered: false,
            signaling_messages: 1, // the unanswered page
        };
    }

    // UE answers: localized establishment on the paging satellite.
    let sat = SpaceCoreSatellite::provision(home, paging_sat);
    let est = sat.establish_session(home, ue, t);
    let establishment_ms = 45.0 + 10.0; // ABE + radio transaction
    PagingOutcome {
        total_delay_ms: trace.delay_ms + establishment_ms,
        relay: trace,
        paging_sat,
        ue_answered: est.local,
        signaling_messages: 1 + est.signaling_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::HomeConfig;
    use sc_geo::GeoPoint;
    use sc_orbit::{ConstellationConfig, IdealPropagator};

    fn setup() -> (HomeNetwork, IdealPropagator, GeoRelay) {
        let cfg = ConstellationConfig::starlink();
        (
            HomeNetwork::new(HomeConfig::default()),
            IdealPropagator::new(cfg.clone()),
            GeoRelay::for_shell(&cfg),
        )
    }

    #[test]
    fn downlink_reaches_registered_ue() {
        let (home, prop, relay) = setup();
        let pos = GeoPoint::from_degrees(-23.5, -46.6); // São Paulo
        let mut ue = home.register_ue(1, &pos);
        let addr = ue.address;
        let o = deliver_downlink(&relay, &prop, &home, SatId::new(0, 0), addr, &mut ue, 100.0);
        assert!(o.relay.delivered);
        assert!(o.ue_answered);
        assert_eq!(o.signaling_messages, 5); // page + 4-message local C2
        assert!(o.total_delay_ms.is_finite());
    }

    #[test]
    fn page_unanswered_when_ue_moved_without_update() {
        // A UE that crossed cells *without* updating its address (the
        // §4.3 obligation) is unreachable at the stale address.
        let (home, prop, relay) = setup();
        let pos = GeoPoint::from_degrees(-23.5, -46.6);
        let mut ue = home.register_ue(2, &pos);
        let stale_addr = ue.address;
        // Fly to Tokyo without telling the home.
        ue.position = GeoPoint::from_degrees(35.7, 139.7);
        let o = deliver_downlink(
            &relay,
            &prop,
            &home,
            SatId::new(0, 0),
            stale_addr,
            &mut ue,
            100.0,
        );
        assert!(o.relay.delivered, "the page reaches the old cell");
        assert!(!o.ue_answered, "nobody home");
        assert_eq!(o.signaling_messages, 1);
    }

    #[test]
    fn page_answered_after_proper_cell_update() {
        let (home, prop, relay) = setup();
        let mut ue = home.register_ue(3, &GeoPoint::from_degrees(-23.5, -46.6));
        // Proper move: cell crossing through the home (C4).
        assert!(ue.move_to(&home.cell_grid(), GeoPoint::from_degrees(35.7, 139.7)));
        let replica = home.handle_cell_crossing(&mut ue);
        ue.install_update(ue.session.clone(), replica).unwrap();
        let fresh_addr = ue.address;
        let o = deliver_downlink(
            &relay,
            &prop,
            &home,
            SatId::new(40, 3),
            fresh_addr,
            &mut ue,
            200.0,
        );
        assert!(o.ue_answered);
    }

    #[test]
    fn paging_sat_actually_covers_the_cell() {
        let (home, prop, relay) = setup();
        let mut ue = home.register_ue(4, &GeoPoint::from_degrees(48.8, 2.3)); // Paris
        let addr = ue.address;
        let o = deliver_downlink(&relay, &prop, &home, SatId::new(10, 10), addr, &mut ue, 50.0);
        let coord = prop.state(o.paging_sat, 50.0).coord;
        let dst = home.cell_grid().cell_center(addr.ue_cell);
        assert!(
            sc_geo::angle::signed_delta(coord.alpha, dst.alpha).abs() <= relay.coverage_radius()
        );
        assert!(
            sc_geo::angle::signed_delta(coord.gamma, dst.gamma).abs() <= relay.coverage_radius()
        );
    }
}
