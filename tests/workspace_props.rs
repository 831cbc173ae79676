//! Cross-crate property tests: invariants that span the workspace.

use proptest::prelude::*;
use sc_fiveg::gtp::GtpUHeader;
use sc_fiveg::ids::TunnelId;
use sc_fiveg::state::SessionState;
use sc_geo::GeoPoint;
use sc_orbit::{ConstellationConfig, IdealPropagator, J4Propagator, Propagator, SatId};
use spacecore::home::{HomeConfig, HomeNetwork};
use spacecore::relay::GeoRelay;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sampled session state round-trips through the byte codec.
    #[test]
    fn session_state_codec_total(msin in 0u64..1_000_000_000) {
        let s = SessionState::sample(msin);
        prop_assert_eq!(SessionState::decode(&s.encode()).unwrap(), s);
    }

    /// ABE wrap → unwrap of any session state by its owner UE.
    #[test]
    fn registered_state_decryptable_by_owner(msin in 0u64..1_000_000, lat in -0.9f64..0.9, lon in -3.1f64..3.1) {
        let home = HomeNetwork::new(HomeConfig::default());
        let ue = home.register_ue(msin, &GeoPoint::new(lat, lon));
        let plain = sc_crypto::abe::AbeSystem::decrypt(&ue.replica.ciphertext, &ue.credentials.sk).unwrap();
        let decoded = SessionState::decode(&plain).unwrap();
        prop_assert_eq!(decoded, ue.session);
    }

    /// GTP-U FEF carries arbitrary byte payloads faithfully.
    #[test]
    fn gtpu_fef_roundtrip(teid in any::<u32>(), plen in any::<u16>(), fef in proptest::collection::vec(any::<u8>(), 0..512)) {
        let h = GtpUHeader::gpdu(TunnelId(teid), plen).with_fef(fef.clone());
        let wire = h.encode();
        let (h2, n) = GtpUHeader::decode(&wire).unwrap();
        prop_assert_eq!(n, wire.len());
        prop_assert_eq!(h2.fef.unwrap(), fef);
        prop_assert_eq!(h2.teid, TunnelId(teid));
    }

    /// Algorithm 1 delivers from any ingress satellite to any satellite's
    /// current coordinate, under ideal orbits, at any epoch.
    #[test]
    fn relay_delivers_from_anywhere(
        ingress_plane in 0u16..72, ingress_slot in 0u16..22,
        dst_plane in 0u16..72, dst_slot in 0u16..22,
        t in 0.0f64..6000.0,
    ) {
        let cfg = ConstellationConfig::starlink();
        let prop = IdealPropagator::new(cfg.clone());
        let relay = GeoRelay::for_shell(&cfg);
        let dst = prop.state(SatId::new(dst_plane, dst_slot), t).coord;
        let tr = relay.trace(&prop, SatId::new(ingress_plane, ingress_slot), dst, t, 1.0);
        prop_assert!(tr.delivered, "hops {}", tr.hops());
        // Grid diameter bound plus the γ compensation that Walker
        // phasing forces on long inter-plane traversals (each plane hop
        // shifts the in-plane phase by F/(m·n) of a turn).
        prop_assert!(tr.hops() <= 72 / 2 + 2 * 22 + 8, "{}", tr.hops());
    }

    /// Algorithm 1 also delivers under J4 perturbations (runtime
    /// coordinate self-calibration), for Iridium's coarse grid.
    #[test]
    fn relay_delivers_under_j4(
        dst_plane in 0u16..6, dst_slot in 0u16..11,
        t in 0.0f64..20_000.0,
    ) {
        let cfg = ConstellationConfig::iridium();
        let prop = J4Propagator::new(cfg.clone());
        let relay = GeoRelay::for_shell(&cfg);
        let dst = prop.state(SatId::new(dst_plane, dst_slot), t).coord;
        let tr = relay.trace(&prop, SatId::new(0, 0), dst, t, 1.0);
        prop_assert!(tr.delivered);
    }

    /// Geospatial addresses are unique per (cell, registration order) and
    /// stable in the encode/decode path all the way from registration.
    #[test]
    fn addresses_unique_within_batch(n in 2usize..30, lat in -0.8f64..0.8, lon in -3.0f64..3.0) {
        let home = HomeNetwork::new(HomeConfig::default());
        let p = GeoPoint::new(lat, lon);
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            let ue = home.register_ue(i as u64, &p);
            prop_assert!(seen.insert(ue.address.encode()), "duplicate address");
            prop_assert_eq!(
                sc_geo::GeoAddress::decode(ue.address.encode()),
                ue.address
            );
        }
    }

    /// Satellite sub-points always stay within the inclination band, and
    /// runtime coordinates always map back to the sub-point.
    #[test]
    fn satellite_coordinates_consistent(plane in 0u16..34, slot in 0u16..34, t in 0.0f64..50_000.0) {
        let cfg = ConstellationConfig::kuiper();
        let prop = J4Propagator::new(cfg.clone());
        let st = prop.state(SatId::new(plane, slot), t);
        prop_assert!(st.subpoint.lat.abs() <= cfg.inclination_rad + 1e-9);
        let frame = sc_geo::inclined::InclinedFrame::new(cfg.inclination_rad);
        let back = frame.to_geo(st.coord);
        prop_assert!((back.lat - st.subpoint.lat).abs() < 1e-9);
        prop_assert!(sc_geo::angle::signed_delta(back.lon, st.subpoint.lon).abs() < 1e-9);
    }

    /// Causal integrity of span traces: replaying any signaling
    /// procedure under any loss process, every span's parent link
    /// references a span that was emitted earlier (lower id AND earlier
    /// position in the ring) — so a trace can always be read forward
    /// without dangling references, whatever the retry churn.
    #[test]
    fn span_parents_reference_earlier_spans(
        kind_idx in 0usize..5,
        loss_pct in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        use sc_fiveg::messages::{Procedure, ProcedureKind};
        let kind = [
            ProcedureKind::InitialRegistration,
            ProcedureKind::SessionEstablishment,
            ProcedureKind::Handover,
            ProcedureKind::MobilityRegistration,
            ProcedureKind::Paging,
        ][kind_idx];
        let proc = Procedure::build(kind);
        let rec = sc_obs::Recorder::new();
        let mut g = sc_netsim::topo::Graph::new(3);
        g.add_bidirectional(0, 1, 2.0);
        g.add_bidirectional(1, 2, 30.0);
        let nf = sc_netsim::chaos::FailureTimeline::none();
        let sim = sc_netsim::sim::ProcedureSim::with_timeline(
            &g,
            &nf,
            sc_netsim::sim::SimConfig::default(),
        )
        .with_recorder(rec.clone());
        let steps = sc_emu::obs::replay_steps(&proc);
        let mut loss = sc_netsim::failure::LossProcess::new(loss_pct, seed);
        sc_emu::obs::replay_traced(&rec, &sim, &proc, &steps, "ground", &mut loss);

        let snap = rec.snapshot();
        prop_assert!(!snap.spans.is_empty());
        prop_assert_eq!(snap.spans_dropped, 0);
        let mut seen = std::collections::HashSet::new();
        for s in &snap.spans {
            if let Some(p) = s.parent {
                prop_assert!(p < s.id, "parent {} not older than child {}", p, s.id);
                prop_assert!(
                    seen.contains(&p),
                    "parent {} of {} not emitted earlier in the ring",
                    p,
                    s.id
                );
            }
            seen.insert(s.id);
        }
        // Exactly one 5G root carrying the route tag, owning the one
        // netsim procedure span.
        let roots: Vec<_> = snap.spans.iter().filter(|s| s.parent.is_none()).collect();
        prop_assert_eq!(roots.len(), 1);
        prop_assert_eq!(roots[0].kind, kind.span_kind());
    }

    /// The mobility decision table never requires the home for satellite
    /// sweeps under SpaceCore, at any connection state.
    #[test]
    fn spacecore_sweeps_never_touch_home(connected in any::<bool>()) {
        use sc_fiveg::conn::ConnState;
        use spacecore::mobility::{MobilityEvent, MobilityManager};
        let st = if connected { ConnState::Connected } else { ConnState::Idle };
        let o = MobilityManager::spacecore().handle(MobilityEvent::SatelliteSweep(st));
        prop_assert!(!o.requires_home);
        prop_assert_eq!(o.state_migrations, 0);
    }
}
