//! Algorithm 1 — stateless geospatial relaying in the +Grid topology.
//!
//! Each satellite knows only its own runtime coordinate
//! `S = (α_s(t), γ_s(t))`, its coverage radius `AS`, and its grid
//! spacing `(Δα, Δγ)`. A packet's destination coordinate `D = (α_d, γ_d)`
//! comes straight out of the UE's geospatial address (Fig. 15c). The
//! forwarding rule is purely local:
//!
//! 1. if `D` is within `AS` of `S` on both axes → page and deliver;
//! 2. otherwise move along the axis with the larger residual, in the
//!    wrap-shortest direction (the `m/2·Δα` comparisons in the paper's
//!    listing are exactly the "shorter way around the circle" test).
//!
//! Because every decision uses the satellite's *runtime* coordinate, the
//! algorithm self-calibrates against orbit perturbations: under the J4
//! propagator the grid drifts, and forwarding still converges (Fig. 18b).

use sc_geo::angle::signed_delta;
use sc_geo::inclined::InclinedCoord;
use sc_geo::sphere::{propagation_delay_ms, GeoPoint};
use sc_orbit::{Constellation, IndexedSnapshot, Propagator, SatId};

/// A local forwarding decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayDecision {
    /// The current satellite covers the destination: page + deliver.
    Deliver,
    /// Forward to the intra-orbit neighbour with smaller γ.
    Down,
    /// Forward to the intra-orbit neighbour with larger γ.
    Up,
    /// Forward to the adjacent plane with smaller α.
    Left,
    /// Forward to the adjacent plane with larger α.
    Right,
}

/// The stateless relay function for one constellation shell.
#[derive(Debug, Clone)]
pub struct GeoRelay {
    /// Coverage radius in coordinate space (radians on each axis).
    coverage_radius: f64,
    /// Hop budget before declaring a routing failure.
    max_hops: usize,
    /// Telemetry (disabled by default): `spacecore.relay.*` counters and
    /// the per-packet hop/delay histograms.
    obs: sc_obs::Recorder,
}

/// Result of tracing a packet through the constellation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayTrace {
    /// Satellites visited, in order (first = ingress satellite).
    pub path: Vec<SatId>,
    /// Was the packet delivered (vs. hop budget exhausted)?
    pub delivered: bool,
    /// Accumulated propagation + per-hop processing delay, ms.
    pub delay_ms: f64,
}

impl RelayTrace {
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

impl GeoRelay {
    /// Build a relay for a shell, deriving the coordinate-space coverage
    /// radius from the grid spacing: a satellite "covers" destinations
    /// within half a grid cell on each axis (plus a small guard band so
    /// coverage regions overlap rather than leave seams).
    pub fn for_shell(cfg: &sc_orbit::ConstellationConfig) -> Self {
        let d_alpha = std::f64::consts::TAU / cfg.planes as f64;
        let d_gamma = std::f64::consts::TAU / cfg.sats_per_plane as f64;
        Self {
            coverage_radius: 0.55 * d_alpha.max(d_gamma),
            max_hops: 4 * (cfg.planes as usize + cfg.sats_per_plane as usize),
            obs: sc_obs::Recorder::disabled(),
        }
    }

    /// Attach a telemetry recorder; subsequent traces count under
    /// `spacecore.relay.*`.
    pub fn with_recorder(mut self, obs: sc_obs::Recorder) -> Self {
        self.obs = obs;
        self
    }

    /// Override the coverage radius (the cell-granularity ablation,
    /// held by `finer_coverage_radius_can_cause_detours_but_still_delivers`).
    pub fn with_coverage_radius(mut self, r: f64) -> Self {
        assert!(r > 0.0);
        self.coverage_radius = r;
        self
    }

    /// The coordinate-space coverage radius.
    pub fn coverage_radius(&self) -> f64 {
        self.coverage_radius
    }

    /// Algorithm 1's local decision at a satellite with runtime
    /// coordinate `sat` for destination coordinate `dst`.
    pub fn decide(&self, sat: InclinedCoord, dst: InclinedCoord) -> RelayDecision {
        let da = signed_delta(sat.alpha, dst.alpha);
        let dg = signed_delta(sat.gamma, dst.gamma);
        if da.abs() <= self.coverage_radius && dg.abs() <= self.coverage_radius {
            return RelayDecision::Deliver;
        }
        if da.abs() > dg.abs() {
            if da > 0.0 {
                RelayDecision::Right
            } else {
                RelayDecision::Left
            }
        } else if dg > 0.0 {
            RelayDecision::Up
        } else {
            RelayDecision::Down
        }
    }

    /// Apply a decision to a grid position.
    fn step(constellation: &Constellation, sat: SatId, d: RelayDecision) -> SatId {
        let cfg = constellation.config();
        let m = cfg.planes;
        let n = cfg.sats_per_plane;
        match d {
            RelayDecision::Deliver => sat,
            RelayDecision::Down => SatId::new(sat.plane, (sat.slot + n - 1) % n),
            RelayDecision::Up => SatId::new(sat.plane, (sat.slot + 1) % n),
            RelayDecision::Left => SatId::new((sat.plane + m - 1) % m, sat.slot),
            RelayDecision::Right => SatId::new((sat.plane + 1) % m, sat.slot),
        }
    }

    /// Trace a packet from `ingress` toward the destination coordinate
    /// `dst` over live orbits at emulation time `t`.
    ///
    /// `per_hop_processing_ms` models switching latency at each
    /// satellite. Satellites move negligibly during a single packet's
    /// flight, so the whole trace uses the snapshot at `t`.
    ///
    /// When telemetry is enabled, each packet records a causal
    /// `spacecore.relay.packet` root span (with the ingress grid
    /// position; `delivered`/`hops` attached on close) and one
    /// `spacecore.relay.hop` child per ISL hop, stamped with the
    /// packet-relative cumulative delay (ms) — so `sctrace` can show
    /// which leg of an Algorithm 1 route dominated.
    pub fn trace(
        &self,
        prop: &dyn Propagator,
        ingress: SatId,
        dst: InclinedCoord,
        t: f64,
        per_hop_processing_ms: f64,
    ) -> RelayTrace {
        let constellation = Constellation::new(prop.config().clone());
        self.obs.inc("spacecore.relay.packets", 1);
        let traced = self.obs.enabled();
        let packet_span = if traced {
            self.obs.span_open(
                None,
                "spacecore.relay.packet",
                0.0,
                vec![
                    ("plane", sc_obs::FieldValue::from(ingress.plane as u64)),
                    ("slot", sc_obs::FieldValue::from(ingress.slot as u64)),
                ],
            )
        } else {
            sc_obs::SpanId::DISABLED
        };
        let mut cur = ingress;
        let mut path = vec![cur];
        let mut delay = 0.0;
        for _ in 0..self.max_hops {
            let st = prop.state(cur, t);
            match self.decide(st.coord, dst) {
                RelayDecision::Deliver => {
                    self.obs.inc("spacecore.relay.delivered", 1);
                    self.obs
                        .observe("spacecore.relay.hops", (path.len() - 1) as f64);
                    self.obs.observe("spacecore.relay.delay_ms", delay);
                    if traced {
                        self.obs.span_close_with(
                            packet_span,
                            delay,
                            vec![
                                ("delivered", sc_obs::FieldValue::from(1u64)),
                                ("hops", sc_obs::FieldValue::from(path.len() - 1)),
                            ],
                        );
                    }
                    return RelayTrace {
                        path,
                        delivered: true,
                        delay_ms: delay,
                    };
                }
                d => {
                    let next = Self::step(&constellation, cur, d);
                    let next_pos = prop.state(next, t).position;
                    let hop_ms = propagation_delay_ms(st.position.distance_km(&next_pos))
                        + per_hop_processing_ms;
                    if traced {
                        self.obs.span(
                            Some(packet_span),
                            "spacecore.relay.hop",
                            delay,
                            delay + hop_ms,
                            vec![
                                ("plane", sc_obs::FieldValue::from(next.plane as u64)),
                                ("slot", sc_obs::FieldValue::from(next.slot as u64)),
                            ],
                        );
                    }
                    delay += hop_ms;
                    cur = next;
                    path.push(cur);
                }
            }
        }
        self.obs.inc("spacecore.relay.expired", 1);
        if traced {
            self.obs.span_close_with(
                packet_span,
                delay,
                vec![
                    ("delivered", sc_obs::FieldValue::from(0u64)),
                    ("hops", sc_obs::FieldValue::from(path.len() - 1)),
                ],
            );
        }
        RelayTrace {
            path,
            delivered: false,
            delay_ms: delay,
        }
    }

    /// End-to-end delivery: ground point to ground point. Finds the
    /// ingress satellite over `src`, routes to the destination's
    /// coordinate, and adds up/down link delays.
    ///
    /// Returns `None` when no satellite covers the source.
    pub fn deliver_ground_to_ground(
        &self,
        prop: &dyn Propagator,
        src: &GeoPoint,
        dst: &GeoPoint,
        t: f64,
        per_hop_processing_ms: f64,
    ) -> Option<RelayTrace> {
        self.deliver_indexed(
            prop,
            &IndexedSnapshot::build(prop, t),
            src,
            dst,
            t,
            per_hop_processing_ms,
        )
    }

    /// Like [`Self::deliver_ground_to_ground`] against a pre-indexed
    /// snapshot (use a [`sc_orbit::SnapshotCache`] when delivering many
    /// packets at the same instant). `snapshot` must be the propagated
    /// state of `prop` at `t`.
    pub fn deliver_indexed(
        &self,
        prop: &dyn Propagator,
        snapshot: &IndexedSnapshot,
        src: &GeoPoint,
        dst: &GeoPoint,
        t: f64,
        per_hop_processing_ms: f64,
    ) -> Option<RelayTrace> {
        let cfg = prop.config();
        let constellation = Constellation::new(cfg.clone());
        // Ingress: highest-elevation satellite over the source. Only
        // satellites inside the coverage cap can clear the elevation
        // threshold, so the bucket candidates suffice; ties keep the
        // lowest snapshot index, matching a linear front-to-back scan.
        let mut best: Option<(f64, usize)> = None;
        snapshot.for_each_candidate(src, |i, st| {
            let e = sc_geo::sphere::elevation_angle(src, &st.position);
            if e >= cfg.min_elevation_rad
                && best.is_none_or(|(be, bi)| e > be || (e == be && i < bi))
            {
                best = Some((e, i));
            }
        });
        let (_, ingress_idx) = best?;
        let states = snapshot.states();
        let ingress = constellation.sat_at(ingress_idx);

        // Destination coordinate: the UE address embeds the ascending
        // cell; route to the destination's clamped ascending coordinate.
        let frame = sc_geo::inclined::InclinedFrame::new(cfg.inclination_rad);
        let dst_coord = frame.from_geo_clamped(dst);

        let mut trace = self.trace(prop, ingress, dst_coord, t, per_hop_processing_ms);
        // Uplink to ingress + downlink from the delivering satellite.
        let up = states[ingress_idx]
            .position
            .distance_km(&src.surface_vector());
        trace.delay_ms += propagation_delay_ms(up);
        if trace.delivered {
            let last = constellation.index_of(*trace.path.last().expect("non-empty path"));
            let down = states[last].position.distance_km(&dst.surface_vector());
            trace.delay_ms += propagation_delay_ms(down);
        }
        Some(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_orbit::{ConstellationConfig, IdealPropagator, J4Propagator};

    fn starlink() -> IdealPropagator {
        IdealPropagator::new(ConstellationConfig::starlink())
    }

    #[test]
    fn decide_prefers_larger_axis() {
        let relay = GeoRelay::for_shell(&ConstellationConfig::starlink());
        let sat = InclinedCoord::new(1.0, 1.0);
        // Large α residual, small γ residual → move in α.
        assert_eq!(
            relay.decide(sat, InclinedCoord::new(2.5, 1.1)),
            RelayDecision::Right
        );
        assert_eq!(
            relay.decide(sat, InclinedCoord::new(0.0, 1.05)),
            RelayDecision::Left
        );
        // γ dominates.
        assert_eq!(
            relay.decide(sat, InclinedCoord::new(1.05, 2.9)),
            RelayDecision::Up
        );
        assert_eq!(
            relay.decide(sat, InclinedCoord::new(1.05, 0.0)),
            RelayDecision::Down
        );
    }

    #[test]
    fn decide_takes_shortest_wrap() {
        let relay = GeoRelay::for_shell(&ConstellationConfig::starlink());
        let sat = InclinedCoord::new(0.1, 0.0);
        // Destination at α = 6.0 is *left* of α = 0.1 around the wrap.
        assert_eq!(
            relay.decide(sat, InclinedCoord::new(6.0, 0.0)),
            RelayDecision::Left
        );
        let sat2 = InclinedCoord::new(6.0, 0.0);
        assert_eq!(
            relay.decide(sat2, InclinedCoord::new(0.1, 0.0)),
            RelayDecision::Right
        );
    }

    #[test]
    fn deliver_when_within_coverage() {
        let relay = GeoRelay::for_shell(&ConstellationConfig::starlink());
        let sat = InclinedCoord::new(1.0, 2.0);
        let r = relay.coverage_radius();
        assert_eq!(
            relay.decide(sat, InclinedCoord::new(1.0 + 0.9 * r, 2.0 - 0.9 * r)),
            RelayDecision::Deliver
        );
    }

    #[test]
    fn trace_delivers_across_the_constellation() {
        let prop = starlink();
        let relay = GeoRelay::for_shell(prop.config());
        // Destination: coordinate of a satellite far across the grid.
        let dst = prop.state(SatId::new(40, 10), 0.0).coord;
        let tr = relay.trace(&prop, SatId::new(0, 0), dst, 0.0, 1.0);
        assert!(tr.delivered, "path {:?}", tr.path.len());
        assert!(tr.hops() >= 20 && tr.hops() <= 60, "{}", tr.hops());
        assert!(tr.delay_ms > 50.0 && tr.delay_ms < 500.0, "{}", tr.delay_ms);
    }

    #[test]
    fn trace_zero_hops_when_already_covering() {
        let prop = starlink();
        let relay = GeoRelay::for_shell(prop.config());
        let dst = prop.state(SatId::new(5, 5), 100.0).coord;
        let tr = relay.trace(&prop, SatId::new(5, 5), dst, 100.0, 1.0);
        assert!(tr.delivered);
        assert_eq!(tr.hops(), 0);
        assert_eq!(tr.delay_ms, 0.0);
    }

    #[test]
    fn beijing_new_york_ideal_vs_j4() {
        // Fig. 18b: delivery guaranteed under both ideal and J4 orbits,
        // with similar path delays (runtime-coordinate calibration).
        let cfg = ConstellationConfig::starlink();
        let ideal = IdealPropagator::new(cfg.clone());
        let j4 = J4Propagator::new(cfg.clone());
        let relay = GeoRelay::for_shell(&cfg);
        let beijing = GeoPoint::from_degrees(39.9, 116.4);
        let ny = GeoPoint::from_degrees(40.7, -74.0);
        let mut both = Vec::new();
        for t in [0.0, 600.0, 1800.0, 3600.0] {
            let a = relay
                .deliver_ground_to_ground(&ideal, &beijing, &ny, t, 1.0)
                .expect("coverage");
            let b = relay
                .deliver_ground_to_ground(&j4, &beijing, &ny, t, 1.0)
                .expect("coverage");
            assert!(a.delivered, "ideal t={t}");
            assert!(b.delivered, "j4 t={t}");
            both.push((a.delay_ms, b.delay_ms));
        }
        // Path delays are the same scale (not orders of magnitude apart).
        for (a, b) in both {
            assert!(a > 30.0 && a < 400.0, "ideal {a}");
            assert!((b - a).abs() < 200.0, "ideal {a} vs j4 {b}");
        }
    }

    #[test]
    fn iridium_delivery_works_despite_small_grid() {
        let cfg = ConstellationConfig::iridium();
        let prop = IdealPropagator::new(cfg.clone());
        let relay = GeoRelay::for_shell(&cfg);
        let dst = prop.state(SatId::new(3, 6), 0.0).coord;
        let tr = relay.trace(&prop, SatId::new(0, 0), dst, 0.0, 1.0);
        assert!(tr.delivered, "hops {}", tr.hops());
    }

    #[test]
    fn finer_coverage_radius_can_cause_detours_but_still_delivers() {
        let cfg = ConstellationConfig::starlink();
        let prop = IdealPropagator::new(cfg.clone());
        let coarse = GeoRelay::for_shell(&cfg);
        let fine = GeoRelay::for_shell(&cfg).with_coverage_radius(coarse.coverage_radius() * 1.5);
        let dst = prop.state(SatId::new(30, 12), 0.0).coord;
        let a = coarse.trace(&prop, SatId::new(0, 0), dst, 0.0, 1.0);
        let b = fine.trace(&prop, SatId::new(0, 0), dst, 0.0, 1.0);
        assert!(a.delivered && b.delivered);
        // A wider delivery radius can only shorten (or equal) the path.
        assert!(b.hops() <= a.hops());
    }

    #[test]
    fn indexed_ingress_matches_linear_scan() {
        let cfg = ConstellationConfig::starlink();
        let prop = IdealPropagator::new(cfg.clone());
        let relay = GeoRelay::for_shell(&cfg);
        let dst = GeoPoint::from_degrees(48.9, 2.4);
        for (lat, lon, t) in [
            (40.0, -100.0, 0.0),
            (-33.9, 151.2, 600.0),
            (0.0, 0.0, 1234.5),
            (52.5, 13.4, 4321.0),
        ] {
            let src = GeoPoint::from_degrees(lat, lon);
            // Linear reference: front-to-back scan, strict improvement.
            let snapshot = prop.snapshot(t);
            let mut best: Option<(f64, usize)> = None;
            for (i, st) in snapshot.iter().enumerate() {
                let e = sc_geo::sphere::elevation_angle(&src, &st.position);
                if e >= cfg.min_elevation_rad && best.is_none_or(|(be, _)| e > be) {
                    best = Some((e, i));
                }
            }
            let constellation = Constellation::new(cfg.clone());
            let expected = best.map(|(_, i)| constellation.sat_at(i));
            let got = relay
                .deliver_ground_to_ground(&prop, &src, &dst, t, 1.0)
                .map(|tr| tr.path[0]);
            assert_eq!(got, expected, "src ({lat}, {lon}) t={t}");
        }
    }

    #[test]
    fn recorder_counts_packets_hops_and_delay() {
        let prop = starlink();
        let rec = sc_obs::Recorder::new();
        let relay = GeoRelay::for_shell(prop.config()).with_recorder(rec.clone());
        let dst = prop.state(SatId::new(40, 10), 0.0).coord;
        let tr = relay.trace(&prop, SatId::new(0, 0), dst, 0.0, 1.0);
        assert!(tr.delivered);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("spacecore.relay.packets"), 1);
        assert_eq!(snap.counter("spacecore.relay.delivered"), 1);
        assert_eq!(snap.counter("spacecore.relay.expired"), 0);
        let hops = snap.histogram("spacecore.relay.hops");
        assert_eq!(hops.and_then(|h| h.max()), Some(tr.hops() as f64));
        let delay = snap.histogram("spacecore.relay.delay_ms");
        assert_eq!(delay.map(|h| h.sum()), Some(tr.delay_ms));
    }

    #[test]
    fn packet_spans_decompose_the_route() {
        let prop = starlink();
        let rec = sc_obs::Recorder::new();
        let relay = GeoRelay::for_shell(prop.config()).with_recorder(rec.clone());
        let dst = prop.state(SatId::new(40, 10), 0.0).coord;
        let tr = relay.trace(&prop, SatId::new(0, 0), dst, 0.0, 1.0);
        assert!(tr.delivered);
        let s = rec.snapshot();
        let root = &s.spans[0];
        assert_eq!(root.kind, "spacecore.relay.packet");
        assert_eq!(root.parent, None);
        assert_eq!(root.end, Some(tr.delay_ms));
        // One hop span per ISL hop, all parented on the packet, and
        // their widths add up to the trace's total delay.
        let hops: Vec<_> = s
            .spans
            .iter()
            .filter(|sp| sp.kind == "spacecore.relay.hop")
            .collect();
        assert_eq!(hops.len(), tr.hops());
        let mut acc = 0.0;
        for h in &hops {
            assert_eq!(h.parent, Some(root.id));
            assert!((h.start - acc).abs() < 1e-9);
            acc = h.end.unwrap_or(f64::NAN);
        }
        assert!((acc - tr.delay_ms).abs() < 1e-9, "{acc} vs {}", tr.delay_ms);
        // Tracing does not change the outcome.
        let plain = GeoRelay::for_shell(prop.config());
        assert_eq!(plain.trace(&prop, SatId::new(0, 0), dst, 0.0, 1.0), tr);
    }

    #[test]
    fn path_moves_through_grid_neighbors_only() {
        let prop = starlink();
        let relay = GeoRelay::for_shell(prop.config());
        let constellation = Constellation::new(prop.config().clone());
        let dst = prop.state(SatId::new(20, 15), 0.0).coord;
        let tr = relay.trace(&prop, SatId::new(2, 3), dst, 0.0, 1.0);
        for w in tr.path.windows(2) {
            assert!(
                constellation.grid_neighbors(w[0]).contains(&w[1]),
                "{:?} -> {:?} is not a grid hop",
                w[0],
                w[1]
            );
        }
    }
}
