//! Constellation-scale SpaceCore deployment: every satellite
//! provisioned, a UE fleet registered, and time-driven serving
//! assignments with local handovers.
//!
//! **Caller-less.** No experiment, root test, example or scbench layer
//! drives this module — only its own unit tests do. It is kept, under
//! an `allow(orphan)` in `lib.rs`, until a soak executes procedures on
//! real satellites instead of billing them: then it grows into that one
//! executed fleet or is deleted.
//!
//! This is the "whole system running" view: where `satellite.rs` models
//! one SpaceCore proxy and `solutions.rs` models aggregate costs, a
//! [`Deployment`] actually *runs* a shell: at each epoch it recomputes
//! who serves whom from real orbital geometry, performs the local
//! handovers SpaceCore prescribes (or nothing, for idle UEs), and
//! accumulates the signaling bill.

use crate::home::HomeNetwork;
use crate::satellite::SpaceCoreSatellite;
use crate::uestate::UeDevice;
use sc_fiveg::conn::ConnState;
use sc_orbit::coverage::CoverageModel;
use sc_orbit::{Propagator, SatId, SnapshotCache};
use std::collections::HashMap;

/// Aggregate statistics of an epoch advance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochStats {
    /// Serving-satellite switches among *connected* UEs (each a local
    /// handover).
    pub handovers: u32,
    /// Serving switches among idle UEs (free under SpaceCore).
    pub idle_reselections: u32,
    /// UEs with no coverage this epoch.
    pub uncovered: u32,
    /// Signaling messages exchanged.
    pub signaling_messages: u32,
    /// Establishments that fell back to the home path.
    pub rollbacks: u32,
}

/// A running SpaceCore deployment over one shell.
pub struct Deployment<'a> {
    home: &'a HomeNetwork,
    prop: &'a dyn Propagator,
    /// Memoized indexed snapshots: epochs shared across deployments of
    /// the same sweep hit the cache instead of re-propagating.
    snapshots: SnapshotCache<'a>,
    satellites: HashMap<SatId, SpaceCoreSatellite>,
    /// Current serving assignment per UE index.
    serving: Vec<Option<SatId>>,
    /// Whether each UE currently has an active connection.
    connected: Vec<bool>,
    now: f64,
}

impl<'a> Deployment<'a> {
    /// Stand up a deployment: satellites are provisioned lazily on first
    /// use (pre-launch provisioning is per-satellite state the home
    /// already holds).
    pub fn new(home: &'a HomeNetwork, prop: &'a dyn Propagator, fleet_size: usize) -> Self {
        Self {
            home,
            prop,
            snapshots: SnapshotCache::new(prop),
            satellites: HashMap::new(),
            serving: vec![None; fleet_size],
            connected: vec![false; fleet_size],
            now: 0.0,
        }
    }

    /// Current emulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Mark a UE's connection state (driven by the traffic model).
    pub fn set_connected(&mut self, ue_index: usize, connected: bool) {
        self.connected[ue_index] = connected;
    }

    fn satellite(&mut self, id: SatId) -> &SpaceCoreSatellite {
        let home = self.home;
        self.satellites
            .entry(id)
            .or_insert_with(|| SpaceCoreSatellite::provision(home, id))
    }

    /// Advance to time `t`: recompute serving satellites for every UE
    /// and perform the SpaceCore mobility actions.
    pub fn advance(&mut self, ues: &mut [UeDevice], t: f64) -> EpochStats {
        assert!(t >= self.now, "time must advance");
        assert_eq!(ues.len(), self.serving.len());
        self.now = t;
        let cov = CoverageModel::new(self.prop);
        let snapshot = self.snapshots.at(t);
        let mut stats = EpochStats::default();

        for (i, ue) in ues.iter_mut().enumerate() {
            let view = cov.serving_from_indexed(&snapshot, &ue.position);
            match (self.serving[i], view.map(|v| v.sat)) {
                (_, None) => {
                    if self.serving[i].take().is_some() && self.connected[i] {
                        // Connection drops with coverage.
                        self.connected[i] = false;
                        let _ = ue.conn.on_event(t, sc_fiveg::conn::ConnEvent::RadioLinkFailure);
                    }
                    stats.uncovered += 1;
                }
                (Some(old), Some(new)) if old == new => {} // steady state
                (old, Some(new)) => {
                    let was_connected = self.connected[i];
                    // Release at the old satellite (it forgets the UE).
                    if let Some(old_id) = old {
                        if was_connected {
                            if let Some(s) = self.satellites.get(&old_id) {
                                s.release(ue.supi);
                            }
                        }
                    }
                    if was_connected {
                        // Local handover / establishment at the new sat.
                        let home = self.home;
                        let sat = self.satellite(new);
                        match sat.handover_in(home, ue, t) {
                            Ok(o) => {
                                stats.handovers += 1;
                                stats.signaling_messages += o.signaling_messages;
                            }
                            Err(_) => {
                                let o = sat.establish_session(home, ue, t);
                                stats.rollbacks += 1;
                                stats.signaling_messages += o.signaling_messages;
                            }
                        }
                    } else {
                        // Idle reselection: free (§4.3).
                        stats.idle_reselections += 1;
                    }
                    self.serving[i] = Some(new);
                }
            }
        }
        let _ = ConnState::Idle; // (see mobility.rs for the decision table)
        stats
    }

    /// Number of provisioned satellites so far.
    pub fn provisioned_satellites(&self) -> usize {
        self.satellites.len()
    }

    /// Total currently-active sessions across the fleet of satellites.
    pub fn total_active_sessions(&self) -> usize {
        self.satellites.values().map(|s| s.active_sessions()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::HomeConfig;
    use sc_geo::GeoPoint;
    use sc_orbit::{ConstellationConfig, IdealPropagator};

    fn fleet(home: &HomeNetwork, n: usize) -> Vec<UeDevice> {
        let pop = sc_dataset::population::PopulationModel::world_bank_like();
        pop.sample_ues(n, 77)
            .into_iter()
            .enumerate()
            .map(|(i, p)| home.register_ue(i as u64, &p))
            .collect()
    }

    #[test]
    fn idle_fleet_costs_nothing() {
        let home = HomeNetwork::new(HomeConfig::default());
        let prop = IdealPropagator::new(ConstellationConfig::starlink());
        let mut ues = fleet(&home, 30);
        let mut dep = Deployment::new(&home, &prop, ues.len());
        let mut total_signaling = 0;
        let mut reselections = 0;
        for k in 1..=10 {
            let s = dep.advance(&mut ues, k as f64 * 60.0);
            total_signaling += s.signaling_messages;
            reselections += s.idle_reselections;
            assert_eq!(s.handovers, 0);
        }
        assert_eq!(total_signaling, 0, "idle UEs are free under SpaceCore");
        assert!(reselections > 0, "satellites must have swept past");
    }

    #[test]
    fn connected_ues_handover_locally() {
        let home = HomeNetwork::new(HomeConfig::default());
        let prop = IdealPropagator::new(ConstellationConfig::starlink());
        let mut ues = fleet(&home, 10);
        let mut dep = Deployment::new(&home, &prop, ues.len());
        dep.advance(&mut ues, 1.0); // initial assignment (idle)
        for i in 0..ues.len() {
            dep.set_connected(i, true);
        }
        // Establish initial sessions by forcing one serving switch.
        let mut handovers = 0;
        let mut signaling = 0;
        for k in 1..=20 {
            let s = dep.advance(&mut ues, 1.0 + k as f64 * 60.0);
            handovers += s.handovers;
            signaling += s.signaling_messages;
            assert_eq!(s.rollbacks, 0, "all UEs support SpaceCore");
        }
        assert!(handovers > 0);
        // Each handover costs exactly 3 messages.
        assert_eq!(signaling, handovers * 3);
        assert!(dep.provisioned_satellites() > 0);
        assert!(dep.total_active_sessions() > 0);
    }

    #[test]
    fn old_satellite_forgets_after_handover() {
        let home = HomeNetwork::new(HomeConfig::default());
        let prop = IdealPropagator::new(ConstellationConfig::starlink());
        // One connected UE followed over many sweeps: the total of
        // active sessions across all satellites stays ≤ 1.
        let mut ues = vec![home.register_ue(1, &GeoPoint::from_degrees(40.0, -100.0))];
        let mut dep = Deployment::new(&home, &prop, 1);
        dep.set_connected(0, true);
        for k in 1..=30 {
            dep.advance(&mut ues, k as f64 * 60.0);
            assert!(dep.total_active_sessions() <= 1, "t={k}");
        }
    }

    #[test]
    fn coverage_gaps_reported() {
        let home = HomeNetwork::new(HomeConfig::default());
        let prop = IdealPropagator::new(ConstellationConfig::starlink());
        // A polar research station: outside the Starlink band.
        let mut ues = vec![home.register_ue(1, &GeoPoint::from_degrees(88.0, 0.0))];
        let mut dep = Deployment::new(&home, &prop, 1);
        let s = dep.advance(&mut ues, 60.0);
        assert_eq!(s.uncovered, 1);
    }

    #[test]
    #[should_panic(expected = "time must advance")]
    fn time_cannot_rewind() {
        let home = HomeNetwork::new(HomeConfig::default());
        let prop = IdealPropagator::new(ConstellationConfig::starlink());
        let mut ues = vec![home.register_ue(1, &GeoPoint::from_degrees(0.0, 0.0))];
        let mut dep = Deployment::new(&home, &prop, 1);
        dep.advance(&mut ues, 100.0);
        dep.advance(&mut ues, 50.0);
    }
}
