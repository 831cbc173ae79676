//! Geospatial mobility management (§4.3).
//!
//! SpaceCore's core mobility claim, as a decision table:
//!
//! | event | legacy stateful core | SpaceCore |
//! |---|---|---|
//! | satellite sweeps past an **idle** UE | C4 mobility registration (tracking area moved) | **nothing** — geospatial TA is earth-fixed |
//! | satellite sweeps past an **active** UE | C3 handover with multi-hop state migration | local handover via the UE replica (Fig. 16c) |
//! | beam handover (same satellite) | PHY-only | PHY-only |
//! | UE crosses a geospatial cell | C4 | C4 through the home (rare: Table 3 cell sizes) |
//!
//! [`MobilityManager`] encodes that table and returns the signaling bill
//! for each event under either design — the engine behind the mobility
//! rows of Figures 10/20 and the zero line of Figure 17c.

use sc_fiveg::conn::ConnState;
use sc_fiveg::messages::{Procedure, ProcedureKind};

/// Mobility events in a LEO mobile network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilityEvent {
    /// The serving satellite moved on; an incoming satellite now covers
    /// the (static) UE. Carries the UE's connection state.
    SatelliteSweep(ConnState),
    /// Beam change within one satellite.
    BeamHandover,
    /// The UE physically moved across a geospatial cell / tracking area.
    UeCellCrossing(ConnState),
}

/// The signaling bill of one mobility event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityOutcome {
    /// Signaling messages exchanged.
    pub signaling_messages: u32,
    /// Session-state items migrated between infrastructure nodes.
    pub state_migrations: u32,
    /// Whether the event needs the remote home.
    pub requires_home: bool,
}

impl MobilityOutcome {
    const NOTHING: MobilityOutcome = MobilityOutcome {
        signaling_messages: 0,
        state_migrations: 0,
        requires_home: false,
    };

    /// The bill of one run of `kind`'s step table.
    fn run(kind: ProcedureKind, requires_home: bool) -> Self {
        let p = Procedure::build(kind);
        Self {
            signaling_messages: p.message_count() as u32,
            state_migrations: p.state_op_count() as u32,
            requires_home,
        }
    }
}

/// Which mobility design is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilityDesign {
    /// Legacy logical service areas bound to (moving) satellites.
    LegacyLogical,
    /// SpaceCore's earth-fixed geospatial service areas.
    Geospatial,
}

/// The mobility decision engine.
#[derive(Debug, Clone)]
pub struct MobilityManager {
    design: MobilityDesign,
}

impl MobilityManager {
    pub fn new(design: MobilityDesign) -> Self {
        Self { design }
    }

    pub fn spacecore() -> Self {
        Self::new(MobilityDesign::Geospatial)
    }

    pub fn legacy() -> Self {
        Self::new(MobilityDesign::LegacyLogical)
    }

    /// The signaling bill for an event.
    pub fn handle(&self, ev: MobilityEvent) -> MobilityOutcome {
        use MobilityDesign::{Geospatial, LegacyLogical};
        use MobilityEvent::{BeamHandover, SatelliteSweep, UeCellCrossing};
        match (self.design, ev) {
            // Beam handovers are PHY-only in both designs; under
            // SpaceCore "a static UE in the idle mode does not run
            // handovers as satellites move … no state updates are needed."
            (_, BeamHandover) | (Geospatial, SatelliteSweep(ConnState::Idle)) => {
                MobilityOutcome::NOTHING
            }
            // C4 through the home: the legacy tracking area moved away
            // from a static idle UE, or the UE crossed a cell (rare under
            // SpaceCore, §4.3).
            (LegacyLogical, SatelliteSweep(ConnState::Idle) | UeCellCrossing(_))
            | (Geospatial, UeCellCrossing(_)) => {
                MobilityOutcome::run(ProcedureKind::MobilityRegistration, true)
            }
            // Handover with inter-satellite state migration (and, on
            // tracking-area change, a C4 as well; we bill the C3 here
            // and the sweep generator bills the C4 separately).
            (LegacyLogical, SatelliteSweep(ConnState::Connected)) => {
                MobilityOutcome::run(ProcedureKind::Handover, false)
            }
            // Local handover: replica piggybacked in the HO confirm, no
            // infrastructure-side migration.
            (Geospatial, SatelliteSweep(ConnState::Connected)) => {
                MobilityOutcome::run(ProcedureKind::ReplicaHandover, false)
            }
        }
    }

    /// Aggregate signaling rate (msg/s) from satellite sweeps for a
    /// satellite serving `capacity` UEs with `active_fraction` of them
    /// connected, at one sweep per `transit_s`.
    pub fn sweep_rate_msgs_per_s(
        &self,
        capacity: u32,
        active_fraction: f64,
        transit_s: f64,
    ) -> f64 {
        let sweeps_per_s = capacity as f64 / transit_s;
        let active = self
            .handle(MobilityEvent::SatelliteSweep(ConnState::Connected))
            .signaling_messages as f64;
        let idle = self
            .handle(MobilityEvent::SatelliteSweep(ConnState::Idle))
            .signaling_messages as f64;
        sweeps_per_s * (active_fraction * active + (1.0 - active_fraction) * idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spacecore_idle_sweep_is_free() {
        let m = MobilityManager::spacecore();
        let o = m.handle(MobilityEvent::SatelliteSweep(ConnState::Idle));
        assert_eq!(o, MobilityOutcome::NOTHING);
    }

    #[test]
    fn legacy_idle_sweep_costs_a_full_c4() {
        let m = MobilityManager::legacy();
        let o = m.handle(MobilityEvent::SatelliteSweep(ConnState::Idle));
        assert_eq!(o.signaling_messages, 12);
        assert!(o.requires_home);
        assert!(o.state_migrations > 5);
    }

    #[test]
    fn spacecore_active_sweep_is_cheap_and_local() {
        let sc = MobilityManager::spacecore();
        let legacy = MobilityManager::legacy();
        let a = sc.handle(MobilityEvent::SatelliteSweep(ConnState::Connected));
        let b = legacy.handle(MobilityEvent::SatelliteSweep(ConnState::Connected));
        assert!(a.signaling_messages < b.signaling_messages);
        assert_eq!(a.state_migrations, 0);
        assert!(b.state_migrations > 0);
        assert!(!a.requires_home);
    }

    #[test]
    fn beam_handover_free_everywhere() {
        for m in [MobilityManager::spacecore(), MobilityManager::legacy()] {
            assert_eq!(m.handle(MobilityEvent::BeamHandover), MobilityOutcome::NOTHING);
        }
    }

    #[test]
    fn cell_crossing_same_in_both_designs() {
        let sc = MobilityManager::spacecore();
        let legacy = MobilityManager::legacy();
        let a = sc.handle(MobilityEvent::UeCellCrossing(ConnState::Idle));
        let b = legacy.handle(MobilityEvent::UeCellCrossing(ConnState::Idle));
        assert_eq!(a, b);
        assert!(a.requires_home);
    }

    #[test]
    fn sweep_rate_ratio_matches_headline() {
        // The storm reduction from geospatial mobility: legacy bills ~12
        // messages per *every* user per transit; SpaceCore bills 3 for
        // the ~12% active users only → ≳ 30× reduction.
        let capacity = 30_000;
        let active = 0.117;
        let transit = 165.8;
        let legacy = MobilityManager::legacy().sweep_rate_msgs_per_s(capacity, active, transit);
        let sc = MobilityManager::spacecore().sweep_rate_msgs_per_s(capacity, active, transit);
        assert!(legacy / sc > 20.0, "legacy {legacy} sc {sc}");
        assert!(sc > 0.0);
    }
}
