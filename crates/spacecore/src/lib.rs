//! **SpaceCore** — a stateless mobile core for LEO mega-constellations.
//!
//! This crate is the paper's primary contribution, rebuilt in Rust on the
//! substrates of this workspace (`sc-geo`, `sc-orbit`, `sc-netsim`,
//! `sc-crypto`, `sc-fiveg`, `sc-dataset`):
//!
//! * [`relay`] — **Algorithm 1**: stateless geospatial relaying between
//!   satellites by (α, γ) coordinates, with a hop-by-hop path tracer over
//!   live (ideal or J4-perturbed) orbits,
//! * [`uestate`] — the device-as-the-repository: the UE-side state
//!   replica (encrypted, home-signed, versioned) and its piggybacking,
//! * [`home`] — the terrestrial home network: initial registration,
//!   geospatial address allocation, home-controlled state updates (§4.4),
//! * [`satellite`] — the SpaceCore satellite agent: localized session
//!   establishment (Fig. 16), local decrypt + station-to-station key
//!   agreement, rollback to the legacy home-routed path on failure,
//! * [`mobility`] — geospatial mobility management (§4.3): which events
//!   require signaling under SpaceCore vs. the legacy design,
//! * [`recovery`] — crash-recovery semantics per solution (§3.3): how a
//!   session comes back when the *serving* satellite dies mid-session,
//!   and whether it can survive at all,
//! * [`solutions`] — the five evaluated systems behind one trait:
//!   **SpaceCore**, **5G NTN**, **SkyCore**, **Baoyun**, **DPCM** —
//!   with per-procedure signaling/latency/CPU cost profiles and the
//!   hijack/man-in-the-middle leakage models of Figure 19.
//!
//! # Quickstart
//!
//! ```
//! use spacecore::prelude::*;
//!
//! // A Starlink shell with its geospatial cell grid.
//! let cfg = sc_orbit::ConstellationConfig::starlink();
//! let home = HomeNetwork::new(HomeConfig::default());
//!
//! // Register a UE at Beijing: legacy C1 through the home, which
//! // delegates the encrypted state replica to the device.
//! let beijing = sc_geo::GeoPoint::from_degrees(39.9, 116.4);
//! let mut ue = home.register_ue(1001, &beijing);
//!
//! // A satellite serves the UE locally from its replica — no home
//! // round-trip (Fig. 16).
//! let sat = SpaceCoreSatellite::provision(&home, sc_orbit::SatId::new(3, 7));
//! let outcome = sat.establish_session(&home, &mut ue, 0.0);
//! assert!(outcome.local, "served from the UE replica");
//! assert_eq!(outcome.home_round_trips, 0);
//! ```

// sc-audit: allow(orphan, reason = "caller-less until a soak executes procedures on real satellites instead of billing them: it becomes that executed fleet or is deleted")
pub mod deployment;
pub mod home;
pub mod mobility;
// sc-audit: allow(orphan, reason = "caller-less until a soak executes procedures on real satellites instead of billing them: that fleet exercises downlink delivery or it is deleted")
pub mod paging;
pub mod recovery;
pub mod relay;
pub mod satellite;
pub mod shard;
pub mod solutions;
pub mod uestate;

/// Convenient re-exports for examples and tests.
pub mod prelude {
    pub use crate::deployment::{Deployment, EpochStats};
    pub use crate::home::{HomeConfig, HomeNetwork};
    pub use crate::paging::{deliver_downlink, PagingOutcome};
    pub use crate::mobility::{MobilityEvent, MobilityManager, MobilityOutcome};
    pub use crate::recovery::RecoveryPlan;
    pub use crate::relay::{GeoRelay, RelayDecision, RelayTrace};
    pub use crate::satellite::{SessionOutcome, SpaceCoreSatellite};
    pub use crate::shard::{CellLedger, ProcedureCosts, ShardMap, ShardStats};
    pub use crate::solutions::{Solution, SolutionKind};
    pub use crate::uestate::UeDevice;
}

pub use prelude::*;
