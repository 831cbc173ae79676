//! Orbital substrate: LEO mega-constellations, propagators, coverage.
//!
//! Implements everything the paper's emulation needs from the space
//! segment (§3 "Methodology", §6 "Experimental setup"):
//!
//! * **Walker-delta constellations** parameterized exactly as Table 1
//!   (Starlink, OneWeb, Kuiper, Iridium presets),
//! * **circular two-body propagation** in the earth-fixed frame ("ideal
//!   orbits"), and a **J2/J4 secular perturbation propagator** matching
//!   the paper's Fig. 18b ideal-vs-J4 comparison,
//! * each satellite's **runtime (α, γ) coordinate** — the quantity
//!   Algorithm 1 uses to calibrate orbit perturbations at forwarding time,
//! * **ground stations** modeled on the published Starlink gateway
//!   distribution, and
//! * **coverage/visibility**: which satellite serves a ground point, with
//!   what elevation and slant range, and for how long (the paper's 165.8 s
//!   Starlink transit).
//!
//! Substitution note (see DESIGN.md §3): the paper uses Space-Track
//! ephemerides; Table 1's Walker parameters fully determine the geometry
//! the evaluation depends on, and the J4 propagator supplies the
//! perturbation realism the paper contrasts against ideal orbits.

pub mod constellation;
pub mod coverage;
pub mod groundstation;
pub mod index;
pub mod propagator;

pub use constellation::{Constellation, ConstellationConfig, SatId};
pub use coverage::{CoverageGrid, CoverageModel, SatView};
pub use index::{IndexedSnapshot, SatMask, SnapshotCache, SpatialIndex};
pub use groundstation::{GroundStation, GroundStationSet};
pub use propagator::{IdealPropagator, J4Propagator, Propagator, SatState};
