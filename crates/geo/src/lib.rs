//! Geodesy substrate for the SpaceCore reproduction.
//!
//! This crate implements the geometric foundations the paper's stateless
//! core is built on (§4.1 of the paper):
//!
//! * [`sphere`] — spherical-earth geodesy: [`sphere::GeoPoint`]
//!   lat/lon positions, ECEF [`sphere::Vec3`] vectors, great-circle
//!   distance and visibility math,
//! * [`angle`] — degree/radian newtypes and longitude wrapping, so the
//!   rest of the workspace can't mix units,
//! * [`inclined`] — the **(α, γ) affine inclined spherical coordinate
//!   system** of Figure 15a, which identifies every terrestrial location
//!   by the longitude of an ascending-node crossing (α) and the angular
//!   distance along a great circle of the constellation's inclination
//!   (γ); the frame is derived from the constellation's own orbital
//!   parameters, so satellites sweep along coordinate lines,
//! * [`cells`] — the **geospatial cell grid** of Figure 15b / Table 3
//!   that decouples service areas from fast-moving satellites:
//!   [`cells::CellId`] (plane-column, in-plane-row), [`cells::CellGrid`] (size and
//!   enumeration per Table 1 constellation), cell-level adjacency for
//!   Algorithm 1's greedy relay,
//! * [`addr`] — the **128-bit geospatial UE address** of Figure 15c that
//!   folds the UE's logical and physical location into a single
//!   identifier.
//!
//! Everything here is pure math with no I/O and no floating-point
//! nondeterminism across runs; the `orbit`, `netsim`, and `spacecore`
//! crates build on it. The cell grid doubles as the key of live session
//! state in the million-UE sustained-load engine — `spacecore::shard`
//! maps [`cells::CellId`]s to contiguous satellite footprints in
//! `iter_cells` order (see `docs/ARCHITECTURE.md`).

pub mod addr;
pub mod angle;
pub mod cells;
pub mod inclined;
pub mod sphere;

pub use addr::GeoAddress;
pub use angle::{normalize_lon, wrap_2pi, Degrees, Radians};
pub use cells::{CellGrid, CellId, CellStats};
pub use inclined::{InclinedCoord, InclinedFrame};
pub use sphere::{GeoPoint, Vec3, EARTH_RADIUS_KM};
