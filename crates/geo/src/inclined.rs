//! The (α, γ) affine inclined spherical coordinate system of Figure 15a.
//!
//! SpaceCore identifies every terrestrial location by a coordinate
//! `(α, γ)` where `α` is the longitude at which a great circle of the
//! constellation's inclination crosses the equator northbound (the
//! "point of right ascension" in Figure 15a), and `γ` is the generalized
//! inclined latitude: the angular distance travelled along that great
//! circle from the crossing.
//!
//! Satellites on a circular orbit of inclination `i` trace exactly such
//! great circles in the earth-fixed frame (modulo earth rotation, handled
//! by `sc-orbit`), which is why this system makes satellite ground tracks
//! — and hence Algorithm 1's geospatial relaying — *axis-aligned*:
//! following an intra-orbit inter-satellite link changes only `γ`;
//! hopping to a neighbouring orbit changes only `α`.
//!
//! A point with latitude `|φ| ≤ i` has exactly two representations: one on
//! the **ascending** branch (`γ ∈ [-π/2, π/2]`, the satellite moving
//! north) and one on the **descending** branch (`γ ∈ [π/2, 3π/2]`). The
//! ascending representation is the canonical one used for cell assignment.

use crate::angle::{normalize_lon, wrap_2pi};
use crate::sphere::GeoPoint;
use std::f64::consts::{FRAC_PI_2, PI};

/// Which of the two great-circle branches a conversion should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branch {
    /// Satellite heading north across the point: `γ ∈ [-π/2, π/2]`.
    Ascending,
    /// Satellite heading south across the point: `γ ∈ [π/2, 3π/2]`.
    Descending,
}

/// A coordinate in the inclined frame.
///
/// * `alpha` — longitude of the ascending-node crossing, wrapped to `[0, 2π)`.
/// * `gamma` — angular distance along the inclined great circle, wrapped to
///   `[0, 2π)` when stored in cells; conversions may produce values in
///   `(-π/2, 3π/2]` depending on branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InclinedCoord {
    pub alpha: f64,
    pub gamma: f64,
}

impl InclinedCoord {
    pub fn new(alpha: f64, gamma: f64) -> Self {
        Self { alpha, gamma }
    }
}

/// The inclined coordinate frame for one constellation shell.
///
/// Construct with the shell's inclination (radians). Inclinations must be
/// in `(0, π/2]`; all constellations in Table 1 satisfy this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InclinedFrame {
    inclination: f64,
    sin_i: f64,
    cos_i: f64,
}

/// Error returned when a geographic point lies outside the latitude band
/// `|φ| ≤ i` covered by the inclined frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutOfBand {
    /// The offending latitude (radians).
    pub lat: f64,
    /// The frame's inclination (radians).
    pub inclination: f64,
}

impl std::fmt::Display for OutOfBand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "latitude {:.4} rad outside inclined band ±{:.4} rad",
            self.lat, self.inclination
        )
    }
}

impl std::error::Error for OutOfBand {}

impl InclinedFrame {
    /// Create a frame for a shell of the given inclination (radians).
    ///
    /// # Panics
    /// Panics if the inclination is not in `(0, π/2]`.
    pub fn new(inclination: f64) -> Self {
        assert!(
            inclination > 0.0 && inclination <= FRAC_PI_2 + 1e-12,
            "inclination must be in (0, π/2], got {inclination}"
        );
        Self {
            inclination,
            sin_i: inclination.sin(),
            cos_i: inclination.cos(),
        }
    }

    /// The frame's inclination in radians.
    pub fn inclination(&self) -> f64 {
        self.inclination
    }

    /// Convert an inclined coordinate to the geographic point it denotes.
    ///
    /// Works for any `γ` (both branches): standard spherical orbit
    /// geometry, `sin φ = sin i · sin γ`, `λ = α + atan2(cos i·sin γ, cos γ)`.
    pub fn to_geo(&self, c: InclinedCoord) -> GeoPoint {
        let (sg, cg) = c.gamma.sin_cos();
        let lat = (self.sin_i * sg).clamp(-1.0, 1.0).asin();
        let dlon = (self.cos_i * sg).atan2(cg);
        GeoPoint::new(lat, normalize_lon(c.alpha + dlon))
    }

    /// Convert a geographic point to its inclined coordinate on the given
    /// branch. Returns `Err(OutOfBand)` when `|φ| > i`.
    ///
    /// The returned `alpha` is wrapped to `[0, 2π)`; `gamma` is in
    /// `[-π/2, π/2]` for [`Branch::Ascending`] and `[π/2, 3π/2]` for
    /// [`Branch::Descending`].
    pub fn from_geo_branch(&self, p: &GeoPoint, branch: Branch) -> Result<InclinedCoord, OutOfBand> {
        let s = p.lat.sin() / self.sin_i;
        if s.abs() > 1.0 + 1e-12 {
            return Err(OutOfBand {
                lat: p.lat,
                inclination: self.inclination,
            });
        }
        let s = s.clamp(-1.0, 1.0);
        let gamma_asc = s.asin(); // ∈ [-π/2, π/2]
        let gamma = match branch {
            Branch::Ascending => gamma_asc,
            Branch::Descending => PI - gamma_asc, // ∈ [π/2, 3π/2]
        };
        let (sg, cg) = gamma.sin_cos();
        Ok(InclinedCoord {
            alpha: self.node_alpha(p.lon, sg, cg),
            gamma,
        })
    }

    /// Canonical (ascending-branch) conversion; see [`Self::from_geo_branch`].
    pub fn from_geo(&self, p: &GeoPoint) -> Result<InclinedCoord, OutOfBand> {
        self.from_geo_branch(p, Branch::Ascending)
    }

    /// Like [`Self::from_geo`], but clamps out-of-band latitudes to the
    /// band edge instead of failing. Used for high-latitude ground points
    /// under low-inclination shells (e.g. polar stations under Starlink),
    /// which the paper serves from the nearest band-edge cell.
    pub fn from_geo_clamped(&self, p: &GeoPoint) -> InclinedCoord {
        let (lo, hi) = self.clamped_band();
        // `GeoPoint::new` normalises the longitude.
        let clamped = GeoPoint::new(p.lat.clamp(lo, hi), p.lon);
        let (gamma, offset) = self.ascending(clamped.lat);
        InclinedCoord {
            alpha: wrap_2pi(clamped.lon - offset),
            gamma,
        }
    }

    /// The latitudes `[−i + 1e-9, i − 1e-9]` that
    /// [`Self::from_geo_clamped`] clamps into.
    pub(crate) fn clamped_band(&self) -> (f64, f64) {
        (-self.inclination + 1e-9, self.inclination - 1e-9)
    }

    /// The ascending coordinate of an in-band latitude, as
    /// [`Self::from_geo_clamped`] computes it: `γ = asin(sin φ / sin i)`
    /// and the node offset `atan2(cos i·sin γ, cos γ)`, which a point at
    /// longitude `λ` subtracts to get `α = wrap_2pi(λ − offset)`.
    pub(crate) fn ascending(&self, lat: f64) -> (f64, f64) {
        let gamma = (lat.sin() / self.sin_i).clamp(-1.0, 1.0).asin();
        let (sg, cg) = gamma.sin_cos();
        (gamma, (self.cos_i * sg).atan2(cg))
    }

    /// The longitude `α ∈ [0, 2π)` at which the inclined great circle
    /// through a point at longitude `lon` and inclined latitude γ (given
    /// as `sin γ`, `cos γ`, either branch) crosses the equator
    /// northbound.
    fn node_alpha(&self, lon: f64, sin_gamma: f64, cos_gamma: f64) -> f64 {
        wrap_2pi(lon - (self.cos_i * sin_gamma).atan2(cos_gamma))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame53() -> InclinedFrame {
        InclinedFrame::new(53f64.to_radians())
    }

    #[test]
    fn equator_crossing_is_identity() {
        let f = frame53();
        let p = f.to_geo(InclinedCoord::new(1.0, 0.0));
        assert!(p.lat.abs() < 1e-12);
        assert!((p.lon - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quarter_orbit_reaches_max_latitude() {
        let f = frame53();
        let p = f.to_geo(InclinedCoord::new(0.0, FRAC_PI_2));
        assert!((p.lat - 53f64.to_radians()).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_ascending() {
        let f = frame53();
        for &alpha in &[0.0, 1.0, 3.0, 6.0] {
            for &gamma in &[-1.3, -0.5, 0.0, 0.7, 1.4] {
                let c = InclinedCoord::new(alpha, gamma);
                let p = f.to_geo(c);
                let c2 = f.from_geo(&p).unwrap();
                assert!(
                    (wrap_2pi(c2.alpha) - wrap_2pi(alpha)).abs() < 1e-9,
                    "alpha {alpha} {gamma} -> {:?}",
                    c2
                );
                assert!((c2.gamma - gamma).abs() < 1e-9, "gamma {alpha} {gamma} -> {c2:?}");
            }
        }
    }

    #[test]
    fn roundtrip_descending() {
        let f = frame53();
        for &alpha in &[0.2, 2.0, 5.0] {
            for &gamma in &[FRAC_PI_2 + 0.2, PI, PI + 1.0] {
                let c = InclinedCoord::new(alpha, gamma);
                let p = f.to_geo(c);
                let c2 = f.from_geo_branch(&p, Branch::Descending).unwrap();
                assert!((wrap_2pi(c2.alpha) - wrap_2pi(alpha)).abs() < 1e-9);
                assert!((c2.gamma - gamma).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn out_of_band_rejected() {
        let f = frame53();
        let p = GeoPoint::from_degrees(70.0, 10.0);
        assert!(f.from_geo(&p).is_err());
        // Clamped variant succeeds and lands near the band edge.
        let c = f.from_geo_clamped(&p);
        let back = f.to_geo(c);
        assert!((back.lat - 53f64.to_radians()).abs() < 1e-6);
    }

    #[test]
    fn near_polar_frame_covers_everything() {
        let f = InclinedFrame::new(87.9f64.to_radians());
        let p = GeoPoint::from_degrees(85.0, -120.0);
        let c = f.from_geo(&p).unwrap();
        let back = f.to_geo(c);
        assert!((back.lat - p.lat).abs() < 1e-9);
        assert!((back.lon - p.lon).abs() < 1e-9);
    }

    #[test]
    fn branches_give_same_point() {
        let f = frame53();
        let p = GeoPoint::from_degrees(30.0, 45.0);
        let a = f.from_geo_branch(&p, Branch::Ascending).unwrap();
        let d = f.from_geo_branch(&p, Branch::Descending).unwrap();
        let pa = f.to_geo(a);
        let pd = f.to_geo(d);
        assert!((pa.lat - pd.lat).abs() < 1e-9);
        assert!((pa.lon - pd.lon).abs() < 1e-9);
        assert!((a.alpha - d.alpha).abs() > 1e-6, "branches must differ in alpha");
    }
}
