//! Property-based tests for the geodesy substrate.

use proptest::prelude::*;
use sc_geo::angle::{normalize_lon, wrap_2pi};
use sc_geo::cells::{CellGrid, CellId};
use sc_geo::inclined::{InclinedCoord, InclinedFrame};
use sc_geo::sphere::GeoPoint;
use sc_geo::GeoAddress;
use std::f64::consts::{FRAC_PI_2, PI, TAU};

proptest! {
    #[test]
    fn wrap_2pi_in_range(a in -1e6f64..1e6) {
        let w = wrap_2pi(a);
        prop_assert!((0.0..TAU).contains(&w), "{w}");
    }

    #[test]
    fn normalize_lon_in_range(a in -1e6f64..1e6) {
        let w = normalize_lon(a);
        prop_assert!(w > -PI - 1e-12 && w <= PI + 1e-12, "{w}");
    }

    #[test]
    fn geo_vector_roundtrip(lat in -1.55f64..1.55, lon in -3.1f64..3.1) {
        let p = GeoPoint::new(lat, lon);
        let q = p.surface_vector().to_geo();
        prop_assert!((p.lat - q.lat).abs() < 1e-9);
        prop_assert!((p.lon - q.lon).abs() < 1e-9);
    }

    #[test]
    fn distance_symmetric_and_triangle(
        lat1 in -1.5f64..1.5, lon1 in -3.1f64..3.1,
        lat2 in -1.5f64..1.5, lon2 in -3.1f64..3.1,
        lat3 in -1.5f64..1.5, lon3 in -3.1f64..3.1,
    ) {
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let c = GeoPoint::new(lat3, lon3);
        prop_assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-6);
        prop_assert!(a.distance_km(&c) <= a.distance_km(&b) + b.distance_km(&c) + 1e-6);
    }

    #[test]
    fn inclined_roundtrip_ascending(
        inc in 0.3f64..1.55,
        alpha in 0.0f64..TAU,
        gamma in -1.5f64..1.5,
    ) {
        let f = InclinedFrame::new(inc);
        let c = InclinedCoord::new(alpha, gamma);
        let p = f.to_geo(c);
        let c2 = f.from_geo(&p).unwrap();
        prop_assert!((wrap_2pi(c2.alpha) - wrap_2pi(alpha)).abs() < 1e-6
            || (wrap_2pi(c2.alpha) - wrap_2pi(alpha)).abs() > TAU - 1e-6);
        prop_assert!((c2.gamma - gamma).abs() < 1e-6);
    }

    #[test]
    fn inclined_band_respected(inc in 0.3f64..1.5, lat in -1.55f64..1.55, lon in -3.1f64..3.1) {
        let f = InclinedFrame::new(inc);
        let p = GeoPoint::new(lat, lon);
        let r = f.from_geo(&p);
        if lat.abs() <= inc - 1e-9 {
            prop_assert!(r.is_ok());
        } else if lat.abs() > inc + 1e-9 {
            prop_assert!(r.is_err());
        }
    }

    #[test]
    fn cell_assignment_in_grid_bounds(
        planes in 1u16..100, slots in 1u16..50,
        lat in -1.5f64..1.5, lon in -3.1f64..3.1,
    ) {
        let g = CellGrid::new(1.2, planes, slots);
        let id = g.cell_of_point(&GeoPoint::new(lat, lon));
        prop_assert!(id.col < planes && id.row < slots);
    }

    #[test]
    fn cell_areas_positive_and_tile_band_twice(planes in 2u16..40, slots in 2u16..30) {
        let inc = 1.0f64;
        let g = CellGrid::new(inc, planes, slots);
        let mut total = 0.0;
        for id in g.iter_cells() {
            let a = g.cell_area_km2(id);
            prop_assert!(a > 0.0);
            total += a;
        }
        let band = 4.0 * PI * sc_geo::EARTH_RADIUS_KM * sc_geo::EARTH_RADIUS_KM * inc.sin();
        prop_assert!((total / (2.0 * band) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cell_center_maps_back(planes in 1u16..80, slots in 1u16..40, col in 0u16..80, row in 0u16..40) {
        let g = CellGrid::new(0.9, planes, slots);
        let id = CellId::new(col % planes, row % slots);
        prop_assert_eq!(g.cell_of_coord(g.cell_center(id)), id);
    }

    #[test]
    fn address_roundtrip(plmn in any::<u32>(), hc in any::<u32>(), uc in any::<u32>(), sfx in any::<u32>()) {
        let a = GeoAddress::new(plmn, CellId::unpack(hc), CellId::unpack(uc), sfx);
        prop_assert_eq!(GeoAddress::decode(a.encode()), a);
        prop_assert_eq!(GeoAddress::from_ipv6(a.to_ipv6()), a);
    }

    #[test]
    fn neighbors_are_mutual(planes in 2u16..60, slots in 2u16..30, col in 0u16..60, row in 0u16..30) {
        let g = CellGrid::new(1.1, planes, slots);
        let id = CellId::new(col % planes, row % slots);
        for n in g.neighbors(id) {
            prop_assert!(g.neighbors(n).contains(&id));
        }
    }

    #[test]
    fn gamma_turning_points_hit_max_lat(inc in 0.3f64..1.5, alpha in 0.0f64..TAU) {
        let f = InclinedFrame::new(inc);
        let top = f.to_geo(InclinedCoord::new(alpha, FRAC_PI_2));
        prop_assert!((top.lat - inc).abs() < 1e-9);
        let bottom = f.to_geo(InclinedCoord::new(alpha, -FRAC_PI_2));
        prop_assert!((bottom.lat + inc).abs() < 1e-9);
    }
}

/// `CellGrid::cell_of_point` as first written: the exact clamped
/// conversion, then the coordinate's cell.
fn cell_of_point_reference(g: &CellGrid, p: &GeoPoint) -> CellId {
    g.cell_of_coord(g.frame().from_geo_clamped(p))
}

/// `x` moved by `ulps` representable steps (negative: downwards).
fn nudge(x: f64, ulps: i32) -> f64 {
    let step = if ulps < 0 { f64::next_down } else { f64::next_up };
    (0..ulps.unsigned_abs()).fold(x, |x, _| step(x))
}

/// Inclinations from a low shell to exactly polar, where `cos i` is an
/// ulp-sized 6e-17; the two before it are the Iridium- and OneWeb-like
/// shells.
const INCLINATIONS: [f64; 6] = [0.3, 0.9, 53.0 * PI / 180.0, 1.508, 1.534, FRAC_PI_2];

proptest! {
    /// Random points on random grids: the strip table never changes the
    /// cell.
    #[test]
    fn cell_of_point_matches_clamped_conversion(
        inc in 0.2f64..FRAC_PI_2,
        planes in 1u16..200, slots in 1u16..100,
        z in -1.0f64..1.0, lon in -PI..PI,
    ) {
        let g = CellGrid::new(inc, planes, slots);
        let p = GeoPoint::new(z.asin(), lon);
        prop_assert_eq!(g.cell_of_point(&p), cell_of_point_reference(&g, &p), "{:?}", p);
    }

    /// Points built on every column edge (α = 0 and α = 2π included)
    /// and up to 4 ulps of α either side, at random inclined latitudes
    /// of both branches: the strip table must hand each to the exact
    /// path or agree with it.
    #[test]
    fn cell_of_point_matches_at_column_edges(
        k in 0usize..INCLINATIONS.len(),
        planes in 1u16..100,
        gamma in -PI..PI,
    ) {
        let g = CellGrid::new(INCLINATIONS[k], planes, 22);
        for col in 0..=planes {
            let edge = f64::from(col) * g.alpha_width();
            for ulps in -4..=4 {
                let alpha = nudge(edge, ulps);
                let p = g.frame().to_geo(InclinedCoord::new(alpha, gamma));
                prop_assert_eq!(
                    g.cell_of_point(&p),
                    cell_of_point_reference(&g, &p),
                    "col edge {} ulps {} gamma {} -> {:?}", col, ulps, gamma, p
                );
            }
        }
    }

    /// Latitudes at the band-edge clamp (to the ulp), beyond it and at
    /// the poles, on random longitudes and on the antimeridian.
    #[test]
    fn cell_of_point_matches_at_band_edges_poles_and_antimeridian(
        k in 0usize..INCLINATIONS.len(),
        planes in 1u16..100,
        lon in -PI..PI,
    ) {
        let inc = INCLINATIONS[k];
        let g = CellGrid::new(inc, planes, 22);
        let mut lats = vec![FRAC_PI_2, -FRAC_PI_2, inc, -inc];
        for ulps in -4..=4 {
            lats.push(nudge(inc - 1e-9, ulps));
            lats.push(-nudge(inc - 1e-9, ulps));
            lats.push(nudge(inc, ulps).min(FRAC_PI_2));
        }
        lats.push((inc + FRAC_PI_2) / 2.0);
        for lat in lats {
            for lon in [lon, PI, -PI, nudge(PI, -1), nudge(-PI, 1), 0.0, -0.0] {
                let p = GeoPoint::new(lat, lon);
                prop_assert_eq!(
                    g.cell_of_point(&p),
                    cell_of_point_reference(&g, &p),
                    "inc {} {:?}", inc, p
                );
            }
        }
    }
}

proptest! {
    // Each case checks ≈ 220 000 points.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every edge of `cell_of_point`'s latitude strips, the two clamp
    /// latitudes `±(i − 1e-9)` among them, and the floats within 4 ulps
    /// of each, on every inclination up to exactly polar, at a random
    /// longitude and beside the antimeridian: a point on an edge may be
    /// looked up in either neighbouring strip, so both must agree with
    /// the exact path.
    #[test]
    fn cell_of_point_matches_at_strip_edges_and_clamp_latitudes(
        planes in 1u16..100, slots in 1u16..50, lon in -PI..PI,
    ) {
        for inc in INCLINATIONS {
            let g = CellGrid::new(inc, planes, slots);
            let edges = g.strip_edges();
            prop_assert!(edges.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(edges.first().copied(), Some(-inc + 1e-9));
            prop_assert_eq!(edges.last().copied(), Some(inc - 1e-9));
            for &edge in edges {
                for ulps in -4..=4 {
                    for lon in [lon, nudge(-PI, 1)] {
                        let p = GeoPoint::new(nudge(edge, ulps), lon);
                        prop_assert_eq!(
                            g.cell_of_point(&p),
                            cell_of_point_reference(&g, &p),
                            "inc {} {:?}", inc, p
                        );
                    }
                }
            }
        }
    }
}
