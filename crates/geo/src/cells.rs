//! Geospatial cell grid (Figure 15b, Table 3).
//!
//! SpaceCore redefines cells and tracking areas as *geospatial* regions in
//! the (α, γ) inclined frame, fixed at constellation initialization
//! (t = 0): the α axis is divided into one column per orbital plane and
//! the γ axis into one row per in-plane satellite slot. Because the grid
//! is anchored to the earth — not to the satellites — it stays stable
//! under the satellites' 7.5 km/s motion and under later orbit
//! perturbations (§4.1 Step 1).
//!
//! Every point with `|φ| ≤ i` lies in exactly one **canonical** cell (its
//! ascending-branch coordinate); satellites, which sweep the full γ
//! circle, occupy ascending- and descending-row cells alternately. The
//! grid therefore has `m × n` cells, of which a point's canonical cell is
//! always in an ascending row. This mirrors the paper's cell counts
//! (Table 3 reports `m × n` cells per constellation).
//!
//! Cell *physical* areas vary with γ even though cells are uniform in
//! (α, γ): the exact area of the patch `[α₁,α₂] × [γ₁,γ₂]` on a unit
//! sphere is `(α₂−α₁)·sin i·∫|cos γ|dγ` (the Jacobian of the inclined
//! chart is `sin i·|cos γ|`), which this module evaluates analytically.

use crate::angle::wrap_2pi;
use crate::inclined::{Branch, InclinedCoord, InclinedFrame};
use crate::sphere::{GeoPoint, EARTH_RADIUS_KM};
use std::f64::consts::TAU;

/// How close, in column widths, [`CellGrid::cell_of_point`]'s fast α
/// may come to a column edge before the exact path decides the column.
const COLUMN_MARGIN: f64 = 1e-6;

/// Smallest `cos i` for which [`CellGrid::cell_of_point`] tries the fast
/// α (inclinations up to ≈ 89.94°); nearer the pole the `atan2` it feeds
/// is too ill-conditioned for [`COLUMN_MARGIN`] to cover.
const FAST_COLUMN_MIN_COS_I: f64 = 1e-3;

/// Identifier of one geospatial cell: orbital-plane column and in-plane row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Column index in `[0, planes)` — which orbital plane's α slice.
    pub col: u16,
    /// Row index in `[0, slots)` — which in-plane γ slice.
    pub row: u16,
}

impl CellId {
    pub fn new(col: u16, row: u16) -> Self {
        Self { col, row }
    }

    /// Pack into a 32-bit value (16-bit col, 16-bit row) for the
    /// geospatial address fields of Figure 15c.
    pub fn pack(&self) -> u32 {
        ((self.col as u32) << 16) | self.row as u32
    }

    /// Inverse of [`CellId::pack`].
    pub fn unpack(v: u32) -> Self {
        Self {
            col: (v >> 16) as u16,
            row: (v & 0xFFFF) as u16,
        }
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell({},{})", self.col, self.row)
    }
}

/// Aggregate physical-size statistics of a grid's cells (Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStats {
    /// Number of cells in the grid.
    pub count: usize,
    /// Smallest cell area in km².
    pub min_km2: f64,
    /// Largest cell area in km².
    pub max_km2: f64,
    /// Mean cell area in km².
    pub avg_km2: f64,
}

/// The geospatial cell grid for one constellation shell.
#[derive(Debug, Clone)]
pub struct CellGrid {
    frame: InclinedFrame,
    planes: u16,
    slots: u16,
    alpha_width: f64,
    gamma_height: f64,
    /// Whether [`Self::cell_of_point`] may try the fast α.
    fast_column: bool,
}

impl CellGrid {
    /// Build the grid for a shell with `planes` orbital planes and `slots`
    /// satellites per plane at inclination `inclination_rad`.
    ///
    /// # Panics
    /// Panics if `planes` or `slots` is zero.
    pub fn new(inclination_rad: f64, planes: u16, slots: u16) -> Self {
        assert!(planes > 0 && slots > 0, "grid must have at least one cell");
        Self {
            frame: InclinedFrame::new(inclination_rad),
            planes,
            slots,
            alpha_width: TAU / planes as f64,
            gamma_height: TAU / slots as f64,
            fast_column: inclination_rad.cos() >= FAST_COLUMN_MIN_COS_I,
        }
    }

    /// The underlying inclined frame.
    pub fn frame(&self) -> &InclinedFrame {
        &self.frame
    }

    /// Number of columns (orbital planes).
    pub fn planes(&self) -> u16 {
        self.planes
    }

    /// Number of rows (in-plane slots).
    pub fn slots(&self) -> u16 {
        self.slots
    }

    /// Total number of cells (`planes × slots`).
    pub fn cell_count(&self) -> usize {
        self.planes as usize * self.slots as usize
    }

    /// Angular width of a column in α (radians).
    pub fn alpha_width(&self) -> f64 {
        self.alpha_width
    }

    /// Angular height of a row in γ (radians).
    pub fn gamma_height(&self) -> f64 {
        self.gamma_height
    }

    /// Map an inclined coordinate (any branch) to its cell.
    pub fn cell_of_coord(&self, c: InclinedCoord) -> CellId {
        let a = wrap_2pi(c.alpha);
        let col = ((a / self.alpha_width) as u32).min(self.planes as u32 - 1) as u16;
        CellId {
            col,
            row: self.row_of(c.gamma),
        }
    }

    /// Row of an inclined latitude `γ` (any branch).
    fn row_of(&self, gamma: f64) -> u16 {
        let g = wrap_2pi(gamma);
        ((g / self.gamma_height) as u32).min(self.slots as u32 - 1) as u16
    }

    /// Canonical cell of a terrestrial point: its ascending-branch
    /// coordinate, with out-of-band latitudes clamped to the band edge —
    /// always `cell_of_coord(frame().from_geo_clamped(p))`.
    ///
    /// `sin γ` and `γ = asin(sin γ)` are computed exactly as there, so
    /// the row is too. The column first tries `sin γ` itself and
    /// `cos γ = √((1 − sin γ)(1 + sin γ))` in place of `γ.sin_cos()`.
    /// Both pairs are within 7e-16 of the true values, the `atan2` they
    /// feed has slope at most `1/cos i`, and the subtraction and wrap
    /// round the same way up to an ulp of 2π, so the two αs differ by
    /// less than `1e-15/cos i + 3e-15` rad: 5e-15 rad at 53°, 1e-12 rad
    /// at the `cos i ≥ 1e-3` this is tried for. The fast α is kept only
    /// when it lies more than 1e-6 column widths from a column edge —
    /// ≈ 9e-8 rad for 72 planes, ≥ 9e-11 rad for any grid. 0 and 2π
    /// are column edges, so a wrap the two αs could take differently is
    /// excluded too. Any other point takes the exact path.
    /// `crates/geo/tests/props.rs` pins the equality, column edges,
    /// band edges, poles and the antimeridian included.
    pub fn cell_of_point(&self, p: &GeoPoint) -> CellId {
        let (lon, s) = self.frame.clamped_lon_sin_gamma(p);
        let gamma = s.asin();
        if self.fast_column {
            let alpha = self
                .frame
                .node_alpha(lon, s, ((1.0 - s) * (1.0 + s)).sqrt());
            let x = alpha / self.alpha_width;
            let col = x as u32;
            let edge = x - f64::from(col);
            if edge > COLUMN_MARGIN && edge < 1.0 - COLUMN_MARGIN {
                return CellId {
                    col: col as u16,
                    row: self.row_of(gamma),
                };
            }
        }
        let (sg, cg) = gamma.sin_cos();
        self.cell_of_coord(InclinedCoord::new(
            self.frame.node_alpha(lon, sg, cg),
            gamma,
        ))
    }

    /// The (α, γ) lower corner and upper corner of a cell.
    pub fn cell_bounds(&self, id: CellId) -> (InclinedCoord, InclinedCoord) {
        let a0 = id.col as f64 * self.alpha_width;
        let g0 = id.row as f64 * self.gamma_height;
        (
            InclinedCoord::new(a0, g0),
            InclinedCoord::new(a0 + self.alpha_width, g0 + self.gamma_height),
        )
    }

    /// Center coordinate of a cell.
    pub fn cell_center(&self, id: CellId) -> InclinedCoord {
        let (lo, _) = self.cell_bounds(id);
        InclinedCoord::new(
            lo.alpha + self.alpha_width / 2.0,
            lo.gamma + self.gamma_height / 2.0,
        )
    }

    /// Exact physical area of a cell in km².
    ///
    /// Uses the closed form `A = R²·Δα·sin i·∫_{γ₁}^{γ₂} |cos γ| dγ`.
    pub fn cell_area_km2(&self, id: CellId) -> f64 {
        let (lo, hi) = self.cell_bounds(id);
        let integral = integral_abs_cos(lo.gamma, hi.gamma);
        EARTH_RADIUS_KM * EARTH_RADIUS_KM
            * self.alpha_width
            * self.frame.inclination().sin()
            * integral
    }

    /// Iterate over every cell id in the grid, row-major.
    pub fn iter_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        let planes = self.planes;
        let slots = self.slots;
        (0..planes).flat_map(move |c| (0..slots).map(move |r| CellId::new(c, r)))
    }

    /// Min/max/avg physical cell sizes (Table 3).
    ///
    /// Cells whose area rounds to zero (rows degenerate at the γ = ±π/2
    /// turning points never are, thanks to the |cos| integral) are still
    /// included; the statistics cover all `planes × slots` cells.
    pub fn stats(&self) -> CellStats {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for id in self.iter_cells() {
            let a = self.cell_area_km2(id);
            min = min.min(a);
            max = max.max(a);
            sum += a;
            count += 1;
        }
        CellStats {
            count,
            min_km2: min,
            max_km2: max,
            avg_km2: sum / count as f64,
        }
    }

    /// The four grid neighbours of a cell (left, right, down, up), with
    /// wrap-around in both axes — matching the +Grid ISL topology's
    /// neighbour structure used by Algorithm 1.
    pub fn neighbors(&self, id: CellId) -> [CellId; 4] {
        let left = CellId::new((id.col + self.planes - 1) % self.planes, id.row);
        let right = CellId::new((id.col + 1) % self.planes, id.row);
        let down = CellId::new(id.col, (id.row + self.slots - 1) % self.slots);
        let up = CellId::new(id.col, (id.row + 1) % self.slots);
        [left, right, down, up]
    }

    /// Does the (clamped ascending) coordinate of `p` fall inside cell `id`?
    pub fn contains(&self, id: CellId, p: &GeoPoint) -> bool {
        self.cell_of_point(p) == id
    }

    /// Both-branch cells of a point: the canonical ascending cell plus the
    /// descending-branch cell. A descending-pass satellite overhead sits
    /// in the latter.
    pub fn cells_of_point_both(&self, p: &GeoPoint) -> (CellId, Option<CellId>) {
        let asc = self.cell_of_point(p);
        let desc = self
            .frame
            .from_geo_branch(p, Branch::Descending)
            .ok()
            .map(|c| self.cell_of_coord(c));
        (asc, desc)
    }
}

/// `∫_{a}^{b} |cos γ| dγ` for `a ≤ b` (handles sign changes of cos).
fn integral_abs_cos(a: f64, b: f64) -> f64 {
    debug_assert!(b >= a);
    // F(γ) = ∫₀^γ |cos t| dt has the closed form: within each half-period
    // of length π centred on kπ, |cos| integrates to |sin| pieces. Use the
    // standard result F(γ) = 2⌊γ/π + 1/2⌋ + (-1)^⌊γ/π + 1/2⌋ · sin(γ) ... we
    // evaluate numerically-safe via the antiderivative below.
    fn f(g: f64) -> f64 {
        let k = ((g / std::f64::consts::PI) + 0.5).floor();
        2.0 * k + if (k as i64).rem_euclid(2) == 0 { g.sin() } else { -g.sin() }
    }
    f(b) - f(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn starlink_grid() -> CellGrid {
        CellGrid::new(53f64.to_radians(), 72, 22)
    }

    #[test]
    fn integral_abs_cos_basics() {
        assert!((integral_abs_cos(0.0, FRAC_PI_2) - 1.0).abs() < 1e-12);
        assert!((integral_abs_cos(0.0, PI) - 2.0).abs() < 1e-12);
        assert!((integral_abs_cos(0.0, TAU) - 4.0).abs() < 1e-12);
        assert!((integral_abs_cos(FRAC_PI_2, 3.0 * FRAC_PI_2) - 2.0).abs() < 1e-12);
        // Matches numeric integration on a random interval.
        let (a, b) = (0.3, 5.1);
        let n = 100_000;
        let h = (b - a) / n as f64;
        let numeric: f64 = (0..n)
            .map(|i| ((a + (i as f64 + 0.5) * h).cos()).abs() * h)
            .sum();
        assert!((integral_abs_cos(a, b) - numeric).abs() < 1e-6);
    }

    #[test]
    fn total_area_covers_band_twice() {
        // Ascending + descending rows together tile the band |φ| ≤ i twice:
        // ΣA = 2 · (band area) = 2 · 4πR² sin i.
        let g = starlink_grid();
        let total: f64 = g.iter_cells().map(|c| g.cell_area_km2(c)).sum();
        let band = 4.0 * PI * EARTH_RADIUS_KM * EARTH_RADIUS_KM * 53f64.to_radians().sin();
        assert!((total / (2.0 * band) - 1.0).abs() < 1e-9, "total {total} band {band}");
    }

    #[test]
    fn starlink_table3_shape() {
        // Table 3: Starlink min 93,382 / max 1,616,366 / avg 471,476 km².
        // Our grid construction reproduces the magnitudes (same order,
        // max/min ratio ≥ 10, avg within 2× of the paper's).
        let s = starlink_grid().stats();
        assert_eq!(s.count, 72 * 22);
        assert!(s.avg_km2 > 200_000.0 && s.avg_km2 < 900_000.0, "{s:?}");
        assert!(s.max_km2 / s.min_km2 > 8.0, "{s:?}");
        assert!(s.max_km2 > 700_000.0, "{s:?}");
    }

    #[test]
    fn point_assignment_unique_and_contained() {
        let g = starlink_grid();
        let p = GeoPoint::from_degrees(40.0, 116.0);
        let id = g.cell_of_point(&p);
        assert!(g.contains(id, &p));
        assert!(id.col < 72 && id.row < 22);
        // Ascending rows only: row γ ∈ [-π/2, π/2] → wrapped to
        // [0, π/2] ∪ [3π/2, 2π), i.e. row < slots/4+1 or row ≥ 3·slots/4-1.
        let asc_low = id.row as f64 * g.gamma_height();
        assert!(asc_low <= FRAC_PI_2 + g.gamma_height() || asc_low >= 1.5 * PI - g.gamma_height());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for col in [0u16, 1, 71, 999] {
            for row in [0u16, 5, 21, 4095] {
                let id = CellId::new(col, row);
                assert_eq!(CellId::unpack(id.pack()), id);
            }
        }
    }

    #[test]
    fn neighbors_wrap() {
        let g = starlink_grid();
        let n = g.neighbors(CellId::new(0, 0));
        assert_eq!(n[0], CellId::new(71, 0)); // left wraps
        assert_eq!(n[1], CellId::new(1, 0));
        assert_eq!(n[2], CellId::new(0, 21)); // down wraps
        assert_eq!(n[3], CellId::new(0, 1));
    }

    #[test]
    fn cell_center_roundtrip() {
        let g = starlink_grid();
        for id in [CellId::new(0, 0), CellId::new(35, 3), CellId::new(71, 21)] {
            let c = g.cell_center(id);
            assert_eq!(g.cell_of_coord(c), id);
        }
    }

    #[test]
    fn both_branch_cells_differ() {
        let g = starlink_grid();
        let p = GeoPoint::from_degrees(25.0, 60.0);
        let (asc, desc) = g.cells_of_point_both(&p);
        let desc = desc.unwrap();
        assert_ne!(asc, desc);
        // Descending cell is in a descending row (γ around π).
        let gmid = (desc.row as f64 + 0.5) * g.gamma_height();
        assert!(gmid > FRAC_PI_2 && gmid < 1.5 * PI);
    }

    #[test]
    fn iridium_odd_slots() {
        // Iridium: 6 planes × 11 slots, near-polar.
        let g = CellGrid::new(86.4f64.to_radians(), 6, 11);
        assert_eq!(g.cell_count(), 66);
        let s = g.stats();
        assert!(s.min_km2 > 0.0);
        assert!(s.max_km2 > s.min_km2);
        let p = GeoPoint::from_degrees(-80.0, 10.0);
        let id = g.cell_of_point(&p);
        assert!(id.col < 6 && id.row < 11);
    }
}
