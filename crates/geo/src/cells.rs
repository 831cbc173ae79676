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
use std::sync::Arc;

/// Latitude strips [`CellGrid::new`] cuts the clamped band into.
const STRIPS: usize = 2048;

/// How close, in column widths, a strip's α range may come to a column
/// edge before [`CellGrid::cell_of_point`] hands the point to the exact
/// path.
const COLUMN_MARGIN: f64 = 1e-9;

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
    /// What every point of each latitude strip gets; shared, so clones
    /// stay cheap.
    strips: Arc<StripTable>,
}

impl CellGrid {
    /// Build the grid for a shell with `planes` orbital planes and `slots`
    /// satellites per plane at inclination `inclination_rad`.
    ///
    /// # Panics
    /// Panics if `planes` or `slots` is zero.
    pub fn new(inclination_rad: f64, planes: u16, slots: u16) -> Self {
        assert!(planes > 0 && slots > 0, "grid must have at least one cell");
        let frame = InclinedFrame::new(inclination_rad);
        let alpha_width = TAU / planes as f64;
        let gamma_height = TAU / slots as f64;
        let strips = StripTable::new(&frame, alpha_width, planes, |g| {
            row_of(g, gamma_height, slots)
        });
        Self {
            frame,
            planes,
            slots,
            alpha_width,
            gamma_height,
            strips: Arc::new(strips),
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
            row: row_of(c.gamma, self.gamma_height, self.slots),
        }
    }

    /// Canonical cell of a terrestrial point: its ascending-branch
    /// coordinate, with out-of-band latitudes clamped to the band edge —
    /// always `cell_of_coord(frame().from_geo_clamped(p))`.
    ///
    /// Most points are answered from a table [`Self::new`] builds once.
    /// The clamped band is cut into latitude strips, and each strip
    /// records its row and the interval of node offsets
    /// `φ = atan2(cos i·sin γ, cos γ)` its points can compute; a point
    /// at longitude λ has `α = λ − φ`. γ and φ are monotone in
    /// latitude, so the exact values at a strip's two edges bound every
    /// point between them, up to rounding:
    ///
    /// * `sin`, `/ sin i`, `asin`, `sin_cos` and `atan2` together err by
    ///   what about 1.2e-15 in `sin γ` would move, plus an ulp; γ
    ///   magnifies that by at most `1/√(1 − sin²γ)` and φ by
    ///   `dφ/d(sin γ)`, both largest at the strip's edge nearer a
    ///   turning point. Each strip's γ and φ margins are
    ///   `1e-12 + 1e-14 ×` that derivative: four times what an edge and
    ///   a point can err together. A strip that comes within 1e-6 of
    ///   `|sin γ| = 1`, where both derivatives blow up, is not used.
    /// * A strip decides the row only if its widened γ range holds no
    ///   row edge; γ = 0, where a negative γ wraps into the last row, is
    ///   one. The two clamp latitudes `±(i − 1e-9)` keep their exact row
    ///   and φ.
    /// * The column is taken when the point's whole α range
    ///   `[λ − φ_hi, λ − φ_lo]`, brought into `[0, 2π)` by at most one
    ///   turn, lies inside one column, more than 1e-9 column widths from
    ///   its edges. The exact path's α differs from that range only by
    ///   the rounding of a longitude normalisation, a subtraction, a wrap
    ///   and a division: < 2e-10 column widths even at 65 535 planes.
    ///
    /// Every other point — near a row or column edge, near a turning
    /// point, more than a turn out of range, or NaN — takes the exact
    /// path. `crates/geo/tests/props.rs` pins the equality at every
    /// strip edge, both clamp latitudes, column edges, poles and the
    /// antimeridian.
    pub fn cell_of_point(&self, p: &GeoPoint) -> CellId {
        self.strips
            .cell_of(p)
            .unwrap_or_else(|| self.cell_of_coord(self.frame.from_geo_clamped(p)))
    }

    /// The latitudes at which [`Self::cell_of_point`]'s table changes
    /// strip, ascending: the clamped band's two edges `±(i − 1e-9)` and
    /// the strip edges between them.
    pub fn strip_edges(&self) -> &[f64] {
        &self.strips.edges
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

/// Row of an inclined latitude `γ` (any branch) on a grid of `slots`
/// rows of height `gamma_height`.
fn row_of(gamma: f64, gamma_height: f64, slots: u16) -> u16 {
    let g = wrap_2pi(gamma);
    ((g / gamma_height) as u32).min(slots as u32 - 1) as u16
}

/// What every point of one latitude strip gets.
#[derive(Debug, Clone, Copy)]
struct Strip {
    /// Smallest node offset φ a point of the strip can compute, less
    /// the strip's margin.
    phi_lo: f64,
    /// `φ_hi − φ_lo` in column widths; +∞ when the strip cannot decide
    /// the row, so that no column test passes.
    span: f64,
    row: u16,
}

/// [`CellGrid::cell_of_point`]'s latitude-strip table.
struct StripTable {
    /// The clamped band, `[−i + 1e-9, i − 1e-9]`.
    lo: f64,
    hi: f64,
    /// Strips per radian of latitude.
    per_rad: f64,
    /// `STRIPS + 1` strip edges, `lo` first and `hi` last.
    edges: Vec<f64>,
    /// The south clamp latitude, the `STRIPS` band strips, the north
    /// clamp latitude.
    strips: Vec<Strip>,
    /// Columns per radian of α.
    per_col: f64,
    planes: u16,
}

impl StripTable {
    fn new(frame: &InclinedFrame, alpha_width: f64, planes: u16, row_of: impl Fn(f64) -> u16) -> Self {
        let (lo, hi) = frame.clamped_band();
        // A band too thin to clamp into is left wholly to the exact path.
        let usable = lo < hi;
        let per_col = 1.0 / alpha_width;
        let undecided = Strip {
            phi_lo: 0.0,
            span: f64::INFINITY,
            row: 0,
        };
        let clamp = |lat: f64| {
            let (gamma, phi) = frame.ascending(lat);
            Strip {
                phi_lo: phi,
                span: if usable { 0.0 } else { f64::INFINITY },
                row: row_of(gamma),
            }
        };
        let edges: Vec<f64> = (0..STRIPS)
            .map(|k| lo + (hi - lo) * (k as f64 / STRIPS as f64))
            .chain([hi])
            .collect();
        let cos_i = frame.inclination().cos().abs();
        let band = edges.windows(2).map(|w| {
            let ((ga, pa), (gb, pb)) = (frame.ascending(w[0]), frame.ascending(w[1]));
            let s = ga.sin().abs().max(gb.sin().abs());
            if !usable {
                return undecided;
            }
            // dγ/d(sin γ) and dφ/d(sin γ) at the strip's steeper edge:
            // `|sin γ|` grows with `|lat|`, so no point of the strip is
            // steeper. The margins hold at the band's turning points
            // too, where `asin` is not linear over a rounding δ of a few
            // ulps of `sin γ` (`sin`, `sin i`, the quotient): with
            // `1 − s = ε ≥ δ`, γ moves by at most
            // `√(2ε) − √(2(ε − δ)) ≤ 2δ/√(2ε) ≈ 2δ·dγ/d(sin γ)`, and
            // where `s` clamps at 1 by at most `√(2ε) < 2δ/√(2ε)` — some
            // 7e-16 in units of the derivative against the 1e-14 the
            // margins allow, whatever ε is. Where `s` rounds to 1 the
            // margins are infinite and the strip decides nothing.
            let cos2 = (1.0 - s) * (1.0 + s);
            let dgamma = 1.0 / cos2.sqrt();
            let dphi = cos_i * dgamma / (cos2 + cos_i * cos_i * s * s);
            let gamma_margin = 1e-12 + 1e-14 * dgamma;
            let phi_margin = 1e-12 + 1e-14 * dphi;
            let (g_lo, g_hi) = (ga.min(gb) - gamma_margin, ga.max(gb) + gamma_margin);
            let (phi_lo, phi_hi) = (pa.min(pb) - phi_margin, pa.max(pb) + phi_margin);
            // γ = 0 is a row edge too: `row_of` wraps a negative γ into
            // the last row.
            let row = row_of(g_lo);
            if row != row_of(g_hi) {
                return undecided;
            }
            Strip {
                phi_lo,
                span: (phi_hi - phi_lo) * per_col,
                row,
            }
        });
        let strips = std::iter::once(clamp(lo))
            .chain(band)
            .chain([clamp(hi)])
            .collect();
        Self {
            lo,
            hi,
            per_rad: STRIPS as f64 / (hi - lo),
            edges,
            strips,
            per_col,
            planes,
        }
    }

    /// The cell of `p` if its strip decides it; `None` sends the point
    /// to the exact path.
    fn cell_of(&self, p: &GeoPoint) -> Option<CellId> {
        let lat = p.lat;
        let k = if lat > self.lo && lat < self.hi {
            // The estimate is off by at most one strip; the edge
            // compare makes the lookup exact.
            let mut k = (((lat - self.lo) * self.per_rad) as usize).min(STRIPS - 1);
            if lat < self.edges[k] {
                k -= 1;
            } else if lat >= self.edges[k + 1] {
                k += 1;
            }
            k + 1
        } else if lat >= self.hi {
            STRIPS + 1
        } else if lat <= self.lo {
            0
        } else {
            return None; // NaN
        };
        let strip = &self.strips[k];
        // The strip's largest α in columns, moved into `[0, planes)` by
        // at most one turn.
        let planes = f64::from(self.planes);
        let mut x = (p.lon - strip.phi_lo) * self.per_col;
        if x < 0.0 {
            x += planes;
        } else if x >= planes {
            x -= planes;
        }
        let col = x as u32; // saturating: negative and NaN give 0
        let frac = x - f64::from(col);
        let inside = frac - strip.span > COLUMN_MARGIN && frac < 1.0 - COLUMN_MARGIN;
        (inside && col < u32::from(self.planes)).then_some(CellId {
            col: col as u16,
            row: strip.row,
        })
    }
}

impl std::fmt::Debug for StripTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripTable")
            .field("strips", &self.strips.len())
            .finish_non_exhaustive()
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
