//! Global UE population model (World-Bank-style subscription density).
//!
//! The paper distributes emulated UEs "assuming the global distributions
//! of UEs from the World Bank". We model the distribution as a mixture of
//! regional hotspots (population-weighted Gaussian blobs over major
//! population centres) — coarse, but it preserves exactly what the
//! experiments consume: *how many users a satellite sees as it traverses
//! each region* (the Fig. 12 temporal dynamics) and *where sessions are
//! generated globally* (Figs. 10/20 aggregates).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use sc_geo::sphere::{GeoPoint, Vec3};
use std::f64::consts::{FRAC_PI_2, PI, TAU};

/// Continental region labels used by Figure 12's annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    NorthAmerica,
    SouthCentralAmerica,
    EuropeAsia,
    Africa,
    Oceania,
    Ocean,
}

impl Region {
    /// Every region, in [`Region::index`] order.
    pub const ALL: [Region; 6] = [
        Region::NorthAmerica,
        Region::SouthCentralAmerica,
        Region::EuropeAsia,
        Region::Africa,
        Region::Oceania,
        Region::Ocean,
    ];

    /// Position of the region in [`Region::ALL`].
    pub fn index(self) -> usize {
        match self {
            Region::NorthAmerica => 0,
            Region::SouthCentralAmerica => 1,
            Region::EuropeAsia => 2,
            Region::Africa => 3,
            Region::Oceania => 4,
            Region::Ocean => 5,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Region::NorthAmerica => "North America",
            Region::SouthCentralAmerica => "South & Central America",
            Region::EuropeAsia => "Europe & Asia",
            Region::Africa => "Africa",
            Region::Oceania => "Oceania",
            Region::Ocean => "Ocean",
        }
    }
}

/// One population hotspot.
#[derive(Debug, Clone, Copy)]
struct Hotspot {
    /// Centre as lat/lon — what sampling offsets from.
    center: GeoPoint,
    /// `center.lat.cos().max(0.2)`, cached: the longitude stretch of
    /// every point sampled around this centre.
    cos_lat: f64,
    /// `center.unit_vector()`, cached: every distance query is one dot
    /// product against it.
    unit: Vec3,
    /// `cos(3σ) − 1e-9`: a dot product below this is farther than 3σ.
    /// The margin is ~10⁶ ulps, so rounding in the dot product can only
    /// send a borderline hotspot through the exact test, never past it.
    reject_below: f64,
    /// `cos(3σ) + 1e-9`: a dot product at or above this is nearer than
    /// 3σ, so the exact test would keep the hotspot (same margin
    /// argument, mirrored).
    accept_above: f64,
    /// `center.lat.cos()`: the length of a radian of longitude along
    /// the centre's parallel.
    cos_center: f64,
    /// Half-height and half-width, radians, of the latitude/longitude
    /// box around the cap of radius `ρ = 3σ + 1e-9`: `ρ`, and
    /// `asin(sin ρ / cos φ)` (π when the cap holds a pole). A point
    /// outside the box is farther than 3σ by more than any rounding.
    box_lat: f64,
    box_lon: f64,
    /// `3σ − 1e-9`: a point whose meridian-then-parallel path to the
    /// centre is no longer than this is clearly within 3σ.
    within: f64,
    /// Relative subscription weight (≈ millions of subscribers).
    weight: f64,
    /// Spatial spread, radians of central angle.
    sigma: f64,
    region: Region,
}

/// One UE's share of [`PopulationModel::sample_ues`]'s seeded stream,
/// from [`PopulationModel::draws_at`]: the picked hotspot and the two
/// Box–Muller uniforms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Draw {
    hotspot: usize,
    u1: f64,
    u2: f64,
}

/// Side of a cell of [`PopulationModel::region_of`]'s candidate grid,
/// degrees: 36 latitude rows from the south pole up, 72 longitude
/// columns from −180° east.
pub const CANDIDATE_CELL_DEG: f64 = 5.0;
const CANDIDATE_ROWS: usize = 36;
const CANDIDATE_COLS: usize = 72;

/// Margin, radians, of every geometric shortcut in
/// [`PopulationModel::region_of`]: ~10⁶ times the rounding error of the
/// arithmetic it guards.
const MARGIN: f64 = 1e-9;

/// Stream words one UE reads: three `next_u64` calls (the hotspot pick
/// and the two uniforms). UE `k` therefore starts at word `6·k`, and
/// every read is even-aligned, so none straddles the generator's
/// 64-word buffer.
const WORDS_PER_UE: u128 = 6;

/// The global population/subscription model.
#[derive(Debug, Clone)]
pub struct PopulationModel {
    hotspots: Vec<Hotspot>,
    total_weight: f64,
    /// `cumulative[k]`: the weights of hotspots `0..=k`, summed in
    /// order — exact, as every weight is an integer (see
    /// [`Self::pick`]).
    cumulative: Vec<f64>,
    /// Per candidate-grid cell, row-major: bit `k` set when hotspot
    /// `k`'s box, widened by [`MARGIN`], meets the cell.
    candidates: Vec<u32>,
    /// Per candidate-grid cell: the region every point filed under the
    /// cell gets, when one does (see [`pure_regions`]).
    pure: Vec<Option<Region>>,
}

impl Default for PopulationModel {
    fn default() -> Self {
        Self::world_bank_like()
    }
}

impl PopulationModel {
    /// The default world model: ~20 hotspots weighted like the World
    /// Bank 2019 mobile-subscription distribution.
    pub fn world_bank_like() -> Self {
        use Region::*;
        Self::from_hotspots(&[
            // Europe & Asia (the dominant mass).
            (31.0, 112.0, 1700.0, 10.0, EuropeAsia), // eastern China
            (23.0, 80.0, 1200.0, 9.0, EuropeAsia),   // India
            (36.0, 138.0, 190.0, 4.0, EuropeAsia),   // Japan
            (-2.0, 110.0, 350.0, 8.0, EuropeAsia),   // Indonesia / SE Asia
            (16.0, 102.0, 220.0, 6.0, EuropeAsia),   // Indochina
            (50.0, 10.0, 480.0, 8.0, EuropeAsia),    // western/central Europe
            (55.0, 45.0, 250.0, 10.0, EuropeAsia),   // Russia / eastern Europe
            (33.0, 48.0, 280.0, 8.0, EuropeAsia),    // Middle East
            (40.0, 68.0, 120.0, 7.0, EuropeAsia),    // central Asia
            // North America.
            (40.0, -95.0, 360.0, 10.0, NorthAmerica),
            (19.5, -99.0, 120.0, 5.0, NorthAmerica), // Mexico
            // South & Central America.
            (-15.0, -52.0, 210.0, 9.0, SouthCentralAmerica), // Brazil
            (-34.0, -61.0, 70.0, 6.0, SouthCentralAmerica),  // Argentina
            (5.0, -74.0, 90.0, 6.0, SouthCentralAmerica),    // Andes north
            // Africa.
            (9.0, 8.0, 190.0, 7.0, Africa),    // Nigeria / west Africa
            (0.5, 36.0, 130.0, 7.0, Africa),   // east Africa
            (-28.0, 25.0, 90.0, 6.0, Africa),  // southern Africa
            (30.0, 30.0, 110.0, 5.0, Africa),  // Egypt / north Africa
            // Oceania.
            (-31.0, 140.0, 35.0, 8.0, Oceania), // Australia
            (-40.0, 175.0, 6.0, 3.0, Oceania),  // New Zealand
        ])
    }

    /// A mixture of hotspots given as `(lat°, lon°, weight, σ°, region)`.
    ///
    /// # Panics
    /// Panics unless every weight is a non-negative integer and they sum
    /// to less than 2⁵³: [`Self::pick`] is exact only then.
    fn from_hotspots(spec: &[(f64, f64, f64, f64, Region)]) -> Self {
        let hotspots: Vec<Hotspot> = spec
            .iter()
            .map(|&(lat, lon, weight, sigma_deg, region)| {
                let center = GeoPoint::from_degrees(lat, lon);
                let sigma = sigma_deg.to_radians();
                let rho = 3.0 * sigma + MARGIN;
                let cos_center = center.lat.cos();
                Hotspot {
                    center,
                    cos_lat: cos_center.max(0.2),
                    unit: center.unit_vector(),
                    reject_below: (3.0 * sigma).cos() - MARGIN,
                    accept_above: (3.0 * sigma).cos() + MARGIN,
                    cos_center,
                    box_lat: rho,
                    box_lon: if rho.sin() < cos_center {
                        (rho.sin() / cos_center).asin()
                    } else {
                        PI
                    },
                    within: 3.0 * sigma - MARGIN,
                    weight,
                    sigma,
                    region,
                }
            })
            .collect();
        let cumulative: Vec<f64> = hotspots
            .iter()
            .scan(0.0, |sum, h| {
                *sum += h.weight;
                Some(*sum)
            })
            .collect();
        let total_weight = cumulative.last().copied().unwrap_or(0.0);
        assert!(
            hotspots.iter().all(|h| h.weight >= 0.0 && h.weight.fract() == 0.0)
                && total_weight < 2f64.powi(53),
            "hotspot weights must be non-negative integers summing to less than 2^53"
        );
        let candidates = candidate_masks(&hotspots);
        let pure = pure_regions(&hotspots, &candidates);
        Self {
            hotspots,
            total_weight,
            cumulative,
            candidates,
            pure,
        }
    }

    /// Relative subscription density at a point (arbitrary units;
    /// integrates to ≈ total weight).
    pub fn density(&self, p: &GeoPoint) -> f64 {
        let u = p.unit_vector();
        self.hotspots
            .iter()
            .map(|h| {
                let d = h.unit.dot(&u).clamp(-1.0, 1.0).acos();
                h.weight * (-0.5 * (d / h.sigma).powi(2)).exp() / (h.sigma * h.sigma)
            })
            .sum()
    }

    /// Region classification of a point: the region of the nearest
    /// hotspot (in σ units) if within 3σ, else [`Region::Ocean`].
    ///
    /// The answer is bit-for-bit what 20 full `central_angle` calls give
    /// (`tests/placement_props.rs` pins it to that reference), and most
    /// points need neither a unit vector nor an `acos`:
    ///
    /// * The point's candidate-grid cell may be *pure*: one region R
    ///   that every point filed under the cell gets (see
    ///   `pure_regions`). The answer is R, read from one byte.
    /// * Otherwise the cell names the hotspots whose 3σ cap, widened by
    ///   1e-9 rad, can reach it. Each is kept only if the point lies in
    ///   the box around that cap; `|Δlat|` and the wrapped `|Δlon|`
    ///   bound the central angle from below.
    /// * No hotspot kept: nothing is within 3σ, the answer is `Ocean`.
    /// * Every hotspot kept belongs to one region R and one is clearly
    ///   within 3σ — its meridian-then-parallel path,
    ///   `|Δlat| + |Δlon|·cos φ`, an upper bound on the central angle, is
    ///   at most `3σ − 1e-9`: the nearest hotspot within 3σ exists and
    ///   is one of them, so the answer is R whatever the distances are.
    ///
    /// Every margin is 1e-9 rad against rounding errors of order 1e-15,
    /// so no rounding can move a hotspot across a test. Any other point,
    /// and a point off the `[−π/2, π/2] × [−π, π]` lat/lon ranges, takes
    /// `region_by_dot`, the exact path.
    pub fn region_of(&self, p: &GeoPoint) -> Region {
        if !(p.lat.abs() <= FRAC_PI_2 && p.lon.abs() <= PI) {
            return self.region_by_dot(p);
        }
        let step = CANDIDATE_CELL_DEG.to_radians();
        let row = (((p.lat + FRAC_PI_2) / step) as usize).min(CANDIDATE_ROWS - 1);
        let col = (((p.lon + PI) / step) as usize).min(CANDIDATE_COLS - 1);
        let cell = row * CANDIDATE_COLS + col;
        if let Some(region) = self.pure[cell] {
            return region;
        }
        let mut mask = self.candidates[cell];
        let mut only: Option<Region> = None;
        let mut within = false;
        while mask != 0 {
            let h = &self.hotspots[mask.trailing_zeros() as usize];
            mask &= mask - 1;
            let dlat = (p.lat - h.center.lat).abs();
            let dlon = (p.lon - h.center.lon).abs();
            let dlon = if dlon > PI { TAU - dlon } else { dlon };
            if dlat > h.box_lat || dlon > h.box_lon {
                continue;
            }
            if only.is_some_and(|r| r != h.region) {
                return self.region_by_dot(p);
            }
            only = Some(h.region);
            within |= dlat + dlon * h.cos_center <= h.within;
        }
        match only {
            None => Region::Ocean,
            Some(r) if within => r,
            Some(_) => self.region_by_dot(p),
        }
    }

    /// [`Self::region_of`] through the point's unit vector.
    ///
    /// A hotspot whose dot product with the point is clearly below
    /// `cos(3σ)` is skipped; every other one goes through
    /// `central_angle`'s own `clamp → acos` arithmetic. When every
    /// hotspot that is not clearly beyond 3σ belongs to one region R and
    /// at least one is clearly within it (`dot ≥ cos(3σ) + 1e-9`), the
    /// answer is R without any `acos`. Both margins are 1e-9 against a
    /// dot product whose rounding error is a few ulps (< 1e-15) and an
    /// `acos` whose error is an ulp. Any other point takes the exact
    /// loop.
    fn region_by_dot(&self, p: &GeoPoint) -> Region {
        let u = p.unit_vector();
        let mut only: Option<Region> = None;
        let mut within = false;
        for h in &self.hotspots {
            let dot = h.unit.dot(&u);
            if dot < h.reject_below {
                continue;
            }
            if only.is_some_and(|r| r != h.region) {
                return self.nearest_region(&u);
            }
            only = Some(h.region);
            within |= dot >= h.accept_above;
        }
        match only {
            Some(r) if within => r,
            _ => self.nearest_region(&u),
        }
    }

    /// [`Self::region_by_dot`]'s exact loop over the unit vector `u`: the
    /// region of the nearest hotspot in σ units if within 3σ.
    fn nearest_region(&self, u: &Vec3) -> Region {
        let mut best: Option<(f64, Region)> = None;
        for h in &self.hotspots {
            let dot = h.unit.dot(u);
            if dot < h.reject_below {
                continue;
            }
            let d = dot.clamp(-1.0, 1.0).acos() / h.sigma;
            if d <= 3.0 && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, h.region));
            }
        }
        best.map_or(Region::Ocean, |(_, r)| r)
    }

    /// Fraction of global users a satellite footprint centred at `p`
    /// with half-angle `half_angle` (radians) covers. Approximated by
    /// the density at the centre times the footprint solid angle,
    /// normalized by the mixture's total integral (each Gaussian blob
    /// integrates to `2π · weight` under the `weight/σ²` scaling).
    pub fn coverage_fraction(&self, p: &GeoPoint, half_angle: f64) -> f64 {
        let footprint_sr = PI * half_angle * half_angle;
        (self.density(p) * footprint_sr / (TAU * self.total_weight)).min(1.0)
    }

    /// Sample `n` UE positions from the mixture (deterministic in seed):
    /// [`Self::draws`] mapped through [`Self::point_of`].
    pub fn sample_ues(&self, n: usize, seed: u64) -> Vec<GeoPoint> {
        self.draws(n, seed).map(|d| self.point_of(&d)).collect()
    }

    /// The first `n` UEs' [`Draw`]s: [`Self::draws_at`] from UE 0.
    pub fn draws(&self, n: usize, seed: u64) -> impl Iterator<Item = Draw> + '_ {
        self.draws_at(seed, 0).take(n)
    }

    /// The seeded stream from UE `first` on, one [`Draw`] per UE: the
    /// hotspot pick by weight and the two uniforms. The generator is
    /// seeked straight to UE `first`'s words, so any range of UEs is
    /// drawn without reading the ones before it.
    pub fn draws_at(&self, seed: u64, first: usize) -> impl Iterator<Item = Draw> + '_ {
        // `StdRng`'s own generator, named so that it can seek.
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        rng.set_word_pos(WORDS_PER_UE * first as u128);
        std::iter::repeat_with(move || Draw {
            hotspot: self.pick(rng.gen::<f64>() * self.total_weight),
            u1: rng.gen(),
            u2: rng.gen(),
        })
    }

    /// The hotspot a weight draw `x` in `[0, total_weight]` picks: the
    /// number of cumulative weights `c_k = w_0 + … + w_k` at or below
    /// `x`, or the last hotspot if `x` reaches the total.
    ///
    /// This is the first-written subtract-and-break loop bit for bit.
    /// That loop tests `x_k < w_k` and sets `x_{k+1} = x_k − w_k`, from
    /// `x_0 = x`, and picks the first `k` whose test holds. The weights
    /// are integers summing to less than 2⁵³ (`from_hotspots` checks
    /// it), so every `c_k` is exact and `x < 2⁵³` has `ulp(x) ≤ 1`: `x`,
    /// every integer and so every `x_k` are multiples of `ulp(x)`. The
    /// loop subtracts only while `x_k ≥ w_k`, so each result lies in
    /// `[0, x]`, and a multiple of `ulp(x)` in that range is a double:
    /// every subtraction is exact, `x_k = x − c_{k−1}`. The loop's test
    /// is then the real comparison `x < c_k`, and since the `c_k` never
    /// decrease, the first `k` where it holds is the count of `c_k ≤ x`.
    /// (The default model's weights sum to 6 201 < 2¹³.) The count has
    /// no branch to mispredict.
    fn pick(&self, x: f64) -> usize {
        let below = self.cumulative.iter().filter(|&&c| c <= x).count();
        below.min(self.hotspots.len() - 1)
    }

    /// A [`Draw`]'s point: a Gaussian (Box–Muller) offset around the
    /// drawn hotspot's centre.
    pub fn point_of(&self, d: &Draw) -> GeoPoint {
        let chosen = &self.hotspots[d.hotspot];
        let r = chosen.sigma * (-2.0 * d.u1.max(1e-12).ln()).sqrt();
        let theta = TAU * d.u2;
        let dlat = r * theta.sin();
        let dlon = r * theta.cos() / chosen.cos_lat;
        let lat = (chosen.center.lat + dlat).clamp(-1.55, 1.55);
        GeoPoint::new(lat, chosen.center.lon + dlon)
    }

    /// The mixture's components as `(centre, σ in radians, region)` —
    /// what a reference classifier needs to restate [`Self::region_of`].
    pub fn hotspots(&self) -> impl Iterator<Item = (GeoPoint, f64, Region)> + '_ {
        self.hotspots.iter().map(|h| (h.center, h.sigma, h.region))
    }

    /// Total model weight (≈ global subscriptions, millions).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }
}

/// The candidate grid: per cell, row-major, the mask of the hotspots
/// whose box meets the cell's closed lat/lon rectangle once both are
/// widened by [`MARGIN`] — more than the rounding of the cell a point
/// is filed under.
fn candidate_masks(hotspots: &[Hotspot]) -> Vec<u32> {
    assert!(hotspots.len() <= 32, "a candidate mask holds 32 hotspots");
    let step = CANDIDATE_CELL_DEG.to_radians();
    let mut masks = vec![0u32; CANDIDATE_ROWS * CANDIDATE_COLS];
    for (k, h) in hotspots.iter().enumerate() {
        for row in 0..CANDIDATE_ROWS {
            let lat_lo = -FRAC_PI_2 + row as f64 * step;
            let lat_gap = (lat_lo - h.center.lat).max(h.center.lat - (lat_lo + step));
            if lat_gap > h.box_lat + MARGIN {
                continue;
            }
            for col in 0..CANDIDATE_COLS {
                // Angular gap from the centre's meridian to the column.
                let mid = -PI + (col as f64 + 0.5) * step;
                let off = (h.center.lon - mid).abs();
                let lon_gap = off.min(TAU - off) - 0.5 * step;
                if h.box_lon >= PI || lon_gap <= h.box_lon + MARGIN {
                    masks[row * CANDIDATE_COLS + col] |= 1 << k;
                }
            }
        }
    }
    masks
}

/// Per candidate-grid cell, the region every point filed under it gets,
/// when one does: `Ocean` for a cell no hotspot's box meets, and R when
/// every hotspot the cell names belongs to R and at least one of them
/// holds the whole cell within `3σ − 1e-9`. The nearest hotspot within
/// 3σ then exists and is one the cell names, whatever the point.
///
/// A hotspot holds the cell when it holds the four corners of the
/// cell's lat/lon rectangle, widened by [`MARGIN`] like the masks, and
/// the rectangle's longitudes lie within a quarter turn of the
/// hotspot's meridian. Along a parallel the distance to the centre
/// then grows with `|Δlon|`, and along a meridian it is largest at an
/// end, so the farthest point is a corner. (A rectangle holding the
/// antipodal meridian, or past a quarter turn, can be farthest in
/// between.) A corner is held when its dot product with the centre is
/// at least `cos 3σ + 1e-9`, which puts it more than 1e-9 rad inside
/// 3σ against rounding of order 1e-15.
fn pure_regions(hotspots: &[Hotspot], masks: &[u32]) -> Vec<Option<Region>> {
    let step = CANDIDATE_CELL_DEG.to_radians();
    masks
        .iter()
        .enumerate()
        .map(|(cell, &mask)| {
            let named = || {
                (0..hotspots.len())
                    .filter(move |k| mask & (1 << k) != 0)
                    .map(|k| &hotspots[k])
            };
            let region = named().next().map_or(Region::Ocean, |h| h.region);
            if named().any(|h| h.region != region) {
                return None;
            }
            if mask == 0 {
                return Some(region);
            }
            let (row, col) = (cell / CANDIDATE_COLS, cell % CANDIDATE_COLS);
            let lat_lo = -FRAC_PI_2 + row as f64 * step;
            let lon_lo = -PI + col as f64 * step;
            let lats = [
                (lat_lo - MARGIN).max(-FRAC_PI_2),
                (lat_lo + step + MARGIN).min(FRAC_PI_2),
            ];
            let lons = [lon_lo - MARGIN, lon_lo + step + MARGIN];
            let holds = |h: &Hotspot| {
                lons.iter().all(|&lon| {
                    let off = (lon - h.center.lon).abs();
                    off.min(TAU - off) <= FRAC_PI_2
                }) && lats.iter().all(|&lat| {
                    lons.iter().all(|&lon| {
                        let corner = GeoPoint { lat, lon }.unit_vector();
                        h.unit.dot(&corner) >= h.accept_above
                    })
                })
            };
            named().any(holds).then_some(region)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    #[test]
    fn dense_in_china_sparse_in_pacific() {
        let m = PopulationModel::world_bank_like();
        let shanghai = GeoPoint::from_degrees(31.2, 121.5);
        let pacific = GeoPoint::from_degrees(-30.0, -140.0);
        assert!(m.density(&shanghai) > 100.0 * m.density(&pacific));
    }

    #[test]
    fn region_classification() {
        let m = PopulationModel::world_bank_like();
        assert_eq!(
            m.region_of(&GeoPoint::from_degrees(39.9, 116.4)),
            Region::EuropeAsia
        );
        assert_eq!(
            m.region_of(&GeoPoint::from_degrees(40.7, -74.0)),
            Region::NorthAmerica
        );
        assert_eq!(
            m.region_of(&GeoPoint::from_degrees(-23.5, -46.6)),
            Region::SouthCentralAmerica
        );
        assert_eq!(m.region_of(&GeoPoint::from_degrees(6.5, 3.4)), Region::Africa);
        assert_eq!(
            m.region_of(&GeoPoint::from_degrees(-33.9, 151.2)),
            Region::Oceania
        );
        assert_eq!(
            m.region_of(&GeoPoint::from_degrees(-35.0, -140.0)),
            Region::Ocean
        );
    }

    /// The first-written classifier: nearest hotspot in σ units by
    /// full `central_angle`, if within 3σ.
    fn region_reference(m: &PopulationModel, p: &GeoPoint) -> Region {
        let mut best: Option<(f64, Region)> = None;
        for h in &m.hotspots {
            let d = h.center.central_angle(p) / h.sigma;
            if d <= 3.0 && best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, h.region));
            }
        }
        best.map_or(Region::Ocean, |(_, r)| r)
    }

    /// A hotspot at 80° N, 2.5° E whose 3σ cap (19.998°) holds the pole
    /// and all four corners of the candidate cell [80°, 85°] ×
    /// [−180°, −175°] (≤ 19.9952°) — but not that cell's middle, on the
    /// hotspot's antipodal meridian −177.5°, 20° away. The cell must not
    /// be pure.
    #[test]
    fn a_cell_holding_the_antipodal_meridian_is_not_pure() {
        let m = PopulationModel::from_hotspots(&[(80.0, 2.5, 1.0, 19.998 / 3.0, Region::Oceania)]);
        let middle = GeoPoint::from_degrees(80.0, -177.5);
        assert_eq!(region_reference(&m, &middle), Region::Ocean);
        assert_eq!(m.region_of(&middle), Region::Ocean);
        for lat in [80.0, 81.0, 82.5, 84.0, 85.0, 87.5, 90.0] {
            for k in 0..=40 {
                let p = GeoPoint::from_degrees(lat, -180.0 + k as f64 * 0.25);
                assert_eq!(m.region_of(&p), region_reference(&m, &p), "{p:?}");
            }
        }
    }

    /// Pure cells exist where one region's hotspot covers them, and
    /// every cell no box meets is `Ocean`.
    #[test]
    fn pure_cells_cover_the_hotspot_cores_and_the_empty_ocean() {
        let m = PopulationModel::world_bank_like();
        let cell = |lat: f64, lon: f64| {
            let row = ((lat + 90.0) / CANDIDATE_CELL_DEG) as usize;
            let col = ((lon + 180.0) / CANDIDATE_CELL_DEG) as usize;
            m.pure[row * CANDIDATE_COLS + col]
        };
        assert_eq!(cell(-12.5, -52.5), Some(Region::SouthCentralAmerica));
        assert_eq!(cell(-47.5, -137.5), Some(Region::Ocean));
        assert_eq!(cell(31.0, 39.0), None); // Egypt meets the Middle East
        for (&mask, &pure) in m.candidates.iter().zip(&m.pure) {
            if mask == 0 {
                assert_eq!(pure, Some(Region::Ocean));
            }
        }
    }

    #[test]
    fn region_index_is_the_position_in_all() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn sampling_respects_weights() {
        let m = PopulationModel::world_bank_like();
        let ues = m.sample_ues(20_000, 1);
        assert_eq!(ues.len(), 20_000);
        let eurasia = ues
            .iter()
            .filter(|p| m.region_of(p) == Region::EuropeAsia)
            .count() as f64
            / 20_000.0;
        // Europe & Asia holds the clear majority of subscriptions.
        assert!(eurasia > 0.5, "{eurasia}");
        let oceania = ues
            .iter()
            .filter(|p| m.region_of(p) == Region::Oceania)
            .count() as f64
            / 20_000.0;
        assert!(oceania < 0.05, "{oceania}");
    }

    /// The sampler as first written: one loop reading the stream as
    /// `gen::<f64>()` and computing each point in place.
    fn sample_ues_reference(m: &PopulationModel, n: usize, seed: u64) -> Vec<GeoPoint> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut x: f64 = rng.gen::<f64>() * m.total_weight;
                let mut chosen = m.hotspots.last().expect("non-empty");
                for h in &m.hotspots {
                    if x < h.weight {
                        chosen = h;
                        break;
                    }
                    x -= h.weight;
                }
                let (u1, u2): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
                let r = chosen.sigma * (-2.0 * u1.ln()).sqrt();
                let theta = TAU * u2;
                let dlat = r * theta.sin();
                let dlon = r * theta.cos() / chosen.center.lat.cos().max(0.2);
                let lat = (chosen.center.lat + dlat).clamp(-1.55, 1.55);
                GeoPoint::new(lat, chosen.center.lon + dlon)
            })
            .collect()
    }

    /// Draws + `point_of` reproduce the one-loop sampler bit for bit.
    #[test]
    fn split_sampler_matches_the_first_written_one() {
        let m = PopulationModel::world_bank_like();
        for (n, seed) in [(0, 0), (1, 7), (5_000, 0x5C_10AD), (20_001, u64::MAX)] {
            let bits = |ps: Vec<GeoPoint>| -> Vec<(u64, u64)> {
                ps.iter().map(|p| (p.lat.to_bits(), p.lon.to_bits())).collect()
            };
            assert_eq!(bits(m.sample_ues(n, seed)), bits(sample_ues_reference(&m, n, seed)));
        }
    }

    /// The hotspot pick as first written: subtract each weight until the
    /// remainder falls below the next one.
    fn pick_reference(m: &PopulationModel, mut x: f64) -> usize {
        for (k, h) in m.hotspots.iter().enumerate() {
            if x < h.weight {
                return k;
            }
            x -= h.weight;
        }
        m.hotspots.len() - 1
    }

    /// The count of cumulative weights picks what the subtract-and-break
    /// loop picks: at every cumulative weight and one ulp either side,
    /// at 0, just below and at the total, and on 10⁵ random draws.
    #[test]
    fn pick_by_count_matches_the_subtracting_loop() {
        let m = PopulationModel::world_bank_like();
        let total = m.total_weight();
        let mut xs = vec![0.0, total.next_down(), total];
        for &c in &m.cumulative {
            xs.extend([c.next_down(), c, c.next_up()]);
        }
        let mut rng = StdRng::seed_from_u64(0x91C4);
        xs.extend((0..100_000).map(|_| rng.gen::<f64>() * total));
        for x in xs {
            assert_eq!(m.pick(x), pick_reference(&m, x), "x = {x:e}");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative integers")]
    fn a_non_integral_weight_is_rejected() {
        PopulationModel::from_hotspots(&[
            (0.0, 0.0, 2.0, 5.0, Region::Africa),
            (10.0, 10.0, 1.5, 5.0, Region::Africa),
        ]);
    }

    /// A seek lands where reading and discarding as many words does,
    /// and later reads (mixed widths, across buffer refills) agree —
    /// including at word 63, where the unseeked stream's next `u64`
    /// straddles the generator's 64-word buffer.
    #[test]
    fn set_word_pos_equals_reading_and_discarding() {
        for k in [0u32, 1, 5, 15, 16, 63, 64, 65, 127, 1001] {
            let mut seeked = ChaCha12Rng::seed_from_u64(11);
            seeked.set_word_pos(u128::from(k));
            let mut read = StdRng::seed_from_u64(11);
            for _ in 0..k {
                read.next_u32();
            }
            for i in 0..150 {
                if i % 3 == 0 {
                    assert_eq!(seeked.next_u32(), read.next_u32(), "k={k} read {i}");
                } else {
                    assert_eq!(seeked.next_u64(), read.next_u64(), "k={k} read {i}");
                }
            }
        }
    }

    /// Seeking to UE `k` draws exactly what reading from UE 0 and
    /// skipping `k` draws gives, at random and unaligned `k` (the
    /// generator's 64-word buffer holds 10⅔ UEs).
    #[test]
    fn draws_at_equals_skipping_from_the_start() {
        let m = PopulationModel::world_bank_like();
        let mut state = 0x5EED_u64;
        for seed in [0, 7, u64::MAX] {
            let all: Vec<Draw> = m.draws(3_000, seed).collect();
            for _ in 0..24 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let k = (state >> 33) as usize % all.len();
                let got: Vec<Draw> = m.draws_at(seed, k).take(all.len() - k).collect();
                assert_eq!(got, all[k..], "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn sampling_deterministic() {
        let m = PopulationModel::world_bank_like();
        assert_eq!(m.sample_ues(100, 9), m.sample_ues(100, 9));
        assert_ne!(m.sample_ues(100, 9), m.sample_ues(100, 10));
    }

    #[test]
    fn coverage_fraction_bounded() {
        let m = PopulationModel::world_bank_like();
        let f = m.coverage_fraction(&GeoPoint::from_degrees(31.0, 112.0), 0.15);
        assert!(f > 0.0 && f <= 1.0, "{f}");
        let ocean = m.coverage_fraction(&GeoPoint::from_degrees(-40.0, -140.0), 0.15);
        assert!(ocean < f / 50.0, "ocean {ocean} vs china {f}");
    }

    #[test]
    fn all_samples_have_valid_latitudes() {
        let m = PopulationModel::world_bank_like();
        for p in m.sample_ues(5000, 3) {
            assert!(p.lat.abs() <= 1.56);
            assert!(p.lon.abs() <= PI + 1e-9);
        }
    }
}
