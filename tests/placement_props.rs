//! The placement stage that feeds both soaks, pinned to
//! the straightforward code it replaced:
//!
//! * `PopulationModel::region_of` answers from its 5° candidate cell's
//!   pure region when the cell has one; otherwise it looks up the
//!   hotspots the cell names and answers from lat/lon bounds alone
//!   when they settle it; otherwise it rejects far hotspots with
//!   one dot product against a cached unit vector, and answers without
//!   any `acos` when the hotspots left all share one region and one is
//!   clearly within 3σ. It must classify every point exactly as 20 full
//!   `central_angle` calls do — on sampled UEs and on the open sphere,
//!   on the 3σ decision boundary of every hotspot (also where the dot
//!   product sits within ulps of either margin), where hotspots of
//!   different regions overlap (Egypt ↔ Middle East) and of one region
//!   overlap (China ↔ India ↔ Indochina), on and beside the edges and
//!   corners of the candidate grid's cells, in the cells that hold a
//!   hotspot's antipodal meridian, and where lat/lon arithmetic is least
//!   forgiving (poles, the sampler's ±1.55 rad latitude clamp, the
//!   antimeridian).
//! * `CellGrid::cell_of_point` answers from its latitude strips; on the
//!   soaks' own 1 M UEs (release builds) it must equal the exact
//!   conversion, as `region_of` must equal the reference.
//! * The soaks never materialise the points: each chunk of UEs first
//!   runs `churn::placed`, a pass that draws the chunk's UEs from the
//!   population's seeked stream in stages over small batches (draws,
//!   points, cells, labels) into two flat per-chunk arrays, a cell and
//!   a label per UE; only then do the chunk's UEs run their events.
//!   Range after range, in any partition of the ids, at chunk lengths
//!   around the stage batch and the engine's chunk, and on any number
//!   of workers, the arrays must be what one serial pass over
//!   `sample_ues`'s points gives with `cell_of_point` and `region_of` —
//!   every UE's hash-stream key is its id, so the engines'
//!   byte-stable artifacts rest on that order.

use proptest::prelude::*;
use sc_dataset::population::{PopulationModel, Region, CANDIDATE_CELL_DEG};
use sc_emu::churn::{placed, CHUNK, PLACE_BATCH};
use sc_geo::cells::CellGrid;
use sc_geo::sphere::GeoPoint;
use spacecore::shard::cell_index;
use std::f64::consts::{FRAC_PI_2, PI};

/// The classifier as first written: every hotspot pays a full
/// `central_angle`; nearest in σ units wins if within 3σ.
fn region_of_reference(m: &PopulationModel, p: &GeoPoint) -> Region {
    let mut best: Option<(f64, Region)> = None;
    for (center, sigma, region) in m.hotspots() {
        let d = center.central_angle(p) / sigma;
        if d <= 3.0 && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, region));
        }
    }
    best.map_or(Region::Ocean, |(_, r)| r)
}

/// `x` moved by `ulps` representable steps (negative: downwards).
fn nudge(x: f64, ulps: i32) -> f64 {
    let step = if ulps < 0 { f64::next_down } else { f64::next_up };
    (0..ulps.unsigned_abs()).fold(x, |x, _| step(x))
}

/// The point at central angle `r` from `from` along `bearing`.
fn offset(from: &GeoPoint, r: f64, bearing: f64) -> GeoPoint {
    let (slat, clat) = from.lat.sin_cos();
    let (sr, cr) = r.sin_cos();
    let sin_lat = (slat * cr + clat * sr * bearing.cos()).clamp(-1.0, 1.0);
    let dlon = (bearing.sin() * sr * clat).atan2(cr - slat * sin_lat);
    GeoPoint::new(sin_lat.asin(), from.lon + dlon)
}

proptest! {
    #[test]
    fn region_of_matches_reference_on_the_sphere(z in -1.0f64..1.0, lon in -PI..PI) {
        let m = PopulationModel::world_bank_like();
        let p = GeoPoint::new(z.asin(), lon);
        prop_assert_eq!(m.region_of(&p), region_of_reference(&m, &p), "{:?}", p);
    }

    /// A batch of sampled UEs — the soaks' own input, most of which the
    /// candidate grid answers — and a batch of uniform-sphere points.
    #[test]
    fn region_of_matches_reference_on_sampled_and_uniform_points(
        seed in any::<u64>(),
        uniform in proptest::collection::vec((-1.0f64..1.0, -PI..PI), 500),
    ) {
        let m = PopulationModel::world_bank_like();
        for p in m.sample_ues(2_000, seed) {
            prop_assert_eq!(m.region_of(&p), region_of_reference(&m, &p), "{:?}", p);
        }
        for (z, lon) in uniform {
            let p = GeoPoint::new(z.asin(), lon);
            prop_assert_eq!(m.region_of(&p), region_of_reference(&m, &p), "{:?}", p);
        }
    }

    /// Rings at 3σ·(1 ± ε) around every hotspot: the fast reject must
    /// never drop a hotspot the exact `d <= 3.0` test would keep.
    #[test]
    fn region_of_matches_reference_on_the_3_sigma_boundary(bearing in 0.0f64..(2.0 * PI)) {
        let m = PopulationModel::world_bank_like();
        for (center, sigma, _) in m.hotspots() {
            for eps in [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6] {
                let p = offset(&center, 3.0 * sigma * (1.0 + eps), bearing);
                prop_assert_eq!(
                    m.region_of(&p),
                    region_of_reference(&m, &p),
                    "hotspot {:?} eps {} bearing {}", center, eps, bearing
                );
            }
        }
    }

    /// Points at the `acos` of dot products within 4 ulps of `cos 3σ`,
    /// `cos 3σ − 1e-9` (the reject margin) and `cos 3σ + 1e-9` (the
    /// accept margin) from a hotspot's centre; placing them rounds by a
    /// few ulps more, so the points straddle each threshold.
    #[test]
    fn region_of_matches_reference_at_the_dot_product_margins(bearing in 0.0f64..(2.0 * PI)) {
        let m = PopulationModel::world_bank_like();
        for (center, sigma, _) in m.hotspots() {
            let c = (3.0 * sigma).cos();
            for target in [c, c - 1e-9, c + 1e-9] {
                for ulps in -4..=4 {
                    let dot = nudge(target, ulps);
                    let p = offset(&center, dot.acos(), bearing);
                    prop_assert_eq!(
                        m.region_of(&p),
                        region_of_reference(&m, &p),
                        "hotspot {:?} dot {} bearing {}", center, dot, bearing
                    );
                }
            }
        }
    }

    /// Points strewn between hotspots whose 3σ discs overlap: Egypt
    /// (Africa) and the Middle East (Europe & Asia), where the nearest
    /// one in σ units decides; and eastern China, India and Indochina,
    /// all Europe & Asia, where the one-region answer needs no distance.
    #[test]
    fn region_of_matches_reference_where_hotspots_overlap(
        a in 0.0f64..1.0, b in 0.0f64..1.0, spread in 0.0f64..0.2, bearing in 0.0f64..(2.0 * PI),
    ) {
        let m = PopulationModel::world_bank_like();
        let at = |lat: f64, lon: f64| GeoPoint::from_degrees(lat, lon);
        let mix = |p: GeoPoint, q: GeoPoint, w: f64| {
            GeoPoint::new(p.lat + w * (q.lat - p.lat), p.lon + w * (q.lon - p.lon))
        };
        let (egypt, middle_east) = (at(30.0, 30.0), at(33.0, 48.0));
        let (china, india, indochina) = (at(31.0, 112.0), at(23.0, 80.0), at(16.0, 102.0));
        for p in [
            mix(egypt, middle_east, a),
            mix(mix(china, india, a), indochina, b),
        ] {
            let p = offset(&p, spread, bearing);
            prop_assert_eq!(m.region_of(&p), region_of_reference(&m, &p), "{:?}", p);
        }
    }

    /// Cells in id order equal the serial pass for any partition of
    /// the ids into about `parts` ranges — one range, a ragged last
    /// range, and an empty one at the end.
    #[test]
    fn place_matches_serial_pass(n in 0usize..50_000, parts in 1usize..33, seed in any::<u64>()) {
        let grid = CellGrid::new(53f64.to_radians(), 72, 22);
        let pop = PopulationModel::world_bank_like();
        let want: Vec<u32> = pop
            .sample_ues(n, seed)
            .iter()
            .map(|p| cell_index(&grid, grid.cell_of_point(p)) as u32)
            .collect();
        let got: Vec<u32> = ranges(n, n.div_ceil(parts).max(1))
            .into_iter()
            .chain(std::iter::once(n..n))
            .flat_map(|ids| place(&pop, seed, &grid, &|_| 0, ids).0)
            .collect();
        prop_assert_eq!(&got, &want, "parts={}", parts);
    }
}

/// `0..n` cut into consecutive ranges of `len` (the last one ragged).
fn ranges(n: usize, len: usize) -> Vec<std::ops::Range<usize>> {
    (0..n).step_by(len).map(|first| first..n.min(first + len)).collect()
}

proptest! {
    // Half the default case count: each case classifies every point
    // twice, which dominates this file's debug-build time.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Placement from per-chunk streamed draws, chunks of `1 + n /
    /// parts` UEs spread over `threads` workers, equals placement of the
    /// sampled points, labels included.
    #[test]
    fn placement_from_draws_matches_placement_of_sampled_points(
        n in 0usize..50_000,
        parts in 1usize..33,
        seed in any::<u64>(),
        threads in 1usize..8,
    ) {
        let grid = CellGrid::new(53f64.to_radians(), 72, 22);
        let pop = PopulationModel::world_bank_like();
        let got = placed_in_chunks(&pop, seed, &grid, n, 1 + n / parts, threads);
        prop_assert_eq!(got, serial(&pop, seed, &grid, n), "threads={} parts={}", threads, parts);
    }
}

/// The region label both soaks' per-class tallies read.
fn region(pop: &PopulationModel, p: &GeoPoint) -> u8 {
    pop.region_of(p).index() as u8
}

/// The serial reference: `n` sampled points, each placed by
/// `cell_of_point` and labelled by `region_of`.
fn serial(pop: &PopulationModel, seed: u64, grid: &CellGrid, n: usize) -> (Vec<u32>, Vec<u8>) {
    let points = pop.sample_ues(n, seed);
    (
        points.iter().map(|p| cell_index(grid, grid.cell_of_point(p)) as u32).collect(),
        points.iter().map(|p| region(pop, p)).collect(),
    )
}

/// The placement pass over UEs `ids` into two fresh arrays.
fn place(
    pop: &PopulationModel,
    seed: u64,
    grid: &CellGrid,
    label: &(dyn Fn(&GeoPoint) -> u8 + Sync),
    ids: std::ops::Range<usize>,
) -> (Vec<u32>, Vec<u8>) {
    let (mut cells, mut labels) = (vec![0; ids.len()], vec![0; ids.len()]);
    placed(pop, seed, grid, label, ids.start, &mut cells, &mut labels);
    (cells, labels)
}

/// The placement pass over `0..n` in chunks of `len` UEs on `threads`
/// workers, each chunk's two arrays appended in id order.
fn placed_in_chunks(
    pop: &PopulationModel,
    seed: u64,
    grid: &CellGrid,
    n: usize,
    len: usize,
    threads: usize,
) -> (Vec<u32>, Vec<u8>) {
    let label = |p: &GeoPoint| region(pop, p);
    let chunks = sc_emu::engine::parallel_map_with(threads, ranges(n, len), |ids| {
        place(pop, seed, grid, &label, ids)
    });
    chunks.into_iter().fold((vec![], vec![]), |(mut cells, mut labels), (c, l)| {
        cells.extend(c);
        labels.extend(l);
        (cells, labels)
    })
}

/// Chunks of 1, B − 1, B, B + 1 UEs for the stage batch B, and of the
/// engine's chunk and one more: chunks of whole batches, of a ragged
/// last batch, and of both, most of them starting off the batch grid
/// of the ids before them, and a ragged last chunk.
#[test]
fn placement_matches_the_serial_pass_at_chunk_lengths_around_the_batch() {
    let grid = CellGrid::new(53f64.to_radians(), 72, 22);
    let pop = PopulationModel::world_bank_like();
    for len in [1, PLACE_BATCH - 1, PLACE_BATCH, PLACE_BATCH + 1, CHUNK, CHUNK + 1] {
        let n = (3 * len + 5).min(2 * CHUNK + 7);
        for (seed, threads) in [(0, 1), (0x5C_10AD, 2), (u64::MAX, 3)] {
            let got = placed_in_chunks(&pop, seed, &grid, n, len, threads);
            assert_eq!(got, serial(&pop, seed, &grid, n), "len {len} seed {seed}");
        }
    }
}

/// Every corner and edge of the candidate grid, and the floats within
/// 2 ulps of it: a point on a cell edge may be filed under either
/// neighbour, so each must name every hotspot the point could be near.
/// The latitude rows run through ±1.55 rad (the sampler's clamp) and the
/// poles, the columns through ±π.
#[test]
fn region_of_matches_reference_on_candidate_cell_edges() {
    let m = PopulationModel::world_bank_like();
    let step = CANDIDATE_CELL_DEG.to_radians();
    let rows = (180.0 / CANDIDATE_CELL_DEG) as usize;
    let cols = (360.0 / CANDIDATE_CELL_DEG) as usize;
    let mut lats: Vec<f64> = (0..=rows).map(|r| -FRAC_PI_2 + r as f64 * step).collect();
    lats.extend((0..=rows).map(|r| (r as f64 * CANDIDATE_CELL_DEG - 90.0).to_radians()));
    lats.extend([1.55, -1.55]);
    let mut lons: Vec<f64> = (0..=cols).map(|c| -PI + c as f64 * step).collect();
    lons.extend((0..=cols).map(|c| (c as f64 * CANDIDATE_CELL_DEG - 180.0).to_radians()));
    for &lat in &lats {
        for ulps in -2..=2 {
            let lat = nudge(lat, ulps).clamp(-FRAC_PI_2, FRAC_PI_2);
            for &lon in &lons {
                // Along the edge's own row and halfway into the cell.
                for lon in [nudge(lon, ulps), lon + 0.5 * step] {
                    let p = GeoPoint::new(lat, lon);
                    assert_eq!(m.region_of(&p), region_of_reference(&m, &p), "{p:?}");
                }
            }
        }
    }
    for &lon in &lons {
        for ulps in -2..=2 {
            for k in 0..rows {
                let p = GeoPoint::new(-FRAC_PI_2 + (k as f64 + 0.5) * step, nudge(lon, ulps));
                assert_eq!(m.region_of(&p), region_of_reference(&m, &p), "{p:?}");
            }
        }
    }
}

#[test]
fn region_of_matches_reference_at_poles_and_antimeridian() {
    let m = PopulationModel::world_bank_like();
    let lats = [
        FRAC_PI_2,
        -FRAC_PI_2,
        FRAC_PI_2 - 1e-12,
        -FRAC_PI_2 + 1e-12,
        1.55,
        -1.55,
    ];
    for lat in lats {
        for k in 0..72 {
            let p = GeoPoint::new(lat, -PI + k as f64 * (2.0 * PI / 72.0));
            assert_eq!(m.region_of(&p), region_of_reference(&m, &p), "{p:?}");
        }
    }
    for lon in [PI, -PI, PI - 1e-12, -PI + 1e-12, PI + 1e-9] {
        for k in 0..=180 {
            let p = GeoPoint::new((k as f64 - 90.0).to_radians(), lon);
            assert_eq!(m.region_of(&p), region_of_reference(&m, &p), "{p:?}");
        }
    }
}

/// The candidate grid's lattice: `(latitudes, longitudes)` of every
/// cell edge, south pole and −π first.
fn candidate_edges() -> (Vec<f64>, Vec<f64>) {
    let step = CANDIDATE_CELL_DEG.to_radians();
    let rows = (180.0 / CANDIDATE_CELL_DEG) as usize;
    let cols = (360.0 / CANDIDATE_CELL_DEG) as usize;
    (
        (0..=rows).map(|r| -FRAC_PI_2 + r as f64 * step).collect(),
        (0..=cols).map(|c| -PI + c as f64 * step).collect(),
    )
}

/// Every corner of every candidate cell, moved by up to 2 ulps in
/// latitude and longitude independently: a cell answered from its pure
/// region must be held within 3σ up to its corners, and a corner point
/// may be filed under any of the four cells that meet there.
#[test]
fn region_of_matches_reference_at_candidate_cell_corners() {
    let m = PopulationModel::world_bank_like();
    let (lats, lons) = candidate_edges();
    for &lat in &lats {
        for &lon in &lons {
            for dlat in -2..=2 {
                for dlon in -2..=2 {
                    let lat = nudge(lat, dlat).clamp(-FRAC_PI_2, FRAC_PI_2);
                    let p = GeoPoint { lat, lon: nudge(lon, dlon) };
                    assert_eq!(m.region_of(&p), region_of_reference(&m, &p), "{p:?}");
                }
            }
        }
    }
}

/// The candidate cells whose longitudes hold a hotspot's antipodal
/// meridian, where the farthest point of a cell from the hotspot need
/// not be a corner: a lattice of points over each such column, the
/// antipodal meridian itself included.
#[test]
fn region_of_matches_reference_in_cells_holding_an_antipodal_meridian() {
    let m = PopulationModel::world_bank_like();
    let step = CANDIDATE_CELL_DEG.to_radians();
    for (center, _, _) in m.hotspots() {
        let antipode = sc_geo::angle::normalize_lon(center.lon + PI);
        let col_lo = -PI + ((antipode + PI) / step).floor() * step;
        for k in 0..=180 {
            let lat = (-FRAC_PI_2 + k as f64 * (step / 5.0)).min(FRAC_PI_2);
            for lon in (0..=8).map(|j| col_lo + j as f64 * step / 8.0).chain([antipode]) {
                let p = GeoPoint::new(lat, lon);
                assert_eq!(m.region_of(&p), region_of_reference(&m, &p), "{p:?}");
            }
        }
    }
}

/// A lattice over the cells between Egypt (Africa) and the Middle East
/// (Europe & Asia), whose 3σ discs overlap: no cell there is pure, and
/// the nearest hotspot in σ units decides point by point.
#[test]
fn region_of_matches_reference_where_egypt_meets_the_middle_east() {
    let m = PopulationModel::world_bank_like();
    let fine = CANDIDATE_CELL_DEG / 8.0;
    for i in 0..=(35.0 / fine) as usize {
        for j in 0..=(50.0 / fine) as usize {
            let p = GeoPoint::from_degrees(15.0 + i as f64 * fine, 15.0 + j as f64 * fine);
            assert_eq!(m.region_of(&p), region_of_reference(&m, &p), "{p:?}");
        }
    }
}

/// The soaks' own population — 1 M UEs of the default seed — placed by
/// the strip table and labelled by the candidate grid, against the
/// exact conversion and the 20-`central_angle` reference, UE by UE; and
/// the placement pass's two arrays, chunk by chunk as the soaks run it,
/// against the serial `sample_ues` → `cell_of_point` / `region_of`.
/// Release builds only: in a debug build it takes minutes.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn default_seed_population_places_and_labels_exactly() {
    let grid = CellGrid::new(53f64.to_radians(), 72, 22);
    let m = PopulationModel::world_bank_like();
    let seed = sc_emu::ext_mload::MloadConfig::full().seed;
    let n = 1_000_000;
    let (cells, labels) = placed_in_chunks(&m, seed, &grid, n, CHUNK, 2);
    for (id, p) in m.sample_ues(n, seed).iter().enumerate() {
        let exact = grid.cell_of_coord(grid.frame().from_geo_clamped(p));
        assert_eq!(grid.cell_of_point(p), exact, "UE {id} {p:?}");
        assert_eq!(m.region_of(p), region_of_reference(&m, p), "UE {id} {p:?}");
        assert_eq!(cells[id], cell_index(&grid, exact) as u32, "UE {id} {p:?}");
        assert_eq!(labels[id], region(&m, p), "UE {id} {p:?}");
    }
}
