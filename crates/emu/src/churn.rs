//! What the sharded load engines (`ext_mload`, `ext_chaosload`) share:
//! the placement stage ([`place`]) and the stateless churn-randomness
//! primitives.
//!
//! The engines' determinism contract — results and telemetry
//! byte-identical across `SC_EMU_THREADS` and shard counts — rests on
//! every random draw being a *pure hash* of `(seed, entity, draw#)`
//! rather than a stateful RNG: a UE's own events are totally ordered by
//! its shard's DES, so its draw counter sequence (and therefore every
//! value) is identical under any shard layout or thread schedule.

use sc_geo::cells::CellGrid;
use sc_geo::sphere::GeoPoint;
use spacecore::shard::{cell_index, ShardMap};

/// UEs per parallel placement chunk.
const PLACE_CHUNK: usize = 16_384;

/// The placement stage: pin every point to its cell and hand it to the
/// shard owning that cell, as a compact `(UE id, cell index)` record
/// (the id is the point's index — the hash-stream key). Cells are
/// computed in parallel over fixed-size id ranges; the scatter is serial
/// and walks ids upwards into exactly-sized vectors. **Ordering
/// contract:** `out[s]` lists shard `s`'s UEs in ascending id order for
/// every `threads` value — the order the engines seed their DES in, so
/// every byte of their artifacts rests on it. The engines build their
/// per-UE churn state from these records inside the shard worker.
pub fn place(
    threads: usize,
    points: &[GeoPoint],
    grid: &CellGrid,
    shard_map: &ShardMap,
) -> Vec<Vec<(u32, u32)>> {
    let chunks: Vec<&[GeoPoint]> = points.chunks(PLACE_CHUNK).collect();
    let cells = crate::engine::parallel_map_with(threads, chunks, |chunk| {
        chunk
            .iter()
            .map(|p| cell_index(grid, grid.cell_of_point(p)) as u32)
            .collect::<Vec<u32>>()
    });
    let owner: Vec<u32> = (0..shard_map.cells())
        .map(|c| shard_map.shard_of(c) as u32)
        .collect();
    let mut sizes = vec![0usize; shard_map.shards()];
    for &cell in cells.iter().flatten() {
        sizes[owner[cell as usize] as usize] += 1;
    }
    let mut out: Vec<Vec<(u32, u32)>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for (id, &cell) in cells.iter().flatten().enumerate() {
        out[owner[cell as usize] as usize].push((id as u32, cell));
    }
    out
}

/// splitmix64 finalizer: the stateless per-UE hash stream.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Uniform `[0, 1)` draw for `(seed, ue, draw#)` — a pure hash, so the
/// value depends only on the UE's own draw counter, never on which
/// shard or thread evaluates it.
pub fn ue_unit(seed: u64, ue: u32, draw: u32) -> f64 {
    let h = mix64(seed ^ mix64(((ue as u64) << 32) | draw as u64));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Exponential draw with mean `mean_s`, clamped to `floor_s` (the
/// engines pass their `MIN_DELAY_S` batch-window contract). The clamp
/// shifts < 1% of the mass for the ≥ 100 s means used here.
pub fn exp_clamped(mean_s: f64, u: f64, floor_s: f64) -> f64 {
    (-mean_s * (1.0 - u).max(1e-12).ln()).max(floor_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ue_unit_is_a_pure_function_of_the_key() {
        for (seed, ue, draw) in [(0u64, 0u32, 0u32), (7, 42, 9), (u64::MAX, u32::MAX, u32::MAX)] {
            assert_eq!(ue_unit(seed, ue, draw), ue_unit(seed, ue, draw));
            assert!((0.0..1.0).contains(&ue_unit(seed, ue, draw)));
        }
        assert_ne!(ue_unit(1, 2, 3), ue_unit(1, 2, 4));
        assert_ne!(ue_unit(1, 2, 3), ue_unit(1, 3, 3));
        assert_ne!(ue_unit(1, 2, 3), ue_unit(2, 2, 3));
    }

    #[test]
    fn exp_clamped_floors_at_the_batch_window() {
        assert_eq!(exp_clamped(100.0, 0.0, 1.0), 1.0);
        assert!(exp_clamped(100.0, 0.999, 0.25) > 100.0);
        for i in 0..1000 {
            assert!(exp_clamped(106.9, ue_unit(4, 1, i), 1.0) >= 1.0);
        }
    }
}
