//! Determinism of the sustained-load engine (`sc_emu::ext_mload`):
//! results and telemetry sidecars must be byte-identical across
//! worker-thread counts (`SC_EMU_THREADS`, passed explicitly through
//! `run_config_with`), also where the population spans several of the
//! engine's 16 384-UE chunks, and the churn schedule must be a pure
//! function of the seed. (That the per-UE engine equals one global
//! calendar is the engine's own test, `sc_emu::churn`'s oracle.)
//!
//! These are the contracts that let `scripts/tier1.sh` cmp the smoke
//! run's artifacts across thread counts, and let scbench `soak` check
//! every 2-thread million-UE repetition against its 1-thread oracle.

use proptest::prelude::*;
use sc_emu::ext_mload::{run_config_with, MloadConfig};
use sc_obs::Recorder;

/// A small-but-real config: hundreds of UEs, a few simulated seconds,
/// every churn path (arrival, piggyback, release, sweep, crossing)
/// exercised.
fn small(total_ues: usize, seed: u64) -> MloadConfig {
    MloadConfig {
        total_ues,
        warmup_s: 3.0,
        measure_s: 9.0,
        seed,
        crossing_interval_s: 60.0,
    }
}

/// Run and capture both artifacts: the result JSON and the telemetry
/// sidecar bytes.
fn artifacts(threads: usize, cfg: &MloadConfig) -> (String, String) {
    let obs = Recorder::new();
    let r = run_config_with(threads, &obs, cfg);
    (
        serde_json::to_string_pretty(&r).expect("serialize"),
        obs.snapshot().to_json("ext_mload"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `SC_EMU_THREADS` 1 vs 4: byte-identical results and telemetry
    /// for any population size and seed.
    #[test]
    fn thread_count_invisible_in_artifacts(
        total_ues in 50usize..600,
        seed in any::<u64>(),
    ) {
        let cfg = small(total_ues, seed);
        let one = artifacts(1, &cfg);
        let four = artifacts(4, &cfg);
        prop_assert_eq!(&one.0, &four.0, "result JSON diverged");
        prop_assert_eq!(&one.1, &four.1, "telemetry sidecar diverged");
    }

    /// The chunking is an execution detail: a population of two or
    /// three chunks, the last one ragged, gives the one-worker bytes on
    /// any number of workers, whichever chunk each one takes.
    #[test]
    fn shard_count_invisible_in_artifacts(
        total_ues in 16_400usize..40_000,
        threads in 2usize..8,
        seed in any::<u64>(),
    ) {
        let serial = artifacts(1, &small(total_ues, seed));
        let chunked = artifacts(threads, &small(total_ues, seed));
        prop_assert_eq!(&serial.0, &chunked.0, "result JSON depends on the workers");
        prop_assert_eq!(&serial.1, &chunked.1, "telemetry depends on the workers");
    }
}

/// The churn arrival schedule is a pure function of the seed: same seed
/// → same bytes on repeated runs, different seed → different churn.
#[test]
fn churn_schedule_deterministic_under_fixed_seed() {
    let cfg = small(400, 0xC0FFEE);
    let a = artifacts(2, &cfg);
    let b = artifacts(2, &cfg);
    assert_eq!(a, b, "same seed must reproduce identical artifacts");
    let other = artifacts(2, &small(400, 0xC0FFEE + 1));
    assert_ne!(a.0, other.0, "different seeds must produce different churn");
}

/// Worker invariance holds at the chunk edges: a population of exactly
/// one chunk, one UE more, and exactly two chunks, on more workers than
/// there are chunks.
#[test]
fn shard_invariance_at_extremes() {
    for total_ues in [16_384, 16_385, 32_768] {
        let reference = artifacts(1, &small(total_ues, 7));
        assert_eq!(reference, artifacts(7, &small(total_ues, 7)), "total_ues={total_ues}");
    }
}
