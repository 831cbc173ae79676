//! Determinism and accounting of the chaos-under-load engine
//! (`sc_emu::ext_chaosload`): results and telemetry sidecars must be
//! byte-identical across worker-thread counts (`SC_EMU_THREADS`, passed
//! explicitly through `run_config_with`), also where the population
//! spans several of the engine's 16 384-UE chunks and a crash footprint
//! holds UEs of every chunk, and on generated failure timelines every
//! session a crash drops must be accounted for. (That the per-UE engine
//! equals one global calendar drained at any batch width, on fixed and
//! generated timelines, is the engine's own test: `sc_emu::churn`'s
//! oracle.)
//!
//! These are the contracts that let `scripts/tier1.sh` cmp the smoke
//! run's artifacts across thread counts, and let scbench `chaos-soak`
//! check every 2-thread million-UE repetition against its 1-thread
//! oracle.

use proptest::prelude::*;
use sc_emu::ext_chaosload::{run_config_with, ChaosloadConfig, MloadConfig};
use sc_netsim::chaos::FailureTimeline;
use sc_obs::Recorder;

/// A small-but-real chaos scenario: hundreds of UEs, a crash with a
/// mid-recovery re-crash, a loss burst over the outage, and a feeder
/// flap — every robustness path (drop, paced reattach, barred
/// admission, deferral, shed, burst loss) exercised in ~20 simulated
/// seconds.
fn small(total_ues: usize, seed: u64, crash_s: f64) -> ChaosloadConfig {
    let base = ChaosloadConfig::smoke();
    ChaosloadConfig {
        load: MloadConfig {
            total_ues,
            warmup_s: 3.0,
            measure_s: 17.0,
            seed,
            crossing_interval_s: 60.0,
        },
        timeline: FailureTimeline::none()
            .crash(crash_s * 1000.0, 5)
            .recover((crash_s + 1.5) * 1000.0, 5)
            .crash((crash_s + 2.0) * 1000.0, 5)
            .recover((crash_s + 3.0) * 1000.0, 5)
            .link_flap((crash_s + 6.0) * 1000.0, (crash_s + 8.0) * 1000.0, 20, 24)
            .loss_burst(crash_s * 1000.0, (crash_s + 3.0) * 1000.0, 0.25)
            .with_seed(seed ^ 0xC4A0_5EED),
        deadline_s: 10.0,
        ..base
    }
}

/// Run and capture both artifacts: the result JSON and the telemetry
/// sidecar bytes.
fn artifacts(threads: usize, cfg: &ChaosloadConfig) -> (String, String) {
    let obs = Recorder::new();
    let r = run_config_with(threads, &obs, cfg);
    (
        serde_json::to_string_pretty(&r).expect("serialize"),
        obs.snapshot().to_json("ext_chaosload"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `SC_EMU_THREADS` 1 vs 4: byte-identical results and telemetry
    /// for any population size and seed.
    #[test]
    fn thread_count_invisible_in_artifacts(
        total_ues in 50usize..400,
        seed in any::<u64>(),
    ) {
        let cfg = small(total_ues, seed, 6.0);
        let one = artifacts(1, &cfg);
        let four = artifacts(4, &cfg);
        prop_assert_eq!(&one.0, &four.0, "result JSON diverged");
        prop_assert_eq!(&one.1, &four.1, "telemetry sidecar diverged");
    }

    /// The chunking is an execution detail: a population of two or
    /// three chunks gives the one-worker bytes on any number of
    /// workers — every chunk replays the timeline, and the crashed
    /// footprint's UEs fall in every chunk.
    #[test]
    fn shard_count_invisible_in_artifacts(
        total_ues in 16_400usize..40_000,
        threads in 2usize..8,
        seed in any::<u64>(),
    ) {
        let serial = artifacts(1, &small(total_ues, seed, 6.0));
        let chunked = artifacts(threads, &small(total_ues, seed, 6.0));
        prop_assert_eq!(&serial.0, &chunked.0, "result JSON depends on the workers");
        prop_assert_eq!(&serial.1, &chunked.1, "telemetry depends on the workers");
    }

    /// Generated timelines — crash, recover and re-crash, feeder and
    /// inter-satellite flaps, nested loss bursts, markers on window
    /// edges and at identical quantized times, in the warm-up and at
    /// the horizon — on a population of two chunks: two workers give
    /// the one-worker bytes, and every crash row of the measured window
    /// accounts for each session it dropped, exactly.
    #[test]
    fn generated_timelines_keep_the_crash_accounting(
        ops in proptest::collection::vec(
            (any::<u8>(), 0usize..64, 0u32..85, 0u32..40, any::<bool>()),
            1..9,
        ),
        seed in any::<u64>(),
    ) {
        let cfg = ChaosloadConfig { timeline: timeline(&ops, seed), ..small(20_000, seed, 6.0) };
        let off = Recorder::disabled();
        let [serial, two] = [1, 2].map(|threads| run_config_with(threads, &off, &cfg));
        let json = |r| serde_json::to_string_pretty(r).expect("serialize");
        prop_assert_eq!(json(&serial), json(&two));
        for row in serial.crashes.iter().filter(|c| c.t_s >= cfg.load.warmup_s) {
            prop_assert_eq!(row.dropped, row.reestablished + row.lost + row.pending, "{:?}", row);
            prop_assert_eq!(row.reestablished, row.survived + row.late, "{:?}", row);
        }
    }
}

/// A timeline from generated `(kind, node, slot, len, early)` ops, over
/// quarter-second instants from 0 to 21 s (the warm-up edge at 3 s and
/// the horizon at 20 s among them), each optionally 1 µs early. Nodes
/// favour satellite 5, whose footprint is populated.
fn timeline(ops: &[(u8, usize, u32, u32, bool)], seed: u64) -> FailureTimeline {
    let at = |slot: u32, early: bool| {
        (f64::from(slot) * 250.0 - if early { 1e-3 } else { 0.0 }).max(0.0)
    };
    let tl = ops.iter().fold(FailureTimeline::none(), |tl, &(kind, node, slot, len, early)| {
        let sat = if node % 2 == 0 { 5 } else { node % 26 };
        let (t, end) = (at(slot, early), at(slot + len, false));
        match kind % 6 {
            0 => tl.crash(t, sat).recover(end, sat),
            1 => tl.crash(t, sat),
            2 => tl.link_flap(t, end, sat, 24),
            3 => tl.link_flap(t, end, sat, (sat + 1) % 24),
            4 => tl.loss_burst(t, end, (node % 10 + 1) as f64 / 10.0),
            _ => tl.recover(t, sat).dead_from_start(node % 30),
        }
    });
    tl.with_seed(seed ^ 0xC4A0_5EED)
}

/// The chaos scenario is a pure function of the seed: same seed → same
/// bytes on repeated runs, different seed → different outcome.
#[test]
fn chaos_outcome_deterministic_under_fixed_seed() {
    let cfg = small(300, 0xC0FFEE, 6.0);
    let a = artifacts(2, &cfg);
    let b = artifacts(2, &cfg);
    assert_eq!(a, b, "same seed must reproduce identical artifacts");
    let other = artifacts(2, &small(300, 0xC0FFEE + 1, 6.0));
    assert_ne!(a.0, other.0, "different seeds must produce different chaos outcomes");
}

/// Worker invariance holds at the chunk edges: a population of exactly
/// one chunk, one UE more, and exactly two chunks, on more workers than
/// there are chunks.
#[test]
fn shard_invariance_at_extremes() {
    for total_ues in [16_384, 16_385, 32_768] {
        let reference = artifacts(1, &small(total_ues, 7, 6.0));
        assert_eq!(reference, artifacts(7, &small(total_ues, 7, 6.0)), "total_ues={total_ues}");
    }
}

/// A crash scheduled exactly at the warmup edge and one at the horizon
/// edge don't wedge the accounting: the engine stays consistent
/// (dropped = survived + late + lost + pending).
#[test]
fn crash_at_measurement_edges_keeps_accounting_consistent() {
    for crash_s in [3.0, 18.5] {
        let r = run_config_with(2, &Recorder::disabled(), &small(300, 11, crash_s));
        let pending: u64 = r.crashes.iter().map(|c| c.pending).sum();
        assert_eq!(
            r.sessions_dropped,
            r.sessions_survived + r.sessions_late + r.sessions_lost + pending,
            "crash_s={crash_s}"
        );
    }
}
