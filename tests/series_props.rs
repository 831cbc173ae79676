//! Invariance properties of the sc-obs/3 windowed time-series layer
//! (docs/TELEMETRY.md): the merged series must be byte-identical across
//! worker-thread counts, shard partitions (one item per child through
//! everything-in-one-child), and the granularity events are recorded at
//! — one `series_inc` per event versus one pre-bucketed
//! `series_inc_tick` per window, the `drain_until` batch shapes of the
//! mload/chaosload engines. Plus the window-edge cases: an event
//! landing exactly on a window boundary, a run confined to one window,
//! and an empty series. The reader side gets one law too: whatever
//! bytes `Sidecar::parse` is handed it returns, and what it accepts
//! every `sctrace` view renders.

use proptest::prelude::*;
use sc_obs::sidecar::Sidecar;
use sc_obs::trace::{render_series, TraceForest};
use sc_obs::{Recorder, SeriesSet, WINDOW_TICKS};

const NAMES: [&str; 2] = ["t.alpha_per_s", "t.beta_per_s"];

/// Record counter-series `ops` through `threads` workers over `shards`
/// input slots and return the merged snapshot bytes. Ops are dealt
/// round-robin across the slots — the adversarial partition for a merge
/// that must commute. (Counter series only: like plain gauges, gauge
/// series are last-write and therefore top-level-only under the
/// mload/chaosload shard-telemetry policy.)
fn merged_json(threads: usize, shards: usize, ops: &[(usize, u32, u64)]) -> String {
    let rec = Recorder::new();
    let mut slots: Vec<Vec<(usize, u32, u64)>> = vec![Vec::new(); shards];
    for (i, op) in ops.iter().enumerate() {
        slots[i % shards].push(*op);
    }
    sc_emu::engine::parallel_map_obs_with(threads, &rec, slots, |ops, child| {
        for &(name_idx, t_centi, by) in &ops {
            let t = f64::from(t_centi) / 100.0;
            child.series_inc(NAMES[name_idx % NAMES.len()], t, by);
        }
        ops.len()
    });
    rec.snapshot().to_json("series_props")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Counter series add elementwise, so any thread count over any
    /// shard partition merges to the same bytes. (Gauge series are
    /// last-write in slot order, which the fixed round-robin deal keeps
    /// deterministic too.)
    #[test]
    fn series_merge_is_thread_and_shard_invariant(
        ops in proptest::collection::vec((0usize..2, 0u32..2_000, 1u64..50), 1..120),
        shards in 1usize..24,
    ) {
        let reference = merged_json(1, 1, &ops);
        prop_assert_eq!(&reference, &merged_json(4, 1, &ops));
        prop_assert_eq!(&reference, &merged_json(1, shards, &ops));
        prop_assert_eq!(&reference, &merged_json(4, shards, &ops));
    }

    /// Recording granularity is invisible for counters: one
    /// `series_inc` per event produces the same series as one
    /// pre-bucketed `series_inc_tick` per window — the contract that
    /// lets `ext_mload` bill a whole drained batch at once while the
    /// DES bills per event.
    #[test]
    fn per_event_and_per_window_recording_agree(
        events in proptest::collection::vec((0u32..1_000, 1u64..20), 1..200),
    ) {
        let mut per_event = SeriesSet::default();
        let mut per_window: std::collections::BTreeMap<u64, u64> = Default::default();
        for &(t_centi, by) in &events {
            let t = f64::from(t_centi) / 100.0;
            per_event.inc("ev_per_s", t, by);
            *per_window.entry((u64::from(t_centi) * WINDOW_TICKS / 100) / WINDOW_TICKS)
                .or_default() += by;
        }
        let mut batched = SeriesSet::default();
        for (&w, &sum) in &per_window {
            batched.inc_tick("ev_per_s", w * WINDOW_TICKS, sum);
        }
        let a = per_event.get("ev_per_s").map(|d| d.points());
        let b = batched.get("ev_per_s").map(|d| d.points());
        prop_assert_eq!(a, b);
        prop_assert_eq!(per_event.dropped(), 0);
        prop_assert_eq!(batched.dropped(), 0);
    }
}

/// A small sidecar with every section populated: span trees three
/// deep, a counter series with a gap, a gauge series.
fn emitted_sidecar() -> String {
    let rec = Recorder::new();
    rec.inc("t.msgs", 7);
    rec.observe("t.delay_ms", 30.0);
    for p in 0..4u32 {
        let t = f64::from(p);
        let root = rec.span_open(None, "proc", t, vec![]);
        let step = rec.span_open(Some(root), "step", t, vec![]);
        rec.span(Some(step), "tx", t, t + 0.5, vec![]);
        rec.span_close(step, t + 0.5);
        rec.span_close(root, t + 1.0);
        rec.series_inc_tick(NAMES[0], u64::from(2 * p) * WINDOW_TICKS, 10 + u64::from(p));
    }
    rec.series_gauge_tick("t.depth", WINDOW_TICKS, 2.5);
    rec.snapshot().to_json("series_props")
}

/// Parse, and render every `sctrace` view of what parsed.
fn parse_and_render(input: &[u8]) {
    let Ok(sc) = Sidecar::parse(&String::from_utf8_lossy(input)) else {
        return;
    };
    let forest = TraceForest::build(&sc.spans);
    let _ = (
        render_series(&sc),
        forest.render_tree(),
        forest.render_critical_paths(),
        forest.render_folded(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile bytes neither hang nor abort the reader: arbitrary
    /// bytes, an emitted sidecar with 1–3 bytes overwritten, and one
    /// with 1–3 of its digits swapped for other digits — the edits that
    /// still parse (a span id repeated, a window far out), so they are
    /// the ones that reach the renderers.
    #[test]
    fn hostile_sidecars_parse_and_render(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        overwrites in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        digit_swaps in proptest::collection::vec((any::<usize>(), b'0'..b':'), 1..4),
    ) {
        parse_and_render(&noise);

        let emitted = emitted_sidecar().into_bytes();
        let mut bytes = emitted.clone();
        for (at, b) in overwrites {
            let at = at % bytes.len();
            bytes[at] = b;
        }
        parse_and_render(&bytes);

        let digits: Vec<usize> =
            (0..emitted.len()).filter(|&i| emitted[i].is_ascii_digit()).collect();
        let mut bytes = emitted;
        for (nth, d) in digit_swaps {
            bytes[digits[nth % digits.len()]] = d;
        }
        parse_and_render(&bytes);
    }
}

/// An event exactly on a window boundary opens the new window — the
/// half-open `[w, w+1)` convention of the DES `drain_until` batches.
#[test]
fn boundary_event_lands_in_the_new_window() {
    let mut s = SeriesSet::default();
    s.inc("x", 0.999_999, 1); // one tick short of the boundary
    s.inc("x", 1.0, 1); // exactly on it
    s.inc("x", 1.000_001, 1); // one tick past
    assert_eq!(
        s.get("x").map(|d| d.points()),
        Some(vec![(0, 1.0), (1, 2.0)])
    );
}

/// A run confined to a single window produces exactly one point, and a
/// recorder that never writes a series emits an empty section.
#[test]
fn sub_window_runs_and_empty_series() {
    let mut s = SeriesSet::default();
    for i in 0..10 {
        s.inc("x", 0.05 * f64::from(i), 1);
    }
    assert_eq!(s.get("x").map(|d| d.points()), Some(vec![(0, 10.0)]));

    let rec = Recorder::new();
    rec.inc("plain_counter", 1);
    let json = rec.snapshot().to_json("empty_series");
    assert!(json.contains("\"series\": {}"), "{json}");
    assert!(json.contains("\"series_dropped\": 0"), "{json}");
}
