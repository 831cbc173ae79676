//! Snapshot stability of the sc-obs telemetry sidecars (docs/TELEMETRY.md).
//!
//! The schema's core promise is that telemetry never perturbs
//! determinism: for a fixed seed the serialized snapshot is
//! byte-identical across reruns and across `SC_EMU_THREADS` settings,
//! and an instrumented run produces the same figure output as an
//! uninstrumented one. `tests/results_stability.rs` pins fig10's and
//! ext_chaos's sidecars across 1 and 4 workers and against `results/`;
//! `SC_OBS=1 scripts/tier1.sh` checks the same property end-to-end for
//! the soak sidecars.

use sc_obs::Recorder;

/// Same seed, two runs: fig05's sidecar must be byte-identical, and the
/// instrumented run must not change the figure itself.
#[test]
fn fig05_telemetry_byte_identical_across_reruns() {
    let plain = sc_emu::fig05::run();

    let rec_a = Recorder::new();
    let r_a = sc_emu::fig05::run_obs(&rec_a);
    let rec_b = Recorder::new();
    let r_b = sc_emu::fig05::run_obs(&rec_b);

    assert_eq!(r_a.series.len(), plain.series.len());
    assert_eq!(r_b.series.len(), plain.series.len());

    let json_a = rec_a.snapshot().to_json("fig05");
    let json_b = rec_b.snapshot().to_json("fig05");
    assert!(!json_a.is_empty());
    assert_eq!(json_a, json_b, "fig05 telemetry differs across reruns");
}

/// One fig10 run spans the whole registry: at least ten distinct metric
/// names covering the netsim, fiveg, crypto, and spacecore layers
/// (acceptance floor from docs/TELEMETRY.md).
#[test]
fn fig10_telemetry_spans_layers_with_ten_plus_metrics() {
    let rec = Recorder::new();
    let _ = sc_emu::fig10::run_obs_with(2, &rec);
    let snap = rec.snapshot();

    let names = snap.metric_names();
    assert!(
        names.len() >= 10,
        "expected >= 10 distinct metrics, got {}: {names:?}",
        names.len()
    );
    for prefix in ["netsim.", "fiveg.", "crypto.", "spacecore.", "emu."] {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "no metric with prefix {prefix} in {names:?}"
        );
    }

    assert_eq!(snap.counter("emu.fig10.units"), 16);
    assert_eq!(snap.counter("emu.fig10.cells"), 64);
    assert!(snap.counter("fiveg.amf.registrations") >= 1);
    assert!(snap.counter("crypto.suci.concealments") >= 1);
    assert!(snap.counter("spacecore.satellite.local_establishments") >= 1);
    assert!(snap.counter("netsim.sim.procedures") >= 1);
    // The storm's windowed message series is present and non-empty.
    let c2 = snap
        .series
        .get("fiveg.msgs_per_window.c2_session_establishment")
        .map(|d| d.points());
    assert!(
        c2.is_some_and(|p| !p.is_empty()),
        "fig10 sidecar lacks the C2 msgs_per_window series"
    );
}

/// The acceptance contrast from docs/TELEMETRY.md: in fig10's sidecar,
/// the ground-routed C2 replay's critical path runs through a ≥ 30 ms
/// satellite↔ground transmission, while the satellite-local contrast
/// replay never waits on anything longer than its 2 ms radio leg —
/// exactly the asymmetry Figure 10 aggregates into rates.
#[test]
fn fig10_critical_path_contrasts_ground_vs_local_routes() {
    let rec = Recorder::new();
    let _ = sc_emu::fig10::run_obs_with(1, &rec);
    let json = rec.snapshot().to_json("fig10");
    let side = sc_obs::Sidecar::parse(&json).expect("sidecar parses");
    assert_eq!(side.schema, sc_obs::SCHEMA);
    assert_eq!(side.spans_dropped, 0, "storm miniature fits the span ring");
    assert!(!side.spans.is_empty());

    let forest = sc_obs::trace::TraceForest::build(&side.spans);
    let root_idx = |route: &str| {
        side.spans
            .iter()
            .position(|s| {
                s.kind == "fiveg.proc.c2_session_establishment"
                    && s.field("route") == Some(route)
            })
            .unwrap_or_else(|| panic!("no C2 root with route={route}"))
    };
    let longest_tx = |path: &[usize]| {
        path.iter()
            .filter_map(|i| side.spans.get(*i))
            .filter(|s| s.kind == "netsim.sim.tx")
            .filter_map(sc_obs::sidecar::SidecarSpan::duration)
            .fold(0.0f64, f64::max)
    };

    let ground = forest.critical_path(root_idx("ground"));
    let local = forest.critical_path(root_idx("local"));
    assert!(
        longest_tx(&ground) >= 30.0,
        "ground route's critical path should cross the 30 ms feeder link: {ground:?}"
    );
    let local_tx = longest_tx(&local);
    assert!(
        local_tx > 0.0 && local_tx <= 4.0,
        "local route should resolve over 2 ms radio hops, got {local_tx}"
    );

    let root_latency = |i: usize| side.spans[i].duration().unwrap_or(0.0);
    assert!(
        root_latency(root_idx("ground")) > root_latency(root_idx("local")),
        "ground-routed C2 must take longer end-to-end than the local one"
    );

    // The analyzer's renderings agree: the per-kind table lists the C2
    // roots and the folded stacks contain a ground-routed tx frame.
    let paths = forest.render_critical_paths();
    assert!(
        paths.contains("fiveg.proc.c2_session_establishment"),
        "{paths}"
    );
    let folded = forest.render_folded();
    assert!(
        folded
            .lines()
            .any(|l| l.contains("fiveg.proc.c2_session_establishment")
                && l.contains("netsim.sim.tx")),
        "{folded}"
    );
}

/// A disabled recorder records nothing and costs nothing: the default
/// (no `--obs-out`, no `SC_OBS`) path stays telemetry-free so regenerated
/// `results/` files are byte-identical to the pre-instrumentation build.
#[test]
fn disabled_recorder_stays_empty_through_a_full_run() {
    let rec = Recorder::disabled();
    let _ = sc_emu::fig05::run_obs(&rec);
    let _ = sc_emu::fig10::run_obs_with(2, &rec);
    assert!(rec.snapshot().is_empty());
}
