#!/usr/bin/env sh
# Tier-1 verification (ROADMAP.md): release build + quiet test run.
# Through the root manifest's `default-members` both cover the root
# package and every crate under crates/ — every test of the workspace
# but the vendor/ stubs' own.
#
# Runs with --offline: every external dependency is vendored under
# vendor/ (see vendor/README.md), so the build must never touch a
# registry. Extra arguments go to `cargo test`.
set -eu

cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release --offline" >&2
cargo build --release --offline

echo "== tier-1: cargo test -q --offline $*" >&2
cargo test -q --offline "$@"

# The pinned crypto bytes and the per-establishment allocation budget
# once more under the release profile (fat LTO): the optimised build
# inlines and vectorises the payload pass differently from the debug
# build the run above tests, and it is the build every number is
# measured on.
echo "== tier-1: cargo test --release --offline -q --test crypto_golden_bytes --test alloc_budget" >&2
cargo test --release --offline -q --test crypto_golden_bytes --test alloc_budget

# `cargo test` compiles the examples but never runs them; run the one
# whose asserts pin the executed counts to the Fig. 16 step tables.
echo "== tier-1: cargo run --release --offline --example quickstart" >&2
cargo run -q --release --offline --example quickstart >/dev/null

# Statelessness/determinism audit, warn-only at this tier: R2 token
# findings, R4 state-flow and R5 parallel-determinism dataflow findings,
# R6 orphan modules and R3 ratchet regressions are printed but do not
# fail the build. scripts/audit.sh is the fatal gate.
echo "== tier-1: sc-audit (warn-only; scripts/audit.sh enforces)" >&2
cargo run -q -p sc-audit --offline -- --warn-only || true

# The experiment gates below all call the one sc-emu binary, built once
# here, through scemu(): `scemu <threads> <args…>` runs it from a scratch
# directory (so the checkout's results/ is never written) with
# SC_EMU_THREADS=<threads> ("" leaves the caller's setting), stdout
# dropped. A run's results/<name>.json lands in $RUN_TMP/results/.
obs_on() { [ "${SC_OBS:-0}" != "0" ] && [ -n "${SC_OBS:-}" ]; }
if [ "${SC_NO_RATCHET:-0}" = "0" ] || obs_on; then
    echo "== tier-1: cargo build --release --offline -p sc-emu --bin scemu" >&2
    cargo build -q --release --offline -p sc-emu --bin scemu
    SCEMU="$PWD/target/release/scemu"
    RUN_TMP="$(mktemp -d)"
    trap 'rm -rf "$RUN_TMP"' EXIT
fi
scemu() {
    ( cd "$RUN_TMP" && { [ -z "$1" ] || export SC_EMU_THREADS="$1"; } && \
      shift && "$SCEMU" "$@" >/dev/null )
}

# Perf-ratchet (opt-out: SC_NO_RATCHET=1). Regenerate the fig10 sc-obs
# sidecar deterministically (threads=1 — spans record *simulated* time,
# so the file is byte-stable and a checked-in baseline is meaningful)
# and gate span regressions against perf/fig10.telemetry.baseline.json
# with `sctrace diff --fail-on-regress`. 5% headroom: simulated span
# durations only move when modeled behavior changes, and small modeled
# shifts should not block unrelated work; anything larger is either a
# real regression or an intentional change that must regenerate the
# baseline (see perf/README.md).
if [ "${SC_NO_RATCHET:-0}" = "0" ]; then
    echo "== tier-1: perf-ratchet (sctrace diff vs perf/fig10.telemetry.baseline.json)" >&2
    scemu 1 fig10 --obs-out "$RUN_TMP/fig10.telemetry.json"
    cargo run -q --release --offline -p sc-obs --bin sctrace -- \
        diff perf/fig10.telemetry.baseline.json "$RUN_TMP/fig10.telemetry.json" \
        --fail-on-regress 5 >&2 || {
        echo "== tier-1: FAIL — perf-ratchet: fig10 span regression vs checked-in baseline" >&2
        echo "           (intentional change? regenerate per perf/README.md; bypass: SC_NO_RATCHET=1)" >&2
        exit 1
    }
    echo "== tier-1: perf-ratchet clean (--fail-on-regress 5)" >&2
fi

# Opt-in telemetry determinism check (SC_OBS=1 scripts/tier1.sh): run
# fig05 and fig10 with the sc-obs sidecar enabled, twice and under
# different thread counts, and require byte-identical telemetry.json.
# See docs/TELEMETRY.md for the schema.
if obs_on; then
    echo "== tier-1: SC_OBS telemetry determinism (fig05, fig10)" >&2
    for exp in fig05 fig10; do
        scemu 1 "$exp" --obs-out "$RUN_TMP/$exp.t1.json"
        scemu 1 "$exp" --obs-out "$RUN_TMP/$exp.t1b.json"
        scemu 4 "$exp" --obs-out "$RUN_TMP/$exp.t4.json"
        cmp "$RUN_TMP/$exp.t1.json" "$RUN_TMP/$exp.t1b.json" || {
            echo "== tier-1: FAIL — $exp telemetry differs across reruns" >&2; exit 1; }
        cmp "$RUN_TMP/$exp.t1.json" "$RUN_TMP/$exp.t4.json" || {
            echo "== tier-1: FAIL — $exp telemetry differs across thread counts" >&2; exit 1; }
        echo "== tier-1: $exp telemetry byte-stable (reruns, threads 1 vs 4)" >&2
    done

    # Causal spans + cross-run diff gate: fig10's sidecar must carry the
    # storm miniature's traced C2 replays ("spans" section), and
    # `sctrace diff` of a byte-identical rerun pair must gate zero
    # regressions at the tightest threshold.
    grep -q '"spans"' "$RUN_TMP/fig10.t1.json" || {
        echo "== tier-1: FAIL — fig10 sidecar has no spans section" >&2; exit 1; }
    echo "== tier-1: sctrace critical-path (fig10)" >&2
    cargo run -q --release --offline -p sc-obs --bin sctrace -- \
        critical-path "$RUN_TMP/fig10.t1.json" >&2
    cargo run -q --release --offline -p sc-obs --bin sctrace -- \
        diff "$RUN_TMP/fig10.t1.json" "$RUN_TMP/fig10.t1b.json" --fail-on-regress 0 >&2 || {
        echo "== tier-1: FAIL — sctrace diff gated a regression between identical reruns" >&2
        exit 1; }
    echo "== tier-1: sctrace diff gate clean (rerun pair, --fail-on-regress 0)" >&2

    # Chaos experiment: the result JSON and the telemetry sidecar must
    # both be byte-identical across thread counts (the timeline replay,
    # burst draws, and per-cell recorders are all seeded + slot-merged)
    # and equal to the checked-in golden pair. The sidecar carries every
    # traced transmission's `hops`, the netsim.sim.* / netsim.chaos.*
    # counters and the chaos events, so a route that differs from a
    # fresh Dijkstra's shows here.
    echo "== tier-1: ext_chaos result/telemetry byte-stability (threads 1 vs 4, vs results/)" >&2
    for t in 1 4; do
        scemu $t ext_chaos --obs-out "$RUN_TMP/ext_chaos.t$t.json"
        cp "$RUN_TMP/results/ext_chaos.json" "$RUN_TMP/ext_chaos.r$t.json"
    done
    cmp "$RUN_TMP/ext_chaos.r1.json" "$RUN_TMP/ext_chaos.r4.json" || {
        echo "== tier-1: FAIL — ext_chaos results differ across thread counts" >&2; exit 1; }
    cmp "$RUN_TMP/ext_chaos.t1.json" "$RUN_TMP/ext_chaos.t4.json" || {
        echo "== tier-1: FAIL — ext_chaos telemetry differs across thread counts" >&2; exit 1; }
    cmp "$RUN_TMP/ext_chaos.r1.json" results/ext_chaos.json || {
        echo "== tier-1: FAIL — ext_chaos run differs from results/ext_chaos.json" >&2; exit 1; }
    cmp "$RUN_TMP/ext_chaos.t1.json" results/ext_chaos.telemetry.json || {
        echo "== tier-1: FAIL — ext_chaos run differs from results/ext_chaos.telemetry.json" >&2; exit 1; }
    echo "== tier-1: ext_chaos byte-stable (results + telemetry, threads 1 vs 4) and equal to results/" >&2

    # Sustained-load engine, bounded smoke configs (seconds, not the
    # million-UE soaks: scbench times those, tests/churn_equivalence.rs their SLOs).
    # ext_mload: per-shard recorders are merged in slot order and every
    # reported quantity is shard-additive. ext_chaosload: the
    # fault-injected soak (satellite crash + mid-recovery re-crash,
    # feeder flap, loss burst) drives paced reattach storms, admission
    # barring and overload deferral across shard boundaries — every one
    # of those draws is keyed by (seed, ue, attempt) and chaos markers
    # replay per shard. So for both, the result JSON and the telemetry
    # sidecar must be byte-identical across thread counts. Threads 3 as
    # well as 4: the smoke population is two placement chunks, the
    # second ragged, and an odd worker count leaves both the chunks and
    # the 8 shards unevenly divided.
    for exp in ext_mload ext_chaosload; do
        echo "== tier-1: $exp --smoke result/telemetry byte-stability (threads 1 vs 3 vs 4)" >&2
        for t in 1 3 4; do
            scemu $t "$exp" --smoke --obs-out "$RUN_TMP/$exp.t$t.json"
            cp "$RUN_TMP/results/$exp.json" "$RUN_TMP/$exp.r$t.json"
        done
        for t in 3 4; do
            cmp "$RUN_TMP/$exp.r1.json" "$RUN_TMP/$exp.r$t.json" || {
                echo "== tier-1: FAIL — $exp results differ across thread counts (1 vs $t)" >&2; exit 1; }
            cmp "$RUN_TMP/$exp.t1.json" "$RUN_TMP/$exp.t$t.json" || {
                echo "== tier-1: FAIL — $exp telemetry differs across thread counts (1 vs $t)" >&2; exit 1; }
        done
        echo "== tier-1: $exp byte-stable (results + telemetry, threads 1 vs 3 vs 4)" >&2
    done

    # Golden artifacts: the full soaks must regenerate the checked-in
    # results and sidecars byte for byte (the smoke cmps above compare
    # runs with each other, never with results/).
    for exp in ext_mload ext_chaosload; do
        scemu "" "$exp" --obs-out "$RUN_TMP/$exp.full.telemetry.json"
        cmp "$RUN_TMP/results/$exp.json" "results/$exp.json" || {
            echo "== tier-1: FAIL — $exp full run differs from results/$exp.json" >&2; exit 1; }
        cmp "$RUN_TMP/$exp.full.telemetry.json" "results/$exp.telemetry.json" || {
            echo "== tier-1: FAIL — $exp full run differs from results/$exp.telemetry.json" >&2; exit 1; }
    done
    echo "== tier-1: ext_mload, ext_chaosload full runs equal the checked-in results + sidecars" >&2

    # Windowed time-series layer (sc-obs/3): the cmp checks above already
    # prove the "series" section byte-stable across thread counts; here,
    # require that the load-engine sidecars actually carry their windowed
    # series (an empty section would make those cmps vacuous), and smoke
    # the `sctrace series` analytics over the storm-shaped chaosload run.
    for pair in "ext_mload.t1.json:emu.mload.events_per_s" \
                "ext_chaosload.t1.json:emu.chaosload.rereg_storm_per_s" \
                "fig10.t1.json:fiveg.msgs_per_window.c2_session_establishment"; do
        side="${pair%%:*}"; name="${pair#*:}"
        grep -q "\"$name\"" "$RUN_TMP/$side" || {
            echo "== tier-1: FAIL — $side sidecar is missing series \"$name\"" >&2; exit 1; }
    done
    echo "== tier-1: sctrace series (ext_chaosload storm windows)" >&2
    cargo run -q --release --offline -p sc-obs --bin sctrace -- \
        series "$RUN_TMP/ext_chaosload.t1.json" >&2 || {
        echo "== tier-1: FAIL — sctrace series could not render the chaosload sidecar" >&2
        exit 1; }

    # Executed path: scbench's five workloads on smoke inputs (seconds
    # after its own release build). Its output checks — every serve
    # operation's outcome class and message count, the soaks' and the
    # sweep's bytes against results/ — fail here, not only in the
    # benchmark pipeline, when a crypto or codec change flips one.
    echo "== tier-1: scbench --quick (output checks of all five workloads)" >&2
    bash benchmark/run.sh --quick >&2 || {
        echo "== tier-1: FAIL — scbench --quick: a workload failed its output checks" >&2
        exit 1; }
fi

echo "== tier-1: OK" >&2
