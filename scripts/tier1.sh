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

# The pinned crypto bytes, the per-establishment allocation budget, the
# checked-in results and the fig10 and ext_chaos sidecars
# (`results_stability`, at 1 and 4 workers), the route memo's
# exactness and one `SimScratch` carried across generated timelines
# against a fresh one per replay (`route_memo_props`'
# `scratch_carried_across_timelines_…` properties), the Dijkstra
# kernel's packed heap keys and its
# goal-directed two-pass search (A* for a bound, then the pruned
# `(dist, node)`-ordered pass) against a copy of the kernel the packed
# keys replaced (sc-netsim's `props`, the `directed_route_in_…`
# properties among them),
# the draw → point placement and its lookup
# tables (`region_of`'s pure candidate cells, masks and dot products,
# `cell_of_point`'s latitude strips), the churn engine's staged
# placement pass (`churn::placed`: draws, points, cells, labels over
# 64-UE batches into each chunk's two arrays, at every partition, worker
# count and chunk length around the batch; the release-only
# `default_seed_population_places_and_labels_exactly` checks all 1 M UEs
# of the default seed, the pass's arrays included), the event queue
# against its oracle (`calendar_props`, `des_props`), `random_crashes`'
# one-sort build (`chaos_props`), the histogram tally fold (`sc-obs`), the churn
# engine's own tests — its per-UE driver against the test-only
# global-calendar oracle at every batch width and on generated failure
# timelines (`churn::oracle`) — the worker loop's per-worker state
# (`engine`: `init` at most once per worker, every item once, the
# serial map's output at 1 to 16 threads) and `ext_chaos`'s shared
# replays (the solutions that share a replay replay alike on their
# own) once more under the release profile (fat
# LTO): the optimised build inlines and vectorises the payload pass, the
# Dijkstra loop, the sampler's and the placement's arithmetic and the
# per-UE event loop differently from the debug build the
# run above tests, and it is the build every number is measured on.
echo "== tier-1: cargo test --release --offline -q --test crypto_golden_bytes --test alloc_budget --test results_stability --test route_memo_props --test placement_props" >&2
cargo test --release --offline -q --test crypto_golden_bytes --test alloc_budget --test results_stability --test route_memo_props --test placement_props
echo "== tier-1: cargo test --release --offline -q -p sc-netsim -p sc-geo --test props --test calendar_props --test des_props --test chaos_props" >&2
cargo test --release --offline -q -p sc-netsim -p sc-geo --test props --test calendar_props --test des_props --test chaos_props
echo "== tier-1: cargo test --release --offline -q -p sc-obs" >&2
cargo test --release --offline -q -p sc-obs
echo "== tier-1: cargo test --release --offline -q -p sc-emu --lib -- churn engine:: ext_chaos::" >&2
cargo test --release --offline -q -p sc-emu --lib -- churn engine:: ext_chaos::

# The sampler's stream seek (`ChaCha12Rng::set_word_pos` and
# `PopulationModel::draws_at`) and its branch-free hotspot pick (the
# count of cumulative weights, pinned to the subtract-and-break loop)
# under the same release profile: fat LTO inlines the ChaCha refill and
# vectorises the count differently from the debug build.
echo "== tier-1: cargo test --release --offline -q -p sc-dataset --lib" >&2
cargo test --release --offline -q -p sc-dataset --lib

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

# Opt-in telemetry determinism check (SC_OBS=1 scripts/tier1.sh): the
# load-engine sidecars across thread counts and against results/, the
# `sctrace series` render, and scbench's output checks. fig05's sidecar
# stability, fig10's spans and critical paths, the `sctrace diff` of
# identical sidecars, and fig10's and ext_chaos's results and sidecars
# (pinned to results/) are `cargo test` checks (tests/obs_stability.rs,
# tests/results_stability.rs, crates/obs). See docs/TELEMETRY.md for
# the schema.
if [ "${SC_OBS:-0}" != "0" ]; then
    # Every gate below calls the one sc-emu binary, built once here,
    # through scemu(): `scemu <threads> <args…>` runs it from a scratch
    # directory (so the checkout's results/ is never written) with
    # SC_EMU_THREADS=<threads> ("" leaves the caller's setting), stdout
    # dropped. A run's results/<name>.json lands in $RUN_TMP/results/.
    echo "== tier-1: cargo build --release --offline -p sc-emu --bin scemu" >&2
    cargo build -q --release --offline -p sc-emu --bin scemu
    SCEMU="$PWD/target/release/scemu"
    RUN_TMP="$(mktemp -d)"
    trap 'rm -rf "$RUN_TMP"' EXIT
    scemu() {
        ( cd "$RUN_TMP" && { [ -z "$1" ] || export SC_EMU_THREADS="$1"; } && \
          shift && "$SCEMU" "$@" >/dev/null )
    }

    # Sustained-load engine, bounded smoke configs (seconds, not the
    # million-UE soaks: scbench times those, tests/churn_equivalence.rs their SLOs).
    # ext_mload: every UE is its own event stream, the chunks' tallies
    # fold in id order and every reported quantity is an order-free sum.
    # ext_chaosload: the fault-injected soak (satellite crash +
    # mid-recovery re-crash, feeder flap, loss burst) drives paced
    # reattach storms, admission barring and overload deferral — every
    # one of those draws is keyed by (seed, ue, attempt), and every UE
    # reads the timeline as a function of its event's instant. So for
    # both, the result JSON and the telemetry sidecar must be
    # byte-identical across thread counts. Threads 3 as well as 4: the
    # smoke population is two chunks, the second ragged, and an odd
    # worker count leaves them unevenly divided.
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
                "ext_chaosload.t1.json:emu.chaosload.rereg_storm_per_s"; do
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
