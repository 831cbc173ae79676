#!/usr/bin/env sh
# Performance snapshot: build release and emit a machine-readable
# BENCH_<date>.json (schema documented in docs/BENCHMARKS.md) with
#   - calendar-vs-heap DES events/s on the fig10/ext_chaos shapes,
#   - run_until loop-shape throughput,
#   - full fig10/ext_chaos runs: wall s, events/s, p99 step cost
#     (simulated ms, from the sc-obs span sidecar),
#   - the million-UE ext_mload soak: total UEs, steady-state events/s,
#     p99 sim-step cost, serial-vs-parallel wall (results asserted
#     byte-identical across thread counts), the placement stage timed
#     on its own and the drain-only events/s that leaves,
#   - the fault-injected ext_chaosload soak: sessions dropped, session
#     survival, per-crash tt99, signaling-surge amplitude (byte-identity
#     asserted again, plus the recovery SLOs: survival >= 98%,
#     surge <= 3x steady state),
#   - peak RSS (VmHWM).
#
# The output filename's date stamp comes from here (override with
# SC_BENCH_DATE or pass an explicit path); the Rust binary never reads
# a wall-clock date. Everything runs --offline against the vendored
# dependency set.
#
# Usage:
#   scripts/bench.sh              # writes BENCH_<today>.json
#   scripts/bench.sh out.json     # writes out.json; a PR's snapshot is
#                                 # BENCH_<date>_pr<N>.json, beside the
#                                 # earlier ones, never over them
set -eu

cd "$(dirname "$0")/.."

DATE="${SC_BENCH_DATE:-$(date +%Y-%m-%d)}"
OUT="${1:-BENCH_${DATE}.json}"

echo "== bench: cargo build --release --offline -p sc-bench --bin bench-report" >&2
cargo build -q --release --offline -p sc-bench --bin bench-report

echo "== bench: bench-report $OUT" >&2
./target/release/bench-report "$OUT"
