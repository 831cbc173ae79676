#!/usr/bin/env sh
# Static-analysis gate: sc-audit (statelessness / determinism / panic
# ratchet / no module without a caller, see crates/audit) plus clippy
# with warnings promoted to errors (clippy.toml bans the wall clock). Fatal on any finding — run before
# merging. tier1.sh runs the same audit warn-only.
#
# Everything runs --offline against the vendored dependency set.
set -eu

cd "$(dirname "$0")/.."

# Release build: the wall-clock budget below times the real binary, and
# a debug-profile parse of the full workspace would blow it for free.
echo "== audit: cargo build -p sc-audit --release --offline" >&2
cargo build -q -p sc-audit --release --offline
AUDIT_BIN=target/release/sc-audit

echo "== audit: sc-audit (R2 determinism, R3 panic ratchet, R4 state-flow, R5 parallel, R6 orphan)" >&2
T0=$(date +%s%N)
if ! "$AUDIT_BIN"; then
    echo "== audit: FAIL — re-running with --explain for the flow traces" >&2
    "$AUDIT_BIN" --explain >&2 || true
    exit 1
fi
T1=$(date +%s%N)
ELAPSED_MS=$(( (T1 - T0) / 1000000 ))
echo "== audit: full-workspace semantic audit in ${ELAPSED_MS}ms (budget 5000ms)" >&2
if [ "$ELAPSED_MS" -ge 5000 ]; then
    echo "== audit: FAIL — audit wall-clock budget exceeded (${ELAPSED_MS}ms >= 5000ms);" >&2
    echo "           the gate must stay cheap enough to run on every merge" >&2
    exit 1
fi

echo "== audit: cargo clippy --offline --workspace --all-targets -- -D warnings" >&2
cargo clippy -q --offline --workspace --all-targets -- -D warnings

# Docs gate: rustdoc must build warning-free (broken intra-doc links,
# missing code-block languages, …). docs/TELEMETRY.md names every
# metric; the crate-level rustdoc maps modules to paper sections.
echo "== audit: cargo doc --no-deps --offline --workspace (warnings are errors)" >&2
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

echo "== audit: OK" >&2
