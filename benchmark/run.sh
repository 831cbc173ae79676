#!/usr/bin/env bash
# Builds scbench (release, offline, in its own workspace) and runs it.
#
#   benchmark/run.sh                       every workload, untraced then traced
#   benchmark/run.sh --workload serve --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh --quick               smoke inputs, one repetition
#   benchmark/run.sh --check-repeat        two untraced sets must agree
#
# Arguments are scbench's; see benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The build's chatter goes to stderr: stdout carries only the report,
# whose last line is the result object.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/scbench" "$@"
