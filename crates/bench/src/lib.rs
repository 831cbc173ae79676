//! Measurement substrate: Criterion micro-benches plus the `BENCH_*.json`
//! snapshot binary.
//!
//! The library itself is intentionally empty — everything measurable
//! lives in two kinds of targets:
//!
//! * **`benches/` — Criterion targets**: `experiments` times one full
//!   run of every row of `sc_emu::EXPERIMENTS` (the soaks aside); the
//!   rest each measure one thing — a figure's inner kernel
//!   (`fig18a_abe`, `fig18b_relay`, `table2_dataset`, `table3_cells`),
//!   a DESIGN.md ablation (`ablation_routing`,
//!   `ablation_cell_granularity`, `ablation_rollback`,
//!   `ablation_visibility`), or `des_queue`, the calendar-queue vs.
//!   binary-heap scheduler head-to-head. Run one with
//!   `cargo bench -p sc-bench --bench fig18a_abe`, or everything with
//!   `cargo bench -p sc-bench`. Use these for before/after work on a
//!   single hot path.
//!
//! * **`bench-report` (`src/bin/bench_report.rs`) — the cross-PR
//!   record**: one self-timed binary that emits the `"sc-bench/3"`
//!   snapshot consumed by `scripts/bench.sh` and checked in as
//!   `BENCH_<date>.json`. It times the DES scheduler on fig10- and
//!   ext_chaos-shaped workloads against the replaced binary heap, the
//!   `run_until` loop shape, full fig10/ext_chaos experiment runs, the
//!   million-UE `ext_mload` soak, and the fault-injected
//!   `ext_chaosload` soak (both soaks' serial and parallel results
//!   asserted byte-identical; chaosload's recovery SLOs — survival
//!   ≥ 98 %, signaling surge ≤ 3× — asserted too), then reads peak
//!   RSS. Schema and the snapshot trajectory: `docs/BENCHMARKS.md`.
//!
//! This crate and `scripts/` are the only places in the tree allowed to
//! read a wall clock — everything else must be deterministic, and
//! sc-audit's R2 rule enforces exactly that (the allowlist lives in
//! `crates/audit`). Keep new timing code here.
