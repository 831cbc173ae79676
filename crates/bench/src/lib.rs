//! Criterion micro-benches for single hot paths; the library itself is
//! intentionally empty. The ten `benches/` targets: `experiments` times
//! one full run of every row of `sc_emu::EXPERIMENTS` (the soaks
//! aside); the rest each measure one thing — a figure's inner kernel
//! (`fig18a_abe`, `fig18b_relay`, `table2_dataset`, `table3_cells`), a
//! DESIGN.md ablation (`ablation_routing`, `ablation_cell_granularity`,
//! `ablation_rollback`, `ablation_visibility`), or `des_queue`, the
//! calendar-queue vs. binary-heap scheduler head-to-head. Run one with
//! `cargo bench -p sc-bench --bench fig18a_abe`, or all of them with
//! `cargo bench -p sc-bench`. The numbers a PR is judged by come from
//! scbench (`benchmark/`, `BENCHMARK.json`), not from here.
//!
//! The benches time through the Criterion stand-in, which carries the
//! one wall-clock opt-out they need; nothing here reads a wall clock
//! directly (`clippy.toml` bans it).
