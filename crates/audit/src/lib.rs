//! `sc-audit` — the statelessness & determinism auditor for the
//! SpaceCore workspace (DESIGN.md "Enforced invariants").
//!
//! The paper's core claim — orbital network functions hold **no per-UE
//! state** (S1, S3–S5 live on the device; S2 compresses into a
//! geospatial address) — and PR 1's byte-identical-results guarantee
//! both rest on conventions that any future change can silently break.
//! This crate turns those conventions into a CI-failing check:
//!
//! * **R2 `unordered` / `float-cmp`** — no hash-order leakage into
//!   results, `total_cmp` over `partial_cmp().unwrap()`. Wall clocks
//!   are clippy's to ban (`clippy.toml` `disallowed-methods`, with a
//!   reasoned `#![expect]` in each timer), and unseeded RNG cannot
//!   compile: the vendored `rand` offers only `seed_from_u64`.
//! * **R3 ratchet** — per-crate `unwrap`/`expect`/`panic!`/`unsafe`
//!   counts can only go down, pinned by `audit.baseline.toml`.
//! * **R4 `state-flow`** — the statelessness prover, the paper's "no
//!   per-UE state on the satellite" as a check: a
//!   zero-dep recursive-descent parser ([`parser`]) builds a
//!   lightweight AST ([`ast`]), a workspace symbol table with a call
//!   graph ([`symbols`]) merges it across crates, and the dataflow
//!   probe ([`flow`]) convicts any satellite-scope storage site whose
//!   type transitively embeds a per-UE key — through type aliases,
//!   newtype wrappers, generic instantiations, and cross-crate struct
//!   fields — with an `--explain`-able flow trace.
//! * **R5 `parallel`** — determinism of the `SC_EMU_THREADS` parallel
//!   sweep: closures spawned into `thread::scope`/`parallel_map*`
//!   regions must not mutate captured locals, take ad-hoc locks, or
//!   iterate hash-ordered collections.
//! * **R6 `orphan`** — no module without a caller ([`orphan`]): a
//!   `crates/<c>/src/<m>.rs` that no experiment row, binary, root test,
//!   example or benchmark reaches is a finding on its `mod` line.
//!
//! Every finding is fatal unless a `// sc-audit: allow(<rule>, reason =
//! "…")` at the site justifies it; only the R3 counters ratchet.
//!
//! Run it with `scripts/audit.sh` (fatal) or `scripts/tier1.sh`
//! (warn-only). See the binary (`src/main.rs`) for the CLI.

pub mod ast;
pub mod baseline;
pub mod engine;
pub mod flow;
pub mod lexer;
pub mod orphan;
pub mod parser;
pub mod rules;
pub mod symbols;

pub use baseline::Baseline;
pub use engine::{audit_sources, audit_workspace, Report};
pub use flow::{FlowFinding, FlowStep};
pub use rules::{Config, Finding};
