//! # sc-obs — deterministic, zero-dependency observability
//!
//! The measurement substrate for the SpaceCore reproduction: counters,
//! gauges, and fixed-bucket histograms keyed by `&'static str` names,
//! plus bounded rings of structured events and causal [`span::Span`]s
//! (parent-linked, so a procedure and its hops form a trace tree the
//! `sctrace` binary can analyze) and windowed [`series::SeriesSet`]
//! time-series (fixed 1.0-unit windows on an integer µs-tick grid, so
//! storms and recoveries have a visible time axis), all stamped with
//! **simulated time** —
//! never wall clock. Every figure in EXPERIMENTS.md regenerates
//! byte-for-byte, and telemetry must not be the thing that breaks that:
//! snapshots emit in sorted order with a stable float format, so the
//! same run always produces the same bytes, across reruns and across
//! `SC_EMU_THREADS` worker counts.
//!
//! ## Design constraints
//!
//! * **Zero dependencies.** The JSON emitter is hand-rolled
//!   ([`Snapshot::to_json`]); maps are `BTreeMap` so emission order is
//!   the sorted name order, not hash order (sc-audit R2-unordered).
//! * **No wall-clock reads.** Event timestamps are supplied by the
//!   caller from the DES scheduler ([`Recorder::event`]); this crate
//!   carries no opt-out from `clippy.toml`'s wall-clock ban, so an
//!   `Instant::now()` here fails the clippy gate.
//! * **No panic sites.** The crate ratchets at zero in the R3 baseline:
//!   no `unwrap`/`expect`/`panic!`/`unsafe`, tests included. Mutex
//!   poisoning is absorbed (`PoisonError::into_inner`), non-finite
//!   observations are dropped, and a full event ring drops the oldest
//!   entry while counting the loss ([`Snapshot::events_dropped`]).
//! * **Disabled-by-default cost.** A [`Recorder`] built with
//!   [`Recorder::disabled`] holds no allocation and every operation is
//!   one `Option` check, so instrumented hot paths (the DES scheduler,
//!   Algorithm 1 relay steps) pay nothing when telemetry is off.
//!
//! ## Determinism across threads
//!
//! Parallel sweeps record into per-cell child recorders
//! ([`Recorder::child`]) which the owner merges back in input-slot
//! order ([`Recorder::absorb`]): counters and histograms commute, and
//! events append in the deterministic merge order — so the merged
//! snapshot is independent of worker count and scheduling.
//!
//! The full metric/event name registry, with units and the paper figure
//! each series explains, lives in `docs/TELEMETRY.md`.

pub mod events;
pub mod hist;
mod json;
pub mod recorder;
pub mod series;
pub mod sidecar;
pub mod slo;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use events::{Event, EventRing, FieldValue};
pub use hist::{Histogram, BUCKET_BOUNDS};
pub use recorder::{Recorder, DEFAULT_EVENT_CAPACITY, DEFAULT_SPAN_CAPACITY};
pub use series::{SeriesData, SeriesKind, SeriesSet, DEFAULT_SERIES_CAPACITY, WINDOW_TICKS};
pub use sidecar::Sidecar;
pub use slo::{SloRule, SloTracker, SloVerdict};
pub use snapshot::Snapshot;
pub use span::{Span, SpanId, SpanRing};

/// Schema identifier written into every emitted snapshot, bumped when
/// the JSON layout changes shape (documented in docs/TELEMETRY.md).
/// `sc-obs/2` added the causal `"spans"` section; `sc-obs/3` the
/// windowed `"series"` section. [`Sidecar::parse`] accepts this
/// generation only.
pub const SCHEMA: &str = "sc-obs/3";
