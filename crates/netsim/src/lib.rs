//! Network substrate: deterministic discrete-event simulation, satellite
//! network topology, routing, queueing, and failure/attack injection.
//!
//! The paper's what-if emulations (§3 "Methodology") run 5G procedures
//! over LEO constellations with a grid ISL topology, ground stations, and
//! realistic failure processes. This crate provides those moving parts:
//!
//! * [`des`] — a deterministic discrete-event scheduler (total order on
//!   time with FIFO tie-breaking, so replays are bit-identical),
//! * [`topo`] — a weighted graph with Dijkstra shortest paths: the
//!   baseline routing that SpaceCore's Algorithm 1 is compared against,
//! * [`isl`] — builders for the +Grid inter-satellite-link topology of
//!   Table 1 constellations, with physical link delays from actual
//!   satellite separations at any emulation time,
//! * [`queueing`] — the M/M/1-style signaling-latency model used to
//!   reproduce the latency-vs-load knees of Figures 8 and 17,
//! * [`failure`] — Bernoulli and Gilbert–Elliott (bursty) loss processes
//!   matching the radio-link failure traces of Figure 13b, plus hijack
//!   and man-in-the-middle attack markers for the Figure 19 leakage
//!   experiments,
//! * [`chaos`] — the one node/link failure model: a set of satellites
//!   dead from t = 0 (the Fig. 13a decay regime) plus a seeded,
//!   sim-time-ordered schedule of node crash/recover, link flaps, and
//!   loss-burst windows that [`sim::ProcedureSim`] replays as its DES
//!   clock advances, so a satellite can die (and recover)
//!   *mid-procedure*.
//!
//! The DES and the message-level procedure simulator carry an optional
//! `sc-obs` recorder: [`des::EventQueue`] counts scheduled/processed
//! events, and [`sim::ProcedureSim`] counts transmissions, losses,
//! retransmissions, and completions, records a per-procedure latency
//! histogram, and emits a sim-time-stamped `netsim.delivery` event per
//! delivered message (metric registry: `docs/TELEMETRY.md`). Telemetry
//! never touches the wall clock, so instrumented runs stay bit-identical.

pub mod capacity;
pub mod chaos;
pub mod des;
pub mod failure;
pub mod flow;
pub mod isl;
pub mod queueing;
pub mod sim;
pub mod topo;

pub use capacity::CapacityModel;
pub use chaos::{ChaosAction, ChaosCursor, ChaosEvent, FailureTimeline};
pub use des::{EventQueue, ScheduledEvent};
pub use flow::{handover_scenario, TcpFlow, TcpPhase};
pub use failure::{AttackInjector, GilbertElliott, LossProcess};
pub use isl::{IslNetwork, NodeKind};
pub use queueing::MM1Model;
pub use sim::{ProcedureSim, SimConfig, SimOutcome, SimStep};
pub use topo::{Graph, NodeId, PathResult};
