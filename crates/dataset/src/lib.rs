//! Workload substrate: signaling datasets and global UE distribution.
//!
//! The paper drives its emulation with (a) over-the-air signaling traces
//! from operational satellite terminals and terrestrial 5G (Table 2),
//! (b) the World Bank's global mobile-subscription distribution, and
//! (c) measured behavioural constants (sessions every 106.9 s, RRC
//! release after 10–15 s, 165.8 s satellite transit). We cannot ship the
//! proprietary traces, so this crate reproduces them synthetically
//! (DESIGN.md §3 substitution table):
//!
//! * [`table2`] — the Table 2 dataset descriptors (exact published
//!   per-protocol message counts and the per-layer mix they imply),
//! * [`population`] — a coarse global population-density model (mixture
//!   of regional hotspots) with deterministic UE placement sampling and
//!   the region classification used by Figure 12,
//! * [`workload`] — event-rate models: per-UE session arrivals,
//!   satellite-transit-driven handover/mobility-registration rates, and
//!   the per-satellite aggregate rates behind Figures 10/12/20,
//! * [`traffic`] — device-class profiles (consumer broadband,
//!   massive IoT, …) that scale those workload parameters into the
//!   mixed-population bills of the `ext_iot` extension.
//!
//! Everything is seeded and deterministic: [`population::PopulationModel::sample_ues`]
//! is the placement source for Figure 12's per-region breakdown and for
//! the million-UE sustained-load engine (`sc_emu::ext_mload`), which
//! pins each UE to the geospatial cell its sampled point falls in.

pub mod population;
pub mod table2;
pub mod traffic;
pub mod workload;

pub use population::{PopulationModel, Region};
pub use table2::{DatasetSource, ProtocolLayer, Table2};
pub use traffic::{TrafficClass, TrafficMix};
pub use workload::{RateModel, WorkloadParams};
