//! A from-scratch model of the 5G mobile core network (§2.1, §3.1).
//!
//! This crate rebuilds the parts of the 5G system the paper's analysis
//! and evaluation depend on — the substrate that open5gs + UERANSIM
//! provided for the original prototype:
//!
//! * [`ids`] — subscriber & session identifiers (SUPI, GUTI, TMSI,
//!   tunnel ids, PLMN),
//! * [`state`] — the five session-state categories of §3.1 (S1
//!   identifiers, S2 location, S3 QoS, S4 billing, S5 security) with a
//!   deterministic byte codec used for UE-side state replicas,
//! * [`nf`] — the network functions (AMF, SMF, UPF, AUSF, UDM, PCF, …)
//!   and the **function-split options** of Figure 6 (radio-only / data
//!   session / +mobility / everything-in-space),
//! * [`messages`] — signaling messages and the **procedure step tables**
//!   transcribed from Figure 9 (C1 initial registration, C2 session
//!   establishment, C3 handover, C4 mobility registration update),
//!   annotated with sender/receiver entity and state operations,
//! * [`cpu`] — the two satellite hardware profiles of the prototype
//!   (Raspberry Pi 4 as flown on Baoyun; a Xeon workstation comparable
//!   to OrbitsEdge hardware) with per-NF service costs calibrated to the
//!   Figure 7/8 curve shapes,
//! * [`gtp`] — a GTP-U-style tunnel header with the
//!   `FutureExtensionField` used by SpaceCore to piggyback UE states
//!   between UPFs (§5),
//! * [`conn`] — the UE RRC/session connection state machine (idle ↔
//!   connected, inactivity release),
//! * [`arena`] — a reusable buffer arena so the NAS hot paths encode
//!   without per-message allocation.

pub mod amf;
pub mod arena;
pub mod conn;
pub mod cpu;
pub mod gtp;
pub mod ids;
pub mod messages;
pub mod nas;
pub mod nf;
pub mod smf;
pub mod state;

pub use amf::{Amf, RmState, UeContext};
pub use arena::{BufId, MessageArena};
pub use smf::{PduSession, Smf};
pub use conn::{ConnEvent, ConnState, UeConnection};
pub use cpu::{HardwareProfile, NfCostTable};
pub use gtp::GtpUHeader;
pub use ids::{PlmnId, SessionId, Supi, TunnelId};
pub use nas::{NasMessage, NasMessageType};
pub use messages::{Entity, Procedure, ProcedureKind, SignalingStep, StateOp};
pub use nf::{FunctionSplit, NetworkFunction, Placement, SplitOption};
pub use state::{BillingState, IdState, LocationState, QosState, SecurityState, SessionState};
