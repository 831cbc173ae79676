//! Signaling procedures transcribed from Figures 9 and 16.
//!
//! Each of the paper's four core procedures — **C1** initial
//! registration, **C2** session establishment, **C3** handover, **C4**
//! mobility registration update — is encoded as an ordered list of
//! [`SignalingStep`]s: one network message each, annotated with the
//! sending and receiving entity and the session-state operations the
//! standards attach to that step (the `copy S1…`, `create S5…`
//! annotations in Figure 9). SpaceCore's Fig. 16 exchanges are tables of
//! the same shape, so every message bill counts rows here.
//!
//! Given a [`FunctionSplit`], a step can be
//! classified: does it stay inside the satellite, cross the
//! space-ground boundary (loading a ground station), or stay on the
//! ground? That classification is the engine behind Figures 10/12/20.

use crate::nf::{FunctionSplit, NetworkFunction, Placement};
use crate::state::StateCategory;

/// A protocol entity participating in a procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Entity {
    /// The user equipment.
    Ue,
    /// The serving base station (source gNB in handovers).
    Ran,
    /// The target base station in handovers.
    RanTarget,
    /// The serving AMF (the *new* AMF in C4).
    Amf,
    /// The old AMF in mobility registration updates.
    AmfOld,
    Smf,
    Upf,
    Ausf,
    Udm,
    Pcf,
}

impl Entity {
    /// The network function this entity instantiates (`None` for the UE).
    pub fn nf(self) -> Option<NetworkFunction> {
        match self {
            Entity::Ue => None,
            Entity::Ran | Entity::RanTarget => Some(NetworkFunction::Ran),
            Entity::Amf | Entity::AmfOld => Some(NetworkFunction::Amf),
            Entity::Smf => Some(NetworkFunction::Smf),
            Entity::Upf => Some(NetworkFunction::Upf),
            Entity::Ausf => Some(NetworkFunction::Ausf),
            Entity::Udm => Some(NetworkFunction::Udm),
            Entity::Pcf => Some(NetworkFunction::Pcf),
        }
    }

    /// Where this entity lives under a function split. The UE is its own
    /// location.
    pub fn location(self, split: &FunctionSplit) -> EntityLocation {
        match self.nf() {
            None => EntityLocation::Ue,
            Some(f) => match split.placement(f) {
                Placement::Satellite => EntityLocation::Satellite,
                Placement::Ground => EntityLocation::Ground,
            },
        }
    }
}

/// Physical location of an entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityLocation {
    Ue,
    Satellite,
    Ground,
}

/// A state operation attached to a signaling step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateOp {
    pub kind: StateOpKind,
    pub category: StateCategory,
}

/// `StateOp` constructor usable in `const`/`static` step tables.
const fn op(kind: StateOpKind, category: StateCategory) -> StateOp {
    StateOp { kind, category }
}

/// What the step does to the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateOpKind {
    /// Replicate state to the receiver.
    Copy,
    Create,
    Update,
    Delete,
}

/// One signaling message.
///
/// Fully `'static`: the Figure 9 step tables are baked into the binary
/// as `static` arrays, so building a [`Procedure`] never allocates —
/// the capacity sweeps in fig10/fig12 construct procedures in their
/// innermost loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalingStep {
    /// Figure 9 label, e.g. "P2: registration request".
    pub label: &'static str,
    pub from: Entity,
    pub to: Entity,
    /// State operations the step performs at the receiver.
    pub ops: &'static [StateOp],
    /// Approximate wire size, bytes (NAS/NGAP messages are small).
    pub bytes: u32,
}

impl SignalingStep {
    /// Does this message traverse the space-ground boundary under the
    /// given split? (Every such traversal transits a ground station —
    /// the load counted on the GS bars of Figures 10/20.)
    pub fn crosses_space_ground(&self, split: &FunctionSplit) -> bool {
        use EntityLocation::*;
        let a = self.from.location(split);
        let b = self.to.location(split);
        matches!(
            (a, b),
            (Satellite, Ground) | (Ground, Satellite) | (Ue, Ground) | (Ground, Ue)
        )
    }

    /// Is the satellite involved in this message (as sender, receiver,
    /// or the radio relay for UE↔ground messages)?
    pub fn touches_satellite(&self, split: &FunctionSplit) -> bool {
        use EntityLocation::*;
        let a = self.from.location(split);
        let b = self.to.location(split);
        // Any UE message transits the serving satellite's radio; any
        // satellite endpoint obviously counts.
        a == Satellite || b == Satellite || a == Ue || b == Ue
    }

    /// Number of state operations that cross the space-ground boundary
    /// with this message (the "state tx" series of Fig. 12).
    pub fn state_tx_crossing(&self, split: &FunctionSplit) -> usize {
        if self.crosses_space_ground(split) {
            self.ops.len()
        } else {
            0
        }
    }
}

/// The procedure kinds of Figures 9 and 16 (plus network-triggered paging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcedureKind {
    /// C1: initial registration (Fig. 9a).
    InitialRegistration,
    /// C2: (uplink) session establishment / service request (Fig. 9b).
    SessionEstablishment,
    /// C3: handover (Fig. 9c).
    Handover,
    /// C4: mobility registration update (Fig. 9d).
    MobilityRegistration,
    /// Network-triggered paging preceding a downlink C2.
    Paging,
    /// SpaceCore localized session establishment (Fig. 16a).
    LocalEstablishment,
    /// SpaceCore inter-satellite handover with the replica (Fig. 16c).
    ReplicaHandover,
    /// RRC connection release.
    RrcRelease,
}

impl ProcedureKind {
    pub fn name(self) -> &'static str {
        match self {
            ProcedureKind::InitialRegistration => "C1 initial registration",
            ProcedureKind::SessionEstablishment => "C2 session establishment",
            ProcedureKind::Handover => "C3 handover",
            ProcedureKind::MobilityRegistration => "C4 mobility registration",
            ProcedureKind::Paging => "paging",
            ProcedureKind::LocalEstablishment => "local establishment",
            ProcedureKind::ReplicaHandover => "replica handover",
            ProcedureKind::RrcRelease => "rrc release",
        }
    }

    /// Telemetry counter name for this kind (see docs/TELEMETRY.md).
    pub fn counter_name(self) -> &'static str {
        match self {
            ProcedureKind::InitialRegistration => "fiveg.procedures.c1_initial_registration",
            ProcedureKind::SessionEstablishment => "fiveg.procedures.c2_session_establishment",
            ProcedureKind::Handover => "fiveg.procedures.c3_handover",
            ProcedureKind::MobilityRegistration => "fiveg.procedures.c4_mobility_registration",
            ProcedureKind::Paging => "fiveg.procedures.paging",
            ProcedureKind::LocalEstablishment => "fiveg.procedures.local_establishment",
            ProcedureKind::ReplicaHandover => "fiveg.procedures.replica_handover",
            ProcedureKind::RrcRelease => "fiveg.procedures.rrc_release",
        }
    }

    /// Windowed message-rate series name for this kind: signaling
    /// messages built per 1.0 sim-time window (see docs/TELEMETRY.md).
    /// Written by [`Procedure::build_obs_at`]; the five series side by
    /// side show which procedure class drives a storm.
    pub fn rate_series_name(self) -> &'static str {
        match self {
            ProcedureKind::InitialRegistration => "fiveg.msgs_per_window.c1_initial_registration",
            ProcedureKind::SessionEstablishment => "fiveg.msgs_per_window.c2_session_establishment",
            ProcedureKind::Handover => "fiveg.msgs_per_window.c3_handover",
            ProcedureKind::MobilityRegistration => "fiveg.msgs_per_window.c4_mobility_registration",
            ProcedureKind::Paging => "fiveg.msgs_per_window.paging",
            ProcedureKind::LocalEstablishment => "fiveg.msgs_per_window.local_establishment",
            ProcedureKind::ReplicaHandover => "fiveg.msgs_per_window.replica_handover",
            ProcedureKind::RrcRelease => "fiveg.msgs_per_window.rrc_release",
        }
    }

    /// Root-span kind for a traced run of this procedure (the static
    /// name `sctrace` groups critical paths by; see docs/TELEMETRY.md).
    pub fn span_kind(self) -> &'static str {
        match self {
            ProcedureKind::InitialRegistration => "fiveg.proc.c1_initial_registration",
            ProcedureKind::SessionEstablishment => "fiveg.proc.c2_session_establishment",
            ProcedureKind::Handover => "fiveg.proc.c3_handover",
            ProcedureKind::MobilityRegistration => "fiveg.proc.c4_mobility_registration",
            ProcedureKind::Paging => "fiveg.proc.paging",
            ProcedureKind::LocalEstablishment => "fiveg.proc.local_establishment",
            ProcedureKind::ReplicaHandover => "fiveg.proc.replica_handover",
            ProcedureKind::RrcRelease => "fiveg.proc.rrc_release",
        }
    }
}

/// A full signaling procedure: ordered steps (a view into the static
/// Figure 9 tables — cheap to build and copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Procedure {
    pub kind: ProcedureKind,
    pub steps: &'static [SignalingStep],
}

/// Step-construction helper, usable in `static` step tables.
const fn step(
    label: &'static str,
    from: Entity,
    to: Entity,
    ops: &'static [StateOp],
    bytes: u32,
) -> SignalingStep {
    SignalingStep {
        label,
        from,
        to,
        ops,
        bytes,
    }
}

impl Procedure {
    /// Build the step list for a procedure kind. Allocation-free: the
    /// step tables are `static` data.
    pub const fn build(kind: ProcedureKind) -> Procedure {
        let steps: &'static [SignalingStep] = match kind {
            ProcedureKind::InitialRegistration => &tables::C1_INITIAL_REGISTRATION,
            ProcedureKind::SessionEstablishment => &tables::C2_SESSION_ESTABLISHMENT,
            ProcedureKind::Handover => &tables::C3_HANDOVER,
            ProcedureKind::MobilityRegistration => &tables::C4_MOBILITY_REGISTRATION,
            ProcedureKind::Paging => &tables::PAGING,
            ProcedureKind::LocalEstablishment => &tables::LOCAL_ESTABLISHMENT,
            ProcedureKind::ReplicaHandover => &tables::REPLICA_HANDOVER,
            ProcedureKind::RrcRelease => &tables::RRC_RELEASE,
        };
        Procedure { kind, steps }
    }

    /// [`Procedure::build`] with telemetry: counts the total
    /// `fiveg.procedures.built`, the per-kind counter
    /// ([`ProcedureKind::counter_name`]), and observes the message count
    /// into the `fiveg.procedure.messages` histogram.
    pub fn build_obs(kind: ProcedureKind, obs: &sc_obs::Recorder) -> Procedure {
        let p = Procedure::build(kind);
        obs.inc("fiveg.procedures.built", 1);
        obs.inc(kind.counter_name(), 1);
        obs.observe("fiveg.procedure.messages", p.message_count() as f64);
        p
    }

    /// [`Procedure::build_obs`] stamped at sim-time `t`: additionally
    /// adds the procedure's message count to the per-kind windowed
    /// rate series ([`ProcedureKind::rate_series_name`]), so the C1–C4
    /// mix per window is visible in `sctrace series`.
    pub fn build_obs_at(kind: ProcedureKind, obs: &sc_obs::Recorder, t: f64) -> Procedure {
        let p = Procedure::build_obs(kind, obs);
        obs.series_inc(kind.rate_series_name(), t, p.message_count() as u64);
        p
    }

    /// Open this procedure's root span at sim-time `t` (ms), tagged
    /// with the procedure kind ([`ProcedureKind::span_kind`]) and its
    /// message count, plus any caller `fields` (e.g. the replay route).
    /// Pass the returned id as the parent of the transport-level run
    /// (`ProcedureSim::run_traced` in sc-netsim) and close it at the
    /// outcome time — the whole signaling exchange then reads as one
    /// tree in `sctrace`. Returns the disabled sentinel (a no-op to
    /// close) when telemetry is off.
    pub fn open_span(
        &self,
        obs: &sc_obs::Recorder,
        t: f64,
        mut fields: Vec<(&'static str, sc_obs::FieldValue)>,
    ) -> sc_obs::SpanId {
        if !obs.enabled() {
            return sc_obs::SpanId::DISABLED;
        }
        fields.insert(0, ("messages", sc_obs::FieldValue::from(self.message_count())));
        obs.span_open(None, self.kind.span_kind(), t, fields)
    }

    /// Total message count.
    pub const fn message_count(&self) -> usize {
        self.steps.len()
    }

    /// Total state operations.
    pub fn state_op_count(&self) -> usize {
        self.steps.iter().map(|s| s.ops.len()).sum()
    }

    /// Messages that load the serving satellite under `split`.
    pub fn satellite_messages(&self, split: &FunctionSplit) -> usize {
        self.steps
            .iter()
            .filter(|s| s.touches_satellite(split))
            .count()
    }

    /// Messages that transit a ground station under `split`.
    pub fn ground_messages(&self, split: &FunctionSplit) -> usize {
        self.steps
            .iter()
            .filter(|s| s.crosses_space_ground(split))
            .count()
    }

    /// State operations shipped across the space-ground boundary.
    pub fn state_tx_crossing(&self, split: &FunctionSplit) -> usize {
        self.steps
            .iter()
            .map(|s| s.state_tx_crossing(split))
            .sum()
    }

    /// Per-NF processing workload: how many messages each network
    /// function receives (the unit of the Fig. 7 CPU breakdown).
    pub fn nf_workload(&self) -> Vec<(NetworkFunction, usize)> {
        let mut counts = std::collections::HashMap::new();
        for s in self.steps {
            if let Some(f) = s.to.nf() {
                *counts.entry(f).or_insert(0usize) += 1;
            }
        }
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_by_key(|(f, _)| NetworkFunction::ALL.iter().position(|x| x == f));
        v
    }
}

/// The Figure 9 step tables, baked into the binary. Scoped module so
/// the `Entity` glob import stays local to the tables.
mod tables {
    use super::{op, step, SignalingStep};
    use super::Entity::*;
    use super::StateCategory::*;
    use super::StateOpKind::*;

    /// Fig. 9a — C1 initial registration.
    pub(super) static C1_INITIAL_REGISTRATION: [SignalingStep; 24] = [
    step("P0: rrc connection request", Ue, Ran, &[], 56),
    step("P0: rrc connection setup", Ran, Ue, &[], 88),
    step("P1: rrc setup complete", Ue, Ran, &[], 96),
    step(
        "P2: registration request",
        Ran,
        Amf,
        &[op(Copy, S1Identifiers), op(Copy, S2Location)],
        180,
    ),
    // P3: authentication and security (AKA + NAS security mode).
    step("P3: ue authentication request", Amf, Ausf, &[op(Copy, S1Identifiers)], 120),
    step(
        "P3: av generation request",
        Ausf,
        Udm,
        &[op(Create, S5Security)], // create S5 (5G HE AV)
        120,
    ),
    step("P3: av generation response", Udm, Ausf, &[op(Copy, S5Security)], 160),
    step(
        "P3: ue authentication response",
        Ausf,
        Amf,
        &[op(Create, S5Security)], // create S5 (5G SE AV)
        160,
    ),
    step("P3: authentication challenge", Amf, Ue, &[op(Copy, S5Security)], 140),
    step("P3: authentication result", Ue, Amf, &[op(Update, S5Security)], 120),
    step("P3: security mode command", Amf, Ue, &[op(Update, S5Security)], 100),
    step("P3: security mode complete", Ue, Amf, &[], 90),
    // P4: policy establishment.
    step("P4: policy establishment", Amf, Pcf, &[op(Copy, S1Identifiers)], 140),
    step("P4: policy response", Pcf, Amf, &[op(Create, S3Qos), op(Create, S4Billing)], 200),
    // P5: registration accept.
    step("P5: registration accept", Amf, Ue, &[op(Update, S1Identifiers)], 160), // update S1 (5G-GUTI)
    step("P5: registration complete", Ue, Amf, &[], 80),
    // P6-P9: first PDU session.
    step(
        "P6: session request",
        Amf,
        Smf,
        &[op(Copy, S1Identifiers), op(Copy, S3Qos), op(Copy, S4Billing)],
        220,
    ),
    step("P7: session context create", Smf, Udm, &[op(Copy, S1Identifiers)], 140),
    step("P7: session context response", Udm, Smf, &[], 120),
    step(
        "P8: forwarding rule establishment",
        Smf,
        Upf,
        &[op(Create, S2Location), op(Create, S3Qos), op(Create, S4Billing)],
        240,
    ),
    step("P8: forwarding rule ack", Upf, Smf, &[op(Update, S2Location)], 120),
    step(
        "P9: session accept (to AMF)",
        Smf,
        Amf,
        &[op(Copy, S1Identifiers), op(Copy, S2Location)],
        200,
    ),
    step("P9: session accept (to RAN)", Amf, Ran, &[op(Copy, S3Qos)], 180),
    step("P9: session accept (to UE)", Ran, Ue, &[op(Copy, S2Location)], 160),
];

/// Fig. 9b — C2 session establishment (uplink service request).
pub(super) static C2_SESSION_ESTABLISHMENT: [SignalingStep; 13] = [
    step("P0: rrc connection request", Ue, Ran, &[], 56),
    step("P0: rrc connection setup", Ran, Ue, &[], 88),
    step("P1: rrc setup complete (service request)", Ue, Ran, &[], 96),
    step(
        "P6: service request",
        Ran,
        Amf,
        &[op(Copy, S1Identifiers)], // copy S1 (Tunnel ID)
        140,
    ),
    step(
        "P7: session context create",
        Amf,
        Smf,
        &[op(Copy, S1Identifiers)], // copy S1 (SUPI, Tunnel ID)
        160,
    ),
    step("P4: policy modification", Smf, Pcf, &[op(Copy, S1Identifiers)], 130),
    step("P4: policy response", Pcf, Smf, &[op(Update, S3Qos)], 150),
    step(
        "P8: forwarding rule modification",
        Smf,
        Upf,
        &[op(Update, S2Location), op(Update, S3Qos), op(Update, S4Billing)],
        220,
    ),
    step("P8: forwarding rule ack", Upf, Smf, &[], 110),
    step(
        "P9: session accept (to AMF)",
        Smf,
        Amf,
        &[op(Copy, S1Identifiers), op(Copy, S2Location)],
        190,
    ),
    step("P9: session accept (to UE)", Amf, Ue, &[op(Copy, S1Identifiers)], 160),
    step(
        "P10: session context update request",
        Amf,
        Smf,
        &[op(Update, S1Identifiers)], // update S1 (Tunnel ID)
        130,
    ),
    step("P11: session context update response", Smf, Amf, &[], 110),
];

/// Fig. 9c — C3 handover (source BS → target BS via AMF/direct tunnel).
pub(super) static C3_HANDOVER: [SignalingStep; 11] = [
    step(
        "P12: handover request",
        Ran,
        RanTarget,
        &[op(Copy, S2Location), op(Copy, S4Billing), op(Copy, S5Security)],
        260,
    ),
    step("P12: handover ack", RanTarget, Ran, &[], 120),
    step("P12: rrc reconfiguration (ho command)", Ran, Ue, &[], 140),
    step("P12: ho confirm (sync to target)", Ue, RanTarget, &[], 100),
    step(
        "P13: path switch request",
        RanTarget,
        Amf,
        &[op(Copy, S2Location), op(Copy, S5Security)],
        200,
    ),
    step(
        "P10: session context update",
        Amf,
        Smf,
        &[op(Copy, S2Location), op(Copy, S3Qos)],
        170,
    ),
    step("P10: forwarding path update", Smf, Upf, &[op(Update, S2Location)], 150),
    step("P10: forwarding path ack", Upf, Smf, &[], 100),
    step("P10: session context ack", Smf, Amf, &[], 100),
    step("P14: path switch response", Amf, RanTarget, &[op(Update, S2Location)], 130),
    step("P15: session release (source)", RanTarget, Ran, &[op(Delete, S2Location)], 90),
];

/// Fig. 9d — C4 mobility registration update (tracking-area change).
pub(super) static C4_MOBILITY_REGISTRATION: [SignalingStep; 12] = [
    step("P12': rrc + registration request", Ue, RanTarget, &[], 120),
    step(
        "P12': registration request",
        RanTarget,
        Amf,
        &[op(Copy, S1Identifiers), op(Copy, S2Location)], // S1 (5G-S-TMSI), S2 (PLMN ID)
        180,
    ),
    step(
        "P16: ue context transfer request",
        Amf,
        AmfOld,
        &[op(Copy, S1Identifiers)],
        150,
    ),
    step(
        "P16: ue context transfer",
        AmfOld,
        Amf,
        &[
            op(Copy, S1Identifiers),
            op(Copy, S2Location),
            op(Copy, S3Qos),
            op(Copy, S5Security),
        ],
        320,
    ),
    step("P1-7: re-register to UDM", Amf, Udm, &[op(Copy, S1Identifiers)], 140),
    step("P1-7: subscription data", Udm, Amf, &[op(Copy, S3Qos), op(Copy, S4Billing)], 220),
    step("P1-7: deregistration notify", Udm, AmfOld, &[op(Delete, S1Identifiers)], 100),
    step(
        "P10: session context update",
        Amf,
        Smf,
        &[op(Copy, S1Identifiers)], // copy S1 (SUPI, Tunnel ID)
        150,
    ),
    step("P10: session context ack", Smf, Amf, &[], 110),
    step("P5: registration accept", Amf, Ue, &[op(Update, S1Identifiers)], 160),
    step("P5: registration complete", Ue, Amf, &[], 80),
    step("P15: old context release", AmfOld, Ran, &[op(Delete, S2Location)], 90),
];

/// Network-triggered paging before a downlink session establishment:
/// the anchor UPF notifies SMF/AMF of data arrival; the RAN pages the UE.
pub(super) static PAGING: [SignalingStep; 4] = [
    step("downlink data notification", Upf, Smf, &[], 100),
    step("data notification forward", Smf, Amf, &[op(Copy, S1Identifiers)], 110),
    step("paging request", Amf, Ran, &[op(Copy, S1Identifiers)], 100),
    step("paging broadcast", Ran, Ue, &[], 60),
];

/// Fig. 16a — localized session establishment. No Fig. 16 row carries a
/// state operation: the replica is opaque to the network.
pub(super) static LOCAL_ESTABLISHMENT: [SignalingStep; 4] = [
    step("P0: rrc connection request", Ue, Ran, &[], 56),
    step("P0: rrc connection setup", Ran, Ue, &[], 88),
    step("P1': rrc setup complete (piggyback: replica, X)", Ue, Ran, &[], 415),
    step("P9': session accept (Y, CERT)", Ran, Ue, &[], 192),
];

/// Fig. 16c — handover without the path switch through the core.
pub(super) static REPLICA_HANDOVER: [SignalingStep; 3] = [
    step("P12: rrc reconfiguration (ho command)", Ran, Ue, &[], 140),
    step("P12': ho confirm (piggyback: replica, X)", Ue, RanTarget, &[], 419),
    step("P9': session accept (Y, CERT)", RanTarget, Ue, &[], 192),
];

/// RRC connection release: the satellite forgets the session.
pub(super) static RRC_RELEASE: [SignalingStep; 2] = [
    step("rrc release", Ran, Ue, &[], 40),
    step("rrc release ack", Ue, Ran, &[], 32),
];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::SplitOption;
    use crate::state::StateCategory::*;

    #[test]
    fn procedure_sizes_match_figure9_scale() {
        // Full 5G registration involves ~20+ messages; service request
        // ~a dozen; handover and mobility registration ~10.
        assert_eq!(
            Procedure::build(ProcedureKind::InitialRegistration).message_count(),
            24
        );
        assert_eq!(
            Procedure::build(ProcedureKind::SessionEstablishment).message_count(),
            13
        );
        assert_eq!(Procedure::build(ProcedureKind::Handover).message_count(), 11);
        assert_eq!(
            Procedure::build(ProcedureKind::MobilityRegistration).message_count(),
            12
        );
        assert_eq!(Procedure::build(ProcedureKind::Paging).message_count(), 4);
        // Fig. 16: the localized exchanges SpaceCore replaces C2/C3 with.
        assert_eq!(
            Procedure::build(ProcedureKind::LocalEstablishment).message_count(),
            4
        );
        assert_eq!(Procedure::build(ProcedureKind::ReplicaHandover).message_count(), 3);
        assert_eq!(Procedure::build(ProcedureKind::RrcRelease).message_count(), 2);
    }

    #[test]
    fn figure16_exchanges_stay_between_ue_and_satellite() {
        // No home round trip and no infrastructure-side migration, read
        // off the tables themselves under every split.
        let splits = SplitOption::STATEFUL.into_iter().chain([SplitOption::SpaceCore]);
        for split in splits.map(SplitOption::split) {
            for (kind, piggybacks) in [
                (ProcedureKind::LocalEstablishment, 1),
                (ProcedureKind::ReplicaHandover, 1),
                (ProcedureKind::RrcRelease, 0),
            ] {
                let p = Procedure::build(kind);
                assert_eq!(p.ground_messages(&split), 0, "{}", kind.name());
                assert_eq!(p.state_op_count(), 0, "{}", kind.name());
                for s in p.steps {
                    assert!(s.from == Entity::Ue || s.to == Entity::Ue, "{}", s.label);
                }
                let carried = p.steps.iter().filter(|s| s.label.contains("piggyback")).count();
                assert_eq!(carried, piggybacks, "{}", kind.name());
            }
        }
    }

    #[test]
    fn c1_touches_all_control_functions() {
        let p = Procedure::build(ProcedureKind::InitialRegistration);
        let nfs: Vec<_> = p.nf_workload().into_iter().map(|(f, _)| f).collect();
        for f in [
            NetworkFunction::Amf,
            NetworkFunction::Smf,
            NetworkFunction::Upf,
            NetworkFunction::Ausf,
            NetworkFunction::Udm,
            NetworkFunction::Pcf,
        ] {
            assert!(nfs.contains(&f), "{f:?} missing from C1 workload");
        }
    }

    #[test]
    fn ground_crossings_by_option() {
        // Options 1-2 fetch session states from the ground (P6/P9 in
        // Fig. 9b) and so load ground stations; option 3 localizes all
        // but the PCF round-trip; option 4 is fully local.
        let c2 = Procedure::build(ProcedureKind::SessionEstablishment);
        let radio = c2.ground_messages(&SplitOption::RadioOnly.split());
        let data = c2.ground_messages(&SplitOption::DataSession.split());
        let mob = c2.ground_messages(&SplitOption::SessionMobility.split());
        let all = c2.ground_messages(&SplitOption::AllFunctions.split());
        assert!(radio >= 2, "radio {radio}");
        assert!(data >= radio, "data {data} radio {radio}");
        assert!(mob < data, "mob {mob} data {data}");
        assert_eq!(all, 0, "option 4 fully local");
    }

    #[test]
    fn option3_localizes_session_establishment() {
        // With AMF+SMF+UPF on the satellite, C2's only remaining ground
        // crossings are the PCF policy round-trip.
        let c2 = Procedure::build(ProcedureKind::SessionEstablishment);
        let mob = SplitOption::SessionMobility.split();
        assert_eq!(c2.ground_messages(&mob), 2);
    }

    #[test]
    fn c4_ships_security_states_on_context_transfer() {
        let c4 = Procedure::build(ProcedureKind::MobilityRegistration);
        let transfers_s5 = c4.steps.iter().any(|s| {
            s.label.contains("context transfer")
                && s.ops.iter().any(|o| o.category == S5Security)
        });
        assert!(transfers_s5, "C4 must migrate S5 between AMFs (Fig. 9d)");
    }

    #[test]
    fn state_tx_counts_only_crossings() {
        let c1 = Procedure::build(ProcedureKind::InitialRegistration);
        let all_space = SplitOption::AllFunctions.split();
        // With everything in space, no state crosses the boundary.
        assert_eq!(c1.state_tx_crossing(&all_space), 0);
        let radio = SplitOption::RadioOnly.split();
        assert!(c1.state_tx_crossing(&radio) >= 5, "{}", c1.state_tx_crossing(&radio));
    }

    #[test]
    fn every_step_has_positive_size() {
        for kind in [
            ProcedureKind::InitialRegistration,
            ProcedureKind::SessionEstablishment,
            ProcedureKind::Handover,
            ProcedureKind::MobilityRegistration,
            ProcedureKind::Paging,
            ProcedureKind::LocalEstablishment,
            ProcedureKind::ReplicaHandover,
            ProcedureKind::RrcRelease,
        ] {
            for s in Procedure::build(kind).steps {
                assert!(s.bytes > 0, "{}: {}", kind.name(), s.label);
                assert_ne!(s.from, s.to, "{}: {}", kind.name(), s.label);
            }
        }
    }

    #[test]
    fn satellite_touch_classification() {
        let radio = SplitOption::RadioOnly.split();
        let s = step(
            "x",
            Entity::Smf,
            Entity::Upf,
            &[],
            100,
        );
        // Both on ground under radio-only: satellite not involved.
        assert!(!s.touches_satellite(&radio));
        assert!(!s.crosses_space_ground(&radio));
        let s2 = step("y", Entity::Ue, Entity::Ran, &[], 100);
        assert!(s2.touches_satellite(&radio));
    }

    #[test]
    fn build_obs_counts_kinds_and_messages() {
        let rec = sc_obs::Recorder::new();
        Procedure::build_obs(ProcedureKind::InitialRegistration, &rec);
        Procedure::build_obs(ProcedureKind::SessionEstablishment, &rec);
        Procedure::build_obs(ProcedureKind::SessionEstablishment, &rec);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("fiveg.procedures.built"), 3);
        assert_eq!(snap.counter("fiveg.procedures.c1_initial_registration"), 1);
        assert_eq!(snap.counter("fiveg.procedures.c2_session_establishment"), 2);
        let h = snap.histogram("fiveg.procedure.messages");
        assert_eq!(h.map(|h| h.count()), Some(3));
        assert_eq!(h.and_then(|h| h.max()), Some(24.0));
    }

    #[test]
    fn open_span_tags_kind_and_messages() {
        let rec = sc_obs::Recorder::new();
        let p = Procedure::build_obs(ProcedureKind::SessionEstablishment, &rec);
        let span = p.open_span(
            &rec,
            0.0,
            vec![("route", sc_obs::FieldValue::from("ground"))],
        );
        rec.span_close(span, 62.0);
        let s = rec.snapshot();
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].kind, "fiveg.proc.c2_session_establishment");
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.spans[0].end, Some(62.0));
        let keys: Vec<&str> = s.spans[0].fields.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec!["messages", "route"]);
        // Disabled recorder: sentinel id, nothing recorded.
        let off = sc_obs::Recorder::disabled();
        assert_eq!(p.open_span(&off, 0.0, vec![]), sc_obs::SpanId::DISABLED);
    }

    #[test]
    fn span_kinds_are_distinct_and_prefixed() {
        let kinds = [
            ProcedureKind::InitialRegistration,
            ProcedureKind::SessionEstablishment,
            ProcedureKind::Handover,
            ProcedureKind::MobilityRegistration,
            ProcedureKind::Paging,
            ProcedureKind::LocalEstablishment,
            ProcedureKind::ReplicaHandover,
            ProcedureKind::RrcRelease,
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.span_kind()).collect();
        assert!(names.iter().all(|n| n.starts_with("fiveg.proc.")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
        // The windowed rate-series names are likewise distinct.
        let mut series: Vec<&str> = kinds.iter().map(|k| k.rate_series_name()).collect();
        assert!(series.iter().all(|n| n.starts_with("fiveg.msgs_per_window.")));
        series.sort_unstable();
        series.dedup();
        assert_eq!(series.len(), kinds.len());
    }

    #[test]
    fn build_obs_at_bills_the_windowed_rate_series() {
        let rec = sc_obs::Recorder::new();
        // Two C2 builds in window 0, one in window 2: the series carries
        // the per-window message totals, the counters the run totals.
        let p = Procedure::build_obs_at(ProcedureKind::SessionEstablishment, &rec, 0.1);
        Procedure::build_obs_at(ProcedureKind::SessionEstablishment, &rec, 0.9);
        Procedure::build_obs_at(ProcedureKind::SessionEstablishment, &rec, 2.0);
        let s = rec.snapshot();
        assert_eq!(s.counter("fiveg.procedures.c2_session_establishment"), 3);
        let m = p.message_count() as f64;
        let pts = s
            .series
            .get(ProcedureKind::SessionEstablishment.rate_series_name())
            .map(|d| d.points());
        assert_eq!(pts, Some(vec![(0, 2.0 * m), (2, m)]));
    }

    #[test]
    fn paging_reaches_ue_via_ran() {
        let p = Procedure::build(ProcedureKind::Paging);
        let last = p.steps.last().unwrap();
        assert_eq!(last.from, Entity::Ran);
        assert_eq!(last.to, Entity::Ue);
    }
}
