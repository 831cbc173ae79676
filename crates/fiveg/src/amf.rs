//! The AMF as an explicit state machine: UE registration contexts,
//! GUTI allocation, tracking-area management, and the inter-AMF context
//! transfer of C4 (Fig. 9d).
//!
//! This is the stateful heart of the paper's problem statement: every
//! registered UE leaves a context *here*, and when the serving AMF
//! changes — which, with satellite-bound tracking areas, happens for
//! every static UE every transit — that context must be migrated
//! (P16 "UE context transfer") and the old copy deleted.

use crate::ids::{Guti, PlmnId, Supi};
use crate::state::{SecurityState, SessionState};
use sc_obs::Recorder;
use std::collections::HashMap;

/// Registration state of one UE at an AMF (TS 23.501 RM/CM states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmState {
    /// Registered and reachable.
    RegisteredConnected,
    /// Registered, radio released (paging needed for downlink).
    RegisteredIdle,
}

/// A UE context held by an AMF. All-scalar and `Copy`: the context
/// transfer of C4 moves it by value, no heap traffic.
#[derive(Debug, Clone, Copy)]
pub struct UeContext {
    pub supi: Supi,
    pub guti: Guti,
    pub rm_state: RmState,
    /// Current tracking area the UE registered in.
    pub tracking_area: u32,
    /// The security context (S5) — what leaks when this AMF's node is
    /// compromised.
    pub security: SecurityState,
}

/// Errors from AMF operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmfError {
    /// No context for this UE.
    UnknownUe,
    /// Context transfer requested for a UE this AMF does not hold.
    TransferUnknownUe,
}

impl std::fmt::Display for AmfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmfError::UnknownUe => f.write_str("unknown UE"),
            AmfError::TransferUnknownUe => f.write_str("context transfer for unknown UE"),
        }
    }
}

impl std::error::Error for AmfError {}

/// An Access and Mobility Management Function instance.
#[derive(Debug, Clone)]
pub struct Amf {
    /// This AMF's identifier (baked into allocated GUTIs).
    pub amf_id: u32,
    plmn: PlmnId,
    // sc-audit: allow(state-flow, reason = "legacy stateful AMF baseline — the per-UE S1/S5 store the paper's stateless design eliminates (§3.2)")
    contexts: HashMap<Supi, UeContext>,
    next_tmsi: u32,
    /// Telemetry (disabled by default): `fiveg.amf.*` counters and the
    /// held-context gauge — the per-procedure accounting behind the
    /// Fig. 10 signaling-storm aggregates.
    obs: Recorder,
}

impl Amf {
    pub fn new(amf_id: u32, plmn: PlmnId) -> Self {
        Self {
            amf_id,
            plmn,
            contexts: HashMap::new(),
            next_tmsi: 1,
            obs: Recorder::disabled(),
        }
    }

    /// Attach a telemetry recorder; subsequent operations count under
    /// `fiveg.amf.*` and maintain the `fiveg.amf.contexts` gauge.
    pub fn attach_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    fn gauge_contexts(&self) {
        self.obs
            .set_gauge("fiveg.amf.contexts", self.contexts.len() as f64);
    }

    /// Number of held UE contexts (the hijack-exposure surface).
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// C1 — register a UE: create the context, allocate a fresh GUTI
    /// ("update S1 (5G-GUTI)" in Fig. 9a P5).
    pub fn register(&mut self, session: &SessionState, tracking_area: u32) -> Guti {
        let guti = self.allocate_guti();
        self.contexts.insert(
            session.id.supi,
            UeContext {
                supi: session.id.supi,
                guti,
                rm_state: RmState::RegisteredConnected,
                tracking_area,
                security: session.security,
            },
        );
        self.obs.inc("fiveg.amf.registrations", 1);
        self.gauge_contexts();
        guti
    }

    fn allocate_guti(&mut self) -> Guti {
        let tmsi = self.next_tmsi;
        self.next_tmsi = self.next_tmsi.wrapping_add(1);
        Guti::new(self.plmn, self.amf_id, tmsi)
    }

    /// Connection release (RRC inactivity): RM stays registered, CM
    /// goes idle.
    pub fn release(&mut self, supi: Supi) -> Result<(), AmfError> {
        let ctx = self.contexts.get_mut(&supi).ok_or(AmfError::UnknownUe)?;
        ctx.rm_state = RmState::RegisteredIdle;
        self.obs.inc("fiveg.amf.releases", 1);
        Ok(())
    }

    /// Service request: idle → connected.
    pub fn service_request(&mut self, supi: Supi) -> Result<(), AmfError> {
        let ctx = self.contexts.get_mut(&supi).ok_or(AmfError::UnknownUe)?;
        ctx.rm_state = RmState::RegisteredConnected;
        self.obs.inc("fiveg.amf.service_requests", 1);
        Ok(())
    }

    /// Does this UE need paging for downlink data?
    pub fn needs_paging(&self, supi: Supi) -> Result<bool, AmfError> {
        Ok(self
            .contexts
            .get(&supi)
            .ok_or(AmfError::UnknownUe)?
            .rm_state
            == RmState::RegisteredIdle)
    }

    /// P16 — outgoing side of the inter-AMF context transfer: hand the
    /// context to the new AMF and delete the local copy ("after which
    /// the old AMF deletes the states", §3.2).
    pub fn transfer_out(&mut self, supi: Supi) -> Result<UeContext, AmfError> {
        let ctx = self
            .contexts
            .remove(&supi)
            .ok_or(AmfError::TransferUnknownUe)?;
        self.obs.inc("fiveg.amf.transfers_out", 1);
        self.gauge_contexts();
        Ok(ctx)
    }

    /// P16 — incoming side: adopt the context, re-allocate the GUTI
    /// under this AMF's identity, update the tracking area.
    pub fn transfer_in(&mut self, mut ctx: UeContext, new_tracking_area: u32) -> Guti {
        let guti = self.allocate_guti();
        ctx.guti = guti;
        ctx.tracking_area = new_tracking_area;
        self.contexts.insert(ctx.supi, ctx);
        self.obs.inc("fiveg.amf.transfers_in", 1);
        self.gauge_contexts();
        guti
    }

    /// Look up a context.
    pub fn context(&self, supi: Supi) -> Option<&UeContext> {
        self.contexts.get(&supi)
    }

    /// All security contexts a hijacker of this AMF's node can read,
    /// in SUPI order (deterministic emission).
    pub fn security_exposure(&self) -> Vec<(Supi, &SecurityState)> {
        let mut v: Vec<(Supi, &SecurityState)> = self
            .contexts
            .iter()
            .map(|(s, c)| (*s, &c.security))
            .collect();
        v.sort_unstable_by_key(|(s, _)| *s);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests compose with `?` (`AmfError` and missing-context strings
    /// both box) instead of `unwrap()` — see the R3 ratchet.
    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn amf(id: u32) -> Amf {
        Amf::new(id, PlmnId::new(460, 1))
    }

    fn register_one(a: &mut Amf, msin: u64, ta: u32) -> SessionState {
        let s = SessionState::sample(msin);
        a.register(&s, ta);
        s
    }

    #[test]
    fn registration_creates_context_with_fresh_guti() -> TestResult {
        let mut a = amf(1);
        let s = register_one(&mut a, 5, 10);
        let ctx = *a.context(s.id.supi).ok_or("no context")?;
        assert_eq!(ctx.rm_state, RmState::RegisteredConnected);
        assert_eq!(ctx.tracking_area, 10);
        assert_eq!(ctx.guti.amf_id, 1);
        // Distinct GUTIs per registration.
        let s2 = register_one(&mut a, 6, 10);
        let ctx2 = a.context(s2.id.supi).ok_or("no second context")?;
        assert_ne!(ctx2.guti, ctx.guti);
        Ok(())
    }

    #[test]
    fn idle_connected_cycle_and_paging() -> TestResult {
        let mut a = amf(1);
        let s = register_one(&mut a, 7, 3);
        assert!(!a.needs_paging(s.id.supi)?);
        a.release(s.id.supi)?;
        assert!(a.needs_paging(s.id.supi)?);
        a.service_request(s.id.supi)?;
        assert!(!a.needs_paging(s.id.supi)?);
        Ok(())
    }

    #[test]
    fn context_transfer_moves_and_deletes() -> TestResult {
        let mut old = amf(1);
        let mut new = amf(2);
        let s = register_one(&mut old, 8, 3);
        let old_guti = old.context(s.id.supi).ok_or("no context")?.guti;

        let ctx = old.transfer_out(s.id.supi)?;
        assert_eq!(old.context_count(), 0, "old AMF deleted the state");
        let new_guti = new.transfer_in(ctx, 42);
        assert_ne!(new_guti, old_guti, "GUTI re-allocated by new AMF");
        let ctx2 = new.context(s.id.supi).ok_or("context not adopted")?;
        assert_eq!(ctx2.tracking_area, 42);
        // Security context followed the UE (this is the S5 migration the
        // paper worries about).
        assert_eq!(ctx2.security, s.security);
        Ok(())
    }

    #[test]
    fn satellite_sweep_storm_in_miniature() -> TestResult {
        // 100 static UEs, a sweep every "transit": every context moves
        // AMF→AMF each time. Count the migrations a stateful design pays.
        let mut amfs: Vec<Amf> = (0..4).map(amf).collect();
        let mut supis = Vec::new();
        for i in 0..100 {
            let s = register_one(&mut amfs[0], i, 0);
            supis.push(s.id.supi);
        }
        let mut migrations = 0;
        for sweep in 1..4usize {
            for supi in &supis {
                let ctx = amfs[sweep - 1].transfer_out(*supi)?;
                amfs[sweep].transfer_in(ctx, sweep as u32);
                migrations += 1;
            }
        }
        assert_eq!(migrations, 300);
        assert_eq!(amfs[3].context_count(), 100);
        assert_eq!(amfs[0].context_count() + amfs[1].context_count() + amfs[2].context_count(), 0);
        Ok(())
    }

    #[test]
    fn recorder_counts_lifecycle_and_gauges_contexts() -> TestResult {
        let rec = Recorder::new();
        let mut a = amf(1);
        a.attach_recorder(rec.clone());
        let s = register_one(&mut a, 5, 10);
        a.release(s.id.supi)?;
        a.service_request(s.id.supi)?;
        let ctx = a.transfer_out(s.id.supi)?;
        let mut b = amf(2);
        b.attach_recorder(rec.clone());
        b.transfer_in(ctx, 11);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("fiveg.amf.registrations"), 1);
        assert_eq!(snap.counter("fiveg.amf.releases"), 1);
        assert_eq!(snap.counter("fiveg.amf.service_requests"), 1);
        assert_eq!(snap.counter("fiveg.amf.transfers_out"), 1);
        assert_eq!(snap.counter("fiveg.amf.transfers_in"), 1);
        assert_eq!(snap.gauge("fiveg.amf.contexts"), Some(1.0));
        Ok(())
    }

    #[test]
    fn exposure_equals_held_contexts() {
        let mut a = amf(1);
        for i in 0..10 {
            register_one(&mut a, 100 + i, 0);
        }
        assert_eq!(a.security_exposure().len(), 10);
    }

    #[test]
    fn unknown_ue_errors() {
        let mut a = amf(1);
        let ghost = Supi::new(PlmnId::new(460, 1), 999);
        assert_eq!(a.release(ghost).unwrap_err(), AmfError::UnknownUe);
        assert_eq!(a.transfer_out(ghost).unwrap_err(), AmfError::TransferUnknownUe);
        assert!(a.context(ghost).is_none());
    }
}
