//! The SMF as an explicit state machine: PDU session contexts, IP
//! allocation, anchor-UPF selection, and the path updates of C2/C3.
//!
//! In the legacy architecture each session is pinned to a fixed anchor
//! UPF "since the global users' traffic would be redirected to it"
//! (§3.1) — the data-plane bottleneck SpaceCore removes. This SMF makes
//! that anchor explicit, so experiments can count how much traffic each
//! anchor attracts.

use crate::ids::{SessionId, Supi, TunnelId};
use sc_obs::Recorder;
use std::collections::HashMap;
use std::net::Ipv6Addr;

/// A PDU session context at the SMF. All-scalar and `Copy`:
/// [`Smf::establish`] returns it by value, so callers never clone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PduSession {
    pub supi: Supi,
    pub session_id: SessionId,
    /// Allocated UE address.
    pub ip: Ipv6Addr,
    /// The anchor UPF this session is pinned to.
    pub anchor_upf: u32,
    /// Uplink tunnel toward the anchor.
    pub uplink_teid: TunnelId,
    /// Downlink tunnel toward the current RAN node.
    pub downlink_teid: TunnelId,
    /// Current RAN node id (changes on every handover path switch).
    pub ran_node: u32,
}

/// Errors from SMF operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmfError {
    UnknownSession,
    /// Per-UE session limit exceeded (5G allows 15).
    TooManySessions,
    /// The SMF was configured with no candidate anchor UPFs.
    NoAnchors,
}

impl std::fmt::Display for SmfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmfError::UnknownSession => f.write_str("unknown PDU session"),
            SmfError::TooManySessions => f.write_str("per-UE session limit reached"),
            SmfError::NoAnchors => f.write_str("no candidate anchor UPFs configured"),
        }
    }
}

impl std::error::Error for SmfError {}

/// A Session Management Function with an IP pool and a set of candidate
/// anchor UPFs.
#[derive(Debug, Clone)]
pub struct Smf {
    /// Candidate anchor UPF ids (ground gateways in the legacy design).
    anchors: Vec<u32>,
    /// IPv6 prefix for the UE pool.
    prefix: u64,
    next_host: u64,
    next_teid: u32,
    // sc-audit: allow(state-flow, reason = "legacy stateful SMF baseline — per-UE S2 session anchors, kept to account the Fig. 5a anchor-gateway bottleneck")
    sessions: HashMap<(Supi, SessionId), PduSession>,
    /// Sessions pinned per anchor (bottleneck accounting).
    per_anchor: HashMap<u32, u32>,
    /// Telemetry (disabled by default): `fiveg.smf.*` counters and the
    /// active-session gauge.
    obs: Recorder,
}

/// 5G's per-UE PDU session cap.
pub const MAX_SESSIONS_PER_UE: usize = 15;

impl Smf {
    pub fn new(anchors: Vec<u32>, prefix: u64) -> Self {
        assert!(!anchors.is_empty(), "need at least one anchor UPF");
        Self {
            anchors,
            prefix,
            next_host: 1,
            next_teid: 1,
            sessions: HashMap::new(),
            per_anchor: HashMap::new(),
            obs: Recorder::disabled(),
        }
    }

    /// Attach a telemetry recorder; subsequent operations count under
    /// `fiveg.smf.*` and maintain the `fiveg.smf.sessions` gauge.
    pub fn attach_recorder(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// C2/P7-P9 — establish a PDU session: allocate IP + tunnels, select
    /// the least-loaded anchor UPF. Returns the session by value
    /// (`PduSession` is `Copy`).
    pub fn establish(
        &mut self,
        supi: Supi,
        session_id: SessionId,
        ran_node: u32,
    ) -> Result<PduSession, SmfError> {
        let per_ue = self.sessions.keys().filter(|(s, _)| *s == supi).count();
        if per_ue >= MAX_SESSIONS_PER_UE {
            return Err(SmfError::TooManySessions);
        }
        let anchor = *self
            .anchors
            .iter()
            .min_by_key(|a| self.per_anchor.get(a).copied().unwrap_or(0))
            .ok_or(SmfError::NoAnchors)?;
        *self.per_anchor.entry(anchor).or_insert(0) += 1;

        let ip = Ipv6Addr::from(((self.prefix as u128) << 64) | self.next_host as u128);
        self.next_host += 1;
        let uplink = TunnelId(self.next_teid);
        let downlink = TunnelId(self.next_teid + 1);
        self.next_teid += 2;

        let session = PduSession {
            supi,
            session_id,
            ip,
            anchor_upf: anchor,
            uplink_teid: uplink,
            downlink_teid: downlink,
            ran_node,
        };
        self.obs.inc("fiveg.smf.establishments", 1);
        self.sessions.insert((supi, session_id), session);
        self.obs
            .set_gauge("fiveg.smf.sessions", self.sessions.len() as f64);
        Ok(session)
    }

    /// C3/P10 — path switch: point the downlink at a new RAN node. The
    /// anchor (and the IP) stay fixed — that is the legacy design's
    /// session-continuity mechanism *and* its bottleneck.
    pub fn path_switch(
        &mut self,
        supi: Supi,
        session_id: SessionId,
        new_ran_node: u32,
    ) -> Result<TunnelId, SmfError> {
        let s = self
            .sessions
            .get_mut(&(supi, session_id))
            .ok_or(SmfError::UnknownSession)?;
        s.ran_node = new_ran_node;
        // New downlink tunnel toward the new node.
        s.downlink_teid = TunnelId(self.next_teid);
        self.next_teid += 1;
        let teid = s.downlink_teid;
        self.obs.inc("fiveg.smf.path_switches", 1);
        Ok(teid)
    }

    /// P15 — release a session.
    pub fn release(&mut self, supi: Supi, session_id: SessionId) -> Result<(), SmfError> {
        let s = self
            .sessions
            .remove(&(supi, session_id))
            .ok_or(SmfError::UnknownSession)?;
        if let Some(n) = self.per_anchor.get_mut(&s.anchor_upf) {
            *n = n.saturating_sub(1);
        }
        self.obs.inc("fiveg.smf.releases", 1);
        self.obs
            .set_gauge("fiveg.smf.sessions", self.sessions.len() as f64);
        Ok(())
    }

    /// Look up a session.
    pub fn session(&self, supi: Supi, session_id: SessionId) -> Option<&PduSession> {
        self.sessions.get(&(supi, session_id))
    }

    /// Sessions currently pinned to each anchor — the Fig. 5a
    /// "anchor gateway as single-point bottleneck" quantity.
    pub fn anchor_load(&self) -> &HashMap<u32, u32> {
        &self.per_anchor
    }

    /// Total active sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PlmnId;

    /// Tests compose with `?` instead of `unwrap()` — see the R3 ratchet.
    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn supi(n: u64) -> Supi {
        Supi::new(PlmnId::new(460, 1), n)
    }

    fn smf() -> Smf {
        Smf::new(vec![100, 101, 102], 0xFD00_0000_0000_0001)
    }

    #[test]
    fn establish_allocates_unique_resources() -> TestResult {
        let mut s = smf();
        let a = s.establish(supi(1), SessionId(1), 7)?;
        let b = s.establish(supi(2), SessionId(1), 7)?;
        assert_ne!(a.ip, b.ip);
        assert_ne!(a.uplink_teid, b.uplink_teid);
        assert_ne!(a.downlink_teid, b.downlink_teid);
        assert_eq!(s.session_count(), 2);
        Ok(())
    }

    #[test]
    fn anchor_selection_balances_load() -> TestResult {
        let mut s = smf();
        for i in 0..30 {
            s.establish(supi(i), SessionId(1), 0)?;
        }
        let loads: Vec<u32> = s.anchor_load().values().copied().collect();
        assert_eq!(loads.iter().sum::<u32>(), 30);
        for l in loads {
            assert_eq!(l, 10, "least-loaded selection balances evenly");
        }
        Ok(())
    }

    #[test]
    fn path_switch_keeps_ip_and_anchor() -> TestResult {
        // The legacy session-continuity contract: the IP and anchor
        // survive handovers; only the downlink leg moves.
        let mut s = smf();
        let before = s.establish(supi(1), SessionId(1), 7)?;
        let new_teid = s.path_switch(supi(1), SessionId(1), 8)?;
        let after = s
            .session(supi(1), SessionId(1))
            .ok_or("session vanished after path switch")?;
        assert_eq!(after.ip, before.ip);
        assert_eq!(after.anchor_upf, before.anchor_upf);
        assert_eq!(after.ran_node, 8);
        assert_eq!(after.downlink_teid, new_teid);
        assert_ne!(new_teid, before.downlink_teid);
        Ok(())
    }

    #[test]
    fn release_frees_anchor_capacity() -> TestResult {
        let mut s = smf();
        let sess = s.establish(supi(1), SessionId(1), 0)?;
        assert_eq!(s.anchor_load()[&sess.anchor_upf], 1);
        s.release(supi(1), SessionId(1))?;
        assert_eq!(s.anchor_load()[&sess.anchor_upf], 0);
        assert_eq!(s.session_count(), 0);
        assert_eq!(
            s.release(supi(1), SessionId(1)).unwrap_err(),
            SmfError::UnknownSession
        );
        Ok(())
    }

    #[test]
    fn recorder_counts_session_lifecycle() -> TestResult {
        let rec = Recorder::new();
        let mut s = smf();
        s.attach_recorder(rec.clone());
        s.establish(supi(1), SessionId(1), 7)?;
        s.establish(supi(2), SessionId(1), 7)?;
        s.path_switch(supi(1), SessionId(1), 8)?;
        s.release(supi(2), SessionId(1))?;
        let snap = rec.snapshot();
        assert_eq!(snap.counter("fiveg.smf.establishments"), 2);
        assert_eq!(snap.counter("fiveg.smf.path_switches"), 1);
        assert_eq!(snap.counter("fiveg.smf.releases"), 1);
        assert_eq!(snap.gauge("fiveg.smf.sessions"), Some(1.0));
        Ok(())
    }

    #[test]
    fn per_ue_session_cap() -> TestResult {
        let mut s = smf();
        for i in 0..MAX_SESSIONS_PER_UE {
            s.establish(supi(1), SessionId(i as u32), 0)?;
        }
        assert_eq!(
            s.establish(supi(1), SessionId(99), 0).unwrap_err(),
            SmfError::TooManySessions
        );
        // Other UEs unaffected.
        assert!(s.establish(supi(2), SessionId(1), 0).is_ok());
        Ok(())
    }

    #[test]
    fn single_anchor_becomes_the_bottleneck() -> TestResult {
        // Fig. 5a in miniature: with one gateway anchor, every session
        // lands on it.
        let mut s = Smf::new(vec![100], 0xFD00);
        for i in 0..50 {
            s.establish(supi(i), SessionId(1), 0)?;
        }
        assert_eq!(s.anchor_load()[&100], 50);
        Ok(())
    }
}
