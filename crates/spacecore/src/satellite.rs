//! The SpaceCore satellite agent: localized session establishment
//! (Fig. 16) with rollback to the legacy home-routed path.
//!
//! The agent is deliberately **stateless across sessions**: it keeps only
//! the set of *currently served* sessions (radio/UPF install state that
//! any base station must hold while a connection is active) and its
//! launch-time credentials. Nothing survives the session: when the UE
//! leaves or the connection releases, the satellite forgets it — that is
//! the property that bounds hijack leakage (Fig. 19a) to active users.

use crate::home::HomeNetwork;
use crate::uestate::UeDevice;
use sc_crypto::statecrypt::{
    satellite_local_access_obs, ue_complete_exchange, EncryptedUeState, SatCredentials,
    StateCryptError,
};
use sc_crypto::wire::WireError;
use sc_fiveg::arena::{BufId, MessageArena};
use sc_fiveg::ids::Supi;
use sc_fiveg::messages::{Procedure, ProcedureKind};
use sc_fiveg::nas::{IeTag, NasDecodeError, NasMessageType, NasView};
use sc_fiveg::state::SessionState;
use sc_orbit::SatId;
use std::collections::HashMap;

/// Home round trips of the legacy home-routed C2 (Fig. 9b) that a
/// rollback, and 5G NTN's crash recovery, pay. A model constant, not a
/// count of the C2 table: its ground crossings give one round trip under
/// the radio-only split and two under SpaceCore's.
pub(crate) const LEGACY_C2_HOME_ROUND_TRIPS: u32 = 3;

/// Fig. 16a / 16c message counts, read off the step tables at compile time.
const LOCAL_MSGS: u32 = Procedure::build(ProcedureKind::LocalEstablishment).message_count() as u32;
const HANDOVER_MSGS: u32 = Procedure::build(ProcedureKind::ReplicaHandover).message_count() as u32;

/// How a session establishment was served.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Served from the UE's local replica (true) or via home rollback.
    pub local: bool,
    /// Signaling messages the satellite exchanged over the air / ISLs.
    pub signaling_messages: u32,
    /// Round-trips to the terrestrial home.
    pub home_round_trips: u32,
    /// The negotiated session key (present on the local path).
    pub session_key: Option<u64>,
}

/// Why the local path failed (before rollback), one variant per cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalPathFailure {
    /// UE has no SpaceCore proxy.
    NoUeSupport,
    /// The piggybacked NAS message did not parse.
    NasDecode(NasDecodeError),
    /// The NAS message parsed but carries no `StateReplica` IE.
    MissingReplicaIe,
    /// The `StateReplica` IE is not a valid replica encoding.
    ReplicaWire(WireError),
    /// State crypto failure (policy, TTL, tamper, certs).
    Crypto(StateCryptError),
    /// The replica decrypted and verified, but its payload is not a
    /// `SessionState` this codec version reads.
    StateCodec,
}

impl LocalPathFailure {
    /// The `spacecore.satellite.rollback.*` counter this cause lands on.
    fn rollback_counter(&self) -> &'static str {
        match self {
            LocalPathFailure::NoUeSupport => "spacecore.satellite.rollback.no_ue_support",
            LocalPathFailure::NasDecode(_) => "spacecore.satellite.rollback.nas_decode",
            LocalPathFailure::MissingReplicaIe => "spacecore.satellite.rollback.missing_replica_ie",
            LocalPathFailure::ReplicaWire(_) => "spacecore.satellite.rollback.replica_wire",
            LocalPathFailure::Crypto(StateCryptError::Expired) => {
                "spacecore.satellite.rollback.crypto_expired"
            }
            LocalPathFailure::Crypto(StateCryptError::Abe(_)) => {
                "spacecore.satellite.rollback.crypto_abe"
            }
            LocalPathFailure::Crypto(StateCryptError::Sts(_)) => {
                "spacecore.satellite.rollback.crypto_sts"
            }
            LocalPathFailure::Crypto(StateCryptError::BadHomeSignature) => {
                "spacecore.satellite.rollback.crypto_home_sig"
            }
            LocalPathFailure::StateCodec => "spacecore.satellite.rollback.state_codec",
        }
    }
}

impl std::fmt::Display for LocalPathFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalPathFailure::NoUeSupport => f.write_str("UE has no SpaceCore proxy"),
            LocalPathFailure::NasDecode(e) => write!(f, "piggybacked NAS message: {e}"),
            LocalPathFailure::MissingReplicaIe => f.write_str("no StateReplica IE"),
            LocalPathFailure::ReplicaWire(e) => write!(f, "StateReplica IE: {e}"),
            LocalPathFailure::Crypto(e) => write!(f, "state crypto: {e}"),
            LocalPathFailure::StateCodec => f.write_str("decrypted payload is not a session state"),
        }
    }
}

impl std::error::Error for LocalPathFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LocalPathFailure::NasDecode(e) => Some(e),
            LocalPathFailure::ReplicaWire(e) => Some(e),
            LocalPathFailure::Crypto(e) => Some(e),
            LocalPathFailure::NoUeSupport
            | LocalPathFailure::MissingReplicaIe
            | LocalPathFailure::StateCodec => None,
        }
    }
}

/// The UE proxy's send side: the PDU session request with the replica
/// and `X` piggybacked — the bytes of
/// [`sc_fiveg::nas::piggybacked_session_request`], written straight into
/// a pooled buffer.
fn write_piggyback(arena: &mut MessageArena, replica: &EncryptedUeState, x: u64) -> BufId {
    arena.write_nas(NasMessageType::PduSessionEstablishmentRequest, |w| {
        w.ie(IeTag::StateReplica, |b| {
            sc_crypto::wire::encode_state_into(replica, b)
        });
        w.ie(IeTag::DhPublic, |b| b.extend_from_slice(&x.to_be_bytes()));
    })
}

/// The satellite proxy's receive side: the replica inside the NAS PDU it
/// was sent, or the step that failed. The PDU is parsed where it lies;
/// the returned replica is the one copy made of it.
fn received_replica(pdu: &[u8]) -> Result<EncryptedUeState, LocalPathFailure> {
    let nas = NasView::parse(pdu).map_err(LocalPathFailure::NasDecode)?;
    let replica_bytes = nas
        .ie(IeTag::StateReplica)
        .ok_or(LocalPathFailure::MissingReplicaIe)?;
    sc_crypto::wire::decode_state(replica_bytes).map_err(LocalPathFailure::ReplicaWire)
}

/// A satellite running the SpaceCore proxy.
#[derive(Debug)]
pub struct SpaceCoreSatellite {
    /// Which satellite this is.
    pub id: SatId,
    creds: SatCredentials,
    /// Currently served sessions: SUPI → installed state + key.
    // sc-audit: allow(state-flow, reason = "ephemeral radio-install state for currently served sessions only; forgotten on release, bounding hijack leakage to active users (Fig. 19a)")
    active: parking_lot::Mutex<HashMap<Supi, ActiveSession>>,
    /// Home crypto handle for envelope verification (public material).
    home_cert_key: u64,
    /// Telemetry (disabled by default): `spacecore.satellite.*` counters
    /// and the active-session gauge; local accesses also feed the
    /// `crypto.statecrypt.*` counters.
    obs: sc_obs::Recorder,
    /// Pooled NAS buffers: each establishment writes the piggybacked
    /// session request into one and parses it there, and after the
    /// first one the arena serves every run allocation-free.
    arena: parking_lot::Mutex<MessageArena>,
}

/// Radio/UPF install state for one active session.
#[derive(Debug, Clone)]
pub struct ActiveSession {
    pub state: SessionState,
    pub session_key: u64,
    pub established_at: f64,
}

impl SpaceCoreSatellite {
    /// Provision from the home before "launch" (Algorithm 2 line 3).
    pub fn provision(home: &HomeNetwork, id: SatId) -> Self {
        Self {
            id,
            creds: home.provision_satellite(id),
            active: parking_lot::Mutex::new(HashMap::new()),
            home_cert_key: home.cert_verify_key(),
            obs: sc_obs::Recorder::disabled(),
            arena: parking_lot::Mutex::new(MessageArena::new()),
        }
    }

    /// Attach a telemetry recorder; subsequent establishments count
    /// under `spacecore.satellite.*` (and `crypto.statecrypt.*`).
    pub fn attach_recorder(&mut self, obs: sc_obs::Recorder) {
        self.obs = obs;
    }

    /// Provision with custom attributes (unauthorized/revoked satellites
    /// for the security experiments).
    pub fn provision_with_attrs(home: &HomeNetwork, id: SatId, attrs: &[&str]) -> Self {
        Self {
            id,
            creds: home.provision_satellite_with_attrs(id, attrs),
            active: parking_lot::Mutex::new(HashMap::new()),
            home_cert_key: home.cert_verify_key(),
            obs: sc_obs::Recorder::disabled(),
            arena: parking_lot::Mutex::new(MessageArena::new()),
        }
    }

    /// Fig. 16a/b — localized session establishment. The UE piggybacks
    /// its encrypted replica in the RRC setup-complete message; the
    /// satellite decrypts locally (Algorithm 2), verifies the home
    /// envelope, completes the station-to-station exchange, and installs
    /// the session — the over-the-air messages of
    /// [`ProcedureKind::LocalEstablishment`], no home round-trip.
    ///
    /// On any failure the caller must take the rollback path
    /// ([`Self::establish_session`] does both).
    pub fn try_local_establishment(
        &self,
        home: &HomeNetwork,
        ue: &mut UeDevice,
        now: f64,
    ) -> Result<SessionOutcome, LocalPathFailure> {
        if !ue.supports_spacecore {
            return Err(LocalPathFailure::NoUeSupport);
        }
        // Algorithm 2 line 10: UE sends X and the encrypted state —
        // as actual bytes: the replica is wire-encoded into the NAS PDU
        // session request's StateReplica IE (§5) in a pooled buffer,
        // and the satellite proxy parses it where it lies.
        let ue_sts = ue.begin_key_exchange(home.dh_params());
        let replica = {
            let mut arena = self.arena.lock();
            arena.reset();
            let pdu = write_piggyback(&mut arena, ue.piggyback(), ue_sts.public_value());
            received_replica(arena.bytes(pdu))?
        };
        // Satellite side (lines 11-13).
        let eph = sc_crypto::field::keyed_hash(
            (self.id.plane as u64) << 32 | self.id.slot as u64,
            &now.to_bits().to_le_bytes(),
        );
        let out = satellite_local_access_obs(
            &self.obs,
            &self.creds,
            home.crypto(),
            &replica,
            ue_sts.public_value(),
            eph,
            now,
        )
        .map_err(LocalPathFailure::Crypto)?;
        // UE side (line 14).
        let k_ue = ue_complete_exchange(
            self.home_cert_key,
            &ue_sts,
            &self.creds.cert,
            self.creds.cert.subject,
            out.y_public,
            out.transcript_sig,
        )
        .map_err(LocalPathFailure::Crypto)?;
        debug_assert_eq!(k_ue, out.session_key);

        let state = SessionState::decode(&out.state).ok_or(LocalPathFailure::StateCodec)?;
        let active_now = {
            let mut active = self.active.lock();
            active.insert(
                ue.supi,
                ActiveSession {
                    state,
                    session_key: out.session_key,
                    established_at: now,
                },
            );
            active.len()
        };
        self.obs.inc("spacecore.satellite.local_establishments", 1);
        self.obs
            .set_gauge("spacecore.satellite.active_sessions", active_now as f64);
        // Windowed view of the same gauge, stamped at the establishment
        // time — the rise of a session-load storm has a time axis.
        self.obs.series_gauge(
            "spacecore.satellite.active_sessions",
            now,
            active_now as f64,
        );
        Ok(SessionOutcome {
            local: true,
            signaling_messages: LOCAL_MSGS,
            home_round_trips: 0,
            session_key: Some(out.session_key),
        })
    }

    /// Full establishment: local path, with rollback to the legacy
    /// home-routed C2 on failure ("Otherwise, the serving satellite …
    /// rolls back to the legacy procedure in Figure 9b").
    pub fn establish_session(
        &self,
        home: &HomeNetwork,
        ue: &mut UeDevice,
        now: f64,
    ) -> SessionOutcome {
        match self.try_local_establishment(home, ue, now) {
            Ok(o) => o,
            Err(cause) => {
                self.obs.inc("spacecore.satellite.rollbacks", 1);
                self.obs.inc(cause.rollback_counter(), 1);
                let c2 = Procedure::build(ProcedureKind::SessionEstablishment);
                SessionOutcome {
                    local: false,
                    signaling_messages: c2.message_count() as u32,
                    home_round_trips: LEGACY_C2_HOME_ROUND_TRIPS,
                    session_key: None,
                }
            }
        }
    }

    /// Fig. 16c — inter-satellite handover with the UE's replica: the UE
    /// piggybacks its state in the handover acknowledgment to the new
    /// satellite, bypassing P13/P10/P14 (path switch through the core).
    pub fn handover_in(
        &self,
        home: &HomeNetwork,
        ue: &mut UeDevice,
        now: f64,
    ) -> Result<SessionOutcome, LocalPathFailure> {
        let mut o = self.try_local_establishment(home, ue, now)?;
        self.obs.inc("spacecore.satellite.handovers_in", 1);
        // The replica rides the HO confirm instead of its own RRC setup.
        o.signaling_messages = HANDOVER_MSGS;
        Ok(o)
    }

    /// §3.3 / Fig. 13 — the UE's *previous* serving satellite crashed
    /// mid-session and this satellite is the next one visible. Because
    /// the session state is self-carried by the UE, recovery is just the
    /// localized establishment of Fig. 16a replayed here: no home
    /// round-trip, and the geospatial IP (never bound to the dead
    /// satellite) survives. Stateful baselines have no equivalent — they
    /// redo the full home-routed registration
    /// (see [`crate::recovery::RecoveryPlan`]).
    pub fn recover_session(
        &self,
        home: &HomeNetwork,
        ue: &mut UeDevice,
        now: f64,
    ) -> Result<SessionOutcome, LocalPathFailure> {
        let o = self.try_local_establishment(home, ue, now)?;
        self.obs.inc("spacecore.satellite.crash_recoveries", 1);
        Ok(o)
    }

    /// Release a session (UE left coverage / inactivity): the satellite
    /// forgets everything about the UE.
    pub fn release(&self, supi: Supi) -> bool {
        let (removed, active_now) = {
            let mut active = self.active.lock();
            (active.remove(&supi).is_some(), active.len())
        };
        if removed {
            self.obs.inc("spacecore.satellite.releases", 1);
            self.obs
                .set_gauge("spacecore.satellite.active_sessions", active_now as f64);
        }
        removed
    }

    /// Number of currently served sessions.
    pub fn active_sessions(&self) -> usize {
        self.active.lock().len()
    }

    /// What a hijacker can read off this satellite **right now**: only
    /// the active sessions' states/keys (Fig. 19a — "only the active
    /// serving users' keys are leaked in this case").
    pub fn hijack_exposure(&self) -> Vec<(Supi, u64)> {
        let mut v: Vec<(Supi, u64)> = self
            .active
            .lock()
            .iter()
            .map(|(s, a)| (*s, a.session_key))
            .collect();
        v.sort_unstable_by_key(|(s, _)| *s);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::{HomeConfig, HomeNetwork};
    use sc_geo::sphere::GeoPoint;

    fn setup() -> (HomeNetwork, SpaceCoreSatellite, UeDevice) {
        let home = HomeNetwork::new(HomeConfig::default());
        let sat = SpaceCoreSatellite::provision(&home, SatId::new(3, 7));
        let ue = home.register_ue(100, &GeoPoint::from_degrees(39.9, 116.4));
        (home, sat, ue)
    }

    #[test]
    fn local_path_succeeds_without_home() {
        let (home, sat, mut ue) = setup();
        let o = sat.establish_session(&home, &mut ue, 1.0);
        assert!(o.local);
        assert_eq!(o.home_round_trips, 0);
        assert_eq!(o.signaling_messages, 4);
        assert!(o.session_key.is_some());
        assert_eq!(sat.active_sessions(), 1);
    }

    #[test]
    fn legacy_ue_rolls_back() {
        let (home, sat, mut ue) = setup();
        ue.supports_spacecore = false;
        let o = sat.establish_session(&home, &mut ue, 1.0);
        assert!(!o.local);
        assert_eq!(o.home_round_trips, 3);
        let c2 = Procedure::build(ProcedureKind::SessionEstablishment);
        assert_eq!(o.signaling_messages as usize, c2.message_count());
        assert_eq!(sat.active_sessions(), 0);
    }

    #[test]
    fn unauthorized_satellite_rolls_back() {
        let (home, _, mut ue) = setup();
        let rogue =
            SpaceCoreSatellite::provision_with_attrs(&home, SatId::new(9, 9), &["role:satellite"]);
        let err = rogue.try_local_establishment(&home, &mut ue, 1.0).unwrap_err();
        assert!(matches!(err, LocalPathFailure::Crypto(_)));
        let o = rogue.establish_session(&home, &mut ue, 1.0);
        assert!(!o.local);
    }

    #[test]
    fn expired_replica_rolls_back() {
        let (home, sat, mut ue) = setup();
        let past_ttl = home.config().state_ttl_s + 1.0;
        let err = sat
            .try_local_establishment(&home, &mut ue, past_ttl)
            .unwrap_err();
        assert_eq!(
            err,
            LocalPathFailure::Crypto(StateCryptError::Expired)
        );
    }

    #[test]
    fn replica_refreshed_after_the_first_hour_is_fresh() {
        // A refresh at t = 10 000 s issued version 2 with
        // `expires_at = 2 × state_ttl_s = 7 200`, so the establishment
        // one second later rolled back.
        let (home, sat, mut ue) = setup();
        let ttl = home.config().state_ttl_s;
        let (session, replica) = home.refresh_state(&ue, 10_000.0);
        assert_eq!((replica.version, replica.expires_at), (2, 10_000.0 + ttl));
        assert!(ue.install_update(session, replica).is_ok());
        let o = sat.establish_session(&home, &mut ue, 10_001.0);
        assert!(o.local, "{o:?}");
        assert_eq!(o.home_round_trips, 0);
        assert!(sat.release(ue.supi));
        // Past the refreshed TTL it rolls back as any expired replica does.
        let o = sat.establish_session(&home, &mut ue, 10_000.0 + ttl + 1.0);
        assert!(!o.local);
    }

    #[test]
    fn clockless_reissues_keep_the_replica_expiry() {
        let (home, _, mut ue) = setup();
        let expires_at = ue.replica.expires_at;
        assert_eq!(expires_at, home.config().state_ttl_s, "registration issues at t = 0");
        let crossed = ue.move_to(&home.cell_grid(), GeoPoint::from_degrees(-30.0, 20.0));
        assert!(crossed);
        let replica = home.handle_cell_crossing(&mut ue);
        assert_eq!(replica.expires_at, expires_at);
        assert!(ue.install_update(ue.session.clone(), replica).is_ok());
        let quota = ue.session.billing.quota_bytes;
        let throttled = home.apply_usage_report(&mut ue, quota + 1);
        assert_eq!(throttled.map(|r| r.expires_at), Some(expires_at), "quota crossed");
    }

    /// The NAS bytes a UE sends for `ue`'s replica.
    fn piggyback_wire(ue: &UeDevice) -> Vec<u8> {
        sc_fiveg::nas::piggybacked_session_request(sc_crypto::wire::encode_state(ue.piggyback()), 7)
            .encode()
    }

    #[test]
    fn intact_piggyback_yields_the_replica() {
        let (_, _, ue) = setup();
        let got = received_replica(&piggyback_wire(&ue));
        assert_eq!(got.as_ref(), Ok(ue.piggyback()));
    }

    #[test]
    fn piggyback_written_in_place_is_the_owned_encoding() {
        let (_, _, ue) = setup();
        let mut arena = MessageArena::new();
        let pdu = write_piggyback(&mut arena, ue.piggyback(), 7);
        assert_eq!(arena.bytes(pdu), piggyback_wire(&ue));
    }

    #[test]
    fn truncated_nas_keeps_the_nas_error() {
        let (_, _, ue) = setup();
        let wire = piggyback_wire(&ue);
        let err = received_replica(&wire[..wire.len() - 1]).unwrap_err();
        assert_eq!(err, LocalPathFailure::NasDecode(NasDecodeError::Truncated));
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn truncated_replica_ie_keeps_the_wire_error() {
        let (_, _, ue) = setup();
        let mut replica = sc_crypto::wire::encode_state(ue.piggyback());
        replica.truncate(replica.len() - 3);
        let nas = sc_fiveg::nas::piggybacked_session_request(replica, 7).encode();
        let err = received_replica(&nas).unwrap_err();
        assert_eq!(err, LocalPathFailure::ReplicaWire(WireError::Truncated));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn hostile_replicas_are_refused_before_decryption() {
        // One share cut out; the root OR rewritten as a 0-of-2 threshold:
        // well-formed lengths that `decrypt` could not walk. A `UeDevice`
        // cannot hold such a replica (`decode_state` is the only way in
        // from bytes), so the hostile UE is the PDU it sends.
        let (_, _, ue) = setup();
        let replica = sc_crypto::wire::encode_state(ue.piggyback());
        // n_shares(2) sits past the 21-byte envelope, nonce and mac; the
        // per-UE policy has four leaves, and starts with `OR` of 2.
        let (n_shares_at, policy_at) = (21 + 16, 21 + 18 + 8 * 4);
        assert_eq!(replica[n_shares_at..n_shares_at + 2], [4, 0]);
        assert_eq!(replica[policy_at..policy_at + 3], [2, 2, 0]);

        let mut too_few_shares = replica.clone();
        too_few_shares[n_shares_at] = 3;
        too_few_shares.drain(policy_at - 8..policy_at);
        let mut zero_threshold = replica;
        zero_threshold.splice(policy_at..policy_at + 3, [3, 0, 0, 2, 0]);

        for (hostile, why) in [
            (too_few_shares, WireError::ShareCount),
            (zero_threshold, WireError::BadGate),
        ] {
            let pdu = sc_fiveg::nas::piggybacked_session_request(hostile, 7).encode();
            let err = received_replica(&pdu).unwrap_err();
            assert_eq!(err, LocalPathFailure::ReplicaWire(why));
            assert_eq!(
                err.rollback_counter(),
                "spacecore.satellite.rollback.replica_wire"
            );
        }
    }

    #[test]
    fn absent_replica_ie_is_its_own_failure() {
        let nas = sc_fiveg::nas::NasMessage::new(NasMessageType::PduSessionEstablishmentRequest)
            .with_ie(IeTag::DhPublic, 7u64.to_be_bytes().to_vec())
            .encode();
        let err = received_replica(&nas).unwrap_err();
        assert_eq!(err, LocalPathFailure::MissingReplicaIe);
    }

    /// Swap `ue`'s replica for one the home signed under the same policy
    /// and envelope, whose payload is not a `SessionState`.
    fn carry_undecodable_payload(home: &HomeNetwork, ue: &mut UeDevice) {
        ue.replica = home.crypto().encrypt_state(
            b"not a session state",
            &ue.replica.ciphertext.policy(),
            ue.replica.version,
            ue.replica.expires_at,
            1,
        );
    }

    #[test]
    fn undecodable_state_payload_is_not_a_signature_failure() {
        // Home-signed and decryptable, but not a `SessionState`: the
        // envelope verifies, the codec refuses.
        let (home, sat, mut ue) = setup();
        carry_undecodable_payload(&home, &mut ue);
        let err = sat
            .try_local_establishment(&home, &mut ue, 1.0)
            .unwrap_err();
        assert_eq!(err, LocalPathFailure::StateCodec);
        assert!(!sat.establish_session(&home, &mut ue, 1.0).local);
        assert_eq!(sat.active_sessions(), 0);
    }

    #[test]
    fn handover_uses_fewer_messages() {
        let (home, sat1, mut ue) = setup();
        let sat2 = SpaceCoreSatellite::provision(&home, SatId::new(4, 7));
        sat1.establish_session(&home, &mut ue, 1.0);
        let o = sat2.handover_in(&home, &mut ue, 10.0).unwrap();
        assert!(o.local);
        assert_eq!(o.signaling_messages, 3);
        assert_eq!(o.home_round_trips, 0);
        // The old satellite releases and forgets.
        assert!(sat1.release(ue.supi));
        assert_eq!(sat1.active_sessions(), 0);
        assert_eq!(sat1.hijack_exposure().len(), 0);
    }

    #[test]
    fn crash_recovery_is_local_and_counted() {
        // Serving satellite dies mid-session; the next visible satellite
        // recovers the session from the UE's replica alone.
        let (home, old_sat, mut ue) = setup();
        old_sat.establish_session(&home, &mut ue, 1.0);
        let mut new_sat = SpaceCoreSatellite::provision(&home, SatId::new(4, 7));
        let rec = sc_obs::Recorder::new();
        new_sat.attach_recorder(rec.clone());
        // (old_sat is "dead": it is simply never consulted again.)
        let o = new_sat.recover_session(&home, &mut ue, 5.0).unwrap();
        assert!(o.local);
        assert_eq!(o.signaling_messages, 4);
        assert_eq!(o.home_round_trips, 0);
        assert_eq!(new_sat.active_sessions(), 1);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("spacecore.satellite.crash_recoveries"), 1);
        assert_eq!(snap.counter("spacecore.satellite.local_establishments"), 1);
    }

    #[test]
    fn hijack_exposure_bounded_to_active() {
        let (home, sat, _) = setup();
        let mut ues: Vec<_> = (0..10)
            .map(|i| home.register_ue(200 + i, &GeoPoint::from_degrees(30.0, 100.0)))
            .collect();
        for ue in &mut ues {
            sat.establish_session(&home, ue, 1.0);
        }
        assert_eq!(sat.hijack_exposure().len(), 10);
        // Half release → exposure shrinks accordingly.
        for ue in &ues[..5] {
            sat.release(ue.supi);
        }
        assert_eq!(sat.hijack_exposure().len(), 5);
    }

    #[test]
    fn session_keys_differ_across_ues_and_sessions() {
        let (home, sat, mut ue) = setup();
        let mut ue2 = home.register_ue(101, &GeoPoint::from_degrees(39.9, 116.4));
        let k1 = sat.establish_session(&home, &mut ue, 1.0).session_key.unwrap();
        let k2 = sat.establish_session(&home, &mut ue2, 1.0).session_key.unwrap();
        assert_ne!(k1, k2);
        // Re-establishment gets a fresh key (per-session keying).
        sat.release(ue.supi);
        let k3 = sat.establish_session(&home, &mut ue, 2.0).session_key.unwrap();
        assert_ne!(k1, k3);
    }

    #[test]
    fn recorder_counts_local_path_rollback_and_release() {
        let (home, mut sat, mut ue) = setup();
        let rec = sc_obs::Recorder::new();
        sat.attach_recorder(rec.clone());
        let mut legacy = home.register_ue(101, &GeoPoint::from_degrees(30.0, 100.0));
        legacy.supports_spacecore = false;
        sat.establish_session(&home, &mut ue, 1.0);
        sat.establish_session(&home, &mut legacy, 1.0);
        sat.release(ue.supi);
        sat.release(ue.supi); // double release: not counted twice
        let snap = rec.snapshot();
        assert_eq!(snap.counter("spacecore.satellite.local_establishments"), 1);
        assert_eq!(snap.counter("spacecore.satellite.rollbacks"), 1);
        assert_eq!(snap.counter("spacecore.satellite.releases"), 1);
        assert_eq!(snap.gauge("spacecore.satellite.active_sessions"), Some(0.0));
        // The windowed series holds the establishment-time sample
        // (window 1 ← now = 1.0); releases carry no sim time, so only
        // the plain gauge sees the drop to zero.
        let series = snap
            .series
            .get("spacecore.satellite.active_sessions")
            .map(|d| d.points());
        assert_eq!(series, Some(vec![(1, 1.0)]));
        // The local path also feeds the crypto-layer counters.
        assert_eq!(snap.counter("crypto.statecrypt.local_accesses"), 1);
        assert_eq!(snap.counter("crypto.abe.decrypts"), 1);
    }

    #[test]
    fn rollbacks_are_counted_by_cause() {
        // The two causes `serve-mixed` injects, plus an undecodable
        // payload: three counters, summing to the total.
        let (home, mut sat, mut ue) = setup();
        let rec = sc_obs::Recorder::new();
        sat.attach_recorder(rec.clone());
        let mut rogue =
            SpaceCoreSatellite::provision_with_attrs(&home, SatId::new(9, 9), &["role:satellite"]);
        rogue.attach_recorder(rec.clone());

        let past_ttl = home.config().state_ttl_s + 1.0;
        assert!(!sat.establish_session(&home, &mut ue, past_ttl).local);
        assert!(!rogue.establish_session(&home, &mut ue, 1.0).local);
        carry_undecodable_payload(&home, &mut ue);
        assert!(!sat.establish_session(&home, &mut ue, 1.0).local);

        let snap = rec.snapshot();
        for cause in ["crypto_expired", "crypto_abe", "state_codec"] {
            let name = format!("spacecore.satellite.rollback.{cause}");
            assert_eq!(snap.counter(&name), 1, "{name}");
        }
        assert_eq!(snap.counter("spacecore.satellite.rollbacks"), 3);
        let by_cause: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("spacecore.satellite.rollback."))
            .map(|(_, n)| *n)
            .sum();
        assert_eq!(by_cause, 3);
    }

    #[test]
    fn each_replica_forgery_lands_on_its_own_counter() -> Result<(), WireError> {
        // A flipped ciphertext byte is an ABE integrity failure; a TTL
        // pushed forward or a rewritten version, a home-signature
        // failure; an honest replica past its TTL, expired.
        let (home, mut sat, mut ue) = setup();
        let rec = sc_obs::Recorder::new();
        sat.attach_recorder(rec.clone());
        let honest = ue.replica.clone();
        let past_ttl = honest.expires_at + 1.0;
        let mut wire = sc_crypto::wire::encode_state(&honest);
        let last = wire.len() - 1;
        wire[last] ^= 1; // the last ciphertext-payload byte
        let cases = [
            (sc_crypto::wire::decode_state(&wire)?, 1.0),
            (
                EncryptedUeState {
                    expires_at: past_ttl + 1e3,
                    ..honest.clone()
                },
                past_ttl,
            ),
            (
                EncryptedUeState {
                    version: honest.version + 1,
                    ..honest.clone()
                },
                1.0,
            ),
            (honest, past_ttl),
        ];
        for (replica, now) in cases {
            ue.replica = replica;
            assert!(!sat.establish_session(&home, &mut ue, now).local);
        }

        let snap = rec.snapshot();
        for (cause, n) in [
            ("crypto_abe", 1),
            ("crypto_home_sig", 2),
            ("crypto_expired", 1),
        ] {
            let name = format!("spacecore.satellite.rollback.{cause}");
            assert_eq!(snap.counter(&name), n, "{name}");
        }
        assert_eq!(snap.counter("spacecore.satellite.rollbacks"), 4);
        assert_eq!(snap.counter("crypto.abe.decrypts"), 3);
        assert_eq!(snap.counter("crypto.abe.decrypt_failures"), 1);
        Ok(())
    }

    #[test]
    fn installed_state_matches_ue_session() {
        let (home, sat, mut ue) = setup();
        sat.establish_session(&home, &mut ue, 1.0);
        let active = sat.active.lock();
        let a = active.get(&ue.supi).unwrap();
        assert_eq!(a.state, ue.session);
    }
}
