//! The complete Algorithm 2 workflow: home-controlled local mutual
//! authentication, key agreement, and state access.
//!
//! ```text
//! Initialization:
//!   Home:             (pk, msk) ← Setup(1^λ)
//!   Home → Satellite: CERT_sat, sk_sat ← KeyGen(pk, msk, S_sat)
//!   Home → UE:        sk_UE ← KeyGen(pk, msk, S_UE)     (in SIM card)
//! Initial registration (C1):
//!   Home:      state_UE ← (ver, TTL, IP, QoS, billing, p, g)
//!   Home → UE: msg_UE ← Encrypt(pk, state_UE, A)
//!   UE:        state_UE ← Decrypt(msg_UE, sk_UE)
//! Later service establishments (C2–C3):
//!   UE → Satellite: X ← g^x mod p, msg_UE
//!   Satellite:      state_UE ← Decrypt(msg_UE, sk_sat)   (iff A(S_sat))
//!   Satellite:      Y ← g^y, K ← X^y
//!   Satellite → UE: Y, CERT_sat
//!   UE:             Verify(CERT_sat), K ← Y^x
//! ```
//!
//! Replay protection: every encrypted state carries a version number and
//! TTL; on TTL expiry the satellite refuses the local path and pulls a
//! fresh state from the home (Appendix B "Replay attacks").

use crate::abe::{AbeCiphertext, AbeError, AbeMasterKey, AbePublicKey, AbeSecretKey, AbeSystem};
use crate::dh::{Certificate, DhParams, StationToStation, StsError};
use crate::policy::{AccessTree, Attribute};
use std::collections::BTreeSet;

/// The plaintext UE session state protected by Algorithm 2
/// (line 6: `(ver, TTL, IP, QoS, billing, p, g)`), serialized as bytes by
/// the caller (the `fiveg` crate owns the rich state model; this layer
/// sees opaque payloads plus the envelope fields it must enforce).
#[derive(Debug, Clone, PartialEq)]
pub struct EncryptedUeState {
    /// Version number assigned by the home.
    pub version: u32,
    /// Absolute expiry time (emulation seconds since epoch).
    pub expires_at: f64,
    /// The ABE-wrapped state payload.
    pub ciphertext: AbeCiphertext,
    /// Home signature over (version, expiry, payload digest).
    pub home_sig: u64,
}

impl EncryptedUeState {
    /// Has this state expired at emulation time `now`?
    pub fn expired(&self, now: f64) -> bool {
        now > self.expires_at
    }

    /// Wire size in bytes for signaling-cost accounting: the length of
    /// [`crate::wire::encode_state`]'s output.
    pub fn size_bytes(&self) -> usize {
        crate::wire::ENVELOPE_LEN + self.ciphertext.as_bytes().len()
    }
}

/// Credentials installed in a satellite before launch (Algorithm 2 line 3).
#[derive(Debug, Clone)]
pub struct SatCredentials {
    /// The satellite's attribute-bound ABE key.
    pub sk: AbeSecretKey,
    /// Home-issued certificate.
    pub cert: Certificate,
    /// The satellite's transcript-signing key (paired with the cert).
    pub transcript_key: u64,
}

/// Credentials pre-stored in a UE's SIM card (Algorithm 2 line 4).
#[derive(Debug, Clone)]
pub struct UeCredentials {
    /// The UE's attribute-bound ABE key.
    pub sk: AbeSecretKey,
}

/// Errors in the local state-access path. Any error means the serving
/// satellite must roll back to the legacy home-routed procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateCryptError {
    /// ABE decryption failed (policy unsatisfied or tampered ciphertext).
    Abe(AbeError),
    /// Station-to-station failure (bad cert / transcript).
    Sts(StsError),
    /// The state's TTL has expired; fetch a fresh one from home.
    Expired,
    /// The home signature over the envelope did not verify.
    BadHomeSignature,
}

impl std::fmt::Display for StateCryptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateCryptError::Abe(e) => write!(f, "abe: {e}"),
            StateCryptError::Sts(e) => write!(f, "sts: {e}"),
            StateCryptError::Expired => f.write_str("state TTL expired"),
            StateCryptError::BadHomeSignature => f.write_str("home signature invalid"),
        }
    }
}

impl std::error::Error for StateCryptError {}

impl From<AbeError> for StateCryptError {
    fn from(e: AbeError) -> Self {
        StateCryptError::Abe(e)
    }
}

impl From<StsError> for StateCryptError {
    fn from(e: StsError) -> Self {
        StateCryptError::Sts(e)
    }
}

/// The home network's crypto authority: master keys, certificate issuing,
/// state encryption & signing.
#[derive(Debug, Clone)]
pub struct HomeCrypto {
    pk: AbePublicKey,
    msk: AbeMasterKey,
    cert_key: u64,
    sign_key: u64,
    dh: DhParams,
}

impl HomeCrypto {
    /// `Setup(1^λ)` — deterministic in the seed for reproducible runs.
    pub fn setup(seed: u64) -> Self {
        let (pk, msk) = AbeSystem::setup(seed);
        Self {
            pk,
            msk,
            cert_key: crate::field::keyed_hash(seed, b"home-cert-key"),
            sign_key: crate::field::keyed_hash(seed, b"home-state-sign-key"),
            dh: DhParams::default(),
        }
    }

    /// Public ABE parameters (distributable).
    pub fn public_key(&self) -> &AbePublicKey {
        &self.pk
    }

    /// DH group parameters embedded in UE states.
    pub fn dh_params(&self) -> DhParams {
        self.dh
    }

    /// The certificate-verification key UEs carry (public side of the
    /// simulated CA).
    pub fn cert_verify_key(&self) -> u64 {
        self.cert_key
    }

    /// Provision a satellite before launch (Algorithm 2 line 3).
    pub fn provision_satellite(
        &self,
        sat_identity: u64,
        attrs: &BTreeSet<Attribute>,
    ) -> SatCredentials {
        SatCredentials {
            sk: AbeSystem::keygen(&self.msk, attrs),
            cert: Certificate::issue(self.cert_key, sat_identity),
            transcript_key: crate::field::keyed_hash(self.cert_key, &sat_identity.to_le_bytes()),
        }
    }

    /// Provision a UE SIM (Algorithm 2 line 4).
    pub fn provision_ue(&self, attrs: &BTreeSet<Attribute>) -> UeCredentials {
        UeCredentials {
            sk: AbeSystem::keygen(&self.msk, attrs),
        }
    }

    /// Encrypt + sign a UE state under access policy `policy`
    /// (Algorithm 2 lines 6–7), with version/TTL envelope.
    pub fn encrypt_state(
        &self,
        state_payload: &[u8],
        policy: &AccessTree,
        version: u32,
        expires_at: f64,
        entropy: u64,
    ) -> EncryptedUeState {
        let ciphertext = AbeSystem::encrypt(&self.pk, state_payload, policy, entropy);
        let home_sig = self.sign_envelope(version, expires_at, state_payload);
        EncryptedUeState {
            version,
            expires_at,
            ciphertext,
            home_sig,
        }
    }

    fn sign_envelope(&self, version: u32, expires_at: f64, payload: &[u8]) -> u64 {
        let mut h = crate::field::KeyedHasher::new(self.sign_key);
        h.update(&version.to_le_bytes());
        h.update(&expires_at.to_bits().to_le_bytes());
        h.update(payload);
        h.finish()
    }

    /// Verify the home signature over a decrypted state. Satellites call
    /// this after ABE decryption; it is what makes UE-side state
    /// manipulation detectable (Appendix B "UE-side state manipulation").
    pub fn verify_envelope(
        &self,
        st: &EncryptedUeState,
        decrypted_payload: &[u8],
    ) -> Result<(), StateCryptError> {
        if self.sign_envelope(st.version, st.expires_at, decrypted_payload) == st.home_sig {
            Ok(())
        } else {
            Err(StateCryptError::BadHomeSignature)
        }
    }
}

/// Outcome of the satellite-side local state access: the decrypted state
/// plus the negotiated session key.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalAccessOutcome {
    /// Decrypted UE state payload.
    pub state: Vec<u8>,
    /// Negotiated session key `K`.
    pub session_key: u64,
    /// The satellite's `Y` and certificate, returned to the UE.
    pub y_public: u64,
    /// Transcript signature over `(X, Y)`.
    pub transcript_sig: u64,
}

/// Satellite side of Algorithm 2 lines 11–13: attempt local decryption of
/// the piggybacked state and answer the UE's DH offer.
///
/// `now` enforces the TTL (Appendix B replay protection); `home` supplies
/// envelope verification (home-signed states cannot be forged by UEs).
pub fn satellite_local_access(
    creds: &SatCredentials,
    home: &HomeCrypto,
    st: &EncryptedUeState,
    ue_x_public: u64,
    ephemeral_secret: u64,
    now: f64,
) -> Result<LocalAccessOutcome, StateCryptError> {
    satellite_local_access_obs(
        &sc_obs::Recorder::disabled(),
        creds,
        home,
        st,
        ue_x_public,
        ephemeral_secret,
        now,
    )
}

/// [`satellite_local_access`] with telemetry: counts
/// `crypto.statecrypt.local_accesses` / `.failures` / `.expired`, plus
/// the ABE decryption it performs (`crypto.abe.decrypts`). `now` is the
/// caller's simulated time — the TTL check never reads a wall clock.
pub fn satellite_local_access_obs(
    obs: &sc_obs::Recorder,
    creds: &SatCredentials,
    home: &HomeCrypto,
    st: &EncryptedUeState,
    ue_x_public: u64,
    ephemeral_secret: u64,
    now: f64,
) -> Result<LocalAccessOutcome, StateCryptError> {
    obs.inc("crypto.statecrypt.local_accesses", 1);
    let r = local_access_inner(obs, creds, home, st, ue_x_public, ephemeral_secret, now);
    if r.is_err() {
        obs.inc("crypto.statecrypt.failures", 1);
    }
    r
}

fn local_access_inner(
    obs: &sc_obs::Recorder,
    creds: &SatCredentials,
    home: &HomeCrypto,
    st: &EncryptedUeState,
    ue_x_public: u64,
    ephemeral_secret: u64,
    now: f64,
) -> Result<LocalAccessOutcome, StateCryptError> {
    if st.expired(now) {
        obs.inc("crypto.statecrypt.expired", 1);
        return Err(StateCryptError::Expired);
    }
    let state = AbeSystem::decrypt_obs(obs, &st.ciphertext, &creds.sk)?;
    home.verify_envelope(st, &state)?;
    let sts = StationToStation::new(home.dh_params(), ephemeral_secret);
    let session_key = sts.shared_key(ue_x_public);
    let transcript_sig =
        StationToStation::sign_transcript(creds.transcript_key, ue_x_public, sts.public_value());
    Ok(LocalAccessOutcome {
        state,
        session_key,
        y_public: sts.public_value(),
        transcript_sig,
    })
}

/// UE side of Algorithm 2 line 14: verify the satellite certificate and
/// transcript, then derive `K`.
pub fn ue_complete_exchange(
    home_cert_key: u64,
    ue_sts: &StationToStation,
    sat_cert: &Certificate,
    sat_identity: u64,
    y_public: u64,
    transcript_sig: u64,
) -> Result<u64, StateCryptError> {
    if !sat_cert.verify(home_cert_key) || sat_cert.subject != sat_identity {
        return Err(StateCryptError::Sts(StsError::BadCertificate));
    }
    let sat_transcript_key =
        crate::field::keyed_hash(home_cert_key, &sat_identity.to_le_bytes());
    StationToStation::verify_transcript(
        sat_transcript_key,
        ue_sts.public_value(),
        y_public,
        transcript_sig,
    )?;
    Ok(ue_sts.shared_key(y_public))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::attr_set;

    fn home() -> HomeCrypto {
        HomeCrypto::setup(0xFEED)
    }

    fn sat_policy() -> AccessTree {
        AccessTree::all_of(&["role:satellite", "qos"])
    }

    fn full_exchange(
        home: &HomeCrypto,
        sat: &SatCredentials,
        st: &EncryptedUeState,
        now: f64,
    ) -> Result<(u64, u64), StateCryptError> {
        // UE initiates (Algorithm 2 line 10).
        let ue_sts = StationToStation::new(home.dh_params(), 0x123456);
        let out = satellite_local_access(sat, home, st, ue_sts.public_value(), 0xABCDEF, now)?;
        // UE completes (line 14).
        let k_ue = ue_complete_exchange(
            home.cert_verify_key(),
            &ue_sts,
            &sat.cert,
            sat.cert.subject,
            out.y_public,
            out.transcript_sig,
        )?;
        Ok((k_ue, out.session_key))
    }

    #[test]
    fn authorized_satellite_full_path() {
        let h = home();
        let sat = h.provision_satellite(7, &attr_set(&["role:satellite", "qos"]));
        let st = h.encrypt_state(b"ip=geo://1 qos=gbr billing=15gb", &sat_policy(), 1, 1000.0, 42);
        let (k_ue, k_sat) = full_exchange(&h, &sat, &st, 10.0).unwrap();
        assert_eq!(k_ue, k_sat);
    }

    #[test]
    fn unauthorized_satellite_rolls_back() {
        let h = home();
        let sat = h.provision_satellite(8, &attr_set(&["role:satellite"])); // no qos attr
        let st = h.encrypt_state(b"state", &sat_policy(), 1, 1000.0, 43);
        assert_eq!(
            full_exchange(&h, &sat, &st, 10.0).unwrap_err(),
            StateCryptError::Abe(AbeError::PolicyNotSatisfied)
        );
    }

    #[test]
    fn expired_state_rejected() {
        let h = home();
        let sat = h.provision_satellite(9, &attr_set(&["role:satellite", "qos"]));
        let st = h.encrypt_state(b"state", &sat_policy(), 3, 100.0, 44);
        assert_eq!(
            full_exchange(&h, &sat, &st, 101.0).unwrap_err(),
            StateCryptError::Expired
        );
        // Still fine just before expiry.
        assert!(full_exchange(&h, &sat, &st, 99.9).is_ok());
    }

    #[test]
    fn ue_state_manipulation_detected() {
        // A selfish UE re-encrypts a modified state under the right
        // policy using the public parameters — the home envelope
        // signature exposes it.
        let h = home();
        let sat = h.provision_satellite(10, &attr_set(&["role:satellite", "qos"]));
        let genuine = h.encrypt_state(b"billing=throttle-at-15gb", &sat_policy(), 1, 1000.0, 45);
        let forged_ct =
            AbeSystem::encrypt(h.public_key(), b"billing=unlimited!!!!!!!", &sat_policy(), 46);
        let forged = EncryptedUeState {
            ciphertext: forged_ct,
            ..genuine.clone()
        };
        let ue_sts = StationToStation::new(h.dh_params(), 1);
        let err = satellite_local_access(&sat, &h, &forged, ue_sts.public_value(), 2, 10.0)
            .unwrap_err();
        assert_eq!(err, StateCryptError::BadHomeSignature);
    }

    #[test]
    fn fake_satellite_certificate_rejected_by_ue() {
        let h = home();
        let sat = h.provision_satellite(11, &attr_set(&["role:satellite", "qos"]));
        let st = h.encrypt_state(b"state", &sat_policy(), 1, 1000.0, 47);
        let ue_sts = StationToStation::new(h.dh_params(), 5);
        let out =
            satellite_local_access(&sat, &h, &st, ue_sts.public_value(), 6, 10.0).unwrap();
        // 3rd-party malicious satellite replays Y with a self-made cert.
        let fake_cert = Certificate {
            subject: 11,
            sig: 0xDEAD,
        };
        let err = ue_complete_exchange(
            h.cert_verify_key(),
            &ue_sts,
            &fake_cert,
            11,
            out.y_public,
            out.transcript_sig,
        )
        .unwrap_err();
        assert_eq!(err, StateCryptError::Sts(StsError::BadCertificate));
    }

    #[test]
    fn session_keys_fresh_per_establishment() {
        let h = home();
        let sat = h.provision_satellite(12, &attr_set(&["role:satellite", "qos"]));
        let st = h.encrypt_state(b"state", &sat_policy(), 1, 1000.0, 48);
        let ue1 = StationToStation::new(h.dh_params(), 100);
        let ue2 = StationToStation::new(h.dh_params(), 200);
        let o1 = satellite_local_access(&sat, &h, &st, ue1.public_value(), 300, 1.0).unwrap();
        let o2 = satellite_local_access(&sat, &h, &st, ue2.public_value(), 400, 2.0).unwrap();
        assert_ne!(o1.session_key, o2.session_key);
    }

    #[test]
    fn version_bump_invalidates_nothing_but_tracks() {
        let h = home();
        let st1 = h.encrypt_state(b"v1", &sat_policy(), 1, 1000.0, 50);
        let st2 = h.encrypt_state(b"v2", &sat_policy(), 2, 2000.0, 51);
        assert!(st2.version > st1.version);
        assert!(st1.size_bytes() > 0);
    }
}
