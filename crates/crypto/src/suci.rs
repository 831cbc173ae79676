//! SUCI — Subscription Concealed Identifier (paper footnote 4).
//!
//! "5G has also adopted public-private key cryptography to encrypt user
//! identity (SUCI) in the initial registration to protect user privacy."
//!
//! The UE encrypts its SUPI under the home network's public key before
//! the first over-the-air message, so passive listeners (and fake base
//! stations) never see the permanent identity. We implement the
//! ECIES-like structure over the workspace DH group: an ephemeral key
//! exchange against the home's static public key, then a keyed stream +
//! MAC over the identity — functionally faithful at the simulation's
//! crypto strength.

use crate::dh::DhParams;
use crate::field::{keyed_hash, keystream_pass, Absorb, Fe, KeyedHasher};

/// The home network's SUCI key pair.
#[derive(Debug, Clone, Copy)]
pub struct SuciHomeKey {
    secret: u64,
    /// Public value distributed in SIM profiles.
    pub public: u64,
    /// The group parameters this key pair lives in.
    pub params: DhParams,
}

impl SuciHomeKey {
    /// Generate from a seed (deterministic for replayable experiments).
    pub fn generate(seed: u64) -> Self {
        let params = DhParams::default();
        let secret = (keyed_hash(seed, b"suci-home-key") % (params.p - 2)).max(2);
        let public = Fe::new(params.g).pow(secret).value();
        Self {
            secret,
            public,
            params,
        }
    }
}

/// A concealed identity, as sent over the air.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suci {
    /// The UE's ephemeral public value.
    pub ephemeral_public: u64,
    /// Encrypted SUPI bytes.
    pub ciphertext: Vec<u8>,
    /// Integrity tag.
    pub mac: u64,
}

/// UE side: conceal a SUPI under the home public key with a fresh
/// ephemeral secret.
pub fn conceal(home_public: u64, params: DhParams, supi: u64, ephemeral: u64) -> Suci {
    let eph_secret = (ephemeral % (params.p - 2)).max(2);
    let eph_public = Fe::new(params.g).pow(eph_secret).value();
    let shared = Fe::new(home_public).pow(eph_secret).value();
    let mut ct = supi.to_le_bytes().to_vec();
    let mut mac = KeyedHasher::new(shared);
    // Encrypt-then-MAC: the tag is over the ciphertext, the XOR's output.
    keystream_pass(
        shared,
        eph_public,
        &mut ct,
        Absorb::Output,
        &mut mac,
        &mut KeyedHasher::new(0),
    );
    Suci {
        ephemeral_public: eph_public,
        ciphertext: ct,
        mac: mac.finish(),
    }
}

/// [`conceal`] with telemetry: counts `crypto.suci.concealments` (one
/// per initial registration — footnote 4's per-C1 public-key cost).
pub fn conceal_obs(
    obs: &sc_obs::Recorder,
    home_public: u64,
    params: DhParams,
    supi: u64,
    ephemeral: u64,
) -> Suci {
    obs.inc("crypto.suci.concealments", 1);
    conceal(home_public, params, supi, ephemeral)
}

/// Home side: deconceal. Returns `None` on MAC failure (tampered or
/// encrypted for a different home).
pub fn deconceal(home: &SuciHomeKey, suci: &Suci) -> Option<u64> {
    let shared = Fe::new(suci.ephemeral_public).pow(home.secret).value();
    let mut pt = suci.ciphertext.clone();
    let mut mac = KeyedHasher::new(shared);
    // The tag is over the ciphertext: here, the XOR's input.
    keystream_pass(
        shared,
        suci.ephemeral_public,
        &mut pt,
        Absorb::Input,
        &mut mac,
        &mut KeyedHasher::new(0),
    );
    if mac.finish() != suci.mac {
        return None;
    }
    Some(u64::from_le_bytes(pt.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conceal_deconceal_roundtrip() {
        let home = SuciHomeKey::generate(1);
        let supi = 0x460_0100_1234_5678;
        let suci = conceal(home.public, DhParams::default(), supi, 777);
        assert_eq!(deconceal(&home, &suci), Some(supi));
    }

    #[test]
    fn ciphertext_hides_identity() {
        let home = SuciHomeKey::generate(1);
        let supi = 0x460_0100_1234_5678u64;
        let suci = conceal(home.public, DhParams::default(), supi, 778);
        assert_ne!(suci.ciphertext, supi.to_le_bytes().to_vec());
    }

    #[test]
    fn fresh_ephemerals_unlinkable() {
        // The same SUPI concealed twice looks different on the wire —
        // the unlinkability property SUCI exists for.
        let home = SuciHomeKey::generate(1);
        let supi = 42u64;
        let a = conceal(home.public, DhParams::default(), supi, 1000);
        let b = conceal(home.public, DhParams::default(), supi, 2000);
        assert_ne!(a.ciphertext, b.ciphertext);
        assert_ne!(a.ephemeral_public, b.ephemeral_public);
        assert_eq!(deconceal(&home, &a), Some(supi));
        assert_eq!(deconceal(&home, &b), Some(supi));
    }

    #[test]
    fn wrong_home_cannot_deconceal() {
        let home = SuciHomeKey::generate(1);
        let foreign = SuciHomeKey::generate(2);
        let suci = conceal(home.public, DhParams::default(), 42, 3);
        assert_eq!(deconceal(&foreign, &suci), None);
    }

    #[test]
    fn tampering_detected() {
        let home = SuciHomeKey::generate(1);
        let mut suci = conceal(home.public, DhParams::default(), 42, 4);
        suci.ciphertext[0] ^= 1;
        assert_eq!(deconceal(&home, &suci), None);
    }
}
