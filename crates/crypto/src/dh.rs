//! Diffie–Hellman and the station-to-station exchange of Algorithm 2
//! (lines 10–14) plus the certificate check of line 14.
//!
//! The UE's encrypted state carries the group parameters `(p, g)`
//! (Algorithm 2 line 6: `state_UE ← (ver, TTL, IP, QoS, billing, p, g)`).
//! The UE sends `X = gˣ mod p`; the satellite — having decrypted the
//! state with its ABE key — answers `Y = g^y` and derives `K = X^y`; the
//! UE verifies the satellite certificate and derives `K = Yˣ`. Binding
//! `Y`'s computation to the decrypted state is what makes the exchange
//! fail closed for unauthorized satellites, and signing the exchange
//! (station-to-station) is what defeats man-in-the-middle relays.

use crate::field::{keyed_hash, Fe, P};

/// Diffie–Hellman group parameters carried inside the UE state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DhParams {
    /// Group modulus (we use the field prime; real deployments use a
    /// 2048-bit safe prime — see the crate-level substitution note).
    pub p: u64,
    /// Generator.
    pub g: u64,
}

/// 7 generates a large subgroup of GF(2^61-1)*.
const DEFAULT_G: u64 = 7;

impl Default for DhParams {
    fn default() -> Self {
        Self { p: P, g: DEFAULT_G }
    }
}

/// Fixed-base powers of the default generator, one row per 4-bit window
/// of the exponent: `G_WINDOWS[i][d] = g^(d · 16^i)`. Sixteen windows
/// cover any `u64` exponent, so `g^e` is the product of one entry per
/// row — 15 multiplications and no squarings, against ≈ 120 for
/// square-and-multiply. Built at compile time; 2 KB.
static G_WINDOWS: [[Fe; 16]; 16] = {
    let mut rows = [[Fe::ONE; 16]; 16];
    let mut base = Fe::new(DEFAULT_G); // g^(16^i)
    let mut i = 0;
    while i < 16 {
        let mut d = 1;
        while d < 16 {
            rows[i][d] = rows[i][d - 1].mul(base);
            d += 1;
        }
        base = rows[i][15].mul(base);
        i += 1;
    }
    rows
};

/// `g^e` for the default generator, from [`G_WINDOWS`].
fn default_g_pow(e: u64) -> Fe {
    let mut acc = G_WINDOWS[0][(e & 15) as usize];
    for (i, row) in G_WINDOWS.iter().enumerate().skip(1) {
        acc = acc.mul(row[((e >> (4 * i)) & 15) as usize]);
    }
    acc
}

/// Errors in the station-to-station exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StsError {
    /// The peer's certificate did not verify against the home's key.
    BadCertificate,
    /// The signed exchange transcript did not verify (MITM indicator).
    BadTranscriptSignature,
}

impl std::fmt::Display for StsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StsError::BadCertificate => f.write_str("peer certificate invalid"),
            StsError::BadTranscriptSignature => f.write_str("exchange transcript signature invalid"),
        }
    }
}

impl std::error::Error for StsError {}

/// A certificate: identity + home signature over it (keyed MAC by the
/// home's certificate key — the simulation's stand-in for a CA signature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Certificate {
    /// The subject (e.g. satellite id hash).
    pub subject: u64,
    /// Home signature over the subject.
    pub sig: u64,
}

impl Certificate {
    /// Issue a certificate (home side; `cert_key` is home-secret).
    pub fn issue(cert_key: u64, subject: u64) -> Self {
        Self {
            subject,
            sig: keyed_hash(cert_key, &subject.to_le_bytes()),
        }
    }

    /// Verify against the home's certificate key.
    pub fn verify(&self, cert_key: u64) -> bool {
        self.sig == keyed_hash(cert_key, &self.subject.to_le_bytes())
    }
}

/// One side of a station-to-station exchange.
#[derive(Debug, Clone)]
pub struct StationToStation {
    params: DhParams,
    secret: u64,
    public: u64,
}

impl StationToStation {
    /// Start an exchange with a fresh ephemeral secret. Every state the
    /// home issues carries [`DhParams::default`], whose `g^secret` comes
    /// from the fixed-base table; any other generator takes the generic
    /// [`Fe::pow`]. Same value either way.
    pub fn new(params: DhParams, ephemeral_secret: u64) -> Self {
        let secret = (ephemeral_secret % (params.p - 2)).max(2);
        let public = if params == DhParams::default() {
            default_g_pow(secret)
        } else {
            Fe::new(params.g).pow(secret)
        }
        .value();
        Self {
            params,
            secret,
            public,
        }
    }

    /// The public value (`X` for the UE, `Y` for the satellite).
    pub fn public_value(&self) -> u64 {
        self.public
    }

    /// Derive the shared key `K = peer^secret mod p`.
    pub fn shared_key(&self, peer_public: u64) -> u64 {
        Fe::new(peer_public).pow(self.secret).value()
    }

    /// Sign the exchange transcript `(X, Y)` with a party key — the STS
    /// signature that authenticates the exchange.
    pub fn sign_transcript(party_key: u64, x: u64, y: u64) -> u64 {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&x.to_le_bytes());
        buf[8..].copy_from_slice(&y.to_le_bytes());
        keyed_hash(party_key, &buf)
    }

    /// Verify a transcript signature.
    pub fn verify_transcript(party_key: u64, x: u64, y: u64, sig: u64) -> Result<(), StsError> {
        if Self::sign_transcript(party_key, x, y) == sig {
            Ok(())
        } else {
            Err(StsError::BadTranscriptSignature)
        }
    }

    /// Group parameters in use.
    pub fn params(&self) -> DhParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_keys_agree() {
        let p = DhParams::default();
        let ue = StationToStation::new(p, 0x1111_2222_3333);
        let sat = StationToStation::new(p, 0x9999_8888_7777);
        let k1 = ue.shared_key(sat.public_value());
        let k2 = sat.shared_key(ue.public_value());
        assert_eq!(k1, k2);
        assert_ne!(k1, 0);
    }

    #[test]
    fn different_ephemerals_different_keys() {
        // Algorithm 2 "updates this security key for every session
        // establishment (thus resilient to key leakages)".
        let p = DhParams::default();
        let sat = StationToStation::new(p, 5555);
        let s1 = StationToStation::new(p, 1001);
        let s2 = StationToStation::new(p, 2002);
        assert_ne!(
            sat.shared_key(s1.public_value()),
            sat.shared_key(s2.public_value())
        );
    }

    #[test]
    fn certificate_issue_verify() {
        let cert = Certificate::issue(0xCAFE, 42);
        assert!(cert.verify(0xCAFE));
        assert!(!cert.verify(0xBAD1));
        let forged = Certificate {
            subject: 42,
            sig: cert.sig ^ 1,
        };
        assert!(!forged.verify(0xCAFE));
    }

    #[test]
    fn transcript_signature_detects_mitm() {
        let p = DhParams::default();
        let ue = StationToStation::new(p, 10);
        let sat = StationToStation::new(p, 20);
        let mitm = StationToStation::new(p, 30);
        let sig = StationToStation::sign_transcript(0x5A7, ue.public_value(), sat.public_value());
        // Honest transcript verifies.
        assert!(StationToStation::verify_transcript(
            0x5A7,
            ue.public_value(),
            sat.public_value(),
            sig
        )
        .is_ok());
        // A MITM substituting its own Y invalidates the signature.
        assert_eq!(
            StationToStation::verify_transcript(
                0x5A7,
                ue.public_value(),
                mitm.public_value(),
                sig
            )
            .unwrap_err(),
            StsError::BadTranscriptSignature
        );
    }

    #[test]
    fn public_value_deterministic() {
        let p = DhParams::default();
        let a = StationToStation::new(p, 777);
        let b = StationToStation::new(p, 777);
        assert_eq!(a.public_value(), b.public_value());
    }
}
