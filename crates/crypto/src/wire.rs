//! Wire codec for encrypted UE states: what actually rides inside the
//! NAS `StateReplica` IE and the GTP-U FutureExtensionField (§5).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! envelope:  ver(1)=1 | version(4) | expires(8) | home_sig(8) | ciphertext
//! ciphertext: nonce(8) | mac(8) | n_shares(2) | shares(8·n)
//!           | policy | payload_len(4) | payload
//! policy:    node_kind(1) | … (recursive; leaves carry utf-8 attrs)
//! ```
//!
//! The `ciphertext` part *is* an [`AbeCiphertext`]: the type owns those
//! bytes in exactly this layout ([`crate::abe`] documents the policy
//! nodes), so encoding is the envelope header plus one copy, and
//! decoding is one validating walk plus one copy. Validation happens
//! here and only here — [`decode_state`] rejects anything
//! [`crate::abe::AbeSystem::decrypt`] could not walk (a length out of
//! bounds, an unknown node, a gate without `1 ≤ k ≤ n`, a share count
//! that is not the policy's leaf count), so a UE-supplied replica can
//! fail to decrypt but cannot panic the satellite. Shares are not
//! checked for canonical form: a value `≥ P` is kept verbatim and
//! reduced by `Fe::new` when a share is read.

use crate::abe::{AbeCiphertext, Cur};
use crate::statecrypt::EncryptedUeState;

/// Decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    Truncated,
    BadVersion,
    BadPolicyNode,
    BadUtf8,
    TrailingBytes,
    /// Nesting deeper than the sanity bound (malformed/hostile input).
    PolicyTooDeep,
    /// A gate with no children or a threshold outside `1..=n`.
    BadGate,
    /// `n_shares` is not the policy's leaf count.
    ShareCount,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireError::Truncated => "truncated",
            WireError::BadVersion => "unsupported codec version",
            WireError::BadPolicyNode => "bad policy node kind",
            WireError::BadUtf8 => "attribute is not utf-8",
            WireError::TrailingBytes => "trailing bytes",
            WireError::PolicyTooDeep => "policy nesting too deep",
            WireError::BadGate => "gate threshold outside 1..=children",
            WireError::ShareCount => "share count is not the policy's leaf count",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

/// Envelope bytes ahead of the ciphertext.
pub(crate) const ENVELOPE_LEN: usize = 1 + 4 + 8 + 8;

/// Encode an encrypted UE state to bytes.
pub fn encode_state(st: &EncryptedUeState) -> Vec<u8> {
    let mut b = Vec::with_capacity(st.size_bytes());
    encode_state_into(st, &mut b);
    b
}

/// Append [`encode_state`]'s bytes to `b` — for a caller that already
/// holds the buffer the replica travels in.
pub fn encode_state_into(st: &EncryptedUeState, b: &mut Vec<u8>) {
    b.push(1u8);
    b.extend_from_slice(&st.version.to_le_bytes());
    b.extend_from_slice(&st.expires_at.to_bits().to_le_bytes());
    b.extend_from_slice(&st.home_sig.to_le_bytes());
    b.extend_from_slice(st.ciphertext.as_bytes());
}

/// Decode an encrypted UE state from bytes, validating every field
/// (module doc).
pub fn decode_state(b: &[u8]) -> Result<EncryptedUeState, WireError> {
    let mut c = Cur::new(b);
    if c.u8()? != 1 {
        return Err(WireError::BadVersion);
    }
    let version = c.u32()?;
    let expires_at = f64::from_bits(c.u64()?);
    let home_sig = c.u64()?;
    let ciphertext = AbeCiphertext::from_wire(c.rest())?;
    Ok(EncryptedUeState {
        version,
        expires_at,
        ciphertext,
        home_sig,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abe::MAX_POLICY_DEPTH;
    use crate::policy::{attr_set, AccessTree};
    use crate::statecrypt::HomeCrypto;

    fn sample_state() -> EncryptedUeState {
        let home = HomeCrypto::setup(7);
        let policy = AccessTree::Or(vec![
            AccessTree::all_of(&["role:satellite", "authorized"]),
            AccessTree::Threshold {
                k: 2,
                children: vec![
                    AccessTree::leaf("a"),
                    AccessTree::leaf("b"),
                    AccessTree::leaf("c"),
                ],
            },
        ]);
        home.encrypt_state(b"the session state payload", &policy, 3, 1234.5, 42)
    }

    #[test]
    fn roundtrip() {
        let st = sample_state();
        let b = encode_state(&st);
        let d = decode_state(&b).unwrap();
        assert_eq!(d, st);
    }

    #[test]
    fn decoded_state_still_decrypts() {
        let home = HomeCrypto::setup(7);
        let policy = AccessTree::all_of(&["role:satellite", "authorized"]);
        let st = home.encrypt_state(b"payload", &policy, 1, 99.0, 1);
        let d = decode_state(&encode_state(&st)).unwrap();
        let sat = home.provision_satellite(5, &attr_set(&["role:satellite", "authorized"]));
        let plain = crate::abe::AbeSystem::decrypt(&d.ciphertext, &sat.sk).unwrap();
        assert_eq!(plain, b"payload");
        home.verify_envelope(&d, &plain).unwrap();
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let b = encode_state(&sample_state());
        for cut in [0, 1, 5, 13, 21, 30, b.len() - 1] {
            assert!(decode_state(&b[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = encode_state(&sample_state());
        b.push(0);
        assert_eq!(decode_state(&b).unwrap_err(), WireError::TrailingBytes);
    }

    #[test]
    fn bad_policy_node_rejected() {
        let st = sample_state();
        let b = encode_state(&st);
        // Find the policy start: version(1)+4+8+8 + nonce(8)+mac(8)+
        // n_shares(2)+shares(8·n).
        let n_shares = st.ciphertext.policy().leaf_count();
        let policy_off = 1 + 4 + 8 + 8 + 8 + 8 + 2 + 8 * n_shares;
        let mut bad = b.clone();
        bad[policy_off] = 9;
        assert_eq!(decode_state(&bad).unwrap_err(), WireError::BadPolicyNode);
    }

    /// A valid replica under `AND(a, b)` and the offset of its policy.
    fn two_leaf_replica() -> (Vec<u8>, usize) {
        let home = HomeCrypto::setup(7);
        let st = home.encrypt_state(b"payload", &AccessTree::all_of(&["a", "b"]), 1, 99.0, 1);
        (encode_state(&st), ENVELOPE_LEN + 8 + 8 + 2 + 8 * 2)
    }

    #[test]
    fn fewer_shares_than_leaves_rejected() {
        // Hostile UE: `n_shares` 2 → 1 with one share cut out, so every
        // length still adds up — and `decrypt`, reading a share per
        // leaf, would run past the share area.
        let (mut b, policy_off) = two_leaf_replica();
        b[ENVELOPE_LEN + 16] = 1;
        b.drain(policy_off - 8..policy_off);
        assert_eq!(decode_state(&b).unwrap_err(), WireError::ShareCount);
    }

    #[test]
    fn malformed_gates_rejected() {
        // Hostile UE: three self-consistent replicas whose gates `shamir`
        // cannot reconstruct (no shares, or fewer than it would slice).
        let (b, policy_off) = two_leaf_replica();
        assert_eq!(b[policy_off..policy_off + 3], [1, 2, 0]);
        // The whole policy (gate + two 4-byte leaves) replaced by an AND
        // of nothing, with no shares to match.
        let mut childless = b.clone();
        childless.splice(policy_off..policy_off + 11, [1, 0, 0]);
        childless.drain(policy_off - 16..policy_off);
        childless[ENVELOPE_LEN + 16] = 0;
        assert_eq!(decode_state(&childless).unwrap_err(), WireError::BadGate);
        // The AND rewritten as a threshold with k = 0 and k = 3 of 2.
        for k in [0u8, 3] {
            let mut t = b.clone();
            t.splice(policy_off..policy_off + 3, [3, k, 0, 2, 0]);
            assert_eq!(decode_state(&t).unwrap_err(), WireError::BadGate, "k = {k}");
        }
    }

    #[test]
    fn deep_policy_bounded() {
        // Build a deeply nested policy (beyond MAX_POLICY_DEPTH) and
        // check the decoder rejects it instead of recursing away.
        let mut tree = AccessTree::leaf("x");
        for _ in 0..(MAX_POLICY_DEPTH + 2) {
            tree = AccessTree::And(vec![tree]);
        }
        let home = HomeCrypto::setup(1);
        let st = home.encrypt_state(b"p", &tree, 1, 1.0, 1);
        let b = encode_state(&st);
        assert_eq!(decode_state(&b).unwrap_err(), WireError::PolicyTooDeep);
    }

    #[test]
    fn size_bytes_is_the_encoded_length() {
        let home = HomeCrypto::setup(1);
        // The home's per-UE policy (`spacecore::home`): satellites OR the UE itself.
        let per_ue = AccessTree::Or(vec![
            AccessTree::all_of(&["role:satellite", "authorized"]),
            AccessTree::all_of(&["role:ue", "supi:460010000000042"]),
        ]);
        let states = [
            sample_state(),
            home.encrypt_state(&[7u8; 153], &per_ue, 1, 3600.0, 9),
            home.encrypt_state(b"", &AccessTree::leaf("a"), 1, 1.0, 1),
            home.encrypt_state(
                &[0u8; 500],
                &AccessTree::all_of(&["a", "b", "c", "d", "e", "f"]),
                1,
                1.0,
                1,
            ),
        ];
        for st in &states {
            assert_eq!(st.size_bytes(), encode_state(st).len());
        }
    }

    #[test]
    fn size_tracks_policy_and_payload() {
        let home = HomeCrypto::setup(1);
        let small = home.encrypt_state(b"x", &AccessTree::leaf("a"), 1, 1.0, 1);
        let big = home.encrypt_state(
            &[0u8; 500],
            &AccessTree::all_of(&["a", "b", "c", "d", "e", "f"]),
            1,
            1.0,
            1,
        );
        assert!(encode_state(&big).len() > encode_state(&small).len() + 400);
    }
}
