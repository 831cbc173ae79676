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

use crate::abe::AbeCiphertext;
use crate::field::Fe;
use crate::policy::{AccessTree, Attribute};
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
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

const MAX_POLICY_DEPTH: usize = 16;

/// Encode an encrypted UE state to bytes.
pub fn encode_state(st: &EncryptedUeState) -> Vec<u8> {
    let mut b = Vec::with_capacity(encoded_len(st));
    b.push(1u8);
    b.extend_from_slice(&st.version.to_le_bytes());
    b.extend_from_slice(&st.expires_at.to_bits().to_le_bytes());
    b.extend_from_slice(&st.home_sig.to_le_bytes());
    encode_ciphertext(&st.ciphertext, &mut b);
    b
}

/// Decode an encrypted UE state from bytes.
pub fn decode_state(b: &[u8]) -> Result<EncryptedUeState, WireError> {
    let mut c = Cur { b, i: 0 };
    if c.u8()? != 1 {
        return Err(WireError::BadVersion);
    }
    let version = c.u32()?;
    let expires_at = f64::from_bits(c.u64()?);
    let home_sig = c.u64()?;
    let ciphertext = decode_ciphertext(&mut c)?;
    if c.i != b.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok(EncryptedUeState {
        version,
        expires_at,
        ciphertext,
        home_sig,
    })
}

/// Exactly `encode_state(st).len()`, from the layout above.
pub(crate) fn encoded_len(st: &EncryptedUeState) -> usize {
    let (policy, shares, _, payload, _) = st.ciphertext.parts();
    (1 + 4 + 8 + 8) + (8 + 8 + 2 + 8 * shares.len()) + policy_len(policy) + 4 + payload.len()
}

fn policy_len(p: &AccessTree) -> usize {
    match p {
        AccessTree::Leaf(a) => 1 + 2 + a.as_str().len(),
        AccessTree::And(children) | AccessTree::Or(children) => {
            1 + 2 + children.iter().map(policy_len).sum::<usize>()
        }
        AccessTree::Threshold { children, .. } => {
            1 + 2 + 2 + children.iter().map(policy_len).sum::<usize>()
        }
    }
}

fn encode_ciphertext(ct: &AbeCiphertext, b: &mut Vec<u8>) {
    let (policy, shares, nonce, payload, mac) = ct.parts();
    b.extend_from_slice(&nonce.to_le_bytes());
    b.extend_from_slice(&mac.to_le_bytes());
    b.extend_from_slice(&(shares.len() as u16).to_le_bytes());
    for s in shares {
        b.extend_from_slice(&s.value().to_le_bytes());
    }
    encode_policy(policy, b);
    b.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    b.extend_from_slice(payload);
}

fn decode_ciphertext(c: &mut Cur) -> Result<AbeCiphertext, WireError> {
    let nonce = c.u64()?;
    let mac = c.u64()?;
    let n = c.u16()? as usize;
    let mut shares = Vec::with_capacity(n);
    for _ in 0..n {
        shares.push(Fe::new(c.u64()?));
    }
    let policy = decode_policy(c, 0)?;
    let plen = c.u32()? as usize;
    let payload = c.take(plen)?.to_vec();
    Ok(AbeCiphertext::from_parts(policy, shares, nonce, payload, mac))
}

fn encode_policy(p: &AccessTree, b: &mut Vec<u8>) {
    match p {
        AccessTree::Leaf(a) => {
            b.push(0);
            let s = a.as_str().as_bytes();
            b.extend_from_slice(&(s.len() as u16).to_le_bytes());
            b.extend_from_slice(s);
        }
        AccessTree::And(children) => {
            b.push(1);
            b.extend_from_slice(&(children.len() as u16).to_le_bytes());
            for ch in children {
                encode_policy(ch, b);
            }
        }
        AccessTree::Or(children) => {
            b.push(2);
            b.extend_from_slice(&(children.len() as u16).to_le_bytes());
            for ch in children {
                encode_policy(ch, b);
            }
        }
        AccessTree::Threshold { k, children } => {
            b.push(3);
            b.extend_from_slice(&(*k as u16).to_le_bytes());
            b.extend_from_slice(&(children.len() as u16).to_le_bytes());
            for ch in children {
                encode_policy(ch, b);
            }
        }
    }
}

fn decode_policy(c: &mut Cur, depth: usize) -> Result<AccessTree, WireError> {
    if depth > MAX_POLICY_DEPTH {
        return Err(WireError::PolicyTooDeep);
    }
    match c.u8()? {
        0 => {
            let n = c.u16()? as usize;
            let s = std::str::from_utf8(c.take(n)?).map_err(|_| WireError::BadUtf8)?;
            Ok(AccessTree::Leaf(Attribute::new(s)))
        }
        1 | 2 => {
            let kind = c.b[c.i - 1];
            let n = c.u16()? as usize;
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push(decode_policy(c, depth + 1)?);
            }
            Ok(if kind == 1 {
                AccessTree::And(children)
            } else {
                AccessTree::Or(children)
            })
        }
        3 => {
            let k = c.u16()? as usize;
            let n = c.u16()? as usize;
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push(decode_policy(c, depth + 1)?);
            }
            Ok(AccessTree::Threshold { k, children })
        }
        _ => Err(WireError::BadPolicyNode),
    }
}

struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.i + n > self.b.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::attr_set;
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
        let (_, shares, _, _, _) = st.ciphertext.parts();
        let policy_off = 1 + 4 + 8 + 8 + 8 + 8 + 2 + 8 * shares.len();
        let mut bad = b.clone();
        bad[policy_off] = 9;
        assert_eq!(decode_state(&bad).unwrap_err(), WireError::BadPolicyNode);
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
