//! Ciphertext-policy ABE simulator (§4.4).
//!
//! Faithful to the share-based structure of BSW/GPSW CP-ABE: encryption
//! draws a random secret `s`, recursively splits it down the access tree
//! with Shamir sharing at every threshold gate, and blinds each leaf
//! share under its attribute. Decryption unblinds exactly the leaves its
//! attribute set covers and reconstructs bottom-up; it succeeds **iff**
//! the attribute set satisfies the policy.
//!
//! Simulation boundary (crate-level doc): leaf blinding keys are derived
//! from a system key reachable from the public parameters, so the
//! construction resists only adversaries modeled as API users — exactly
//! the adversary model of the paper's leakage experiments (Fig. 19),
//! where "leaked" means *states an entity can decrypt through the
//! protocol*. Costs scale with leaf count as in real ABE (Fig. 18a).
//!
//! **The ciphertext is its wire form.** An [`AbeCiphertext`] owns one
//! contiguous buffer laid out exactly as it rides in the NAS
//! `StateReplica` IE behind [`crate::wire`]'s envelope (integers
//! little-endian):
//!
//! ```text
//! nonce(8) | mac(8) | n_shares(2) | shares(8·n) | policy | payload_len(4) | payload
//! policy node: 0 len(2) attr | 1 n(2) children… | 2 n(2) children…
//!            | 3 k(2) n(2) children…          (leaf, AND, OR, threshold)
//! ```
//!
//! [`AbeSystem::encrypt`] writes shares and policy straight into it,
//! [`crate::wire::encode_state`] copies it and [`AbeSystem::decrypt`]
//! walks the policy bytes where they lie. Bytes from outside the program
//! are validated exactly once, when [`crate::wire::decode_state`] turns
//! them into an `AbeCiphertext`: every length in bounds, every node a
//! known kind, every gate `1 ≤ k ≤ n`, one share per leaf. Shares are
//! kept verbatim, canonical or not, and reduced by `Fe::new` when read.

use crate::field::{hash_to_fe, keyed_hash, xor_stream, Fe};
use crate::policy::{AccessTree, Attribute};
use crate::shamir;
use crate::wire::WireError;
use std::collections::BTreeSet;

/// Public parameters. Cloned freely to UEs and satellites.
#[derive(Debug, Clone, PartialEq)]
pub struct AbePublicKey {
    system_key: u64,
}

/// Master secret key, held only by the home network.
#[derive(Debug, Clone, PartialEq)]
pub struct AbeMasterKey {
    msk: u64,
    system_key: u64,
}

/// A decryption key bound to an attribute set: per-attribute unblinding
/// elements issued by KeyGen (e.g. for a satellite's capabilities).
#[derive(Debug, Clone, PartialEq)]
pub struct AbeSecretKey {
    unblind: Vec<(Attribute, Fe)>,
}

/// A ciphertext in its wire form (module doc): the policy in the clear
/// (standard for CP-ABE), one blinded share per leaf in depth-first leaf
/// order, and the wrapped payload, in one buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct AbeCiphertext {
    /// Always a valid layout: built by `encrypt` or checked by `from_wire`.
    bytes: Box<[u8]>,
    /// Where the payload starts in `bytes`.
    payload_off: usize,
}

/// Offset of the first share: past nonce, mac and `n_shares`.
const SHARES_OFF: usize = 8 + 8 + 2;

const LEAF: u8 = 0;
const AND: u8 = 1;
const OR: u8 = 2;
const THRESHOLD: u8 = 3;

/// Deepest policy nesting `from_wire` accepts (malformed/hostile input).
pub(crate) const MAX_POLICY_DEPTH: usize = 16;

impl AbeCiphertext {
    /// The (public) policy this ciphertext is encrypted under, decoded
    /// from the policy bytes.
    pub fn policy(&self) -> AccessTree {
        match head(&self.bytes).and_then(|(.., mut policy)| read_tree(&mut policy)) {
            Ok(tree) => tree,
            Err(e) => unreachable!("ciphertext bytes are validated when built: {e}"),
        }
    }

    /// Ciphertext size in bytes (payload + share overhead), for cost
    /// accounting.
    pub fn size_bytes(&self) -> usize {
        let n_shares =
            u16::from_le_bytes([self.bytes[SHARES_OFF - 2], self.bytes[SHARES_OFF - 1]]) as usize;
        (self.bytes.len() - self.payload_off) + n_shares * 8 + 16
    }

    /// The wire form.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The one validating walk over bytes from outside the program, then
    /// the one copy.
    pub(crate) fn from_wire(b: &[u8]) -> Result<Self, WireError> {
        let (_, _, shares, mut c) = head(b)?;
        if 8 * count_leaves(&mut c, 0)? != shares.b.len() {
            return Err(WireError::ShareCount);
        }
        let payload_len = c.u32()? as usize;
        let payload_off = c.i;
        c.take(payload_len)?;
        if c.i != b.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(Self {
            bytes: b.into(),
            payload_off,
        })
    }
}

/// Little-endian reader over replica bytes, and the one reader of the
/// policy node layout ([`Cur::node`]).
pub(crate) struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

/// One policy node as it lies in the bytes; a gate's `n` children follow.
enum Node<'a> {
    Leaf(&'a [u8]),
    Gate { kind: u8, k: usize, n: usize },
}

impl<'a> Cur<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Cur { b, i: 0 }
    }

    /// The unread bytes.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.b[self.i..]
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (s, _) = self
            .rest()
            .split_at_checked(n)
            .ok_or(WireError::Truncated)?;
        self.i += n;
        Ok(s)
    }

    /// Every fixed-width read goes through here.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }
    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }
    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read one policy node, rejecting unknown kinds and gates `shamir`
    /// could not split or reconstruct.
    fn node(&mut self) -> Result<Node<'a>, WireError> {
        let kind = self.u8()?;
        let (k, n) = match kind {
            LEAF => {
                let len = self.u16()? as usize;
                return self.take(len).map(Node::Leaf);
            }
            AND => {
                let n = self.u16()? as usize;
                (n, n)
            }
            OR => (1, self.u16()? as usize),
            THRESHOLD => (self.u16()? as usize, self.u16()? as usize),
            _ => return Err(WireError::BadPolicyNode),
        };
        if k == 0 || k > n {
            return Err(WireError::BadGate);
        }
        Ok(Node::Gate { kind, k, n })
    }
}

/// Split the fixed head off ciphertext bytes: nonce, mac, the share
/// area, and a cursor standing at the policy.
fn head(b: &[u8]) -> Result<(u64, u64, Cur<'_>, Cur<'_>), WireError> {
    let mut c = Cur::new(b);
    let nonce = c.u64()?;
    let mac = c.u64()?;
    let n_shares = c.u16()? as usize;
    let shares = Cur::new(c.take(8 * n_shares)?);
    Ok((nonce, mac, shares, c))
}

/// Validate the policy at `c` and count its leaves.
fn count_leaves(c: &mut Cur, depth: usize) -> Result<usize, WireError> {
    if depth > MAX_POLICY_DEPTH {
        return Err(WireError::PolicyTooDeep);
    }
    match c.node()? {
        Node::Leaf(attr) => match std::str::from_utf8(attr) {
            Ok(_) => Ok(1),
            Err(_) => Err(WireError::BadUtf8),
        },
        Node::Gate { n, .. } => {
            let mut leaves = 0;
            for _ in 0..n {
                leaves += count_leaves(c, depth + 1)?;
            }
            Ok(leaves)
        }
    }
}

/// Decode the (validated) policy at `c` into an owned tree.
fn read_tree(c: &mut Cur) -> Result<AccessTree, WireError> {
    Ok(match c.node()? {
        Node::Leaf(attr) => AccessTree::Leaf(Attribute::new(String::from_utf8_lossy(attr))),
        Node::Gate { kind, k, n } => {
            let children = (0..n).map(|_| read_tree(c)).collect::<Result<_, _>>()?;
            match kind {
                AND => AccessTree::And(children),
                OR => AccessTree::Or(children),
                _ => AccessTree::Threshold { k, children },
            }
        }
    })
}

/// Errors from decryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbeError {
    /// The key's attribute set does not satisfy the ciphertext policy —
    /// the satellite must roll back to the legacy home-routed procedure.
    PolicyNotSatisfied,
    /// Shares reconstructed but the MAC failed: tampered ciphertext.
    IntegrityFailure,
}

impl std::fmt::Display for AbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbeError::PolicyNotSatisfied => f.write_str("attribute set does not satisfy policy"),
            AbeError::IntegrityFailure => f.write_str("ciphertext integrity check failed"),
        }
    }
}

impl std::error::Error for AbeError {}

/// The ABE system: setup, key generation, encrypt, decrypt.
#[derive(Debug, Clone)]
pub struct AbeSystem;

impl AbeSystem {
    /// `Setup(1^λ)` → `(pk, msk)` (Algorithm 2 line 2). Deterministic in
    /// the seed for reproducible experiments.
    pub fn setup(seed: u64) -> (AbePublicKey, AbeMasterKey) {
        let system_key = keyed_hash(seed, b"spacecore-abe-system");
        let msk = keyed_hash(seed, b"spacecore-abe-master");
        (
            AbePublicKey { system_key },
            AbeMasterKey { msk, system_key },
        )
    }

    /// `KeyGen(pk, msk, S)` → secret key for attribute set `S`
    /// (Algorithm 2 lines 3–4: satellite keys installed before launch,
    /// UE keys pre-stored in SIM cards).
    pub fn keygen(msk: &AbeMasterKey, attrs: &BTreeSet<Attribute>) -> AbeSecretKey {
        let unblind = attrs
            .iter()
            .map(|a| (a.clone(), leaf_blind(msk.system_key, a.as_str().as_bytes())))
            .collect();
        AbeSecretKey { unblind }
    }

    /// `Encrypt(pk, state, A)` (Algorithm 2 line 7): wrap `plaintext`
    /// under access tree `policy`. `entropy` seeds the per-ciphertext
    /// randomness (secret, nonce, share polynomials).
    pub fn encrypt(
        pk: &AbePublicKey,
        plaintext: &[u8],
        policy: &AccessTree,
        entropy: u64,
    ) -> AbeCiphertext {
        let mut rng = SplitMix64::new(entropy ^ pk.system_key);
        let secret = Fe::new(rng.next_nonzero());
        let nonce = rng.next();

        let n_shares = policy.leaf_count();
        let policy_off = SHARES_OFF + 8 * n_shares;
        let payload_off = policy_off + policy_len(policy) + 4;
        let mut b = Vec::with_capacity(payload_off + plaintext.len());
        b.extend_from_slice(&nonce.to_le_bytes());
        b.extend_from_slice(&keyed_hash(secret.value(), plaintext).to_le_bytes());
        put_u16(&mut b, n_shares);
        b.resize(policy_off, 0);
        // Recursively share the secret down the tree: each node appends
        // its policy bytes, each leaf fills the next share slot.
        let mut next_share = SHARES_OFF;
        share_node(
            pk.system_key,
            policy,
            secret,
            &mut rng,
            &mut b,
            &mut next_share,
        );
        b.extend_from_slice(&(plaintext.len() as u32).to_le_bytes());
        b.extend_from_slice(plaintext);
        xor_stream(secret.value(), nonce, &mut b[payload_off..]);

        AbeCiphertext {
            bytes: b.into_boxed_slice(),
            payload_off,
        }
    }

    /// [`AbeSystem::encrypt`] with telemetry: counts
    /// `crypto.abe.encrypts` and samples `crypto.abe.ciphertext_bytes`.
    pub fn encrypt_obs(
        obs: &sc_obs::Recorder,
        pk: &AbePublicKey,
        plaintext: &[u8],
        policy: &AccessTree,
        entropy: u64,
    ) -> AbeCiphertext {
        let ct = Self::encrypt(pk, plaintext, policy, entropy);
        obs.inc("crypto.abe.encrypts", 1);
        obs.observe("crypto.abe.ciphertext_bytes", ct.size_bytes() as f64);
        ct
    }

    /// [`AbeSystem::decrypt`] with telemetry: counts
    /// `crypto.abe.decrypts` and `crypto.abe.decrypt_failures`.
    pub fn decrypt_obs(
        obs: &sc_obs::Recorder,
        ct: &AbeCiphertext,
        sk: &AbeSecretKey,
    ) -> Result<Vec<u8>, AbeError> {
        obs.inc("crypto.abe.decrypts", 1);
        let r = Self::decrypt(ct, sk);
        if r.is_err() {
            obs.inc("crypto.abe.decrypt_failures", 1);
        }
        r
    }

    /// `Decrypt(msg, sk)` (Algorithm 2 lines 8/11): recover the plaintext
    /// iff `sk`'s attributes satisfy the ciphertext policy.
    pub fn decrypt(ct: &AbeCiphertext, sk: &AbeSecretKey) -> Result<Vec<u8>, AbeError> {
        let (nonce, mac, mut shares, mut policy) =
            head(&ct.bytes).map_err(|_| AbeError::IntegrityFailure)?;
        let mut stack = Vec::with_capacity(shares.b.len() / 8);
        let secret = recover_node(&mut policy, &mut shares, sk, &mut stack)
            .ok_or(AbeError::PolicyNotSatisfied)?;
        let mut payload = ct.bytes[ct.payload_off..].to_vec();
        xor_stream(secret.value(), nonce, &mut payload);
        if keyed_hash(secret.value(), &payload) != mac {
            return Err(AbeError::IntegrityFailure);
        }
        Ok(payload)
    }
}

/// Per-attribute leaf blinding element.
fn leaf_blind(system_key: u64, attr: &[u8]) -> Fe {
    hash_to_fe(system_key, attr)
}

/// Append a `u16` policy field.
///
/// # Panics
/// Panics past `u16::MAX` — trees are built by the home network, so an
/// unencodable policy is a bug there.
fn put_u16(b: &mut Vec<u8>, v: usize) {
    assert!(v <= u16::MAX as usize, "policy field {v} exceeds u16");
    b.extend_from_slice(&(v as u16).to_le_bytes());
}

/// Bytes `share_node` appends for `p`.
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

/// Recursively split `secret` down the tree, appending each node's
/// policy bytes to `b` and writing blinded leaf shares into the share
/// slots at `next_share`, in depth-first order.
fn share_node(
    system_key: u64,
    node: &AccessTree,
    secret: Fe,
    rng: &mut SplitMix64,
    b: &mut Vec<u8>,
    next_share: &mut usize,
) {
    let (k, n) = node.gate();
    match node {
        AccessTree::Leaf(attr) => {
            let attr = attr.as_str().as_bytes();
            let share = secret.add(leaf_blind(system_key, attr));
            b[*next_share..*next_share + 8].copy_from_slice(&share.value().to_le_bytes());
            *next_share += 8;
            b.push(LEAF);
            put_u16(b, attr.len());
            b.extend_from_slice(attr);
            return;
        }
        AccessTree::And(_) => b.push(AND),
        AccessTree::Or(_) => b.push(OR),
        AccessTree::Threshold { .. } => {
            b.push(THRESHOLD);
            put_u16(b, k);
        }
    }
    put_u16(b, n);
    let shares = shamir::split(secret, k, n, || Fe::new(rng.next()));
    for (child, share) in node.children().iter().zip(shares) {
        share_node(system_key, child, share.y, rng, b, next_share);
    }
}

/// Recursively recover the secret of the node at `policy` from the
/// leaves the key covers, reading `shares` in depth-first leaf order
/// (also through subtrees it cannot satisfy, to stay aligned). Recovered
/// child shares wait on `stack` until their gate reconstructs.
fn recover_node(
    policy: &mut Cur,
    shares: &mut Cur,
    sk: &AbeSecretKey,
    stack: &mut Vec<shamir::Share>,
) -> Option<Fe> {
    match policy.node().ok()? {
        Node::Leaf(attr) => {
            let blinded = Fe::new(shares.u64().ok()?);
            sk.unblind
                .iter()
                .find(|(a, _)| a.as_str().as_bytes() == attr)
                .map(|(_, b)| blinded.sub(*b))
        }
        Node::Gate { k, n, .. } => {
            let base = stack.len();
            for i in 0..n {
                if let Some(y) = recover_node(policy, shares, sk, stack) {
                    stack.push(shamir::Share {
                        x: Fe::new(i as u64 + 1),
                        y,
                    });
                }
            }
            let secret =
                (stack.len() - base >= k).then(|| shamir::reconstruct(&stack[base..base + k]));
            stack.truncate(base);
            secret
        }
    }
}

/// Deterministic splitmix64 RNG for per-ciphertext randomness.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn next_nonzero(&mut self) -> u64 {
        loop {
            let v = self.next() % crate::field::P;
            if v != 0 {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::attr_set;

    fn setup() -> (AbePublicKey, AbeMasterKey) {
        AbeSystem::setup(0xC0FFEE)
    }

    fn paper_policy() -> AccessTree {
        AccessTree::Or(vec![
            AccessTree::all_of(&["role:ue", "supi:1"]),
            AccessTree::all_of(&["role:satellite", "qos", "bw>=10g"]),
        ])
    }

    #[test]
    fn authorized_satellite_decrypts() {
        let (pk, msk) = setup();
        let sk = AbeSystem::keygen(&msk, &attr_set(&["role:satellite", "qos", "bw>=10g"]));
        let ct = AbeSystem::encrypt(&pk, b"ue session state", &paper_policy(), 1);
        assert_eq!(AbeSystem::decrypt(&ct, &sk).unwrap(), b"ue session state");
    }

    #[test]
    fn owner_ue_decrypts() {
        let (pk, msk) = setup();
        let sk = AbeSystem::keygen(&msk, &attr_set(&["role:ue", "supi:1"]));
        let ct = AbeSystem::encrypt(&pk, b"state", &paper_policy(), 2);
        assert_eq!(AbeSystem::decrypt(&ct, &sk).unwrap(), b"state");
    }

    #[test]
    fn unauthorized_satellite_fails() {
        let (pk, msk) = setup();
        // Missing the "qos" capability.
        let sk = AbeSystem::keygen(&msk, &attr_set(&["role:satellite", "bw>=10g"]));
        let ct = AbeSystem::encrypt(&pk, b"state", &paper_policy(), 3);
        assert_eq!(
            AbeSystem::decrypt(&ct, &sk).unwrap_err(),
            AbeError::PolicyNotSatisfied
        );
    }

    #[test]
    fn revocation_via_policy_update() {
        // Appendix B: "the home network detects [hijack] and invalidates
        // its authenticity by updating A … such that A(S_sat)=false".
        let (pk, msk) = setup();
        let hijacked = AbeSystem::keygen(&msk, &attr_set(&["role:satellite", "qos", "bw>=10g"]));
        let new_policy = AccessTree::And(vec![
            AccessTree::all_of(&["role:satellite", "qos", "bw>=10g"]),
            AccessTree::leaf("epoch:2"), // hijacked sat lacks the new epoch attr
        ]);
        let ct = AbeSystem::encrypt(&pk, b"refreshed", &new_policy, 4);
        assert_eq!(
            AbeSystem::decrypt(&ct, &hijacked).unwrap_err(),
            AbeError::PolicyNotSatisfied
        );
        let fresh =
            AbeSystem::keygen(&msk, &attr_set(&["role:satellite", "qos", "bw>=10g", "epoch:2"]));
        assert!(AbeSystem::decrypt(&ct, &fresh).is_ok());
    }

    #[test]
    fn tampering_detected() {
        let (pk, msk) = setup();
        let sk = AbeSystem::keygen(&msk, &attr_set(&["role:ue", "supi:1"]));
        let mut ct = AbeSystem::encrypt(&pk, b"billing: 15GB", &paper_policy(), 5);
        // A selfish UE flips payload bits to manipulate its billing state.
        ct.bytes[ct.payload_off] ^= 0xFF;
        assert_eq!(
            AbeSystem::decrypt(&ct, &sk).unwrap_err(),
            AbeError::IntegrityFailure
        );
    }

    #[test]
    fn threshold_policies_work() {
        let (pk, msk) = setup();
        let policy = AccessTree::Threshold {
            k: 2,
            children: vec![
                AccessTree::leaf("a"),
                AccessTree::leaf("b"),
                AccessTree::leaf("c"),
            ],
        };
        let ct = AbeSystem::encrypt(&pk, b"secret", &policy, 6);
        let ok = AbeSystem::keygen(&msk, &attr_set(&["a", "c"]));
        assert!(AbeSystem::decrypt(&ct, &ok).is_ok());
        let insufficient = AbeSystem::keygen(&msk, &attr_set(&["b"]));
        assert!(AbeSystem::decrypt(&ct, &insufficient).is_err());
    }

    #[test]
    fn deterministic_under_same_entropy() {
        let (pk, _) = setup();
        let a = AbeSystem::encrypt(&pk, b"x", &paper_policy(), 7);
        let b = AbeSystem::encrypt(&pk, b"x", &paper_policy(), 7);
        assert_eq!(a, b);
        let c = AbeSystem::encrypt(&pk, b"x", &paper_policy(), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn nested_policies() {
        let (pk, msk) = setup();
        let policy = AccessTree::And(vec![
            AccessTree::leaf("root-attr"),
            AccessTree::Or(vec![
                AccessTree::all_of(&["x", "y"]),
                AccessTree::Threshold {
                    k: 2,
                    children: vec![
                        AccessTree::leaf("p"),
                        AccessTree::leaf("q"),
                        AccessTree::leaf("r"),
                    ],
                },
            ]),
        ]);
        let ct = AbeSystem::encrypt(&pk, b"deep", &policy, 9);
        let ok = AbeSystem::keygen(&msk, &attr_set(&["root-attr", "p", "r"]));
        assert_eq!(AbeSystem::decrypt(&ct, &ok).unwrap(), b"deep");
        let missing_root = AbeSystem::keygen(&msk, &attr_set(&["p", "r", "x", "y"]));
        assert!(AbeSystem::decrypt(&ct, &missing_root).is_err());
    }

    #[test]
    fn ciphertext_size_scales_with_leaves() {
        let (pk, _) = setup();
        let small = AbeSystem::encrypt(&pk, b"data", &AccessTree::leaf("a"), 1);
        let big = AbeSystem::encrypt(
            &pk,
            b"data",
            &AccessTree::all_of(&["a", "b", "c", "d", "e", "f", "g", "h"]),
            1,
        );
        assert!(big.size_bytes() > small.size_bytes());
    }
}
