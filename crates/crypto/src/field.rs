//! Arithmetic in the prime field GF(2⁶¹ − 1).
//!
//! 2⁶¹ − 1 is a Mersenne prime, which makes reduction cheap and lets all
//! intermediate products fit in `u128`. The field backs the Shamir
//! sharing in [`crate::shamir`], the ABE share blinding in
//! [`crate::abe`], and the Diffie–Hellman group in [`crate::dh`].
//!
//! **Invariant:** an [`Fe`] always holds a value in `[0, P)`, hence
//! `< 2⁶¹`. Every constructor reduces and every operation preserves it;
//! [`Fe::mul`]'s shifted multiply is only correct because of it (the
//! three spare bits are where the pre-shift goes). One local
//! establishment runs ≈ 500 multiplications on random operands (two DH
//! powers, two Fermat inversions), so `mul` and `pow` avoid
//! data-dependent branches: a mispredicted coin-flip costs more than
//! the multiply it guards.
//!
//! The module also holds the workspace's one keyed hash
//! ([`KeyedHasher`], [`keyed_hash`]) and its one key-stream loop,
//! [`keystream_pass`]. Both byte-serial jobs on a replica payload — the
//! XOR stream and the digests over the plaintext — run in that single
//! loop: the stream is computed four blocks at a time (independent
//! hash chains, side by side) and every byte is absorbed into two
//! hashers in the iteration that XORs it, so the ABE MAC and the home's
//! envelope signature ([`crate::statecrypt`]) cost one walk over the
//! payload on seal and on open, not three.

/// The field modulus: the Mersenne prime 2⁶¹ − 1.
pub const P: u64 = (1u64 << 61) - 1;

/// A field element in `[0, P)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fe(u64);

// `add`/`sub`/`mul`/`neg` shadow the std::ops trait names on purpose:
// field arithmetic is explicit-call-only here so a stray `+` on raw
// u64s can never silently bypass the modular reduction.
#[allow(clippy::should_implement_trait)]
impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe(0);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe(1);

    /// Reduce an arbitrary `u64` into the field.
    pub const fn new(v: u64) -> Self {
        Fe(v % P)
    }

    /// Raw value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Field addition.
    pub fn add(self, o: Fe) -> Fe {
        let s = self.0 + o.0; // < 2^62, no overflow
        Fe(if s >= P { s - P } else { s })
    }

    /// Field subtraction.
    pub fn sub(self, o: Fe) -> Fe {
        Fe(if self.0 >= o.0 {
            self.0 - o.0
        } else {
            self.0 + P - o.0
        })
    }

    /// Field multiplication: one widening multiply, Mersenne reduction
    /// (`x mod (2⁶¹ − 1) = (x mod 2⁶¹) + (x >> 61)`), no branch.
    pub const fn mul(self, o: Fe) -> Fe {
        // Both operands are < 2⁶¹, so `a << 3` fits a word and
        // `8·a·b < 2¹²⁵`: the product's high word is `a·b >> 61` and its
        // low word, shifted back, is `a·b mod 2⁶¹`.
        let wide = ((self.0 << 3) as u128) * o.0 as u128;
        let hi = (wide >> 64) as u64;
        let lo = (wide as u64) >> 3;
        // hi ≤ (P − 1)² >> 61 < P − 1 and lo ≤ 2⁶¹ − 1 = P, so the sum is
        // at most 2P − 2: one conditional subtraction finishes it, selected
        // by the borrow's sign mask instead of a compare-and-jump.
        let d = (hi + lo).wrapping_sub(P);
        Fe(d.wrapping_add(P & ((d as i64 >> 63) as u64)))
    }

    /// Field exponentiation by squaring. Both products are computed for
    /// every exponent bit and `acc` is selected by mask: the bits of a DH
    /// secret or of `P − 2` are not a pattern a predictor can learn.
    pub fn pow(self, mut e: u64) -> Fe {
        let mut base = self;
        let mut acc = Fe::ONE;
        while e > 0 {
            let taken = (e & 1).wrapping_neg();
            acc = Fe((acc.mul(base).0 & taken) | (acc.0 & !taken));
            base = base.mul(base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem.
    ///
    /// # Panics
    /// Panics on zero.
    pub fn inv(self) -> Fe {
        assert!(self.0 != 0, "zero has no inverse");
        self.pow(P - 2)
    }

    /// Field negation.
    pub fn neg(self) -> Fe {
        if self.0 == 0 {
            self
        } else {
            Fe(P - self.0)
        }
    }
}

impl From<u64> for Fe {
    fn from(v: u64) -> Self {
        Fe::new(v)
    }
}

impl std::fmt::Display for Fe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A small deterministic keyed hash (FNV-1a 64 variant, tweaked for two
/// inputs). **Not** cryptographically strong — see the crate-level
/// substitution note. Used for attribute key derivation, "signatures"
/// (keyed MACs), and key-stream generation.
pub fn keyed_hash(key: u64, data: &[u8]) -> u64 {
    let mut h = KeyedHasher::new(key);
    h.update(data);
    h.finish()
}

/// [`keyed_hash`] over a message that arrives in pieces: feeding the
/// pieces in order gives the hash of their concatenation, so a header
/// and a payload need not be copied into one buffer first.
#[derive(Debug, Clone)]
pub struct KeyedHasher(u64);

impl KeyedHasher {
    /// Start a hash under `key`.
    pub fn new(key: u64) -> Self {
        KeyedHasher(0xcbf2_9ce4_8422_2325 ^ key.rotate_left(17))
    }

    /// Absorb the next piece of the message.
    pub fn update(&mut self, data: &[u8]) {
        self.0 = data.iter().fold(self.0, |h, &b| hash_round(h, b));
    }

    /// The hash of everything absorbed.
    pub fn finish(&self) -> u64 {
        avalanche(self.0)
    }
}

/// One byte into the hash state: the whole per-byte round.
const fn hash_round(h: u64, b: u8) -> u64 {
    let h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    h ^ (h >> 29)
}

/// The final avalanche (splitmix64 tail).
const fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Hash into a non-zero field element.
pub fn hash_to_fe(key: u64, data: &[u8]) -> Fe {
    let mut h = keyed_hash(key, data);
    loop {
        let v = h % P;
        if v != 0 {
            return Fe(v);
        }
        h = keyed_hash(key ^ 0x9e37_79b9_7f4a_7c15, &h.to_le_bytes());
    }
}

/// Which bytes of a [`keystream_pass`] its two hashers absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absorb {
    /// Each byte as it came in, before the XOR.
    Input,
    /// Each byte as the XOR leaves it.
    Output,
}

/// Key-stream blocks [`keystream_pass`] computes side by side.
const LANES: usize = 4;

/// The one pass over a payload: XOR the key stream of `(key, nonce)`
/// into `data` and, in the same iteration, absorb each byte into `mac`
/// and `co` — as it was before the XOR or after it, per `absorb`.
///
/// Block `i` of the stream is
/// `keyed_hash(key ^ nonce.rotate_left(13), &(i as u64).to_le_bytes())`,
/// little-endian, so the XOR is involutive: a second pass under the same
/// key and nonce restores the input. To hash the plaintext, sealing
/// absorbs [`Absorb::Input`] and opening [`Absorb::Output`]; for a tag
/// over the ciphertext (encrypt-then-MAC, [`crate::suci`]) the reverse.
pub fn keystream_pass(
    key: u64,
    nonce: u64,
    data: &mut [u8],
    absorb: Absorb,
    mac: &mut KeyedHasher,
    co: &mut KeyedHasher,
) {
    let seed = KeyedHasher::new(key ^ nonce.rotate_left(13)).0;
    let (mut m, mut c) = (mac.0, co.0);
    for (n, chunk) in data.chunks_mut(8 * LANES).enumerate() {
        let stream = stream_blocks(seed, (n * LANES) as u64);
        for (block, k) in chunk.chunks_mut(8).zip(stream) {
            // A whole block goes through at a fixed width: one load, one
            // XOR, one store; only the payload's last block can be short.
            match <&mut [u8; 8]>::try_from(&mut *block) {
                Ok(whole) => xor_absorb(whole, k, absorb, &mut m, &mut c),
                Err(_) => xor_absorb(block, k, absorb, &mut m, &mut c),
            }
        }
    }
    (mac.0, co.0) = (m, c);
}

/// XOR key-stream block `k` into `block` (at most 8 bytes) and absorb
/// each of its bytes, as it was or as it becomes, into both hash states.
#[inline(always)]
fn xor_absorb(block: &mut [u8], k: u64, absorb: Absorb, m: &mut u64, c: &mut u64) {
    let mut word = [0u8; 8];
    word[..block.len()].copy_from_slice(block);
    let input = u64::from_le_bytes(word);
    let output = input ^ k;
    let seen = match absorb {
        Absorb::Input => input,
        Absorb::Output => output,
    };
    for i in 0..block.len() {
        let b = (seen >> (8 * i)) as u8;
        *m = hash_round(*m, b);
        *c = hash_round(*c, b);
    }
    block.copy_from_slice(&output.to_le_bytes()[..block.len()]);
}

/// Key-stream blocks `first..first + LANES`: `LANES` hash chains over
/// the blocks' little-endian indices, advanced together.
fn stream_blocks(seed: u64, first: u64) -> [u64; LANES] {
    let mut h = [seed; LANES];
    for byte in 0..8 {
        for (lane, h) in (0..).zip(h.iter_mut()) {
            *h = hash_round(*h, ((first + lane) >> (8 * byte)) as u8);
        }
    }
    h.map(avalanche)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = Fe::new(12345678901234567);
        let b = Fe::new(P - 5);
        assert_eq!(a.add(b).sub(b), a);
        assert_eq!(a.sub(a), Fe::ZERO);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let cases = [(3u64, 5u64), (P - 1, P - 1), (1 << 60, 12345), (0, 999)];
        for (x, y) in cases {
            let expect = ((x as u128 * y as u128) % P as u128) as u64;
            assert_eq!(Fe::new(x).mul(Fe::new(y)).value(), expect, "{x}*{y}");
        }
    }

    #[test]
    fn pow_and_inverse() {
        let a = Fe::new(987654321);
        assert_eq!(a.mul(a.inv()), Fe::ONE);
        assert_eq!(a.pow(0), Fe::ONE);
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(2), a.mul(a));
        // Fermat: a^(P-1) = 1.
        assert_eq!(a.pow(P - 1), Fe::ONE);
    }

    #[test]
    fn neg_is_additive_inverse() {
        let a = Fe::new(424242);
        assert_eq!(a.add(a.neg()), Fe::ZERO);
        assert_eq!(Fe::ZERO.neg(), Fe::ZERO);
    }

    #[test]
    fn keyed_hash_is_key_sensitive() {
        let d = b"the same data";
        assert_ne!(keyed_hash(1, d), keyed_hash(2, d));
        assert_eq!(keyed_hash(7, d), keyed_hash(7, d));
        assert_ne!(keyed_hash(7, b"data a"), keyed_hash(7, b"data b"));
    }

    #[test]
    fn hash_to_fe_nonzero() {
        for k in 0..100u64 {
            assert_ne!(hash_to_fe(k, b"x"), Fe::ZERO);
        }
    }

    /// The random inputs of one pass: stream key, nonce, MAC key, and
    /// the co-hasher's key and header.
    struct Keys<'a> {
        stream: u64,
        nonce: u64,
        mac: u64,
        co: u64,
        header: &'a [u8],
    }

    /// Output bytes, MAC and co-hasher digest of one pass.
    type Sealed = (Vec<u8>, u64, u64);

    fn fused(k: &Keys, data: &[u8], absorb: Absorb) -> Sealed {
        let mut out = data.to_vec();
        let mut mac = KeyedHasher::new(k.mac);
        let mut co = KeyedHasher::new(k.co);
        co.update(k.header);
        keystream_pass(k.stream, k.nonce, &mut out, absorb, &mut mac, &mut co);
        (out, mac.finish(), co.finish())
    }

    /// The three passes the fused one replaces, kept here as its
    /// reference: the stream one 8-byte block at a time, then the MAC,
    /// then the co-hash over header ‖ plaintext.
    fn three_passes(k: &Keys, data: &[u8], absorb: Absorb) -> Sealed {
        let mut out = data.to_vec();
        for (i, chunk) in out.chunks_mut(8).enumerate() {
            let block = keyed_hash(
                k.stream ^ k.nonce.rotate_left(13),
                &(i as u64).to_le_bytes(),
            );
            for (b, x) in chunk.iter_mut().zip(block.to_le_bytes()) {
                *b ^= x;
            }
        }
        let plain = match absorb {
            Absorb::Input => data,
            Absorb::Output => &out,
        };
        let mac = keyed_hash(k.mac, plain);
        let mut co = KeyedHasher::new(k.co);
        co.update(k.header);
        co.update(plain);
        let co = co.finish();
        (out, mac, co)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn fused_pass_equals_the_three_passes(
            stream in any::<u64>(),
            nonce in any::<u64>(),
            mac in any::<u64>(),
            co in any::<u64>(),
            header in proptest::collection::vec(any::<u8>(), 0..16),
            bytes in proptest::collection::vec(any::<u8>(), 320),
        ) {
            let k = Keys { stream, nonce, mac, co, header: &header };
            // Every length up to 320: every tail shape mod 8 (a block)
            // and mod 32 (a round of four blocks), ten rounds deep.
            for len in 0..=bytes.len() {
                let data = &bytes[..len];
                for absorb in [Absorb::Input, Absorb::Output] {
                    prop_assert_eq!(fused(&k, data, absorb), three_passes(&k, data, absorb));
                }
                let (ct, mac, co) = fused(&k, data, Absorb::Input);
                prop_assert_eq!(fused(&k, &ct, Absorb::Output), (data.to_vec(), mac, co));
            }
        }
    }

    fn seal(stream: u64, nonce: u64, data: &[u8]) -> Vec<u8> {
        let k = Keys {
            stream,
            nonce,
            mac: 0,
            co: 0,
            header: b"",
        };
        fused(&k, data, Absorb::Input).0
    }

    #[test]
    fn xor_stream_involutive() {
        let data = b"hello spacecore, this is a state replica";
        let ct = seal(0xABCD, 42, data);
        assert_ne!(ct, data);
        assert_eq!(seal(0xABCD, 42, &ct), data);
    }

    #[test]
    fn xor_stream_nonce_sensitive() {
        let data = b"same plaintext";
        assert_ne!(seal(1, 1, data), seal(1, 2, data));
    }
}
