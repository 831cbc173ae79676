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
        let mut h = self.0;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
            h ^= h >> 29;
        }
        self.0 = h;
    }

    /// The hash of everything absorbed.
    pub fn finish(&self) -> u64 {
        // Final avalanche (splitmix64 tail).
        let mut h = self.0;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        h
    }
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

/// XOR key-stream over a buffer, keyed by `key` and a nonce. Involutive:
/// applying twice restores the plaintext.
pub fn xor_stream(key: u64, nonce: u64, data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(8).enumerate() {
        let block = keyed_hash(key ^ nonce.rotate_left(13), &(i as u64).to_le_bytes());
        let kb = block.to_le_bytes();
        for (j, b) in chunk.iter_mut().enumerate() {
            *b ^= kb[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn xor_stream_involutive() {
        let mut data = b"hello spacecore, this is a state replica".to_vec();
        let orig = data.clone();
        xor_stream(0xABCD, 42, &mut data);
        assert_ne!(data, orig);
        xor_stream(0xABCD, 42, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn xor_stream_nonce_sensitive() {
        let mut a = b"same plaintext".to_vec();
        let mut b = a.clone();
        xor_stream(1, 1, &mut a);
        xor_stream(1, 2, &mut b);
        assert_ne!(a, b);
    }
}
