//! The field arithmetic under the executed path, pinned to the naive
//! forms it replaced. `Fe::mul` reduces with a shifted multiply and a
//! mask, `Fe::pow` selects by mask, `shamir::reconstruct` short-cuts a
//! lone share, `StationToStation::new` reads `g^x` off a fixed-base
//! table and the home signs its envelope with a streaming hash — all
//! must be *exact*: the same bits as a `u128` remainder, plain
//! square-and-multiply, per-share-inversion Lagrange interpolation and
//! the one-shot hash. The references live here and nowhere else.

use proptest::prelude::*;
use sc_crypto::dh::{DhParams, StationToStation};
use sc_crypto::field::{keyed_hash, Fe, KeyedHasher, P};
use sc_crypto::shamir::{self, Share};

fn mul_ref(a: u64, b: u64) -> u64 {
    (a as u128 * b as u128 % P as u128) as u64
}

fn pow_ref(a: u64, mut e: u64) -> u64 {
    let (mut base, mut acc) = (a % P, 1);
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_ref(acc, base);
        }
        base = mul_ref(base, base);
        e >>= 1;
    }
    acc
}

/// Lagrange interpolation at 0, one Fermat inversion per share.
fn reconstruct_ref(shares: &[Share]) -> u64 {
    let mut acc = 0u64;
    for (i, si) in shares.iter().enumerate() {
        let (mut num, mut den) = (1u64, 1u64);
        for (j, sj) in shares.iter().enumerate() {
            if i != j {
                num = mul_ref(num, (P - sj.x.value()) % P);
                den = mul_ref(den, (si.x.value() + P - sj.x.value()) % P);
            }
        }
        let term = mul_ref(si.y.value(), mul_ref(num, pow_ref(den, P - 2)));
        acc = (acc + term) % P;
    }
    acc
}

/// `keyed_hash` as first written: one pass over one buffer.
fn keyed_hash_ref(key: u64, data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ key.rotate_left(17);
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where a reduction is most likely to be off by one `P`.
const EDGE_ELEMENTS: [u64; 6] = [0, 1, 2, 1 << 60, P - 2, P - 1];
const EDGE_EXPONENTS: [u64; 6] = [0, 1, 2, P - 2, P - 1, u64::MAX];

#[test]
fn mul_and_pow_exact_on_the_edge_set() {
    for a in EDGE_ELEMENTS {
        for b in EDGE_ELEMENTS {
            assert_eq!(Fe::new(a).mul(Fe::new(b)).value(), mul_ref(a, b), "{a}·{b}");
        }
        for e in EDGE_EXPONENTS {
            assert_eq!(Fe::new(a).pow(e).value(), pow_ref(a, e), "{a}^{e}");
        }
        if a != 0 {
            assert_eq!(Fe::new(a).mul(Fe::new(a).inv()), Fe::ONE, "{a}·{a}⁻¹");
        }
    }
}

#[test]
#[should_panic(expected = "zero has no inverse")]
fn zero_still_has_no_inverse() {
    Fe::ZERO.inv();
}

#[test]
#[should_panic(expected = "duplicate share")]
fn duplicate_x_still_panics() {
    let s = Share {
        x: Fe::new(3),
        y: Fe::new(4),
    };
    shamir::reconstruct(&[s, s]);
}

/// The `d = 0` entries and the top window are the table's corners;
/// `P − 3` is the largest secret `StationToStation::new` can derive.
#[test]
fn fixed_base_table_exact_on_edge_secrets() {
    for e in [2, 3, 15, 16, 0xF0, 1 << 60, P - 3] {
        let got = StationToStation::new(DhParams::default(), e).public_value();
        assert_eq!(got, Fe::new(7).pow(e).value(), "7^{e}");
        assert_eq!(got, pow_ref(7, e), "7^{e}");
    }
}

#[test]
fn streaming_hash_equals_one_shot_at_every_split() {
    let msg: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
    for key in [0, 1, 0x5face, u64::MAX] {
        let want = keyed_hash_ref(key, &msg);
        assert_eq!(keyed_hash(key, &msg), want);
        for cut in 0..=msg.len() {
            let mut h = KeyedHasher::new(key);
            h.update(&msg[..cut]);
            h.update(&msg[cut..]);
            assert_eq!(h.finish(), want, "key {key:#x} cut {cut}");
        }
    }
    assert_eq!(KeyedHasher::new(9).finish(), keyed_hash_ref(9, b""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn mul_matches_u128_remainder(a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (a % P, b % P);
        prop_assert_eq!(Fe::new(a).mul(Fe::new(b)).value(), mul_ref(a, b), "{}·{}", a, b);
    }

    #[test]
    fn pow_matches_square_and_multiply(a in any::<u64>(), e in any::<u64>()) {
        prop_assert_eq!(Fe::new(a).pow(e).value(), pow_ref(a, e), "{}^{}", a, e);
        // Short exponents leave the loop early.
        let short = e >> (a % 64);
        prop_assert_eq!(Fe::new(a).pow(short).value(), pow_ref(a, short), "{}^{}", a, short);
    }

    #[test]
    fn inverse_is_exact(a in 1u64..P) {
        let x = Fe::new(a);
        prop_assert_eq!(x.mul(x.inv()), Fe::ONE);
        prop_assert_eq!(x.inv().value(), pow_ref(a, P - 2));
    }

    /// Table `g^x` ≡ generic `pow`, and an exchange agrees on its key,
    /// on both sides of `StationToStation::new`'s selection.
    #[test]
    fn dh_public_values_and_keys_exact(x in any::<u64>(), y in any::<u64>()) {
        for params in [DhParams::default(), DhParams { g: 5, ..DhParams::default() }] {
            let ue = StationToStation::new(params, x);
            let sat = StationToStation::new(params, y);
            let secret = (x % (P - 2)).max(2);
            prop_assert_eq!(ue.public_value(), pow_ref(params.g, secret), "g={} x={}", params.g, x);
            prop_assert_eq!(ue.public_value(), Fe::new(params.g).pow(secret).value());
            let k = ue.shared_key(sat.public_value());
            prop_assert_eq!(k, sat.shared_key(ue.public_value()));
            prop_assert_eq!(k, pow_ref(sat.public_value(), secret));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random k-of-n subsets, k = 1 (the lone-share short cut) included:
    /// the secret comes back and equals the reference's answer — which
    /// must also hold for shares that lie on no common polynomial.
    #[test]
    fn reconstruct_matches_per_share_lagrange(k in 1usize..9, extra in 0usize..5, seed in any::<u64>()) {
        let n = k + extra;
        let mut rng = seed;
        let secret = Fe::new(splitmix(&mut rng));
        let mut shares = shamir::split(secret, k, n, || Fe::new(splitmix(&mut rng)));
        // A random k-subset, in random order.
        for i in 0..k {
            let j = i + (splitmix(&mut rng) % (n - i) as u64) as usize;
            shares.swap(i, j);
        }
        shares.truncate(k);
        prop_assert_eq!(shamir::reconstruct(&shares), secret, "k={} n={}", k, n);
        prop_assert_eq!(shamir::reconstruct(&shares).value(), reconstruct_ref(&shares));

        for s in &mut shares {
            s.y = Fe::new(splitmix(&mut rng));
        }
        prop_assert_eq!(shamir::reconstruct(&shares).value(), reconstruct_ref(&shares));
    }
}
