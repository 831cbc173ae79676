//! Shamir secret sharing over GF(2⁶¹ − 1).
//!
//! Threshold gates in the ABE access tree (AND = n-of-n, OR = 1-of-n,
//! k-of-n) are realized by splitting each node's secret into shares with
//! a random degree-(k−1) polynomial and reconstructing by Lagrange
//! interpolation at x = 0 — the textbook construction used by GPSW/BSW
//! ABE schemes.

use crate::field::Fe;

/// One share: the evaluation point `x` (non-zero) and value `y = f(x)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    pub x: Fe,
    pub y: Fe,
}

/// Split `secret` into `n` shares with threshold `k` (any `k` shares
/// reconstruct; fewer reveal nothing). The polynomial's random
/// coefficients are drawn from `coeff_source`, a caller-supplied iterator
/// (lets the ABE layer derive them deterministically from the master key).
///
/// Shares are issued at x = 1..=n.
///
/// # Panics
/// Panics if `k == 0` or `k > n`.
pub fn split(
    secret: Fe,
    k: usize,
    n: usize,
    mut coeff_source: impl FnMut() -> Fe,
) -> Vec<Share> {
    assert!(k >= 1 && k <= n, "invalid threshold {k}-of-{n}");
    // f(x) = secret + c1·x + … + c_{k-1}·x^{k-1}
    let coeffs: Vec<Fe> = (0..k - 1).map(|_| coeff_source()).collect();
    (1..=n as u64)
        .map(|xi| {
            let x = Fe::new(xi);
            let mut y = secret;
            let mut xp = Fe::ONE;
            for &c in &coeffs {
                xp = xp.mul(x);
                y = y.add(c.mul(xp));
            }
            Share { x, y }
        })
        .collect()
}

/// Reconstruct the secret from at least `k` distinct shares by Lagrange
/// interpolation at x = 0. With fewer than the original threshold the
/// result is (with overwhelming probability) garbage — by design.
///
/// # Panics
/// Panics if `shares` is empty or contains duplicate x-coordinates.
pub fn reconstruct(shares: &[Share]) -> Fe {
    assert!(!shares.is_empty(), "need at least one share");
    // A lone share (an OR gate, 1-of-n) has Lagrange coefficient 1.
    if let [only] = shares {
        return only.y;
    }
    for (i, a) in shares.iter().enumerate() {
        for b in &shares[i + 1..] {
            assert!(a.x != b.x, "duplicate share x-coordinate");
        }
    }
    let mut acc = Fe::ZERO;
    for (i, si) in shares.iter().enumerate() {
        // Lagrange basis at 0: Π_{j≠i} (0 - x_j)/(x_i - x_j)
        let mut num = Fe::ONE;
        let mut den = Fe::ONE;
        for (j, sj) in shares.iter().enumerate() {
            if i == j {
                continue;
            }
            num = num.mul(sj.x.neg());
            den = den.mul(si.x.sub(sj.x));
        }
        // One inversion per share, deliberately not batched: it is the
        // per-leaf cost that stands in for a pairing (Fig. 18a's slope).
        acc = acc.add(si.y.mul(num.mul(den.inv())));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng_source(seed: u64) -> impl FnMut() -> Fe {
        let mut s = seed;
        move || {
            // splitmix64 step
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            Fe::new(z ^ (z >> 31))
        }
    }

    #[test]
    fn k_of_n_reconstructs() {
        let secret = Fe::new(0x0005_FACE_C0DE);
        let shares = split(secret, 3, 5, rng_source(7));
        assert_eq!(shares.len(), 5);
        // Any 3 shares work.
        assert_eq!(reconstruct(&shares[0..3]), secret);
        assert_eq!(reconstruct(&[shares[0], shares[2], shares[4]]), secret);
        // All 5 also work.
        assert_eq!(reconstruct(&shares), secret);
    }

    #[test]
    fn below_threshold_fails() {
        let secret = Fe::new(123456789);
        let shares = split(secret, 3, 5, rng_source(99));
        // 2 < k shares almost surely reconstruct something else.
        assert_ne!(reconstruct(&shares[0..2]), secret);
    }

    #[test]
    fn one_of_n_is_replication() {
        let secret = Fe::new(42);
        let shares = split(secret, 1, 4, rng_source(1));
        for s in &shares {
            assert_eq!(reconstruct(&[*s]), secret);
        }
    }

    #[test]
    fn n_of_n_requires_all() {
        let secret = Fe::new(777777);
        let shares = split(secret, 4, 4, rng_source(3));
        assert_eq!(reconstruct(&shares), secret);
        assert_ne!(reconstruct(&shares[0..3]), secret);
    }

    #[test]
    #[should_panic(expected = "invalid threshold")]
    fn zero_threshold_panics() {
        split(Fe::new(1), 0, 3, rng_source(0));
    }

    #[test]
    #[should_panic(expected = "duplicate share")]
    fn duplicate_x_panics() {
        let s = Share {
            x: Fe::new(1),
            y: Fe::new(2),
        };
        reconstruct(&[s, s]);
    }
}
