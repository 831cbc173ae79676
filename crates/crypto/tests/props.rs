//! Property-based tests for the security substrate.

use proptest::prelude::*;
use sc_crypto::abe::AbeSystem;
use sc_crypto::field::{keyed_hash, keystream_pass, Absorb, Fe, KeyedHasher, P};
use sc_crypto::policy::{attr_set, AccessTree};
use sc_crypto::shamir;
use sc_crypto::statecrypt::{satellite_local_access, HomeCrypto};
use sc_crypto::wire;

/// A policy of depth ≤ `depth` over attributes `a0..a5`, drawn from
/// `seed`: leaves, AND, OR and threshold gates of 1–3 children.
fn gen_tree(seed: &mut u64, depth: usize) -> AccessTree {
    let mut draw = |n: u64| {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 33) % n
    };
    let kind = if depth == 0 { 0 } else { draw(4) };
    if kind == 0 {
        return AccessTree::leaf(format!("a{}", draw(6)));
    }
    let n = 1 + draw(3) as usize;
    let k = 1 + draw(n as u64) as usize;
    let children = (0..n).map(|_| gen_tree(seed, depth - 1)).collect();
    match kind {
        1 => AccessTree::And(children),
        2 => AccessTree::Or(children),
        _ => AccessTree::Threshold { k, children },
    }
}

proptest! {
    #[test]
    fn field_add_commutes_and_associates(a in 0..P, b in 0..P, c in 0..P) {
        let (a, b, c) = (Fe::new(a), Fe::new(b), Fe::new(c));
        prop_assert_eq!(a.add(b), b.add(a));
        prop_assert_eq!(a.add(b).add(c), a.add(b.add(c)));
    }

    #[test]
    fn field_mul_distributes(a in 0..P, b in 0..P, c in 0..P) {
        let (a, b, c) = (Fe::new(a), Fe::new(b), Fe::new(c));
        prop_assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }

    #[test]
    fn field_inverse_total_on_nonzero(a in 1..P) {
        let a = Fe::new(a);
        prop_assert_eq!(a.mul(a.inv()), Fe::ONE);
    }

    #[test]
    fn pow_adds_exponents(a in 1..P, e1 in 0u64..1000, e2 in 0u64..1000) {
        let a = Fe::new(a);
        prop_assert_eq!(a.pow(e1).mul(a.pow(e2)), a.pow(e1 + e2));
    }

    #[test]
    fn xor_stream_involutive(key in any::<u64>(), nonce in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut d = data.clone();
        for _ in 0..2 {
            let (mut mac, mut co) = (KeyedHasher::new(0), KeyedHasher::new(0));
            keystream_pass(key, nonce, &mut d, Absorb::Input, &mut mac, &mut co);
        }
        prop_assert_eq!(d, data);
    }

    #[test]
    fn keyed_hash_deterministic(key in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(keyed_hash(key, &data), keyed_hash(key, &data));
    }

    #[test]
    fn shamir_k_of_n(secret in 0..P, k in 1usize..6, extra in 0usize..4, seed in any::<u64>()) {
        let n = k + extra;
        let secret = Fe::new(secret);
        let mut s = seed;
        let shares = shamir::split(secret, k, n, || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            Fe::new(s)
        });
        prop_assert_eq!(shamir::reconstruct(&shares[..k]), secret);
        prop_assert_eq!(shamir::reconstruct(&shares), secret);
    }

    #[test]
    fn abe_owner_always_decrypts(
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        nattrs in 1usize..6,
        entropy in any::<u64>(),
    ) {
        let (pk, msk) = AbeSystem::setup(99);
        let attrs: Vec<String> = (0..nattrs).map(|i| format!("a{i}")).collect();
        let refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
        let policy = AccessTree::all_of(&refs);
        let sk = AbeSystem::keygen(&msk, &attr_set(&refs));
        let ct = AbeSystem::encrypt(&pk, &payload, &policy, entropy);
        prop_assert_eq!(AbeSystem::decrypt(&ct, &sk).unwrap(), payload);
    }

    #[test]
    fn abe_missing_attribute_always_fails(nattrs in 2usize..6, drop in 0usize..6, entropy in any::<u64>()) {
        let drop = drop % nattrs;
        let (pk, msk) = AbeSystem::setup(99);
        let attrs: Vec<String> = (0..nattrs).map(|i| format!("a{i}")).collect();
        let refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
        let policy = AccessTree::all_of(&refs);
        let partial: Vec<&str> = refs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, s)| *s)
            .collect();
        let sk = AbeSystem::keygen(&msk, &attr_set(&partial));
        let ct = AbeSystem::encrypt(&pk, b"x", &policy, entropy);
        prop_assert!(AbeSystem::decrypt(&ct, &sk).is_err());
    }

    #[test]
    fn wire_roundtrip_arbitrary_states(
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        version in any::<u32>(),
        ttl in 0.0f64..1e6,
        entropy in any::<u64>(),
        tree_seed in any::<u64>(),
    ) {
        let home = HomeCrypto::setup(5);
        let policy = gen_tree(&mut { tree_seed }, 4);
        let st = home.encrypt_state(&payload, &policy, version, ttl, entropy);
        let bytes = wire::encode_state(&st);
        prop_assert_eq!(wire::decode_state(&bytes).unwrap(), st.clone());
        // The ciphertext carries the tree it was encrypted under.
        prop_assert_eq!(st.ciphertext.policy(), policy);
        // `encode_state_into` appends exactly those bytes.
        let mut buf = vec![0xEE; 3];
        wire::encode_state_into(&st, &mut buf);
        prop_assert_eq!(&buf[..3], &[0xEE; 3]);
        prop_assert_eq!(&buf[3..], bytes.as_slice());
    }

    #[test]
    fn decoded_replicas_never_panic_decrypt(
        data in proptest::collection::vec(any::<u8>(), 0..96),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        tree_seed in any::<u64>(),
        held in 0u8..64,
    ) {
        // Whatever `decode_state` accepts — arbitrary bytes, or a valid
        // replica with a few bytes overwritten — `decrypt` walks to an
        // answer under any key.
        let home = HomeCrypto::setup(5);
        let policy = gen_tree(&mut { tree_seed }, 4);
        let mut mutated = wire::encode_state(&home.encrypt_state(b"state", &policy, 1, 9.0, tree_seed));
        for (at, byte) in flips {
            let at = at % mutated.len();
            mutated[at] = byte;
        }
        let attrs: Vec<String> = (0..6).filter(|i| held >> i & 1 == 1).map(|i| format!("a{i}")).collect();
        let refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
        let creds = home.provision_ue(&attr_set(&refs));
        for bytes in [data, mutated] {
            if let Ok(st) = wire::decode_state(&bytes) {
                let _ = AbeSystem::decrypt(&st.ciphertext, &creds.sk);
                let _ = st.ciphertext.policy();
            }
        }
    }

    #[test]
    fn wire_rejects_random_bytes(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Random blobs must never decode into a valid state that a
        // satellite also accepts (they may occasionally parse
        // structurally; the policy, the MAC and the envelope signature
        // still gate them, so parse-failure here is the common case).
        // `now` = -inf: no TTL expires, every check after it runs.
        if let Ok(st) = wire::decode_state(&data) {
            let home = HomeCrypto::setup(5);
            let sat = home.provision_satellite(1, &attr_set(&["a0", "a1", "a2"]));
            let access = satellite_local_access(&sat, &home, &st, 2, 3, f64::NEG_INFINITY);
            prop_assert!(access.is_err());
        }
    }
}
