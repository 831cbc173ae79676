//! Golden bytes of the executed path, pinned at the commit *before* the
//! field arithmetic under it was rewritten (PR 18) and unmodified since.
//!
//! scbench's `sim_digest` covers outcome classes and message counts; it
//! would not notice a ciphertext, MAC, home signature, DH public value
//! or session key that changed while still verifying. This does: every
//! byte the home hands a UE and every value an establishment derives is
//! folded into an FNV-1a digest and compared with a constant.

use sc_crypto::field::keyed_hash;
use sc_crypto::statecrypt::{satellite_local_access, ue_complete_exchange};
use sc_crypto::wire::encode_state;
use sc_geo::GeoPoint;
use sc_orbit::SatId;
use spacecore::home::HomeConfig;
use spacecore::prelude::*;

const MSINS: [u64; 3] = [1, 4_242, 1_000_000_007];
const SATS: [SatId; 2] = [
    SatId { plane: 3, slot: 7 },
    SatId {
        plane: 40,
        slot: 11,
    },
];

/// FNV-1a 64, the textbook function (not `keyed_hash`, which is part of
/// what is being pinned).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn fleet() -> (HomeNetwork, Vec<UeDevice>) {
    let home = HomeNetwork::new(HomeConfig::default());
    let ues = MSINS
        .iter()
        .enumerate()
        .map(|(i, &msin)| {
            let at = GeoPoint::from_degrees(39.9 - 25.0 * i as f64, 116.4 - 70.0 * i as f64);
            home.register_ue(msin, &at)
        })
        .collect();
    (home, ues)
}

/// Ciphertext, MAC, shares, policy and home signature: the replica as
/// it rides in the NAS `StateReplica` IE, at registration and after a
/// home-side refresh at t = 100 s (version 2, different entropy, and
/// fresh until `100 + state_ttl_s`).
#[test]
fn replica_wire_bytes_are_pinned() {
    let (home, mut ues) = fleet();
    let mut h = Fnv::new();
    for ue in &mut ues {
        let wire = encode_state(ue.piggyback());
        h.u64(wire.len() as u64);
        h.bytes(&wire);
        let (session, replica) = home.refresh_state(ue, 100.0);
        ue.install_update(session, replica)
            .expect("version 2 is newer");
        h.bytes(&encode_state(ue.piggyback()));
    }
    assert_eq!(
        h.0, 0x737a_184d_f9b2_bd74,
        "replica bytes moved: digest {:#018x}",
        h.0
    );
}

/// `X`, `Y`, the transcript signature, both sides' `K` and the
/// decrypted payload of Algorithm 2, plus the session keys
/// `establish_session` / `handover_in` install, at fixed `now` values.
#[test]
fn exchange_values_are_pinned() {
    let (home, mut ues) = fleet();
    let sats: Vec<SpaceCoreSatellite> = SATS
        .iter()
        .map(|id| SpaceCoreSatellite::provision(&home, *id))
        .collect();
    let mut h = Fnv::new();
    for ue in &mut ues {
        for (round, now) in [1.0, 10.5, 3_599.0].into_iter().enumerate() {
            let (a, b) = (round % 2, (round + 1) % 2);
            let o = sats[a].establish_session(&home, ue, now);
            assert!(o.local);
            h.u64(o.session_key.expect("local path negotiates a key"));
            let ho = sats[b]
                .handover_in(&home, ue, now + 0.25)
                .expect("handover is local");
            h.u64(ho.session_key.expect("local path negotiates a key"));
            assert!(sats[a].release(ue.supi));
            assert!(sats[b].release(ue.supi));

            // The same exchange through the crypto crate's public
            // functions, where X, Y and the signature are visible.
            let creds = home.provision_satellite(SATS[a]);
            let ue_sts = ue.begin_key_exchange(home.dh_params());
            let x = ue_sts.public_value();
            let eph = keyed_hash(
                (SATS[a].plane as u64) << 32 | SATS[a].slot as u64,
                &now.to_bits().to_le_bytes(),
            );
            let out = satellite_local_access(&creds, home.crypto(), ue.piggyback(), x, eph, now)
                .expect("authorized satellite, fresh replica");
            let k_ue = ue_complete_exchange(
                home.cert_verify_key(),
                &ue_sts,
                &creds.cert,
                creds.cert.subject,
                out.y_public,
                out.transcript_sig,
            )
            .expect("certificate and transcript verify");
            assert_eq!(k_ue, out.session_key);
            for v in [x, out.y_public, out.transcript_sig, out.session_key, k_ue] {
                h.u64(v);
            }
            h.bytes(&out.state);
        }
    }
    assert_eq!(
        h.0, 0xa5c5_c034_11d7_6c9a,
        "exchange values moved: digest {:#018x}",
        h.0
    );
}
