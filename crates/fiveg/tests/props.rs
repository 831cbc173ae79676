//! Property-based tests for the 5G core substrate.

use proptest::prelude::*;
use sc_fiveg::gtp::GtpUHeader;
use sc_fiveg::ids::{PlmnId, SessionId, Supi, TunnelId};
use sc_fiveg::nas::{IeTag, NasMessage, NasMessageType, NasView, NasWriter};
use sc_fiveg::smf::Smf;
use sc_fiveg::state::SessionState;

/// A registration request carrying `values` under rotating tags.
fn nas_message(values: &[Vec<u8>]) -> NasMessage {
    let tags = [IeTag::MobileIdentity, IeTag::AuthParam, IeTag::PduAddress,
                IeTag::QosRules, IeTag::StateReplica];
    let mut m = NasMessage::new(NasMessageType::RegistrationRequest);
    for (i, v) in values.iter().enumerate() {
        m = m.with_ie(tags[i % tags.len()], v.clone());
    }
    m
}

proptest! {
    #[test]
    fn session_state_codec_total(msin in any::<u64>()) {
        let s = SessionState::sample(msin % (1 << 40));
        prop_assert_eq!(SessionState::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn session_state_codec_rejects_mutations(msin in 0u64..1_000_000, flip in any::<usize>()) {
        // Flipping the version byte or truncating always fails; flipping
        // payload bytes must never panic (may still decode to a
        // *different* state, which the home signature layer catches).
        let b = SessionState::sample(msin).encode();
        let mut m = b.clone();
        let i = flip % m.len();
        m[i] ^= 0xFF;
        let _ = SessionState::decode(&m); // no panic
        prop_assert!(SessionState::decode(&b[..b.len() - 1]).is_none());
    }

    #[test]
    fn plmn_supi_roundtrip(mcc in 0u16..1000, mnc in 0u16..1000, msin in 0u64..(1 << 40)) {
        let plmn = PlmnId::new(mcc, mnc);
        prop_assert_eq!(PlmnId::unpack(plmn.pack()), plmn);
        let supi = Supi::new(plmn, msin);
        prop_assert_eq!(supi.plmn(), plmn);
        prop_assert_eq!(supi.msin(), msin);
    }

    #[test]
    fn gtp_fef_roundtrip(teid in any::<u32>(), fef in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let h = GtpUHeader::gpdu(TunnelId(teid), 0).with_fef(fef.clone());
        let (d, n) = GtpUHeader::decode(&h.encode()).unwrap();
        prop_assert_eq!(n, h.header_len());
        prop_assert_eq!(d.fef.unwrap(), fef);
    }

    #[test]
    fn gtp_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = GtpUHeader::decode(&data);
    }

    #[test]
    fn nas_roundtrip(values in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 0..5)) {
        let m = nas_message(&values);
        prop_assert_eq!(NasMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn nas_writer_matches_owned_encode(
        values in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 0..5),
        stale in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let m = nas_message(&values);
        let mut b = stale;
        let mut w = NasWriter::new(&mut b, m.msg_type);
        for (tag, value) in &m.ies {
            // Values may arrive in pieces: the length is patched in after.
            let (head, tail) = value.split_at(value.len() / 2);
            w.ie(*tag, |b| {
                b.extend_from_slice(head);
                b.extend_from_slice(tail);
            });
        }
        prop_assert_eq!(b, m.encode());
    }

    #[test]
    fn nas_view_agrees_with_owned_decode(
        data in proptest::collection::vec(any::<u8>(), 0..128),
        values in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..5),
        flip in (any::<usize>(), any::<u8>()),
        cut in any::<usize>(),
    ) {
        // Arbitrary bytes, and a valid encoding with one byte overwritten
        // and a tail cut off: the view and the owned message accept and
        // reject the same inputs for the same reason, and see the same IEs.
        let mut mutated = nas_message(&values).encode();
        let at = flip.0 % mutated.len();
        mutated[at] = flip.1;
        mutated.truncate(mutated.len().saturating_sub(cut % 4));
        for bytes in [data, mutated] {
            let view = NasView::parse(&bytes);
            let owned = NasMessage::decode(&bytes);
            prop_assert_eq!(view.as_ref().err(), owned.as_ref().err());
            if let (Ok(view), Ok(owned)) = (view, owned) {
                prop_assert_eq!(view.msg_type, owned.msg_type);
                let seen: Vec<_> = view.ies().map(|(t, v)| (t, v.to_vec())).collect();
                prop_assert_eq!(&seen, &owned.ies);
                for (tag, _) in &owned.ies {
                    prop_assert_eq!(view.ie(*tag), owned.ie(*tag));
                }
                // Strict: what parsed re-encodes to the same bytes.
                prop_assert_eq!(owned.encode(), bytes);
            }
        }
    }

    #[test]
    fn nas_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = NasMessage::decode(&data);
    }

    #[test]
    fn smf_ips_unique(n in 1usize..40) {
        let mut smf = Smf::new(vec![1, 2, 3], 0xFD77);
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            let s = smf
                .establish(Supi::new(PlmnId::new(460, 1), i as u64), SessionId(1), 0)
                .unwrap();
            prop_assert!(seen.insert(s.ip));
        }
    }
}
