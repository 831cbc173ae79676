//! NAS message codec: binary encoding of the signaling messages the
//! procedures exchange.
//!
//! The step tables in [`crate::messages`] treat messages abstractly;
//! this module gives the subset the SpaceCore proxy actually touches a
//! concrete wire format (TS 24.501-flavoured: extended protocol
//! discriminator, message type, TLV information elements), so the
//! piggybacking path (§5: state replicas inside the RRC setup complete /
//! PDU session request) can be tested byte-for-byte.

/// NAS message types we encode (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NasMessageType {
    RegistrationRequest,
    RegistrationAccept,
    AuthenticationRequest,
    AuthenticationResponse,
    SecurityModeCommand,
    SecurityModeComplete,
    PduSessionEstablishmentRequest,
    PduSessionEstablishmentAccept,
    ServiceRequest,
}

impl NasMessageType {
    fn to_byte(self) -> u8 {
        match self {
            NasMessageType::RegistrationRequest => 0x41,
            NasMessageType::RegistrationAccept => 0x42,
            NasMessageType::AuthenticationRequest => 0x56,
            NasMessageType::AuthenticationResponse => 0x57,
            NasMessageType::SecurityModeCommand => 0x5D,
            NasMessageType::SecurityModeComplete => 0x5E,
            NasMessageType::PduSessionEstablishmentRequest => 0xC1,
            NasMessageType::PduSessionEstablishmentAccept => 0xC2,
            NasMessageType::ServiceRequest => 0x4C,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0x41 => NasMessageType::RegistrationRequest,
            0x42 => NasMessageType::RegistrationAccept,
            0x56 => NasMessageType::AuthenticationRequest,
            0x57 => NasMessageType::AuthenticationResponse,
            0x5D => NasMessageType::SecurityModeCommand,
            0x5E => NasMessageType::SecurityModeComplete,
            0xC1 => NasMessageType::PduSessionEstablishmentRequest,
            0xC2 => NasMessageType::PduSessionEstablishmentAccept,
            0x4C => NasMessageType::ServiceRequest,
            _ => return None,
        })
    }
}

/// Information-element tags (TLV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IeTag {
    /// Concealed or temporary identity.
    MobileIdentity,
    /// RAND/AUTN or RES.
    AuthParam,
    /// Requested/assigned PDU address.
    PduAddress,
    /// QoS rules.
    QosRules,
    /// SpaceCore's piggybacked encrypted state replica (vendor IE).
    StateReplica,
    /// SpaceCore's DH public value X (vendor IE).
    DhPublic,
}

impl IeTag {
    fn to_byte(self) -> u8 {
        match self {
            IeTag::MobileIdentity => 0x77,
            IeTag::AuthParam => 0x21,
            IeTag::PduAddress => 0x29,
            IeTag::QosRules => 0x7A,
            IeTag::StateReplica => 0xE0,
            IeTag::DhPublic => 0xE1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0x77 => IeTag::MobileIdentity,
            0x21 => IeTag::AuthParam,
            0x29 => IeTag::PduAddress,
            0x7A => IeTag::QosRules,
            0xE0 => IeTag::StateReplica,
            0xE1 => IeTag::DhPublic,
            _ => return None,
        })
    }
}

/// A NAS message: type + TLV information elements, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NasMessage {
    pub msg_type: NasMessageType,
    pub ies: Vec<(IeTag, Vec<u8>)>,
}

/// Decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NasDecodeError {
    Truncated,
    BadDiscriminator,
    BadMessageType,
    UnknownIe(u8),
}

impl std::fmt::Display for NasDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NasDecodeError::Truncated => f.write_str("truncated message"),
            NasDecodeError::BadDiscriminator => f.write_str("not a 5GMM message"),
            NasDecodeError::BadMessageType => f.write_str("unknown message type"),
            NasDecodeError::UnknownIe(tag) => write!(f, "unknown IE tag {tag:#04x}"),
        }
    }
}

impl std::error::Error for NasDecodeError {}

const EPD_5GMM: u8 = 0x7E; // extended protocol discriminator, 5G MM

impl NasMessage {
    pub fn new(msg_type: NasMessageType) -> Self {
        Self {
            msg_type,
            ies: Vec::new(),
        }
    }

    /// Append an information element.
    pub fn with_ie(mut self, tag: IeTag, value: Vec<u8>) -> Self {
        assert!(value.len() <= u16::MAX as usize, "IE too large");
        self.ies.push((tag, value));
        self
    }

    /// First IE with the given tag.
    pub fn ie(&self, tag: IeTag) -> Option<&[u8]> {
        self.ies
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, v)| v.as_slice())
    }

    /// Wire size in bytes.
    pub fn wire_len(&self) -> usize {
        2 + self.ies.iter().map(|(_, v)| 3 + v.len()).sum::<usize>()
    }

    /// Encode: `EPD(1) type(1) [tag(1) len(2BE) value…]*`.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut b);
        b
    }

    /// Encode into a caller-supplied buffer (cleared first) — the
    /// allocation-free variant behind [`crate::arena::MessageArena`].
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        let mut w = NasWriter::new(b, self.msg_type);
        for (tag, value) in &self.ies {
            w.ie(*tag, |b| b.extend_from_slice(value));
        }
    }

    /// Decode with strict validation ([`NasView::parse`]) into an owned
    /// message.
    pub fn decode(b: &[u8]) -> Result<Self, NasDecodeError> {
        let view = NasView::parse(b)?;
        Ok(Self {
            msg_type: view.msg_type,
            ies: view.ies().map(|(tag, v)| (tag, v.to_vec())).collect(),
        })
    }
}

/// A received NAS message read where it lies: IE values borrow from the
/// PDU's bytes. [`NasView::parse`] is the one strict validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NasView<'a> {
    pub msg_type: NasMessageType,
    /// The validated TLVs after the two header bytes.
    tlvs: &'a [u8],
}

impl<'a> NasView<'a> {
    /// Validate the header and every TLV of `b`.
    pub fn parse(b: &'a [u8]) -> Result<Self, NasDecodeError> {
        let [epd, msg_type, tlvs @ ..] = b else {
            return Err(NasDecodeError::Truncated);
        };
        if *epd != EPD_5GMM {
            return Err(NasDecodeError::BadDiscriminator);
        }
        let msg_type =
            NasMessageType::from_byte(*msg_type).ok_or(NasDecodeError::BadMessageType)?;
        Tlvs(tlvs).try_for_each(|ie| ie.map(drop))?;
        Ok(Self { msg_type, tlvs })
    }

    /// The information elements, in order.
    pub fn ies(&self) -> impl Iterator<Item = (IeTag, &'a [u8])> {
        Tlvs(self.tlvs).map_while(Result::ok)
    }

    /// First IE with the given tag.
    pub fn ie(&self, tag: IeTag) -> Option<&'a [u8]> {
        self.ies().find(|(t, _)| *t == tag).map(|(_, v)| v)
    }
}

/// The one TLV reader: yields each `tag(1) len(2BE) value`, or the
/// reason the bytes stop being TLVs.
struct Tlvs<'a>(&'a [u8]);

impl<'a> Iterator for Tlvs<'a> {
    type Item = Result<(IeTag, &'a [u8]), NasDecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let b = self.0;
        if b.is_empty() {
            return None;
        }
        // An error ends the walk.
        self.0 = &[];
        let &[tag, hi, lo, ref rest @ ..] = b else {
            return Some(Err(NasDecodeError::Truncated));
        };
        let Some(tag) = IeTag::from_byte(tag) else {
            return Some(Err(NasDecodeError::UnknownIe(tag)));
        };
        let Some((value, rest)) = rest.split_at_checked(u16::from_be_bytes([hi, lo]) as usize)
        else {
            return Some(Err(NasDecodeError::Truncated));
        };
        self.0 = rest;
        Some(Ok((tag, value)))
    }
}

/// Writes a NAS message into a caller's buffer: the header, then each
/// IE's value produced in place with its length patched in afterwards.
#[derive(Debug)]
pub struct NasWriter<'a> {
    b: &'a mut Vec<u8>,
}

impl<'a> NasWriter<'a> {
    /// Clear `b` and start a message of `msg_type` in it.
    pub fn new(b: &'a mut Vec<u8>, msg_type: NasMessageType) -> Self {
        b.clear();
        b.extend_from_slice(&[EPD_5GMM, msg_type.to_byte()]);
        Self { b }
    }

    /// Append an information element whose value is whatever `value`
    /// appends to the buffer.
    ///
    /// # Panics
    /// Panics if the value outgrows the 16-bit length field.
    pub fn ie(&mut self, tag: IeTag, value: impl FnOnce(&mut Vec<u8>)) {
        self.b.extend_from_slice(&[tag.to_byte(), 0, 0]);
        let start = self.b.len();
        value(self.b);
        let len = self.b.len() - start;
        assert!(len <= u16::MAX as usize, "IE too large");
        self.b[start - 2..start].copy_from_slice(&(len as u16).to_be_bytes());
    }
}

/// Build the SpaceCore-piggybacked PDU session request (§5: "the proxy
/// leverages 5G's standard UE-initiated PDU session setup request to
/// piggyback local states to the satellites").
pub fn piggybacked_session_request(
    replica_bytes: Vec<u8>,
    dh_public: u64,
) -> NasMessage {
    NasMessage::new(NasMessageType::PduSessionEstablishmentRequest)
        .with_ie(IeTag::StateReplica, replica_bytes)
        .with_ie(IeTag::DhPublic, dh_public.to_be_bytes().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_ies() {
        let m = NasMessage::new(NasMessageType::RegistrationRequest)
            .with_ie(IeTag::MobileIdentity, vec![1, 2, 3, 4])
            .with_ie(IeTag::AuthParam, vec![9; 16]);
        let b = m.encode();
        assert_eq!(b.len(), m.wire_len());
        assert_eq!(NasMessage::decode(&b).unwrap(), m);
    }

    #[test]
    fn empty_message_roundtrip() {
        let m = NasMessage::new(NasMessageType::ServiceRequest);
        assert_eq!(NasMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn all_message_types_roundtrip() {
        for t in [
            NasMessageType::RegistrationRequest,
            NasMessageType::RegistrationAccept,
            NasMessageType::AuthenticationRequest,
            NasMessageType::AuthenticationResponse,
            NasMessageType::SecurityModeCommand,
            NasMessageType::SecurityModeComplete,
            NasMessageType::PduSessionEstablishmentRequest,
            NasMessageType::PduSessionEstablishmentAccept,
            NasMessageType::ServiceRequest,
        ] {
            let m = NasMessage::new(t);
            assert_eq!(NasMessage::decode(&m.encode()).unwrap().msg_type, t);
        }
    }

    #[test]
    fn truncation_and_garbage_rejected() {
        let m = NasMessage::new(NasMessageType::RegistrationAccept)
            .with_ie(IeTag::PduAddress, vec![0; 16]);
        let b = m.encode();
        for cut in [0, 1, 3, 4, b.len() - 1] {
            assert!(NasMessage::decode(&b[..cut]).is_err(), "cut {cut}");
        }
        let mut bad_epd = b.clone();
        bad_epd[0] = 0x2E;
        assert_eq!(
            NasMessage::decode(&bad_epd).unwrap_err(),
            NasDecodeError::BadDiscriminator
        );
        let mut bad_type = b.clone();
        bad_type[1] = 0xFF;
        assert_eq!(
            NasMessage::decode(&bad_type).unwrap_err(),
            NasDecodeError::BadMessageType
        );
        let mut bad_ie = b;
        bad_ie[2] = 0x01;
        assert_eq!(
            NasMessage::decode(&bad_ie).unwrap_err(),
            NasDecodeError::UnknownIe(0x01)
        );
    }

    #[test]
    fn piggybacked_request_carries_replica_and_x() {
        let replica = vec![0xAB; 200];
        let m = piggybacked_session_request(replica.clone(), 0x1122_3344_5566_7788);
        let b = m.encode();
        let d = NasMessage::decode(&b).unwrap();
        assert_eq!(d.ie(IeTag::StateReplica).unwrap(), replica.as_slice());
        assert_eq!(
            d.ie(IeTag::DhPublic).unwrap(),
            0x1122_3344_5566_7788u64.to_be_bytes()
        );
        // The piggyback rides one message: the replica adds bytes but no
        // extra round trips.
        assert!(m.wire_len() > 200);
    }

    #[test]
    fn ie_lookup_returns_first_match() {
        let m = NasMessage::new(NasMessageType::RegistrationAccept)
            .with_ie(IeTag::QosRules, vec![1])
            .with_ie(IeTag::QosRules, vec![2]);
        assert_eq!(m.ie(IeTag::QosRules).unwrap(), &[1]);
        assert!(m.ie(IeTag::AuthParam).is_none());
    }
}
