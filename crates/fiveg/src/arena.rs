//! A reusable buffer arena for NAS message building.
//!
//! Encoding a signaling message with [`NasMessage::encode`] allocates a
//! fresh `Vec<u8>` per call. On the hot paths that rebuild the same
//! handful of messages for every procedure run — the satellite proxy
//! re-encoding the piggybacked PDU session request for each
//! establishment, sweep engines replaying Figure 9 exchanges millions
//! of times — that per-message allocation dominates the codec cost.
//!
//! [`MessageArena`] amortizes it: the arena owns a pool of byte
//! buffers, [`MessageArena::encode_nas`] writes into the next free
//! buffer (via [`NasMessage::encode_into`]) and hands back a [`BufId`]
//! ticket, [`MessageArena::write_nas`] lets a caller with no owned
//! `NasMessage` write the IEs there directly (the satellite proxy's
//! path: the replica is encoded into the buffer it is then parsed
//! from), and [`MessageArena::reset`] — called once per procedure run
//! — returns every buffer to the pool without freeing its capacity.
//! After the first run through a procedure the arena allocates nothing.
//!
//! The encoded bytes are identical to the allocating `encode()` path
//! (pinned by tests here and exercised byte-for-byte by the satellite
//! proxy's encode→decode round-trip), so swapping the arena in changes
//! no experiment output.

use crate::nas::{NasMessage, NasMessageType, NasWriter};

/// Ticket for a buffer checked out of a [`MessageArena`]. Valid until
/// the next [`MessageArena::reset`]; redeem with
/// [`MessageArena::bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufId(usize);

/// Pool of reusable encode buffers, reset once per procedure run.
#[derive(Debug, Default)]
pub struct MessageArena {
    /// Every buffer ever allocated; `bufs[..in_use]` are checked out.
    bufs: Vec<Vec<u8>>,
    in_use: usize,
    /// Most buffers simultaneously checked out across all runs.
    high_water: usize,
}

impl MessageArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a cleared buffer (reusing pooled capacity if any).
    pub fn acquire(&mut self) -> BufId {
        if self.in_use == self.bufs.len() {
            self.bufs.push(Vec::new());
        }
        let id = BufId(self.in_use);
        self.bufs[id.0].clear();
        self.in_use += 1;
        self.high_water = self.high_water.max(self.in_use);
        id
    }

    /// Encode `m` into a pooled buffer; same bytes as
    /// [`NasMessage::encode`] without the allocation.
    pub fn encode_nas(&mut self, m: &NasMessage) -> BufId {
        let id = self.acquire();
        m.encode_into(&mut self.bufs[id.0]);
        id
    }

    /// Build a message of `msg_type` in a pooled buffer: `ies` writes its
    /// information elements where they will be read, with no owned
    /// [`NasMessage`] in between.
    pub fn write_nas(
        &mut self,
        msg_type: NasMessageType,
        ies: impl FnOnce(&mut NasWriter),
    ) -> BufId {
        let id = self.acquire();
        ies(&mut NasWriter::new(&mut self.bufs[id.0], msg_type));
        id
    }

    /// The bytes behind a ticket from this run.
    pub fn bytes(&self, id: BufId) -> &[u8] {
        assert!(id.0 < self.in_use, "BufId from before the last reset");
        &self.bufs[id.0]
    }

    /// Mutable access to a checked-out buffer (for callers that build
    /// bytes by hand rather than through a codec).
    pub fn bytes_mut(&mut self, id: BufId) -> &mut Vec<u8> {
        assert!(id.0 < self.in_use, "BufId from before the last reset");
        &mut self.bufs[id.0]
    }

    /// End of a procedure run: every buffer returns to the pool,
    /// capacity intact. Outstanding [`BufId`]s are invalidated.
    pub fn reset(&mut self) {
        self.in_use = 0;
    }

    /// Buffers currently checked out.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Total buffers the arena has ever allocated. Flat across repeated
    /// identical runs — that is the pooling guarantee.
    pub fn allocated(&self) -> usize {
        self.bufs.len()
    }

    /// Most buffers simultaneously checked out across all runs.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nas::{IeTag, NasMessageType};

    fn nas_sample() -> NasMessage {
        NasMessage::new(NasMessageType::PduSessionEstablishmentRequest)
            .with_ie(IeTag::StateReplica, vec![0xAB; 180])
            .with_ie(IeTag::DhPublic, 7u64.to_be_bytes().to_vec())
    }

    fn accept_sample() -> NasMessage {
        NasMessage::new(NasMessageType::PduSessionEstablishmentAccept)
            .with_ie(IeTag::DhPublic, 9u64.to_be_bytes().to_vec())
    }

    #[test]
    fn arena_bytes_match_allocating_encode() {
        let mut a = MessageArena::new();
        let nas = nas_sample();
        let accept = accept_sample();
        let n = a.encode_nas(&nas);
        let g = a.encode_nas(&accept);
        assert_eq!(a.bytes(n), nas.encode().as_slice());
        assert_eq!(a.bytes(g), accept.encode().as_slice());
        // Two live tickets coexist without clobbering each other.
        assert_eq!(a.in_use(), 2);
    }

    #[test]
    fn written_bytes_match_owned_encode() {
        let mut a = MessageArena::new();
        let nas = nas_sample();
        let id = a.write_nas(nas.msg_type, |w| {
            for (tag, value) in &nas.ies {
                w.ie(*tag, |b| b.extend_from_slice(value));
            }
        });
        assert_eq!(a.bytes(id), nas.encode().as_slice());
    }

    #[test]
    fn repeated_runs_allocate_nothing_new() {
        let mut a = MessageArena::new();
        let nas = nas_sample();
        let accept = accept_sample();
        for _ in 0..100 {
            a.reset();
            let n = a.encode_nas(&nas);
            let g = a.encode_nas(&accept);
            assert_eq!(a.bytes(n).len(), nas.wire_len());
            assert_eq!(a.bytes(g).len(), accept.wire_len());
        }
        assert_eq!(a.allocated(), 2, "pool is flat after warm-up");
        assert_eq!(a.high_water(), 2);
    }

    #[test]
    fn reset_returns_buffers_and_reuses_capacity() {
        let mut a = MessageArena::new();
        let id = a.encode_nas(&nas_sample());
        let cap_ptr = a.bytes(id).as_ptr();
        a.reset();
        assert_eq!(a.in_use(), 0);
        let id2 = a.encode_nas(&nas_sample());
        assert_eq!(a.bytes(id2).as_ptr(), cap_ptr, "same backing buffer");
    }

    #[test]
    #[should_panic(expected = "before the last reset")]
    fn stale_ticket_panics() {
        let mut a = MessageArena::new();
        let id = a.encode_nas(&nas_sample());
        a.reset();
        let _ = a.bytes(id);
    }

    #[test]
    fn bytes_mut_supports_hand_built_messages() {
        let mut a = MessageArena::new();
        let id = a.acquire();
        a.bytes_mut(id).extend_from_slice(b"raw");
        assert_eq!(a.bytes(id), b"raw");
    }
}
