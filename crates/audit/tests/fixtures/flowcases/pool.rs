//! Fixture: locks around the message-arena pool. Placed at
//! `crates/spacecore/src/pool.rs` in a corpus of its own. The pool
//! itself and a growable of bare handles are exempt; handles paired
//! with a per-UE key are retained per-UE state, and handles paired
//! with plain scratch are an ad-hoc locked buffer.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use sc_fiveg::arena::{BufId, MessageArena};
use sc_fiveg::ids::Supi;

pub struct Pooled {
    pub arena: Mutex<MessageArena>,
    pub free: Mutex<Vec<BufId>>,
    pub queued: parking_lot::Mutex<VecDeque<sc_fiveg::arena::BufId>>,
    pub held_by: Mutex<Vec<(BufId, Supi)>>,
    pub owner_of: Mutex<HashMap<Supi, BufId>>,
    pub scratch: Mutex<Vec<(BufId, Vec<u8>)>>,
}
