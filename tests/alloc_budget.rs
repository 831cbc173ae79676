//! Allocation budget of the executed path, counted by a counting
//! `#[global_allocator]` (hence its own test binary).
//!
//! "One contiguous replica" is a property of counts, not of timings: a
//! warm local establishment allocates the replica's one copy, the share
//! stack and the decrypted payload — nothing per policy node, per share
//! or per NAS IE. The home-side budgets bound `encrypt`'s per-gate
//! `shamir::split` vectors and the key's attribute strings.
#![allow(unsafe_code)]

use sc_geo::GeoPoint;
use sc_orbit::SatId;
use spacecore::home::HomeConfig;
use spacecore::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocations, bytes)` requested by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTS.with(|c| {
            let (n, bytes) = c.get();
            c.set((n + 1, bytes + layout.size() as u64));
        });
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(allocations, bytes)` made by `f` on this thread. `realloc` and
/// `alloc_zeroed` keep their defaults, which go through `alloc`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (n0, b0) = COUNTS.with(Cell::get);
    let out = f();
    let (n1, b1) = COUNTS.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}

#[test]
fn executed_path_stays_within_its_allocation_budget() {
    let home = HomeNetwork::new(HomeConfig::default());
    let at = GeoPoint::from_degrees(39.9, 116.4);
    // Four registrations take the home's per-UE maps past a growth step.
    let mut ues: Vec<UeDevice> = (1..=4).map(|msin| home.register_ue(msin, &at)).collect();
    let sats = [
        SpaceCoreSatellite::provision(&home, SatId::new(3, 7)),
        SpaceCoreSatellite::provision(&home, SatId::new(4, 7)),
    ];
    let ue = &mut ues[0];
    // One warm-up per satellite: the arena buffer and the session map.
    for sat in &sats {
        assert!(sat.establish_session(&home, ue, 1.0).local);
        assert!(sat.release(ue.supi));
    }

    let (o, n, bytes) = counted(|| sats[0].establish_session(&home, ue, 2.0));
    assert!(o.local);
    assert!(
        n <= 3 && bytes <= 512,
        "establish_session: {n} allocations, {bytes} B"
    );

    let (o, n, bytes) = counted(|| {
        let o = sats[1].handover_in(&home, ue, 3.0);
        assert!(sats[0].release(ue.supi));
        assert!(sats[1].release(ue.supi));
        o
    });
    assert!(o.is_ok_and(|o| o.local));
    assert!(
        n <= 3 && bytes <= 512,
        "handover_in + release: {n} allocations, {bytes} B"
    );

    let ((_, replica), n, _) = counted(|| home.refresh_state(ue, 4.0));
    assert_eq!(replica.version, 2);
    assert!(n <= 16, "refresh_state: {n} allocations");

    let (fifth, n, _) = counted(|| home.register_ue(5, &at));
    assert!(fifth.supports_spacecore);
    assert!(n <= 25, "register_ue: {n} allocations");
}
