//! Criterion micro-bench for the DES scheduler hot path: the
//! calendar-queue [`EventQueue`] against the retained binary-heap
//! [`ReferenceQueue`] on a schedule/pop hold pattern.
//! scbench's `netsim.des_event_ns` layer times the calendar queue alone.
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sc_netsim::des::{reference::ReferenceQueue, EventQueue};

const PENDING: u32 = 10_000;
const CHURN: u64 = 50_000;

/// Steady-state hold: `PENDING` events in flight, each pop reschedules
/// one event further out, `CHURN` pops total.
fn hold_calendar() -> u64 {
    let mut q = EventQueue::new();
    for v in 0..PENDING {
        q.schedule(f64::from(v % 512) * 0.7, v);
    }
    let mut n = 0;
    while n < CHURN {
        let Some(e) = q.pop() else { break };
        q.schedule(e.time + 0.3 + f64::from(e.event % 97) * 0.11, e.event);
        n += 1;
    }
    n
}

fn hold_heap() -> u64 {
    let mut q = ReferenceQueue::new();
    for v in 0..PENDING {
        q.schedule(f64::from(v % 512) * 0.7, v);
    }
    let mut n = 0;
    while n < CHURN {
        let Some(e) = q.pop() else { break };
        q.schedule(e.time + 0.3 + f64::from(e.event % 97) * 0.11, e.event);
        n += 1;
    }
    n
}

fn bench(c: &mut Criterion) {
    c.bench_function("des_queue::hold/calendar", |b| {
        b.iter(|| black_box(hold_calendar()))
    });
    c.bench_function("des_queue::hold/heap", |b| b.iter(|| black_box(hold_heap())));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
