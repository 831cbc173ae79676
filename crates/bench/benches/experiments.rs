//! Times one full run (result, JSON and rendered table) of every row of
//! `sc_emu::EXPERIMENTS` that has no `--smoke` variant; the two soaks
//! that have one are timed by scbench's `soak` / `chaos-soak` workloads.
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let obs = sc_obs::Recorder::disabled();
    for e in sc_emu::EXPERIMENTS.iter().filter(|e| e.smoke.is_none()) {
        c.bench_function(&format!("{}::run", e.name), |b| {
            b.iter(|| std::hint::black_box((e.run)(&obs)))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
