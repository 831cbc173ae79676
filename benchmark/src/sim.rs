//! The three simulator workloads: `soak`, `chaos-soak`, `chaos-sweep`.
//!
//! One repetition is one call of the experiment's public entry point
//! with 2 worker threads and telemetry off. Its operations (DES
//! events, recovery replays) run inside that call, so there is no
//! per-operation latency to sample.

use crate::gen::fnv1a;
use crate::trace::{Kind, Tracer, NO_PARENT};
use crate::workload::{timed, Measured, Plan, Rep, Workload, DEFAULT_SEED, THREADS};
use sc_emu::ext_chaos;
use sc_emu::ext_chaosload::{self, ChaosloadConfig};
use sc_emu::ext_mload::{self, MloadConfig};
use sc_obs::Recorder;
use std::time::Instant;

/// One engine run, reduced to what the checks need.
pub struct SimOut {
    /// `serde_json::to_string_pretty` of the result — the bytes the
    /// experiment binary writes to `results/`.
    pub json: String,
    pub ops: u64,
    /// Every arrival is accounted for: `arrivals == establishments +
    /// piggybacked_arrivals`, less — under chaos — the admissions still
    /// deferred in the paced lane when the run ends. Trivially true for
    /// the sweep, which has no churn.
    pub conserved: bool,
}

fn mload_config(plan: &Plan) -> MloadConfig {
    let base = if plan.quick {
        MloadConfig::smoke()
    } else {
        MloadConfig::full()
    };
    MloadConfig {
        seed: plan.seed,
        ..base
    }
}

fn pretty<T: serde::Serialize>(r: &T) -> String {
    serde_json::to_string_pretty(r).expect("the vendored emitter is infallible")
}

/// Calls the workload's entry point once.
pub fn run_once(w: Workload, threads: usize, obs: &Recorder, plan: &Plan) -> SimOut {
    match w {
        Workload::Soak => {
            let r = ext_mload::run_config_with(threads, obs, &mload_config(plan));
            SimOut {
                json: pretty(&r),
                ops: r.events_total,
                conserved: r.arrivals == r.establishments + r.piggybacked_arrivals,
            }
        }
        Workload::ChaosSoak => {
            let base = if plan.quick {
                ChaosloadConfig::smoke()
            } else {
                ChaosloadConfig::full()
            };
            let cfg = ChaosloadConfig {
                load: mload_config(plan),
                ..base
            };
            let r = ext_chaosload::run_config_with(threads, obs, &cfg);
            let pending = r
                .arrivals
                .checked_sub(r.establishments + r.piggybacked_arrivals);
            SimOut {
                json: pretty(&r),
                ops: r.events_total,
                conserved: pending
                    .is_some_and(|p| p <= r.reattaching_at_horizon + r.budget_exhausted),
            }
        }
        Workload::ChaosSweep => {
            let r = ext_chaos::run_with(threads, obs);
            SimOut {
                json: pretty(&r),
                ops: r.points.len() as u64 * ext_chaos::RUNS,
                conserved: true,
            }
        }
        Workload::Serve | Workload::ServeMixed => unreachable!("not a simulator workload"),
    }
}

fn span_kind(w: Workload) -> Kind {
    match w {
        Workload::Soak => Kind::Soak,
        Workload::ChaosSoak => Kind::ChaosSoak,
        _ => Kind::ChaosSweep,
    }
}

/// The checked-in result the default-seed output must equal byte for
/// byte. The sweep's seeds are compile-time constants, so its
/// reference applies at every `--seed`.
fn reference(w: Workload, plan: &Plan) -> Option<(&'static str, String)> {
    let file = match w {
        Workload::Soak if plan.seed == DEFAULT_SEED => "ext_mload.json",
        Workload::ChaosSoak if plan.seed == DEFAULT_SEED => "ext_chaosload.json",
        Workload::ChaosSweep => "ext_chaos.json",
        _ => return None,
    };
    if plan.quick && w != Workload::ChaosSweep {
        return None;
    }
    let path = format!("{}/../results/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reference result {path} must be readable: {e}"));
    Some((file, text))
}

pub fn measure(w: Workload, plan: &Plan) -> Measured {
    let off = Recorder::disabled();
    let mut notes = Vec::new();

    // Set-up: the expected output. The 1-thread run is the oracle every
    // 2-thread repetition must reproduce byte for byte.
    let mut setup_s = Vec::new();
    let mut oracle: Option<SimOut> = None;
    let mut sound = true;
    for _ in 0..plan.setups(3) {
        let (out, wall_s, _) = timed(|| run_once(w, 1, &off, plan));
        setup_s.push(wall_s);
        if let Some(prev) = &oracle {
            sound &= prev.json == out.json;
        }
        oracle = Some(out);
    }
    let oracle = oracle.expect("at least one set-up runs");
    if !sound {
        notes.push("FAIL: 1-thread runs of the same seed differ".to_string());
    }
    if !oracle.conserved {
        sound = false;
        notes.push(
            "FAIL: arrivals are not conserved (establishments + piggybacked_arrivals)".to_string(),
        );
    }
    match reference(w, plan) {
        Some((file, text)) if text == oracle.json => {
            notes.push(format!("output equals results/{file} byte for byte"));
        }
        Some((file, _)) => {
            sound = false;
            notes.push(format!("FAIL: output differs from results/{file}"));
        }
        None => notes.push("no checked-in reference for this seed or config".to_string()),
    }
    if w == Workload::ChaosSweep {
        notes.push(
            "the sweep's seeds are compile-time constants: --seed does not vary it".to_string(),
        );
    }

    let check = |out: &SimOut| -> u64 {
        if sound && out.json == oracle.json && out.conserved {
            0
        } else {
            out.ops
        }
    };

    let mut tracer = plan.traced.then(|| Tracer::new(Instant::now(), 1 << 16));
    let mut reps = Vec::new();
    let mut traced_reps = Vec::new();
    let mut warm = true;
    let mut started = Instant::now();
    while warm || plan.wants_more(started, reps.len()) {
        let (out, wall_s, cpu_s) = timed(|| run_once(w, THREADS, &off, plan));
        let rep = Rep {
            wall_s,
            cpu_s,
            ops: out.ops,
            failed: check(&out),
        };
        if warm {
            // Discarded: it fills caches and faults the heap in.
            warm = false;
            started = Instant::now();
            if rep.failed > 0 {
                notes.push("FAIL: warm-up repetition differs from the 1-thread oracle".to_string());
            }
            continue;
        }
        reps.push(rep);
        if let Some(tr) = tracer.as_mut() {
            let unit = reps.len() as u32;
            let (out, wall_s, cpu_s) = timed(|| {
                tr.span(span_kind(w), NO_PARENT, unit, || {
                    run_once(w, THREADS, &off, plan)
                })
            });
            traced_reps.push(Rep {
                wall_s,
                cpu_s,
                ops: out.ops,
                failed: check(&out),
            });
        }
    }

    Measured {
        setup_s,
        reps,
        traced_reps,
        lat_p50_us: Vec::new(),
        lat_p99_us: Vec::new(),
        lat_samples: 0,
        digest: fnv1a(oracle.json.as_bytes()),
        notes,
        tracer,
    }
}
