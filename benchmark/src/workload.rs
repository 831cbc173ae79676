//! What every workload hands back to `main`, and the timing helpers
//! they share.

use crate::procfs;
use crate::trace::Tracer;
use std::time::Instant;

/// The seed used when `--seed` is not given: `MloadConfig::full().seed`,
/// the one the checked-in `results/*.json` were produced with.
pub const DEFAULT_SEED: u64 = 0x5C_10AD;

/// Load-generator threads: simulator workers, or closed-loop clients.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Soak,
    ChaosSoak,
    ChaosSweep,
    Serve,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Soak,
        Workload::ChaosSoak,
        Workload::ChaosSweep,
        Workload::Serve,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Soak => "soak",
            Workload::ChaosSoak => "chaos-soak",
            Workload::ChaosSweep => "chaos-sweep",
            Workload::Serve => "serve",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run of a workload is sized.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Length of the timed region, s. Repetitions have a fixed size;
    /// the budget decides how many run.
    pub seconds: f64,
    /// Smoke inputs and a single repetition.
    pub quick: bool,
    pub traced: bool,
}

impl Plan {
    /// Timed repetitions never drop below this, whatever the budget.
    fn min_reps(&self) -> usize {
        match (self.quick, self.traced) {
            (true, _) => 1,
            // A traced run splits its budget between both kinds of
            // repetition; it reports a ratio, not end-to-end metrics.
            (false, true) => 3,
            (false, false) => 5,
        }
    }

    /// Whether another repetition should run, `done` having finished
    /// since `started`.
    pub fn wants_more(&self, started: Instant, done: usize) -> bool {
        done < self.min_reps() || (!self.quick && started.elapsed().as_secs_f64() < self.seconds)
    }

    /// How many times set-up is repeated for the `setup_s` median
    /// (once where `setup_s` is not reported).
    pub fn setups(&self, full: usize) -> usize {
        if self.quick || self.traced {
            1
        } else {
            full
        }
    }
}

/// One timed repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ops: u64,
    pub failed: u64,
}

/// Runs `f` and returns its result with the wall and CPU seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = procfs::cpu_s();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (r, wall_s, procfs::cpu_s() - cpu0)
}

/// Everything one run of a workload measured.
#[derive(Debug)]
pub struct Measured {
    /// One sample per repeated set-up, s.
    pub setup_s: Vec<f64>,
    /// Untraced timed repetitions (warm-up excluded).
    pub reps: Vec<Rep>,
    /// Traced repetitions, interleaved with `reps`; empty when untraced.
    pub traced_reps: Vec<Rep>,
    /// Per untraced repetition, the median and the 99th percentile of
    /// its operations' latencies, µs. Empty on the simulator workloads,
    /// whose operations run inside one call.
    pub lat_p50_us: Vec<f64>,
    pub lat_p99_us: Vec<f64>,
    /// Latency samples behind those percentiles, all repetitions.
    pub lat_samples: u64,
    /// FNV-1a digest of the outputs, for exact comparison across commits.
    pub digest: u64,
    /// Lines for the human reader.
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}
