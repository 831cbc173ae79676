//! Experiment harness: one module per table/figure of the paper's
//! evaluation, each with a `run()` entry point returning a serializable
//! result and a text renderer that prints the same rows/series the paper
//! reports.
//!
//! The catalogue is [`EXPERIMENTS`], one row per experiment, and the
//! crate's one binary runs any row of it:
//!
//! ```text
//! cargo run --release -p sc-emu --bin scemu -- list
//! cargo run --release -p sc-emu --bin scemu -- <name> [--smoke] [--obs-out <path>]
//! ```
//!
//! Every experiment is deterministic (seeded) and emits JSON via
//! `serde`; `tests/results_stability.rs` pins the rows' bytes against
//! `results/`.
//!
//! Sweeps fan independent cells out over the [`engine`] worker pool
//! (`SC_EMU_THREADS` overrides the worker count); results are ordered
//! deterministically, so the emitted JSON is bit-identical to a
//! single-threaded run. `scemu` reports wall-clock and thread count on
//! stderr via [`report::timed`].
//!
//! Every row can also emit a deterministic `sc-obs` telemetry sidecar
//! ([`obs::run_cli`], enabled by `--obs-out <path>` or `SC_OBS=1`):
//! sorted, byte-stable JSON spanning the netsim DES, the 5G signaling
//! paths, the crypto layer, and SpaceCore itself. Parallel sweeps record
//! through per-cell child recorders merged in input-slot order
//! ([`engine::parallel_map_obs_with`]), so the sidecar is byte-identical
//! across thread counts too. Schema and metric registry:
//! `docs/TELEMETRY.md`.

pub mod churn;
pub mod engine;
pub mod ext_anchor;
pub mod ext_chaos;
pub mod ext_chaosload;
pub mod ext_iot;
pub mod ext_mload;
pub mod ext_resilience;
pub mod ext_scaling;
pub mod fig05;
pub mod fig07;
pub mod fig08;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod obs;
pub mod report;
pub mod table3;
pub mod table4;

/// What one run of an experiment produced: the bytes of
/// `results/<name>.json`, and of `results/<name>.txt` less its final
/// newline.
#[derive(Debug)]
pub struct Output {
    pub json: String,
    pub text: String,
}

/// Runs one experiment, recording into the given recorder (a disabled
/// one unless a sidecar was asked for).
pub type RunFn = fn(&sc_obs::Recorder) -> Result<Output, serde_json::Error>;

/// One row of the catalogue.
#[derive(Debug)]
pub struct Experiment {
    /// The module, the `scemu` argument and the `results/` file stem.
    pub name: &'static str,
    /// What of the paper it reproduces, or what it adds.
    pub reproduces: &'static str,
    pub run: RunFn,
    /// The bounded variant `scemu <name> --smoke` runs, if there is one.
    pub smoke: Option<RunFn>,
}

fn output<R: serde::Serialize>(r: R, render: fn(&R) -> String) -> Result<Output, serde_json::Error> {
    Ok(Output {
        json: serde_json::to_string_pretty(&r)?,
        text: render(&r),
    })
}

/// One row from its module name. A plain module takes no recorder, so
/// its row counts the run (`emu.<name>.runs`) and nothing else; an `obs`
/// module threads the recorder itself through `run_obs` (and, with
/// `smoke`, `run_smoke_obs`).
macro_rules! experiment {
    ($m:ident, $reproduces:literal) => {
        experiment!(@row $m, $reproduces, None, |rec| {
            rec.inc(concat!("emu.", stringify!($m), ".runs"), 1);
            output($m::run(), $m::render)
        })
    };
    ($m:ident, $reproduces:literal, obs) => {
        experiment!(@row $m, $reproduces, None, |rec| output($m::run_obs(rec), $m::render))
    };
    ($m:ident, $reproduces:literal, obs, smoke) => {
        experiment!(
            @row $m,
            $reproduces,
            Some(|rec| output($m::run_smoke_obs(rec), $m::render)),
            |rec| output($m::run_obs(rec), $m::render)
        )
    };
    (@row $m:ident, $reproduces:literal, $smoke:expr, $run:expr) => {
        Experiment {
            name: stringify!($m),
            reproduces: $reproduces,
            run: $run,
            smoke: $smoke,
        }
    };
}

/// Every experiment of the suite: the paper's figures and tables in
/// paper order, then the extensions. `scemu` (which times each run)
/// and the byte-stability tests both walk this table, so a new row is
/// runnable, timed and pinned by being here.
pub static EXPERIMENTS: &[Experiment] = &[
    experiment!(fig05, "Fig. 5b — registration latency through GEO transparent pipes", obs),
    experiment!(fig07, "Fig. 7 — satellite CPU breakdown by core function"),
    experiment!(fig08, "Fig. 8 — signaling latency vs. load on satellite hardware"),
    experiment!(fig10, "Fig. 10 — signaling storms: 4 options × 4 constellations", obs),
    experiment!(fig12, "Fig. 12 — temporal dynamics of one satellite over an orbit"),
    experiment!(fig13, "Fig. 13 — failure-process inputs: satellite decay + frame-error bursts"),
    experiment!(table3, "Table 3 — geospatial cell sizes per constellation"),
    experiment!(fig17, "Fig. 17 — prototype latency/CPU: 5 solutions × 3 procedures"),
    experiment!(fig18, "Fig. 18 — ABE micro-bench (wall-clock) + geospatial relay ideal vs. J4", obs),
    experiment!(fig19, "Fig. 19 — state leakage under hijack / man-in-the-middle"),
    experiment!(fig20, "Fig. 20 — signaling overhead: 5 solutions × 4 constellations"),
    experiment!(table4, "Table 4 — SpaceCore's signaling reduction factors"),
    experiment!(fig21, "Fig. 21 — user-level ping/TCP stalling in satellite mobility"),
    experiment!(ext_resilience, "§3.3 — procedure completion under loss and satellite decay (message-level DES)"),
    experiment!(ext_anchor, "Fig. 5a — anchor-gateway bottleneck: tromboning stretch + load concentration"),
    experiment!(ext_scaling, "§7 — signaling reduction vs. constellation size (66 → 7,200 satellites)"),
    experiment!(ext_iot, "§2.2 — traffic-mix sensitivity up to massive IoT"),
    experiment!(ext_chaos, "§3.3 / Fig. 13 — session survival under serving-satellite crashes (chaos timelines)", obs),
    experiment!(ext_mload, "million-UE sustained-load soak", obs, smoke),
    experiment!(ext_chaosload, "the million-UE soak under a crash storm: paced reattach, admission control, recovery SLOs", obs, smoke),
];

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// What `scemu list` prints: `name — reproduces`, one line per row.
pub fn list() -> String {
    EXPERIMENTS
        .iter()
        .map(|e| format!("{} — {}\n", e.name, e.reproduces))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_has_one_line_per_row() {
        let listing = list();
        let lines: Vec<&str> = listing.lines().collect();
        assert_eq!(lines.len(), EXPERIMENTS.len());
        for (line, e) in lines.iter().zip(EXPERIMENTS) {
            assert_eq!(*line, format!("{} — {}", e.name, e.reproduces));
            assert!(!e.reproduces.is_empty() && !e.reproduces.contains('\n'), "{}", e.name);
            // The first row of that name is this one: names are unique.
            assert!(find(e.name).is_some_and(|found| std::ptr::eq(found, e)), "{}", e.name);
        }
    }
}
