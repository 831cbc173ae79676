//! Extension experiment (beyond the paper's figures): message-level
//! procedure resilience over the real constellation.
//!
//! §3.3 argues qualitatively that "all procedures in Figure 9 are prone
//! to these failures since any signaling loss/error can block the entire
//! procedure". This experiment quantifies it with the discrete-event
//! simulator: the legacy home-routed session establishment (13 messages
//! crossing the ISL fabric to a gateway) versus SpaceCore's 4-message
//! local establishment, swept across per-transmission loss rates and
//! satellite decay fractions, measuring completion probability and
//! latency.

use sc_netsim::chaos::FailureTimeline;
use sc_netsim::failure::LossProcess;
use sc_netsim::isl::{IslConfig, IslNetwork};
use sc_netsim::sim::{ProcedureSim, SimConfig, SimScratch, SimStep};
use sc_orbit::{ConstellationConfig, GroundStationSet, IdealPropagator, SatId};
use serde::Serialize;

/// Loss rates swept.
pub const LOSS_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];
/// Satellite decay fractions swept.
pub const DECAY_FRACTIONS: [f64; 3] = [0.0, 0.025, 0.10];
/// Runs per configuration.
pub const RUNS: u64 = 60;

#[derive(Debug, Clone, Serialize)]
pub struct ExtResilience {
    pub points: Vec<ResiliencePoint>,
}

#[derive(Debug, Clone, Serialize)]
pub struct ResiliencePoint {
    pub procedure: String,
    pub loss_rate: f64,
    pub decay_fraction: f64,
    /// Fraction of runs that completed within the retry budget.
    pub completion_rate: f64,
    /// Mean latency over completed runs, ms; `None` (JSON `null`) when
    /// no run completed.
    pub mean_latency_ms: Option<f64>,
    /// Mean transmissions per run (retries included).
    pub mean_transmissions: f64,
}

/// Build the legacy C2 step list over the network: UE messages terminate
/// at the serving satellite; core messages cross to the nearest gateway.
fn legacy_steps(serving: usize, gateway: usize) -> Vec<SimStep> {
    let pairs: Vec<(&str, usize, usize)> = vec![
        ("rrc request", serving, serving),
        ("rrc setup", serving, serving),
        ("rrc complete", serving, serving),
        ("service request", serving, gateway),
        ("session context create", gateway, gateway),
        ("policy", gateway, gateway),
        ("policy response", gateway, gateway),
        ("forwarding rules", gateway, serving),
        ("forwarding ack", serving, gateway),
        ("session accept (amf)", gateway, gateway),
        ("session accept (ue)", gateway, serving),
        ("ctx update", gateway, gateway),
        ("ctx update ack", gateway, gateway),
    ];
    sc_netsim::sim::steps_from_pairs(&pairs)
}

/// SpaceCore's local establishment: everything on the serving satellite.
fn spacecore_steps(serving: usize) -> Vec<SimStep> {
    let pairs: Vec<(&str, usize, usize)> = vec![
        ("rrc request", serving, serving),
        ("rrc setup", serving, serving),
        ("rrc complete + replica", serving, serving),
        ("session accept", serving, serving),
    ];
    sc_netsim::sim::steps_from_pairs(&pairs)
}

/// Run the experiment.
pub fn run() -> ExtResilience {
    let cfg = ConstellationConfig::starlink();
    let prop = IdealPropagator::new(cfg.clone());
    let stations = GroundStationSet::starlink_like();
    let net = IslNetwork::build(&prop, &stations, 0.0, IslConfig::default());
    let serving = net.sat_node(SatId::new(10, 5));
    // Use gateway 0 (North America) as the home-facing gateway.
    let gateway = net.ground_node(0);

    // One scratch for the whole sweep: every run shares its buffers,
    // and each pair's failure-free search is made once. A run clears
    // the memo's routes of the view, so this is exact across cells.
    let mut scratch = SimScratch::new(net.graph());
    let mut points = Vec::new();
    for (name, steps) in [
        ("legacy C2 via home", legacy_steps(serving, gateway)),
        ("SpaceCore local", spacecore_steps(serving)),
    ] {
        for loss_rate in LOSS_RATES {
            for decay in DECAY_FRACTIONS {
                // Never fail the serving satellite itself (the UE would
                // simply camp elsewhere); fail the relay fabric.
                let failures = FailureTimeline::random_dead(net.num_sats(), decay, 0xFA11)
                    .without_node(serving);
                let sim = ProcedureSim::with_timeline(net.graph(), &failures, SimConfig::default());
                let mut completed = 0u64;
                let mut lat_sum = 0.0;
                let mut tx_sum = 0u64;
                for run in 0..RUNS {
                    let mut loss = LossProcess::new(loss_rate, 0xC0DE + run);
                    let o = sim.run_in(&steps, &mut loss, &mut scratch);
                    if o.completed {
                        completed += 1;
                        lat_sum += o.latency_ms;
                    }
                    tx_sum += o.transmissions as u64;
                }
                points.push(ResiliencePoint {
                    procedure: name.to_string(),
                    loss_rate,
                    decay_fraction: decay,
                    completion_rate: completed as f64 / RUNS as f64,
                    mean_latency_ms: if completed > 0 {
                        Some(lat_sum / completed as f64)
                    } else {
                        None
                    },
                    mean_transmissions: tx_sum as f64 / RUNS as f64,
                });
            }
        }
    }
    ExtResilience { points }
}

/// Text rendering.
pub fn render(r: &ExtResilience) -> String {
    let mut t = crate::report::TextTable::new(&[
        "procedure",
        "loss",
        "decay",
        "completion",
        "mean latency (ms)",
        "mean tx",
    ]);
    for p in &r.points {
        t.row(vec![
            p.procedure.clone(),
            format!("{:.0}%", p.loss_rate * 100.0),
            format!("{:.1}%", p.decay_fraction * 100.0),
            format!("{:.0}%", p.completion_rate * 100.0),
            match p.mean_latency_ms {
                Some(ms) => crate::report::fmt_num(ms),
                None => "-".into(),
            },
            crate::report::fmt_num(p.mean_transmissions),
        ]);
    }
    format!(
        "Extension — message-level procedure resilience (DES over Starlink)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The experiment is deterministic; run it once for all tests.
    fn cached() -> &'static ExtResilience {
        static CACHE: OnceLock<ExtResilience> = OnceLock::new();
        CACHE.get_or_init(run)
    }

    fn point<'a>(r: &'a ExtResilience, proc_: &str, loss: f64, decay: f64) -> &'a ResiliencePoint {
        r.points
            .iter()
            .find(|p| p.procedure.contains(proc_) && p.loss_rate == loss && p.decay_fraction == decay)
            .expect("point exists")
    }

    #[test]
    fn lossless_completes_always() {
        let r = cached();
        assert_eq!(point(r, "legacy", 0.0, 0.0).completion_rate, 1.0);
        assert_eq!(point(r, "SpaceCore", 0.0, 0.0).completion_rate, 1.0);
    }

    #[test]
    fn spacecore_faster_and_tougher() {
        let r = cached();
        for loss in LOSS_RATES {
            let sc = point(r, "SpaceCore", loss, 0.0);
            let legacy = point(r, "legacy", loss, 0.0);
            assert!(sc.completion_rate >= legacy.completion_rate, "loss {loss}");
            if let (Some(sc_ms), Some(legacy_ms)) = (sc.mean_latency_ms, legacy.mean_latency_ms) {
                assert!(sc_ms < legacy_ms, "loss {loss}");
            }
        }
    }

    #[test]
    fn loss_increases_retransmissions() {
        let r = cached();
        let clean = point(r, "legacy", 0.0, 0.0).mean_transmissions;
        let lossy = point(r, "legacy", 0.10, 0.0).mean_transmissions;
        assert!(lossy > clean, "{lossy} vs {clean}");
    }

    #[test]
    fn decay_does_not_break_local_path() {
        // SpaceCore's local establishment does not traverse the fabric:
        // relay decay cannot hurt it.
        let r = cached();
        for decay in DECAY_FRACTIONS {
            assert_eq!(point(r, "SpaceCore", 0.0, decay).completion_rate, 1.0);
        }
    }

    #[test]
    fn empty_mean_latency_serializes_as_null_never_nan() {
        // A fully-blocked cell must serialize `mean_latency_ms` as JSON
        // `null`, never the (invalid-JSON) bare `NaN` the old f64::NAN
        // sentinel produced.
        let r = ExtResilience {
            points: vec![ResiliencePoint {
                procedure: "blocked".into(),
                loss_rate: 1.0,
                decay_fraction: 0.0,
                completion_rate: 0.0,
                mean_latency_ms: None,
                mean_transmissions: 4.0,
            }],
        };
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"mean_latency_ms\":null"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
        // And the real run never emits NaN either.
        let json = serde_json::to_string(cached()).unwrap();
        assert!(!json.contains("NaN"), "real results must be valid JSON");
        // Rendering shows a dash for the empty cell.
        assert!(render(&r).contains('-'));
    }

    #[test]
    fn deterministic() {
        // `run()` is seeded throughout; spot-check one fresh re-run
        // against the cached result.
        let fresh = run();
        assert_eq!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(cached()).unwrap()
        );
    }
}
