//! Figure 18 — SpaceCore's latency micro-benchmarks.
//!
//! * **(a)** local state processing: ABE encryption/decryption wall time
//!   as a function of the number of attributes (2–10) — measured, not
//!   modeled: the real `sc-crypto` implementation is timed.
//! * **(b)** geospatial relaying: Beijing → New York delivery delay over
//!   ideal orbits vs. the J4 perturbation propagator, for all four
//!   constellations — Algorithm 1 must deliver under both, with similar
//!   delays (runtime-coordinate calibration).
#![expect(
    clippy::disallowed_methods,
    reason = "Fig. 18a is measured wall time; its results/ file is the one not held byte-exact"
)]

use sc_crypto::abe::AbeSystem;
use sc_crypto::field::KeyedHasher;
use sc_crypto::policy::{attr_set, AccessTree};
use sc_geo::sphere::GeoPoint;
use sc_orbit::{ConstellationConfig, IdealPropagator, J4Propagator};
use serde::Serialize;
use spacecore::relay::GeoRelay;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
pub struct Fig18 {
    pub abe: Vec<AbePoint>,
    pub relay: Vec<RelayPoint>,
}

/// One ABE timing point.
#[derive(Debug, Clone, Serialize)]
pub struct AbePoint {
    pub attributes: usize,
    pub encrypt_us: f64,
    pub decrypt_us: f64,
}

/// One relay measurement.
#[derive(Debug, Clone, Serialize)]
pub struct RelayPoint {
    pub constellation: String,
    pub propagator: String,
    pub t_s: f64,
    pub delivered: bool,
    pub delay_ms: f64,
    pub hops: usize,
}

/// Fig. 18a — time ABE with k attributes (AND policy of k leaves, key
/// holding exactly those attributes).
pub fn run_abe() -> Vec<AbePoint> {
    let (pk, msk) = AbeSystem::setup(0xBEEF);
    let payload = vec![0x42u8; 256];
    let mut out = Vec::new();
    for k in [2usize, 4, 6, 8, 10] {
        let attrs: Vec<String> = (0..k).map(|i| format!("attr-{i}")).collect();
        let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
        let policy = AccessTree::all_of(&attr_refs);
        let sk = AbeSystem::keygen(&msk, &attr_set(&attr_refs));

        let iters = 200;
        let t0 = Instant::now();
        for i in 0..iters {
            let _ = AbeSystem::encrypt(&pk, &payload, &policy, i as u64);
        }
        let encrypt_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;

        let ct = AbeSystem::encrypt(&pk, &payload, &policy, 1);
        let t1 = Instant::now();
        for _ in 0..iters {
            let _ = AbeSystem::decrypt(&ct, &sk).expect("authorized");
        }
        let decrypt_us = t1.elapsed().as_secs_f64() * 1e6 / iters as f64;

        out.push(AbePoint {
            attributes: k,
            encrypt_us,
            decrypt_us,
        });
    }
    out
}

/// Fig. 18b — Beijing→New York relaying, ideal vs. J4, four
/// constellations, several epochs.
pub fn run_relay() -> Vec<RelayPoint> {
    run_relay_obs(&sc_obs::Recorder::disabled())
}

/// [`run_relay`] with telemetry: every packet trace feeds the
/// `spacecore.relay.*` counters and hop/delay histograms. All recorded
/// quantities are simulation-derived, so the telemetry is deterministic
/// even though the figure's panel (a) is wall-clock.
pub fn run_relay_obs(obs: &sc_obs::Recorder) -> Vec<RelayPoint> {
    let beijing = GeoPoint::from_degrees(39.9042, 116.4074);
    let ny = GeoPoint::from_degrees(40.7128, -74.0060);
    let mut out = Vec::new();
    for cfg in ConstellationConfig::all_presets() {
        let relay = GeoRelay::for_shell(&cfg).with_recorder(obs.clone());
        let ideal = IdealPropagator::new(cfg.clone());
        let j4 = J4Propagator::new(cfg.clone());
        for t in [0.0, 900.0, 1800.0, 2700.0, 3600.0] {
            for (name, trace) in [
                (
                    "ideal",
                    relay.deliver_ground_to_ground(&ideal, &beijing, &ny, t, 1.0),
                ),
                (
                    "j4",
                    relay.deliver_ground_to_ground(&j4, &beijing, &ny, t, 1.0),
                ),
            ] {
                if let Some(tr) = trace {
                    out.push(RelayPoint {
                        constellation: cfg.name.to_string(),
                        propagator: name.to_string(),
                        t_s: t,
                        delivered: tr.delivered,
                        delay_ms: tr.delay_ms,
                        hops: tr.hops(),
                    });
                }
            }
        }
    }
    out
}

/// Run both panels.
pub fn run() -> Fig18 {
    Fig18 {
        abe: run_abe(),
        relay: run_relay(),
    }
}

/// [`run`] with telemetry. Panel (a)'s wall-clock timings stay **out**
/// of the recorder (sc-obs records simulation quantities only); instead
/// one counted encrypt/decrypt per attribute count feeds the
/// `crypto.abe.*` counters, and panel (b) counts every relay trace.
pub fn run_obs(obs: &sc_obs::Recorder) -> Fig18 {
    let abe = run_abe();
    if obs.enabled() {
        obs.inc("emu.fig18.abe_points", abe.len() as u64);
        record_abe_counts(obs);
    }
    Fig18 {
        abe,
        relay: run_relay_obs(obs),
    }
}

/// Count-only ABE telemetry: one encrypt + one authorized decrypt per
/// attribute count of panel (a), with fixed entropy (deterministic
/// ciphertext sizes).
fn record_abe_counts(obs: &sc_obs::Recorder) {
    let (pk, msk) = AbeSystem::setup(0xBEEF);
    let payload = vec![0x42u8; 256];
    for k in [2usize, 4, 6, 8, 10] {
        let attrs: Vec<String> = (0..k).map(|i| format!("attr-{i}")).collect();
        let attr_refs: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
        let policy = AccessTree::all_of(&attr_refs);
        let sk = AbeSystem::keygen(&msk, &attr_set(&attr_refs));
        let ct = AbeSystem::encrypt_obs(obs, &pk, &payload, &policy, k as u64);
        let _ = AbeSystem::decrypt_obs(obs, &ct, &sk, &mut KeyedHasher::new(0));
    }
}

/// Text rendering.
pub fn render(r: &Fig18) -> String {
    let mut out = String::from("Fig. 18a — ABE local state processing\n");
    let mut t = crate::report::TextTable::new(&["attributes", "encrypt (µs)", "decrypt (µs)"]);
    for p in &r.abe {
        t.row(vec![
            p.attributes.to_string(),
            crate::report::fmt_num(p.encrypt_us),
            crate::report::fmt_num(p.decrypt_us),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nFig. 18b — geospatial relay Beijing → New York\n");
    let mut t2 = crate::report::TextTable::new(&[
        "constellation",
        "propagator",
        "t (s)",
        "delivered",
        "delay (ms)",
        "hops",
    ]);
    for p in &r.relay {
        t2.row(vec![
            p.constellation.clone(),
            p.propagator.clone(),
            crate::report::fmt_num(p.t_s),
            p.delivered.to_string(),
            crate::report::fmt_num(p.delay_ms),
            p.hops.to_string(),
        ]);
    }
    out.push_str(&t2.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abe_cost_grows_with_attributes() {
        // Wall-clock microbenchmark: under a loaded test runner a single
        // sample can invert, so allow a few attempts before failing.
        let mut pts = run_abe();
        for _ in 0..4 {
            if pts[4].encrypt_us > pts[0].encrypt_us {
                break;
            }
            pts = run_abe();
        }
        assert_eq!(pts.len(), 5);
        let first = &pts[0];
        let last = &pts[4];
        assert!(last.encrypt_us > first.encrypt_us, "{pts:?}");
        // All timings positive and sane (< 100 ms each).
        for p in &pts {
            assert!(p.encrypt_us > 0.0 && p.encrypt_us < 100_000.0);
            assert!(p.decrypt_us > 0.0 && p.decrypt_us < 100_000.0);
        }
    }

    #[test]
    fn relay_always_delivers() {
        // Fig. 18b: "Under both ideal and realistic orbits, Algorithm 1
        // guarantees traffic delivery."
        for p in run_relay() {
            assert!(p.delivered, "{p:?}");
        }
    }

    #[test]
    fn ideal_and_j4_delays_similar() {
        // "The path delays are similar in both scenarios since
        // Algorithm 1 calibrates orbit perturbations."
        let pts = run_relay();
        for cfg in ["Starlink", "Kuiper", "OneWeb"] {
            for t in [0.0, 1800.0, 3600.0] {
                let ideal = pts
                    .iter()
                    .find(|p| p.constellation == cfg && p.propagator == "ideal" && p.t_s == t)
                    .unwrap();
                let j4 = pts
                    .iter()
                    .find(|p| p.constellation == cfg && p.propagator == "j4" && p.t_s == t)
                    .unwrap();
                assert!(
                    (ideal.delay_ms - j4.delay_ms).abs() < 150.0,
                    "{cfg} t={t}: ideal {} j4 {}",
                    ideal.delay_ms,
                    j4.delay_ms
                );
            }
        }
    }

    #[test]
    fn run_obs_counts_relay_and_abe_without_wall_clock() {
        let rec = sc_obs::Recorder::new();
        let r = run_obs(&rec);
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter("spacecore.relay.packets"),
            r.relay.len() as u64
        );
        assert_eq!(snap.counter("crypto.abe.encrypts"), 5);
        assert_eq!(snap.counter("crypto.abe.decrypts"), 5);
        assert_eq!(snap.counter("emu.fig18.abe_points"), 5);
        // No wall-clock metric may leak into the snapshot: everything
        // recorded is replayable, so two runs emit identical bytes.
        let rec2 = sc_obs::Recorder::new();
        run_obs(&rec2);
        assert_eq!(
            rec.snapshot().to_json("fig18"),
            rec2.snapshot().to_json("fig18")
        );
    }

    #[test]
    fn beijing_ny_delay_scale() {
        // ~11,000 km great-circle at near-light speed plus hops: total
        // delay should land in the tens-to-low-hundreds of ms.
        for p in run_relay() {
            assert!(p.delay_ms > 30.0 && p.delay_ms < 600.0, "{p:?}");
        }
    }

    #[test]
    fn iridium_occasionally_detours() {
        // §6.2: Iridium's coarse cells can cause detours (longer paths)
        // under J4; delivery still succeeds (checked above). Here we just
        // document that Iridium's hop counts are small (66 sats).
        let pts = run_relay();
        for p in pts.iter().filter(|p| p.constellation == "Iridium") {
            assert!(p.hops <= 20, "{p:?}");
        }
    }
}
