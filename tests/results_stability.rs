//! Byte-stability of the checked-in `results/`, row by row of
//! `sc_emu::EXPERIMENTS`.
//!
//! `scemu <name>` writes `serde_json::to_string_pretty` of the row's
//! result struct to `results/<name>.json` and prints its rendered table
//! (`results/<name>.txt`); these tests regenerate each row in-process
//! and require the bytes to match the checked-in files exactly. The
//! worker-threaded experiments are additionally run at
//! `SC_EMU_THREADS` 1 and 4 (passed explicitly through `run_with`, so
//! the tests cannot race on the environment): the scheduler, arena,
//! and visibility-kernel hot paths must not shift a single output
//! byte under any thread count. `fig10` and `ext_chaos` run with
//! their recorders on, which pins `results/fig10.telemetry.json` and
//! `results/ext_chaos.telemetry.json` too.
//!
//! fig18 is excluded by design: it reports wall-clock timings
//! (EXPERIMENTS.md documents it as the one non-reproducible figure).
//! The two soaks (the rows with a `--smoke` variant) are left to release
//! builds: their full runs are pinned by `SC_OBS=1 scripts/tier1.sh` and
//! by scbench's output checks.

use sc_emu::EXPERIMENTS;
use std::collections::BTreeSet;
use std::error::Error;

fn checked_in(file: &str) -> Result<String, Box<dyn Error>> {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}").into())
}

/// Serialize exactly as `sc_emu::obs::run_cli` does and diff against
/// the checked-in `results/<name>.json` bytes.
fn assert_matches_checked_in<R: serde::Serialize>(
    name: &str,
    r: &R,
) -> Result<(), Box<dyn Error>> {
    let want = checked_in(&format!("results/{name}.json"))?;
    let got = serde_json::to_string_pretty(r)?;
    if got != want {
        return Err(format!(
            "results/{name}.json drifted: regenerated {} bytes != checked-in {} bytes",
            got.len(),
            want.len()
        )
        .into());
    }
    Ok(())
}

/// Serialize two runs of the same experiment and require identity.
fn assert_same_bytes<R: serde::Serialize>(
    name: &str,
    a: &R,
    b: &R,
) -> Result<(), Box<dyn Error>> {
    if serde_json::to_string_pretty(a)? != serde_json::to_string_pretty(b)? {
        return Err(format!("{name} output differs across thread counts").into());
    }
    Ok(())
}

#[test]
fn threaded_experiments_byte_stable_across_thread_counts() -> Result<(), Box<dyn Error>> {
    let (a, b) = (sc_emu::fig12::run_with(1), sc_emu::fig12::run_with(4));
    assert_same_bytes("fig12", &a, &b)?;
    assert_matches_checked_in("fig12", &a)?;

    let (a, b) = (sc_emu::fig20::run_with(1), sc_emu::fig20::run_with(4));
    assert_same_bytes("fig20", &a, &b)?;
    assert_matches_checked_in("fig20", &a)?;

    let (a, b) = (
        sc_emu::ext_scaling::run_with(1),
        sc_emu::ext_scaling::run_with(4),
    );
    assert_same_bytes("ext_scaling", &a, &b)?;
    assert_matches_checked_in("ext_scaling", &a)?;

    // Recorders on: telemetry must not move a result byte, and the
    // sidecars themselves are golden — the two `cargo test` can afford
    // to pin.
    let (obs_1, obs_4) = (sc_obs::Recorder::new(), sc_obs::Recorder::new());
    let (a, b) = (
        sc_emu::fig10::run_obs_with(1, &obs_1),
        sc_emu::fig10::run_obs_with(4, &obs_4),
    );
    assert_same_bytes("fig10", &a, &b)?;
    assert_matches_checked_in("fig10", &a)?;
    assert_sidecar_pinned("fig10", &obs_1, &obs_4)?;

    let (obs_1, obs_4) = (sc_obs::Recorder::new(), sc_obs::Recorder::new());
    let (a, b) = (
        sc_emu::ext_chaos::run_with(1, &obs_1),
        sc_emu::ext_chaos::run_with(4, &obs_4),
    );
    assert_same_bytes("ext_chaos", &a, &b)?;
    assert_matches_checked_in("ext_chaos", &a)?;
    assert_sidecar_pinned("ext_chaos", &obs_1, &obs_4)
}

/// The sidecars of a 1-worker and a 4-worker run must be the same
/// bytes, and those of the checked-in `results/<name>.telemetry.json`.
fn assert_sidecar_pinned(
    name: &str,
    obs_1: &sc_obs::Recorder,
    obs_4: &sc_obs::Recorder,
) -> Result<(), Box<dyn Error>> {
    let sidecar = obs_1.snapshot().to_json(name);
    if sidecar != obs_4.snapshot().to_json(name) {
        return Err(format!("{name} telemetry differs across thread counts").into());
    }
    if sidecar != checked_in(&format!("results/{name}.telemetry.json"))? {
        return Err(format!("results/{name}.telemetry.json drifted from what {name} records").into());
    }
    Ok(())
}

#[test]
fn single_threaded_experiments_match_checked_in_results() -> Result<(), Box<dyn Error>> {
    let obs = sc_obs::Recorder::disabled();
    for e in EXPERIMENTS {
        if e.name == "fig18" || e.smoke.is_some() {
            continue;
        }
        let out = (e.run)(&obs)?;
        for (ext, got) in [("json", out.json), ("txt", out.text + "\n")] {
            let file = format!("results/{}.{ext}", e.name);
            if got != checked_in(&file)? {
                return Err(format!("{file} drifted from what the {} row regenerates", e.name).into());
            }
        }
    }
    Ok(())
}

/// The table and `results/` name the same experiments, each once.
#[test]
fn every_row_has_a_result_file_and_every_result_file_a_row() -> Result<(), Box<dyn Error>> {
    let rows: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(rows.len(), EXPERIMENTS.len(), "experiment names are unique");
    let mut files = BTreeSet::new();
    for entry in std::fs::read_dir(format!("{}/results", env!("CARGO_MANIFEST_DIR")))? {
        let file = entry?.file_name().to_string_lossy().into_owned();
        match file.strip_suffix(".json") {
            Some(stem) if !stem.ends_with(".telemetry") => files.insert(stem.to_string()),
            _ => continue,
        };
    }
    assert_eq!(rows, files.iter().map(String::as_str).collect());
    Ok(())
}

/// EXPERIMENTS.md's "Reading the results" table is the one hand-kept
/// copy of the catalogue: its first column names exactly the rows.
#[test]
fn experiments_md_reads_the_same_rows() -> Result<(), Box<dyn Error>> {
    let doc = checked_in("EXPERIMENTS.md")?;
    let (_, section) = doc
        .split_once("## Reading the results")
        .ok_or("EXPERIMENTS.md lost its \"Reading the results\" section")?;
    let documented: BTreeSet<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split_once(".json` |"))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(documented, EXPERIMENTS.iter().map(|e| e.name).collect());
    Ok(())
}
