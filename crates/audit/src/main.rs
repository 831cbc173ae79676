//! CLI for the workspace auditor. See `--help` for usage; the library
//! half lives in `sc_audit` so tests can drive the same engine.

use sc_audit::baseline::Baseline;
use sc_audit::engine::audit_workspace;
use sc_audit::rules::Config;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
sc-audit — statelessness & determinism auditor for the SpaceCore workspace

USAGE:
    sc-audit [OPTIONS]

OPTIONS:
    --root <PATH>        Workspace root (default: nearest ancestor of the
                         current directory containing crates/)
    --baseline <PATH>    Ratchet file (default: <root>/audit.baseline.toml)
    --update-baseline    Rewrite the ratchet file from current R3 counts
    --warn-only          Print findings but always exit 0 (tier-1 mode)
    --counts             Also print the per-crate R3 counters
    --explain            Print the R4/R5 flow trace under each dataflow
                         finding
    -h, --help           This help

EXIT STATUS:
    0  clean (or --warn-only / baseline updated)
    1  rule violations or ratchet regressions
    2  usage or I/O error
";

struct Args {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    update_baseline: bool,
    warn_only: bool,
    counts: bool,
    explain: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        baseline: None,
        update_baseline: false,
        warn_only: false,
        counts: false,
        explain: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = Some(it.next().ok_or("--root needs a path")?.into()),
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline needs a path")?.into())
            }
            "--update-baseline" => args.update_baseline = true,
            "--warn-only" => args.warn_only = true,
            "--counts" => args.counts = true,
            "--explain" => args.explain = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Walk up from the current directory to the first ancestor containing
/// `crates/` (so the tool works from any workspace subdirectory).
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sc-audit: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = args.root.or_else(find_root) else {
        eprintln!("sc-audit: no crates/ directory found here or above (try --root)");
        return ExitCode::from(2);
    };
    let baseline_path = args
        .baseline
        .unwrap_or_else(|| root.join("audit.baseline.toml"));

    let baseline = if baseline_path.exists() {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sc-audit: reading {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        };
        match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("sc-audit: {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        Baseline::default()
    };

    let report = match audit_workspace(&root, &baseline, &Config::default()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sc-audit: {e}");
            return ExitCode::from(2);
        }
    };

    if args.update_baseline {
        let fresh = Baseline::from_counts(&report.counts);
        if let Err(e) = std::fs::write(&baseline_path, fresh.render()) {
            eprintln!("sc-audit: writing {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "sc-audit: wrote {} ({} crates)",
            baseline_path.display(),
            fresh.crates.len()
        );
    }

    if args.counts {
        for (krate, c) in &report.counts {
            println!(
                "crates/{krate}: unwrap={} expect={} panic={} unsafe={}",
                c.unwrap, c.expect, c.panic, c.r#unsafe
            );
        }
    }
    for f in &report.findings {
        println!("{f}");
    }
    for f in &report.allowed_orphans {
        eprintln!(
            "sc-audit: note: {}:{} R6-orphan suppressed by allow(orphan)",
            f.file, f.line
        );
    }
    for f in &report.flow {
        println!("{f}");
        if args.explain {
            for step in &f.trace {
                println!("    ↳ {}:{}:{} {}", step.file, step.line, step.col, step.note);
            }
        }
    }
    if !args.update_baseline {
        for r in &report.ratchet {
            println!("{r}");
        }
        for (krate, counter, cur, base) in &report.improvements {
            eprintln!(
                "sc-audit: note: crates/{krate} {counter} improved ({cur} < baseline {base}); \
                 run --update-baseline to lock it in"
            );
        }
    }

    // Every finding is fatal; only the R3 counters ratchet, and
    // --update-baseline moves their ceilings.
    let ratchet_fails = if args.update_baseline { 0 } else { report.ratchet.len() };
    let violations = report.findings.len() + report.flow.len() + ratchet_fails;
    eprintln!(
        "sc-audit: {} files scanned, {} finding(s), {} dataflow finding(s), {} ratchet regression(s)",
        report.files_scanned,
        report.findings.len(),
        report.flow.len(),
        ratchet_fails
    );
    if violations == 0 || args.warn_only {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
