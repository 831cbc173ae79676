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

#[derive(Debug, Default, PartialEq)]
struct Args {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    update_baseline: bool,
    warn_only: bool,
    counts: bool,
    explain: bool,
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    /// `-h` / `--help`: print [`USAGE`] and exit 0.
    Help,
    /// Audit the workspace.
    Run(Args),
}

impl Command {
    /// Parse the arguments after the program name. Pure: printing and
    /// exiting are `main`'s.
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = argv.iter();
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
                "-h" | "--help" => return Ok(Self::Help),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Self::Run(args))
    }
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Command::parse(&argv) {
        Ok(Command::Run(a)) => a,
        Ok(Command::Help) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Command, String> {
        Command::parse(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_flags_paths_and_help() {
        assert_eq!(parse(&[]), Ok(Command::Run(Args::default())));
        assert_eq!(
            parse(&["--root", "r", "--warn-only", "--explain", "--baseline", "b.toml"]),
            Ok(Command::Run(Args {
                root: Some("r".into()),
                baseline: Some("b.toml".into()),
                warn_only: true,
                explain: true,
                ..Args::default()
            }))
        );
        assert_eq!(parse(&["--counts", "-h", "--bogus"]), Ok(Command::Help));
        assert!(parse(&["--root"]).is_err());
        assert!(parse(&["--bogus", "--help"]).is_err());
    }

    /// Every argv of up to four words over an alphabet of every flag,
    /// a path, an unknown flag and the empty word parses to a command
    /// or to a non-empty error — never a panic.
    #[test]
    fn parse_never_panics_on_short_argvs() {
        let alphabet = [
            "--root", "--baseline", "--update-baseline", "--warn-only", "--counts",
            "--explain", "-h", "--help", "path", "--bogus", "",
        ];
        let mut argv: Vec<String> = Vec::new();
        let mut seen = 0usize;
        fn walk(alphabet: &[&str], argv: &mut Vec<String>, seen: &mut usize) {
            *seen += 1;
            if let Err(e) = Command::parse(argv) {
                assert!(!e.is_empty(), "{argv:?}");
            }
            if argv.len() < 4 {
                for word in alphabet {
                    argv.push(word.to_string());
                    walk(alphabet, argv, seen);
                    argv.pop();
                }
            }
        }
        walk(&alphabet, &mut argv, &mut seen);
        assert_eq!(seen, 1 + 11 + 11 * 11 + 11 * 11 * 11 + 11 * 11 * 11 * 11);
    }
}
