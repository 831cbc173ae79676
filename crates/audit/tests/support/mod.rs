//! The one compiler run behind the wall-clock and unseeded-RNG tests of
//! `fixtures.rs` and `selfcheck.rs`. sc-audit leaves both bans to the
//! compiler, so their fixtures are linted the way the lint step of
//! `scripts/audit.sh` lints the workspace — `cargo clippy -D warnings`
//! under the workspace `clippy.toml` — instead of being audited.

use std::fs;
use std::io;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// The verdict and diagnostics of linting one throwaway package whose
/// two binaries are built independently (`--keep-going`):
///
/// * `clock`: `outside.rs` reads the wall clock with no opt-out, and
///   `timer.rs` reads it under a reasoned
///   `#![expect(clippy::disallowed_methods, …)]`;
/// * `rng`: calls the unseeded constructors the vendored `rand` lacks.
pub struct Lint {
    pub ok: bool,
    pub stderr: String,
}

/// Lint the package once per test binary and share the result.
pub fn lint() -> Result<&'static Lint, String> {
    static LINT: OnceLock<Result<Lint, String>> = OnceLock::new();
    LINT.get_or_init(|| run().map_err(|e| e.to_string())).as_ref().map_err(Clone::clone)
}

fn run() -> io::Result<Lint> {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let dir = tmp.join("wall-clock-lint");
    let rand = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../vendor/rand").canonicalize()?;
    let timing = include_str!("../fixtures/timing_instant.rs");
    let files = [
        (
            "Cargo.toml",
            format!(
                "[package]\nname = \"wall-clock-lint\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
                 [workspace]\n\n[dependencies]\nrand = {{ path = {rand:?} }}\n\n\
                 [[bin]]\nname = \"clock\"\npath = \"clock.rs\"\n\n\
                 [[bin]]\nname = \"rng\"\npath = \"rng.rs\"\n"
            ),
        ),
        ("clippy.toml", include_str!("../../../../clippy.toml").to_string()),
        (
            "clock.rs",
            "mod outside;\nmod timer;\n\nfn main() {\n    outside::step_with_wallclock();\n    \
             timer::step_with_wallclock();\n}\n"
                .to_string(),
        ),
        ("outside.rs", timing.to_string()),
        (
            "timer.rs",
            format!("#![expect(clippy::disallowed_methods, reason = \"a timer\")]\n{timing}"),
        ),
        (
            "rng.rs",
            format!("{}\nfn main() {{\n    jitter();\n}}\n", include_str!("../fixtures/rng_thread.rs")),
        ),
    ];
    fs::create_dir_all(&dir)?;
    for (name, text) in &files {
        fs::write(dir.join(name), text)?;
    }
    let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["clippy", "-q", "--offline", "--keep-going", "--target-dir"])
        .arg(tmp.join("clippy-target"))
        .args(["--", "-D", "warnings"])
        .current_dir(&dir)
        .output()?;
    Ok(Lint {
        ok: out.status.success(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    })
}
