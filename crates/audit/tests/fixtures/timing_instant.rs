//! Fixture: wall-clock read in a file that does not opt out.
//! Linted by clippy under the workspace `clippy.toml` — must trip
//! `disallowed_methods`.

pub fn step_with_wallclock() -> std::time::Instant {
    std::time::Instant::now()
}
