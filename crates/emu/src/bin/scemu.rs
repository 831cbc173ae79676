//! The suite's one experiment binary: `scemu <experiment>` regenerates
//! one row of [`sc_emu::EXPERIMENTS`] — prints its table and writes
//! `results/<experiment>.json` (plus a telemetry sidecar when
//! `--obs-out` or `SC_OBS=1` is given — see docs/TELEMETRY.md);
//! `scemu list` prints the rows.

use sc_emu::obs::{run_cli, Command, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    match Command::parse(std::env::args().skip(1), std::env::var("SC_OBS").ok()) {
        Ok(Command::List) => print!("{}", sc_emu::list()),
        Ok(Command::Run { name, run, obs_out }) => {
            if let Err(e) = run_cli(name, run, obs_out.as_deref()) {
                eprintln!("scemu: {e}");
                return ExitCode::from(1);
            }
        }
        Err(why) => {
            eprint!("scemu: {why}\n{USAGE}\n{}", sc_emu::list());
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
