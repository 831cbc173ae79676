//! The experiment front door (`scemu`) and its telemetry sidecar.
//!
//! [`Command::parse`] reads the command line once, [`run_cli`] runs the
//! row it names. Telemetry is **off by default** — the run gets a
//! disabled [`sc_obs::Recorder`] and no sidecar is written, so the
//! regenerated `results/*.json` stay byte-identical to untelemetered
//! runs. It turns on in two ways:
//!
//! * `--obs-out <path>` (or `--obs-out=<path>`) on the command line
//!   names the sidecar file explicitly;
//! * the `SC_OBS` environment variable set to any non-empty value other
//!   than `"0"` selects the default sidecar path
//!   `results/<experiment>.telemetry.json` (the `SC_OBS=1` mode of
//!   `scripts/tier1.sh`).
//!
//! The sidecar schema is documented in `docs/TELEMETRY.md`. Emission is
//! byte-stable: same seed ⇒ same bytes, independent of `SC_EMU_THREADS`
//! (see [`crate::engine::parallel_map_obs_with`]).

use crate::RunFn;
use sc_obs::Recorder;
use std::path::{Path, PathBuf};

/// One line of usage; `scemu` prints it, then [`crate::list`], on a
/// command line it does not understand.
pub const USAGE: &str =
    "usage: scemu list | scemu <experiment> [--smoke] [--obs-out <path> | --obs-out=<path>]";

/// What one `scemu` command line asks for.
#[derive(Debug)]
pub enum Command {
    /// `scemu list`: print the catalogue.
    List,
    Run {
        /// The row's name in [`crate::EXPERIMENTS`].
        name: &'static str,
        /// The row's full run, or with `--smoke` its bounded variant.
        run: RunFn,
        /// Where the telemetry sidecar goes; `None` = telemetry off.
        obs_out: Option<PathBuf>,
    },
}

impl Command {
    /// Parse the process arguments (binary name already stripped) and
    /// the `SC_OBS` environment value, if any. Anything not understood —
    /// an unknown experiment or flag, `--smoke` on a row without a smoke
    /// variant, `--obs-out` without a path — is an error, never ignored:
    /// a mistyped flag must not silently run something else.
    pub fn parse(
        mut args: impl Iterator<Item = String>,
        sc_obs: Option<String>,
    ) -> Result<Self, String> {
        let name = args.next().ok_or("no experiment named")?;
        if name == "list" {
            return match args.next() {
                None => Ok(Self::List),
                Some(extra) => Err(format!("`list` takes no argument, got {extra:?}")),
            };
        }
        let experiment =
            crate::find(&name).ok_or_else(|| format!("unknown experiment {name:?}"))?;
        let mut smoke = false;
        let mut obs_out = None;
        while let Some(a) = args.next() {
            if a == "--smoke" {
                smoke = true;
            } else if a == "--obs-out" {
                obs_out = Some(args.next().ok_or("--obs-out needs a path")?);
            } else if let Some(p) = a.strip_prefix("--obs-out=") {
                obs_out = Some(p.to_string());
            } else {
                return Err(format!("unknown argument {a:?}"));
            }
        }
        if obs_out.as_deref() == Some("") {
            return Err("--obs-out needs a path".into());
        }
        let run = if smoke {
            experiment
                .smoke
                .ok_or_else(|| format!("{name} has no --smoke variant"))?
        } else {
            experiment.run
        };
        let obs_out = obs_out.map(PathBuf::from).or_else(|| {
            sc_obs
                .is_some_and(|v| !v.is_empty() && v != "0")
                .then(|| PathBuf::from(format!("results/{name}.telemetry.json")))
        });
        Ok(Self::Run {
            name: experiment.name,
            run,
            obs_out,
        })
    }
}

/// Why [`run_cli`] could not leave its files behind: what it was doing
/// (naming the path) and the error that stopped it.
#[derive(Debug)]
pub struct CliError {
    what: String,
    source: Box<dyn std::error::Error + Send + Sync>,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot {}: {}", self.what, self.source)
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.source.as_ref())
    }
}

fn cannot<E>(what: String) -> impl FnOnce(E) -> CliError
where
    E: std::error::Error + Send + Sync + 'static,
{
    |source| CliError {
        what,
        source: Box::new(source),
    }
}

/// Write `contents` to `path`, creating its directory first.
fn write_file(path: &Path, contents: &str) -> Result<(), CliError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(cannot(format!("create {}", dir.display())))?;
    }
    std::fs::write(path, contents).map_err(cannot(format!("write {}", path.display())))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// One experiment run, end to end: time `run` (the `[timing]` line on
/// stderr), print the rendered table, write `results/<name>.json` under
/// the current directory and, when `obs_out` names one, the telemetry
/// sidecar. `run` receives a disabled recorder unless a sidecar was
/// asked for, so the result bytes do not depend on telemetry.
pub fn run_cli(name: &'static str, run: RunFn, obs_out: Option<&Path>) -> Result<(), CliError> {
    let rec = if obs_out.is_some() {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let (out, timing) = crate::report::timed(name, || run(&rec));
    timing.eprint();
    let out = out.map_err(cannot(format!("serialize the {name} result")))?;
    println!("{}", out.text);
    write_file(Path::new(&format!("results/{name}.json")), &out.json)?;
    if let Some(path) = obs_out {
        write_file(path, &rec.snapshot().to_json(name))?;
    }
    Ok(())
}

/// Map a Figure 9 procedure onto the 3-node replay topology the
/// telemetry miniatures use — UE = node 0, satellite radio = node 1,
/// ground segment = node 2 — keeping only the messages that actually
/// cross nodes (core-internal legs collapse onto the ground node).
pub fn replay_steps(p: &sc_fiveg::messages::Procedure) -> Vec<sc_netsim::sim::SimStep> {
    fn node(e: sc_fiveg::messages::Entity) -> usize {
        use sc_fiveg::messages::Entity;
        match e {
            Entity::Ue => 0,
            Entity::Ran | Entity::RanTarget => 1,
            _ => 2,
        }
    }
    p.steps
        .iter()
        .filter(|s| node(s.from) != node(s.to))
        .map(|s| sc_netsim::sim::SimStep {
            label: s.label,
            from: node(s.from),
            to: node(s.to),
        })
        .collect()
}

/// Map a procedure onto the 2-node *satellite-local* replay topology —
/// UE = node 0, everything else (radio and core, co-located on the
/// serving satellite) = node 1. The stateless contrast to
/// [`replay_steps`]: no leg ever touches the ground segment, so the
/// only hop spans a traced replay emits are UE↔satellite.
pub fn replay_steps_local(p: &sc_fiveg::messages::Procedure) -> Vec<sc_netsim::sim::SimStep> {
    fn node(e: sc_fiveg::messages::Entity) -> usize {
        match e {
            sc_fiveg::messages::Entity::Ue => 0,
            _ => 1,
        }
    }
    p.steps
        .iter()
        .filter(|s| node(s.from) != node(s.to))
        .map(|s| sc_netsim::sim::SimStep {
            label: s.label,
            from: node(s.from),
            to: node(s.to),
        })
        .collect()
}

/// Replay `steps` of `proc` through `sim` under one causal root span:
/// opens the procedure's `fiveg.proc.*` span (tagged with the `route`
/// it takes — e.g. `"ground"` vs `"local"` vs `"geo-pipe"`), threads it
/// as the parent of the `netsim.sim.procedure` span
/// ([`sc_netsim::sim::ProcedureSim::run_traced`]), and closes it at the
/// outcome latency. With telemetry disabled this is exactly
/// `sim.run(steps, loss)`.
pub fn replay_traced(
    obs: &Recorder,
    sim: &sc_netsim::sim::ProcedureSim,
    proc: &sc_fiveg::messages::Procedure,
    steps: &[sc_netsim::sim::SimStep],
    route: &'static str,
    loss: &mut sc_netsim::failure::LossProcess,
) -> sc_netsim::sim::SimOutcome {
    let root = proc.open_span(obs, 0.0, vec![("route", sc_obs::FieldValue::from(route))]);
    let outcome = sim.run_traced(steps, loss, Some(root));
    obs.span_close(root, outcome.latency_ms);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(args: &[&str], sc_obs: Option<&str>) -> Result<Command, String> {
        Command::parse(args.iter().map(|s| s.to_string()), sc_obs.map(String::from))
    }

    /// The sidecar path of a command line that must parse to a run.
    fn obs_out(args: &[&str], sc_obs: Option<&str>) -> Result<Option<PathBuf>, String> {
        match parse(args, sc_obs)? {
            Command::Run { obs_out, .. } => Ok(obs_out),
            Command::List => Err("parsed as `list`".into()),
        }
    }

    #[test]
    fn telemetry_is_off_unless_asked_for() -> Result<(), String> {
        for sc_obs in [None, Some(""), Some("0")] {
            assert_eq!(obs_out(&["fig05"], sc_obs)?, None, "SC_OBS={sc_obs:?}");
        }
        Ok(())
    }

    #[test]
    fn sc_obs_selects_the_default_sidecar_and_the_flag_overrides_it() -> Result<(), String> {
        let default = PathBuf::from("results/fig05.telemetry.json");
        assert_eq!(obs_out(&["fig05"], Some("1"))?, Some(default));
        let named = Some(PathBuf::from("/tmp/t.json"));
        assert_eq!(obs_out(&["fig05", "--obs-out", "/tmp/t.json"], None)?, named);
        assert_eq!(obs_out(&["fig05", "--obs-out=/tmp/t.json"], None)?, named);
        assert_eq!(obs_out(&["fig05", "--obs-out=/tmp/t.json"], Some("1"))?, named);
        Ok(())
    }

    #[test]
    fn smoke_selects_the_rows_bounded_variant() -> Result<(), String> {
        let row = crate::find("ext_mload").ok_or("no ext_mload row")?;
        let smoke = row.smoke.ok_or("ext_mload has no smoke variant")?;
        for (args, want) in [
            (&["ext_mload"][..], row.run),
            (&["ext_mload", "--obs-out=x.json", "--smoke"][..], smoke),
        ] {
            match parse(args, None)? {
                Command::Run { name, run, .. } => {
                    assert_eq!(name, "ext_mload");
                    assert!(std::ptr::fn_addr_eq(run, want), "{args:?}");
                }
                Command::List => return Err("parsed as `list`".into()),
            }
        }
        Ok(())
    }

    #[test]
    fn list_is_a_command_of_its_own() {
        assert!(matches!(parse(&["list"], Some("1")), Ok(Command::List)));
        assert!(parse(&["list", "fig05"], None).is_err());
    }

    #[test]
    fn what_is_not_understood_is_rejected() {
        for (args, why) in [
            (&[][..], "no experiment named"),
            (&["fig99"][..], "unknown experiment \"fig99\""),
            (&["--smoke"][..], "unknown experiment \"--smoke\""),
            (&["fig05", "--smoke"][..], "fig05 has no --smoke variant"),
            (&["fig05", "--obs_out", "x"][..], "unknown argument \"--obs_out\""),
            (&["fig05", "fig07"][..], "unknown argument \"fig07\""),
            (&["fig05", "--obs-out"][..], "--obs-out needs a path"),
            (&["fig05", "--obs-out="][..], "--obs-out needs a path"),
        ] {
            assert_eq!(parse(args, None).err().as_deref(), Some(why), "{args:?}");
        }
    }

    /// Words a `scemu` command line is made of — real and near-miss
    /// experiment names, every flag, flag-looking paths, the empty
    /// string — or arbitrary characters.
    fn arg_word() -> impl Strategy<Value = String> {
        const WORDS: [&str; 12] = [
            "list", "fig05", "ext_mload", "ext_chaosload", "fig99", "--smoke", "--obs-out",
            "--obs-out=", "--obs-out=x.json", "--obs-out=--smoke", "", "-",
        ];
        (0usize..16, proptest::collection::vec(any::<u32>(), 0..12)).prop_map(|(k, cs)| {
            match WORDS.get(k) {
                Some(w) => (*w).to_string(),
                None => cs.into_iter().filter_map(char::from_u32).collect(),
            }
        })
    }

    proptest! {
        /// Panic budget: any argv and `SC_OBS` value parse to `Ok` or
        /// `Err`; an `Ok` run names a row of the catalogue and, with
        /// telemetry on, a non-empty sidecar path.
        #[test]
        fn command_parse_never_panics(
            argv in proptest::collection::vec(arg_word(), 0..6),
            sc_obs in (0usize..16, proptest::collection::vec(any::<u32>(), 0..12)).prop_map(|(k, cs)| {
                match k {
                    0 => None,
                    1 => Some("0".to_string()),
                    2 => Some("1".to_string()),
                    _ => Some(cs.into_iter().filter_map(char::from_u32).collect()),
                }
            }),
        ) {
            match Command::parse(argv.clone().into_iter(), sc_obs) {
                Ok(Command::List) => prop_assert_eq!(argv, vec!["list".to_string()]),
                Ok(Command::Run { name, obs_out, .. }) => {
                    prop_assert!(crate::find(name).is_some(), "{}", name);
                    prop_assert!(obs_out.is_none_or(|p| !p.as_os_str().is_empty()));
                }
                Err(why) => prop_assert!(!why.is_empty()),
            }
        }
    }

    #[test]
    fn io_errors_name_the_path_and_keep_their_cause() -> Result<(), String> {
        // A regular file where a directory is needed.
        let blocker = std::env::temp_dir().join(format!("scemu-test-{}", std::process::id()));
        std::fs::write(&blocker, "").map_err(|e| e.to_string())?;
        let err = write_file(&blocker.join("x.json"), "{}");
        std::fs::remove_file(&blocker).map_err(|e| e.to_string())?;
        let err = err.err().ok_or("writing under a regular file succeeded")?;
        assert!(err.to_string().contains(&blocker.display().to_string()), "{err}");
        assert!(std::error::Error::source(&err).is_some());
        Ok(())
    }

    #[test]
    fn local_replay_never_leaves_the_satellite() {
        let c2 = sc_fiveg::messages::Procedure::build(
            sc_fiveg::messages::ProcedureKind::SessionEstablishment,
        );
        let local = replay_steps_local(&c2);
        assert!(!local.is_empty());
        for s in &local {
            assert!(s.from <= 1 && s.to <= 1, "{s:?}");
            assert_ne!(s.from, s.to);
        }
        // Strictly fewer cross-node legs than the ground-routed replay:
        // the RAN↔core messages collapse onto the satellite node.
        assert!(local.len() < replay_steps(&c2).len());
    }

    #[test]
    fn replay_traced_roots_the_whole_exchange() -> Result<(), String> {
        let obs = Recorder::new();
        let c2 = sc_fiveg::messages::Procedure::build(
            sc_fiveg::messages::ProcedureKind::SessionEstablishment,
        );
        let steps = replay_steps_local(&c2);
        let mut g = sc_netsim::topo::Graph::new(2);
        g.add_bidirectional(0, 1, 2.0);
        let nf = sc_netsim::chaos::FailureTimeline::none();
        let cfg = sc_netsim::sim::SimConfig::default;
        let sim =
            sc_netsim::sim::ProcedureSim::with_timeline(&g, &nf, cfg()).with_recorder(obs.clone());
        let mut loss = sc_netsim::failure::LossProcess::new(0.0, 1);
        let outcome = replay_traced(&obs, &sim, &c2, &steps, "local", &mut loss);
        assert!(outcome.completed);

        let snap = obs.snapshot();
        let root = snap
            .spans
            .iter()
            .find(|s| s.kind == "fiveg.proc.c2_session_establishment")
            .ok_or("missing fiveg root span")?;
        assert_eq!(root.parent, None);
        assert_eq!(root.end, Some(outcome.latency_ms));
        assert!(root
            .fields
            .iter()
            .any(|(k, v)| *k == "route" && *v == sc_obs::FieldValue::from("local")));
        let proc = snap
            .spans
            .iter()
            .find(|s| s.kind == "netsim.sim.procedure")
            .ok_or("missing netsim procedure span")?;
        assert_eq!(proc.parent, Some(root.id), "sim tree hangs off the 5G root");

        // Disabled recorder: same outcome, zero telemetry.
        let off = Recorder::disabled();
        let sim_off = sc_netsim::sim::ProcedureSim::with_timeline(&g, &nf, cfg());
        let mut loss2 = sc_netsim::failure::LossProcess::new(0.0, 1);
        let plain = replay_traced(&off, &sim_off, &c2, &steps, "local", &mut loss2);
        assert_eq!(plain.latency_ms, outcome.latency_ms);
        assert!(off.snapshot().is_empty());
        Ok(())
    }

    #[test]
    fn replay_steps_drop_core_internal_legs() {
        let c1 = sc_fiveg::messages::Procedure::build(
            sc_fiveg::messages::ProcedureKind::InitialRegistration,
        );
        let steps = replay_steps(&c1);
        assert!(!steps.is_empty());
        assert!(steps.len() < c1.message_count());
        for s in &steps {
            assert_ne!(s.from, s.to);
            assert!(s.from <= 2 && s.to <= 2);
        }
    }
}
