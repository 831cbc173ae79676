//! `scbench` — the repository's benchmark. See `benchmark/README.md`.
//!
//! With `--workload W` it measures that workload in this process and
//! prints the result object as the last line of stdout. Without, it
//! runs every workload, each in a process of its own (so `peak_rss_mb`
//! is per workload), and prints every metric by name with its unit.

mod gen;
mod json;
mod layers;
mod procfs;
mod serve;
mod sim;
mod spec;
mod stats;
mod trace;
mod workload;

use json::Metric;
use std::process::{Command, ExitCode, Stdio};
use workload::{Measured, Plan, Workload, DEFAULT_SEED, THREADS};

const USAGE: &str = "usage: scbench [--workload soak|chaos-soak|chaos-sweep|serve|serve-mixed] \
[--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick] [--check-repeat]";

/// The timed region of one run, s — `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `None`: an untraced run, then (unless `--quick`) a traced one.
    trace: Option<bool>,
    quick: bool,
    check_repeat: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        check_repeat: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".to_string());
                }
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => out.trace = Some(true),
            "--quick" => out.quick = true,
            "--check-repeat" => out.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// Unit and direction of `name`, from the metric tables.
fn lookup(name: &str) -> (&'static str, bool) {
    let e2e = spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.lower_is_better));
    let layers = spec::PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, !m.higher_is_better));
    let (_, unit, lower_is_better) = e2e
        .chain(layers)
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in the metric tables"));
    (unit, lower_is_better)
}

fn metric(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit: lookup(name).0,
    }
}

fn median_of(reps: &[workload::Rep], f: impl Fn(&workload::Rep) -> f64) -> f64 {
    let values: Vec<f64> = reps.iter().map(f).collect();
    stats::median(&values).expect("at least one repetition ran")
}

/// The end-to-end metrics of an untraced run, in table order.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let ops_per_s = median_of(&m.reps, |r| r.ops as f64 / r.wall_s);
    let (p50, p99) = if m.lat_samples == 0 {
        // A simulator's operations run inside one call and cannot be
        // timed from outside: both readings are the mean time per
        // operation of the median repetition.
        let per_op_us = 1e6 / ops_per_s;
        (per_op_us, per_op_us)
    } else {
        let median = |per_rep: &[f64]| stats::median(per_rep).unwrap_or(f64::NAN);
        (median(&m.lat_p50_us), median(&m.lat_p99_us))
    };
    vec![
        metric(
            "setup_s",
            stats::median(&m.setup_s).expect("at least one set-up ran"),
        ),
        metric("wall_s", median_of(&m.reps, |r| r.wall_s)),
        metric("ops_per_s", ops_per_s),
        // A mean: /proc counts CPU in 10 ms ticks, and a median of ticks
        // would read the same on every run.
        metric(
            "cpu_s",
            m.reps.iter().map(|r| r.cpu_s).sum::<f64>() / m.reps.len() as f64,
        ),
        metric("lat_p50_us", p50),
        metric("lat_p99_us", p99),
        metric("peak_rss_mb", procfs::peak_rss_mb()),
    ]
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let better = if lookup(m.name).1 { "lower" } else { "higher" };
        println!(
            "  {:<36} {:>16} {:<6} ({better} is better)",
            m.name,
            format!("{:.4}", m.value),
            m.unit
        );
    }
}

/// Measures one workload in this process.
fn run_single(w: Workload, args: &Args) -> ExitCode {
    let traced = args.trace.unwrap_or(false);
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        traced,
    };
    println!(
        "== {} · seed {} · {} · {THREADS} threads of {} available{} ==",
        w.name(),
        plan.seed,
        if traced { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if plan.quick { " · quick" } else { "" },
    );
    let mut m = match w {
        Workload::Serve | Workload::ServeMixed => serve::measure(w, &plan),
        _ => sim::measure(w, &plan),
    };
    for note in &m.notes {
        println!("  note: {note}");
    }
    let all_reps = || m.reps.iter().chain(&m.traced_reps);
    let attempted: u64 = all_reps().map(|r| r.ops).sum();
    let mut failed: u64 = all_reps().map(|r| r.failed).sum();
    println!(
        "  timed repetitions: {} (after 1 discarded warm-up), latency samples: {}, sim_digest {:#018x}",
        m.reps.len(),
        m.lat_samples,
        m.digest
    );
    let walls: Vec<String> = m.reps.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    println!("  wall per repetition, s: {}", walls.join(" "));

    let metrics = if traced {
        let tracer = m.tracer.take().expect("a traced run carries a tracer");
        let ratio = median_of(&m.traced_reps, |r| r.wall_s) / median_of(&m.reps, |r| r.wall_s);
        let (metrics, ledger_failed) = layers::ledger(w, &plan, tracer, ratio);
        failed += ledger_failed;
        metrics
    } else {
        end_to_end(&m)
    };
    print_metrics(&metrics);
    println!(
        "  {:<36} {:>16} share ({failed} of {attempted})",
        "failed_ops_share",
        failed as f64 / attempted as f64
    );

    let complete = metrics.iter().all(|m| m.value.is_finite());
    if !complete {
        println!("  FAIL: a metric could not be measured");
    }
    let correct = failed == 0 && complete && !m.notes.iter().any(|n| n.starts_with("FAIL"));
    println!(
        "{}",
        json::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metrics of one result line, by name.
type Parsed = Vec<(String, f64)>;

/// Runs `w` in a child process, echoes its report, and returns the
/// parsed result line (`None` when the child failed).
fn run_child(w: Workload, args: &Args, traced: bool) -> Option<Parsed> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .expect("child process starts");
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, line) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{report}");
    if !out.status.success() {
        println!("  FAIL: {} exited with {}", w.name(), out.status);
        return None;
    }
    json::parse_metrics(line)
}

/// One pass over every workload. Returns the end-to-end metrics per
/// workload, `None` for a workload that failed.
fn run_all(args: &Args) -> Vec<(Workload, Option<Parsed>)> {
    Workload::ALL
        .into_iter()
        .map(|w| {
            let mut ok = true;
            let mut end_to_end = Parsed::new();
            if args.trace != Some(true) {
                match run_child(w, args, false) {
                    Some(metrics) => end_to_end = metrics,
                    None => ok = false,
                }
            }
            if args.trace.unwrap_or(!args.quick) {
                ok &= run_child(w, args, true).is_some();
            }
            (w, ok.then_some(end_to_end))
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = args.workload {
        return run_single(w, &args);
    }

    if !args.check_repeat {
        let results = run_all(&args);
        let failed: Vec<&str> = results
            .iter()
            .filter(|(_, r)| r.is_none())
            .map(|(w, _)| w.name())
            .collect();
        if failed.is_empty() {
            println!("every workload passed its output checks");
            return ExitCode::SUCCESS;
        }
        println!("FAIL: {}", failed.join(", "));
        return ExitCode::FAILURE;
    }

    // --check-repeat: two untraced sets of the same code must agree
    // within the bounds the benchmark fixes for a change.
    let untraced = Args {
        trace: Some(false),
        ..args
    };
    let first = run_all(&untraced);
    let second = run_all(&untraced);
    let mut agree = true;
    println!("== repeatability: second set against the first ==");
    for ((w, a), (_, b)) in first.iter().zip(&second) {
        let (Some(a), Some(b)) = (a, b) else {
            println!("  FAIL: {} did not complete twice", w.name());
            agree = false;
            continue;
        };
        for e in spec::END_TO_END {
            let value =
                |set: &[(String, f64)]| set.iter().find(|(n, _)| n == e.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                println!("  FAIL: {} lacks {}", w.name(), e.name);
                agree = false;
                continue;
            };
            let diff = (y - x).abs() / x.min(y);
            let within = diff <= e.bound;
            agree &= within;
            println!(
                "  {:<12} {:<12} {:>14.4} {:>14.4} {:>7.2} % of {:>4.0} % {}",
                w.name(),
                e.name,
                x,
                y,
                diff * 100.0,
                e.bound * 100.0,
                if within { "ok" } else { "FAIL" }
            );
        }
    }
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload serve-mixed --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::ServeMixed));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, Some(true)));
        let d = parse("").unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, DEFAULT_SEED, None));
        assert_eq!(parse("--traced --quick").unwrap().trace, Some(true));
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds 600",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_metric_name_used_here_is_in_the_tables() {
        for name in [
            "setup_s",
            "wall_s",
            "ops_per_s",
            "cpu_s",
            "lat_p50_us",
            "lat_p99_us",
            "peak_rss_mb",
        ] {
            assert_eq!(metric(name, 1.0).name, name);
        }
    }
}
