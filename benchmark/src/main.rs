//! `mlcnn-benchmark` — the command `BENCHMARK.json` names.
//!
//! ```text
//! mlcnn-benchmark run    --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--smoke]
//! mlcnn-benchmark repeat --seed N [--sets 2] [--seconds S] [--smoke]
//! ```
//!
//! `run` prints a header, the phases, every metric by name with its unit,
//! and as its last line one JSON object `{correct, attempted, failed,
//! metrics}`; it exits non-zero when an operation failed or an output was
//! wrong. Without `--workload` it runs every workload, each in a child
//! process of its own so that peak memory and set-up are per workload.
//! `repeat` runs whole sets back to back and holds them against the
//! bounds in `BENCHMARK.json`.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use mlcnn_benchmark::json::{self, Value};
use mlcnn_benchmark::measure::Fault;
use mlcnn_benchmark::run::{run, RunArgs};
use mlcnn_benchmark::workloads::{
    self, DEFAULT_SECONDS, END_TO_END, RAYON_THREADS, SMOKE_SECONDS, WORKLOADS,
};

const USAGE: &str = "usage: mlcnn-benchmark run --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--smoke]\n       mlcnn-benchmark repeat --seed N [--sets 2] [--seconds S] [--smoke]";

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    fault: Option<Fault>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing subcommand")?;
    let mut cli = Cli {
        command,
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 2,
        fault: None,
    };
    let mut seed_given = false;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--smoke" => cli.seconds = SMOKE_SECONDS,
            "--sets" => cli.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            // negative self-test only: corrupt one operation, expect a non-zero exit
            "--inject" => cli.fault = Some(Fault::parse(&value()?)?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    Ok(cli)
}

/// Run one workload in a child process of this executable and return its
/// exit status and captured stdout (`None` when inherited).
fn spawn_run(cli: &Cli, workload: &str, capture: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }]);
    if capture {
        cmd.stdout(Stdio::piped());
    }
    let output = cmd
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("child run of {workload}: {e}"))?;
    Ok((
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

fn run_command(cli: &Cli) -> Result<bool, String> {
    let Some(name) = &cli.workload else {
        let mut all_ok = true;
        for w in &WORKLOADS {
            all_ok &= spawn_run(cli, w.name, false)?.0;
        }
        return Ok(all_ok);
    };
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of: {})", names.join(", "))
    })?;
    let outcome = run(&RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        fault: cli.fault,
    })?;
    println!("{}", outcome.to_json());
    Ok(outcome.correct && outcome.failed == 0)
}

fn read_benchmark_json() -> Result<Value, String> {
    let beside_crate = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let path = [Path::new("BENCHMARK.json"), beside_crate.as_path()]
        .into_iter()
        .find(|p| p.exists())
        .ok_or("BENCHMARK.json not found in the current directory or beside benchmark/")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
}

/// Run `--sets` whole sets back to back and compare each workload ×
/// end-to-end metric of the later sets against the first.
fn repeat_command(cli: &Cli) -> Result<bool, String> {
    if cli.sets < 2 {
        return Err("--sets must be at least 2".into());
    }
    let spec = read_benchmark_json()?;
    let bound_of = |metric: &str| -> Result<f64, String> {
        spec.get("end_to_end")
            .map_or(&[][..], Value::items)
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))
            .and_then(|m| m.get("bound"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("BENCHMARK.json states no bound for {metric}"))
    };
    let mut ok = true;
    // sets[s][w][m]
    let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
    for set in 0..cli.sets {
        let mut per_workload = Vec::new();
        for w in &WORKLOADS {
            let (success, stdout) = spawn_run(cli, w.name, true)?;
            let last = stdout.lines().last().unwrap_or_default();
            let result = json::parse(last)
                .map_err(|e| format!("set {set} {}: no result line ({e})", w.name))?;
            let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(-1.0);
            println!(
                "set {set} {}: exit_ok={success} ops_failed={failed}",
                w.name
            );
            ok &= success && failed == 0.0;
            let values = END_TO_END
                .iter()
                .map(|(name, _)| {
                    result
                        .path(&["metrics", name, "value"])
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("set {set} {}: no value for {name}", w.name))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            per_workload.push(values);
        }
        sets.push(per_workload);
    }
    println!(
        "{:<26} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "later", "rel_diff", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, (metric, _)) in END_TO_END.iter().enumerate() {
            let bound = bound_of(metric)?;
            let first = sets[0][wi][mi];
            for later in sets[1..].iter().map(|s| s[wi][mi]) {
                let rel = (later - first).abs() / first.abs().max(f64::MIN_POSITIVE);
                let verdict = if rel > bound { "  EXCEEDS" } else { "" };
                ok &= rel <= bound;
                println!(
                    "{:<26} {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                    w.name,
                    metric,
                    first,
                    later,
                    rel * 100.0,
                    bound * 100.0
                );
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // Before any thread exists: the parallel regions of `tensor`/`core`
    // size themselves from this variable on first use.
    std::env::set_var("RAYON_NUM_THREADS", RAYON_THREADS);
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("mlcnn-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cli.command.as_str() {
        "run" => run_command(&cli),
        "repeat" => repeat_command(&cli),
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mlcnn-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
