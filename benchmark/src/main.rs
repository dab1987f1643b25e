//! The repo's benchmark: time to a clustering and served-query latency, end
//! to end and layer by layer.  See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!           [--smoke] [--out <file>] [--trace-out <file>]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! The last line of standard output is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod adapter;
mod compare;
mod gen;
mod json;
mod layers;
mod loadgen;
mod stats;
mod trace;
mod truth;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use workloads::{Opts, Outcome, WORKLOADS};

/// The contract this binary measures to: names, units, directions, bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Regression bound as a share of the base (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The metrics `BENCHMARK.json` declares under `section`.
pub fn declared(section: &str) -> Vec<Declared> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists the section")
        .iter()
        .map(|m| Declared {
            name: m
                .get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_string(),
            higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

fn default_seconds() -> f64 {
    json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Value::as_f64))
        .unwrap_or(10.0)
}

struct Args {
    workloads: Vec<String>,
    opts_seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "\
usage: benchmark [run] [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
                 [--smoke] [--out <file>] [--trace-out <file>]
       benchmark compare <a.json> <b.json>
workloads: cluster-highk, serve-small, serve-batch, serve-mixed (default: all four)";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        opts_seed: 42,
        seconds: default_seconds(),
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut it = argv.iter().skip_while(|a| a.as_str() == "run");
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workloads.push(value()?),
            "--seed" => args.opts_seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => match value()?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            },
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(args)
}

/// Where and how the numbers were taken.  A result from a host that cannot
/// show the effect is not a result.
struct Host {
    dispatch: &'static str,
    nproc: usize,
    profile: &'static str,
    commit: String,
    threads_env: bool,
}

impl Host {
    fn detect() -> Host {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Host {
            dispatch: adapter::kernel_dispatch(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit,
            threads_env: adapter::threads_env_override(),
        }
    }

    /// Why numbers from this host and build would not be results.
    fn invalid_because(&self) -> Option<String> {
        if self.profile == "debug" {
            Some("debug build: measure optimized builds only".into())
        } else if self.threads_env {
            Some("GKM_THREADS is set: thread counts are fixed by the benchmark".into())
        } else if self.nproc < 2 {
            Some(format!(
                "{} core: server and load generator need two",
                self.nproc
            ))
        } else {
            None
        }
    }

    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("kernel_dispatch", Value::str(self.dispatch)),
            ("nproc", Value::Num(self.nproc as f64)),
            ("profile", Value::str(self.profile)),
            ("commit", Value::str(self.commit.clone())),
            ("valid", Value::Bool(self.invalid_because().is_none())),
        ])
    }
}

/// `metrics` of the result line: `{name: {"value": v, "unit": u}}`.
fn metrics_json(outcome: &Outcome, units: &[Declared], prefix: &str) -> Vec<(String, Value)> {
    outcome
        .metrics
        .iter()
        .map(|(name, value, _)| {
            let unit = units
                .iter()
                .find(|d| &d.name == name)
                .map_or("", |d| d.unit.as_str());
            (
                format!("{prefix}{name}"),
                Value::obj(vec![
                    ("value", Value::Num(*value)),
                    ("unit", Value::str(unit)),
                ]),
            )
        })
        .collect()
}

/// Every declared metric must be reported exactly once, finite, and nothing
/// else may be.
fn check_against_contract(outcome: &mut Outcome, units: &[Declared]) {
    for d in units {
        let hits = outcome.metrics.iter().filter(|m| m.0 == d.name).count();
        outcome.check(hits == 1, || {
            format!("metric {} reported {hits} times", d.name)
        });
    }
    let stray: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| !units.iter().any(|d| d.name == m.0) || !m.1.is_finite())
        .map(|m| m.0.clone())
        .collect();
    outcome.check(stray.is_empty(), || {
        format!("undeclared or non-finite metrics: {stray:?}")
    });
}

fn print_human(workload: &str, outcome: &Outcome, units: &[Declared]) {
    println!("== {workload}");
    for note in &outcome.notes {
        println!("   {note}");
    }
    for (name, value, samples) in &outcome.metrics {
        let unit = units
            .iter()
            .find(|d| &d.name == name)
            .map_or("", |d| d.unit.as_str());
        println!("   {name:<44} {value:>16.6} {unit:<10} (n = {samples})");
    }
    for problem in &outcome.problems {
        println!("   FAILED CHECK: {problem}");
    }
    println!(
        "   {} operations attempted, {} failed; checks {}",
        outcome.attempted,
        outcome.failed,
        if outcome.correct() {
            "passed"
        } else {
            "FAILED"
        }
    );
}

fn run(args: &Args) -> Result<bool, String> {
    let host = Host::detect();
    println!(
        "host: kernels {}, nproc {}, {} build, commit {}",
        host.dispatch, host.nproc, host.profile, host.commit
    );
    if let Some(why) = host.invalid_because() {
        if !args.smoke {
            return Err(format!("not a valid measurement: {why}"));
        }
        println!("not a valid measurement ({why}); continuing at smoke scale");
    }
    let units = declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    let prefix_names = args.workloads.len() > 1;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut metrics = Vec::new();
    let mut runs = Vec::new();
    for name in &args.workloads {
        let spec = workloads::spec(name, args.smoke)
            .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
        let opts = Opts {
            seed: args.opts_seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
            trace_out: args.trace_out.clone(),
        };
        let mut outcome = workloads::run(&spec, &opts)?;
        check_against_contract(&mut outcome, &units);
        print_human(name, &outcome, &units);
        attempted += outcome.attempted;
        failed += outcome.failed;
        correct &= outcome.correct();
        let prefix = if prefix_names {
            format!("{name}/")
        } else {
            String::new()
        };
        metrics.extend(metrics_json(&outcome, &units, &prefix));
        runs.push(Value::obj(vec![
            ("workload", Value::str(name.clone())),
            ("seed", Value::Num(args.opts_seed as f64)),
            ("seconds", Value::Num(args.seconds)),
            ("trace", Value::Bool(args.trace)),
            ("smoke", Value::Bool(args.smoke)),
            ("host", host.to_json()),
            ("correct", Value::Bool(outcome.correct())),
            ("attempted", Value::Num(outcome.attempted as f64)),
            ("failed", Value::Num(outcome.failed as f64)),
            ("metrics", Value::Obj(metrics_json(&outcome, &units, ""))),
            (
                "samples",
                Value::Obj(
                    outcome
                        .metrics
                        .iter()
                        .map(|(n, _, s)| (n.clone(), Value::Num(*s as f64)))
                        .collect(),
                ),
            ),
            (
                "notes",
                Value::Arr(outcome.notes.iter().map(Value::str).collect()),
            ),
        ]));
    }
    if let Some(path) = &args.out {
        compare::append_runs(path, runs)?;
    }
    println!(
        "{}",
        Value::obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(attempted.max(1) as f64)),
            ("failed", Value::Num(failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare::compare(a.as_ref(), b.as_ref()) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
