//! `wf-benchmark` — the repo benchmark. `benchmark/run` builds and calls it;
//! README.md in this directory says what it measures and why.
//!
//! Every layer is measured from outside: the benchmark times calls into
//! the crates' public functions and reads `wf_harness::obs::metrics()`
//! deltas around them. It adds no span, flag or variable to any crate.

mod compare;
mod compile;
mod host;
mod kernels;
mod layers;
mod probes;
mod runner;
mod spans;
mod spec;
mod stats;
mod workload;

use runner::RunnerArgs;
use spec::{Scale, Workload};
use std::process::ExitCode;
use workload::RunArgs;

const USAGE: &str = "usage:
  wf-benchmark [--smoke] [--runs K] [--traced T] [--seed N] [--seconds S] [--fuzz-base B] [--out FILE]
      run every workload (K untraced and T traced runs each) and print the report
  wf-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--fuzz-base B]
      run one workload in this process; the last line of stdout is the result
  wf-benchmark compare A.json B.json
  wf-benchmark manifest
workloads: catalog_cold catalog_warm fuzz_mix kernels";

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return usage("compare takes two set files");
            };
            return match compare::compare(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => usage(&e),
            };
        }
        Some("manifest") => {
            println!("{}", spec::manifest().render_pretty());
            return ExitCode::SUCCESS;
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }

    let mut runner = RunnerArgs::default();
    let (mut workload, mut trace, mut seconds, mut traced) = (None, false, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            runner.smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => Workload::parse(value).map(|w| workload = Some(w)),
            "--trace" => ["0", "1"]
                .iter()
                .position(|v| v == value)
                .map(|i| trace = i == 1),
            "--seed" => value.parse().ok().map(|v| runner.seed = v),
            "--seconds" => value
                .parse()
                .ok()
                .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                .map(|v| seconds = Some(v)),
            "--fuzz-base" => value.parse().ok().map(|v| runner.fuzz_base = v),
            "--runs" => value
                .parse()
                .ok()
                .filter(|&k| k >= 1)
                .map(|v| runner.runs = v),
            "--traced" => value.parse().ok().map(|v| traced = Some(v)),
            "--out" => {
                runner.out = Some(value.into());
                Some(())
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if parsed.is_none() {
            return usage(&format!("bad value for {flag}: {value}"));
        }
    }

    // `--smoke` runs every pass once and traces once unless told otherwise.
    runner.seconds = seconds.unwrap_or(if runner.smoke { 0.0 } else { runner.seconds });
    runner.traced = traced.unwrap_or(if runner.smoke { 1 } else { runner.traced });
    let Some(workload) = workload else {
        return match runner::run_all(&runner) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let run = RunArgs {
        workload,
        seed: runner.seed,
        seconds: runner.seconds,
        trace,
        scale: Scale {
            smoke: runner.smoke,
            fuzz_base: runner.fuzz_base,
        },
    };
    match workload::run(&run) {
        Ok(outcome) => {
            for (name, unit, value) in &outcome.metrics {
                let n = outcome
                    .samples
                    .get(name)
                    .map_or(String::new(), |n| format!(" n={n}"));
                eprintln!("[{}] {name} = {value} {unit}{n}", workload.name());
            }
            for why in &outcome.failures {
                eprintln!("[{}] FAILED: {why}", workload.name());
            }
            println!("{}", outcome.result_line());
            // A failed check is reported in the result, not by the exit code:
            // the run itself completed.
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}
