//! The one command that runs everything: every workload as a
//! single-threaded child process, untraced and traced, then the report.

use crate::host;
use crate::spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use wf_harness::json::Json;

pub struct RunnerArgs {
    pub smoke: bool,
    /// Untraced runs per workload, seeds `seed..seed + runs`.
    pub runs: u64,
    /// Traced runs per workload (two show whether work counters repeat).
    pub traced: u64,
    pub seed: u64,
    pub seconds: f64,
    pub fuzz_base: u64,
    pub out: Option<PathBuf>,
}

impl Default for RunnerArgs {
    fn default() -> RunnerArgs {
        RunnerArgs {
            smoke: false,
            runs: 1,
            traced: 2,
            seed: 0,
            seconds: f64::from(RUN_SECONDS),
            fuzz_base: 0,
            out: None,
        }
    }
}

/// Result lines and row documents of the runs of one workload.
#[derive(Default)]
struct Collected {
    /// metric → one value per run, end-to-end then per-layer.
    values: BTreeMap<String, Vec<f64>>,
    attempted: Vec<i128>,
    failed: Vec<i128>,
    /// `code_digest` of each untraced run, by seed.
    digests: Vec<(u64, String)>,
    code_bytes: Vec<i128>,
    last_rows: Option<Json>,
}

fn run_child(
    args: &RunnerArgs,
    w: Workload,
    seed: u64,
    trace: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--fuzz-base", &args.fuzz_base.to_string()])
        .env("OMP_NUM_THREADS", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("no result line from the workload")?;
    let result = Json::parse(line)?;
    let rows_path = host::results_dir().join(format!("{}.json", w.name()));
    let rows = std::fs::read_to_string(&rows_path).map_err(|e| e.to_string())?;
    Ok((result, Json::parse(&rows)?))
}

fn collect(c: &mut Collected, seed: u64, trace: bool, result: &Json, rows: Json) {
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, entry) in metrics {
            let v = entry.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            c.values.entry(name.clone()).or_default().push(v);
        }
    }
    let int = |doc: &Json, k: &str| doc.get(k).and_then(Json::as_i128).unwrap_or(0);
    c.attempted.push(int(result, "attempted"));
    c.failed.push(int(result, "failed"));
    if !trace {
        let digest = rows.get("code_digest").and_then(Json::as_str).unwrap_or("");
        c.digests.push((seed, digest.to_string()));
        c.code_bytes.push(int(&rows, "code_bytes"));
        c.last_rows = Some(rows);
    }
}

fn fmt(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else if v.abs() >= 1e6 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

fn print_metric(name: &str, unit: &str, values: &[f64]) {
    let (lo, hi) = min_max(values);
    println!(
        "  {name:<34} {:>14} {unit:<7} n={} [{} .. {}] spread {:.2}%",
        fmt(median(values)),
        values.len(),
        fmt(lo),
        fmt(hi),
        spread(values) * 100.0
    );
}

/// Run every workload in the fixed order from a fresh spill directory,
/// print every metric by name with unit and sample count, and write the
/// set file `compare` reads. Returns whether every run was correct.
pub fn run_all(args: &RunnerArgs) -> Result<bool, String> {
    let spill = host::shared_spill_dir().map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&spill);
    let mut all: Vec<(Workload, Collected)> = Workload::ALL
        .iter()
        .map(|&w| (w, Collected::default()))
        .collect();
    for (trace, n) in [(false, args.runs), (true, args.traced)] {
        for r in 0..n {
            let seed = args.seed + r;
            for (w, c) in &mut all {
                eprintln!(
                    "== {} seed {seed}{}",
                    w.name(),
                    if trace { " (traced)" } else { "" }
                );
                let (result, rows) = run_child(args, *w, seed, trace)?;
                collect(c, seed, trace, &result, rows);
            }
        }
    }

    let fingerprint = host::fingerprint();
    println!("wf-benchmark on {}", host::fingerprint_slug(&fingerprint));
    let mut ok = true;
    let mut workloads = Vec::new();
    for (w, c) in &all {
        println!("\n{} — {}", w.name(), w.why());
        for m in &END_TO_END {
            if let Some(values) = c.values.get(m.name) {
                print_metric(m.name, m.unit, values);
            }
        }
        let (attempted, failed): (i128, i128) = (c.attempted.iter().sum(), c.failed.iter().sum());
        ok &= failed == 0;
        println!(
            "  {:<34} {:>14} %       {failed} of {attempted} ops",
            "failed_ops_pct",
            fmt(failed as f64 / attempted.max(1) as f64 * 100.0)
        );
        if let (Some(traced), Some(plain)) =
            (c.values.get("trace.compile_s"), c.values.get("compile_s"))
        {
            let overhead = (median(traced) / median(plain) - 1.0) * 100.0;
            println!("  {:<34} {:>14} %", "trace_overhead_pct", fmt(overhead));
        }
        for (name, unit, _) in &PER_LAYER {
            if let Some(values) = c.values.get(*name) {
                print_metric(name, unit, values);
            }
        }
        workloads.push((w.name().to_string(), set_entry(c)));
    }

    println!("\ndeterminism");
    for (w, c) in &all {
        let bytes_match = c.code_bytes.windows(2).all(|b| b[0] == b[1]);
        ok &= bytes_match;
        println!(
            "  {:<14} code_bytes {} across {} runs (emitted C digests also match across the passes of a run, or the run fails)",
            w.name(),
            if bytes_match { "equal" } else { "DIFFER" },
            c.code_bytes.len()
        );
        for counter in ["polyhedra.simplex_cells", "polyhedra.ilp_solves"] {
            if let Some(values) = c.values.get(counter) {
                let (lo, hi) = min_max(values);
                let rel = if lo > 0.0 {
                    (hi / lo - 1.0) * 100.0
                } else {
                    0.0
                };
                println!(
                    "  {:<14} {counter} min {lo:.0} max {hi:.0} over {} traced runs (+{rel:.2}%; reported, not gated)",
                    "",
                    values.len()
                );
            }
        }
    }
    let digest_of = |w: Workload, seed: u64| {
        let c = &all.iter().find(|(x, _)| *x == w)?.1;
        c.digests
            .iter()
            .find(|(s, _)| *s == seed)
            .map(|(_, d)| d.clone())
    };
    for r in 0..args.runs {
        let seed = args.seed + r;
        let (cold, warm) = (
            digest_of(Workload::CatalogCold, seed),
            digest_of(Workload::CatalogWarm, seed),
        );
        let same = cold.is_some() && cold == warm;
        ok &= same;
        println!(
            "  seed {seed}: catalog_warm C {} catalog_cold C",
            if same {
                "is byte-identical to"
            } else {
                "DIFFERS from"
            }
        );
    }

    let set = Json::obj([
        ("schema", Json::str("wf-benchmark/set/v1")),
        ("host", fingerprint),
        ("smoke", Json::Bool(args.smoke)),
        ("seed", Json::from(args.seed)),
        ("runs", Json::from(args.runs)),
        ("traced_runs", Json::from(args.traced)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| host::results_dir().join("run.json"));
    std::fs::write(&out, set.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nwrote {}", out.display());
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// One workload's part of the set file: every value of every metric, and
/// the per-op rows of its last untraced run.
fn set_entry(c: &Collected) -> Json {
    let ints = |v: &[i128]| Json::Arr(v.iter().map(|&i| Json::Int(i)).collect());
    let metrics = c
        .values
        .iter()
        .map(|(name, values)| {
            (
                name.clone(),
                Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
            )
        })
        .collect();
    Json::obj([
        ("metrics", Json::Obj(metrics)),
        ("attempted", ints(&c.attempted)),
        ("failed", ints(&c.failed)),
        ("rows", c.last_rows.clone().unwrap_or(Json::Null)),
    ])
}
