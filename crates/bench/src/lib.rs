//! Shared helpers for the figure/table harnesses, plus [`benchall`], the
//! one-process `wfc bench-all` batch driver.

#![warn(missing_docs)]

pub mod benchall;

use std::path::PathBuf;
use std::time::{Duration, Instant};
use wf_cachesim::perf::{model_performance, MachineModel, PerfReport};
use wf_codegen::ExecPlan;
use wf_harness::json::Json;
use wf_harness::pool;
use wf_harness::report;
use wf_runtime::{ExecContext, ProgramData};
use wf_scop::Scop;
use wf_wisefuse::{plan_from_optimized, Model, Optimized, Optimizer};

/// One benchmark × model measurement.
pub struct Measurement {
    /// Model measured.
    pub model: Model,
    /// Optimization pipeline output.
    pub opt: Optimized,
    /// Wall-clock of the transformed execution.
    pub time: Duration,
    /// Wall-clock of scheduling itself.
    pub compile_time: Duration,
}

/// Run one benchmark under one model: schedule, plan, execute, time.
/// Output arrays are compared against `oracle` (when provided) to keep the
/// harness honest.
///
/// Thin wrapper over [`measure_via`]; per-model loops should build one
/// [`Optimizer`] and call [`measure_via`] so the dependence analysis is
/// shared across models instead of re-run per call.
pub fn measure(
    scop: &Scop,
    params: &[i128],
    model: Model,
    ctx: &ExecContext<'_>,
    init: &ProgramData,
    oracle: Option<&ProgramData>,
) -> Measurement {
    let _ = params;
    measure_via(&mut Optimizer::new(scop), model, ctx, init, oracle)
}

/// [`measure`] through an existing [`Optimizer`], sharing its cached
/// dependence analysis (and the process-wide schedule cache) across the
/// models of one SCoP.
pub fn measure_via(
    optimizer: &mut Optimizer<'_>,
    model: Model,
    ctx: &ExecContext<'_>,
    init: &ProgramData,
    oracle: Option<&ProgramData>,
) -> Measurement {
    let scop = optimizer.scop();
    let c0 = Instant::now();
    let opt = optimizer
        .run_model(model)
        .unwrap_or_else(|e| panic!("{}: {model:?}: {e}", scop.name));
    let plan = plan_from_optimized(scop, &opt);
    let compile_time = c0.elapsed();
    let mut data = init.clone();
    let t0 = Instant::now();
    ctx.execute(scop, &opt.transformed, &plan, &mut data)
        .unwrap_or_else(|e| panic!("{}: {model:?}: {e}", scop.name));
    let time = t0.elapsed();
    if let Some(o) = oracle {
        assert_eq!(
            data.max_abs_diff(o),
            0.0,
            "{}: {model:?} diverges from the baseline execution",
            scop.name
        );
    }
    Measurement {
        model,
        opt,
        time,
        compile_time,
    }
}

/// Plan + data for a model (used by harnesses that need the plan itself).
/// Wrapper over [`plan_and_data_via`]; see [`measure`] for when to prefer
/// the `_via` form.
pub fn plan_and_data(
    scop: &Scop,
    params: &[i128],
    model: Model,
    seed: u64,
) -> (Optimized, ExecPlan, ProgramData) {
    plan_and_data_via(&mut Optimizer::new(scop), params, model, seed)
}

/// [`plan_and_data`] through an existing [`Optimizer`] (shared analysis
/// across the models of one SCoP).
pub fn plan_and_data_via(
    optimizer: &mut Optimizer<'_>,
    params: &[i128],
    model: Model,
    seed: u64,
) -> (Optimized, ExecPlan, ProgramData) {
    let scop = optimizer.scop();
    let opt = optimizer
        .run_model(model)
        .unwrap_or_else(|e| panic!("{}: {model:?}: {e}", scop.name));
    let plan = plan_from_optimized(scop, &opt);
    let mut data = ProgramData::new(scop, params);
    data.init_random(seed);
    (opt, plan, data)
}

/// Geometric mean.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Number of worker threads used by the harnesses: the shared pool's size
/// (`WF_THREADS`, else available parallelism capped at the paper's 8
/// cores — parsed exactly once, at pool construction).
#[must_use]
pub fn harness_threads() -> usize {
    pool::global().n_threads()
}

/// Schedule + plan + instrumented serial run priced on the machine model.
/// This is what the Figure 7 harness reports: it makes both of wisefuse's
/// objectives (reuse, coarse-grained parallelism) visible regardless of how
/// many physical cores the benchmarking host has.
pub fn measure_modeled(
    scop: &Scop,
    params: &[i128],
    model: Model,
    machine: &MachineModel,
    seed: u64,
) -> (Optimized, PerfReport) {
    measure_modeled_via(&mut Optimizer::new(scop), params, model, machine, seed)
}

/// [`measure_modeled`] through an existing [`Optimizer`]: harness loops
/// that price several models of one SCoP share its cached dependence
/// analysis instead of re-running it per model.
pub fn measure_modeled_via(
    optimizer: &mut Optimizer<'_>,
    params: &[i128],
    model: Model,
    machine: &MachineModel,
    seed: u64,
) -> (Optimized, PerfReport) {
    let scop = optimizer.scop();
    let opt = optimizer
        .run_model(model)
        .unwrap_or_else(|e| panic!("{}: {model:?}: {e}", scop.name));
    let plan = plan_from_optimized(scop, &opt);
    let mut data = ProgramData::new(scop, params);
    data.init_random(seed);
    let report = model_performance(scop, &opt, &plan, &mut data, machine);
    (opt, report)
}

/// Accumulates one harness's results and writes `BENCH_<name>.json`.
///
/// Every figure-regeneration binary keeps its human-readable stdout story
/// and *additionally* funnels the numbers behind it through one of these,
/// so CI (and the paper-claims tests) can diff machine-readable results.
pub struct BenchReport {
    name: String,
    top: Json,
    rows: Vec<Json>,
}

impl BenchReport {
    /// Start a report; `name` becomes the `BENCH_<name>.json` file stem.
    #[must_use]
    pub fn new(name: &str) -> BenchReport {
        BenchReport {
            name: name.to_string(),
            top: Json::obj([]),
            rows: Vec::new(),
        }
    }

    /// Set a top-level field (benchmark name, problem size, core count…).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        self.top.push(key, value.into());
    }

    /// Append one result row.
    pub fn row(&mut self, fields: impl IntoIterator<Item = (&'static str, Json)>) {
        self.rows.push(Json::obj(fields));
    }

    /// Write `BENCH_<name>.json` and return its path.
    pub fn write(mut self) -> PathBuf {
        self.top.push("rows", Json::Arr(self.rows));
        report::write_named(&self.name, &self.top)
    }
}
