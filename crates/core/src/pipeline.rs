//! The one-call optimization pipeline: dependence analysis → fusion-model
//! scheduling → loop-property analysis.

use crate::{icc::icc_schedule, Wisefuse};
use std::sync::Arc;
use wf_codegen::ExecPlan;
use wf_deps::Ddg;
use wf_harness::WfError;
use wf_schedule::pluto::{schedule_scop, SchedError, Transformed};
use wf_schedule::props::{self, LoopProp};
use wf_schedule::{Maxfuse, Nofuse, PlutoConfig, Smartfuse};
use wf_scop::Scop;

/// The five fusion models of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Model {
    /// Intel-compiler-like baseline: original order, no fusion,
    /// conservative parallelization.
    Icc,
    /// Our fusion model (the paper's contribution).
    Wisefuse,
    /// PLuTo's default heuristic model.
    Smartfuse,
    /// Every SCC in its own loop nest.
    Nofuse,
    /// Maximal fusion.
    Maxfuse,
}

impl Model {
    /// All models, in the paper's reporting order.
    pub const ALL: [Model; 5] = [
        Model::Icc,
        Model::Wisefuse,
        Model::Smartfuse,
        Model::Nofuse,
        Model::Maxfuse,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Model::Icc => "icc",
            Model::Wisefuse => "wisefuse",
            Model::Smartfuse => "smartfuse",
            Model::Nofuse => "nofuse",
            Model::Maxfuse => "maxfuse",
        }
    }
}

/// A fully-analyzed optimization result.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The model that produced it.
    pub model: Model,
    /// The dependence graph: one allocation shared by every model's
    /// result for the SCoP (cloning an `Optimized` does not copy it).
    pub ddg: Arc<Ddg>,
    /// Schedule + satisfaction bookkeeping.
    pub transformed: Transformed,
    /// `props[dim][stmt]`: parallelism classification of loop dims.
    pub props: Vec<Vec<Option<LoopProp>>>,
    /// `Some(reason)` when this result is the documented degradation
    /// fallback (original program order, no fusion) rather than the
    /// requested model's schedule — produced when the model's solve hit a
    /// budget/panic condition and the caller opted into
    /// [`fallback`](crate::Optimizer::fallback). Degraded results are
    /// never written to the schedule cache.
    pub degraded: Option<String>,
}

impl Optimized {
    /// Is the outermost loop of every fusion partition parallel?
    #[must_use]
    pub fn outer_parallel(&self) -> bool {
        props::outer_parallel(&self.props, &self.transformed.schedule)
    }

    /// Number of top-level fusion partitions.
    #[must_use]
    pub fn n_partitions(&self) -> usize {
        self.transformed
            .partitions
            .iter()
            .max()
            .map_or(0, |m| m + 1)
    }

    /// `flags[dim][stmt]`: is that schedule dimension a parallel loop? This
    /// is the shape codegen's planner and the tiler consume.
    #[must_use]
    pub fn parallel_flags(&self) -> Vec<Vec<bool>> {
        self.props
            .iter()
            .map(|row| {
                row.iter()
                    .map(|p| matches!(p, Some(LoopProp::Parallel)))
                    .collect()
            })
            .collect()
    }

    /// Build the execution plan for this result (bounds, inverse maps,
    /// guards), translating the loop-property analysis into per-dimension
    /// parallel flags.
    #[must_use]
    pub fn plan(&self, scop: &Scop) -> ExecPlan {
        wf_codegen::build_plan(scop, &self.transformed, self.parallel_flags())
    }
}

/// Free-function form of [`Optimized::plan`] (the call-site idiom the
/// examples and harnesses use).
#[must_use]
pub fn plan_from_optimized(scop: &Scop, opt: &Optimized) -> ExecPlan {
    opt.plan(scop)
}

/// Run the full pipeline on a SCoP under one fusion model.
///
/// Thin wrapper over [`crate::Optimizer`]; when scheduling several models
/// of the *same* SCoP, use the facade's
/// [`run_all`](crate::Optimizer::run_all) instead so dependence analysis
/// runs once, not once per model. Both wrappers go through the facade and
/// therefore through the process-wide [schedule cache](crate::cache).
pub fn optimize(scop: &Scop, model: Model) -> Result<Optimized, WfError> {
    optimize_with(scop, model, &PlutoConfig::default())
}

/// [`optimize`] with explicit engine tunables (also a facade wrapper).
pub fn optimize_with(
    scop: &Scop,
    model: Model,
    config: &PlutoConfig,
) -> Result<Optimized, WfError> {
    crate::Optimizer::new(scop)
        .model(model)
        .config(*config)
        .run()
}

/// The ILP-backed half of the pipeline: schedule one model against an
/// already-computed dependence graph. This is the step the schedule cache
/// memoizes — everything downstream ([`analyze_props`], plan building) is
/// cheap and recomputed per call.
pub(crate) fn schedule_model(
    scop: &Scop,
    ddg: &Ddg,
    model: Model,
    config: &PlutoConfig,
) -> Result<Transformed, SchedError> {
    let _span = wf_harness::span!("schedule.model", "model" => model.name());
    // Attribution labels: the model jobs run inside pool workers, so the
    // labels are installed on the thread that actually calls the solver.
    let _bench_label =
        wf_harness::attr::label_fmt(wf_harness::attr::Slot::Bench, || scop.name.clone());
    let _model_label = wf_harness::attr::label(wf_harness::attr::Slot::Model, model.name());
    Ok(match model {
        Model::Icc => icc_schedule(scop, ddg),
        Model::Wisefuse => schedule_scop(scop, ddg, &Wisefuse, config)?,
        Model::Smartfuse => schedule_scop(scop, ddg, &Smartfuse, config)?,
        Model::Nofuse => schedule_scop(scop, ddg, &Nofuse, config)?,
        Model::Maxfuse => schedule_scop(scop, ddg, &Maxfuse, config)?,
    })
}

/// Loop-property analysis for a scheduled model, including the icc model's
/// conservative parallelization downgrade. Deterministic in its inputs, so
/// a cache-hit [`Transformed`] reproduces the cold path's properties
/// exactly.
pub(crate) fn analyze_props(
    scop: &Scop,
    ddg: &Ddg,
    model: Model,
    transformed: &Transformed,
) -> Vec<Vec<Option<LoopProp>>> {
    let _span = wf_harness::span!("props.analyze", "model" => model.name());
    let mut props = props::analyze(scop, ddg, transformed);
    if model == Model::Icc {
        // The paper's observed icc behaviour (§5.3): auto-parallelization
        // declines non-rectangular iteration spaces (lu) and nests with any
        // carried dependence (gemver's S2/S4 reductions), rather than
        // extracting the parallel outer level the polyhedral models find.
        for s in 0..scop.n_statements() {
            let conservative = !crate::icc::is_rectangular(scop, s)
                || props
                    .iter()
                    .any(|row| matches!(row[s], Some(props::LoopProp::Forward)));
            if conservative {
                for row in &mut props {
                    if row[s].is_some() {
                        row[s] = Some(props::LoopProp::Forward);
                    }
                }
            }
        }
    }
    props
}
