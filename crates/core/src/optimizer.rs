//! The one-pass [`Optimizer`] facade.
//!
//! [`optimize`](crate::optimize) re-runs exact polyhedral dependence
//! analysis — by far the most expensive reusable step of the pipeline —
//! every time it is called, so drivers that schedule the same SCoP under
//! all five fusion models (the `wfc compare` loop, the figure harnesses,
//! iterative search) used to pay for it five times. `Optimizer` is a
//! builder over one SCoP that computes the [`Ddg`] **once**, caches it,
//! and schedules any number of models against clones of it:
//!
//! ```
//! use wf_scop::{Aff, Expr, ScopBuilder};
//! use wf_wisefuse::{Model, Optimizer};
//!
//! let mut b = ScopBuilder::new("ex", &["N"]);
//! b.context_ge(Aff::param(0) - 4);
//! let a = b.array("A", &[Aff::param(0)]);
//! b.stmt("S0", 1, &[0, 0])
//!     .bounds(0, Aff::zero(), Aff::param(0) - 1)
//!     .write(a, &[Aff::iter(0)])
//!     .rhs(Expr::Const(1.0))
//!     .done();
//! let scop = b.build();
//!
//! // One model, builder style:
//! let opt = Optimizer::new(&scop).model(Model::Wisefuse).run().unwrap();
//! assert_eq!(opt.model, Model::Wisefuse);
//!
//! // All five models, dependence analysis performed once and the models
//! // scheduled concurrently on the worker pool:
//! let runs = Optimizer::new(&scop).run_all();
//! assert_eq!(runs.len(), Model::ALL.len());
//! ```
//!
//! Two more layers sit behind the facade:
//!
//! * **Parallel model scheduling.** The five models are independent given
//!   the shared DDG, so [`run_all`](Optimizer::run_all) distributes them
//!   over the shared [`pool::global`](wf_harness::pool::global) thread
//!   pool via [`ThreadPool::try_scope`](wf_harness::ThreadPool::try_scope).
//!   The worker count defaults to the pool's size (`WF_THREADS`, parsed
//!   once at pool construction) and can be pinned with
//!   [`threads`](Optimizer::threads); `1` runs serially inline. Results
//!   are returned in [`Model::ALL`] order regardless of completion order,
//!   and are **byte-identical** to the serial path.
//! * **Schedule memoization.** Each model's scheduling step is looked up
//!   in the process-wide [`cache`](crate::cache), keyed by a stable
//!   `(SCoP canonical text, model, config)` fingerprint; the ILP only
//!   runs on a miss. [`cache_off`](Optimizer::cache_off) bypasses it
//!   (timing harnesses that must measure the cold path use this).
//!
//! The same shape appears in Polly's scheduler integration and Pluto+'s
//! fusion/permutation driver: a reusable analysis object with a one-call
//! driver on top, so strategy exploration never repeats the analysis.

use crate::cache::{self, Fingerprint};
use crate::pipeline::{self, Model, Optimized};
use std::sync::Arc;
use wf_deps::{analyze, Ddg};
use wf_harness::{fault, pool, WfError};
use wf_schedule::PlutoConfig;
use wf_scop::Scop;

/// Builder-style driver over one SCoP; see the module docs.
#[derive(Clone, Debug)]
pub struct Optimizer<'a> {
    scop: &'a Scop,
    model: Model,
    config: PlutoConfig,
    ddg: Option<Arc<Ddg>>,
    /// Worker count for `run_all`; `None` defers to `WF_THREADS`.
    threads: Option<usize>,
    /// Consult/populate the process-wide schedule cache?
    use_cache: bool,
    /// Degrade budget/panic failures to the original-program-order
    /// fallback schedule instead of surfacing the error?
    fallback: bool,
    /// Run every emitted schedule (cache hits included) through the
    /// independent legality oracle?
    check_legality: bool,
    /// Memoized canonical-text digest of `scop`.
    scop_hash: Option<u64>,
}

impl<'a> Optimizer<'a> {
    /// Start a pipeline over `scop`. Defaults: [`Model::Wisefuse`],
    /// [`PlutoConfig::default`], dependence analysis deferred until first
    /// needed, schedule cache on, `run_all` parallelism from `WF_THREADS`.
    #[must_use]
    pub fn new(scop: &'a Scop) -> Optimizer<'a> {
        Optimizer {
            scop,
            model: Model::Wisefuse,
            config: PlutoConfig::default(),
            ddg: None,
            threads: None,
            use_cache: true,
            fallback: false,
            check_legality: false,
            scop_hash: None,
        }
    }

    /// The SCoP this facade drives (handy for helpers that are handed only
    /// the optimizer).
    #[must_use]
    pub fn scop(&self) -> &'a Scop {
        self.scop
    }

    /// Select the fusion model [`run`](Optimizer::run) will schedule.
    #[must_use]
    pub fn model(mut self, model: Model) -> Optimizer<'a> {
        self.model = model;
        self
    }

    /// Override the scheduling-engine tunables.
    #[must_use]
    pub fn config(mut self, config: PlutoConfig) -> Optimizer<'a> {
        self.config = config;
        self
    }

    /// Pin the worker count [`run_all`](Optimizer::run_all) uses (instead
    /// of the `WF_THREADS` default). `1` is the serial fallback: models
    /// are scheduled inline on the calling thread, no workers spawned.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Optimizer<'a> {
        self.threads = Some(threads.max(1));
        self
    }

    /// Bypass the process-wide schedule cache: every run re-solves the
    /// ILP. For timing harnesses that must observe the cold path.
    #[must_use]
    pub fn cache_off(mut self) -> Optimizer<'a> {
        self.use_cache = false;
        self
    }

    /// Degrade recoverable failures (ILP budget exhaustion, a worker-job
    /// panic, a dead-end schedule search) to the documented fallback: the
    /// original-program-order schedule with no fusion, exactly what the
    /// icc baseline model computes. The substitution is recorded in
    /// [`Optimized::degraded`] and never written to the schedule cache.
    /// Parse/I-O/usage errors are *not* degradable and still surface.
    #[must_use]
    pub fn fallback(mut self) -> Optimizer<'a> {
        self.fallback = true;
        self
    }

    /// Gate every emitted schedule behind the independent legality oracle
    /// ([`wf_verify::check_schedule`]): each dependence edge must be
    /// weakly preserved at every schedule level and strictly satisfied at
    /// some level, decided by the oracle's own delta construction and
    /// integer emptiness tests — none of the scheduling engine's code.
    /// The check covers **every** path a schedule can arrive by, including
    /// in-memory cache hits and entries deserialized from the on-disk
    /// spill, so a corrupted or stale cache entry is caught before it
    /// reaches codegen. A rejection surfaces as
    /// [`WfError::IllegalSchedule`] — degradable, so combined with
    /// [`fallback`](Optimizer::fallback) the pipeline substitutes the
    /// original-program-order schedule instead of failing. The fallback
    /// schedule itself is not re-checked: it is trivially legal by
    /// construction (the property suite proves it against the oracle), and
    /// re-checking would turn an injected `verify.legality` fault into an
    /// unbreakable rejection loop.
    #[must_use]
    pub fn check_legality(mut self, on: bool) -> Optimizer<'a> {
        self.check_legality = on;
        self
    }

    /// Inject an already-computed dependence graph (e.g. shared with a
    /// cache simulator), skipping the analysis entirely.
    #[must_use]
    pub fn with_ddg(mut self, ddg: Ddg) -> Optimizer<'a> {
        self.ddg = Some(Arc::new(ddg));
        self
    }

    /// The dependence graph, computing and caching it on first call.
    pub fn ddg(&mut self) -> &Ddg {
        self.shared_ddg()
    }

    /// [`ddg`](Optimizer::ddg) as the handle every [`Optimized`] of this
    /// SCoP shares.
    fn shared_ddg(&mut self) -> &Arc<Ddg> {
        self.ddg.get_or_insert_with(|| Arc::new(analyze(self.scop)))
    }

    /// Cache fingerprint for `model` under the current config, or `None`
    /// when caching is off.
    fn fingerprint(&mut self, model: Model) -> Option<Fingerprint> {
        if !self.use_cache {
            return None;
        }
        let scop = *self
            .scop_hash
            .get_or_insert_with(|| cache::scop_fingerprint(self.scop));
        Some(Fingerprint {
            scop,
            model,
            config: cache::config_fingerprint(&self.config),
        })
    }

    /// Schedule the selected model, consuming the builder. Equivalent to
    /// [`optimize_with`](crate::optimize_with) but reuses an injected DDG.
    pub fn run(mut self) -> Result<Optimized, WfError> {
        let model = self.model;
        self.run_model(model)
    }

    /// Schedule one specific model against the cached dependence graph.
    /// Call repeatedly to explore models; analysis still happens once.
    pub fn run_model(&mut self, model: Model) -> Result<Optimized, WfError> {
        let key = self.fingerprint(model);
        let (fallback, check) = (self.fallback, self.check_legality);
        let ddg = Arc::clone(self.shared_ddg());
        degrade(
            run_one(self.scop, &ddg, model, &self.config, key, check),
            fallback,
            self.scop,
            &ddg,
            model,
        )
    }

    /// Schedule **all five** fusion models of Table 1 against one shared
    /// dependence analysis, concurrently on up to
    /// [`threads`](Optimizer::threads) workers (default `WF_THREADS`), in
    /// [`Model::ALL`] reporting order. Individual models may fail to
    /// schedule — or their worker job may *panic* — without poisoning the
    /// rest: a panicking job surfaces as that model's
    /// [`WfError::JobPanic`] slot (or its fallback schedule under
    /// [`fallback`](Optimizer::fallback)) while every other model's result
    /// is unaffected. The result is identical to calling
    /// [`run_model`](Optimizer::run_model) serially per model — worker
    /// count cannot influence schedules.
    pub fn run_all(&mut self) -> Vec<(Model, Result<Optimized, WfError>)> {
        let mut _span = wf_harness::span!("optimizer.run_all", "scop" => self.scop.name.clone());
        let threads = self
            .threads
            .unwrap_or_else(|| pool::global().n_threads())
            .min(Model::ALL.len());
        let keys: Vec<Option<Fingerprint>> = Model::ALL
            .into_iter()
            .map(|m| self.fingerprint(m))
            .collect();
        let (fallback, check) = (self.fallback, self.check_legality);
        let ddg = &Arc::clone(self.shared_ddg());
        let (scop, config) = (self.scop, &self.config);
        let slots = pool::global().try_scope(threads, Model::ALL.len(), |i| {
            fault::maybe_panic("optimizer.model_job");
            let m = Model::ALL[i];
            (m, run_one(scop, ddg, m, config, keys[i], check))
        });
        Model::ALL
            .into_iter()
            .zip(slots)
            .map(|(m, slot)| {
                let r = match slot {
                    Ok((m2, r)) => {
                        debug_assert_eq!(m, m2, "slot order is submission order");
                        r
                    }
                    Err(panicked) => Err(WfError::from(panicked)),
                };
                (m, degrade(r, fallback, scop, ddg, m))
            })
            .collect()
    }
}

/// Apply the degradation policy: under `fallback`, replace a degradable
/// error with the original-program-order schedule (annotated, uncached).
fn degrade(
    r: Result<Optimized, WfError>,
    fallback: bool,
    scop: &Scop,
    ddg: &Arc<Ddg>,
    model: Model,
) -> Result<Optimized, WfError> {
    match r {
        Err(e) if fallback && e.is_degradable() => Ok(fallback_optimized(scop, ddg, model, &e)),
        other => other,
    }
}

/// The documented degradation fallback: the original-program-order,
/// no-fusion schedule (what the icc baseline model computes), which is
/// infallible and trivially legal. `degraded` records why it was
/// substituted; the result is never written to the schedule cache.
fn fallback_optimized(scop: &Scop, ddg: &Arc<Ddg>, model: Model, cause: &WfError) -> Optimized {
    wf_harness::obs::add("optimizer.degraded", 1);
    let transformed = crate::icc::icc_schedule(scop, ddg);
    let props = pipeline::analyze_props(scop, ddg, model, &transformed);
    Optimized {
        model,
        ddg: Arc::clone(ddg),
        transformed,
        props,
        degraded: Some(format!(
            "{} degraded to original program order: {cause}",
            model.name()
        )),
    }
}

/// Schedule one model (through the cache when `key` is set) and analyze
/// its loop properties. Free function so `run_all`'s workers can share it
/// with the serial `run_model` path — determinism by construction.
///
/// With `check_legality` the emitted schedule — freshly solved *or* pulled
/// from the cache — is judged by the independent oracle before any
/// property analysis; a rejection is a degradable
/// [`WfError::IllegalSchedule`].
fn run_one(
    scop: &Scop,
    ddg: &Arc<Ddg>,
    model: Model,
    config: &PlutoConfig,
    key: Option<Fingerprint>,
    check_legality: bool,
) -> Result<Optimized, WfError> {
    let schedule = |scop, ddg: &Ddg, model, config| -> Result<_, WfError> {
        Ok(pipeline::schedule_model(scop, ddg, model, config)?)
    };
    let transformed = match key {
        Some(k) => match cache::global_lookup(&k) {
            Some(t) => t,
            None => {
                let t = schedule(scop, ddg, model, config)?;
                cache::global_insert(k, &t);
                t
            }
        },
        None => schedule(scop, ddg, model, config)?,
    };
    if check_legality {
        let report = wf_verify::check_schedule(scop, ddg, &transformed.schedule);
        if !report.is_legal() {
            return Err(WfError::IllegalSchedule {
                model: model.name().to_string(),
                detail: report.summary(),
            });
        }
    }
    let props = pipeline::analyze_props(scop, ddg, model, &transformed);
    Ok(Optimized {
        model,
        ddg: Arc::clone(ddg),
        transformed,
        props,
        degraded: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_scop::{Aff, Expr, ScopBuilder};

    fn two_stmt_scop() -> Scop {
        let mut b = ScopBuilder::new("facade", &["N"]);
        b.context_ge(Aff::param(0) - 4);
        let a = b.array("A", &[Aff::param(0)]);
        let c = b.array("C", &[Aff::param(0)]);
        b.stmt("S0", 1, &[0, 0])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .write(a, &[Aff::iter(0)])
            .rhs(Expr::Iter(0))
            .done();
        b.stmt("S1", 1, &[1, 0])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .write(c, &[Aff::iter(0)])
            .read(a, &[Aff::iter(0)])
            .rhs(Expr::mul(Expr::Load(0), Expr::Const(2.0)))
            .done();
        b.build()
    }

    #[test]
    fn facade_matches_wrapper() {
        let scop = two_stmt_scop();
        for model in Model::ALL {
            let via_facade = Optimizer::new(&scop)
                .model(model)
                .run()
                .expect("schedulable");
            let via_wrapper = crate::optimize(&scop, model).expect("schedulable");
            assert_eq!(
                via_facade.transformed.schedule, via_wrapper.transformed.schedule,
                "{model:?} schedules diverge"
            );
            assert_eq!(
                via_facade.transformed.partitions,
                via_wrapper.transformed.partitions
            );
            assert_eq!(via_facade.props, via_wrapper.props);
        }
    }

    #[test]
    fn run_all_covers_every_model_once() {
        let scop = two_stmt_scop();
        let runs = Optimizer::new(&scop).run_all();
        let models: Vec<Model> = runs.iter().map(|(m, _)| *m).collect();
        assert_eq!(models, Model::ALL.to_vec());
        for (m, r) in &runs {
            assert!(r.is_ok(), "{m:?} failed on a trivially schedulable SCoP");
        }
    }

    #[test]
    fn ddg_is_computed_once_and_shared() {
        let scop = two_stmt_scop();
        let mut o = Optimizer::new(&scop);
        let edges = o.ddg().edges.len();
        // Injected DDG path: a facade seeded with the cached graph must
        // produce identical results without re-analysis.
        let ddg = o.ddg().clone();
        let a = o.run_model(Model::Wisefuse).unwrap();
        let b = Optimizer::new(&scop).with_ddg(ddg).run().unwrap();
        assert_eq!(a.transformed.schedule, b.transformed.schedule);
        assert_eq!(a.ddg.edges.len(), edges);
    }

    #[test]
    fn parallel_run_all_matches_serial_run_all() {
        let scop = two_stmt_scop();
        let serial = Optimizer::new(&scop).cache_off().threads(1).run_all();
        let parallel = Optimizer::new(&scop).cache_off().threads(4).run_all();
        for ((ms, rs), (mp, rp)) in serial.iter().zip(&parallel) {
            assert_eq!(ms, mp);
            match (rs, rp) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.transformed, b.transformed, "{ms:?} diverges");
                    assert_eq!(a.props, b.props);
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                _ => panic!("{ms:?}: serial and parallel disagree on success"),
            }
        }
    }

    // The fault switchboard is process-global and the runner is parallel:
    // every test that installs a `verify.legality` plan — or asserts the
    // oracle *accepts* while no plan may be installed — holds the
    // crate-wide gate (shared with the cache spill-fault tests).
    use crate::fault_gate;

    #[test]
    fn check_legality_accepts_clean_schedules() {
        let _gate = fault_gate();
        let scop = two_stmt_scop();
        for model in Model::ALL {
            let checked = Optimizer::new(&scop)
                .cache_off()
                .check_legality(true)
                .model(model)
                .run()
                .expect("legal schedule must pass the oracle");
            let unchecked = Optimizer::new(&scop)
                .cache_off()
                .model(model)
                .run()
                .unwrap();
            assert_eq!(checked.transformed, unchecked.transformed);
            assert!(checked.degraded.is_none());
        }
    }

    #[test]
    fn injected_legality_fault_degrades_or_surfaces() {
        use wf_harness::fault::FaultPlan;
        let _gate = fault_gate();
        let scop = two_stmt_scop();
        let plan = FaultPlan {
            site: Some("verify.legality".to_string()),
            ..FaultPlan::all(7, 1000)
        };

        // Strict shape: the rejection surfaces as IllegalSchedule.
        fault::install(plan.clone());
        let strict = Optimizer::new(&scop).cache_off().check_legality(true).run();
        fault::reset_to_env();
        match strict {
            Err(WfError::IllegalSchedule { model, .. }) => assert_eq!(model, "wisefuse"),
            other => panic!("expected IllegalSchedule, got {other:?}"),
        }

        // Fallback shape: degrade to program order, annotated; the
        // fallback schedule is not re-checked, so rate=1000 cannot loop.
        fault::install(plan);
        let degraded = Optimizer::new(&scop)
            .cache_off()
            .check_legality(true)
            .fallback()
            .run();
        fault::reset_to_env();
        let opt = degraded.expect("fallback absorbs the rejection");
        let why = opt.degraded.expect("degradation must be recorded");
        assert!(why.contains("legality oracle"), "cause missing: {why}");
    }

    #[test]
    fn check_legality_covers_cache_hits() {
        use wf_harness::fault::FaultPlan;
        let _gate = fault_gate();
        let scop = two_stmt_scop();
        // Warm the cache, then verify the *hit* path is checked: with the
        // oracle forced to reject, a cached schedule must still fail.
        Optimizer::new(&scop).model(Model::Maxfuse).run().unwrap();
        fault::install(FaultPlan {
            site: Some("verify.legality".to_string()),
            ..FaultPlan::all(11, 1000)
        });
        let hit = Optimizer::new(&scop)
            .model(Model::Maxfuse)
            .check_legality(true)
            .run();
        fault::reset_to_env();
        assert!(
            matches!(hit, Err(WfError::IllegalSchedule { .. })),
            "cache hits must pass through the oracle, got {hit:?}"
        );
    }

    #[test]
    fn cache_hit_path_equals_cold_path() {
        let scop = two_stmt_scop();
        let cold = Optimizer::new(&scop)
            .cache_off()
            .model(Model::Wisefuse)
            .run()
            .unwrap();
        let s0 = cache::stats();
        let first = Optimizer::new(&scop).model(Model::Wisefuse).run().unwrap();
        let second = Optimizer::new(&scop).model(Model::Wisefuse).run().unwrap();
        let s1 = cache::stats();
        assert!(s1.hits > s0.hits, "second cached run must hit");
        assert_eq!(first.transformed, cold.transformed);
        assert_eq!(second.transformed, cold.transformed);
        assert_eq!(second.props, cold.props);
    }
}
