//! The `wfc bench-all` batch driver: every benchsuite SCoP × every fusion
//! model in **one process**, so the expensive work is paid once and shared —
//! dependence analysis once per SCoP, the worker pool reused across SCoPs,
//! and the schedule cache shared across models and phases.
//!
//! Per SCoP the driver times the three pipeline phases separately:
//!
//! * **analysis** — exact polyhedral dependence analysis, measured twice:
//!   serially ([`wf_deps::analyze`]) and with the pairwise statement tests
//!   forked on the shared pool ([`wf_deps::try_analyze`] at `threads`
//!   workers); the two DDGs must be byte-identical, and the timing pair is
//!   the report's `analysis_serial_seconds` / `analysis_parallel_seconds`
//!   / `analysis_speedup` columns;
//! * **ILP** — scheduling all five models, measured three ways: serially
//!   (one worker, cache bypassed), in parallel (`threads` workers, cache
//!   bypassed — the wall-clock speedup the report headlines), and through
//!   the schedule cache (a cold populating pass plus a warm pass whose
//!   hits skip the ILP entirely). The serial/parallel cold passes run
//!   with the [`wf_polyhedra::memo`] solver memo disabled so their
//!   timings stay true cold baselines; two additional serial passes then
//!   run with the memo on (a populating pass and a warm pass) — both
//!   must reproduce the memo-off schedules exactly (the memo-on/off leg
//!   of the determinism gate) and the warm pass's memo-counter delta is
//!   the row's `solver_hit_rate_pct`;
//! * **codegen** — building the execution plan for every scheduled model;
//! * **executor** — running wisefuse's plan over real tensors three ways:
//!   a serial baseline, per-band fresh workers (the old scoped-spawn cost
//!   model), and the shared process pool ([`ExecContext`]). The
//!   scoped-vs-pooled timing pair is the report's executor column, and
//!   all outputs must be byte-identical to the serial baseline.
//!
//! Every extra pass doubles as a determinism check: the parallel, cached,
//! and pool-replayed schedules must be **identical** to the serial ones
//! ([`Transformed`](wf_schedule::pluto::Transformed) and loop properties
//! compare equal), and the report carries the verdict in
//! `determinism_ok` so CI can fail on any divergence. Timing fields are the
//! only run-to-run variance; [`strip_timings`] removes them so two reports
//! can be compared byte-for-byte.

use std::sync::Arc;
use std::time::Instant;
use wf_benchsuite::{catalog, Benchmark};
use wf_harness::json::Json;
use wf_harness::{obs, pool};
use wf_polyhedra::memo;
use wf_runtime::{ExecContext, ExecOptions, ProgramData};
use wf_wisefuse::{cache, Model, Optimized, Optimizer};

/// Benchmark parameters are clamped to this for the executor phase: big
/// enough that parallel bands actually fork, small enough that the batch
/// stays interactive.
const EXEC_PARAM_CAP: i128 = 96;

/// Knobs for one [`run`].
#[derive(Clone, Debug)]
pub struct BenchAllOptions {
    /// Worker count for the parallel scheduling passes (≥ 2 to measure a
    /// speedup; the serial baseline always uses 1).
    pub threads: usize,
    /// Restrict the catalog to benchmarks whose name contains any of
    /// these comma-separated substrings (empty = whole catalog).
    pub filter: String,
    /// Re-verify every successfully scheduled model against the
    /// independent legality oracle (`wfc bench-all --check-legality`).
    pub check_legality: bool,
}

impl Default for BenchAllOptions {
    fn default() -> BenchAllOptions {
        BenchAllOptions {
            threads: pool::global().n_threads(),
            filter: String::new(),
            check_legality: false,
        }
    }
}

/// Everything one batch run produced.
pub struct BenchAllOutcome {
    /// The `BENCH_all.json` payload.
    pub report: Json,
    /// Did every redundant pass (parallel analysis, parallel scheduling,
    /// cached, memoized, pooled) reproduce the serial results exactly?
    pub determinism_ok: bool,
    /// Schedule-cache counters at the end of the run.
    pub cache_stats: cache::CacheStats,
    /// Solver-memo counters at the end of the run.
    pub memo_stats: memo::MemoStats,
    /// Schedules the legality oracle rejected (always 0 unless
    /// [`BenchAllOptions::check_legality`] was set).
    pub legality_rejections: usize,
}

/// Scheduling outcome fingerprint used for the determinism cross-checks:
/// per model, either the full transformed program + properties or the
/// error text.
type RunSet = Vec<(Model, Result<Optimized, wf_wisefuse::WfError>)>;

fn same_runs(a: &RunSet, b: &RunSet) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ma, ra), (mb, rb))| {
            ma == mb
                && match (ra, rb) {
                    (Ok(x), Ok(y)) => x.transformed == y.transformed && x.props == y.props,
                    (Err(x), Err(y)) => x == y,
                    _ => false,
                }
        })
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Counter movement between two solver-memo snapshots.
fn delta_stats(before: &memo::MemoStats, after: &memo::MemoStats) -> memo::MemoStats {
    memo::MemoStats {
        hits: after.hits.saturating_sub(before.hits),
        misses: after.misses.saturating_sub(before.misses),
        stores: after.stores.saturating_sub(before.stores),
        evictions: after.evictions.saturating_sub(before.evictions),
    }
}

/// Run the whole catalog × all models; see the module docs for the phase
/// structure. Pure compute — writing `BENCH_all.json` is the caller's job
/// (the CLI routes `report` through [`crate::BenchReport`]'s writer).
#[must_use]
pub fn run(opts: &BenchAllOptions) -> BenchAllOutcome {
    let threads = opts.threads.max(1);
    // The batch driver always collects metrics: every report row embeds the
    // per-SCoP registry delta (ILP nodes/pivots, cache traffic, …).
    // Restored afterwards so library callers keep their own switchboard.
    let prev_flags = obs::enabled();
    obs::set_enabled(prev_flags | obs::METRICS);
    let matches_filter = |name: &str| {
        opts.filter.is_empty()
            || opts.filter.split(',').any(|f| {
                let f = f.trim();
                !f.is_empty() && name.contains(f)
            })
    };
    let benchmarks: Vec<Benchmark> = catalog()
        .into_iter()
        .filter(|b| matches_filter(b.name))
        .collect();

    let mut determinism_ok = true;
    let mut rows = Vec::new();
    let mut tot_analysis_serial = 0.0;
    let mut tot_analysis_parallel = 0.0;
    let mut tot_serial = 0.0;
    let mut tot_parallel = 0.0;
    let mut tot_codegen = 0.0;
    let mut tot_exec_scoped = 0.0;
    let mut tot_exec_pooled = 0.0;
    let memo_before_all = memo::stats();
    let mut legality_rejections = 0usize;
    // The serial-pass results, kept for the cross-SCoP pool verification.
    let mut expected: Vec<(usize, RunSet)> = Vec::new();

    for (idx, b) in benchmarks.iter().enumerate() {
        let metrics_before = obs::metrics();
        // Phase 1a: dependence analysis, serial baseline; every later pass
        // reuses this graph through the facade.
        let t = Instant::now();
        let ddg = wf_deps::analyze(&b.scop);
        let analysis_serial_seconds = secs(t);

        // Phase 1b: the same analysis with the pairwise statement tests
        // forked on the shared pool. The merged DDG must be byte-identical
        // to the serial one — that is the parallel-analysis leg of the
        // determinism gate.
        let t = Instant::now();
        let ddg_parallel = wf_deps::try_analyze(&b.scop, threads);
        let analysis_parallel_seconds = secs(t);
        let analysis_same = matches!(&ddg_parallel, Ok(d) if *d == ddg);

        let fresh = |cached: bool| {
            // Fallback-on-degradable keeps the batch alive under injected
            // faults (`WF_FAULT`): a budget-starved or panicked model rides
            // on as its degraded schedule instead of an Err row. Fault-free
            // runs never take that path, so reports are unchanged.
            let o = Optimizer::new(&b.scop).with_ddg(ddg.clone()).fallback();
            if cached {
                o
            } else {
                o.cache_off()
            }
        };

        // Phases 2a/2b run with the solver memo disabled so their timings
        // are true cold baselines — with the memo on, the parallel pass
        // would answer the serial pass's solves from the cache and the
        // ilp_speedup column would measure the memo, not the pool.
        memo::set_enabled(false);

        // Phase 2a: ILP, serial cold baseline (one worker, cache bypassed).
        let t = Instant::now();
        let serial = fresh(false).threads(1).run_all();
        let serial_seconds = secs(t);

        // Phase 2b: ILP, parallel cold (the tentpole speedup measurement).
        let t = Instant::now();
        let parallel = fresh(false).threads(threads).run_all();
        let parallel_seconds = secs(t);
        let parallel_same = same_runs(&serial, &parallel);

        // Phase 2c: the solver memo's determinism + hit-rate passes: a
        // serial populating pass and a serial warm pass, both memo-on and
        // schedule-cache-bypassed. Both must reproduce the memo-off
        // schedules exactly, and the warm pass's counter delta yields the
        // row's hit rate (its solves repeat the populating pass verbatim).
        memo::set_enabled(true);
        let memo_cold = fresh(false).threads(1).run_all();
        let memo_stats_before = memo::stats();
        let memo_warm = fresh(false).threads(1).run_all();
        let memo_stats_row = delta_stats(&memo_stats_before, &memo::stats());
        let memo_same = same_runs(&serial, &memo_cold) && same_runs(&serial, &memo_warm);
        let solver_hit_rate_pct = memo_stats_row.hit_rate_pct();

        // Phase 2d: ILP through the cache — a cold pass that populates it,
        // then a warm pass whose lookups skip the ILP.
        let t = Instant::now();
        let cached_cold = fresh(true).threads(threads).run_all();
        let cached_cold_seconds = secs(t);
        let t = Instant::now();
        let cached_warm = fresh(true).threads(threads).run_all();
        let cached_warm_seconds = secs(t);
        let cached_same = same_runs(&serial, &cached_cold) && same_runs(&serial, &cached_warm);

        // Optional oracle pass: every successfully scheduled model from
        // the serial baseline is re-verified by the independent legality
        // checker. Cached/parallel/memoized passes are already proven
        // byte-identical to `serial` by the determinism gate, so one
        // verification covers them all.
        let mut row_rejections = 0usize;
        if opts.check_legality {
            for (m, r) in &serial {
                if let Ok(opt) = r {
                    let report =
                        wf_verify::check_schedule(&b.scop, &ddg, &opt.transformed.schedule);
                    if !report.is_legal() {
                        row_rejections += 1;
                        eprintln!(
                            "bench-all: legality oracle rejected {}/{}: {}",
                            b.name,
                            m.name(),
                            report.summary()
                        );
                    }
                }
            }
        }
        legality_rejections += row_rejections;

        // Phase 3: codegen — build the execution plan for every model that
        // scheduled.
        let t = Instant::now();
        let mut plans = 0usize;
        for (_, r) in &serial {
            if let Ok(opt) = r {
                let _ = opt.plan(&b.scop);
                plans += 1;
            }
        }
        let codegen_seconds = secs(t);

        // Phase 4: the interpreting executor, scoped-spawn vs shared pool.
        // Wisefuse's plan runs over identical inputs three ways; the
        // timing pair is the scoped-vs-pooled column and every successful
        // run's output must equal the serial baseline byte-for-byte.
        let mut exec_scoped_seconds = 0.0;
        let mut exec_pooled_seconds = 0.0;
        let mut exec_ok = true;
        let wisefuse = serial
            .iter()
            .find(|(m, _)| *m == Model::Wisefuse)
            .and_then(|(_, r)| r.as_ref().ok());
        if let Some(opt) = wisefuse {
            let plan = opt.plan(&b.scop);
            let params: Vec<i128> = b
                .bench_params
                .iter()
                .map(|&p| p.min(EXEC_PARAM_CAP))
                .collect();
            let mut init = ProgramData::new(&b.scop, &params);
            init.init_random(2024);
            let run = |eopts: ExecOptions| -> (f64, Option<ProgramData>) {
                let mut data = init.clone();
                let t = Instant::now();
                let r = ExecContext::with_options(eopts).execute(
                    &b.scop,
                    &opt.transformed,
                    &plan,
                    &mut data,
                );
                (secs(t), r.ok().map(|()| data))
            };
            let (_, base) = run(ExecOptions::new());
            let (scoped_s, scoped) = run(ExecOptions::new().threads(threads).per_band_pool(true));
            let (pooled_s, pooled) = run(ExecOptions::new().threads(threads));
            exec_scoped_seconds = scoped_s;
            exec_pooled_seconds = pooled_s;
            // Under `WF_FAULT` a pass may Err (contained partition panic);
            // the batch rides on, and only a *successful* pass whose output
            // diverges from the serial baseline fails the gate.
            if let Some(expected) = &base {
                exec_ok = scoped.as_ref().is_none_or(|d| d == expected)
                    && pooled.as_ref().is_none_or(|d| d == expected);
            }
        }

        let row_deterministic =
            analysis_same && parallel_same && memo_same && cached_same && exec_ok;
        determinism_ok &= row_deterministic;
        tot_analysis_serial += analysis_serial_seconds;
        tot_analysis_parallel += analysis_parallel_seconds;
        tot_serial += serial_seconds;
        tot_parallel += parallel_seconds;
        tot_codegen += codegen_seconds;
        tot_exec_scoped += exec_scoped_seconds;
        tot_exec_pooled += exec_pooled_seconds;

        let models: Vec<Json> = serial
            .iter()
            .map(|(m, r)| match r {
                Ok(opt) => {
                    let mut fields = vec![
                        ("model", m.name().into()),
                        ("ok", true.into()),
                        ("partitions", opt.n_partitions().into()),
                        ("outer_parallel", opt.outer_parallel().into()),
                        ("strategy", opt.transformed.strategy.as_str().into()),
                    ];
                    // Only present when the run actually degraded, so a
                    // fault-free report stays byte-identical to older ones.
                    if let Some(reason) = &opt.degraded {
                        fields.push(("degraded", reason.as_str().into()));
                    }
                    Json::obj(fields)
                }
                Err(e) => Json::obj([
                    ("model", m.name().into()),
                    ("ok", false.into()),
                    ("error", e.to_string().into()),
                ]),
            })
            .collect();
        let mut row = Json::obj([
            ("name", b.name.into()),
            ("suite", b.suite.into()),
            ("statements", b.scop.n_statements().into()),
            ("analysis_serial_seconds", analysis_serial_seconds.into()),
            (
                "analysis_parallel_seconds",
                analysis_parallel_seconds.into(),
            ),
            (
                "analysis_speedup",
                (analysis_serial_seconds / analysis_parallel_seconds.max(1e-12)).into(),
            ),
            ("solver_hit_rate_pct", solver_hit_rate_pct.into()),
            ("ilp_serial_seconds", serial_seconds.into()),
            ("ilp_parallel_seconds", parallel_seconds.into()),
            (
                "ilp_speedup",
                (serial_seconds / parallel_seconds.max(1e-12)).into(),
            ),
            ("cache_cold_seconds", cached_cold_seconds.into()),
            ("cache_warm_seconds", cached_warm_seconds.into()),
            ("codegen_seconds", codegen_seconds.into()),
            ("codegen_plans", plans.into()),
            ("exec_scoped_seconds", exec_scoped_seconds.into()),
            ("exec_pooled_seconds", exec_pooled_seconds.into()),
            (
                "exec_speedup",
                (exec_scoped_seconds / exec_pooled_seconds.max(1e-12)).into(),
            ),
            ("exec_ok", exec_ok.into()),
            ("determinism_ok", row_deterministic.into()),
            ("models", Json::Arr(models)),
            // What this SCoP's passes cost the pipeline, as a registry
            // delta: ILP nodes/pivots, FM eliminations, cache traffic.
            ("metrics", obs::metrics().delta(&metrics_before).to_json()),
        ]);
        // Present only under --check-legality so default reports stay
        // byte-identical to those from older builds.
        if opts.check_legality {
            row.push("legality_rejections", row_rejections.into());
        }
        rows.push(row);
        expected.push((idx, serial));
    }

    // Cross-SCoP phase: replay every (SCoP, warm) job on the persistent
    // process-wide pool — the pool is reused across SCoPs and the schedule
    // cache is shared across models, so these hits must reproduce the
    // serial schedules verbatim.
    let shared: Arc<Vec<Benchmark>> = Arc::new(benchmarks);
    let t = Instant::now();
    let replays: Vec<(usize, RunSet)> =
        pool::global().map(expected.iter().map(|(i, _)| *i).collect(), move |i| {
            let b = &shared[i];
            (i, Optimizer::new(&b.scop).fallback().run_all())
        });
    let pool_seconds = secs(t);
    let pool_same = expected
        .iter()
        .zip(&replays)
        .all(|((ia, a), (ib, b))| ia == ib && same_runs(a, b));
    determinism_ok &= pool_same;

    let cache_stats = cache::stats();
    let memo_stats = memo::stats();
    let memo_run = delta_stats(&memo_before_all, &memo_stats);
    let mut report = Json::obj([
        ("schema", "bench-all/v1".into()),
        ("threads", threads.into()),
        ("benchmarks", Json::Arr(rows)),
        (
            "totals",
            Json::obj([
                ("analysis_serial_seconds", tot_analysis_serial.into()),
                ("analysis_parallel_seconds", tot_analysis_parallel.into()),
                (
                    "analysis_speedup",
                    (tot_analysis_serial / tot_analysis_parallel.max(1e-12)).into(),
                ),
                ("solver_hit_rate_pct", memo_run.hit_rate_pct().into()),
                ("ilp_serial_seconds", tot_serial.into()),
                ("ilp_parallel_seconds", tot_parallel.into()),
                ("ilp_speedup", (tot_serial / tot_parallel.max(1e-12)).into()),
                ("codegen_seconds", tot_codegen.into()),
                ("exec_scoped_seconds", tot_exec_scoped.into()),
                ("exec_pooled_seconds", tot_exec_pooled.into()),
                (
                    "exec_speedup",
                    (tot_exec_scoped / tot_exec_pooled.max(1e-12)).into(),
                ),
                ("pool_replay_seconds", pool_seconds.into()),
            ]),
        ),
        ("cache", cache_stats.to_json()),
        ("solver_memo", memo_run.to_json()),
        ("metrics", obs::metrics().to_json()),
        ("determinism_ok", determinism_ok.into()),
    ]);
    if opts.check_legality {
        report.push("legality_rejections", legality_rejections.into());
    }
    obs::set_enabled(prev_flags);
    BenchAllOutcome {
        report,
        determinism_ok,
        cache_stats,
        memo_stats,
        legality_rejections,
    }
}

/// Recursively drop run-to-run-variable fields (`*_seconds`, `*_speedup`,
/// the cache and solver-memo counters, the hit-rate percentages, and the
/// metrics snapshots) so two reports from identical inputs compare
/// byte-for-byte. This is the determinism contract `wfc bench-all --json`
/// advertises; `crates/bench/tests/benchall_determinism.rs` (two runs in
/// one process) and `crates/cli/tests/cli_bench_all.rs` (two processes
/// sharing a spill) enforce it. (Metrics would in fact be deterministic
/// for a fixed build, but they grow with every new probe, which would
/// churn the goldens; the memo counters depend on what earlier runs left
/// in the process-wide memo.)
#[must_use]
pub fn strip_timings(j: &Json) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| {
                    !(k.ends_with("_seconds")
                        || k.ends_with("speedup")
                        || k == "cache"
                        || k == "metrics"
                        || k == "solver_memo"
                        || k == "solver_hit_rate_pct")
                })
                .map(|(k, v)| (k.clone(), strip_timings(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_timings).collect()),
        other => other.clone(),
    }
}
