//! Deterministic fault-injection property tests for the whole pipeline
//! (tentpole part 5 of the robustness PR).
//!
//! One seeded [`FaultPlan`] at a time is installed over the pipeline's
//! three crash-prone seams — cache-spill I/O, worker-job panics, and ILP
//! budget exhaustion — and the properties checked are:
//!
//! 1. **no panic ever escapes** `Optimizer::run_all`, under any of the
//!    ≥100 seeds (injected worker panics surface as per-model
//!    [`WfError::JobPanic`] slots);
//! 2. every fault surfaces as a **typed, degradable error** (never
//!    `Parse`/`Io`/`Invalid`, which would mislabel an injected fault);
//! 3. with [`Optimizer::fallback`], every slot is `Ok` — recoverable
//!    faults degrade to the original-program-order schedule and say so in
//!    [`Optimized::degraded`];
//! 4. injection is **deterministic**: the same seed over a serial run
//!    reproduces the same per-model outcomes;
//! 5. after `fault::disable()` the pipeline's results are **identical**
//!    to the pre-fault baseline (fault machinery has zero residue);
//! 6. forced solver-memo misses (`polyhedra.memo` Io faults) are
//!    **unobservable** in results: a forced-miss run is byte-identical
//!    to the warm run it shadows.
//!
//! Everything lives in a single `#[test]` because the fault plan, the
//! schedule cache, and `WF_CACHE_DIR` are process-global; parallel test
//! threads would race on them.

use std::panic::{self, AssertUnwindSafe};
use wf_harness::fault::{self, FaultPlan};
use wf_runtime::{ExecContext, ProgramData};
use wf_scop::{Aff, Expr, Scop, ScopBuilder};
use wf_wisefuse::{cache, plan_from_optimized, Model, Optimized, Optimizer, WfError};

/// Two producer/consumer statements — small enough that 240 fault runs
/// stay fast, real enough that every seam (dependence ILP, fusion ILP,
/// pool jobs, cache spill) is exercised.
fn small_scop() -> Scop {
    let mut b = ScopBuilder::new("faulty", &["N"]);
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

type Runs = Vec<(Model, Result<Optimized, WfError>)>;

fn run_all(scop: &Scop, threads: usize, fallback: bool, cached: bool) -> Runs {
    let mut o = Optimizer::new(scop).threads(threads);
    if fallback {
        o = o.fallback();
    }
    if !cached {
        o = o.cache_off();
    }
    o.run_all()
}

fn same_runs(a: &Runs, b: &Runs) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ma, ra), (mb, rb))| {
            ma == mb
                && match (ra, rb) {
                    (Ok(x), Ok(y)) => {
                        x.transformed == y.transformed
                            && x.props == y.props
                            && x.degraded == y.degraded
                    }
                    (Err(x), Err(y)) => x == y,
                    _ => false,
                }
        })
}

#[test]
fn pipeline_survives_every_injected_fault() {
    // Route the spill through a scratch dir so `cache.spill_read` /
    // `cache.spill_write` faults actually fire (safe: this test binary is
    // its own process and this is its only test).
    let spill = std::env::temp_dir().join(format!("wf-fault-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    std::fs::create_dir_all(&spill).expect("scratch spill dir");
    std::env::set_var("WF_CACHE_DIR", &spill);

    let scop = small_scop();

    // Fault-free baseline, cache bypassed so later cache traffic cannot
    // influence the byte-identity check in property 5.
    fault::disable();
    let baseline = run_all(&scop, 1, false, false);
    for (m, r) in &baseline {
        assert!(r.is_ok(), "{m:?} must schedule fault-free");
    }

    // Silence the default per-panic backtrace spew for the ~hundreds of
    // injected panics; restored before the test returns.
    let quiet = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));

    let (mut errs, mut panics, mut budgets, mut degraded) = (0u32, 0u32, 0u32, 0u32);
    for seed in 0..120u64 {
        // Strict pass: faults must surface as typed, degradable errors.
        // It bypasses the schedule cache and starts from an empty solver
        // memo, so every model really solves and the ILP budget site is
        // consulted; otherwise the spill and the memo answer every seed
        // after the first and budget faults almost never fire.
        wf_polyhedra::memo::clear();
        fault::install(FaultPlan::all(seed, 300));
        let runs = panic::catch_unwind(AssertUnwindSafe(|| run_all(&scop, 4, false, false)))
            .unwrap_or_else(|_| panic!("seed {seed}: a panic escaped run_all"));
        assert_eq!(runs.len(), Model::ALL.len());
        for (m, r) in &runs {
            if let Err(e) = r {
                errs += 1;
                assert!(
                    e.is_degradable(),
                    "seed {seed}: {m:?} surfaced a non-degradable {e:?} for an injected fault"
                );
                match e {
                    WfError::JobPanic { .. } => panics += 1,
                    WfError::Budget { .. } => budgets += 1,
                    _ => {}
                }
            }
        }

        // Fallback pass: the same fault climate, but every slot must come
        // back Ok — degraded slots say why. This pass goes through the
        // cache, so the spill I/O sites are consulted.
        cache::clear(); // force spill reads so Io sites are consulted
        fault::install(FaultPlan::all(seed, 300));
        let runs = panic::catch_unwind(AssertUnwindSafe(|| run_all(&scop, 4, true, true)))
            .unwrap_or_else(|_| panic!("seed {seed}: a panic escaped the fallback run"));
        for (m, r) in &runs {
            let opt = r
                .as_ref()
                .unwrap_or_else(|e| panic!("seed {seed}: {m:?} not degraded under fallback: {e}"));
            if let Some(reason) = &opt.degraded {
                degraded += 1;
                assert!(
                    reason.contains(m.name()),
                    "degradation note must name the model: {reason}"
                );
            }
        }
    }

    // At a 30% per-visit rate over 120 seeds the harness must actually
    // have fired every fault class it claims to cover.
    assert!(errs > 0, "no injected fault ever surfaced");
    assert!(panics > 0, "no injected job panic was contained");
    assert!(budgets > 0, "no injected budget exhaustion surfaced");
    assert!(degraded > 0, "no fallback degradation ever happened");

    // Property 4: serial + same seed => byte-identical outcomes, errors
    // included.
    fault::install(FaultPlan::all(42, 300));
    let first = run_all(&scop, 1, false, false);
    fault::install(FaultPlan::all(42, 300));
    let second = run_all(&scop, 1, false, false);
    assert!(
        same_runs(&first, &second),
        "seed 42 must reproduce identical injections on a serial run"
    );

    // Property 4b: the pooled executor under site-targeted partition
    // faults. Panics injected at `runtime.partition` must surface as
    // typed degradable `JobPanic` errors, never escape, reproduce under
    // the same seed, and leave no residue once disabled.
    fault::disable();
    let opt = wf_wisefuse::optimize(&scop, Model::Wisefuse).expect("wisefuse fault-free");
    let plan = plan_from_optimized(&scop, &opt);
    let mut init = ProgramData::new(&scop, &[32]);
    init.init_random(11);
    let mut expected = init.clone();
    ExecContext::with_threads(4)
        .execute(&scop, &opt.transformed, &plan, &mut expected)
        .expect("fault-free pooled execution");

    let mut exec_panics = 0u32;
    let exec_under = |seed: u64, threads: usize, init: &ProgramData| {
        fault::install(FaultPlan {
            site: Some("runtime.partition".to_string()),
            ..FaultPlan::all(seed, 300)
        });
        let mut data = init.clone();
        let r = panic::catch_unwind(AssertUnwindSafe(|| {
            ExecContext::with_threads(threads).execute(&scop, &opt.transformed, &plan, &mut data)
        }))
        .unwrap_or_else(|_| panic!("seed {seed}: a partition panic escaped the executor"));
        (r, data)
    };
    for seed in 0..120u64 {
        let (r, data) = exec_under(seed, 4, &init);
        match r {
            Ok(()) => assert!(
                data == expected,
                "seed {seed}: un-faulted pooled run diverged"
            ),
            Err(e) => {
                exec_panics += 1;
                assert!(
                    matches!(e, WfError::JobPanic { .. }) && e.is_degradable(),
                    "seed {seed}: injected partition fault surfaced as {e:?}"
                );
            }
        }
    }
    assert!(
        exec_panics > 0,
        "no partition fault ever fired in 120 seeds"
    );
    let (first_exec, _) = exec_under(42, 4, &init);
    let (second_exec, _) = exec_under(42, 4, &init);
    assert_eq!(
        first_exec.is_ok(),
        second_exec.is_ok(),
        "seed 42 must reproduce the same executor outcome"
    );

    // Property 4c: the solver memo under site-targeted forced misses.
    // An Io fault at `polyhedra.memo` makes a memo lookup miss and
    // re-solve cold; since hits are byte-identical to cold solves by
    // construction, every forced-miss run must reproduce the warm
    // baseline exactly — the memo can change timings, never results.
    fault::disable();
    let warm = run_all(&scop, 1, false, false);
    let memo_before = wf_polyhedra::memo::stats();
    for seed in 0..120u64 {
        fault::install(FaultPlan {
            site: Some("polyhedra.memo".to_string()),
            ..FaultPlan::all(seed, 300)
        });
        let forced = run_all(&scop, 1, false, false);
        assert!(
            same_runs(&warm, &forced),
            "seed {seed}: memo-forced-miss run diverged from the warm run"
        );
    }
    fault::disable();
    let memo_after = wf_polyhedra::memo::stats();
    assert!(
        memo_after.misses > memo_before.misses,
        "no forced memo miss ever fired across 120 seeds ({memo_before:?} -> {memo_after:?})"
    );

    panic::set_hook(quiet);

    // Property 5: faults off => results identical to the pre-fault
    // baseline; the injection machinery leaves no residue.
    fault::disable();
    let replay = run_all(&scop, 1, false, false);
    assert!(
        same_runs(&baseline, &replay),
        "fault-free replay diverged from the pre-fault baseline"
    );

    // And the spill survives the abuse: a fault-free cached run still
    // schedules everything (corrupt entries were quarantined, not fatal).
    cache::clear();
    let cached = run_all(&scop, 4, false, true);
    for (m, r) in &cached {
        assert!(r.is_ok(), "{m:?} failed through the post-fault spill");
    }

    std::env::remove_var("WF_CACHE_DIR");
    let _ = std::fs::remove_dir_all(&spill);
}
