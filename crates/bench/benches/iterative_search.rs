//! The iterative-compilation comparison (paper §6): exhaustively enumerate
//! every legal fusion partitioning of a *small* kernel (advect, 4 SCCs),
//! schedule and price each on the machine model, and place wisefuse's
//! single static choice within that space. Then show why the same search is
//! hopeless for the large programs ("the iterative compilation framework
//! fails to build the search space for even moderately sized programs").
//!
//! ```bash
//! cargo bench -p wf-bench --bench iterative_search
//! ```

use wf_bench::BenchReport;
use wf_benchsuite::by_name;
use wf_cachesim::perf::{model_performance, MachineModel};
use wf_codegen::plan::build_plan;
use wf_deps::enumerate::{linear_extensions, ln_count_fusion_partitionings};
use wf_deps::{analyze, tarjan, Ddg, SccInfo};
use wf_harness::json::Json;
use wf_runtime::ProgramData;
use wf_schedule::fusion::failure_boundary;
use wf_schedule::pluto::SchedState;
use wf_schedule::props::{self, LoopProp};
use wf_schedule::{schedule_scop, FusionStrategy, PlutoConfig};
use wf_scop::Scop;
use wf_wisefuse::cache::{self, Fingerprint};
use wf_wisefuse::pipeline::Optimized;
use wf_wisefuse::{Model, Optimizer};

/// A fully specified candidate: SCC order + cut boundaries.
struct FixedPartitioning {
    order: Vec<usize>,
    boundaries: Vec<usize>,
}

impl FusionStrategy for FixedPartitioning {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn pre_fusion_order(&self, _: &Scop, _: &Ddg, _: &SccInfo) -> Vec<usize> {
        self.order.clone()
    }
    fn initial_cuts(&self, _: &SchedState<'_>) -> Vec<usize> {
        self.boundaries.clone()
    }
    fn cuts_on_failure(&self, state: &SchedState<'_>, failed: &[usize]) -> Vec<usize> {
        // Legality may force extra cuts beyond the candidate's spec; such a
        // candidate degenerates into a finer partitioning (counted as-is).
        failure_boundary(state, failed)
    }
}

fn main() {
    let machine = MachineModel::default();
    let bench = by_name("advect").expect("advect");
    let scop = &bench.scop;
    let params = &bench.bench_params;
    let ddg = std::sync::Arc::new(analyze(scop));
    let sccs = tarjan(&ddg);
    let n = sccs.len();

    // Precedence edges between SCCs.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for e in &ddg.edges {
        let (a, b) = (sccs.scc_of[e.src], sccs.scc_of[e.dst]);
        if a != b && !edges.contains(&(a, b)) {
            edges.push((a, b));
        }
    }
    let orders = linear_extensions(n, &edges, 10_000);
    let total = orders.len() << (n - 1);
    println!(
        "advect: {} SCCs, {} legal orderings x {} cut placements = {} candidates\n",
        n,
        orders.len(),
        1usize << (n - 1),
        total
    );

    let mut results: Vec<(f64, String)> = Vec::new();
    for order in &orders {
        for cutmask in 0..(1usize << (n - 1)) {
            let boundaries: Vec<usize> = (1..n).filter(|b| cutmask & (1 << (b - 1)) != 0).collect();
            let strat = FixedPartitioning {
                order: order.clone(),
                boundaries,
            };
            let Ok(t) = schedule_scop(scop, &ddg, &strat, &PlutoConfig::default()) else {
                continue;
            };
            let p = props::analyze(scop, &ddg, &t);
            let par: Vec<Vec<bool>> = p
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|x| matches!(x, Some(LoopProp::Parallel)))
                        .collect()
                })
                .collect();
            let plan = build_plan(scop, &t, par);
            let partitions = t.partitions.clone();
            let opt = Optimized {
                model: Model::Wisefuse,
                ddg: std::sync::Arc::clone(&ddg),
                transformed: t,
                props: p,
                degraded: None,
            };
            let mut data = ProgramData::new(scop, params);
            data.init_lcg(1);
            let r = model_performance(scop, &opt, &plan, &mut data, &machine);
            results.push((
                r.modeled_seconds,
                format!(
                    "order {order:?} cuts {cutmask:0width$b} -> partitions {partitions:?}",
                    width = n - 1
                ),
            ));
        }
    }
    results.sort_by(|a, b| a.0.total_cmp(&b.0));
    println!(
        "evaluated {} schedulable candidates; best five:",
        results.len()
    );
    for (secs, desc) in results.iter().take(5) {
        println!("  {secs:.4}s  {desc}");
    }
    println!("  ...");
    for (secs, desc) in results.iter().rev().take(2).rev() {
        println!("  {secs:.4}s  {desc}");
    }

    // The exhaustive loop already computed the DDG; the facade reuses it
    // for wisefuse's own static choice.
    let wise = Optimizer::new(scop)
        .model(Model::Wisefuse)
        .with_ddg(Ddg::clone(&ddg))
        .run()
        .expect("schedulable");
    let plan = wf_wisefuse::plan_from_optimized(scop, &wise);
    let mut data = ProgramData::new(scop, params);
    data.init_lcg(1);
    let wr = model_performance(scop, &wise, &plan, &mut data, &machine);
    let best = results.first().map_or(f64::INFINITY, |r| r.0);
    println!(
        "\nwisefuse's static choice: {:.4}s = {:.1}% of the exhaustive optimum ({:.4}s)",
        wr.modeled_seconds,
        best / wr.modeled_seconds * 100.0,
        best
    );
    let mut report = BenchReport::new("iterative_search");
    report.set("bench", "advect");
    report.set("candidates", total);
    report.set("schedulable", results.len());
    report.set("best_modeled_seconds", best);
    report.set("wisefuse_modeled_seconds", wr.modeled_seconds);
    report.set("wisefuse_pct_of_optimum", best / wr.modeled_seconds * 100.0);

    // == cache-aware config sweep: incremental fingerprints ==
    // A second search axis varies only the engine tunables, so every
    // candidate's schedule-cache key shares the SCoP digest: one base
    // fingerprint is computed up front and each candidate derives its key
    // through `Fingerprint::with_config`, which rehashes the seven config
    // knobs and never re-renders the SCoP's canonical text. Two passes
    // over the sweep measure the per-search hit rate (the second pass
    // must be answered entirely from the cache) and the solver-memo
    // traffic underneath.
    println!("\n== cache-aware config sweep (incremental fingerprints) ==");
    let sweep: Vec<PlutoConfig> = (1..=6)
        .map(|w| PlutoConfig {
            max_fusion_width: w,
            ..PlutoConfig::default()
        })
        .collect();
    let t0 = std::time::Instant::now();
    let base = Fingerprint::new(scop, Model::Wisefuse, &PlutoConfig::default());
    let base_fp_seconds = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let keys: Vec<Fingerprint> = sweep.iter().map(|cfg| base.with_config(cfg)).collect();
    let delta_fp_seconds = t0.elapsed().as_secs_f64();
    let memo_before = wf_polyhedra::memo::stats();
    let mut pass_hit_rates = Vec::new();
    for pass in 0..2 {
        let (mut hits, mut lookups) = (0u64, 0u64);
        for (cfg, fp) in sweep.iter().zip(&keys) {
            lookups += 1;
            let cached = cache::global().lock().expect("schedule cache").lookup(fp);
            if cached.is_some() {
                hits += 1;
                continue;
            }
            if let Ok(t) = schedule_scop(scop, &ddg, &wf_wisefuse::Wisefuse, cfg) {
                cache::global()
                    .lock()
                    .expect("schedule cache")
                    .insert(*fp, &t);
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let rate = hits as f64 / lookups.max(1) as f64 * 100.0;
        println!("  pass {pass}: {lookups} candidates, {hits} cache hits ({rate:.0}% hit rate)");
        pass_hit_rates.push(rate);
    }
    let memo_sweep = wf_polyhedra::memo::stats();
    let solver_lookups = memo_sweep.lookups() - memo_before.lookups();
    let solver_hits = memo_sweep.hits - memo_before.hits;
    println!(
        "  fingerprints: base {base_fp_seconds:.6}s once, {} deltas {delta_fp_seconds:.6}s total \
         (no SCoP re-render per candidate)",
        keys.len()
    );
    println!("  solver memo under the sweep: {solver_hits}/{solver_lookups} hits");
    report.set("sweep_candidates", sweep.len());
    report.set("sweep_cold_hit_rate_pct", pass_hit_rates[0]);
    report.set("sweep_warm_hit_rate_pct", pass_hit_rates[1]);
    report.set("sweep_base_fingerprint_seconds", base_fp_seconds);
    report.set("sweep_delta_fingerprint_seconds", delta_fp_seconds);
    report.set("sweep_solver_memo_hits", solver_hits);
    report.set("sweep_solver_memo_lookups", solver_lookups);
    assert!(
        pass_hit_rates[1] >= 100.0,
        "warm sweep pass must be answered entirely from the schedule cache"
    );

    // And the §6 point: this search does not scale.
    println!("\n== why iterative search fails on the large programs (paper §6) ==");
    for name in ["gemsfdtd", "applu", "swim"] {
        let b = by_name(name).unwrap();
        let d = analyze(&b.scop);
        let s = tarjan(&d);
        let mut es: Vec<(usize, usize)> = Vec::new();
        for e in &d.edges {
            let (x, y) = (s.scc_of[e.src], s.scc_of[e.dst]);
            if x != y && !es.contains(&(x, y)) {
                es.push((x, y));
            }
        }
        let (ln_count, exact) = ln_count_fusion_partitionings(s.len(), &es);
        let log10_count = ln_count / std::f64::consts::LN_10;
        let secs_per_candidate = 2.0f64; // optimistic: schedule + model once
        let log10_years = log10_count + (secs_per_candidate / (3600.0 * 24.0 * 365.0)).log10();
        let qual = if exact { "" } else { ">= " };
        println!(
            "  {name:<9} {:>2} SCCs -> {qual}~10^{log10_count:.1} legal partitionings \
             ({qual}~10^{log10_years:.1} years at 2 s each)",
            s.len()
        );
        report.row([
            ("bench", Json::str(name)),
            ("sccs", Json::from(s.len())),
            ("log10_partitionings", Json::Num(log10_count)),
            ("exact", Json::Bool(exact)),
        ]);
    }
    let path = report.write();
    println!("results: {}", path.display());
}
