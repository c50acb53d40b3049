//! The per-layer metrics of a traced run.

use crate::compile::Pass;
use crate::kernels::{KernelRow, KernelSetup};
use crate::probes;
use crate::spans::{self, Span};
use crate::spec::{self, Program, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use wf_harness::obs::MetricsSnapshot;
use wf_wisefuse::cache;
use wf_wisefuse::Model;

pub struct LayerInputs<'a> {
    pub spans: &'a [Span],
    /// Counter deltas over the compile passes, and over what followed.
    pub counters: &'a MetricsSnapshot,
    pub check_counters: &'a MetricsSnapshot,
    pub programs: &'a [Program],
    pub last: &'a Pass,
    pub passes: usize,
    pub compile_s: f64,
    pub kernel_rows: &'a [KernelRow],
    pub kernel_setup: &'a KernelSetup,
    pub spill: &'a Path,
    pub probe_dir: PathBuf,
    pub smoke: bool,
}

/// `a / b`, or 0.0 when nothing was measured for `b`.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    ratio(part, whole) * 100.0
}

/// The per-layer metrics of a traced run: span totals per pass, counter
/// deltas of `wf_harness::obs::metrics()`, sizes read off the compile
/// output, and the direct probes.
pub fn per_layer(x: &LayerInputs) -> BTreeMap<String, f64> {
    let spans = x.spans;
    let totals = spans::totals_by_key(spans);
    let passes = x.passes as f64;
    // Compile-side spans repeat every pass; report them per pass.
    let per_pass = |key: &str| totals.get(key).copied().unwrap_or(0.0) / passes;
    let total = |key: &str| totals.get(key).copied().unwrap_or(0.0);
    let count = |name: &str| x.counters.counter(name) as f64;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        assert!(
            PER_LAYER.iter().any(|(known, _, _)| *known == name),
            "{name} is not in the PER_LAYER table"
        );
        out.insert(name.to_string(), value);
    };

    let op_s = per_pass("op");
    set("scop.parse_s", per_pass("scop.parse"));
    set(
        "scop.text_bytes",
        x.programs.iter().map(|p| p.text.len() as f64).sum(),
    );
    set(
        "scop.statements",
        x.last
            .ops
            .iter()
            .filter_map(|op| op.scop.as_ref())
            .map(|s| s.n_statements() as f64)
            .sum(),
    );

    set("deps.analyze_s", per_pass("deps.analyze"));
    let ddgs = || {
        x.last
            .ops
            .iter()
            .filter_map(|op| op.pairs.first().map(|p| &p.opt))
    };
    set(
        "deps.edges",
        ddgs()
            .map(|o| (o.ddg.edges.len() + o.ddg.rar.len()) as f64)
            .sum(),
    );
    set(
        "deps.sccs",
        ddgs().map(|o| o.transformed.sccs.len() as f64).sum(),
    );
    set(
        "deps.fm_prune_ms",
        x.last.ops.iter().map(|op| op.deps_fm_prune_ms as f64).sum(),
    );
    set("deps.share_pct", pct(per_pass("deps.analyze"), op_s));

    let mut run_model_s = 0.0;
    for m in Model::ALL {
        let secs = per_pass(&format!("core.run_model.{}", m.name()));
        run_model_s += secs;
        set(&format!("core.run_model_s.{}", m.name()), secs);
        let of_model = || x.last.pairs().filter(move |p| p.model == m);
        set(
            &format!("core.partitions.{}", m.name()),
            of_model().map(|p| p.opt.n_partitions() as f64).sum(),
        );
        set(
            &format!("codegen.c_bytes.{}", m.name()),
            of_model().map(|p| p.c.len() as f64).sum(),
        );
    }
    set("core.run_model_s", run_model_s);
    set("core.algorithm1_s", per_pass("core.algorithm1"));
    // `run_model` ends with the property analysis; the separate call on
    // its result prices that part, the rest is the schedule search.
    let search_s = (run_model_s - per_pass("schedule.props")).max(0.0);
    set("schedule.props_s", per_pass("schedule.props"));
    set("schedule.search_s", search_s);
    set("schedule.share_pct", pct(search_s, op_s));
    set("schedule.cuts", count("sched.cuts") / passes);
    set("schedule.farkas_systems", count("farkas.systems") / passes);
    set("schedule.farkas_rows", count("farkas.rows") / passes);

    let cells = count("simplex.cells") / passes;
    let pivots = count("simplex.pivots") / passes;
    set("polyhedra.simplex_cells", cells);
    set("polyhedra.simplex_pivots", pivots);
    set("polyhedra.cells_per_pivot", ratio(cells, pivots));
    set("polyhedra.cells_per_s", ratio(cells, search_s));
    set("polyhedra.ilp_solves", count("ilp.solves") / passes);
    set("polyhedra.ilp_nodes", count("ilp.nodes") / passes);
    set(
        "polyhedra.ilp_budget_exhausted",
        count("ilp.budget_exhausted"),
    );
    set(
        "polyhedra.fm_eliminations",
        count("fm.eliminations") / passes,
    );
    set("polyhedra.fm_prunes", count("fm.prunes") / passes);
    set("polyhedra.fm_prune_ms", count("fm.prune_ms") / passes);
    set("polyhedra.memo_hits", count("memo.hit") / passes);
    set("polyhedra.memo_misses", count("memo.miss") / passes);
    set(
        "polyhedra.memo_hit_pct",
        pct(count("memo.hit"), count("memo.hit") + count("memo.miss")),
    );
    set("polyhedra.lp_probe_cells_per_s", probes::lp_cells_per_s());
    set("polyhedra.fm_probe_prune_s", probes::fm_prune_s());
    set("linalg.rat_axpy_ns", probes::rat_axpy_ns());

    let (hits, misses) = (
        count("cache.hit") + count("cache.spill_hit"),
        count("cache.miss"),
    );
    set("core.cache_stores", count("cache.store") / passes);
    set("core.cache_spill_hits", count("cache.spill_hit") / passes);
    set("core.cache_misses", misses / passes);
    set("core.cache_hit_pct", pct(hits, hits + misses));
    let entries = x.last.ops.iter().flat_map(|op| {
        op.scop
            .iter()
            .flat_map(move |scop| op.pairs.iter().map(move |p| (scop, p)))
    });
    let (store_s, read_s) = probes::spill_round_trip(&x.probe_dir, entries);
    set("core.cache_spill_store_s", store_s);
    set("core.cache_spill_read_s", read_s);
    set("core.spill_bytes", cache::spill_usage(x.spill).1 as f64);
    set("core.degraded", count("optimizer.degraded"));

    set("verify.check_s", total("verify.check"));
    set(
        "verify.checks",
        x.check_counters.counter("verify.checks") as f64,
    );
    set(
        "verify.rejects",
        x.check_counters.counter("verify.rejects") as f64,
    );

    set("codegen.plan_s", per_pass("codegen.plan"));
    set("codegen.render_s", per_pass("codegen.render"));
    set("codegen.emit_c_s", per_pass("codegen.emit_c"));
    set("codegen.plans", count("codegen.plans") / passes);

    let mut interp_s = 0.0;
    for m in spec::FOUR_MODELS {
        let secs = total(&format!("runtime.execute.{}", m.name()));
        interp_s += secs;
        set(&format!("runtime.execute_s.{}", m.name()), secs);
        set(
            &format!("native.kernel_s.{}", m.name()),
            x.kernel_rows
                .iter()
                .filter(|r| r.model == m)
                .map(|r| r.native_s)
                .sum(),
        );
    }
    set("runtime.reference_s", x.kernel_setup.reference_s);
    let perfs = || x.kernel_rows.iter().filter_map(|r| r.perf.as_ref());
    let parts = || perfs().flat_map(|p| &p.partitions);
    let modeled_interp_s: f64 = x
        .kernel_rows
        .iter()
        .filter(|r| r.perf.is_some())
        .map(|r| r.interp_s)
        .sum();
    let instances: f64 = parts().map(|p| p.instances as f64).sum();
    set(
        "runtime.instances_per_s",
        ratio(instances, modeled_interp_s),
    );
    set(
        "runtime.parallel_bands",
        x.check_counters.counter("runtime.parallel_bands") as f64,
    );

    let accesses: f64 = parts().map(|p| p.hits.iter().sum::<u64>() as f64).sum();
    let l1_hits: f64 = parts().map(|p| p.hits[0] as f64).sum();
    set("cachesim.model_s", total("cachesim.model"));
    set("cachesim.accesses", accesses);
    set("cachesim.l1_miss_pct", pct(accesses - l1_hits, accesses));
    set(
        "cachesim.mem_accesses",
        parts().map(|p| p.hits[3] as f64).sum(),
    );
    set(
        "cachesim.modeled_serial_s",
        perfs().map(|p| p.serial_seconds).sum(),
    );

    let native_s: f64 = x.kernel_rows.iter().map(|r| r.native_s).sum();
    set("native.cc_s", x.kernel_setup.cc_s);
    set("native.vs_interp_x", ratio(interp_s, native_s));

    let probe_program = if x.smoke { "advect" } else { "applu" };
    let bench = wf_benchsuite::by_name(probe_program).expect("catalog program");
    let pool = probes::pool(&bench.scop);
    set("harness.analyze_serial_s", pool.analyze_serial_s);
    set("harness.analyze_par_s", pool.analyze_par_s);
    set("harness.run_all_serial_s", pool.run_all_serial_s);
    set("harness.run_all_par_s", pool.run_all_par_s);

    set("trace.compile_s", x.compile_s);
    set("trace.passes", passes);
    set("trace.spans", spans.len() as f64);
    set("trace.unaccounted_pct", spans::unaccounted_pct(spans, "op"));
    out
}
