//! Ablation study: what each wisefuse ingredient contributes, on the
//! modeled 8-core machine.
//!
//! Variants:
//! * full wisefuse (Algorithm 1 + Algorithm 2),
//! * `no-rar`  — Algorithm 1 blind to input dependences,
//! * `no-alg2` — Algorithm 1 without the parallelism-restoring cuts,
//! * `dfs+alg2`— PLuTo's DFS order with Algorithm 2 bolted on,
//! * smartfuse — the PLuTo baseline (neither ingredient).
//!
//! ```bash
//! cargo bench -p wf-bench --bench ablation
//! ```

use wf_bench::BenchReport;
use wf_benchsuite::catalog;
use wf_cachesim::perf::{model_performance, MachineModel};
use wf_codegen::plan::build_plan;
use wf_deps::analyze;
use wf_harness::json::Json;
use wf_runtime::ProgramData;
use wf_schedule::props::{self, LoopProp};
use wf_schedule::{schedule_scop, FusionStrategy, PlutoConfig, Smartfuse};
use wf_wisefuse::ablation::{Algorithm2Only, NoAlgorithm2, NoRar};
use wf_wisefuse::pipeline::Optimized;
use wf_wisefuse::{Model, Wisefuse};

fn main() {
    let machine = MachineModel::default();
    let variants: Vec<(&str, &dyn FusionStrategy)> = vec![
        ("wisefuse", &Wisefuse),
        ("no-rar", &NoRar),
        ("no-alg2", &NoAlgorithm2),
        ("dfs+alg2", &Algorithm2Only),
        ("smartfuse", &Smartfuse),
    ];
    println!(
        "== ablation: normalized modeled performance (baseline = full wisefuse), {} cores ==\n",
        machine.cores
    );
    print!("{:<10}", "benchmark");
    for (name, _) in &variants {
        print!(" {name:>10}");
    }
    println!("   (1.00 = wisefuse; lower = slower)");
    let mut report = BenchReport::new("ablation");
    report.set("cores", machine.cores);
    report.set("baseline", "wisefuse");
    for b in catalog() {
        // The ablation story concentrates on the programs where the
        // heuristics matter; small single-nest kernels tie by construction.
        if !matches!(b.name, "swim" | "gemsfdtd" | "applu" | "advect") {
            continue;
        }
        let ddg = std::sync::Arc::new(analyze(&b.scop));
        let mut base = None;
        let mut row: Vec<(&'static str, Json)> = vec![("bench", Json::str(b.name))];
        print!("{:<10}", b.name);
        for (vname, strat) in &variants {
            let t = schedule_scop(&b.scop, &ddg, *strat, &PlutoConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let p = props::analyze(&b.scop, &ddg, &t);
            let par: Vec<Vec<bool>> = p
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|x| matches!(x, Some(LoopProp::Parallel)))
                        .collect()
                })
                .collect();
            let plan = build_plan(&b.scop, &t, par);
            // Wrap into the pipeline's result shape for the model.
            let opt = Optimized {
                model: Model::Wisefuse,
                ddg: std::sync::Arc::clone(&ddg),
                transformed: t,
                props: p,
                degraded: None,
            };
            let mut data = ProgramData::new(&b.scop, &b.bench_params);
            data.init_random(31);
            let r = model_performance(&b.scop, &opt, &plan, &mut data, &machine);
            let secs = r.modeled_seconds;
            let base_secs = *base.get_or_insert(secs);
            row.push((*vname, Json::Num(base_secs / secs)));
            print!(" {:>10.2}", base_secs / secs);
        }
        report.row(row);
        println!();
    }
    let path = report.write();
    println!("results: {}", path.display());
    println!("\nExpected shape: no-alg2 collapses on advect/swim-class programs (outer");
    println!("loop pipelined); no-rar and dfs+alg2 lose fusion reuse on swim/gemsfdtd/applu.");
}
