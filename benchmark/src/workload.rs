//! One workload, run in this process on one thread: set-up, compile
//! passes, checks, kernel side, and the metrics the run reports.

use crate::compile::{compile_op, compile_pass, Pass};
use crate::host;
use crate::kernels::{check_op, run_kernels, KernelRow, KernelSetup, NativeToolchain, Tally};
use crate::layers::{per_layer, LayerInputs};
use crate::spans::{self, Tracer};
use crate::spec::{self, Program, Scale, Workload, END_TO_END, PER_LAYER};
use crate::stats::{geomean, median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wf_harness::json::Json;
use wf_harness::obs;
use wf_wisefuse::cache::{self, Fingerprint, SpillOutcome};
use wf_wisefuse::Model;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Measure at least this long (whole passes; at least one).
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What one run reports on its result line (the per-op rows go to a file).
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Every end-to-end metric (untraced) or every per-layer one (traced).
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Sample count behind each metric that is a statistic.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Outcome {
    /// The last line of standard output the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
                (name.to_string(), entry)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failures.len())),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `catalog_warm` and `kernels` read schedules from the spill directory;
/// a run started alone stores whatever is missing first (a cold compile of
/// that program), inside set-up.
fn fill_spill(tr: &Tracer, dir: &Path, programs: &[Program], data_seed: u64) -> usize {
    let config = wf_schedule::PlutoConfig::default();
    let mut filled = 0;
    for (i, prog) in programs.iter().enumerate() {
        let Ok(scop) = wf_scop::text::parse(&prog.text) else {
            continue; // the compile pass reports it
        };
        let stored = |&m: &Model| {
            matches!(
                cache::spill_read(dir, &Fingerprint::new(&scop, m, &config)),
                SpillOutcome::Hit(_)
            )
        };
        if !prog.models.iter().all(stored) {
            compile_op(tr, u32::MAX, i, prog, data_seed, false);
            filled += 1;
        }
    }
    filled
}

pub fn run(args: &RunArgs) -> std::io::Result<Outcome> {
    let w = args.workload;
    let setup_clock = Instant::now();
    let results = host::results_dir();
    let work = WorkDir(results.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0)?;
    let spill = if w.schedules_cold() {
        work.0.join("spill")
    } else {
        host::shared_spill_dir()?
    };
    // The process-wide schedule cache spills where `WF_CACHE_DIR` points;
    // nothing else has started a thread yet.
    std::env::set_var("WF_CACHE_DIR", &spill);
    if args.trace {
        obs::set_enabled(obs::METRICS);
    }
    let tr = Tracer::new(args.trace);
    let setup_tr = Tracer::new(false);
    let data_seed = spec::data_seed(args.seed);
    let programs = spec::op_list(w, args.seed, &args.scale);
    let cc = NativeToolchain::new(&work.0.join("native"))?;
    if !w.schedules_cold() {
        let filled = fill_spill(&setup_tr, &spill, &programs, data_seed);
        if filled > 0 {
            eprintln!(
                "[{}] set-up scheduled {filled} programs into {}",
                w.name(),
                spill.display()
            );
        }
    }
    let mut setup_s = setup_clock.elapsed().as_secs_f64();

    // Compile passes.
    let counters_before = obs::metrics();
    let mut passes: Vec<Pass> = Vec::new();
    let mut measured = 0.0;
    loop {
        if w == Workload::CatalogCold {
            cache::spill_clear(&spill)?;
        }
        let first_op = (passes.len() * programs.len()) as u32;
        let pass = compile_pass(&tr, &programs, data_seed, first_op, args.trace);
        measured += pass.wall_s;
        eprintln!(
            "[{}] pass {}: {:.3} s",
            w.name(),
            passes.len() + 1,
            pass.wall_s
        );
        passes.push(pass);
        // The kernel side is what `kernels` measures; its compile side
        // runs once.
        if measured >= args.seconds || w == Workload::Kernels {
            break;
        }
    }
    let last = passes.last().expect("at least one pass ran");
    let counters_after_passes = obs::metrics();
    let compile_counters = counters_after_passes.delta(&counters_before);

    // Checks and the kernel side, on the last pass's output.
    let mut tally = Tally::default();
    for pass in &passes {
        for op in &pass.ops {
            for why in &op.failures {
                tally.check(false, || why.clone());
            }
            tally.attempted += op.pairs.len() as u64;
        }
    }
    let digests: Vec<u64> = passes.iter().map(|p| p.code_digest(&programs)).collect();
    tally.check(digests.windows(2).all(|d| d[0] == d[1]), || {
        "emitted C differs between passes".to_string()
    });
    let mut kernel_setup = KernelSetup::default();
    let mut kernel_rows: Vec<KernelRow> = Vec::new();
    for (i, op) in last.ops.iter().enumerate() {
        let (prog, op_id) = (&programs[op.program], 1_000_000 + i as u32);
        let (hash, _) = tr.time("check", "", op_id, || {
            check_op(&tr, op_id, prog, op, data_seed, &mut tally)
        });
        kernel_rows.extend(
            tr.time("kernels", "", op_id, || {
                let setup = &mut kernel_setup;
                run_kernels(
                    &tr, op_id, prog, op, hash, data_seed, &cc, setup, &mut tally,
                )
            })
            .0,
        );
    }
    // Reference executions and cc builds prepare the measurement; the
    // differential and oracle checks are not set-up but are not measured
    // either.
    setup_s += kernel_setup.reference_s + kernel_setup.cc_s;
    let check_counters = obs::metrics().delta(&counters_after_passes);

    let kernel_sum = |f: fn(&KernelRow) -> f64| kernel_rows.iter().map(f).sum::<f64>();
    let gain = |f: fn(&KernelRow) -> f64| {
        let ratios: Vec<f64> = programs
            .iter()
            .filter_map(|p| {
                let of = |m| {
                    kernel_rows
                        .iter()
                        .find(|r| r.program == p.name && r.model == m)
                };
                let (base, ours) = (of(Model::Smartfuse)?, of(Model::Wisefuse)?);
                Some(if f(ours) > 0.0 {
                    f(base) / f(ours)
                } else {
                    0.0
                })
            })
            .collect();
        geomean(&ratios)
    };
    let op_seconds: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ops.iter().map(|op| op.seconds))
        .collect();
    let pass_seconds: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let compile_s = median(&pass_seconds);

    let mut samples = BTreeMap::new();
    let (metrics, trace_doc) = if args.trace {
        let spans = tr.spans();
        let layer = LayerInputs {
            spans: &spans,
            counters: &compile_counters,
            check_counters: &check_counters,
            programs: &programs,
            last,
            passes: passes.len(),
            compile_s,
            kernel_rows: &kernel_rows,
            kernel_setup: &kernel_setup,
            spill: &spill,
            probe_dir: work.0.join("spill-probe"),
            smoke: args.scale.smoke,
        };
        let values = per_layer(&layer);
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, values[name]))
            .collect();
        (metrics, Some(spans::to_json(&spans)))
    } else {
        let values: BTreeMap<&str, f64> = [
            ("setup_s", setup_s),
            ("compile_s", compile_s),
            ("compile_op_p50_s", percentile(&op_seconds, 50.0)),
            ("compile_op_p95_s", percentile(&op_seconds, 95.0)),
            ("code_bytes", last.code_bytes() as f64),
            ("peak_rss_mb", host::peak_rss_mb()),
            ("interp_kernel_s", kernel_sum(|r| r.interp_s)),
            ("native_kernel_s", kernel_sum(|r| r.native_s)),
            ("modeled_kernel_cycles", kernel_sum(|r| r.modeled_cycles)),
            ("fusion_gain_native", gain(|r| r.native_s)),
            ("fusion_gain_modeled", gain(|r| r.modeled_cycles)),
        ]
        .into();
        samples.insert("compile_s", passes.len());
        samples.insert("compile_op_p50_s", op_seconds.len());
        samples.insert("compile_op_p95_s", op_seconds.len());
        let pairs_run =
            |f: fn(&KernelRow) -> f64| kernel_rows.iter().filter(|r| f(r) > 0.0).count();
        samples.insert("interp_kernel_s", pairs_run(|r| r.interp_s));
        samples.insert("native_kernel_s", pairs_run(|r| r.native_s));
        samples.insert("modeled_kernel_cycles", pairs_run(|r| r.modeled_cycles));
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, values[m.name]))
            .collect();
        (metrics, None)
    };

    let rows = Json::obj([
        ("schema", Json::str("wf-benchmark/workload/v1")),
        ("workload", Json::str(w.name())),
        ("seed", Json::from(args.seed)),
        ("traced", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.scale.smoke)),
        ("host", host::fingerprint()),
        ("passes", Json::from(passes.len())),
        ("code_bytes", Json::from(last.code_bytes())),
        (
            "code_digest",
            Json::str(format!("{:016x}", digests[digests.len() - 1])),
        ),
        ("ops", op_rows(&programs, &passes)),
        ("kernels", kernel_rows_json(&kernel_rows)),
        (
            "failures",
            Json::Arr(tally.failures.iter().map(Json::str).collect()),
        ),
    ]);
    std::fs::write(
        results.join(format!("{}.json", w.name())),
        rows.render_pretty(),
    )?;
    if let Some(doc) = trace_doc {
        std::fs::write(
            results.join(format!("trace_{}.json", w.name())),
            doc.render(),
        )?;
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failures: tally.failures,
        metrics,
        samples,
    })
}

/// One row per op: program, seconds in each pass, seconds per model
/// (median over the passes).
fn op_rows(programs: &[Program], passes: &[Pass]) -> Json {
    let rows = (0..programs.len()).map(|i| {
        let per_pass: Vec<&crate::compile::OpResult> = passes.iter().map(|p| &p.ops[i]).collect();
        let models = programs[i]
            .models
            .iter()
            .filter_map(|&m| {
                let secs: Vec<f64> = per_pass
                    .iter()
                    .filter_map(|op| op.pairs.iter().find(|p| p.model == m))
                    .map(|p| p.seconds)
                    .collect();
                (!secs.is_empty()).then(|| (m.name().to_string(), Json::Num(median(&secs))))
            })
            .collect();
        Json::obj([
            ("program", Json::str(&*programs[i].name)),
            (
                "seconds",
                Json::Arr(per_pass.iter().map(|op| Json::Num(op.seconds)).collect()),
            ),
            ("models", Json::Obj(models)),
        ])
    });
    let mut rows: Vec<Json> = rows.collect();
    // By name, so that rows of runs with different seeds line up.
    rows.sort_by_key(|r| r.get("program").and_then(Json::as_str).map(str::to_string));
    Json::Arr(rows)
}

fn kernel_rows_json(rows: &[KernelRow]) -> Json {
    let mut rows: Vec<&KernelRow> = rows.iter().collect();
    rows.sort_by_key(|r| (r.program.clone(), r.model.name()));
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("program", Json::str(&*r.program)),
                    ("model", Json::str(r.model.name())),
                    ("partitions", Json::from(r.partitions)),
                    ("interp_s", Json::Num(r.interp_s)),
                    ("native_s", Json::Num(r.native_s)),
                    ("modeled_cycles", Json::Num(r.modeled_cycles)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            failures: vec!["x".to_string()],
            metrics: vec![("setup_s", "s", 0.8127), ("code_bytes", "bytes", 650_790.0)],
            samples: BTreeMap::new(),
        };
        let line = outcome.result_line();
        assert!(!line.contains('\n'));
        let Json::Obj(fields) = Json::parse(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let doc = Json::Obj(fields);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_i128), Some(1));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
