//! The compile op — what `wfc compare` does for one program — and a pass
//! over an op list.
//!
//! One op: `.wfs` text → `wf_scop::text::parse` → `wf_deps::try_analyze`
//! → for each model `Optimizer::run_model` (schedule cache and solver memo
//! on, both emptied before the op) → `Optimized::plan` → `emit_c`. No
//! `fallback()`: an error is a failed op.

use crate::spans::Tracer;
use crate::spec::Program;
use std::time::Instant;
use wf_codegen::ExecPlan;
use wf_harness::{obs, Fnv64};
use wf_scop::Scop;
use wf_wisefuse::{Model, Optimized, Optimizer};

/// What one (program, model) pair compiled to.
pub struct Pair {
    pub model: Model,
    pub opt: Optimized,
    pub plan: ExecPlan,
    /// Emitted C at the program's native size.
    pub c: String,
    /// `run_model` + plan + C emission.
    pub seconds: f64,
}

pub struct OpResult {
    /// Index into the op list.
    pub program: usize,
    /// `None` when the text did not parse or analysis failed.
    pub scop: Option<Scop>,
    pub pairs: Vec<Pair>,
    /// Text in → last C out.
    pub seconds: f64,
    /// `fm.prune_ms` spent inside dependence analysis (traced runs).
    pub deps_fm_prune_ms: u64,
    pub failures: Vec<String>,
}

pub struct Pass {
    pub wall_s: f64,
    pub ops: Vec<OpResult>,
}

impl Pass {
    pub fn pairs(&self) -> impl Iterator<Item = &Pair> {
        self.ops.iter().flat_map(|op| &op.pairs)
    }

    pub fn code_bytes(&self) -> u64 {
        self.pairs().map(|p| p.c.len() as u64).sum()
    }

    /// FNV-1a over all emitted C in (program name, model) order, so that
    /// two passes over differently ordered op lists digest alike.
    pub fn code_digest(&self, programs: &[Program]) -> u64 {
        let mut ops: Vec<&OpResult> = self.ops.iter().collect();
        ops.sort_by_key(|op| &programs[op.program].name);
        let mut h = Fnv64::new();
        for pair in ops.iter().flat_map(|op| &op.pairs) {
            h.update_str(pair.model.name()).update_str(&pair.c);
        }
        h.digest()
    }
}

/// Run one compile op. `extras` adds the calls only the traced run makes
/// to split layers that `run_model` times together (property analysis,
/// Algorithm 1, plan rendering).
pub fn compile_op(
    tr: &Tracer,
    op: u32,
    program: usize,
    prog: &Program,
    data_seed: u64,
    extras: bool,
) -> OpResult {
    wf_wisefuse::cache::clear();
    wf_polyhedra::memo::clear();
    let mut out = OpResult {
        program,
        scop: None,
        pairs: Vec::new(),
        seconds: 0.0,
        deps_fm_prune_ms: 0,
        failures: Vec::new(),
    };
    let ((), seconds) = tr.time("op", "", op, || {
        let (parsed, _) = tr.time("scop.parse", "", op, || wf_scop::text::parse(&prog.text));
        let scop = match parsed {
            Ok(scop) => scop,
            Err(e) => {
                out.failures.push(format!(
                    "{}: parse: line {}: {}",
                    prog.name, e.line, e.message
                ));
                return;
            }
        };
        let before = extras.then(obs::metrics);
        let (ddg, _) = tr.time("deps.analyze", "", op, || wf_deps::try_analyze(&scop, 1));
        if let Some(before) = before {
            out.deps_fm_prune_ms = obs::metrics().delta(&before).counter("fm.prune_ms");
        }
        let ddg = match ddg {
            Ok(ddg) => ddg,
            Err(e) => {
                out.failures.push(format!("{}: analysis: {e}", prog.name));
                return;
            }
        };
        let mut optimizer = Optimizer::new(&scop).with_ddg(ddg).threads(1);
        for &model in &prog.models {
            let tag = model.name();
            let t0 = Instant::now();
            let (opt, _) = tr.time("core.run_model", tag, op, || optimizer.run_model(model));
            let opt = match opt {
                Ok(opt) => opt,
                Err(e) => {
                    out.failures.push(format!("{}: {tag}: {e}", prog.name));
                    continue;
                }
            };
            let (plan, _) = tr.time("codegen.plan", "", op, || opt.plan(&scop));
            let (c, _) = tr.time("codegen.emit_c", "", op, || {
                wf_codegen::emit_c(&scop, &opt.transformed, &plan, &prog.native, data_seed)
            });
            let seconds = t0.elapsed().as_secs_f64();
            if extras {
                tr.time("schedule.props", "", op, || {
                    wf_schedule::props::analyze(&scop, &opt.ddg, &opt.transformed)
                });
                if model == Model::Wisefuse {
                    tr.time("core.algorithm1", "", op, || {
                        wf_wisefuse::prefusion::algorithm1(&scop, &opt.ddg, &opt.transformed.sccs)
                    });
                }
                tr.time("codegen.render", "", op, || {
                    wf_codegen::render_plan(&scop, &plan)
                });
            }
            out.pairs.push(Pair {
                model,
                opt,
                plan,
                c,
                seconds,
            });
        }
        out.scop = Some(scop);
    });
    out.seconds = seconds;
    out
}

/// One pass over the op list, in its order. `first_op` numbers the ops
/// across passes.
pub fn compile_pass(
    tr: &Tracer,
    programs: &[Program],
    data_seed: u64,
    first_op: u32,
    extras: bool,
) -> Pass {
    let t0 = Instant::now();
    let ops = programs
        .iter()
        .enumerate()
        .map(|(i, prog)| compile_op(tr, first_op + i as u32, i, prog, data_seed, extras))
        .collect();
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        ops,
    }
}
