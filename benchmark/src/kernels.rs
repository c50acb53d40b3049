//! What happens to a compile op's output: the correctness checks every
//! pair gets, and the kernel side (interpreter, `cc -O2` native binary,
//! machine model) for the pairs a workload runs.

use crate::compile::{OpResult, Pair};
use crate::spans::Tracer;
use crate::spec::Program;
use crate::stats::median;
use std::path::{Path, PathBuf};
use std::process::Command;
use wf_cachesim::perf::{model_performance, MachineModel, PerfReport};
use wf_runtime::{execute_reference, ExecContext, ProgramData};
use wf_scop::Scop;
use wf_wisefuse::Model;

/// Repetitions of `kernel()` inside one native process; the median counts.
const NATIVE_REPS: usize = 3;

const WRAPPER_C: &str = include_str!("../native_wrapper.c");

/// Counts of checks made and failed, with the reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }
}

fn fresh_data(scop: &Scop, params: &[i128], seed: u64) -> ProgramData {
    let mut data = ProgramData::new(scop, params);
    data.init_lcg(seed);
    data
}

/// Legality oracle and executor differential for every pair of one op, at
/// the program's small `check` parameters. Returns the reference hash the
/// native check binaries must print.
pub fn check_op(
    tr: &Tracer,
    op_id: u32,
    prog: &Program,
    op: &OpResult,
    data_seed: u64,
    tally: &mut Tally,
) -> u64 {
    let Some(scop) = &op.scop else { return 0 };
    let init = fresh_data(scop, &prog.check, data_seed);
    let mut reference = init.clone();
    execute_reference(scop, &mut reference);
    let want = reference.bit_hash();
    for pair in &op.pairs {
        let name = pair.model.name();
        let (report, _) = tr.time("verify.check", "", op_id, || {
            wf_verify::check_schedule(scop, &pair.opt.ddg, &pair.opt.transformed.schedule)
        });
        tally.check(report.is_legal(), || {
            format!("{}: {name}: oracle: {}", prog.name, report.summary())
        });
        let mut data = init.clone();
        let ran = ExecContext::serial().execute(scop, &pair.opt.transformed, &pair.plan, &mut data);
        tally.check(ran.is_ok() && data.bit_hash() == want, || {
            format!(
                "{}: {name}: differs from the reference execution",
                prog.name
            )
        });
    }
    want
}

/// Kernel-side measurements of one (program, model) pair; 0.0 = not run.
pub struct KernelRow {
    pub program: String,
    pub model: Model,
    pub partitions: usize,
    pub interp_s: f64,
    pub native_s: f64,
    pub modeled_cycles: f64,
    /// Statement instances and the model's access counts (modeled pairs).
    pub perf: Option<PerfReport>,
}

/// Untimed preparation the kernel side needed, in seconds.
#[derive(Default)]
pub struct KernelSetup {
    pub reference_s: f64,
    pub cc_s: f64,
}

pub struct NativeToolchain {
    dir: PathBuf,
    wrapper: PathBuf,
}

impl NativeToolchain {
    /// Writes the timing wrapper into `dir`.
    pub fn new(dir: &Path) -> std::io::Result<NativeToolchain> {
        std::fs::create_dir_all(dir)?;
        let wrapper = dir.join("native_wrapper.c");
        std::fs::write(&wrapper, WRAPPER_C)?;
        Ok(NativeToolchain {
            dir: dir.to_path_buf(),
            wrapper,
        })
    }

    /// `cc <opt> wrapper.c -DWF_KERNEL_FILE="<stem>.c"` → `<stem>`. No
    /// `-fopenmp`: a shared two-core host must not decide the number.
    fn build(&self, stem: &str, c: &str, opt: &str) -> Result<PathBuf, String> {
        let source = self.dir.join(format!("{stem}.c"));
        std::fs::write(&source, c).map_err(|e| format!("write {}: {e}", source.display()))?;
        let bin = self.dir.join(stem);
        let out = Command::new("cc")
            .arg(opt)
            .arg("-o")
            .arg(&bin)
            .arg(format!("-DWF_KERNEL_FILE=\"{}\"", source.display()))
            .arg(&self.wrapper)
            .arg("-lm")
            .output()
            .map_err(|e| format!("cannot run cc: {e}"))?;
        if out.status.success() {
            Ok(bin)
        } else {
            Err(format!(
                "cc failed: {}",
                String::from_utf8_lossy(&out.stderr)
                    .lines()
                    .next()
                    .unwrap_or("")
            ))
        }
    }
}

/// Run a wrapper binary: per-repetition kernel seconds and the output hash.
fn run_native(bin: &Path, reps: usize) -> Result<(Vec<f64>, u64), String> {
    let out = Command::new(bin)
        .arg(reps.to_string())
        .env("OMP_NUM_THREADS", "1")
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", bin.display(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let malformed = || format!("{}: unexpected output", bin.display());
    let (hash, times) = lines.split_last().ok_or_else(malformed)?;
    let times: Vec<f64> = times
        .iter()
        .map(|l| l.parse().map_err(|_| malformed()))
        .collect::<Result<_, _>>()?;
    let hash = hash.parse().map_err(|_| malformed())?;
    if times.len() == reps {
        Ok((times, hash))
    } else {
        Err(malformed())
    }
}

/// The kernel side of one op: every pair in `prog.kernel_models` is run by
/// the interpreter at the `interp` size (against the reference execution
/// on the same data), compiled by `cc -O2` and run at the `native` size
/// (all models must print one hash, and a `-O0` build at the `check` size
/// must print the interpreter's), and — smartfuse and wisefuse — priced on
/// the machine model at the `interp` size.
#[allow(clippy::too_many_arguments)]
pub fn run_kernels(
    tr: &Tracer,
    op_id: u32,
    prog: &Program,
    op: &OpResult,
    check_hash: u64,
    data_seed: u64,
    cc: &NativeToolchain,
    setup: &mut KernelSetup,
    tally: &mut Tally,
) -> Vec<KernelRow> {
    let Some(scop) = &op.scop else {
        return Vec::new();
    };
    let pairs: Vec<&Pair> = op
        .pairs
        .iter()
        .filter(|p| prog.kernel_models.contains(&p.model))
        .collect();
    if pairs.is_empty() {
        return Vec::new();
    }
    let init = fresh_data(scop, &prog.interp, data_seed);
    let (want, reference_s) = tr.time("runtime.reference", "", op_id, || {
        let mut reference = init.clone();
        execute_reference(scop, &mut reference);
        reference.bit_hash()
    });
    setup.reference_s += reference_s;

    let machine = MachineModel::default();
    let mut native_hashes = Vec::new();
    let mut rows = Vec::new();
    for pair in pairs {
        let name = pair.model.name();
        let label = format!("{}: {name}", prog.name);
        let mut row = KernelRow {
            program: prog.name.clone(),
            model: pair.model,
            partitions: pair.opt.n_partitions(),
            interp_s: 0.0,
            native_s: 0.0,
            modeled_cycles: 0.0,
            perf: None,
        };

        let mut data = init.clone();
        let (ran, interp_s) = tr.time("runtime.execute", name, op_id, || {
            ExecContext::serial().execute(scop, &pair.opt.transformed, &pair.plan, &mut data)
        });
        let ok = ran.is_ok() && data.bit_hash() == want;
        tally.check(ok, || {
            format!("{label}: interpreter differs from the reference")
        });
        if ok {
            row.interp_s = interp_s;
        }

        let stem = format!("{}_{name}", prog.name);
        let (built, cc_s) = tr.time("native.cc", "", op_id, || {
            let check_c = wf_codegen::emit_c(
                scop,
                &pair.opt.transformed,
                &pair.plan,
                &prog.check,
                data_seed,
            );
            let check = cc.build(&format!("{stem}_check"), &check_c, "-O0")?;
            Ok::<_, String>((cc.build(&stem, &pair.c, "-O2")?, check))
        });
        setup.cc_s += cc_s;
        let native = built.and_then(|(bin, check)| {
            let (_, hash) = run_native(&check, 1)?;
            if hash != check_hash {
                return Err("native output differs from the interpreter's".to_string());
            }
            tr.time("native.run", name, op_id, || run_native(&bin, NATIVE_REPS))
                .0
        });
        match native {
            Ok((times, hash)) => {
                tally.check(true, String::new);
                row.native_s = median(&times);
                native_hashes.push(hash);
            }
            Err(why) => tally.check(false, || format!("{label}: native: {why}")),
        }

        if crate::spec::GAIN_MODELS.contains(&pair.model) {
            let mut data = init.clone();
            let (perf, _) = tr.time("cachesim.model", "", op_id, || {
                model_performance(scop, &pair.opt, &pair.plan, &mut data, &machine)
            });
            tally.check(data.bit_hash() == want, || {
                format!("{label}: modeled run differs from the reference")
            });
            row.modeled_cycles = perf.modeled_seconds * machine.freq_ghz * 1e9;
            row.perf = Some(perf);
        }
        rows.push(row);
    }
    tally.check(native_hashes.windows(2).all(|w| w[0] == w[1]), || {
        format!("{}: models disagree on the native output", prog.name)
    });
    rows
}
