//! `wfc` — command-line driver for the wisefuse polyhedral optimizer.
//!
//! ```text
//! wfc list                                  # catalog of built-in benchmarks
//! wfc show <bench>                          # original pseudo-C + DDG stats
//! wfc opt <bench> [--model M] [--tile S]    # transform + generated code
//! wfc run <bench> [--model M] [--threads T] [--size N] [--cache] [--verify]
//! wfc compare <bench> [--threads T]         # all five models side by side
//! wfc bench-all [--threads T] [--json]      # whole catalog × all models
//! wfc cache --stats|--prune|--clear         # spill-cache hygiene
//! wfc profile <bench> | --trace FILE        # where did the solver cells go
//! ```
//!
//! Failures exit with the [`WfError`] code contract (invalid request 2,
//! parse 3, budget 4, I/O 5, schedule 6, contained panic 7, unbounded 8,
//! legality-oracle rejection 9); recoverable solver failures degrade to
//! the original-program-order fallback schedule by default (disable with
//! `--strict`).

mod fuzz;

use std::process::ExitCode;
use std::time::Instant;
use wf_benchsuite::{by_name, catalog, Benchmark};
use wf_cachesim::perf::{model_performance, MachineModel};
use wf_cachesim::{CacheConfig, CacheSim};
use wf_codegen::render_plan;
use wf_codegen::tiling::{build_tiled_plan, default_tiles};
use wf_harness::json::Json;
use wf_harness::{attr, obs, profile};
use wf_runtime::{ExecContext, ExecOptions, ProgramData};
use wf_schedule::PlutoConfig;
use wf_scop::pretty;
use wf_scop::Scop;
use wf_wisefuse::{cache, plan_from_optimized, Model, Optimized, Optimizer, WfError};

fn main() -> ExitCode {
    let result = run();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run() -> Result<(), WfError> {
    // Environment overrides are validated up front: a typo'd WF_THREADS or
    // WF_CACHE_MAX_BYTES is an invalid request (exit 2), not a silent
    // fallback to defaults. `WF_THREADS` is parsed exactly once, here, and
    // travels with the context from then on.
    let ctx = ExecContext::from_env()?;
    cache::SpillCaps::try_from_env()?;
    wf_verify::fuzz_seed_from_env()?;
    wf_verify::check_legality_from_env()?;
    if let Some(limit) = obs_limit_from_env()? {
        obs::set_buffer_limit(limit);
    }
    // `--trace <path>` (any position, any subcommand) and WF_TRACE=<path>
    // both enable span + metrics recording; the Chrome trace is written
    // after the command finishes, whether it succeeded or failed.
    let mut trace_path = obs::init_from_env();
    // WF_TRACE_STREAM=<path> writes spans as bounded JSONL *as they
    // close* instead of accumulating them in memory — the marathon-run
    // escape hatch (fuzz campaigns, bench-all under tracing).
    let stream_path = stream_path_from_env()?;
    if let Some(path) = &stream_path {
        obs::set_enabled(obs::enabled() | obs::TRACE | obs::METRICS);
        obs::stream_open(path).map_err(|e| WfError::io(path.clone(), &e))?;
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `wfc profile --trace FILE` *reads* a trace instead of writing one,
    // so the global --trace strip skips that command.
    let profiling = args.first().is_some_and(|a| a == "profile");
    if !profiling {
        if let Some(i) = args.iter().position(|a| a == "--trace") {
            if i + 1 >= args.len() {
                return Err(WfError::invalid("--trace needs a path"));
            }
            trace_path = Some(args.remove(i + 1));
            args.remove(i);
            obs::set_enabled(obs::enabled() | obs::TRACE | obs::METRICS);
        }
    }
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        usage();
        return Err(WfError::invalid("missing command"));
    };
    let result = dispatch(cmd, &mut it, &ctx);
    if let Some(path) = &stream_path {
        match obs::stream_close() {
            Ok(Some(lines)) => eprintln!("trace stream: {lines} span(s) written to {path}"),
            Ok(None) => {}
            Err(e) => eprintln!("warning: could not flush trace stream {path}: {e}"),
        }
    }
    if let Some(path) = trace_path {
        match obs::write_trace(&path) {
            Ok(()) => eprintln!("trace written to {path}"),
            // A failed command's error wins over the trace-write error.
            Err(e) if result.is_ok() => return Err(WfError::io(path, &e)),
            Err(e) => eprintln!("warning: could not write trace to {path}: {e}"),
        }
    }
    result
}

/// `WF_OBS_LIMIT`: cap on the in-memory span/decision buffers, in
/// records. Malformed values exit 2 up front, like every other knob.
fn obs_limit_from_env() -> Result<Option<usize>, WfError> {
    match std::env::var("WF_OBS_LIMIT") {
        Err(_) => Ok(None),
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .map(Some)
            .map_err(|e| WfError::invalid(format!("WF_OBS_LIMIT must be a record count: {e}"))),
    }
}

/// `WF_TRACE_STREAM`: path for the streaming JSONL span sink. An empty
/// value is an invalid request (exit 2), not a silent no-op.
fn stream_path_from_env() -> Result<Option<String>, WfError> {
    match std::env::var("WF_TRACE_STREAM") {
        Err(_) => Ok(None),
        Ok(v) if v.trim().is_empty() => Err(WfError::invalid(
            "WF_TRACE_STREAM must name a writable file path (got an empty value)",
        )),
        Ok(v) => Ok(Some(v)),
    }
}

fn dispatch<'a>(
    cmd: &str,
    it: &mut impl Iterator<Item = &'a String>,
    ctx: &ExecContext<'_>,
) -> Result<(), WfError> {
    match cmd {
        "list" => cmd_list(),
        "bench-all" => {
            let opts = Opts::parse(it, ctx)?;
            cmd_bench_all(&opts)
        }
        "cache" => cmd_cache(it),
        "fuzz" => cmd_fuzz(it),
        "profile" => cmd_profile(it, ctx),
        "export" => {
            let name = it
                .next()
                .ok_or_else(|| WfError::invalid("missing benchmark name"))?;
            let bench = lookup(name)?;
            print!("{}", wf_scop::text::to_text(&bench.scop));
            Ok(())
        }
        "optfile" => {
            let path = it
                .next()
                .ok_or_else(|| WfError::invalid("missing .wfs path"))?
                .clone();
            let opts = Opts::parse(it, ctx)?;
            cmd_optfile(&path, &opts)
        }
        "show" | "opt" | "run" | "compare" | "emit" | "model" | "explain" => {
            let name = it.next().ok_or_else(|| {
                usage();
                WfError::invalid("missing benchmark name")
            })?;
            let bench = lookup(name)?;
            let opts = Opts::parse(it, ctx)?;
            match cmd {
                "show" => cmd_show(&bench),
                "opt" => cmd_opt(&bench, &opts),
                "run" => cmd_run(&bench, &opts, ctx),
                "emit" => cmd_emit(&bench, &opts),
                "model" => cmd_model(&bench, &opts),
                "explain" => cmd_explain(&bench, &opts),
                _ => cmd_compare(&bench, &opts, ctx),
            }
        }
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => {
            usage();
            Err(WfError::invalid(format!("unknown command '{other}'")))
        }
    }
}

fn lookup(name: &str) -> Result<Benchmark, WfError> {
    by_name(name)
        .ok_or_else(|| WfError::invalid(format!("unknown benchmark '{name}' (try `wfc list`)")))
}

fn usage() {
    eprintln!(
        "wfc — wisefuse polyhedral optimizer driver

USAGE:
  wfc list
  wfc show <bench>
  wfc opt <bench> [--model icc|wisefuse|smartfuse|nofuse|maxfuse] [--tile S]
  wfc run <bench> [--model M] [--threads T] [--size N] [--cache] [--verify] [--tile S] [--json]
  wfc compare <bench> [--threads T] [--size N] [--json]
  wfc bench-all [--threads T] [--json]         # catalog × all models in one process;
                [--filter S]                   # writes BENCH_all.json (incl. the
                                               # executor's scoped-vs-pooled column),
                                               # fails on any parallel/cache/executor
                                               # determinism mismatch; --filter keeps
                                               # names containing any comma-separated
                                               # substring
  wfc explain <bench> [--model M] [--json]     # why the scheduler fused what it
                      [--costs]                # fused: Algorithm 1 ordering choices
                                               # and Algorithm 2 cuts, with rationale;
                                               # --costs appends the solver-cost
                                               # attribution table
  wfc profile <bench> [--top K] [--json]       # re-run every model under tracing
  wfc profile --trace FILE [--top K] [--json]  # (or fold a recorded trace):
              [--strip-timings]                # inclusive/exclusive time per span,
                                               # the pool-aware critical path, and a
                                               # per-component cell table that
                                               # reconciles with simplex.cells
  wfc emit <bench> [--model M] [--size N]      # compilable C on stdout
  wfc model <bench> [--model M] [--size N]     # machine-model breakdown
  wfc export <bench>                           # benchmark as .wfs text
  wfc optfile <path.wfs> [--model M]           # optimize a textual SCoP
  wfc cache --stats|--prune|--clear [--json]   # WF_CACHE_DIR spill hygiene
  wfc fuzz [--seeds N] [--shrink] [--json]     # structured SCoP fuzzer: every
           [--replay DIR] [--corpus DIR]       # seed's schedules must pass the
                                               # legality oracle and the executor
                                               # differential check; --shrink
                                               # minimizes failures into
                                               # tests/corpus/ reproducers;
                                               # --replay re-runs a corpus

OBSERVABILITY:
  --trace <path>   (any command but profile) record hierarchical spans +
                   metrics and write a Chrome trace-event JSON file on
                   exit; the WF_TRACE=<path> environment variable does
                   the same. Schedules and reports are byte-identical
                   with observability on or off.

SCHEDULING FLAGS (opt/run/compare/emit/model/optfile):
  --max-nodes N      cap the fusion ILP's branch-and-bound node budget
  --strict           fail (exit 4/6/7/8/9) instead of degrading to the
                     original-program-order fallback schedule on a
                     recoverable solver failure
  --check-legality   (also run/bench-all) re-verify every emitted schedule —
                     including cache hits — with the independent legality
                     oracle; a rejection degrades to the fallback schedule,
                     or exits 9 under --strict

ENVIRONMENT:
  WF_THREADS             worker threads (default: available parallelism)
  WF_CACHE_DIR           directory for the schedule spill cache
  WF_CACHE_MAX_BYTES     spill size cap in bytes (default 256 MiB)
  WF_CACHE_MAX_AGE_SECS  spill entry age cap in seconds (default: none)
  WF_TRACE               path for a Chrome trace-event JSON file
  WF_TRACE_STREAM        path for a streaming JSONL span sink: spans are
                         written (bounded) as they close instead of
                         accumulating in memory
  WF_OBS_LIMIT           cap on the in-memory span/decision buffers, in
                         records (default 262144); overflow counts in the
                         obs.dropped counter
  WF_FAULT               fault-injection plan (seed=..,rate=..,kinds=..,site=..)
  WF_FUZZ_SEED           base seed for `wfc fuzz` (default 0)
  WF_CHECK_LEGALITY      1/true = behave as if --check-legality everywhere
  (malformed values exit 2 up front rather than silently using defaults)

EXIT CODES:
  0 success   2 invalid request   3 parse   4 solver budget exhausted
  5 I/O       6 scheduling        7 contained worker panic   8 unbounded
  9 schedule rejected by the legality oracle"
    );
}

struct Opts {
    model: Model,
    /// Worker threads: `--threads` when given, else the context's count
    /// (`WF_THREADS`, parsed once at startup).
    threads: usize,
    size: Option<i128>,
    cache: bool,
    verify: bool,
    tile: Option<i128>,
    json: bool,
    /// `--max-nodes`: override the fusion ILP's node budget.
    max_nodes: Option<usize>,
    /// `--strict`: surface recoverable solver failures instead of
    /// degrading to the fallback schedule.
    strict: bool,
    /// `--check-legality` (or `WF_CHECK_LEGALITY=1`): re-verify every
    /// emitted schedule against the independent oracle.
    check_legality: bool,
    /// `explain --costs`: append the solver-cost attribution table to the
    /// decision narrative.
    costs: bool,
    /// `bench-all --filter S`: keep only catalog entries whose name
    /// contains one of the comma-separated substrings.
    filter: Option<String>,
}

impl Opts {
    fn parse<'a>(
        mut it: impl Iterator<Item = &'a String>,
        ctx: &ExecContext<'_>,
    ) -> Result<Opts, WfError> {
        let mut o = Opts {
            model: Model::Wisefuse,
            threads: ctx.threads(),
            size: None,
            cache: false,
            verify: false,
            tile: None,
            json: false,
            max_nodes: None,
            strict: false,
            // The env var is validated at startup; the flag below can
            // only turn the check *on* over an explicit
            // WF_CHECK_LEGALITY=0.
            check_legality: wf_verify::check_legality_from_env()?.unwrap_or(false),
            costs: false,
            filter: None,
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--model" => {
                    let v = it
                        .next()
                        .ok_or_else(|| WfError::invalid("--model needs a value"))?;
                    o.model = Model::ALL
                        .into_iter()
                        .find(|m| m.name() == v)
                        .ok_or_else(|| WfError::invalid(format!("unknown model '{v}'")))?;
                }
                "--threads" => {
                    o.threads = it
                        .next()
                        .ok_or_else(|| WfError::invalid("--threads needs a value"))?
                        .parse()
                        .map_err(|e| WfError::invalid(format!("--threads: {e}")))?;
                }
                "--size" => {
                    o.size = Some(
                        it.next()
                            .ok_or_else(|| WfError::invalid("--size needs a value"))?
                            .parse()
                            .map_err(|e| WfError::invalid(format!("--size: {e}")))?,
                    );
                }
                "--tile" => {
                    o.tile = Some(
                        it.next()
                            .ok_or_else(|| WfError::invalid("--tile needs a value"))?
                            .parse()
                            .map_err(|e| WfError::invalid(format!("--tile: {e}")))?,
                    );
                }
                "--max-nodes" => {
                    o.max_nodes = Some(
                        it.next()
                            .ok_or_else(|| WfError::invalid("--max-nodes needs a value"))?
                            .parse()
                            .map_err(|e| WfError::invalid(format!("--max-nodes: {e}")))?,
                    );
                }
                "--filter" => {
                    o.filter = Some(
                        it.next()
                            .ok_or_else(|| WfError::invalid("--filter needs a value"))?
                            .clone(),
                    );
                }
                "--strict" => o.strict = true,
                "--costs" => o.costs = true,
                "--check-legality" => o.check_legality = true,
                "--cache" => o.cache = true,
                "--verify" => o.verify = true,
                "--json" => o.json = true,
                other => return Err(WfError::invalid(format!("unknown flag '{other}'"))),
            }
        }
        Ok(o)
    }

    /// The scheduling-engine config these options describe.
    fn config(&self) -> PlutoConfig {
        let mut config = PlutoConfig::default();
        if let Some(n) = self.max_nodes {
            config.ilp_node_budget = n;
        }
        config
    }
}

/// Build the facade under the CLI policy: `--max-nodes` caps the fusion
/// ILP, and unless `--strict` is given, recoverable solver failures
/// degrade to the original-program-order fallback schedule.
fn build_optimizer<'a>(scop: &'a Scop, opts: &Opts) -> Optimizer<'a> {
    let o = Optimizer::new(scop)
        .model(opts.model)
        .config(opts.config())
        .check_legality(opts.check_legality);
    if opts.strict {
        o
    } else {
        o.fallback()
    }
}

/// Surface a degraded-schedule substitution to the user (stderr, so JSON
/// output on stdout stays machine-readable).
fn warn_degraded(opt: &Optimized) {
    if let Some(reason) = &opt.degraded {
        eprintln!("warning: {reason}");
    }
}

/// Schedule one SCoP under the CLI policy, warning when it degrades.
fn schedule(scop: &Scop, opts: &Opts) -> Result<Optimized, WfError> {
    let opt = build_optimizer(scop, opts).run()?;
    warn_degraded(&opt);
    Ok(opt)
}

/// Execute under the CLI degradation policy: a degradable failure (e.g. a
/// contained partition panic under `WF_FAULT`) re-runs serially from the
/// preserved initial data unless `--strict` was given. The serial path
/// never forks, so the retry is deterministic and fault-free.
fn execute_degradable(
    ectx: &ExecContext<'_>,
    bench: &Benchmark,
    opt: &Optimized,
    plan: &wf_codegen::ExecPlan,
    init: &ProgramData,
    data: &mut ProgramData,
    strict: bool,
) -> Result<(), WfError> {
    match ectx.execute(&bench.scop, &opt.transformed, plan, data) {
        Err(e) if !strict && e.is_degradable() => {
            eprintln!("warning: {e}; re-running this kernel serially");
            *data = init.clone();
            ExecContext::serial().execute(&bench.scop, &opt.transformed, plan, data)
        }
        r => r,
    }
}

/// Parse `wfc fuzz` flags and hand off to the driver. The seed base
/// comes from `WF_FUZZ_SEED` (validated at startup; default 0).
fn cmd_fuzz<'a>(it: &mut impl Iterator<Item = &'a String>) -> Result<(), WfError> {
    let mut opts = fuzz::FuzzOptions {
        seeds: 50,
        base_seed: wf_verify::fuzz_seed_from_env()?,
        shrink: false,
        json: false,
        replay: None,
        corpus: std::path::PathBuf::from("tests/corpus"),
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seeds" => {
                opts.seeds = it
                    .next()
                    .ok_or_else(|| WfError::invalid("--seeds needs a value"))?
                    .parse()
                    .map_err(|e| WfError::invalid(format!("--seeds: {e}")))?;
            }
            "--replay" => {
                let dir = it
                    .next()
                    .ok_or_else(|| WfError::invalid("--replay needs a directory"))?;
                opts.replay = Some(std::path::PathBuf::from(dir));
            }
            "--corpus" => {
                let dir = it
                    .next()
                    .ok_or_else(|| WfError::invalid("--corpus needs a directory"))?;
                opts.corpus = std::path::PathBuf::from(dir);
            }
            "--shrink" => opts.shrink = true,
            "--json" => opts.json = true,
            other => return Err(WfError::invalid(format!("unknown flag '{other}'"))),
        }
    }
    fuzz::cmd_fuzz(&opts)
}

/// The `wfc cache` subcommand: report, prune, or clear the
/// `WF_CACHE_DIR` schedule spill.
fn cmd_cache<'a>(it: &mut impl Iterator<Item = &'a String>) -> Result<(), WfError> {
    #[derive(PartialEq)]
    enum Mode {
        Stats,
        Prune,
        Clear,
    }
    let mut mode = Mode::Stats;
    let mut json = false;
    for flag in it {
        match flag.as_str() {
            "--stats" => mode = Mode::Stats,
            "--prune" => mode = Mode::Prune,
            "--clear" => mode = Mode::Clear,
            "--json" => json = true,
            other => return Err(WfError::invalid(format!("unknown flag '{other}'"))),
        }
    }
    let dir = cache::spill_dir().ok_or_else(|| {
        WfError::invalid("wfc cache needs WF_CACHE_DIR to name the spill directory")
    })?;
    let caps = cache::SpillCaps::from_env();
    match mode {
        Mode::Prune => {
            let removed = cache::spill_prune(&dir, &caps);
            if !json {
                println!("pruned {removed} spill entr{}", plural_y(removed));
            }
        }
        Mode::Clear => {
            let removed =
                cache::spill_clear(&dir).map_err(|e| WfError::io(dir.display().to_string(), &e))?;
            if !json {
                println!("cleared {removed} spill entr{}", plural_y(removed));
            }
        }
        Mode::Stats => {}
    }
    let (files, bytes) = cache::spill_usage(&dir);
    let mem = cache::stats();
    if json {
        // Per-entry size/age distributions with interpolated p50/p95/p99,
        // so spill-cache hygiene is judged on quantiles, not just totals.
        let mut size_hist = obs::Histogram::default();
        let mut age_hist = obs::Histogram::default();
        let entries: Vec<Json> = cache::spill_entries(&dir)
            .into_iter()
            .map(|e| {
                size_hist.record(e.bytes);
                if let Some(age) = e.age_secs {
                    age_hist.record(age);
                }
                Json::obj([
                    ("file", Json::str(e.file.as_str())),
                    ("bytes", Json::from(e.bytes)),
                    ("age_secs", e.age_secs.map_or(Json::Null, Json::from)),
                ])
            })
            .collect();
        let j = Json::obj([
            ("spill_dir", Json::str(dir.display().to_string().as_str())),
            ("files", Json::from(files)),
            ("bytes", Json::from(bytes)),
            ("max_bytes", Json::from(caps.max_bytes)),
            (
                "max_age_secs",
                caps.max_age_secs.map_or(Json::Null, Json::from),
            ),
            ("stats", mem.to_json()),
            ("solver_memo", wf_polyhedra::memo::stats().to_json()),
            ("entry_bytes", size_hist.to_json()),
            ("entry_age_secs", age_hist.to_json()),
            ("entries", Json::Arr(entries)),
        ]);
        println!("{}", j.render());
        return Ok(());
    }
    println!(
        "spill dir: {}\nentries: {files}   bytes: {bytes}   cap: {} bytes{}",
        dir.display(),
        caps.max_bytes,
        match caps.max_age_secs {
            Some(age) => format!(", max age {age}s"),
            None => ", no age cap".to_string(),
        }
    );
    println!(
        "in-process: {} hits / {} misses ({:.1}% hit rate), {} spill hits ({:.1}% incl. spill), \
         {} spill stores, {} quarantined",
        mem.hits,
        mem.misses,
        mem.hit_rate_pct(),
        mem.spill_hits,
        mem.spill_hit_rate_pct(),
        mem.spill_stores,
        mem.spill_quarantined
    );
    let memo = wf_polyhedra::memo::stats();
    println!(
        "solver memo: {} hits / {} misses ({:.1}% hit rate), {} stores, {} evictions",
        memo.hits,
        memo.misses,
        memo.hit_rate_pct(),
        memo.stores,
        memo.evictions
    );
    for e in cache::spill_entries(&dir) {
        let age = e
            .age_secs
            .map_or_else(|| "?".to_string(), |a| format!("{a}s"));
        println!("  {:<24} {:>10} bytes   age {age}", e.file, e.bytes);
    }
    Ok(())
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

fn cmd_list() -> Result<(), WfError> {
    println!(
        "{:<10} {:<10} {:<36} {:>7} {:>6}",
        "name", "suite", "category", "stmts", "large"
    );
    for b in catalog() {
        println!(
            "{:<10} {:<10} {:<36} {:>7} {:>6}",
            b.name,
            b.suite,
            b.category,
            b.scop.n_statements(),
            b.large
        );
    }
    Ok(())
}

fn cmd_bench_all(opts: &Opts) -> Result<(), WfError> {
    let ba = wf_bench::benchall::BenchAllOptions {
        threads: opts.threads,
        check_legality: opts.check_legality,
        filter: opts.filter.clone().unwrap_or_default(),
    };
    let report = wf_bench::benchall::run(&ba).report;
    let path = wf_harness::report::write_named("all", &report);
    let rejections = report
        .get("legality_rejections")
        .and_then(Json::as_i128)
        .unwrap_or(0);
    if opts.json {
        println!("{}", report.render());
    } else {
        let totals = report.get("totals").expect("totals");
        let f = |k: &str| totals.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let n = report
            .get("benchmarks")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        println!(
            "bench-all: {n} benchmarks x {} models on {} thread(s)",
            Model::ALL.len(),
            opts.threads
        );
        println!(
            "  analysis serial {:.3}s   parallel {:.3}s ({:.2}x)   solver memo {:.1}% hits",
            f("analysis_serial_seconds"),
            f("analysis_parallel_seconds"),
            f("analysis_speedup"),
            f("solver_hit_rate_pct"),
        );
        println!(
            "  ilp serial {:.3}s   ilp parallel {:.3}s ({:.2}x)   codegen {:.3}s",
            f("ilp_serial_seconds"),
            f("ilp_parallel_seconds"),
            f("ilp_speedup"),
            f("codegen_seconds"),
        );
        println!(
            "  executor (wisefuse): scoped {:.3}s   pooled {:.3}s ({:.2}x)",
            f("exec_scoped_seconds"),
            f("exec_pooled_seconds"),
            f("exec_speedup"),
        );
        let ci = |k: &str| {
            report
                .get("cache")
                .and_then(|c| c.get(k))
                .and_then(Json::as_i128)
                .unwrap_or(0)
        };
        println!(
            "  schedule cache: {} hits / {} misses, {} spill hits",
            ci("hits"),
            ci("misses"),
            ci("spill_hits")
        );
        println!("  report: {}", path.display());
        if opts.check_legality {
            println!("  legality oracle: {rejections} rejection(s)");
        }
    }
    if opts.check_legality && rejections > 0 {
        return Err(WfError::IllegalSchedule {
            model: "bench-all".to_string(),
            detail: format!(
                "{rejections} schedule(s) rejected by the legality oracle (see stderr)"
            ),
        });
    }
    if report.get("determinism_ok").and_then(Json::as_bool) != Some(true) {
        return Err(WfError::Schedule {
            message: "bench-all: determinism mismatch — a parallel/cached/memoized pass \
                      diverged from the serial baseline (see BENCH_all.json)"
                .to_string(),
        });
    }
    Ok(())
}

fn cmd_show(bench: &Benchmark) -> Result<(), WfError> {
    println!("== {} (original) ==\n", bench.scop.name);
    print!("{}", pretty::render_original(&bench.scop));
    let ddg = wf_deps::analyze(&bench.scop);
    let sccs = wf_deps::tarjan(&ddg);
    println!(
        "\nstatements: {}   legality deps: {}   input deps: {}   SCCs: {}",
        bench.scop.n_statements(),
        ddg.edges.len(),
        ddg.rar.len(),
        sccs.len()
    );
    Ok(())
}

fn cmd_opt(bench: &Benchmark, opts: &Opts) -> Result<(), WfError> {
    let t0 = Instant::now();
    let opt = schedule(&bench.scop, opts)?;
    println!(
        "== {} under {} (scheduled in {:.1?}) ==\n",
        bench.scop.name,
        opts.model.name(),
        t0.elapsed()
    );
    let names: Vec<String> = bench
        .scop
        .statements
        .iter()
        .map(|s| s.name.clone())
        .collect();
    print!("{}", opt.transformed.schedule.render(&names));
    println!(
        "\npartitions: {:?}\nouter loops parallel: {}",
        opt.transformed.partitions,
        opt.outer_parallel()
    );
    let plan = match opts.tile {
        None => plan_from_optimized(&bench.scop, &opt),
        Some(size) => {
            let tiles = default_tiles(&opt.transformed, size);
            println!("tiling {} band(s) at size {size}", tiles.len());
            build_tiled_plan(&bench.scop, &opt.transformed, opt.parallel_flags(), &tiles)
        }
    };
    println!(
        "\n== generated code ==\n{}",
        render_plan(&bench.scop, &plan)
    );
    Ok(())
}

fn cmd_run(bench: &Benchmark, opts: &Opts, ctx: &ExecContext<'_>) -> Result<(), WfError> {
    let params = [opts.size.unwrap_or(bench.bench_params[0])];
    let c0 = Instant::now();
    let opt = schedule(&bench.scop, opts)?;
    let plan = match opts.tile {
        None => plan_from_optimized(&bench.scop, &opt),
        Some(size) => {
            let tiles = default_tiles(&opt.transformed, size);
            build_tiled_plan(&bench.scop, &opt.transformed, opt.parallel_flags(), &tiles)
        }
    };
    let compile = c0.elapsed();
    let mut data = ProgramData::new(&bench.scop, &params);
    data.init_random(2024);
    let init = data.clone();
    let oracle = if opts.verify {
        let mut o = data.clone();
        ctx.reference(&bench.scop, &mut o);
        Some(o)
    } else {
        None
    };
    // Address tracing requires serial execution, so --cache forces 1.
    let threads = if opts.cache { 1 } else { opts.threads };
    let ectx = ctx.clone().options(ExecOptions::new().threads(threads));
    let mut sim = opts
        .cache
        .then(|| CacheSim::new(&bench.scop, &params, &CacheConfig::xeon_e5_2650()));
    let t0 = Instant::now();
    match sim.as_mut() {
        Some(s) => ectx.execute_observed(&bench.scop, &opt.transformed, &plan, &mut data, s)?,
        None => execute_degradable(&ectx, bench, &opt, &plan, &init, &mut data, opts.strict)?,
    }
    let dt = t0.elapsed();
    let verified = match &oracle {
        None => None,
        Some(o) => {
            let diff = data.max_abs_diff(o);
            if diff != 0.0 && !opts.json {
                return Err(WfError::Schedule {
                    message: format!("verification FAILED: max diff {diff}"),
                });
            }
            Some(diff == 0.0)
        }
    };
    if opts.json {
        let mut j = Json::obj([
            ("bench", Json::str(bench.scop.name.as_str())),
            ("model", Json::str(opts.model.name())),
            ("n", Json::Int(params[0])),
            ("threads", Json::from(threads)),
            ("partitions", Json::from(opt.n_partitions())),
            ("outer_parallel", Json::from(opt.outer_parallel())),
            ("compile_seconds", Json::Num(compile.as_secs_f64())),
            ("run_seconds", Json::Num(dt.as_secs_f64())),
        ]);
        if let Some(sim) = &sim {
            j.push(
                "cache",
                Json::obj([
                    ("accesses", Json::from(sim.total_accesses)),
                    ("l1_misses", Json::from(sim.stats[0].misses)),
                    ("l2_misses", Json::from(sim.stats[1].misses)),
                    ("l3_misses", Json::from(sim.stats[2].misses)),
                ]),
            );
        }
        if let Some(ok) = verified {
            j.push("verified", Json::from(ok));
        }
        println!("{}", j.render());
        return match verified {
            Some(false) => Err(WfError::Schedule {
                message: "verification FAILED (see JSON)".to_string(),
            }),
            _ => Ok(()),
        };
    }
    println!(
        "{} / {} / N={} / {} thread(s): {:.1?}",
        bench.scop.name,
        opts.model.name(),
        params[0],
        threads,
        dt
    );
    if let Some(sim) = sim {
        println!(
            "accesses: {}   L1 misses: {}   L2 misses: {}   L3 misses: {}",
            sim.total_accesses, sim.stats[0].misses, sim.stats[1].misses, sim.stats[2].misses
        );
    }
    if verified == Some(true) {
        println!("verified: bit-identical to original program order");
    }
    Ok(())
}

fn cmd_compare(bench: &Benchmark, opts: &Opts, ctx: &ExecContext<'_>) -> Result<(), WfError> {
    let params = [opts.size.unwrap_or(bench.bench_params[0])];
    let mut init = ProgramData::new(&bench.scop, &params);
    init.init_random(2024);
    let ectx = ctx
        .clone()
        .options(ExecOptions::new().threads(opts.threads));
    // Dependence analysis runs ONCE here; every model schedules against the
    // facade's cached graph.
    let mut optimizer = build_optimizer(&bench.scop, opts);
    let a0 = Instant::now();
    let n_deps = optimizer.ddg().edges.len();
    let analysis = a0.elapsed();
    if !opts.json {
        println!(
            "== {} at N = {} on {} thread(s) ==\n",
            bench.scop.name, params[0], opts.threads
        );
        println!(
            "dependence analysis: {analysis:.1?} ({n_deps} legality deps, shared by all models)\n"
        );
        println!(
            "{:<10} {:>10} {:>15} {:>12} {:>12}",
            "model", "partitions", "outer-parallel", "schedule", "run"
        );
    }
    let mut rows = Vec::new();
    for model in Model::ALL {
        let c0 = Instant::now();
        let opt = optimizer.run_model(model)?;
        warn_degraded(&opt);
        let plan = plan_from_optimized(&bench.scop, &opt);
        let compile = c0.elapsed();
        let mut data = init.clone();
        let t0 = Instant::now();
        execute_degradable(&ectx, bench, &opt, &plan, &init, &mut data, opts.strict)?;
        let run = t0.elapsed();
        if opts.json {
            rows.push(Json::obj([
                ("model", Json::str(model.name())),
                ("partitions", Json::from(opt.n_partitions())),
                ("outer_parallel", Json::from(opt.outer_parallel())),
                ("schedule_seconds", Json::Num(compile.as_secs_f64())),
                ("run_seconds", Json::Num(run.as_secs_f64())),
            ]));
        } else {
            println!(
                "{:<10} {:>10} {:>15} {:>12.1?} {:>12.1?}",
                model.name(),
                opt.n_partitions(),
                opt.outer_parallel(),
                compile,
                run
            );
        }
    }
    if opts.json {
        let j = Json::obj([
            ("bench", Json::str(bench.scop.name.as_str())),
            ("n", Json::Int(params[0])),
            ("threads", Json::from(opts.threads)),
            ("analysis_seconds", Json::Num(analysis.as_secs_f64())),
            ("legality_deps", Json::from(n_deps)),
            ("models", Json::Arr(rows)),
        ]);
        println!("{}", j.render());
    }
    Ok(())
}

fn cmd_emit(bench: &Benchmark, opts: &Opts) -> Result<(), WfError> {
    let params = [opts.size.unwrap_or(bench.bench_params[0])];
    let opt = schedule(&bench.scop, opts)?;
    let plan = plan_from_optimized(&bench.scop, &opt);
    print!(
        "{}",
        wf_codegen::emit_c(&bench.scop, &opt.transformed, &plan, &params, 2024)
    );
    Ok(())
}

fn cmd_model(bench: &Benchmark, opts: &Opts) -> Result<(), WfError> {
    let params = [opts.size.unwrap_or(bench.bench_params[0])];
    let machine = MachineModel {
        cores: opts.threads as u64,
        ..MachineModel::default()
    };
    let opt = schedule(&bench.scop, opts)?;
    let plan = plan_from_optimized(&bench.scop, &opt);
    let mut data = ProgramData::new(&bench.scop, &params);
    data.init_lcg(2024);
    let r = model_performance(&bench.scop, &opt, &plan, &mut data, &machine);
    println!(
        "== {} / {} at N = {}, modeled on {} cores ==\n",
        bench.scop.name,
        opts.model.name(),
        params[0],
        machine.cores
    );
    println!(
        "{:<5} {:>12} {:>12} {:>11} {:>11} {:>11} {:>11} {:>11} {:>10}",
        "part", "instances", "ops", "L1 hits", "L2 hits", "L3 hits", "mem", "cycles", "kind"
    );
    for (i, p) in r.partitions.iter().enumerate() {
        println!(
            "{:<5} {:>12} {:>12} {:>11} {:>11} {:>11} {:>11} {:>11} {:>10?}",
            i,
            p.instances,
            p.ops,
            p.hits[0],
            p.hits[1],
            p.hits[2],
            p.hits[3],
            p.serial_cycles,
            p.kind
        );
    }
    println!(
        "\nmodeled serial: {:.4}s   modeled on {} cores: {:.4}s   (speedup {:.2}x)",
        r.serial_seconds,
        machine.cores,
        r.modeled_seconds,
        r.serial_seconds / r.modeled_seconds
    );
    Ok(())
}

/// `wfc explain <bench>`: replay one model's scheduling with the fusion
/// decision log enabled and render every Algorithm 1 ordering choice and
/// Algorithm 2 cut, with rationale.
fn cmd_explain(bench: &Benchmark, opts: &Opts) -> Result<(), WfError> {
    obs::set_enabled(obs::enabled() | obs::DECISIONS);
    if opts.costs {
        // The attribution table only fills while metrics are recording.
        obs::set_enabled(obs::enabled() | obs::METRICS);
    }
    let m0 = obs::metrics();
    let a0 = attr::snapshot();
    let _ = obs::drain_decisions(); // discard anything stale
                                    // The cache would skip the scheduling pass (and with it the log), so
                                    // explain always re-solves.
    let opt = build_optimizer(&bench.scop, opts).cache_off().run()?;
    warn_degraded(&opt);
    let decisions = obs::drain_decisions();
    let costs = opts
        .costs
        .then(|| (attr::snapshot().delta(&a0), obs::metrics().delta(&m0)));
    if opts.json {
        let mut j = Json::obj([
            ("bench", Json::str(bench.scop.name.as_str())),
            ("model", Json::str(opts.model.name())),
            ("partitions", Json::from(opt.n_partitions())),
            ("outer_parallel", Json::from(opt.outer_parallel())),
            (
                "decisions",
                Json::Arr(decisions.iter().map(obs::Decision::to_json).collect()),
            ),
        ]);
        if let Some((a, m)) = &costs {
            j.push("costs", a.to_json());
            j.push("simplex_cells", Json::from(m.counter("simplex.cells")));
            j.push("simplex_updates", Json::from(m.counter("simplex.updates")));
        }
        println!("{}", j.render());
        return Ok(());
    }
    println!(
        "== why {} fused {} the way it did ==\n",
        opts.model.name(),
        bench.scop.name
    );
    if decisions.is_empty() {
        println!(
            "(no fusion decisions recorded — the {} model schedules without \
             the Algorithm 1/2 machinery)",
            opts.model.name()
        );
    }
    for (i, d) in decisions.iter().enumerate() {
        println!("{:>3}. [{}] {}", i + 1, d.kind, d.summary);
        for (k, v) in &d.data {
            println!("       {k}: {v}");
        }
    }
    println!(
        "\nresult: {} partition(s), outer loops parallel: {}",
        opt.n_partitions(),
        opt.outer_parallel()
    );
    println!(
        "partition of each statement: {:?}",
        opt.transformed.partitions
    );
    if let Some((a, m)) = &costs {
        println!();
        print_cost_table(
            a,
            m.counter("simplex.cells"),
            m.counter("simplex.updates"),
            10,
        );
    }
    Ok(())
}

/// The shared "where did the cells go" terminal table: top-`k`
/// attribution rows by simplex cells, plus the reconciliation line
/// against the `simplex.cells` counter over the same interval, and how
/// dense the pivots were: `simplex.updates` (cell updates the kernel
/// performed) over `simplex.cells` (the logical tableau area it covered).
fn print_cost_table(a: &attr::AttrSnapshot, cells_counter: u64, updates_counter: u64, k: usize) {
    println!(
        "{:<52} {:>12} {:>10} {:>8} {:>10}",
        "cost center (bench/model/unit/dim)", "cells", "pivots", "solves", "memo hits"
    );
    for (key, t) in a.top_by_cells(k) {
        println!(
            "{:<52} {:>12} {:>10} {:>8} {:>10}",
            attr::key_display(key),
            t.cells,
            t.pivots,
            t.solves,
            t.memo_hits
        );
    }
    let total = a.total_cells();
    let shown = a.entries.len();
    if shown > k {
        println!("  ({} more cost center(s) below the top {k})", shown - k);
    }
    println!(
        "attributed cells: {total}   simplex.cells counter: {cells_counter}   {}",
        if total == cells_counter {
            "(reconciled)"
        } else {
            "(MISMATCH)"
        }
    );
    #[allow(clippy::cast_precision_loss)]
    let density = updates_counter as f64 * 100.0 / cells_counter.max(1) as f64;
    println!("simplex.updates counter: {updates_counter}   density: {density:.1}% of cells");
}

/// `wfc profile`: fold a span forest into inclusive/exclusive time per
/// span name, the pool-aware critical path, and the solver-cost
/// attribution table — either from a recorded trace (`--trace FILE`) or
/// by re-running every model of a catalog benchmark under tracing.
fn cmd_profile<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    ctx: &ExecContext<'_>,
) -> Result<(), WfError> {
    let mut trace_file: Option<String> = None;
    let mut name: Option<String> = None;
    let mut json = false;
    let mut strip = false;
    let mut top = 10usize;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace" => {
                trace_file = Some(
                    it.next()
                        .ok_or_else(|| WfError::invalid("--trace needs a path"))?
                        .clone(),
                );
            }
            "--top" => {
                top = it
                    .next()
                    .ok_or_else(|| WfError::invalid("--top needs a value"))?
                    .parse()
                    .map_err(|e| WfError::invalid(format!("--top: {e}")))?;
            }
            "--json" => json = true,
            "--strip-timings" => {
                json = true;
                strip = true;
            }
            other if !other.starts_with("--") && name.is_none() => {
                name = Some(other.to_string());
            }
            other => return Err(WfError::invalid(format!("unknown flag '{other}'"))),
        }
    }
    let (source, prof, attribution, [cells_counter, updates_counter], dropped) =
        match (trace_file, name) {
            (Some(_), Some(_)) => {
                return Err(WfError::invalid(
                    "wfc profile takes a benchmark OR --trace FILE, not both",
                ));
            }
            (None, None) => {
                return Err(WfError::invalid(
                    "wfc profile needs a benchmark name or --trace FILE",
                ));
            }
            (Some(path), None) => {
                let src =
                    std::fs::read_to_string(&path).map_err(|e| WfError::io(path.as_str(), &e))?;
                let doc = Json::parse(&src)
                    .map_err(|e| WfError::invalid(format!("{path}: not a trace document: {e}")))?;
                let events = profile::events_from_trace_json(&doc)
                    .map_err(|e| WfError::invalid(format!("{path}: {e}")))?;
                let prof = profile::fold(&events);
                // The trace document carries the attribution table and the
                // metrics snapshot of the run that produced it, so the cost
                // table reconciles without re-running anything.
                let attribution = doc
                    .get("attribution")
                    .map(attr::AttrSnapshot::from_json)
                    .transpose()
                    .map_err(|e| WfError::invalid(format!("{path}: {e}")))?
                    .unwrap_or_default();
                let counter = |name: &str| {
                    doc.get("metrics")
                        .and_then(|m| m.get("counters"))
                        .and_then(|c| c.get(name))
                        .and_then(Json::as_i128)
                        .and_then(|x| u64::try_from(x).ok())
                        .unwrap_or(0)
                };
                let work = [counter("simplex.cells"), counter("simplex.updates")];
                let dropped = doc
                    .get("dropped")
                    .and_then(Json::as_i128)
                    .and_then(|x| u64::try_from(x).ok())
                    .unwrap_or(0);
                (path, prof, attribution, work, dropped)
            }
            (None, Some(name)) => {
                let bench = lookup(&name)?;
                obs::set_enabled(obs::enabled() | obs::TRACE | obs::METRICS);
                let _ = obs::take_events(); // profile only what runs below
                let dropped0 = obs::dropped();
                let m0 = obs::metrics();
                let a0 = attr::snapshot();
                // Re-solve every model from scratch (cache off) on the shared
                // pool, the same shape bench-all drives, so cross-thread span
                // nesting and per-model cost both show up. The solver memo is
                // off for the profiled run: the memo is shared across the
                // concurrently scheduled models, so with it on, thread
                // interleaving would decide which model pays for a shared LP —
                // making attribution (and the timing-stripped document) racy.
                // With it off every model pays its own full cost.
                let memo_was = wf_polyhedra::memo::enabled();
                wf_polyhedra::memo::set_enabled(false);
                let mut optimizer = Optimizer::new(&bench.scop)
                    .threads(ctx.threads())
                    .cache_off()
                    .fallback();
                for (model, r) in optimizer.run_all() {
                    if let Err(e) = r {
                        eprintln!("warning: {} failed: {e}", model.name());
                    }
                }
                wf_polyhedra::memo::set_enabled(memo_was);
                let events: Vec<profile::ProfEvent> = obs::take_events()
                    .iter()
                    .map(profile::ProfEvent::from)
                    .collect();
                let prof = profile::fold(&events);
                let attribution = attr::snapshot().delta(&a0);
                let m = obs::metrics().delta(&m0);
                let work = [m.counter("simplex.cells"), m.counter("simplex.updates")];
                (name, prof, attribution, work, obs::dropped() - dropped0)
            }
        };
    let attributed = attribution.total_cells();
    if json {
        let mut j = prof.to_json();
        j.push("source", Json::str(source.as_str()));
        j.push("attribution", attribution.to_json());
        j.push("simplex_cells", Json::from(cells_counter));
        j.push("simplex_updates", Json::from(updates_counter));
        j.push("attributed_cells", Json::from(attributed));
        j.push("reconciled", Json::from(attributed == cells_counter));
        j.push("dropped", Json::from(dropped));
        if strip {
            // `--strip-timings`: drop every timing-dependent field so a
            // double run byte-compares equal (the CI determinism check).
            j = profile::strip_timings(&j);
        }
        println!("{}", j.render());
        return Ok(());
    }
    println!("== profile: {source} ==\n");
    println!(
        "spans: {}   wall: {}   critical path: {} ({:.1}% of wall)",
        prof.n_events,
        fmt_us(prof.wall_us),
        fmt_us(prof.critical_path_us),
        if prof.wall_us == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let pct = prof.critical_path_us as f64 * 100.0 / prof.wall_us as f64;
            pct
        }
    );
    if dropped > 0 {
        println!("(!) {dropped} span(s) dropped at a buffer bound — times are a lower bound");
    }
    println!("\ncritical path (dominant chain, root -> leaf):");
    for step in &prof.critical_path {
        println!("  {:<28} {}", step.name, fmt_us(step.cp_us));
    }
    println!(
        "\n{:<28} {:>8} {:>12} {:>12}",
        "span", "count", "inclusive", "exclusive"
    );
    let mut by_excl: Vec<(&String, &profile::SpanStat)> = prof.spans.iter().collect();
    by_excl.sort_by(|a, b| b.1.exclusive_us.cmp(&a.1.exclusive_us).then(a.0.cmp(b.0)));
    for (name, s) in by_excl.iter().take(top) {
        println!(
            "{:<28} {:>8} {:>12} {:>12}",
            name,
            s.count,
            fmt_us(s.inclusive_us),
            fmt_us(s.exclusive_us)
        );
    }
    println!();
    print_cost_table(&attribution, cells_counter, updates_counter, top);
    Ok(())
}

/// Render microseconds humanely for terminal tables.
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        #[allow(clippy::cast_precision_loss)]
        let s = us as f64 / 1e6;
        format!("{s:.3}s")
    } else if us >= 1_000 {
        #[allow(clippy::cast_precision_loss)]
        let ms = us as f64 / 1e3;
        format!("{ms:.2}ms")
    } else {
        format!("{us}us")
    }
}

fn cmd_optfile(path: &str, opts: &Opts) -> Result<(), WfError> {
    let src = std::fs::read_to_string(path).map_err(|e| WfError::io(path, &e))?;
    let scop = wf_scop::text::parse(&src).map_err(|e| WfError::Parse {
        line: e.line,
        message: format!("{path}: {}", e.message),
    })?;
    let t0 = Instant::now();
    let opt = schedule(&scop, opts)?;
    println!(
        "== {} under {} (scheduled in {:.1?}) ==\n",
        scop.name,
        opts.model.name(),
        t0.elapsed()
    );
    let names: Vec<String> = scop.statements.iter().map(|s| s.name.clone()).collect();
    print!("{}", opt.transformed.schedule.render(&names));
    println!(
        "\npartitions: {:?}\nouter loops parallel: {}",
        opt.transformed.partitions,
        opt.outer_parallel()
    );
    let plan = plan_from_optimized(&scop, &opt);
    println!("\n== generated code ==\n{}", render_plan(&scop, &plan));
    Ok(())
}
