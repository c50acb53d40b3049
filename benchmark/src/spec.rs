//! What the benchmark runs and what it reports: workloads, op lists,
//! problem sizes and the metric tables `BENCHMARK.json` is written from.

use wf_harness::json::Json;
use wf_harness::SplitMix64;
use wf_wisefuse::Model;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    CatalogCold,
    CatalogWarm,
    FuzzMix,
    Kernels,
}

impl Workload {
    /// The order the runner starts them in.
    pub const ALL: [Workload; 4] = [
        Workload::CatalogCold,
        Workload::CatalogWarm,
        Workload::FuzzMix,
        Workload::Kernels,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CatalogCold => "catalog_cold",
            Workload::CatalogWarm => "catalog_warm",
            Workload::FuzzMix => "fuzz_mix",
            Workload::Kernels => "kernels",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::CatalogCold => {
                "eight of the paper's ten programs x five models scheduled from an empty cache: simplex/ILP and FM pruning do 93% of the work"
            }
            Workload::CatalogWarm => {
                "the same ops against a populated spill cache: the solver is bypassed and dependence analysis is 96% of the time"
            }
            Workload::FuzzMix => {
                "200 generated SCoPs the code was not tuned on: many small tableaux (median op 11 ms) beside a tail of 1-7 s ops"
            }
            Workload::Kernels => {
                "run time of the generated code, ten programs x four models: interpreter, cc -O2 native and the machine model"
            }
        }
    }

    /// Workloads that schedule from scratch get a spill directory of their
    /// own that nothing was stored in; the others read the per-build shared
    /// one.
    pub fn schedules_cold(self) -> bool {
        matches!(self, Workload::CatalogCold | Workload::FuzzMix)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Is `b` worse than `a` by more than `bound` (a share of `a`)?
    pub fn worse_by(self, a: f64, b: f64, bound: f64) -> bool {
        match self {
            Better::Lower => b > a * (1.0 + bound),
            Better::Higher => b < a * (1.0 - bound),
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (the driver's contract), so
/// every workload has a compile side and a kernel side; see README.md.
/// Each bound is at least three times the widest inter-quartile spread seen
/// for the metric over ten seeds on the sizing host (a shared 2-core VM whose
/// timings spread 2-10% between identical runs).
pub const END_TO_END: [Metric; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("compile_s", "s", Better::Lower, 0.25),
    e2e("compile_op_p50_s", "s", Better::Lower, 0.20),
    e2e("compile_op_p95_s", "s", Better::Lower, 0.25),
    e2e("code_bytes", "bytes", Better::Lower, 0.02),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("interp_kernel_s", "s", Better::Lower, 0.20),
    e2e("native_kernel_s", "s", Better::Lower, 0.15),
    e2e("modeled_kernel_cycles", "cycles", Better::Lower, 0.01),
    e2e("fusion_gain_native", "x", Better::Higher, 0.20),
    e2e("fusion_gain_modeled", "x", Better::Higher, 0.01),
];

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// Per-layer metrics of the traced run, `layer.metric`, layer = crate.
pub const PER_LAYER: [(&str, &str, Better); 88] = [
    ("scop.parse_s", "s", L),
    ("scop.text_bytes", "bytes", L),
    ("scop.statements", "count", L),
    ("deps.analyze_s", "s", L),
    ("deps.edges", "count", L),
    ("deps.sccs", "count", L),
    ("deps.fm_prune_ms", "ms", L),
    ("deps.share_pct", "%", L),
    ("core.run_model_s", "s", L),
    ("core.run_model_s.icc", "s", L),
    ("core.run_model_s.wisefuse", "s", L),
    ("core.run_model_s.smartfuse", "s", L),
    ("core.run_model_s.nofuse", "s", L),
    ("core.run_model_s.maxfuse", "s", L),
    ("core.algorithm1_s", "s", L),
    ("core.partitions.icc", "count", L),
    ("core.partitions.wisefuse", "count", L),
    ("core.partitions.smartfuse", "count", L),
    ("core.partitions.nofuse", "count", L),
    ("core.partitions.maxfuse", "count", L),
    ("schedule.props_s", "s", L),
    ("schedule.search_s", "s", L),
    ("schedule.share_pct", "%", L),
    ("schedule.cuts", "count", L),
    ("schedule.farkas_systems", "count", L),
    ("schedule.farkas_rows", "count", L),
    ("polyhedra.simplex_cells", "count", L),
    ("polyhedra.simplex_pivots", "count", L),
    ("polyhedra.cells_per_pivot", "count", L),
    ("polyhedra.cells_per_s", "1/s", H),
    ("polyhedra.ilp_solves", "count", L),
    ("polyhedra.ilp_nodes", "count", L),
    ("polyhedra.ilp_budget_exhausted", "count", L),
    ("polyhedra.fm_eliminations", "count", L),
    ("polyhedra.fm_prunes", "count", L),
    ("polyhedra.fm_prune_ms", "ms", L),
    ("polyhedra.memo_hits", "count", H),
    ("polyhedra.memo_misses", "count", L),
    ("polyhedra.memo_hit_pct", "%", H),
    ("polyhedra.lp_probe_cells_per_s", "1/s", H),
    ("polyhedra.fm_probe_prune_s", "s", L),
    ("linalg.rat_axpy_ns", "ns", L),
    ("core.cache_stores", "count", L),
    ("core.cache_spill_hits", "count", H),
    ("core.cache_misses", "count", L),
    ("core.cache_hit_pct", "%", H),
    ("core.cache_spill_store_s", "s", L),
    ("core.cache_spill_read_s", "s", L),
    ("core.spill_bytes", "bytes", L),
    ("core.degraded", "count", L),
    ("verify.check_s", "s", L),
    ("verify.checks", "count", L),
    ("verify.rejects", "count", L),
    ("codegen.plan_s", "s", L),
    ("codegen.render_s", "s", L),
    ("codegen.emit_c_s", "s", L),
    ("codegen.plans", "count", L),
    ("codegen.c_bytes.icc", "bytes", L),
    ("codegen.c_bytes.wisefuse", "bytes", L),
    ("codegen.c_bytes.smartfuse", "bytes", L),
    ("codegen.c_bytes.nofuse", "bytes", L),
    ("codegen.c_bytes.maxfuse", "bytes", L),
    ("runtime.execute_s.icc", "s", L),
    ("runtime.execute_s.wisefuse", "s", L),
    ("runtime.execute_s.smartfuse", "s", L),
    ("runtime.execute_s.nofuse", "s", L),
    ("runtime.reference_s", "s", L),
    ("runtime.instances_per_s", "1/s", H),
    ("runtime.parallel_bands", "count", L),
    ("cachesim.model_s", "s", L),
    ("cachesim.accesses", "count", L),
    ("cachesim.l1_miss_pct", "%", L),
    ("cachesim.mem_accesses", "count", L),
    ("cachesim.modeled_serial_s", "model_s", L),
    ("native.cc_s", "s", L),
    ("native.kernel_s.icc", "s", L),
    ("native.kernel_s.wisefuse", "s", L),
    ("native.kernel_s.smartfuse", "s", L),
    ("native.kernel_s.nofuse", "s", L),
    ("native.vs_interp_x", "x", H),
    ("harness.analyze_serial_s", "s", L),
    ("harness.analyze_par_s", "s", L),
    ("harness.run_all_serial_s", "s", L),
    ("harness.run_all_par_s", "s", L),
    ("trace.compile_s", "s", L),
    ("trace.passes", "count", L),
    ("trace.spans", "count", L),
    ("trace.unaccounted_pct", "%", L),
];

/// How long one run measures at least: a workload repeats whole passes of
/// its op list until this much has been measured, and always finishes one.
/// On the sizing host that is one pass of every workload (the shortest,
/// `catalog_warm`, takes 2.2 s), which is what the driver's total time cap
/// leaves room for; a faster host repeats the short ones.
pub const RUN_SECONDS: u32 = 2;

/// `BENCHMARK.json`, written from the tables above
/// (`wf-benchmark manifest > BENCHMARK.json`).
pub fn manifest() -> Json {
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.name())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            Json::obj([
                ("name", Json::str(*name)),
                ("unit", Json::str(*unit)),
                ("better", Json::str(better.name())),
            ])
        })
        .collect();
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::from(u64::from(RUN_SECONDS))),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

/// The models every workload but the catalog compile schedules: `maxfuse`
/// is 91% of the time on generated programs, and the kernel comparison of
/// the paper is against icc/nofuse/smartfuse.
pub const FOUR_MODELS: [Model; 4] = [Model::Icc, Model::Wisefuse, Model::Smartfuse, Model::Nofuse];

/// The pair the fusion gain is a ratio of (base: smartfuse).
pub const GAIN_MODELS: [Model; 2] = [Model::Wisefuse, Model::Smartfuse];

/// Problem sizes (the single parameter `N`) of one catalog program on the
/// kernel side. `interp_n` keeps one interpreter run near 0.1-0.3 s (the
/// catalog's `bench_params` cost 0.25-1.2 s a run, 48 s over the workload);
/// `native_n` makes every `cc -O2` kernel run >= 10 ms inside 128 MB of
/// static data.
pub struct Sizes {
    pub program: &'static str,
    pub interp_n: i128,
    pub native_n: i128,
}

pub const CATALOG_SIZES: [Sizes; 10] = [
    sizes("gemsfdtd", 28, 110),
    sizes("swim", 128, 800),
    sizes("applu", 28, 110),
    sizes("bt", 28, 110),
    sizes("sp", 28, 110),
    sizes("advect", 200, 1500),
    sizes("lu", 80, 500),
    sizes("tce", 14, 32),
    sizes("gemver", 256, 3000),
    sizes("wupwise", 50, 300),
];

const fn sizes(program: &'static str, interp_n: i128, native_n: i128) -> Sizes {
    Sizes {
        program,
        interp_n,
        native_n,
    }
}

/// Sizes of the generated programs (depth <= 2, arrays of extent N or NxN).
pub const FUZZ_INTERP_N: i128 = 200;
pub const FUZZ_NATIVE_N: i128 = 2000;
/// Generated programs per pass, and how many of them get a kernel side.
pub const FUZZ_PROGRAMS: u64 = 200;
pub const FUZZ_KERNEL_SAMPLE: usize = 6;

/// The `--smoke` catalog: the three programs that schedule fastest.
pub const SMOKE_PROGRAMS: [&str; 3] = ["advect", "lu", "wupwise"];

/// The catalog programs whose emitted C the compile workloads also build
/// and run. Every native kernel of these runs >= 18 ms, so the ratio behind
/// `fusion_gain_native` is not a ratio of timer noise (advect's 9 ms kernels
/// made it spread 9% between identical runs).
pub const SAMPLE_PROGRAMS: [&str; 3] = ["applu", "lu", "gemver"];

/// Left out of the catalog compile workloads (`kernels` keeps them): bt and
/// sp come from the same `passes::build_passes` as applu, differing in
/// stencil axis and radius only, and schedule within 3% of its time (5.3 s
/// cold, 1.5 s warm each). Keeping all three would cost a quarter of
/// `catalog_cold` for the solver paths applu already walks, and the
/// driver's time cap has no room for it.
pub const COMPILE_TWINS: [&str; 2] = ["bt", "sp"];

/// One entry of a workload's op list. The compile op sees only `text`.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    pub name: String,
    /// `.wfs` source.
    pub text: String,
    /// Models the compile op schedules, in `Model::ALL` order.
    pub models: Vec<Model>,
    /// Models whose generated code is also run (interpreter, native, model).
    pub kernel_models: Vec<Model>,
    /// Small parameters for the differential and the native hash check.
    pub check: Vec<i128>,
    pub interp: Vec<i128>,
    pub native: Vec<i128>,
}

pub struct Scale {
    pub smoke: bool,
    /// First generated-program seed of `fuzz_mix` (a held-out set is
    /// another base).
    pub fuzz_base: u64,
}

/// The op list of `workload`: a fixed set of programs in an order drawn
/// from `seed`. The set does not depend on the seed because compile cost
/// is heavy-tailed over generated programs (one seed in 200 can cost 50 s)
/// and no metric would repeat within its bound across program sets.
pub fn op_list(workload: Workload, seed: u64, scale: &Scale) -> Vec<Program> {
    let mut ops = match workload {
        Workload::FuzzMix => fuzz_programs(scale),
        _ => catalog_programs(workload, scale),
    };
    let mut rng = SplitMix64::new(seed ^ 0x006f_705f_6c69_7374); // "op_list"
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.gen_usize(0, i + 1));
    }
    ops
}

fn catalog_programs(workload: Workload, scale: &Scale) -> Vec<Program> {
    wf_benchsuite::catalog()
        .into_iter()
        .filter(|b| !scale.smoke || SMOKE_PROGRAMS.contains(&b.name))
        .filter(|b| workload == Workload::Kernels || !COMPILE_TWINS.contains(&b.name))
        .map(|b| {
            let sz = CATALOG_SIZES
                .iter()
                .find(|s| s.program == b.name)
                .expect("every catalog program has sizes");
            let full_kernel_side = workload == Workload::Kernels;
            let models = if full_kernel_side {
                FOUR_MODELS.to_vec()
            } else {
                // gemsfdtd x maxfuse is ~100 s by itself, 2.4x all the other
                // pairs together; gemver x maxfuse and tce keep its
                // dense-tableau regime in the workload.
                Model::ALL
                    .into_iter()
                    .filter(|&m| !(b.name == "gemsfdtd" && m == Model::Maxfuse))
                    .collect()
            };
            let kernel_models = if full_kernel_side {
                FOUR_MODELS.to_vec()
            } else if scale.smoke || SAMPLE_PROGRAMS.contains(&b.name) {
                GAIN_MODELS.to_vec()
            } else {
                Vec::new()
            };
            let (interp, native) = if scale.smoke {
                (b.test_params.clone(), vec![(sz.native_n / 4).max(8)])
            } else {
                (vec![sz.interp_n], vec![sz.native_n])
            };
            Program {
                name: b.name.to_string(),
                text: wf_scop::text::to_text(&b.scop),
                models,
                kernel_models,
                check: b.test_params,
                interp,
                native,
            }
        })
        .collect()
}

fn fuzz_programs(scale: &Scale) -> Vec<Program> {
    let (n, sample) = if scale.smoke {
        (20, 2)
    } else {
        (FUZZ_PROGRAMS, FUZZ_KERNEL_SAMPLE)
    };
    let mut sampled = 0;
    (0..n)
        .map(|i| {
            let case = wf_verify::gen_case(scale.fuzz_base + i);
            // The kernel side needs programs whose run time is not noise and
            // where fusion has a choice to make: two or more depth-2 nests
            // that each write a 2-D array (N x N stores).
            let heavy = |s: &&wf_scop::Statement| {
                s.depth == 2 && case.scop.arrays[s.write.array].dims.len() == 2
            };
            let worth_running = case.scop.statements.iter().filter(heavy).count() >= 2;
            let kernel_models = if worth_running && sampled < sample {
                sampled += 1;
                GAIN_MODELS.to_vec()
            } else {
                Vec::new()
            };
            let (interp, native) = if scale.smoke {
                (vec![case.param_value], vec![FUZZ_NATIVE_N / 4])
            } else {
                (vec![FUZZ_INTERP_N], vec![FUZZ_NATIVE_N])
            };
            Program {
                name: case.scop.name.clone(),
                text: wf_scop::text::to_text(&case.scop),
                models: FOUR_MODELS.to_vec(),
                kernel_models,
                check: vec![case.param_value],
                interp,
                native,
            }
        })
        .collect()
}

/// The LCG seed of every data initialisation, drawn from the run's seed.
/// Always 19 decimal digits: `emit_c` writes it into the C text, and
/// `code_bytes` must not depend on how many digits a seed has.
pub fn data_seed(seed: u64) -> u64 {
    const BASE: u64 = 1_000_000_000_000_000_000;
    BASE + SplitMix64::new(seed).next_u64() % (8 * BASE)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: Scale = Scale {
        smoke: false,
        fuzz_base: 0,
    };

    fn names(ops: &[Program]) -> Vec<String> {
        ops.iter().map(|p| p.name.clone()).collect()
    }

    #[test]
    fn same_seed_same_op_list_other_seed_other_order_same_set() {
        for w in [Workload::CatalogCold, Workload::Kernels] {
            let a = op_list(w, 3, &FULL);
            assert_eq!(a, op_list(w, 3, &FULL));
            let b = op_list(w, 4, &FULL);
            assert_ne!(names(&a), names(&b), "{w:?}: order must follow the seed");
            let (mut sa, mut sb) = (names(&a), names(&b));
            sa.sort();
            sb.sort();
            assert_eq!(sa, sb, "{w:?}: the set must not");
        }
        let smoke = Scale {
            smoke: true,
            fuzz_base: 0,
        };
        let f = op_list(Workload::FuzzMix, 9, &smoke);
        assert_eq!(f, op_list(Workload::FuzzMix, 9, &smoke));
        assert_eq!(f.len(), 20);
    }

    #[test]
    fn catalog_pairs_and_exclusion() {
        let ops = op_list(Workload::CatalogCold, 0, &FULL);
        assert_eq!(ops.len(), 8);
        assert_eq!(ops.iter().map(|p| p.models.len()).sum::<usize>(), 39);
        let gems = ops.iter().find(|p| p.name == "gemsfdtd").unwrap();
        assert!(!gems.models.contains(&Model::Maxfuse));
        let sampled = ops.iter().filter(|p| !p.kernel_models.is_empty()).count();
        assert_eq!(sampled, SAMPLE_PROGRAMS.len());
        let kernels = op_list(Workload::Kernels, 0, &FULL);
        assert_eq!(
            kernels.iter().map(|p| p.kernel_models.len()).sum::<usize>(),
            40
        );
    }

    #[test]
    fn data_seed_has_nineteen_digits() {
        for seed in [0, 1, 7, 1234, u64::MAX] {
            assert_eq!(data_seed(seed).to_string().len(), 19);
        }
        assert_ne!(data_seed(1), data_seed(2));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Json::parse(&text).expect("valid JSON"), manifest());
    }
}
