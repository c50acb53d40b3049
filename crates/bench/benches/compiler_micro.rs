//! Criterion micro-benchmarks of the compiler passes themselves: exact LP,
//! ILP, Fourier–Motzkin, dependence analysis, SCC computation, Algorithm 1,
//! and end-to-end scheduling per fusion model.

use wf_benchsuite::{by_name, catalog};
use wf_deps::{analyze, kosaraju, tarjan};
use wf_harness::{criterion_group, criterion_main, BenchmarkId, Criterion, SplitMix64, Throughput};
use wf_linalg::Rat;
use wf_polyhedra::simplex::solve_lp_work;
use wf_polyhedra::{fm, solve_ilp, solve_lp, ConstraintSystem, LpWork, Sense};
use wf_wisefuse::prefusion::algorithm1;
use wf_wisefuse::{optimize, Model};

fn lp_fixture(n: usize) -> ConstraintSystem {
    let mut cs = ConstraintSystem::new(n);
    for v in 0..n {
        cs.add_lower_bound(v, 0);
        cs.add_upper_bound(v, 100);
    }
    // Coupling rows.
    for v in 0..n.saturating_sub(1) {
        let mut row = vec![0i128; n + 1];
        row[v] = 1;
        row[v + 1] = -2;
        row[n] = 50;
        cs.add_ge0(row);
    }
    cs
}

/// A system shaped like the scheduler's: `n_c` bounded schedule
/// coefficients, `n_l` non-negative Farkas multipliers over sparse seeded
/// faces, one equality per coefficient, and a non-triviality row.
fn farkas_fixture(n_c: usize, n_l: usize) -> ConstraintSystem {
    let mut rng = SplitMix64::new(20140215);
    let n = n_c + n_l;
    let mut cs = ConstraintSystem::new(n);
    for k in 0..n_c {
        cs.add_lower_bound(k, 0);
        cs.add_upper_bound(k, 4);
        let mut row = vec![0i128; n + 1];
        row[k] = 1;
        for i in 0..n_l {
            if rng.gen_below(4) == 0 {
                row[n_c + i] = rng.gen_i128(-2, 3);
            }
        }
        cs.add_eq0(row);
    }
    for i in 0..n_l {
        cs.add_lower_bound(n_c + i, 0);
    }
    let mut nontrivial = vec![0i128; n + 1];
    nontrivial[..n_c].fill(1);
    nontrivial[n] = -1;
    cs.add_ge0(nontrivial);
    cs
}

/// Simplex throughput in both currencies, so "cheaper cells" and "fewer
/// cells" stay separable: logical cells per second (`simplex.cells`, what
/// budgets and reports count) and performed updates per second
/// (`simplex.updates`, what the kernel does). Same solve, two annotations;
/// read `elements_per_sec` of each entry.
fn bench_simplex_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simplex_throughput");
    g.sample_size(10);
    let (n_c, n_l) = (16, 64);
    let cs = farkas_fixture(n_c, n_l);
    let mut obj = vec![Rat::ZERO; n_c + n_l];
    obj[..n_c].fill(Rat::ONE);
    let mut work = LpWork::default();
    let _ = solve_lp_work(&cs, &obj, Sense::Min, &mut work, u64::MAX);
    for (name, elements) in [("cells_per_s", work.cells), ("updates_per_s", work.updates)] {
        g.throughput(Throughput::Elements(elements));
        g.bench_with_input(BenchmarkId::new(name, "farkas16x64"), &cs, |b, cs| {
            b.iter(|| solve_lp(cs, &obj, Sense::Min));
        });
    }
    g.finish();
}

fn bench_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("solvers");
    g.sample_size(20);
    for n in [4usize, 8, 16] {
        let cs = lp_fixture(n);
        let obj: Vec<Rat> = (0..n).map(|v| Rat::int((v % 3) as i128 - 1)).collect();
        g.bench_with_input(BenchmarkId::new("simplex", n), &cs, |b, cs| {
            b.iter(|| solve_lp(cs, &obj, Sense::Min));
        });
        let iobj: Vec<i128> = (0..n).map(|v| (v % 3) as i128 - 1).collect();
        g.bench_with_input(BenchmarkId::new("ilp", n), &cs, |b, cs| {
            b.iter(|| solve_ilp(cs, &iobj, Sense::Min).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("fm_eliminate", n), &cs, |b, cs| {
            let vars: Vec<usize> = (n / 2..n).collect();
            b.iter(|| fm::eliminate_vars_greedy(cs, &vars, 60));
        });
    }
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("analysis");
    g.sample_size(10);
    for name in ["gemver", "advect", "gemsfdtd"] {
        let scop = by_name(name).unwrap().scop;
        g.bench_function(BenchmarkId::new("dependence_analysis", name), |b| {
            b.iter(|| analyze(&scop));
        });
        let ddg = analyze(&scop);
        g.bench_function(BenchmarkId::new("scc_tarjan", name), |b| {
            b.iter(|| tarjan(&ddg));
        });
        g.bench_function(BenchmarkId::new("scc_kosaraju", name), |b| {
            b.iter(|| kosaraju(&ddg));
        });
        let sccs = tarjan(&ddg);
        g.bench_function(BenchmarkId::new("algorithm1", name), |b| {
            b.iter(|| algorithm1(&scop, &ddg, &sccs));
        });
    }
    g.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduling");
    g.sample_size(10);
    for b_entry in catalog() {
        // The deep kernels take tens of seconds per schedule; sampling them
        // repeatedly under Criterion is not informative. The figure
        // harnesses time them once each.
        if !matches!(b_entry.name, "gemver" | "advect" | "wupwise") {
            continue;
        }
        g.bench_function(BenchmarkId::new("wisefuse", b_entry.name), |b| {
            b.iter(|| optimize(&b_entry.scop, Model::Wisefuse).unwrap());
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_solvers,
    bench_simplex_throughput,
    bench_analysis,
    bench_scheduling
);
criterion_main!(benches);
