//! Direct probes of single layers, made by the traced run only. Fixtures
//! are built here with a fixed row order, so unlike the scheduler's own
//! systems their work repeats exactly.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use wf_harness::SplitMix64;
use wf_linalg::Rat;
use wf_polyhedra::simplex::{solve_lp_measured, LpResult, Sense};
use wf_polyhedra::{fm, ConstraintSystem};
use wf_scop::Scop;
use wf_wisefuse::cache::{spill_read, spill_write, Fingerprint, SpillOutcome};
use wf_wisefuse::{Model, Optimizer};

use crate::compile::Pair;

/// A bounded, feasible system: the box `0 <= x <= 10` cut by `rows` sparse
/// random half-spaces (three small coefficients each, like the scheduler's
/// own rows) that all contain the point `x = 1`.
fn fixture(vars: usize, rows: usize, seed: u64) -> ConstraintSystem {
    let mut rng = SplitMix64::new(seed);
    let mut cs = ConstraintSystem::new(vars);
    for v in 0..vars {
        cs.add_lower_bound(v, 0);
        cs.add_upper_bound(v, 10);
    }
    for _ in 0..rows {
        let mut row = vec![0i128; vars];
        for _ in 0..3 {
            row[rng.gen_usize(0, vars)] = rng.gen_i128(-2, 3);
        }
        let at_one: i128 = row.iter().sum();
        row.push(rng.gen_i128(0, 4) - at_one);
        cs.add_ge0(row);
    }
    cs
}

/// Simplex throughput on a fixed 24-variable LP: tableau cell updates per
/// second, separating "cheaper cells" from "fewer cells".
pub fn lp_cells_per_s() -> f64 {
    let cs = fixture(24, 36, 0x1b);
    let objective: Vec<Rat> = (0..24).map(|v| Rat::int(1 + (v % 5))).collect();
    let (mut pivots, mut cells) = (0u64, 0u64);
    let t0 = Instant::now();
    for _ in 0..20 {
        let r = solve_lp_measured(
            black_box(&cs),
            &objective,
            Sense::Min,
            &mut pivots,
            &mut cells,
            u64::MAX,
        );
        assert!(
            matches!(r, LpResult::Optimal { .. }),
            "probe LP must be solvable"
        );
    }
    cells as f64 / t0.elapsed().as_secs_f64()
}

/// Seconds for `fm::remove_redundant` on a fixed system whose random rows
/// are mostly implied by its box.
pub fn fm_prune_s() -> f64 {
    let cs = fixture(8, 24, 0xf3);
    let t0 = Instant::now();
    let kept = fm::remove_redundant(black_box(&cs));
    let secs = t0.elapsed().as_secs_f64();
    assert!(kept.constraints.len() <= cs.constraints.len());
    secs
}

/// Nanoseconds per `Rat` multiply-add-normalise, the cell update of the
/// exact simplex.
pub fn rat_axpy_ns() -> f64 {
    const N: usize = 500_000;
    let table: Vec<Rat> = (1..=16).map(|k| Rat::new(2 * k + 1, k + 2)).collect();
    let mut acc = Rat::ONE;
    let mut sink = 0i128;
    let t0 = Instant::now();
    for k in 0..N {
        acc = acc * table[k % 16] + table[(k * 7 + 3) % 16];
        if k % 8 == 7 {
            // Restart before the numerator outgrows i128.
            sink ^= acc.num();
            acc = Rat::ONE;
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / N as f64;
    black_box(sink);
    ns
}

/// Seconds to store, then to load, every schedule of a pass through the
/// spill codec, in a directory of the probe's own.
pub fn spill_round_trip<'a>(
    dir: &Path,
    entries: impl Iterator<Item = (&'a Scop, &'a Pair)>,
) -> (f64, f64) {
    let config = wf_schedule::PlutoConfig::default();
    let entries: Vec<_> = entries
        .map(|(scop, pair)| (Fingerprint::new(scop, pair.model, &config), pair))
        .collect();
    let t0 = Instant::now();
    for (key, pair) in &entries {
        spill_write(dir, key, &pair.opt.transformed).expect("probe spill directory is writable");
    }
    let store_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for (key, _) in &entries {
        assert!(matches!(spill_read(dir, key), SpillOutcome::Hit(_)));
    }
    (store_s, t0.elapsed().as_secs_f64())
}

/// Serial and pooled seconds of dependence analysis and of `run_all` on
/// one program, with `min(nproc, 5)` workers. No workload is parallel;
/// this is here so that a change to the pool has a number.
pub struct PoolProbe {
    pub analyze_serial_s: f64,
    pub analyze_par_s: f64,
    pub run_all_serial_s: f64,
    pub run_all_par_s: f64,
}

pub fn pool(scop: &Scop) -> PoolProbe {
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(Model::ALL.len());
    let analyze = |threads| {
        wf_polyhedra::memo::clear();
        let t0 = Instant::now();
        let ddg = wf_deps::try_analyze(scop, threads).expect("probe program analyses");
        (ddg, t0.elapsed().as_secs_f64())
    };
    let (ddg, analyze_serial_s) = analyze(1);
    let (_, analyze_par_s) = analyze(workers);
    let run_all = |threads| {
        wf_polyhedra::memo::clear();
        let mut optimizer = Optimizer::new(scop)
            .with_ddg(ddg.clone())
            .cache_off()
            .threads(threads);
        let t0 = Instant::now();
        black_box(optimizer.run_all());
        t0.elapsed().as_secs_f64()
    };
    PoolProbe {
        analyze_serial_s,
        analyze_par_s,
        run_all_serial_s: run_all(1),
        run_all_par_s: run_all(workers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_repeat_and_probes_return_positive_numbers() {
        assert_eq!(fixture(6, 9, 5), fixture(6, 9, 5));
        assert!(fixture(6, 9, 5).contains(&[1; 6]));
        assert!(lp_cells_per_s() > 0.0);
        assert!(fm_prune_s() > 0.0);
        assert!(rat_axpy_ns() > 0.0);
    }
}
