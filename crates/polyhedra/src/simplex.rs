//! Exact two-phase rational simplex.
//!
//! All variables of the input [`ConstraintSystem`] are *free* (they may take
//! negative values); internally each is split into a difference of two
//! non-negative variables. Entering columns are chosen by Dantzig's rule
//! (most negative reduced cost), switching permanently to Bland's rule after
//! a degeneracy budget so that termination is guaranteed.
//!
//! This is the hot loop of a cold compile: the scheduler's Farkas systems
//! give tableaux of hundreds of rows by over a thousand columns, of which a
//! pivot row is typically ~15 % nonzero. A pivot therefore touches only the
//! nonzero columns of the scaled pivot row, in only the rows whose
//! pivot-column entry is nonzero — every skipped update is `x - f * 0` or
//! `x - 0 * b`, so each tableau value, and with it every pivot choice and
//! every result, is the one the textbook dense update computes (the dense
//! update is kept under `#[cfg(test)]` and compared against on every solve
//! of a property test).
//!
//! No floating point is used anywhere: infeasibility / unboundedness /
//! optimality verdicts are exact, which the legality analysis depends on.

use crate::constraint::{ConstraintKind, ConstraintSystem};
use wf_linalg::Rat;

/// Optimization direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sense {
    /// Minimize the objective.
    Min,
    /// Maximize the objective.
    Max,
}

/// Result of an LP solve.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LpResult {
    /// The constraint system has no rational solution.
    Infeasible,
    /// The objective is unbounded in the requested direction.
    Unbounded,
    /// An optimal vertex was found.
    Optimal {
        /// Optimal objective value.
        value: Rat,
        /// A point attaining it (one per original variable).
        point: Vec<Rat>,
    },
    /// The cell-update limit passed to [`solve_lp_work`] was exhausted
    /// mid-solve; no verdict. Only produced under a finite limit — plain
    /// [`solve_lp`] never returns this.
    Exhausted,
}

impl LpResult {
    /// The optimal value, if any.
    #[must_use]
    pub fn value(&self) -> Option<Rat> {
        match self {
            LpResult::Optimal { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// The optimal point, if any.
    #[must_use]
    pub fn point(&self) -> Option<&[Rat]> {
        match self {
            LpResult::Optimal { point, .. } => Some(point),
            _ => None,
        }
    }
}

/// Work accounting accumulated over one or more LP solves.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct LpWork {
    /// Simplex pivots, both phases.
    pub pivots: u64,
    /// Logical cell updates: `(rows + 1) * cols` per pivot, the tableau
    /// area, whatever the entries are. Deterministic and independent of
    /// how the pivot is carried out, so budgets ([`solve_lp_work`]'s
    /// `cell_limit`), memo keys and reports built on it never move when
    /// the kernel changes.
    pub cells: u64,
    /// Cell updates actually performed: per pivot, the nonzero entries of
    /// the pivot row times the rows it was applied to (itself, every row
    /// with a nonzero pivot-column entry, and the reduced-cost row
    /// likewise). `updates / cells` is the density the kernel exploits.
    pub updates: u64,
}

/// Dense simplex tableau in standard equality form `T y = rhs`, `y >= 0`.
struct Tableau {
    /// `rows x cols` constraint coefficients.
    t: Vec<Vec<Rat>>,
    /// Right-hand sides (kept non-negative at basic feasible points).
    rhs: Vec<Rat>,
    /// Reduced-cost row.
    z: Vec<Rat>,
    /// Negative of current objective value.
    zval: Rat,
    /// Basic variable per row.
    basis: Vec<usize>,
    cols: usize,
    /// Total pivots performed over the tableau's lifetime (both phases);
    /// the ILP's pivot budget reads this through [`LpWork::pivots`].
    n_pivots: u64,
    /// Total tableau *cell updates* over the lifetime: each pivot costs
    /// `(rows + 1) * cols` whether or not individual entries short-circuit
    /// on zero, so this is a deterministic, machine-independent measure of
    /// arithmetic work. Raw pivot counts hide a factor of the tableau area
    /// — a pivot on a 300x700 exact-rational tableau is ~1000x a pivot on
    /// a 20x60 one — and the ILP's work budget needs the honest number.
    n_cells: u64,
    /// Cell updates actually performed (see [`LpWork::updates`]).
    n_updates: u64,
    /// Abort the solve once `n_cells` exceeds this (checked per pivot, so a
    /// single runaway LP cannot overshoot by more than one pivot's area).
    /// `u64::MAX` = unlimited.
    cell_limit: u64,
}

/// Outcome of a [`Tableau::run`] phase.
#[derive(PartialEq, Eq)]
enum RunOutcome {
    Optimal,
    Unbounded,
    Exhausted,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        self.n_pivots += 1;
        self.n_cells += (self.t.len() as u64 + 1) * self.cols as u64;
        #[cfg(test)]
        if tests::DENSE_REFERENCE.get() {
            return self.pivot_dense(row, col);
        }
        let inv = self.t[row][col].recip();
        // The scaled pivot row's nonzero (column, value) pairs.
        let mut nz = Vec::with_capacity(self.cols);
        for (j, x) in self.t[row].iter_mut().enumerate() {
            if !x.is_zero() {
                *x *= inv;
                nz.push((j, *x));
            }
        }
        let pivot_rhs = self.rhs[row] * inv;
        self.rhs[row] = pivot_rhs;
        let mut rows_touched = 1u64;
        for (i, r) in self.t.iter_mut().enumerate() {
            let f = r[col];
            if i == row || f.is_zero() {
                continue;
            }
            rows_touched += 1;
            for &(j, b) in &nz {
                r[j] = r[j].sub_mul(f, b);
            }
            if !pivot_rhs.is_zero() {
                self.rhs[i] = self.rhs[i].sub_mul(f, pivot_rhs);
            }
        }
        let zf = self.z[col];
        if !zf.is_zero() {
            rows_touched += 1;
            for &(j, b) in &nz {
                self.z[j] = self.z[j].sub_mul(zf, b);
            }
            if !pivot_rhs.is_zero() {
                self.zval = self.zval.sub_mul(zf, pivot_rhs);
            }
        }
        self.n_updates += nz.len() as u64 * rows_touched;
        self.basis[row] = col;
    }

    /// The textbook pivot: every column of every row, plain `Rat`
    /// operators. The reference [`Tableau::pivot`] must agree with.
    #[cfg(test)]
    fn pivot_dense(&mut self, row: usize, col: usize) {
        let piv = self.t[row][col];
        let inv = piv.recip();
        for j in 0..self.cols {
            let scaled = self.t[row][j] * inv;
            self.t[row][j] = scaled;
        }
        let scaled_rhs = self.rhs[row] * inv;
        self.rhs[row] = scaled_rhs;
        for i in 0..self.t.len() {
            if i == row {
                continue;
            }
            let f = self.t[i][col];
            if f.is_zero() {
                continue;
            }
            for j in 0..self.cols {
                let delta = f * self.t[row][j];
                self.t[i][j] -= delta;
            }
            let dr = f * self.rhs[row];
            self.rhs[i] -= dr;
        }
        let zf = self.z[col];
        if !zf.is_zero() {
            for j in 0..self.cols {
                let delta = zf * self.t[row][j];
                self.z[j] -= delta;
            }
            let dz = zf * self.rhs[row];
            self.zval -= dz;
        }
        self.basis[row] = col;
    }

    /// Run simplex iterations (minimization). Uses Dantzig's rule (most
    /// negative reduced cost) for speed, switching permanently to Bland's
    /// rule after a degeneracy budget to guarantee termination.
    fn run(&mut self, allowed_cols: usize) -> RunOutcome {
        // After this many pivots, assume we might be cycling and fall back
        // to Bland's anti-cycling rule.
        let bland_after = 40 + 6 * (self.t.len() + allowed_cols);
        let mut pivots = 0usize;
        loop {
            if self.n_cells > self.cell_limit {
                return RunOutcome::Exhausted;
            }
            let col = if pivots < bland_after {
                // Dantzig: most negative reduced cost.
                let mut best: Option<(Rat, usize)> = None;
                for j in 0..allowed_cols {
                    if self.z[j].signum() < 0 {
                        match &best {
                            Some((v, _)) if *v <= self.z[j] => {}
                            _ => best = Some((self.z[j], j)),
                        }
                    }
                }
                best.map(|(_, j)| j)
            } else {
                // Bland: smallest eligible index.
                (0..allowed_cols).find(|&j| self.z[j].signum() < 0)
            };
            let Some(col) = col else {
                return RunOutcome::Optimal;
            };
            // Ratio test; Bland tie-break on smallest basis variable.
            let mut best: Option<(Rat, usize, usize)> = None; // (ratio, basisvar, row)
            for i in 0..self.t.len() {
                if self.t[i][col].signum() > 0 {
                    let ratio = self.rhs[i] / self.t[i][col];
                    let key = (ratio, self.basis[i]);
                    match &best {
                        Some((r, bv, _)) if (*r, *bv) <= key => {}
                        _ => best = Some((key.0, key.1, i)),
                    }
                }
            }
            let Some((_, _, row)) = best else {
                return RunOutcome::Unbounded;
            };
            self.pivot(row, col);
            pivots += 1;
        }
    }

    /// Recompute the reduced-cost row for objective `costs` given the current
    /// basis.
    fn set_objective(&mut self, costs: &[Rat]) {
        self.z = costs.to_vec();
        self.zval = Rat::ZERO;
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = costs[b];
            if cb.is_zero() {
                continue;
            }
            for (z, &x) in self.z.iter_mut().zip(&self.t[i]) {
                if !x.is_zero() {
                    *z = z.sub_mul(cb, x);
                }
            }
            self.zval = self.zval.sub_mul(cb, self.rhs[i]);
        }
    }
}

/// Solve a linear program over the (free) variables of `cs`.
///
/// `objective` has one entry per variable of `cs` (constant terms in the
/// objective are the caller's business).
#[must_use]
pub fn solve_lp(cs: &ConstraintSystem, objective: &[Rat], sense: Sense) -> LpResult {
    solve_lp_work(cs, objective, sense, &mut LpWork::default(), u64::MAX)
}

/// [`solve_lp_work`] for callers that track only pivots and logical cells.
#[must_use]
pub fn solve_lp_measured(
    cs: &ConstraintSystem,
    objective: &[Rat],
    sense: Sense,
    pivots: &mut u64,
    cells: &mut u64,
    cell_limit: u64,
) -> LpResult {
    let mut work = LpWork::default();
    let result = solve_lp_work(cs, objective, sense, &mut work, cell_limit);
    *pivots += work.pivots;
    *cells += work.cells;
    result
}

/// [`solve_lp`], additionally accumulating this solve's [`LpWork`] into
/// `work` and aborting with [`LpResult::Exhausted`] once its own logical
/// cell count exceeds `cell_limit`. Pivot counts alone under-report work by
/// the tableau area — the ILP's cell budget uses this to bound arithmetic
/// effort deterministically across machines, *inside* the solve rather than
/// only between branch-and-bound nodes (a single LP can dwarf everything
/// else).
#[must_use]
pub fn solve_lp_work(
    cs: &ConstraintSystem,
    objective: &[Rat],
    sense: Sense,
    work: &mut LpWork,
    cell_limit: u64,
) -> LpResult {
    assert_eq!(objective.len(), cs.n_vars, "objective arity mismatch");
    let n = cs.n_vars;
    let m = cs.constraints.len();

    // Column layout: [p_0..p_{n-1} | q_0..q_{n-1} | slacks | artificials]
    let n_slack = cs
        .constraints
        .iter()
        .filter(|c| c.kind == ConstraintKind::Ineq)
        .count();
    let n_struct = 2 * n + n_slack;
    let cols = n_struct + m; // one artificial per row
    let mut t = vec![vec![Rat::ZERO; cols]; m];
    let mut rhs = vec![Rat::ZERO; m];
    let mut slack_idx = 0;
    for (i, c) in cs.constraints.iter().enumerate() {
        // a·x + k >= 0  =>  a·p - a·q - s = -k
        let mut b = Rat::int(-c.coeffs[n]);
        let mut sign = Rat::ONE;
        if b.signum() < 0 {
            sign = -Rat::ONE;
            b = -b;
        }
        for v in 0..n {
            let a = Rat::int(c.coeffs[v]) * sign;
            t[i][v] = a;
            t[i][n + v] = -a;
        }
        if c.kind == ConstraintKind::Ineq {
            t[i][2 * n + slack_idx] = -sign;
            slack_idx += 1;
        }
        t[i][n_struct + i] = Rat::ONE; // artificial
        rhs[i] = b;
    }

    let mut tab = Tableau {
        t,
        rhs,
        z: vec![Rat::ZERO; cols],
        zval: Rat::ZERO,
        basis: (n_struct..cols).collect(),
        cols,
        n_pivots: 0,
        n_cells: 0,
        n_updates: 0,
        cell_limit,
    };

    let result = two_phase(&mut tab, n, n_struct, objective, sense);
    work.pivots += tab.n_pivots;
    work.cells += tab.n_cells;
    work.updates += tab.n_updates;
    result
}

/// Both simplex phases on a freshly built tableau whose basis is the
/// artificial columns `n_struct..`.
fn two_phase(
    tab: &mut Tableau,
    n: usize,
    n_struct: usize,
    objective: &[Rat],
    sense: Sense,
) -> LpResult {
    let cols = tab.cols;
    // Phase 1: minimize sum of artificials.
    let mut phase1 = vec![Rat::ZERO; cols];
    for j in n_struct..cols {
        phase1[j] = Rat::ONE;
    }
    tab.set_objective(&phase1);
    match tab.run(cols) {
        RunOutcome::Exhausted => return LpResult::Exhausted,
        outcome => debug_assert!(
            outcome == RunOutcome::Optimal,
            "phase 1 cannot be unbounded"
        ),
    }
    if (-tab.zval).signum() > 0 {
        return LpResult::Infeasible;
    }
    // Pivot artificials out of the basis where possible; drop rows that are
    // identically zero (redundant constraints).
    let mut drop_rows = Vec::new();
    for i in 0..tab.t.len() {
        if tab.basis[i] >= n_struct {
            if let Some(j) = (0..n_struct).find(|&j| !tab.t[i][j].is_zero()) {
                tab.pivot(i, j);
            } else {
                drop_rows.push(i);
            }
        }
    }
    for &i in drop_rows.iter().rev() {
        tab.t.remove(i);
        tab.rhs.remove(i);
        tab.basis.remove(i);
    }

    // Phase 2 with the real objective (minimization; negate for Max).
    let mut costs = vec![Rat::ZERO; cols];
    for v in 0..n {
        let c = match sense {
            Sense::Min => objective[v],
            Sense::Max => -objective[v],
        };
        costs[v] = c;
        costs[n + v] = -c;
    }
    tab.set_objective(&costs);
    match tab.run(n_struct) {
        RunOutcome::Optimal => {}
        RunOutcome::Unbounded => return LpResult::Unbounded,
        RunOutcome::Exhausted => return LpResult::Exhausted,
    }

    // Extract the point.
    let mut y = vec![Rat::ZERO; cols];
    for (i, &b) in tab.basis.iter().enumerate() {
        y[b] = tab.rhs[i];
    }
    let point: Vec<Rat> = (0..n).map(|v| y[v] - y[n + v]).collect();
    let value = match sense {
        Sense::Min => -tab.zval,
        Sense::Max => tab.zval,
    };
    LpResult::Optimal { value, point }
}

/// Convenience: is the system rationally feasible?
#[must_use]
pub fn lp_feasible(cs: &ConstraintSystem) -> bool {
    let obj = vec![Rat::ZERO; cs.n_vars];
    !matches!(solve_lp(cs, &obj, Sense::Min), LpResult::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// When set, [`Tableau::pivot`] on this thread runs the textbook
        /// dense update instead — the differential tests' reference.
        pub(super) static DENSE_REFERENCE: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    fn obj(v: &[i128]) -> Vec<Rat> {
        v.iter().map(|&x| Rat::int(x)).collect()
    }

    #[test]
    fn simple_box_max() {
        let mut cs = ConstraintSystem::new(2);
        cs.add_lower_bound(0, 0);
        cs.add_upper_bound(0, 4);
        cs.add_lower_bound(1, 0);
        cs.add_upper_bound(1, 3);
        let r = solve_lp(&cs, &obj(&[1, 1]), Sense::Max);
        assert_eq!(r.value(), Some(Rat::int(7)));
    }

    #[test]
    fn simple_box_min_with_negatives() {
        let mut cs = ConstraintSystem::new(2);
        cs.add_lower_bound(0, -5);
        cs.add_upper_bound(0, 4);
        cs.add_lower_bound(1, -2);
        cs.add_upper_bound(1, 3);
        let r = solve_lp(&cs, &obj(&[1, 2]), Sense::Min);
        assert_eq!(r.value(), Some(Rat::int(-9)));
        let p = r.point().unwrap();
        assert_eq!(p[0], Rat::int(-5));
        assert_eq!(p[1], Rat::int(-2));
    }

    #[test]
    fn fractional_vertex() {
        // max x + y s.t. 2x + y <= 4, x + 2y <= 4, x,y >= 0 -> (4/3, 4/3)
        let mut cs = ConstraintSystem::new(2);
        cs.add_lower_bound(0, 0);
        cs.add_lower_bound(1, 0);
        cs.add_ge0(vec![-2, -1, 4]);
        cs.add_ge0(vec![-1, -2, 4]);
        let r = solve_lp(&cs, &obj(&[1, 1]), Sense::Max);
        assert_eq!(r.value(), Some(Rat::new(8, 3)));
    }

    #[test]
    fn infeasible_detected() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_lower_bound(0, 3);
        cs.add_upper_bound(0, 1);
        assert_eq!(solve_lp(&cs, &obj(&[1]), Sense::Min), LpResult::Infeasible);
        assert!(!lp_feasible(&cs));
    }

    #[test]
    fn unbounded_detected() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_lower_bound(0, 0);
        assert_eq!(solve_lp(&cs, &obj(&[1]), Sense::Max), LpResult::Unbounded);
        // But bounded in the other direction.
        assert_eq!(
            solve_lp(&cs, &obj(&[1]), Sense::Min).value(),
            Some(Rat::ZERO)
        );
    }

    #[test]
    fn equality_constraints_respected() {
        // x + y == 10, x - y == 2 -> x=6, y=4
        let mut cs = ConstraintSystem::new(2);
        cs.add_eq0(vec![1, 1, -10]);
        cs.add_eq0(vec![1, -1, -2]);
        let r = solve_lp(&cs, &obj(&[1, 0]), Sense::Min);
        let p = r.point().unwrap();
        assert_eq!(p[0], Rat::int(6));
        assert_eq!(p[1], Rat::int(4));
    }

    #[test]
    fn redundant_rows_ok() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_eq0(vec![1, -5]);
        cs.add_eq0(vec![2, -10]); // same constraint scaled
        cs.add_ge0(vec![1, 0]);
        let r = solve_lp(&cs, &obj(&[1]), Sense::Max);
        assert_eq!(r.value(), Some(Rat::int(5)));
    }

    #[test]
    fn degenerate_vertex_no_cycle() {
        // Klee-Minty-ish degenerate setup; Bland must terminate.
        let mut cs = ConstraintSystem::new(3);
        for v in 0..3 {
            cs.add_lower_bound(v, 0);
        }
        cs.add_ge0(vec![-1, 0, 0, 1]);
        cs.add_ge0(vec![-4, -1, 0, 2]);
        cs.add_ge0(vec![-8, -4, -1, 4]);
        let r = solve_lp(&cs, &obj(&[4, 2, 1]), Sense::Max);
        assert!(r.value().is_some());
    }

    #[test]
    fn min_over_dependence_like_polyhedron() {
        // Typical dependence-distance query: min (t - s) over
        // 0 <= s <= N-1, t = s + 1, with N fixed at 100.
        let mut cs = ConstraintSystem::new(2); // s, t
        cs.add_lower_bound(0, 0);
        cs.add_upper_bound(0, 99);
        cs.add_eq0(vec![-1, 1, -1]); // t - s - 1 == 0
        let r = solve_lp(&cs, &obj(&[-1, 1]), Sense::Min);
        assert_eq!(r.value(), Some(Rat::ONE));
        let rmax = solve_lp(&cs, &obj(&[-1, 1]), Sense::Max);
        assert_eq!(rmax.value(), Some(Rat::ONE));
    }

    #[test]
    fn empty_objective_space() {
        let cs = ConstraintSystem::new(0);
        let r = solve_lp(&cs, &[], Sense::Min);
        assert_eq!(r.value(), Some(Rat::ZERO));
    }
}

#[cfg(test)]
mod brute_force_tests {
    use super::*;
    use crate::ilp::solve_ilp;
    use wf_harness::prelude::*;

    props! {
        /// On random bounded systems, the exact simplex optimum is never
        /// beaten by any integer point, and the ILP optimum matches
        /// exhaustive search.
        #[test]
        fn prop_lp_bounds_and_ilp_matches_bruteforce(
            rows in collection::vec(
                (collection::vec(-2i128..3, 3), -4i128..5), 0..4),
            obj in collection::vec(-3i128..4, 3),
        ) {
            let mut cs = ConstraintSystem::new(3);
            for v in 0..3 {
                cs.add_lower_bound(v, -3);
                cs.add_upper_bound(v, 3);
            }
            for (a, c) in rows {
                let mut row = a;
                row.push(c);
                cs.add_ge0(row);
            }
            // Brute force over the integer box.
            let mut best: Option<i128> = None;
            for x in -3i128..=3 {
                for y in -3i128..=3 {
                    for z in -3i128..=3 {
                        if cs.contains(&[x, y, z]) {
                            let v = obj[0] * x + obj[1] * y + obj[2] * z;
                            best = Some(best.map_or(v, |b: i128| b.min(v)));
                        }
                    }
                }
            }
            let obj_rat: Vec<wf_linalg::Rat> =
                obj.iter().map(|&c| wf_linalg::Rat::int(c)).collect();
            let lp = solve_lp(&cs, &obj_rat, Sense::Min);
            let ilp = solve_ilp(&cs, &obj, Sense::Min).unwrap();
            match best {
                None => {
                    // No integer point; the LP may still be rationally
                    // feasible, but the ILP must agree with brute force.
                    prop_assert_eq!(ilp.value(), None);
                }
                Some(b) => {
                    // LP relaxation lower-bounds the integer optimum.
                    let lv = lp.value().expect("feasible");
                    prop_assert!(lv <= wf_linalg::Rat::int(b), "{lv} > {b}");
                    prop_assert_eq!(ilp.value(), Some(wf_linalg::Rat::int(b)));
                }
            }
        }
    }
}

/// The production pivot against the textbook dense one, whole solves at a
/// time: same verdict, same value *and* point, same pivot and logical cell
/// counts — i.e. the same pivot sequence.
#[cfg(test)]
mod differential_tests {
    use super::tests::DENSE_REFERENCE;
    use super::*;
    use wf_harness::prelude::*;

    /// Run `f` with this thread's pivots on the dense reference kernel.
    fn with_dense_reference<T>(f: impl FnOnce() -> T) -> T {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                DENSE_REFERENCE.set(false);
            }
        }
        DENSE_REFERENCE.set(true);
        let _reset = Reset;
        f()
    }

    fn assert_same_solve(
        cs: &ConstraintSystem,
        objective: &[i128],
        sense: Sense,
        cell_limit: u64,
    ) -> Result<LpResult, TestCaseError> {
        let objective: Vec<Rat> = objective.iter().map(|&c| Rat::int(c)).collect();
        let mut work = LpWork::default();
        let got = solve_lp_work(cs, &objective, sense, &mut work, cell_limit);
        let mut dense = LpWork::default();
        let want =
            with_dense_reference(|| solve_lp_work(cs, &objective, sense, &mut dense, cell_limit));
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(work.pivots, dense.pivots);
        prop_assert_eq!(work.cells, dense.cells);
        prop_assert_eq!(dense.updates, 0);
        prop_assert!(work.updates <= work.cells);
        prop_assert_eq!(work.updates == 0, work.pivots == 0);
        Ok(got)
    }

    /// `(coefficients, constant, is_equality)` per row.
    type Rows = Vec<(Vec<i128>, i128, bool)>;

    fn arb_rows(
        n: usize,
        coeff: std::ops::Range<i128>,
        rows: usize,
    ) -> impl Strategy<Value = Rows> {
        collection::vec((collection::vec(coeff, n), -12i128..13, 0usize..4), 0..rows).prop_map(
            |rows| {
                rows.into_iter()
                    .map(|(a, c, kind)| (a, c, kind == 0))
                    .collect()
            },
        )
    }

    fn system(n: usize, rows: &Rows) -> ConstraintSystem {
        let mut cs = ConstraintSystem::new(n);
        for (a, c, eq) in rows {
            let mut row = a.clone();
            row.push(*c);
            if *eq {
                cs.add_eq0(row);
            } else {
                cs.add_ge0(row);
            }
        }
        cs
    }

    fn sense_of(max: bool) -> Sense {
        if max {
            Sense::Max
        } else {
            Sense::Min
        }
    }

    props! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Random mixed systems, boxed on a random subset of variables so
        /// that optimal, infeasible and unbounded verdicts all occur; wide
        /// coefficients make the vertices fractional. Every third case
        /// repeats a row scaled (a redundant row phase 1 must drop), and
        /// half the cases run under a finite cell limit.
        #[test]
        fn prop_random_systems_match_dense(
            rows in arb_rows(4, -7i128..8, 9),
            boxed in collection::vec(0usize..3, 4),
            objective in collection::vec(-5i128..6, 4),
            knobs in (0usize..2, 0usize..3, 0usize..2, 0u64..6000),
        ) {
            let (max, dup, limited, limit) = knobs;
            let mut cs = system(4, &rows);
            for (v, b) in boxed.iter().enumerate() {
                if *b > 0 {
                    cs.add_lower_bound(v, -3);
                }
                if *b > 1 {
                    cs.add_upper_bound(v, 5);
                }
            }
            if dup == 0 {
                if let Some((a, c, eq)) = rows.first() {
                    let mut row: Vec<i128> = a.iter().map(|x| 3 * x).collect();
                    row.push(3 * c);
                    if *eq { cs.add_eq0(row) } else { cs.add_ge0(row) }
                }
            }
            let cell_limit = if limited == 0 { u64::MAX } else { limit };
            let got = assert_same_solve(&cs, &objective, sense_of(max == 1), cell_limit)?;
            if limited == 0 {
                prop_assert_ne!(got, LpResult::Exhausted);
            }
        }

        /// Farkas-shaped systems, as the scheduler builds them: bounded
        /// schedule coefficients `c`, non-negative multipliers `λ`, one
        /// equality per coefficient tying it to `Σ λ_i · a_i`, and a
        /// non-triviality row; the objective is the coefficient sum.
        #[test]
        fn prop_farkas_shaped_systems_match_dense(
            faces in collection::vec(collection::vec(-3i128..4, 3), 1..6),
            bound in 1i128..5,
            knobs in (0usize..2, 0usize..2, 0u64..40000),
        ) {
            let (duplicate_equalities, limited, limit) = knobs;
            let (n_c, n_l) = (3, faces.len());
            let mut cs = ConstraintSystem::new(n_c + n_l);
            for k in 0..n_c {
                cs.add_lower_bound(k, 0);
                cs.add_upper_bound(k, bound);
                // c_k - Σ_i λ_i a_ik == 0
                let mut row = vec![0i128; n_c + n_l + 1];
                row[k] = 1;
                for (i, face) in faces.iter().enumerate() {
                    row[n_c + i] = -face[k];
                }
                if duplicate_equalities == 1 {
                    cs.add_eq0(row.iter().map(|x| 2 * x).collect());
                }
                cs.add_eq0(row);
            }
            for i in 0..n_l {
                cs.add_lower_bound(n_c + i, 0);
            }
            let mut nontrivial = vec![0i128; n_c + n_l + 1];
            nontrivial[..n_c].fill(1);
            nontrivial[n_c + n_l] = -1;
            cs.add_ge0(nontrivial);
            let mut objective = vec![0i128; n_c + n_l];
            objective[..n_c].fill(1);
            let cell_limit = if limited == 0 { u64::MAX } else { limit };
            assert_same_solve(&cs, &objective, Sense::Min, cell_limit)?;
        }
    }

    /// The verdicts the properties above rely on meeting do occur, each
    /// identically under both kernels.
    #[test]
    fn every_verdict_matches_dense() {
        let mut boxed = ConstraintSystem::new(2);
        boxed.add_lower_bound(0, 0);
        boxed.add_lower_bound(1, 0);
        boxed.add_ge0(vec![-2, -1, 4]);
        boxed.add_ge0(vec![-1, -2, 4]);
        let r = assert_same_solve(&boxed, &[1, 1], Sense::Max, u64::MAX).unwrap();
        assert_eq!(r.value(), Some(Rat::new(8, 3)));
        let r = assert_same_solve(&boxed, &[1, 1], Sense::Max, 1).unwrap();
        assert_eq!(r, LpResult::Exhausted);

        let mut open = ConstraintSystem::new(1);
        open.add_lower_bound(0, 0);
        let r = assert_same_solve(&open, &[1], Sense::Max, u64::MAX).unwrap();
        assert_eq!(r, LpResult::Unbounded);

        let mut empty = ConstraintSystem::new(1);
        empty.add_lower_bound(0, 3);
        empty.add_upper_bound(0, 1);
        let r = assert_same_solve(&empty, &[1], Sense::Min, u64::MAX).unwrap();
        assert_eq!(r, LpResult::Infeasible);

        let mut redundant = ConstraintSystem::new(1);
        redundant.add_eq0(vec![1, -5]);
        redundant.add_eq0(vec![2, -10]);
        let r = assert_same_solve(&redundant, &[1], Sense::Max, u64::MAX).unwrap();
        assert_eq!(r.value(), Some(Rat::int(5)));
    }
}
