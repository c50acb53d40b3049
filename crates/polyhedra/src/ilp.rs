//! Integer linear programming by branch-and-bound over the exact simplex,
//! plus lexicographic multi-objective minimization (the PIP stand-in used by
//! the scheduler).
//!
//! Solver effort is bounded by an explicit [`IlpBudget`] (branch-and-bound
//! nodes, cumulative simplex pivots, wall clock); exhaustion returns a
//! typed [`IlpError`] instead of panicking or hanging, so callers — the
//! scheduler above all — can degrade gracefully (distribute the component,
//! fall back to original program order) the way production ILP-based
//! fusers do. Unbounded objectives are likewise an [`IlpError`], never a
//! panic: they indicate a modelling problem in the *caller's* constraint
//! system, which is input-dependent territory for `.wfs` files.

use crate::constraint::ConstraintSystem;
use crate::simplex::{solve_lp_work, LpResult, LpWork, Sense};
use std::time::Instant;
use wf_harness::attr;
use wf_harness::fault::{self, FaultKind};
use wf_harness::obs;
use wf_linalg::Rat;

/// Feed one finished solve's accounting into the metrics registry and
/// the cost-attribution table (single atomic load when metrics are
/// off). The attribution tally receives the *same* `cells`/`pivots`
/// values as the counters, from the same call — that is what makes the
/// per-edge cost table reconcile exactly with `simplex.cells`.
fn record_solve(nodes: usize, work: LpWork, err: Option<&IlpError>) {
    if !obs::metrics_on() {
        return;
    }
    let LpWork {
        pivots,
        cells,
        updates,
    } = work;
    obs::add("ilp.solves", 1);
    obs::add("ilp.nodes", nodes as u64);
    obs::add("simplex.pivots", pivots);
    obs::add("simplex.cells", cells);
    obs::add("simplex.updates", updates);
    attr::record_solve(cells, pivots);
    obs::observe("ilp.nodes_per_solve", nodes as u64);
    obs::observe("ilp.pivots_per_solve", pivots);
    // Scaled to megacells so real solves (10^6..10^9 cells) land inside the
    // histogram's power-of-two bucket range instead of the overflow bucket.
    obs::observe("ilp.megacells_per_solve", cells >> 20);
    match err {
        Some(IlpError::Unbounded { .. }) | None => {}
        Some(_) => obs::add("ilp.budget_exhausted", 1),
    }
}

/// Result of an ILP solve.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IlpResult {
    /// No integer point satisfies the constraints.
    Infeasible,
    /// The relaxation (and hence the ILP) is unbounded in the requested
    /// direction.
    Unbounded,
    /// Integer optimum.
    Optimal {
        /// Optimal objective value.
        value: Rat,
        /// An integer point attaining it.
        point: Vec<i128>,
    },
}

impl IlpResult {
    /// The optimal point, if any.
    #[must_use]
    pub fn point(&self) -> Option<&[i128]> {
        match self {
            IlpResult::Optimal { point, .. } => Some(point),
            _ => None,
        }
    }

    /// The optimal value, if any.
    #[must_use]
    pub fn value(&self) -> Option<Rat> {
        match self {
            IlpResult::Optimal { value, .. } => Some(*value),
            _ => None,
        }
    }
}

/// Explicit resource budget for one ILP solve. Exhaustion is an expected
/// outcome ([`IlpError`]), not a crash — the scheduler treats it like
/// infeasibility and cuts, and the `Optimizer` facade can degrade to the
/// fallback schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IlpBudget {
    /// Maximum branch-and-bound nodes explored.
    pub max_nodes: usize,
    /// Maximum cumulative simplex pivots across all nodes
    /// (`u64::MAX` = unlimited).
    pub max_pivots: u64,
    /// Maximum cumulative tableau *cell updates* across all nodes
    /// (`u64::MAX` = unlimited). A pivot costs `(rows + 1) * cols` cell
    /// updates, so unlike `max_pivots` this bound scales with the tableau
    /// area — the dominant cost on the large dense Farkas systems the
    /// scheduler produces — while staying exactly deterministic across
    /// machines (unlike `wall_ms`).
    pub max_cells: u64,
    /// Wall-clock ceiling in milliseconds (`0` = unlimited). Budgets with
    /// a wall clock trade determinism for latency — results may depend on
    /// machine speed — so the deterministic pipeline paths leave it 0 and
    /// only interactive/service callers set it.
    pub wall_ms: u64,
}

impl IlpBudget {
    /// Default node cap: far above anything the scheduler's ILPs need, low
    /// enough to turn a runaway model into a typed error instead of a hang.
    pub const DEFAULT_MAX_NODES: usize = 500_000;

    /// A budget limiting only branch-and-bound nodes.
    #[must_use]
    pub fn nodes(max_nodes: usize) -> IlpBudget {
        IlpBudget {
            max_nodes,
            ..IlpBudget::default()
        }
    }
}

impl Default for IlpBudget {
    fn default() -> IlpBudget {
        IlpBudget {
            max_nodes: IlpBudget::DEFAULT_MAX_NODES,
            max_pivots: u64::MAX,
            max_cells: u64::MAX,
            wall_ms: 0,
        }
    }
}

/// Typed ILP failure: a budget ran out, or the model was unbounded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IlpError {
    /// The branch-and-bound node budget was exhausted before optimality
    /// (or infeasibility) was proven.
    NodeBudget {
        /// The limit that was hit.
        limit: usize,
    },
    /// The cumulative simplex pivot budget was exhausted.
    PivotBudget {
        /// The limit that was hit.
        limit: u64,
    },
    /// The cumulative tableau cell-update budget was exhausted.
    CellBudget {
        /// The limit that was hit.
        limit: u64,
    },
    /// The wall-clock budget was exhausted.
    Timeout {
        /// The limit that was hit, in milliseconds.
        ms: u64,
    },
    /// An objective was unbounded in the requested direction (lexicographic
    /// minimization requires bounded objectives; bound your variables).
    Unbounded {
        /// Which solve detected it.
        site: &'static str,
    },
}

impl std::fmt::Display for IlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IlpError::NodeBudget { limit } => {
                write!(f, "branch-and-bound node budget exhausted (limit {limit})")
            }
            IlpError::PivotBudget { limit } => {
                write!(f, "simplex pivot budget exhausted (limit {limit})")
            }
            IlpError::CellBudget { limit } => {
                write!(f, "simplex cell-update budget exhausted (limit {limit})")
            }
            IlpError::Timeout { ms } => write!(f, "ILP wall-clock budget exhausted ({ms} ms)"),
            IlpError::Unbounded { site } => write!(f, "unbounded objective in {site}"),
        }
    }
}

impl std::error::Error for IlpError {}

impl From<IlpError> for wf_harness::WfError {
    fn from(e: IlpError) -> wf_harness::WfError {
        match e {
            IlpError::NodeBudget { .. } => wf_harness::WfError::Budget {
                site: "ilp.nodes".into(),
                detail: e.to_string(),
            },
            IlpError::PivotBudget { .. } => wf_harness::WfError::Budget {
                site: "ilp.pivots".into(),
                detail: e.to_string(),
            },
            IlpError::CellBudget { .. } => wf_harness::WfError::Budget {
                site: "ilp.cells".into(),
                detail: e.to_string(),
            },
            IlpError::Timeout { .. } => wf_harness::WfError::Budget {
                site: "ilp.wall_ms".into(),
                detail: e.to_string(),
            },
            IlpError::Unbounded { site } => wf_harness::WfError::Unbounded { site: site.into() },
        }
    }
}

/// Minimize (or maximize) `objective · x` over the integer points of `cs`
/// under the default [`IlpBudget`].
///
/// # Errors
/// [`IlpError`] when the budget is exhausted before a verdict. An
/// unbounded relaxation is a normal [`IlpResult::Unbounded`] verdict here,
/// not an error — only [`lexmin`] (which must *pin* each objective at its
/// optimum) escalates unboundedness to an error.
pub fn solve_ilp(
    cs: &ConstraintSystem,
    objective: &[i128],
    sense: Sense,
) -> Result<IlpResult, IlpError> {
    solve_ilp_budgeted(cs, objective, sense, &IlpBudget::default())
}

fn first_fractional(point: &[Rat]) -> Option<(usize, Rat)> {
    point
        .iter()
        .enumerate()
        .find_map(|(i, r)| (!r.is_integer()).then_some((i, *r)))
}

/// Find any integer point of `cs`, or `None`.
///
/// Infallible convenience wrapper over [`try_ilp_feasible`] with the
/// default budget: a budget-exhausted search reports `None` (no point
/// *found*), which is what the feasibility-probing callers want. Callers
/// for whom "not found" and "proven absent" must differ (emptiness tests
/// feeding dependence analysis) use [`try_ilp_feasible`] and handle the
/// error conservatively.
#[must_use]
pub fn ilp_feasible(cs: &ConstraintSystem) -> Option<Vec<i128>> {
    try_ilp_feasible(cs, &IlpBudget::default()).unwrap_or(None)
}

/// Find any integer point of `cs` within `budget`.
///
/// Uses branch-and-bound with a zero objective; `cs` must be bounded in
/// every fractional direction that branching explores (true for all
/// callers here, which bound their variables).
///
/// Verdicts are memoized in the process-wide [`memo`](crate::memo)
/// layer (keyed by the canonical system + budget class); a hit is
/// byte-identical to the cold solve, and budget-exhausted outcomes are
/// never cached.
///
/// # Errors
/// [`IlpError`] when the budget runs out before the search concludes.
pub fn try_ilp_feasible(
    cs: &ConstraintSystem,
    budget: &IlpBudget,
) -> Result<Option<Vec<i128>>, IlpError> {
    crate::memo::feasible_cached(cs, budget, || {
        let mut span = wf_harness::span!("ilp.feasible");
        attr::annotate_span(&mut span);
        let mut nodes = 0usize;
        let mut work = LpWork::default();
        let out = feasible_counted(cs, budget, &mut nodes, &mut work);
        record_solve(nodes, work, out.as_ref().err());
        span.arg("cells", work.cells.to_string());
        out
    })
}

fn feasible_counted(
    cs: &ConstraintSystem,
    budget: &IlpBudget,
    nodes: &mut usize,
    work: &mut LpWork,
) -> Result<Option<Vec<i128>>, IlpError> {
    let mut stack = vec![cs.clone()];
    let obj = vec![Rat::ZERO; cs.n_vars];
    let t0 = Instant::now();
    while let Some(node) = stack.pop() {
        *nodes += 1;
        check_budget(budget, *nodes, work, &t0)?;
        let remaining = budget.max_cells.saturating_sub(work.cells);
        match solve_lp_work(&node, &obj, Sense::Min, work, remaining) {
            LpResult::Infeasible => {}
            LpResult::Exhausted => {
                return Err(IlpError::CellBudget {
                    limit: budget.max_cells,
                })
            }
            // A zero objective can never improve, so an unbounded verdict
            // here means the LP layer broke an invariant; surface it as a
            // typed error rather than crashing the process.
            LpResult::Unbounded => {
                return Err(IlpError::Unbounded {
                    site: "ilp_feasible (zero objective)",
                })
            }
            LpResult::Optimal { point, .. } => match first_fractional(&point) {
                None => {
                    return Ok(Some(
                        point.iter().map(|r| r.to_integer().unwrap()).collect(),
                    ))
                }
                Some((v, val)) => {
                    let mut lo = node.clone();
                    lo.add_upper_bound(v, val.floor());
                    let mut hi = node;
                    hi.add_lower_bound(v, val.ceil());
                    stack.push(lo);
                    stack.push(hi);
                }
            },
        }
    }
    Ok(None)
}

/// Lexicographic minimization: minimize `objectives[0]`, then among its
/// optima minimize `objectives[1]`, and so on. Returns the optimal values
/// and a point attaining them, `Ok(None)` when infeasible.
///
/// This is PLuTo's use of PIP: the cost vector `(u, w, Σc)` is minimized
/// lexicographically over the integer points of the Farkas-eliminated
/// legality polyhedron.
///
/// # Errors
/// [`IlpError::Unbounded`] when an objective is unbounded below (bound
/// your variables), or a budget error under the default [`IlpBudget`].
pub fn lexmin(cs: &ConstraintSystem, objectives: &[Vec<i128>]) -> Result<LexMin, IlpError> {
    lexmin_budgeted(cs, objectives, &IlpBudget::default())
}

/// [`lexmin`] success payload: the per-level optimal objective values and
/// an integer point attaining them, or `None` when infeasible.
pub type LexMin = Option<(Vec<i128>, Vec<i128>)>;

/// [`lexmin`] with an explicit resource budget. Exhaustion returns a typed
/// [`IlpError`]; callers (the scheduler) treat that like infeasibility and
/// fall back to loop distribution, which keeps pathological fusion ILPs
/// from stalling the compiler (PLuTo has analogous practical limits).
///
/// Verdicts are memoized in the process-wide [`memo`](crate::memo)
/// layer keyed by the canonical system, objectives, and budget class; a
/// whole-lexmin hit skips every per-objective ILP inside. Hits are
/// byte-identical to cold solves; errors are never cached.
pub fn lexmin_budgeted(
    cs: &ConstraintSystem,
    objectives: &[Vec<i128>],
    budget: &IlpBudget,
) -> Result<LexMin, IlpError> {
    crate::memo::lexmin_cached(cs, objectives, budget, || {
        let mut span = wf_harness::span!("ilp.lexmin");
        attr::annotate_span(&mut span);
        let mut work = cs.clone();
        let mut values = Vec::with_capacity(objectives.len());
        let mut point = None;
        for obj in objectives {
            match solve_ilp_budgeted(&work, obj, Sense::Min, budget)? {
                IlpResult::Infeasible => return Ok(None),
                IlpResult::Unbounded => return Err(IlpError::Unbounded { site: "lexmin" }),
                IlpResult::Optimal { value, point: p } => {
                    let v = value
                        .to_integer()
                        .expect("integer objective at integer point");
                    values.push(v);
                    // Pin this objective to its optimum for subsequent levels.
                    let mut row: Vec<i128> = obj.clone();
                    row.push(-v);
                    work.add_eq0(row);
                    point = Some(p);
                }
            }
        }
        Ok(point.map(|p| (values, p)))
    })
}

/// One budget check per branch-and-bound node; also the seeded
/// fault-injection point for [`FaultKind::Budget`] faults (`WF_FAULT`),
/// which surface as a node-budget error on the first node.
fn check_budget(
    budget: &IlpBudget,
    nodes: usize,
    work: &LpWork,
    t0: &Instant,
) -> Result<(), IlpError> {
    if nodes == 1 && fault::should_inject("ilp.solve", FaultKind::Budget) {
        return Err(IlpError::NodeBudget {
            limit: budget.max_nodes,
        });
    }
    if nodes > budget.max_nodes {
        return Err(IlpError::NodeBudget {
            limit: budget.max_nodes,
        });
    }
    if work.pivots > budget.max_pivots {
        return Err(IlpError::PivotBudget {
            limit: budget.max_pivots,
        });
    }
    if work.cells > budget.max_cells {
        return Err(IlpError::CellBudget {
            limit: budget.max_cells,
        });
    }
    if budget.wall_ms > 0 && u128::from(budget.wall_ms) < t0.elapsed().as_millis() {
        return Err(IlpError::Timeout { ms: budget.wall_ms });
    }
    Ok(())
}

/// [`solve_ilp`] with an explicit resource budget.
///
/// # Errors
/// [`IlpError`] on budget exhaustion (never on unboundedness — that is the
/// [`IlpResult::Unbounded`] verdict).
pub fn solve_ilp_budgeted(
    cs: &ConstraintSystem,
    objective: &[i128],
    sense: Sense,
    budget: &IlpBudget,
) -> Result<IlpResult, IlpError> {
    let mut nodes = 0usize;
    let mut work = LpWork::default();
    let out = solve_counted(cs, objective, sense, budget, &mut nodes, &mut work);
    record_solve(nodes, work, out.as_ref().err());
    out
}

fn solve_counted(
    cs: &ConstraintSystem,
    objective: &[i128],
    sense: Sense,
    budget: &IlpBudget,
    nodes: &mut usize,
    work: &mut LpWork,
) -> Result<IlpResult, IlpError> {
    assert_eq!(objective.len(), cs.n_vars, "objective arity mismatch");
    let minimize: Vec<i128> = match sense {
        Sense::Min => objective.to_vec(),
        Sense::Max => objective.iter().map(|&c| -c).collect(),
    };
    let obj_rat: Vec<Rat> = minimize.iter().map(|&c| Rat::int(c)).collect();
    let mut best: Option<(Rat, Vec<i128>)> = None;
    let mut stack = vec![cs.clone()];
    let t0 = Instant::now();
    while let Some(node) = stack.pop() {
        *nodes += 1;
        check_budget(budget, *nodes, work, &t0)?;
        let remaining = budget.max_cells.saturating_sub(work.cells);
        match solve_lp_work(&node, &obj_rat, Sense::Min, work, remaining) {
            LpResult::Infeasible => {}
            LpResult::Unbounded => return Ok(IlpResult::Unbounded),
            LpResult::Exhausted => {
                return Err(IlpError::CellBudget {
                    limit: budget.max_cells,
                })
            }
            LpResult::Optimal { value, point } => {
                if let Some((bv, _)) = &best {
                    if value >= *bv {
                        continue;
                    }
                }
                match first_fractional(&point) {
                    None => {
                        let ipoint: Vec<i128> =
                            point.iter().map(|r| r.to_integer().unwrap()).collect();
                        best = Some((value, ipoint));
                    }
                    Some((v, val)) => {
                        let mut lo = node.clone();
                        lo.add_upper_bound(v, val.floor());
                        let mut hi = node;
                        hi.add_lower_bound(v, val.ceil());
                        stack.push(lo);
                        stack.push(hi);
                    }
                }
            }
        }
    }
    Ok(match best {
        None => IlpResult::Infeasible,
        Some((value, point)) => {
            let value = match sense {
                Sense::Min => value,
                Sense::Max => -value,
            };
            IlpResult::Optimal { value, point }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilp_prefers_integer_vertex() {
        // max x + y s.t. 2x + y <= 4, x + 2y <= 4 (LP opt 8/3 at (4/3,4/3));
        // integer optimum is 2 at e.g. (2,0).
        let mut cs = ConstraintSystem::new(2);
        cs.add_lower_bound(0, 0);
        cs.add_lower_bound(1, 0);
        cs.add_ge0(vec![-2, -1, 4]);
        cs.add_ge0(vec![-1, -2, 4]);
        let r = solve_ilp(&cs, &[1, 1], Sense::Max).unwrap();
        assert_eq!(r.value(), Some(Rat::int(2)));
        let p = r.point().unwrap();
        assert_eq!(p[0] + p[1], 2);
    }

    #[test]
    fn ilp_detects_integer_infeasibility() {
        // 1/3 <= x <= 2/3 has rational but no integer points:
        // 3x - 1 >= 0 and 2 - 3x >= 0.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ge0(vec![3, -1]);
        cs.add_ge0(vec![-3, 2]);
        assert_eq!(
            solve_ilp(&cs, &[1], Sense::Min).unwrap(),
            IlpResult::Infeasible
        );
        assert!(ilp_feasible(&cs).is_none());
    }

    #[test]
    fn ilp_feasible_finds_point() {
        let mut cs = ConstraintSystem::new(2);
        cs.add_lower_bound(0, 2);
        cs.add_upper_bound(0, 2);
        cs.add_eq0(vec![1, -1, 0]); // y == x
        let p = ilp_feasible(&cs).expect("feasible");
        assert_eq!(p, vec![2, 2]);
    }

    #[test]
    fn ilp_equality_scaled() {
        // 2x == 3 has no integer solution.
        let mut cs = ConstraintSystem::new(1);
        cs.add_eq0(vec![2, -3]);
        assert!(ilp_feasible(&cs).is_none());
    }

    #[test]
    fn ilp_unbounded_direction() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_lower_bound(0, 0);
        assert_eq!(
            solve_ilp(&cs, &[1], Sense::Max).unwrap(),
            IlpResult::Unbounded
        );
    }

    #[test]
    fn lexmin_orders_objectives() {
        // Over 0<=x<=3, 0<=y<=3 with x+y>=3: lexmin (x, y) -> x=0 then y=3.
        let mut cs = ConstraintSystem::new(2);
        cs.add_lower_bound(0, 0);
        cs.add_upper_bound(0, 3);
        cs.add_lower_bound(1, 0);
        cs.add_upper_bound(1, 3);
        cs.add_ge0(vec![1, 1, -3]);
        let (vals, point) = lexmin(&cs, &[vec![1, 0], vec![0, 1]])
            .unwrap()
            .expect("feasible");
        assert_eq!(vals, vec![0, 3]);
        assert_eq!(point, vec![0, 3]);
    }

    #[test]
    fn lexmin_second_objective_constrained_by_first() {
        // min (x+y) then min x over x,y in [0,5], x+y >= 4:
        // first opt: x+y = 4; then min x = 0 => (0,4).
        let mut cs = ConstraintSystem::new(2);
        for v in 0..2 {
            cs.add_lower_bound(v, 0);
            cs.add_upper_bound(v, 5);
        }
        cs.add_ge0(vec![1, 1, -4]);
        let (vals, point) = lexmin(&cs, &[vec![1, 1], vec![1, 0]])
            .unwrap()
            .expect("feasible");
        assert_eq!(vals, vec![4, 0]);
        assert_eq!(point, vec![0, 4]);
    }

    #[test]
    fn lexmin_infeasible_is_none() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_lower_bound(0, 2);
        cs.add_upper_bound(0, 1);
        assert!(lexmin(&cs, &[vec![1]]).unwrap().is_none());
    }

    #[test]
    fn ilp_matches_exhaustive_on_small_box() {
        // min 3x - 2y + z over a box with a coupling constraint; brute force
        // the answer.
        let mut cs = ConstraintSystem::new(3);
        for v in 0..3 {
            cs.add_lower_bound(v, -2);
            cs.add_upper_bound(v, 2);
        }
        cs.add_ge0(vec![1, 1, 1, 1]); // x+y+z >= -1
        let mut best = i128::MAX;
        for x in -2..=2 {
            for y in -2..=2 {
                for z in -2..=2 {
                    if x + y + z >= -1 {
                        best = best.min(3 * x - 2 * y + z);
                    }
                }
            }
        }
        let r = solve_ilp(&cs, &[3, -2, 1], Sense::Min).unwrap();
        assert_eq!(r.value(), Some(Rat::int(best)));
    }
}
