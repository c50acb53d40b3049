//! The level-by-level hyperplane search (Bondhugula's algorithm), with
//! pluggable fusion strategies.
//!
//! At each level we try to find, for every statement, a legal loop
//! hyperplane `φ_S(i) = c·i + c0` such that for every not-yet-satisfied
//! dependence `e: S_i → S_j`:
//!
//! * legality: `φ_Sj(t) − φ_Si(s) ≥ 0` on `P_e`,
//! * bounding: `u·n + w − (φ_Sj(t) − φ_Si(s)) ≥ 0` on `P_e`,
//!
//! both via the Farkas lemma, minimizing `(Σu, w, Σc, …)` lexicographically
//! (PLuTo's communication-volume cost function). If no hyperplane exists,
//! the active [`FusionStrategy`] chooses a *cut*: a scalar dimension
//! distributing the SCCs (ordered by the strategy's pre-fusion schedule)
//! into separate fusion partitions, which satisfies the crossing
//! dependences. Fusion is thus decided implicitly — exactly the mechanism
//! the paper describes in §2.2.

use crate::farkas::{nonneg_over, LinForm};
use crate::fusion::FusionStrategy;
use crate::transform::{DimKind, Schedule, StmtRow};
use std::collections::BTreeSet;
use wf_deps::{tarjan, Ddg, DepEdge, SccInfo};
use wf_harness::{attr, obs};
use wf_linalg::RatMat;
use wf_polyhedra::poly::Extremum;
use wf_polyhedra::ConstraintSystem;
use wf_scop::Scop;

/// Render candidate per-statement hyperplane rows compactly for the
/// decision log: `"S0:[1,0]+0 S1:[1]+2"`.
#[must_use]
pub fn rows_summary(rows: &[StmtRow]) -> String {
    rows.iter()
        .enumerate()
        .map(|(s, r)| {
            let coeffs: Vec<String> = r.coeffs.iter().map(ToString::to_string).collect();
            format!("S{s}:[{}]+{}", coeffs.join(","), r.konst)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Tunables for the hyperplane search.
#[derive(Clone, Copy, Debug)]
pub struct PlutoConfig {
    /// Upper bound on loop-coefficient magnitudes (PLuTo bounds these too).
    pub coeff_bound: i128,
    /// Upper bound on constant shifts.
    pub shift_bound: i128,
    /// Upper bound on the parametric bounding coefficients `u`.
    pub u_bound: i128,
    /// Upper bound on the constant bounding coefficient `w`.
    pub w_bound: i128,
    /// Safety valve on main-loop iterations.
    pub max_iters: usize,
    /// Branch-and-bound node budget per hyperplane ILP; exhausted budgets
    /// are treated as infeasible (the strategy then cuts), so pathological
    /// fusion ILPs degrade to loop distribution instead of stalling.
    pub ilp_node_budget: usize,
    /// Tableau cell-update budget per hyperplane ILP (pivots weighted by
    /// tableau area, enforced inside each LP). The node budget alone misses
    /// the pathology where a *few* nodes each pivot a huge dense Farkas
    /// tableau — exact-rational arithmetic makes those solves seconds to
    /// minutes each — so this caps total arithmetic work deterministically;
    /// exhaustion degrades to loop distribution exactly like a node-budget
    /// hit. The default sits ~4x above the heaviest catalog solve
    /// (gemsfdtd under maxfuse, ~1.1e9 cells), so only runaway inputs —
    /// fuzzer-generated or adversarial `.wfs` files — ever trip it.
    pub ilp_cell_budget: u64,
    /// Components larger than this are distributed without attempting the
    /// fusion ILP (whose exact-rational LPs grow cubically with component
    /// size). PLuTo has analogous practical limits; the paper's fusion
    /// wins all come from much smaller clusters.
    pub max_fusion_width: usize,
}

impl Default for PlutoConfig {
    fn default() -> Self {
        PlutoConfig {
            coeff_bound: 4,
            shift_bound: 10,
            u_bound: 30,
            w_bound: 30,
            max_iters: 200,
            ilp_node_budget: 400,
            ilp_cell_budget: 4_000_000_000,
            max_fusion_width: 16,
        }
    }
}

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The engine could not find a hyperplane nor a new cut.
    NoProgress(String),
    /// Internal legality verification failed (a bug, surfaced loudly).
    Illegal(String),
    /// The ILP budget ran out and no degradation cut applied either.
    Budget(String),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoProgress(s) => write!(f, "no progress: {s}"),
            SchedError::Illegal(s) => write!(f, "illegal schedule: {s}"),
            SchedError::Budget(s) => write!(f, "ilp budget exhausted: {s}"),
        }
    }
}

impl std::error::Error for SchedError {}

impl From<SchedError> for wf_harness::WfError {
    fn from(e: SchedError) -> wf_harness::WfError {
        match &e {
            SchedError::Budget(_) => wf_harness::WfError::Budget {
                site: "scheduler".into(),
                detail: e.to_string(),
            },
            SchedError::NoProgress(_) | SchedError::Illegal(_) => wf_harness::WfError::Schedule {
                message: e.to_string(),
            },
        }
    }
}

/// The mutable state threaded through the search; fusion strategies receive
/// a shared reference to consult it.
pub struct SchedState<'a> {
    /// The program.
    pub scop: &'a Scop,
    /// Its dependences.
    pub ddg: &'a Ddg,
    /// SCC decomposition (canonical / topologically normalized).
    pub sccs: SccInfo,
    /// Pre-fusion schedule: `order[p]` = SCC id at position `p`.
    pub order: Vec<usize>,
    /// Inverse of `order`.
    pub pos: Vec<usize>,
    /// Cut boundaries: `b` means a cut between positions `b-1` and `b`.
    pub boundaries: BTreeSet<usize>,
    /// Per legality edge: the dimension that satisfied it, if any.
    pub sat_dim: Vec<Option<usize>>,
    /// The schedule built so far.
    pub schedule: Schedule,
    /// Has the outermost loop dimension been accepted yet? (Algorithm 2
    /// only intervenes on the first loop hyperplane.)
    pub first_loop_done: bool,
    /// Edges live (unsatisfied) when the current permutable band started;
    /// `None` when no band is active. Legality (δ ≥ 0) keeps being enforced
    /// for these at every band dimension, which is exactly what makes the
    /// band's loops permutable — and hence tileable.
    pub band_edges: Option<Vec<usize>>,
    /// Band id per schedule dimension (`None` for scalar dims).
    pub band_of_dim: Vec<Option<usize>>,
    /// Number of bands opened so far.
    pub n_bands: usize,
}

impl SchedState<'_> {
    /// Current fusion-partition index of an SCC (number of cut boundaries at
    /// or before its position).
    #[must_use]
    pub fn partition_of_scc(&self, scc: usize) -> i128 {
        self.boundaries
            .iter()
            .filter(|&&b| b <= self.pos[scc])
            .count() as i128
    }

    /// Current fusion-partition index of a statement.
    #[must_use]
    pub fn partition_of_stmt(&self, stmt: usize) -> i128 {
        self.partition_of_scc(self.sccs.scc_of[stmt])
    }

    /// Indices of legality edges not yet satisfied.
    #[must_use]
    pub fn unsatisfied(&self) -> Vec<usize> {
        (0..self.ddg.edges.len())
            .filter(|&e| self.sat_dim[e].is_none())
            .collect()
    }

    /// Minimum of `φ_dst(t) − φ_src(s)` over an edge's polyhedron for
    /// candidate per-statement rows.
    #[must_use]
    pub fn delta_min(&self, edge: &DepEdge, rows: &[StmtRow]) -> Extremum {
        edge.poly
            .min_affine(&delta_expr(edge, &rows[edge.src], &rows[edge.dst]))
    }

    /// Maximum of `φ_dst(t) − φ_src(s)` over an edge's polyhedron.
    #[must_use]
    pub fn delta_max(&self, edge: &DepEdge, rows: &[StmtRow]) -> Extremum {
        edge.poly
            .max_affine(&delta_expr(edge, &rows[edge.src], &rows[edge.dst]))
    }

    /// Statement loop depths (the per-statement dimensionalities).
    #[must_use]
    pub fn depths(&self) -> Vec<usize> {
        self.scop.statements.iter().map(|s| s.depth).collect()
    }

    /// Is statement `s` done (has a full set of independent hyperplanes)?
    #[must_use]
    pub fn stmt_done(&self, s: usize) -> bool {
        self.schedule.loop_rank(s, self.scop.statements[s].depth) == self.scop.statements[s].depth
    }

    /// Apply cut boundaries; returns true if at least one was new.
    /// Appends a scalar dimension recording the refined partition indices
    /// and marks crossing dependences satisfied.
    pub fn apply_cuts(&mut self, cuts: &[usize]) -> bool {
        let before = self.boundaries.len();
        for &b in cuts {
            if b >= 1 && b < self.sccs.len() {
                self.boundaries.insert(b);
            }
        }
        if self.boundaries.len() == before {
            return false;
        }
        obs::add("sched.cuts", (self.boundaries.len() - before) as u64);
        let rows: Vec<StmtRow> = self
            .scop
            .statements
            .iter()
            .enumerate()
            .map(|(s, st)| StmtRow::scalar(st.depth, self.partition_of_stmt(s)))
            .collect();
        self.schedule.push_dim(DimKind::Scalar, rows);
        self.band_of_dim.push(None);
        self.band_edges = None; // a cut ends the permutable band
        let dim = self.schedule.n_dims() - 1;
        for e in 0..self.ddg.edges.len() {
            if self.sat_dim[e].is_some() {
                continue;
            }
            let edge = &self.ddg.edges[e];
            let (ps, pd) = (
                self.partition_of_stmt(edge.src),
                self.partition_of_stmt(edge.dst),
            );
            assert!(
                ps <= pd,
                "cut violates precedence: edge {} -> {}",
                edge.src,
                edge.dst
            );
            if pd > ps {
                self.sat_dim[e] = Some(dim);
            }
        }
        true
    }
}

/// Affine expression of `φ_dst(t) − φ_src(s)` over the edge polyhedron's
/// variables `(s…, t…, params…, 1)`.
fn delta_expr(edge: &DepEdge, src_row: &StmtRow, dst_row: &StmtRow) -> Vec<i128> {
    let nv = edge.poly.n_vars();
    let np = nv - edge.src_depth - edge.dst_depth;
    let _ = np;
    let mut expr = vec![0i128; nv + 1];
    for k in 0..edge.src_depth {
        expr[k] -= src_row.coeffs[k];
    }
    for k in 0..edge.dst_depth {
        expr[edge.src_depth + k] += dst_row.coeffs[k];
    }
    expr[nv] = dst_row.konst - src_row.konst;
    expr
}

/// Per-edge Farkas systems, cached in the edge's *canonical* variable
/// space `[c_src(da+1) | c_dst(db+1) | u(np) | w]` (a self edge shares one
/// `c` block). The legality/bounding constraints of an edge do not change
/// across levels, so they are computed once and embedded into each
/// component's variable layout.
pub type FarkasCache = std::collections::HashMap<usize, (ConstraintSystem, ConstraintSystem)>;

fn canonical_farkas(edge: &DepEdge, np: usize) -> (ConstraintSystem, ConstraintSystem) {
    let (da, db) = (edge.src_depth, edge.dst_depth);
    let self_edge = edge.src == edge.dst;
    let nv = edge.poly.n_vars();
    // Canonical variable indices.
    let c_src = |k: usize| k;
    let c_dst = |k: usize| if self_edge { k } else { da + 1 + k };
    let n_c = if self_edge { da + 1 } else { da + 1 + db + 1 };
    let u = |j: usize| n_c + j;
    let w = n_c + np;
    let n_canon = n_c + np + 1;

    // Legality ψ = φ_dst(t) − φ_src(s).
    let mut psi_vars: Vec<LinForm> = vec![Vec::new(); nv];
    for k in 0..da {
        psi_vars[k].push((c_src(k), -1));
    }
    for k in 0..db {
        psi_vars[da + k].push((c_dst(k), 1));
    }
    let psi_const: LinForm = vec![(c_dst(db), 1), (c_src(da), -1)];
    let legality = nonneg_over(&edge.poly.cs, &psi_vars, &psi_const, n_canon);

    // Bounding ψ = u·n + w − (φ_dst(t) − φ_src(s)).
    let mut bpsi: Vec<LinForm> = vec![Vec::new(); nv];
    for k in 0..da {
        bpsi[k].push((c_src(k), 1));
    }
    for k in 0..db {
        bpsi[da + k].push((c_dst(k), -1));
    }
    for j in 0..np {
        bpsi[da + db + j].push((u(j), 1));
    }
    let bconst: LinForm = vec![(w, 1), (c_dst(db), -1), (c_src(da), 1)];
    let bounding = nonneg_over(&edge.poly.cs, &bpsi, &bconst, n_canon);
    // One-time LP pruning: every surviving row is cloned into the component
    // ILP at every level, so shrinking here pays off many times over.
    (
        wf_polyhedra::fm::remove_redundant(&legality),
        wf_polyhedra::fm::remove_redundant(&bounding),
    )
}

/// Variable map embedding an edge's canonical space into a component layout
/// where `u` sits at 0..np, `w` at np, and statement coefficient blocks at
/// `base[s]`.
fn canonical_map(edge: &DepEdge, np: usize, base: &[usize]) -> Vec<usize> {
    let (da, db) = (edge.src_depth, edge.dst_depth);
    let mut map = Vec::new();
    for k in 0..=da {
        map.push(base[edge.src] + k);
    }
    if edge.src != edge.dst {
        for k in 0..=db {
            map.push(base[edge.dst] + k);
        }
    }
    for j in 0..np {
        map.push(j);
    }
    map.push(np);
    map
}

/// The result of scheduling.
///
/// Derives `Eq` so determinism tests (and the schedule cache's
/// hit-equals-cold guarantee) can compare results structurally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transformed {
    /// The statement-wise multi-dimensional affine transform.
    pub schedule: Schedule,
    /// Per legality edge: which dimension satisfied it.
    pub sat_dim: Vec<Option<usize>>,
    /// SCC decomposition used.
    pub sccs: SccInfo,
    /// The pre-fusion schedule (SCC ids in chosen order).
    pub scc_order: Vec<usize>,
    /// Top-level fusion partition per statement.
    pub partitions: Vec<usize>,
    /// Name of the fusion strategy that produced this.
    pub strategy: String,
    /// Band id per schedule dimension (`None` for scalar dims). Consecutive
    /// dims sharing a band id are mutually permutable — and tileable.
    pub band_of_dim: Vec<Option<usize>>,
}

/// Schedule a SCoP under a fusion strategy. This is the paper's three-step
/// fusion recipe: SCCs → pre-fusion schedule → hyperplanes with cuts.
pub fn schedule_scop(
    scop: &Scop,
    ddg: &Ddg,
    strategy: &dyn FusionStrategy,
    config: &PlutoConfig,
) -> Result<Transformed, SchedError> {
    let _span = wf_harness::span!("schedule.search", "strategy" => strategy.name());
    // Tag every decision this pass records (including the strategy's
    // Algorithm 1/2 callbacks) with the strategy name, so concurrent model
    // jobs drain to a deterministic per-scope order.
    let _scope = obs::scope(strategy.name());
    // Solver cost incurred below is attributed to (benchmark, model): the
    // search runs entirely on this thread, so RAII labels suffice.
    let _bench_label = attr::label_fmt(attr::Slot::Bench, || scop.name.clone());
    let _model_label = attr::label(attr::Slot::Model, strategy.name());
    let sccs = tarjan(ddg);
    let order = strategy.pre_fusion_order(scop, ddg, &sccs);
    validate_order(&order, &sccs, ddg)?;
    let mut pos = vec![0usize; sccs.len()];
    for (p, &c) in order.iter().enumerate() {
        pos[c] = p;
    }
    let mut state = SchedState {
        scop,
        ddg,
        sccs,
        order,
        pos,
        boundaries: BTreeSet::new(),
        sat_dim: vec![None; ddg.edges.len()],
        schedule: Schedule::new(),
        first_loop_done: false,
        band_edges: None,
        band_of_dim: Vec::new(),
        n_bands: 0,
    };
    // Seed the schedule with an initial scalar dimension when the strategy
    // wants pre-emptive cuts (nofuse: everywhere; smartfuse/wisefuse:
    // dimensionality-based).
    let init = strategy.initial_cuts(&state);
    if state.apply_cuts(&init) && obs::decisions_on() {
        obs::decision(
            "cut.initial",
            format!(
                "{}: pre-emptive scalar cut(s) at SCC position(s) {init:?}",
                strategy.name()
            ),
            vec![("boundaries", format!("{init:?}"))],
        );
    }

    let mut iters = 0usize;
    let mut fcache: FarkasCache = FarkasCache::new();
    while !(0..scop.n_statements()).all(|s| state.stmt_done(s)) {
        iters += 1;
        if iters > config.max_iters {
            return Err(SchedError::NoProgress(format!(
                "{}: iteration guard tripped",
                strategy.name()
            )));
        }
        match find_level_rows(&state, config, &mut fcache) {
            Ok(rows) => {
                if !state.first_loop_done {
                    let cuts = strategy.post_loop_cuts(&state, &rows);
                    if !cuts.is_empty() && state.apply_cuts(&cuts) {
                        if obs::decisions_on() {
                            obs::decision(
                                "cut.post_loop",
                                format!(
                                    "{}: cut(s) at SCC position(s) {cuts:?} rejected the \
                                     first loop hyperplane (Algorithm 2); re-solving",
                                    strategy.name()
                                ),
                                vec![
                                    ("boundaries", format!("{cuts:?}")),
                                    ("hyperplane_before", rows_summary(&rows)),
                                ],
                            );
                        }
                        continue; // re-solve the level with the new cuts
                    }
                }
                // Band bookkeeping: a fresh band opens at this dim if none
                // is active; the legality set of the band is frozen now.
                if state.band_edges.is_none() {
                    state.band_edges = Some(state.unsatisfied());
                    state.n_bands += 1;
                }
                if obs::decisions_on() {
                    obs::decision(
                        "hyperplane",
                        format!(
                            "{}: accepted loop hyperplane at schedule dim {}",
                            strategy.name(),
                            state.schedule.n_dims()
                        ),
                        vec![("rows", rows_summary(&rows))],
                    );
                }
                state.schedule.push_dim(DimKind::Loop, rows);
                state.band_of_dim.push(Some(state.n_bands - 1));
                let dim = state.schedule.n_dims() - 1;
                state.first_loop_done = true;
                // Mark dependences now strongly satisfied.
                for e in 0..ddg.edges.len() {
                    if state.sat_dim[e].is_some() {
                        continue;
                    }
                    let edge = &ddg.edges[e];
                    if let Extremum::Value(v) = state.delta_min(edge, &state.schedule.rows[dim]) {
                        if v >= wf_linalg::Rat::ONE {
                            state.sat_dim[e] = Some(dim);
                        }
                    }
                }
            }
            Err((failed, exhausted)) => {
                // If a permutable band is active, first try closing it: the
                // extra δ ≥ 0 constraints for band-satisfied dependences may
                // be what blocks the next hyperplane.
                if state.band_edges.is_some() {
                    state.band_edges = None;
                    continue;
                }
                let cuts = if exhausted {
                    // The fusion ILP is too hard: distribute the whole
                    // component (every SCC boundary it spans) rather than
                    // paying another doomed solve per minimal cut.
                    component_boundaries(&state, &failed)
                } else {
                    strategy.cuts_on_failure(&state, &failed)
                };
                if state.apply_cuts(&cuts) {
                    if obs::decisions_on() {
                        let (kind, why) = if exhausted {
                            ("cut.budget", "fusion ILP budget exhausted")
                        } else {
                            ("cut.failure", "no legal hyperplane exists")
                        };
                        obs::decision(
                            kind,
                            format!(
                                "{}: {why} for statements {failed:?}; distributing at \
                                 SCC position(s) {cuts:?}",
                                strategy.name()
                            ),
                            vec![
                                ("statements", format!("{failed:?}")),
                                ("boundaries", format!("{cuts:?}")),
                            ],
                        );
                    }
                } else {
                    if exhausted {
                        // Distinguish "the ILP gave up" from "there is no
                        // hyperplane": the former is a budget condition the
                        // caller may degrade on, not a modelling dead end.
                        return Err(SchedError::Budget(format!(
                            "{}: fusion ILP budget exhausted for statements {:?} \
                             and no distribution cut applies",
                            strategy.name(),
                            failed
                        )));
                    }
                    return Err(SchedError::NoProgress(format!(
                        "{}: hyperplane search failed for statements {:?} and no cut applies",
                        strategy.name(),
                        failed
                    )));
                }
            }
        }
    }

    append_final_order(&mut state)?;
    verify_legality(&state)?;

    let partitions = state.schedule.top_level_partitions();
    Ok(Transformed {
        schedule: state.schedule,
        sat_dim: state.sat_dim,
        sccs: state.sccs,
        scc_order: state.order,
        partitions,
        strategy: strategy.name().to_string(),
        band_of_dim: state.band_of_dim,
    })
}

fn validate_order(order: &[usize], sccs: &SccInfo, ddg: &Ddg) -> Result<(), SchedError> {
    let mut seen = vec![false; sccs.len()];
    for &c in order {
        if c >= sccs.len() || seen[c] {
            return Err(SchedError::Illegal(
                "pre-fusion order is not a permutation".into(),
            ));
        }
        seen[c] = true;
    }
    if order.len() != sccs.len() {
        return Err(SchedError::Illegal(
            "pre-fusion order has wrong length".into(),
        ));
    }
    let mut pos = vec![0usize; sccs.len()];
    for (p, &c) in order.iter().enumerate() {
        pos[c] = p;
    }
    for e in &ddg.edges {
        let (a, b) = (sccs.scc_of[e.src], sccs.scc_of[e.dst]);
        if a != b && pos[a] > pos[b] {
            return Err(SchedError::Illegal(format!(
                "pre-fusion order violates precedence: SCC {a} -> {b}"
            )));
        }
    }
    Ok(())
}

/// Find one loop hyperplane per statement, or return the statements of a
/// failing connected component.
fn find_level_rows(
    state: &SchedState<'_>,
    config: &PlutoConfig,
    fcache: &mut FarkasCache,
) -> Result<Vec<StmtRow>, (Vec<usize>, bool)> {
    let n = state.scop.n_statements();
    // Connected components over unsatisfied edges.
    let mut comp = (0..n).collect::<Vec<usize>>();
    fn find(comp: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while comp[r] != r {
            r = comp[r];
        }
        let mut c = x;
        while comp[c] != r {
            let next = comp[c];
            comp[c] = r;
            c = next;
        }
        r
    }
    // Components must also honor band edges (their legality constraints
    // couple the endpoint statements' coefficients even when satisfied).
    let mut coupling = state.unsatisfied();
    if let Some(band) = &state.band_edges {
        coupling.extend(band.iter().copied());
    }
    coupling.sort_unstable();
    coupling.dedup();
    for &e in &coupling {
        let edge = &state.ddg.edges[e];
        let (a, b) = (find(&mut comp, edge.src), find(&mut comp, edge.dst));
        if a != b {
            comp[a] = b;
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for s in 0..n {
        let r = find(&mut comp, s);
        groups.entry(r).or_default().push(s);
    }

    let mut rows: Vec<Option<StmtRow>> = vec![None; n];
    for (_, members) in groups {
        if members.iter().all(|&s| state.stmt_done(s)) {
            for &s in &members {
                rows[s] = Some(StmtRow::zero(state.scop.statements[s].depth));
            }
            continue;
        }
        match solve_component(state, &members, config, fcache) {
            SolveOutcome::Solved(sol) => {
                for (s, r) in members.iter().zip(sol) {
                    rows[*s] = Some(r);
                }
            }
            SolveOutcome::Infeasible => return Err((members, false)),
            SolveOutcome::Exhausted => return Err((members, true)),
        }
    }
    Ok(rows
        .into_iter()
        .map(|r| r.expect("row for every statement"))
        .collect())
}

/// Outcome of one component ILP.
enum SolveOutcome {
    Solved(Vec<StmtRow>),
    Infeasible,
    /// The node budget ran out before a verdict: the fusion ILP is too hard
    /// and the component should be distributed wholesale.
    Exhausted,
}

/// Solve the per-component ILP for one hyperplane level.
fn solve_component(
    state: &SchedState<'_>,
    members: &[usize],
    config: &PlutoConfig,
    fcache: &mut FarkasCache,
) -> SolveOutcome {
    if members.len() > config.max_fusion_width {
        return SolveOutcome::Exhausted;
    }
    let scop = state.scop;
    let np = scop.n_params();
    // Variable layout: u(np), w, then per member statement (depth+1).
    let mut base = vec![0usize; scop.n_statements()];
    let mut n_sched = np + 1;
    for &s in members {
        base[s] = n_sched;
        n_sched += scop.statements[s].depth + 1;
    }
    let member_set: std::collections::HashSet<usize> = members.iter().copied().collect();

    let mut cs = ConstraintSystem::new(n_sched);
    for j in 0..np {
        cs.add_lower_bound(j, 0);
        cs.add_upper_bound(j, config.u_bound);
    }
    cs.add_lower_bound(np, 0);
    cs.add_upper_bound(np, config.w_bound);
    for &s in members {
        let d = scop.statements[s].depth;
        for k in 0..d {
            cs.add_lower_bound(base[s] + k, 0);
            cs.add_upper_bound(base[s] + k, config.coeff_bound);
        }
        cs.add_lower_bound(base[s] + d, 0);
        cs.add_upper_bound(base[s] + d, config.shift_bound);
    }

    // Legality + bounding constraints for every unsatisfied edge inside the
    // component.
    // Legality: for every dependence live at the start of the current band
    // (keeping δ ≥ 0 for band-satisfied edges is what makes the band
    // permutable). Bounding: only for currently-unsatisfied edges.
    let unsat = state.unsatisfied();
    let legality_edges: Vec<usize> = match &state.band_edges {
        Some(band) => band.clone(),
        None => unsat.clone(),
    };
    let unsat_set: std::collections::HashSet<usize> = unsat.iter().copied().collect();
    for &e in &legality_edges {
        let edge = &state.ddg.edges[e];
        if !member_set.contains(&edge.src) || !member_set.contains(&edge.dst) {
            continue;
        }
        let (legality, bounding) = fcache
            .entry(e)
            .or_insert_with(|| canonical_farkas(edge, np));
        let map = canonical_map(edge, np, &base);
        cs.extend(&legality.embed(n_sched, &map));
        if unsat_set.contains(&e) {
            cs.extend(&bounding.embed(n_sched, &map));
        }
    }

    // Per-statement constraints: non-triviality and linear independence for
    // live statements; pin finished statements to zero rows.
    let mut kernel_vectors: Vec<(usize, Vec<i128>)> = Vec::new(); // (stmt, vector)
    for &s in members {
        let d = scop.statements[s].depth;
        if state.stmt_done(s) {
            for k in 0..=d {
                cs.add_fixed(base[s] + k, 0);
            }
            continue;
        }
        // Σ_k c_k >= 1.
        let mut row = vec![0i128; n_sched + 1];
        for k in 0..d {
            row[base[s] + k] = 1;
        }
        row[n_sched] = -1;
        cs.add_ge0(row);
        // Linear independence w.r.t. already-found hyperplanes: the new row
        // must have a non-zero component in the kernel of H.
        let h = state.schedule.loop_matrix(s);
        if !h.is_empty() {
            for vec in RatMat::from_int_rows(&h).kernel_basis() {
                kernel_vectors.push((s, vec));
            }
        }
    }

    let objectives = build_objectives(scop, members, &base, np, n_sched, config);

    // Try sign assignments for the kernel-vector constraints (PLuTo's
    // orthogonality trick, generalized: each kernel direction may point
    // either way). All-positive first; bail after a bounded number of
    // combinations.
    cs.simplify();
    // Attribute every ILP solved for this component to the fused statement
    // group and the schedule level being searched, so `wfc profile` can
    // name the exact (component, dimension) a cell blow-up came from.
    let _unit_label = attr::label_fmt(attr::Slot::Unit, || {
        let names: Vec<&str> = members
            .iter()
            .map(|&s| scop.statements[s].name.as_str())
            .collect();
        format!("comp[{}]", names.join(","))
    });
    let _dim_label = attr::label_fmt(attr::Slot::Dim, || state.schedule.n_dims().to_string());
    let mut comp_span = wf_harness::span!("schedule.component");
    attr::annotate_span(&mut comp_span);
    comp_span
        .arg("members", members.len().to_string())
        .arg("vars", n_sched.to_string())
        .arg("rows", cs.constraints.len().to_string())
        .arg("kernels", kernel_vectors.len().to_string());
    let n_k = kernel_vectors.len();
    let combos = 1usize << n_k.min(7);
    for mask in 0..combos {
        let mut sys = cs.clone();
        let mut per_stmt_sum: std::collections::BTreeMap<usize, Vec<i128>> = Default::default();
        for (idx, (s, vec)) in kernel_vectors.iter().enumerate() {
            let sign: i128 = if mask & (1 << idx) == 0 { 1 } else { -1 };
            let d = scop.statements[*s].depth;
            let mut row = vec![0i128; n_sched + 1];
            for k in 0..d {
                row[base[*s] + k] = sign * vec[k];
            }
            sys.add_ge0(row.clone());
            let sum = per_stmt_sum
                .entry(*s)
                .or_insert_with(|| vec![0i128; n_sched + 1]);
            for (a, b) in sum.iter_mut().zip(&row) {
                *a += *b;
            }
        }
        for (_, mut sum) in per_stmt_sum {
            sum[n_sched] -= 1; // Σ (±r)·c >= 1
            sys.add_ge0(sum);
        }
        let budget = wf_polyhedra::IlpBudget {
            max_nodes: config.ilp_node_budget,
            max_cells: config.ilp_cell_budget,
            ..wf_polyhedra::IlpBudget::default()
        };
        let solved = {
            let _span = wf_harness::span!("ilp.solve", "combo" => mask.to_string());
            wf_polyhedra::ilp::lexmin_budgeted(&sys, &objectives, &budget)
        };
        match solved {
            Err(_) => return SolveOutcome::Exhausted,
            Ok(Some((_, point))) => {
                let mut rows = Vec::with_capacity(members.len());
                for &s in members {
                    let d = scop.statements[s].depth;
                    rows.push(StmtRow {
                        coeffs: point[base[s]..base[s] + d].to_vec(),
                        konst: point[base[s] + d],
                    });
                }
                return SolveOutcome::Solved(rows);
            }
            Ok(None) => {}
        }
    }
    SolveOutcome::Infeasible
}

/// PLuTo's lexicographic cost `(Σu, w, Σ loop coeffs, Σ shifts,
/// iterator-weighted tie-break)`, folded into a single integer objective:
/// every variable is explicitly bounded, so cascading weights larger than
/// the downstream terms' ranges make one ILP solve equivalent to the
/// five-stage lexicographic minimization (and five times cheaper).
fn build_objectives(
    scop: &Scop,
    members: &[usize],
    base: &[usize],
    np: usize,
    n_sched: usize,
    config: &PlutoConfig,
) -> Vec<Vec<i128>> {
    let sum_depth: i128 = members
        .iter()
        .map(|&s| scop.statements[s].depth as i128)
        .sum();
    let max_depth: i128 = members
        .iter()
        .map(|&s| scop.statements[s].depth as i128)
        .max()
        .unwrap_or(0);
    // Range bounds of each lexicographic component.
    let b5 = config.coeff_bound * sum_depth * max_depth; // tie-break
    let b4 = config.shift_bound * members.len() as i128; // Σ shifts
    let b3 = config.coeff_bound * sum_depth; // Σ loop coeffs
    let b2 = config.w_bound; // w
    let m4 = b5 + 1;
    let m3 = m4 * (b4 + 1);
    let m2 = m3 * (b3 + 1);
    let m1 = m2 * (b2 + 1);
    let mut obj = vec![0i128; n_sched];
    for j in 0..np {
        obj[j] = m1;
    }
    obj[np] = m2;
    for &s in members {
        let d = scop.statements[s].depth;
        for k in 0..d {
            obj[base[s] + k] = m3 + (k + 1) as i128;
        }
        obj[base[s] + d] = m4;
    }
    vec![obj]
}

/// Append the final static-order scalar dimension: a topological order of
/// the statements under the remaining (zero-distance) dependences,
/// tie-broken by original program order.
fn append_final_order(state: &mut SchedState<'_>) -> Result<(), SchedError> {
    let n = state.scop.n_statements();
    let mut adj = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for &e in &state.unsatisfied() {
        let edge = &state.ddg.edges[e];
        if edge.src == edge.dst {
            continue; // self edges cannot be ordered statically
        }
        adj[edge.src].push(edge.dst);
        indeg[edge.dst] += 1;
    }
    let mut ready: BTreeSet<usize> = (0..n).filter(|&s| indeg[s] == 0).collect();
    let mut ordinal = vec![0i128; n];
    let mut next = 0i128;
    while let Some(&s) = ready.iter().next() {
        ready.remove(&s);
        ordinal[s] = next;
        next += 1;
        for &t in &adj[s] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                ready.insert(t);
            }
        }
    }
    if next as usize != n {
        return Err(SchedError::Illegal(
            "cyclic zero-distance dependences cannot be statically ordered".into(),
        ));
    }
    let rows: Vec<StmtRow> = state
        .scop
        .statements
        .iter()
        .enumerate()
        .map(|(s, st)| StmtRow::scalar(st.depth, ordinal[s]))
        .collect();
    state.schedule.push_dim(DimKind::Scalar, rows);
    state.band_of_dim.push(None);
    let dim = state.schedule.n_dims() - 1;
    for e in 0..state.ddg.edges.len() {
        if state.sat_dim[e].is_none() {
            let edge = &state.ddg.edges[e];
            if edge.src != edge.dst && ordinal[edge.src] < ordinal[edge.dst] {
                state.sat_dim[e] = Some(dim);
            }
        }
    }
    Ok(())
}

/// Every SCC boundary spanned by the given statements (used to distribute
/// a component whose fusion ILP exhausted its budget).
fn component_boundaries(state: &SchedState<'_>, members: &[usize]) -> Vec<usize> {
    let mut positions: Vec<usize> = members
        .iter()
        .map(|&s| state.pos[state.sccs.scc_of[s]])
        .collect();
    positions.sort_unstable();
    positions.dedup();
    positions.into_iter().skip(1).collect()
}

/// Compute, for an externally-constructed schedule, which dimension
/// satisfies each legality edge (first dimension with `min δ ≥ 1`).
/// Used by the icc-like baseline whose schedule is the original program
/// order rather than an engine product.
#[must_use]
pub fn compute_satisfaction(ddg: &Ddg, schedule: &Schedule) -> Vec<Option<usize>> {
    ddg.edges
        .iter()
        .map(|edge| {
            (0..schedule.n_dims()).find(|&d| {
                let expr = delta_expr(
                    edge,
                    &schedule.rows[d][edge.src],
                    &schedule.rows[d][edge.dst],
                );
                matches!(edge.poly.min_affine(&expr),
                    Extremum::Value(v) if v >= wf_linalg::Rat::ONE)
            })
        })
        .collect()
}

/// Exact legality verification: no dependence instance may have a
/// lexicographically negative (or, for distinct statements, all-zero in the
/// wrong static order) schedule difference. Rational emptiness makes this
/// check conservative in the safe direction.
fn verify_legality(state: &SchedState<'_>) -> Result<(), SchedError> {
    for edge in &state.ddg.edges {
        let ndims = state.schedule.n_dims();
        // Prefix system: delta_0 = 0, …, delta_{k-1} = 0, delta_k <= -1.
        let nv = edge.poly.n_vars();
        let mut prefix = edge.poly.cs.clone();
        for k in 0..ndims {
            let expr = delta_expr(
                edge,
                &state.schedule.rows[k][edge.src],
                &state.schedule.rows[k][edge.dst],
            );
            // Violation at this level?
            let mut viol = prefix.clone();
            let mut neg = expr.clone();
            for v in &mut neg {
                *v = -*v;
            }
            neg[nv] -= 1; // -delta - 1 >= 0  <=>  delta <= -1
            viol.add_ge0(neg);
            if !wf_polyhedra::Polyhedron::from(viol).is_empty_rational() {
                return Err(SchedError::Illegal(format!(
                    "dependence {} -> {} violated at dimension {k}",
                    state.scop.statements[edge.src].name, state.scop.statements[edge.dst].name,
                )));
            }
            prefix.add_eq0(expr);
        }
        // All-zero difference for distinct statements: must not happen (the
        // final static order separates them) — for identical statements it
        // would mean a self-dependence on the same instance, excluded by
        // construction.
        if edge.src != edge.dst && !wf_polyhedra::Polyhedron::from(prefix).is_empty_rational() {
            return Err(SchedError::Illegal(format!(
                "dependence {} -> {} has unordered zero-distance instances",
                state.scop.statements[edge.src].name, state.scop.statements[edge.dst].name,
            )));
        }
    }
    Ok(())
}
