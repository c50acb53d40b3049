//! Execution-plan construction.

use wf_linalg::{lcm, RatMat};
use wf_polyhedra::{fm, ConstraintSystem};
use wf_schedule::pluto::Transformed;
use wf_schedule::transform::DimKind;
use wf_scop::Scop;

/// Per-level affine bounds of one statement's schedule dimension.
///
/// Each bound row ranges over `(z_0 … z_{D-1}, params, 1)` with a zero
/// coefficient on `z_d` itself and on every `z_{>d}`; the represented
/// constraint is `a_d · z_d + row ≥ 0` with `a_d` stored separately.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelBounds {
    /// `(coef, row)` pairs with `coef > 0`: `z_d >= ceil(-row / coef)`.
    pub lowers: Vec<(i128, Vec<i128>)>,
    /// `(coef, row)` pairs with `coef > 0`: `z_d <= floor(row / coef)`.
    pub uppers: Vec<(i128, Vec<i128>)>,
}

impl LevelBounds {
    /// Evaluate the tightest lower bound at a partial schedule point.
    #[must_use]
    pub fn lower(&self, z: &[i128], params: &[i128]) -> Option<i128> {
        self.lowers
            .iter()
            .map(|(c, row)| {
                let r = eval_row(row, z, params);
                // z_d >= -r / c  (c > 0)
                ceil_div(-r, *c)
            })
            .max()
    }

    /// Evaluate the tightest upper bound at a partial schedule point.
    #[must_use]
    pub fn upper(&self, z: &[i128], params: &[i128]) -> Option<i128> {
        self.uppers
            .iter()
            .map(|(c, row)| {
                let r = eval_row(row, z, params);
                floor_div(r, *c)
            })
            .min()
    }
}

fn eval_row(row: &[i128], z: &[i128], params: &[i128]) -> i128 {
    let d = row.len() - 1 - params.len();
    let mut v = row[row.len() - 1];
    for (k, &zv) in z.iter().enumerate().take(d) {
        v += row[k] * zv;
    }
    for (j, &p) in params.iter().enumerate() {
        v += row[d + j] * p;
    }
    v
}

fn ceil_div(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    -((-a).div_euclid(b))
}

fn floor_div(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

/// Exact integer inverse map: `i = (mat · (z_sel − shift)) / den`.
#[derive(Clone, Debug, PartialEq)]
pub struct InverseMap {
    /// Which schedule dimensions are selected (one per original iterator).
    pub sel_dims: Vec<usize>,
    /// Integer matrix (depth × depth).
    pub mat: Vec<Vec<i128>>,
    /// Constant shifts of the selected rows.
    pub shift: Vec<i128>,
    /// Common denominator (> 0).
    pub den: i128,
}

impl InverseMap {
    /// Recover the original iteration vector from a full schedule point,
    /// or `None` if it is not an integer preimage.
    #[must_use]
    pub fn invert(&self, z: &[i128]) -> Option<Vec<i128>> {
        let depth = self.sel_dims.len();
        let mut out = Vec::with_capacity(depth);
        for r in 0..depth {
            let mut acc = 0i128;
            for (c, &dim) in self.sel_dims.iter().enumerate() {
                acc += self.mat[r][c] * (z[dim] - self.shift[c]);
            }
            if acc % self.den != 0 {
                return None;
            }
            out.push(acc / self.den);
        }
        Some(out)
    }
}

/// Everything the runtime needs to execute one statement.
#[derive(Clone, Debug)]
pub struct StmtPlan {
    /// Statement index in the SCoP.
    pub stmt: usize,
    /// Bounds per schedule dimension (scalar dims have exact-value bounds).
    pub bounds: Vec<LevelBounds>,
    /// Exact inverse map back to original iterators.
    pub inverse: InverseMap,
}

/// One execution dimension of a (possibly tiled) plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZDim {
    /// An original schedule dimension.
    Orig(usize),
    /// A tile loop enumerating blocks of an original dimension:
    /// `size·zt <= z_orig <= size·zt + size - 1`.
    Tile {
        /// The original schedule dimension being strip-mined.
        orig: usize,
        /// Tile size (> 1).
        size: i128,
    },
}

/// The executable plan for a whole transformed SCoP.
#[derive(Clone, Debug)]
pub struct ExecPlan {
    /// Dimension kinds, one per execution dimension (tile loops are
    /// `Loop`s).
    pub dims: Vec<DimKind>,
    /// What each execution dimension is (original or tile loop).
    pub layout: Vec<ZDim>,
    /// One plan per statement (same order as the SCoP).
    pub stmts: Vec<StmtPlan>,
    /// `parallel[d][s]`: may dimension `d` be run in parallel for statement
    /// `s`'s fused group? (False for scalar dims.)
    pub parallel: Vec<Vec<bool>>,
}

/// Build the (untiled) execution plan for a transformed SCoP.
///
/// `parallel` comes from `wf_schedule::props::analyze`, mapped to booleans
/// by the caller (true ⇔ `LoopProp::Parallel`).
#[must_use]
pub fn build_plan(scop: &Scop, t: &Transformed, parallel: Vec<Vec<bool>>) -> ExecPlan {
    let layout: Vec<ZDim> = (0..t.schedule.n_dims()).map(ZDim::Orig).collect();
    build_plan_with_layout(scop, t, parallel, &layout)
}

/// Build an execution plan under an explicit dimension layout — the general
/// entry point used by the tiling pass ([`crate::tiling`]).
///
/// Every original schedule dimension must appear exactly once as
/// `ZDim::Orig`; `ZDim::Tile` entries may be inserted anywhere *before*
/// their original dimension.
#[must_use]
pub fn build_plan_with_layout(
    scop: &Scop,
    t: &Transformed,
    parallel: Vec<Vec<bool>>,
    layout: &[ZDim],
) -> ExecPlan {
    let _span = wf_harness::span!("codegen.plan", "strategy" => t.strategy.clone());
    wf_harness::obs::add("codegen.plans", 1);
    let np = scop.n_params();
    let ndims = t.schedule.n_dims();
    let nl = layout.len();
    // Position of each original dim in the layout.
    let mut pos_of_orig = vec![usize::MAX; ndims];
    for (p, zd) in layout.iter().enumerate() {
        if let ZDim::Orig(d) = zd {
            assert_eq!(pos_of_orig[*d], usize::MAX, "dim {d} appears twice");
            pos_of_orig[*d] = p;
        }
    }
    assert!(
        pos_of_orig.iter().all(|&p| p != usize::MAX),
        "layout must cover all dims"
    );
    for (p, zd) in layout.iter().enumerate() {
        if let ZDim::Tile { orig, size } = zd {
            assert!(*size > 1, "tile size must exceed 1");
            assert!(p < pos_of_orig[*orig], "tile loop must precede its dim");
        }
    }

    let stmts = scop
        .statements
        .iter()
        .enumerate()
        .map(|(s, st)| {
            let depth = st.depth;
            // Transformed domain over (z_0..z_{D-1}, i_0..i_{d-1}, params).
            let nv = ndims + depth + np;
            let mut cs = ConstraintSystem::new(nv);
            // Schedule equalities: z_d - T_d(i) = 0.
            for d in 0..ndims {
                let row_s = &t.schedule.rows[d][s];
                let mut row = vec![0i128; nv + 1];
                row[d] = 1;
                for k in 0..depth {
                    row[ndims + k] = -row_s.coeffs[k];
                }
                row[nv] = -row_s.konst;
                cs.add_eq0(row);
            }
            // Domain over (i, params).
            let map: Vec<usize> = (ndims..ndims + depth).chain(ndims + depth..nv).collect();
            cs.extend(&st.domain.embed(nv, &map));
            // Context over params.
            let pmap: Vec<usize> = (ndims + depth..nv).collect();
            cs.extend(&scop.context.embed(nv, &pmap));

            // Project away the original iterators.
            let ivars: Vec<usize> = (ndims..ndims + depth).collect();
            let mut zsys = fm::eliminate_vars_greedy(&cs, &ivars, 80);
            // Shrink to (z, params).
            zsys = shrink(&zsys, ndims, depth, np);

            // Re-embed into the layout space (nl z-vars + params) and add
            // the tile constraints size·zt <= z <= size·zt + size - 1.
            let lw = nl + np;
            let mut zmap: Vec<usize> = pos_of_orig.clone();
            zmap.extend(nl..lw); // params
            let mut lsys = zsys.embed(lw, &zmap);
            for (p, zd) in layout.iter().enumerate() {
                if let ZDim::Tile { orig, size } = zd {
                    let zo = pos_of_orig[*orig];
                    let mut lo = vec![0i128; lw + 1];
                    lo[zo] = 1;
                    lo[p] = -size;
                    lsys.add_ge0(lo); // z - size*zt >= 0
                    let mut hi = vec![0i128; lw + 1];
                    hi[zo] = -1;
                    hi[p] = *size;
                    hi[lw] = size - 1;
                    lsys.add_ge0(hi); // size*zt + size-1 - z >= 0
                }
            }

            // Per-level bounds, innermost first.
            let mut bounds = vec![
                LevelBounds {
                    lowers: Vec::new(),
                    uppers: Vec::new()
                };
                nl
            ];
            let mut cur = lsys;
            for d in (0..nl).rev() {
                for c in &cur.constraints {
                    let a = c.coeffs[d];
                    if a == 0 {
                        continue;
                    }
                    let mut row = c.coeffs.clone();
                    row[d] = 0;
                    match c.kind {
                        wf_polyhedra::ConstraintKind::Ineq => {
                            if a > 0 {
                                bounds[d].lowers.push((a, row));
                            } else {
                                // a z + row >= 0, a < 0: z <= row / (-a)
                                bounds[d].uppers.push((-a, row));
                            }
                        }
                        wf_polyhedra::ConstraintKind::Eq => {
                            if a > 0 {
                                bounds[d].lowers.push((a, row.clone()));
                                let mut neg: Vec<i128> = row.iter().map(|&v| -v).collect();
                                neg[d] = 0;
                                bounds[d].uppers.push((a, neg));
                            } else {
                                let pos: Vec<i128> = row.iter().map(|&v| -v).collect();
                                bounds[d].lowers.push((-a, pos));
                                bounds[d].uppers.push((-a, row));
                            }
                        }
                    }
                }
                assert!(
                    !bounds[d].lowers.is_empty() && !bounds[d].uppers.is_empty(),
                    "{}: unbounded execution dimension {d}",
                    st.name
                );
                // Plans are long-lived; a one- or two-entry bound list
                // pushed into a fresh `Vec` would otherwise hold four slots.
                bounds[d].lowers.shrink_to_fit();
                bounds[d].uppers.shrink_to_fit();
                cur = fm::eliminate_var(&cur, d);
            }

            let mut inverse = build_inverse(t, s, depth);
            // Re-point the selected dims into layout positions.
            inverse.sel_dims = inverse.sel_dims.iter().map(|&d| pos_of_orig[d]).collect();
            StmtPlan {
                stmt: s,
                bounds,
                inverse,
            }
        })
        .collect();

    let dims: Vec<DimKind> = layout
        .iter()
        .map(|zd| match zd {
            ZDim::Orig(d) => t.schedule.dims[*d],
            ZDim::Tile { .. } => DimKind::Loop,
        })
        .collect();
    let par: Vec<Vec<bool>> = layout
        .iter()
        .map(|zd| {
            let d = match zd {
                ZDim::Orig(d) | ZDim::Tile { orig: d, .. } => *d,
            };
            parallel[d].clone()
        })
        .collect();
    ExecPlan {
        dims,
        layout: layout.to_vec(),
        stmts,
        parallel: par,
    }
}

fn shrink(cs: &ConstraintSystem, ndims: usize, depth: usize, np: usize) -> ConstraintSystem {
    let keep = ndims + np;
    let mut out = ConstraintSystem::new(keep);
    for c in &cs.constraints {
        debug_assert!(c.coeffs[ndims..ndims + depth].iter().all(|&v| v == 0));
        let mut row = Vec::with_capacity(keep + 1);
        row.extend_from_slice(&c.coeffs[..ndims]);
        row.extend_from_slice(&c.coeffs[ndims + depth..]);
        if row.iter().all(|&v| v == 0) {
            continue;
        }
        out.constraints.push(wf_polyhedra::Constraint {
            coeffs: row,
            kind: c.kind,
        });
    }
    out
}

fn build_inverse(t: &Transformed, s: usize, depth: usize) -> InverseMap {
    // Select `depth` linearly independent loop rows.
    let mut sel_dims = Vec::new();
    let mut rows: Vec<Vec<i128>> = Vec::new();
    for (d, kind) in t.schedule.dims.iter().enumerate() {
        if *kind != DimKind::Loop || rows.len() == depth {
            continue;
        }
        let cand = t.schedule.rows[d][s].coeffs.clone();
        let mut trial = rows.clone();
        trial.push(cand.clone());
        if RatMat::from_int_rows(&trial).rank() == trial.len() {
            rows.push(cand);
            sel_dims.push(d);
        }
    }
    assert_eq!(
        rows.len(),
        depth,
        "statement {s}: schedule is rank-deficient"
    );
    if depth == 0 {
        return InverseMap {
            sel_dims,
            mat: Vec::new(),
            shift: Vec::new(),
            den: 1,
        };
    }
    let m = RatMat::from_int_rows(&rows);
    let inv = m.inverse().expect("full-rank by construction");
    // Common denominator.
    let mut den = 1i128;
    for r in 0..depth {
        for c in 0..depth {
            den = lcm(den, inv[(r, c)].den());
        }
    }
    let mat: Vec<Vec<i128>> = (0..depth)
        .map(|r| {
            (0..depth)
                .map(|c| inv[(r, c)].num() * (den / inv[(r, c)].den()))
                .collect()
        })
        .collect();
    let shift: Vec<i128> = sel_dims
        .iter()
        .map(|&d| t.schedule.rows[d][s].konst)
        .collect();
    InverseMap {
        sel_dims,
        mat,
        shift,
        den,
    }
}

/// Validate a candidate execution point against one statement: recover the
/// iterators, check every schedule dimension (and tile consistency) and the
/// domain. Returns the iteration vector when the point is genuine.
#[must_use]
pub fn guard(
    scop: &Scop,
    t: &Transformed,
    layout: &[ZDim],
    sp: &StmtPlan,
    z: &[i128],
    params: &[i128],
) -> Option<Vec<i128>> {
    let iters = sp.inverse.invert(z)?;
    // Every execution dimension must match: original dims must equal the
    // schedule value, tile dims must be the enclosing block.
    let full = t.schedule.apply(sp.stmt, &iters);
    for (p, zd) in layout.iter().enumerate() {
        let want = match zd {
            ZDim::Orig(d) => full[*d],
            ZDim::Tile { orig, size } => full[*orig].div_euclid(*size),
        };
        if z[p] != want {
            return None;
        }
    }
    // Domain membership.
    let st = &scop.statements[sp.stmt];
    let mut point = iters.clone();
    point.extend_from_slice(params);
    st.domain.contains(&point).then_some(iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_deps::analyze;
    use wf_schedule::{schedule_scop, Maxfuse, Nofuse, PlutoConfig};
    use wf_scop::{Aff, Expr, Scop, ScopBuilder};

    fn producer_consumer() -> Scop {
        let mut b = ScopBuilder::new("pc", &["N"]);
        b.context_ge(Aff::param(0) - 4);
        let a = b.array("A", &[Aff::param(0)]);
        let bb = b.array("B", &[Aff::param(0)]);
        b.stmt("S0", 1, &[0, 0])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .write(a, &[Aff::iter(0)])
            .rhs(Expr::Const(1.0))
            .done();
        b.stmt("S1", 1, &[1, 0])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .write(bb, &[Aff::iter(0)])
            .read(a, &[Aff::iter(0)])
            .rhs(Expr::Load(0))
            .done();
        b.build()
    }

    fn plan_for(scop: &Scop, strat: &dyn wf_schedule::FusionStrategy) -> (Transformed, ExecPlan) {
        let ddg = analyze(scop);
        let t = schedule_scop(scop, &ddg, strat, &PlutoConfig::default()).unwrap();
        let ndims = t.schedule.n_dims();
        let parallel = vec![vec![false; scop.n_statements()]; ndims];
        let plan = build_plan(scop, &t, parallel);
        (t, plan)
    }

    #[test]
    fn bounds_cover_exactly_the_domain() {
        let scop = producer_consumer();
        let (t, plan) = plan_for(&scop, &Maxfuse);
        let params = [6i128];
        // Walk the plan manually for statement 0 and count guarded points.
        for sp in &plan.stmts {
            let mut count = 0;
            walk(&scop, &t, sp, &mut vec![], &params, &mut count);
            assert_eq!(count, 6, "stmt {} executes N times", sp.stmt);
        }
    }

    fn walk(
        scop: &Scop,
        t: &Transformed,
        sp: &StmtPlan,
        z: &mut Vec<i128>,
        params: &[i128],
        count: &mut usize,
    ) {
        if z.len() == sp.bounds.len() {
            let layout: Vec<ZDim> = (0..sp.bounds.len()).map(ZDim::Orig).collect();
            if guard(scop, t, &layout, sp, z, params).is_some() {
                *count += 1;
            }
            return;
        }
        let d = z.len();
        let (Some(lo), Some(hi)) = (sp.bounds[d].lower(z, params), sp.bounds[d].upper(z, params))
        else {
            panic!("unbounded dim {d}");
        };
        for v in lo..=hi {
            z.push(v);
            walk(scop, t, sp, z, params, count);
            z.pop();
        }
    }

    #[test]
    fn inverse_roundtrip_identity() {
        let scop = producer_consumer();
        let (t, plan) = plan_for(&scop, &Nofuse);
        for sp in &plan.stmts {
            for i in 0..6i128 {
                let z = t.schedule.apply(sp.stmt, &[i]);
                let back = guard(&scop, &t, &plan.layout, sp, &z, &[6]).expect("point in domain");
                assert_eq!(back, vec![i]);
            }
        }
    }

    #[test]
    fn guard_rejects_foreign_points() {
        let scop = producer_consumer();
        let (t, plan) = plan_for(&scop, &Nofuse);
        // A point from statement 1's partition must not validate for
        // statement 0 (scalar dim differs).
        let z1 = t.schedule.apply(1, &[3]);
        assert!(guard(&scop, &t, &plan.layout, &plan.stmts[0], &z1, &[6]).is_none());
        // Out-of-domain point.
        let z_oob = t.schedule.apply(0, &[17]);
        assert!(guard(&scop, &t, &plan.layout, &plan.stmts[0], &z_oob, &[6]).is_none());
    }

    #[test]
    fn interchange_inverse() {
        // 2-D statement scheduled with interchanged loops: inverse must
        // recover (i, j) from (j, i).
        let mut b = ScopBuilder::new("ic", &["N"]);
        b.context_ge(Aff::param(0) - 4);
        let a = b.array("A", &[Aff::param(0), Aff::param(0)]);
        let x = b.array("X", &[Aff::param(0)]);
        b.stmt("S1", 2, &[0, 0, 0])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .bounds(1, Aff::zero(), Aff::param(0) - 1)
            .write(a, &[Aff::iter(0), Aff::iter(1)])
            .rhs(Expr::Const(1.0))
            .done();
        b.stmt("S2", 2, &[1, 0, 0])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .bounds(1, Aff::zero(), Aff::param(0) - 1)
            .write(x, &[Aff::iter(0)])
            .read(a, &[Aff::iter(1), Aff::iter(0)])
            .rhs(Expr::Load(0))
            .done();
        let scop = b.build();
        let (t, plan) = plan_for(&scop, &Maxfuse);
        let params = [5i128];
        for sp in &plan.stmts {
            let mut count = 0;
            walk(&scop, &t, sp, &mut vec![], &params, &mut count);
            assert_eq!(count, 25, "stmt {} full 2-D domain", sp.stmt);
        }
    }

    #[test]
    fn triangular_domain_counts() {
        // for i in 0..N, j in 0..=i: exactly N(N+1)/2 points survive.
        let mut b = ScopBuilder::new("tri", &["N"]);
        b.context_ge(Aff::param(0) - 4);
        let a = b.array("A", &[Aff::param(0), Aff::param(0)]);
        b.stmt("S0", 2, &[0, 0, 0])
            .bounds(0, Aff::zero(), Aff::param(0) - 1)
            .bounds(1, Aff::zero(), Aff::iter(0))
            .write(a, &[Aff::iter(0), Aff::iter(1)])
            .rhs(Expr::Const(1.0))
            .done();
        let scop = b.build();
        let (t, plan) = plan_for(&scop, &Nofuse);
        let mut count = 0;
        walk(&scop, &t, &plan.stmts[0], &mut vec![], &[6], &mut count);
        assert_eq!(count, 21);
    }

    #[test]
    fn ceil_floor_div() {
        assert_eq!(super::ceil_div(7, 2), 4);
        assert_eq!(super::ceil_div(-7, 2), -3);
        assert_eq!(super::floor_div(7, 2), 3);
        assert_eq!(super::floor_div(-7, 2), -4);
    }
}
