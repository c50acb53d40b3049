//! A convenience wrapper around [`ConstraintSystem`] offering the queries the
//! dependence analyzer and scheduler need: emptiness, affine extrema, and
//! (for tests) exhaustive integer-point enumeration.

use crate::constraint::ConstraintSystem;
use crate::ilp::{ilp_feasible, try_ilp_feasible, IlpBudget};
use crate::simplex::{solve_lp, LpResult, Sense};
use wf_linalg::Rat;

/// Typed failure of a polyhedron query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolyError {
    /// A variable is unbounded, so exhaustive enumeration cannot terminate.
    Unbounded {
        /// Index of the unbounded variable.
        var: usize,
    },
    /// Enumeration would produce more than the requested limit of points.
    TooManyPoints {
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for PolyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolyError::Unbounded { var } => {
                write!(f, "cannot enumerate: variable x{var} is unbounded")
            }
            PolyError::TooManyPoints { limit } => {
                write!(f, "enumeration exceeds {limit} points")
            }
        }
    }
}

impl std::error::Error for PolyError {}

impl From<PolyError> for wf_harness::WfError {
    fn from(e: PolyError) -> wf_harness::WfError {
        match e {
            PolyError::Unbounded { .. } => wf_harness::WfError::Unbounded {
                site: "poly.enumerate".into(),
            },
            PolyError::TooManyPoints { .. } => wf_harness::WfError::Budget {
                site: "poly.enumerate".into(),
                detail: e.to_string(),
            },
        }
    }
}

/// Extremum of an affine expression over a polyhedron.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Extremum {
    /// The polyhedron is empty.
    Empty,
    /// The expression is unbounded in the requested direction.
    Unbounded,
    /// Finite extremum (over the rationals).
    Value(Rat),
}

impl Extremum {
    /// The finite value, if any.
    #[must_use]
    pub fn value(self) -> Option<Rat> {
        match self {
            Extremum::Value(v) => Some(v),
            _ => None,
        }
    }
}

/// A rational polyhedron `{ x | A x + c >= 0, B x + d == 0 }`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Polyhedron {
    /// The defining constraints.
    pub cs: ConstraintSystem,
}

impl From<ConstraintSystem> for Polyhedron {
    fn from(cs: ConstraintSystem) -> Polyhedron {
        Polyhedron { cs }
    }
}

impl Polyhedron {
    /// Universe polyhedron over `n` variables.
    #[must_use]
    pub fn universe(n: usize) -> Polyhedron {
        Polyhedron {
            cs: ConstraintSystem::new(n),
        }
    }

    /// Number of variables.
    #[must_use]
    pub fn n_vars(&self) -> usize {
        self.cs.n_vars
    }

    /// Is the polyhedron empty over the rationals?
    #[must_use]
    pub fn is_empty_rational(&self) -> bool {
        !crate::simplex::lp_feasible(&self.cs)
    }

    /// Is the polyhedron empty over the integers?
    ///
    /// Requires boundedness in the directions branch-and-bound explores;
    /// dependence polyhedra in this project always bound every variable.
    /// If the solver's budget is somehow exhausted, this answers `false`
    /// (conservatively non-empty): the dependence analyzer then *keeps*
    /// the dependence, which can only forbid transformations, never
    /// admit an illegal one.
    ///
    /// Verdicts are memoized process-wide through the underlying
    /// [`try_ilp_feasible`] (see [`crate::memo`]); repeated tests of the
    /// same system are answered from the cache, byte-identically.
    #[must_use]
    pub fn is_empty_integer(&self) -> bool {
        match try_ilp_feasible(&self.cs, &IlpBudget::default()) {
            Ok(found) => found.is_none(),
            Err(_) => false,
        }
    }

    /// Some integer point, if one exists.
    #[must_use]
    pub fn integer_point(&self) -> Option<Vec<i128>> {
        ilp_feasible(&self.cs)
    }

    /// Does the polyhedron contain the integer point?
    #[must_use]
    pub fn contains(&self, x: &[i128]) -> bool {
        self.cs.contains(x)
    }

    /// Minimum of `expr · (x, 1)` over the rational points.
    ///
    /// `expr` has `n_vars + 1` entries (affine expression with constant).
    #[must_use]
    pub fn min_affine(&self, expr: &[i128]) -> Extremum {
        self.extremum(expr, Sense::Min)
    }

    /// Maximum of `expr · (x, 1)` over the rational points.
    #[must_use]
    pub fn max_affine(&self, expr: &[i128]) -> Extremum {
        self.extremum(expr, Sense::Max)
    }

    fn extremum(&self, expr: &[i128], sense: Sense) -> Extremum {
        assert_eq!(expr.len(), self.cs.n_vars + 1, "affine expr arity mismatch");
        let obj: Vec<Rat> = expr[..self.cs.n_vars]
            .iter()
            .map(|&c| Rat::int(c))
            .collect();
        match solve_lp(&self.cs, &obj, sense) {
            LpResult::Infeasible => Extremum::Empty,
            LpResult::Unbounded => Extremum::Unbounded,
            LpResult::Optimal { value, .. } => {
                Extremum::Value(value + Rat::int(expr[self.cs.n_vars]))
            }
            // solve_lp runs without a cell limit, so exhaustion is impossible.
            LpResult::Exhausted => unreachable!("unlimited solve_lp cannot exhaust"),
        }
    }

    /// Enumerate all integer points (test helper): [`for_each_point`]
    /// collected into a vector.
    ///
    /// [`for_each_point`]: Polyhedron::for_each_point
    ///
    /// # Errors
    /// [`PolyError::Unbounded`] if some variable has no finite extremum,
    /// [`PolyError::TooManyPoints`] if more than `limit` points would be
    /// produced.
    pub fn enumerate(&self, limit: usize) -> Result<Vec<Vec<i128>>, PolyError> {
        let mut out = Vec::new();
        self.for_each_point(limit, |p| out.push(p.to_vec()))?;
        Ok(out)
    }

    /// Call `visit` on every integer point, in lexicographic order, without
    /// materializing them (the reference executor walks domains of 10^5
    /// and more instances).
    ///
    /// # Errors
    /// [`PolyError::Unbounded`] if some variable has no finite extremum
    /// (before any point is visited), [`PolyError::TooManyPoints`] on
    /// reaching point `limit + 1` (after the first `limit` were visited).
    pub fn for_each_point(
        &self,
        limit: usize,
        mut visit: impl FnMut(&[i128]),
    ) -> Result<(), PolyError> {
        let n = self.cs.n_vars;
        if n == 0 {
            if !self.is_empty_rational() {
                visit(&[]);
            }
            return Ok(());
        }
        // Per-variable bounding box via LP.
        let mut lo = Vec::with_capacity(n);
        let mut hi = Vec::with_capacity(n);
        for v in 0..n {
            let mut e = vec![0i128; n + 1];
            e[v] = 1;
            match self.min_affine(&e) {
                Extremum::Empty => return Ok(()),
                Extremum::Unbounded => return Err(PolyError::Unbounded { var: v }),
                Extremum::Value(r) => lo.push(r.ceil()),
            }
            match self.max_affine(&e) {
                Extremum::Empty => return Ok(()),
                Extremum::Unbounded => return Err(PolyError::Unbounded { var: v }),
                Extremum::Value(r) => hi.push(r.floor()),
            }
        }
        let mut visited = 0usize;
        let mut point = lo.clone();
        'outer: loop {
            if self.contains(&point) {
                if visited >= limit {
                    return Err(PolyError::TooManyPoints { limit });
                }
                visited += 1;
                visit(&point);
            }
            // Odometer increment.
            for v in (0..n).rev() {
                if point[v] < hi[v] {
                    point[v] += 1;
                    for (idx, p) in point.iter_mut().enumerate().skip(v + 1) {
                        *p = lo[idx];
                    }
                    continue 'outer;
                }
            }
            break;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Polyhedron {
        // x >= 0, y >= 0, x + y <= 3
        let mut cs = ConstraintSystem::new(2);
        cs.add_lower_bound(0, 0);
        cs.add_lower_bound(1, 0);
        cs.add_ge0(vec![-1, -1, 3]);
        Polyhedron::from(cs)
    }

    #[test]
    fn emptiness_checks() {
        assert!(!triangle().is_empty_rational());
        assert!(!triangle().is_empty_integer());
        let mut cs = ConstraintSystem::new(1);
        cs.add_lower_bound(0, 1);
        cs.add_upper_bound(0, 0);
        let p = Polyhedron::from(cs);
        assert!(p.is_empty_rational());
        assert!(p.is_empty_integer());
    }

    #[test]
    fn integer_gap_polyhedron() {
        // Rationally nonempty, integrally empty.
        let mut cs = ConstraintSystem::new(1);
        cs.add_ge0(vec![4, -1]); // x >= 1/4
        cs.add_ge0(vec![-4, 3]); // x <= 3/4
        let p = Polyhedron::from(cs);
        assert!(!p.is_empty_rational());
        assert!(p.is_empty_integer());
    }

    #[test]
    fn extrema() {
        let t = triangle();
        assert_eq!(t.min_affine(&[1, 1, 0]).value(), Some(Rat::ZERO));
        assert_eq!(t.max_affine(&[1, 1, 0]).value(), Some(Rat::int(3)));
        assert_eq!(t.max_affine(&[1, 0, 10]).value(), Some(Rat::int(13)));
    }

    #[test]
    fn extremum_on_empty_is_empty() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_lower_bound(0, 1);
        cs.add_upper_bound(0, 0);
        let p = Polyhedron::from(cs);
        assert_eq!(p.min_affine(&[1, 0]), Extremum::Empty);
    }

    #[test]
    fn unbounded_extremum() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_lower_bound(0, 0);
        let p = Polyhedron::from(cs);
        assert_eq!(p.max_affine(&[1, 0]), Extremum::Unbounded);
        assert_eq!(p.min_affine(&[1, 0]).value(), Some(Rat::ZERO));
    }

    #[test]
    fn enumerate_triangle() {
        let pts = triangle().enumerate(100).unwrap();
        // Points with x,y >= 0, x+y <= 3: C(5,2) = 10 points.
        assert_eq!(pts.len(), 10);
        assert!(pts.contains(&vec![0, 0]));
        assert!(pts.contains(&vec![3, 0]));
        assert!(pts.contains(&vec![0, 3]));
        assert!(!pts.contains(&vec![2, 2]));
    }

    #[test]
    fn enumerate_empty() {
        let mut cs = ConstraintSystem::new(2);
        cs.add_lower_bound(0, 5);
        cs.add_upper_bound(0, 4);
        assert!(Polyhedron::from(cs).enumerate(10).unwrap().is_empty());
    }

    #[test]
    fn enumerate_zero_dim() {
        let p = Polyhedron::universe(0);
        assert_eq!(p.enumerate(10).unwrap(), vec![Vec::<i128>::new()]);
    }

    #[test]
    fn enumerate_unbounded_is_typed_error() {
        let mut cs = ConstraintSystem::new(1);
        cs.add_lower_bound(0, 0);
        assert_eq!(
            Polyhedron::from(cs).enumerate(10),
            Err(PolyError::Unbounded { var: 0 })
        );
    }

    #[test]
    fn enumerate_limit_is_typed_error() {
        assert_eq!(
            triangle().enumerate(3),
            Err(PolyError::TooManyPoints { limit: 3 })
        );
    }
}
