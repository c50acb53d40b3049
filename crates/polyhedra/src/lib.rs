//! Polyhedral core for the wisefuse stack.
//!
//! This crate rebuilds, in pure safe Rust, the slice of ISL / PolyLib / PIP
//! functionality that the PPoPP'14 wisefuse paper's toolchain (PLuTo) relies
//! on:
//!
//! * [`ConstraintSystem`] — integer affine constraints `a·x + c ≥ 0` /
//!   `a·x + c = 0` over a fixed variable space,
//! * [`fm`] — exact Fourier–Motzkin variable elimination (projection) with
//!   equality substitution and redundancy pruning,
//! * [`simplex`] — an exact two-phase rational simplex (Bland's rule, no
//!   floating point anywhere),
//! * [`ilp`] — branch-and-bound integer programming plus lexicographic
//!   multi-objective minimization, standing in for PIP,
//! * [`memo`] — a process-wide bounded-LRU memo fronting the ILP entry
//!   points ([`try_ilp_feasible`], [`lexmin_budgeted`], and through them
//!   [`Polyhedron::is_empty_integer`]), keyed by a canonical FNV-1a digest
//!   of system + budget class, with byte-identical hits,
//! * [`Polyhedron`] — a convenience wrapper offering emptiness tests, affine
//!   min/max, and integer point enumeration (for testing).
//!
//! Everything is exact: a wrong sign here would make an illegal loop
//! transform look legal.

#![allow(clippy::needless_range_loop)] // index-style is clearer for matrix/tableau code
#![warn(missing_docs)]

pub mod constraint;
pub mod fm;
pub mod ilp;
pub mod memo;
pub mod poly;
pub mod simplex;

pub use constraint::{Constraint, ConstraintKind, ConstraintSystem};
pub use ilp::{
    ilp_feasible, lexmin, lexmin_budgeted, solve_ilp, solve_ilp_budgeted, try_ilp_feasible,
    IlpBudget, IlpError, IlpResult,
};
pub use poly::{PolyError, Polyhedron};
pub use simplex::{solve_lp, LpResult, LpWork, Sense};
