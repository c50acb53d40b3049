//! Interpreting executor for transformed SCoPs.
//!
//! This crate stands in for "compile the transformed C with icc and run on
//! the Xeon": it executes an [`wf_codegen::ExecPlan`] over real `f64`
//! tensors in real memory, with
//!
//! * **coarse-grained parallelism**: the outermost parallel loop dimension
//!   of each fusion partition is split into contiguous chunks across the
//!   shared [`wf_harness::pool::ThreadPool`] — worker startup is amortized
//!   across kernel launches instead of paid per parallel band,
//! * **wavefront execution**: when the outer loop is a forward-dependence
//!   (pipelined) loop, inner parallel dimensions are parallelized instead —
//!   paying a pool fork/join barrier per outer iteration, the "constant
//!   communication cost after each wavefront" the paper describes,
//! * **panic containment**: a faulting partition surfaces as a typed
//!   [`WfError::JobPanic`] instead of aborting the process,
//! * an [`AccessObserver`] hook through which the cache simulator taps the
//!   exact address trace (serial execution only).
//!
//! Everything goes through the [`ExecContext`] handle — pool binding plus
//! [`ExecOptions`], with the environment (`WF_THREADS`) parsed exactly
//! once at [`ExecContext::from_env`].
//!
//! Interpreter overhead is uniform across fusion models, so *relative*
//! timings between models are meaningful — the quantity Figure 7 reports.

#![warn(missing_docs)]

pub mod data;
pub mod exec;
pub mod reference;

pub use data::{ProgramData, Tensor};
pub use exec::{AccessObserver, ExecContext, ExecOptions};
pub use reference::{execute_reference, for_each_instance};
pub use wf_harness::WfError;
