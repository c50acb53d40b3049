//! **wf-harness** — the workspace's hermetic test & bench infrastructure.
//!
//! The offline build environment cannot fetch crates.io packages, so this
//! crate replaces the three external dev-dependencies the workspace used to
//! carry, with zero dependencies of its own:
//!
//! * [`rng`] — a deterministic [`SplitMix64`](rng::SplitMix64) generator
//!   (plus the Knuth MMIX LCG used by the C backend) replacing `rand`.
//!   Identical seeds produce identical streams on every platform forever;
//!   golden-value tests pin the stream so a silent change of the recurrence
//!   cannot invalidate recorded benchmark baselines.
//! * [`prop`] + [`collection`] — a minimal property-testing framework
//!   replacing `proptest`: integer/tuple/vec generators, bounded
//!   greedy shrinking, and a [`props!`] runner macro that is a drop-in for
//!   the `proptest! { #[test] fn p(x in strat) { .. } }` surface the test
//!   suites use (including `prop_assert!`, `prop_assert_eq!`,
//!   `prop_assume!` and `#![proptest_config(..)]`).
//! * [`bench`] — a criterion-compatible micro-bench shim
//!   ([`Criterion`](bench::Criterion), [`criterion_group!`],
//!   [`criterion_main!`], [`black_box`](bench::black_box),
//!   [`BenchmarkId`](bench::BenchmarkId)) with warmup, batching and
//!   inter-quartile outlier trimming, which writes machine-readable
//!   `BENCH_<name>.json` results (see [`report`]) for the perf trajectory.
//! * [`json`] — the tiny JSON value/writer/parser the bench reports, the
//!   `wfc --json` output, and the schedule cache's disk spill are built on.
//! * [`pool`] — a small work-stealing-free thread pool (`std::thread` +
//!   channels, no rayon) with deterministic, submission-ordered results: a
//!   persistent [`ThreadPool`](pool::ThreadPool) whose
//!   [`try_scope`](pool::ThreadPool::try_scope) forks over borrowed data
//!   with per-job panic containment, sized by the `WF_THREADS`
//!   environment variable (parsed once via
//!   [`try_env_threads`](pool::try_env_threads)).
//! * [`error`] — the workspace-wide typed [`WfError`](error::WfError)
//!   hierarchy (parse / budget / I/O / schedule / panic / unbounded) with
//!   the `wfc` exit-code contract; producing crates convert their own
//!   error types into it.
//! * [`fault`] — deterministic, seeded fault injection (`WF_FAULT` or the
//!   test API) for cache I/O errors, worker-job panics and ILP budget
//!   exhaustion; the robustness property tests and the CI smoke job drive
//!   the pipeline through it.
//! * [`hash`] — a stable FNV-1a 64-bit hasher for content addressing
//!   (the schedule cache's `(SCoP, model, config)` fingerprints), where
//!   `DefaultHasher`'s per-process seeding would break cross-run reuse.
//! * [`obs`] — the zero-dep observability layer: hierarchical spans
//!   emitting Chrome trace-event JSON (`WF_TRACE`, `wfc --trace`), a
//!   process-wide counter/histogram metrics registry (with interpolated
//!   p50/p95/p99 quantiles), and the fusion decision log behind `wfc
//!   explain`; every probe is one relaxed atomic load when disabled.
//!   In-memory buffers are bounded; `WF_TRACE_STREAM` streams spans to
//!   JSONL as they close.
//! * [`attr`] — solver-cost attribution: RAII thread labels (benchmark,
//!   model, statement pair / component, dimension) plus a process-wide
//!   cell/pivot/memo-hit table whose totals reconcile exactly with the
//!   `simplex.cells` counter; behind `wfc profile` / `wfc explain
//!   --costs`.
//! * [`profile`] — folds the span forest into per-name
//!   inclusive/exclusive time and a pool-aware fork/join critical path
//!   (`profile/v1`, `wfc profile`).
//!
//! Everything is deterministic: test case generation is seeded by hashing
//! the test name, so failures reproduce across runs and machines without a
//! persisted regression file.

#![warn(missing_docs)]

pub mod attr;
pub mod bench;
pub mod error;
pub mod fault;
pub mod hash;
pub mod json;
pub mod obs;
pub mod pool;
pub mod profile;
pub mod prop;
pub mod report;
pub mod rng;

/// Generator combinators for collections (`wf_harness::collection::vec`),
/// mirroring `proptest::collection`.
pub mod collection {
    pub use crate::prop::{vec, SizeRange, VecStrategy};
}

pub use bench::{black_box, Bencher, BenchmarkGroup, BenchmarkId, Criterion, Throughput};
pub use error::WfError;
pub use hash::{fnv1a_64, Fnv64};
pub use pool::{JobPanicked, ThreadPool};
pub use rng::{Lcg64, SplitMix64};

/// Everything the property-test suites need: strategies, the runner macro
/// and its assertion macros, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::prop::{Config, Just, ProptestConfig, Strategy, TestCaseError};
    pub use crate::{collection, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, props};
}
