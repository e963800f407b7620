//! # ciflow — dataflow analysis and optimization of HE key switching
//!
//! A from-scratch reproduction of *"CiFlow: Dataflow Analysis and
//! Optimization of Key Switching for Homomorphic Encryption"* (ISPASS 2024).
//!
//! Hybrid key switching (HKS) dominates the runtime of CKKS homomorphic
//! encryption. This crate analyzes and optimizes its *dataflow*: the order in
//! which the ModUp/ModDown stages are executed and which intermediates are
//! kept in a small on-chip memory, evaluated on a task-level model of the RPU
//! vector processor.
//!
//! The public API is organized around **pluggable scheduling strategies**:
//!
//! * [`api`] — the heart of the crate: the [`ScheduleStrategy`] trait every
//!   dataflow implements, the [`StrategyRegistry`] new dataflows plug into,
//!   and the [`Session`] batch runner that executes one-or-many
//!   `(benchmark, strategy)` jobs in parallel across all cores with per-job
//!   [`Result`]s.
//! * [`error`] — the [`CiflowError`] hierarchy threaded through every
//!   library path (wrapping `hemath`, `ckks` and `rpu` failures), so heavy
//!   batch traffic never panics.
//! * [`benchmark`] — the five parameter points of the paper's Table III
//!   (BTS1-3, ARK, DPRIVE).
//! * [`hks_shape`] — the per-stage geometry and operation counts of one HKS.
//! * [`dataflow`] / [`schedule`] — the three built-in dataflows
//!   (**Max-Parallel**, **Digit-Centric**, **Output-Centric**) as task-graph
//!   generators with explicit on-chip buffer management and evk streaming;
//!   [`Dataflow`] is a thin compatibility shim over the strategy API.
//! * [`analysis`] — DRAM traffic, arithmetic intensity and minimum-memory
//!   analysis (Tables II and III).
//! * [`lint`] — static schedule verification: a deadlock-freedom proof over
//!   the engine's queue semantics plus buffer-lifetime, capacity, placement
//!   and accounting checks, emitted as structured diagnostics *before*
//!   anything executes (catalogue in `docs/LINTS.md`; also
//!   [`Session::verify`](api::Session::verify) and the `schedule_lint` CI
//!   gate).
//! * [`workload`] — multi-kernel pipelines: chained HKS invocations
//!   (rotation batches, relinearizations, the bootstrapping key-switch
//!   backbone) fused into one task graph so the memory queue prefetches the
//!   next kernel's evk towers and limbs under the current kernel's compute.
//!   Pipelines may be *heterogeneous*: every step can run at its own
//!   parameter point (the [`Workload::rescaling_chain`] preset derives the
//!   descending-ℓ ladder of a real rescaling program), with chaining,
//!   partial forwarding and traffic accounting re-derived at every kernel
//!   boundary.
//! * [`runner`] / [`sweep`] — the legacy single-run wrapper and the
//!   `Session`-powered bandwidth / MODOPS / evk-placement / workload sweeps
//!   behind Figures 4–9 and Tables IV–V.
//! * [`serve`] — the fleet-scale serving simulator: seeded arrival
//!   processes (open- and closed-loop) feeding mixed request classes to a
//!   cluster of simulated RPUs under pluggable dispatch policies, reporting
//!   throughput, utilization, queue depths and latency percentiles on a
//!   deterministic virtual clock (see `docs/SERVING.md`).
//! * [`report`] — markdown / CSV / ASCII rendering of every table and figure.
//! * [`functional`] — bit-exact validation that the Output-Centric
//!   decomposition computes the same function as the reference CKKS key
//!   switch.
//!
//! ## Quick example
//!
//! ```
//! use ciflow::api::Session;
//! use ciflow::{Dataflow, HksBenchmark};
//! use rpu::RpuConfig;
//!
//! // How do the three dataflows compare on one ARK hybrid key switch at
//! // DDR4-class bandwidth? One parallel batch, one Result per job.
//! let session = Session::new()
//!     .with_rpu(RpuConfig::ciflow_baseline().with_bandwidth(12.8))
//!     .job(HksBenchmark::ARK, Dataflow::MaxParallel)
//!     .job(HksBenchmark::ARK, Dataflow::DigitCentric)
//!     .job(HksBenchmark::ARK, Dataflow::OutputCentric);
//! let outputs = session.run().into_outputs().unwrap();
//! for output in &outputs {
//!     println!("ARK {} @ 12.8 GB/s: {:.2} ms", output.strategy, output.runtime_ms());
//! }
//! // The paper's core result: OC beats MP when bandwidth is scarce.
//! assert!(outputs[2].runtime_ms() < outputs[0].runtime_ms());
//! ```
//!
//! ## Plugging in a new dataflow
//!
//! Implement [`ScheduleStrategy`], register it, and every consumer — the
//! session, the sweeps, the explorer example — can use it by name:
//!
//! ```
//! use ciflow::api::{ScheduleStrategy, Session};
//! use ciflow::schedule::{Schedule, ScheduleConfig};
//! use ciflow::{CiflowError, Dataflow, HksBenchmark, HksShape};
//! use std::sync::Arc;
//!
//! struct MaxParallelClone;
//!
//! impl ScheduleStrategy for MaxParallelClone {
//!     fn name(&self) -> &str { "mp-clone" }
//!     fn short_name(&self) -> &str { "MP2" }
//!     fn build(&self, shape: &HksShape, config: &ScheduleConfig)
//!         -> Result<Schedule, CiflowError>
//!     {
//!         // A real strategy would build its own task graph here.
//!         Dataflow::MaxParallel.strategy().build(shape, config)
//!     }
//! }
//!
//! let session = Session::new().register(Arc::new(MaxParallelClone)).unwrap();
//! let output = session.run_one(HksBenchmark::ARK, "MP2").unwrap();
//! assert!(output.runtime_ms() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

// Compile the README's quick-start examples as doctests so they cannot
// drift from the API (the session example and the workload example both
// execute under `cargo test`).
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub mod analysis;
pub mod api;
pub mod benchmark;
pub mod dataflow;
pub mod error;
pub mod functional;
pub mod hks_shape;
pub mod json;
pub mod lint;
mod parallel;
pub mod report;
pub mod runner;
pub mod schedule;
pub mod serve;
pub mod sweep;
pub mod workload;

pub use api::{
    AnalyticOutput, BatchOutcome, BoundsResult, Job, JobOutput, JobResult, ScheduleStrategy,
    Session, StrategyRegistry, VerifyResult,
};
pub use benchmark::HksBenchmark;
pub use dataflow::Dataflow;
pub use error::CiflowError;
pub use hks_shape::{HksShape, HksStage};
pub use lint::{lint_schedule, lint_with_config, lint_workload, LintConfig, LintReport};
pub use runner::{HksRun, HksRunResult};
pub use schedule::{build_schedule, Schedule, ScheduleConfig};
pub use workload::{
    build_workload, KernelStep, PipelineMode, Workload, WorkloadSchedule, WorkloadStep,
};
