//! The public session API: pluggable schedule strategies, a strategy
//! registry, and parallel batch execution.
//!
//! The CiFlow paper's contribution is a *comparison of dataflows* — so the
//! reproduction's API is organized around making dataflows pluggable rather
//! than enumerated. Three pieces:
//!
//! * [`ScheduleStrategy`] — the trait a dataflow implements: give it an
//!   [`HksShape`](crate::hks_shape::HksShape) and a
//!   [`ScheduleConfig`](crate::schedule::ScheduleConfig), get back a
//!   [`Schedule`](crate::schedule::Schedule) (or a typed error). The three
//!   paper dataflows are one ordinary implementation,
//!   [`Dataflow`](crate::Dataflow), with no special status; out-of-crate
//!   strategies plug in identically.
//! * [`StrategyRegistry`] — name → strategy resolution, pre-populated with
//!   the built-ins and open to registration.
//! * [`Session`] — owns an [`RpuConfig`](rpu::RpuConfig) and a registry,
//!   accepts one-or-many [`Job`]s, and executes them as a batch: in parallel
//!   across all cores, each job reporting its own `Result` — a panicking
//!   strategy fails its job, not the batch.
//!
//! ```
//! use ciflow::api::Session;
//! use ciflow::{Dataflow, HksBenchmark};
//!
//! let outcome = Session::new()
//!     .job(HksBenchmark::ARK, Dataflow::OutputCentric)
//!     .job(HksBenchmark::ARK, "MP") // names resolve through the registry
//!     .run();
//! assert!(outcome.all_ok());
//! let oc = &outcome.results[0].outcome.as_ref().unwrap();
//! assert!(oc.runtime_ms() > 0.0);
//! ```

mod registry;
mod session;
mod strategy;

pub use registry::StrategyRegistry;
pub use session::{
    AnalyticOutput, BatchOutcome, Job, JobOutput, JobResult, Session, StrategySpec, VerifyResult,
    WorkloadSpec,
};
pub use strategy::ScheduleStrategy;
