//! The [`ScheduleStrategy`] trait.

use crate::error::CiflowError;
use crate::hks_shape::HksShape;
use crate::schedule::{Schedule, ScheduleConfig};

/// A pluggable HKS scheduling strategy (a *dataflow*, in the paper's terms).
///
/// Implementors turn the per-stage geometry of one hybrid key switch into an
/// RPU task graph, deciding the order of ModUp/ModDown work and which
/// intermediates stay in the on-chip data memory. The three paper dataflows
/// implement it as [`Dataflow`](crate::Dataflow); new dataflows plug in through
/// [`StrategyRegistry::register`](crate::api::StrategyRegistry::register)
/// without touching anything in this crate.
///
/// Implementations must be `Send + Sync`: a [`Session`](crate::api::Session)
/// batch invokes them from multiple worker threads. They must also be
/// deterministic (same shape and config in, same schedule out): a session
/// caches the first schedule built for each key and hands it to every later
/// job with that key.
pub trait ScheduleStrategy: Send + Sync {
    /// The full, human-readable name (e.g. `"output-centric"`).
    fn name(&self) -> &str;

    /// The short name used in tables, figures and
    /// [`Schedule::strategy`](crate::schedule::Schedule::strategy) labels
    /// (e.g. `"OC"`). Must be unique within a registry.
    fn short_name(&self) -> &str;

    /// A one-sentence description of the scheduling approach.
    fn description(&self) -> &str {
        ""
    }

    /// Builds the task-graph schedule for one hybrid key switch.
    ///
    /// # Errors
    ///
    /// Returns a [`CiflowError`] if the strategy cannot schedule this shape
    /// under this configuration (the built-in strategies never fail; custom
    /// strategies may, e.g. when they require a minimum memory capacity).
    fn build(&self, shape: &HksShape, config: &ScheduleConfig) -> Result<Schedule, CiflowError>;
}
