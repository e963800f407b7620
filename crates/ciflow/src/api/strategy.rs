//! The [`ScheduleStrategy`] trait and the three built-in dataflow strategies.

use crate::error::CiflowError;
use crate::hks_shape::HksShape;
use crate::schedule::{build_digit_centric, build_max_parallel, build_output_centric};
use crate::schedule::{Schedule, ScheduleConfig};

/// A pluggable HKS scheduling strategy (a *dataflow*, in the paper's terms).
///
/// Implementors turn the per-stage geometry of one hybrid key switch into an
/// RPU task graph, deciding the order of ModUp/ModDown work and which
/// intermediates stay in the on-chip data memory. The three paper dataflows
/// implement this trait; new dataflows plug in through
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

/// **Max-Parallel (MP)** — run each stage over *all* towers before starting
/// the next stage (the baseline of prior accelerators; huge intermediates).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxParallelStrategy;

impl ScheduleStrategy for MaxParallelStrategy {
    fn name(&self) -> &str {
        "max-parallel"
    }

    fn short_name(&self) -> &str {
        "MP"
    }

    fn description(&self) -> &str {
        "stage-by-stage over all towers; maximal parallelism, maximal intermediate state"
    }

    fn build(&self, shape: &HksShape, config: &ScheduleConfig) -> Result<Schedule, CiflowError> {
        Ok(build_max_parallel(shape, config))
    }
}

/// **Digit-Centric (DC)** — carry one digit through all of ModUp P1–P5
/// before the next digit, maximizing reuse of the loaded digit (MAD-style).
#[derive(Debug, Clone, Copy, Default)]
pub struct DigitCentricStrategy;

impl ScheduleStrategy for DigitCentricStrategy {
    fn name(&self) -> &str {
        "digit-centric"
    }

    fn short_name(&self) -> &str {
        "DC"
    }

    fn description(&self) -> &str {
        "one digit at a time through ModUp P1-P5; reuses the loaded digit"
    }

    fn build(&self, shape: &HksShape, config: &ScheduleConfig) -> Result<Schedule, CiflowError> {
        Ok(build_digit_centric(shape, config))
    }
}

/// **Output-Centric (OC)** — the paper's proposal: compute one output tower
/// at a time so the BConv expansion never materializes.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutputCentricStrategy;

impl ScheduleStrategy for OutputCentricStrategy {
    fn name(&self) -> &str {
        "output-centric"
    }

    fn short_name(&self) -> &str {
        "OC"
    }

    fn description(&self) -> &str {
        "one output tower at a time; compresses the intermediate working set and reuses INTT outputs"
    }

    fn build(&self, shape: &HksShape, config: &ScheduleConfig) -> Result<Schedule, CiflowError> {
        Ok(build_output_centric(shape, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::HksBenchmark;

    #[test]
    fn builtin_strategies_label_their_schedules() {
        let shape = HksShape::new(HksBenchmark::ARK);
        let config = ScheduleConfig::default();
        let cases: [(&dyn ScheduleStrategy, &str); 3] = [
            (&MaxParallelStrategy, "MP"),
            (&DigitCentricStrategy, "DC"),
            (&OutputCentricStrategy, "OC"),
        ];
        for (strategy, short) in cases {
            let schedule = strategy.build(&shape, &config).unwrap();
            assert_eq!(schedule.strategy, short);
            assert_eq!(strategy.short_name(), short);
            assert!(!strategy.description().is_empty());
            assert!(schedule.total_ops() > 0);
        }
    }
}
