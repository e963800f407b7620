//! The CiFlow dataflow taxonomy.
//!
//! [`Dataflow`] enumerates the three dataflows the *paper* compares, and it
//! is their [`ScheduleStrategy`]: each variant's names, description and
//! generator are written here once.
//! [`StrategyRegistry::builtin`](crate::api::StrategyRegistry::builtin)
//! registers [`Dataflow::all`], and new dataflows plug in beside them through
//! [`StrategyRegistry::register`](crate::api::StrategyRegistry::register)
//! without touching this enum.

use crate::api::ScheduleStrategy;
use crate::error::CiflowError;
use crate::hks_shape::HksShape;
use crate::schedule::{build_schedule, Schedule, ScheduleConfig};
use serde::{Deserialize, Serialize};

/// The three HKS dataflows the paper proposes and compares (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// **Max-Parallel (MP)** — prioritize kernel parallelism at all costs:
    /// run each stage over *all* towers before starting the next stage.
    /// Used by prior work (Cheetah, HEAX) and the paper's baseline. Its
    /// BConv intermediates are enormous, so with a small on-chip memory it
    /// spills heavily.
    MaxParallel,
    /// **Digit-Centric (DC)** — process one digit at a time through all of
    /// ModUp P1–P5 before moving to the next digit, maximizing reuse of that
    /// digit's data. Analogous to the dataflow in MAD (MICRO'23).
    DigitCentric,
    /// **Output-Centric (OC)** — the paper's proposal: compute one *output
    /// tower* at a time so the BConv expansion never materializes, keep the
    /// INTT outputs resident for reuse, and accumulate partial products
    /// on-chip.
    OutputCentric,
}

impl Dataflow {
    /// All dataflows in the order the paper presents them.
    pub fn all() -> [Dataflow; 3] {
        [
            Dataflow::MaxParallel,
            Dataflow::DigitCentric,
            Dataflow::OutputCentric,
        ]
    }

    /// The short name used in tables, figures and schedule labels (also the
    /// [`ScheduleStrategy::short_name`], usable without the trait in scope).
    pub fn short_name(&self) -> &'static str {
        match self {
            Dataflow::MaxParallel => "MP",
            Dataflow::DigitCentric => "DC",
            Dataflow::OutputCentric => "OC",
        }
    }
}

impl ScheduleStrategy for Dataflow {
    fn name(&self) -> &str {
        match self {
            Dataflow::MaxParallel => "max-parallel",
            Dataflow::DigitCentric => "digit-centric",
            Dataflow::OutputCentric => "output-centric",
        }
    }

    fn short_name(&self) -> &str {
        Dataflow::short_name(self)
    }

    fn description(&self) -> &str {
        match self {
            Dataflow::MaxParallel => {
                "stage-by-stage over all towers; maximal parallelism, maximal intermediate state"
            }
            Dataflow::DigitCentric => {
                "one digit at a time through ModUp P1-P5; reuses the loaded digit"
            }
            Dataflow::OutputCentric => {
                "one output tower at a time; compresses the intermediate working set and reuses INTT outputs"
            }
        }
    }

    fn build(&self, shape: &HksShape, config: &ScheduleConfig) -> Result<Schedule, CiflowError> {
        Ok(build_schedule(*self, shape, config))
    }
}

impl std::fmt::Display for Dataflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::HksBenchmark;

    #[test]
    fn descriptions_are_distinct() {
        let all = Dataflow::all();
        let set: std::collections::HashSet<_> =
            all.iter().map(ScheduleStrategy::description).collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn display_uses_short_name() {
        assert_eq!(Dataflow::MaxParallel.to_string(), "MP");
        assert_eq!(Dataflow::OutputCentric.to_string(), "OC");
    }

    #[test]
    fn builtin_strategies_label_their_schedules() {
        let shape = HksShape::new(HksBenchmark::ARK);
        let config = ScheduleConfig::default();
        for (dataflow, short) in Dataflow::all().into_iter().zip(["MP", "DC", "OC"]) {
            let strategy: &dyn ScheduleStrategy = &dataflow;
            let schedule = strategy.build(&shape, &config).unwrap();
            assert_eq!(schedule.strategy, short);
            assert_eq!(strategy.short_name(), short);
            assert!(!strategy.description().is_empty());
            assert!(schedule.total_ops() > 0);
        }
    }
}
