//! The CiFlow dataflow taxonomy.
//!
//! [`Dataflow`] enumerates the three dataflows the *paper* compares. It is
//! kept as a convenient, `Copy` handle for the built-ins — but it is a thin
//! shim: each variant delegates to its [`ScheduleStrategy`] implementation
//! via [`Dataflow::strategy`], and the open-ended API
//! ([`StrategyRegistry`](crate::api::StrategyRegistry) /
//! [`Session`](crate::api::Session)) is where new dataflows plug in without
//! touching this enum.

use crate::api::{
    DigitCentricStrategy, MaxParallelStrategy, OutputCentricStrategy, ScheduleStrategy,
};
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

    /// The [`ScheduleStrategy`] implementation behind this dataflow — the
    /// single dispatch point from the closed enum into the open strategy API.
    pub fn strategy(&self) -> &'static dyn ScheduleStrategy {
        match self {
            Dataflow::MaxParallel => &MaxParallelStrategy,
            Dataflow::DigitCentric => &DigitCentricStrategy,
            Dataflow::OutputCentric => &OutputCentricStrategy,
        }
    }

    /// The short name used in tables and figures.
    pub fn short_name(&self) -> &'static str {
        match self {
            Dataflow::MaxParallel => "MP",
            Dataflow::DigitCentric => "DC",
            Dataflow::OutputCentric => "OC",
        }
    }

    /// A one-sentence description of the scheduling strategy.
    pub fn description(&self) -> &'static str {
        self.strategy().description()
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

    #[test]
    fn descriptions_are_distinct() {
        let set: std::collections::HashSet<_> = Dataflow::all()
            .iter()
            .map(super::Dataflow::description)
            .collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn display_uses_short_name() {
        assert_eq!(Dataflow::MaxParallel.to_string(), "MP");
        assert_eq!(Dataflow::OutputCentric.to_string(), "OC");
    }
}
