//! The workspace-unifying error type for the CiFlow library paths.
//!
//! Every fallible operation in the public API — strategy lookup, schedule
//! construction, RPU execution, and the functional CKKS validation paths —
//! reports through [`CiflowError`], which wraps the per-crate error types
//! ([`rpu::EngineError`], [`rpu::TaskGraphError`], [`hemath::HemathError`],
//! [`ckks::CkksError`]) so a batch driver can hold per-job results without
//! ever unwinding. Every sweep returns a `Result` too (see
//! [`crate::sweep`]); only the paper-figure helpers of the `ciflow-bench`
//! crate, which run fixed built-in configurations, panic on failure.

use rpu::{EngineError, TaskGraphError};

/// Any error raised on a CiFlow library path.
#[derive(Debug, Clone, PartialEq)]
pub enum CiflowError {
    /// A strategy name did not match anything in the registry.
    UnknownStrategy {
        /// The requested name.
        name: String,
        /// The names the registry does know, for the error message.
        known: Vec<String>,
    },
    /// A strategy with the same short name is already registered.
    DuplicateStrategy {
        /// The conflicting short name.
        name: String,
    },
    /// A job or configuration was structurally invalid.
    InvalidConfig {
        /// Human-readable description of the problem.
        message: String,
    },
    /// A strategy failed to produce a schedule.
    ScheduleBuild {
        /// Short name of the strategy that failed.
        strategy: String,
        /// Human-readable description of the failure.
        message: String,
    },
    /// A strategy panicked while building or executing; the panic was caught
    /// at the session boundary so the rest of the batch could proceed.
    StrategyPanicked {
        /// Short name of the offending strategy.
        strategy: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The RPU engine rejected the schedule.
    Engine(EngineError),
    /// A task graph was structurally invalid.
    Graph(TaskGraphError),
    /// The RNS/NTT arithmetic substrate failed.
    Math(hemath::HemathError),
    /// The CKKS functional reference failed.
    Ckks(ckks::CkksError),
}

impl std::fmt::Display for CiflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CiflowError::UnknownStrategy { name, known } => {
                write!(
                    f,
                    "unknown strategy {name:?}; registered: {}",
                    known.join(", ")
                )
            }
            CiflowError::DuplicateStrategy { name } => {
                write!(f, "a strategy named {name:?} is already registered")
            }
            CiflowError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            CiflowError::ScheduleBuild { strategy, message } => {
                write!(
                    f,
                    "strategy {strategy} failed to build a schedule: {message}"
                )
            }
            CiflowError::StrategyPanicked { strategy, message } => {
                write!(f, "strategy {strategy} panicked: {message}")
            }
            CiflowError::Engine(e) => write!(f, "engine error: {e}"),
            CiflowError::Graph(e) => write!(f, "task graph error: {e}"),
            CiflowError::Math(e) => write!(f, "arithmetic error: {e}"),
            CiflowError::Ckks(e) => write!(f, "ckks error: {e}"),
        }
    }
}

impl std::error::Error for CiflowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CiflowError::Engine(e) => Some(e),
            CiflowError::Graph(e) => Some(e),
            CiflowError::Math(e) => Some(e),
            CiflowError::Ckks(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for CiflowError {
    fn from(e: EngineError) -> Self {
        CiflowError::Engine(e)
    }
}

impl From<TaskGraphError> for CiflowError {
    fn from(e: TaskGraphError) -> Self {
        CiflowError::Graph(e)
    }
}

impl From<hemath::HemathError> for CiflowError {
    fn from(e: hemath::HemathError) -> Self {
        CiflowError::Math(e)
    }
}

impl From<ckks::CkksError> for CiflowError {
    fn from(e: ckks::CkksError) -> Self {
        CiflowError::Ckks(e)
    }
}

impl From<ckks::ops::OpsError> for CiflowError {
    fn from(e: ckks::ops::OpsError) -> Self {
        CiflowError::Ckks(e.into())
    }
}

impl From<hemath::poly::RnsError> for CiflowError {
    fn from(e: hemath::poly::RnsError) -> Self {
        CiflowError::Math(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative_and_sources_chain() {
        let unknown = CiflowError::UnknownStrategy {
            name: "zig-zag".into(),
            known: vec!["MP".into(), "DC".into(), "OC".into()],
        };
        let text = unknown.to_string();
        assert!(text.contains("zig-zag") && text.contains("OC"), "{text}");

        let engine: CiflowError = rpu::EngineError::Deadlock {
            compute_head: Some(3),
            memory_heads: vec![(0, 7)],
            head_labels: vec![(3, "ntt x".into()), (7, "load y".into())],
            wait_chain: vec![(3, "ntt x".into()), (7, "load y".into())],
        }
        .into();
        assert!(std::error::Error::source(&engine).is_some());
        let text = engine.to_string();
        // The runtime report names the stuck heads and cites the matching
        // static lint code so dynamic and static diagnoses align.
        assert!(text.contains("deadlock"), "{text}");
        assert!(text.contains("load y") && text.contains("D001"), "{text}");

        let math: CiflowError =
            hemath::HemathError::from(hemath::poly::RnsError::BasisMismatch).into();
        assert!(matches!(math, CiflowError::Math(_)));
    }
}
