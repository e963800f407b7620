//! Name → strategy resolution.

use super::strategy::ScheduleStrategy;
use crate::dataflow::Dataflow;
use crate::error::CiflowError;
use std::sync::Arc;

/// An ordered collection of [`ScheduleStrategy`] implementations, resolvable
/// by full or short name (case-insensitive).
///
/// The registry is the one place that knows which dataflows exist: the
/// [`Session`](crate::api::Session) resolves job strategies through it, and
/// its built-in entries are the three [`Dataflow`]s. Registering a new
/// strategy makes it available to every consumer without touching this
/// crate.
#[derive(Clone)]
pub struct StrategyRegistry {
    entries: Vec<Arc<dyn ScheduleStrategy>>,
}

impl std::fmt::Debug for StrategyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrategyRegistry")
            .field("strategies", &self.short_names())
            .finish()
    }
}

impl Default for StrategyRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl StrategyRegistry {
    /// An empty registry (no strategies at all).
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// A registry holding the three paper dataflows, in the order the paper
    /// presents them: MP, DC, OC.
    pub fn builtin() -> Self {
        let mut registry = Self::empty();
        for dataflow in Dataflow::all() {
            registry
                .register(Arc::new(dataflow))
                .expect("built-in strategy names cannot collide");
        }
        registry
    }

    /// Registers a strategy.
    ///
    /// # Errors
    ///
    /// Returns [`CiflowError::DuplicateStrategy`] if a registered strategy
    /// already answers to the new strategy's full or short name.
    pub fn register(&mut self, strategy: Arc<dyn ScheduleStrategy>) -> Result<(), CiflowError> {
        for taken in [strategy.short_name(), strategy.name()] {
            if self.lookup(taken).is_some() {
                return Err(CiflowError::DuplicateStrategy {
                    name: taken.to_string(),
                });
            }
        }
        self.entries.push(strategy);
        Ok(())
    }

    /// Resolves a strategy by full or short name (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`CiflowError::UnknownStrategy`] (listing the registered
    /// names) when nothing matches.
    pub fn get(&self, name: &str) -> Result<Arc<dyn ScheduleStrategy>, CiflowError> {
        self.lookup(name)
            .cloned()
            .ok_or_else(|| CiflowError::UnknownStrategy {
                name: name.to_string(),
                known: self.short_names(),
            })
    }

    /// True if `name` resolves to a registered strategy.
    pub fn contains(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// The registered strategies, in registration order.
    pub fn strategies(&self) -> impl Iterator<Item = &Arc<dyn ScheduleStrategy>> {
        self.entries.iter()
    }

    /// The short names of every registered strategy, in registration order.
    pub fn short_names(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|s| s.short_name().to_string())
            .collect()
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no strategies are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn lookup(&self, name: &str) -> Option<&Arc<dyn ScheduleStrategy>> {
        self.entries.iter().find(|s| {
            s.short_name().eq_ignore_ascii_case(name) || s.name().eq_ignore_ascii_case(name)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hks_shape::HksShape;
    use crate::schedule::{Schedule, ScheduleConfig};

    struct Toy;

    impl ScheduleStrategy for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn short_name(&self) -> &str {
            "TY"
        }
        fn build(
            &self,
            shape: &HksShape,
            config: &ScheduleConfig,
        ) -> Result<Schedule, CiflowError> {
            Dataflow::MaxParallel.build(shape, config)
        }
    }

    #[test]
    fn builtin_registry_resolves_by_any_name_case_insensitively() {
        let registry = StrategyRegistry::builtin();
        assert_eq!(registry.len(), 3);
        assert_eq!(registry.short_names(), vec!["MP", "DC", "OC"]);
        for name in ["MP", "mp", "max-parallel", "OC", "output-centric", "dc"] {
            assert!(registry.contains(name), "{name}");
        }
        assert!(!registry.contains("bogus"));
        let err = registry.get("bogus").err().expect("lookup must fail");
        assert!(err.to_string().contains("OC"), "{err}");
    }

    #[test]
    fn registration_rejects_duplicates() {
        let mut registry = StrategyRegistry::builtin();
        registry.register(Arc::new(Toy)).unwrap();
        assert_eq!(registry.len(), 4);
        assert!(matches!(
            registry.register(Arc::new(Toy)),
            Err(CiflowError::DuplicateStrategy { .. })
        ));
        assert!(matches!(
            registry.register(Arc::new(Dataflow::MaxParallel)),
            Err(CiflowError::DuplicateStrategy { .. })
        ));
    }
}
