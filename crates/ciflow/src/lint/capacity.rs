//! Capacity-safety pass (`C001`/`C002`).
//!
//! The schedule generators track residency while they emit tasks and record
//! the high-water mark in [`Schedule::peak_on_chip_bytes`]. This pass
//! re-checks that mark against the *target's* data memory — which matters
//! because a schedule built for one capacity can be cached and replayed
//! against a smaller configuration, where its working set silently no longer
//! fits.

use rpu::verify::Diagnostic;
use rpu::RpuConfig;

use super::{codes, LintConfig};
use crate::schedule::Schedule;

/// Runs the capacity pass: peak residency vs `rpu.vector_memory_bytes`. The
/// near-capacity threshold comes from
/// [`LintConfig::near_capacity_fraction`].
pub fn lint(schedule: &Schedule, rpu: &RpuConfig, config: &LintConfig) -> Vec<Diagnostic> {
    let peak = schedule.peak_on_chip_bytes;
    let capacity = rpu.vector_memory_bytes;
    let mut diagnostics = Vec::new();
    if peak > capacity {
        diagnostics.push(Diagnostic::error(
            codes::CAPACITY_EXCEEDED,
            format!(
                "peak on-chip residency {peak} B exceeds the target's data memory \
                 {capacity} B: this schedule was built for a larger configuration \
                 and cannot execute faithfully on this one"
            ),
        ));
    } else if capacity > 0 && peak as f64 >= config.near_capacity_fraction * capacity as f64 {
        diagnostics.push(Diagnostic::note(
            codes::NEAR_CAPACITY,
            format!(
                "peak on-chip residency {peak} B is within {:.0}% of the {capacity} B data \
                 memory: small shape or policy changes may start spilling",
                100.0 * (1.0 - config.near_capacity_fraction),
            ),
        ));
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu::TaskGraph;

    fn schedule_with_peak(peak: u64) -> Schedule {
        Schedule {
            strategy: "test".into(),
            graph: TaskGraph::new(),
            peak_on_chip_bytes: peak,
            spill_bytes: 0,
        }
    }

    #[test]
    fn over_capacity_is_an_error_and_near_capacity_a_note() {
        let rpu = RpuConfig::ciflow_baseline();
        let capacity = rpu.vector_memory_bytes;
        let config = LintConfig::default();

        let over = lint(&schedule_with_peak(capacity + 1), &rpu, &config);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].code, codes::CAPACITY_EXCEEDED);
        assert_eq!(over[0].severity, rpu::Severity::Error);

        let near = lint(
            &schedule_with_peak(capacity - capacity / 100),
            &rpu,
            &config,
        );
        assert_eq!(near.len(), 1);
        assert_eq!(near[0].code, codes::NEAR_CAPACITY);
        assert_eq!(near[0].severity, rpu::Severity::Note);

        let comfortable = lint(&schedule_with_peak(capacity / 2), &rpu, &config);
        assert!(comfortable.is_empty());
    }

    #[test]
    fn near_capacity_threshold_is_tunable() {
        let rpu = RpuConfig::ciflow_baseline();
        let capacity = rpu.vector_memory_bytes;
        // A schedule at half capacity: clean by default, noted when the
        // configured headroom fraction drops below it.
        let schedule = schedule_with_peak(capacity / 2);
        assert!(lint(&schedule, &rpu, &LintConfig::default()).is_empty());
        let strict = LintConfig {
            near_capacity_fraction: 0.25,
            ..LintConfig::default()
        };
        let noted = lint(&schedule, &rpu, &strict);
        assert_eq!(noted.len(), 1);
        assert_eq!(noted[0].code, codes::NEAR_CAPACITY);
    }
}
