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

use super::codes;
use crate::schedule::Schedule;

/// Fraction of data memory at or above which `C002` notes thin headroom.
const NEAR_CAPACITY_FRACTION: f64 = 0.95;

/// Runs the capacity pass: peak residency vs `rpu.vector_memory_bytes`.
pub fn lint(schedule: &Schedule, rpu: &RpuConfig) -> Vec<Diagnostic> {
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
    } else if capacity > 0 && peak as f64 >= NEAR_CAPACITY_FRACTION * capacity as f64 {
        diagnostics.push(Diagnostic::note(
            codes::NEAR_CAPACITY,
            format!(
                "peak on-chip residency {peak} B is within {:.0}% of the {capacity} B data \
                 memory: small shape or policy changes may start spilling",
                100.0 * (1.0 - NEAR_CAPACITY_FRACTION),
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

        let over = lint(&schedule_with_peak(capacity + 1), &rpu);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].code, codes::CAPACITY_EXCEEDED);
        assert_eq!(over[0].severity, rpu::Severity::Error);

        let near = lint(&schedule_with_peak(capacity - capacity / 100), &rpu);
        assert_eq!(near.len(), 1);
        assert_eq!(near[0].code, codes::NEAR_CAPACITY);
        assert_eq!(near[0].severity, rpu::Severity::Note);

        let comfortable = lint(&schedule_with_peak(capacity / 2), &rpu);
        assert!(comfortable.is_empty());
    }

    #[test]
    fn near_capacity_gate_sits_at_95_percent_of_capacity() {
        let rpu = RpuConfig::ciflow_baseline();
        let capacity = rpu.vector_memory_bytes;
        // The smallest peak at or above 95% of capacity is noted; one byte
        // less is clean.
        let gate = (0.95 * capacity as f64).ceil() as u64;
        let noted = lint(&schedule_with_peak(gate), &rpu);
        assert_eq!(noted.len(), 1);
        assert_eq!(noted[0].code, codes::NEAR_CAPACITY);
        assert!(noted[0].message.contains("within 5%"), "{noted:?}");
        assert!(lint(&schedule_with_peak(gate - 1), &rpu).is_empty());
    }
}
