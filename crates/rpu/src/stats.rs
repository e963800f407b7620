//! Execution statistics reported by the engine.

use serde::{Deserialize, Serialize};

/// Aggregate outcome of executing one task graph on the RPU model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ExecutionStats {
    /// End-to-end runtime in seconds.
    pub runtime_seconds: f64,
    /// Time the compute pipeline spent executing tasks, in seconds.
    pub compute_busy_seconds: f64,
    /// Time the shared DRAM data path spent transferring, in seconds. The
    /// pseudo-channels time-share one data path, so this never exceeds the
    /// runtime, and it always equals the sum of
    /// [`memory_channel_busy_seconds`](Self::memory_channel_busy_seconds) —
    /// the engine maintains that invariant and a regression test enforces it.
    pub memory_busy_seconds: f64,
    /// Per-channel transfer time in seconds, indexed by memory channel. Has
    /// one entry per configured channel (a single entry for the classic
    /// single-queue model).
    pub memory_channel_busy_seconds: Vec<f64>,
    /// Total modular operations executed.
    pub total_ops: u64,
    /// Bytes loaded from DRAM.
    pub bytes_loaded: u64,
    /// Bytes stored to DRAM.
    pub bytes_stored: u64,
    /// Number of compute tasks.
    pub compute_tasks: usize,
    /// Number of memory tasks.
    pub memory_tasks: usize,
}

impl ExecutionStats {
    /// Runtime in milliseconds (the unit of every figure in the paper).
    pub fn runtime_ms(&self) -> f64 {
        self.runtime_seconds * 1e3
    }

    /// Fraction of the runtime during which the compute pipeline was idle
    /// (waiting for memory tasks or dependencies). The paper reports this as
    /// "idle time" (e.g. 20.87% for OC DPRIVE at 12.8 GB/s vs 72.76% for MP).
    pub fn compute_idle_fraction(&self) -> f64 {
        if self.runtime_seconds <= 0.0 {
            0.0
        } else {
            (1.0 - self.compute_busy_seconds / self.runtime_seconds).max(0.0)
        }
    }

    /// Number of memory channels the run executed with. Statistics built by
    /// hand without per-channel entries count as single-channel.
    pub fn memory_channel_count(&self) -> usize {
        self.memory_channel_busy_seconds.len().max(1)
    }

    /// Channel load imbalance: the busiest channel's transfer time divided
    /// by the mean across channels (1.0 = perfectly balanced; large values
    /// mean the placement starved most channels). Returns 1.0 when no
    /// memory traffic was executed.
    pub fn memory_channel_imbalance(&self) -> f64 {
        let n = self.memory_channel_count();
        let mean = self.memory_busy_seconds / n as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        let busiest = if self.memory_channel_busy_seconds.is_empty() {
            self.memory_busy_seconds
        } else {
            self.memory_channel_busy_seconds
                .iter()
                .copied()
                .fold(0.0f64, f64::max)
        };
        busiest / mean
    }

    /// Total DRAM traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_loaded + self.bytes_stored
    }

    /// Achieved arithmetic intensity in modular operations per DRAM byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.total_bytes() == 0 {
            f64::INFINITY
        } else {
            self.total_ops as f64 / self.total_bytes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = ExecutionStats {
            runtime_seconds: 2.0,
            compute_busy_seconds: 1.5,
            memory_busy_seconds: 1.0,
            memory_channel_busy_seconds: vec![1.0],
            total_ops: 3_000,
            bytes_loaded: 600,
            bytes_stored: 400,
            compute_tasks: 10,
            memory_tasks: 5,
        };
        assert!((s.runtime_ms() - 2000.0).abs() < 1e-9);
        assert!((s.compute_idle_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(s.total_bytes(), 1000);
        assert!((s.arithmetic_intensity() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_channel_metrics() {
        let s = ExecutionStats {
            runtime_seconds: 2.0,
            compute_busy_seconds: 1.0,
            memory_busy_seconds: 1.5,
            memory_channel_busy_seconds: vec![1.0, 0.5, 0.0, 0.0],
            memory_tasks: 3,
            ..ExecutionStats::default()
        };
        assert_eq!(s.memory_channel_count(), 4);
        assert!((s.memory_channel_busy_seconds[0] - 1.0).abs() < 1e-12);
        // Mean busy = 0.375 s, busiest = 1.0 s.
        assert!((s.memory_channel_imbalance() - 1.0 / 0.375).abs() < 1e-12);
    }

    #[test]
    fn zero_runtime_is_handled() {
        let s = ExecutionStats::default();
        assert_eq!(s.compute_idle_fraction(), 0.0);
        assert!(s.arithmetic_intensity().is_infinite());
        assert_eq!(s.memory_channel_count(), 1);
        assert!((s.memory_channel_imbalance() - 1.0).abs() < 1e-12);
    }
}
