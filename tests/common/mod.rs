//! Helpers shared by the integration-test suites in this directory.
//!
//! Every suite is its own test binary (registered with an explicit `path`
//! in `crates/ciflow/Cargo.toml`) and pulls this module in with
//! `#[path = "common/mod.rs"] mod common;`. Each binary compiles the whole
//! module but uses only its own subset of helpers, hence the blanket
//! `dead_code` allowance.

#![allow(dead_code)]

use ciflow::schedule::ScheduleConfig;
use rand::rngs::StdRng;
use rand::Rng;
use rpu::{ComputeKind, EvkPolicy, ExecutionStats, RpuConfig, Task, TaskKind, Verb};

/// The `ciflow_streaming` device preset at an explicit bandwidth — the most
/// common RPU configuration across the suites.
pub fn streaming_at(bandwidth_gbps: f64) -> RpuConfig {
    RpuConfig::ciflow_streaming().with_bandwidth(bandwidth_gbps)
}

/// The `ciflow_baseline` device preset at an explicit bandwidth.
pub fn baseline_at(bandwidth_gbps: f64) -> RpuConfig {
    RpuConfig::ciflow_baseline().with_bandwidth(bandwidth_gbps)
}

/// A streamed-evk [`ScheduleConfig`] with `data_mib` MiB of data memory.
pub fn streamed(data_mib: u64) -> ScheduleConfig {
    ScheduleConfig {
        data_memory_bytes: data_mib * rpu::MIB,
        evk_policy: EvkPolicy::Streamed,
    }
}

/// Bit-level equality of every field of two [`ExecutionStats`] (plain
/// `assert_eq!` on the floats would accept `-0.0 == 0.0`).
pub fn assert_stats_bit_identical(a: &ExecutionStats, b: &ExecutionStats) {
    assert_eq!(a.runtime_seconds.to_bits(), b.runtime_seconds.to_bits());
    assert_eq!(
        a.compute_busy_seconds.to_bits(),
        b.compute_busy_seconds.to_bits()
    );
    assert_eq!(
        a.memory_busy_seconds.to_bits(),
        b.memory_busy_seconds.to_bits()
    );
    assert_eq!(
        a.memory_channel_busy_seconds.len(),
        b.memory_channel_busy_seconds.len()
    );
    for (x, y) in a
        .memory_channel_busy_seconds
        .iter()
        .zip(&b.memory_channel_busy_seconds)
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.total_ops, b.total_ops);
    assert_eq!(a.bytes_loaded, b.bytes_loaded);
    assert_eq!(a.bytes_stored, b.bytes_stored);
    assert_eq!(a.compute_tasks, b.compute_tasks);
    assert_eq!(a.memory_tasks, b.memory_tasks);
}

/// Critical-path windows computed by [`path_oracle`]: a reference the
/// `bound_oracle` suite checks `rpu::bound::analyze`'s path passes against.
pub struct PathOracle {
    /// Earliest start each task's true dependencies allow.
    pub earliest_start: Vec<f64>,
    /// Latest start that still meets the dependency-path makespan.
    pub latest_start: Vec<f64>,
    /// `latest_start - earliest_start`.
    pub slack: Vec<f64>,
    /// The longest dependency-path length (the dependency makespan bound).
    pub makespan: f64,
}

/// A hand-rolled critical-path/slack oracle: Bellman–Ford-style relaxation
/// to a fixpoint instead of the analyzer's single topological sweep, sharing
/// no code with `rpu::bound`. It applies the same machine operations the
/// analyzer does (`f64::max`/`min` folds and one add/subtract per task on
/// the same durations), so agreement is *exact* — `max` returns one of its
/// operands and rounding is monotone, making both iteration orders land on
/// identical bits.
pub fn path_oracle(tasks: &[Task], durations: &[f64]) -> PathOracle {
    let n = tasks.len();
    assert_eq!(durations.len(), n);
    let mut earliest_start = vec![0.0f64; n];
    loop {
        let mut changed = false;
        for task in tasks {
            let mut best = 0.0f64;
            for &dep in &task.dependencies {
                best = best.max(earliest_start[dep] + durations[dep]);
            }
            if best > earliest_start[task.id] {
                earliest_start[task.id] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let makespan = tasks
        .iter()
        .map(|t| earliest_start[t.id] + durations[t.id])
        .fold(0.0f64, f64::max);
    let mut latest_start: Vec<f64> = tasks.iter().map(|t| makespan - durations[t.id]).collect();
    loop {
        let mut changed = false;
        for task in tasks {
            for &dep in &task.dependencies {
                let candidate = latest_start[task.id] - durations[dep];
                if candidate < latest_start[dep] {
                    latest_start[dep] = candidate;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let slack = latest_start
        .iter()
        .zip(&earliest_start)
        .map(|(ls, es)| ls - es)
        .collect();
    PathOracle {
        earliest_start,
        latest_start,
        slack,
        makespan,
    }
}

/// A structurally well-formed random graph (ids == indices, deps in range,
/// no self-deps) whose dependencies all point backwards — the kind
/// [`rpu::TaskGraph::from_tasks`] accepts, which therefore can never
/// deadlock.
pub fn random_valid_tasks(rng: &mut StdRng, n: usize) -> Vec<Task> {
    (0..n)
        .map(|i| {
            let mut dependencies = Vec::new();
            if i > 0 {
                for _ in 0..rng.gen_range(0usize..3) {
                    dependencies.push(rng.gen_range(0usize..i));
                }
                dependencies.sort_unstable();
                dependencies.dedup();
            }
            let kind = if rng.gen_bool(0.4) {
                TaskKind::Compute {
                    kind: ComputeKind::Ntt,
                    ops: rng.gen_range(1u64..1000),
                }
            } else {
                TaskKind::Memory {
                    verb: if rng.gen_bool(0.5) {
                        Verb::Load
                    } else {
                        Verb::Store
                    },
                    bytes: rng.gen_range(1u64..10_000),
                }
            };
            Task {
                id: i,
                kind,
                dependencies,
                label: format!("t{i}").into(),
                stage: "P1".into(),
                channel: if rng.gen_bool(0.5) {
                    Some(rng.gen_range(0usize..8))
                } else {
                    None
                },
                kernel: None,
            }
        })
        .collect()
}
