//! Property tests of the multi-channel memory model.
//!
//! The two load-bearing invariants of the channel split (see
//! `docs/MEMORY_MODEL.md`):
//!
//! 1. With `num_memory_channels = 1` the engine reproduces the historical
//!    single-queue engine *exactly* — same per-task start/end times, same
//!    statistics, bit for bit. The reference below is a line-for-line
//!    implementation of the seed engine's greedy dual-queue loop.
//! 2. Per-channel busy accounting always sums to the aggregate memory busy
//!    time, for any channel count.

use proptest::prelude::*;
use rpu::{
    ComputeKind, EngineQueue, RpuConfig, RpuEngine, Task, TaskGraph, TaskId, TaskKind, Verb,
};

/// The seed repository's single-queue engine: one in-order compute queue and
/// one in-order memory queue, each head issuing as soon as its dependencies'
/// finish times are known, with `start = max(dep_ready, queue_free)`.
/// Returns per-task `(start, end)` times indexed by task id.
fn reference_single_queue(graph: &TaskGraph, config: &RpuConfig) -> Vec<(f64, f64)> {
    let tasks = graph.tasks();
    let compute_queue: Vec<TaskId> = tasks
        .iter()
        .filter(|t| t.is_compute())
        .map(|t| t.id)
        .collect();
    let memory_queue: Vec<TaskId> = tasks
        .iter()
        .filter(|t| t.is_memory())
        .map(|t| t.id)
        .collect();
    let duration = |task: &Task| -> f64 {
        match task.kind {
            TaskKind::Compute { ops, .. } => ops as f64 / config.modops_per_second(),
            TaskKind::Memory { bytes, .. } => bytes as f64 / config.dram_bytes_per_second(),
        }
    };
    let mut finish = vec![f64::NAN; tasks.len()];
    let mut spans = vec![(f64::NAN, f64::NAN); tasks.len()];
    let mut ci = 0usize;
    let mut mi = 0usize;
    let mut compute_free_at = 0.0f64;
    let mut memory_free_at = 0.0f64;
    let deps_ready = |task: &Task, finish: &[f64]| -> Option<f64> {
        let mut ready = 0.0f64;
        for &d in &task.dependencies {
            let f = finish[d];
            if f.is_nan() {
                return None;
            }
            ready = ready.max(f);
        }
        Some(ready)
    };
    while ci < compute_queue.len() || mi < memory_queue.len() {
        let mut progressed = false;
        if mi < memory_queue.len() {
            let task = &tasks[memory_queue[mi]];
            if let Some(dep_ready) = deps_ready(task, &finish) {
                let start = dep_ready.max(memory_free_at);
                let end = start + duration(task);
                finish[task.id] = end;
                spans[task.id] = (start, end);
                memory_free_at = end;
                mi += 1;
                progressed = true;
            }
        }
        if ci < compute_queue.len() {
            let task = &tasks[compute_queue[ci]];
            if let Some(dep_ready) = deps_ready(task, &finish) {
                let start = dep_ready.max(compute_free_at);
                let end = start + duration(task);
                finish[task.id] = end;
                spans[task.id] = (start, end);
                compute_free_at = end;
                ci += 1;
                progressed = true;
            }
        }
        assert!(progressed, "reference engine deadlocked on a valid graph");
    }
    spans
}

/// Builds a causally ordered random task graph from raw draws: each entry is
/// `(kind_bits, cost, dep_seed_a, dep_seed_b)`; dependencies always point at
/// earlier tasks, as `TaskGraph` requires.
fn graph_from(entries: &[(u8, u64, u64, u64)]) -> TaskGraph {
    let mut graph = TaskGraph::new();
    for (i, &(kind, cost, seed_a, seed_b)) in entries.iter().enumerate() {
        let mut deps: Vec<TaskId> = Vec::new();
        if i > 0 {
            // 0-2 dependencies on earlier tasks.
            if seed_a % 4 != 0 {
                deps.push((seed_a % i as u64) as usize);
            }
            if seed_b % 3 == 0 {
                deps.push((seed_b % i as u64) as usize);
            }
            deps.sort_unstable();
            deps.dedup();
        }
        let cost = 1 + cost % 50_000_000;
        match kind % 4 {
            // 50% memory traffic, alternating direction, varied buffer names
            // so the hashed placement spreads them over channels.
            0 => {
                graph.push_memory(Verb::Load, cost, deps, format!("buf[{i}]"), "P1");
            }
            1 => {
                graph.push_memory(Verb::Store, cost, deps, format!("buf[{i}]"), "P2");
            }
            2 => {
                graph.push_compute(ComputeKind::Ntt, cost, deps, format!("ntt {i}"), "P3");
            }
            _ => {
                graph.push_compute(
                    ComputeKind::PointwiseMac,
                    cost,
                    deps,
                    format!("mac {i}"),
                    "P4",
                );
            }
        }
    }
    graph
}

fn config() -> RpuConfig {
    RpuConfig::ciflow_baseline().with_bandwidth(12.8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_channel_reproduces_the_single_queue_engine_exactly(
        entries in proptest::collection::vec(
            (0u8..=255, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2),
            1..40,
        )
    ) {
        let graph = graph_from(&entries);
        let reference = reference_single_queue(&graph, &config());
        let result = RpuEngine::new(config().with_memory_channels(1))
            .execute(&graph)
            .expect("valid graphs execute");
        // Bit-identical per-task spans (exact float equality, no tolerance).
        for record in result.trace.records() {
            let (start, end) = reference[record.task];
            prop_assert_eq!(record.start_seconds.to_bits(), start.to_bits());
            prop_assert_eq!(record.end_seconds.to_bits(), end.to_bits());
        }
        prop_assert_eq!(result.trace.records().len(), graph.len());
        // Bit-identical makespan.
        let reference_makespan = reference
            .iter()
            .fold(0.0f64, |acc, &(_, end)| acc.max(end));
        prop_assert_eq!(
            result.stats.runtime_seconds.to_bits(),
            reference_makespan.to_bits()
        );
    }

    #[test]
    fn channel_accounting_sums_to_total_memory_busy_time(
        entries in proptest::collection::vec(
            (0u8..=255, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2),
            1..40,
        ),
        channels in 1usize..=8,
    ) {
        let graph = graph_from(&entries);
        let result = RpuEngine::new(config().with_memory_channels(channels))
            .execute(&graph)
            .expect("valid graphs execute");
        let stats = &result.stats;
        prop_assert_eq!(stats.memory_channel_busy_seconds.len(), channels);
        let sum: f64 = stats.memory_channel_busy_seconds.iter().sum();
        prop_assert!(
            (sum - stats.memory_busy_seconds).abs() <= 1e-9 * stats.memory_busy_seconds.max(1.0),
            "per-channel busy {} != aggregate {}",
            sum,
            stats.memory_busy_seconds
        );
        // The data path is time-shared: aggregate busy never exceeds runtime.
        prop_assert!(stats.memory_busy_seconds <= stats.runtime_seconds + 1e-9);
        // Every channel a trace record names exists in the accounting.
        for record in result.trace.records() {
            if let EngineQueue::Memory(c) = record.queue {
                prop_assert!(c < channels);
            }
        }
        // Per-task busy time is conserved: the sum of memory record spans
        // equals the aggregate busy seconds (transfers never overlap).
        let span_sum: f64 = result
            .trace
            .records()
            .iter()
            .filter(|r| r.queue.is_memory())
            .map(rpu::TaskRecord::duration)
            .sum();
        prop_assert!((span_sum - stats.memory_busy_seconds).abs() <= 1e-9 * span_sum.max(1.0));
    }

    #[test]
    fn stats_only_execution_matches_traced_execution_bit_for_bit(
        entries in proptest::collection::vec(
            (0u8..=255, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2),
            1..40,
        ),
        channels in 1usize..=8,
    ) {
        // The trace-optional fast path must be the same simulation: every
        // aggregate statistic agrees to the bit with the traced run's.
        let graph = graph_from(&entries);
        let engine = RpuEngine::new(config().with_memory_channels(channels));
        let traced = engine.execute(&graph).expect("valid graphs execute");
        let stats = engine.execute_stats(&graph).expect("valid graphs execute");
        prop_assert_eq!(
            stats.runtime_seconds.to_bits(),
            traced.stats.runtime_seconds.to_bits()
        );
        prop_assert_eq!(
            stats.compute_busy_seconds.to_bits(),
            traced.stats.compute_busy_seconds.to_bits()
        );
        prop_assert_eq!(
            stats.memory_busy_seconds.to_bits(),
            traced.stats.memory_busy_seconds.to_bits()
        );
        for (a, b) in stats
            .memory_channel_busy_seconds
            .iter()
            .zip(&traced.stats.memory_channel_busy_seconds)
        {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(&stats, &traced.stats);
    }

    #[test]
    fn multi_channel_execution_preserves_dependencies_and_work(
        entries in proptest::collection::vec(
            (0u8..=255, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2),
            1..40,
        ),
        channels in 2usize..=8,
    ) {
        let graph = graph_from(&entries);
        let result = RpuEngine::new(config().with_memory_channels(channels))
            .execute(&graph)
            .expect("valid graphs execute");
        // Dependencies are respected: every task starts at or after each of
        // its dependencies' end.
        let mut spans = vec![(f64::NAN, f64::NAN); graph.len()];
        for record in result.trace.records() {
            spans[record.task] = (record.start_seconds, record.end_seconds);
        }
        for task in graph.tasks() {
            for &dep in &task.dependencies {
                prop_assert!(
                    spans[task.id].0 >= spans[dep].1 - 1e-12,
                    "task {} started before dependency {} finished",
                    task.id,
                    dep
                );
            }
        }
        // Work is conserved regardless of the channel count.
        prop_assert_eq!(result.stats.total_ops, graph.total_ops());
        let (loaded, stored) = graph.total_bytes();
        prop_assert_eq!(result.stats.bytes_loaded, loaded);
        prop_assert_eq!(result.stats.bytes_stored, stored);
    }
}
