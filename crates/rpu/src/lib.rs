//! # rpu — a task-level model of the Ring Processing Unit
//!
//! The CiFlow paper evaluates its key-switching dataflows on the RPU, a
//! vector processor for ring-LWE workloads (128 HPLE lanes, a 1 K-element
//! vector ISA, 1.7 GHz, 32 MB on-chip vector data memory) with a deeply
//! decoupled front-end that overlaps DRAM transfers with computation.
//!
//! This crate models the RPU at the granularity the paper's evaluation
//! operates at:
//!
//! * [`config::RpuConfig`] — architectural parameters plus the bandwidth /
//!   MODOPS / evk-placement knobs the paper sweeps.
//! * [`task`] — compute and memory tasks with explicit dependencies, the
//!   interface between the CiFlow schedule generators and the hardware model.
//! * [`engine::RpuEngine`] — the decoupled executor (one compute queue plus
//!   one in-order queue per DRAM pseudo-channel) producing runtimes, idle
//!   fractions and per-task traces; timing semantics in
//!   `docs/MEMORY_MODEL.md`.
//! * [`analytic`] — closed-form bandwidth sweeps: a
//!   [`analytic::ParametricTimeline`] whose per-point evaluation is
//!   bit-identical to the engine — a program-order fold equal to the
//!   engine's timeline on one memory channel, the engine itself on several
//!   (`docs/ANALYTIC.md`).
//! * [`channel::ChannelMap`] — deterministic buffer-to-channel placement for
//!   the multi-channel memory model (label hash, with evk towers split onto
//!   their own channel group).
//! * [`plan::ExecPlan`] — a graph compiled once per channel placement: the
//!   queues and dependency structure every executor and analyzer shares.
//! * [`verify`] — static verification of task graphs against the queue
//!   semantics: structural checks plus a deadlock-freedom proof over the
//!   augmented (dependency + in-order queue) graph, the graph-level half of
//!   the `ciflow::lint` subsystem (lint catalogue in `docs/LINTS.md`).
//! * [`bound`] — static performance analysis: provable makespan lower
//!   bounds (dependency paths, queue order, resource occupancy),
//!   critical-path/slack extraction and the closed-form roofline knee
//!   (`docs/BOUNDS.md`).
//!
//! ## Example
//!
//! ```
//! use rpu::config::RpuConfig;
//! use rpu::engine::RpuEngine;
//! use rpu::task::{ComputeKind, MemoryDirection, TaskGraph};
//!
//! let mut graph = TaskGraph::new();
//! let load = graph.push_memory(MemoryDirection::Load, 1 << 20, vec![], "load tower", "ModUp-P1");
//! graph.push_compute(ComputeKind::Intt, 1_000_000, vec![load], "intt tower", "ModUp-P1");
//!
//! let engine = RpuEngine::new(RpuConfig::ciflow_baseline());
//! let result = engine.execute(&graph).unwrap();
//! assert!(result.stats.runtime_seconds > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytic;
pub mod bound;
pub mod channel;
pub mod config;
pub mod engine;
mod fold;
pub mod plan;
pub mod stats;
pub mod task;
pub mod trace;
pub mod verify;

pub use analytic::{ParametricTimeline, Segment};
pub use bound::{BindingResource, BoundAnalysis, CriticalEdge, CriticalStep, RooflineKnee};
pub use channel::ChannelMap;
pub use config::{EvkPolicy, RpuConfig, MIB};
pub use engine::{EngineError, RpuEngine, RunResult, TraceMode};
pub use plan::{BufferKeys, ExecPlan, MemoryKey};
pub use stats::ExecutionStats;
pub use task::{
    AppendAction, AppendedGraph, ComputeKind, Label, MemoryDirection, Task, TaskGraph,
    TaskGraphError, TaskId, TaskKind,
};
pub use trace::{EngineQueue, ExecutionTrace, TaskRecord};
pub use verify::{Diagnostic, Severity};

#[cfg(test)]
mod integration {
    use super::*;

    #[test]
    fn memory_bound_vs_compute_bound_crossover() {
        // The same graph run across a bandwidth sweep must be monotonically
        // non-increasing in runtime and eventually saturate at the compute
        // bound.
        let mut g = TaskGraph::new();
        let mut prev = None;
        for i in 0..8 {
            let load = g.push_memory(
                MemoryDirection::Load,
                64 << 20,
                prev.map(|p| vec![p]).unwrap_or_default(),
                format!("load {i}"),
                "P1",
            );
            let c = g.push_compute(
                ComputeKind::Ntt,
                500_000_000,
                vec![load],
                format!("ntt {i}"),
                "P1",
            );
            prev = Some(c);
        }
        let mut last = f64::INFINITY;
        let mut runtimes = Vec::new();
        for bw in [8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0] {
            let cfg = RpuConfig::ciflow_baseline().with_bandwidth(bw);
            let r = RpuEngine::new(cfg).execute(&g).unwrap();
            assert!(r.stats.runtime_seconds <= last + 1e-12);
            last = r.stats.runtime_seconds;
            runtimes.push(r.stats.runtime_seconds);
        }
        // Compute bound: total ops / modops rate.
        let compute_floor =
            (8.0 * 500_000_000.0) / RpuConfig::ciflow_baseline().modops_per_second();
        assert!(runtimes.last().unwrap() >= &compute_floor);
        assert!(runtimes.last().unwrap() < &(compute_floor * 1.2));
    }
}
