//! The decoupled execution engine.
//!
//! The RPU fetches compute and memory instructions through decoupled queues
//! and overlaps DRAM transfers with computation whenever dependencies allow
//! (paper §V-A/§V-C): one in-order *compute* queue plus one in-order command
//! queue per DRAM pseudo-channel, all pseudo-channels sharing a single
//! full-rate data path. A transfer occupies the data path for
//! `bytes / bandwidth` seconds; when the path frees, the oldest
//! dependency-ready channel head is granted next — so extra channels buy
//! *head-of-line bypass* (a dep-blocked writeback no longer stalls a ready
//! prefetch on another channel), never extra peak bandwidth. With one
//! channel the model degenerates, operation for operation, to the classic
//! single in-order memory queue. Because FHE is data-oblivious, all of this
//! is known statically and the model needs no speculation.
//!
//! ## Ready-tracking and grant mechanics
//!
//! Dependency resolution is *incremental*: the engine precomputes, per task,
//! a remaining-dependency counter and keeps a running ready time (the max
//! finish time over its already-completed dependencies). When a task
//! completes, the engine walks its dependents (a CSR adjacency compiled
//! once per schedule and channel placement into an [`ExecPlan`] and reused
//! by every run of it), decrementing counters and raising ready times —
//! O(1) amortized per graph edge. A queue head is *ready* exactly when its
//! counter hits zero, so the issue check and the data-path grant scan are O(1) per queue:
//! granting is one pass over the channel heads picking the oldest
//! (lowest-id) ready head, and the ready time established by that pass is
//! the grant's start time lower bound — dependencies are never re-scanned.
//! These mechanics change *how* readiness is computed, not *when* a task is
//! ready: the schedule timing is bit-identical to the historical
//! re-scanning engine (property-tested in `tests/channels.rs`).
//!
//! Execution is *trace-optional*: [`RpuEngine::execute`] records a
//! [`TaskRecord`] per task for timing diagrams, while
//! [`RpuEngine::execute_stats`] returns only the aggregate numbers — the mode
//! sweeps and batch sessions use. Both build a fresh plan per call;
//! [`RpuEngine::execute_plan`] and [`RpuEngine::execute_stats_plan`] run a
//! prebuilt one.
//!
//! ## One event loop
//!
//! The event loop (`drive`) is the engine, traced or not, on any channel
//! count. On one memory channel, when every dependency points backward
//! (which the [`ExecPlan`] records), the loop services the queues in program
//! order whatever the timing, so its timeline equals one program-order
//! max-plus fold: every start `max(ready, free)`, every finish
//! `start + duration`. That fold times the parametric timelines of
//! [`crate::analytic`] and the path bounds of [`crate::bound`];
//! `tests/fold_oracle.rs` holds the timeline's fold to this loop bit for
//! bit. The loop's [`EngineError`]s are the only ones.
//!
//! *Progress guarantee.* Every loop iteration retires at least one task or
//! returns an error: a task whose finish time is not finite (a NaN, zero or
//! infinite rate in a hand-built configuration) is rejected with
//! [`EngineError::NonFiniteTime`] when it issues, so the earliest in-flight
//! finish always retires.
//!
//! The full timing semantics — issue and grant rules, dependency stalls, the
//! deadlock condition, buffer-to-channel mapping, and worked timing
//! diagrams — are documented in `docs/MEMORY_MODEL.md` at the repository
//! root.

use crate::channel::ChannelMap;
use crate::config::RpuConfig;
use crate::plan::ExecPlan;
use crate::stats::ExecutionStats;
use crate::task::{Label, Task, TaskGraph, TaskId, TaskKind};
use crate::trace::{EngineQueue, ExecutionTrace, TaskRecord};
use std::sync::Arc;

/// How much per-task detail an execution records.
///
/// Statistics-only execution avoids one [`TaskRecord`] allocation (plus two
/// label reference-count bumps) per task, which matters when a sweep executes
/// thousands of identical graphs only to read aggregate numbers off each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TraceMode {
    /// Record only aggregate [`ExecutionStats`] (the default for sweeps and
    /// batch sessions).
    #[default]
    StatsOnly,
    /// Additionally record a per-task [`TaskRecord`] trace for timing
    /// diagrams.
    Full,
}

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// No queue head can make progress: the schedule has a cross-queue
    /// ordering cycle (a generator bug). See the deadlock section of
    /// `docs/MEMORY_MODEL.md` for how such cycles arise. The same condition
    /// is statically detectable *before* execution as lint `D001`
    /// ([`crate::verify::lint_deadlock`], catalogued in `docs/LINTS.md`);
    /// `wait_chain` here is the runtime witness of exactly that cycle.
    Deadlock {
        /// Task at the head of the compute queue, if any.
        compute_head: Option<TaskId>,
        /// The blocked `(channel, head task)` pairs of the non-empty memory
        /// queues.
        memory_heads: Vec<(usize, TaskId)>,
        /// The labels of every blocked queue head (compute first, then the
        /// memory heads in channel order) — what the stuck transfers and
        /// kernels actually *are*, not just their ids.
        head_labels: Vec<(TaskId, Label)>,
        /// The shortest wait-for cycle found among the blocked heads: each
        /// task waits — through a dependency or its in-order queue — for the
        /// next, and the last waits for the first.
        wait_chain: Vec<(TaskId, Label)>,
    },
    /// A task's finish time is not finite: the configuration's bandwidth
    /// or MODOPS rate is NaN, zero, or otherwise degenerate. Raised when the
    /// task issues, so no run ever spins on an unreachable event.
    NonFiniteTime {
        /// The task whose finish time is not finite.
        task: TaskId,
        /// That finish time, in seconds.
        seconds: f64,
    },
    /// The [`ExecPlan`] does not fit the run: it was compiled for another
    /// task count or channel count than the graph and configuration given.
    PlanMismatch {
        /// `(tasks, channels)` the plan was compiled for.
        plan: (usize, usize),
        /// `(tasks, channels)` of the graph and configuration being run.
        run: (usize, usize),
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Deadlock {
                compute_head,
                memory_heads,
                head_labels,
                wait_chain,
            } => {
                write!(
                    f,
                    "schedule deadlock [lint D001]: compute head {compute_head:?}, memory heads \
                     {memory_heads:?}"
                )?;
                if !head_labels.is_empty() {
                    let heads = head_labels
                        .iter()
                        .map(|(t, label)| format!("{t}(`{label}`)"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    write!(f, "; blocked on {heads}")?;
                }
                if let Some((first, _)) = wait_chain.first() {
                    let chain = wait_chain
                        .iter()
                        .map(|(t, label)| format!("{t}(`{label}`)"))
                        .collect::<Vec<_>>()
                        .join(" -> ");
                    write!(f, "; wait-for cycle {chain} -> {first}")?;
                }
                write!(f, " (see docs/LINTS.md#d001)")
            }
            EngineError::NonFiniteTime { task, seconds } => write!(
                f,
                "task {task} would finish at {seconds} s: the configured bandwidth and MODOPS \
                 rate must be finite and positive"
            ),
            EngineError::PlanMismatch { plan, run } => write!(
                f,
                "execution plan compiled for {} tasks on {} channel(s) cannot run {} tasks on \
                 {} channel(s)",
                plan.0, plan.1, run.0, run.1
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Result of one execution: aggregate statistics plus the per-task trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Aggregate statistics.
    pub stats: ExecutionStats,
    /// Per-task start/end records.
    pub trace: ExecutionTrace,
}

/// The task-level RPU simulator.
#[derive(Debug, Clone)]
pub struct RpuEngine {
    config: RpuConfig,
    channel_map: ChannelMap,
}

impl RpuEngine {
    /// Creates an engine for a configuration. Memory tasks are placed on the
    /// configuration's channels by hashing their buffer labels
    /// ([`ChannelMap::hashed`]); override the placement with
    /// [`RpuEngine::with_channel_map`].
    pub fn new(config: RpuConfig) -> Self {
        let channel_map = ChannelMap::hashed(config.memory_channel_count());
        Self {
            config,
            channel_map,
        }
    }

    /// Replaces the buffer-to-channel mapping (e.g. with a schedule's evk
    /// split, [`ChannelMap::evk_split`]). Channels the map names
    /// beyond the configuration's channel count wrap around modulo the
    /// count, so a map built for a different channel count still executes.
    pub fn with_channel_map(mut self, channel_map: ChannelMap) -> Self {
        self.channel_map = channel_map;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &RpuConfig {
        &self.config
    }

    /// The buffer-to-channel mapping in use.
    pub fn channel_map(&self) -> &ChannelMap {
        &self.channel_map
    }

    /// Duration of a single task under this configuration, in seconds. A
    /// memory task occupies the shared data path exclusively while it runs,
    /// so its duration is `bytes / aggregate bandwidth` regardless of the
    /// channel count (channels buy scheduling freedom, not rate).
    pub fn task_duration(&self, task: &Task) -> f64 {
        match task.kind {
            TaskKind::Compute { ops, .. } => ops as f64 / self.config.modops_per_second(),
            TaskKind::Memory { bytes, .. } => bytes as f64 / self.config.dram_bytes_per_second(),
        }
    }

    /// Executes a task graph and returns runtime statistics and a per-task
    /// trace ([`TraceMode::Full`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Deadlock`] if the in-order queues block each
    /// other, which indicates an invalid schedule.
    pub fn execute(&self, graph: &TaskGraph) -> Result<RunResult, EngineError> {
        self.execute_plan(graph, &self.plan(graph))
    }

    /// [`RpuEngine::execute`] on a prebuilt plan of `graph` (see
    /// [`RpuEngine::plan`]); the engine's own channel map is not consulted.
    ///
    /// # Errors
    ///
    /// As [`RpuEngine::execute`], plus [`EngineError::PlanMismatch`] when
    /// the plan was compiled for another task or channel count.
    pub fn execute_plan(
        &self,
        graph: &TaskGraph,
        plan: &ExecPlan,
    ) -> Result<RunResult, EngineError> {
        let mut trace = ExecutionTrace::new();
        let stats = self.drive(graph, plan, Some(&mut trace))?;
        Ok(RunResult { stats, trace })
    }

    /// Executes a task graph and returns only the aggregate statistics
    /// ([`TraceMode::StatsOnly`]): the same simulation as
    /// [`RpuEngine::execute`] without allocating a [`TaskRecord`] per task.
    /// The statistics are bit-identical to the traced run's.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Deadlock`] exactly as [`RpuEngine::execute`]
    /// would.
    pub fn execute_stats(&self, graph: &TaskGraph) -> Result<ExecutionStats, EngineError> {
        self.execute_stats_plan(graph, &self.plan(graph))
    }

    /// [`RpuEngine::execute_stats`] on a prebuilt plan of `graph`.
    ///
    /// # Errors
    ///
    /// As [`RpuEngine::execute_plan`].
    pub fn execute_stats_plan(
        &self,
        graph: &TaskGraph,
        plan: &ExecPlan,
    ) -> Result<ExecutionStats, EngineError> {
        self.drive(graph, plan, None)
    }

    /// Rejects a plan compiled for another task or channel count than this
    /// run of `graph`.
    pub(crate) fn check_plan(&self, graph: &TaskGraph, plan: &ExecPlan) -> Result<(), EngineError> {
        let run = (graph.len(), self.config.memory_channel_count());
        let plan = (plan.task_count(), plan.channels());
        (plan == run)
            .then_some(())
            .ok_or(EngineError::PlanMismatch { plan, run })
    }

    /// The simulation core: runs `plan`'s queues to completion and returns
    /// the statistics. `trace` selects the mode: `Some` records a
    /// [`TaskRecord`] per completed task, `None` skips all per-task
    /// allocation.
    ///
    /// Event-driven: the in-flight compute task and the in-flight memory
    /// grant are the only events. At each event time the compute head issues
    /// if ready, and the freed data path is granted to the oldest (lowest
    /// task id, i.e. earliest program order) dependency-ready channel head.
    /// A channel whose head still waits on a dependency does not block the
    /// grant — that head-of-line bypass is the entire benefit of multiple
    /// channels.
    ///
    /// Readiness is incremental: per task, the number of dependencies not yet
    /// retired and the latest finish among the retired ones. Retirement walks
    /// the plan's dependents, so dependency resolution costs O(1) amortized
    /// per edge and the issue check and grant scan are O(1) per queue.
    fn drive(
        &self,
        graph: &TaskGraph,
        plan: &ExecPlan,
        mut trace: Option<&mut ExecutionTrace>,
    ) -> Result<ExecutionStats, EngineError> {
        self.check_plan(graph, plan)?;
        let tasks = graph.tasks();
        let compute_queue = plan.compute_queue();
        let memory_queues = plan.memory_queues();
        let mut stats = plan.unstarted_stats();
        let mut remaining = plan.dependency_counts().to_vec();
        let mut ready_at = vec![0.0f64; tasks.len()];
        let mut ci = 0usize; // compute queue cursor
        let mut mi = vec![0usize; memory_queues.len()]; // per-channel cursors
        let (mut compute_free, mut bus_free) = (0.0f64, 0.0f64);
        let mut mem_run: InFlight = None;
        let mut comp_run: InFlight = None;
        // Issues `head` at the later of its ready time and its resource's
        // free time. The progress guarantee: only a finite finish time is an
        // event, so the earliest in-flight finish always retires next.
        let issue = |head: TaskId, channel: Option<usize>, ready: f64, free: f64| {
            let start = ready.max(free);
            let end = start + self.task_duration(&tasks[head]);
            if !end.is_finite() {
                return Err(EngineError::NonFiniteTime {
                    task: head,
                    seconds: end,
                });
            }
            Ok(Some((head, channel, (start, end))))
        };

        loop {
            if comp_run.is_none() {
                if let Some(&head) = compute_queue.get(ci) {
                    let head = head as usize;
                    if remaining[head] == 0 {
                        comp_run = issue(head, None, ready_at[head], compute_free)?;
                        ci += 1;
                    }
                }
            }

            if mem_run.is_none() {
                // The oldest ready head wins the data path.
                let mut grant: Option<(TaskId, usize)> = None;
                for (channel, queue) in memory_queues.iter().enumerate() {
                    if let Some(&head) = queue.get(mi[channel]) {
                        let head = head as usize;
                        if remaining[head] == 0 && grant.is_none_or(|(best, _)| head < best) {
                            grant = Some((head, channel));
                        }
                    }
                }
                if let Some((head, channel)) = grant {
                    mem_run = issue(head, Some(channel), ready_at[head], bus_free)?;
                    mi[channel] += 1;
                }
            }

            // Advance to the next completion event.
            let t_next = match (comp_run, mem_run) {
                (Some((_, _, c)), Some((_, _, m))) => c.1.min(m.1),
                (Some((_, _, run)), None) | (None, Some((_, _, run))) => run.1,
                (None, None) => {
                    let exhausted = ci >= compute_queue.len()
                        && mi.iter().zip(memory_queues).all(|(&i, q)| i >= q.len());
                    if exhausted {
                        return Ok(stats);
                    }
                    return Err(deadlock_error(tasks, plan, ci, &mi, &remaining));
                }
            };

            // Retire what completes at `t_next`, memory first: update the
            // dependents' counters and ready times.
            for run in [&mut mem_run, &mut comp_run] {
                let Some((head, channel, (start, end))) = *run else {
                    continue;
                };
                if end <= t_next {
                    for &c in plan.dependents(head) {
                        let c = c as usize;
                        remaining[c] -= 1;
                        ready_at[c] = ready_at[c].max(end);
                    }
                    stats.runtime_seconds = stats.runtime_seconds.max(end);
                    let queue = match channel {
                        Some(channel) => {
                            bus_free = end;
                            stats.memory_busy_seconds += end - start;
                            stats.memory_channel_busy_seconds[channel] += end - start;
                            EngineQueue::Memory(channel)
                        }
                        None => {
                            compute_free = end;
                            stats.compute_busy_seconds += end - start;
                            EngineQueue::Compute
                        }
                    };
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.push(TaskRecord {
                            task: head,
                            queue,
                            start_seconds: start,
                            end_seconds: end,
                            label: Arc::clone(&tasks[head].label),
                            stage: Arc::clone(&tasks[head].stage),
                        });
                    }
                    *run = None;
                }
            }
        }
    }
}

/// A task in flight: its id, its memory channel (`None` on the compute
/// queue) and its `(start, end)` span.
type InFlight = Option<(TaskId, Option<usize>, (f64, f64))>;

/// Builds the enriched [`EngineError::Deadlock`] at the point where no queue
/// head can progress and nothing is in flight: reconstructs which tasks are
/// done (exactly the queue prefixes — everything issued has completed),
/// collects the blocked heads' labels, and walks the wait-for relation from
/// each blocked head to find the shortest wait-for cycle. "t waits for u"
/// when u is t's first unfinished dependency, or — for a task whose
/// dependencies are all met but which is stuck behind its in-order queue —
/// when u is t's queue head. This is the runtime witness of the augmented
/// cycle that [`crate::verify::lint_deadlock`] (lint `D001`) detects
/// statically.
pub(crate) fn deadlock_error(
    tasks: &[Task],
    plan: &ExecPlan,
    ci: usize,
    mi: &[usize],
    remaining: &[u32],
) -> EngineError {
    let n = tasks.len();
    let compute_queue = plan.compute_queue();
    let compute_head = compute_queue.get(ci).map(|&t| t as TaskId);
    let memory_heads: Vec<(usize, TaskId)> = plan
        .memory_queues()
        .iter()
        .enumerate()
        .filter_map(|(channel, queue)| {
            queue
                .get(mi[channel])
                .map(|&head| (channel, head as TaskId))
        })
        .collect();
    let heads: Vec<TaskId> = compute_head
        .into_iter()
        .chain(memory_heads.iter().map(|&(_, head)| head))
        .collect();
    let head_labels: Vec<(TaskId, Label)> = heads
        .iter()
        .map(|&t| (t, Arc::clone(&tasks[t].label)))
        .collect();

    // Done set and queue-head index. Nothing is in flight, so precisely the
    // queue prefixes have retired.
    let mut done = vec![false; n];
    let mut queue_head: Vec<Option<TaskId>> = vec![None; n];
    for (queue, &cursor) in std::iter::once((compute_queue, &ci))
        .chain(plan.memory_queues().iter().map(Vec::as_slice).zip(mi))
    {
        for &t in &queue[..cursor] {
            done[t as usize] = true;
        }
        if let Some(&head) = queue.get(cursor) {
            for &t in &queue[cursor..] {
                queue_head[t as usize] = Some(head as TaskId);
            }
        }
    }

    // From each blocked head, follow the wait-for relation until a task
    // repeats; keep the shortest cycle found. Every unfinished task waits
    // for *some* unfinished task (an unmet dependency, else its queue head,
    // which is distinct because a ready head would have issued), so the walk
    // closes a cycle within n steps — unless it reaches a dependency outside
    // the graph, which no task can ever satisfy (no cycle to report).
    let mut wait_chain: Vec<TaskId> = Vec::new();
    let mut position: Vec<Option<usize>> = vec![None; n];
    for &start in &heads {
        let mut path: Vec<TaskId> = Vec::new();
        let mut cursor = start;
        let cycle = loop {
            if let Some(at) = position[cursor] {
                break &path[at..];
            }
            position[cursor] = Some(path.len());
            path.push(cursor);
            let unmet = (remaining[cursor] > 0)
                .then(|| {
                    tasks[cursor]
                        .dependencies
                        .iter()
                        .copied()
                        .find(|&d| d >= n || !done[d])
                })
                .flatten();
            cursor = match unmet.or(queue_head[cursor]) {
                Some(next) if next < n => next,
                _ => break &[],
            };
        };
        if !cycle.is_empty() && (wait_chain.is_empty() || cycle.len() < wait_chain.len()) {
            wait_chain = cycle.to_vec();
        }
        for &t in &path {
            position[t] = None;
        }
    }

    EngineError::Deadlock {
        compute_head,
        memory_heads,
        head_labels,
        wait_chain: wait_chain
            .into_iter()
            .map(|t| (t, Arc::clone(&tasks[t].label)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RpuConfig;
    use crate::task::{ComputeKind, MemoryDirection, TaskGraph};

    /// A configuration with round numbers: 1 Gop/s compute, 1 GB/s memory.
    fn unit_config() -> RpuConfig {
        RpuConfig {
            num_hples: 1,
            vector_length: 1,
            clock_ghz: 1.0,
            vector_memory_bytes: 1 << 30,
            key_memory_bytes: 0,
            scalar_memory_bytes: 0,
            dram_bandwidth_gbps: 1.0,
            num_memory_channels: 1,
            modops_multiplier: 1.0,
            evk_policy: crate::config::EvkPolicy::Streamed,
        }
    }

    #[test]
    fn independent_compute_and_memory_overlap() {
        // 1e9 ops (1 s) and 1e9 bytes (1 s) with no dependency: runtime 1 s.
        let mut g = TaskGraph::new();
        g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![], "ntt", "P1");
        g.push_memory(MemoryDirection::Load, 1_000_000_000, vec![], "load", "P1");
        let result = RpuEngine::new(unit_config()).execute(&g).unwrap();
        assert!((result.stats.runtime_seconds - 1.0).abs() < 1e-9);
        assert!((result.stats.compute_busy_seconds - 1.0).abs() < 1e-9);
        assert!((result.stats.memory_busy_seconds - 1.0).abs() < 1e-9);
        assert!(result.stats.compute_idle_fraction() < 1e-9);
    }

    #[test]
    fn dependent_tasks_serialize() {
        // Load (1 s) then compute (1 s) depending on it: runtime 2 s, compute
        // idle 50%.
        let mut g = TaskGraph::new();
        let load = g.push_memory(MemoryDirection::Load, 1_000_000_000, vec![], "load", "P1");
        g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![load], "ntt", "P1");
        let result = RpuEngine::new(unit_config()).execute(&g).unwrap();
        assert!((result.stats.runtime_seconds - 2.0).abs() < 1e-9);
        assert!((result.stats.compute_idle_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn in_order_queues_respect_program_order() {
        // Two memory tasks: the second is independent but must wait for the
        // first (in-order queue), so memory time is 2 s even though only the
        // first is needed by the compute task.
        let mut g = TaskGraph::new();
        let load1 = g.push_memory(MemoryDirection::Load, 1_000_000_000, vec![], "load1", "P1");
        g.push_memory(
            MemoryDirection::Store,
            1_000_000_000,
            vec![],
            "store2",
            "P1",
        );
        g.push_compute(ComputeKind::Ntt, 500_000_000, vec![load1], "ntt", "P1");
        let result = RpuEngine::new(unit_config()).execute(&g).unwrap();
        // Memory channel: 0-1 load, 1-2 store. Compute: 1-1.5.
        assert!((result.stats.runtime_seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_channels_bypass_a_dependency_blocked_head() {
        // Program order: compute C0 (1 s), store S of C0's result, load L
        // (independent), compute C1 needing L. With one channel the in-order
        // memory queue holds L behind the dep-blocked S: S 1-2, L 2-3,
        // C1 3-4 — runtime 4 s. With S and L on different channels the bus
        // grants L immediately (head-of-line bypass): L 0-1, C1 1-2, S 1-2 —
        // runtime 2 s. The aggregate bandwidth never changed.
        let build = |s_channel: Option<usize>, l_channel: Option<usize>| {
            let mut g = TaskGraph::new();
            let c0 = g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![], "c0", "P1");
            g.push_memory_on(
                MemoryDirection::Store,
                1_000_000_000,
                vec![c0],
                "store s",
                "P1",
                s_channel,
            );
            let l = g.push_memory_on(
                MemoryDirection::Load,
                1_000_000_000,
                vec![],
                "load l",
                "P1",
                l_channel,
            );
            g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![l], "c1", "P1");
            g
        };
        let single = RpuEngine::new(unit_config())
            .execute(&build(None, None))
            .unwrap();
        assert!((single.stats.runtime_seconds - 4.0).abs() < 1e-9);
        let dual = RpuEngine::new(unit_config().with_memory_channels(2))
            .execute(&build(Some(0), Some(1)))
            .unwrap();
        assert!((dual.stats.runtime_seconds - 2.0).abs() < 1e-9);
        assert_eq!(dual.stats.memory_channel_count(), 2);
        assert!((dual.stats.memory_channel_busy_seconds[0] - 1.0).abs() < 1e-9);
        assert!((dual.stats.memory_channel_busy_seconds[1] - 1.0).abs() < 1e-9);
        // The per-channel accounting sums to the aggregate busy time.
        assert!(
            (dual.stats.memory_channel_busy_seconds.iter().sum::<f64>()
                - dual.stats.memory_busy_seconds)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn channel_hints_override_the_label_map() {
        // Two identical labels with different hints land on different
        // channels; without hints the identical labels share one channel.
        let mut g = TaskGraph::new();
        g.push_memory_on(MemoryDirection::Load, 10, vec![], "same", "P1", Some(0));
        g.push_memory_on(MemoryDirection::Load, 10, vec![], "same", "P1", Some(3));
        let engine = RpuEngine::new(unit_config().with_memory_channels(4));
        let result = engine.execute(&g).unwrap();
        let channels: Vec<usize> = result
            .trace
            .records()
            .iter()
            .filter_map(|r| r.queue.channel())
            .collect();
        assert_eq!(channels, vec![0, 3]);
        // Hints wrap modulo the configured channel count.
        let mut g2 = TaskGraph::new();
        g2.push_memory_on(MemoryDirection::Load, 10, vec![], "x", "P1", Some(7));
        let r2 = RpuEngine::new(unit_config().with_memory_channels(2))
            .execute(&g2)
            .unwrap();
        assert_eq!(r2.trace.records()[0].queue.channel(), Some(1));
    }

    #[test]
    fn doubling_bandwidth_halves_memory_bound_runtime() {
        let mut g = TaskGraph::new();
        let load = g.push_memory(MemoryDirection::Load, 2_000_000_000, vec![], "load", "P1");
        g.push_compute(ComputeKind::Ntt, 100_000_000, vec![load], "ntt", "P1");
        let slow = RpuEngine::new(unit_config()).execute(&g).unwrap();
        let fast = RpuEngine::new(unit_config().with_bandwidth(2.0))
            .execute(&g)
            .unwrap();
        assert!(slow.stats.runtime_seconds > 1.9);
        assert!(fast.stats.runtime_seconds < 1.2);
    }

    #[test]
    fn doubling_modops_halves_compute_bound_runtime() {
        let mut g = TaskGraph::new();
        g.push_compute(ComputeKind::Ntt, 2_000_000_000, vec![], "ntt", "P1");
        let slow = RpuEngine::new(unit_config()).execute(&g).unwrap();
        let fast = RpuEngine::new(unit_config().with_modops(2.0))
            .execute(&g)
            .unwrap();
        assert!((slow.stats.runtime_seconds - 2.0).abs() < 1e-9);
        assert!((fast.stats.runtime_seconds - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trace_records_every_task() {
        let mut g = TaskGraph::new();
        let a = g.push_memory(MemoryDirection::Load, 10, vec![], "load", "P1");
        let b = g.push_compute(ComputeKind::Intt, 10, vec![a], "intt", "P1");
        g.push_memory(MemoryDirection::Store, 10, vec![b], "store", "P5");
        let result = RpuEngine::new(unit_config()).execute(&g).unwrap();
        assert_eq!(result.trace.records().len(), 3);
        let spans = result.trace.stage_spans();
        assert_eq!(spans.len(), 2);
    }

    #[test]
    fn empty_graph_runs_in_zero_time() {
        let g = TaskGraph::new();
        let result = RpuEngine::new(unit_config()).execute(&g).unwrap();
        assert_eq!(result.stats.runtime_seconds, 0.0);
        assert!(result.trace.records().is_empty());
    }

    #[test]
    fn cross_queue_priority_inversion_is_reported_as_deadlock() {
        // Compute head depends on the *second* memory task while the first
        // memory task depends on the compute head: no head can start.
        use crate::task::{Task, TaskKind};
        let tasks = vec![
            Task {
                id: 0,
                kind: TaskKind::Compute {
                    kind: ComputeKind::Ntt,
                    ops: 10,
                },
                dependencies: vec![2],
                label: "c".into(),
                stage: "P1".into(),
                channel: None,
            },
            Task {
                id: 1,
                kind: TaskKind::Memory {
                    direction: MemoryDirection::Load,
                    bytes: 10,
                },
                dependencies: vec![0],
                label: "m1".into(),
                stage: "P1".into(),
                channel: None,
            },
            Task {
                id: 2,
                kind: TaskKind::Memory {
                    direction: MemoryDirection::Load,
                    bytes: 10,
                },
                dependencies: vec![],
                label: "m2".into(),
                stage: "P1".into(),
                channel: None,
            },
        ];
        // The validating constructor rejects the forward dependency outright…
        assert!(TaskGraph::from_tasks(tasks.clone()).is_err());

        // …but a buggy generator bypassing validation reaches the engine,
        // which must report an enriched deadlock: the blocked heads by label
        // and the shortest wait-for cycle, citing the matching static lint.
        let g = TaskGraph::from_tasks_unchecked(tasks);
        let err = RpuEngine::new(unit_config()).execute(&g).unwrap_err();
        let EngineError::Deadlock {
            compute_head,
            memory_heads,
            head_labels,
            wait_chain,
        } = &err
        else {
            panic!("expected a deadlock, got {err:?}");
        };
        assert_eq!(*compute_head, Some(0));
        assert_eq!(memory_heads, &vec![(0, 1)]);
        assert_eq!(head_labels.len(), 2);
        assert_eq!(&*head_labels[0].1, "c");
        // The cycle: c waits on m2, m2 is stuck behind its queue head m1,
        // m1 waits on... back to m2 — the minimal cycle is m2 -> m1 -> ... ;
        // whichever rotation is reported, it must close and stay minimal.
        assert!(
            wait_chain.len() >= 2 && wait_chain.len() <= 3,
            "{wait_chain:?}"
        );
        let text = err.to_string();
        assert!(
            text.contains("D001") && text.contains("docs/LINTS.md"),
            "{text}"
        );
        assert!(text.contains("`c`") && text.contains("m1"), "{text}");

        // And the static lint agrees with the runtime verdict.
        let diagnostics = crate::verify::lint_graph(&g, &RpuEngine::new(unit_config()));
        assert!(diagnostics
            .iter()
            .any(|d| d.code == crate::verify::codes::DEADLOCK_CYCLE));
    }

    #[test]
    fn degenerate_rates_are_errors_not_hangs() {
        // A NaN finish time never compares `<=` the next event time, so a
        // loop without the progress guarantee spins on it forever; a zero
        // rate makes it infinite. Both must surface as errors.
        let mut g = TaskGraph::new();
        let load = g.push_memory(MemoryDirection::Load, 1000, vec![], "load", "P1");
        g.push_compute(ComputeKind::Ntt, 1000, vec![load], "ntt", "P1");
        for config in [
            unit_config().with_bandwidth(f64::NAN),
            unit_config().with_modops(f64::NAN),
            unit_config().with_bandwidth(0.0),
            unit_config().with_modops(0.0),
        ] {
            let engine = RpuEngine::new(config);
            let err = engine.execute_stats(&g).unwrap_err();
            assert!(matches!(err, EngineError::NonFiniteTime { .. }), "{err}");
            assert!(err.to_string().contains("finite and positive"), "{err}");
            assert_eq!(engine.execute(&g).unwrap_err().to_string(), err.to_string());
        }
    }

    #[test]
    fn a_dangling_dependency_deadlocks_instead_of_panicking() {
        let mut g = TaskGraph::new();
        g.push_compute(ComputeKind::Ntt, 10, vec![], "c", "P1");
        let mut tasks = g.tasks().to_vec();
        tasks[0].dependencies = vec![7];
        let g = TaskGraph::from_tasks_unchecked(tasks);
        let err = RpuEngine::new(unit_config()).execute(&g).unwrap_err();
        assert!(
            matches!(&err, EngineError::Deadlock { compute_head: Some(0), wait_chain, .. } if wait_chain.is_empty()),
            "{err:?}"
        );
    }

    #[test]
    fn multi_queue_issue_respects_dependencies() {
        // A serial chain alternating between the compute queue and one
        // pinned memory channel must execute strictly in dependency order
        // even when other channels are free.
        let mut g = TaskGraph::new();
        let c = g.push_compute(ComputeKind::Ntt, 10, vec![], "c", "P1");
        let m1 = g.push_memory_on(MemoryDirection::Load, 10, vec![c], "m1", "P1", Some(0));
        let blocked = g.push_compute(ComputeKind::Ntt, 10, vec![m1], "c2", "P1");
        g.push_memory_on(
            MemoryDirection::Load,
            10,
            vec![blocked],
            "m2",
            "P1",
            Some(0),
        );
        let result = RpuEngine::new(unit_config().with_memory_channels(2))
            .execute(&g)
            .unwrap();
        assert_eq!(result.trace.records().len(), 4);
        let finish: Vec<f64> = result
            .trace
            .records()
            .iter()
            .map(|r| r.end_seconds)
            .collect();
        assert!(finish.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }
}
