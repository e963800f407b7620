//! The compiled execution plan of a task graph.
//!
//! HKS is data-oblivious: the queue a task waits in and the tasks its
//! retirement releases depend only on the graph and the channel placement,
//! never on bandwidth or MODOPS. An [`ExecPlan`] holds exactly that —
//! the compute queue, one memory queue per channel, each task's dependency
//! count and the dependents CSR — compiled once per
//! `(graph, channel map, channel count)`. The engine, the symbolic executor
//! behind [`crate::analytic`], [`crate::bound`] and the deadlock proof in
//! [`crate::verify`] all run on `&ExecPlan`; their graph-only entry points
//! ([`RpuEngine::execute`], [`RpuEngine::bounds`], ...) compile a fresh one
//! per call. Label hashing ([`ChannelMap::channel_for`]) happens only here.
//!
//! The channel-independent half is shared: [`ExecPlan::rechannel`] places
//! the same graph over another channel count without copying it. Tasks are
//! named by their position in the graph (their id in any graph
//! [`TaskGraph::from_tasks`] accepts), stored as `u32`.

use crate::channel::ChannelMap;
use crate::engine::RpuEngine;
use crate::stats::ExecutionStats;
use crate::task::{TaskGraph, TaskId};
use std::sync::Arc;

/// The channel-independent half of a plan.
#[derive(Debug)]
struct PlanCore {
    compute_queue: Vec<u32>,
    dependency_count: Vec<u32>,
    dependent_offsets: Vec<u32>,
    dependents: Vec<u32>,
    total_ops: u64,
    total_bytes: (u64, u64),
}

impl PlanCore {
    fn new(graph: &TaskGraph) -> Self {
        let tasks = graph.tasks();
        let n = tasks.len();
        assert!(n < u32::MAX as usize, "{n} tasks overflow u32 task ids");
        // An out-of-range dependency still counts — its task never becomes
        // ready, which the engine reports as a deadlock — but has no
        // dependents entry to index out of bounds with.
        let mut dependent_offsets = vec![0u32; n + 1];
        for &d in tasks.iter().flat_map(|t| &t.dependencies) {
            if d < n {
                dependent_offsets[d + 1] += 1;
            }
        }
        for i in 0..n {
            dependent_offsets[i + 1] += dependent_offsets[i];
        }
        let mut dependents = vec![0u32; dependent_offsets[n] as usize];
        let mut cursor = dependent_offsets.clone();
        for (at, task) in (0u32..).zip(tasks) {
            for &d in task.dependencies.iter().filter(|&&d| d < n) {
                dependents[cursor[d] as usize] = at;
                cursor[d] += 1;
            }
        }
        Self {
            compute_queue: (0u32..)
                .zip(tasks)
                .filter(|(_, t)| t.is_compute())
                .map(|(at, _)| at)
                .collect(),
            dependency_count: tasks.iter().map(|t| t.dependencies.len() as u32).collect(),
            dependent_offsets,
            dependents,
            total_ops: graph.total_ops(),
            total_bytes: graph.total_bytes(),
        }
    }
}

/// The queues and dependency structure of one graph under one channel
/// placement: everything a run needs that bandwidth and MODOPS cannot
/// change. See the [module docs](self).
#[derive(Debug)]
pub struct ExecPlan {
    core: Arc<PlanCore>,
    channel_map: ChannelMap,
    memory_queues: Vec<Vec<u32>>,
}

impl ExecPlan {
    /// Compiles `graph` under `channel_map` for `channels` memory channels
    /// (at least one). A memory task runs on its channel hint, else on
    /// `channel_map.channel_for(label)`, either reduced modulo `channels`.
    pub fn new(graph: &TaskGraph, channel_map: &ChannelMap, channels: usize) -> Self {
        Self::place(Arc::new(PlanCore::new(graph)), graph, channel_map, channels)
    }

    /// The same graph placed over another channel count or map, sharing
    /// this plan's channel-independent half. `graph` must be the graph the
    /// plan was compiled from.
    pub fn rechannel(&self, graph: &TaskGraph, channel_map: &ChannelMap, channels: usize) -> Self {
        assert_eq!(
            graph.len(),
            self.task_count(),
            "rechannel takes the plan's own graph"
        );
        Self::place(Arc::clone(&self.core), graph, channel_map, channels)
    }

    fn place(core: Arc<PlanCore>, graph: &TaskGraph, map: &ChannelMap, channels: usize) -> Self {
        let channels = channels.max(1);
        let mut memory_queues = vec![Vec::new(); channels];
        for (at, task) in (0u32..).zip(graph.tasks()).filter(|(_, t)| t.is_memory()) {
            let channel = task.channel.unwrap_or_else(|| map.channel_for(&task.label));
            memory_queues[channel % channels].push(at);
        }
        Self {
            core,
            channel_map: map.clone(),
            memory_queues,
        }
    }

    /// Number of tasks in the compiled graph.
    pub(crate) fn task_count(&self) -> usize {
        self.core.dependency_count.len()
    }

    /// Number of memory channels the plan places transfers over.
    pub fn channels(&self) -> usize {
        self.memory_queues.len()
    }

    /// The buffer-to-channel map the plan was placed with.
    pub fn channel_map(&self) -> &ChannelMap {
        &self.channel_map
    }

    /// The compute tasks in program (issue) order.
    pub(crate) fn compute_queue(&self) -> &[u32] {
        &self.core.compute_queue
    }

    /// Each channel's memory tasks in program (issue) order.
    pub fn memory_queues(&self) -> &[Vec<u32>] {
        &self.memory_queues
    }

    /// Total number of memory tasks over all channels.
    pub(crate) fn memory_task_count(&self) -> usize {
        self.memory_queues.iter().map(Vec::len).sum()
    }

    /// Each task's dependency count.
    pub(crate) fn dependency_counts(&self) -> &[u32] {
        &self.core.dependency_count
    }

    /// The tasks that depend on `task`, in program order.
    pub(crate) fn dependents(&self, task: TaskId) -> &[u32] {
        let offsets = &self.core.dependent_offsets;
        &self.core.dependents[offsets[task] as usize..offsets[task + 1] as usize]
    }

    /// Each memory task's channel, indexed by task (compute tasks read 0).
    pub(crate) fn channel_index(&self) -> Vec<u32> {
        let mut index = vec![0u32; self.task_count()];
        for (c, queue) in (0u32..).zip(&self.memory_queues) {
            for &t in queue {
                index[t as usize] = c;
            }
        }
        index
    }

    /// The statistics of a run that has not started: task, operation and
    /// byte counts filled in, every time zero.
    pub(crate) fn unstarted_stats(&self) -> ExecutionStats {
        let (bytes_loaded, bytes_stored) = self.core.total_bytes;
        ExecutionStats {
            compute_tasks: self.core.compute_queue.len(),
            memory_tasks: self.memory_task_count(),
            total_ops: self.core.total_ops,
            bytes_loaded,
            bytes_stored,
            memory_channel_busy_seconds: vec![0.0; self.channels()],
            ..ExecutionStats::default()
        }
    }
}

impl RpuEngine {
    /// Compiles `graph` under this engine's channel map and channel count —
    /// the plan every graph-only entry point builds per call. Compile once
    /// to run one schedule many times.
    pub fn plan(&self, graph: &TaskGraph) -> ExecPlan {
        let channels = self.config().memory_channel_count();
        ExecPlan::new(graph, self.channel_map(), channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{ComputeKind, MemoryDirection};

    #[test]
    fn queues_keep_program_order_and_hints_wrap() {
        let mut g = TaskGraph::new();
        let a = g.push_memory_on(MemoryDirection::Load, 1, vec![], "a", "P1", Some(1));
        let c = g.push_compute(ComputeKind::Ntt, 1, vec![a], "c", "P1");
        g.push_memory_on(MemoryDirection::Store, 1, vec![c], "b", "P1", Some(3));
        g.push_memory_on(MemoryDirection::Load, 1, vec![a], "d", "P1", Some(0));
        let plan = ExecPlan::new(&g, &ChannelMap::hashed(2), 2);
        assert_eq!(plan.compute_queue(), &[1]);
        assert_eq!(plan.memory_queues(), &[vec![3], vec![0, 2]]);
        assert_eq!(plan.dependents(0), &[1, 3]);
        assert_eq!(plan.dependency_counts(), &[0, 1, 1, 1]);
        assert_eq!(plan.channel_index(), vec![1, 0, 1, 0]);

        let wide = plan.rechannel(&g, &ChannelMap::hashed(4), 4);
        assert!(Arc::ptr_eq(&wide.core, &plan.core));
        assert_eq!(wide.memory_queues()[3], vec![2]);
        assert_eq!(wide.memory_task_count(), 3);
    }

    #[test]
    fn dangling_dependencies_count_but_have_no_dependents_entry() {
        let mut tasks = TaskGraph::new();
        tasks.push_compute(ComputeKind::Ntt, 1, vec![], "c", "P1");
        let mut broken = tasks.tasks().to_vec();
        broken[0].dependencies = vec![7];
        let plan = ExecPlan::new(
            &TaskGraph::from_tasks_unchecked(broken),
            &ChannelMap::hashed(1),
            1,
        );
        assert_eq!(plan.dependency_counts(), &[1]);
        assert!(plan.dependents(0).is_empty());
    }
}
