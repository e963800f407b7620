//! The compiled execution plan of a task graph.
//!
//! HKS is data-oblivious: the queue a task waits in and the tasks its
//! retirement releases depend only on the graph and the channel placement,
//! never on bandwidth or MODOPS. An [`ExecPlan`] holds exactly that —
//! the compute queue, one memory queue per channel, each task's dependency
//! count and the dependents CSR — compiled once per
//! `(graph, channel map, channel count)`. The engine, [`crate::analytic`],
//! [`crate::bound`] and the deadlock proof in [`crate::verify`] all run on
//! `&ExecPlan`; their graph-only entry points ([`RpuEngine::execute`],
//! [`RpuEngine::bounds`], ...) compile a fresh one per call.
//!
//! The channel-independent half is shared: [`ExecPlan::rechannel`] places
//! the same graph over another channel count without copying it. Tasks are
//! named by their position in the graph (their id in any graph
//! [`TaskGraph::from_tasks`] accepts), stored as `u32`.
//!
//! That half also owns the graph's [`BufferKeys`]: every memory task's
//! buffer name interned once into a dense buffer id, built on first use and
//! shared by every rechanneled plan. Placement over several channels and the
//! `ciflow::lint` buffer and placement passes read it, with each task's
//! [`Verb`] read off its kind; a one-channel plan that is never linted never
//! builds it.

use crate::channel::{fnv1a, ChannelMap};
use crate::engine::RpuEngine;
use crate::stats::ExecutionStats;
use crate::task::{Task, TaskGraph, TaskId, Verb};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// One memory task's key: its buffer and its verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryKey {
    /// Dense id of the buffer the task names.
    pub buffer: u32,
    /// What the task does with the buffer.
    pub verb: Verb,
}

/// The buffers of one graph, interned once: each memory task's buffer id,
/// and each distinct buffer's first task (whose label is its name) and
/// FNV-1a hash.
#[derive(Debug)]
pub struct BufferKeys {
    /// Per memory task, in program order: its buffer id.
    buffers: Vec<u32>,
    /// Per buffer: the first task naming it.
    names: Vec<u32>,
    hashes: Vec<u64>,
}

/// A buffer name keyed by its precomputed FNV-1a hash, so interning hashes
/// each name once.
#[derive(PartialEq, Eq)]
struct Hashed<'a>(u64, &'a str);

impl Hash for Hashed<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0);
    }
}

/// Passes a [`Hashed`] key's hash through unchanged.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only Hashed keys are hashed");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

impl BufferKeys {
    /// Interns the buffer names of `graph`'s `memory_tasks` memory tasks.
    /// The table lives as long as the plan core, so it is sized exactly.
    fn new(graph: &TaskGraph, memory_tasks: usize) -> Self {
        let mut ids: HashMap<Hashed, u32, BuildHasherDefault<PassThrough>> = HashMap::default();
        let mut keys = Self {
            buffers: Vec::with_capacity(memory_tasks),
            names: Vec::new(),
            hashes: Vec::new(),
        };
        for (at, task) in (0u32..).zip(graph.tasks()).filter(|(_, t)| t.is_memory()) {
            let name: &str = &task.label;
            let hash = fnv1a(name.as_bytes());
            let fresh = keys.names.len() as u32;
            let buffer = *ids.entry(Hashed(hash, name)).or_insert_with(|| {
                keys.names.push(at);
                keys.hashes.push(hash);
                fresh
            });
            keys.buffers.push(buffer);
        }
        keys.names.shrink_to_fit();
        keys.hashes.shrink_to_fit();
        keys
    }

    /// Every memory task of `graph` (the graph the keys were built from) in
    /// program order: its position, the task and its key.
    pub fn memory_tasks<'g>(
        &'g self,
        graph: &'g TaskGraph,
    ) -> impl Iterator<Item = (u32, &'g Task, MemoryKey)> + 'g {
        (0u32..)
            .zip(graph.tasks())
            .filter_map(|(at, task)| Some((at, task, task.verb()?)))
            .zip(&self.buffers)
            .map(|((at, task, verb), &buffer)| (at, task, MemoryKey { buffer, verb }))
    }

    /// Number of memory tasks.
    pub fn memory_task_count(&self) -> usize {
        self.buffers.len()
    }

    /// Number of distinct buffers; ids run over `0..buffer_count()`.
    pub fn buffer_count(&self) -> usize {
        self.names.len()
    }

    /// The name of `buffer`, read out of `graph` (the graph the keys were
    /// built from).
    pub fn name<'g>(&self, graph: &'g TaskGraph, buffer: u32) -> &'g str {
        &graph.tasks()[self.names[buffer as usize] as usize].label
    }
}

/// A dependents table in compressed sparse row form: the tasks a task's
/// finish is pushed to, in program order, for every task of one graph.
#[derive(Debug)]
struct DependentsTable {
    offsets: Vec<u32>,
    dependents: Vec<u32>,
}

impl DependentsTable {
    /// The table of `n` tasks in which task `at` depends on each task of
    /// `dependencies(at)`, and whether every dependency points backward. A
    /// dependency out of range has no entry (and does not point backward).
    fn from_dependencies<'a>(
        n: usize,
        dependencies: impl Fn(usize) -> &'a [TaskId],
    ) -> (Self, bool) {
        let mut offsets = vec![0u32; n + 1];
        let mut backward = true;
        for at in 0..n {
            for &d in dependencies(at) {
                backward &= d < at;
                if d < n {
                    offsets[d + 1] += 1;
                }
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut dependents = vec![0u32; offsets[n] as usize];
        let mut cursor = offsets.clone();
        for at in 0..n {
            for &d in dependencies(at).iter().filter(|&&d| d < n) {
                dependents[cursor[d] as usize] = at as u32;
                cursor[d] += 1;
            }
        }
        let table = Self {
            offsets,
            dependents,
        };
        (table, backward)
    }

    /// The tasks that depend on `task`, in program order.
    fn of(&self, task: TaskId) -> &[u32] {
        &self.dependents[self.offsets[task] as usize..self.offsets[task + 1] as usize]
    }
}

/// The channel-independent half of a plan.
#[derive(Debug)]
struct PlanCore {
    compute_queue: Vec<u32>,
    dependency_count: Vec<u32>,
    dependents: DependentsTable,
    /// Every dependency points backward (so also into the graph).
    in_program_order: bool,
    total_ops: u64,
    total_bytes: (u64, u64),
    keys: OnceLock<BufferKeys>,
}

impl PlanCore {
    fn new(graph: &TaskGraph) -> Self {
        let tasks = graph.tasks();
        let n = tasks.len();
        assert!(n < u32::MAX as usize, "{n} tasks overflow u32 task ids");
        // An out-of-range dependency still counts — its task never becomes
        // ready, which the engine reports as a deadlock — but has no
        // dependents entry to index out of bounds with.
        let (dependents, in_program_order) =
            DependentsTable::from_dependencies(n, |at| &tasks[at].dependencies);
        Self {
            compute_queue: (0u32..)
                .zip(tasks)
                .filter(|(_, t)| t.is_compute())
                .map(|(at, _)| at)
                .collect(),
            dependency_count: tasks.iter().map(|t| t.dependencies.len() as u32).collect(),
            in_program_order,
            dependents,
            total_ops: graph.total_ops(),
            total_bytes: graph.total_bytes(),
            keys: OnceLock::new(),
        }
    }

    fn memory_task_count(&self) -> usize {
        self.dependency_count.len() - self.compute_queue.len()
    }

    /// The graph's interned buffers, built on first use.
    fn keys(&self, graph: &TaskGraph) -> &BufferKeys {
        self.keys
            .get_or_init(|| BufferKeys::new(graph, self.memory_task_count()))
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
    /// `channel_map.channel_for(buffer)`, either reduced modulo `channels`;
    /// [`ChannelMap::channel_for`] stays the reference the placement agrees
    /// with for every task.
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

    /// Places every memory task: its channel hint, else its buffer's
    /// channel, worked out once per distinct buffer. One channel takes every
    /// transfer whatever its channel, so it skips the keys altogether.
    fn place(core: Arc<PlanCore>, graph: &TaskGraph, map: &ChannelMap, channels: usize) -> Self {
        let channels = channels.max(1);
        let tasks = graph.tasks();
        let memory_queues = if channels == 1 {
            let mut queue = Vec::with_capacity(core.memory_task_count());
            queue.extend(
                (0u32..)
                    .zip(tasks)
                    .filter(|(_, t)| t.is_memory())
                    .map(|(at, _)| at),
            );
            vec![queue]
        } else {
            let keys = core.keys(graph);
            let buffer_channel: Vec<usize> = (0..keys.names.len() as u32)
                .map(|b| map.channel_for_buffer(keys.name(graph, b), keys.hashes[b as usize]))
                .collect();
            let mut queues = vec![Vec::new(); channels];
            for (at, task, key) in keys.memory_tasks(graph) {
                let channel = task.channel.unwrap_or(buffer_channel[key.buffer as usize]);
                queues[channel % channels].push(at);
            }
            // Cached plans live as long as their schedule: drop the growth
            // slack.
            for queue in &mut queues {
                queue.shrink_to_fit();
            }
            queues
        };
        Self {
            core,
            channel_map: map.clone(),
            memory_queues,
        }
    }

    /// The buffers of `graph` — the graph the plan was compiled from —
    /// interned once per plan core. See the [module docs](self).
    pub fn buffer_keys(&self, graph: &TaskGraph) -> &BufferKeys {
        assert_eq!(
            graph.len(),
            self.task_count(),
            "buffer_keys takes the plan's own graph"
        );
        self.core.keys(graph)
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
        self.core.memory_task_count()
    }

    /// Each task's dependency count.
    pub(crate) fn dependency_counts(&self) -> &[u32] {
        &self.core.dependency_count
    }

    /// The tasks that depend on `task`, in program order.
    pub(crate) fn dependents(&self, task: TaskId) -> &[u32] {
        self.core.dependents.of(task)
    }

    /// Whether the program-order fold is this plan's exact timeline: one
    /// memory channel, and every dependency points backward. Such a plan
    /// cannot deadlock, and the event loop services its queues in program
    /// order whatever the timing. Graphs from [`TaskGraph::from_tasks`]
    /// always qualify on one channel, and so do the `push_*` builders'
    /// wherever their debug assertion holds.
    pub(crate) fn folds(&self) -> bool {
        self.channels() == 1 && self.core.in_program_order
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
    use crate::task::ComputeKind;

    #[test]
    fn queues_keep_program_order_and_hints_wrap() {
        let mut g = TaskGraph::new();
        let a = g.push_memory_on(Verb::Load, 1, vec![], "a", "P1", Some(1));
        let c = g.push_compute(ComputeKind::Ntt, 1, vec![a], "c", "P1");
        g.push_memory_on(Verb::Store, 1, vec![c], "b", "P1", Some(3));
        g.push_memory_on(Verb::Load, 1, vec![a], "d", "P1", Some(0));
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
    fn buffer_keys_intern_canonical_names_once_per_core() {
        let mut g = TaskGraph::new();
        g.push_memory(Verb::Spill, 1, vec![], "acc0[1]", "P1");
        g.push_compute(ComputeKind::Ntt, 1, vec![], "c", "P1");
        g.push_memory(Verb::Load, 1, vec![], "acc0[1]", "P1");
        g.push_memory(Verb::Load, 1, vec![], "k2:acc0[1]", "P1");
        let plan = ExecPlan::new(&g, &ChannelMap::hashed(1), 1);
        assert!(
            plan.core.keys.get().is_none(),
            "one channel interns nothing"
        );
        let keys = plan.buffer_keys(&g);
        let interned: Vec<(u32, &str, Verb)> = keys
            .memory_tasks(&g)
            .map(|(at, _, key)| (at, keys.name(&g, key.buffer), key.verb))
            .collect();
        assert_eq!(
            interned,
            [
                (0, "acc0[1]", Verb::Spill),
                (2, "acc0[1]", Verb::Load),
                (3, "k2:acc0[1]", Verb::Load),
            ]
        );
        assert_eq!((keys.memory_task_count(), keys.buffer_count()), (3, 2));
        let wide = plan.rechannel(&g, &ChannelMap::hashed(4), 4);
        assert!(std::ptr::eq(wide.buffer_keys(&g), keys));
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
