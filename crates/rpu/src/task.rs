//! Tasks and task graphs.
//!
//! The CiFlow software framework (paper §V-C) decomposes an HKS kernel into
//! *compute tasks* (one per kernel invocation: an (i)NTT over one tower, a
//! BConv of one digit, a point-wise multiply, …) and *memory tasks* (DRAM
//! loads and stores of named buffers), connected by explicit dependencies.
//! The RPU engine executes a [`TaskGraph`] with its decoupled compute and
//! memory queues.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifier of a task within one task graph.
pub type TaskId = usize;

/// An interned task label: a cheaply clonable, immutable shared string.
///
/// Task graphs carry two strings per task (buffer label and stage name) that
/// are copied every time a graph is spliced ([`TaskGraph::append_offset`]),
/// traced, or cloned out of a schedule cache. Interning them as `Arc<str>`
/// turns each of those copies into a reference-count bump instead of a heap
/// allocation; stage names in particular are shared by hundreds of tasks.
/// `Label` dereferences to `&str`, so all string inspection (channel-map
/// hashing, forwarding's per-tower label matching) is unchanged.
pub type Label = Arc<str>;

/// The compute kernel a compute task runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputeKind {
    /// Inverse NTT of one tower.
    Intt,
    /// Forward NTT of one tower.
    Ntt,
    /// Basis conversion (of one digit, or of one output tower's slice).
    BasisConversion,
    /// Point-wise multiplication (e.g. applying an evk tower).
    PointwiseMul,
    /// Point-wise multiply-accumulate.
    PointwiseMac,
    /// Point-wise addition (reduction of partial products).
    PointwiseAdd,
    /// Per-tower scalar multiplication (ModDown `P^{-1}` scaling, rescale).
    ScalarMul,
}

impl std::fmt::Display for ComputeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ComputeKind::Intt => "INTT",
            ComputeKind::Ntt => "NTT",
            ComputeKind::BasisConversion => "BConv",
            ComputeKind::PointwiseMul => "Mul",
            ComputeKind::PointwiseMac => "Mac",
            ComputeKind::PointwiseAdd => "Add",
            ComputeKind::ScalarMul => "ScalarMul",
        };
        write!(f, "{name}")
    }
}

/// Direction of a memory task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryDirection {
    /// DRAM → on-chip.
    Load,
    /// On-chip → DRAM.
    Store,
}

/// What a task does and how much it costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TaskKind {
    /// A kernel executed on the HPLEs.
    Compute {
        /// Which kernel.
        kind: ComputeKind,
        /// Modular operations charged to the compute pipeline.
        ops: u64,
    },
    /// A DRAM transfer.
    Memory {
        /// Load or store.
        direction: MemoryDirection,
        /// Bytes moved over the off-chip interface.
        bytes: u64,
    },
}

/// One node of a task graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Task id (equal to the task's index in the graph).
    pub id: TaskId,
    /// What the task does.
    pub kind: TaskKind,
    /// Ids of tasks that must finish before this task may start.
    pub dependencies: Vec<TaskId>,
    /// Human-readable label (buffer or kernel name), used in traces. For
    /// memory tasks this is also the *placement key*: the engine's
    /// [`ChannelMap`](crate::channel::ChannelMap) hashes it to pick the
    /// task's memory channel unless [`channel`](Self::channel) overrides it.
    /// Interned (see [`Label`]) so graph splicing and tracing clone a
    /// reference count, not a heap string.
    pub label: Label,
    /// HKS stage name (e.g. "ModUp-P2") used to group the timing diagrams.
    /// Interned like [`label`](Self::label).
    pub stage: Label,
    /// Explicit memory-channel hint. `None` (the default for every
    /// [`TaskGraph::push_memory`] task) defers placement to the engine's
    /// label-driven channel map; `Some(c)` pins the transfer to channel
    /// `c % num_memory_channels`. Ignored for compute tasks.
    pub channel: Option<usize>,
}

impl Task {
    /// True if this is a compute task.
    pub fn is_compute(&self) -> bool {
        matches!(self.kind, TaskKind::Compute { .. })
    }

    /// True if this is a memory task.
    pub fn is_memory(&self) -> bool {
        matches!(self.kind, TaskKind::Memory { .. })
    }

    /// Modular operations of a compute task (0 for memory tasks).
    pub fn ops(&self) -> u64 {
        match self.kind {
            TaskKind::Compute { ops, .. } => ops,
            TaskKind::Memory { .. } => 0,
        }
    }

    /// Bytes moved by a memory task (0 for compute tasks).
    pub fn bytes(&self) -> u64 {
        match self.kind {
            TaskKind::Memory { bytes, .. } => bytes,
            TaskKind::Compute { .. } => 0,
        }
    }
}

/// Errors detected while validating a task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskGraphError {
    /// A task's id does not match its index.
    IdMismatch {
        /// Index in the task vector.
        index: usize,
        /// Id stored in the task.
        id: TaskId,
    },
    /// A dependency references a task that does not exist or comes later in
    /// program order (the generators always emit causally ordered graphs).
    ForwardDependency {
        /// The dependent task.
        task: TaskId,
        /// The offending dependency.
        dependency: TaskId,
    },
}

impl std::fmt::Display for TaskGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskGraphError::IdMismatch { index, id } => {
                write!(f, "task at index {index} carries id {id}")
            }
            TaskGraphError::ForwardDependency { task, dependency } => write!(
                f,
                "task {task} depends on {dependency}, which is not an earlier task"
            ),
        }
    }
}

impl std::error::Error for TaskGraphError {}

/// How [`TaskGraph::append_offset`] treats one task of the appended graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendAction {
    /// Append the task, adding `extra_deps` (ids already present in the
    /// receiving graph) on top of its remapped dependencies.
    Keep {
        /// Extra dependencies on tasks of the receiving graph.
        extra_deps: Vec<TaskId>,
    },
    /// Drop the task and splice it out of the dependence structure: any
    /// appended task that depended on it inherits its remapped dependencies
    /// plus `extra_deps` instead. Used by graph fusion to elide memory
    /// round-trips (e.g. a store that a later kernel's load would have
    /// re-read) while preserving ordering through the producing tasks.
    Splice {
        /// Dependencies (in the receiving graph) that stand in for the
        /// spliced task.
        extra_deps: Vec<TaskId>,
    },
}

impl AppendAction {
    /// `Keep` with no extra dependencies — the identity append action.
    pub fn keep() -> Self {
        AppendAction::Keep {
            extra_deps: Vec::new(),
        }
    }

    fn extra_deps(&self) -> &[TaskId] {
        match self {
            AppendAction::Keep { extra_deps } | AppendAction::Splice { extra_deps } => extra_deps,
        }
    }
}

/// What one task of an appended graph became in the receiving graph.
#[derive(Debug, Clone, PartialEq, Eq)]
enum AppendMapping {
    /// The task was appended under this id.
    Task(TaskId),
    /// The task was spliced out; these ids stand in for it.
    Spliced(Vec<TaskId>),
}

/// The result of one [`TaskGraph::append_offset`] call: the id remapping from
/// the appended graph into the receiving graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendedGraph {
    mapping: Vec<AppendMapping>,
}

impl AppendedGraph {
    /// The ids in the receiving graph that stand for the appended task `old`:
    /// its new id if it was kept, or the dependencies spliced in for it.
    pub fn resolve(&self, old: TaskId) -> &[TaskId] {
        match &self.mapping[old] {
            AppendMapping::Task(id) => std::slice::from_ref(id),
            AppendMapping::Spliced(deps) => deps,
        }
    }
}

/// A validated, causally ordered list of tasks.
///
/// **Invariant:** every dependency names an *earlier* task. Program order
/// is then a topological order of the dependency and queue-order edges, so
/// on one memory channel the engine's timeline is one program-order fold,
/// which the parametric timeline evaluates instead of the event loop.
/// [`TaskGraph::from_tasks`] rejects a graph that breaks the invariant; the
/// `push_*` builders only `debug_assert!` it, so a release build accepts a
/// forward dependency through them, as does
/// [`TaskGraph::from_tasks_unchecked`]. Such a graph still runs exactly:
/// the engine always runs its event loop, which reports a deadlock if the
/// edge closes a cycle, and the [`ExecPlan`](crate::plan::ExecPlan) detects
/// the forward (or dangling) edge when it is compiled, so the timeline
/// evaluates the graph through the engine too.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    tasks: Vec<Task>,
}

impl TaskGraph {
    /// Creates an empty task graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a graph from a task list, validating ids and dependency order.
    ///
    /// # Errors
    ///
    /// Returns a [`TaskGraphError`] describing the first inconsistency.
    pub fn from_tasks(tasks: Vec<Task>) -> Result<Self, TaskGraphError> {
        for (index, task) in tasks.iter().enumerate() {
            if task.id != index {
                return Err(TaskGraphError::IdMismatch { index, id: task.id });
            }
            for &dep in &task.dependencies {
                if dep >= index {
                    return Err(TaskGraphError::ForwardDependency {
                        task: task.id,
                        dependency: dep,
                    });
                }
            }
        }
        Ok(Self { tasks })
    }

    /// Builds a graph from a task list *without* validating ids or dependency
    /// order. This exists for the static verifier ([`crate::verify`]) and its
    /// tests: malformed graphs — forward dependencies, cross-queue cycles,
    /// dangling edges — can only be constructed through this door, and the
    /// lint passes are the tool that diagnoses them. The engine's event loop
    /// runs an unchecked graph (see the invariant on [`TaskGraph`]), and a
    /// dependency that is out of range never resolves, so it ends in
    /// [`EngineError::Deadlock`](crate::engine::EngineError::Deadlock);
    /// [`crate::verify::lint_structural`] names the bad edge up front.
    pub fn from_tasks_unchecked(tasks: Vec<Task>) -> Self {
        Self { tasks }
    }

    /// Appends a compute task and returns its id. Every dependency must be
    /// an earlier task (checked in debug builds only; see the invariant on
    /// [`TaskGraph`]).
    pub fn push_compute(
        &mut self,
        kind: ComputeKind,
        ops: u64,
        dependencies: Vec<TaskId>,
        label: impl Into<Label>,
        stage: impl Into<Label>,
    ) -> TaskId {
        self.push(
            TaskKind::Compute { kind, ops },
            dependencies,
            label,
            stage,
            None,
        )
    }

    /// Appends a memory task (no channel hint — the engine places it by
    /// label) and returns its id. Dependencies as for
    /// [`TaskGraph::push_compute`].
    pub fn push_memory(
        &mut self,
        direction: MemoryDirection,
        bytes: u64,
        dependencies: Vec<TaskId>,
        label: impl Into<Label>,
        stage: impl Into<Label>,
    ) -> TaskId {
        self.push_memory_on(direction, bytes, dependencies, label, stage, None)
    }

    /// Appends a memory task with an explicit channel hint and returns its
    /// id. `Some(c)` pins the transfer to memory channel
    /// `c % num_memory_channels` regardless of the engine's channel map.
    /// Dependencies as for [`TaskGraph::push_compute`].
    pub fn push_memory_on(
        &mut self,
        direction: MemoryDirection,
        bytes: u64,
        dependencies: Vec<TaskId>,
        label: impl Into<Label>,
        stage: impl Into<Label>,
        channel: Option<usize>,
    ) -> TaskId {
        self.push(
            TaskKind::Memory { direction, bytes },
            dependencies,
            label,
            stage,
            channel,
        )
    }

    fn push(
        &mut self,
        kind: TaskKind,
        dependencies: Vec<TaskId>,
        label: impl Into<Label>,
        stage: impl Into<Label>,
        channel: Option<usize>,
    ) -> TaskId {
        let id = self.tasks.len();
        debug_assert!(dependencies.iter().all(|&d| d < id));
        // Dedupe dependency edges, preserving first-occurrence order: a
        // duplicate edge would silently inflate the engine's remaining-dep
        // counter and the verifier's in-degrees (both count edges, and both
        // also *decrement* per edge, so execution stays correct — but every
        // downstream analysis over `dependencies` would double-count).
        let mut dependencies = dependencies;
        if dependencies.len() > 1 {
            let mut kept = 0;
            for i in 0..dependencies.len() {
                let d = dependencies[i];
                if !dependencies[..kept].contains(&d) {
                    dependencies[kept] = d;
                    kept += 1;
                }
            }
            dependencies.truncate(kept);
        }
        self.tasks.push(Task {
            id,
            kind,
            dependencies,
            label: label.into(),
            stage: stage.into(),
            channel,
        });
        id
    }

    /// All tasks in program order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total modular operations across all compute tasks.
    pub fn total_ops(&self) -> u64 {
        self.tasks.iter().map(Task::ops).sum()
    }

    /// Total bytes moved by memory tasks, split into (loaded, stored).
    pub fn total_bytes(&self) -> (u64, u64) {
        let mut loaded = 0;
        let mut stored = 0;
        for t in &self.tasks {
            if let TaskKind::Memory { direction, bytes } = t.kind {
                match direction {
                    MemoryDirection::Load => loaded += bytes,
                    MemoryDirection::Store => stored += bytes,
                }
            }
        }
        (loaded, stored)
    }

    /// Ids of the tasks no other task depends on — the graph's sinks. When a
    /// fusion layer chains task graphs back-to-back, these are the tasks a
    /// barrier must wait on.
    pub fn terminal_tasks(&self) -> Vec<TaskId> {
        let mut depended_on = vec![false; self.tasks.len()];
        for task in &self.tasks {
            for &dep in &task.dependencies {
                depended_on[dep] = true;
            }
        }
        self.tasks
            .iter()
            .filter(|t| !depended_on[t.id])
            .map(|t| t.id)
            .collect()
    }

    /// Appends `other`'s tasks to this graph, remapping ids and dependencies.
    ///
    /// `action` is consulted once per appended task, in program order:
    /// [`AppendAction::Keep`] appends it (with optional extra dependencies on
    /// tasks already in `self`), [`AppendAction::Splice`] drops it and makes
    /// its consumers inherit its remapped dependencies plus the splice's
    /// `extra_deps`. `label_prefix` is prepended to every appended task's
    /// label (pass `""` to keep labels unchanged).
    ///
    /// This is the graph-fusion primitive behind multi-kernel workload
    /// pipelines: per-kernel graphs are appended one after another, with
    /// cross-kernel dependencies expressed through `extra_deps` (so the
    /// decoupled memory queue can prefetch the next kernel's data under the
    /// current kernel's compute) and redundant boundary transfers elided
    /// through `Splice`.
    ///
    /// # Errors
    ///
    /// Returns [`TaskGraphError::ForwardDependency`] if any `extra_deps` id
    /// does not refer to a task already present in `self` before the call.
    pub fn append_offset<F>(
        &mut self,
        other: &TaskGraph,
        label_prefix: &str,
        mut action: F,
    ) -> Result<AppendedGraph, TaskGraphError>
    where
        F: FnMut(&Task) -> AppendAction,
    {
        let offset = self.tasks.len();
        let mut mapping: Vec<AppendMapping> = Vec::with_capacity(other.tasks.len());
        // Prefixed labels are assembled here, then interned: one allocation
        // per label.
        let mut label = String::from(label_prefix);
        for task in &other.tasks {
            let act = action(task);
            for &dep in act.extra_deps() {
                if dep >= offset {
                    // Report the appended task's id in *its* graph: after a
                    // splice the receiving graph's next slot would mislead.
                    return Err(TaskGraphError::ForwardDependency {
                        task: task.id,
                        dependency: dep,
                    });
                }
            }
            // Remap the task's own dependencies, splicing through dropped
            // tasks, then add the action's extra dependencies.
            let mut deps: Vec<TaskId> = Vec::with_capacity(task.dependencies.len());
            for &old_dep in &task.dependencies {
                match &mapping[old_dep] {
                    AppendMapping::Task(id) => deps.push(*id),
                    AppendMapping::Spliced(stand_ins) => deps.extend(stand_ins.iter().copied()),
                }
            }
            deps.extend(act.extra_deps().iter().copied());
            deps.sort_unstable();
            deps.dedup();
            match act {
                AppendAction::Keep { .. } => {
                    let id = self.tasks.len();
                    self.tasks.push(Task {
                        id,
                        kind: task.kind,
                        dependencies: deps,
                        label: if label_prefix.is_empty() {
                            Arc::clone(&task.label)
                        } else {
                            label.truncate(label_prefix.len());
                            label.push_str(&task.label);
                            Label::from(label.as_str())
                        },
                        stage: Arc::clone(&task.stage),
                        channel: task.channel,
                    });
                    mapping.push(AppendMapping::Task(id));
                }
                AppendAction::Splice { .. } => {
                    mapping.push(AppendMapping::Spliced(deps));
                }
            }
        }
        Ok(AppendedGraph { mapping })
    }

    /// Arithmetic intensity of the whole graph in modular operations per byte
    /// of DRAM traffic (the metric of Table II). Returns `f64::INFINITY` when
    /// there is no DRAM traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        let (loaded, stored) = self.total_bytes();
        let bytes = loaded + stored;
        if bytes == 0 {
            f64::INFINITY
        } else {
            self.total_ops() as f64 / bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> TaskGraph {
        let mut g = TaskGraph::new();
        let load = g.push_memory(MemoryDirection::Load, 1024, vec![], "load x", "ModUp-P1");
        let intt = g.push_compute(ComputeKind::Intt, 5120, vec![load], "intt x", "ModUp-P1");
        let store = g.push_memory(
            MemoryDirection::Store,
            1024,
            vec![intt],
            "store x",
            "ModUp-P1",
        );
        let _ = g.push_compute(
            ComputeKind::PointwiseAdd,
            100,
            vec![intt, store],
            "acc",
            "ModUp-P5",
        );
        g
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let g = sample_graph();
        assert_eq!(g.len(), 4);
        for (i, t) in g.tasks().iter().enumerate() {
            assert_eq!(t.id, i);
        }
        assert!(!g.is_empty());
    }

    #[test]
    fn totals_and_intensity() {
        let g = sample_graph();
        assert_eq!(g.total_ops(), 5220);
        assert_eq!(g.total_bytes(), (1024, 1024));
        assert!((g.arithmetic_intensity() - 5220.0 / 2048.0).abs() < 1e-12);
        let empty = TaskGraph::new();
        assert!(empty.arithmetic_intensity().is_infinite());
    }

    #[test]
    fn task_accessors() {
        let g = sample_graph();
        assert!(g.tasks()[0].is_memory());
        assert!(g.tasks()[1].is_compute());
        assert_eq!(g.tasks()[0].bytes(), 1024);
        assert_eq!(g.tasks()[0].ops(), 0);
        assert_eq!(g.tasks()[1].ops(), 5120);
        assert_eq!(g.tasks()[1].bytes(), 0);
    }

    #[test]
    fn validation_rejects_bad_graphs() {
        let t = Task {
            id: 5,
            kind: TaskKind::Compute {
                kind: ComputeKind::Ntt,
                ops: 1,
            },
            dependencies: vec![],
            label: "x".into(),
            stage: "s".into(),
            channel: None,
        };
        assert!(matches!(
            TaskGraph::from_tasks(vec![t]),
            Err(TaskGraphError::IdMismatch { .. })
        ));
        let t0 = Task {
            id: 0,
            kind: TaskKind::Compute {
                kind: ComputeKind::Ntt,
                ops: 1,
            },
            dependencies: vec![1],
            label: "x".into(),
            stage: "s".into(),
            channel: None,
        };
        assert!(matches!(
            TaskGraph::from_tasks(vec![t0]),
            Err(TaskGraphError::ForwardDependency { .. })
        ));
    }

    #[test]
    fn round_trip_through_from_tasks() {
        let g = sample_graph();
        let rebuilt = TaskGraph::from_tasks(g.tasks().to_vec()).unwrap();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn terminal_tasks_are_the_sinks() {
        let g = sample_graph();
        // Only the final accumulate task is not depended on.
        assert_eq!(g.terminal_tasks(), vec![3]);
        assert!(TaskGraph::new().terminal_tasks().is_empty());
    }

    #[test]
    fn append_offset_remaps_ids_and_dependencies() {
        let mut g = sample_graph();
        let sub = sample_graph();
        let appended = g
            .append_offset(&sub, "k2:", |_| AppendAction::keep())
            .unwrap();
        assert_eq!(g.len(), 8);
        assert_eq!(appended.resolve(0), &[4]);
        assert_eq!(appended.resolve(3), &[7]);
        // Dependencies point at the remapped ids, labels carry the prefix.
        assert_eq!(g.tasks()[5].dependencies, vec![4]);
        assert_eq!(&*g.tasks()[5].label, "k2:intt x");
        // Totals double, validation still passes.
        assert_eq!(g.total_ops(), 2 * sample_graph().total_ops());
        assert!(TaskGraph::from_tasks(g.tasks().to_vec()).is_ok());
    }

    #[test]
    fn append_offset_adds_cross_graph_dependencies() {
        let mut g = sample_graph();
        let barrier = g.terminal_tasks();
        let sub = sample_graph();
        let appended = g
            .append_offset(&sub, "", |t| {
                if t.dependencies.is_empty() {
                    AppendAction::Keep {
                        extra_deps: barrier.clone(),
                    }
                } else {
                    AppendAction::keep()
                }
            })
            .unwrap();
        // The appended root (old id 0) now depends on the first graph's sink.
        assert_eq!(appended.resolve(0), &[4]);
        assert_eq!(g.tasks()[4].dependencies, vec![3]);
        assert!(TaskGraph::from_tasks(g.tasks().to_vec()).is_ok());
    }

    #[test]
    fn append_offset_splices_tasks_out_of_the_dependence_structure() {
        let mut g = sample_graph();
        let sub = sample_graph();
        // Drop the sub-graph's initial load; its consumer (the INTT) inherits
        // a dependency on the first graph's sink instead.
        let appended = g
            .append_offset(&sub, "", |t| {
                if &*t.label == "load x" {
                    AppendAction::Splice {
                        extra_deps: vec![3],
                    }
                } else {
                    AppendAction::keep()
                }
            })
            .unwrap();
        assert_eq!(g.len(), 7);
        // The spliced load resolves to its extra dependency, not to a new id.
        assert_eq!(appended.resolve(0), &[3]);
        assert_eq!(appended.resolve(1), &[4]);
        assert_eq!(g.tasks()[4].dependencies, vec![3]);
        // The spliced load's bytes are gone from the totals.
        assert_eq!(g.total_bytes(), (1024, 2 * 1024));
        assert!(TaskGraph::from_tasks(g.tasks().to_vec()).is_ok());
    }

    #[test]
    fn append_offset_rejects_dangling_extra_deps() {
        let mut g = sample_graph();
        let sub = sample_graph();
        let result = g.append_offset(&sub, "", |_| AppendAction::Keep {
            extra_deps: vec![99],
        });
        assert!(matches!(
            result,
            Err(TaskGraphError::ForwardDependency { dependency: 99, .. })
        ));
    }

    #[test]
    fn push_dedupes_duplicate_dependency_edges_in_order() {
        // A generator that lists the same dependency twice must not inflate
        // the engine's remaining-dep counters or the verifier's in-degrees;
        // the surviving edges keep their first-occurrence order.
        let mut g = TaskGraph::new();
        let a = g.push_memory(MemoryDirection::Load, 8, vec![], "load a", "P1");
        let b = g.push_memory(MemoryDirection::Load, 8, vec![], "load b", "P1");
        let c = g.push_compute(ComputeKind::Ntt, 8, vec![b, a, b, a, a], "ntt", "P1");
        assert_eq!(g.tasks()[c].dependencies, vec![b, a]);
        // Single dependencies stay untouched (the fast path).
        let d = g.push_compute(ComputeKind::Ntt, 8, vec![c], "ntt2", "P1");
        assert_eq!(g.tasks()[d].dependencies, vec![c]);
    }

    #[test]
    fn from_tasks_unchecked_accepts_what_from_tasks_rejects() {
        // The unchecked constructor exists for the static verifier: it is
        // the only way to materialize a graph with a forward dependency.
        let tasks = vec![
            Task {
                id: 0,
                kind: TaskKind::Memory {
                    direction: MemoryDirection::Load,
                    bytes: 1,
                },
                dependencies: vec![1],
                label: "load a".into(),
                stage: "P1".into(),
                channel: None,
            },
            Task {
                id: 1,
                kind: TaskKind::Memory {
                    direction: MemoryDirection::Load,
                    bytes: 1,
                },
                dependencies: vec![],
                label: "load b".into(),
                stage: "P1".into(),
                channel: None,
            },
        ];
        assert!(TaskGraph::from_tasks(tasks.clone()).is_err());
        assert_eq!(TaskGraph::from_tasks_unchecked(tasks).len(), 2);
    }
}
