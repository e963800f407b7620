//! Static verification of task graphs against the engine's queue semantics.
//!
//! Every property this module checks is otherwise only enforced
//! *dynamically*: a malformed graph surfaces as an
//! [`EngineError::Deadlock`](crate::engine::EngineError) mid-run (a
//! dangling dependency never resolves, and a cross-queue cycle never
//! drains), or as silently wrong analysis numbers. The passes here prove the
//! same properties *without executing* — they are the graph-level half of
//! the `ciflow::lint` subsystem (which adds schedule-aware buffer, capacity
//! and placement passes on top).
//!
//! Two passes live at this level, each a small analyzer over a
//! [`TaskGraph`]:
//!
//! * [`lint_structural`] — id/index mismatches, dangling and duplicate
//!   dependency edges, self-dependencies, non-monotone (forward)
//!   dependencies.
//! * [`lint_deadlock`] — an abstract interpretation of the engine's
//!   per-channel in-order grant semantics (`docs/MEMORY_MODEL.md`): the
//!   engine deadlocks **iff** the *augmented graph* — dependency edges plus
//!   the program-order successor edge within each in-order queue — contains
//!   a cycle. The pass reads exactly the queues the engine runs (the same
//!   [`ExecPlan`]) and runs a topological sort over the augmented edges, so a clean result is a
//!   *proof* of deadlock-freedom for that channel count and placement,
//!   subsuming the runtime check.
//!
//! Why the characterization is exact: the engine's reachable progress states
//! are precisely the downward-closed sets of the augmented graph (a task can
//! complete once its dependencies *and* its queue predecessors have), and an
//! untimed in-order system stalls forever iff some task is unreachable under
//! that closure — i.e. iff it sits on or behind an augmented cycle. Since
//! queue edges always point from lower to higher task id and
//! [`TaskGraph::from_tasks`] rejects forward dependencies, a *validated*
//! graph can never deadlock under **any** placement; deadlock requires a
//! hand-built graph ([`TaskGraph::from_tasks_unchecked`]) with a forward
//! dependency that closes a cycle. A forward dependency *alone* is merely
//! suspicious (other queues may drain it fine), so it lints as a Warning
//! while an actual cycle is an Error.
//!
//! Every code is catalogued with a minimal triggering example in
//! `docs/LINTS.md`.

use crate::engine::RpuEngine;
use crate::plan::ExecPlan;
use crate::task::{Label, TaskGraph, TaskId};
use serde::Serialize;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Severity {
    /// Informational: worth knowing, never wrong by itself.
    Note,
    /// Suspicious: legal to execute, but likely a generator bug or a missed
    /// optimization.
    Warning,
    /// The schedule is broken: executing it panics, deadlocks, or produces
    /// meaningless numbers.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One structured finding from a lint pass.
///
/// `code` is a stable short identifier (`S...` structural, `D...` deadlock,
/// `B...` buffer, `C...` capacity, `P...` placement, `A...` accounting —
/// the latter four families are emitted by `ciflow::lint`); the full
/// catalogue lives in `docs/LINTS.md`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Stable lint code, e.g. `"D001"`.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// The tasks the finding is about (a wait-for cycle, a duplicate edge's
    /// endpoints, ...). May be empty for graph-wide findings.
    pub tasks: Vec<TaskId>,
    /// The buffer or task label involved, when one identifies the finding.
    pub label: Option<Label>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Error, message)
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Warning, message)
    }

    /// Creates a note-severity diagnostic.
    pub fn note(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Note, message)
    }

    fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Self {
            code,
            severity,
            tasks: Vec::new(),
            label: None,
            message: message.into(),
        }
    }

    /// Attaches the tasks the finding is about.
    #[must_use]
    pub fn with_tasks(mut self, tasks: impl IntoIterator<Item = TaskId>) -> Self {
        self.tasks = tasks.into_iter().collect();
        self
    }

    /// Attaches the label the finding is about.
    #[must_use]
    pub fn with_label(mut self, label: Label) -> Self {
        self.label = Some(label);
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(label) = &self.label {
            write!(f, " `{label}`")?;
        }
        if !self.tasks.is_empty() {
            write!(f, " tasks {:?}", self.tasks)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Stable codes for the graph-level passes.
pub mod codes {
    /// `task.id` disagrees with the task's position in the graph.
    pub const ID_MISMATCH: &str = "S001";
    /// A dependency names a task id outside the graph.
    pub const DANGLING_DEP: &str = "S002";
    /// The same dependency edge appears twice.
    pub const DUPLICATE_DEP: &str = "S003";
    /// A task depends on itself.
    pub const SELF_DEP: &str = "S004";
    /// A dependency points forward in program order (non-monotone ids).
    pub const FORWARD_DEP: &str = "S005";
    /// The dependency edges plus the in-order queue edges form a cycle: the
    /// engine would return `EngineError::Deadlock`.
    pub const DEADLOCK_CYCLE: &str = "D001";
}

/// Structural pass: validates the graph encoding itself, independent of any
/// engine configuration. An [`Severity::Error`] here means the engine cannot
/// even be *run* meaningfully on the graph (it would panic or misattribute
/// work); run this before [`lint_deadlock`].
pub fn lint_structural(graph: &TaskGraph) -> Vec<Diagnostic> {
    let tasks = graph.tasks();
    let n = tasks.len();
    let mut diagnostics = Vec::new();
    for (index, task) in tasks.iter().enumerate() {
        if task.id != index {
            diagnostics.push(
                Diagnostic::error(
                    codes::ID_MISMATCH,
                    format!("task at position {index} carries id {}", task.id),
                )
                .with_tasks([index])
                .with_label(task.display_label()),
            );
        }
        for (slot, &dep) in task.dependencies.iter().enumerate() {
            if dep >= n {
                diagnostics.push(
                    Diagnostic::error(
                        codes::DANGLING_DEP,
                        format!(
                            "task {index} depends on {dep}, but the graph has only {n} tasks \
                             (executing this graph panics the engine)"
                        ),
                    )
                    .with_tasks([index])
                    .with_label(task.display_label()),
                );
                continue;
            }
            if dep == index {
                diagnostics.push(
                    Diagnostic::error(
                        codes::SELF_DEP,
                        format!("task {index} depends on itself and can never become ready"),
                    )
                    .with_tasks([index])
                    .with_label(task.display_label()),
                );
                continue;
            }
            if task.dependencies[..slot].contains(&dep) {
                diagnostics.push(
                    Diagnostic::warning(
                        codes::DUPLICATE_DEP,
                        format!(
                            "task {index} lists dependency {dep} more than once \
                             (inflates dependency counters and in-degrees)"
                        ),
                    )
                    .with_tasks([dep, index])
                    .with_label(task.display_label()),
                );
            }
            if dep > index {
                diagnostics.push(
                    Diagnostic::warning(
                        codes::FORWARD_DEP,
                        format!(
                            "task {index} depends on the later task {dep}: a validated graph \
                             never does this, and if the edge closes a queue cycle the \
                             schedule deadlocks (see D001)"
                        ),
                    )
                    .with_tasks([index, dep])
                    .with_label(task.display_label()),
                );
            }
        }
    }
    diagnostics
}

/// Deadlock pass: proves, for the plan's channel count and buffer
/// placement, that the in-order queues cannot cross-block.
///
/// The proof object is the *augmented graph*: every dependency edge plus an
/// edge from each queue element to its successor in the same in-order queue
/// (one compute queue, one queue per memory channel, read off the same
/// [`ExecPlan`] the engine runs; `plan` must be `graph`'s plan). A topological sort
/// drains completely iff the engine — whose reachable states are exactly the
/// downward-closed sets of this graph — can retire every task. On a cycle,
/// the pass reports one [`codes::DEADLOCK_CYCLE`] Error carrying the
/// wait-for chain (each task waits for the next; the last waits for the
/// first).
///
/// Graphs with structural Errors ([`lint_structural`]) are not analyzable;
/// the pass returns an empty result for them (the structural diagnostics
/// already make the graph red).
pub fn lint_deadlock(graph: &TaskGraph, plan: &ExecPlan) -> Vec<Diagnostic> {
    let tasks = graph.tasks();
    let n = tasks.len();
    let analyzable = tasks.iter().enumerate().all(|(index, task)| {
        task.id == index && task.dependencies.iter().all(|&d| d < n && d != index)
    });
    if !analyzable {
        return Vec::new();
    }

    let channels = plan.channels();
    // Augmented edges: the plan's dependents plus each queue element's
    // in-order successor. The queue *predecessor* of each task is also kept
    // for cycle extraction.
    let mut indegree: Vec<u32> = plan.dependency_counts().to_vec();
    let mut queue_next: Vec<Option<TaskId>> = vec![None; n];
    let mut queue_prev: Vec<Option<TaskId>> = vec![None; n];
    let memory_queues = plan.memory_queues().iter().map(Vec::as_slice);
    for queue in std::iter::once(plan.compute_queue()).chain(memory_queues) {
        for pair in queue.windows(2) {
            let (prev, next) = (pair[0] as TaskId, pair[1] as TaskId);
            queue_next[prev] = Some(next);
            indegree[next] += 1;
            queue_prev[next] = Some(prev);
        }
    }

    // Kahn's algorithm over the augmented graph.
    let mut stack: Vec<TaskId> = (0..n).filter(|&t| indegree[t] == 0).collect();
    let mut drained = 0usize;
    while let Some(t) = stack.pop() {
        drained += 1;
        let dependents = plan.dependents(t).iter().map(|&s| s as TaskId);
        for s in dependents.chain(queue_next[t]) {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                stack.push(s);
            }
        }
    }
    if drained == n {
        return Vec::new();
    }

    // A cycle exists among the undrained tasks (indegree > 0). Walk the
    // wait-for relation — "t waits for u" iff u is a dependency of t or u
    // immediately precedes t in t's queue — restricted to undrained tasks,
    // until a task repeats; the repeated suffix is a wait-for cycle.
    let undrained = |t: TaskId| indegree[t] > 0;
    let start = (0..n).find(|&t| undrained(t)).expect("cycle exists");
    let mut position: Vec<Option<usize>> = vec![None; n];
    let mut path: Vec<TaskId> = Vec::new();
    let mut cursor = start;
    let cycle = loop {
        if let Some(at) = position[cursor] {
            break path[at..].to_vec();
        }
        position[cursor] = Some(path.len());
        path.push(cursor);
        cursor = tasks[cursor]
            .dependencies
            .iter()
            .copied()
            .find(|&d| undrained(d))
            .or(queue_prev[cursor].filter(|&p| undrained(p)))
            .expect("an undrained task always waits for an undrained task");
    };

    let chain = cycle
        .iter()
        .map(|&t| format!("{t}(`{}`)", tasks[t].display_label()))
        .collect::<Vec<_>>()
        .join(" -> ");
    vec![Diagnostic::error(
        codes::DEADLOCK_CYCLE,
        format!(
            "cross-queue wait-for cycle with {channels} memory channel(s): {chain} -> back to \
             {first}; every task on the cycle waits (via a dependency or its in-order queue) \
             for the next, so no queue head can ever make progress and the engine would \
             return EngineError::Deadlock",
            first = cycle[0],
        ),
    )
    .with_tasks(cycle)]
}

/// Runs both graph-level passes: [`lint_structural`], then — when the graph
/// is structurally analyzable — [`lint_deadlock`] on `engine`'s plan. A
/// declared oracle surface: `tests/lint_oracle.rs` checks its deadlock
/// verdict against the engine's.
pub fn lint_graph(graph: &TaskGraph, engine: &RpuEngine) -> Vec<Diagnostic> {
    let mut diagnostics = lint_structural(graph);
    diagnostics.extend(lint_deadlock(graph, &engine.plan(graph)));
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RpuConfig;
    use crate::task::{ComputeKind, Task, TaskGraph, TaskKind, Verb};

    fn unit_engine(channels: usize) -> RpuEngine {
        RpuEngine::new(
            RpuConfig::ciflow_baseline()
                .with_bandwidth(1.0)
                .with_memory_channels(channels),
        )
    }

    fn memory_task(id: usize, dependencies: Vec<usize>, label: &str) -> Task {
        Task {
            id,
            kind: TaskKind::Memory {
                verb: Verb::Load,
                bytes: 10,
            },
            dependencies,
            label: label.into(),
            stage: "P1".into(),
            channel: None,
            kernel: None,
        }
    }

    fn compute_task(id: usize, dependencies: Vec<usize>, label: &str) -> Task {
        Task {
            id,
            kind: TaskKind::Compute {
                kind: ComputeKind::Ntt,
                ops: 10,
            },
            dependencies,
            label: label.into(),
            stage: "P1".into(),
            channel: None,
            kernel: None,
        }
    }

    #[test]
    fn valid_graphs_lint_clean() {
        let mut g = TaskGraph::new();
        let load = g.push_memory(Verb::Load, 10, vec![], "in[0]", "P1");
        let c = g.push_compute(ComputeKind::Ntt, 10, vec![load], "ntt", "P1");
        g.push_memory(Verb::Store, 10, vec![c], "out1[0]", "P1");
        for channels in [1, 2, 4, 8] {
            assert!(lint_graph(&g, &unit_engine(channels)).is_empty());
        }
    }

    #[test]
    fn structural_pass_flags_every_encoding_defect() {
        let graph = TaskGraph::from_tasks_unchecked(vec![
            compute_task(7, vec![], "bad id"),       // S001
            memory_task(1, vec![99], "dangling"),    // S002
            memory_task(2, vec![0, 0], "duplicate"), // S003
            compute_task(3, vec![3], "self"),        // S004
            compute_task(4, vec![5], "forward"),     // S005
            memory_task(5, vec![], "fine"),
        ]);
        let diagnostics = lint_structural(&graph);
        let codes: Vec<&str> = diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![
                codes::ID_MISMATCH,
                codes::DANGLING_DEP,
                codes::DUPLICATE_DEP,
                codes::SELF_DEP,
                codes::FORWARD_DEP
            ]
        );
        use super::Severity::{Error, Warning};
        let severities: Vec<Severity> = diagnostics.iter().map(|d| d.severity).collect();
        assert_eq!(severities, vec![Error, Error, Warning, Error, Warning]);
        // Unanalyzable graph: the deadlock pass declines rather than panic.
        assert!(lint_deadlock(&graph, &unit_engine(2).plan(&graph)).is_empty());
    }

    #[test]
    fn forward_dependency_without_a_cycle_is_only_a_warning() {
        // Task 0 (channel 0) depends on task 1 (channel 1): with the heads in
        // different queues the engine grants task 1 first and both retire.
        let mut t0 = memory_task(0, vec![1], "load a");
        t0.channel = Some(0);
        let mut t1 = memory_task(1, vec![], "load b");
        t1.channel = Some(1);
        let graph = TaskGraph::from_tasks_unchecked(vec![t0, t1]);
        let engine = unit_engine(2);
        let diagnostics = lint_graph(&graph, &engine);
        assert_eq!(diagnostics.len(), 1);
        assert_eq!(diagnostics[0].code, codes::FORWARD_DEP);
        assert_eq!(diagnostics[0].severity, Severity::Warning);
        // The engine agrees: this executes fine.
        assert!(engine.execute(&graph).is_ok());
    }

    #[test]
    fn same_queue_forward_dependency_is_a_deadlock_cycle() {
        // Both tasks share channel 0: task 0 waits on task 1's completion,
        // task 1 waits on task 0 leaving the queue head. D001.
        let mut t0 = memory_task(0, vec![1], "load a");
        t0.channel = Some(0);
        let mut t1 = memory_task(1, vec![], "load b");
        t1.channel = Some(0);
        let graph = TaskGraph::from_tasks_unchecked(vec![t0, t1]);
        let engine = unit_engine(2);
        let diagnostics = lint_deadlock(&graph, &engine.plan(&graph));
        assert_eq!(diagnostics.len(), 1);
        assert_eq!(diagnostics[0].code, codes::DEADLOCK_CYCLE);
        assert_eq!(diagnostics[0].severity, Severity::Error);
        let mut cycle = diagnostics[0].tasks.clone();
        cycle.sort_unstable();
        assert_eq!(cycle, vec![0, 1]);
        // The engine agrees: this deadlocks.
        assert!(engine.execute(&graph).is_err());
    }

    #[test]
    fn deadlock_verdict_depends_on_the_placement() {
        // The classic cross-queue inversion: compute head waits on the
        // *second* memory task, the first memory task waits on the compute
        // head. With one channel the memory queue orders m1 before m2 and
        // the three tasks cycle; with the memory tasks hinted onto different
        // channels m2's head is free and everything drains.
        let cross = |c1: Option<usize>, c2: Option<usize>| {
            let mut m1 = memory_task(1, vec![0], "store m1");
            m1.channel = c1;
            let mut m2 = memory_task(2, vec![], "load m2");
            m2.channel = c2;
            TaskGraph::from_tasks_unchecked(vec![compute_task(0, vec![2], "c"), m1, m2])
        };
        let single_graph = cross(None, None);
        let single = lint_deadlock(&single_graph, &unit_engine(1).plan(&single_graph));
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].code, codes::DEADLOCK_CYCLE);
        assert!(single[0].message.contains("wait-for cycle"));
        let dual_graph = cross(Some(0), Some(1));
        let dual = lint_deadlock(&dual_graph, &unit_engine(2).plan(&dual_graph));
        assert!(dual.is_empty());
        // The engine agrees on both verdicts.
        assert!(unit_engine(1).execute(&cross(None, None)).is_err());
        assert!(unit_engine(2).execute(&cross(Some(0), Some(1))).is_ok());
    }

    #[test]
    fn diagnostics_render_with_code_label_and_tasks() {
        let d = Diagnostic::error("D001", "boom")
            .with_tasks([1, 2])
            .with_label("load x".into());
        assert_eq!(format!("{d}"), "error[D001] `load x` tasks [1, 2]: boom");
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }
}
