//! The one-channel timing kernel: one program-order max-plus fold.
//!
//! The RPU issues each queue in order and starts every task at
//! `max(ready, free)`: its latest dependency finish against its queue's free
//! time (`docs/MEMORY_MODEL.md`). When every dependency points backward, as
//! in every graph [`TaskGraph::from_tasks`](crate::task::TaskGraph::from_tasks)
//! or the `push_*` builders make, program order is a topological order of
//! the dependency and queue-order edges. One walk in program order then
//! computes every start and finish with `+` and `max` alone. With one memory
//! channel the data path serves that channel's queue in order, so the walk is
//! the event engine's timeline bit for bit: `f64::max` is exact, and each
//! queue's busy time is summed in the order the engine sums it.
//!
//! [`fold`] is that walk, generic over its [`Clock`]. [`Seconds`] carries `L`
//! bandwidths at once, each lane doing a single run's arithmetic; the
//! bound's knee-probe clock carries each time's affine form in inverse
//! bandwidth ([`Sym`]). The walk serves:
//!
//! - the analytic timeline's evaluations, through [`stats`], and its
//!   finiteness check at the top of the analyzed range;
//! - the static bound's dependency and queue-augmented passes and its knee
//!   probe, at any channel count. There each channel keeps its own free
//!   time, which is the augmented graph's queue-predecessor edge.
//!
//! [`fold`] pushes each finish through the plan's dependents table. The
//! analytic timeline instead [`pull`]s each start from one edge per task,
//! found once per timeline ([`kept`]): the task's latest dependency in the
//! other queue, the only one that can set its start. The bound's passes and
//! knee probe fold through the full table: the probe's clock breaks value
//! ties by which predecessor wins, which reading one edge could change.
//!
//! The engine itself always runs its event loop ([`crate::engine`]), the
//! reference for several channels, graphs with a forward or dangling
//! dependency, and runs whose times come out non-finite.

use crate::engine::RpuEngine;
use crate::plan::ExecPlan;
use crate::stats::ExecutionStats;
use crate::task::{Task, TaskId, TaskKind};

/// What one task costs: compute seconds at the engine's MODOPS rate, or
/// `bytes` on memory channel `channel`, timed per bandwidth.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cost {
    Compute(f64),
    Memory { bytes: f64, channel: u32 },
}

impl Cost {
    /// The task's queue: `0` for the compute queue, `1 + c` for memory
    /// channel `c`.
    pub(crate) fn queue(self) -> usize {
        match self {
            Cost::Compute(_) => 0,
            Cost::Memory { channel, .. } => 1 + channel as usize,
        }
    }
}

/// Each task's [`Cost`] under `engine`'s MODOPS rate and `plan`'s placement.
pub(crate) fn costs(engine: &RpuEngine, tasks: &[Task], plan: &ExecPlan) -> Vec<Cost> {
    (tasks.iter().zip(plan.channel_index()))
        .map(|(task, channel)| match task.kind {
            TaskKind::Compute { .. } => Cost::Compute(engine.task_duration(task)),
            TaskKind::Memory { bytes, .. } => Cost::Memory {
                bytes: bytes as f64,
                channel,
            },
        })
        .collect()
}

/// The time arithmetic of a [`fold`].
pub(crate) trait Clock {
    /// A point in time.
    type Time: Copy;
    /// Time zero.
    const ZERO: Self::Time;
    /// The later of two times.
    fn later(&self, a: Self::Time, b: Self::Time) -> Self::Time;
    /// How long a task of `cost` runs.
    fn duration(&self, cost: Cost) -> Self::Time;
    /// `start + duration`.
    fn after(start: Self::Time, duration: Self::Time) -> Self::Time;
}

/// A time at one bandwidth paired with its affine form in inverse
/// bandwidth: `v` is its value there, which decides every max, and
/// `c + m / bandwidth_gbps` its form (`m` in seconds·GB/s).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sym {
    pub(crate) v: f64,
    pub(crate) c: f64,
    pub(crate) m: f64,
}

impl Sym {
    pub(crate) const ZERO: Sym = Sym {
        v: 0.0,
        c: 0.0,
        m: 0.0,
    };

    /// Component-wise `self + duration`.
    pub(crate) fn plus(self, duration: Sym) -> Sym {
        Sym {
            v: self.v + duration.v,
            c: self.c + duration.c,
            m: self.m + duration.m,
        }
    }
}

/// Seconds at `L` bandwidths at once, held in bytes per second: each lane
/// runs the engine's arithmetic at its own bandwidth, so the lane count never
/// changes a bit.
pub(crate) struct Seconds<const L: usize>([f64; L]);

impl<const L: usize> Seconds<L> {
    /// Bandwidths in GB/s, converted as the engine converts them.
    pub(crate) fn gbps(bandwidths_gbps: &[f64; L]) -> Self {
        Self(bandwidths_gbps.map(|bw| bw * 1e9))
    }
}

impl<const L: usize> Clock for Seconds<L> {
    type Time = [f64; L];
    const ZERO: [f64; L] = [0.0; L];

    /// `f64::max` lane by lane, written as the one comparison a vector max
    /// instruction makes: the walks only ever pass as `a` a running maximum,
    /// which starts at zero, or a finish of a timeline that folds, whose
    /// durations are never NaN; `a` is never NaN, and then both forms
    /// agree. The walk that checks a new timeline's finishes may read a NaN
    /// `a`, but it only asks whether some finish is not finite, and the
    /// first such finish is.
    fn later(&self, a: [f64; L], b: [f64; L]) -> [f64; L] {
        std::array::from_fn(|l| if b[l] > a[l] { b[l] } else { a[l] })
    }

    fn duration(&self, cost: Cost) -> [f64; L] {
        match cost {
            Cost::Compute(seconds) => [seconds; L],
            Cost::Memory { bytes, .. } => self.0.map(|bytes_per_second| bytes / bytes_per_second),
        }
    }

    fn after(start: [f64; L], duration: [f64; L]) -> [f64; L] {
        std::array::from_fn(|l| start[l] + duration[l])
    }
}

/// Walks `plan`'s tasks in program order and returns the makespan. Each task
/// starts at the later of its ready time and, with `queues`, its queue's
/// free time; its finish raises its dependents' ready times through the
/// plan's dependents table. `retired` sees each task's cost, start, finish
/// and duration. `ready` (one entry per task) is scratch.
///
/// A dependency that points forward never reaches its dependent, whose
/// walk is already done: on such a graph the fold is not the engine's
/// timeline ([`ExecPlan::folds`] says when it is).
pub(crate) fn fold<C: Clock>(
    clock: &C,
    costs: &[Cost],
    plan: &ExecPlan,
    queues: bool,
    ready: &mut [C::Time],
    mut retired: impl FnMut(TaskId, Cost, C::Time, C::Time, C::Time),
) -> C::Time {
    ready.fill(C::ZERO);
    let mut free = vec![C::ZERO; 1 + plan.channels()];
    let mut makespan = C::ZERO;
    for (task, &cost) in costs.iter().enumerate() {
        let queue = cost.queue();
        let start = if queues {
            clock.later(ready[task], free[queue])
        } else {
            ready[task]
        };
        let duration = clock.duration(cost);
        let end = C::after(start, duration);
        for &c in plan.dependents(task) {
            ready[c as usize] = clock.later(ready[c as usize], end);
        }
        makespan = clock.later(makespan, end);
        free[queue] = end;
        retired(task, cost, start, end, duration);
    }
    makespan
}

/// Each task's one dependency that can set its start in a one-channel
/// [`fold`] of `costs`, plus one: its latest (highest-id) dependency in the
/// other queue, or `0` for none. `None` when some compute duration is
/// negative, where the rule does not hold.
///
/// The rule: a task starts at `max(ready, free)`, `free` its queue's last
/// finish. Along an in-order queue finishes never decrease when no duration
/// is negative: each start is at or after the previous finish, and adding a
/// duration `>= 0` in `f64` cannot lower it. So a dependency in the task's
/// own queue finishes no later than `free`, and an earlier dependency in
/// the other queue no later than the latest one; `max` is exact, so the
/// kept dependency's finish alone gives every start bit for bit.
pub(crate) fn kept(costs: &[Cost], plan: &ExecPlan) -> Option<Vec<u32>> {
    if costs
        .iter()
        .any(|&cost| matches!(cost, Cost::Compute(d) if d < 0.0))
    {
        return None;
    }
    let mut kept = vec![0; costs.len()];
    for (d, cost) in costs.iter().enumerate() {
        for &c in plan.dependents(d) {
            if costs[c as usize].queue() != cost.queue() {
                kept[c as usize] = d as u32 + 1;
            }
        }
    }
    Some(kept)
}

/// [`fold`] with queues on a one-channel plan, pulling each start from the
/// task's [`kept`] dependency: a task reads `finish[kept]` (`finish[0]` is
/// time zero, task `t`'s finish is `finish[t + 1]`), starts at
/// `max(ready, free)` with the fold's operand order and writes its own
/// finish, so no entry needs resetting between walks. `finish` holds one
/// entry per task plus one. Every value is the fold's, bit for bit.
pub(crate) fn pull<C: Clock>(
    clock: &C,
    costs: &[Cost],
    kept: &[u32],
    finish: &mut [C::Time],
    mut retired: impl FnMut(TaskId, Cost, C::Time, C::Time, C::Time),
) -> C::Time {
    finish[0] = C::ZERO;
    let mut free = [C::ZERO; 2];
    let mut makespan = C::ZERO;
    for (task, (&cost, &dependency)) in costs.iter().zip(kept).enumerate() {
        let queue = cost.queue();
        let start = clock.later(finish[dependency as usize], free[queue]);
        let duration = clock.duration(cost);
        let end = C::after(start, duration);
        finish[task + 1] = end;
        makespan = clock.later(makespan, end);
        free[queue] = end;
        retired(task, cost, start, end, duration);
    }
    makespan
}

/// The execution statistics of a one-channel plan at `L` bandwidths: the
/// [`pull`] walk's makespan, and each queue's busy time summed as
/// `end - start` in program order, which is the engine's issue order there.
/// Bit-identical to the event engine wherever every time is finite (see
/// [`ExecPlan::folds`]). A plan on several channels has more queues than
/// this sums, and panics.
pub(crate) fn stats<const L: usize>(
    costs: &[Cost],
    plan: &ExecPlan,
    kept: &[u32],
    bandwidths_gbps: &[f64; L],
    finish: &mut [[f64; L]],
) -> [ExecutionStats; L] {
    let mut busy = [[0.0f64; L]; 2];
    let clock = &Seconds::gbps(bandwidths_gbps);
    let makespan = pull(clock, costs, kept, finish, |_, cost, start, end, _| {
        let busy = &mut busy[cost.queue()];
        for l in 0..L {
            busy[l] += end[l] - start[l];
        }
    });
    let template = plan.unstarted_stats();
    std::array::from_fn(|l| ExecutionStats {
        runtime_seconds: makespan[l],
        compute_busy_seconds: busy[0][l],
        memory_busy_seconds: busy[1][l],
        memory_channel_busy_seconds: vec![busy[1][l]],
        ..template.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RpuConfig;
    use crate::task::{ComputeKind, MemoryDirection, TaskGraph};
    use proptest::prelude::*;

    /// A valid graph from `(is_compute, raw dependencies)` per task: each
    /// raw value is taken modulo the task's id, so lists come unsorted and
    /// may repeat an id.
    fn graph(spec: &[(bool, Vec<usize>)]) -> TaskGraph {
        let tasks = (spec.iter().enumerate())
            .map(|(id, (compute, raw))| Task {
                id,
                kind: if *compute {
                    TaskKind::Compute {
                        kind: ComputeKind::Ntt,
                        ops: 1,
                    }
                } else {
                    TaskKind::Memory {
                        direction: MemoryDirection::Load,
                        bytes: 1,
                    }
                },
                dependencies: if id == 0 {
                    vec![]
                } else {
                    raw.iter().map(|d| d % id).collect()
                },
                label: format!("t{id}").into(),
                stage: "P1".into(),
                channel: None,
            })
            .collect();
        TaskGraph::from_tasks(tasks).expect("every dependency points backward")
    }

    proptest! {
        /// On one channel each task keeps exactly its latest dependency in
        /// the other queue, or none.
        #[test]
        fn each_task_keeps_its_latest_cross_queue_dependency(
            spec in proptest::collection::vec(
                (any::<bool>(), proptest::collection::vec(any::<usize>(), 0..24)),
                1..64,
            )
        ) {
            let graph = graph(&spec);
            let engine = RpuEngine::new(RpuConfig::ciflow_baseline());
            let plan = engine.plan(&graph);
            prop_assert!(plan.folds());
            let costs = costs(&engine, graph.tasks(), &plan);
            let kept = kept(&costs, &plan).expect("no duration is negative");
            prop_assert_eq!(kept.len(), costs.len());
            for (c, task) in graph.tasks().iter().enumerate() {
                let latest = (task.dependencies.iter().copied())
                    .filter(|&d| costs[d].queue() != costs[c].queue())
                    .max();
                prop_assert_eq!(kept[c], latest.map_or(0, |d| d as u32 + 1), "task {}", c);
            }
        }
    }
}
