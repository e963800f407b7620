//! Static performance bounds: provable makespan lower bounds, critical-path
//! and slack extraction, and the closed-form roofline knee.
//!
//! Where [`crate::verify`] proves a schedule *can* execute (deadlock-freedom,
//! structural consistency), this module proves how *fast* it could possibly
//! execute — without running it. [`analyze`] computes, in O(V + E):
//!
//! * **Dependency-path bound** — forward/backward earliest-/latest-start
//!   passes over the true dependency edges, using the engine's own duration
//!   arithmetic ([`RpuEngine::task_duration`]). Yields per-task
//!   [`earliest_start`](BoundAnalysis::earliest_start) /
//!   [`latest_start`](BoundAnalysis::latest_start) /
//!   [`slack`](BoundAnalysis::slack) and one zero-slack
//!   [`critical_path`](BoundAnalysis::critical_path).
//! * **Queue-order bound** — the same forward pass over the *augmented*
//!   graph (dependency edges plus the engine's in-order compute-queue and
//!   per-channel memory-queue successor edges, as placed in the
//!   [`ExecPlan`]). This is the graph the deadlock verifier
//!   analyzes; here it tightens the bound and lets the
//!   [`queue_critical_path`](BoundAnalysis::queue_critical_path) *blame*
//!   each binding edge as a true dependency or a queue-order constraint.
//! * **Resource occupancy bounds** — the data path serializes every DRAM
//!   transfer at the aggregate rate, so total memory bytes / bandwidth is a
//!   lower bound; likewise each channel's in-order queue and the compute
//!   pipeline.
//! * The **makespan bound** is the max of all of the above, and is *sound*:
//!   the engine's runtime can never beat it (property-tested in
//!   `tests/bound_oracle.rs` across presets, random graphs, channel counts
//!   and bandwidths, with bit-exact equality on contention-free chains).
//!
//! Both path passes are the one-channel timing kernel: one program-order
//! max-plus fold (`max(ready, free)`, then `+ duration`),
//! without the queue free times for the dependency pass and with one free
//! time per queue (compute and each channel) for the queue-order pass. On
//! one channel the queue-order pass is therefore the engine's own timeline.
//! The fold is generic over a lane count: [`analyze`] runs it with one lane,
//! [`bound_curve`] with eight ladder points per walk of the graph and one
//! for the remainder. The knee's probes run the same fold with an affine
//! clock.
//!
//! # Floating-point soundness
//!
//! Soundness holds in *machine* arithmetic, not just in exact real
//! arithmetic. The engine's event loop only ever applies two operations to
//! timestamps: `f64::max` (exact) and `+ duration` (monotone under
//! rounding). The path passes replay a subset of the engine's constraints
//! with the same two operations on the same per-task durations, so by
//! induction every earliest finish is `<=` the engine's finish time *as
//! computed in f64*. The occupancy folds run over program order while the
//! engine chains grants in grant order; summation order can differ by a few
//! ulps, so the memory occupancies are shaved by `(tasks + 3)` epsilons
//! (`occupancy_floor`) to stay provably below any engine ordering. The
//! compute queue issues in program order, so its fold needs no shave.
//!
//! # The roofline knee
//!
//! Every duration is affine in inverse bandwidth (`docs/ANALYTIC.md`), so
//! every bound component is too, and the makespan bound is a max of affine
//! pieces — piecewise affine and convex in `1/bandwidth`. [`analyze`]
//! derives the **knee** in closed form: the crossover bandwidth above which
//! the bound sits exactly on the flat compute floor (the schedule flips from
//! memory-bound to compute-bound). Schedules whose augmented critical path
//! carries *all* the compute plus memory never flatten exactly
//! ([`RooflineKnee::AlwaysBandwidthSensitive`]); the variant records the
//! residual serialized traffic and the bandwidth where that regime begins.
//! The knee is derived twice: [`knee`](BoundAnalysis::knee) over the full
//! placement-aware bound (alone, without the rest of the analysis, by
//! [`knee_plan`]), and
//! [`dependency_knee`](BoundAnalysis::dependency_knee) over the
//! placement-independent bound (no queue edges) — their disagreement
//! separates a ceiling this placement imposes (fixable by per-task channel
//! hints or more channels) from one the schedule's structure imposes (the
//! utilization ceiling `ciflow`'s `R003` lint reports).
//!
//! Model details and the soundness argument live in `docs/BOUNDS.md`.

use crate::config::assert_valid_bandwidth;
use crate::engine::RpuEngine;
use crate::fold::{self, fold, Clock, Cost, Seconds, Sym};
use crate::plan::ExecPlan;
use crate::task::{Task, TaskGraph, TaskId};

/// How many closed-form piece refinements the knee iteration may take. The
/// active piece's slope strictly decreases every step and there are finitely
/// many pieces, so this is a backstop, never a limit hit in practice.
const MAX_KNEE_STEPS: usize = 64;

/// Ladder points [`bound_curve`] evaluates per walk of the graph.
const LANES: usize = 8;

/// The crossover bandwidth where the static makespan bound flips from
/// memory-bound to compute-bound, derived in closed form from the bound's
/// piecewise-affine representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RooflineKnee {
    /// The graph moves no DRAM bytes: the bound is flat at every bandwidth.
    ComputeBoundEverywhere,
    /// The graph performs no compute: the bound decreases with bandwidth
    /// forever and never meets a compute floor.
    MemoryBoundEverywhere,
    /// The augmented critical path carries every compute task *plus* memory
    /// transfers, so the bound stays strictly above the compute floor at
    /// every finite bandwidth. How much above is what distinguishes a
    /// serial chain (a structural utilization ceiling) from a well-decoupled
    /// pipeline (a vanishing prefetch residue): the payload records both.
    AlwaysBandwidthSensitive {
        /// The bandwidth (GB/s) above which the binding affine piece is the
        /// all-compute path: beyond it the bound is exactly
        /// `compute floor + residual_gb / bandwidth`.
        dominated_above_gbps: f64,
        /// That piece's DRAM traffic in GB — the transfers serialized with
        /// the full compute chain that no bandwidth can hide.
        residual_gb: f64,
    },
    /// Above this bandwidth the bound equals the compute floor exactly;
    /// below it, memory holds the bound above the floor.
    Crossover {
        /// The knee bandwidth in GB/s.
        bandwidth_gbps: f64,
    },
}

impl RooflineKnee {
    /// The bandwidth (GB/s) above which the bound is pinned to the compute
    /// floor: the exact crossover when there is one, or the bandwidth where
    /// the all-compute piece takes over (the bound then tracks the floor
    /// plus a vanishing `residual_gb / bandwidth`). `None` when the bound
    /// has no compute floor to meet.
    pub fn effective_knee_gbps(&self) -> Option<f64> {
        match self {
            RooflineKnee::Crossover { bandwidth_gbps } => Some(*bandwidth_gbps),
            RooflineKnee::AlwaysBandwidthSensitive {
                dominated_above_gbps,
                ..
            } => Some(*dominated_above_gbps),
            _ => None,
        }
    }
}

impl std::fmt::Display for RooflineKnee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RooflineKnee::ComputeBoundEverywhere => write!(f, "compute-bound at every bandwidth"),
            RooflineKnee::MemoryBoundEverywhere => write!(f, "memory-bound at every bandwidth"),
            RooflineKnee::AlwaysBandwidthSensitive {
                dominated_above_gbps,
                residual_gb,
            } => write!(
                f,
                "bandwidth-sensitive at every bandwidth (no knee; above \
                 {dominated_above_gbps:.3} GB/s the bound tracks the compute floor \
                 plus {residual_gb:.3} GB of serialized traffic)"
            ),
            RooflineKnee::Crossover { bandwidth_gbps } => {
                write!(f, "knee at {bandwidth_gbps:.3} GB/s")
            }
        }
    }
}

/// Which constraint delivered a task's earliest start in a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CriticalEdge {
    /// Nothing held the task back; it starts at time zero.
    Source,
    /// A true dependency edge: the task waited for this producer.
    Dependency(TaskId),
    /// An in-order queue edge: the task waited for its queue predecessor,
    /// not for any data it needs.
    QueueOrder {
        /// The queue predecessor the task waited behind.
        predecessor: TaskId,
        /// The memory channel of the shared queue, or `None` for the
        /// compute queue.
        channel: Option<usize>,
    },
}

/// One step of the queue-augmented critical path: a task plus the edge that
/// made it start when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalStep {
    /// The task on the path.
    pub task: TaskId,
    /// The constraint that delivered its earliest start.
    pub edge: CriticalEdge,
}

/// Which bound component is the largest — the resource (or structure) to
/// blame for the makespan bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingResource {
    /// The compute pipeline's total occupancy.
    ComputePipeline,
    /// The shared DRAM data path's total occupancy.
    DataPath,
    /// One channel's in-order queue occupancy.
    MemoryChannel(usize),
    /// The longest true-dependency path.
    DependencyPath,
    /// The queue-augmented path — in-order queue edges tighten the bound
    /// strictly beyond the true dependencies.
    QueueOrder,
}

impl std::fmt::Display for BindingResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindingResource::ComputePipeline => write!(f, "compute pipeline"),
            BindingResource::DataPath => write!(f, "data path"),
            BindingResource::MemoryChannel(c) => write!(f, "memory channel {c}"),
            BindingResource::DependencyPath => write!(f, "dependency path"),
            BindingResource::QueueOrder => write!(f, "queue order"),
        }
    }
}

/// The complete static analysis of one graph on one configuration: per-task
/// schedule windows, critical paths, resource occupancies, the sound
/// makespan bound and the roofline knee. Produced by [`analyze`] /
/// [`RpuEngine::bounds`].
#[derive(Debug, Clone, PartialEq)]
pub struct BoundAnalysis {
    /// The aggregate bandwidth (GB/s) the time-valued fields are computed
    /// at — the engine configuration's bandwidth.
    pub bandwidth_gbps: f64,
    /// Per task: the earliest time its true dependencies allow it to start.
    pub earliest_start: Vec<f64>,
    /// Per task: the earliest start under the augmented graph — true
    /// dependencies *plus* in-order queue edges. Always `>=`
    /// [`earliest_start`](Self::earliest_start); the gap is start delay the
    /// queue position alone imposes.
    pub queue_earliest_start: Vec<f64>,
    /// Per task: the latest start that still finishes the graph by the
    /// dependency bound (backward pass over true dependencies).
    pub latest_start: Vec<f64>,
    /// Per task: `latest_start - earliest_start`. Zero (up to rounding) on
    /// the critical path.
    pub slack: Vec<f64>,
    /// One longest true-dependency path, in program order.
    pub critical_path: Vec<TaskId>,
    /// One longest path through the augmented (dependency + in-order queue)
    /// graph, each step blamed on the edge that delivered its start.
    pub queue_critical_path: Vec<CriticalStep>,
    /// Longest true-dependency path length in seconds.
    pub dependency_bound_seconds: f64,
    /// Longest augmented-graph path length in seconds; always `>=` the
    /// dependency bound.
    pub queue_bound_seconds: f64,
    /// Total compute duration in seconds (bandwidth-independent).
    pub compute_occupancy_seconds: f64,
    /// Total data-path occupancy in seconds: every byte of DRAM traffic
    /// crosses the one shared data path at the aggregate rate.
    pub memory_occupancy_seconds: f64,
    /// Per-channel in-order queue occupancy in seconds, as placed in the
    /// [`ExecPlan`]. Each entry is `<=` the aggregate
    /// data-path occupancy (channels time-share one path).
    pub channel_occupancy_seconds: Vec<f64>,
    /// The sound makespan lower bound: the max of every component above.
    pub makespan_bound_seconds: f64,
    /// The component delivering the makespan bound.
    pub binding: BindingResource,
    /// The closed-form roofline knee of the bound.
    pub knee: RooflineKnee,
    /// The knee of the *placement-independent* bound — the max of the
    /// compute floor, the shared data path, and the true-dependency path,
    /// with no queue-order edges. Where [`knee`](Self::knee) reflects this
    /// placement (channel maps and program order), this field reflects only
    /// the schedule's structure: a schedule whose dependency knee is
    /// [`RooflineKnee::AlwaysBandwidthSensitive`] serializes traffic with
    /// its full compute chain *by construction*, and no placement or
    /// bandwidth can lift it to the compute floor.
    pub dependency_knee: RooflineKnee,
}

impl BoundAnalysis {
    /// Achieved-vs-bound efficiency: `bound / actual` for an actual runtime
    /// in seconds. 1.0 means the run hit the provable bound exactly; lower
    /// values quantify contention the static model cannot see. Returns 1.0
    /// for an empty (zero-time) run.
    pub fn efficiency(&self, actual_runtime_seconds: f64) -> f64 {
        if actual_runtime_seconds > 0.0 {
            self.makespan_bound_seconds / actual_runtime_seconds
        } else {
            1.0
        }
    }

    /// The fraction of the queue-augmented critical path's edges that are
    /// queue-order constraints rather than true dependencies. 0.0 for an
    /// empty path.
    pub fn queue_edge_fraction(&self) -> f64 {
        let edges = self
            .queue_critical_path
            .iter()
            .filter(|s| !matches!(s.edge, CriticalEdge::Source))
            .count();
        if edges == 0 {
            return 0.0;
        }
        let queue_edges = self
            .queue_critical_path
            .iter()
            .filter(|s| matches!(s.edge, CriticalEdge::QueueOrder { .. }))
            .count();
        queue_edges as f64 / edges as f64
    }
}

/// What every forward pass over one graph under one placement shares: each
/// task's cost on the engine's configuration and the compute floor.
struct Placed<'a> {
    tasks: &'a [Task],
    plan: &'a ExecPlan,
    costs: Vec<Cost>,
    compute_occupancy: f64,
}

/// The per-lane result of one [`Placed::forward`] pass: the longest path, and
/// every transfer's duration folded in program order onto the shared data
/// path and onto its channel (before [`occupancy_floor`]'s shave).
struct Lanes<const L: usize> {
    path: [f64; L],
    memory: [f64; L],
    channels: Vec<[f64; L]>,
}

impl<'a> Placed<'a> {
    fn new(engine: &RpuEngine, graph: &'a TaskGraph, plan: &'a ExecPlan) -> Self {
        let costs = fold::costs(engine, graph.tasks(), plan);
        Placed {
            tasks: graph.tasks(),
            plan,
            compute_occupancy: compute_fold(&costs),
            costs,
        }
    }

    /// The longest-path forward pass at `L` bandwidths at once: the
    /// program-order fold over the true dependencies plus, with `queues`,
    /// the in-order queue edges (the deadlock verifier's augmented graph;
    /// each channel keeps its own queue). `retired` sees each task's
    /// earliest start, earliest finish and duration; the transfer durations
    /// are summed on the way. Each lane runs the engine's arithmetic, so a
    /// contention-free chain reproduces the engine bit for bit, every finish
    /// is a machine-arithmetic lower bound on the engine's, and `L` never
    /// changes a bit.
    fn forward<const L: usize>(
        &self,
        bandwidths_gbps: &[f64; L],
        queues: bool,
        ready: &mut [[f64; L]],
        mut retired: impl FnMut(TaskId, [f64; L], [f64; L], [f64; L]),
    ) -> Lanes<L> {
        let mut memory = [0.0; L];
        let mut channels = vec![[0.0; L]; self.plan.channels()];
        let clock = &Seconds::gbps(bandwidths_gbps);
        let path = fold(
            clock,
            &self.costs,
            self.plan,
            queues,
            ready,
            |t, cost, start, end, d| {
                if let Cost::Memory { channel, .. } = cost {
                    let channel = &mut channels[channel as usize];
                    for l in 0..L {
                        memory[l] += d[l];
                        channel[l] += d[l];
                    }
                }
                retired(t, start, end, d);
            },
        );
        Lanes {
            path,
            memory,
            channels,
        }
    }

    /// One longest path of a one-lane [`forward`](Self::forward) pass, in
    /// program order: back from the first task to finish at `bound`, each
    /// step blamed on the predecessor that delivered its start, re-derived
    /// from `finish` in strict-`>` order (dependencies as listed, then the
    /// queue predecessor when `queues`), so a tie blames the first. The
    /// [`TaskGraph`] builders store every list in id order, so a tie between
    /// dependencies blames the lower id, as the fold's push order does (a
    /// [`TaskGraph::from_tasks`] list is walked as given). Only
    /// earlier tasks are followed, as the fold only pushes into later ones:
    /// a forward or dangling dependency (only
    /// [`TaskGraph::from_tasks_unchecked`] builds one) can neither index out
    /// of range nor close a loop.
    fn walk_critical(&self, finish: &[f64], bound: f64, queues: bool) -> Vec<CriticalStep> {
        let mut path = Vec::new();
        let mut at = vec![0; 1 + self.plan.channels()];
        let mut cursor = finish.iter().position(|&f| bound > 0.0 && f == bound);
        while let Some(task) = cursor {
            let mut ready = 0.0f64;
            let mut edge = CriticalEdge::Source;
            for &dep in &self.tasks[task].dependencies {
                if dep < task && finish[dep] > ready {
                    ready = finish[dep];
                    edge = CriticalEdge::Dependency(dep);
                }
            }
            let predecessor = queues.then(|| self.queue_predecessor(task, &mut at));
            if let Some((predecessor, channel)) = predecessor.flatten() {
                if finish[predecessor] > ready {
                    edge = CriticalEdge::QueueOrder {
                        predecessor,
                        channel,
                    };
                }
            }
            path.push(CriticalStep { task, edge });
            cursor = match edge {
                CriticalEdge::Source => None,
                CriticalEdge::Dependency(p) | CriticalEdge::QueueOrder { predecessor: p, .. } => {
                    Some(p)
                }
            };
        }
        path.reverse();
        path
    }

    /// `task`'s in-order queue predecessor and its channel (`None` = compute
    /// queue), or `None` for a queue head. `at` holds a position in each
    /// queue (compute first, then each channel), moved to `task`'s: queues
    /// hold program order, and a critical path walks back through it, so
    /// each position only ever moves a queue's length in all.
    fn queue_predecessor(&self, task: TaskId, at: &mut [usize]) -> Option<(TaskId, Option<usize>)> {
        let cost = self.costs[task];
        let (queue, channel) = match cost {
            Cost::Compute(_) => (self.plan.compute_queue(), None),
            Cost::Memory { channel, .. } => (
                self.plan.memory_queues()[channel as usize].as_slice(),
                Some(channel as usize),
            ),
        };
        let at = &mut at[cost.queue()];
        while *at > 0 && queue[*at - 1] as usize >= task {
            *at -= 1;
        }
        while *at < queue.len() && (queue[*at] as usize) < task {
            *at += 1;
        }
        Some((queue[at.checked_sub(1)?] as TaskId, channel))
    }

    /// The bound components at lane `lane` of the queue-augmented pass `aug`,
    /// given the dependency path bound. The memory occupancies are shaved to
    /// stay sound under any grant order; the compute fold mirrors the
    /// engine's in-order issue exactly and needs no shave.
    fn components<const L: usize>(
        &self,
        aug: &Lanes<L>,
        lane: usize,
        dependency: f64,
    ) -> Components {
        Components {
            compute_occupancy: self.compute_occupancy,
            memory_occupancy: occupancy_floor(aug.memory[lane], self.plan.memory_task_count()),
            channel_occupancy: (aug.channels.iter().zip(self.plan.memory_queues()))
                .map(|(fold, queue)| occupancy_floor(fold[lane], queue.len()))
                .collect(),
            dependency_bound: dependency,
            queue_bound: aug.path[lane],
        }
    }

    /// Appends the makespan bound at each of `bandwidths_gbps` (whole chunks
    /// of `L`) to `out`, one queue-augmented pass per chunk. The ready
    /// buffer lives only while this runs, and not at all for no points.
    fn curve<const L: usize>(&self, bandwidths_gbps: &[f64], out: &mut Vec<f64>) {
        if bandwidths_gbps.is_empty() {
            return;
        }
        let mut ready = vec![[0.0; L]; self.tasks.len()];
        for chunk in bandwidths_gbps.chunks_exact(L) {
            let bandwidths: &[f64; L] = chunk.try_into().expect("chunk has L entries");
            let aug = self.forward(bandwidths, true, &mut ready, |_, _, _, _| {});
            // The dependency bound is never the strict maximum (see
            // `bound_curve`), so zero stands in for it without moving a bit.
            out.extend((0..L).map(|lane| self.components(&aug, lane, 0.0).makespan().0));
        }
    }
}

/// Shaves an occupancy fold down by `(terms + 3)` epsilons so it is provably
/// `<=` the same sum folded in *any* order in machine arithmetic: the engine
/// chains memory grants in grant order, which can differ from program order
/// by a rounding ulp per term. The shave is ~1e-13 relative — far below
/// anything a report prints — and the path bounds (which need no shave)
/// recover bit-exactness wherever they dominate.
fn occupancy_floor(sum: f64, terms: usize) -> f64 {
    sum * (1.0 - (terms as f64 + 3.0) * f64::EPSILON)
}

/// The knee probe's clock at one bandwidth: each time's value there and the
/// affine form of whichever predecessor wins each max (the earlier one on a
/// value tie). A compute costs a constant, a transfer its size over the
/// bandwidth.
struct Probe {
    /// `1 / bandwidth_gbps`.
    inv: f64,
}

impl Clock for Probe {
    type Time = Sym;
    const ZERO: Sym = Sym::ZERO;

    fn later(&self, a: Sym, b: Sym) -> Sym {
        if b.v > a.v {
            b
        } else {
            a
        }
    }

    fn duration(&self, cost: Cost) -> Sym {
        match cost {
            Cost::Compute(seconds) => Sym {
                v: seconds,
                c: seconds,
                m: 0.0,
            },
            Cost::Memory { bytes, .. } => {
                let m = bytes / 1e9;
                Sym {
                    v: m * self.inv,
                    c: 0.0,
                    m,
                }
            }
        }
    }

    fn after(start: Sym, duration: Sym) -> Sym {
        start.plus(duration)
    }
}

/// The compute pipeline's occupancy: the compute durations folded in
/// program order, which is the compute queue's issue order (the knee's
/// compute floor).
fn compute_fold(costs: &[Cost]) -> f64 {
    costs.iter().fold(0.0f64, |sum, cost| match cost {
        Cost::Compute(seconds) => sum + seconds,
        Cost::Memory { .. } => sum,
    })
}

/// Derives the roofline knee in closed form. Starting from the aggregate
/// data-path crossover `M / C`, the iteration probes which affine piece of
/// the (convex) bound is active just above the current candidate and moves
/// to that piece's crossover with the compute floor; slopes strictly
/// decrease, so it terminates at the true knee.
fn derive_knee(
    graph: &TaskGraph,
    costs: &[Cost],
    plan: &ExecPlan,
    queues: bool,
    compute_floor: f64,
) -> RooflineKnee {
    let (loaded, stored) = graph.total_bytes();
    if loaded + stored == 0 {
        return RooflineKnee::ComputeBoundEverywhere;
    }
    if compute_floor <= 0.0 {
        return RooflineKnee::MemoryBoundEverywhere;
    }
    let m_total = (loaded + stored) as f64 / 1e9;
    let mut knee = m_total / compute_floor;
    let ready = &mut vec![Sym::ZERO; costs.len()];
    for _ in 0..MAX_KNEE_STEPS {
        // The path bound's affine piece active just above the candidate, so
        // the piece that is active *above* the crossover wins any tie at the
        // crossover itself.
        let clock = &Probe {
            inv: 1.0 / (knee * (1.0 + 1e-9)),
        };
        let Sym { c, m, .. } = fold(clock, costs, plan, queues, ready, |_, _, _, _, _| {});
        if m <= 0.0 {
            break;
        }
        if c >= compute_floor {
            // The max-constant piece stays the argmax of the (convex) bound
            // for every larger bandwidth, so this is exact, not a probe
            // artifact: above `knee` the bound is `compute_floor + m/bw`.
            return RooflineKnee::AlwaysBandwidthSensitive {
                dominated_above_gbps: knee,
                residual_gb: m,
            };
        }
        let candidate = m / (compute_floor - c);
        if candidate > knee * (1.0 + 1e-12) {
            knee = candidate;
        } else {
            break;
        }
    }
    RooflineKnee::Crossover {
        bandwidth_gbps: knee,
    }
}

/// Every per-bandwidth component of the makespan bound at one bandwidth, as
/// [`analyze_plan`] reports them; [`bound_curve`] reads the same components
/// lane by lane from the same pass.
struct Components {
    compute_occupancy: f64,
    memory_occupancy: f64,
    channel_occupancy: Vec<f64>,
    dependency_bound: f64,
    queue_bound: f64,
}

impl Components {
    /// The sound makespan bound and its binding component. Strict `>` in
    /// this order means a tie blames the simpler component (a serial chain
    /// reads "dependency path", not "queue order").
    fn makespan(&self) -> (f64, BindingResource) {
        use BindingResource::*;
        let channels =
            (self.channel_occupancy.iter().enumerate()).map(|(c, &o)| (o, MemoryChannel(c)));
        ([(self.memory_occupancy, DataPath)].into_iter())
            .chain(channels)
            .chain([
                (self.dependency_bound, DependencyPath),
                (self.queue_bound, QueueOrder),
            ])
            .fold((self.compute_occupancy, ComputePipeline), |best, next| {
                if next.0 > best.0 {
                    next
                } else {
                    best
                }
            })
    }
}

/// The makespan bound at each bandwidth of `bandwidths_gbps`, under
/// `engine`'s channel count and placement: bit for bit what [`analyze`]
/// reports as [`BoundAnalysis::makespan_bound_seconds`] at every point, but
/// the plan and every bandwidth-independent input are built once, and
/// [`analyze_plan`]'s forward pass runs eight points per walk of the graph
/// (one per walk for the remainder). Only the queue-augmented pass runs: it
/// replays a superset of the dependency pass's constraints with the same
/// exact-`max`/monotone-`+` operations, so its finishes dominate pointwise
/// in machine arithmetic and the dependency bound is never the strict
/// maximum.
///
/// # Panics
///
/// If an entry is not a finite, positive bandwidth, with
/// [`validate_bandwidth`](crate::config::validate_bandwidth)'s message.
pub fn bound_curve(engine: &RpuEngine, graph: &TaskGraph, bandwidths_gbps: &[f64]) -> Vec<f64> {
    bandwidths_gbps
        .iter()
        .for_each(|&bw| assert_valid_bandwidth(bw));
    let plan = &engine.plan(graph);
    let placed = Placed::new(engine, graph, plan);
    let split = bandwidths_gbps.len() - bandwidths_gbps.len() % LANES;
    let mut out = Vec::with_capacity(bandwidths_gbps.len());
    placed.curve::<LANES>(&bandwidths_gbps[..split], &mut out);
    placed.curve::<1>(&bandwidths_gbps[split..], &mut out);
    out
}

/// The placement-aware roofline knee of `graph` under the placement
/// compiled into `plan` (which must be `graph`'s plan): exactly
/// [`BoundAnalysis::knee`] of [`analyze_plan`], from only the inputs the
/// knee needs — the task costs and the compute fold — without the
/// analysis's forward and backward passes, slack and critical paths. The
/// knee does not depend on `engine`'s bandwidth.
pub fn knee_plan(engine: &RpuEngine, graph: &TaskGraph, plan: &ExecPlan) -> RooflineKnee {
    let costs = fold::costs(engine, graph.tasks(), plan);
    derive_knee(graph, &costs, plan, true, compute_fold(&costs))
}

/// Statically analyzes `graph` on `engine`'s configuration and placement:
/// builds the plan and runs [`analyze_plan`].
pub fn analyze(engine: &RpuEngine, graph: &TaskGraph) -> BoundAnalysis {
    analyze_plan(engine, graph, &engine.plan(graph))
}

/// Statically analyzes `graph` at `engine`'s bandwidth and MODOPS under the
/// placement compiled into `plan` (which must be `graph`'s plan): schedule
/// windows, critical paths, occupancies, the sound makespan bound and the
/// roofline knee. Runs in O(V + E); never executes the graph.
///
/// The analysis is meaningful for graphs [`TaskGraph::from_tasks`] accepts
/// (backward dependencies only). Graphs with forward or dangling edges
/// should be screened with [`crate::verify::lint_structural`] first, as the
/// engine itself requires.
pub fn analyze_plan(engine: &RpuEngine, graph: &TaskGraph, plan: &ExecPlan) -> BoundAnalysis {
    let n = graph.len();
    let placed = Placed::new(engine, graph, plan);

    // The dependency and queue-augmented forward passes, one lane each at
    // the engine's bandwidth, and the bound they deliver.
    let bw = [engine.config().dram_bandwidth_gbps];
    let mut ready = vec![[0.0f64]; n];
    let mut earliest_start = vec![0.0f64; n];
    let mut dep_finish = vec![0.0f64; n];
    let mut duration = vec![0.0f64; n];
    let dep = placed.forward(&bw, false, &mut ready, |t, [es], [ef], [d]| {
        (earliest_start[t], dep_finish[t], duration[t]) = (es, ef, d);
    });
    let [dependency_bound] = dep.path;
    let mut queue_earliest_start = vec![0.0f64; n];
    let mut aug_finish = vec![0.0f64; n];
    let aug = placed.forward(&bw, true, &mut ready, |t, [es], [ef], _| {
        (queue_earliest_start[t], aug_finish[t]) = (es, ef);
    });
    let parts = placed.components(&aug, 0, dependency_bound);
    let (makespan, binding) = parts.makespan();

    // Backward pass over true dependencies from the dependency bound, via
    // the plan's dependents CSR.
    let mut latest_start = vec![0.0f64; n];
    for task in (0..n).rev() {
        let mut lf = dependency_bound;
        for &child in plan.dependents(task) {
            if latest_start[child as usize] < lf {
                lf = latest_start[child as usize];
            }
        }
        latest_start[task] = lf - duration[task];
    }
    let slack: Vec<f64> = latest_start
        .iter()
        .zip(&earliest_start)
        .map(|(ls, es)| ls - es)
        .collect();

    // Closed-form knees from the bound's affine pieces, the placement-aware
    // one exactly as `knee_plan` derives it.
    let costs = &placed.costs;
    let knee = derive_knee(graph, costs, plan, true, parts.compute_occupancy);
    let dependency_knee = derive_knee(graph, costs, plan, false, parts.compute_occupancy);

    BoundAnalysis {
        bandwidth_gbps: engine.config().dram_bandwidth_gbps,
        critical_path: (placed
            .walk_critical(&dep_finish, dependency_bound, false)
            .iter())
        .map(|s| s.task)
        .collect(),
        queue_critical_path: placed.walk_critical(&aug_finish, parts.queue_bound, true),
        queue_earliest_start,
        earliest_start,
        latest_start,
        slack,
        dependency_bound_seconds: dependency_bound,
        queue_bound_seconds: parts.queue_bound,
        compute_occupancy_seconds: parts.compute_occupancy,
        memory_occupancy_seconds: parts.memory_occupancy,
        channel_occupancy_seconds: parts.channel_occupancy,
        makespan_bound_seconds: makespan,
        binding,
        knee,
        dependency_knee,
    }
}

impl RpuEngine {
    /// Statically analyzes a graph under this engine's configuration and
    /// placement — see [`analyze`].
    pub fn bounds(&self, graph: &TaskGraph) -> BoundAnalysis {
        analyze(self, graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RpuConfig;
    use crate::task::{ComputeKind, MemoryDirection};

    /// 1 Gop/s compute, parameterized bandwidth, one channel — durations are
    /// simple ratios, exact in f64 for the values used here.
    fn unit_config(bandwidth_gbps: f64) -> RpuConfig {
        RpuConfig {
            num_hples: 1,
            vector_length: 1,
            clock_ghz: 1.0,
            vector_memory_bytes: 1 << 30,
            key_memory_bytes: 0,
            scalar_memory_bytes: 0,
            dram_bandwidth_gbps: bandwidth_gbps,
            num_memory_channels: 1,
            modops_multiplier: 1.0,
            evk_policy: crate::config::EvkPolicy::Streamed,
        }
    }

    /// load -> compute -> store, strictly serial.
    fn serial_chain(stages: usize) -> TaskGraph {
        let mut g = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for i in 0..stages {
            let deps = |p: &Option<TaskId>| p.map(|t| vec![t]).unwrap_or_default();
            let load = g.push_memory(
                MemoryDirection::Load,
                1_000_000_000,
                deps(&prev),
                format!("load {i}"),
                "P1",
            );
            let c = g.push_compute(
                ComputeKind::Ntt,
                500_000_000,
                vec![load],
                format!("c {i}"),
                "P1",
            );
            let store = g.push_memory(
                MemoryDirection::Store,
                250_000_000,
                vec![c],
                format!("store {i}"),
                "P1",
            );
            prev = Some(store);
        }
        g
    }

    #[test]
    fn bound_curve_matches_the_full_analysis_bit_for_bit() {
        // A chain (dependency-bound) and a wide fan-in (occupancy/queue
        // bound) — the curve must reproduce the full per-point analysis
        // exactly, across channel counts, from one shared plan.
        let mut fan = TaskGraph::new();
        let loads: Vec<TaskId> = (0..8)
            .map(|i| {
                fan.push_memory(
                    MemoryDirection::Load,
                    700_000_000 + i,
                    vec![],
                    format!("l{i}"),
                    "P1",
                )
            })
            .collect();
        fan.push_compute(ComputeKind::Ntt, 2_000_000_000, loads, "join", "P1");
        // Nine points: one 8-lane chunk and a one-lane remainder.
        let ladder = [0.5, 1.0, 3.0, 12.8, 64.0, 1024.0, 2.0, 8.0, 256.0];
        for graph in [&serial_chain(3), &fan] {
            for channels in [1usize, 2, 8] {
                let engine = RpuEngine::new(unit_config(1.0).with_memory_channels(channels));
                let curve = bound_curve(&engine, graph, &ladder);
                for (&bw, &bound) in ladder.iter().zip(&curve) {
                    let full = RpuEngine::new(unit_config(bw).with_memory_channels(channels))
                        .bounds(graph);
                    assert_eq!(
                        bound.to_bits(),
                        full.makespan_bound_seconds.to_bits(),
                        "bw={bw} channels={channels}"
                    );
                }
            }
        }
    }

    #[test]
    fn bound_curve_panics_on_a_ladder_entry_that_is_not_a_bandwidth() {
        // A bad entry in the one-lane remainder or in an 8-lane chunk,
        // beside good ones: none may come back as a number.
        let engine = RpuEngine::new(unit_config(1.0));
        let graph = serial_chain(1);
        for bw in [f64::NAN, 0.0, -8.0, f64::INFINITY] {
            for ladder in [vec![8.0, bw], [[bw].as_slice(), &[8.0; 8]].concat()] {
                let panic = std::panic::catch_unwind(|| bound_curve(&engine, &graph, &ladder))
                    .expect_err(&format!("bound_curve({ladder:?}) must panic"));
                let message = panic.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    message.contains(&format!("bandwidth {bw} GB/s")),
                    "{ladder:?}: {message:?}"
                );
            }
        }
    }

    #[test]
    fn serial_chain_is_bit_exact_against_the_engine() {
        let g = serial_chain(4);
        for bw in [0.5, 1.0, 2.0, 8.0, 64.0, 1024.0] {
            for channels in [1, 2, 4, 8] {
                let engine = RpuEngine::new(unit_config(bw).with_memory_channels(channels));
                let b = engine.bounds(&g);
                let stats = engine.execute_stats(&g).unwrap();
                assert_eq!(
                    b.makespan_bound_seconds.to_bits(),
                    stats.runtime_seconds.to_bits(),
                    "bw={bw} channels={channels}"
                );
                assert_eq!(b.binding, BindingResource::DependencyPath);
            }
        }
    }

    #[test]
    fn independent_loads_on_one_channel_are_bit_exact_via_queue_order() {
        let mut g = TaskGraph::new();
        for i in 0..6 {
            g.push_memory(
                MemoryDirection::Load,
                1_000 + i,
                vec![],
                format!("l{i}"),
                "P1",
            );
        }
        let engine = RpuEngine::new(unit_config(1.0));
        let b = engine.bounds(&g);
        let stats = engine.execute_stats(&g).unwrap();
        assert_eq!(
            b.makespan_bound_seconds.to_bits(),
            stats.runtime_seconds.to_bits()
        );
        // Nothing but program order serializes these loads.
        assert!(b.queue_edge_fraction() > 0.99);
    }

    #[test]
    fn bound_is_sound_on_a_diamond_with_contention() {
        // Two parallel branches over one channel: the engine serializes more
        // than the dependency graph requires, so runtime >= bound, and the
        // queue-augmented bound is tighter than the dependency bound.
        let mut g = TaskGraph::new();
        let a = g.push_memory(MemoryDirection::Load, 4_000_000_000, vec![], "a", "P1");
        let b = g.push_memory(MemoryDirection::Load, 4_000_000_000, vec![], "b", "P1");
        let ca = g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![a], "ca", "P1");
        let cb = g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![b], "cb", "P1");
        g.push_compute(ComputeKind::PointwiseAdd, 1, vec![ca, cb], "join", "P1");
        for channels in [1, 2] {
            let engine = RpuEngine::new(unit_config(1.0).with_memory_channels(channels));
            let bounds = engine.bounds(&g);
            let stats = engine.execute_stats(&g).unwrap();
            assert!(
                bounds.makespan_bound_seconds <= stats.runtime_seconds,
                "channels={channels}: bound {} > runtime {}",
                bounds.makespan_bound_seconds,
                stats.runtime_seconds
            );
        }
        let one = RpuEngine::new(unit_config(1.0)).bounds(&g);
        assert!(one.queue_bound_seconds > one.dependency_bound_seconds);
        // On one channel the queues serialize both branch loads with the
        // whole compute chain, so the placement-aware knee never flattens —
        // but the *structure* does not force that: the dependency knee is a
        // real crossover (the branches could overlap on two channels).
        assert!(matches!(
            one.knee,
            RooflineKnee::AlwaysBandwidthSensitive { .. }
        ));
        assert!(matches!(
            one.dependency_knee,
            RooflineKnee::Crossover { .. }
        ));
    }

    #[test]
    fn forward_and_dangling_dependencies_neither_panic_nor_loop() {
        // A two-task cycle (the compute waits for the load that waits for
        // it) and a dependency past the end: the engine reports a deadlock
        // for both, and the analysis still returns, its critical paths
        // walking back through earlier tasks only.
        let mut g = TaskGraph::new();
        g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![], "c", "P1");
        g.push_memory(MemoryDirection::Load, 1_000_000_000, vec![0], "l", "P1");
        for extra in [1, 9] {
            let mut tasks = g.tasks().to_vec();
            tasks[0].dependencies.push(extra);
            let graph = TaskGraph::from_tasks_unchecked(tasks);
            let engine = RpuEngine::new(unit_config(1.0));
            assert!(engine.execute_stats(&graph).is_err());
            let b = engine.bounds(&graph);
            assert_eq!(b.makespan_bound_seconds, 2.0, "extra dependency {extra}");
            assert_eq!(b.critical_path, vec![0, 1]);
        }
    }

    #[test]
    fn a_dependency_tie_blames_the_lower_id() {
        // Two equal loads finish together on the dependency pass, and the
        // join lists the later one first: the walk blames the lower id, as
        // the fold breaks its ties.
        let mut g = TaskGraph::new();
        let earlier = g.push_memory(MemoryDirection::Load, 1_000_000_000, vec![], "a", "P1");
        let later = g.push_memory(MemoryDirection::Load, 1_000_000_000, vec![], "b", "P1");
        let join = g.push_compute(
            ComputeKind::PointwiseAdd,
            1_000_000_000,
            vec![later, earlier],
            "join",
            "P1",
        );
        let b = RpuEngine::new(unit_config(1.0)).bounds(&g);
        assert_eq!(b.dependency_bound_seconds, 2.0);
        assert_eq!(b.critical_path, vec![earlier, join]);
    }

    #[test]
    fn slack_and_critical_path_on_a_fork() {
        // One 3 s branch, one 1 s branch, joined by a 1 s compute.
        let mut g = TaskGraph::new();
        let slow = g.push_memory(MemoryDirection::Load, 3_000_000_000, vec![], "slow", "P1");
        let fast = g.push_memory(MemoryDirection::Load, 1_000_000_000, vec![], "fast", "P1");
        let join = g.push_compute(
            ComputeKind::PointwiseAdd,
            1_000_000_000,
            vec![slow, fast],
            "join",
            "P1",
        );
        // Two channels so the queue does not serialize the branches.
        let engine = RpuEngine::new(unit_config(1.0).with_memory_channels(2));
        let b = engine.bounds(&g);
        assert_eq!(b.dependency_bound_seconds, 4.0);
        assert_eq!(b.critical_path, vec![slow, join]);
        assert_eq!(b.slack[slow], 0.0);
        assert_eq!(b.slack[join], 0.0);
        // The fast branch may slide 2 s without delaying the join.
        assert_eq!(b.slack[fast], 2.0);
        assert_eq!(b.earliest_start[join], 3.0);
        assert_eq!(b.latest_start[fast], 2.0);
    }

    #[test]
    fn knee_matches_the_closed_form_on_a_race() {
        // A 1 s compute (at 1 Gop/s) races a 2 GB load; the graph is their
        // join. Dependency path: max piece is the load side (c=0, m=2) vs
        // compute (c=1, m=0); aggregate memory m=2, compute floor 1 s. Knee
        // where 2/bw = 1 -> 2 GB/s.
        let mut g = TaskGraph::new();
        let c = g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![], "c", "P1");
        let l = g.push_memory(MemoryDirection::Load, 2_000_000_000, vec![], "l", "P1");
        g.push_compute(ComputeKind::PointwiseAdd, 0, vec![c, l], "join", "P1");
        let engine = RpuEngine::new(unit_config(64.0));
        let b = engine.bounds(&g);
        let RooflineKnee::Crossover {
            bandwidth_gbps: knee,
        } = b.knee
        else {
            panic!("race graph has a knee, got {:?}", b.knee);
        };
        assert!((knee - 2.0).abs() < 1e-9, "knee {knee}");
        assert_eq!(knee_plan(&engine, &g, &engine.plan(&g)), b.knee);
    }

    #[test]
    fn degenerate_knees_are_classified() {
        let engine = RpuEngine::new(unit_config(1.0));
        // Pure compute: flat everywhere.
        let mut compute_only = TaskGraph::new();
        compute_only.push_compute(ComputeKind::Ntt, 100, vec![], "c", "P1");
        assert_eq!(
            engine.bounds(&compute_only).knee,
            RooflineKnee::ComputeBoundEverywhere
        );
        // Pure memory: never flattens.
        let mut memory_only = TaskGraph::new();
        memory_only.push_memory(MemoryDirection::Load, 100, vec![], "l", "P1");
        assert_eq!(
            engine.bounds(&memory_only).knee,
            RooflineKnee::MemoryBoundEverywhere
        );
        // A serial chain carries all compute plus memory on one path: the
        // bound never reaches the compute floor at any finite bandwidth,
        // and the residual is the *entire* 2.5 GB of traffic. The regime
        // starts at the aggregate crossover M/C = 2.5 GB / 1 s.
        let serial = engine.bounds(&serial_chain(2)).knee;
        let RooflineKnee::AlwaysBandwidthSensitive {
            dominated_above_gbps,
            residual_gb,
        } = serial
        else {
            panic!("serial chain must be bandwidth-sensitive, got {serial:?}");
        };
        assert!((residual_gb - 2.5).abs() < 1e-12, "{residual_gb}");
        assert!(
            (dominated_above_gbps - 2.5).abs() < 1e-9,
            "{dominated_above_gbps}"
        );
        assert_eq!(serial.effective_knee_gbps(), Some(dominated_above_gbps));
        // A serial chain's ceiling is structural: the dependency knee (no
        // queue edges at all) classifies it identically.
        assert_eq!(engine.bounds(&serial_chain(2)).dependency_knee, serial);
        // Empty graph.
        assert_eq!(
            engine.bounds(&TaskGraph::new()).knee,
            RooflineKnee::ComputeBoundEverywhere
        );
        assert_eq!(engine.bounds(&TaskGraph::new()).makespan_bound_seconds, 0.0);
        // `knee_plan` classifies every case as the full analysis does.
        for graph in [compute_only, memory_only, serial_chain(2), TaskGraph::new()] {
            let plan = engine.plan(&graph);
            assert_eq!(
                knee_plan(&engine, &graph, &plan),
                engine.bounds(&graph).knee
            );
        }
    }

    #[test]
    fn bound_is_flat_above_the_knee() {
        // Race graph again: above 2 GB/s the bound must equal the compute
        // floor exactly, below it the memory side holds it higher.
        let mut g = TaskGraph::new();
        let c = g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![], "c", "P1");
        let l = g.push_memory(MemoryDirection::Load, 2_000_000_000, vec![], "l", "P1");
        g.push_compute(ComputeKind::PointwiseAdd, 0, vec![c, l], "join", "P1");
        let floor = RpuEngine::new(unit_config(1.0))
            .bounds(&g)
            .compute_occupancy_seconds;
        for bw in [4.0, 16.0, 1024.0] {
            let b = RpuEngine::new(unit_config(bw)).bounds(&g);
            assert_eq!(
                b.makespan_bound_seconds.to_bits(),
                floor.to_bits(),
                "bw={bw}"
            );
        }
        let below = RpuEngine::new(unit_config(1.0)).bounds(&g);
        assert!(below.makespan_bound_seconds > floor);
    }

    #[test]
    fn efficiency_and_display_helpers() {
        let g = serial_chain(1);
        let engine = RpuEngine::new(unit_config(1.0));
        let b = engine.bounds(&g);
        let stats = engine.execute_stats(&g).unwrap();
        let eff = b.efficiency(stats.runtime_seconds);
        assert!((eff - 1.0).abs() < 1e-12);
        assert!(b.efficiency(0.0) == 1.0);
        assert!(b.makespan_bound_seconds > 0.0);
        assert!(format!("{}", b.binding).contains("dependency"));
        assert!(format!(
            "{}",
            RooflineKnee::Crossover {
                bandwidth_gbps: 2.0
            }
        )
        .contains("2.000"));
        let sensitive = RooflineKnee::AlwaysBandwidthSensitive {
            dominated_above_gbps: 2.5,
            residual_gb: 2.5,
        };
        assert!(format!("{sensitive}").contains("no knee"));
    }
}
