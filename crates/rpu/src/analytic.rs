//! Closed-form bandwidth sweeps: the parametric timeline.
//!
//! Every task duration under a fixed configuration is affine in the
//! *inverse* bandwidth: a compute task costs `ops / modops_per_second`
//! (bandwidth-independent) and a memory task costs `bytes / (gbps * 1e9)`.
//! Because the engine's control flow is a finite sequence of comparisons
//! between such times, its entire event timeline is **piecewise-linear in
//! `1/bandwidth`**. A **segment** is a bandwidth range with one bus grant
//! sequence; its **breakpoints** (the timeline's interior segment edges)
//! are the bandwidths where that grant order changes. Inside a segment
//! every start/finish time is a max-plus expression in `1/bandwidth`, and
//! it bends only at *ready-time crossovers* (where another dependency, or
//! the resource's free time, becomes the one a task waits on): the kinks
//! [`Segment::affine_range_gbps`] reports around the anchor. This module
//! runs the engine *symbolically* once per segment and then evaluates any
//! bandwidth ladder by replaying the recorded event order — no event loop
//! per point.
//!
//! ## The grant certificate
//!
//! A close look at the engine loop shows that the [`ExecutionStats`] it
//! produces depend on surprisingly little:
//!
//! - **structural order**: the compute queue and the per-channel memory
//!   queues are serviced strictly in order, so which compute runs `i`-th and
//!   which memory task is `j`-th on its channel never depends on timing;
//! - **the bus grant sequence** `G`: which memory task wins the shared DRAM
//!   bus each time it frees up; and
//! - **exact arithmetic**: every value the engine computes is a fold of
//!   `+` and `f64::max` over task durations, and `max` is exact — so two
//!   executions that agree on the orders above agree on every bit.
//!
//! The only way bandwidth can change the grant sequence is through *which
//! channel heads are dependency-ready* when the bus is re-scanned after the
//! previous grant retires (at `te = mem_end_{k-1}`, with `mem_end_{-1} = 0`).
//! Between two grants no memory task retires, so a head's memory
//! dependencies being satisfied is structural (they are either in `G[..k]`
//! or not), and computes retire as a growing prefix of the compute queue
//! with non-decreasing finish times — so a head's readiness at the scan
//! reduces to **one comparison**: the finish time of its *latest* compute
//! dependency against `te`. Three cases follow, each pinned by those
//! comparisons alone:
//!
//! - **forced grant**: at most one channel still has a queued task, so its
//!   head wins whenever it becomes ready and no readiness can change `G`.
//!   The certificate records nothing: the replay's
//!   `start = max(ready, bus_free)` is exact at every bandwidth. On a
//!   single-channel plan *every* grant is forced, so the certificate is
//!   empty and one segment covers all bandwidths;
//! - some head is ready at `te` (its latest compute dependency finished no
//!   later than `te`): the scan grants the lowest-id ready head immediately,
//!   so the certificate needs "the winner was ready" plus "every head that
//!   would out-rank it was not";
//! - no head is ready at `te`: the engine retires computes one by one and
//!   re-scans, so the grant order is decided by *how many* computes each
//!   head still needs — a purely structural quantity — and the certificate
//!   only needs "no eligible head was ready at `te`".
//!
//! A segment therefore carries, per contested grant, at most one comparison
//! per channel head; any bandwidth whose replayed times satisfy them all
//! provably takes the identical engine path. Exact finish ties
//! (`compute_end == te`) stay certifiable because readiness is inclusive.
//!
//! ## How a segment is derived
//!
//! [`RpuEngine::analyze`] runs the engine's own event loop (the shared
//! control flow in `engine::drive`, over the same [`ExecPlan`]) at an
//! *anchor* bandwidth, carrying the affine form
//! `constant + slope / bandwidth` alongside every concrete time. It records
//! the **replay script** (the retirement order of all tasks) and the grant
//! certificate, then solves each certificate comparison for the bandwidth
//! where it flips. The nearest flip on either side bounds the segment; the
//! next segment is derived just past it, stitching a full piecewise
//! description of the requested range. A certificate with no comparisons
//! never flips, so a single-channel analysis ends after one symbolic run.
//!
//! ## Bit-exactness
//!
//! Evaluation never trusts the affine algebra for values. To evaluate at a
//! bandwidth `b`, the timeline replays the segment's script using the
//! *engine's own arithmetic* (`bytes as f64 / (b * 1e9)`, `max`-of-dependency
//! finish times, queue-order accumulation) and then **checks the grant
//! certificate** against the replayed finish times. If every comparison
//! holds, the engine at `b` would have granted the bus identically and
//! produced the identical floating-point values — so the replayed
//! [`ExecutionStats`] are bit-identical to [`RpuEngine::execute_stats`],
//! with no tolerance. If any check fails, the timeline falls back to
//! running the real event engine — the oracle — for that point, so every
//! answer is exact by construction either way. One replay body serves every
//! path, generic over how many bandwidths one script walk carries: a ladder
//! replays eight at a time, a single point one, and a lane's arithmetic is
//! the same either way. `tests/analytic_oracle.rs` property-tests this end
//! to end, point by point and as ladders.
//!
//! *Certifiability.* Equating "retired by the scan" with "finished no later
//! than `te`" needs every compute duration to be positive — a zero-duration
//! compute can finish *at* `te` yet only retire after the scan has already
//! run. A graph with a zero-duration compute task is therefore analyzed for
//! deadlock but derives no segments; every evaluation then uses the engine
//! fallback (still exact, just not closed-form).
//!
//! See `docs/ANALYTIC.md` for the full segment semantics and breakpoint
//! math.

use crate::config::{assert_valid_bandwidth, validate_bandwidth};
use crate::engine::{drive, EngineError, Executor, RpuEngine};
use crate::plan::ExecPlan;
use crate::stats::ExecutionStats;
use crate::task::{Task, TaskGraph, TaskId, TaskKind};
use crate::trace::{EngineQueue, TaskRecord};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Hard cap on derived segments per timeline: a backstop against
/// pathologically dense breakpoint clusters, far above what real schedules
/// produce. Bandwidths below the last derived segment simply fall back to
/// the event engine.
const MAX_SEGMENTS: usize = 512;

/// Hard cap on symbolic engine runs per analysis. Derivation normally takes
/// one run per segment (plus the odd merged re-derivation when a breakpoint
/// estimate is conservative); this bounds the ill-conditioned worst case
/// where ulp-sized steps stop making progress.
const MAX_RUNS: usize = 1024;

/// Ladder evaluation batch width: [`ParametricTimeline::evaluate_many`]
/// replays one script walk for this many bandwidths at a time, sharing
/// every dependency lookup across lanes.
const LANES: usize = 8;

/// A time that is affine in inverse bandwidth:
/// `seconds(bandwidth) = constant + per_inverse_gbps / bandwidth_gbps`.
///
/// Affine forms are the timeline's *analytic view* — they are exact in real
/// arithmetic within a segment's [`Segment::affine_range_gbps`] but evaluate
/// with ordinary floating-point error. Bit-exact numbers always come from
/// [`ParametricTimeline::evaluate`], which replays the engine's own
/// arithmetic instead of collapsing it into two coefficients.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AffineTime {
    /// Bandwidth-independent part in seconds (compute durations and
    /// compute-bound slack end up here).
    pub constant: f64,
    /// Coefficient of `1 / bandwidth_gbps` in seconds·GB/s — for a single
    /// memory task this is `bytes / 1e9`.
    pub per_inverse_gbps: f64,
}

impl AffineTime {
    /// Evaluates the affine form at a bandwidth in GB/s.
    #[must_use]
    pub fn at(&self, bandwidth_gbps: f64) -> f64 {
        self.constant + self.per_inverse_gbps / bandwidth_gbps
    }
}

/// A concrete time paired with its affine form. The `v` component mirrors
/// the engine's floating-point arithmetic operation for operation (it drives
/// every branch the symbolic run takes); `c`/`m` carry the affine view used
/// for breakpoint estimation and [`Segment::runtime_affine`].
#[derive(Debug, Clone, Copy)]
struct Sym {
    v: f64,
    c: f64,
    m: f64,
}

impl Sym {
    const ZERO: Sym = Sym {
        v: 0.0,
        c: 0.0,
        m: 0.0,
    };

    fn add(self, other: Sym) -> Sym {
        Sym {
            v: self.v + other.v,
            c: self.c + other.c,
            m: self.m + other.m,
        }
    }

    fn affine(self) -> AffineTime {
        AffineTime {
            constant: self.c,
            per_inverse_gbps: self.m,
        }
    }
}

/// One entry of a segment's replay script: a task retiring on a queue, in
/// the anchor run's retirement order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScriptEntry {
    task: u32,
    /// `0` is the compute queue, `1 + c` is memory channel `c`.
    queue: u32,
}

/// One checked bus grant of a segment's certificate: the bus scan happens
/// when memory task `after` retires (`NO_TASK` for the first grant, scanned
/// at time zero), and `checks_end` is the exclusive end of the grant's slice
/// in the segment's flat [`Check`] list. Grants whose choice no readiness
/// can change carry no checks and are not stored — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Grant {
    after: u32,
    checks_end: u32,
}

/// [`Grant::after`] for the first grant: no memory task has retired yet.
const NO_TASK: u32 = u32::MAX;

/// One certificate comparison: at the grant it belongs to, compute task
/// `comp` (the latest compute dependency of some channel head) must finish
/// no later than the previous grant retired (`le`) or strictly after
/// (`!le`) for the recorded grant choice to remain the engine's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Check {
    comp: u32,
    le: bool,
}

/// One segment: a bandwidth interval over which the engine grants the bus
/// in the same order for the same head-readiness reasons. Every event time
/// is piecewise-linear in inverse bandwidth over it, kinking only at
/// ready-time crossovers; the makespan's affine form
/// ([`Segment::runtime_affine`]) holds between the two crossovers nearest
/// the anchor bandwidth the segment was derived at
/// ([`Segment::affine_range_gbps`]).
#[derive(Debug, Clone)]
pub struct Segment {
    lo_gbps: f64,
    hi_gbps: f64,
    affine_lo_gbps: f64,
    affine_hi_gbps: f64,
    runtime: AffineTime,
    script: Vec<ScriptEntry>,
    grants: Vec<Grant>,
    checks: Vec<Check>,
}

impl Segment {
    /// The `(lo, hi)` bandwidth interval (GB/s) over which the engine's
    /// grant certificate provably holds. The edges are estimated from the
    /// affine forms; evaluation re-verifies every point, so the interval is
    /// a lookup hint, never a source of truth.
    #[must_use]
    pub fn bandwidth_range_gbps(&self) -> (f64, f64) {
        (self.lo_gbps, self.hi_gbps)
    }

    /// The sub-interval of [`Segment::bandwidth_range_gbps`] where the
    /// affine forms of the symbolic run are additionally exact (in real
    /// arithmetic): between two *ready-time crossovers* — bandwidths where a
    /// different dependency (or queue backpressure) becomes the one a task
    /// waits on. A crossover changes the affine coefficients without
    /// changing the grant sequence, so it bounds the affine view but not the
    /// bit-exact replay.
    #[must_use]
    pub fn affine_range_gbps(&self) -> (f64, f64) {
        (self.affine_lo_gbps, self.affine_hi_gbps)
    }

    /// The makespan as an affine function of inverse bandwidth, exact within
    /// [`Segment::affine_range_gbps`].
    #[must_use]
    pub fn runtime_affine(&self) -> AffineTime {
        self.runtime
    }

    /// Number of certificate comparisons (head-readiness checks) re-verified
    /// on every replayed evaluation. Forced grants (one channel left with
    /// queued tasks) add none, so a single-channel segment has zero.
    #[must_use]
    pub fn grant_checks(&self) -> usize {
        self.checks.len()
    }

    fn same_behaviour(&self, other: &Segment) -> bool {
        self.script == other.script && self.grants == other.grants && self.checks == other.checks
    }
}

/// Per-task start/finish sampled from a replayed evaluation, in the anchor
/// run's retirement order. The engine's own trace at the evaluated
/// bandwidth may interleave the compute and memory retirements differently
/// (a segment fixes the grant order, not how the queues interleave), but
/// every task's recorded times agree bit for bit.
pub type SampledTimes = Vec<TaskRecord>;

/// The piecewise-linear timeline of one `(schedule, channel map,
/// configuration)` triple over a bandwidth range: one segment per bus grant
/// sequence, each with the makespan as an affine function of inverse
/// bandwidth, and bit-exact evaluation at any bandwidth. Built by
/// [`RpuEngine::analyze`].
#[derive(Debug)]
pub struct ParametricTimeline {
    engine: RpuEngine,
    graph: TaskGraph,
    /// The plan every symbolic run and engine fallback executes.
    plan: Arc<ExecPlan>,
    lo_gbps: f64,
    hi_gbps: f64,
    truncated: bool,
    segments: Vec<Segment>,
    /// Per-task bandwidth-independent duration (compute tasks; `0.0` for
    /// memory tasks, whose duration is recomputed per point).
    fixed_duration: Vec<f64>,
    /// Per-task transfer size as `bytes as f64` (memory tasks; `0.0` for
    /// compute tasks).
    bytes_f64: Vec<f64>,
    /// Flattened per-task dependency lists (CSR), for the replay's
    /// ready-time computation.
    dep_offsets: Vec<u32>,
    dep_edges: Vec<u32>,
    template: ExecutionStats,
    fallbacks: AtomicUsize,
}

impl ParametricTimeline {
    /// The `(lo, hi)` bandwidth range (GB/s) the timeline was derived over.
    #[must_use]
    pub fn bandwidth_range_gbps(&self) -> (f64, f64) {
        (self.lo_gbps, self.hi_gbps)
    }

    /// The execution plan the timeline was derived on (and falls back to).
    #[must_use]
    pub fn plan(&self) -> &Arc<ExecPlan> {
        &self.plan
    }

    /// The derived segments, ascending by bandwidth.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The interior segment edges: bandwidths where the engine's grant
    /// sequence changes (a contested grant choice or a retired-compute
    /// prefix flips). Sorted ascending, deduplicated, strictly inside the
    /// analyzed range. Not every kink of the runtime curve is one: the
    /// ready-time crossovers inside a segment bend it without reordering
    /// grants (see [`Segment::affine_range_gbps`]), and a single-channel
    /// timeline, whose grants are all forced, has no breakpoints at all.
    #[must_use]
    pub fn breakpoints_gbps(&self) -> Vec<f64> {
        let mut edges: Vec<f64> = self
            .segments
            .iter()
            .skip(1)
            .map(|s| s.lo_gbps)
            .filter(|&b| b > self.lo_gbps && b < self.hi_gbps)
            .collect();
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        edges
    }

    /// True when segment derivation stopped before covering the full range:
    /// the `MAX_SEGMENTS` / `MAX_RUNS` backstops fired, or the graph is
    /// not certifiable (a zero-duration compute task breaks the
    /// certificate's prefix counting). Uncovered bandwidths are still
    /// answered exactly, via the event-engine fallback. Kept as an oracle
    /// surface: the integration suites check coverage with it.
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// How many evaluations so far fell back to the event engine (points no
    /// segment could certify). Diagnostic only.
    #[must_use]
    pub fn fallback_evaluations(&self) -> usize {
        self.fallbacks.load(AtomicOrdering::Relaxed)
    }

    /// Evaluates the execution statistics at one bandwidth, bit-identical to
    /// `RpuEngine::execute_stats` on the same graph with the bandwidth
    /// swapped in: replay + certificate check where a segment certifies the
    /// point, event-engine fallback otherwise. Bandwidths outside the
    /// analyzed range are legal: a segment with no certificate checks (every
    /// single-channel one) certifies them too, others tend to fall back.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not finite and positive (the rule of
    /// [`RpuConfig::validate`](crate::RpuConfig::validate)); the message
    /// names the value.
    #[must_use]
    pub fn evaluate(&self, bandwidth_gbps: f64) -> ExecutionStats {
        assert_valid_bandwidth(bandwidth_gbps);
        self.evaluate_with(bandwidth_gbps, &mut vec![[0.0]; self.fixed_duration.len()])
    }

    /// Evaluates a whole bandwidth ladder. Points are processed `LANES` at
    /// a time through one shared script walk (each lane's arithmetic is
    /// operation-for-operation a single point's, so results stay
    /// bit-identical); lanes the shared segment cannot certify re-evaluate
    /// individually with neighbour probing and engine fallback. Entries are
    /// evaluated independently in the given order, so duplicates and
    /// unsorted ladders are fine (duplicates produce bit-identical rows).
    ///
    /// # Panics
    ///
    /// As [`ParametricTimeline::evaluate`], for any entry of the ladder
    /// (checked before anything is evaluated).
    #[must_use]
    pub fn evaluate_many(&self, bandwidths_gbps: &[f64]) -> Vec<ExecutionStats> {
        bandwidths_gbps
            .iter()
            .copied()
            .for_each(assert_valid_bandwidth);
        let n = self.fixed_duration.len();
        let mut scratch = vec![[0.0]; n];
        let mut lanes = vec![[0.0; LANES]; n];
        let mut out = Vec::with_capacity(bandwidths_gbps.len());
        let mut chunks = bandwidths_gbps.chunks_exact(LANES);
        for chunk in &mut chunks {
            let bws: &[f64; LANES] = chunk.try_into().expect("chunk has LANES entries");
            let batch = match self.candidate_index(bws[0]) {
                Some(idx) => self.replay(&self.segments[idx], bws, &mut lanes),
                None => Default::default(),
            };
            for (stats, &b) in batch.into_iter().zip(bws) {
                out.push(stats.unwrap_or_else(|| self.evaluate_with(b, &mut scratch)));
            }
        }
        for &b in chunks.remainder() {
            out.push(self.evaluate_with(b, &mut scratch));
        }
        out
    }

    /// The per-task spans a replayed evaluation produces at `bandwidth_gbps`,
    /// in the anchor run's retirement order, which may differ from the
    /// engine's trace order at this bandwidth; per-task times still agree
    /// bit for bit (match records by task id). Returns `None` when no
    /// segment certifies the point, including for a bandwidth that is not
    /// finite and positive (the evaluation would have used the engine
    /// itself, whose trace is then the reference anyway). Kept as an oracle
    /// surface: the integration suites diff it against the engine's trace.
    #[must_use]
    pub fn sampled_times(&self, bandwidth_gbps: f64) -> Option<SampledTimes> {
        validate_bandwidth(bandwidth_gbps).ok()?;
        let mut ends = vec![[0.0]; self.fixed_duration.len()];
        let (segment, _) = self.certify(bandwidth_gbps, &mut ends)?;
        let tasks = self.graph.tasks();
        let dbps = bandwidth_gbps * 1e9;
        Some(
            segment
                .script
                .iter()
                .map(|entry| {
                    let t = entry.task as usize;
                    let [end] = ends[t];
                    let duration = if entry.queue == 0 {
                        self.fixed_duration[t]
                    } else {
                        self.bytes_f64[t] / dbps
                    };
                    TaskRecord {
                        task: t,
                        queue: match entry.queue {
                            0 => EngineQueue::Compute,
                            q => EngineQueue::Memory((q - 1) as usize),
                        },
                        start_seconds: end - duration,
                        end_seconds: end,
                        label: Arc::clone(&tasks[t].label),
                        stage: Arc::clone(&tasks[t].stage),
                    }
                })
                .collect(),
        )
    }

    /// One validated bandwidth: a certified replay, else the engine.
    fn evaluate_with(&self, bandwidth_gbps: f64, ends: &mut [[f64; 1]]) -> ExecutionStats {
        if let Some((_, stats)) = self.certify(bandwidth_gbps, ends) {
            return stats;
        }
        self.fallbacks.fetch_add(1, AtomicOrdering::Relaxed);
        RpuEngine::new(self.engine.config().clone().with_bandwidth(bandwidth_gbps))
            .execute_stats_plan(&self.graph, &self.plan)
            .expect("deadlock is timing-independent and the anchor run succeeded")
    }

    /// Replays one bandwidth against the segment whose interval hint
    /// contains it, then against that segment's two neighbours (interval
    /// edges are estimates; the certificate check is what decides). Returns
    /// the first segment that certifies the point with its statistics, the
    /// replayed finish times left in `ends`; `None` when nothing certifies
    /// it.
    fn certify(
        &self,
        bandwidth_gbps: f64,
        ends: &mut [[f64; 1]],
    ) -> Option<(&Segment, ExecutionStats)> {
        let idx = self.candidate_index(bandwidth_gbps)?;
        [Some(idx), idx.checked_sub(1), Some(idx + 1)]
            .into_iter()
            .flatten()
            .filter_map(|probe| self.segments.get(probe))
            .find_map(|segment| {
                let [stats] = self.replay(segment, &[bandwidth_gbps], ends);
                Some((segment, stats?))
            })
    }

    fn candidate_index(&self, bandwidth_gbps: f64) -> Option<usize> {
        if self.segments.is_empty() {
            return None;
        }
        let idx = self
            .segments
            .partition_point(|s| s.lo_gbps <= bandwidth_gbps);
        Some(idx.saturating_sub(1))
    }

    /// Replays one segment's script at `L` bandwidths at once with the
    /// engine's own arithmetic, sharing the script walk and every dependency
    /// lookup across lanes, then verifies the grant certificate per lane
    /// against the replayed finish times: for each grant, every recorded
    /// head-readiness comparison must resolve the way it did at the anchor.
    /// Lane `l` yields bit-exact statistics when all of them do and `None`
    /// otherwise. Each lane performs the identical sequence of `max`/`+`/`/`
    /// operations whatever `L` is, just interleaved with the other lanes, so
    /// the lane count never changes a bit.
    fn replay<const L: usize>(
        &self,
        segment: &Segment,
        bws: &[f64; L],
        ends: &mut [[f64; L]],
    ) -> [Option<ExecutionStats>; L] {
        let dbps = bws.map(|b| b * 1e9);
        let channels = self.template.memory_channel_busy_seconds.len();
        let mut channel_busy = vec![[0.0f64; L]; channels];
        let mut compute_busy = [0.0f64; L];
        let mut memory_busy = [0.0f64; L];
        let mut compute_free = [0.0f64; L];
        let mut bus_free = [0.0f64; L];
        let mut makespan = [0.0f64; L];
        for entry in &segment.script {
            let t = entry.task as usize;
            // Ready time: the max finish time over the task's dependencies.
            // The engine folds them in retirement order, this loop in
            // dependency-list order — `f64::max` is exact, so the fold is
            // order-independent and the bits agree.
            let mut ready = [0.0f64; L];
            for &d in
                &self.dep_edges[self.dep_offsets[t] as usize..self.dep_offsets[t + 1] as usize]
            {
                let e = &ends[d as usize];
                for l in 0..L {
                    ready[l] = ready[l].max(e[l]);
                }
            }
            if entry.queue == 0 {
                let duration = self.fixed_duration[t];
                for l in 0..L {
                    let start = ready[l].max(compute_free[l]);
                    let end = start + duration;
                    compute_busy[l] += end - start;
                    compute_free[l] = end;
                    ends[t][l] = end;
                    makespan[l] = makespan[l].max(end);
                }
            } else {
                let bytes = self.bytes_f64[t];
                let busy = &mut channel_busy[(entry.queue - 1) as usize];
                for l in 0..L {
                    let start = ready[l].max(bus_free[l]);
                    let end = start + bytes / dbps[l];
                    memory_busy[l] += end - start;
                    busy[l] += end - start;
                    bus_free[l] = end;
                    ends[t][l] = end;
                    makespan[l] = makespan[l].max(end);
                }
            }
        }
        // Certificate check, written so a NaN anywhere clears the lane's
        // flag (and falls back) instead of certifying.
        let mut ok = [true; L];
        let mut first = 0usize;
        for grant in &segment.grants {
            let slice = &segment.checks[first..grant.checks_end as usize];
            first = grant.checks_end as usize;
            let te = ends.get(grant.after as usize).copied().unwrap_or([0.0; L]);
            for check in slice {
                let e = &ends[check.comp as usize];
                if check.le {
                    for l in 0..L {
                        ok[l] &= e[l] <= te[l];
                    }
                } else {
                    for l in 0..L {
                        ok[l] &= e[l] > te[l];
                    }
                }
            }
        }
        std::array::from_fn(|l| {
            ok[l].then(|| {
                let mut stats = self.template.clone();
                stats.runtime_seconds = makespan[l];
                stats.compute_busy_seconds = compute_busy[l];
                stats.memory_busy_seconds = memory_busy[l];
                stats.memory_channel_busy_seconds =
                    channel_busy.iter().map(|busy| busy[l]).collect();
                stats
            })
        })
    }
}

impl RpuEngine {
    /// Runs the engine symbolically over `[lo_gbps, hi_gbps]` (aggregate
    /// DRAM bandwidth, GB/s) and returns the piecewise-linear
    /// [`ParametricTimeline`]. The engine's *own* bandwidth setting is
    /// irrelevant — every evaluation substitutes its point's bandwidth; all
    /// other configuration (MODOPS, channel count, channel map, evk policy)
    /// is taken from `self`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Deadlock`] exactly when
    /// [`RpuEngine::execute_stats`] would: the deadlock condition is a
    /// property of the schedule and queue placement, independent of timing,
    /// so one symbolic run decides it for every bandwidth.
    /// [`EngineError::NonFiniteTime`] reports a degenerate MODOPS rate.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid: non-finite, non-positive, or
    /// `lo_gbps > hi_gbps`. (The `ciflow` sweep layer validates ladders and
    /// reports `InvalidConfig` before ever reaching this.)
    pub fn analyze(
        &self,
        graph: &TaskGraph,
        lo_gbps: f64,
        hi_gbps: f64,
    ) -> Result<ParametricTimeline, EngineError> {
        self.analyze_plan(graph, Arc::new(self.plan(graph)), lo_gbps, hi_gbps)
    }

    /// [`RpuEngine::analyze`] on a prebuilt plan of `graph`: every symbolic
    /// run of the derivation, and every engine fallback of the returned
    /// timeline, executes this one plan.
    ///
    /// # Errors
    ///
    /// As [`RpuEngine::analyze`], plus [`EngineError::PlanMismatch`] when
    /// the plan was compiled for another task or channel count.
    ///
    /// # Panics
    ///
    /// As [`RpuEngine::analyze`].
    pub fn analyze_plan(
        &self,
        graph: &TaskGraph,
        plan: Arc<ExecPlan>,
        lo_gbps: f64,
        hi_gbps: f64,
    ) -> Result<ParametricTimeline, EngineError> {
        assert!(
            lo_gbps.is_finite() && hi_gbps.is_finite() && lo_gbps > 0.0 && lo_gbps <= hi_gbps,
            "invalid bandwidth range [{lo_gbps}, {hi_gbps}] GB/s: bounds must be finite, \
             positive and ordered"
        );
        let tasks = graph.tasks();
        let n = tasks.len();
        let mut fixed_duration = vec![0.0f64; n];
        let mut bytes_f64 = vec![0.0f64; n];
        for task in tasks {
            match task.kind {
                TaskKind::Compute { .. } => fixed_duration[task.id] = self.task_duration(task),
                TaskKind::Memory { bytes, .. } => bytes_f64[task.id] = bytes as f64,
            }
        }
        let mut dep_offsets = vec![0u32; n + 1];
        for task in tasks {
            dep_offsets[task.id + 1] = dep_offsets[task.id] + task.dependencies.len() as u32;
        }
        let mut dep_edges = Vec::with_capacity(dep_offsets[n] as usize);
        for task in tasks {
            dep_edges.extend(task.dependencies.iter().map(|&d| d as u32));
        }

        self.check_plan(graph, &plan)?;
        // Certificate precondition: "retired by the scan" must coincide with
        // "finished no later than the scan's bus-free time", which holds iff
        // every compute duration is positive.
        let certifiable = plan
            .compute_queue()
            .iter()
            .all(|&c| fixed_duration[c as usize] > 0.0);
        let template = plan.unstarted_stats();

        // Derive segments from the high-bandwidth end downwards: each
        // symbolic run certifies an interval around its anchor, and the next
        // anchor is placed just below the interval's lower edge (the nearest
        // breakpoint). Adjacent anchors whose certificates agree merge. An
        // uncertifiable graph still gets one symbolic run — `analyze` must
        // report deadlock exactly like the engine — but keeps no segments.
        let mut segments: Vec<Segment> = Vec::new();
        let mut truncated = false;
        let mut anchor = hi_gbps;
        let mut runs = 0usize;
        let mut stall = 0u32;
        loop {
            let segment = self.symbolic_run(graph, &plan, anchor, lo_gbps, hi_gbps)?;
            runs += 1;
            if !certifiable {
                truncated = true;
                break;
            }
            let reached_lo = segment.lo_gbps <= lo_gbps;
            match segments.last_mut() {
                Some(prev) if prev.same_behaviour(&segment) => {
                    prev.lo_gbps = prev.lo_gbps.min(segment.lo_gbps);
                    prev.affine_lo_gbps = prev.affine_lo_gbps.min(segment.affine_lo_gbps);
                }
                _ => segments.push(segment),
            }
            if reached_lo {
                break;
            }
            if segments.len() >= MAX_SEGMENTS || runs >= MAX_RUNS {
                truncated = true;
                break;
            }
            let edge = segments.last().map_or(lo_gbps, |s| s.lo_gbps);
            // Step strictly below the edge. Exactly at a tie the derived
            // interval degenerates to (or ends at) the anchor itself, and an
            // ulp step would grind through the pinch one ulp per run — so
            // demand a minimum relative decrease, escalating while stalled
            // (any sliver skipped this way is served by the engine
            // fallback).
            let mut next = edge.next_down();
            if next.is_nan() || next >= anchor * (1.0 - 1e-12) {
                stall = (stall + 1).min(20);
                next = anchor * (1.0 - 1e-9 * f64::from(1u32 << stall));
            } else {
                stall = 0;
            }
            anchor = next.max(lo_gbps);
        }
        segments.reverse();

        Ok(ParametricTimeline {
            engine: self.clone(),
            graph: graph.clone(),
            plan,
            lo_gbps,
            hi_gbps,
            truncated,
            segments,
            fixed_duration,
            bytes_f64,
            dep_offsets,
            dep_edges,
            template,
            fallbacks: AtomicUsize::new(0),
        })
    }

    /// One symbolic execution at `anchor_gbps`: the engine's own control
    /// flow ([`drive`]) over [`Symbolic`] times — identical concrete
    /// arithmetic on the `v` components, so every branch is the engine's —
    /// then the post-pass that turns the recorded grant evidence into the
    /// segment's certificate and its nearest flips in both directions.
    fn symbolic_run(
        &self,
        graph: &TaskGraph,
        plan: &ExecPlan,
        anchor_gbps: f64,
        lo_gbps: f64,
        hi_gbps: f64,
    ) -> Result<Segment, EngineError> {
        let tasks = graph.tasks();
        let n = tasks.len();
        let x0 = 1.0 / anchor_gbps;
        let mut compute_pos: Vec<u32> = vec![u32::MAX; n];
        for (i, &c) in (0u32..).zip(plan.compute_queue()) {
            compute_pos[c as usize] = i;
        }
        let mut run = Symbolic {
            engine: self,
            tasks,
            plan,
            x0,
            dbps: anchor_gbps * 1e9,
            aff: (0.0, f64::INFINITY),
            ends: vec![AffineTime::default(); n],
            script: Vec::with_capacity(n),
            raw: Vec::new(),
            grants_raw: Vec::new(),
            ends_v: vec![0.0; n],
            mem_retired: vec![false; n],
            compute_pos,
        };
        let makespan = drive(&mut run, tasks, plan)?;
        let Symbolic {
            mut aff,
            ends,
            script,
            raw,
            grants_raw,
            ends_v,
            ..
        } = run;
        // Running breakpoint bounds in x = 1/bandwidth space. `dec` bounds
        // come from certificate flips (grant-sequence changes — true segment
        // edges); `aff` bounds additionally include the ready-time
        // crossovers the run folded in (max-argument switches that bend the
        // affine forms without reordering grants).
        let mut dec = (0.0f64, f64::INFINITY);

        // Post-pass: resolve each raw readiness record into a directed
        // comparison and fold its crossing into the `dec` bounds. Deferred
        // to here because an unready head's gating compute may only acquire
        // its finish time later in the run. The `.max(x0)` / `.min(x0)`
        // clamps keep the anchor inside its own interval whatever the
        // crossing's floating-point rounding did — in particular an exact
        // tie at the anchor (crossing ≈ x0) makes the anchor an interval
        // *endpoint*, not a degenerate point.
        let fold_flip = |bounds: &mut (f64, f64), dc: f64, dm: f64, bad_above: bool| {
            if dm == 0.0 {
                return;
            }
            let xs = -dc / dm;
            if !xs.is_finite() {
                return;
            }
            if bad_above {
                bounds.1 = bounds.1.min(xs.max(x0));
            } else {
                bounds.0 = bounds.0.max(xs.min(x0));
            }
        };
        let mut grants: Vec<Grant> = Vec::new();
        let mut checks: Vec<Check> = Vec::new();
        let mut after = NO_TASK;
        let mut te_v = 0.0f64;
        let mut te = AffineTime::default();
        let mut first = 0usize;
        for &(mem, raw_end) in &grants_raw {
            let slice = &raw[first..raw_end as usize];
            first = raw_end as usize;
            // Immediate-grant regime iff the winner was ready when the bus
            // freed (no gating compute ⇒ unconditionally ready).
            let case_a = slice
                .iter()
                .find(|&&(head, _)| head == mem)
                .is_none_or(|&(_, comp)| ends_v[comp as usize] <= te_v);
            for &(head, comp) in slice {
                let le = ends_v[comp as usize] <= te_v;
                if head != mem {
                    if case_a && head > mem {
                        // In the immediate-grant regime a lower-priority
                        // head cannot influence the choice either way.
                        continue;
                    }
                    debug_assert!(!le, "a preceding ready head would have won the grant");
                }
                checks.push(Check { comp, le });
                let e = ends[comp as usize];
                let (dc, dm) = (
                    e.constant - te.constant,
                    e.per_inverse_gbps - te.per_inverse_gbps,
                );
                // An `le` comparison breaks where its difference turns
                // positive, a `gt` comparison where it turns non-positive.
                fold_flip(&mut dec, dc, dm, if le { dm > 0.0 } else { dm < 0.0 });
            }
            if checks.len() > grants.last().map_or(0, |g| g.checks_end as usize) {
                grants.push(Grant {
                    after,
                    checks_end: checks.len() as u32,
                });
            }
            after = mem;
            te_v = ends_v[mem as usize];
            te = ends[mem as usize];
        }

        // The affine view is only meaningful where the grant order holds.
        aff.0 = aff.0.max(dec.0);
        aff.1 = aff.1.min(dec.1);

        // x bounds → bandwidth interval (x = 1/bw reverses the order), clip
        // to the analyzed range, and make sure the anchor stays inside its
        // own interval whatever the conversion rounding did.
        let to_bw = |bounds: (f64, f64), anchor: f64| -> (f64, f64) {
            let lo = if bounds.1.is_infinite() {
                lo_gbps
            } else {
                (1.0 / bounds.1).max(lo_gbps)
            };
            let hi = if bounds.0 <= 0.0 {
                hi_gbps
            } else {
                (1.0 / bounds.0).min(hi_gbps)
            };
            (lo.min(anchor), hi.max(anchor))
        };
        let (lo, hi) = to_bw(dec, anchor_gbps);
        let (affine_lo, affine_hi) = to_bw(aff, anchor_gbps);

        Ok(Segment {
            lo_gbps: lo,
            hi_gbps: hi,
            affine_lo_gbps: affine_lo,
            affine_hi_gbps: affine_hi,
            runtime: makespan.affine(),
            script,
            grants,
            checks,
        })
    }
}

/// The symbolic executor behind [`RpuEngine::analyze`]: [`drive`]'s control
/// flow over times that carry, next to the engine's concrete value `v`,
/// their affine form in inverse bandwidth — plus the replay script and the
/// raw grant evidence the certificate is built from.
struct Symbolic<'a> {
    engine: &'a RpuEngine,
    tasks: &'a [Task],
    plan: &'a ExecPlan,
    /// `1 / anchor bandwidth`: where the affine forms are anchored.
    x0: f64,
    /// The anchor bandwidth in bytes per second.
    dbps: f64,
    /// Bounds in `x` from ready-time crossovers (see [`Symbolic::later`]).
    aff: (f64, f64),
    /// Each task's finish time as an affine form, for the post-pass's
    /// breakpoint estimates.
    ends: Vec<AffineTime>,
    script: Vec<ScriptEntry>,
    /// Per grant, every channel head whose memory dependencies were already
    /// retired, paired with the latest compute dependency gating its
    /// readiness; `grants_raw` closes each grant's slice of it.
    raw: Vec<(u32, u32)>,
    grants_raw: Vec<(u32, u32)>,
    /// The anchor's concrete finish times, to resolve each comparison's
    /// direction in the post-pass.
    ends_v: Vec<f64>,
    mem_retired: Vec<bool>,
    compute_pos: Vec<u32>,
}

impl Executor for Symbolic<'_> {
    type Time = Sym;
    const ZERO: Sym = Sym::ZERO;

    fn seconds(time: Sym) -> f64 {
        time.v
    }

    /// The max by the engine's concrete value; on an exact value tie the
    /// steeper affine branch wins, so the view stays the max just above the
    /// anchor. Where the loser's affine form crosses the winner's is a
    /// ready-time crossover, folded into `aff`.
    fn later(&mut self, a: Sym, b: Sym) -> Sym {
        let (w, l) = match a.v.partial_cmp(&b.v) {
            Some(Ordering::Greater) => (a, b),
            Some(Ordering::Less) => (b, a),
            _ if a.m >= b.m => (a, b),
            _ => (b, a),
        };
        // The (loser - winner) difference is ≤ 0 at the anchor; it can only
        // cross zero where dc + dm·x = 0.
        let (dc, dm) = (l.c - w.c, l.m - w.m);
        let xs = -dc / dm;
        if dm != 0.0 && xs.is_finite() {
            match xs.partial_cmp(&self.x0) {
                Some(Ordering::Greater) => self.aff.1 = self.aff.1.min(xs),
                Some(Ordering::Less) => self.aff.0 = self.aff.0.max(xs),
                _ => self.aff = (self.x0, self.x0),
            }
        }
        Sym {
            v: a.v.max(b.v),
            c: w.c,
            m: w.m,
        }
    }

    fn finish(&mut self, task: TaskId, start: Sym) -> Sym {
        let task = &self.tasks[task];
        start.add(match task.kind {
            TaskKind::Compute { .. } => {
                let d = self.engine.task_duration(task);
                Sym { v: d, c: d, m: 0.0 }
            }
            TaskKind::Memory { bytes, .. } => Sym {
                v: bytes as f64 / self.dbps,
                c: 0.0,
                m: bytes as f64 / 1e9,
            },
        })
    }

    fn issued(
        &mut self,
        task: TaskId,
        channel: Option<usize>,
        (_, end): (Sym, Sym),
        heads: &[usize],
    ) {
        self.ends[task] = end.affine();
        self.ends_v[task] = end.v;
        if channel.is_none() {
            return;
        }
        let queues = self.plan.memory_queues();
        let contenders = queues
            .iter()
            .zip(heads)
            .filter(|&(queue, &cursor)| cursor < queue.len())
            .count();
        // A forced grant: the granted head is the only one queued, so it
        // wins whenever it becomes ready and no readiness can change `G`.
        // Record no evidence for it (the replay's `max(ready, bus_free)` is
        // exact at every bandwidth).
        if contenders <= 1 {
            self.grants_raw.push((task as u32, self.raw.len() as u32));
            return;
        }
        // Record this grant's readiness evidence while the pre-grant heads
        // are still in place: every head whose memory dependencies are
        // retired, with the latest compute dependency gating it (none ⇒
        // unconditionally ready ⇒ nothing value-dependent to record).
        for (queue, &cursor) in queues.iter().zip(heads) {
            let Some(&h2) = queue.get(cursor) else {
                continue;
            };
            let mut eligible = true;
            let mut latest: Option<u32> = None;
            for &d in &self.tasks[h2 as usize].dependencies {
                match self.tasks[d].kind {
                    TaskKind::Compute { .. } => {
                        let p = self.compute_pos[d];
                        latest = Some(latest.map_or(p, |q| q.max(p)));
                    }
                    TaskKind::Memory { .. } => {
                        if !self.mem_retired[d] {
                            eligible = false;
                            break;
                        }
                    }
                }
            }
            if let (true, Some(pos)) = (eligible, latest) {
                self.raw.push((h2, self.plan.compute_queue()[pos as usize]));
            }
        }
        self.grants_raw.push((task as u32, self.raw.len() as u32));
    }

    fn retired(&mut self, task: TaskId, channel: Option<usize>, _span: (Sym, Sym)) {
        self.script.push(ScriptEntry {
            task: task as u32,
            queue: channel.map_or(0, |c| 1 + c as u32),
        });
        if channel.is_some() {
            self.mem_retired[task] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RpuConfig;
    use crate::task::{ComputeKind, MemoryDirection, TaskGraph};
    use MemoryDirection::{Load, Store};

    /// 1 Gop/s compute, bandwidth in GB/s — round numbers for hand checks.
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

    fn race_graph() -> TaskGraph {
        // Compute C (1 s) races memory M (2e9 bytes): M finishes first above
        // 2 GB/s, C first below — one breakpoint at 2 GB/s. The consumers
        // make the retirement order observable in the busy accounting.
        let mut g = TaskGraph::new();
        let c = g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![], "c", "P1");
        let m = g.push_memory(MemoryDirection::Load, 2_000_000_000, vec![], "m", "P1");
        g.push_memory(MemoryDirection::Store, 500_000_000, vec![c], "out", "P5");
        g.push_compute(ComputeKind::Intt, 300_000_000, vec![m], "c2", "P2");
        g
    }

    /// A two-channel race whose grant order flips at 2 GB/s. Load M
    /// (2e9 bytes, channel 0) retires at 2/bw s; compute C takes 1 s. At M's
    /// retirement channel 0's next head X waits on C and channel 1's head Y
    /// only on M: at or below 2 GB/s both are ready and X (the lower id)
    /// wins, above it only Y is.
    fn two_channel_race() -> (RpuEngine, TaskGraph) {
        let mut g = TaskGraph::new();
        let c = g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![], "c", "P1");
        let m = g.push_memory_on(Load, 2_000_000_000, vec![], "m", "P1", Some(0));
        g.push_memory_on(Store, 500_000_000, vec![c], "x", "P5", Some(0));
        g.push_memory_on(Load, 500_000_000, vec![m], "y", "P1", Some(1));
        let config = RpuConfig {
            num_memory_channels: 2,
            ..unit_config()
        };
        (RpuEngine::new(config), g)
    }

    fn assert_bit_identical(
        engine: &RpuEngine,
        graph: &TaskGraph,
        timeline: &ParametricTimeline,
        bw: f64,
    ) {
        let reference = RpuEngine::new(engine.config().clone().with_bandwidth(bw))
            .with_channel_map(engine.channel_map().clone())
            .execute_stats(graph)
            .unwrap();
        let got = timeline.evaluate(bw);
        assert_eq!(got, reference, "divergence at {bw} GB/s");
        assert_eq!(
            got.runtime_seconds.to_bits(),
            reference.runtime_seconds.to_bits()
        );
    }

    #[test]
    fn single_breakpoint_is_found_and_evaluation_is_bit_exact() {
        let (engine, g) = two_channel_race();
        let timeline = engine.analyze(&g, 0.5, 16.0).unwrap();
        let breakpoints = timeline.breakpoints_gbps();
        assert!(
            breakpoints.iter().any(|b| (b - 2.0).abs() < 1e-6),
            "expected a breakpoint near 2 GB/s, got {breakpoints:?}"
        );
        for bw in [0.5, 1.0, 1.9999, 2.0, 2.0001, 3.0, 16.0, 2.0_f64.next_up()] {
            assert_bit_identical(&engine, &g, &timeline, bw);
        }
    }

    #[test]
    fn a_tie_at_the_breakpoint_is_certified_without_fallback() {
        // At exactly 2 GB/s the compute and the racing load finish at the
        // same instant; the inclusive prefix condition keeps the point
        // certifiable, so no engine fallback is needed anywhere on the grid.
        let engine = RpuEngine::new(unit_config());
        let g = race_graph();
        let timeline = engine.analyze(&g, 0.5, 16.0).unwrap();
        for bw in [0.5, 1.0, 2.0, 2.0_f64.next_down(), 2.0_f64.next_up(), 16.0] {
            assert_bit_identical(&engine, &g, &timeline, bw);
        }
        assert_eq!(
            timeline.fallback_evaluations(),
            0,
            "every grid point should be certified by a segment"
        );
    }

    #[test]
    fn affine_view_matches_replay_inside_its_range() {
        let engine = RpuEngine::new(unit_config());
        let g = race_graph();
        let timeline = engine.analyze(&g, 0.5, 16.0).unwrap();
        for segment in timeline.segments() {
            let (lo, hi) = segment.affine_range_gbps();
            let bw = (lo + hi) / 2.0;
            let stats = timeline.evaluate(bw);
            let affine = segment.runtime_affine().at(bw);
            assert!(
                (affine - stats.runtime_seconds).abs() <= 1e-9 * stats.runtime_seconds.max(1e-12),
                "affine runtime {affine} vs replay {} at {bw}",
                stats.runtime_seconds
            );
        }
    }

    #[test]
    fn empty_graph_has_one_trivial_segment() {
        let engine = RpuEngine::new(unit_config());
        let timeline = engine.analyze(&TaskGraph::new(), 1.0, 100.0).unwrap();
        assert_eq!(timeline.segments().len(), 1);
        assert!(timeline.breakpoints_gbps().is_empty());
        let stats = timeline.evaluate(50.0);
        assert_eq!(stats.runtime_seconds, 0.0);
        assert_eq!(timeline.fallback_evaluations(), 0);
    }

    #[test]
    fn zero_duration_compute_disables_certification_but_stays_exact() {
        let mut g = TaskGraph::new();
        let z = g.push_compute(ComputeKind::Ntt, 0, vec![], "zero", "P1");
        let m = g.push_memory(MemoryDirection::Load, 1_000_000_000, vec![], "m", "P1");
        g.push_compute(ComputeKind::Intt, 500_000_000, vec![z, m], "c", "P2");
        let engine = RpuEngine::new(unit_config());
        let timeline = engine.analyze(&g, 1.0, 64.0).unwrap();
        assert!(timeline.is_truncated());
        assert!(timeline.segments().is_empty());
        for bw in [1.0, 2.5, 64.0] {
            assert_bit_identical(&engine, &g, &timeline, bw);
        }
        assert!(timeline.fallback_evaluations() >= 3);
    }

    #[test]
    fn deadlock_is_reported_from_the_symbolic_run() {
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
        let g = TaskGraph::from_tasks_unchecked(tasks);
        let err = RpuEngine::new(unit_config())
            .analyze(&g, 1.0, 64.0)
            .unwrap_err();
        assert!(matches!(err, EngineError::Deadlock { .. }));
    }

    #[test]
    fn a_degenerate_modops_rate_is_an_error_from_the_symbolic_run() {
        let engine = RpuEngine::new(unit_config().with_modops(f64::NAN));
        let err = engine.analyze(&race_graph(), 1.0, 64.0).unwrap_err();
        assert!(matches!(err, EngineError::NonFiniteTime { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth range")]
    fn invalid_range_panics() {
        let _ = RpuEngine::new(unit_config()).analyze(&TaskGraph::new(), 8.0, 4.0);
    }

    #[test]
    fn out_of_range_points_fall_back_to_the_engine_and_stay_exact() {
        let (engine, g) = two_channel_race();
        let timeline = engine.analyze(&g, 4.0, 16.0).unwrap();
        // 1 GB/s is below the analyzed range and on the other side of the
        // 2 GB/s breakpoint, so no derived segment certifies it.
        assert_bit_identical(&engine, &g, &timeline, 1.0);
        assert!(timeline.fallback_evaluations() >= 1);
    }

    #[test]
    fn forced_grants_leave_a_one_channel_race_one_segment() {
        // The one-channel twin of the race: with a single memory queue every
        // grant is forced, so the certificate is empty, one symbolic run
        // covers the range, and even a point below it replays exactly.
        let engine = RpuEngine::new(unit_config());
        let g = race_graph();
        let timeline = engine.analyze(&g, 4.0, 16.0).unwrap();
        assert_eq!(timeline.segments().len(), 1);
        assert!(timeline.breakpoints_gbps().is_empty());
        assert_eq!(timeline.segments()[0].grant_checks(), 0);
        for bw in [1.0, 2.0, 4.0, 16.0, 64.0] {
            assert_bit_identical(&engine, &g, &timeline, bw);
        }
        let ladder = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, 0.75, 32.0];
        for (stats, &bw) in timeline.evaluate_many(&ladder).iter().zip(&ladder) {
            assert_eq!(*stats, timeline.evaluate(bw), "at {bw} GB/s");
        }
        assert_eq!(timeline.fallback_evaluations(), 0);
    }

    #[test]
    fn forced_grants_keep_the_checks_of_contested_ones() {
        // Two channels contest M's successor grant; the last grant (one
        // queue left) is forced and adds nothing.
        let (engine, g) = two_channel_race();
        let timeline = engine.analyze(&g, 0.5, 16.0).unwrap();
        let checks: Vec<usize> = timeline
            .segments()
            .iter()
            .map(Segment::grant_checks)
            .collect();
        assert!(checks.iter().all(|&c| c == 1), "{checks:?}");
    }

    #[test]
    fn invalid_bandwidths_panic_naming_the_value() {
        let engine = RpuEngine::new(unit_config());
        let timeline = engine.analyze(&race_graph(), 1.0, 16.0).unwrap();
        for bw in [f64::NAN, 0.0, -5.0, f64::INFINITY] {
            let calls: [(&str, &dyn Fn()); 2] = [
                ("evaluate", &|| {
                    let _ = timeline.evaluate(bw);
                }),
                ("evaluate_many", &|| {
                    let _ = timeline.evaluate_many(&[4.0, bw]);
                }),
            ];
            for (name, call) in calls {
                let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
                    .expect_err(&format!("{name}({bw}) must panic"));
                let message = panic.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    message.contains(&format!("bandwidth {bw} GB/s")),
                    "{name}({bw}): {message:?}"
                );
            }
            assert!(timeline.sampled_times(bw).is_none());
        }
        assert_eq!(timeline.fallback_evaluations(), 0);
    }
}
