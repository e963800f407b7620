//! Closed-form bandwidth sweeps: the parametric timeline.
//!
//! Every task duration under a fixed configuration is affine in the
//! *inverse* bandwidth: a compute task costs `ops / modops_per_second`
//! (bandwidth-independent) and a memory task costs `bytes / (gbps * 1e9)`.
//! The engine folds these durations with `+` and `f64::max` only, so every
//! start/finish time is a max-plus expression in `1/bandwidth`: a
//! piecewise-linear curve that bends at *ready-time crossovers* (where
//! another dependency, or the resource's free time, becomes the one a task
//! waits on).
//!
//! ## One channel: one program-order fold at every bandwidth
//!
//! On one memory channel the data path serves the one memory queue in
//! order, so the service order never depends on timing. When every
//! dependency also points backward, program order is a topological order of
//! the dependency and queue-order edges, and one walk in program order
//! computes every start as `max(ready, free)` and every finish as
//! `start + duration` — the engine's own arithmetic, with `max` exact and
//! each queue's busy time summed in the engine's order. That fold is the
//! timeline [`RpuEngine::execute_stats`] computes on such a plan, so every
//! evaluation is bit-identical to the engine, with no tolerance and no event
//! loop per point. Such a timeline holds one [`Segment`] marker.
//!
//! Evaluations read one edge per task: each task pulls its ready time from
//! its latest dependency in the other queue (`fold::kept`, built once per
//! timeline, says why no other edge can set a start) and writes its own
//! finish.
//!
//! ## Otherwise: the engine per point
//!
//! With several channels the data path goes to the oldest
//! *dependency-ready* channel head each time it frees, so which transfer
//! wins depends on bandwidth; a graph with a forward dependency has no
//! program-order walk, and a negative compute duration (a negative MODOPS
//! rate) breaks the one-edge rule. Such a timeline holds no segment: every
//! evaluation runs the event engine on the cached [`ExecPlan`] (exact, not
//! closed-form), and one engine run at the bottom of the range decides
//! deadlock and non-finite times for every bandwidth in it. A plan the walk
//! times cannot deadlock, and one walk at the bottom of the range computes
//! the engine's values there, so the engine runs only if one of them is not
//! finite, to report its own error. The bottom is the point that decides:
//! every duration only shrinks as the bandwidth grows, so times that are
//! finite at the lowest bandwidth stay finite across the range, while a
//! bandwidth so small (a subnormal GB/s) that a transfer takes `inf`
//! seconds fails the derivation with the engine's error there.
//!
//! A timeline's domain is therefore `[lo_gbps, ∞)`, above the analyzed
//! range included: below the bottom nothing was proved finite, so
//! [`ParametricTimeline::evaluate`] and
//! [`ParametricTimeline::evaluate_many`] panic there naming the value and
//! the range, and [`ParametricTimeline::sampled_times`] returns `None`.
//!
//! ## Lanes
//!
//! The fold is generic over how many bandwidths one walk carries: a ladder
//! evaluates eight at a time, a single point one, and a lane's arithmetic is
//! the same either way. `tests/analytic_oracle.rs` property-tests
//! bit-identity with the engine end to end, point by point and as ladders,
//! on 1/2/4/8 channels.
//!
//! See `docs/ANALYTIC.md` for the model in full.

use crate::config::{assert_valid_bandwidth, validate_bandwidth};
use crate::engine::{EngineError, RpuEngine};
use crate::fold::{self, Cost, Seconds};
use crate::plan::ExecPlan;
use crate::stats::ExecutionStats;
use crate::task::TaskGraph;
use crate::trace::{EngineQueue, TaskRecord};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Ladder evaluation batch width: [`ParametricTimeline::evaluate_many`]
/// folds this many bandwidths per walk of the graph, sharing every
/// dependency lookup across lanes.
const LANES: usize = 8;

/// The marker of a timeline the program-order walk times at every
/// bandwidth (one channel, every dependency backward, no negative
/// duration): [`ParametricTimeline::segments`] holds one. Kept only for
/// `simbench`, which still reports the segment count and
/// [`Segment::grant_checks`].
#[derive(Debug, Clone)]
pub struct Segment;

impl Segment {
    /// Always `0`: a one-channel walk checks nothing per point.
    #[must_use]
    pub fn grant_checks(&self) -> usize {
        0
    }
}

/// Per-task start/finish of a folded evaluation, in program order. The
/// engine's own trace at the evaluated bandwidth lists tasks in retirement
/// order, which may interleave the compute and memory queues differently,
/// but every task's times agree bit for bit.
pub type SampledTimes = Vec<TaskRecord>;

/// The timeline of one `(schedule, channel map, configuration)` triple over
/// a bandwidth range, with bit-exact evaluation at any bandwidth: the
/// program-order fold on one memory channel, the event engine otherwise.
/// Built by [`RpuEngine::analyze`].
#[derive(Debug)]
pub struct ParametricTimeline {
    /// The plan every evaluation folds or runs the engine on.
    plan: Arc<ExecPlan>,
    lo_gbps: f64,
    hi_gbps: f64,
    timing: Timing,
    engine_runs: AtomicUsize,
}

/// How a timeline times a point.
#[derive(Debug)]
enum Timing {
    /// The program-order walk times the plan (one channel, every
    /// dependency backward, no negative duration).
    Fold {
        /// Each task's cost, as the walk reads it.
        costs: Vec<Cost>,
        /// Each task's [`fold::kept`] dependency, the one edge that can set
        /// its start.
        kept: Vec<u32>,
    },
    /// The event engine runs every point.
    Engine { engine: RpuEngine, graph: TaskGraph },
}

impl ParametricTimeline {
    /// The `(lo, hi)` bandwidth range (GB/s) the timeline was derived over.
    #[must_use]
    pub fn bandwidth_range_gbps(&self) -> (f64, f64) {
        (self.lo_gbps, self.hi_gbps)
    }

    /// The execution plan the timeline was derived on (and runs the engine
    /// on).
    #[must_use]
    pub fn plan(&self) -> &Arc<ExecPlan> {
        &self.plan
    }

    /// One [`Segment`] where the program-order walk times the plan (one
    /// channel, every dependency backward, no negative duration), none
    /// otherwise.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        match &self.timing {
            Timing::Fold { .. } => &[Segment],
            Timing::Engine { .. } => &[],
        }
    }

    /// How many evaluations so far ran the event engine: every point of a
    /// timeline without a segment, none of a one-channel one. Diagnostic
    /// only.
    #[must_use]
    pub fn fallback_evaluations(&self) -> usize {
        self.engine_runs.load(Ordering::Relaxed)
    }

    /// Evaluates the execution statistics at one bandwidth, bit-identical to
    /// `RpuEngine::execute_stats` on the same graph with the bandwidth
    /// swapped in: the fold on one channel, the event engine otherwise.
    ///
    /// The domain is `[lo_gbps, ∞)`: every bandwidth from the bottom of the
    /// analyzed range up, above its top included. The derivation proved
    /// every time finite at `lo_gbps`, and durations only shrink as the
    /// bandwidth grows; below it a transfer may take `inf` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not finite and positive (the rule of
    /// [`RpuConfig::validate`](crate::RpuConfig::validate)), or if it lies
    /// below the analyzed range; the message names the value (and the
    /// range).
    #[must_use]
    pub fn evaluate(&self, bandwidth_gbps: f64) -> ExecutionStats {
        self.assert_in_domain(bandwidth_gbps);
        match &self.timing {
            Timing::Fold { costs, kept } => {
                let finish = &mut vec![[0.0]; costs.len() + 1];
                let [stats] = fold::stats(costs, &self.plan, kept, &[bandwidth_gbps], finish);
                stats
            }
            Timing::Engine { engine, graph } => self.run_engine(engine, graph, bandwidth_gbps),
        }
    }

    /// Evaluates a whole bandwidth ladder. On one channel, points are
    /// folded `LANES` at a time through one shared walk of the graph (each
    /// lane's arithmetic is operation-for-operation a single point's, so
    /// results stay bit-identical); otherwise each point runs the engine.
    /// Entries are evaluated independently in the given order, so duplicates
    /// and unsorted ladders are fine (duplicates produce bit-identical rows).
    ///
    /// # Panics
    ///
    /// As [`ParametricTimeline::evaluate`], for any entry of the ladder
    /// (checked before anything is evaluated).
    #[must_use]
    pub fn evaluate_many(&self, bandwidths_gbps: &[f64]) -> Vec<ExecutionStats> {
        for &bandwidth_gbps in bandwidths_gbps {
            self.assert_in_domain(bandwidth_gbps);
        }
        let (costs, kept) = match &self.timing {
            Timing::Fold { costs, kept } => (costs, kept),
            Timing::Engine { engine, graph } => {
                return bandwidths_gbps
                    .iter()
                    .map(|&b| self.run_engine(engine, graph, b))
                    .collect();
            }
        };
        let n = costs.len() + 1;
        let mut lanes = vec![[0.0; LANES]; n];
        let mut out = Vec::with_capacity(bandwidths_gbps.len());
        let mut chunks = bandwidths_gbps.chunks_exact(LANES);
        for chunk in &mut chunks {
            let bws: &[f64; LANES] = chunk.try_into().expect("chunk has LANES entries");
            out.extend(fold::stats(costs, &self.plan, kept, bws, &mut lanes));
        }
        let mut scratch = vec![[0.0]; n];
        for &b in chunks.remainder() {
            let [stats] = fold::stats(costs, &self.plan, kept, &[b], &mut scratch);
            out.push(stats);
        }
        out
    }

    /// The per-task spans a folded evaluation produces at `bandwidth_gbps`,
    /// in program order, labelled from `graph`, the graph the timeline was
    /// derived from. The order may differ from the engine's trace order at
    /// this bandwidth; per-task times still agree bit for bit (match
    /// records by task id). Returns `None` on a timeline without a segment,
    /// which folds nothing, for a `graph` with another task count, and for
    /// a bandwidth that is not finite and positive or lies below the
    /// analyzed range (outside the domain of
    /// [`evaluate`](ParametricTimeline::evaluate); the engine's trace is the
    /// reference either way). A declared oracle surface:
    /// `tests/analytic_oracle.rs` and `tests/fold_oracle.rs` diff it
    /// against the engine's trace.
    #[must_use]
    pub fn sampled_times(&self, graph: &TaskGraph, bandwidth_gbps: f64) -> Option<SampledTimes> {
        if validate_bandwidth(bandwidth_gbps).is_err() || bandwidth_gbps < self.lo_gbps {
            return None;
        }
        let Timing::Fold { costs, kept } = &self.timing else {
            return None;
        };
        let tasks = graph.tasks();
        if tasks.len() != costs.len() {
            return None;
        }
        let mut records = Vec::with_capacity(tasks.len());
        let clock = &Seconds::gbps(&[bandwidth_gbps]);
        let finish = &mut vec![[0.0]; tasks.len() + 1];
        fold::pull(clock, costs, kept, finish, |t, cost, [start], [end], _| {
            records.push(TaskRecord {
                task: t,
                queue: match cost {
                    Cost::Compute(_) => EngineQueue::Compute,
                    Cost::Memory { channel, .. } => EngineQueue::Memory(channel as usize),
                },
                start_seconds: start,
                end_seconds: end,
                label: Arc::clone(&tasks[t].label),
                stage: Arc::clone(&tasks[t].stage),
            });
        });
        Some(records)
    }

    /// Panics unless `bandwidth_gbps` is finite, positive and at least the
    /// bottom of the analyzed range, naming the value.
    fn assert_in_domain(&self, bandwidth_gbps: f64) {
        assert_valid_bandwidth(bandwidth_gbps);
        assert!(
            bandwidth_gbps >= self.lo_gbps,
            "bandwidth {bandwidth_gbps} GB/s lies below the analyzed range [{}, {}] GB/s, \
             outside the timeline's domain",
            self.lo_gbps,
            self.hi_gbps
        );
    }

    /// One bandwidth of the domain through the event engine on the cached
    /// plan.
    fn run_engine(
        &self,
        engine: &RpuEngine,
        graph: &TaskGraph,
        bandwidth_gbps: f64,
    ) -> ExecutionStats {
        self.engine_runs.fetch_add(1, Ordering::Relaxed);
        engine
            .at(bandwidth_gbps)
            .execute_stats_plan(graph, &self.plan)
            .expect("deadlock is timing-independent and the run at the range's bottom succeeded")
    }
}

impl RpuEngine {
    /// Derives the [`ParametricTimeline`] of `graph` over
    /// `[lo_gbps, hi_gbps]` (aggregate DRAM bandwidth, GB/s). The engine's
    /// *own* bandwidth setting is irrelevant — every evaluation substitutes
    /// its point's bandwidth; all other configuration (MODOPS, channel
    /// count, channel map, evk policy) is taken from `self`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Deadlock`] exactly when
    /// [`RpuEngine::execute_stats`] would: the deadlock condition is a
    /// property of the schedule and queue placement, independent of timing,
    /// so one engine run at `lo_gbps` decides it for every bandwidth, and a
    /// plan the fold times cannot deadlock at all.
    /// [`EngineError::NonFiniteTime`] reports a degenerate MODOPS rate, or a
    /// `lo_gbps` so small that a transfer takes `inf` seconds, exactly as the
    /// engine run at `lo_gbps` reports it.
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

    /// [`RpuEngine::analyze`] on a prebuilt plan of `graph`: the run at
    /// `lo_gbps`, and every evaluation of the returned timeline, executes
    /// this one plan.
    ///
    /// A plan the walk times is walked once at `lo_gbps`, where its values
    /// are the engine's and every duration is at its longest, so a walk
    /// whose finishes are all finite proves every point of the range
    /// finite. The engine runs at `lo_gbps` only when the plan does not
    /// fold, has a negative compute duration, or some finish of that walk is
    /// not finite, so every error is the engine's own. A timeline that folds
    /// keeps no copy of `graph`.
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
        self.check_plan(graph, &plan)?;
        let folded = plan.folds().then(|| {
            let costs = fold::costs(self, graph.tasks(), &plan);
            let kept = fold::kept(&costs, &plan)?;
            let finish = &mut vec![[0.0]; costs.len() + 1];
            let clock = &Seconds::gbps(&[lo_gbps]);
            fold::pull(clock, &costs, &kept, finish, |_, _, _, _, _| {});
            // Every start is zero or a max of earlier finishes, so a walk's
            // first non-finite time is a finish, whatever later maxes drop.
            finish
                .iter()
                .all(|[t]| t.is_finite())
                .then_some(Timing::Fold { costs, kept })
        });
        let timing = match folded.flatten() {
            Some(timing) => timing,
            None => {
                self.at(lo_gbps).execute_stats_plan(graph, &plan)?;
                Timing::Engine {
                    engine: self.clone(),
                    graph: graph.clone(),
                }
            }
        };
        Ok(ParametricTimeline {
            plan,
            lo_gbps,
            hi_gbps,
            timing,
            engine_runs: AtomicUsize::new(0),
        })
    }

    /// This engine's configuration at another bandwidth. The channel map
    /// does not matter: the callers run a prebuilt plan.
    fn at(&self, bandwidth_gbps: f64) -> RpuEngine {
        RpuEngine::new(self.config().clone().with_bandwidth(bandwidth_gbps))
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
        // 2 GB/s, C first below. The consumers make the retirement order
        // observable in the busy accounting.
        let mut g = TaskGraph::new();
        let c = g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![], "c", "P1");
        let m = g.push_memory(MemoryDirection::Load, 2_000_000_000, vec![], "m", "P1");
        g.push_memory(MemoryDirection::Store, 500_000_000, vec![c], "out", "P5");
        g.push_compute(ComputeKind::Intt, 300_000_000, vec![m], "c2", "P2");
        g
    }

    /// A two-channel race whose data-path grant order flips at 2 GB/s. Load M
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
    fn two_channel_race_has_no_segment_and_is_bit_exact_through_the_engine() {
        // Either side of the 2 GB/s flip, and on it, every point runs the
        // engine on the cached plan.
        let (engine, g) = two_channel_race();
        let timeline = engine.analyze(&g, 0.5, 16.0).unwrap();
        assert!(timeline.segments().is_empty());
        let points = [0.5, 1.0, 1.9999, 2.0, 2.0001, 3.0, 16.0, 2.0_f64.next_up()];
        for bw in points {
            assert_bit_identical(&engine, &g, &timeline, bw);
        }
        assert_eq!(timeline.fallback_evaluations(), points.len());
    }

    #[test]
    fn a_tie_at_the_breakpoint_is_certified_without_fallback() {
        // At exactly 2 GB/s the compute and the racing load finish at the
        // same instant; on one channel the fold is exact there too, so no
        // point of the grid runs the engine.
        let engine = RpuEngine::new(unit_config());
        let g = race_graph();
        let timeline = engine.analyze(&g, 0.5, 16.0).unwrap();
        for bw in [0.5, 1.0, 2.0, 2.0_f64.next_down(), 2.0_f64.next_up(), 16.0] {
            assert_bit_identical(&engine, &g, &timeline, bw);
        }
        assert_eq!(
            timeline.fallback_evaluations(),
            0,
            "every grid point should be folded"
        );
    }

    #[test]
    fn empty_graph_has_one_trivial_segment() {
        let engine = RpuEngine::new(unit_config());
        let timeline = engine.analyze(&TaskGraph::new(), 1.0, 100.0).unwrap();
        assert_eq!(timeline.segments().len(), 1);
        let stats = timeline.evaluate(50.0);
        assert_eq!(stats.runtime_seconds, 0.0);
        assert_eq!(timeline.fallback_evaluations(), 0);
    }

    #[test]
    fn zero_duration_compute_disables_certification_but_stays_exact() {
        // A zero-duration compute finishes at the instant it starts, tying
        // with whatever it gates; the one-channel fold rests on queue order
        // alone, so the graph evaluates exactly anyway.
        let mut g = TaskGraph::new();
        let z = g.push_compute(ComputeKind::Ntt, 0, vec![], "zero", "P1");
        let m = g.push_memory(MemoryDirection::Load, 1_000_000_000, vec![], "m", "P1");
        g.push_compute(ComputeKind::Intt, 500_000_000, vec![z, m], "c", "P2");
        let engine = RpuEngine::new(unit_config());
        let timeline = engine.analyze(&g, 1.0, 64.0).unwrap();
        assert_eq!(timeline.segments().len(), 1);
        for bw in [1.0, 2.5, 64.0] {
            assert_bit_identical(&engine, &g, &timeline, bw);
        }
        assert_eq!(timeline.fallback_evaluations(), 0);
    }

    #[test]
    fn a_negative_modops_rate_stays_exact() {
        // A negative compute duration lets an own-queue dependency finish
        // after its queue frees: t2 waits for t0 (done at 1 s), while t1
        // before it runs backward from 1 s to 0 s. That breaks the one-edge
        // rule, so every point runs the engine.
        let mut g = TaskGraph::new();
        let m = g.push_memory(Load, 1_000_000_000, vec![], "m", "P1");
        let t0 = g.push_compute(ComputeKind::Ntt, 0, vec![m], "t0", "P1");
        g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![], "t1", "P1");
        g.push_compute(ComputeKind::Ntt, 1, vec![t0], "t2", "P1");
        let engine = RpuEngine::new(unit_config().with_modops(-1.0));
        let timeline = engine.analyze(&g, 1.0, 4.0).unwrap();
        assert!(timeline.segments().is_empty());
        let points = [1.0, 2.0, 4.0];
        for bw in points {
            assert_bit_identical(&engine, &g, &timeline, bw);
            assert!(timeline.sampled_times(&g, bw).is_none());
        }
        assert_eq!(timeline.fallback_evaluations(), points.len());
    }

    #[test]
    fn analyzing_a_degenerate_modops_rate_reports_the_engines_own_error() {
        // NaN and zero MODOPS on one channel: the walk at the range's bottom
        // finds a finish that is not finite, and the engine's run there
        // reports the error, task and time included.
        for modops in [f64::NAN, 0.0] {
            let engine = RpuEngine::new(unit_config().with_modops(modops));
            let analyzed = engine.analyze(&race_graph(), 1.0, 64.0).unwrap_err();
            let expected = RpuEngine::new(engine.config().clone().with_bandwidth(1.0))
                .execute_stats(&race_graph())
                .unwrap_err();
            // A NaN time equals nothing, itself included: compare its bits.
            let bits = |err: &EngineError| match err {
                EngineError::NonFiniteTime { task, seconds } => (*task, seconds.to_bits()),
                other => panic!("MODOPS {modops}: {other}"),
            };
            assert_eq!(bits(&analyzed), bits(&expected), "MODOPS {modops}");
            if modops == 0.0 {
                assert_eq!(analyzed, expected);
            }
        }
    }

    #[test]
    fn sampled_times_takes_the_timelines_own_graph() {
        let engine = RpuEngine::new(unit_config());
        let g = race_graph();
        let timeline = engine.analyze(&g, 1.0, 16.0).unwrap();
        let spans = timeline.sampled_times(&g, 4.0).expect("one channel folds");
        assert_eq!(spans.len(), g.len());
        assert!(timeline.sampled_times(&TaskGraph::new(), 4.0).is_none());
        let (engine, g) = two_channel_race();
        let timeline = engine.analyze(&g, 1.0, 16.0).unwrap();
        assert!(timeline.sampled_times(&g, 4.0).is_none());
    }

    #[test]
    fn deadlock_is_reported_when_analyzing() {
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
    fn a_subnormal_bottom_of_the_range_reports_the_engines_own_error() {
        // At 5e-324 GB/s every transfer takes `inf` seconds; at 64 GB/s none
        // does. Deriving over the range fails with the engine's own error at
        // its bottom, on one channel (the walk) and on two (the engine), so
        // no evaluation inside the range can meet an infinite time.
        let lo = 5e-324;
        let (two_channels, race) = two_channel_race();
        for (engine, g) in [
            (RpuEngine::new(unit_config()), race_graph()),
            (two_channels, race),
        ] {
            let analyzed = engine.analyze(&g, lo, 64.0).unwrap_err();
            let expected = RpuEngine::new(engine.config().clone().with_bandwidth(lo))
                .with_channel_map(engine.channel_map().clone())
                .execute_stats(&g)
                .unwrap_err();
            assert!(
                matches!(expected, EngineError::NonFiniteTime { seconds, .. } if seconds.is_infinite()),
                "{expected}"
            );
            assert_eq!(analyzed, expected);
        }
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth range")]
    fn invalid_range_panics() {
        let _ = RpuEngine::new(unit_config()).analyze(&TaskGraph::new(), 8.0, 4.0);
    }

    #[test]
    fn out_of_range_points_fall_back_to_the_engine_and_stay_exact() {
        let (engine, g) = two_channel_race();
        let timeline = engine.analyze(&g, 0.5, 1.0).unwrap();
        // 4 GB/s is above the analyzed range and on the other side of the
        // 2 GB/s grant-order flip; a two-channel timeline runs the engine.
        assert_bit_identical(&engine, &g, &timeline, 4.0);
        assert_eq!(timeline.fallback_evaluations(), 1);
    }

    #[test]
    fn forced_grants_leave_a_one_channel_race_one_segment() {
        // The one-channel twin of the race: with a single memory queue every
        // data-path grant is forced, so the program-order fold derived below
        // the 2 GB/s flip evaluates exactly on both sides of it, above the
        // analyzed range too.
        let engine = RpuEngine::new(unit_config());
        let g = race_graph();
        let timeline = engine.analyze(&g, 0.75, 1.5).unwrap();
        assert_eq!(timeline.segments().len(), 1);
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
    fn invalid_bandwidths_panic_naming_the_value() {
        // Below the analyzed range is outside the domain too: at 5e-324
        // GB/s a transfer takes `inf` seconds, which the derivation over
        // [1, 16] never checked. On one channel (the fold) and on two (the
        // engine) both entry points panic before evaluating anything.
        let (two_channels, race) = two_channel_race();
        for (engine, g) in [
            (RpuEngine::new(unit_config()), race_graph()),
            (two_channels, race),
        ] {
            let timeline = engine.analyze(&g, 1.0, 16.0).unwrap();
            for bw in [
                f64::NAN,
                0.0,
                -5.0,
                f64::INFINITY,
                5e-324,
                1.0_f64.next_down(),
            ] {
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
                    if validate_bandwidth(bw).is_ok() {
                        assert!(
                            message.contains("[1, 16] GB/s"),
                            "{name}({bw}): {message:?}"
                        );
                    }
                }
                assert!(timeline.sampled_times(&g, bw).is_none());
            }
            assert_eq!(timeline.fallback_evaluations(), 0);
        }
    }
}
