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
//! loop per point. The timeline keeps one [`Segment`], valid at every
//! bandwidth: the affine view of the same fold anchored at the top of the
//! analyzed range.
//!
//! Evaluations read one edge per task: each task pulls its ready time from
//! its latest dependency in the other queue (`fold::kept`, built once per
//! timeline, says why no other edge can set a start) and writes its own
//! finish. A negative MODOPS rate breaks that rule, and then evaluations
//! fold through the plan's full dependents table. The affine view keeps the
//! full table, as the bound's passes and knee probe do: its clock breaks
//! value ties by which predecessor wins.
//!
//! ## Otherwise: the engine per point
//!
//! With several channels the data path goes to the oldest
//! *dependency-ready* channel head each time it frees, so which transfer
//! wins depends on bandwidth; a graph with a forward dependency has no
//! program-order walk. Such a timeline keeps no segment: every evaluation
//! runs the event engine on the cached [`ExecPlan`] (exact, not
//! closed-form), and one engine run at the top of the range decides
//! deadlock and non-finite times for every bandwidth. A plan the fold times
//! cannot deadlock, and the affine fold at the top of the range computes
//! the engine's values there, so the engine runs only if one of them is not
//! finite, to report its own error.
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
use crate::fold::{self, fold, Clock, Cost, Seconds, Sym};
use crate::plan::ExecPlan;
use crate::stats::ExecutionStats;
use crate::task::TaskGraph;
use crate::trace::{EngineQueue, TaskRecord};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Ladder evaluation batch width: [`ParametricTimeline::evaluate_many`]
/// folds this many bandwidths per walk of the graph, sharing every
/// dependency lookup across lanes.
const LANES: usize = 8;

/// A time that is affine in inverse bandwidth:
/// `seconds(bandwidth) = constant + per_inverse_gbps / bandwidth_gbps`.
///
/// Affine forms are the timeline's *analytic view* — they are exact in real
/// arithmetic within [`Segment::affine_range_gbps`] but evaluate with
/// ordinary floating-point error. Bit-exact numbers always come from
/// [`ParametricTimeline::evaluate`], which folds the engine's own
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

/// The affine clock of the fold, anchored at one bandwidth: each time's
/// value there (the engine's floating-point value, which decides every max)
/// and its affine form, which [`Segment::runtime_affine`] reports, plus the
/// nearest ready-time crossover below the anchor.
struct Affine {
    /// `1 / anchor bandwidth`: where the affine forms are anchored.
    x0: f64,
    /// The anchor bandwidth in bytes per second.
    dbps: f64,
    /// The nearest ready-time crossover at or above `x0` (see
    /// [`Affine::later`]).
    crossover_x: f64,
}

impl Clock for Affine {
    type Time = Sym;
    const ZERO: Sym = Sym::ZERO;

    /// The max by the engine's concrete value; on an exact value tie the
    /// steeper affine branch wins, so the view stays the max just below the
    /// anchor bandwidth. Where the loser's affine form crosses the winner's
    /// is a ready-time crossover; the nearest one below the anchor
    /// bandwidth is kept.
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
        if dm != 0.0 && xs.is_finite() && xs >= self.x0 {
            self.crossover_x = self.crossover_x.min(xs);
        }
        Sym {
            v: a.v.max(b.v),
            c: w.c,
            m: w.m,
        }
    }

    fn duration(&self, cost: Cost) -> Sym {
        match cost {
            Cost::Compute(d) => Sym { v: d, c: d, m: 0.0 },
            Cost::Memory { bytes, .. } => Sym {
                v: bytes / self.dbps,
                c: 0.0,
                m: bytes / 1e9,
            },
        }
    }

    fn after(start: Sym, duration: Sym) -> Sym {
        start.plus(duration)
    }
}

/// The affine view of a one-channel timeline, whose fold is valid at every
/// bandwidth. Every event time is piecewise-linear in inverse bandwidth,
/// kinking only at ready-time crossovers; the makespan's affine form
/// ([`Segment::runtime_affine`]) holds from the top of the analyzed range
/// down to at least [`Segment::affine_range_gbps`]'s lower end.
#[derive(Debug, Clone)]
pub struct Segment {
    affine_lo_gbps: f64,
    affine_hi_gbps: f64,
    runtime: AffineTime,
}

impl Segment {
    /// A bandwidth interval (GB/s) inside the analyzed range where the
    /// makespan's affine form is exact (in real arithmetic): from the top of
    /// the range, where the fold is anchored, down to the nearest
    /// *ready-time crossover* of any task — a bandwidth where a different
    /// dependency (or queue backpressure) becomes the one some task waits
    /// on. Most crossovers do not touch the makespan, so this is a
    /// sub-range of the makespan's affine piece, usually a small one, not
    /// the piece itself. A crossover changes the affine coefficients, never
    /// the bit-exact evaluation.
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

    /// Always `0`: a one-channel fold checks nothing per point. Kept only
    /// for `simbench`, which still reports the count.
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
    /// The program-order fold times the plan (one channel, every dependency
    /// backward).
    Fold {
        /// The affine view.
        segment: Segment,
        /// Each task's cost, as the fold reads it.
        costs: Vec<Cost>,
        /// Each task's [`fold::kept`] dependency, the one edge that can set
        /// its start; `None` where a compute duration is negative, and
        /// evaluations fold through the plan's full dependents table.
        kept: Option<Vec<u32>>,
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

    /// The timeline's affine view as a slice: one segment where the
    /// program-order fold times the plan (one channel, every dependency
    /// backward), none otherwise.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        match &self.timing {
            Timing::Fold { segment, .. } => std::slice::from_ref(segment),
            Timing::Engine { .. } => &[],
        }
    }

    /// How many evaluations so far ran the event engine: every point of a
    /// timeline without a segment, none of a one-channel one. Diagnostic
    /// only.
    #[must_use]
    pub fn fallback_evaluations(&self) -> usize {
        self.engine_runs.load(AtomicOrdering::Relaxed)
    }

    /// Evaluates the execution statistics at one bandwidth, bit-identical to
    /// `RpuEngine::execute_stats` on the same graph with the bandwidth
    /// swapped in: the fold on one channel, the event engine otherwise.
    /// Bandwidths outside the analyzed range are legal.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not finite and positive (the rule of
    /// [`RpuConfig::validate`](crate::RpuConfig::validate)); the message
    /// names the value.
    #[must_use]
    pub fn evaluate(&self, bandwidth_gbps: f64) -> ExecutionStats {
        assert_valid_bandwidth(bandwidth_gbps);
        match &self.timing {
            Timing::Fold { costs, kept, .. } => {
                let finish = &mut vec![[0.0]; costs.len() + 1];
                let [stats] = fold::stats(
                    costs,
                    &self.plan,
                    kept.as_deref(),
                    &[bandwidth_gbps],
                    finish,
                );
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
        bandwidths_gbps
            .iter()
            .copied()
            .for_each(assert_valid_bandwidth);
        let (costs, kept) = match &self.timing {
            Timing::Fold { costs, kept, .. } => (costs, kept.as_deref()),
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
    /// a bandwidth that is not finite and positive (the engine's trace is
    /// the reference either way). Kept as an oracle surface: the
    /// integration suites diff it against the engine's trace.
    #[must_use]
    pub fn sampled_times(&self, graph: &TaskGraph, bandwidth_gbps: f64) -> Option<SampledTimes> {
        validate_bandwidth(bandwidth_gbps).ok()?;
        let Timing::Fold { costs, kept, .. } = &self.timing else {
            return None;
        };
        let tasks = graph.tasks();
        if tasks.len() != costs.len() {
            return None;
        }
        let mut records = Vec::with_capacity(tasks.len());
        let clock = &mut Seconds::gbps(&[bandwidth_gbps]);
        let finish = &mut vec![[0.0]; tasks.len() + 1];
        fold::pull(
            clock,
            costs,
            &self.plan,
            kept.as_deref(),
            finish,
            |t, cost, [start], [end], _| {
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
            },
        );
        Some(records)
    }

    /// One validated bandwidth through the event engine on the cached plan.
    fn run_engine(
        &self,
        engine: &RpuEngine,
        graph: &TaskGraph,
        bandwidth_gbps: f64,
    ) -> ExecutionStats {
        self.engine_runs.fetch_add(1, AtomicOrdering::Relaxed);
        engine
            .at(bandwidth_gbps)
            .execute_stats_plan(graph, &self.plan)
            .expect("deadlock is timing-independent and the run at the range's top succeeded")
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
    /// so one engine run at `hi_gbps` decides it for every bandwidth, and a
    /// plan the fold times cannot deadlock at all.
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

    /// [`RpuEngine::analyze`] on a prebuilt plan of `graph`: the run at
    /// `hi_gbps`, and every evaluation of the returned timeline, executes
    /// this one plan.
    ///
    /// A plan the fold times derives its segment with the affine fold at
    /// `hi_gbps`, whose values are the engine's there. The engine runs at
    /// `hi_gbps` only when the plan does not fold or some finish of that
    /// fold is not finite, so every error is the engine's own. A timeline
    /// that folds keeps no copy of `graph`.
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
            let segment = derive_segment(&costs, &plan, lo_gbps, hi_gbps)?;
            let kept = fold::kept(&costs, &plan);
            Some(Timing::Fold {
                segment,
                costs,
                kept,
            })
        });
        let timing = match folded.flatten() {
            Some(timing) => timing,
            None => {
                self.at(hi_gbps).execute_stats_plan(graph, &plan)?;
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

/// The affine view of a plan the fold times, anchored at `hi_gbps`: the
/// affine fold over the plan's full dependents table, whose tie rule the
/// crossover search depends on. `None` when some finish at `hi_gbps` is not
/// finite, which only the engine reports.
fn derive_segment(costs: &[Cost], plan: &ExecPlan, lo_gbps: f64, hi_gbps: f64) -> Option<Segment> {
    let mut clock = Affine {
        x0: 1.0 / hi_gbps,
        dbps: hi_gbps * 1e9,
        crossover_x: f64::INFINITY,
    };
    let ready = &mut vec![Affine::ZERO; costs.len()];
    let mut finite = true;
    let makespan = fold(&mut clock, costs, plan, true, ready, |_, _, _, end, _| {
        finite &= end.v.is_finite();
    });
    if !finite {
        return None;
    }
    // x = 1/bw reverses the order: the nearest crossover below the anchor
    // bandwidth bounds the affine range from below, clipped to the analyzed
    // range and kept at or below the anchor whatever the conversion
    // rounding did.
    let affine_lo = if clock.crossover_x.is_infinite() {
        lo_gbps
    } else {
        (1.0 / clock.crossover_x).max(lo_gbps).min(hi_gbps)
    };
    Some(Segment {
        affine_lo_gbps: affine_lo,
        affine_hi_gbps: hi_gbps,
        runtime: AffineTime {
            constant: makespan.c,
            per_inverse_gbps: makespan.m,
        },
    })
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
                "affine runtime {affine} vs evaluation {} at {bw}",
                stats.runtime_seconds
            );
        }
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
        // before it runs backward from 1 s to 0 s.
        let mut g = TaskGraph::new();
        let m = g.push_memory(Load, 1_000_000_000, vec![], "m", "P1");
        let t0 = g.push_compute(ComputeKind::Ntt, 0, vec![m], "t0", "P1");
        g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![], "t1", "P1");
        g.push_compute(ComputeKind::Ntt, 1, vec![t0], "t2", "P1");
        let engine = RpuEngine::new(unit_config().with_modops(-1.0));
        let timeline = engine.analyze(&g, 1.0, 4.0).unwrap();
        assert_eq!(timeline.segments().len(), 1);
        for bw in [1.0, 2.0, 4.0] {
            assert_bit_identical(&engine, &g, &timeline, bw);
            let traced = RpuEngine::new(engine.config().clone().with_bandwidth(bw))
                .execute(&g)
                .unwrap();
            let spans = timeline.sampled_times(&g, bw).unwrap();
            for record in traced.trace.records() {
                let span = &spans[record.task];
                assert_eq!(
                    (span.start_seconds.to_bits(), span.end_seconds.to_bits()),
                    (record.start_seconds.to_bits(), record.end_seconds.to_bits()),
                    "task {} at {bw} GB/s",
                    record.task
                );
            }
        }
        // Nine points: one whole eight-lane chunk through the full table,
        // and a remainder of one.
        let ladder = [1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0];
        for (stats, &bw) in timeline.evaluate_many(&ladder).iter().zip(&ladder) {
            assert_bit_identical(&engine, &g, &timeline, bw);
            assert_eq!(*stats, timeline.evaluate(bw), "at {bw} GB/s");
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
    fn a_degenerate_modops_rate_is_an_error_when_analyzing() {
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
        // 2 GB/s grant-order flip; a two-channel timeline runs the engine.
        assert_bit_identical(&engine, &g, &timeline, 1.0);
        assert_eq!(timeline.fallback_evaluations(), 1);
    }

    #[test]
    fn forced_grants_leave_a_one_channel_race_one_segment() {
        // The one-channel twin of the race: with a single memory queue every
        // data-path grant is forced, so the program-order fold covers the
        // range, and even a point below it evaluates exactly.
        let engine = RpuEngine::new(unit_config());
        let g = race_graph();
        let timeline = engine.analyze(&g, 4.0, 16.0).unwrap();
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
            assert!(timeline.sampled_times(&race_graph(), bw).is_none());
        }
        assert_eq!(timeline.fallback_evaluations(), 0);
    }
}
