//! Performance pass (`R001`–`R004`).
//!
//! Runs the static bound analysis ([`rpu::bound::analyze`]) over the
//! schedule's task graph and turns its findings into diagnostics — every
//! `R` code is a *provable* statement about the schedule's roofline, not a
//! heuristic over traces:
//!
//! * **`R001` queue-order-dominated critical path** (Warning): the
//!   queue-augmented makespan bound exceeds every *unavoidable* bound (the
//!   true dependency path, the compute pipeline, the shared data path, the
//!   busiest channel) by more than 1.75×, and memory-channel queue-order
//!   edges sit on the binding path — the placement serializes transfers
//!   the dataflow never ordered and the hardware never required.
//!   Moving the blamed channel's transfers with per-task channel hints
//!   ([`rpu::Task::channel`]), or more channels, can recover
//!   the gap. A schedule whose
//!   queue bound merely matches its data-path occupancy is bandwidth-bound,
//!   not placement-bound, and is not flagged.
//! * **`R002` late prefetch** (Note): a load whose dependencies allow it
//!   to issue far ahead of its deadline (slack at least a quarter of the
//!   dependency bound) sits on the binding queue-augmented path *behind a
//!   queue-order edge* — its in-order queue position, not its data, is what
//!   makes it critical. Advisory: in a saturated stream, hoisting one load
//!   delays another, so the pass points at the opportunity without
//!   promising the win.
//! * **`R003` structural utilization ceiling** (Warning): the
//!   *placement-independent* roofline knee
//!   ([`rpu::bound::BoundAnalysis::dependency_knee`]) is
//!   [`RooflineKnee::AlwaysBandwidthSensitive`] *and* the traffic
//!   serialized with the full compute chain is at least half of the
//!   graph's total — a serial-chain shape where the idle lower bound stays
//!   positive at every bandwidth *no matter how the transfers are placed*.
//!   A ceiling that only the queue placement imposes (e.g. every
//!   single-channel streaming config) is `R001`'s territory, not a
//!   structural defect; a well-decoupled pipeline's vanishing
//!   head-of-pipeline prefetch residue does not trip this either.
//! * **`R004` bandwidth-insensitive operating point** (Note): the
//!   configured bandwidth sits at or above the static roofline knee
//!   ([`RooflineKnee::effective_knee_gbps`]), so the makespan bound is
//!   already (asymptotically) pinned to the compute floor — faster DRAM
//!   provably cannot help this schedule. Not reported for schedules `R003`
//!   flags: their "knee" marks where the ceiling regime begins, not where
//!   bandwidth stops mattering.
//!
//! Structurally invalid graphs (forward or dangling dependencies) are the
//! structural pass's job (`S...` codes); this pass skips them rather than
//! bounding a graph the engine would reject.

use rpu::bound::{BoundAnalysis, CriticalEdge, RooflineKnee};
use rpu::verify::Diagnostic;
use rpu::{TaskGraph, Verb};
use std::sync::Arc;

use super::codes;

/// Queue-augmented bound over the largest placement-independent bound above
/// which `R001` warns. The intrinsic load/compute interleave of the in-order
/// queues costs the preset gallery up to ~1.5x on one channel, while a
/// genuine serialization pathology (a load/compute zigzag that defeats all
/// overlap) costs 2x or more.
const QUEUE_PATH_RATIO: f64 = 1.75;
/// Fraction of the dependency bound a load's slack must reach, while its
/// queue position still makes it critical, before `R002` flags a late
/// prefetch.
const PREFETCH_SLACK_FRACTION: f64 = 0.25;
/// Fraction of the graph's total DRAM traffic that must be serialized with
/// the full compute chain before `R003` reports a structural utilization
/// ceiling. Below it, the residue is a benign head-of-pipeline prefetch.
const CEILING_RESIDUAL_FRACTION: f64 = 0.5;

/// Runs the performance pass for `graph` over its bound analysis
/// ([`rpu::bound::analyze_plan`] at the target configuration and
/// placement). `bounds` is called only when the graph is analyzable, so a
/// caller holding a cached analysis passes it in and everyone else computes
/// it on demand.
pub fn lint(graph: &TaskGraph, bounds: impl FnOnce() -> Arc<BoundAnalysis>) -> Vec<Diagnostic> {
    let tasks = graph.tasks();
    let well_formed = tasks
        .iter()
        .enumerate()
        .all(|(at, t)| t.id == at && t.dependencies.iter().all(|&d| d < at));
    if tasks.is_empty() || !well_formed {
        return Vec::new();
    }

    let b = bounds();
    let mut diagnostics = Vec::new();

    // The largest bound no placement change can move: the true dependency
    // path, the compute pipeline, the shared data path, the busiest channel.
    let unavoidable = b.channel_occupancy_seconds.iter().copied().fold(
        b.dependency_bound_seconds
            .max(b.compute_occupancy_seconds)
            .max(b.memory_occupancy_seconds),
        f64::max,
    );

    // R001: queue order dominates every unavoidable bound, with
    // memory-channel queue edges on the binding path to blame.
    if unavoidable > 0.0 && b.queue_bound_seconds > QUEUE_PATH_RATIO * unavoidable {
        let mut per_channel = vec![0usize; b.channel_occupancy_seconds.len()];
        let mut blamed = Vec::new();
        for step in &b.queue_critical_path {
            if let CriticalEdge::QueueOrder {
                channel: Some(c), ..
            } = step.edge
            {
                per_channel[c] += 1;
                blamed.push(step.task);
            }
        }
        if let Some((worst, &count)) = per_channel
            .iter()
            .enumerate()
            .filter(|&(_, n)| *n > 0)
            .max_by_key(|&(_, n)| *n)
        {
            diagnostics.push(
                Diagnostic::warning(
                    codes::QUEUE_ORDER_CRITICAL,
                    format!(
                        "queue-order edges dominate the critical path: the in-order queues \
                         bound the makespan at {:.3} ms vs {:.3} ms from the largest \
                         placement-independent bound ({:.0}% of path edges are queue order; \
                         channel {worst} contributes {count}) — channel hints moving channel \
                         {worst}'s transfers, or more channels, may recover the gap",
                        b.queue_bound_seconds * 1e3,
                        unavoidable * 1e3,
                        100.0 * b.queue_edge_fraction(),
                    ),
                )
                .with_tasks(blamed),
            );
        }
    }

    // R002: loads with large dependency slack that are nevertheless on the
    // binding queue-augmented path behind a queue-order edge.
    if b.dependency_bound_seconds > 0.0 {
        let min_slack = PREFETCH_SLACK_FRACTION * b.dependency_bound_seconds;
        for step in &b.queue_critical_path {
            let task = &tasks[step.task];
            if task.verb() == Some(Verb::Load)
                && matches!(step.edge, CriticalEdge::QueueOrder { .. })
                && b.slack[task.id] >= min_slack
            {
                diagnostics.push(
                    Diagnostic::note(
                        codes::LATE_PREFETCH,
                        format!(
                            "load {:?} could issue at {:.3} ms ({:.3} ms of slack) but its \
                             in-order queue position holds it until {:.3} ms and puts it on \
                             the binding path — hoist it earlier in program order to \
                             prefetch",
                            task.display_label(),
                            b.earliest_start[task.id] * 1e3,
                            b.slack[task.id] * 1e3,
                            b.queue_earliest_start[task.id] * 1e3,
                        ),
                    )
                    .with_tasks(vec![task.id])
                    .with_label(task.display_label()),
                );
            }
        }
    }

    // R003 / R004: roofline classification.
    let (loaded, stored) = graph.total_bytes();
    let total_gb = (loaded + stored) as f64 / 1e9;
    let mut ceiling = false;
    if let RooflineKnee::AlwaysBandwidthSensitive { residual_gb, .. } = b.dependency_knee {
        if total_gb > 0.0 && residual_gb >= CEILING_RESIDUAL_FRACTION * total_gb {
            ceiling = true;
            diagnostics.push(Diagnostic::warning(
                codes::UTILIZATION_CEILING,
                format!(
                    "structural utilization ceiling: {residual_gb:.3} GB of the schedule's \
                     {total_gb:.3} GB of DRAM traffic is serialized with the full \
                     {:.3} ms compute chain by the dependency structure itself, so the \
                     idle lower bound stays positive at every bandwidth and under every \
                     placement — only restructuring the dataflow to overlap transfers \
                     with compute can lift it",
                    b.compute_occupancy_seconds * 1e3,
                ),
            ));
        }
    }
    if !ceiling {
        if let Some(knee) = b.knee.effective_knee_gbps() {
            let bandwidth = b.bandwidth_gbps;
            if bandwidth >= knee {
                diagnostics.push(Diagnostic::note(
                    codes::ABOVE_ROOFLINE_KNEE,
                    format!(
                        "configured bandwidth {bandwidth:.1} GB/s sits above the static \
                         roofline knee at {knee:.3} GB/s: the makespan bound is pinned to \
                         the compute floor here and faster DRAM provably cannot help this \
                         schedule"
                    ),
                ));
            }
        }
    }

    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu::{ComputeKind, EvkPolicy, RpuConfig, RpuEngine};

    /// 1 Gop/s compute at `bandwidth_gbps`, one channel: durations are plain
    /// ratios, so thresholds are easy to reason about exactly.
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
            evk_policy: EvkPolicy::Streamed,
        }
    }

    fn engine(bandwidth_gbps: f64) -> RpuEngine {
        RpuEngine::new(unit_config(bandwidth_gbps))
    }

    fn lint_on(graph: &TaskGraph, engine: &RpuEngine) -> Vec<Diagnostic> {
        lint(graph, || Arc::new(engine.bounds(graph)))
    }

    #[test]
    fn a_queue_zigzag_that_beats_every_occupancy_trips_r001() {
        // Two independent load->compute pairs whose compute order is
        // *inverted* against the load order: cb must wait for load b at the
        // back of the memory queue, and ca then waits behind cb in the
        // compute queue, so the queues serialize all four tasks (4 s) while
        // every placement-independent bound is 2 s. (In-order program order
        // a, ca, b, cb would overlap load b with ca and cost only 3 s — the
        // intrinsic interleave the ratio gate deliberately tolerates.)
        let mut g = TaskGraph::new();
        let a = g.push_memory(Verb::Load, 1_000_000_000, vec![], "a", "P1");
        let b = g.push_memory(Verb::Load, 1_000_000_000, vec![], "b", "P1");
        g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![b], "cb", "P1");
        g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![a], "ca", "P1");
        let diagnostics = lint_on(&g, &engine(1.0));
        let hit = diagnostics
            .iter()
            .find(|d| d.code == codes::QUEUE_ORDER_CRITICAL)
            .expect("zigzag must warn");
        assert!(hit.message.contains("channel 0"), "{hit:?}");
        // In program order the queues cost 3 s against the same 2 s: a 1.5x
        // ratio, below the 1.75x gate.
        let mut g = TaskGraph::new();
        let a = g.push_memory(Verb::Load, 1_000_000_000, vec![], "a", "P1");
        g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![a], "ca", "P1");
        let b = g.push_memory(Verb::Load, 1_000_000_000, vec![], "b", "P1");
        g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![b], "cb", "P1");
        let diagnostics = lint_on(&g, &engine(1.0));
        assert!(
            diagnostics
                .iter()
                .all(|d| d.code != codes::QUEUE_ORDER_CRITICAL),
            "{diagnostics:?}"
        );
    }

    #[test]
    fn pure_bandwidth_pressure_does_not_trip_r001() {
        // Eight independent loads on one channel serialize in the queue, but
        // the shared data path serializes them identically: the schedule is
        // bandwidth-bound, not placement-bound.
        let mut g = TaskGraph::new();
        for t in 0..8 {
            g.push_memory(Verb::Load, 1_000_000_000, vec![], format!("in[{t}]"), "P1");
        }
        let diagnostics = lint_on(&g, &engine(1.0));
        assert!(
            diagnostics
                .iter()
                .all(|d| d.code != codes::QUEUE_ORDER_CRITICAL),
            "{diagnostics:?}"
        );
    }

    /// Two 4 GB streams feed 4 s computes (an 8 s dependency bound); a
    /// `late_bytes` load the final join needs is pushed last in program
    /// order, so the in-order queue makes it the binding constraint.
    fn late_load_join(late_bytes: u64) -> (TaskGraph, usize) {
        let mut g = TaskGraph::new();
        let l1 = g.push_memory(Verb::Load, 4_000_000_000, vec![], "a", "P1");
        let c1 = g.push_compute(ComputeKind::Ntt, 4_000_000_000, vec![l1], "ca", "P1");
        let l2 = g.push_memory(Verb::Load, 4_000_000_000, vec![], "b", "P1");
        let c2 = g.push_compute(ComputeKind::Ntt, 4_000_000_000, vec![l2], "cb", "P1");
        let late = g.push_memory(Verb::Load, late_bytes, vec![], "late", "P1");
        g.push_compute(
            ComputeKind::PointwiseAdd,
            1_000,
            vec![c1, c2, late],
            "join",
            "P1",
        );
        (g, late)
    }

    #[test]
    fn a_slack_heavy_load_bound_by_queue_position_trips_r002() {
        // A 5 GB late load has 3 s of slack, over a quarter of the 8 s
        // dependency bound.
        let (g, late) = late_load_join(5_000_000_000);
        let diagnostics = lint_on(&g, &engine(1.0));
        let prefetch: Vec<_> = diagnostics
            .iter()
            .filter(|d| d.code == codes::LATE_PREFETCH)
            .collect();
        assert_eq!(prefetch.len(), 1, "{diagnostics:?}");
        assert_eq!(prefetch[0].tasks, vec![late]);
        // Advisory only: hoisting in a saturated stream is not a proven win.
        assert_eq!(prefetch[0].severity, rpu::Severity::Note);
        // A 7 GB late load has 1 s of slack, under a quarter: not flagged.
        let (g, _) = late_load_join(7_000_000_000);
        let diagnostics = lint_on(&g, &engine(1.0));
        assert!(
            diagnostics.iter().all(|d| d.code != codes::LATE_PREFETCH),
            "{diagnostics:?}"
        );
    }

    #[test]
    fn a_fully_serial_chain_trips_r003() {
        // load -> compute -> store, twice: every byte is serialized with the
        // compute chain, so no bandwidth reaches the compute floor.
        let mut g = TaskGraph::new();
        let mut prev = None;
        for stage in 0..2 {
            let load = g.push_memory(
                Verb::Load,
                1_000_000_000,
                prev.map(|p| vec![p]).unwrap_or_default(),
                format!("{stage}"),
                "P1",
            );
            let c = g.push_compute(
                ComputeKind::Ntt,
                500_000_000,
                vec![load],
                format!("c {stage}"),
                "P1",
            );
            prev = Some(g.push_memory(Verb::Store, 250_000_000, vec![c], format!("{stage}"), "P1"));
        }
        let diagnostics = lint_on(&g, &engine(1.0));
        assert!(
            diagnostics
                .iter()
                .any(|d| d.code == codes::UTILIZATION_CEILING),
            "{diagnostics:?}"
        );
        // And the ceiling suppresses the above-knee note even at absurd
        // bandwidth: the regime boundary is not a real knee.
        let fast = lint_on(&g, &engine(1024.0));
        assert!(fast.iter().any(|d| d.code == codes::UTILIZATION_CEILING));
        assert!(fast.iter().all(|d| d.code != codes::ABOVE_ROOFLINE_KNEE));
    }

    /// A decoupled pipeline: a `head_bytes` prefetch feeds a 4 s compute
    /// chain while a 4 GB stream overlaps it entirely (feeding only the
    /// tail).
    fn decoupled_pipeline(head_bytes: u64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let head = g.push_memory(Verb::Load, head_bytes, vec![], "head", "P1");
        let mut prev = g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![head], "c0", "P1");
        for stage in 1..4 {
            prev = g.push_compute(
                ComputeKind::Ntt,
                1_000_000_000,
                vec![prev],
                format!("c{stage}"),
                "P1",
            );
        }
        let stream = g.push_memory(Verb::Load, 4_000_000_000, vec![], "stream", "P1");
        g.push_compute(
            ComputeKind::PointwiseAdd,
            1_000,
            vec![prev, stream],
            "tail",
            "P1",
        );
        g
    }

    #[test]
    fn a_decoupled_pipeline_does_not_trip_r003() {
        // Only the 0.1 GB head prefetch is serialized with the compute
        // chain — 2% of the traffic, far below the 50% ceiling threshold.
        let ceiling = |head_bytes| {
            lint_on(&decoupled_pipeline(head_bytes), &engine(1.0))
                .iter()
                .any(|d| d.code == codes::UTILIZATION_CEILING)
        };
        assert!(!ceiling(100_000_000));
        // The gate sits at half the traffic: a 3 GB head is 43% of it, a
        // 5 GB head 56%.
        assert!(!ceiling(3_000_000_000));
        assert!(ceiling(5_000_000_000));
    }

    #[test]
    fn bandwidth_above_the_knee_trips_r004_with_the_knee_value() {
        // A 1 s compute races a 2 GB load: exact knee at 2 GB/s. At 64 GB/s
        // the schedule is provably bandwidth-insensitive; at 1 GB/s not.
        let mut g = TaskGraph::new();
        let c = g.push_compute(ComputeKind::Ntt, 1_000_000_000, vec![], "c", "P1");
        let l = g.push_memory(Verb::Load, 2_000_000_000, vec![], "x", "P1");
        g.push_compute(ComputeKind::PointwiseAdd, 0, vec![c, l], "join", "P1");
        let above = lint_on(&g, &engine(64.0));
        let knee_note = above
            .iter()
            .find(|d| d.code == codes::ABOVE_ROOFLINE_KNEE)
            .expect("above-knee note");
        assert_eq!(knee_note.severity, rpu::Severity::Note);
        assert!(knee_note.message.contains("2.000 GB/s"), "{knee_note:?}");
        let below = lint_on(&g, &engine(1.0));
        assert!(below.iter().all(|d| d.code != codes::ABOVE_ROOFLINE_KNEE));
        // The decoupled pipeline has no exact knee, but past the point where
        // its bound tracks the compute floor the note still applies.
        let pipeline = lint_on(&decoupled_pipeline(100_000_000), &engine(64.0));
        assert!(
            pipeline
                .iter()
                .any(|d| d.code == codes::ABOVE_ROOFLINE_KNEE),
            "{pipeline:?}"
        );
    }

    #[test]
    fn malformed_graphs_are_left_to_the_structural_pass() {
        let mut tasks = TaskGraph::new();
        tasks.push_compute(ComputeKind::Ntt, 1, vec![], "c", "P1");
        let mut broken = tasks.tasks().to_vec();
        broken[0].dependencies = vec![5];
        let g = TaskGraph::from_tasks_unchecked(broken);
        assert!(lint_on(&g, &engine(1.0)).is_empty());
        assert!(lint_on(&TaskGraph::new(), &engine(1.0)).is_empty());
    }
}
