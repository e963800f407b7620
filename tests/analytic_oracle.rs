//! Agreement oracle between the parametric timeline and the event engine.
//!
//! `rpu::analytic` claims that [`ParametricTimeline::evaluate`] is
//! **bit-identical** to running [`RpuEngine::execute_stats`] at the same
//! bandwidth — no tolerance, every field. This suite stress-tests the claim
//! where it is most likely to break:
//!
//! 1. Random structurally-valid task graphs (the `lint_oracle` generator)
//!    across 1/2/4/8 memory channels, sampled at the range ends, at random
//!    interior points of the analyzed range, and at the one-channel static
//!    bound's effective knee and one ulp either side of it, in range or
//!    not. On one channel the bound is the runtime, so the knee is a kink
//!    of the runtime curve.
//! 2. Real strategy schedules — every dataflow, both evk policies — through
//!    the same sampling grid.
//!
//!    Both grids are evaluated point by point (`evaluate`) and as one
//!    unsorted ladder (`evaluate_many`): on one channel through the fold
//!    and its eight-lane chunks, on several through the engine.
//!
//! 3. Forced grants: on one memory channel every bus grant is forced, so a
//!    timeline is a single segment, and the static bound equals the
//!    evaluated runtime bit for bit.
//!
//! On divergence the failure message pins down the *first differing event*:
//! the folded per-task spans ([`ParametricTimeline::sampled_times`]) are
//! diffed against the engine's full trace at the offending bandwidth.

use ciflow::api::StrategyRegistry;
use ciflow::schedule::{build_schedule, ScheduleConfig};
use ciflow::workload::{build_workload, PipelineMode, Workload};
use ciflow::{Dataflow, HksBenchmark, HksShape};
use common::{assert_stats_bit_identical, random_valid_tasks};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpu::{EvkPolicy, ParametricTimeline, RpuConfig, RpuEngine, TaskGraph};

#[path = "common/mod.rs"]
mod common;

const LO_GBPS: f64 = 8.0;
const HI_GBPS: f64 = 1024.0;

/// The sampling grid for one graph: range ends, deterministic interior
/// points, and the one-channel static bound's effective knee (a kink of the
/// one-channel runtime curve, which the bound equals) and one ulp either
/// side of it. The knee of these graphs usually lies above the analyzed
/// range; a timeline evaluates exactly at any bandwidth from the bottom of
/// its range up (its domain), so a knee there is sampled wherever it is.
fn sample_points(engine: &RpuEngine, graph: &TaskGraph, seed: u64) -> Vec<f64> {
    let mut points = vec![LO_GBPS, HI_GBPS];
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..16 {
        // Log-uniform interior points so the low-bandwidth decade is not
        // starved.
        let t: f64 = rng.gen_range(0.0..1.0);
        points.push(LO_GBPS * (HI_GBPS / LO_GBPS).powf(t));
    }
    points.retain(|b| (LO_GBPS..=HI_GBPS).contains(b));
    let one_channel = RpuEngine::new(engine.config().clone().with_memory_channels(1));
    if let Some(knee) = one_channel.bounds(graph).knee.effective_knee_gbps() {
        let knees = [knee.next_down(), knee, knee.next_up()];
        points.extend(knees.into_iter().filter(|&b| b >= LO_GBPS));
    }
    points
}

/// Formats the first event where the timeline's folded spans and the
/// engine's trace disagree, for a failure message worth reading. Spans are
/// matched by task id: the fold lists tasks in program order, the engine's
/// trace in retirement order, while every span still agrees.
fn first_divergence(
    engine: &RpuEngine,
    graph: &TaskGraph,
    timeline: &ParametricTimeline,
    bandwidth_gbps: f64,
) -> String {
    let traced = engine.config().clone().with_bandwidth(bandwidth_gbps);
    let traced = RpuEngine::new(traced)
        .with_channel_map(engine.channel_map().clone())
        .execute(graph)
        .expect("oracle graphs do not deadlock");
    let Some(replayed) = timeline.sampled_times(graph, bandwidth_gbps) else {
        return format!("no fold at {bandwidth_gbps} GB/s (engine path)");
    };
    let mut by_task = vec![None; graph.len()];
    for record in traced.trace.records() {
        by_task[record.task] = Some(record);
    }
    for (i, ours) in replayed.iter().enumerate() {
        let Some(reference) = by_task[ours.task] else {
            return format!(
                "folded event #{i} at {bandwidth_gbps} GB/s, task {} ({}), is missing from \
                 the engine's trace",
                ours.task, ours.label
            );
        };
        if ours.start_seconds.to_bits() != reference.start_seconds.to_bits()
            || ours.end_seconds.to_bits() != reference.end_seconds.to_bits()
        {
            return format!(
                "first differing event at {bandwidth_gbps} GB/s is fold #{i}: task {} ({}) \
                 spans [{:.9e}, {:.9e}] in the fold, [{:.9e}, {:.9e}] in the engine",
                ours.task,
                ours.label,
                ours.start_seconds,
                ours.end_seconds,
                reference.start_seconds,
                reference.end_seconds,
            );
        }
    }
    format!("event traces agree at {bandwidth_gbps} GB/s (stats-only divergence)")
}

/// Analyzes `graph` on `engine` and asserts evaluate == execute_stats, bit
/// for bit, over the whole sampling grid — and the same of the ladder path,
/// `evaluate_many` over the unsorted grid.
fn assert_oracle_agreement(engine: &RpuEngine, graph: &TaskGraph, seed: u64, context: &str) {
    let timeline = engine
        .analyze(graph, LO_GBPS, HI_GBPS)
        .expect("oracle graphs do not deadlock");
    let points = sample_points(engine, graph, seed);
    let ladder = timeline.evaluate_many(&points);
    for (&bandwidth, laned) in points.iter().zip(&ladder) {
        let expected = RpuEngine::new(engine.config().clone().with_bandwidth(bandwidth))
            .with_channel_map(engine.channel_map().clone())
            .execute_stats(graph)
            .expect("oracle graphs do not deadlock");
        assert_eq!(
            expected.runtime_seconds.to_bits(),
            laned.runtime_seconds.to_bits(),
            "{context}: evaluate_many diverges from the engine at {bandwidth} GB/s"
        );
        assert_stats_bit_identical(&expected, laned);
        let got = timeline.evaluate(bandwidth);
        let agree = expected.runtime_seconds.to_bits() == got.runtime_seconds.to_bits()
            && expected.compute_busy_seconds.to_bits() == got.compute_busy_seconds.to_bits()
            && expected.memory_busy_seconds.to_bits() == got.memory_busy_seconds.to_bits();
        assert!(
            agree,
            "{context}: analytic evaluation diverges from the engine at {bandwidth} GB/s\n{}",
            first_divergence(engine, graph, &timeline, bandwidth)
        );
        // The cheap fields agreed; now hold every field to the same bar.
        assert_stats_bit_identical(&expected, &got);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_graphs_evaluate_bit_identically_across_channel_counts(
        seed in 0u64..(1 << 32),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(4usize..40);
        let graph = TaskGraph::from_tasks_unchecked(random_valid_tasks(&mut rng, n));
        for channels in [1usize, 2, 4, 8] {
            let engine =
                RpuEngine::new(RpuConfig::ciflow_baseline().with_memory_channels(channels));
            assert_oracle_agreement(&engine, &graph, seed, &format!("seed {seed} x{channels}"));
        }
    }
}

#[test]
fn strategy_schedules_evaluate_bit_identically() {
    // Real schedules: every dataflow, both evk policies, across channel
    // counts — the shapes the analytic sweep API actually serves.
    for dataflow in Dataflow::all() {
        for evk_policy in [EvkPolicy::Streamed, EvkPolicy::OnChip] {
            let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, evk_policy);
            let schedule = build_schedule(dataflow, &HksShape::new(HksBenchmark::ARK), &config);
            for channels in [1usize, 4] {
                let engine = RpuEngine::new(
                    RpuConfig::ciflow_with_policy(evk_policy).with_memory_channels(channels),
                )
                .with_channel_map(schedule.channel_map(channels));
                assert_oracle_agreement(
                    &engine,
                    &schedule.graph,
                    7,
                    &format!("{dataflow} {evk_policy:?} x{channels}"),
                );
            }
        }
    }
}

#[test]
fn a_real_schedule_is_one_segment_on_one_channel_and_none_on_four() {
    // Sanity on the shape of the answer itself: a streamed OC schedule over
    // the full range keeps one segment on the paper's one-channel RPU, and
    // none on four channels, where every point runs the engine.
    let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, EvkPolicy::Streamed);
    let schedule = build_schedule(
        Dataflow::OutputCentric,
        &HksShape::new(HksBenchmark::ARK),
        &config,
    );
    let analyze = |channels: usize| {
        RpuEngine::new(RpuConfig::ciflow_streaming().with_memory_channels(channels))
            .with_channel_map(schedule.channel_map(channels))
            .analyze(&schedule.graph, LO_GBPS, HI_GBPS)
            .expect("schedule does not deadlock")
    };
    assert_eq!(analyze(1).segments().len(), 1, "one channel");
    let four = analyze(4);
    assert!(four.segments().is_empty());
    let _ = four.evaluate(64.0);
    assert_eq!(four.fallback_evaluations(), 1);
}

/// On one memory channel `graph` derives a single segment, and the static
/// bound curve equals the evaluated
/// runtime bit for bit on a 14-point ladder spanning the range.
fn assert_one_channel_bound_is_tight(engine: &RpuEngine, graph: &TaskGraph, context: &str) {
    let timeline = engine
        .analyze(graph, LO_GBPS, HI_GBPS)
        .expect("oracle graphs do not deadlock");
    assert_eq!(
        timeline.segments().len(),
        1,
        "{context}: one segment on one channel"
    );
    let ladder: Vec<f64> = (0..14)
        .map(|i| LO_GBPS * (HI_GBPS / LO_GBPS).powf(f64::from(i) / 13.0))
        .collect();
    let runtimes = timeline.evaluate_many(&ladder);
    let bounds = rpu::bound::bound_curve(engine, graph, &ladder);
    for ((&bw, stats), &bound) in ladder.iter().zip(&runtimes).zip(&bounds) {
        assert_eq!(
            bound.to_bits(),
            stats.runtime_seconds.to_bits(),
            "{context}: bound {bound} s vs runtime {} s at {bw} GB/s",
            stats.runtime_seconds
        );
    }
    assert_eq!(timeline.fallback_evaluations(), 0, "{context}");
}

/// Runs `check` on every one-channel schedule the forced-grant claims are
/// held on: the design-space grid (the five Table-III benchmarks x MP/DC/OC
/// x evks on-chip or streamed, 32 MiB) and the fused and back-to-back BTS2
/// rescaling chain, evks streamed.
fn for_each_one_channel_schedule(mut check: impl FnMut(&RpuEngine, &TaskGraph, &str)) {
    for benchmark in HksBenchmark::all() {
        for dataflow in Dataflow::all() {
            for evk_policy in [EvkPolicy::OnChip, EvkPolicy::Streamed] {
                let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, evk_policy);
                let schedule = build_schedule(dataflow, &HksShape::new(benchmark), &config);
                let engine = RpuEngine::new(RpuConfig::ciflow_with_policy(evk_policy))
                    .with_channel_map(schedule.channel_map(1));
                let context = format!("{} {dataflow} {evk_policy:?}", benchmark.name);
                check(&engine, &schedule.graph, &context);
            }
        }
    }
    let chain = Workload::rescaling_chain(HksBenchmark::BTS2, 6);
    let registry = StrategyRegistry::builtin();
    let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, EvkPolicy::Streamed);
    for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
        for dataflow in Dataflow::all() {
            let strategy = registry.get(dataflow.short_name()).expect("builtin");
            let built =
                build_workload(&chain, strategy.as_ref(), &config, mode).expect("the chain builds");
            let engine = RpuEngine::new(RpuConfig::ciflow_with_policy(EvkPolicy::Streamed))
                .with_channel_map(built.schedule.channel_map(1));
            let context = format!("{} {dataflow} {mode}", chain.name);
            check(&engine, &built.schedule.graph, &context);
        }
    }
}

#[test]
fn forced_grant_bound_is_tight_on_one_channel() {
    for_each_one_channel_schedule(assert_one_channel_bound_is_tight);
}
