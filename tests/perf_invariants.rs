//! Invariants of the simulator hot-path overhaul: the fast paths must be
//! *observationally identical* to the slow paths they replace.
//!
//! 1. Statistics-only execution ([`RpuEngine::execute_stats`]) returns
//!    bit-identical [`ExecutionStats`] to traced execution, across all
//!    strategies, channel counts, and pipeline modes.
//! 2. A schedule-cache hit produces a [`JobOutput`] identical to a cold
//!    build — same statistics to the bit, same schedule contents — while
//!    actually sharing the built schedule (`Arc` identity).
//! 3. Plan reuse (the `plan_reuse_*` cases): a session's cached execution
//!    plans and bound analysis reproduce cold, fresh-engine calls bit for
//!    bit over the whole design-space grid, and a plan never runs on a
//!    configuration it was not compiled for.

use ciflow::api::{Job, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::BANDWIDTH_LADDER;
use ciflow::workload::{build_workload, PipelineMode, Workload};
use ciflow::ScheduleConfig;
use common::{assert_stats_bit_identical, streaming_at};
use proptest::prelude::*;
use rpu::{BoundAnalysis, EngineError, EvkPolicy, RpuConfig, RpuEngine, TraceMode};
use std::sync::Arc;

#[path = "common/mod.rs"]
mod common;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stats_only_execution_is_bit_identical_to_traced(
        benchmark_index in 0usize..5,
        dataflow_index in 0usize..3,
        channel_index in 0usize..4,
        fused in 0u8..2,
        streamed in 0u8..2,
        bandwidth_index in 0usize..BANDWIDTH_LADDER.len(),
    ) {
        let benchmark = HksBenchmark::all()[benchmark_index];
        let dataflow = Dataflow::all()[dataflow_index];
        let channels = [1usize, 2, 4, 8][channel_index];
        let mode = if fused == 1 { PipelineMode::Fused } else { PipelineMode::BackToBack };
        let evk_policy = if streamed == 1 { EvkPolicy::Streamed } else { EvkPolicy::OnChip };
        let config = ScheduleConfig {
            data_memory_bytes: 32 * rpu::MIB,
            evk_policy,
        };
        let ws = build_workload(
            &Workload::rotation_batch(benchmark, 2),
            dataflow.strategy(),
            &config,
            mode,
        ).unwrap();
        let rpu = RpuConfig::ciflow_with_policy(evk_policy)
            .with_bandwidth(BANDWIDTH_LADDER[bandwidth_index])
            .with_memory_channels(channels);
        let engine = RpuEngine::new(rpu)
            .with_channel_map(ws.schedule.channel_map(channels));
        let traced = engine.execute(&ws.schedule.graph).unwrap();
        let stats_only = engine.execute_stats(&ws.schedule.graph).unwrap();
        assert_stats_bit_identical(&stats_only, &traced.stats);
        prop_assert_eq!(traced.trace.records().len(), ws.schedule.graph.len());
    }
}

#[test]
fn session_trace_modes_agree_on_stats() {
    // The same invariant through the session layer: a traced session and a
    // stats-only session report bit-identical statistics for the same job.
    for dataflow in Dataflow::all() {
        let job = Job::workload(
            Workload::mul_rot_block(HksBenchmark::DPRIVE, 2),
            dataflow,
            PipelineMode::Fused,
        )
        .with_rpu(streaming_at(25.6));
        let stats_only = Session::new().run_job(&job).unwrap();
        let traced = Session::new()
            .with_trace(TraceMode::Full)
            .run_job(&job)
            .unwrap();
        assert!(stats_only.trace.is_none(), "stats-only carries no trace");
        let trace = traced.trace.as_ref().expect("traced session records");
        assert_eq!(trace.records().len(), traced.schedule.graph.len());
        assert_stats_bit_identical(&stats_only.stats, &traced.stats);
    }
}

#[test]
fn schedule_cache_hit_matches_cold_build_exactly() {
    let job = |bandwidth: f64| {
        Job::workload(
            Workload::rotation_batch(HksBenchmark::ARK, 4),
            Dataflow::OutputCentric,
            PipelineMode::Fused,
        )
        .with_rpu(streaming_at(bandwidth).with_memory_channels(4))
    };

    // Warm session: the second run of an identically-keyed job hits the
    // cache — proven by Arc identity of the schedule — and everything the
    // caller can observe is identical to the first (cold) run.
    let warm = Session::new();
    let cold = warm.run_job(&job(12.8)).unwrap();
    let hit = warm.run_job(&job(12.8)).unwrap();
    assert!(
        Arc::ptr_eq(&cold.schedule, &hit.schedule),
        "second run must reuse the cached schedule"
    );
    assert_stats_bit_identical(&cold.stats, &hit.stats);
    assert_eq!(cold.kernels, hit.kernels);
    assert_eq!(cold.kernel_benchmarks, hit.kernel_benchmarks);
    assert_eq!(cold.forwarded_bytes, hit.forwarded_bytes);
    assert_eq!(cold.strategy, hit.strategy);

    // A different bandwidth shares the template (the schedule does not
    // depend on timing parameters) but executes at its own speed.
    let other_bw = warm.run_job(&job(64.0)).unwrap();
    assert!(Arc::ptr_eq(&cold.schedule, &other_bw.schedule));
    assert!(other_bw.stats.runtime_seconds < cold.stats.runtime_seconds);

    // A fresh session (its own empty cache) rebuilds from scratch; the
    // rebuilt schedule is a different allocation with identical contents,
    // and the job output is bit-identical.
    let fresh = Session::new().run_job(&job(12.8)).unwrap();
    assert!(!Arc::ptr_eq(&cold.schedule, &fresh.schedule));
    assert_eq!(*cold.schedule, *fresh.schedule);
    assert_stats_bit_identical(&cold.stats, &fresh.stats);

    // Opting out of the cache also rebuilds per job and still agrees.
    let uncached_session = Session::new().without_schedule_cache();
    let uncached_a = uncached_session.run_job(&job(12.8)).unwrap();
    let uncached_b = uncached_session.run_job(&job(12.8)).unwrap();
    assert!(!Arc::ptr_eq(&uncached_a.schedule, &uncached_b.schedule));
    assert_eq!(*cold.schedule, *uncached_a.schedule);
    assert_stats_bit_identical(&cold.stats, &uncached_a.stats);
}

#[test]
fn batch_jobs_share_one_template_per_distinct_key() {
    // A bandwidth-ladder batch (the sweep shape) must reuse one schedule per
    // (workload, mode) across all its points, and distinct keys must not
    // collide: fused and back-to-back get different schedules.
    let workload = Workload::rotation_batch(HksBenchmark::DPRIVE, 3);
    let session = Session::new().jobs(BANDWIDTH_LADDER.iter().flat_map(|&bw| {
        [PipelineMode::Fused, PipelineMode::BackToBack].map(|mode| {
            Job::workload(workload.clone(), Dataflow::OutputCentric, mode)
                .with_rpu(streaming_at(bw))
        })
    }));
    let outputs = session.run().into_outputs().unwrap();
    assert_eq!(outputs.len(), 2 * BANDWIDTH_LADDER.len());
    let fused = &outputs[0];
    let back_to_back = &outputs[1];
    assert!(!Arc::ptr_eq(&fused.schedule, &back_to_back.schedule));
    for pair in outputs.chunks_exact(2) {
        assert!(Arc::ptr_eq(&fused.schedule, &pair[0].schedule));
        assert!(Arc::ptr_eq(&back_to_back.schedule, &pair[1].schedule));
    }
    // Per-benchmark single-kernel jobs at different parameter points must
    // not share either.
    let session = Session::new()
        .job(HksBenchmark::ARK, Dataflow::OutputCentric)
        .job(HksBenchmark::BTS1, Dataflow::OutputCentric)
        .job(HksBenchmark::ARK, Dataflow::MaxParallel);
    let outputs = session.run().into_outputs().unwrap();
    assert!(!Arc::ptr_eq(&outputs[0].schedule, &outputs[1].schedule));
    assert!(!Arc::ptr_eq(&outputs[0].schedule, &outputs[2].schedule));
}

/// The design-space grid: the five Table-III benchmarks × MP/DC/OC × evks
/// on-chip or streamed, each on the paper's 32 MiB RPU at `channels`
/// channels and `bandwidth_gbps`.
fn dse_grid_jobs(channels: usize, bandwidth_gbps: f64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for benchmark in HksBenchmark::all() {
        for dataflow in Dataflow::all() {
            for evk in [EvkPolicy::OnChip, EvkPolicy::Streamed] {
                let rpu = RpuConfig::ciflow_with_policy(evk)
                    .with_bandwidth(bandwidth_gbps)
                    .with_memory_channels(channels);
                jobs.push(Job::new(benchmark, dataflow).with_rpu(rpu));
            }
        }
    }
    jobs
}

const PLAN_CHANNELS: [usize; 4] = [1, 2, 4, 8];
const PLAN_BANDWIDTHS: [f64; 3] = [8.0, 64.0, 1024.0];

/// Every field of two analyses, floats compared by their exact `Debug`
/// rendering (shortest round-trip digits, so equal text is equal bits).
fn assert_bounds_identical(a: &BoundAnalysis, b: &BoundAnalysis, context: &str) {
    assert_eq!(a, b, "{context}");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{context}");
}

/// A fresh engine, with the placement the session would derive, for a job.
fn fresh_engine(job: &Job, schedule: &ciflow::schedule::Schedule) -> RpuEngine {
    let rpu = job.rpu.clone().expect("grid jobs carry their RPU");
    let map = schedule.channel_map(rpu.memory_channel_count());
    RpuEngine::new(rpu).with_channel_map(map)
}

#[test]
fn plan_reuse_warm_runs_match_cold_engine_runs() {
    // One session sweeps the grid over every channel count and bandwidth,
    // so all but the first run of each (schedule, channel count) reuse a
    // cached plan. Each must equal a cold run on a fresh engine that builds
    // its own plan: statistics to the bit and the full per-task trace.
    let session = Session::new().with_trace(TraceMode::Full);
    for channels in PLAN_CHANNELS {
        for bandwidth in PLAN_BANDWIDTHS {
            for job in dse_grid_jobs(channels, bandwidth) {
                let warm = session.run_job(&job).unwrap();
                let cold = fresh_engine(&job, &warm.schedule)
                    .execute(&warm.schedule.graph)
                    .unwrap();
                assert_stats_bit_identical(&warm.stats, &cold.stats);
                assert_eq!(warm.trace.as_ref(), Some(&cold.trace));
            }
        }
    }
}

#[test]
fn plan_reuse_bounds_and_lint_match_fresh_analyses() {
    // verify_job computes the bound analysis its performance pass needs and
    // keeps it; the following bounds_job must hand back exactly a fresh
    // analysis, and the report exactly a fresh lint_with. The order is
    // alternated so both a slot hit and a slot miss feed each entry point.
    let session = Session::new();
    for channels in PLAN_CHANNELS {
        for (at, bandwidth) in PLAN_BANDWIDTHS.into_iter().enumerate() {
            for job in dse_grid_jobs(channels, bandwidth) {
                let (report, bounds) = if at % 2 == 0 {
                    let report = session.verify_job(&job).unwrap();
                    (report, session.bounds_job(&job).unwrap())
                } else {
                    let bounds = session.bounds_job(&job).unwrap();
                    (session.verify_job(&job).unwrap(), bounds)
                };
                let schedule = session.run_job(&job).unwrap().schedule;
                let engine = fresh_engine(&job, &schedule);
                let context = format!("{:?} x{channels} @ {bandwidth}", job.strategy);
                assert_bounds_identical(&bounds, &engine.bounds(&schedule.graph), &context);
                let rpu = engine.config();
                let fresh =
                    ciflow::lint::lint_with(&schedule, &[job.benchmark], rpu, engine.channel_map());
                assert_eq!(report, fresh, "{context}");
                assert_eq!(report.to_json(), fresh.to_json(), "{context}");
            }
        }
    }
}

#[test]
fn plan_reuse_analysis_slot_misses_on_a_modops_change() {
    let session = Session::new();
    let job = |modops: f64| {
        Job::new(HksBenchmark::ARK, Dataflow::OutputCentric).with_rpu(
            streaming_at(64.0)
                .with_memory_channels(4)
                .with_modops(modops),
        )
    };
    let base = session.bounds_job(&job(1.0)).unwrap();
    let doubled = session.bounds_job(&job(2.0)).unwrap();
    assert!(doubled.compute_occupancy_seconds < base.compute_occupancy_seconds);
    let schedule = session.run_job(&job(2.0)).unwrap().schedule;
    let fresh = fresh_engine(&job(2.0), &schedule).bounds(&schedule.graph);
    assert_bounds_identical(&doubled, &fresh, "modops 2");
    // Back at the first rate the slot (now holding modops 2) misses again.
    assert_bounds_identical(&session.bounds_job(&job(1.0)).unwrap(), &base, "modops 1");
}

#[test]
fn plan_reuse_rejects_a_plan_compiled_for_other_channels() {
    let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, EvkPolicy::Streamed);
    let schedule = ciflow::schedule::build_schedule(
        Dataflow::OutputCentric,
        &ciflow::hks_shape::HksShape::new(HksBenchmark::ARK),
        &config,
    );
    let graph = &schedule.graph;
    let four = RpuEngine::new(streaming_at(64.0).with_memory_channels(4))
        .with_channel_map(schedule.channel_map(4));
    let plan = four.plan(graph);
    assert!(four.execute_stats_plan(graph, &plan).is_ok());

    let eight = RpuEngine::new(streaming_at(64.0).with_memory_channels(8));
    let mismatch = EngineError::PlanMismatch {
        plan: (graph.len(), 4),
        run: (graph.len(), 8),
    };
    assert_eq!(
        eight.execute_stats_plan(graph, &plan),
        Err(mismatch.clone())
    );
    assert_eq!(eight.execute_plan(graph, &plan).unwrap_err(), mismatch);
    assert_eq!(
        eight
            .analyze_plan(graph, Arc::new(plan), 8.0, 64.0)
            .unwrap_err(),
        mismatch
    );
}
