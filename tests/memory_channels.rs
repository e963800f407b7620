//! Integration tests of the multi-channel memory model through the public
//! session, sweep and workload APIs, including the acceptance claims:
//! the `workload_pipelines` channel sweep's fused compute-idle fraction is
//! monotonically non-increasing from 1 to 8 channels, and single-channel
//! results are bit-identical to the default configuration.

use ciflow::api::{Job, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::{try_channel_sweep, CHANNEL_LADDER};
use ciflow::workload::{PipelineMode, Workload};
use common::streaming_at;
use rpu::EvkPolicy;

#[path = "common/mod.rs"]
mod common;

/// The exact scenarios the `workload_pipelines` binary prints in its
/// memory-channel sweep section.
const SWEEP_BANDWIDTHS: [f64; 4] = [12.8, 25.6, 64.0, 128.0];

#[test]
fn channel_sweep_idle_fraction_is_monotonically_non_increasing() {
    let session = Session::new();
    // The acceptance criterion: for the fused 8-rotation pipeline with
    // streamed evks, adding pseudo-channels (at a fixed aggregate bandwidth)
    // never increases the compute-idle fraction, and at HBM-class bandwidth
    // it visibly decreases it.
    for benchmark in [HksBenchmark::ARK, HksBenchmark::DPRIVE] {
        for &bandwidth in &SWEEP_BANDWIDTHS {
            let points = try_channel_sweep(
                &session,
                &Workload::rotation_batch(benchmark, 8),
                Dataflow::OutputCentric,
                bandwidth,
                EvkPolicy::Streamed,
                &CHANNEL_LADDER,
                PipelineMode::Fused,
            )
            .unwrap();
            assert_eq!(points.len(), CHANNEL_LADDER.len());
            for w in points.windows(2) {
                assert!(
                    w[1].compute_idle <= w[0].compute_idle,
                    "{} @ {bandwidth} GB/s: idle rose from {:.4} ({} ch) to {:.4} ({} ch)",
                    benchmark.name,
                    w[0].compute_idle,
                    w[0].channels,
                    w[1].compute_idle,
                    w[1].channels
                );
                assert!(
                    w[1].runtime_ms <= w[0].runtime_ms,
                    "{} @ {bandwidth} GB/s: runtime rose from {:.3} ms ({} ch) to {:.3} ms ({} ch)",
                    benchmark.name,
                    w[0].runtime_ms,
                    w[0].channels,
                    w[1].runtime_ms,
                    w[1].channels
                );
            }
        }
        // At 128 GB/s the head-of-line bypass is worth several idle points.
        let points = try_channel_sweep(
            &session,
            &Workload::rotation_batch(benchmark, 8),
            Dataflow::OutputCentric,
            128.0,
            EvkPolicy::Streamed,
            &CHANNEL_LADDER,
            PipelineMode::Fused,
        )
        .unwrap();
        assert!(
            points.last().unwrap().compute_idle < points[0].compute_idle - 0.05,
            "{}: idle {:.4} (1 ch) vs {:.4} (8 ch)",
            benchmark.name,
            points[0].compute_idle,
            points.last().unwrap().compute_idle
        );
    }
}

#[test]
fn single_channel_is_bit_identical_to_the_default_configuration() {
    // `num_memory_channels = 1` must reproduce the classic single-queue
    // engine exactly: same runtime bits, same busy times, for single kernels
    // and fused pipelines alike.
    for benchmark in [HksBenchmark::ARK, HksBenchmark::BTS3] {
        for dataflow in Dataflow::all() {
            let base_rpu = streaming_at(25.6);
            let session = Session::new();
            let default_run = session
                .run_job(&Job::new(benchmark, dataflow).with_rpu(base_rpu.clone()))
                .unwrap();
            let one_channel = session
                .run_job(
                    &Job::new(benchmark, dataflow)
                        .with_rpu(base_rpu.clone().with_memory_channels(1)),
                )
                .unwrap();
            assert_eq!(
                default_run.stats.runtime_seconds.to_bits(),
                one_channel.stats.runtime_seconds.to_bits(),
                "{} {dataflow}: single-channel runtime differs from default",
                benchmark.name
            );
            assert_eq!(
                default_run.stats.memory_busy_seconds.to_bits(),
                one_channel.stats.memory_busy_seconds.to_bits()
            );
            assert_eq!(
                default_run.stats.compute_busy_seconds.to_bits(),
                one_channel.stats.compute_busy_seconds.to_bits()
            );
        }
    }
    // Fused pipeline path too.
    let workload = Workload::rotation_batch(HksBenchmark::ARK, 6);
    let session = Session::new().with_rpu(streaming_at(12.8));
    let default_run = session
        .run_job(&Job::workload(workload.clone(), "OC", PipelineMode::Fused))
        .unwrap();
    let one_channel = Session::new()
        .with_rpu(streaming_at(12.8).with_memory_channels(1))
        .run_job(&Job::workload(workload, "OC", PipelineMode::Fused))
        .unwrap();
    assert_eq!(
        default_run.stats.runtime_seconds.to_bits(),
        one_channel.stats.runtime_seconds.to_bits()
    );
}

#[test]
fn channel_accounting_sums_to_total_memory_busy_through_the_session() {
    // Regression: per-channel busy accounting must cover the aggregate
    // exactly, through the full session path (schedule-derived channel map).
    for channels in CHANNEL_LADDER {
        let output = Session::new()
            .with_rpu(streaming_at(25.6).with_memory_channels(channels))
            .run_job(&Job::workload(
                Workload::rotation_batch(HksBenchmark::ARK, 4),
                "OC",
                PipelineMode::Fused,
            ))
            .unwrap();
        assert_eq!(output.stats.memory_channel_busy_seconds.len(), channels);
        let sum: f64 = output.stats.memory_channel_busy_seconds.iter().sum();
        assert!(
            (sum - output.stats.memory_busy_seconds).abs()
                <= 1e-9 * output.stats.memory_busy_seconds,
            "{channels} channels: per-channel sum {sum} != {}",
            output.stats.memory_busy_seconds
        );
        // The shared data path is never over-committed.
        assert!(output.stats.memory_busy_seconds <= output.stats.runtime_seconds + 1e-12);
        // With more than one channel every channel receives some traffic
        // (the schedule-derived map balances evk and limb groups).
        if channels > 1 {
            for (channel, &busy) in output.stats.memory_channel_busy_seconds.iter().enumerate() {
                assert!(
                    busy > 0.0,
                    "channel {channel} of {channels} received no traffic"
                );
            }
        }
    }
}

#[test]
fn channel_count_never_hurts_the_printed_pipeline_scenarios() {
    let session = Session::new();
    // The unfused baseline also benefits (or at worst ties): its boundary
    // stores and next-kernel evk loads are serialized by the barrier, so
    // bypass opportunities are rarer but never harmful in these scenarios.
    for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
        let points = try_channel_sweep(
            &session,
            &Workload::rotation_batch(HksBenchmark::ARK, 8),
            Dataflow::OutputCentric,
            64.0,
            EvkPolicy::Streamed,
            &CHANNEL_LADDER,
            mode,
        )
        .unwrap();
        for w in points.windows(2) {
            assert!(
                w[1].runtime_ms <= w[0].runtime_ms + 1e-9,
                "{mode}: runtime rose from {:.3} to {:.3} ms",
                w[0].runtime_ms,
                w[1].runtime_ms
            );
        }
    }
}
