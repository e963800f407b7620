//! Integration tests of heterogeneous workload pipelines: per-step parameter
//! points, rescaling-aware chaining with partial forwarding at every kernel
//! boundary, and the traffic invariant tying fused and back-to-back
//! pipelines together.
//!
//! The acceptance criterion: a rescaling chain (descending ℓ across ≥ 3
//! steps) builds and runs fused and back-to-back under all three built-in
//! strategies, and reports per-kernel shapes and per-boundary
//! `forwarded_bytes` such that fused and back-to-back total DRAM traffic
//! differ by exactly the forwarded total.

use ciflow::api::{Job, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::error::CiflowError;
use ciflow::schedule::ScheduleConfig;
use ciflow::sweep::{BANDWIDTH_LADDER, CHANNEL_LADDER};
use ciflow::workload::{build_workload, KernelStep, PipelineMode, Workload};
use common::{baseline_at, streaming_at};
use proptest::prelude::*;
use rpu::EvkPolicy;

#[path = "common/mod.rs"]
mod common;

/// The acceptance chain: ℓ decays over more than three steps.
fn acceptance_chain() -> Workload {
    Workload::rescaling_chain(HksBenchmark::ARK, 5)
}

#[test]
fn rescaling_chain_runs_under_every_builtin_strategy_in_both_modes() {
    let chain = acceptance_chain();
    let expected_ladder: Vec<usize> = vec![24, 23, 22, 21, 20];
    let mut session = Session::new().with_rpu(baseline_at(12.8));
    for dataflow in Dataflow::all() {
        for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
            session = session.push(Job::workload(chain.clone(), dataflow, mode));
        }
    }
    let outcome = session.run();
    assert!(
        outcome.all_ok(),
        "failures: {:?}",
        outcome
            .results
            .iter()
            .filter_map(|r| r.outcome.as_ref().err())
            .collect::<Vec<_>>()
    );
    let outputs = outcome.into_outputs().expect("every job succeeded");
    for output in &outputs {
        // Per-kernel shapes are reported back: the descending-ℓ ladder.
        assert_eq!(output.kernels, 5);
        let towers: Vec<usize> = output
            .kernel_benchmarks
            .iter()
            .map(|b| b.q_towers)
            .collect();
        assert_eq!(towers, expected_ladder, "{}", output.strategy);
        assert!(output.runtime_ms() > 0.0);
        assert!(output.runtime_ms_per_kernel() < output.runtime_ms());
    }
    // Within each strategy, fused never loses to back-to-back.
    for pair in outputs.chunks(2) {
        assert!(
            pair[0].runtime_ms() <= pair[1].runtime_ms() * 1.0001,
            "{}: fused {:.2} ms vs back-to-back {:.2} ms",
            pair[0].strategy,
            pair[0].runtime_ms(),
            pair[1].runtime_ms()
        );
    }
}

#[test]
fn traffic_invariant_holds_across_the_fig4_ladder_and_channel_counts() {
    // Engine-observed traffic (not just the schedule's static byte count):
    // at every Figure-4 bandwidth and every channel count, fused traffic plus
    // the reported forwarded bytes equals back-to-back traffic exactly.
    let chain = Workload::rescaling_chain(HksBenchmark::DPRIVE, 4);
    for &channels in &CHANNEL_LADDER {
        for &bandwidth in &BANDWIDTH_LADDER {
            let session =
                Session::new().with_rpu(streaming_at(bandwidth).with_memory_channels(channels));
            let fused = session
                .run_job(&Job::workload(
                    chain.clone(),
                    Dataflow::OutputCentric,
                    PipelineMode::Fused,
                ))
                .unwrap();
            let unfused = session
                .run_job(&Job::workload(
                    chain.clone(),
                    Dataflow::OutputCentric,
                    PipelineMode::BackToBack,
                ))
                .unwrap();
            assert!(fused.forwarded_bytes > 0, "DPRIVE chains fit on-chip");
            assert_eq!(unfused.forwarded_bytes, 0);
            assert_eq!(
                fused.stats.total_bytes() + fused.forwarded_bytes,
                unfused.stats.total_bytes(),
                "{channels} ch @ {bandwidth} GB/s"
            );
        }
    }
}

#[test]
fn empty_workloads_error_through_the_session_path() {
    // No steps at all, and steps that expand to zero kernels: both must
    // surface CiflowError::InvalidConfig from Session::run_job instead
    // of producing a degenerate empty schedule.
    let session = Session::new();
    for empty in [
        Workload::new("no-steps", HksBenchmark::ARK),
        Workload::rotation_batch(HksBenchmark::ARK, 0),
        Workload::new("zero-batch", HksBenchmark::ARK).step(KernelStep::RotationBatch { count: 0 }),
    ] {
        let name = empty.name.clone();
        for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
            let err = session
                .run_job(&Job::workload(empty.clone(), Dataflow::OutputCentric, mode))
                .unwrap_err();
            assert!(
                matches!(err, CiflowError::InvalidConfig { .. }),
                "{name} [{mode}]: {err}"
            );
        }
        // The batch path isolates the failure per job.
        let outcome = Session::new()
            .push(Job::workload(
                empty.clone(),
                Dataflow::OutputCentric,
                PipelineMode::Fused,
            ))
            .job(HksBenchmark::ARK, Dataflow::OutputCentric)
            .run();
        assert!(outcome.results[0].outcome.is_err(), "{name}");
        assert!(outcome.results[1].outcome.is_ok());
    }
}

#[test]
fn heterogeneous_sweep_reports_monotone_runtimes_and_fused_dominance() {
    // One closed-form ladder per pipeline mode.
    let session = Session::new();
    let [(b2b_run, b2b), (fused_run, fused)] =
        [PipelineMode::BackToBack, PipelineMode::Fused].map(|mode| {
            let job = Job::workload(acceptance_chain(), Dataflow::OutputCentric, mode)
                .with_rpu(baseline_at(8.0));
            session.run_ladder(&job, &[8.0, 16.0, 32.0]).unwrap()
        });
    let towers: Vec<usize> = b2b_run
        .kernel_benchmarks
        .iter()
        .map(|b| b.q_towers)
        .collect();
    assert_eq!(towers, vec![24, 23, 22, 21, 20]);
    assert_eq!(fused.len(), 3);
    for (ladder, label) in [(&fused, "fused"), (&b2b, "back-to-back")] {
        for w in ladder.windows(2) {
            assert!(w[1].runtime_ms() <= w[0].runtime_ms() * 1.0001, "{label}");
        }
    }
    for (f, b) in fused.iter().zip(&b2b) {
        assert!(f.runtime_ms() <= b.runtime_ms() * 1.0001);
    }
    assert!(fused_run.forwarded_bytes > 0);
}

#[test]
fn channel_map_covers_the_union_of_heterogeneous_step_traffic() {
    // The stitched schedule's channel map is derived from every step's
    // traffic, so evk prefetch and limb traffic stay on disjoint channel
    // groups for each kernel of the chain — including the rescaled ones.
    let chain = Workload::rescaling_chain(HksBenchmark::ARK, 3);
    let ws = build_workload(
        &chain,
        &Dataflow::OutputCentric,
        &ScheduleConfig::with_data_memory(32 * rpu::MIB, EvkPolicy::Streamed),
        PipelineMode::Fused,
    )
    .unwrap();
    let map = ws.schedule.channel_map(8);
    for (k, benchmark) in ws.kernel_benchmarks.iter().enumerate() {
        let evk = map.channel_for(&format!("k{k}:load evk[d0][t1]"));
        for t in 0..benchmark.q_towers {
            let limb = map.channel_for(&format!("k{k}:load in[{t}]"));
            assert_ne!(evk, limb, "kernel {k} tower {t}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The traffic invariant as a property: for random chains (mixed steps,
    /// random descending-or-not parameter points, random strategy and evk
    /// policy), fused and back-to-back total DRAM bytes differ by exactly
    /// the sum of the per-boundary forwarded bytes.
    #[test]
    fn fused_and_back_to_back_traffic_differ_by_exactly_forwarded_bytes(
        benchmark_idx in 0usize..5,
        dataflow_idx in 0usize..3,
        streamed in any::<bool>(),
        drops in proptest::collection::vec((0usize..4, 1usize..3), 1..5),
    ) {
        let base = HksBenchmark::all()[benchmark_idx];
        let dataflow = Dataflow::all()[dataflow_idx];
        let mut workload = Workload::new("prop-chain", base);
        let mut ell = base.q_towers;
        for &(drop, rotations) in &drops {
            ell = ell.saturating_sub(drop).max(1);
            workload = workload.step_at(
                KernelStep::RotationBatch { count: rotations },
                base.at_q_towers(ell),
            );
        }
        let config = ScheduleConfig::with_data_memory(
            32 * rpu::MIB,
            if streamed { EvkPolicy::Streamed } else { EvkPolicy::OnChip },
        );
        let fused =
            build_workload(&workload, &dataflow, &config, PipelineMode::Fused).unwrap();
        let unfused =
            build_workload(&workload, &dataflow, &config, PipelineMode::BackToBack)
                .unwrap();
        prop_assert_eq!(unfused.forwarded_bytes, 0);
        prop_assert_eq!(
            fused.forwarded_bytes,
            fused.boundary_forwarded_bytes.iter().sum::<u64>()
        );
        prop_assert_eq!(
            fused.schedule.dram_bytes() + fused.forwarded_bytes,
            unfused.schedule.dram_bytes(),
            "{} {} chain {:?}",
            base.name,
            dataflow,
            fused.kernel_benchmarks.iter().map(|b| b.q_towers).collect::<Vec<_>>()
        );
        // Forwarding never moves compute work.
        prop_assert_eq!(fused.schedule.total_ops(), unfused.schedule.total_ops());
    }
}
