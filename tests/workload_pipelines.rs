//! Integration tests of the `ciflow::workload` pipeline subsystem: fused
//! multi-kernel task graphs through the public session and sweep APIs,
//! including the headline acceptance claim that fused pipelines beat
//! back-to-back execution at DDR4-class bandwidth.

use ciflow::api::{Job, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::try_analytic_sweep_in;
use ciflow::workload::{build_workload, KernelStep, PipelineMode, Workload};
use ciflow::HksShape;
use common::{baseline_at, streaming_at};
use rpu::{EvkPolicy, RpuConfig};

#[path = "common/mod.rs"]
mod common;

/// DDR4-class off-chip bandwidths (GB/s).
const DDR4_BANDWIDTHS: [f64; 2] = [8.0, 12.8];

#[test]
fn fused_pipelines_beat_back_to_back_for_oc_at_ddr4_bandwidth() {
    // The acceptance criterion: for OC on ARK and DPRIVE at DDR4-class
    // bandwidth, the fused pipeline has lower runtime AND lower compute-idle
    // fraction than running the kernels back-to-back unfused.
    for benchmark in [HksBenchmark::ARK, HksBenchmark::DPRIVE] {
        for &bandwidth in &DDR4_BANDWIDTHS {
            let session = Session::new().with_rpu(baseline_at(bandwidth));
            let workload = Workload::rotation_batch(benchmark, 8);
            let fused = session
                .run_job(&Job::workload(
                    workload.clone(),
                    Dataflow::OutputCentric,
                    PipelineMode::Fused,
                ))
                .unwrap();
            let unfused = session
                .run_job(&Job::workload(
                    workload,
                    Dataflow::OutputCentric,
                    PipelineMode::BackToBack,
                ))
                .unwrap();
            assert!(
                fused.runtime_ms() < unfused.runtime_ms(),
                "{} @ {bandwidth} GB/s: fused {:.2} ms vs unfused {:.2} ms",
                benchmark.name,
                fused.runtime_ms(),
                unfused.runtime_ms()
            );
            assert!(
                fused.stats.compute_idle_fraction() < unfused.stats.compute_idle_fraction(),
                "{} @ {bandwidth} GB/s: fused idle {:.3} vs unfused idle {:.3}",
                benchmark.name,
                fused.stats.compute_idle_fraction(),
                unfused.stats.compute_idle_fraction()
            );
        }
    }
}

#[test]
fn pipelines_run_under_every_builtin_strategy_in_one_batch() {
    // Workloads are ordinary jobs: one parallel batch covering every built-in
    // strategy on the bootstrap preset, with per-job results.
    let workload = Workload::bootstrap_key_switch(HksBenchmark::ARK);
    let kernels = workload.hks_invocations();
    let mut session = Session::new().with_rpu(streaming_at(25.6));
    for dataflow in Dataflow::all() {
        for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
            session = session.push(Job::workload(workload.clone(), dataflow, mode));
        }
    }
    let outcome = session.run();
    assert_eq!(outcome.len(), 6);
    assert!(
        outcome.all_ok(),
        "failures: {:?}",
        outcome
            .results
            .iter()
            .filter(|r| r.outcome.is_err())
            .count()
    );
    let shape = HksShape::new(HksBenchmark::ARK);
    let outputs = outcome.into_outputs().expect("every job succeeded");
    for output in &outputs {
        assert_eq!(output.kernels, kernels);
        assert_eq!(output.stats.total_ops, kernels as u64 * shape.total_ops());
    }
    // Within each strategy, fused never loses to back-to-back.
    for pair in outputs.chunks(2) {
        assert!(pair[0].runtime_ms() <= pair[1].runtime_ms() * 1.0001);
    }
}

#[test]
fn workload_sweep_runs_the_figure4_ladder() {
    let workload = Workload::new("mixed", HksBenchmark::DPRIVE)
        .step(KernelStep::Relinearize)
        .step(KernelStep::RotationBatch { count: 3 })
        .step(KernelStep::KeySwitch);
    assert_eq!(workload.hks_invocations(), 5);
    let series = try_analytic_sweep_in(
        &Session::new(),
        &workload,
        Dataflow::OutputCentric,
        &ciflow::sweep::BANDWIDTH_LADDER,
        EvkPolicy::Streamed,
        1.0,
        PipelineMode::Fused,
    )
    .map(|s| s.series)
    .unwrap();
    assert_eq!(series.points.len(), ciflow::sweep::BANDWIDTH_LADDER.len());
    assert!(series.evk_streamed);
    for w in series.points.windows(2) {
        assert!(
            w[1].runtime_ms <= w[0].runtime_ms * 1.0001,
            "workload runtime must not increase with bandwidth"
        );
    }
}

#[test]
fn custom_strategies_pipeline_through_the_conservative_barrier() {
    // A strategy that does not name its buffers `in[t]`/`out1[t]` still
    // chains correctly: fusion degrades to a barrier instead of misfusing.
    use ciflow::api::ScheduleStrategy;
    use ciflow::error::CiflowError;
    use ciflow::schedule::{Schedule, ScheduleConfig};
    use rpu::{ComputeKind, TaskGraph, Verb};

    struct Opaque;
    impl ScheduleStrategy for Opaque {
        fn name(&self) -> &str {
            "opaque"
        }
        fn short_name(&self) -> &str {
            "OP"
        }
        fn build(
            &self,
            shape: &HksShape,
            _config: &ScheduleConfig,
        ) -> Result<Schedule, CiflowError> {
            let mut graph = TaskGraph::new();
            let load = graph.push_memory(
                Verb::Load,
                shape.input_bytes(),
                vec![],
                "opaque read",
                "ModUp-P1",
            );
            let compute = graph.push_compute(
                ComputeKind::Ntt,
                shape.total_ops(),
                vec![load],
                "go",
                "ModUp-P4",
            );
            graph.push_memory(
                Verb::Store,
                shape.output_bytes(),
                vec![compute],
                "opaque write",
                "ModDown-P4",
            );
            Ok(Schedule {
                strategy: self.short_name().to_string(),
                graph,
                peak_on_chip_bytes: 0,
                spill_bytes: 0,
            })
        }
    }

    let ws = build_workload(
        &Workload::rotation_batch(HksBenchmark::ARK, 3),
        &Opaque,
        &ScheduleConfig::default(),
        PipelineMode::Fused,
    )
    .unwrap();
    assert_eq!(ws.kernels, 3);
    assert_eq!(ws.forwarded_bytes, 0, "nothing to forward without `in[t]`");
    // 3 kernels x 3 tasks, all kept, and the graph executes.
    assert_eq!(ws.schedule.graph.len(), 9);
    let engine = rpu::RpuEngine::new(RpuConfig::ciflow_baseline());
    engine.execute(&ws.schedule.graph).unwrap();
    // The second kernel's load waits for the first kernel's sink.
    let k1_load = &ws.schedule.graph.tasks()[3];
    assert_eq!((k1_load.kernel, &*k1_load.label), (Some(1), "opaque read"));
    assert_eq!(&*k1_load.display_label(), "k1:load opaque read");
    assert_eq!(k1_load.dependencies, vec![2]);
}

/// `build_workload`'s forwarding accounting, an invariant its own check
/// asserts only in debug builds: the kernels' own schedules move exactly the
/// stitched graph's DRAM traffic plus the forwarded bytes, and the forwarded
/// total is the sum of the per-boundary entries. Held on every preset
/// pipeline, dataflow, pipeline mode and evk policy; CI also runs it in
/// release.
#[test]
fn forwarding_accounting_holds_on_every_preset_pipeline() {
    use ciflow::schedule::{build_schedule, ScheduleConfig};
    for benchmark in HksBenchmark::all() {
        let presets = [
            Workload::rotation_batch(benchmark, 3),
            Workload::mul_rot_block(benchmark, 2),
            Workload::bootstrap_key_switch(benchmark),
            Workload::rescaling_chain(benchmark, 4),
        ];
        for evk_policy in [EvkPolicy::OnChip, EvkPolicy::Streamed] {
            let config = ScheduleConfig {
                evk_policy,
                ..ScheduleConfig::default()
            };
            for workload in &presets {
                for dataflow in Dataflow::all() {
                    let template_traffic: u64 = (workload.kernel_benchmarks().into_iter())
                        .map(|b| build_schedule(dataflow, &HksShape::new(b), &config).dram_bytes())
                        .sum();
                    for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
                        let ws = build_workload(workload, &dataflow, &config, mode).unwrap();
                        let context = format!("{} {dataflow} {mode} {evk_policy}", workload.name);
                        assert_eq!(
                            template_traffic,
                            ws.schedule.dram_bytes() + ws.forwarded_bytes,
                            "{context}"
                        );
                        assert_eq!(
                            ws.forwarded_bytes,
                            ws.boundary_forwarded_bytes.iter().sum::<u64>(),
                            "{context}"
                        );
                        assert_eq!(
                            ws.boundary_forwarded_bytes.len(),
                            ws.kernels - 1,
                            "{context}"
                        );
                        if mode == PipelineMode::BackToBack {
                            assert_eq!(ws.forwarded_bytes, 0, "{context}");
                        }
                    }
                }
            }
        }
    }
}
