//! Soundness and exactness oracle for `rpu::bound`.
//!
//! The static analyzer claims three things this suite stress-tests:
//!
//! 1. **Path exactness** — its forward/backward dependency passes compute
//!    the same earliest/latest starts and slack as an independent
//!    Bellman–Ford-style relaxation oracle (`common::path_oracle`), bit for
//!    bit, on random graphs across the channel and bandwidth ladders.
//! 2. **Soundness** — the engine's measured runtime never beats the static
//!    makespan bound: on every preset of the gallery and on random graphs,
//!    `bound <= runtime` at every channel count and Fig-4 bandwidth, with
//!    *bit-exact* equality on contention-free single-stream chains.
//! 3. **Knee agreement** — the closed-form roofline knee is consistent with
//!    the closed-form [`ciflow::sweep::try_analytic_sweep_in`] timeline: the
//!    bound curve sits under the runtime curve at every ladder point, the
//!    sweep's `knee_gbps` equals the analysis's effective knee, and above a
//!    true crossover knee the bound is exactly flat at the compute floor.
//!    A multi-channel timeline, which evaluates through the engine, keeps
//!    the bound under the runtime on a 64-point log ladder over 8–1024 GB/s.

use ciflow::api::{Job, Session};
use ciflow::sweep::{try_analytic_sweep_in, BANDWIDTH_LADDER, CHANNEL_LADDER};
use ciflow::workload::{PipelineMode, Workload};
use ciflow::{Dataflow, HksBenchmark};
use common::{path_oracle, random_valid_tasks};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rpu::bound::RooflineKnee;
use rpu::{ComputeKind, EvkPolicy, RpuConfig, RpuEngine, TaskGraph, TaskId, Verb};

#[path = "common/mod.rs"]
mod common;

/// The unit device the hand-checkable tests run on: 1 Gop/s compute so ops
/// and seconds coincide, with bandwidth and channels explicit per test.
fn unit_rpu(bandwidth_gbps: f64, channels: usize) -> RpuConfig {
    RpuConfig {
        num_hples: 1,
        vector_length: 1,
        clock_ghz: 1.0,
        vector_memory_bytes: 1 << 30,
        key_memory_bytes: 0,
        scalar_memory_bytes: 0,
        dram_bandwidth_gbps: bandwidth_gbps,
        num_memory_channels: channels,
        modops_multiplier: 1.0,
        evk_policy: EvkPolicy::Streamed,
    }
}

/// A strictly serial single-stream chain: load -> compute -> store, each
/// stage depending on the previous store. Nothing contends, so the engine
/// must hit the dependency bound exactly.
fn contention_free_chain(stages: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut prev: Option<TaskId> = None;
    for i in 0..stages {
        let deps = prev.map(|p| vec![p]).into_iter().flatten().collect();
        let load = g.push_memory(Verb::Load, 1_000_000 + i as u64, deps, format!("{i}"), "P1");
        let c = g.push_compute(
            ComputeKind::Ntt,
            2_000_000 + i as u64,
            vec![load],
            format!("c {i}"),
            "P1",
        );
        prev = Some(g.push_memory(
            Verb::Store,
            500_000 + i as u64,
            vec![c],
            format!("{i}"),
            "P1",
        ));
    }
    g
}

#[test]
fn a_hand_computed_fork_agrees_with_oracle_and_analyzer() {
    // slow: 3 GB load (3 s at 1 GB/s); fast: 1 GB load (1 s); join: 1 Gop
    // compute (1 s). By hand: makespan 4 s, fast has 2 s of slack, the
    // critical path is slow -> join.
    let mut g = TaskGraph::new();
    let slow = g.push_memory(Verb::Load, 3_000_000_000, vec![], "slow", "P1");
    let fast = g.push_memory(Verb::Load, 1_000_000_000, vec![], "fast", "P1");
    let join = g.push_compute(
        ComputeKind::PointwiseAdd,
        1_000_000_000,
        vec![slow, fast],
        "join",
        "P1",
    );
    let engine = RpuEngine::new(unit_rpu(1.0, 2));
    let durations: Vec<f64> = g.tasks().iter().map(|t| engine.task_duration(t)).collect();
    let oracle = path_oracle(g.tasks(), &durations);
    assert_eq!(oracle.makespan, 4.0);
    assert_eq!(oracle.earliest_start, vec![0.0, 0.0, 3.0]);
    assert_eq!(oracle.latest_start, vec![0.0, 2.0, 3.0]);
    assert_eq!(oracle.slack, vec![0.0, 2.0, 0.0]);
    let b = engine.bounds(&g);
    assert_eq!(b.dependency_bound_seconds, oracle.makespan);
    assert_eq!(b.earliest_start, oracle.earliest_start);
    assert_eq!(b.latest_start, oracle.latest_start);
    assert_eq!(b.slack, oracle.slack);
    assert_eq!(b.critical_path, vec![slow, join]);
}

#[test]
fn bound_is_bit_exact_on_contention_free_chains() {
    let g = contention_free_chain(5);
    for &bandwidth in &BANDWIDTH_LADDER {
        for &channels in &CHANNEL_LADDER {
            let engine = RpuEngine::new(unit_rpu(bandwidth, channels));
            let b = engine.bounds(&g);
            let stats = engine.execute_stats(&g).expect("chain executes");
            assert_eq!(
                b.makespan_bound_seconds.to_bits(),
                stats.runtime_seconds.to_bits(),
                "single-stream chain must be bit-exact at {bandwidth} GB/s x{channels}"
            );
        }
    }
}

/// The Fig-4 ladder unsorted, with one entry repeated: 11 points, so
/// `bound_curve` runs one 8-lane chunk and a 3-point remainder.
const CURVE_LADDER: [f64; 11] = [
    64.0, 8.0, 1024.0, 12.8, 256.0, 16.0, 512.0, 25.6, 128.0, 12.8, 32.0,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The analyzer's dependency passes are the relaxation oracle, bit for
    /// bit — starts, deadlines, slack and the path bound.
    #[test]
    fn analyzer_path_passes_match_the_relaxation_oracle(seed in 0u64..1024, n in 1usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = TaskGraph::from_tasks(random_valid_tasks(&mut rng, n))
            .expect("backward deps always form a valid graph");
        for channels in [1usize, 4] {
            for bandwidth in [8.0, 64.0, 1024.0] {
                let engine = RpuEngine::new(unit_rpu(bandwidth, channels));
                let durations: Vec<f64> =
                    graph.tasks().iter().map(|t| engine.task_duration(t)).collect();
                let oracle = path_oracle(graph.tasks(), &durations);
                let b = engine.bounds(&graph);
                prop_assert_eq!(b.dependency_bound_seconds.to_bits(), oracle.makespan.to_bits());
                for id in 0..n {
                    prop_assert_eq!(b.earliest_start[id].to_bits(), oracle.earliest_start[id].to_bits());
                    prop_assert_eq!(b.latest_start[id].to_bits(), oracle.latest_start[id].to_bits());
                    prop_assert_eq!(b.slack[id].to_bits(), oracle.slack[id].to_bits());
                }
            }
        }
    }

    /// Soundness on random graphs: the engine can never beat the bound, at
    /// any channel count or Fig-4 bandwidth — and on one channel, where
    /// every bus grant is forced, the bound equals the runtime bit for bit.
    /// The ladder path of `bound_curve` (one 8-lane chunk plus a 3-point
    /// remainder, unsorted, with a duplicate) equals the full analysis at
    /// every entry, bit for bit.
    #[test]
    fn engine_runtime_never_beats_the_bound_on_random_graphs(seed in 0u64..1024, n in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = TaskGraph::from_tasks(random_valid_tasks(&mut rng, n))
            .expect("backward deps always form a valid graph");
        for &channels in &CHANNEL_LADDER {
            let curve = rpu::bound::bound_curve(
                &RpuEngine::new(unit_rpu(BANDWIDTH_LADDER[0], channels)),
                &graph,
                &CURVE_LADDER,
            );
            for &bandwidth in &BANDWIDTH_LADDER {
                let engine = RpuEngine::new(unit_rpu(bandwidth, channels));
                let b = engine.bounds(&graph);
                for (&bw, &bound) in CURVE_LADDER.iter().zip(&curve) {
                    if bw == bandwidth {
                        prop_assert_eq!(
                            bound.to_bits(),
                            b.makespan_bound_seconds.to_bits(),
                            "bound curve off the full analysis at {} GB/s x{}: {} vs {}",
                            bw, channels, bound, b.makespan_bound_seconds
                        );
                    }
                }
                let stats = engine.execute_stats(&graph).expect("valid graphs execute");
                prop_assert!(
                    b.makespan_bound_seconds <= stats.runtime_seconds,
                    "unsound at {} GB/s x{}: bound {} > runtime {}",
                    bandwidth, channels, b.makespan_bound_seconds, stats.runtime_seconds
                );
                if channels == 1 {
                    prop_assert_eq!(
                        b.makespan_bound_seconds.to_bits(),
                        stats.runtime_seconds.to_bits(),
                        "not tight on one channel at {} GB/s: bound {} vs runtime {}",
                        bandwidth, b.makespan_bound_seconds, stats.runtime_seconds
                    );
                }
            }
        }
    }
}

#[test]
fn preset_gallery_bounds_are_sound_across_the_ladders() {
    for benchmark in HksBenchmark::all() {
        for dataflow in Dataflow::all() {
            for policy in [EvkPolicy::OnChip, EvkPolicy::Streamed] {
                for &channels in &CHANNEL_LADDER {
                    for &bandwidth in &BANDWIDTH_LADDER {
                        let rpu = RpuConfig::ciflow_with_policy(policy)
                            .with_bandwidth(bandwidth)
                            .with_memory_channels(channels);
                        let session = Session::new().with_rpu(rpu);
                        let job = Job::new(benchmark, dataflow);
                        let b = session.bounds_job(&job).expect("preset analyzes");
                        let run = session.run_job(&job).expect("preset executes");
                        assert!(
                            b.makespan_bound_seconds <= run.stats.runtime_seconds,
                            "{} {dataflow} {policy:?} x{channels} @ {bandwidth}: \
                             bound {} > runtime {}",
                            benchmark.name,
                            b.makespan_bound_seconds,
                            run.stats.runtime_seconds
                        );
                        let eff = b.efficiency(run.stats.runtime_seconds);
                        assert!(eff > 0.0 && eff <= 1.0, "efficiency {eff} outside (0, 1]");
                    }
                }
            }
        }
    }
}

#[test]
fn static_knee_agrees_with_the_parametric_timeline_on_presets() {
    let presets = [
        Workload::rotation_batch(HksBenchmark::ARK, 4),
        Workload::mul_rot_block(HksBenchmark::BTS2, 2),
        Workload::bootstrap_key_switch(HksBenchmark::BTS3),
        // The fused BTS2 rescaling chain `simbench`'s `analytic_ladder` sweeps.
        Workload::rescaling_chain(HksBenchmark::BTS2, 6),
    ];
    let session = Session::new();
    for workload in &presets {
        for dataflow in Dataflow::all() {
            for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
                let context = format!("{} {dataflow} {mode}", workload.name);
                let sweep = |ladder: &[f64]| {
                    try_analytic_sweep_in(
                        &session,
                        workload,
                        dataflow,
                        ladder,
                        EvkPolicy::Streamed,
                        1.0,
                        mode,
                    )
                    .expect("preset sweeps")
                };
                let job = Job::workload(workload.clone(), dataflow, mode).with_rpu(
                    RpuConfig::ciflow_with_policy(EvkPolicy::Streamed)
                        .with_bandwidth(64.0)
                        .with_modops(1.0),
                );
                // The real bound curve on the sweep's one-channel map, which
                // the sweep's copied `bound_ms` must equal bit for bit.
                let run = session.run_job(&job).expect("preset executes");
                let engine =
                    RpuEngine::new(run.rpu.clone()).with_channel_map(run.schedule.channel_map(1));
                let check_bound_curve = |ladder: &[f64], bound_ms: &[f64]| {
                    let curve = rpu::bound::bound_curve(&engine, &run.schedule.graph, ladder);
                    for ((&bw, &copied), &seconds) in ladder.iter().zip(bound_ms).zip(&curve) {
                        assert_eq!(
                            copied.to_bits(),
                            (seconds * 1e3).to_bits(),
                            "{context} @ {bw} GB/s: sweep bound {copied} ms vs bound curve {} ms",
                            seconds * 1e3
                        );
                    }
                };
                // The bound curve sits under the runtime curve at every
                // ladder point.
                let base = sweep(&BANDWIDTH_LADDER);
                check_bound_curve(&BANDWIDTH_LADDER, &base.bound_ms);
                for (bound_ms, point) in base.bound_ms.iter().zip(&base.series.points) {
                    assert!(
                        *bound_ms <= point.runtime_ms,
                        "{context} @ {} GB/s: bound {bound_ms} > runtime {}",
                        point.bandwidth_gbps,
                        point.runtime_ms
                    );
                }
                // The sweep's knee is the analysis's effective knee, and
                // above a true crossover the bound is exactly flat at the
                // compute floor.
                let analysis = Session::new().bounds_job(&job).expect("preset analyzes");
                assert_eq!(
                    base.knee_gbps,
                    analysis.knee.effective_knee_gbps(),
                    "{context}"
                );
                if let RooflineKnee::Crossover { bandwidth_gbps } = analysis.knee {
                    let above = sweep(&[bandwidth_gbps * 1.5, bandwidth_gbps * 64.0]);
                    assert_eq!(
                        above.bound_ms[0].to_bits(),
                        above.bound_ms[1].to_bits(),
                        "{context}: bound not flat above its crossover knee"
                    );
                }
            }
        }
    }
}

#[test]
fn bound_sits_under_the_runtime_at_multichannel_breakpoints() {
    // A 2-channel streamed timeline contests the data path, so its grant
    // order moves with bandwidth (the one-channel sweep's does not); every
    // point of the ladder runs the engine.
    let ladder: Vec<f64> = (0..64)
        .map(|i| 8.0 * 128.0_f64.powf(f64::from(i) / 63.0))
        .collect();
    let session = Session::new();
    let workload = Workload::rotation_batch(HksBenchmark::ARK, 4);
    let rpu = RpuConfig::ciflow_streaming().with_memory_channels(2);
    for dataflow in Dataflow::all() {
        let job =
            Job::workload(workload.clone(), dataflow, PipelineMode::Fused).with_rpu(rpu.clone());
        let (output, runtimes) = session.run_ladder(&job, &ladder).expect("preset analyzes");
        let engine = RpuEngine::new(rpu.clone()).with_channel_map(output.schedule.channel_map(2));
        let bounds = rpu::bound::bound_curve(&engine, &output.schedule.graph, &ladder);
        for ((&bw, &bound), stats) in ladder.iter().zip(&bounds).zip(&runtimes) {
            let runtime = stats.runtime_seconds;
            assert!(
                bound <= runtime,
                "{dataflow} at {bw} GB/s: bound {bound} s > runtime {runtime} s"
            );
        }
    }
}
