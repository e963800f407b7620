//! Integration tests of the RPU model driven through full CiFlow schedules:
//! bandwidth/compute scaling laws, decoupled-queue overlap, and trace
//! consistency.

use ciflow::api::{Job, JobOutput, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::hks_shape::HksShape;
use ciflow::schedule::{build_schedule, ScheduleConfig};
use common::{baseline_at, streaming_at};
use rpu::{EvkPolicy, RpuConfig, RpuEngine, TraceMode};

#[path = "common/mod.rs"]
mod common;

/// One traced session run of `benchmark` under `dataflow` on `rpu`.
fn run(benchmark: HksBenchmark, dataflow: Dataflow, rpu: RpuConfig) -> JobOutput {
    Session::new()
        .with_trace(TraceMode::Full)
        .run_job(&Job::new(benchmark, dataflow).with_rpu(rpu))
        .unwrap()
}

#[test]
fn runtime_is_monotone_in_bandwidth_for_all_dataflows() {
    for dataflow in Dataflow::all() {
        let mut last = f64::INFINITY;
        for bw in [8.0, 16.0, 32.0, 64.0, 128.0, 512.0] {
            let runtime = run(HksBenchmark::ARK, dataflow, baseline_at(bw))
                .stats
                .runtime_seconds;
            assert!(
                runtime <= last * 1.0001,
                "{dataflow}: runtime increased from {last} to {runtime} at {bw} GB/s"
            );
            last = runtime;
        }
    }
}

#[test]
fn runtime_never_beats_the_compute_and_memory_bounds() {
    // Runtime must be at least max(total_ops / MODOPS, total_bytes / BW).
    let config = ScheduleConfig {
        data_memory_bytes: 32 * rpu::MIB,
        evk_policy: EvkPolicy::Streamed,
    };
    for bench in [HksBenchmark::ARK, HksBenchmark::BTS3] {
        for dataflow in Dataflow::all() {
            let schedule = build_schedule(dataflow, &HksShape::new(bench), &config);
            for bw in [8.0, 64.0, 1024.0] {
                let rpu = streaming_at(bw);
                let engine = RpuEngine::new(rpu.clone());
                let stats = engine.execute(&schedule.graph).unwrap().stats;
                let compute_bound = schedule.total_ops() as f64 / rpu.modops_per_second();
                let memory_bound = schedule.dram_bytes() as f64 / rpu.dram_bytes_per_second();
                let floor = compute_bound.max(memory_bound);
                assert!(
                    stats.runtime_seconds >= floor * 0.999,
                    "{} {dataflow} at {bw} GB/s: runtime {} below floor {}",
                    bench.name,
                    stats.runtime_seconds,
                    floor
                );
                // And it should not be worse than the fully serialized case.
                assert!(stats.runtime_seconds <= (compute_bound + memory_bound) * 1.001);
            }
        }
    }
}

#[test]
fn compute_idle_fraction_shrinks_with_bandwidth() {
    let at = |bw: f64| {
        run(
            HksBenchmark::DPRIVE,
            Dataflow::OutputCentric,
            baseline_at(bw),
        )
        .stats
        .compute_idle_fraction()
    };
    let idle_low = at(8.0);
    let idle_high = at(256.0);
    assert!(idle_high <= idle_low + 1e-9);
}

#[test]
fn oc_is_less_idle_than_mp_at_low_bandwidth() {
    // Paper §VI-A: at 12.8 GB/s OC leaves the RPU idle ~21% of the time for
    // DPRIVE versus ~73% for MP. Require a clear gap, not exact numbers.
    let idle = |dataflow| {
        run(HksBenchmark::DPRIVE, dataflow, baseline_at(12.8))
            .stats
            .compute_idle_fraction()
    };
    let mp = idle(Dataflow::MaxParallel);
    let oc = idle(Dataflow::OutputCentric);
    assert!(
        oc + 0.15 < mp,
        "expected OC to be much less idle than MP: OC {oc:.2} vs MP {mp:.2}"
    );
}

#[test]
fn modops_scaling_only_helps_when_compute_bound() {
    // At very low bandwidth, doubling MODOPS barely changes the runtime; at
    // high bandwidth it nearly halves it (Figure 8's two regimes).
    let runtime = |bw: f64, modops: f64| {
        run(
            HksBenchmark::ARK,
            Dataflow::OutputCentric,
            baseline_at(bw).with_modops(modops),
        )
        .stats
        .runtime_ms()
    };
    let low_bw_gain = runtime(8.0, 1.0) / runtime(8.0, 2.0);
    let high_bw_gain = runtime(512.0, 1.0) / runtime(512.0, 2.0);
    assert!(
        low_bw_gain < 1.3,
        "low-bandwidth MODOPS gain {low_bw_gain:.2}"
    );
    assert!(
        high_bw_gain > 1.6,
        "high-bandwidth MODOPS gain {high_bw_gain:.2}"
    );
}

#[test]
fn traces_cover_every_stage_and_are_time_consistent() {
    let result = run(
        HksBenchmark::ARK,
        Dataflow::OutputCentric,
        RpuConfig::ciflow_baseline(),
    );
    let records = result.trace.as_ref().expect("traced run").records();
    assert_eq!(
        records.len(),
        result.schedule.graph.len(),
        "every task must appear in the trace"
    );
    for r in records {
        assert!(r.end_seconds >= r.start_seconds);
        assert!(r.end_seconds <= result.stats.runtime_seconds + 1e-12);
    }
    let stages: std::collections::HashSet<&str> =
        records.iter().map(|r| r.stage.as_ref()).collect();
    for expected in [
        "ModUp-P1",
        "ModUp-P2",
        "ModUp-P3",
        "ModUp-P4",
        "ModUp-P5",
        "ModDown-P1",
        "ModDown-P2",
        "ModDown-P3",
        "ModDown-P4",
    ] {
        assert!(stages.contains(expected), "missing stage {expected}");
    }
}
