//! Parameter sweeps: the ladders behind Figures 4–9 and Tables IV–V.
//!
//! A runtime-vs-bandwidth curve is one [`Session::run_ladder`] call: build
//! the [`Job`] with the [`RpuConfig`] it runs on (evk policy, MODOPS,
//! channels) and pass the ladder; [`SweepSeries::from_ladder`] reads the
//! series off the result. Every ladder is evaluated on one parametric
//! timeline over its range, bit-identical to an engine run per point (see `docs/ANALYTIC.md`), and shares its rules:
//!
//! * A ladder may be unsorted and hold duplicates; points come back in the
//!   order given, and equal bandwidths give bit-identical rows.
//! * An empty ladder fails with [`CiflowError::InvalidConfig`]
//!   `"bandwidth ladder is empty"`, and an entry that is not finite and
//!   positive with `"DRAM bandwidth {v} GB/s is not finite and positive"`.
//! * A strategy that panics fails the run with
//!   [`CiflowError::StrategyPanicked`] instead of unwinding into the caller
//!   — the [`Session`]'s one panic rule, which every sweep inherits from the
//!   session entry points it runs on.
//!
//! The serving and fault sweeps here take the [`Session`] they run in (pass
//! `&Session::new()` for the built-in strategies) and reuse its registry and
//! caches. The paper-figure quantities built on these ladders (Tables IV–V,
//! Figures 7–9) live in the `ciflow-bench` crate's `figures` module.

use crate::api::{AnalyticOutput, Job, Session, StrategySpec};
use crate::error::CiflowError;
use crate::serve::{
    resilience_with_service_times, DispatchPolicy, FaultPlan, ServeConfig, ServiceTable,
};
use crate::workload::{PipelineMode, Workload};
use rpu::{EvkPolicy, ExecutionStats, RpuConfig, RpuEngine};
use serde::Serialize;

/// The off-chip bandwidths (GB/s) swept in Figure 4, spanning DDR4 through
/// HBM3 as in the paper.
pub const BANDWIDTH_LADDER: [f64; 10] = [
    8.0, 12.8, 16.0, 25.6, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
];

/// The MODOPS multipliers swept in Figure 8.
pub const MODOPS_LADDER: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// The memory-channel counts swept by the multi-channel ablation. `1`
/// reproduces the classic single-queue memory model; real HBM parts expose
/// 8–32 pseudo-channels.
pub const CHANNEL_LADDER: [usize; 4] = [1, 2, 4, 8];

/// The reference bandwidth of the paper's baseline (MP, evks on-chip).
pub const BASELINE_BANDWIDTH_GBPS: f64 = 64.0;

/// One point of a runtime-vs-bandwidth series.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepPoint {
    /// Off-chip bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// HKS runtime in milliseconds.
    pub runtime_ms: f64,
}

/// A runtime-vs-bandwidth series for one benchmark and strategy.
#[derive(Debug, Clone, Serialize)]
pub struct SweepSeries {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Strategy short name.
    pub dataflow: String,
    /// Whether evks were streamed from DRAM.
    pub evk_streamed: bool,
    /// MODOPS multiplier used.
    pub modops: f64,
    /// The sampled points, in the bandwidth order given.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// The series of one [`Session::run_ladder`] run over `bandwidths`:
    /// `stats` is the run's per-point statistics, and the benchmark,
    /// strategy, evk policy and MODOPS multiplier are read off its `output`.
    #[must_use]
    pub fn from_ladder(
        output: &AnalyticOutput,
        bandwidths: &[f64],
        stats: &[ExecutionStats],
    ) -> Self {
        SweepSeries {
            benchmark: output.benchmark.name,
            dataflow: output.strategy.clone(),
            evk_streamed: output.rpu.evk_policy == EvkPolicy::Streamed,
            modops: output.rpu.modops_multiplier,
            points: bandwidths
                .iter()
                .zip(stats)
                .map(|(&bandwidth_gbps, stats)| SweepPoint {
                    bandwidth_gbps,
                    runtime_ms: stats.runtime_ms(),
                })
                .collect(),
        }
    }
}

/// A workload pipeline's bandwidth sweep annotated with the static bound
/// under its runtime curve: the result of [`try_analytic_sweep_in`], kept
/// with it only for the `simbench` harness until the next change to the
/// benchmark moves `simbench` to [`Session::run_ladder`].
#[derive(Debug, Clone, Serialize)]
pub struct AnalyticSweep {
    /// The evaluated series: one runtime point per ladder entry, in ladder
    /// order.
    pub series: SweepSeries,
    /// The provable makespan lower bound (ms) at each ladder point, in
    /// ladder order — the static roofline under the `runtime_ms` curve
    /// ([`rpu::bound::bound_curve`], `docs/BOUNDS.md`). The sweep RPU has
    /// one memory channel, where the bound is tight: it equals the runtime
    /// bit for bit at every bandwidth, so this is a copy of the series'
    /// `runtime_ms` (and bound/runtime is exactly 1.0).
    pub bound_ms: Vec<f64>,
    /// The effective static roofline knee (GB/s) of the bound, when it has
    /// one ([`rpu::RooflineKnee::effective_knee_gbps`] of
    /// [`rpu::bound::knee_plan`] on the timeline's plan): above this
    /// bandwidth the bound is pinned to the compute floor — exactly flat at
    /// a true crossover, or tracking the floor plus a vanishing serialized
    /// residue for always-bandwidth-sensitive schedules. `None` for
    /// degenerate (no-compute or no-traffic) schedules. Always at or below
    /// the bandwidth where the *engine's* runtime flattens.
    pub knee_gbps: Option<f64>,
}

/// Runs a runtime-vs-bandwidth sweep of a multi-kernel [`Workload`] pipeline
/// (fused or back-to-back) on the paper's RPU for `evk_policy` and `modops`:
/// one [`Session::run_ladder`] call, read into a [`SweepSeries`], plus the
/// static bound at every ladder point and the bound's roofline knee.
/// Repeating a sweep (or sweeping another ladder inside the same bandwidth
/// range) on one session reuses its cached timeline outright.
///
/// Kept only for the `simbench` harness, which calls it; the next change to
/// the benchmark moves `simbench` to [`Session::run_ladder`] and deletes
/// this function and [`AnalyticSweep`].
///
/// # Errors
///
/// As [`Session::run_ladder`]: [`CiflowError::InvalidConfig`] for an empty
/// or degenerate ladder or MODOPS multiplier,
/// [`CiflowError::StrategyPanicked`] for a panicking strategy, or the run's
/// error (unknown strategy, schedule failure, engine rejection).
#[allow(clippy::too_many_arguments)]
pub fn try_analytic_sweep_in(
    session: &Session,
    workload: &Workload,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
    modops: f64,
    mode: PipelineMode,
) -> Result<AnalyticSweep, CiflowError> {
    let rpu = RpuConfig::ciflow_with_policy(evk_policy).with_modops(modops);
    let job = Job::workload(workload.clone(), strategy, mode).with_rpu(rpu);
    let (output, stats) = session.run_ladder(&job, bandwidths)?;
    let series = SweepSeries::from_ladder(&output, bandwidths, &stats);
    // The static bound under the runtime curve. The sweep RPU has one
    // memory channel, where every bus grant is forced and the queue-order
    // bound replays the engine's own arithmetic, so the bound *is* the
    // runtime bit for bit (`docs/BOUNDS.md`) and is copied, not recomputed.
    // The bandwidth-independent knee comes from the timeline's own plan.
    let bound_ms = series.points.iter().map(|p| p.runtime_ms).collect();
    let engine = RpuEngine::new(output.rpu.clone());
    let knee_gbps = rpu::bound::knee_plan(&engine, &output.schedule.graph, output.timeline.plan())
        .effective_knee_gbps();
    Ok(AnalyticSweep {
        series,
        bound_ms,
        knee_gbps,
    })
}

/// One point of a serving sweep: one cluster size at one per-device
/// bandwidth, summarized. The full [`ServeReport`](crate::serve::ServeReport)
/// (per-request records, per-device usage) is deliberately not retained —
/// a sweep touches many points and only needs the headline numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ServeSweepPoint {
    /// Number of devices in the cluster at this point.
    pub num_devices: usize,
    /// Per-device DRAM bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Completed requests per virtual second.
    pub throughput_rps: f64,
    /// Mean device utilization (1.0 = no device ever idle).
    pub mean_utilization: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
    /// Largest queue depth the point observed.
    pub max_queue_depth: usize,
}

/// A serving sweep over cluster sizes × per-device bandwidths for one
/// strategy, one dispatch policy and one seed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeSweep {
    /// Strategy short name.
    pub strategy: String,
    /// Dispatch policy every point used.
    pub policy: DispatchPolicy,
    /// Arrival seed every point used.
    pub seed: u64,
    /// Sampled points: cluster sizes in the order given, each size swept
    /// across the bandwidths in the order given (size-major).
    pub points: Vec<ServeSweepPoint>,
}

/// Sweeps the serving simulator over `cluster_sizes` × `bandwidths`, holding
/// the request mix, arrival process, dispatch policy and seed of `base`
/// fixed. `base.cluster.num_devices` and the per-device bandwidth are
/// overridden at every point; everything else (including the rest of the
/// RPU configuration) is taken from `base`. Strategy names resolve through
/// `session`'s registry, and its schedule cache is reused — the
/// request-class schedules are built once and shared by every point of the
/// sweep (bandwidth is not part of the schedule cache key).
///
/// Every point re-seeds its arrival process from `base.seed`, so the sweep
/// is bit-reproducible and two calls with equal inputs compare equal.
///
/// Service times are measured *symbolically*: each request class runs once
/// as one [`Session::run_ladder`] over `bandwidths`, giving one service-time row per bandwidth that every
/// cluster size replays — bit-identical to measuring each point through the
/// engine, and the measurement cost is per class instead of per class ×
/// point. Each point is the serve report of
/// [`try_serve_in`](crate::serve::try_serve_in) at its size and bandwidth,
/// summarized.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for an empty size ladder, for an
/// empty or degenerate bandwidth ladder (as [`Session::run_ladder`]),
/// [`CiflowError::StrategyPanicked`] for a panicking strategy, or the first
/// failing point's error.
pub fn try_serve_sweep_in(
    session: &Session,
    base: &ServeConfig,
    strategy: impl Into<StrategySpec>,
    cluster_sizes: &[usize],
    bandwidths: &[f64],
) -> Result<ServeSweep, CiflowError> {
    let spec: StrategySpec = strategy.into();
    if cluster_sizes.is_empty() {
        return Err(CiflowError::InvalidConfig {
            message: "serving sweep has an empty cluster-size ladder".to_string(),
        });
    }
    // Surface structural configuration errors before measuring anything,
    // exactly as the per-point path would at its first grid point.
    let mut probe = base.clone();
    probe.cluster.num_devices = cluster_sizes[0];
    probe.validate()?;

    // One ladder per class; `tables[i]` holds every class's service time at
    // `bandwidths[i]`, and every cluster size replays it.
    let measured = crate::parallel::map(base.classes.clone(), |class| {
        let job = class.job(spec.clone()).with_rpu(base.cluster.rpu.clone());
        session.run_ladder(&job, bandwidths)
    });
    let mut strategy_name = spec.display_name();
    let mut rows = Vec::with_capacity(measured.len());
    for ladder in measured {
        let (output, stats) = ladder?;
        strategy_name = output.strategy;
        rows.push(stats);
    }
    let tables: Vec<ServiceTable> = (0..bandwidths.len())
        .map(|i| ServiceTable {
            strategy: strategy_name.clone(),
            base: rows.iter().map(|row| row[i].runtime_seconds).collect(),
            degraded: Vec::new(),
        })
        .collect();

    let grid: Vec<(usize, usize)> = cluster_sizes
        .iter()
        .flat_map(|&n| (0..bandwidths.len()).map(move |i| (n, i)))
        .collect();
    let plan = FaultPlan::none();
    let points = crate::parallel::map(grid, |(num_devices, i)| {
        let mut config = base.clone();
        config.cluster.num_devices = num_devices;
        config.cluster.rpu = base.cluster.rpu.clone().with_bandwidth(bandwidths[i]);
        config.validate()?;
        let report = resilience_with_service_times(&config, &plan, &tables[i]).serve;
        Ok(ServeSweepPoint {
            num_devices: report.num_devices,
            bandwidth_gbps: report.bandwidth_gbps,
            throughput_rps: report.throughput_rps,
            mean_utilization: report.mean_utilization(),
            p50_ms: report.latency.p50_ms,
            p95_ms: report.latency.p95_ms,
            p99_ms: report.latency.p99_ms,
            max_queue_depth: report.queue.max_depth,
        })
    });
    Ok(ServeSweep {
        strategy: strategy_name,
        policy: base.policy,
        seed: base.seed,
        points: points.into_iter().collect::<Result<_, CiflowError>>()?,
    })
}

/// One point of a fault sweep: one cluster size at one fault intensity,
/// summarized. Like [`ServeSweepPoint`], the full
/// [`ResilienceReport`](crate::serve::ResilienceReport) is not retained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultSweepPoint {
    /// Fault-intensity multiplier this point ran under (see
    /// [`FaultPlan::scaled`]).
    pub intensity: f64,
    /// Number of devices in the cluster at this point.
    pub num_devices: usize,
    /// Arrivals offered to the cluster.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests that timed out (deadline or retry budget).
    pub timed_out: usize,
    /// Arrivals shed by admission control.
    pub shed: usize,
    /// Completions served as the downgraded fallback class.
    pub degraded: usize,
    /// Dispatch attempts beyond each request's first.
    pub retries: usize,
    /// Useful completions per virtual second.
    pub goodput_rps: f64,
    /// All completions per virtual second.
    pub throughput_rps: f64,
    /// Mean device availability over the makespan.
    pub mean_availability: f64,
    /// Device-seconds of discarded work.
    pub wasted_seconds: f64,
    /// 99th-percentile latency over completed requests, in milliseconds.
    pub p99_ms: f64,
}

/// A fault sweep over fault intensities × cluster sizes for one strategy,
/// one base [`FaultPlan`], one dispatch policy and one seed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultSweep {
    /// Strategy short name.
    pub strategy: String,
    /// Dispatch policy every point used.
    pub policy: DispatchPolicy,
    /// Arrival seed every point used.
    pub seed: u64,
    /// Sampled points: cluster sizes in the order given, each size swept
    /// across the intensities in the order given (size-major).
    pub points: Vec<FaultSweepPoint>,
}

/// Sweeps the faulted serving simulator over `intensities` ×
/// `cluster_sizes`, holding the request mix, arrival process, dispatch
/// policy, seed, per-device bandwidth, and the *shape* of `base_plan`
/// fixed. Each point runs `base_plan.scaled(intensity)` (see
/// [`FaultPlan::scaled`]: random crash rates and the transient-failure
/// rate scale; intensity `0` is the fault-free bound with the handling
/// policies still on). Strategy names resolve through `session`'s
/// registry, and its schedule cache is reused. The service times are
/// measured once, exactly as
/// [`try_fault_serve_in`](crate::serve::try_fault_serve_in) measures them
/// under `base_plan` — one engine run per class, plus one timeline ladder
/// per class when the plan has degradation windows — and the whole grid
/// replays that table, so each point equals `try_fault_serve_in` under
/// `base_plan.scaled(intensity)`.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for an empty intensity or size
/// ladder, a non-finite/negative intensity, or the first failing point's
/// error (e.g. a scripted crash or degradation window targeting a device
/// a smaller cluster does not have); [`CiflowError::StrategyPanicked`] for
/// a panicking strategy.
pub fn try_fault_sweep_in(
    session: &Session,
    base: &ServeConfig,
    base_plan: &FaultPlan,
    strategy: impl Into<StrategySpec>,
    intensities: &[f64],
    cluster_sizes: &[usize],
) -> Result<FaultSweep, CiflowError> {
    let spec: StrategySpec = strategy.into();
    if intensities.is_empty() {
        return Err(CiflowError::InvalidConfig {
            message: "fault sweep has an empty intensity ladder".to_string(),
        });
    }
    for &intensity in intensities {
        if !intensity.is_finite() || intensity < 0.0 {
            return Err(CiflowError::InvalidConfig {
                message: format!("fault intensity {intensity} is not finite and non-negative"),
            });
        }
    }
    if cluster_sizes.is_empty() {
        return Err(CiflowError::InvalidConfig {
            message: "fault sweep has an empty cluster-size ladder".to_string(),
        });
    }
    // Surface structural problems before measuring anything, exactly as the
    // per-point path would at its first grid point.
    let mut probe = base.clone();
    probe.cluster.num_devices = cluster_sizes[0];
    probe.validate()?;
    base_plan.validate(&probe)?;

    let services = ServiceTable::measure(session, base, base_plan, &spec)?;

    let grid: Vec<(usize, f64)> = cluster_sizes
        .iter()
        .flat_map(|&n| intensities.iter().map(move |&i| (n, i)))
        .collect();
    let points = crate::parallel::map(grid, |(num_devices, intensity)| {
        let mut config = base.clone();
        config.cluster.num_devices = num_devices;
        config.validate()?;
        let plan = base_plan.scaled(intensity);
        plan.validate(&config)?;
        let report = resilience_with_service_times(&config, &plan, &services);
        Ok(FaultSweepPoint {
            intensity,
            num_devices: report.serve.num_devices,
            offered: report.offered,
            completed: report.serve.completed,
            timed_out: report.timed_out,
            shed: report.shed,
            degraded: report.degraded,
            retries: report.retries,
            goodput_rps: report.goodput_rps,
            throughput_rps: report.serve.throughput_rps,
            mean_availability: report.mean_availability(),
            wasted_seconds: report.wasted_seconds,
            p99_ms: report.serve.latency.p99_ms,
        })
    });
    Ok(FaultSweep {
        strategy: services.strategy,
        policy: base.policy,
        seed: base.seed,
        points: points.into_iter().collect::<Result<_, CiflowError>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::JobOutput;
    use crate::benchmark::HksBenchmark;
    use crate::dataflow::Dataflow;
    use crate::serve::{ArrivalProcess, RequestClass};

    /// The paper's RPU for `evk_policy` at `bandwidth_gbps`.
    fn paper_rpu(evk_policy: EvkPolicy, bandwidth_gbps: f64) -> RpuConfig {
        RpuConfig::ciflow_with_policy(evk_policy).with_bandwidth(bandwidth_gbps)
    }

    /// The engine reference of a ladder: one [`Session::run_job`] per point,
    /// on the paper's RPU.
    fn engine_ladder(
        session: &Session,
        job: &Job,
        ladder: &[f64],
        evk_policy: EvkPolicy,
    ) -> Vec<JobOutput> {
        ladder
            .iter()
            .map(|&bw| {
                let job = job.clone().with_rpu(paper_rpu(evk_policy, bw));
                session.run_job(&job).unwrap()
            })
            .collect()
    }

    /// One [`Session::run_ladder`] of `workload` in `mode` on the paper's
    /// RPU for `evk_policy`.
    fn workload_ladder(
        session: &Session,
        workload: &Workload,
        strategy: impl Into<StrategySpec>,
        ladder: &[f64],
        evk_policy: EvkPolicy,
        mode: PipelineMode,
    ) -> Result<(AnalyticOutput, Vec<ExecutionStats>), CiflowError> {
        let job = Job::workload(workload.clone(), strategy, mode)
            .with_rpu(RpuConfig::ciflow_with_policy(evk_policy));
        session.run_ladder(&job, ladder)
    }

    #[test]
    fn workload_sweep_is_monotone_and_fused_dominates() {
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 4);
        let bandwidths = [8.0, 16.0, 32.0];
        let fused = try_analytic_sweep_in(
            &Session::new(),
            &workload,
            Dataflow::OutputCentric,
            &bandwidths,
            EvkPolicy::OnChip,
            1.0,
            PipelineMode::Fused,
        )
        .map(|s| s.series)
        .unwrap();
        let unfused = try_analytic_sweep_in(
            &Session::new(),
            &workload,
            Dataflow::OutputCentric,
            &bandwidths,
            EvkPolicy::OnChip,
            1.0,
            PipelineMode::BackToBack,
        )
        .map(|s| s.series)
        .unwrap();
        assert_eq!(fused.points.len(), 3);
        for w in fused.points.windows(2) {
            assert!(w[1].runtime_ms <= w[0].runtime_ms * 1.0001);
        }
        for (f, u) in fused.points.iter().zip(&unfused.points) {
            assert!(f.runtime_ms <= u.runtime_ms, "at {} GB/s", f.bandwidth_gbps);
        }
    }

    #[test]
    fn analytic_sweep_is_bit_identical_to_the_engine_path() {
        let session = Session::new();
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 4);
        // Unsorted with a duplicate: evaluated pointwise, in order.
        let ladder = [64.0, 8.0, 16.0, 8.0, 128.0];
        let runs = Dataflow::all()
            .into_iter()
            .flat_map(|d| [PipelineMode::Fused, PipelineMode::BackToBack].map(|mode| (d, mode)));
        for (dataflow, mode) in runs {
            let job = Job::workload(workload.clone(), dataflow, mode);
            let engine = engine_ladder(&session, &job, &ladder, EvkPolicy::Streamed);
            let analytic = try_analytic_sweep_in(
                &session,
                &workload,
                dataflow,
                &ladder,
                EvkPolicy::Streamed,
                1.0,
                mode,
            )
            .unwrap();
            assert_eq!(analytic.series.dataflow, engine[0].strategy);
            assert!(analytic.series.evk_streamed);
            assert_eq!(analytic.series.modops, 1.0);
            assert_eq!(analytic.series.points.len(), engine.len());
            for ((a, e), &bw) in analytic.series.points.iter().zip(&engine).zip(&ladder) {
                assert_eq!(a.bandwidth_gbps, bw);
                assert_eq!(
                    a.runtime_ms.to_bits(),
                    e.runtime_ms().to_bits(),
                    "at {} GB/s ({dataflow} {mode:?})",
                    a.bandwidth_gbps
                );
            }
            // The duplicate ladder entries produced bit-identical rows.
            assert_eq!(
                analytic.series.points[1].runtime_ms.to_bits(),
                analytic.series.points[3].runtime_ms.to_bits()
            );
            // The static bound curve sits under the runtime curve at every
            // ladder point (soundness), one bound per point.
            assert_eq!(analytic.bound_ms.len(), analytic.series.points.len());
            for (bound, point) in analytic.bound_ms.iter().zip(&analytic.series.points) {
                assert!(
                    *bound <= point.runtime_ms,
                    "bound {bound} ms > runtime {} ms at {} GB/s ({dataflow} {mode:?})",
                    point.runtime_ms,
                    point.bandwidth_gbps
                );
                assert!(*bound > 0.0);
            }
        }
    }

    #[test]
    fn heterogeneous_analytic_sweep_matches_the_engine_path() {
        let session = Session::new();
        let chain = Workload::rescaling_chain(HksBenchmark::ARK, 3);
        let ladder = [8.0, 16.0, 64.0];
        let on_chip = EvkPolicy::OnChip;
        for dataflow in Dataflow::all() {
            let [b2b, fused] = [PipelineMode::BackToBack, PipelineMode::Fused].map(|mode| {
                let job = Job::workload(chain.clone(), dataflow, mode);
                engine_ladder(&session, &job, &ladder, on_chip)
            });
            let [(b2b_run, b2b_stats), (fused_run, fused_stats)] =
                [PipelineMode::BackToBack, PipelineMode::Fused].map(|mode| {
                    workload_ladder(&session, &chain, dataflow, &ladder, on_chip, mode).unwrap()
                });
            assert_eq!(b2b_run.strategy, b2b[0].strategy);
            assert_eq!(b2b_run.kernel_benchmarks, b2b[0].kernel_benchmarks);
            assert_eq!(b2b_stats.len(), ladder.len());
            assert_eq!(fused_stats.len(), ladder.len());
            for i in 0..ladder.len() {
                let (b, f) = (&b2b[i].stats, &fused[i].stats);
                let (b_ladder, f_ladder) = (&b2b_stats[i], &fused_stats[i]);
                assert_eq!(f_ladder.runtime_ms().to_bits(), f.runtime_ms().to_bits());
                assert_eq!(b_ladder.runtime_ms().to_bits(), b.runtime_ms().to_bits());
                assert_eq!(
                    f_ladder.compute_idle_fraction().to_bits(),
                    f.compute_idle_fraction().to_bits()
                );
                assert_eq!(
                    b_ladder.compute_idle_fraction().to_bits(),
                    b.compute_idle_fraction().to_bits()
                );
                assert_eq!(fused_run.forwarded_bytes, fused[i].forwarded_bytes);
            }
        }
    }

    #[test]
    fn analytic_sweep_rejects_degenerate_ladders() {
        let session = Session::new();
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 2);
        let run = |ladder: &[f64]| {
            try_analytic_sweep_in(
                &session,
                &workload,
                Dataflow::OutputCentric,
                ladder,
                EvkPolicy::OnChip,
                1.0,
                PipelineMode::Fused,
            )
        };
        // Empty, zero, negative and non-finite ladders are all rejected.
        for bad in [
            &[] as &[f64],
            &[0.0],
            &[64.0, 0.0],
            &[-8.0],
            &[f64::NAN],
            &[f64::INFINITY],
        ] {
            assert!(
                matches!(run(bad), Err(CiflowError::InvalidConfig { .. })),
                "ladder {bad:?} must be rejected"
            );
        }
        // A single-point ladder is legal and matches the engine.
        let single = run(&[25.6]).unwrap();
        assert_eq!(single.series.points.len(), 1);
        let job = Job::workload(workload, Dataflow::OutputCentric, PipelineMode::Fused);
        let engine = engine_ladder(&session, &job, &[25.6], EvkPolicy::OnChip);
        assert_eq!(
            single.series.points[0].runtime_ms.to_bits(),
            engine[0].runtime_ms().to_bits()
        );
    }

    #[test]
    fn every_ladder_sweep_rejects_a_degenerate_bandwidth_with_one_message() {
        let session = Session::new();
        let oc = Dataflow::OutputCentric;
        let (on_chip, fused) = (EvkPolicy::OnChip, PipelineMode::Fused);
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 2);
        let job = Job::new(HksBenchmark::ARK, oc).with_rpu(RpuConfig::ciflow_baseline());
        let serve = ServeConfig::new(
            2,
            RequestClass::standard_mix(HksBenchmark::ARK),
            ArrivalProcess::ClosedLoop {
                concurrency: 2,
                requests: 8,
            },
        );
        for bad in [f64::NAN, 0.0, -5.0, f64::INFINITY] {
            // A valid point ahead of the bad one: every entry is checked.
            let ladder = [64.0, bad];
            // A channel-count point is one engine job at the bad bandwidth.
            let channels = Job::workload(workload.clone(), oc, fused)
                .with_rpu(paper_rpu(on_chip, bad).with_memory_channels(4));
            let results = [
                ("run_ladder", session.run_ladder(&job, &ladder).map(drop)),
                (
                    "analytic",
                    try_analytic_sweep_in(&session, &workload, oc, &ladder, on_chip, 1.0, fused)
                        .map(drop),
                ),
                (
                    "serve",
                    try_serve_sweep_in(&session, &serve, oc, &[2], &ladder).map(drop),
                ),
                ("channel", session.run_job(&channels).map(drop)),
            ];
            let expected = format!("DRAM bandwidth {bad} GB/s is not finite and positive");
            for (sweep, result) in results {
                match result {
                    Err(CiflowError::InvalidConfig { message }) => {
                        assert_eq!(message, expected, "{sweep} sweep");
                    }
                    other => panic!("{sweep} sweep must reject {bad} GB/s, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_ladder_sweep_rejects_an_empty_ladder() {
        let session = Session::new();
        let oc = Dataflow::OutputCentric;
        let (on_chip, fused) = (EvkPolicy::OnChip, PipelineMode::Fused);
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 2);
        let job = Job::new(HksBenchmark::ARK, oc).with_rpu(RpuConfig::ciflow_baseline());
        let serve = ServeConfig::new(
            2,
            RequestClass::standard_mix(HksBenchmark::ARK),
            ArrivalProcess::ClosedLoop {
                concurrency: 2,
                requests: 8,
            },
        );
        let results = [
            ("run_ladder", session.run_ladder(&job, &[]).map(drop)),
            (
                "analytic bandwidth sweep",
                try_analytic_sweep_in(&session, &workload, oc, &[], on_chip, 1.0, fused).map(drop),
            ),
            (
                "serving sweep",
                try_serve_sweep_in(&session, &serve, oc, &[2], &[]).map(drop),
            ),
        ];
        for (context, result) in results {
            match result {
                Err(CiflowError::InvalidConfig { message }) => {
                    assert_eq!(message, "bandwidth ladder is empty", "{context}");
                }
                other => panic!("{context} must reject an empty ladder, got {other:?}"),
            }
        }
    }

    #[test]
    fn heterogeneous_sweep_reports_the_ladder_and_forwarding() {
        let session = Session::new();
        let chain = Workload::rescaling_chain(HksBenchmark::ARK, 3);
        let ladder = [8.0, 16.0];
        let oc = Dataflow::OutputCentric;
        let on_chip = EvkPolicy::OnChip;
        let [(b2b_run, b2b), (fused_run, fused)] = [PipelineMode::BackToBack, PipelineMode::Fused]
            .map(|mode| workload_ladder(&session, &chain, oc, &ladder, on_chip, mode).unwrap());
        let towers: Vec<usize> = b2b_run
            .kernel_benchmarks
            .iter()
            .map(|b| b.q_towers)
            .collect();
        assert_eq!(towers, vec![24, 23, 22]);
        assert_eq!(b2b_run.strategy, "OC");
        assert_eq!(fused.len(), 2);
        for (f, b) in fused.iter().zip(&b2b) {
            assert!(f.runtime_ms() <= b.runtime_ms() * 1.0001);
        }
        assert!(fused_run.forwarded_bytes > 0, "ARK chains fit on-chip");
        // An empty workload surfaces the typed error instead of a panic.
        let empty = Workload::new("empty", HksBenchmark::ARK);
        assert!(matches!(
            workload_ladder(&session, &empty, oc, &[8.0], on_chip, PipelineMode::Fused),
            Err(CiflowError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn workload_sweep_reports_unknown_strategies() {
        let result = try_analytic_sweep_in(
            &Session::new(),
            &Workload::rotation_batch(HksBenchmark::ARK, 2),
            "not-a-strategy",
            &[8.0],
            EvkPolicy::OnChip,
            1.0,
            PipelineMode::Fused,
        )
        .map(|s| s.series);
        assert!(matches!(
            result,
            Err(crate::error::CiflowError::UnknownStrategy { .. })
        ));
    }

    #[test]
    fn try_sweep_reports_unknown_strategies() {
        let job = Job::new(HksBenchmark::ARK, "not-a-strategy")
            .with_rpu(RpuConfig::ciflow_with_policy(EvkPolicy::OnChip));
        assert!(matches!(
            Session::new().run_ladder(&job, &[8.0, 16.0]),
            Err(crate::error::CiflowError::UnknownStrategy { .. })
        ));
    }
}
