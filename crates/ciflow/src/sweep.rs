//! Parameter sweeps: the drivers behind Figures 4–9 and Tables IV–V.
//!
//! Every sweep has one entry point, which takes the [`Session`] it runs in
//! (pass `&Session::new()` for the built-in strategies) and reuses its
//! registry and caches: custom strategies sweep by name, an inline
//! [`StrategySpec`] works with any session, and a repeated sweep rebuilds
//! nothing. Failures are typed [`CiflowError`]s. The paper-figure
//! quantities built on these sweeps (Tables IV–V, Figures 7–9) live in the
//! `ciflow-bench` crate's `figures` module.
//!
//! The bandwidth, analytic, heterogeneous and serving sweeps evaluate their
//! ladder on one [`Session::run_analytic`] timeline over its range,
//! bit-identical to an engine run per point (see `docs/ANALYTIC.md`), and
//! share its rules:
//!
//! * A ladder may be unsorted and hold duplicates; points come back in the
//!   order given, and equal bandwidths give bit-identical rows.
//! * An empty ladder fails with [`CiflowError::InvalidConfig`]
//!   `"<sweep>: bandwidth ladder is empty"`, and an entry that is not finite
//!   and positive with `"DRAM bandwidth {v} GB/s is not finite and
//!   positive"`.
//! * A strategy that panics fails the sweep (and the channel and fault
//!   sweeps) with [`CiflowError::StrategyPanicked`] instead of unwinding
//!   into the caller — the [`Session`]'s one panic rule, which every sweep
//!   inherits from the session entry points it runs on.

use crate::api::{AnalyticOutput, Job, Session, StrategySpec};
use crate::benchmark::HksBenchmark;
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

/// The RPU configuration of one sweep sample.
fn sweep_rpu(evk_policy: EvkPolicy, bandwidth_gbps: f64, modops: f64) -> RpuConfig {
    RpuConfig::ciflow_with_policy(evk_policy)
        .with_bandwidth(bandwidth_gbps)
        .with_modops(modops)
}

/// Rejects a bandwidth that is not finite and positive, with the message
/// every sweep and [`RpuConfig::validate`] share.
fn check_bandwidth(bandwidth_gbps: f64) -> Result<(), CiflowError> {
    rpu::config::validate_bandwidth(bandwidth_gbps)
        .map_err(|message| CiflowError::InvalidConfig { message })
}

/// The lowest bandwidth of a ladder (the RPU anchor of its timeline);
/// `context` names the sweep in the empty-ladder error. Every entry is
/// checked by [`Session::run_ladder`].
fn ladder_floor(bandwidths: &[f64], context: &str) -> Result<f64, CiflowError> {
    bandwidths
        .iter()
        .copied()
        .reduce(f64::min)
        .ok_or_else(|| CiflowError::InvalidConfig {
            message: format!("{context}: bandwidth ladder is empty"),
        })
}

/// One bandwidth ladder evaluated on one timeline.
struct Ladder {
    /// The runtime-vs-bandwidth series, in ladder order.
    series: SweepSeries,
    /// The analytic run the series was read from.
    output: AnalyticOutput,
    /// The execution statistics at every ladder point, in ladder order.
    stats: Vec<ExecutionStats>,
}

/// The one path every bandwidth-ladder sweep takes: checks the ladder, runs
/// `job` on the paper's RPU for `evk_policy` and `modops` through
/// [`Session::run_ladder`], and reads the series off its points.
fn sweep_ladder(
    session: &Session,
    job: Job,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
    modops: f64,
    context: &str,
) -> Result<Ladder, CiflowError> {
    let lo = ladder_floor(bandwidths, context)?;
    let job = job.with_rpu(sweep_rpu(evk_policy, lo, modops));
    let (output, stats) = session.run_ladder(&job, bandwidths)?;
    let points = bandwidths
        .iter()
        .zip(&stats)
        .map(|(&bw, stats)| SweepPoint {
            bandwidth_gbps: bw,
            runtime_ms: stats.runtime_ms(),
        })
        .collect();
    Ok(Ladder {
        series: SweepSeries {
            benchmark: output.benchmark.name,
            dataflow: output.strategy.clone(),
            evk_streamed: evk_policy == EvkPolicy::Streamed,
            modops,
            points,
        },
        output,
        stats,
    })
}

/// Runs a runtime-vs-bandwidth sweep (one Figure 4/5/6 curve) of one
/// benchmark on the paper's RPU for `evk_policy`, under the module's
/// bandwidth-ladder rules.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for an empty or degenerate ladder
/// or MODOPS multiplier, [`CiflowError::StrategyPanicked`] for a panicking
/// strategy, or the run's error (unknown strategy, schedule failure, engine
/// rejection).
pub fn try_bandwidth_sweep_in(
    session: &Session,
    benchmark: HksBenchmark,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
    modops: f64,
) -> Result<SweepSeries, CiflowError> {
    let job = Job::new(benchmark, strategy);
    let ladder = sweep_ladder(
        session,
        job,
        bandwidths,
        evk_policy,
        modops,
        "bandwidth sweep",
    )?;
    Ok(ladder.series)
}

/// A workload pipeline's bandwidth sweep annotated with the static bound
/// under its runtime curve.
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
/// (fused or back-to-back) on the paper's RPU for `evk_policy`, under the
/// module's bandwidth-ladder rules, and adds the static bound at every
/// ladder point and the bound's roofline knee. Repeating a sweep (or
/// sweeping another ladder inside the same bandwidth range) on one session
/// reuses its cached timeline outright.
///
/// # Errors
///
/// As [`try_bandwidth_sweep_in`].
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
    let job = Job::workload(workload.clone(), strategy, mode);
    let context = "analytic bandwidth sweep";
    let Ladder { series, output, .. } =
        sweep_ladder(session, job, bandwidths, evk_policy, modops, context)?;
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

/// One point of a heterogeneous-pipeline sweep: the same (typically
/// rescaling) chain at one bandwidth, fused vs back-to-back.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct HeterogeneousSweepPoint {
    /// Off-chip bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Fused pipeline runtime in milliseconds.
    pub fused_ms: f64,
    /// Back-to-back baseline runtime in milliseconds.
    pub back_to_back_ms: f64,
    /// Compute-idle fraction of the fused run.
    pub fused_idle: f64,
    /// Compute-idle fraction of the back-to-back run.
    pub back_to_back_idle: f64,
    /// DRAM bytes the fused pipeline eliminated by on-chip forwarding
    /// (always `back_to_back` traffic minus `fused` traffic).
    pub forwarded_bytes: u64,
}

/// A fused-vs-back-to-back sweep of one heterogeneous workload across a
/// bandwidth ladder, plus the per-kernel tower ladder the chain runs at.
#[derive(Debug, Clone, Serialize)]
pub struct HeterogeneousSweep {
    /// The workload's name.
    pub workload: String,
    /// Strategy short name.
    pub dataflow: String,
    /// Live tower count ℓ of each kernel invocation, in execution order —
    /// the descending ladder of a rescaling chain.
    pub kernel_towers: Vec<usize>,
    /// The sampled points, in the bandwidth order given.
    pub points: Vec<HeterogeneousSweepPoint>,
}

/// Runs a heterogeneous [`Workload`] pipeline (per-step parameter points,
/// e.g. [`Workload::rescaling_chain`]) across a bandwidth ladder, fused and
/// back-to-back, on the paper's RPU for `evk_policy`: one timeline per
/// pipeline mode, under the module's bandwidth-ladder rules.
///
/// # Errors
///
/// As [`try_bandwidth_sweep_in`], including [`CiflowError::InvalidConfig`]
/// for a workload with no kernel invocations.
pub fn try_heterogeneous_sweep_in(
    session: &Session,
    workload: &Workload,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
) -> Result<HeterogeneousSweep, CiflowError> {
    let spec: StrategySpec = strategy.into();
    let run = |mode| {
        let job = Job::workload(workload.clone(), spec.clone(), mode);
        sweep_ladder(
            session,
            job,
            bandwidths,
            evk_policy,
            1.0,
            "heterogeneous sweep",
        )
    };
    let b2b = run(PipelineMode::BackToBack)?;
    let fused = run(PipelineMode::Fused)?;
    let points = bandwidths
        .iter()
        .zip(b2b.stats.iter().zip(&fused.stats))
        .map(|(&bw, (b2b_stats, fused_stats))| HeterogeneousSweepPoint {
            bandwidth_gbps: bw,
            fused_ms: fused_stats.runtime_ms(),
            back_to_back_ms: b2b_stats.runtime_ms(),
            fused_idle: fused_stats.compute_idle_fraction(),
            back_to_back_idle: b2b_stats.compute_idle_fraction(),
            forwarded_bytes: fused.output.forwarded_bytes,
        })
        .collect();
    Ok(HeterogeneousSweep {
        workload: workload.name.clone(),
        dataflow: b2b.series.dataflow,
        kernel_towers: b2b
            .output
            .kernel_benchmarks
            .iter()
            .map(|b| b.q_towers)
            .collect(),
        points,
    })
}

/// One point of a memory-channel-count sweep: the same workload pipeline on
/// the same aggregate bandwidth, split over a growing number of in-order
/// pseudo-channels.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ChannelSweepPoint {
    /// Number of memory channels the aggregate bandwidth was split over.
    pub channels: usize,
    /// Pipeline runtime in milliseconds.
    pub runtime_ms: f64,
    /// Compute-idle fraction of the run.
    pub compute_idle: f64,
    /// Channel load imbalance (busiest channel / mean; 1.0 = perfectly
    /// balanced).
    pub memory_imbalance: f64,
}

/// Runs a [`Workload`] pipeline across a ladder of memory-channel counts at
/// one fixed aggregate bandwidth. The aggregate bandwidth never changes —
/// each point only re-partitions it over more in-order pseudo-channels — so
/// any runtime/idle improvement is pure head-of-line-blocking relief from
/// channel-aware data placement.
///
/// Each channel count is one engine job on `session`: strategy names resolve
/// through its registry, the schedule is built once, and every channel
/// count's execution plan stays in the session's cache. A strategy that
/// panics fails the sweep with [`CiflowError::StrategyPanicked`].
///
/// Degenerate inputs (pinned by the regression tests): a non-finite or
/// non-positive `bandwidth_gbps` is rejected with
/// [`CiflowError::InvalidConfig`], and so is an empty `channel_counts`
/// ladder (`"channel sweep: channel ladder is empty"`); duplicate or
/// unsorted channel counts are evaluated pointwise in the order given
/// (duplicates produce bit-identical rows); a channel count of `0` is
/// clamped to one channel by
/// [`RpuConfig::with_memory_channels`].
///
/// # Errors
///
/// Returns the first failing point's [`CiflowError`].
pub fn try_channel_sweep(
    session: &Session,
    workload: &Workload,
    strategy: impl Into<StrategySpec>,
    bandwidth_gbps: f64,
    evk_policy: EvkPolicy,
    channel_counts: &[usize],
    mode: PipelineMode,
) -> Result<Vec<ChannelSweepPoint>, CiflowError> {
    check_bandwidth(bandwidth_gbps)?;
    if channel_counts.is_empty() {
        return Err(CiflowError::InvalidConfig {
            message: "channel sweep: channel ladder is empty".to_string(),
        });
    }
    let spec: StrategySpec = strategy.into();
    channel_counts
        .iter()
        .map(|&channels| {
            let rpu = sweep_rpu(evk_policy, bandwidth_gbps, 1.0).with_memory_channels(channels);
            let job = Job::workload(workload.clone(), spec.clone(), mode).with_rpu(rpu);
            let output = session.run_job(&job)?;
            Ok(ChannelSweepPoint {
                channels,
                runtime_ms: output.runtime_ms(),
                compute_idle: output.stats.compute_idle_fraction(),
                memory_imbalance: output.stats.memory_channel_imbalance(),
            })
        })
        .collect()
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
/// as one [`ParametricTimeline`](rpu::ParametricTimeline) ladder over
/// `bandwidths`, giving one service-time row per bandwidth that every
/// cluster size replays — bit-identical to measuring each point through the
/// engine, and the measurement cost is per class instead of per class ×
/// point. Each point is the serve report of
/// [`try_serve_in`](crate::serve::try_serve_in) at its size and bandwidth,
/// summarized.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for an empty size or bandwidth
/// ladder or a non-finite/non-positive bandwidth,
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
    ladder_floor(bandwidths, "serving sweep")?;
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
    use crate::dataflow::Dataflow;
    use crate::serve::{ArrivalProcess, RequestClass};

    /// The engine reference of a ladder: one [`Session::run_job`] per point,
    /// on the RPU the sweeps use.
    fn engine_ladder(
        session: &Session,
        job: &Job,
        ladder: &[f64],
        evk_policy: EvkPolicy,
    ) -> Vec<JobOutput> {
        ladder
            .iter()
            .map(|&bw| {
                let job = job.clone().with_rpu(sweep_rpu(evk_policy, bw, 1.0));
                session.run_job(&job).unwrap()
            })
            .collect()
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
        for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
            let job = Job::workload(workload.clone(), Dataflow::OutputCentric, mode);
            let engine = engine_ladder(&session, &job, &ladder, EvkPolicy::Streamed);
            let analytic = try_analytic_sweep_in(
                &session,
                &workload,
                Dataflow::OutputCentric,
                &ladder,
                EvkPolicy::Streamed,
                1.0,
                mode,
            )
            .unwrap();
            assert_eq!(analytic.series.dataflow, engine[0].strategy);
            assert_eq!(analytic.series.points.len(), engine.len());
            for ((a, e), &bw) in analytic.series.points.iter().zip(&engine).zip(&ladder) {
                assert_eq!(a.bandwidth_gbps, bw);
                assert_eq!(
                    a.runtime_ms.to_bits(),
                    e.runtime_ms().to_bits(),
                    "at {} GB/s ({mode:?})",
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
                    "bound {bound} ms > runtime {} ms at {} GB/s ({mode:?})",
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
        let [b2b, fused] = [PipelineMode::BackToBack, PipelineMode::Fused].map(|mode| {
            let job = Job::workload(chain.clone(), Dataflow::OutputCentric, mode);
            engine_ladder(&session, &job, &ladder, EvkPolicy::OnChip)
        });
        let analytic = try_heterogeneous_sweep_in(
            &session,
            &chain,
            Dataflow::OutputCentric,
            &ladder,
            EvkPolicy::OnChip,
        )
        .unwrap();
        assert_eq!(analytic.dataflow, b2b[0].strategy);
        let towers: Vec<usize> = b2b[0]
            .kernel_benchmarks
            .iter()
            .map(|b| b.q_towers)
            .collect();
        assert_eq!(analytic.kernel_towers, towers);
        assert_eq!(analytic.points.len(), ladder.len());
        for (i, a) in analytic.points.iter().enumerate() {
            let (b, f) = (&b2b[i].stats, &fused[i].stats);
            assert_eq!(a.bandwidth_gbps, ladder[i]);
            assert_eq!(a.fused_ms.to_bits(), f.runtime_ms().to_bits());
            assert_eq!(a.back_to_back_ms.to_bits(), b.runtime_ms().to_bits());
            assert_eq!(a.fused_idle.to_bits(), f.compute_idle_fraction().to_bits());
            assert_eq!(
                a.back_to_back_idle.to_bits(),
                b.compute_idle_fraction().to_bits()
            );
            assert_eq!(a.forwarded_bytes, fused[i].forwarded_bytes);
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
        let chain = Workload::rescaling_chain(HksBenchmark::ARK, 2);
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
            let results = [
                (
                    "bandwidth",
                    try_bandwidth_sweep_in(&session, HksBenchmark::ARK, oc, &ladder, on_chip, 1.0)
                        .map(drop),
                ),
                (
                    "analytic",
                    try_analytic_sweep_in(&session, &workload, oc, &ladder, on_chip, 1.0, fused)
                        .map(drop),
                ),
                (
                    "heterogeneous",
                    try_heterogeneous_sweep_in(&session, &chain, oc, &ladder, on_chip).map(drop),
                ),
                (
                    "serve",
                    try_serve_sweep_in(&session, &serve, oc, &[2], &ladder).map(drop),
                ),
                (
                    "channel",
                    try_channel_sweep(
                        &session,
                        &workload,
                        oc,
                        bad,
                        on_chip,
                        &CHANNEL_LADDER,
                        fused,
                    )
                    .map(drop),
                ),
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
        let chain = Workload::rescaling_chain(HksBenchmark::ARK, 2);
        let serve = ServeConfig::new(
            2,
            RequestClass::standard_mix(HksBenchmark::ARK),
            ArrivalProcess::ClosedLoop {
                concurrency: 2,
                requests: 8,
            },
        );
        let results = [
            (
                "bandwidth sweep",
                try_bandwidth_sweep_in(&session, HksBenchmark::ARK, oc, &[], on_chip, 1.0)
                    .map(drop),
            ),
            (
                "analytic bandwidth sweep",
                try_analytic_sweep_in(&session, &workload, oc, &[], on_chip, 1.0, fused).map(drop),
            ),
            (
                "heterogeneous sweep",
                try_heterogeneous_sweep_in(&session, &chain, oc, &[], on_chip).map(drop),
            ),
            (
                "serving sweep",
                try_serve_sweep_in(&session, &serve, oc, &[2], &[]).map(drop),
            ),
        ];
        for (context, result) in results {
            match result {
                Err(CiflowError::InvalidConfig { message }) => {
                    assert_eq!(message, format!("{context}: bandwidth ladder is empty"));
                }
                other => panic!("{context} must reject an empty ladder, got {other:?}"),
            }
        }
    }

    #[test]
    fn channel_sweep_rejects_invalid_bandwidths() {
        let session = Session::new();
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 2);
        for bad in [0.0, -64.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    try_channel_sweep(
                        &session,
                        &workload,
                        Dataflow::OutputCentric,
                        bad,
                        EvkPolicy::OnChip,
                        &CHANNEL_LADDER,
                        PipelineMode::Fused,
                    ),
                    Err(CiflowError::InvalidConfig { .. })
                ),
                "bandwidth {bad} must be rejected"
            );
        }
        // An empty channel ladder is rejected like every other empty ladder.
        match try_channel_sweep(
            &session,
            &workload,
            Dataflow::OutputCentric,
            64.0,
            EvkPolicy::OnChip,
            &[],
            PipelineMode::Fused,
        ) {
            Err(CiflowError::InvalidConfig { message }) => {
                assert_eq!(message, "channel sweep: channel ladder is empty");
            }
            other => panic!("an empty channel ladder must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn heterogeneous_sweep_reports_the_ladder_and_forwarding() {
        let session = Session::new();
        let chain = Workload::rescaling_chain(HksBenchmark::ARK, 3);
        let sweep = try_heterogeneous_sweep_in(
            &session,
            &chain,
            Dataflow::OutputCentric,
            &[8.0, 16.0],
            EvkPolicy::OnChip,
        )
        .unwrap();
        assert_eq!(sweep.kernel_towers, vec![24, 23, 22]);
        assert_eq!(sweep.dataflow, "OC");
        assert_eq!(sweep.points.len(), 2);
        for point in &sweep.points {
            assert!(point.fused_ms <= point.back_to_back_ms * 1.0001);
            assert!(point.forwarded_bytes > 0, "ARK chains fit on-chip");
        }
        // An empty workload surfaces the typed error instead of a panic.
        let empty = Workload::new("empty", HksBenchmark::ARK);
        assert!(matches!(
            try_heterogeneous_sweep_in(
                &session,
                &empty,
                Dataflow::OutputCentric,
                &[8.0],
                EvkPolicy::OnChip
            ),
            Err(crate::error::CiflowError::InvalidConfig { .. })
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
        let result = try_bandwidth_sweep_in(
            &Session::new(),
            HksBenchmark::ARK,
            "not-a-strategy",
            &[8.0, 16.0],
            EvkPolicy::OnChip,
            1.0,
        );
        assert!(matches!(
            result,
            Err(crate::error::CiflowError::UnknownStrategy { .. })
        ));
    }
}
