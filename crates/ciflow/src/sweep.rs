//! Parameter sweeps: the drivers behind Figures 4–9 and Tables IV–V.
//!
//! Every sweep is built on the [`Session`] API and has exactly one entry
//! point, which takes the session it runs in (pass `&Session::new()` for
//! the built-in strategies): the sampled points become jobs, the batch fans
//! out across all cores, and failures surface as typed [`CiflowError`]s
//! instead of panics. Strategy names resolve through the session's
//! registry, so custom strategies sweep by name; an inline
//! [`StrategySpec`] works with any session. The paper-figure quantities
//! built on these sweeps (Tables IV–V, Figures 7–9) live in the
//! `ciflow-bench` crate's `figures` module.

use crate::api::{Job, Session, StrategySpec};
use crate::benchmark::HksBenchmark;
use crate::error::CiflowError;
use crate::serve::{DispatchPolicy, FaultPlan, ServeConfig};
use crate::workload::{PipelineMode, Workload};
use rpu::{EvkPolicy, RpuConfig, RpuEngine};
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
    /// The sampled points, in increasing bandwidth order.
    pub points: Vec<SweepPoint>,
}

/// The RPU configuration of one sweep sample.
fn sweep_rpu(evk_policy: EvkPolicy, bandwidth_gbps: f64, modops: f64) -> RpuConfig {
    RpuConfig::ciflow_with_policy(evk_policy)
        .with_bandwidth(bandwidth_gbps)
        .with_modops(modops)
}

/// Runs a runtime-vs-bandwidth sweep (one Figure 4/5/6 curve) of one
/// benchmark, executing all points as one parallel batch. Strategy names
/// resolve through `session`'s registry, so custom strategies registered
/// with [`Session::register`](crate::api::Session::register) can be swept
/// by name. Only the registry is taken from `session`; each point runs on
/// the paper's RPU for `evk_policy` at its own bandwidth. An empty ladder
/// yields an empty series.
///
/// # Errors
///
/// Returns the first failing point's [`CiflowError`] (unknown strategy,
/// invalid bandwidth, schedule failure, engine rejection).
pub fn try_bandwidth_sweep_in(
    session: &Session,
    benchmark: HksBenchmark,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
    modops: f64,
) -> Result<SweepSeries, CiflowError> {
    sweep_series(
        session,
        benchmark.name,
        &strategy.into(),
        bandwidths,
        evk_policy,
        modops,
        |spec| Job::new(benchmark, spec),
    )
}

/// Shared core of the bandwidth sweeps: runs one job per bandwidth point as a
/// parallel batch (resolving names through `session`'s registry) and
/// assembles the [`SweepSeries`].
fn sweep_series(
    session: &Session,
    benchmark: &'static str,
    spec: &StrategySpec,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
    modops: f64,
    job: impl Fn(StrategySpec) -> Job,
) -> Result<SweepSeries, CiflowError> {
    let sweep_session = Session::new()
        .with_registry(session.registry().clone())
        .jobs(
            bandwidths
                .iter()
                .map(|&bw| job(spec.clone()).with_rpu(sweep_rpu(evk_policy, bw, modops))),
        );
    let outputs = sweep_session.run().into_outputs()?;
    let dataflow = outputs
        .first()
        .map(|o| o.strategy.clone())
        .unwrap_or_else(|| spec.display_name());
    let points = bandwidths
        .iter()
        .zip(&outputs)
        .map(|(&bw, output)| SweepPoint {
            bandwidth_gbps: bw,
            runtime_ms: output.runtime_ms(),
        })
        .collect();
    Ok(SweepSeries {
        benchmark,
        dataflow,
        evk_streamed: evk_policy == EvkPolicy::Streamed,
        modops,
        points,
    })
}

/// Runs a runtime-vs-bandwidth sweep of a multi-kernel [`Workload`] pipeline
/// (fused or back-to-back), executing all points as one parallel batch.
/// Strategy names resolve through `session`'s registry; each point runs on
/// the paper's RPU for `evk_policy` at its own bandwidth. An empty ladder
/// yields an empty series.
///
/// # Errors
///
/// Returns the first failing point's [`CiflowError`].
#[allow(clippy::too_many_arguments)]
pub fn try_workload_sweep_in(
    session: &Session,
    workload: &Workload,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
    modops: f64,
    mode: PipelineMode,
) -> Result<SweepSeries, CiflowError> {
    sweep_series(
        session,
        workload.benchmark.name,
        &strategy.into(),
        bandwidths,
        evk_policy,
        modops,
        |spec| Job::workload(workload.clone(), spec, mode),
    )
}

/// Rejects a bandwidth that is not finite and positive, with the message
/// every sweep and [`RpuConfig::validate`] share.
fn check_bandwidth(bandwidth_gbps: f64) -> Result<(), CiflowError> {
    rpu::config::validate_bandwidth(bandwidth_gbps)
        .map_err(|message| CiflowError::InvalidConfig { message })
}

/// Validates an analytic bandwidth ladder and returns its `(min, max)`.
///
/// Ladder semantics, shared by every analytic entry point and pinned by the
/// degenerate-input regression tests: the ladder may be unsorted and may
/// contain duplicates — points are evaluated pointwise in the order given,
/// and equal bandwidths produce bit-identical rows — but it must be
/// non-empty (a single-point ladder is fine) and every entry must be finite
/// and strictly positive.
fn analytic_range(bandwidths: &[f64], context: &str) -> Result<(f64, f64), CiflowError> {
    for &bw in bandwidths {
        check_bandwidth(bw)?;
    }
    let Some(&first) = bandwidths.first() else {
        return Err(CiflowError::InvalidConfig {
            message: format!("{context}: bandwidth ladder is empty"),
        });
    };
    let lo = bandwidths.iter().copied().fold(first, f64::min);
    let hi = bandwidths.iter().copied().fold(first, f64::max);
    Ok((lo, hi))
}

/// A bandwidth sweep evaluated in closed form: the ladder's points come from
/// one piecewise-linear [`ParametricTimeline`](rpu::ParametricTimeline)
/// instead of one engine run per point, with runtimes bit-identical to the
/// engine path (see `docs/ANALYTIC.md`).
#[derive(Debug, Clone, Serialize)]
pub struct AnalyticSweep {
    /// The evaluated series — same shape and bit-identical runtimes as
    /// [`try_workload_sweep_in`] over the same ladder.
    pub series: SweepSeries,
    /// Number of grant-order segments the timeline stitched together over
    /// the ladder's bandwidth range (one on a single-channel RPU).
    pub segments: usize,
    /// Bandwidths (GB/s) strictly inside the range at which the engine's
    /// bus grant order changes. The runtime curve also kinks inside a
    /// segment, at ready-time crossovers that reorder no grant.
    pub breakpoints_gbps: Vec<f64>,
    /// The provable makespan lower bound (ms) at each ladder point, in
    /// ladder order — the static roofline under the `runtime_ms` curve
    /// ([`rpu::bound::analyze`], `docs/BOUNDS.md`). Soundness guarantees
    /// `bound_ms[i] <= points[i].runtime_ms` at every point.
    pub bound_ms: Vec<f64>,
    /// The effective static roofline knee (GB/s) of the bound, when it has
    /// one ([`rpu::RooflineKnee::effective_knee_gbps`]): above this
    /// bandwidth the bound is pinned to the compute floor — exactly flat at
    /// a true crossover, or tracking the floor plus a vanishing serialized
    /// residue for always-bandwidth-sensitive schedules. `None` for
    /// degenerate (no-compute or no-traffic) schedules. Always at or below
    /// the bandwidth where the *engine's* runtime flattens.
    pub knee_gbps: Option<f64>,
}

/// Runs a runtime-vs-bandwidth sweep of a [`Workload`] pipeline in closed
/// form: one symbolic execution covers the ladder's whole bandwidth range,
/// and each point is an interval lookup plus an affine replay — no event
/// loop per point. Results are bit-identical to [`try_workload_sweep_in`].
/// Strategy names resolve through `session`'s registry, and its schedule
/// **and timeline** caches are reused: repeating a sweep (or sweeping a
/// different ladder inside the same bandwidth range) re-uses the cached
/// [`ParametricTimeline`](rpu::ParametricTimeline) outright.
///
/// Ladder semantics: unsorted ladders and duplicates are allowed and
/// evaluated pointwise in the order given (duplicates produce bit-identical
/// rows); an empty ladder or any non-finite/non-positive entry is rejected
/// with [`CiflowError::InvalidConfig`].
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for a degenerate ladder, or the
/// first failing point's error.
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
    let (lo, hi) = analytic_range(bandwidths, "analytic bandwidth sweep")?;
    let job = Job::workload(workload.clone(), strategy.into(), mode)
        .with_rpu(sweep_rpu(evk_policy, lo, modops));
    let output = session.run_analytic(&job, lo, hi)?;
    let points = bandwidths
        .iter()
        .zip(output.timeline.evaluate_many(bandwidths))
        .map(|(&bw, stats)| SweepPoint {
            bandwidth_gbps: bw,
            runtime_ms: stats.runtime_ms(),
        })
        .collect();
    // The static bound curve under the runtime curve, on the same ladder and
    // the timeline's own execution plan. One full analysis derives the knee
    // (it is bandwidth-independent — a property of the bound's affine
    // pieces); the dense per-point values come from `bound_curve_plan`, so
    // the curve stays cheap next to the closed-form evaluation it annotates.
    let engine = RpuEngine::new(sweep_rpu(evk_policy, lo, modops));
    let graph = &output.schedule.graph;
    let plan = output.timeline.plan();
    let knee_gbps = rpu::bound::analyze_plan(&engine, graph, plan)
        .knee
        .effective_knee_gbps();
    let bound_ms: Vec<f64> = rpu::bound::bound_curve_plan(&engine, graph, plan, bandwidths)
        .iter()
        .map(|&seconds| seconds * 1e3)
        .collect();
    Ok(AnalyticSweep {
        series: SweepSeries {
            benchmark: workload.benchmark.name,
            dataflow: output.strategy.clone(),
            evk_streamed: evk_policy == EvkPolicy::Streamed,
            modops,
            points,
        },
        segments: output.timeline.segments().len(),
        breakpoints_gbps: output.timeline.breakpoints_gbps(),
        bound_ms,
        knee_gbps,
    })
}

/// The closed-form counterpart of [`try_heterogeneous_sweep_in`]: both
/// pipeline modes of a heterogeneous workload are executed symbolically
/// once, and the whole ladder is evaluated from the two timelines —
/// bit-identical to the engine path. Strategy names resolve through
/// `session`'s registry, and its schedule and timeline caches are reused.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for a degenerate ladder (see
/// [`try_analytic_sweep_in`]) or a workload with no kernel invocations, or
/// the first failing point's error.
pub fn try_heterogeneous_analytic_sweep_in(
    session: &Session,
    workload: &Workload,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
) -> Result<HeterogeneousSweep, CiflowError> {
    let (lo, hi) = analytic_range(bandwidths, "heterogeneous analytic sweep")?;
    let spec: StrategySpec = strategy.into();
    let job_for = |mode| {
        Job::workload(workload.clone(), spec.clone(), mode).with_rpu(sweep_rpu(evk_policy, lo, 1.0))
    };
    let b2b = session.run_analytic(&job_for(PipelineMode::BackToBack), lo, hi)?;
    let fused = session.run_analytic(&job_for(PipelineMode::Fused), lo, hi)?;
    let b2b_stats = b2b.timeline.evaluate_many(bandwidths);
    let fused_stats = fused.timeline.evaluate_many(bandwidths);
    let points = bandwidths
        .iter()
        .enumerate()
        .map(|(i, &bw)| HeterogeneousSweepPoint {
            bandwidth_gbps: bw,
            fused_ms: fused_stats[i].runtime_ms(),
            back_to_back_ms: b2b_stats[i].runtime_ms(),
            fused_idle: fused_stats[i].compute_idle_fraction(),
            back_to_back_idle: b2b_stats[i].compute_idle_fraction(),
            forwarded_bytes: fused.forwarded_bytes,
        })
        .collect();
    Ok(HeterogeneousSweep {
        workload: workload.name.clone(),
        dataflow: b2b.strategy.clone(),
        kernel_towers: b2b.kernel_benchmarks.iter().map(|b| b.q_towers).collect(),
        points,
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
/// back-to-back, as one parallel batch. Strategy names resolve through
/// `session`'s registry; each point runs on the paper's RPU for
/// `evk_policy` at its own bandwidth. An empty ladder yields no points.
///
/// # Errors
///
/// Returns the first failing point's [`CiflowError`] — including
/// [`CiflowError::InvalidConfig`] for a workload with no kernel
/// invocations.
pub fn try_heterogeneous_sweep_in(
    session: &Session,
    workload: &Workload,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
) -> Result<HeterogeneousSweep, CiflowError> {
    let spec: StrategySpec = strategy.into();
    let sweep_session = Session::new()
        .with_registry(session.registry().clone())
        .jobs(bandwidths.iter().flat_map(|&bw| {
            [PipelineMode::BackToBack, PipelineMode::Fused].map(|mode| {
                Job::workload(workload.clone(), spec.clone(), mode)
                    .with_rpu(sweep_rpu(evk_policy, bw, 1.0))
            })
        }));
    let outputs = sweep_session.run().into_outputs()?;
    let dataflow = outputs
        .first()
        .map(|o| o.strategy.clone())
        .unwrap_or_else(|| spec.display_name());
    let kernel_towers = outputs
        .first()
        .map(|o| o.kernel_benchmarks.iter().map(|b| b.q_towers).collect())
        .unwrap_or_default();
    let points = bandwidths
        .iter()
        .zip(outputs.chunks_exact(2))
        .map(|(&bw, pair)| HeterogeneousSweepPoint {
            bandwidth_gbps: bw,
            fused_ms: pair[1].runtime_ms(),
            back_to_back_ms: pair[0].runtime_ms(),
            fused_idle: pair[1].stats.compute_idle_fraction(),
            back_to_back_idle: pair[0].stats.compute_idle_fraction(),
            forwarded_bytes: pair[1].forwarded_bytes,
        })
        .collect();
    Ok(HeterogeneousSweep {
        workload: workload.name.clone(),
        dataflow,
        kernel_towers,
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
/// one fixed aggregate bandwidth, as one parallel batch. The aggregate
/// bandwidth never changes — each point only re-partitions it over more
/// in-order pseudo-channels — so any runtime/idle improvement is pure
/// head-of-line-blocking relief from channel-aware data placement.
///
/// Degenerate inputs (pinned by the regression tests): a non-finite or
/// non-positive `bandwidth_gbps` is rejected with
/// [`CiflowError::InvalidConfig`]; an empty `channel_counts` ladder yields
/// an empty result; duplicate or unsorted channel counts are evaluated
/// pointwise in the order given (duplicates produce bit-identical rows);
/// a channel count of `0` is clamped to one channel by
/// [`RpuConfig::with_memory_channels`].
///
/// # Errors
///
/// Returns the first failing point's [`CiflowError`].
pub fn try_channel_sweep(
    workload: &Workload,
    strategy: impl Into<StrategySpec>,
    bandwidth_gbps: f64,
    evk_policy: EvkPolicy,
    channel_counts: &[usize],
    mode: PipelineMode,
) -> Result<Vec<ChannelSweepPoint>, CiflowError> {
    check_bandwidth(bandwidth_gbps)?;
    let spec: StrategySpec = strategy.into();
    let session = Session::new().jobs(channel_counts.iter().map(|&channels| {
        Job::workload(workload.clone(), spec.clone(), mode)
            .with_rpu(sweep_rpu(evk_policy, bandwidth_gbps, 1.0).with_memory_channels(channels))
    }));
    let outputs = session.run().into_outputs()?;
    Ok(channel_counts
        .iter()
        .zip(&outputs)
        .map(|(&channels, output)| ChannelSweepPoint {
            channels,
            runtime_ms: output.runtime_ms(),
            compute_idle: output.stats.compute_idle_fraction(),
            memory_imbalance: output.stats.memory_channel_imbalance(),
        })
        .collect())
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
/// Service times are measured *symbolically*: each request class is executed
/// once as a [`ParametricTimeline`](rpu::ParametricTimeline) covering the
/// whole bandwidth ladder, and every grid point evaluates the timelines in
/// closed form — bit-identical to measuring each point through the engine,
/// but the measurement cost is per class instead of per class × point.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for an empty size or bandwidth
/// ladder or a non-finite/non-positive bandwidth, or the first failing
/// point's error.
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
    let (lo, hi) = analytic_range(bandwidths, "serving sweep")?;
    // Surface structural configuration errors before measuring anything,
    // exactly as the per-point path would at its first grid point.
    let mut probe = base.clone();
    probe.cluster.num_devices = cluster_sizes[0];
    probe.validate()?;

    // One symbolic run per distinct class; each timeline serves every grid
    // point of the sweep.
    let measured = crate::parallel::map(base.classes.clone(), |class| {
        let job = class.job(spec.clone()).with_rpu(base.cluster.rpu.clone());
        session.run_analytic(&job, lo, hi)
    });
    let mut timelines = Vec::with_capacity(measured.len());
    let mut strategy_name = spec.display_name();
    for output in measured {
        let output = output?;
        strategy_name = output.strategy.clone();
        timelines.push(output.timeline);
    }

    let grid: Vec<(usize, f64)> = cluster_sizes
        .iter()
        .flat_map(|&n| bandwidths.iter().map(move |&bw| (n, bw)))
        .collect();
    let reports =
        crate::parallel::map(grid, |(num_devices, bandwidth)| -> Result<_, CiflowError> {
            let mut config = base.clone();
            config.cluster.num_devices = num_devices;
            config.cluster.rpu = base.cluster.rpu.clone().with_bandwidth(bandwidth);
            config.validate()?;
            let service_seconds: Vec<f64> = timelines
                .iter()
                .map(|timeline| timeline.evaluate(bandwidth).runtime_seconds)
                .collect();
            Ok(crate::serve::serve_with_service_times(
                &config,
                strategy_name.clone(),
                &service_seconds,
            ))
        });
    let mut points = Vec::with_capacity(reports.len());
    for report in reports {
        let report = report?;
        strategy_name = report.strategy.clone();
        points.push(ServeSweepPoint {
            num_devices: report.num_devices,
            bandwidth_gbps: report.bandwidth_gbps,
            throughput_rps: report.throughput_rps,
            mean_utilization: report.mean_utilization(),
            p50_ms: report.latency.p50_ms,
            p95_ms: report.latency.p95_ms,
            p99_ms: report.latency.p99_ms,
            max_queue_depth: report.queue.max_depth,
        });
    }
    Ok(ServeSweep {
        strategy: strategy_name,
        policy: base.policy,
        seed: base.seed,
        points,
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
/// registry, and its schedule cache is reused. Baseline service times are
/// measured once per class through the engine (exactly as
/// [`try_fault_serve_in`](crate::serve::try_fault_serve_in) measures them)
/// and degraded rows once per class through the parametric timelines; the
/// whole grid replays those tables.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for an empty intensity or size
/// ladder, a non-finite/negative intensity, or the first failing point's
/// error (e.g. a scripted crash or degradation window targeting a device
/// a smaller cluster does not have).
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

    // One engine run per class for the baseline service times, one
    // timeline per class for the degraded rows; every grid point replays
    // these tables.
    let measured = crate::parallel::map(base.classes.clone(), |class| {
        let job = class.job(spec.clone()).with_rpu(base.cluster.rpu.clone());
        session.run_job(&job)
    });
    let mut base_service = Vec::with_capacity(measured.len());
    let mut strategy_name = spec.display_name();
    for output in measured {
        let output = output?;
        strategy_name = output.strategy.clone();
        base_service.push(output.stats.runtime_seconds);
    }
    let degraded = crate::serve::degraded_service_rows(session, base, base_plan, &spec)?;
    let services = crate::serve::ServiceTable {
        base: base_service,
        degraded,
    };

    let grid: Vec<(usize, f64)> = cluster_sizes
        .iter()
        .flat_map(|&n| intensities.iter().map(move |&i| (n, i)))
        .collect();
    let reports =
        crate::parallel::map(grid, |(num_devices, intensity)| -> Result<_, CiflowError> {
            let mut config = base.clone();
            config.cluster.num_devices = num_devices;
            config.validate()?;
            let plan = base_plan.scaled(intensity);
            plan.validate(&config)?;
            Ok((
                intensity,
                crate::serve::resilience_with_service_times(
                    &config,
                    &plan,
                    strategy_name.clone(),
                    &services,
                ),
            ))
        });
    let mut points = Vec::with_capacity(reports.len());
    for report in reports {
        let (intensity, report) = report?;
        points.push(FaultSweepPoint {
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
        });
    }
    Ok(FaultSweep {
        strategy: strategy_name,
        policy: base.policy,
        seed: base.seed,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Dataflow;
    use crate::serve::{ArrivalProcess, RequestClass};

    #[test]
    fn workload_sweep_is_monotone_and_fused_dominates() {
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 4);
        let bandwidths = [8.0, 16.0, 32.0];
        let fused = try_workload_sweep_in(
            &Session::new(),
            &workload,
            Dataflow::OutputCentric,
            &bandwidths,
            EvkPolicy::OnChip,
            1.0,
            PipelineMode::Fused,
        )
        .unwrap();
        let unfused = try_workload_sweep_in(
            &Session::new(),
            &workload,
            Dataflow::OutputCentric,
            &bandwidths,
            EvkPolicy::OnChip,
            1.0,
            PipelineMode::BackToBack,
        )
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
            let engine = try_workload_sweep_in(
                &session,
                &workload,
                Dataflow::OutputCentric,
                &ladder,
                EvkPolicy::Streamed,
                1.0,
                mode,
            )
            .unwrap();
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
            assert_eq!(analytic.series.dataflow, engine.dataflow);
            assert_eq!(analytic.series.points.len(), engine.points.len());
            for (a, e) in analytic.series.points.iter().zip(&engine.points) {
                assert_eq!(a.bandwidth_gbps, e.bandwidth_gbps);
                assert_eq!(
                    a.runtime_ms.to_bits(),
                    e.runtime_ms.to_bits(),
                    "at {} GB/s ({mode:?})",
                    a.bandwidth_gbps
                );
            }
            // The duplicate ladder entries produced bit-identical rows.
            assert_eq!(
                analytic.series.points[1].runtime_ms.to_bits(),
                analytic.series.points[3].runtime_ms.to_bits()
            );
            assert!(analytic.segments >= 1);
            for &bp in &analytic.breakpoints_gbps {
                assert!(bp > 8.0 && bp < 128.0, "interior breakpoint {bp}");
            }
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
        let engine = try_heterogeneous_sweep_in(
            &session,
            &chain,
            Dataflow::OutputCentric,
            &ladder,
            EvkPolicy::OnChip,
        )
        .unwrap();
        let analytic = try_heterogeneous_analytic_sweep_in(
            &session,
            &chain,
            Dataflow::OutputCentric,
            &ladder,
            EvkPolicy::OnChip,
        )
        .unwrap();
        assert_eq!(analytic.dataflow, engine.dataflow);
        assert_eq!(analytic.kernel_towers, engine.kernel_towers);
        for (a, e) in analytic.points.iter().zip(&engine.points) {
            assert_eq!(a.bandwidth_gbps, e.bandwidth_gbps);
            assert_eq!(a.fused_ms.to_bits(), e.fused_ms.to_bits());
            assert_eq!(a.back_to_back_ms.to_bits(), e.back_to_back_ms.to_bits());
            assert_eq!(a.fused_idle.to_bits(), e.fused_idle.to_bits());
            assert_eq!(a.back_to_back_idle.to_bits(), e.back_to_back_idle.to_bits());
            assert_eq!(a.forwarded_bytes, e.forwarded_bytes);
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
        assert!(single.breakpoints_gbps.is_empty());
        let engine = try_workload_sweep_in(
            &session,
            &workload,
            Dataflow::OutputCentric,
            &[25.6],
            EvkPolicy::OnChip,
            1.0,
            PipelineMode::Fused,
        )
        .unwrap();
        assert_eq!(
            single.series.points[0].runtime_ms.to_bits(),
            engine.points[0].runtime_ms.to_bits()
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
                    "workload",
                    try_workload_sweep_in(&session, &workload, oc, &ladder, on_chip, 1.0, fused)
                        .map(drop),
                ),
                (
                    "analytic",
                    try_analytic_sweep_in(&session, &workload, oc, &ladder, on_chip, 1.0, fused)
                        .map(drop),
                ),
                (
                    "heterogeneous analytic",
                    try_heterogeneous_analytic_sweep_in(&session, &chain, oc, &ladder, on_chip)
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
                    try_channel_sweep(&workload, oc, bad, on_chip, &CHANNEL_LADDER, fused)
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
    fn channel_sweep_rejects_invalid_bandwidths() {
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 2);
        for bad in [0.0, -64.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    try_channel_sweep(
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
        // An empty channel ladder is an empty sweep, not an error.
        let empty = try_channel_sweep(
            &workload,
            Dataflow::OutputCentric,
            64.0,
            EvkPolicy::OnChip,
            &[],
            PipelineMode::Fused,
        )
        .unwrap();
        assert!(empty.is_empty());
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
        let result = try_workload_sweep_in(
            &Session::new(),
            &Workload::rotation_batch(HksBenchmark::ARK, 2),
            "not-a-strategy",
            &[8.0],
            EvkPolicy::OnChip,
            1.0,
            PipelineMode::Fused,
        );
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
