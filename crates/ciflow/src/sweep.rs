//! Parameter sweeps: the drivers behind Figures 4–9 and Tables IV–V.
//!
//! Every sweep is built on the [`Session`] batch API:
//! the sampled points become jobs, the batch fans out across all cores, and
//! failures surface as typed [`CiflowError`]s instead of panics. The
//! historical panicking entry points (`bandwidth_sweep`, `runtime_with`, …)
//! remain as thin wrappers over the `try_*` functions — the built-in
//! strategies never fail, so the wrappers only panic on a genuine simulator
//! bug. Sweeps also accept *custom* strategies: pass an inline
//! [`StrategySpec`], or resolve a registered name through your own session
//! with [`try_bandwidth_sweep_in`].

use crate::api::{Job, Session, StrategySpec};
use crate::benchmark::HksBenchmark;
use crate::dataflow::Dataflow;
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

/// Runs a runtime-vs-bandwidth sweep (one Figure 4/5/6 curve) for a built-in
/// or [inline](StrategySpec::Inline) strategy, executing all points as one
/// parallel batch. Names are resolved against the *built-in* registry — to
/// sweep a strategy registered in your own session, use
/// [`try_bandwidth_sweep_in`].
///
/// # Errors
///
/// Returns the first failing point's [`CiflowError`] (unknown strategy,
/// schedule failure, engine rejection).
pub fn try_bandwidth_sweep(
    benchmark: HksBenchmark,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
    modops: f64,
) -> Result<SweepSeries, CiflowError> {
    try_bandwidth_sweep_in(
        &Session::new(),
        benchmark,
        strategy,
        bandwidths,
        evk_policy,
        modops,
    )
}

/// [`try_bandwidth_sweep`] resolving strategy names through `session`'s
/// registry, so custom strategies registered with
/// [`Session::register`](crate::api::Session::register) can be swept by name.
/// Only the registry is taken from `session`; each point runs on the paper's
/// RPU for `evk_policy` at its own bandwidth.
///
/// # Errors
///
/// Returns the first failing point's [`CiflowError`].
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
/// Strategy names resolve against the built-in registry — use
/// [`try_workload_sweep_in`] for custom registries.
///
/// # Errors
///
/// Returns the first failing point's [`CiflowError`].
pub fn try_workload_sweep(
    workload: &Workload,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
    modops: f64,
    mode: PipelineMode,
) -> Result<SweepSeries, CiflowError> {
    try_workload_sweep_in(
        &Session::new(),
        workload,
        strategy,
        bandwidths,
        evk_policy,
        modops,
        mode,
    )
}

/// [`try_workload_sweep`] resolving strategy names through `session`'s
/// registry. Only the registry is taken from `session`; each point runs on
/// the paper's RPU for `evk_policy` at its own bandwidth.
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

/// Validates the bandwidths of a sweep ladder: every entry must be finite
/// and strictly positive (a zero or negative bandwidth has no physical
/// meaning and would divide durations by zero).
fn validate_bandwidths(bandwidths: &[f64], context: &str) -> Result<(), CiflowError> {
    for &bw in bandwidths {
        if !bw.is_finite() || bw <= 0.0 {
            return Err(CiflowError::InvalidConfig {
                message: format!("{context}: bandwidth {bw} GB/s must be finite and positive"),
            });
        }
    }
    Ok(())
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
    validate_bandwidths(bandwidths, context)?;
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
    /// [`try_workload_sweep`] over the same ladder.
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
/// loop per point. Results are bit-identical to [`try_workload_sweep`].
/// Strategy names resolve against the built-in registry — use
/// [`try_analytic_sweep_in`] for custom registries.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for an empty ladder or a
/// non-finite/non-positive bandwidth (see [`try_analytic_sweep_in`] for the
/// full ladder semantics), and otherwise propagates the same errors as
/// [`try_workload_sweep`].
pub fn try_analytic_sweep(
    workload: &Workload,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
    modops: f64,
    mode: PipelineMode,
) -> Result<AnalyticSweep, CiflowError> {
    try_analytic_sweep_in(
        &Session::new(),
        workload,
        strategy,
        bandwidths,
        evk_policy,
        modops,
        mode,
    )
}

/// [`try_analytic_sweep`] resolving strategy names through `session`'s
/// registry and reusing its schedule **and timeline** caches: repeating a
/// sweep (or sweeping a different ladder inside the same bandwidth range)
/// re-uses the cached [`ParametricTimeline`](rpu::ParametricTimeline)
/// outright.
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

/// The closed-form counterpart of [`try_heterogeneous_sweep`]: both pipeline
/// modes of a heterogeneous workload are executed symbolically once, and the
/// whole ladder is evaluated from the two timelines — bit-identical to the
/// engine path. Strategy names resolve against the built-in registry — use
/// [`try_heterogeneous_analytic_sweep_in`] for custom registries.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for a degenerate ladder (see
/// [`try_analytic_sweep_in`]) or a workload with no kernel invocations, or
/// the first failing point's error.
pub fn try_heterogeneous_analytic_sweep(
    workload: &Workload,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
) -> Result<HeterogeneousSweep, CiflowError> {
    try_heterogeneous_analytic_sweep_in(&Session::new(), workload, strategy, bandwidths, evk_policy)
}

/// [`try_heterogeneous_analytic_sweep`] resolving strategy names through
/// `session`'s registry and reusing its schedule and timeline caches.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for a degenerate ladder, or the
/// first failing point's error.
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
/// back-to-back, as one parallel batch. Strategy names resolve against the
/// built-in registry — use [`try_heterogeneous_sweep_in`] for custom
/// registries.
///
/// # Errors
///
/// Returns the first failing point's [`CiflowError`] — including
/// [`CiflowError::InvalidConfig`] for a workload with no kernel
/// invocations.
pub fn try_heterogeneous_sweep(
    workload: &Workload,
    strategy: impl Into<StrategySpec>,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
) -> Result<HeterogeneousSweep, CiflowError> {
    try_heterogeneous_sweep_in(&Session::new(), workload, strategy, bandwidths, evk_policy)
}

/// [`try_heterogeneous_sweep`] resolving strategy names through `session`'s
/// registry. Only the registry is taken from `session`; each point runs on
/// the paper's RPU for `evk_policy` at its own bandwidth.
///
/// # Errors
///
/// Returns the first failing point's [`CiflowError`].
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
    validate_bandwidths(&[bandwidth_gbps], "channel sweep")?;
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

/// Runs a runtime-vs-bandwidth sweep for a built-in dataflow.
///
/// # Panics
///
/// Panics if a schedule cannot be executed (a simulator bug).
pub fn bandwidth_sweep(
    benchmark: HksBenchmark,
    dataflow: Dataflow,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
    modops: f64,
) -> SweepSeries {
    try_bandwidth_sweep(benchmark, dataflow, bandwidths, evk_policy, modops)
        .expect("built-in dataflow sweeps are infallible")
}

/// Runtime of one configuration with an explicit MODOPS multiplier.
///
/// # Errors
///
/// Returns a [`CiflowError`] if the strategy is unknown or the schedule
/// cannot be built or executed.
pub fn try_runtime_with(
    benchmark: HksBenchmark,
    strategy: impl Into<StrategySpec>,
    bandwidth_gbps: f64,
    evk_policy: EvkPolicy,
    modops: f64,
) -> Result<f64, CiflowError> {
    let output = Session::new()
        .with_rpu(sweep_rpu(evk_policy, bandwidth_gbps, modops))
        .run_one(benchmark, strategy)?;
    Ok(output.runtime_ms())
}

/// Runtime of one configuration with an explicit MODOPS multiplier.
///
/// # Panics
///
/// Panics if the generated schedule cannot be executed (a simulator bug).
pub fn runtime_with(
    benchmark: HksBenchmark,
    dataflow: Dataflow,
    bandwidth_gbps: f64,
    evk_policy: EvkPolicy,
    modops: f64,
) -> f64 {
    try_runtime_with(benchmark, dataflow, bandwidth_gbps, evk_policy, modops)
        .expect("built-in dataflow runs are infallible")
}

/// The paper's baseline runtime for a benchmark: MP with evks on-chip at
/// 64 GB/s.
pub fn baseline_runtime_ms(benchmark: HksBenchmark) -> f64 {
    runtime_with(
        benchmark,
        Dataflow::MaxParallel,
        BASELINE_BANDWIDTH_GBPS,
        EvkPolicy::OnChip,
        1.0,
    )
}

/// Finds the minimum bandwidth (by bisection, within `[lo, hi]` GB/s) at
/// which the configuration achieves `target_ms` or better. Returns `hi` if
/// even the upper bound cannot reach the target.
///
/// # Errors
///
/// Propagates the first probe failure.
pub fn try_min_bandwidth_for_runtime(
    benchmark: HksBenchmark,
    strategy: impl Into<StrategySpec>,
    evk_policy: EvkPolicy,
    modops: f64,
    target_ms: f64,
    lo: f64,
    hi: f64,
) -> Result<f64, CiflowError> {
    let spec: StrategySpec = strategy.into();
    let probe = |bw: f64| try_runtime_with(benchmark, spec.clone(), bw, evk_policy, modops);
    let mut lo = lo;
    let mut hi = hi;
    if probe(hi)? > target_ms {
        return Ok(hi);
    }
    if probe(lo)? <= target_ms {
        return Ok(lo);
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if probe(mid)? <= target_ms {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 0.05 {
            break;
        }
    }
    Ok(hi)
}

/// Bisection for the minimum bandwidth reaching `target_ms` (built-in
/// dataflows; panics on simulator bugs). See
/// [`try_min_bandwidth_for_runtime`].
#[allow(clippy::too_many_arguments)]
pub fn min_bandwidth_for_runtime(
    benchmark: HksBenchmark,
    dataflow: Dataflow,
    evk_policy: EvkPolicy,
    modops: f64,
    target_ms: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    try_min_bandwidth_for_runtime(benchmark, dataflow, evk_policy, modops, target_ms, lo, hi)
        .expect("built-in dataflow bisections are infallible")
}

/// One row of the Table IV analogue.
#[derive(Debug, Clone, Serialize)]
pub struct OcBaseRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Bandwidth at which OC matches the baseline (GB/s).
    pub ocbase_gbps: f64,
    /// Bandwidth saving relative to the 64 GB/s baseline.
    pub saved_bandwidth: f64,
    /// OC runtime at the OCbase bandwidth (ms).
    pub oc_ms: f64,
    /// MP runtime at the OCbase bandwidth (ms).
    pub mp_ms: f64,
    /// OC speedup over MP at the OCbase bandwidth.
    pub oc_speedup: f64,
}

/// Computes the Table IV analogue for one benchmark: the bandwidth at which
/// OC (evks on-chip) matches the MP baseline at 64 GB/s, the bandwidth
/// saving, and the OC-vs-MP speedup at that point.
pub fn ocbase_row(benchmark: HksBenchmark) -> OcBaseRow {
    let baseline = baseline_runtime_ms(benchmark);
    // The paper picks OCbase from the discrete ladder; do the same so the
    // "saved bandwidth" factors are comparable.
    let mut ocbase = BASELINE_BANDWIDTH_GBPS;
    for &bw in &BANDWIDTH_LADDER {
        if bw > BASELINE_BANDWIDTH_GBPS {
            break;
        }
        if runtime_with(
            benchmark,
            Dataflow::OutputCentric,
            bw,
            EvkPolicy::OnChip,
            1.0,
        ) <= baseline
        {
            ocbase = bw;
            break;
        }
    }
    let oc_ms = runtime_with(
        benchmark,
        Dataflow::OutputCentric,
        ocbase,
        EvkPolicy::OnChip,
        1.0,
    );
    let mp_ms = runtime_with(
        benchmark,
        Dataflow::MaxParallel,
        ocbase,
        EvkPolicy::OnChip,
        1.0,
    );
    OcBaseRow {
        benchmark: benchmark.name,
        ocbase_gbps: ocbase,
        saved_bandwidth: BASELINE_BANDWIDTH_GBPS / ocbase,
        oc_ms,
        mp_ms,
        oc_speedup: mp_ms / oc_ms,
    }
}

/// The full Table IV analogue (rows computed in parallel).
pub fn table4_rows() -> Vec<OcBaseRow> {
    crate::parallel::map(HksBenchmark::all().to_vec(), ocbase_row)
}

/// One bar group of the Figure 7 analogue: the bandwidth OC needs when
/// streaming evks to match its own evk-on-chip performance at `ocbase_gbps`.
#[derive(Debug, Clone, Serialize)]
pub struct StreamingEquivalenceRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// OCbase bandwidth with evks on-chip (GB/s).
    pub ocbase_gbps: f64,
    /// Runtime at that point with evks on-chip (ms).
    pub on_chip_ms: f64,
    /// Bandwidth needed to match that runtime while streaming evks (GB/s).
    pub equivalent_streaming_gbps: f64,
    /// Extra bandwidth factor paid for streaming.
    pub extra_bandwidth: f64,
    /// SRAM saving obtained by streaming (392 MB → 32 MB = 12.25×).
    pub sram_saving: f64,
}

/// Computes the Figure 7 analogue for one benchmark.
pub fn streaming_equivalence_row(benchmark: HksBenchmark) -> StreamingEquivalenceRow {
    let ocbase = ocbase_row(benchmark).ocbase_gbps;
    let on_chip_ms = runtime_with(
        benchmark,
        Dataflow::OutputCentric,
        ocbase,
        EvkPolicy::OnChip,
        1.0,
    );
    let equivalent = min_bandwidth_for_runtime(
        benchmark,
        Dataflow::OutputCentric,
        EvkPolicy::Streamed,
        1.0,
        on_chip_ms,
        ocbase,
        1024.0,
    );
    let on_chip = RpuConfig::ciflow_baseline();
    let streaming = RpuConfig::ciflow_streaming();
    StreamingEquivalenceRow {
        benchmark: benchmark.name,
        ocbase_gbps: ocbase,
        on_chip_ms,
        equivalent_streaming_gbps: equivalent,
        extra_bandwidth: equivalent / ocbase,
        sram_saving: (on_chip.vector_memory_bytes + on_chip.key_memory_bytes) as f64
            / (streaming.vector_memory_bytes + streaming.key_memory_bytes) as f64,
    }
}

/// One row of the Table V analogue: the bandwidth each dataflow needs at 2×
/// MODOPS to match ARK's saturation-point performance.
#[derive(Debug, Clone, Serialize)]
pub struct SaturationRow {
    /// Dataflow short name (or "Sat. Point" for the reference).
    pub label: &'static str,
    /// Required bandwidth (GB/s).
    pub bandwidth_gbps: f64,
    /// MODOPS multiplier.
    pub modops: f64,
    /// Bandwidth relative to the saturation point's 128 GB/s.
    pub relative_bandwidth: f64,
}

/// ARK's saturation point: the bandwidth beyond which OC (evks on-chip, 1×
/// MODOPS) no longer improves — the paper identifies 128 GB/s.
pub fn ark_saturation_point() -> (f64, f64) {
    let bw = 128.0;
    let runtime = runtime_with(
        HksBenchmark::ARK,
        Dataflow::OutputCentric,
        bw,
        EvkPolicy::OnChip,
        1.0,
    );
    (bw, runtime)
}

/// The Table V analogue: required bandwidth for OC/DC/MP at 2× MODOPS to
/// match ARK's saturation-point runtime.
pub fn table5_rows() -> Vec<SaturationRow> {
    let (sat_bw, sat_runtime) = ark_saturation_point();
    let mut rows = vec![SaturationRow {
        label: "Sat. Point",
        bandwidth_gbps: sat_bw,
        modops: 1.0,
        relative_bandwidth: 1.0,
    }];
    let dataflow_rows = crate::parallel::map(
        vec![
            ("OC", Dataflow::OutputCentric),
            ("DC", Dataflow::DigitCentric),
            ("MP", Dataflow::MaxParallel),
        ],
        |(label, dataflow)| {
            let bw = min_bandwidth_for_runtime(
                HksBenchmark::ARK,
                dataflow,
                EvkPolicy::OnChip,
                2.0,
                sat_runtime,
                4.0,
                1024.0,
            );
            SaturationRow {
                label,
                bandwidth_gbps: bw,
                modops: 2.0,
                relative_bandwidth: bw / sat_bw,
            }
        },
    );
    rows.extend(dataflow_rows);
    rows
}

/// A MODOPS sweep series (one Figure 8 curve): runtime vs bandwidth at a
/// fixed MODOPS multiplier for ARK under OC with evks on-chip.
pub fn modops_sweep(benchmark: HksBenchmark, modops: f64, bandwidths: &[f64]) -> SweepSeries {
    bandwidth_sweep(
        benchmark,
        Dataflow::OutputCentric,
        bandwidths,
        EvkPolicy::OnChip,
        modops,
    )
}

/// One point of the Figure 9 analogue: a `(bandwidth, MODOPS)` pair that
/// matches a target runtime with evks streamed.
#[derive(Debug, Clone, Serialize)]
pub struct EquivalentConfig {
    /// MODOPS multiplier.
    pub modops: f64,
    /// Bandwidth needed at that multiplier (GB/s).
    pub bandwidth_gbps: f64,
}

/// Finds, for each MODOPS multiplier, the bandwidth needed to match a target
/// runtime while streaming evks (the Figure 9 analysis). Multipliers are
/// searched in parallel.
pub fn equivalent_configs(
    benchmark: HksBenchmark,
    target_ms: f64,
    modops_ladder: &[f64],
) -> Vec<EquivalentConfig> {
    crate::parallel::map(modops_ladder.to_vec(), |m| EquivalentConfig {
        modops: m,
        bandwidth_gbps: min_bandwidth_for_runtime(
            benchmark,
            Dataflow::OutputCentric,
            EvkPolicy::Streamed,
            m,
            target_ms,
            2.0,
            1024.0,
        ),
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
/// RPU configuration) is taken from `base`. Strategy names resolve against
/// the built-in registry — use [`try_serve_sweep_in`] for custom registries.
///
/// Every point re-seeds its arrival process from `base.seed`, so the sweep
/// is bit-reproducible and two calls with equal inputs compare equal.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for an empty size or bandwidth
/// ladder, or the first failing point's error (invalid configuration,
/// unknown strategy, schedule failure).
pub fn try_serve_sweep(
    base: &ServeConfig,
    strategy: impl Into<StrategySpec>,
    cluster_sizes: &[usize],
    bandwidths: &[f64],
) -> Result<ServeSweep, CiflowError> {
    try_serve_sweep_in(&Session::new(), base, strategy, cluster_sizes, bandwidths)
}

/// [`try_serve_sweep`] resolving strategy names through `session`'s registry
/// and reusing its schedule cache — the request-class schedules are built
/// once and shared by every point of the sweep (bandwidth is not part of
/// the schedule cache key).
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
    if bandwidths.is_empty() {
        return Err(CiflowError::InvalidConfig {
            message: "serving sweep has an empty bandwidth ladder".to_string(),
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
/// policies still on). Strategy names resolve against the built-in
/// registry — use [`try_fault_sweep_in`] for custom registries.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for an empty intensity or size
/// ladder, a non-finite/negative intensity, or the first failing point's
/// error (e.g. a scripted crash or degradation window targeting a device
/// a smaller cluster does not have).
pub fn try_fault_sweep(
    base: &ServeConfig,
    base_plan: &FaultPlan,
    strategy: impl Into<StrategySpec>,
    intensities: &[f64],
    cluster_sizes: &[usize],
) -> Result<FaultSweep, CiflowError> {
    try_fault_sweep_in(
        &Session::new(),
        base,
        base_plan,
        strategy,
        intensities,
        cluster_sizes,
    )
}

/// [`try_fault_sweep`] resolving strategy names through `session`'s
/// registry and reusing its schedule cache. Baseline service times are
/// measured once per class through the engine (exactly as
/// [`try_fault_serve_in`](crate::serve::try_fault_serve_in) measures them)
/// and degraded rows once per class through the parametric timelines; the
/// whole grid replays those tables.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for an empty or invalid ladder,
/// or the first failing point's error.
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

/// One point of an on-chip-memory ablation: DRAM traffic and runtime as a
/// function of the data-memory capacity.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MemorySweepPoint {
    /// Data-memory capacity in MiB.
    pub data_memory_mib: u64,
    /// Total DRAM traffic in MiB.
    pub dram_mib: f64,
    /// Runtime in milliseconds at the configured bandwidth.
    pub runtime_ms: f64,
    /// Bytes spilled because intermediates did not fit.
    pub spill_mib: f64,
}

/// Ablation study (not a paper figure, but implied by §IV/§V-D): sweep the
/// on-chip data-memory capacity and report how much DRAM traffic and runtime
/// each dataflow pays at each size. This exposes the capacity at which each
/// dataflow stops spilling — the quantity behind the paper's 675 MB (MP) /
/// 255 MB (DC) / 32 MB (OC) discussion. Capacities run as one parallel batch.
pub fn memory_sweep(
    benchmark: HksBenchmark,
    dataflow: Dataflow,
    capacities_mib: &[u64],
    bandwidth_gbps: f64,
) -> Vec<MemorySweepPoint> {
    let session = Session::new().jobs(capacities_mib.iter().map(|&mib| {
        Job::new(benchmark, dataflow).with_rpu(
            RpuConfig::ciflow_streaming()
                .with_bandwidth(bandwidth_gbps)
                .with_vector_memory(mib * rpu::MIB),
        )
    }));
    let outputs = session
        .run()
        .into_outputs()
        .expect("built-in dataflow sweeps are infallible");
    capacities_mib
        .iter()
        .zip(outputs)
        .map(|(&mib, output)| MemorySweepPoint {
            data_memory_mib: mib,
            dram_mib: output.schedule.dram_bytes() as f64 / rpu::MIB as f64,
            runtime_ms: output.runtime_ms(),
            spill_mib: output.schedule.spill_bytes as f64 / rpu::MIB as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_series_is_monotone() {
        let series = bandwidth_sweep(
            HksBenchmark::DPRIVE,
            Dataflow::OutputCentric,
            &[8.0, 16.0, 32.0, 64.0],
            EvkPolicy::OnChip,
            1.0,
        );
        assert_eq!(series.points.len(), 4);
        for w in series.points.windows(2) {
            assert!(w[1].runtime_ms <= w[0].runtime_ms * 1.0001);
        }
    }

    #[test]
    fn runtime_decreases_with_bandwidth() {
        let mut last = f64::INFINITY;
        for bw in [8.0, 16.0, 32.0, 64.0, 128.0] {
            let t = runtime_with(
                HksBenchmark::DPRIVE,
                Dataflow::MaxParallel,
                bw,
                EvkPolicy::OnChip,
                1.0,
            );
            assert!(
                t <= last * 1.0001,
                "runtime must not increase with bandwidth"
            );
            last = t;
        }
    }

    #[test]
    fn oc_beats_mp_at_low_bandwidth() {
        // The qualitative core of Figure 4: at DDR4-class bandwidth OC is
        // substantially faster than MP.
        for benchmark in [HksBenchmark::ARK, HksBenchmark::DPRIVE] {
            let mp = runtime_with(
                benchmark,
                Dataflow::MaxParallel,
                8.0,
                EvkPolicy::OnChip,
                1.0,
            );
            let oc = runtime_with(
                benchmark,
                Dataflow::OutputCentric,
                8.0,
                EvkPolicy::OnChip,
                1.0,
            );
            assert!(
                oc * 1.5 < mp,
                "{}: OC {oc:.2} ms vs MP {mp:.2} ms at 8 GB/s",
                benchmark.name
            );
        }
    }

    #[test]
    fn dataflows_converge_at_very_high_bandwidth() {
        // With 1 TB/s the kernel is compute bound and the dataflow no longer
        // matters much (paper §IV: "with unlimited on-chip memory / high
        // bandwidth the performance gap decreases significantly").
        let runtime =
            |dataflow| runtime_with(HksBenchmark::ARK, dataflow, 1000.0, EvkPolicy::OnChip, 1.0);
        let mp = runtime(Dataflow::MaxParallel);
        let oc = runtime(Dataflow::OutputCentric);
        let ratio = mp / oc;
        assert!(
            (0.8..=1.3).contains(&ratio),
            "MP {mp:.3} ms vs OC {oc:.3} ms at 1 TB/s (ratio {ratio:.2})"
        );
    }

    #[test]
    fn workload_sweep_is_monotone_and_fused_dominates() {
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 4);
        let bandwidths = [8.0, 16.0, 32.0];
        let fused = try_workload_sweep(
            &workload,
            Dataflow::OutputCentric,
            &bandwidths,
            EvkPolicy::OnChip,
            1.0,
            PipelineMode::Fused,
        )
        .unwrap();
        let unfused = try_workload_sweep(
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
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 4);
        // Unsorted with a duplicate: evaluated pointwise, in order.
        let ladder = [64.0, 8.0, 16.0, 8.0, 128.0];
        for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
            let engine = try_workload_sweep(
                &workload,
                Dataflow::OutputCentric,
                &ladder,
                EvkPolicy::Streamed,
                1.0,
                mode,
            )
            .unwrap();
            let analytic = try_analytic_sweep(
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
        let chain = Workload::rescaling_chain(HksBenchmark::ARK, 3);
        let ladder = [8.0, 16.0, 64.0];
        let engine =
            try_heterogeneous_sweep(&chain, Dataflow::OutputCentric, &ladder, EvkPolicy::OnChip)
                .unwrap();
        let analytic = try_heterogeneous_analytic_sweep(
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
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 2);
        let run = |ladder: &[f64]| {
            try_analytic_sweep(
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
        let engine = try_workload_sweep(
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
        let chain = Workload::rescaling_chain(HksBenchmark::ARK, 3);
        let sweep = try_heterogeneous_sweep(
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
            try_heterogeneous_sweep(&empty, Dataflow::OutputCentric, &[8.0], EvkPolicy::OnChip),
            Err(crate::error::CiflowError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn workload_sweep_reports_unknown_strategies() {
        let result = try_workload_sweep(
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
        let result = try_bandwidth_sweep(
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

    #[test]
    fn ocbase_saves_bandwidth_for_every_benchmark() {
        // Table IV: OC matches the MP 64 GB/s baseline at 2x-8x less
        // bandwidth. Require at least a 2x saving everywhere and a larger
        // saving for ARK than for BTS1/BTS3 (the paper's extremes).
        let rows = table4_rows();
        for row in &rows {
            assert!(
                row.saved_bandwidth >= 2.0,
                "{}: saved bandwidth {:.2}",
                row.benchmark,
                row.saved_bandwidth
            );
            assert!(row.oc_speedup >= 1.0, "{}", row.benchmark);
        }
        let ark = rows.iter().find(|r| r.benchmark == "ARK").unwrap();
        let bts3 = rows.iter().find(|r| r.benchmark == "BTS3").unwrap();
        assert!(ark.saved_bandwidth >= bts3.saved_bandwidth);
        // Headline claim: the best speedup is substantial (paper: 4.16x).
        let best = rows.iter().map(|r| r.oc_speedup).fold(0.0, f64::max);
        assert!(best > 2.0, "best OC speedup {best:.2}");
    }

    #[test]
    fn streaming_needs_modest_extra_bandwidth() {
        // Figure 7: streaming evks costs roughly 1.3x-3x extra bandwidth while
        // saving 12.25x SRAM.
        let row = streaming_equivalence_row(HksBenchmark::ARK);
        assert!((row.sram_saving - 12.25).abs() < 1e-9);
        assert!(row.extra_bandwidth >= 1.0);
        assert!(
            row.extra_bandwidth <= 6.0,
            "extra bandwidth {:.2}",
            row.extra_bandwidth
        );
    }

    #[test]
    fn doubling_modops_reduces_required_bandwidth() {
        // Figure 9 intuition: with more compute, the same performance needs
        // less bandwidth only once compute-bound; conversely at a fixed
        // bandwidth the runtime improves (or stays equal) with more MODOPS.
        let slow = runtime_with(
            HksBenchmark::ARK,
            Dataflow::OutputCentric,
            256.0,
            EvkPolicy::OnChip,
            1.0,
        );
        let fast = runtime_with(
            HksBenchmark::ARK,
            Dataflow::OutputCentric,
            256.0,
            EvkPolicy::OnChip,
            2.0,
        );
        assert!(fast < slow);
        let (_, sat_runtime) = ark_saturation_point();
        let configs = equivalent_configs(HksBenchmark::ARK, sat_runtime * 1.02, &[1.0, 2.0]);
        assert!(configs[1].bandwidth_gbps <= configs[0].bandwidth_gbps);
    }

    #[test]
    fn memory_sweep_traffic_is_monotone_in_capacity() {
        // More on-chip memory can only remove spills, never add them.
        let points = memory_sweep(
            HksBenchmark::ARK,
            Dataflow::MaxParallel,
            &[8, 16, 32, 64, 256],
            64.0,
        );
        for w in points.windows(2) {
            assert!(w[1].dram_mib <= w[0].dram_mib + 1e-9);
            assert!(w[1].spill_mib <= w[0].spill_mib + 1e-9);
        }
        // OC needs far less capacity than MP to reach the spill-free floor.
        let oc = memory_sweep(HksBenchmark::ARK, Dataflow::OutputCentric, &[32], 64.0);
        let mp = memory_sweep(HksBenchmark::ARK, Dataflow::MaxParallel, &[32], 64.0);
        assert!(oc[0].spill_mib < mp[0].spill_mib);
    }

    #[test]
    fn table5_mp_needs_more_bandwidth_than_oc() {
        let rows = table5_rows();
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .unwrap()
                .bandwidth_gbps
        };
        assert!(get("OC") <= get("DC"));
        assert!(get("DC") <= get("MP"));
    }
}
