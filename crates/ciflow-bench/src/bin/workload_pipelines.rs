//! Multi-kernel workload pipelines across the Figure-4 bandwidth ladder:
//! per-strategy pipeline runtime, compute-idle fraction, and the
//! prefetch-overlap speedup of fused execution over running the same kernels
//! back-to-back unfused.
//!
//! The workload is an 8-rotation batch (the dominant chained-key-switch
//! pattern in CKKS matrix-vector products and bootstrapping), reported for
//! ARK, DPRIVE and BTS3 with evks on-chip, plus an evk-streaming section for
//! ARK where the fusion layer's cross-kernel prefetch moves the next
//! kernel's key material under the current kernel's compute.
//!
//! A rescaling-chain section then makes the pipeline *heterogeneous*: each
//! kernel of a multiply-relinearize-rescale chain runs at its own descending
//! ℓ (the modulus chain drains one prime per level), and the fusion layer
//! forwards only the towers surviving into each smaller basis — the
//! fused-vs-back-to-back comparison as ℓ decays.
//!
//! The final section sweeps the memory-channel count (1/2/4/8 pseudo-channels
//! sharing the same aggregate bandwidth): channel-aware placement pins evk
//! towers away from limb traffic, so a fused pipeline's cross-kernel evk
//! prefetch bypasses the dependency-blocked writebacks at the head of the
//! single queue, and the fused compute-idle fraction falls monotonically as
//! channels grow.

use ciflow::api::{AnalyticOutput, Job, JobOutput, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::{BANDWIDTH_LADDER, CHANNEL_LADDER};
use ciflow::workload::{PipelineMode, Workload};
use ciflow_bench::report::markdown_table;
use rpu::{EvkPolicy, ExecutionStats, RpuConfig};

const ROTATIONS: usize = 8;

/// Depth of the rescaling chains reported in the heterogeneous section.
const RESCALE_LEVELS: usize = 6;

/// Bandwidths reported in the channel-count sweep: DDR4 through HBM2-class.
const CHANNEL_SWEEP_BANDWIDTHS: [f64; 4] = [12.8, 25.6, 64.0, 128.0];

/// The pipeline modes every table compares, in the order of its columns.
const MODES: [PipelineMode; 2] = [PipelineMode::BackToBack, PipelineMode::Fused];

/// The `[back-to-back, fused]` runs of `workload` under `dataflow` across
/// the Figure-4 ladder: one `Session::run_ladder` per pipeline mode, each
/// point bit-identical to an engine run at that bandwidth.
fn mode_ladders(
    session: &Session,
    workload: &Workload,
    dataflow: Dataflow,
    evk_policy: EvkPolicy,
) -> [(AnalyticOutput, Vec<ExecutionStats>); 2] {
    MODES.map(|mode| {
        let job = Job::workload(workload.clone(), dataflow, mode)
            .with_rpu(RpuConfig::ciflow_with_policy(evk_policy));
        session
            .run_ladder(&job, &BANDWIDTH_LADDER)
            .expect("built-in pipelines are infallible")
    })
}

fn render(benchmark: HksBenchmark, evk_policy: EvkPolicy) {
    let workload = Workload::rotation_batch(benchmark, ROTATIONS);
    let session = Session::new();
    for dataflow in Dataflow::all() {
        let [(_, unfused), (fused_output, fused)] =
            mode_ladders(&session, &workload, dataflow, evk_policy);
        ciflow_bench::section(&format!(
            "Workload pipeline: {} x{ROTATIONS} rotations, {dataflow} ({evk_policy})",
            benchmark.name
        ));
        let rows: Vec<Vec<String>> = (unfused.iter().zip(&fused).zip(BANDWIDTH_LADDER))
            .map(|((unfused, fused), bandwidth)| {
                vec![
                    format!("{bandwidth}"),
                    format!("{:.2}", unfused.runtime_ms()),
                    format!("{:.2}", fused.runtime_ms()),
                    format!("{:.2}x", unfused.runtime_ms() / fused.runtime_ms()),
                    format!("{:.1}%", 100.0 * unfused.compute_idle_fraction()),
                    format!("{:.1}%", 100.0 * fused.compute_idle_fraction()),
                    format!("{:.2}", fused.runtime_ms() / fused_output.kernels as f64),
                ]
            })
            .collect();
        print!(
            "{}",
            markdown_table(
                &[
                    "BW (GB/s)",
                    "unfused (ms)",
                    "fused (ms)",
                    "speedup",
                    "idle unfused",
                    "idle fused",
                    "fused ms/HKS",
                ],
                &rows,
            )
        );
    }
}

/// Renders the heterogeneous rescaling-chain section for one benchmark: a
/// chain of `RESCALE_LEVELS` multiply-relinearize-rescale kernels at
/// descending ℓ, fused vs back-to-back per strategy across the Figure-4
/// ladder. Forwarding shrinks with ℓ (only surviving towers are forwarded),
/// so the fused advantage is the whole-program analogue of the single-kernel
/// ladder above.
fn render_rescaling_chain(benchmark: HksBenchmark, evk_policy: EvkPolicy) {
    let chain = Workload::rescaling_chain(benchmark, RESCALE_LEVELS);
    let ladder: Vec<String> = chain
        .kernel_benchmarks()
        .iter()
        .map(|b| b.q_towers.to_string())
        .collect();
    let session = Session::new();
    for dataflow in Dataflow::all() {
        let [(_, b2b), (fused_output, fused)] =
            mode_ladders(&session, &chain, dataflow, evk_policy);
        let forwarded_mib = fused_output.forwarded_bytes as f64 / rpu::MIB as f64;
        ciflow_bench::section(&format!(
            "Rescaling chain: {} ℓ={} , {dataflow} ({evk_policy})",
            benchmark.name,
            ladder.join("->")
        ));
        let rows: Vec<Vec<String>> = (b2b.iter().zip(&fused).zip(BANDWIDTH_LADDER))
            .map(|((b2b, fused), bandwidth)| {
                vec![
                    format!("{bandwidth}"),
                    format!("{:.2}", b2b.runtime_ms()),
                    format!("{:.2}", fused.runtime_ms()),
                    format!("{:.2}x", b2b.runtime_ms() / fused.runtime_ms()),
                    format!("{:.1}%", 100.0 * b2b.compute_idle_fraction()),
                    format!("{:.1}%", 100.0 * fused.compute_idle_fraction()),
                    format!("{forwarded_mib:.0}"),
                ]
            })
            .collect();
        print!(
            "{}",
            markdown_table(
                &[
                    "BW (GB/s)",
                    "unfused (ms)",
                    "fused (ms)",
                    "speedup",
                    "idle unfused",
                    "idle fused",
                    "fwd (MiB)",
                ],
                &rows,
            )
        );
    }
}

/// Renders the memory-channel-count sweep for one benchmark: the fused
/// 8-rotation pipeline with streamed evks, at each bandwidth, split over a
/// growing number of pseudo-channels (the aggregate bandwidth never
/// changes). One row per bandwidth, one fused-idle column per channel count.
fn render_channel_sweep(benchmark: HksBenchmark) {
    ciflow_bench::section(&format!(
        "Memory-channel sweep: {} x{ROTATIONS} rotations, OC fused, evks streamed \
         (aggregate bandwidth fixed per row)",
        benchmark.name
    ));
    let workload = Workload::rotation_batch(benchmark, ROTATIONS);
    let job = Job::workload(workload, Dataflow::OutputCentric, PipelineMode::Fused);
    let first = CHANNEL_LADDER.first().expect("ladder is non-empty");
    let last = CHANNEL_LADDER.last().expect("ladder is non-empty");
    let mut headers = vec![
        "BW (GB/s)".to_string(),
        format!("{first}-ch (ms)"),
        format!("{last}-ch (ms)"),
    ];
    headers.extend(CHANNEL_LADDER.iter().map(|c| format!("idle {c}ch")));
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    let session = Session::new();
    for &bandwidth in &CHANNEL_SWEEP_BANDWIDTHS {
        // One engine job per channel count; the schedule is built once and
        // every channel count's plan stays in the session's cache.
        let rpu = RpuConfig::ciflow_streaming().with_bandwidth(bandwidth);
        let outputs: Vec<JobOutput> = CHANNEL_LADDER
            .iter()
            .map(|&channels| {
                let rpu = rpu.clone().with_memory_channels(channels);
                session
                    .run_job(&job.clone().with_rpu(rpu))
                    .expect("built-in pipelines are infallible")
            })
            .collect();
        let mut row = vec![format!("{bandwidth}")];
        row.push(format!("{:.2}", outputs[0].runtime_ms()));
        row.push(format!(
            "{:.2}",
            outputs.last().expect("ladder is non-empty").runtime_ms()
        ));
        for output in &outputs {
            row.push(format!(
                "{:.1}%",
                100.0 * output.stats.compute_idle_fraction()
            ));
        }
        rows.push(row);
    }
    print!("{}", markdown_table(&headers, &rows));
}

fn main() {
    for benchmark in [HksBenchmark::ARK, HksBenchmark::DPRIVE, HksBenchmark::BTS3] {
        render(benchmark, EvkPolicy::OnChip);
    }
    // With streamed evks the memory queue prefetches the next kernel's key
    // towers under the current kernel's compute — the overlap the fusion
    // layer exists for.
    render(HksBenchmark::ARK, EvkPolicy::Streamed);
    // Heterogeneous chains: ℓ decays one tower per multiply-rescale level,
    // and the fusion layer forwards only the surviving towers per boundary.
    render_rescaling_chain(HksBenchmark::ARK, EvkPolicy::OnChip);
    render_rescaling_chain(HksBenchmark::DPRIVE, EvkPolicy::Streamed);
    // Splitting the memory queue into pseudo-channels lets that prefetch
    // bypass the head-of-line writebacks entirely.
    render_channel_sweep(HksBenchmark::ARK);
    render_channel_sweep(HksBenchmark::DPRIVE);
}
