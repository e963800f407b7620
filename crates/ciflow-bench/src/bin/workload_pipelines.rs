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

use ciflow::api::{Job, JobOutput, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::{BANDWIDTH_LADDER, CHANNEL_LADDER};
use ciflow::workload::{PipelineMode, Workload};
use ciflow_bench::report::markdown_table;
use rpu::{EvkPolicy, RpuConfig};

/// Every one-channel number the tables print is double-checked against the
/// closed-form timeline (`rpu::analytic`) before rendering: the analytic
/// ladder must reproduce the event engine's milliseconds **bit for bit**.
fn assert_analytic_agrees(label: &str, bandwidth: f64, engine_ms: f64, analytic_ms: f64) {
    assert_eq!(
        engine_ms.to_bits(),
        analytic_ms.to_bits(),
        "{label}: analytic ladder diverges from the engine at {bandwidth} GB/s \
         (engine {engine_ms} ms, analytic {analytic_ms} ms)"
    );
}

const ROTATIONS: usize = 8;

/// Depth of the rescaling chains reported in the heterogeneous section.
const RESCALE_LEVELS: usize = 6;

/// Bandwidths reported in the channel-count sweep: DDR4 through HBM2-class.
const CHANNEL_SWEEP_BANDWIDTHS: [f64; 4] = [12.8, 25.6, 64.0, 128.0];

/// The pipeline modes every table compares, in the order of its columns.
const MODES: [PipelineMode; 2] = [PipelineMode::BackToBack, PipelineMode::Fused];

/// Runs `workload` under every (strategy, bandwidth, mode) combination of
/// the Figure-4 ladder through the event engine, one job per point, as a
/// single parallel batch, and returns the outputs in submission order
/// (strategy-major, then bandwidth, then back-to-back before fused).
fn engine_ladder(workload: &Workload, evk_policy: EvkPolicy) -> Vec<JobOutput> {
    let mut session = Session::new();
    for dataflow in Dataflow::all() {
        for &bandwidth in &BANDWIDTH_LADDER {
            for mode in MODES {
                session =
                    session.push(Job::workload(workload.clone(), dataflow, mode).with_rpu(
                        RpuConfig::ciflow_with_policy(evk_policy).with_bandwidth(bandwidth),
                    ));
            }
        }
    }
    session
        .run()
        .into_outputs()
        .expect("built-in pipelines are infallible")
}

/// The `(back-to-back, fused)` engine outputs of the `d`-th strategy of an
/// [`engine_ladder`] batch, one pair per Figure-4 bandwidth, each checked
/// bit for bit against one `Session::run_ladder` per pipeline mode.
fn checked_pairs<'a>(
    session: &Session,
    workload: &Workload,
    (d, dataflow): (usize, Dataflow),
    evk_policy: EvkPolicy,
    outputs: &'a [JobOutput],
    label: &str,
) -> Vec<[&'a JobOutput; 2]> {
    let ladders = MODES.map(|mode| {
        let job = Job::workload(workload.clone(), dataflow, mode)
            .with_rpu(RpuConfig::ciflow_with_policy(evk_policy));
        session
            .run_ladder(&job, &BANDWIDTH_LADDER)
            .expect("built-in pipelines are infallible")
            .1
    });
    let strategy = &outputs[d * BANDWIDTH_LADDER.len() * 2..][..BANDWIDTH_LADDER.len() * 2];
    (strategy.chunks_exact(2).zip(BANDWIDTH_LADDER).enumerate())
        .map(|(b, (pair, bandwidth))| {
            for (output, ladder) in pair.iter().zip(&ladders) {
                let analytic_ms = ladder[b].runtime_ms();
                assert_analytic_agrees(label, bandwidth, output.runtime_ms(), analytic_ms);
            }
            [&pair[0], &pair[1]]
        })
        .collect()
}

fn render(benchmark: HksBenchmark, evk_policy: EvkPolicy) {
    let workload = Workload::rotation_batch(benchmark, ROTATIONS);
    let outputs = engine_ladder(&workload, evk_policy);
    let analytic_session = Session::new();
    for (d, dataflow) in Dataflow::all().into_iter().enumerate() {
        let label = format!("{} {dataflow} ({evk_policy})", benchmark.name);
        let pairs = checked_pairs(
            &analytic_session,
            &workload,
            (d, dataflow),
            evk_policy,
            &outputs,
            &label,
        );
        ciflow_bench::section(&format!(
            "Workload pipeline: {} x{ROTATIONS} rotations, {dataflow} ({evk_policy})",
            benchmark.name
        ));
        let rows: Vec<Vec<String>> = (pairs.iter().zip(BANDWIDTH_LADDER))
            .map(|([unfused, fused], bandwidth)| {
                vec![
                    format!("{bandwidth}"),
                    format!("{:.2}", unfused.runtime_ms()),
                    format!("{:.2}", fused.runtime_ms()),
                    format!("{:.2}x", unfused.runtime_ms() / fused.runtime_ms()),
                    format!("{:.1}%", 100.0 * unfused.stats.compute_idle_fraction()),
                    format!("{:.1}%", 100.0 * fused.stats.compute_idle_fraction()),
                    format!("{:.2}", fused.runtime_ms_per_kernel()),
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
    let outputs = engine_ladder(&chain, evk_policy);
    let session = Session::new();
    for (d, dataflow) in Dataflow::all().into_iter().enumerate() {
        let label = format!("rescaling chain {} {dataflow}", benchmark.name);
        let pairs = checked_pairs(
            &session,
            &chain,
            (d, dataflow),
            evk_policy,
            &outputs,
            &label,
        );
        ciflow_bench::section(&format!(
            "Rescaling chain: {} ℓ={} , {dataflow} ({evk_policy})",
            benchmark.name,
            ladder.join("->")
        ));
        let rows: Vec<Vec<String>> = (pairs.iter().zip(BANDWIDTH_LADDER))
            .map(|([b2b, fused], bandwidth)| {
                vec![
                    format!("{bandwidth}"),
                    format!("{:.2}", b2b.runtime_ms()),
                    format!("{:.2}", fused.runtime_ms()),
                    format!("{:.2}x", b2b.runtime_ms() / fused.runtime_ms()),
                    format!("{:.1}%", 100.0 * b2b.stats.compute_idle_fraction()),
                    format!("{:.1}%", 100.0 * fused.stats.compute_idle_fraction()),
                    format!("{:.0}", fused.forwarded_bytes as f64 / rpu::MIB as f64),
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
        // The one-channel point is cross-checked against the closed form;
        // a multi-channel timeline evaluates through the engine itself, so
        // there is nothing to cross-check. One timeline serves the whole
        // one-channel column (the session cache keys on channels and range).
        for output in outputs.iter().filter(|o| o.rpu.memory_channel_count() == 1) {
            let analytic = session
                .run_analytic(&job.clone().with_rpu(rpu.clone()), 8.0, 1024.0)
                .expect("built-in pipelines are infallible");
            assert_analytic_agrees(
                &format!("channel sweep {} x1ch", benchmark.name),
                bandwidth,
                output.runtime_ms(),
                analytic.timeline.evaluate(bandwidth).runtime_ms(),
            );
        }
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
