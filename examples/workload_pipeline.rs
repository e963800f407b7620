//! Multi-kernel workload pipelines: chaining many hybrid key switches —
//! a rotation batch, the bootstrapping key-switch backbone — and fusing
//! their task graphs so the memory queue prefetches the next kernel's data
//! under the current kernel's compute (and, when the chained polynomial
//! fits on-chip, skips its DRAM round-trip entirely).
//!
//! Run with: `cargo run -p ciflow --release --example workload_pipeline`

use ciflow::api::{Job, Session};
use ciflow::workload::{PipelineMode, Workload};
use ciflow::{Dataflow, HksBenchmark};
use rpu::RpuConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // DDR4-class bandwidth: exactly the regime where the dataflow choice —
    // and now the pipeline fusion — decides the runtime.
    let session = Session::new().with_rpu(RpuConfig::ciflow_baseline().with_bandwidth(12.8));

    let workloads = [
        Workload::rotation_batch(HksBenchmark::ARK, 8),
        Workload::mul_rot_block(HksBenchmark::DPRIVE, 3),
        Workload::bootstrap_key_switch(HksBenchmark::ARK),
    ];

    // One parallel batch: every workload under every dataflow, fused and
    // back-to-back.
    let mut batch = session.clone();
    for workload in &workloads {
        for dataflow in Dataflow::all() {
            for mode in [PipelineMode::BackToBack, PipelineMode::Fused] {
                batch = batch.push(Job::workload(workload.clone(), dataflow, mode));
            }
        }
    }
    let outcome = batch.run();

    println!(
        "{:22} {:3} {:>4} {:>12} {:>10} {:>9} {:>11}",
        "workload", "df", "hks", "unfused ms", "fused ms", "speedup", "idle u->f"
    );
    let mut i = 0;
    for workload in &workloads {
        for dataflow in Dataflow::all() {
            let unfused = outcome.results[i]
                .outcome
                .as_ref()
                .map_err(std::clone::Clone::clone)?;
            let fused = outcome.results[i + 1]
                .outcome
                .as_ref()
                .map_err(std::clone::Clone::clone)?;
            i += 2;
            println!(
                "{:22} {:3} {:>4} {:>12.2} {:>10.2} {:>8.2}x {:>4.0}%->{:.0}%",
                workload.name,
                dataflow.short_name(),
                fused.kernels,
                unfused.runtime_ms(),
                fused.runtime_ms(),
                unfused.runtime_ms() / fused.runtime_ms(),
                100.0 * unfused.stats.compute_idle_fraction(),
                100.0 * fused.stats.compute_idle_fraction(),
            );
            assert!(
                fused.runtime_ms() <= unfused.runtime_ms() * 1.0001,
                "fusion must never slow a pipeline down"
            );
        }
    }
    println!("\n(12.8 GB/s, evks on-chip; fusion prefetches kernel i+1 under kernel i's compute");
    println!(" and forwards the chained polynomial on-chip when it fits in the data memory)");

    // Part two: split the memory queue into pseudo-channels. The aggregate
    // bandwidth is unchanged — channel-aware placement lets the fused
    // pipeline's evk prefetch bypass dependency-blocked writebacks, so the
    // compute-idle fraction falls as channels grow.
    println!("\nMemory channels (ARK x8 rotations, OC fused, evks streamed @ 128 GB/s):");
    let workload = Workload::rotation_batch(HksBenchmark::ARK, 8);
    for channels in ciflow::sweep::CHANNEL_LADDER {
        let output = Session::new()
            .with_rpu(
                RpuConfig::ciflow_streaming()
                    .with_bandwidth(128.0)
                    .with_memory_channels(channels),
            )
            .run_job(&Job::workload(
                workload.clone(),
                Dataflow::OutputCentric,
                PipelineMode::Fused,
            ))?;
        // The monotonicity of this curve is enforced by
        // `tests/memory_channels.rs`; the example only reports it.
        println!(
            "  {channels} channel(s): {:6.2} ms, compute idle {:4.1}%, channel imbalance {:.2}",
            output.runtime_ms(),
            100.0 * output.stats.compute_idle_fraction(),
            output.stats.memory_channel_imbalance(),
        );
    }
    Ok(())
}
