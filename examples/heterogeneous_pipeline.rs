//! Heterogeneous workload pipelines: real CKKS programs rescale between
//! kernels, so the live tower count ℓ shrinks as a chain progresses. Each
//! step of a [`Workload`] can carry its own parameter point, and the fusion
//! layer re-derives the chaining at every kernel boundary — forwarding only
//! the towers that survive into the consumer's smaller basis and accounting
//! the elided traffic per boundary.
//!
//! Run with: `cargo run -p ciflow --release --example heterogeneous_pipeline`

use ciflow::api::{Job, Session};
use ciflow::schedule::ScheduleConfig;
use ciflow::workload::{build_workload, PipelineMode, Workload};
use ciflow::{Dataflow, HksBenchmark};
use rpu::RpuConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A degree-6 polynomial evaluation on ARK: six multiply-relinearize-
    // rescale levels, ℓ decaying 24 -> 19. Every kernel runs at its own
    // (shrinking) parameter point.
    let chain = Workload::rescaling_chain(HksBenchmark::ARK, 6);
    let ladder: Vec<usize> = chain
        .kernel_benchmarks()
        .iter()
        .map(|b| b.q_towers)
        .collect();
    println!("rescaling chain {}: ℓ ladder {ladder:?}\n", chain.name);

    // One parallel batch: the chain under every dataflow, fused and
    // back-to-back, at DDR4-class bandwidth.
    let session = Session::new().with_rpu(RpuConfig::ciflow_baseline().with_bandwidth(12.8));
    let mut batch = session.clone();
    for dataflow in Dataflow::all() {
        for mode in [PipelineMode::BackToBack, PipelineMode::Fused] {
            batch = batch.push(Job::workload(chain.clone(), dataflow, mode));
        }
    }
    let outputs = batch.run().into_outputs()?;

    println!(
        "{:3} {:>12} {:>10} {:>9} {:>13} {:>12}",
        "df", "unfused ms", "fused ms", "speedup", "fwd (MiB)", "ms/HKS"
    );
    for (d, dataflow) in Dataflow::all().into_iter().enumerate() {
        let unfused = &outputs[2 * d];
        let fused = &outputs[2 * d + 1];
        println!(
            "{:3} {:>12.2} {:>10.2} {:>8.2}x {:>13.1} {:>12.2}",
            dataflow.short_name(),
            unfused.runtime_ms(),
            fused.runtime_ms(),
            unfused.runtime_ms() / fused.runtime_ms(),
            fused.forwarded_bytes as f64 / rpu::MIB as f64,
            fused.runtime_ms_per_kernel(),
        );
        assert!(
            fused.runtime_ms() <= unfused.runtime_ms() * 1.0001,
            "fusion must never slow a pipeline down"
        );
        // The traffic invariant: fused + forwarded == back-to-back, exactly.
        assert_eq!(
            fused.stats.total_bytes() + fused.forwarded_bytes,
            unfused.stats.total_bytes()
        );
    }

    // Per-boundary accounting: as ℓ decays, each boundary forwards one fewer
    // tower's worth of store+load traffic.
    let ws = build_workload(
        &chain,
        &Dataflow::OutputCentric,
        &ScheduleConfig::default(),
        PipelineMode::Fused,
    )?;
    println!("\nper-boundary forwarded traffic (OC fused):");
    for (i, &bytes) in ws.boundary_forwarded_bytes.iter().enumerate() {
        println!(
            "  k{i} -> k{}: ℓ {} -> {}, {:5.1} MiB forwarded",
            i + 1,
            ladder[i],
            ladder[i + 1],
            bytes as f64 / rpu::MIB as f64
        );
    }

    // The sweep: fused-vs-unfused across bandwidths for the whole chain,
    // one closed-form ladder per pipeline mode.
    let bandwidths = [8.0, 12.8, 25.6, 64.0];
    let [unfused, fused] = [PipelineMode::BackToBack, PipelineMode::Fused].map(|mode| {
        let job = Job::workload(chain.clone(), Dataflow::OutputCentric, mode)
            .with_rpu(RpuConfig::ciflow_streaming());
        session
            .run_ladder(&job, &bandwidths)
            .map(|(_, stats)| stats)
    });
    println!("\nOC, evks streamed, fused vs back-to-back:");
    for ((bandwidth, unfused), fused) in bandwidths.iter().zip(unfused?).zip(fused?) {
        println!(
            "  {:6.1} GB/s: {:7.2} ms unfused, {:7.2} ms fused ({:.2}x), idle {:4.1}% -> {:4.1}%",
            bandwidth,
            unfused.runtime_ms(),
            fused.runtime_ms(),
            unfused.runtime_ms() / fused.runtime_ms(),
            100.0 * unfused.compute_idle_fraction(),
            100.0 * fused.compute_idle_fraction(),
        );
    }
    println!("\n(chaining is re-derived at every boundary: only surviving towers forward,");
    println!(" dropped towers keep their stores, and accounting is exact per boundary)");
    Ok(())
}
