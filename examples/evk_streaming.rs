//! Evaluation-key placement study: compare preloading the evks into a large
//! on-chip key memory (the 392 MB configuration) against streaming them from
//! DRAM with only 32 MB of on-chip SRAM, for every benchmark under the
//! Output-Centric dataflow — the paper's §VI-B experiment. The ten
//! (benchmark, placement) runs execute as one parallel
//! [`Session`](ciflow::api::Session) batch.
//!
//! Run with: `cargo run -p ciflow-bench --release --example evk_streaming`

use ciflow::api::{Job, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow_bench::figures::streaming_equivalence_row;
use rpu::RpuConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let on_chip = RpuConfig::ciflow_baseline();
    let streaming = RpuConfig::ciflow_streaming();
    println!(
        "on-chip configuration : {} MiB SRAM (~{:.0} mm^2)",
        on_chip.total_sram_bytes() / rpu::MIB,
        on_chip.estimated_area_mm2()
    );
    println!(
        "streaming configuration: {} MiB SRAM (~{:.0} mm^2), a {:.2}x SRAM saving\n",
        streaming.total_sram_bytes() / rpu::MIB,
        streaming.estimated_area_mm2(),
        (on_chip.vector_memory_bytes + on_chip.key_memory_bytes) as f64
            / (streaming.vector_memory_bytes + streaming.key_memory_bytes) as f64
    );

    println!("OC runtime at 64 GB/s, evks on-chip vs streamed:");
    let session = Session::new().jobs(HksBenchmark::all().into_iter().flat_map(|benchmark| {
        [on_chip.clone(), streaming.clone()]
            .into_iter()
            .map(move |rpu| {
                Job::new(benchmark, Dataflow::OutputCentric).with_rpu(rpu.with_bandwidth(64.0))
            })
    }));
    let outputs = session.run().into_outputs()?;
    for (benchmark, pair) in HksBenchmark::all().iter().zip(outputs.chunks(2)) {
        let (with_keys, streamed) = (&pair[0], &pair[1]);
        println!(
            "  {:7}: {:6.2} ms -> {:6.2} ms ({:.2}x slowdown)",
            benchmark.name,
            with_keys.runtime_ms(),
            streamed.runtime_ms(),
            streamed.runtime_ms() / with_keys.runtime_ms()
        );
    }

    println!("\nBandwidth needed for the streamed configuration to match the on-chip one");
    println!("at the OCbase operating point (Figure 7):");
    for benchmark in HksBenchmark::all() {
        let row = streaming_equivalence_row(&session, benchmark);
        println!(
            "  {:7}: {:5.1} GB/s -> {:6.1} GB/s ({:.2}x more bandwidth for a {:.2}x SRAM saving)",
            row.benchmark,
            row.ocbase_gbps,
            row.equivalent_streaming_gbps,
            row.extra_bandwidth,
            row.sram_saving
        );
    }
    Ok(())
}
