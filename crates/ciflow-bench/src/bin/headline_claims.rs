//! Checks the paper's headline claims end to end: up to 4.16x speedup over
//! MP, 12.25x SRAM saving from streaming evks, up to 3.3x bandwidth saving
//! versus the MP on-chip baseline, and 1.43x-2.4x arithmetic-intensity gains.

use ciflow::analysis::table2_rows;
use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::BASELINE_BANDWIDTH_GBPS;
use ciflow_bench::figures::{baseline_runtime_ms, min_bandwidth_for_runtime, table4_rows};
use rpu::EvkPolicy;

fn main() {
    let session = Session::new();
    ciflow_bench::section("Headline claim 1: OC speedup over MP at the OCbase bandwidth");
    let best = table4_rows(&session)
        .into_iter()
        .map(|r| (r.benchmark, r.oc_speedup))
        .collect::<Vec<_>>();
    for (name, speedup) in &best {
        println!("{name}: {speedup:.2}x (paper's best: ARK 4.16x)");
    }

    ciflow_bench::section("Headline claim 2: SRAM saving from streaming evks");
    let on_chip = ciflow_bench::rpu_for(EvkPolicy::OnChip, BASELINE_BANDWIDTH_GBPS);
    let streaming = ciflow_bench::rpu_for(EvkPolicy::Streamed, BASELINE_BANDWIDTH_GBPS);
    println!(
        "{} MiB -> {} MiB = {:.2}x (paper: 12.25x); estimated area {:.1} mm2 -> {:.1} mm2",
        (on_chip.vector_memory_bytes + on_chip.key_memory_bytes) / rpu::MIB,
        (streaming.vector_memory_bytes + streaming.key_memory_bytes) / rpu::MIB,
        (on_chip.vector_memory_bytes + on_chip.key_memory_bytes) as f64
            / (streaming.vector_memory_bytes + streaming.key_memory_bytes) as f64,
        on_chip.estimated_area_mm2(),
        streaming.estimated_area_mm2(),
    );

    ciflow_bench::section(
        "Headline claim 3: bandwidth saving of OC (evks streamed) vs the MP on-chip baseline",
    );
    for benchmark in HksBenchmark::all() {
        let baseline = baseline_runtime_ms(&session, benchmark);
        let needed = min_bandwidth_for_runtime(
            &session,
            benchmark,
            Dataflow::OutputCentric,
            EvkPolicy::Streamed,
            1.0,
            baseline,
            4.0,
        );
        println!(
            "{}: OC streaming matches the baseline at {needed:.1} GB/s ({:.2}x saving; paper: up to 3.3x)",
            benchmark.name,
            BASELINE_BANDWIDTH_GBPS / needed
        );
    }

    ciflow_bench::section("Headline claim 4: arithmetic-intensity gain of OC");
    let rows = table2_rows();
    for benchmark in HksBenchmark::all() {
        let get = |d: Dataflow| {
            rows.iter()
                .find(|r| r.benchmark == benchmark.name && r.dataflow == d.short_name())
                .unwrap()
                .arithmetic_intensity
        };
        println!(
            "{}: OC/MP = {:.2}x, OC/DC = {:.2}x (paper: 1.43x-2.4x over MP)",
            benchmark.name,
            get(Dataflow::OutputCentric) / get(Dataflow::MaxParallel),
            get(Dataflow::OutputCentric) / get(Dataflow::DigitCentric),
        );
    }
}
