//! Checks the paper's headline claims end to end: OC's best speedup over
//! MP, the SRAM saving from streaming evks, the bandwidth saving versus the
//! MP on-chip baseline, and OC's arithmetic-intensity gain, each printed
//! beside the paper's value from [`ciflow_bench::paper`].

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::BASELINE_BANDWIDTH_GBPS;
use ciflow_bench::figures::{
    baseline_runtime_ms, min_bandwidth_for_runtime, table2_rows, table4_rows,
};
use ciflow_bench::paper;
use rpu::EvkPolicy;

fn main() {
    let session = Session::new();
    ciflow_bench::section("Headline claim 1: OC speedup over MP at the OCbase bandwidth");
    for (row, paper_row) in table4_rows(&session).iter().zip(paper::TABLE4) {
        println!(
            "{}: {:.2}x at {} GB/s (paper: {:.2}x at {} GB/s)",
            row.benchmark,
            row.oc_speedup,
            row.ocbase_gbps,
            paper_row.oc_speedup,
            paper_row.ocbase_gbps
        );
    }
    let paper_best = paper::best_oc_speedup();
    println!(
        "paper's best: {} {}x",
        paper_best.benchmark, paper_best.oc_speedup
    );

    ciflow_bench::section("Headline claim 2: SRAM saving from streaming evks");
    let on_chip = ciflow_bench::rpu_for(EvkPolicy::OnChip, BASELINE_BANDWIDTH_GBPS);
    let streaming = ciflow_bench::rpu_for(EvkPolicy::Streamed, BASELINE_BANDWIDTH_GBPS);
    println!(
        "{} MiB -> {} MiB = {:.2}x (paper: {}x); estimated area {:.1} mm2 -> {:.1} mm2",
        (on_chip.vector_memory_bytes + on_chip.key_memory_bytes) / rpu::MIB,
        (streaming.vector_memory_bytes + streaming.key_memory_bytes) / rpu::MIB,
        (on_chip.vector_memory_bytes + on_chip.key_memory_bytes) as f64
            / (streaming.vector_memory_bytes + streaming.key_memory_bytes) as f64,
        paper::SRAM_SAVING,
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
            "{}: OC streaming matches the baseline at {needed:.1} GB/s ({:.2}x saving; paper: up to {}x)",
            benchmark.name,
            BASELINE_BANDWIDTH_GBPS / needed,
            paper::MAX_STREAMED_BANDWIDTH_SAVING,
        );
    }

    ciflow_bench::section("Headline claim 4: arithmetic-intensity gain of OC");
    let rows = table2_rows();
    let (paper_lo, paper_hi) = paper::oc_intensity_gain(Dataflow::MaxParallel);
    for benchmark in HksBenchmark::all() {
        let get = |d: Dataflow| {
            rows.iter()
                .find(|r| r.benchmark == benchmark.name && r.dataflow == d.short_name())
                .unwrap()
                .arithmetic_intensity
        };
        println!(
            "{}: OC/MP = {:.2}x, OC/DC = {:.2}x (paper: {paper_lo}x-{paper_hi}x over MP)",
            benchmark.name,
            get(Dataflow::OutputCentric) / get(Dataflow::MaxParallel),
            get(Dataflow::OutputCentric) / get(Dataflow::DigitCentric),
        );
    }
}
