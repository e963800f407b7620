//! Regenerates Figure 7: for each benchmark, the bandwidth OC needs when
//! streaming evks to match its own evk-on-chip performance at the OCbase
//! bandwidth, and the associated SRAM saving.

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow_bench::figures::streaming_equivalence_row;
use ciflow_bench::paper;
use ciflow_bench::report::markdown_table;

fn main() {
    let session = Session::new();
    ciflow_bench::section("Figure 7 analogue: OC with evks streamed vs on-chip");
    let rows: Vec<Vec<String>> = HksBenchmark::all()
        .into_iter()
        .map(|b| {
            let r = streaming_equivalence_row(&session, b);
            vec![
                r.benchmark.to_string(),
                ciflow_bench::fmt(r.ocbase_gbps, 1),
                ciflow_bench::fmt(r.on_chip_ms, 2),
                ciflow_bench::fmt(r.equivalent_streaming_gbps, 1),
                format!("{:.2}x", r.extra_bandwidth),
                format!("{:.2}x", r.sram_saving),
            ]
        })
        .collect();
    print!(
        "{}",
        markdown_table(
            &[
                "Benchmark",
                "OCbase BW (GB/s)",
                "on-chip runtime (ms)",
                "equiv. streaming BW (GB/s)",
                "extra BW",
                "SRAM saving",
            ],
            &rows,
        )
    );
    let [(least, lo), (most, hi)] = paper::STREAMING_EXTRA_BANDWIDTH;
    println!(
        "\nPaper reference: {lo}x ({least}) to {hi}x ({most}) extra bandwidth for a {}x SRAM saving.",
        paper::SRAM_SAVING
    );
}
