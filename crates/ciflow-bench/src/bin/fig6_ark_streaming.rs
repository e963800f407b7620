//! Regenerates Figure 6: ARK runtime vs bandwidth with evks streamed from
//! DRAM compared against evks preloaded on-chip.

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use rpu::EvkPolicy;

fn main() {
    let session = Session::new();
    let bandwidths = ciflow_bench::extended_bandwidths();
    let series: Vec<_> = [EvkPolicy::Streamed, EvkPolicy::OnChip]
        .into_iter()
        .flat_map(|evks| {
            ciflow_bench::sweep_all_dataflows(&session, HksBenchmark::ARK, &bandwidths, evks)
        })
        .collect();
    ciflow_bench::section("Figure 6 analogue: ARK with evks streamed vs on-chip");
    print!("{}", ciflow_bench::report::render_sweep_csv(&series));
    let baseline = ciflow_bench::figures::baseline_runtime_ms(&session, HksBenchmark::ARK);
    println!("\nbaseline (MP @ 64 GB/s, evks on-chip): {baseline:.2} ms");
}
