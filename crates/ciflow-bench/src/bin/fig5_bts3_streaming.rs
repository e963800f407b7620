//! Regenerates Figure 5: BTS3 runtime vs bandwidth with evks streamed from
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
            ciflow_bench::sweep_all_dataflows(&session, HksBenchmark::BTS3, &bandwidths, evks)
        })
        .collect();
    ciflow_bench::section("Figure 5 analogue: BTS3 with evks streamed vs on-chip");
    print!("{}", ciflow_bench::report::render_sweep_csv(&series));
    let baseline = ciflow_bench::figures::baseline_runtime_ms(&session, HksBenchmark::BTS3);
    println!("\nbaseline (MP @ 64 GB/s, evks on-chip): {baseline:.2} ms");
}
