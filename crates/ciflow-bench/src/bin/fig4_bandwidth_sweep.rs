//! Regenerates Figure 4: HKS runtime vs off-chip bandwidth for the five
//! benchmarks under MP / DC / OC, with evks preloaded on-chip.

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow_bench::report::{render_sweep_ascii, render_sweep_csv};
use rpu::EvkPolicy;

fn main() {
    let session = Session::new();
    for benchmark in HksBenchmark::all() {
        let bandwidths = if benchmark == HksBenchmark::ARK || benchmark == HksBenchmark::BTS3 {
            ciflow_bench::extended_bandwidths()
        } else {
            ciflow_bench::ddr_bandwidths()
        };
        let series =
            ciflow_bench::sweep_all_dataflows(&session, benchmark, &bandwidths, EvkPolicy::OnChip);
        ciflow_bench::section(&format!(
            "Figure 4 analogue: {} (evks on-chip)",
            benchmark.name
        ));
        print!("{}", render_sweep_csv(&series));
        print!("{}", render_sweep_ascii(&series, 60, 12));
    }
}
