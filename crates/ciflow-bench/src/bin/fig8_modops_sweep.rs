//! Regenerates Figure 8: ARK runtime under OC at 1x/2x/4x/8x/16x MODOPS
//! across the bandwidth range, with evks on-chip.

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::MODOPS_LADDER;
use ciflow_bench::figures::bandwidth_sweep;
use rpu::EvkPolicy;

fn main() {
    let session = Session::new();
    let bandwidths = ciflow_bench::extended_bandwidths();
    let series: Vec<_> = MODOPS_LADDER
        .iter()
        .map(|&m| {
            bandwidth_sweep(
                &session,
                HksBenchmark::ARK,
                Dataflow::OutputCentric,
                &bandwidths,
                EvkPolicy::OnChip,
                m,
            )
        })
        .collect();
    ciflow_bench::section("Figure 8 analogue: ARK OC runtime at different MODOPS (evks on-chip)");
    println!("columns are 1x, 2x, 4x, 8x, 16x MODOPS");
    print!("{}", ciflow_bench::report::render_sweep_csv(&series));
    let (bw, runtime) = ciflow_bench::figures::ark_saturation_point(&session);
    println!("\nARK saturation point: {bw} GB/s -> {runtime:.2} ms at 1x MODOPS");
}
