//! Regenerates Figure 9: the (bandwidth, MODOPS) pairs at which ARK under OC
//! with streamed evks matches (a) its saturation-point performance and
//! (b) the MP 64 GB/s baseline.

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow_bench::figures::{ark_saturation_point, baseline_runtime_ms, equivalent_configs};
use ciflow_bench::report::markdown_table;

fn main() {
    let session = Session::new();
    let (sat_bw, sat_ms) = ark_saturation_point(&session);
    let baseline_ms = baseline_runtime_ms(&session, HksBenchmark::ARK);
    let table = |target_ms| {
        let configs = equivalent_configs(&session, HksBenchmark::ARK, target_ms, &[1.0, 2.0, 4.0]);
        let rows = configs.into_iter().map(|c| {
            vec![
                format!("{:.0}x", c.modops),
                ciflow_bench::fmt(c.bandwidth_gbps, 1),
            ]
        });
        markdown_table(&["MODOPS", "required BW (GB/s)"], rows)
    };
    ciflow_bench::section(
        "Figure 9(a) analogue: matching ARK's saturation point with streamed evks",
    );
    println!("saturation point: {sat_bw} GB/s, {sat_ms:.2} ms (evks on-chip, 1x MODOPS)\n");
    print!("{}", table(sat_ms));

    ciflow_bench::section(
        "Figure 9(b) analogue: matching the MP 64 GB/s baseline with streamed evks",
    );
    println!("baseline: {baseline_ms:.2} ms\n");
    print!("{}", table(baseline_ms));
}
