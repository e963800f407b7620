//! Regenerates Table V: the bandwidth and MODOPS each dataflow needs to match
//! ARK's saturation-point performance.

use ciflow::api::Session;

fn main() {
    let session = Session::new();
    ciflow_bench::section("Table V analogue: configurations matching ARK's saturation point");
    let rows = ciflow_bench::figures::table5_rows(&session);
    print!("{}", ciflow_bench::figures::render_table5(&rows));
    ciflow_bench::section("Paper reference");
    println!("Sat. point: 128 GB/s, 1x | OC 12.8 GB/s @2x | DC 54.64 GB/s @2x | MP 128 GB/s @2x");
}
