//! Regenerates Table IV: the bandwidth at which OC matches the MP baseline
//! (64 GB/s, evks on-chip), the bandwidth saving, and the OC speedup at that
//! point.

use ciflow::api::Session;

fn main() {
    let session = Session::new();
    ciflow_bench::section("Table IV analogue: OCbase bandwidth and OC speedup over MP");
    let rows = ciflow_bench::figures::table4_rows(&session);
    print!("{}", ciflow_bench::figures::render_table4(&rows));
    ciflow_bench::section("Paper reference");
    println!("BTS1 25.6 GB/s 2.5x 1.30x | BTS2 12.8 GB/s 5x 2.42x | BTS3 32 GB/s 2x 1.37x");
    println!("ARK 8 GB/s 8x 4.16x | DPRIVE 12.8 GB/s 5x 2.96x");
}
