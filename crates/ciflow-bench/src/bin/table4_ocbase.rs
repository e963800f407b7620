//! Regenerates Table IV: the bandwidth at which OC matches the MP baseline
//! (64 GB/s, evks on-chip), the bandwidth saving, and the OC speedup at that
//! point.

use ciflow::api::Session;
use ciflow_bench::{figures, paper, report};

fn main() {
    let session = Session::new();
    ciflow_bench::section("Table IV analogue: OCbase bandwidth and OC speedup over MP");
    print!("{}", report::render_table4(&figures::table4_rows(&session)));
    ciflow_bench::section("Paper reference");
    print!("{}", report::render_paper_table4(&paper::TABLE4));
}
