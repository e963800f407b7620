//! Regenerates Table V: the bandwidth and MODOPS each dataflow needs to match
//! ARK's saturation-point performance.

use ciflow::api::Session;
use ciflow_bench::{figures, paper, report};

fn main() {
    let session = Session::new();
    ciflow_bench::section("Table V analogue: configurations matching ARK's saturation point");
    print!("{}", report::render_table5(&figures::table5_rows(&session)));
    ciflow_bench::section("Paper reference");
    print!("{}", report::render_paper_table5(&paper::TABLE5));
}
