//! Regenerates Table III: the five benchmark parameter points with their evk
//! and intermediate-data footprints.

use ciflow_bench::{figures, report};

fn main() {
    ciflow_bench::section("Table III analogue: benchmark parameters (128-bit security points)");
    print!("{}", report::render_table3(&figures::table3_rows()));
}
