//! Regenerates Table II: DRAM transfers and arithmetic intensity for every
//! benchmark under MP / DC / OC, with 32 MiB of on-chip data memory and evks
//! streamed from DRAM. The model prints MiB; the paper prints MB.

use ciflow_bench::{figures, paper, report};

fn main() {
    ciflow_bench::section("Table II analogue: DRAM transfers (MiB) and arithmetic intensity");
    print!("{}", report::render_table2(&figures::table2_rows()));
    ciflow_bench::section("Paper reference (MB / AI)");
    print!("{}", report::render_paper_table2(&paper::TABLE2));
}
