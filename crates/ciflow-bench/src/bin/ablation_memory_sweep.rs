//! Ablation (beyond the paper's figures): sweep the on-chip data-memory
//! capacity and report the DRAM traffic, spill volume and runtime of each
//! dataflow. This makes the capacity at which each dataflow stops spilling
//! visible — the quantity behind the paper's 675 MB (MP) / 255 MB (DC) /
//! 32 MB (OC) working-set discussion.

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::report::markdown_table;
use ciflow_bench::figures::memory_sweep;

fn main() {
    let session = Session::new();
    let capacities = [8u64, 16, 32, 64, 128, 256, 512, 1024];
    for benchmark in [HksBenchmark::ARK, HksBenchmark::BTS3] {
        ciflow_bench::section(&format!(
            "Memory ablation: {} at 64 GB/s, evks streamed (traffic MiB / spill MiB / runtime ms)",
            benchmark.name
        ));
        // One batch of every capacity per dataflow, transposed into one row
        // per capacity.
        let columns: Vec<_> = Dataflow::all()
            .into_iter()
            .map(|dataflow| memory_sweep(&session, benchmark, dataflow, &capacities, 64.0))
            .collect();
        let rows: Vec<Vec<String>> = capacities
            .iter()
            .enumerate()
            .map(|(at, mib)| {
                let mut cells = vec![format!("{mib} MiB")];
                cells.extend(columns.iter().map(|column| {
                    let p = column[at];
                    format!(
                        "{:.0} / {:.0} / {:.2}",
                        p.dram_mib, p.spill_mib, p.runtime_ms
                    )
                }));
                cells
            })
            .collect();
        print!(
            "{}",
            markdown_table(&["data memory", "MP", "DC", "OC"], &rows)
        );
    }
}
