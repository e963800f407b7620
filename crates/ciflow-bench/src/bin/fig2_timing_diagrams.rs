//! Regenerates Figure 2: high-level ModUp timing diagrams for the three
//! dataflows (which stages are active when), rendered as ASCII timelines from
//! the simulator trace of the DPRIVE benchmark.

use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::ScheduleStrategy;
use rpu::TraceMode;

fn main() {
    ciflow_bench::section("Figure 2 analogue: per-stage activity timelines (DPRIVE, 12.8 GB/s)");
    let outcome = Dataflow::all()
        .into_iter()
        .fold(
            ciflow_bench::session_at(12.8).with_trace(TraceMode::Full),
            |session, dataflow| session.job(HksBenchmark::DPRIVE, dataflow),
        )
        .run();
    for (dataflow, result) in Dataflow::all().into_iter().zip(&outcome.results) {
        let output = result.outcome.as_ref().expect("run");
        println!("\n--- {dataflow} ({}) ---", dataflow.description());
        print!(
            "{}",
            output
                .trace
                .as_ref()
                .expect("traced session returns traces")
                .render_ascii(72)
        );
        println!(
            "runtime {:.2} ms, compute idle {:.1}%",
            output.stats.runtime_ms(),
            100.0 * output.stats.compute_idle_fraction()
        );
    }
}
