//! Plugging a brand-new scheduling strategy into CiFlow *without touching
//! the library*: implement [`ScheduleStrategy`], register it, and batch it
//! against the built-in dataflows across every benchmark — 20 jobs in one
//! parallel [`Session`](ciflow::api::Session) run with per-job `Result`s.
//!
//! The custom strategy here is a **roofline oracle**: it pretends the whole
//! key switch is one perfectly-fused kernel that reads the input and evk
//! once, computes every modular operation, and writes the output once. No
//! real dataflow can beat it, which makes it a useful lower bound to plot
//! next to MP/DC/OC.
//!
//! Run with: `cargo run -p ciflow --release --example custom_strategy`

use ciflow::api::{ScheduleStrategy, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::error::CiflowError;
use ciflow::hks_shape::HksShape;
use ciflow::schedule::{Schedule, ScheduleConfig};
use rpu::{ComputeKind, EvkPolicy, RpuConfig, TaskGraph, Verb};
use std::sync::Arc;

/// The ideal-fusion lower bound: input + evk in, every op once, output out.
struct RooflineOracle;

impl ScheduleStrategy for RooflineOracle {
    fn name(&self) -> &str {
        "roofline-oracle"
    }

    fn short_name(&self) -> &str {
        "RF"
    }

    fn description(&self) -> &str {
        "lower bound: one perfectly-fused kernel with compulsory traffic only"
    }

    fn build(&self, shape: &HksShape, config: &ScheduleConfig) -> Result<Schedule, CiflowError> {
        // Each memory task names its verb and the buffer it moves. The
        // buffer name is what channel placement hashes and the lints group
        // by: "evk" lands on the evk channel group under a split.
        let mut graph = TaskGraph::new();
        let mut deps = vec![graph.push_memory(
            Verb::Load,
            shape.input_bytes(),
            vec![],
            "input towers",
            "ModUp-P1",
        )];
        if config.evk_policy == EvkPolicy::Streamed {
            deps.push(graph.push_memory(Verb::Load, shape.evk_bytes(), vec![], "evk", "ModUp-P4"));
        }
        let compute = graph.push_compute(
            ComputeKind::Ntt,
            shape.total_ops(),
            deps,
            "fused hks kernel",
            "ModUp-P4",
        );
        graph.push_memory(
            Verb::Store,
            shape.output_bytes(),
            vec![compute],
            "output towers",
            "ModDown-P4",
        );
        Ok(Schedule {
            strategy: self.short_name().to_string(),
            graph,
            peak_on_chip_bytes: 0,
            spill_bytes: 0,
        })
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = Session::new()
        .with_rpu(RpuConfig::ciflow_baseline().with_bandwidth(12.8))
        .register(Arc::new(RooflineOracle))?;

    // 5 benchmarks x (3 built-ins + the custom strategy) = 20 jobs, one batch.
    let names = session.registry().short_names();
    for benchmark in HksBenchmark::all() {
        for name in &names {
            session = session.job(benchmark, name.clone());
        }
    }
    println!(
        "running {} jobs across {} strategies in parallel...\n",
        session.job_count(),
        names.len()
    );
    let outcome = session.run();

    println!(
        "{:8} {}",
        "bench",
        names.iter().map(|n| format!("{n:>9}")).collect::<String>()
    );
    for (i, benchmark) in HksBenchmark::all().into_iter().enumerate() {
        let mut line = format!("{:8}", benchmark.name);
        for j in 0..names.len() {
            let result = &outcome.results[i * names.len() + j];
            match &result.outcome {
                Ok(output) => line.push_str(&format!("{:8.2}m", output.runtime_ms())),
                Err(e) => line.push_str(&format!(" err:{:.4}", e.to_string())),
            }
        }
        println!("{line}");
    }
    println!("\n(runtimes in ms at 12.8 GB/s; RF is the unreachable roofline lower bound)");

    // The oracle can never lose to a real dataflow.
    for (i, benchmark) in HksBenchmark::all().into_iter().enumerate() {
        let row = &outcome.results[i * names.len()..(i + 1) * names.len()];
        let rf = row
            .last()
            .unwrap()
            .outcome
            .as_ref()
            .map_err(std::clone::Clone::clone)?;
        for real in &row[..names.len() - 1] {
            let real = real.outcome.as_ref().map_err(std::clone::Clone::clone)?;
            assert!(
                rf.runtime_ms() <= real.runtime_ms() * 1.0001,
                "{}: roofline beaten?!",
                benchmark.name
            );
        }
    }
    println!("verified: RF lower-bounds MP/DC/OC on every benchmark");
    Ok(())
}
