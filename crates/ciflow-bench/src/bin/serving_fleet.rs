//! Fleet-scale serving regenerator (beyond the paper's single-device
//! figures): throughput, latency percentiles and utilization of an RPU
//! cluster under the standard request mix, swept over cluster size, the
//! Fig-4 bandwidth ladder, the built-in dataflows, and the dispatch
//! policies — plus the same fleet under the standard fault plan. Every
//! number comes from the deterministic virtual-clock simulator — reruns
//! reproduce the tables bit-for-bit.
//!
//! Flags:
//!
//! * `--json` — emit one machine-readable `ciflow.serving_gallery.v1`
//!   document on stdout (reference reports, the resilience report, and the
//!   fault sweep) instead of the human-readable tables; CI archives it.

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::serve::{
    try_fault_serve_in, try_serve_in, ArrivalProcess, DispatchPolicy, RequestClass, ServeConfig,
};
use ciflow::sweep::{try_fault_sweep_in, try_serve_sweep_in, BANDWIDTH_LADDER};
use ciflow_bench::fmt;
use ciflow_bench::report::markdown_table;

fn main() {
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            other => {
                eprintln!("serving_fleet: unknown flag {other:?} (supported: --json)");
                std::process::exit(2);
            }
        }
    }
    let session = Session::new();
    if json {
        let document = ciflow_bench::serving::render_json(&session);
        ciflow_bench::serving::validate_json(&document)
            .expect("rendered gallery must satisfy its schema");
        println!("{document}");
        return;
    }
    // Reference point: the gallery's reference configuration.
    let reference = ciflow_bench::serving::reference_config();
    ciflow_bench::section("Serving reference point (standard ARK mix, closed loop c=8)");
    for dataflow in Dataflow::all() {
        let report = try_serve_in(&session, &reference, dataflow).expect("reference run succeeds");
        println!("{report}");
    }

    // Throughput across cluster size x per-device bandwidth, per dataflow.
    ciflow_bench::section(
        "Serving throughput (req/s), cluster size x per-device bandwidth, closed loop c=8",
    );
    let sizes = [1usize, 2, 4, 8];
    let base = reference.clone().with_seed(3);
    for dataflow in Dataflow::all() {
        let sweep = try_serve_sweep_in(&session, &base, dataflow, &sizes, &BANDWIDTH_LADDER)
            .expect("serving sweep succeeds");
        let header: Vec<String> = std::iter::once("devices \\ GB/s".to_string())
            .chain(BANDWIDTH_LADDER.iter().map(|bw| format!("{bw}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = sweep
            .points
            .chunks(BANDWIDTH_LADDER.len())
            .map(|chunk| {
                std::iter::once(format!("{}", chunk[0].num_devices))
                    .chain(chunk.iter().map(|p| fmt(p.throughput_rps, 1)))
                    .collect()
            })
            .collect();
        println!("{} dataflow:", dataflow.short_name());
        print!("{}", markdown_table(&header_refs, &rows));
    }

    // Dispatch policies under open-loop pressure.
    ciflow_bench::section("Dispatch policies (open loop at ~90% capacity, 4 RPUs @ 64 GB/s)");
    let capacity = try_serve_in(&session, &reference, Dataflow::OutputCentric)
        .expect("capacity probe succeeds")
        .throughput_rps;
    let open = ServeConfig::new(
        4,
        RequestClass::standard_mix(HksBenchmark::ARK),
        ArrivalProcess::OpenLoop {
            rate_rps: 0.9 * capacity,
            requests: 192,
        },
    )
    .with_rpu(ciflow_bench::rpu_at(64.0))
    .with_seed(5);
    let rows: Vec<Vec<String>> = DispatchPolicy::all()
        .into_iter()
        .map(|policy| {
            let report = try_serve_in(
                &session,
                &open.clone().with_policy(policy),
                Dataflow::OutputCentric,
            )
            .expect("policy run succeeds");
            vec![
                policy.to_string(),
                fmt(report.throughput_rps, 1),
                fmt(report.latency.p50_ms, 3),
                fmt(report.latency.p95_ms, 3),
                fmt(report.latency.p99_ms, 3),
                fmt(report.queue.mean_depth, 2),
                format!("{}", report.queue.max_depth),
                fmt(100.0 * report.mean_utilization(), 1),
            ]
        })
        .collect();
    print!(
        "{}",
        markdown_table(
            &["policy", "req/s", "p50 ms", "p95 ms", "p99 ms", "queue", "max q", "util %",],
            &rows
        )
    );

    // The same fleet under the standard adverse fault plan.
    ciflow_bench::section("Resilience (standard fault plan, closed loop c=8, OC)");
    let oc_reference = try_serve_in(&session, &reference, Dataflow::OutputCentric)
        .expect("reference run succeeds");
    let tick = oc_reference.makespan_seconds / oc_reference.completed as f64;
    let plan = ciflow_bench::serving::standard_fault_plan(tick);
    let resilience = try_fault_serve_in(&session, &reference, &plan, Dataflow::OutputCentric)
        .expect("faulted reference run succeeds");
    println!("{resilience}");
    assert!(resilience.conserves_arrivals());

    ciflow_bench::section("Fault sweep: goodput (req/s) across intensity x cluster size");
    let intensities = [0.0, 0.5, 1.0, 2.0];
    let sizes = [2usize, 4];
    let sweep = try_fault_sweep_in(
        &session,
        &reference,
        &plan,
        Dataflow::OutputCentric,
        &intensities,
        &sizes,
    )
    .expect("fault sweep succeeds");
    let header: Vec<String> = std::iter::once("devices \\ intensity".to_string())
        .chain(intensities.iter().map(|i| format!("{i}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let sweep_rows: Vec<Vec<String>> = sweep
        .points
        .chunks(intensities.len())
        .map(|chunk| {
            std::iter::once(format!("{}", chunk[0].num_devices))
                .chain(chunk.iter().map(|p| {
                    format!(
                        "{} ({:.0}% up)",
                        fmt(p.goodput_rps, 1),
                        100.0 * p.mean_availability
                    )
                }))
                .collect()
        })
        .collect();
    print!("{}", markdown_table(&header_refs, &sweep_rows));
}
