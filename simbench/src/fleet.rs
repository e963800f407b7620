//! `fleet_serve`: the standard ARK request mix on 4 RPUs at 64 GB/s (OC).
//! The session's request classes are measured once, in set-up; each call
//! then runs two 10^5-request open-loop simulations with the same seeded
//! arrivals and offered load — fault-free (`try_serve_in`) and under the
//! standard fault plan (`try_fault_serve_in`) — and renders the resilience
//! report as JSON (the `serving_fleet --json` path).

use crate::rng::Rng;
use crate::span::{Recorder, Track};
use crate::{err, Metrics, Sample, Workload};
use ciflow::api::{Job, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::serve::{
    try_fault_serve_in, try_serve_in, ArrivalProcess, ClassWork, FaultPlan, RequestClass,
    ResilienceReport, ServeConfig, ServeReport,
};
use ciflow_bench::serving::standard_fault_plan;
use rpu::RpuConfig;

/// Requests per simulation.
const REQUESTS: usize = 100_000;
const DEVICES: usize = 4;
const BANDWIDTH_GBPS: f64 = 64.0;
/// Offered load as a share of the fault-free cluster capacity.
const LOAD: f64 = 0.7;
const DATAFLOW: Dataflow = Dataflow::OutputCentric;

pub struct FleetServe {
    session: Session,
    classes: Vec<RequestClass>,
    rpu: RpuConfig,
    rate_rps: f64,
    plan: FaultPlan,
    /// Simulated DRAM traffic of one request of each class, in MiB.
    class_dram_mib: Vec<f64>,
}

pub struct Output {
    fault_free: ServeReport,
    faulted: ResilienceReport,
    json: String,
}

impl Workload for FleetServe {
    const NAME: &'static str = "fleet_serve";
    const CALLS_PER_SECOND: f64 = 4.0;
    type Input = ServeConfig;
    type Output = Output;

    /// Measures every request class once on a fresh session — the same jobs
    /// the serving entry points run, so their later measurements are cache
    /// hits — and derives the offered rate and fault plan from the mix's
    /// mean service time.
    fn setup(rec: &mut Recorder) -> Result<Self, String> {
        let session = Session::new();
        let classes = RequestClass::standard_mix(HksBenchmark::ARK);
        let rpu = RpuConfig::ciflow_baseline().with_bandwidth(BANDWIDTH_GBPS);
        rec.begin("serve.measure");
        let measured: Result<Vec<(f64, f64)>, String> = classes
            .iter()
            .map(|class| {
                let job = match &class.work {
                    ClassWork::Single(benchmark) => Job::new(*benchmark, DATAFLOW),
                    ClassWork::Pipeline { workload, mode } => {
                        Job::workload(workload.clone(), DATAFLOW, *mode)
                    }
                };
                let output = session.run_job(&job.with_rpu(rpu.clone())).map_err(err)?;
                Ok((output.stats.runtime_seconds, output.dram_mib()))
            })
            .collect();
        rec.end();
        rec.count("classes", classes.len() as u64);
        let measured = measured?;
        let weight: f64 = classes.iter().map(|c| c.weight).sum();
        let tick = classes
            .iter()
            .zip(&measured)
            .map(|(c, (seconds, _))| c.weight * seconds)
            .sum::<f64>()
            / weight;
        Ok(Self {
            session,
            rate_rps: LOAD * DEVICES as f64 / tick,
            plan: standard_fault_plan(tick),
            class_dram_mib: measured.iter().map(|&(_, mib)| mib).collect(),
            classes,
            rpu,
        })
    }

    fn input(&self, seed: u64, call: usize) -> ServeConfig {
        let mut rng = Rng::for_call(seed, Self::NAME, call);
        ServeConfig::new(
            DEVICES,
            self.classes.clone(),
            ArrivalProcess::OpenLoop {
                rate_rps: self.rate_rps,
                requests: REQUESTS,
            },
        )
        .with_rpu(self.rpu.clone())
        .with_seed(rng.next_u64())
    }

    fn call(&self, config: &ServeConfig) -> Result<Output, String> {
        let fault_free = try_serve_in(&self.session, config, DATAFLOW).map_err(err)?;
        let faulted =
            try_fault_serve_in(&self.session, config, &self.plan, DATAFLOW).map_err(err)?;
        let json = faulted.to_json();
        Ok(Output {
            fault_free,
            faulted,
            json,
        })
    }

    fn traced_call(&self, config: &ServeConfig, rec: &mut Recorder) -> Result<Output, String> {
        let fault_free = rec
            .span("serve.loop", || {
                try_serve_in(&self.session, config, DATAFLOW)
            })
            .map_err(err)?;
        rec.count("requests", REQUESTS as u64);
        let faulted = rec
            .span("fault.loop", || {
                try_fault_serve_in(&self.session, config, &self.plan, DATAFLOW)
            })
            .map_err(err)?;
        rec.count("requests", REQUESTS as u64);
        rec.count("retries", faulted.retries as u64);
        rec.count("crash_losses", faulted.crash_losses as u64);
        rec.count(
            "attempts",
            (faulted.offered - faulted.shed + faulted.retries) as u64,
        );
        rec.count("completed", faulted.serve.completed as u64);
        let json = rec.span("report.json", || faulted.to_json());
        rec.count("bytes", json.len() as u64);
        Ok(Output {
            fault_free,
            faulted,
            json,
        })
    }

    /// Every fault-free request completes, the faulted run conserves its
    /// arrivals, and the JSON is non-empty and balanced.
    fn check(&self, _config: &ServeConfig, output: Output) -> Result<Sample, String> {
        let Output {
            fault_free,
            faulted,
            json,
        } = output;
        if fault_free.completed != REQUESTS || fault_free.records.len() != REQUESTS {
            return Err(format!(
                "fault-free run completed {} of {REQUESTS} requests",
                fault_free.completed
            ));
        }
        if faulted.offered != REQUESTS || !faulted.conserves_arrivals() {
            return Err(format!(
                "faulted run does not conserve arrivals: {} offered, {} completed, {} timed \
                 out, {} shed",
                faulted.offered, faulted.serve.completed, faulted.timed_out, faulted.shed
            ));
        }
        if !json.starts_with('{') || !balanced(&json) {
            return Err(format!(
                "resilience JSON ({} bytes) is empty or unbalanced",
                json.len()
            ));
        }
        let completed = faulted.serve.completed;
        if completed == 0 || faulted.serve.classes.len() != self.class_dram_mib.len() {
            return Err("faulted run completed nothing".to_string());
        }
        let dram: f64 = faulted
            .serve
            .classes
            .iter()
            .zip(&self.class_dram_mib)
            .map(|(usage, mib)| usage.served as f64 * mib)
            .sum();
        Ok(Sample {
            units: 2 * REQUESTS as u64,
            runtime_ms: vec![faulted.serve.latency.mean_ms],
            dram_mib: vec![dram / completed as f64],
            goodput: vec![faulted.goodput_rps / fault_free.throughput_rps],
            p99_ms: vec![faulted.serve.latency.p99_ms],
        })
    }

    fn layer_metrics(track: &Track, m: &mut Metrics) {
        let completed = track.count_in_calls("fault.loop", "completed").max(1) as f64;
        m.push(
            "serve.measure_ms",
            crate::stats::median(&track.span_seconds("serve.measure")) * 1e3,
            "ms",
        );
        m.push(
            "serve.loop_ns_per_request",
            track.ns_per("serve.loop", "requests"),
            "ns",
        );
        m.push(
            "fault.loop_ns_per_request",
            track.ns_per("fault.loop", "requests"),
            "ns",
        );
        m.push(
            "fault.retries",
            track.count_per_call("fault.loop", "retries"),
            "count",
        );
        m.push(
            "fault.crash_losses",
            track.count_per_call("fault.loop", "crash_losses"),
            "count",
        );
        m.push(
            "fault.attempts_per_completed",
            track.count_in_calls("fault.loop", "attempts") as f64 / completed,
            "ratio",
        );
        m.push(
            "report.json_ms",
            track.median_per_call_ms("report.json"),
            "ms",
        );
        m.push(
            "report.json_bytes",
            track.count_per_call("report.json", "bytes"),
            "bytes",
        );
    }
}

/// Braces and brackets pair up outside string literals, and every string
/// is closed.
fn balanced(json: &str) -> bool {
    let (mut open, mut in_string, mut escaped) = (Vec::new(), false, false);
    for c in json.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => open.push('}'),
            '[' => open.push(']'),
            '}' | ']' if open.pop() != Some(c) => return false,
            _ => {}
        }
    }
    open.is_empty() && !in_string
}
