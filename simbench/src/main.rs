//! Closed-loop benchmark of the CiFlow simulator.
//!
//! One caller, zero think time: the benchmark thread drives
//! single-call entry points of `ciflow` and `rpu` (never the batch
//! `Session::run`, which fans out across threads) and times each call.
//!
//! ```text
//! simbench --workload <dse_grid|analytic_ladder|fleet_serve> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! * `--trace 0` runs a fixed number of timed calls — `ceil(seconds ×
//!   calls-per-second)`, a count, never a deadline, so a seed always
//!   produces the same call mix — with one set-up per eight calls spread
//!   across the run (reporting their median), and prints the end-to-end
//!   metrics.
//! * `--trace 1` alternates untraced calls with traced replays of the same
//!   inputs, which run the call's work entry point by entry point inside
//!   named spans, adds a few traced calls of the other two workloads (so
//!   every layer is measured), prints a per-layer table and the per-layer
//!   metrics, and writes the spans as a Chrome trace-event document to
//!   `.simbench_out/trace-<workload>.json` (opens in Perfetto).
//!
//! Every output of every call is checked outside the timed region; a call
//! whose check fails counts as failed. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod dse;
mod fleet;
mod ladder;
mod rng;
mod span;
mod stats;

use dse::DseGrid;
use fleet::FleetServe;
use ladder::AnalyticLadder;
use span::{Recorder, Track, CALL};
use stats::{mean, median, quantile};
use std::fmt::Write as _;
use std::time::Instant;

/// An untraced run sets up once per this many timed calls, and at least
/// `MIN_SETUPS` times; `setup_s` is the median of its set-ups.
const CALLS_PER_SETUP: usize = 8;
const MIN_SETUPS: usize = 9;
/// Traced calls of each workload other than the one under test.
const SIDE_CALLS: usize = 3;
/// Where traced runs write their Chrome trace, relative to the working
/// directory.
const TRACE_DIR: &str = ".simbench_out";

/// One benchmark workload: set-up, seeded inputs, the timed call, its
/// traced replay, and the check of its outputs.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Timed calls per second of `--seconds`.
    const CALLS_PER_SECOND: f64;
    type Input;
    type Output;

    /// Fresh workload state (sessions, measured request classes, ...).
    fn setup(rec: &mut Recorder) -> Result<Self, String>;
    /// The inputs of call `call`, a pure function of `(seed, call)`.
    fn input(&self, seed: u64, call: usize) -> Self::Input;
    /// The timed call, through the public entry points a user would call.
    fn call(&self, input: &Self::Input) -> Result<Self::Output, String>;
    /// The same work entry point by entry point, each inside a span.
    fn traced_call(&self, input: &Self::Input, rec: &mut Recorder) -> Result<Self::Output, String>;
    /// Checks the outputs (untimed) and extracts the call's work units and
    /// simulated results.
    fn check(&self, input: &Self::Input, output: Self::Output) -> Result<Sample, String>;
    /// Extra traced measurements outside any call.
    fn probe(&self, _seed: u64, _rec: &mut Recorder) -> Result<(), String> {
        Ok(())
    }
    /// The per-layer metrics this workload's track yields.
    fn layer_metrics(track: &Track, m: &mut Metrics);
}

/// Work units and simulated results of checked calls.
#[derive(Debug, Default)]
pub struct Sample {
    pub units: u64,
    /// Simulated runtimes in ms: one per evaluated point of the sweeps (a
    /// dse_grid run, a ladder point), or one per call for fleet_serve (the
    /// faulted run's mean request latency).
    pub runtime_ms: Vec<f64>,
    /// Simulated DRAM traffic in MiB: one per evaluated point of the sweeps,
    /// or one per call for fleet_serve (per completed faulted request).
    pub dram_mib: Vec<f64>,
    /// Useful share of simulated work: bound / runtime for the sweeps,
    /// faulted goodput / fault-free throughput for serving.
    pub goodput: Vec<f64>,
    /// Simulated p99 latencies reported by the simulator itself; when
    /// empty, `sim_p99_ms` is the p99 of `runtime_ms`.
    pub p99_ms: Vec<f64>,
}

impl Sample {
    fn absorb(&mut self, other: Sample) {
        self.units += other.units;
        self.runtime_ms.extend(other.runtime_ms);
        self.dram_mib.extend(other.dram_mib);
        self.goodput.extend(other.goodput);
        self.p99_ms.extend(other.p99_ms);
    }
}

/// Named metrics in output order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }
}

/// Error conversion for `?` on library results.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: simbench --workload <dse_grid|analytic_ladder|fleet_serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

impl Report {
    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct && self.metrics.all_finite(),
            self.attempted,
            self.failed
        )
    }
}

fn main() {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match (args.workload.as_str(), args.trace) {
        (DseGrid::NAME, false) => untraced::<DseGrid>(&args, t0),
        (AnalyticLadder::NAME, false) => untraced::<AnalyticLadder>(&args, t0),
        (FleetServe::NAME, false) => untraced::<FleetServe>(&args, t0),
        (DseGrid::NAME, true) => traced::<DseGrid>(&args, t0),
        (AnalyticLadder::NAME, true) => traced::<AnalyticLadder>(&args, t0),
        (FleetServe::NAME, true) => traced::<FleetServe>(&args, t0),
        (other, _) => {
            eprintln!("simbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match result {
        Ok(report) => {
            for (name, value, unit) in &report.metrics.0 {
                println!("{name:<34} {value:>16.6} {unit}");
            }
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(1);
        }
    }
}

fn calls_for<W: Workload>(seconds: u64) -> usize {
    (seconds as f64 * W::CALLS_PER_SECOND).ceil() as usize
}

/// Runs and checks one call; returns whether its check passed.
fn checked<W: Workload>(
    w: &W,
    input: &W::Input,
    output: Result<W::Output, String>,
    sample: &mut Sample,
    what: &str,
) -> bool {
    match output.and_then(|o| w.check(input, o)) {
        Ok(s) => {
            sample.absorb(s);
            true
        }
        Err(e) => {
            eprintln!("{} {what} failed: {e}", W::NAME);
            false
        }
    }
}

/// Counts of checked calls.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The set-ups of one untraced run.
struct SetUps {
    seed: u64,
    calls: usize,
    rec: Recorder,
    seconds: Vec<f64>,
}

impl SetUps {
    /// One set-up: fresh workload state plus one untimed, checked call,
    /// timed from `start`. Set-up calls take inputs past the timed range.
    fn run<W: Workload>(&mut self, start: Instant, tally: &mut Tally) -> Result<W, String> {
        let rep = self.seconds.len();
        let w = W::setup(&mut self.rec)?;
        let input = w.input(self.seed, self.calls + rep);
        let output = w.call(&input);
        self.seconds.push(start.elapsed().as_secs_f64());
        let what = format!("set-up call {rep}");
        tally.record(checked(&w, &input, output, &mut Sample::default(), &what));
        Ok(w)
    }
}

fn untraced<W: Workload>(args: &Args, t0: Instant) -> Result<Report, String> {
    let calls = calls_for::<W>(args.seconds);
    let setup_reps = (calls / CALLS_PER_SETUP).max(MIN_SETUPS);
    let mut tally = Tally::default();
    let mut setups = SetUps {
        seed: args.seed,
        calls,
        rec: Recorder::new(t0),
        seconds: Vec::with_capacity(setup_reps),
    };
    // The first set-up is timed from process start and serves the timed
    // calls; the others are spread evenly across the run, so their median
    // does not rest on one moment of host load.
    let w = setups.run::<W>(t0, &mut tally)?;
    let mut times = Vec::with_capacity(calls);
    let mut sample = Sample::default();
    for i in 0..calls {
        while setups.seconds.len() < setup_reps && setups.seconds.len() * calls / setup_reps == i {
            setups.run::<W>(Instant::now(), &mut tally)?;
        }
        let input = w.input(args.seed, i);
        let start = Instant::now();
        let output = w.call(&input);
        times.push(start.elapsed().as_secs_f64());
        tally.record(checked(
            &w,
            &input,
            output,
            &mut sample,
            &format!("call {i}"),
        ));
    }

    // The median call time and mean throughput are printed but not
    // reported as metrics: on a shared host they flip between the host's
    // fast and slow periods (see simbench/manifest.json), while the p90
    // mostly stays in the slow one.
    let total_seconds: f64 = times.iter().sum();
    println!(
        "{} seed {}: {calls} timed calls, {} units of work, {:.1} units/s, call p50 {:.3} ms, \
         {} of {} checked calls failed",
        W::NAME,
        args.seed,
        sample.units,
        sample.units as f64 / total_seconds,
        quantile(&times, 0.5) * 1e3,
        tally.failed,
        tally.attempted
    );
    let mut m = Metrics::default();
    m.push("setup_s", median(&setups.seconds), "s");
    m.push("call_p90_ms", quantile(&times, 0.9) * 1e3, "ms");
    m.push("peak_rss_mib", peak_rss_mib()?, "MiB");
    m.push("sim_runtime_ms", mean(&sample.runtime_ms), "ms");
    m.push("sim_dram_mib", mean(&sample.dram_mib), "MiB");
    let p99 = if sample.p99_ms.is_empty() {
        quantile(&sample.runtime_ms, 0.99)
    } else {
        mean(&sample.p99_ms)
    };
    m.push("sim_p99_ms", p99, "ms");
    m.push("sim_goodput_fraction", mean(&sample.goodput), "fraction");
    m.push("model_err_table4", dse::model_err_table4()?, "fraction");
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

fn traced<W: Workload>(args: &Args, t0: Instant) -> Result<Report, String> {
    let pairs = (calls_for::<W>(args.seconds) / 2).max(SIDE_CALLS);
    let mut rec = Recorder::new(t0);
    let mut tally = Tally::default();
    rec.set_track(W::NAME);
    let w = W::setup(&mut rec)?;
    let mut untraced_seconds = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let input = w.input(args.seed, i);
        // Alternate which of the pair runs first, so neither always runs
        // on caches the other warmed.
        for traced in [i % 2 == 1, i % 2 == 0] {
            let ok = if traced {
                traced_call(&w, &input, &mut rec, i)
            } else {
                let start = Instant::now();
                let output = w.call(&input);
                untraced_seconds.push(start.elapsed().as_secs_f64());
                checked(
                    &w,
                    &input,
                    output,
                    &mut Sample::default(),
                    &format!("call {i}"),
                )
            };
            tally.record(ok);
        }
    }
    w.probe(args.seed, &mut rec)?;
    side::<DseGrid>(W::NAME, args.seed, &mut rec, &mut tally)?;
    side::<AnalyticLadder>(W::NAME, args.seed, &mut rec, &mut tally)?;
    side::<FleetServe>(W::NAME, args.seed, &mut rec, &mut tally)?;

    print!("{}", rec.table());
    let mut m = Metrics::default();
    DseGrid::layer_metrics(&rec.track(DseGrid::NAME), &mut m);
    AnalyticLadder::layer_metrics(&rec.track(AnalyticLadder::NAME), &mut m);
    FleetServe::layer_metrics(&rec.track(FleetServe::NAME), &mut m);
    let main_track = rec.track(W::NAME);
    m.push(
        "trace.overhead_ratio",
        median(&main_track.call_seconds()) / median(&untraced_seconds),
        "ratio",
    );
    for name in [DseGrid::NAME, AnalyticLadder::NAME, FleetServe::NAME] {
        m.push(
            format!("{name}.uncovered_frac"),
            rec.track(name).uncovered_fraction(),
            "fraction",
        );
    }

    std::fs::create_dir_all(TRACE_DIR).map_err(err)?;
    let path = format!("{TRACE_DIR}/trace-{}.json", W::NAME);
    std::fs::write(&path, rec.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    println!("chrome trace: {path} ({} spans)", rec.spans().len());
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

/// One traced call inside a `call` span; returns whether its check passed.
fn traced_call<W: Workload>(w: &W, input: &W::Input, rec: &mut Recorder, call: usize) -> bool {
    rec.set_call(Some(call));
    rec.begin(CALL);
    let output = w.traced_call(input, rec);
    rec.end();
    rec.set_call(None);
    checked(
        w,
        input,
        output,
        &mut Sample::default(),
        &format!("traced call {call}"),
    )
}

/// A few traced calls of a workload other than the one under test, on its
/// own track.
fn side<X: Workload>(
    main: &str,
    seed: u64,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<(), String> {
    if X::NAME == main {
        return Ok(());
    }
    rec.set_track(X::NAME);
    let x = X::setup(rec)?;
    for i in 0..SIDE_CALLS {
        let ok = traced_call(&x, &x.input(seed, i), rec, i);
        tally.record(ok);
    }
    x.probe(seed, rec)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
