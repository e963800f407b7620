//! `dse_grid`: one cold design-space query per call over the paper's grid —
//! 5 Table-III benchmarks × MP/DC/OC × evks on-chip or streamed, at the
//! paper's 32 MiB data memory. Each of the 30 schedules is built, linted and
//! rendered as JSON (the `schedule_lint --json` path), statically bounded,
//! and then run statistics-only at 8 seeded (bandwidth, channel-count)
//! points that hit the session's schedule and channel-map caches.

use crate::rng::Rng;
use crate::span::{Recorder, Track};
use crate::{err, Metrics, Sample, Workload};
use ciflow::api::{Job, Session, StrategyRegistry};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::hks_shape::HksShape;
use ciflow::schedule::{Schedule, ScheduleConfig};
use rpu::{ChannelMap, EvkPolicy, ExecutionStats, RpuConfig, RpuEngine, MIB};
use std::sync::Arc;

/// Runs per schedule; the channel counts are a fixed multiset (each of
/// 1, 2, 4, 8 twice) so every call derives the same number of channel maps.
const CHANNELS: [usize; 8] = [1, 1, 2, 2, 4, 4, 8, 8];
/// Seeded bandwidths span the paper's Fig-4 range (GB/s).
const BANDWIDTH_GBPS: (f64, f64) = (8.0, 1024.0);
/// Probe repetitions per schedule for the session-overhead measurement.
const PROBE_REPS: usize = 4;

pub struct DseGrid;

#[derive(Clone, Copy)]
pub struct Point {
    bandwidth_gbps: f64,
    channels: usize,
}

pub struct Query {
    benchmark: HksBenchmark,
    dataflow: Dataflow,
    evk: EvkPolicy,
    points: Vec<Point>,
}

impl Query {
    fn rpu(&self, point: Point) -> RpuConfig {
        RpuConfig::ciflow_with_policy(self.evk)
            .with_bandwidth(point.bandwidth_gbps)
            .with_memory_channels(point.channels)
    }

    fn job(&self, point: Point) -> Job {
        Job::new(self.benchmark, self.dataflow).with_rpu(self.rpu(point))
    }
}

/// What one query produced.
pub struct QueryOut {
    schedule: Arc<Schedule>,
    lint_has_errors: bool,
    lint_json_bytes: usize,
    /// Makespan bound at the query's first point.
    bound_seconds: f64,
    runs: Vec<ExecutionStats>,
}

impl Workload for DseGrid {
    const NAME: &'static str = "dse_grid";
    const CALLS_PER_SECOND: f64 = 6.5;
    type Input = Vec<Query>;
    type Output = Vec<QueryOut>;

    fn setup(_rec: &mut Recorder) -> Result<Self, String> {
        Ok(Self)
    }

    fn input(&self, seed: u64, call: usize) -> Vec<Query> {
        let mut rng = Rng::for_call(seed, Self::NAME, call);
        let mut queries: Vec<Query> = HksBenchmark::all()
            .into_iter()
            .flat_map(|benchmark| {
                Dataflow::all().into_iter().flat_map(move |dataflow| {
                    [EvkPolicy::OnChip, EvkPolicy::Streamed].map(|evk| Query {
                        benchmark,
                        dataflow,
                        evk,
                        points: Vec::new(),
                    })
                })
            })
            .collect();
        rng.shuffle(&mut queries);
        // Stratified bandwidths: point k draws from the k-th of 8 equal
        // log-bands of the range, so the simulated means barely depend on
        // the seed; channel counts and point order are shuffled.
        let (lo, hi) = BANDWIDTH_GBPS;
        let bands = CHANNELS.len() as f64;
        for query in &mut queries {
            let mut channels = CHANNELS;
            rng.shuffle(&mut channels);
            query.points = channels
                .into_iter()
                .enumerate()
                .map(|(k, channels)| Point {
                    bandwidth_gbps: lo * (hi / lo).powf((k as f64 + rng.unit()) / bands),
                    channels,
                })
                .collect();
            rng.shuffle(&mut query.points);
        }
        queries
    }

    fn call(&self, input: &Vec<Query>) -> Result<Vec<QueryOut>, String> {
        let session = Session::new();
        input
            .iter()
            .map(|query| {
                let first = query.job(query.points[0]);
                let report = session.verify_job(&first).map_err(err)?;
                let json = report.to_json();
                let bound = session.bounds_job(&first).map_err(err)?;
                let mut runs = Vec::with_capacity(query.points.len());
                let mut schedule = None;
                for &point in &query.points {
                    let output = session.run_job(&query.job(point)).map_err(err)?;
                    runs.push(output.stats);
                    schedule.get_or_insert(output.schedule);
                }
                Ok(QueryOut {
                    schedule: schedule.ok_or("query without points")?,
                    lint_has_errors: report.has_errors(),
                    lint_json_bytes: json.len(),
                    bound_seconds: bound.makespan_bound_seconds,
                    runs,
                })
            })
            .collect()
    }

    fn traced_call(&self, input: &Vec<Query>, rec: &mut Recorder) -> Result<Vec<QueryOut>, String> {
        let registry = StrategyRegistry::builtin();
        input
            .iter()
            .map(|query| {
                let strategy = registry.get(query.dataflow.short_name()).map_err(err)?;
                let config = ScheduleConfig::with_data_memory(32 * MIB, query.evk);
                let schedule = rec
                    .span("schedule.build", || {
                        strategy.build(&HksShape::new(query.benchmark), &config)
                    })
                    .map_err(err)?;
                rec.count("tasks", schedule.graph.len() as u64);
                let schedule = Arc::new(schedule);
                let mut maps: Vec<(usize, ChannelMap)> = Vec::new();
                let first = query.points[0];
                let rpu = query.rpu(first);
                let map = channel_map(Some(&mut *rec), &schedule, &mut maps, first.channels);
                let report = rec.span("lint.verify", || {
                    ciflow::lint::lint_with(&schedule, &[query.benchmark], &rpu, &map)
                });
                let json = rec.span("lint.json", || report.to_json());
                rec.count("bytes", json.len() as u64);
                let bound = rec.span("bound.analyze", || {
                    RpuEngine::new(rpu.clone())
                        .with_channel_map(map)
                        .bounds(&schedule.graph)
                });
                let mut runs = Vec::with_capacity(query.points.len());
                for &point in &query.points {
                    let map = channel_map(Some(&mut *rec), &schedule, &mut maps, point.channels);
                    let engine = RpuEngine::new(query.rpu(point)).with_channel_map(map);
                    let stats = rec
                        .span("engine.exec", || engine.execute_stats(&schedule.graph))
                        .map_err(err)?;
                    rec.count("tasks", (stats.compute_tasks + stats.memory_tasks) as u64);
                    runs.push(stats);
                }
                Ok(QueryOut {
                    schedule,
                    lint_has_errors: report.has_errors(),
                    lint_json_bytes: json.len(),
                    bound_seconds: bound.makespan_bound_seconds,
                    runs,
                })
            })
            .collect()
    }

    /// The lint report has no Error, its JSON is non-empty, and the static
    /// bound is at or below the simulated runtime at every point.
    fn check(&self, input: &Vec<Query>, output: Vec<QueryOut>) -> Result<Sample, String> {
        if output.len() != input.len() {
            return Err(format!(
                "{} of {} queries answered",
                output.len(),
                input.len()
            ));
        }
        let mut sample = Sample::default();
        for (query, out) in input.iter().zip(&output) {
            let name = format!(
                "{} {} evk {:?}",
                query.benchmark.name,
                query.dataflow.short_name(),
                query.evk
            );
            if out.lint_has_errors || out.lint_json_bytes == 0 {
                return Err(format!("{name}: lint report has errors or no JSON"));
            }
            if out.runs.len() != query.points.len() {
                return Err(format!(
                    "{name}: {} runs for {} points",
                    out.runs.len(),
                    query.points.len()
                ));
            }
            if !(out.bound_seconds > 0.0 && out.bound_seconds <= out.runs[0].runtime_seconds) {
                return Err(format!(
                    "{name}: bound {} s above runtime {} s",
                    out.bound_seconds, out.runs[0].runtime_seconds
                ));
            }
            let mut maps: Vec<(usize, ChannelMap)> = Vec::new();
            for (point, stats) in query.points.iter().zip(&out.runs) {
                let map = channel_map(None, &out.schedule, &mut maps, point.channels);
                let engine = RpuEngine::new(query.rpu(*point)).with_channel_map(map);
                let bound =
                    rpu::bound::bound_curve(&engine, &out.schedule.graph, &[point.bandwidth_gbps])
                        [0];
                if !(bound > 0.0 && bound <= stats.runtime_seconds) {
                    return Err(format!(
                        "{name}: bound {bound} s above runtime {} s at {} GB/s x{}",
                        stats.runtime_seconds, point.bandwidth_gbps, point.channels
                    ));
                }
                sample.units += (stats.compute_tasks + stats.memory_tasks) as u64;
                sample.runtime_ms.push(stats.runtime_ms());
                sample
                    .dram_mib
                    .push(stats.total_bytes() as f64 / MIB as f64);
                sample.goodput.push(bound / stats.runtime_seconds);
            }
        }
        Ok(sample)
    }

    /// Session overhead: warm `run_job` against the bare engine call it
    /// wraps, on the same graph and channel map, for every query of call 0.
    fn probe(&self, seed: u64, rec: &mut Recorder) -> Result<(), String> {
        let session = Session::new();
        for query in self.input(seed, 0) {
            let point = query.points[0];
            let job = query.job(point);
            let warm = session.run_job(&job).map_err(err)?;
            let engine = RpuEngine::new(query.rpu(point))
                .with_channel_map(warm.schedule.channel_map(point.channels));
            for _ in 0..PROBE_REPS {
                rec.span("probe.run_job", || session.run_job(&job))
                    .map_err(err)?;
                rec.span("probe.engine", || {
                    engine.execute_stats(&warm.schedule.graph)
                })
                .map_err(err)?;
            }
        }
        Ok(())
    }

    fn layer_metrics(track: &Track, m: &mut Metrics) {
        m.push(
            "schedule.build_ms",
            track.median_per_call_ms("schedule.build"),
            "ms",
        );
        m.push(
            "schedule.tasks_built",
            track.count_per_call("schedule.build", "tasks"),
            "count",
        );
        m.push(
            "lint.verify_ms",
            track.median_per_call_ms("lint.verify"),
            "ms",
        );
        m.push(
            "lint.json_us",
            1e3 * track.median_per_call_ms("lint.json"),
            "us",
        );
        m.push(
            "channel.map_us",
            1e3 * track.median_per_call_ms("channel.map"),
            "us",
        );
        m.push(
            "engine.exec_ms",
            track.median_per_call_ms("engine.exec"),
            "ms",
        );
        m.push(
            "engine.tasks_retired",
            track.count_per_call("engine.exec", "tasks"),
            "count",
        );
        m.push(
            "engine.ns_per_task",
            track.ns_per("engine.exec", "tasks"),
            "ns",
        );
        let overheads: Vec<f64> = track
            .span_seconds("probe.run_job")
            .iter()
            .zip(track.span_seconds("probe.engine"))
            .map(|(job, engine)| (job - engine) * 1e6)
            .collect();
        m.push(
            "session.job_overhead_us",
            crate::stats::median(&overheads),
            "us",
        );
        m.push(
            "bound.analyze_ms",
            track.median_per_call_ms("bound.analyze"),
            "ms",
        );
    }
}

/// The channel map for `channels`, derived once per query (the session
/// caches it per plan the same way); a derivation is timed as a
/// `channel.map` span when `rec` is given.
fn channel_map(
    rec: Option<&mut Recorder>,
    schedule: &Schedule,
    maps: &mut Vec<(usize, ChannelMap)>,
    channels: usize,
) -> ChannelMap {
    if let Some((_, map)) = maps.iter().find(|(c, _)| *c == channels) {
        return map.clone();
    }
    let derive = || schedule.channel_map(channels);
    let map = match rec {
        Some(rec) => rec.span("channel.map", derive),
        None => derive(),
    };
    maps.push((channels, map.clone()));
    map
}

/// Mean |simulated / paper - 1| of the OC-over-MP speedup with evks on-chip
/// at each benchmark's paper OCbase bandwidth. Paper values from Table IV,
/// as quoted in `crates/ciflow-bench/src/bin/table4_ocbase.rs`.
pub fn model_err_table4() -> Result<f64, String> {
    const PAPER: [(HksBenchmark, f64, f64); 5] = [
        (HksBenchmark::BTS1, 25.6, 1.30),
        (HksBenchmark::BTS2, 12.8, 2.42),
        (HksBenchmark::BTS3, 32.0, 1.37),
        (HksBenchmark::ARK, 8.0, 4.16),
        (HksBenchmark::DPRIVE, 12.8, 2.96),
    ];
    let session = Session::new();
    let mut errors = Vec::with_capacity(PAPER.len());
    for (benchmark, ocbase_gbps, paper_speedup) in PAPER {
        let rpu = RpuConfig::ciflow_with_policy(EvkPolicy::OnChip).with_bandwidth(ocbase_gbps);
        let runtime = |dataflow: Dataflow| {
            session
                .run_job(&Job::new(benchmark, dataflow).with_rpu(rpu.clone()))
                .map(|o| o.stats.runtime_seconds)
                .map_err(err)
        };
        let speedup = runtime(Dataflow::MaxParallel)? / runtime(Dataflow::OutputCentric)?;
        errors.push((speedup / paper_speedup - 1.0).abs());
    }
    Ok(crate::stats::mean(&errors))
}
