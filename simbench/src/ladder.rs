//! `analytic_ladder`: closed-form sweeps on a fresh session — a seeded
//! 1000-point bandwidth ladder over the fused heterogeneous pipeline
//! `Workload::rescaling_chain(BTS2, 6)` with evks streamed. A call deals the
//! ladder round-robin to the three dataflows (MP, DC, OC, in seeded order)
//! and sweeps each on its share, so that every call does the same work:
//! cycling one dataflow per call mixes three call sizes, and the quantiles
//! of such a mix jump between them.

use crate::rng::Rng;
use crate::span::{Recorder, Track};
use crate::{err, Metrics, Sample, Workload};
use ciflow::api::{Job, Session, StrategyRegistry};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::schedule::ScheduleConfig;
use ciflow::sweep::try_analytic_sweep_in;
use ciflow::workload::{build_workload, PipelineMode, Workload as Pipeline};
use rpu::{EvkPolicy, RpuConfig, RpuEngine, MIB};

/// Ladder points per call, over all three dataflows.
const POINTS: usize = 1000;
/// The ladder's low end is drawn from this range (GB/s), in one of
/// `LOW_END_BANDS` log-bands ...
const LOW_END_GBPS: (f64, f64) = (8.0, 16.0);
const LOW_END_BANDS: usize = 16;
/// ... and its high end this many times the low end, so every ladder spans
/// the same bandwidth ratio.
const SPAN: f64 = 64.0;
/// Ladder points re-run through the engine per sweep.
const CHECKED_POINTS: usize = 2;

pub struct AnalyticLadder {
    pipeline: Pipeline,
}

pub struct Input {
    /// Each dataflow with its share of the ladder, in sweep order.
    sweeps: Vec<(Dataflow, Vec<f64>)>,
    /// Indices into every share.
    checked: [usize; CHECKED_POINTS],
}

fn rpu(bandwidth_gbps: f64) -> RpuConfig {
    RpuConfig::ciflow_with_policy(EvkPolicy::Streamed)
        .with_bandwidth(bandwidth_gbps)
        .with_modops(1.0)
}

/// One sweep's runtime and bound curves, in ms.
pub struct Curves {
    runtime_ms: Vec<f64>,
    bound_ms: Vec<f64>,
}

pub struct Output {
    /// One entry per sweep, in `Input::sweeps` order.
    sweeps: Vec<Curves>,
    /// The session the sweeps ran in (untraced calls), whose cached plans
    /// the check re-runs points on.
    session: Option<Session>,
}

impl Workload for AnalyticLadder {
    const NAME: &'static str = "analytic_ladder";
    const CALLS_PER_SECOND: f64 = 3.6;
    type Input = Input;
    type Output = Output;

    fn setup(_rec: &mut Recorder) -> Result<Self, String> {
        Ok(Self {
            pipeline: Pipeline::rescaling_chain(HksBenchmark::BTS2, 6),
        })
    }

    fn input(&self, seed: u64, call: usize) -> Input {
        let mut rng = Rng::for_call(seed, Self::NAME, call);
        // Stratified by call index: call i draws its low end from the
        // (i mod 16)-th of 16 equal log-bands, so a run's simulated means
        // barely depend on the seed.
        let (min, max) = LOW_END_GBPS;
        let band = (call % LOW_END_BANDS) as f64 + rng.unit();
        let lo = min * (max / min).powf(band / LOW_END_BANDS as f64);
        let ladder: Vec<f64> = (0..POINTS)
            .map(|i| lo * SPAN.powf(i as f64 / (POINTS - 1) as f64))
            .collect();
        let mut dataflows = Dataflow::all();
        rng.shuffle(&mut dataflows);
        let sweeps = dataflows
            .into_iter()
            .enumerate()
            .map(|(d, dataflow)| {
                let share = ladder.iter().skip(d).step_by(dataflows.len());
                (dataflow, share.copied().collect())
            })
            .collect();
        let shortest = (POINTS / dataflows.len()) as u64;
        let checked = [0; CHECKED_POINTS].map(|_| (rng.next_u64() % shortest) as usize);
        Input { sweeps, checked }
    }

    fn call(&self, input: &Input) -> Result<Output, String> {
        let session = Session::new();
        let sweeps = input
            .sweeps
            .iter()
            .map(|(dataflow, ladder)| {
                let sweep = try_analytic_sweep_in(
                    &session,
                    &self.pipeline,
                    *dataflow,
                    ladder,
                    EvkPolicy::Streamed,
                    1.0,
                    PipelineMode::Fused,
                )
                .map_err(err)?;
                Ok(Curves {
                    runtime_ms: sweep.series.points.iter().map(|p| p.runtime_ms).collect(),
                    bound_ms: sweep.bound_ms,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Output {
            sweeps,
            session: Some(session),
        })
    }

    fn traced_call(&self, input: &Input, rec: &mut Recorder) -> Result<Output, String> {
        let registry = StrategyRegistry::builtin();
        let sweeps = input
            .sweeps
            .iter()
            .map(|(dataflow, ladder)| self.traced_sweep(&registry, *dataflow, ladder, rec))
            .collect::<Result<_, String>>()?;
        Ok(Output {
            sweeps,
            session: None,
        })
    }

    /// Per sweep: two seeded ladder points re-run with `Session::run_job`
    /// match the closed form bit for bit, and the bound is at or below the
    /// runtime at every point.
    fn check(&self, input: &Input, output: Output) -> Result<Sample, String> {
        if output.sweeps.len() != input.sweeps.len() {
            return Err(format!(
                "{} sweeps for {} dataflows",
                output.sweeps.len(),
                input.sweeps.len()
            ));
        }
        let session = output.session.unwrap_or_default();
        let mut sample = Sample::default();
        for ((dataflow, ladder), curves) in input.sweeps.iter().zip(&output.sweeps) {
            let (dataflow, n) = (*dataflow, ladder.len());
            let name = dataflow.short_name();
            if curves.runtime_ms.len() != n || curves.bound_ms.len() != n {
                return Err(format!(
                    "{name}: {} runtimes and {} bounds for {n} points",
                    curves.runtime_ms.len(),
                    curves.bound_ms.len()
                ));
            }
            let mut dram_mib = f64::NAN;
            for &k in &input.checked {
                let bw = ladder[k];
                let job = Job::workload(self.pipeline.clone(), dataflow, PipelineMode::Fused)
                    .with_rpu(rpu(bw));
                let run = session.run_job(&job).map_err(err)?;
                if run.runtime_ms().to_bits() != curves.runtime_ms[k].to_bits() {
                    return Err(format!(
                        "{name} at {bw} GB/s: engine {} ms, closed form {} ms",
                        run.runtime_ms(),
                        curves.runtime_ms[k]
                    ));
                }
                dram_mib = run.dram_mib();
            }
            sample.units += n as u64;
            for (k, (&runtime, &bound)) in
                curves.runtime_ms.iter().zip(&curves.bound_ms).enumerate()
            {
                if !(bound > 0.0 && bound <= runtime) {
                    return Err(format!(
                        "{name}: bound {bound} ms above runtime {runtime} ms at {} GB/s",
                        ladder[k]
                    ));
                }
                sample.runtime_ms.push(runtime);
                // Traffic does not depend on bandwidth: every point of one
                // schedule moves the bytes the checked runs measured.
                sample.dram_mib.push(dram_mib);
                sample.goodput.push(bound / runtime);
            }
        }
        Ok(sample)
    }

    fn layer_metrics(track: &Track, m: &mut Metrics) {
        let points = track.count_in_calls("analytic.eval", "points").max(1) as f64;
        m.push(
            "workload.build_ms",
            track.median_per_call_ms("workload.build"),
            "ms",
        );
        m.push(
            "analytic.derive_ms",
            track.median_per_call_ms("analytic.derive"),
            "ms",
        );
        m.push(
            "analytic.segments",
            track.count_per_call("analytic.derive", "segments"),
            "count",
        );
        m.push(
            "analytic.grant_checks",
            track.count_per_call("analytic.derive", "grant_checks"),
            "count",
        );
        m.push(
            "analytic.fallback_frac",
            track.count_in_calls("analytic.eval", "fallbacks") as f64 / points,
            "fraction",
        );
        m.push(
            "analytic.eval_ns_per_point",
            track.ns_per("analytic.eval", "points"),
            "ns",
        );
        m.push(
            "bound.curve_us_per_point",
            track.ns_per("bound.curve", "points") / 1e3,
            "us",
        );
    }
}

impl AnalyticLadder {
    /// The work of one `try_analytic_sweep_in`, entry point by entry point.
    fn traced_sweep(
        &self,
        registry: &StrategyRegistry,
        dataflow: Dataflow,
        ladder: &[f64],
        rec: &mut Recorder,
    ) -> Result<Curves, String> {
        let strategy = registry.get(dataflow.short_name()).map_err(err)?;
        let config = ScheduleConfig::with_data_memory(32 * MIB, EvkPolicy::Streamed);
        let built = rec
            .span("workload.build", || {
                build_workload(
                    &self.pipeline,
                    strategy.as_ref(),
                    &config,
                    PipelineMode::Fused,
                )
            })
            .map_err(err)?;
        rec.count("tasks", built.schedule.graph.len() as u64);
        let graph = &built.schedule.graph;
        let lo = ladder.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ladder.iter().copied().fold(0.0, f64::max);
        let rpu = rpu(lo);
        let map = rec.span("channel.map", || built.schedule.channel_map(1));
        let timeline = rec
            .span("analytic.derive", || {
                RpuEngine::new(rpu.clone())
                    .with_channel_map(map)
                    .analyze(graph, lo, hi)
            })
            .map_err(err)?;
        rec.count("segments", timeline.segments().len() as u64);
        rec.count(
            "grant_checks",
            timeline
                .segments()
                .iter()
                .map(rpu::Segment::grant_checks)
                .sum::<usize>() as u64,
        );
        let stats = rec.span("analytic.eval", || timeline.evaluate_many(ladder));
        rec.count("points", stats.len() as u64);
        rec.count("fallbacks", timeline.fallback_evaluations() as u64);
        // The sweep derives the bound's placement from the schedule afresh.
        let map = rec.span("channel.map", || built.schedule.channel_map(1));
        let engine = RpuEngine::new(rpu).with_channel_map(map);
        let knee = rec.span("bound.analyze", || {
            engine.bounds(graph).knee.effective_knee_gbps()
        });
        std::hint::black_box(knee);
        let bound = rec.span("bound.curve", || {
            rpu::bound::bound_curve(&engine, graph, ladder)
        });
        rec.count("points", bound.len() as u64);
        Ok(Curves {
            runtime_ms: stats.iter().map(rpu::ExecutionStats::runtime_ms).collect(),
            bound_ms: bound.iter().map(|s| s * 1e3).collect(),
        })
    }
}
