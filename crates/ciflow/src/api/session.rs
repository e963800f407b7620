//! Builder-style batch execution of HKS runs on the RPU model.

use super::registry::StrategyRegistry;
use super::strategy::ScheduleStrategy;
use crate::benchmark::HksBenchmark;
use crate::dataflow::Dataflow;
use crate::error::CiflowError;
use crate::hks_shape::HksShape;
use crate::schedule::{Schedule, ScheduleConfig};
use crate::workload::{build_workload, PipelineMode, Workload};
use rpu::analytic::ParametricTimeline;
use rpu::{
    BoundAnalysis, ChannelMap, EvkPolicy, ExecPlan, ExecutionStats, ExecutionTrace, RpuConfig,
    RpuEngine, TraceMode,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a session cache. Every cache holds immutable derived data inserted
/// whole, so a panic elsewhere while the lock was held cannot have left an
/// entry half-written: a poisoned lock is recovered, not propagated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a job names its strategy: a name resolved through the session's
/// [`StrategyRegistry`] at run time. A custom strategy is registered with
/// [`Session::register`] and named like a built-in.
#[derive(Debug, Clone)]
pub enum StrategySpec {
    /// A full or short registry name (case-insensitive).
    Named(String),
}

impl From<&str> for StrategySpec {
    fn from(name: &str) -> Self {
        StrategySpec::Named(name.to_string())
    }
}

impl From<String> for StrategySpec {
    fn from(name: String) -> Self {
        StrategySpec::Named(name)
    }
}

impl From<Dataflow> for StrategySpec {
    fn from(dataflow: Dataflow) -> Self {
        StrategySpec::Named(dataflow.short_name().to_string())
    }
}

impl StrategySpec {
    /// The name this spec would be displayed under: the requested registry
    /// name.
    pub fn display_name(&self) -> String {
        let StrategySpec::Named(name) = self;
        name.clone()
    }
}

/// What a job asks the schedule layer to build: one kernel at a parameter
/// point, or a pipeline over an expanded kernel ladder. Together with the
/// strategy and the [`ScheduleConfig`] knobs this fully determines the built
/// schedule, so it is the work half of a [`ScheduleKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum WorkKey {
    /// A single key switch of one benchmark.
    Single(HksBenchmark),
    /// A workload pipeline: the expanded per-kernel benchmark ladder plus the
    /// stitching mode. `build_workload` depends on the workload only through
    /// these (the name is cosmetic), so two workloads expanding to the same
    /// ladder share a cache entry by design.
    Pipeline(Vec<HksBenchmark>, PipelineMode),
}

/// Cache key of one built schedule template: everything schedule construction
/// reads. Bandwidth, MODOPS and channel count are deliberately absent — they
/// shape execution, not the schedule — which is exactly why one template
/// serves every point of a bandwidth sweep.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ScheduleKey {
    /// Identity of the strategy *object* (the thin part of its `Arc`
    /// pointer). Names are not used: clones of a session share one cache but
    /// can hold different registries, so one short name may resolve to two
    /// strategies. The cached entry holds the `Arc` alive, so the address
    /// cannot be recycled while the key exists.
    strategy: usize,
    evk_policy: EvkPolicy,
    data_memory_bytes: u64,
    work: WorkKey,
}

impl ScheduleKey {
    fn new(strategy: &Arc<dyn ScheduleStrategy>, config: &ScheduleConfig, work: WorkKey) -> Self {
        Self {
            strategy: Arc::as_ptr(strategy) as *const () as usize,
            evk_policy: config.evk_policy,
            data_memory_bytes: config.data_memory_bytes,
            work,
        }
    }
}

/// Cache key of one derived [`ParametricTimeline`] within a plan: everything
/// *besides* the schedule that shapes the timeline. Bandwidth itself is the
/// timeline's free variable; only the analyzed range is keyed (by bits, so
/// identical ranges hit and NaN can never poison the key).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TimelineKey {
    channels: usize,
    modops_bits: u64,
    lo_bits: u64,
    hi_bits: u64,
}

/// A built schedule template plus everything derived from it that timing
/// parameters cannot change: pipeline metadata and the per-channel-count
/// execution plans.
struct CachedPlan {
    /// Keeps the keyed strategy alive so its address (the cache key) cannot
    /// be reused by a different strategy while this entry exists.
    _strategy: Arc<dyn ScheduleStrategy>,
    schedule: Arc<Schedule>,
    kernels: usize,
    kernel_benchmarks: Vec<HksBenchmark>,
    forwarded_bytes: u64,
    /// Execution plans compiled from the schedule, keyed by channel count,
    /// so jobs sharing a schedule compile it once per channel count. The
    /// plans share one channel-independent half, and with it the schedule's
    /// parsed memory labels.
    plans: Mutex<HashMap<usize, Arc<ExecPlan>>>,
    /// The schedule's `(evk, total)` memory traffic every multi-channel map
    /// is split by, scanned on the first multi-channel plan.
    evk_traffic: OnceLock<(u64, u64)>,
    /// Parametric timelines derived from the schedule
    /// ([`Session::run_ladder`]), keyed by the non-bandwidth knobs and the
    /// ladder's range — deriving one costs a walk of the plan at the bottom
    /// of the range (or an engine run there, where the walk does not time
    /// the plan), so jobs sharing a schedule share it too.
    timelines: Mutex<HashMap<TimelineKey, Arc<ParametricTimeline>>>,
}

impl CachedPlan {
    /// The schedule's execution plan on `rpu`'s channel count.
    fn exec_plan(&self, rpu: &RpuConfig) -> Arc<ExecPlan> {
        let channels = rpu.memory_channel_count();
        let mut plans = lock(&self.plans);
        if let Some(plan) = plans.get(&channels) {
            return Arc::clone(plan);
        }
        let graph = &self.schedule.graph;
        let map = ChannelMap::evk_split(channels, || {
            *self.evk_traffic.get_or_init(|| self.schedule.evk_traffic())
        });
        let plan = Arc::new(match plans.values().next() {
            Some(sibling) => sibling.rechannel(graph, &map, channels),
            None => ExecPlan::new(graph, &map, channels),
        });
        plans.insert(channels, Arc::clone(&plan));
        plan
    }

    fn timeline(
        &self,
        rpu: &RpuConfig,
        lo_gbps: f64,
        hi_gbps: f64,
    ) -> Result<Arc<ParametricTimeline>, rpu::EngineError> {
        let key = TimelineKey {
            channels: rpu.memory_channel_count(),
            modops_bits: rpu.modops_per_second().to_bits(),
            lo_bits: lo_gbps.to_bits(),
            hi_bits: hi_gbps.to_bits(),
        };
        if let Some(timeline) = lock(&self.timelines).get(&key) {
            return Ok(Arc::clone(timeline));
        }
        let timeline = Arc::new(RpuEngine::new(rpu.clone()).analyze_plan(
            &self.schedule.graph,
            self.exec_plan(rpu),
            lo_gbps,
            hi_gbps,
        )?);
        Ok(Arc::clone(
            lock(&self.timelines).entry(key).or_insert(timeline),
        ))
    }
}

/// The session-level schedule cache, shared (via `Arc`) by clones of a
/// session and by every job of a batch.
type ScheduleCache = Arc<Mutex<HashMap<ScheduleKey, Arc<CachedPlan>>>>;

/// The session's most recent bound analysis, keyed by the plan it analyzed
/// (by identity; the slot keeps the plan alive, so the address cannot be
/// reused) and the bits of the two rates an analysis reads besides the plan:
/// `modops_per_second()` and the configured bandwidth, which it reports
/// verbatim. One slot is enough for the `verify_job`-then-`bounds_job`
/// pattern and retains at most one analysis.
struct BoundSlot {
    plan: Arc<ExecPlan>,
    rates: (u64, u64),
    analysis: Arc<BoundAnalysis>,
}

/// A multi-kernel workload attached to a [`Job`]: the pipeline description
/// plus the mode its kernels are stitched under.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// The kernel sequence to pipeline.
    pub workload: Workload,
    /// Fused pipeline or back-to-back baseline.
    pub mode: PipelineMode,
}

/// One unit of work in a [`Session`] batch: a benchmark scheduled by a
/// strategy, optionally on a job-specific RPU configuration. A job runs
/// either one HKS kernel (the default) or a whole multi-kernel
/// [`Workload`] pipeline.
#[derive(Debug, Clone)]
pub struct Job {
    /// The parameter point to run.
    pub benchmark: HksBenchmark,
    /// The strategy that schedules it.
    pub strategy: StrategySpec,
    /// Overrides the session RPU configuration when set.
    pub rpu: Option<RpuConfig>,
    /// Optional caller-supplied label, reported back in [`JobResult`].
    pub label: Option<String>,
    /// When set, the job runs this multi-kernel pipeline instead of a single
    /// key switch.
    pub workload: Option<WorkloadSpec>,
}

impl Job {
    /// A job running `benchmark` under `strategy` on the session RPU.
    pub fn new(benchmark: HksBenchmark, strategy: impl Into<StrategySpec>) -> Self {
        Self {
            benchmark,
            strategy: strategy.into(),
            rpu: None,
            label: None,
            workload: None,
        }
    }

    /// A job running a multi-kernel `workload` pipeline under `strategy` in
    /// the given [`PipelineMode`].
    pub fn workload(
        workload: Workload,
        strategy: impl Into<StrategySpec>,
        mode: PipelineMode,
    ) -> Self {
        Self {
            benchmark: workload.benchmark,
            strategy: strategy.into(),
            rpu: None,
            label: None,
            workload: Some(WorkloadSpec { workload, mode }),
        }
    }

    /// Runs this job on its own RPU configuration instead of the session's.
    pub fn with_rpu(mut self, rpu: RpuConfig) -> Self {
        self.rpu = Some(rpu);
        self
    }

    /// Attaches a caller-supplied label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The parameter point the job actually runs: a workload job always runs
    /// its workload's benchmark, even if the (public) `benchmark` field was
    /// mutated to disagree.
    fn effective_benchmark(&self) -> HksBenchmark {
        self.workload
            .as_ref()
            .map(|spec| spec.workload.benchmark)
            .unwrap_or(self.benchmark)
    }

    fn strategy_name(&self) -> String {
        self.strategy.display_name()
    }
}

/// The outcome of a *symbolic* job run: the schedule-derived
/// [`ParametricTimeline`] plus the same scheduling metadata a [`JobOutput`]
/// carries, minus the single-bandwidth `stats`/`trace` — those are produced
/// on demand by evaluating the timeline at a bandwidth of interest.
#[derive(Debug, Clone)]
pub struct AnalyticOutput {
    /// The parameter point that was scheduled.
    pub benchmark: HksBenchmark,
    /// Short name of the strategy that scheduled it.
    pub strategy: String,
    /// The RPU configuration the timeline was derived from. Its
    /// `dram_bandwidth_gbps` is not a restriction: evaluation is bit-exact
    /// at any bandwidth from the bottom of the timeline's
    /// [`bandwidth_range_gbps`](ParametricTimeline::bandwidth_range_gbps)
    /// up — a replay on one memory channel, an engine run per point on
    /// several.
    pub rpu: RpuConfig,
    /// The schedule the timeline describes, shared with the session cache.
    pub schedule: Arc<Schedule>,
    /// Number of HKS kernel invocations the schedule covered.
    pub kernels: usize,
    /// The parameter point of each kernel invocation, in execution order.
    pub kernel_benchmarks: Vec<HksBenchmark>,
    /// DRAM traffic eliminated by on-chip forwarding, in bytes.
    pub forwarded_bytes: u64,
    /// The parametric timeline; shared with the session's plan cache, so
    /// repeated ladders of an identically-keyed job are lookups.
    pub timeline: Arc<ParametricTimeline>,
}

/// The successful outcome of one job.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The parameter point that ran.
    pub benchmark: HksBenchmark,
    /// Short name of the strategy that scheduled it.
    pub strategy: String,
    /// The RPU configuration the job executed on.
    pub rpu: RpuConfig,
    /// Aggregate execution statistics (runtime, idle fractions, traffic).
    pub stats: ExecutionStats,
    /// Per-task trace (for timing diagrams). `None` unless the session ran
    /// with [`TraceMode::Full`] (see [`Session::with_trace`]) — stats-only
    /// execution skips the per-task record allocation entirely.
    pub trace: Option<ExecutionTrace>,
    /// The schedule that was executed, shared with the session's schedule
    /// cache: jobs differing only in timing parameters (bandwidth, MODOPS,
    /// channel count) hand back the same `Arc`.
    pub schedule: Arc<Schedule>,
    /// Number of HKS kernel invocations the schedule covered (1 for a plain
    /// job, the pipeline length for a workload job). Always equals
    /// `kernel_benchmarks.len()`.
    pub kernels: usize,
    /// The parameter point of each kernel invocation, in execution order —
    /// the per-kernel shape ladder of a heterogeneous pipeline (a plain job
    /// reports its single benchmark; a homogeneous workload repeats one).
    pub kernel_benchmarks: Vec<HksBenchmark>,
    /// DRAM traffic the fusion layer eliminated by forwarding the chained
    /// polynomial on-chip, in bytes (0 for plain jobs and back-to-back
    /// pipelines).
    pub forwarded_bytes: u64,
}

impl JobOutput {
    /// Runtime in milliseconds.
    pub fn runtime_ms(&self) -> f64 {
        self.stats.runtime_ms()
    }

    /// Runtime in milliseconds amortized per HKS kernel invocation.
    pub fn runtime_ms_per_kernel(&self) -> f64 {
        self.stats.runtime_ms() / self.kernels as f64
    }

    /// Total DRAM traffic in MiB.
    pub fn dram_mib(&self) -> f64 {
        self.stats.total_bytes() as f64 / rpu::MIB as f64
    }
}

/// One entry of a [`BatchOutcome`]: the job description plus its result.
#[derive(Debug)]
pub struct JobResult {
    /// Label identifying the job (caller-supplied or generated).
    pub label: String,
    /// The parameter point of the job.
    pub benchmark: HksBenchmark,
    /// The strategy name the job requested.
    pub strategy: String,
    /// The result: output on success, a typed error otherwise.
    pub outcome: Result<JobOutput, CiflowError>,
}

/// One entry of a [`Session::verify`] sweep: the job description plus its
/// static-analysis outcome.
#[derive(Debug)]
pub struct VerifyResult {
    /// Label identifying the job (caller-supplied or generated).
    pub label: String,
    /// The parameter point of the job.
    pub benchmark: HksBenchmark,
    /// The strategy name the job requested.
    pub strategy: String,
    /// The lint report, or the error that prevented building the schedule.
    pub outcome: Result<crate::lint::LintReport, CiflowError>,
}

/// The per-job results of one [`Session::run`] batch, in submission order.
#[derive(Debug, Default)]
pub struct BatchOutcome {
    /// One entry per submitted job, in submission order.
    pub results: Vec<JobResult>,
}

impl BatchOutcome {
    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True if the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// True if every job succeeded.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.outcome.is_ok())
    }

    /// Unwraps every job into its output.
    ///
    /// # Errors
    ///
    /// Returns the first failure (by submission order) if any job failed.
    pub fn into_outputs(self) -> Result<Vec<JobOutput>, CiflowError> {
        self.results.into_iter().map(|r| r.outcome).collect()
    }
}

/// A builder-style batch runner: configure an RPU and a strategy registry,
/// queue jobs, and execute them all in parallel across cores.
///
/// ## Schedule caching
///
/// Sessions memoize built schedules: jobs that agree on strategy, parameter
/// point (or workload ladder and pipeline mode), evk policy and data-memory
/// size share one built [`Schedule`] — including its derived channel maps —
/// no matter how their bandwidth, MODOPS multiplier or channel count differ.
/// A bandwidth sweep therefore builds its task graph once, not once per
/// point. Strategies must be *deterministic* (same shape and config in, same
/// schedule out): the cache hands every identically-keyed job the first
/// schedule built, so that is an invariant of the [`ScheduleStrategy`]
/// contract, not an option. Debug builds lint every schedule the cache
/// builds and panic on an Error-severity finding.
///
/// ## Tracing
///
/// Batch execution is statistics-only by default; ask for per-task traces
/// with [`Session::with_trace`] when you need timing diagrams.
///
/// ## Panic boundary
///
/// One rule: a panic inside any single-job entry point —
/// [`Session::run_job`], [`Session::run_ladder`], [`Session::verify_job`]
/// or [`Session::bounds_job`] — is caught there and returned as
/// [`CiflowError::StrategyPanicked`] for that job. The boundary wraps the
/// whole entry point, so it holds for a panicking strategy and for an engine
/// panic on a malformed custom graph alike. Everything built on these entry
/// points (batches, every `sweep`, every `serve` run) inherits the rule and
/// never unwinds into its caller.
///
/// See the [module docs](crate::api) for an end-to-end example.
#[derive(Clone)]
pub struct Session {
    rpu: RpuConfig,
    registry: StrategyRegistry,
    jobs: Vec<Job>,
    trace: TraceMode,
    cache: ScheduleCache,
    bound_slot: Arc<Mutex<Option<BoundSlot>>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("rpu", &self.rpu)
            .field("registry", &self.registry)
            .field("jobs", &self.jobs)
            .field("trace", &self.trace)
            .field("cached_schedules", &lock(&self.cache).len())
            .finish()
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A session on the paper's baseline RPU with the built-in strategies.
    pub fn new() -> Self {
        Self {
            rpu: RpuConfig::ciflow_baseline(),
            registry: StrategyRegistry::builtin(),
            jobs: Vec::new(),
            trace: TraceMode::StatsOnly,
            cache: Arc::new(Mutex::new(HashMap::new())),
            bound_slot: Arc::new(Mutex::new(None)),
        }
    }

    /// Replaces the session RPU configuration (jobs without their own
    /// configuration run on this one).
    pub fn with_rpu(mut self, rpu: RpuConfig) -> Self {
        self.rpu = rpu;
        self
    }

    /// Selects how much per-task detail jobs record: [`TraceMode::Full`]
    /// attaches an [`ExecutionTrace`] to every [`JobOutput`],
    /// [`TraceMode::StatsOnly`] (the default) skips the per-task records —
    /// measurably cheaper for sweeps that only read aggregate numbers.
    pub fn with_trace(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }

    /// Registers an additional strategy with the session's registry.
    ///
    /// # Errors
    ///
    /// Returns [`CiflowError::DuplicateStrategy`] if the name is taken.
    pub fn register(mut self, strategy: Arc<dyn ScheduleStrategy>) -> Result<Self, CiflowError> {
        self.registry.register(strategy)?;
        Ok(self)
    }

    /// The session's RPU configuration.
    pub fn rpu(&self) -> &RpuConfig {
        &self.rpu
    }

    /// The session's strategy registry.
    pub fn registry(&self) -> &StrategyRegistry {
        &self.registry
    }

    /// Queues one `(benchmark, strategy)` job on the session RPU.
    pub fn job(mut self, benchmark: HksBenchmark, strategy: impl Into<StrategySpec>) -> Self {
        self.jobs.push(Job::new(benchmark, strategy));
        self
    }

    /// Queues one fully-described [`Job`].
    pub fn push(mut self, job: Job) -> Self {
        self.jobs.push(job);
        self
    }

    /// Queues many jobs at once.
    pub fn jobs(mut self, jobs: impl IntoIterator<Item = Job>) -> Self {
        self.jobs.extend(jobs);
        self
    }

    /// Number of queued jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Executes every queued job and returns per-job results in submission
    /// order.
    ///
    /// The jobs fan out across all cores through a shared work queue; each
    /// job stays isolated — a failing (or even panicking) strategy produces
    /// an `Err` entry for its job and leaves the rest of the batch
    /// untouched.
    pub fn run(&self) -> BatchOutcome {
        self.warm_schedule_cache();
        let indexed: Vec<&Job> = self.jobs.iter().collect();
        let results = crate::parallel::map(indexed, |job| JobResult {
            label: self.job_label(job),
            benchmark: job.effective_benchmark(),
            strategy: job.strategy_name(),
            outcome: self.run_job(job),
        });
        BatchOutcome { results }
    }

    /// Pre-builds the schedule template of every *distinct* [`ScheduleKey`]
    /// in the queued batch (in parallel), so the subsequent fan-out hits the
    /// cache instead of racing to build the same template on every worker.
    /// Build and resolution failures are swallowed here — the owning job
    /// re-encounters them and reports them as its own result.
    fn warm_schedule_cache(&self) {
        let mut seen = std::collections::HashSet::new();
        let distinct: Vec<&Job> = self
            .jobs
            .iter()
            .filter(|job| {
                let Ok(strategy) = self.job_strategy(job) else {
                    return false;
                };
                let config = self.job_schedule_config(job);
                seen.insert(ScheduleKey::new(&strategy, &config, Self::work_key(job)))
            })
            .collect();
        if distinct.len() > 1 || self.jobs.len() > distinct.len() {
            crate::parallel::map(distinct, |job| {
                let _ = catch_unwind(AssertUnwindSafe(|| self.plan_for(job)));
            });
        }
    }

    /// Resolves the strategy a job names through the session's registry.
    fn job_strategy(&self, job: &Job) -> Result<Arc<dyn ScheduleStrategy>, CiflowError> {
        let StrategySpec::Named(name) = &job.strategy;
        self.registry.get(name)
    }

    /// The schedule-affecting knobs of the configuration a job runs on.
    fn job_schedule_config(&self, job: &Job) -> ScheduleConfig {
        let rpu = job.rpu.as_ref().unwrap_or(&self.rpu);
        ScheduleConfig {
            data_memory_bytes: rpu.vector_memory_bytes,
            evk_policy: rpu.evk_policy,
        }
    }

    /// The work half of a job's schedule key.
    fn work_key(job: &Job) -> WorkKey {
        match &job.workload {
            Some(spec) => WorkKey::Pipeline(spec.workload.kernel_benchmarks(), spec.mode),
            None => WorkKey::Single(job.benchmark),
        }
    }

    /// Returns the job's built schedule plan, from the cache when an
    /// identically-keyed job already built it (or is pre-built by
    /// [`Session::run`]'s warm-up pass), building and inserting it otherwise.
    fn plan_for(&self, job: &Job) -> Result<Arc<CachedPlan>, CiflowError> {
        let strategy = self.job_strategy(job)?;
        let config = self.job_schedule_config(job);
        let key = ScheduleKey::new(&strategy, &config, Self::work_key(job));
        if let Some(plan) = lock(&self.cache).get(&key) {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(self.build_plan(job, &strategy, &config)?);
        self.debug_lint_plan(job, &plan);
        // First insert wins, so concurrent cold builders converge on one
        // shared plan (and one shared `Arc<Schedule>` identity).
        Ok(Arc::clone(lock(&self.cache).entry(key).or_insert(plan)))
    }

    /// The configuration a job runs on, validated once at the entry of every
    /// single-job path.
    fn job_rpu<'a>(&'a self, job: &'a Job) -> Result<&'a RpuConfig, CiflowError> {
        let rpu = job.rpu.as_ref().unwrap_or(&self.rpu);
        rpu.validate()
            .map_err(|message| CiflowError::InvalidConfig { message })?;
        Ok(rpu)
    }

    /// The bound analysis of `plan`'s schedule on `rpu`, from the session's
    /// analysis slot when the last analysis was of the same plan at the same
    /// rates (`verify_job`'s performance pass followed by `bounds_job`).
    fn bound_analysis(
        &self,
        cached: &CachedPlan,
        plan: &Arc<ExecPlan>,
        rpu: &RpuConfig,
    ) -> Arc<BoundAnalysis> {
        let rates = (
            rpu.modops_per_second().to_bits(),
            rpu.dram_bandwidth_gbps.to_bits(),
        );
        if let Some(slot) = lock(&self.bound_slot).as_ref() {
            if Arc::ptr_eq(&slot.plan, plan) && slot.rates == rates {
                return Arc::clone(&slot.analysis);
            }
        }
        let engine = RpuEngine::new(rpu.clone());
        let analysis = Arc::new(rpu::bound::analyze_plan(
            &engine,
            &cached.schedule.graph,
            plan,
        ));
        *lock(&self.bound_slot) = Some(BoundSlot {
            plan: Arc::clone(plan),
            rates,
            analysis: Arc::clone(&analysis),
        });
        analysis
    }

    /// Actually builds a job's schedule template (cache miss path).
    fn build_plan(
        &self,
        job: &Job,
        strategy: &Arc<dyn ScheduleStrategy>,
        config: &ScheduleConfig,
    ) -> Result<CachedPlan, CiflowError> {
        let (schedule, kernels, kernel_benchmarks, forwarded_bytes) = match &job.workload {
            Some(spec) => {
                let pipeline =
                    build_workload(&spec.workload, strategy.as_ref(), config, spec.mode)?;
                (
                    pipeline.schedule,
                    pipeline.kernels,
                    pipeline.kernel_benchmarks,
                    pipeline.forwarded_bytes,
                )
            }
            None => {
                let shape = HksShape::new(job.benchmark);
                (strategy.build(&shape, config)?, 1, vec![job.benchmark], 0)
            }
        };
        Ok(CachedPlan {
            _strategy: Arc::clone(strategy),
            schedule: Arc::new(schedule),
            kernels,
            kernel_benchmarks,
            forwarded_bytes,
            plans: Mutex::new(HashMap::new()),
            evk_traffic: OnceLock::new(),
            timelines: Mutex::new(HashMap::new()),
        })
    }

    /// Debug-build guard on the schedule-build path: lint every freshly
    /// built plan against the job's target and panic on Error-severity
    /// findings, so broken strategies are caught where the schedule is
    /// constructed. Compiled out of release builds.
    fn debug_lint_plan(&self, job: &Job, plan: &CachedPlan) {
        if cfg!(debug_assertions) {
            let rpu = job.rpu.as_ref().unwrap_or(&self.rpu);
            let exec = plan.exec_plan(rpu);
            let report = crate::lint::lint_with(
                &plan.schedule,
                &plan.kernel_benchmarks,
                rpu,
                exec.channel_map(),
            );
            debug_assert!(
                !report.has_errors(),
                "strategy {} built a schedule that fails `ciflow::lint`:\n{report}",
                plan.schedule.strategy,
            );
        }
    }

    /// Statically verifies one job's schedule — structural, deadlock,
    /// buffer-hazard, capacity, placement and performance passes — against
    /// the configuration it would execute on, *without running it*. Builds
    /// (or fetches from the schedule cache) exactly the execution plan
    /// [`Session::run_job`] would run; the performance pass's bound
    /// analysis is kept for a following [`Session::bounds_job`].
    ///
    /// # Errors
    ///
    /// Returns [`CiflowError::InvalidConfig`] for a non-finite or
    /// non-positive bandwidth or MODOPS multiplier, and propagates
    /// strategy-resolution or schedule-construction failures; a schedule
    /// that merely *lints badly* is an `Ok` report with errors in it, so
    /// callers can gate on [`LintReport::has_errors`](crate::lint::LintReport::has_errors).
    pub fn verify_job(&self, job: &Job) -> Result<crate::lint::LintReport, CiflowError> {
        Self::isolated(job, || {
            let rpu = self.job_rpu(job)?;
            let cached = self.plan_for(job)?;
            let plan = cached.exec_plan(rpu);
            Ok(crate::lint::lint_plan(
                &cached.schedule,
                &cached.kernel_benchmarks,
                rpu,
                &plan,
                || self.bound_analysis(&cached, &plan, rpu),
            ))
        })
    }

    /// Statically verifies every queued job (in submission order) without
    /// executing any of them: the batch-shaped counterpart of
    /// [`Session::run`], with a [`LintReport`](crate::lint::LintReport) where
    /// the stats would be. Panicking strategies fail their own entry, like
    /// in `run`.
    pub fn verify(&self) -> Vec<VerifyResult> {
        self.jobs
            .iter()
            .map(|job| VerifyResult {
                label: self.job_label(job),
                benchmark: job.effective_benchmark(),
                strategy: job.strategy_name(),
                outcome: self.verify_job(job),
            })
            .collect()
    }

    /// Statically bounds one job: the provable makespan lower bound,
    /// critical path, slack and roofline knee of exactly the plan and
    /// placement [`Session::run_job`] would execute, *without running it*
    /// (see [`rpu::bound::analyze`] and `docs/BOUNDS.md`).
    ///
    /// # Errors
    ///
    /// Returns [`CiflowError::InvalidConfig`] for an invalid configuration
    /// (as [`Session::verify_job`]), and propagates strategy-resolution or
    /// schedule-construction failures.
    pub fn bounds_job(&self, job: &Job) -> Result<BoundAnalysis, CiflowError> {
        Self::isolated(job, || {
            let rpu = self.job_rpu(job)?;
            let cached = self.plan_for(job)?;
            let plan = cached.exec_plan(rpu);
            Ok(BoundAnalysis::clone(
                &self.bound_analysis(&cached, &plan, rpu),
            ))
        })
    }

    /// Executes a single job immediately, without queueing it.
    ///
    /// # Errors
    ///
    /// Returns [`CiflowError::InvalidConfig`] for an invalid configuration
    /// (as [`Session::verify_job`]), the job's [`CiflowError`] on
    /// strategy-resolution, schedule construction, or execution failure, and
    /// [`CiflowError::StrategyPanicked`] under the session's panic rule.
    pub fn run_job(&self, job: &Job) -> Result<JobOutput, CiflowError> {
        Self::isolated(job, || {
            let rpu = self.job_rpu(job)?.clone();
            let plan = self.plan_for(job)?;
            // Channel-aware placement: the schedule's label-encoded channel
            // hints become the plan's buffer-to-channel map (a no-op for the
            // default single-channel configuration). The plan is compiled
            // once per (schedule, channel count) and cached with the
            // schedule — jobs sharing a schedule never re-place or re-link
            // its tasks.
            let exec = plan.exec_plan(&rpu);
            let engine = RpuEngine::new(rpu.clone());
            let graph = &plan.schedule.graph;
            let (stats, trace) = match self.trace {
                TraceMode::Full => {
                    let result = engine.execute_plan(graph, &exec)?;
                    (result.stats, Some(result.trace))
                }
                TraceMode::StatsOnly => (engine.execute_stats_plan(graph, &exec)?, None),
            };
            Ok(JobOutput {
                benchmark: job.effective_benchmark(),
                strategy: plan.schedule.strategy.clone(),
                rpu,
                stats,
                trace,
                schedule: Arc::clone(&plan.schedule),
                kernels: plan.kernels,
                kernel_benchmarks: plan.kernel_benchmarks.clone(),
                forwarded_bytes: plan.forwarded_bytes,
            })
        })
    }

    /// Evaluates `job` at every bandwidth of a ladder, bit-identical to one
    /// [`Session::run_job`] per point: builds (or fetches) the same cached
    /// schedule plan `run_job` would use, derives its [`ParametricTimeline`]
    /// once over the ladder's `[min, max]` (see `docs/ANALYTIC.md`), and
    /// reads every point off it, in ladder order. The ladder may be unsorted
    /// and hold duplicates; equal bandwidths give bit-identical points. The
    /// job's RPU is taken as the caller set it (evk policy, MODOPS,
    /// channels); its own bandwidth is replaced by each ladder point.
    /// Timelines are cached with the plan, so repeated ladders over the same
    /// range of an identically-keyed job cost one lookup.
    ///
    /// This is the crate's one public way to a timeline: every
    /// runtime-vs-bandwidth curve (Figures 4–9, Tables IV–V) and every
    /// degraded service time of the serving layer comes from here. The
    /// returned timeline evaluates any bandwidth from the ladder's minimum
    /// up.
    ///
    /// # Errors
    ///
    /// [`CiflowError::InvalidConfig`] `"bandwidth ladder is empty"` for an
    /// empty ladder, for a ladder entry that is not finite and positive the
    /// message of [`RpuConfig::validate`], and for an invalid configuration
    /// as [`Session::verify_job`]; otherwise the same strategy-resolution,
    /// schedule-construction, engine and panic errors as
    /// [`Session::run_job`].
    pub fn run_ladder(
        &self,
        job: &Job,
        bandwidths: &[f64],
    ) -> Result<(AnalyticOutput, Vec<ExecutionStats>), CiflowError> {
        if bandwidths.is_empty() {
            return Err(CiflowError::InvalidConfig {
                message: "bandwidth ladder is empty".to_string(),
            });
        }
        for &bandwidth in bandwidths {
            rpu::config::validate_bandwidth(bandwidth)
                .map_err(|message| CiflowError::InvalidConfig { message })?;
        }
        let lo = bandwidths.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = bandwidths.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self::isolated(job, || {
            let rpu = self.job_rpu(job)?.clone();
            let plan = self.plan_for(job)?;
            let timeline = plan.timeline(&rpu, lo, hi)?;
            let stats = timeline.evaluate_many(bandwidths);
            let output = AnalyticOutput {
                benchmark: job.effective_benchmark(),
                strategy: plan.schedule.strategy.clone(),
                rpu,
                schedule: Arc::clone(&plan.schedule),
                kernels: plan.kernels,
                kernel_benchmarks: plan.kernel_benchmarks.clone(),
                forwarded_bytes: plan.forwarded_bytes,
                timeline,
            };
            Ok((output, stats))
        })
    }

    fn job_label(&self, job: &Job) -> String {
        if let Some(label) = &job.label {
            return label.clone();
        }
        let rpu = job.rpu.as_ref().unwrap_or(&self.rpu);
        let work = match &job.workload {
            Some(spec) => format!("{} [{}]", spec.workload.name, spec.mode),
            None => job.benchmark.name.to_string(),
        };
        format!(
            "{work}/{}@{}GB/s",
            job.strategy_name(),
            rpu.dram_bandwidth_gbps
        )
    }

    /// The session's one panic boundary (see "Panic boundary" on
    /// [`Session`]): runs the body of a single-job entry point on behalf of
    /// `job`, so a panic inside it fails that job with
    /// [`CiflowError::StrategyPanicked`] instead of unwinding into the
    /// caller.
    fn isolated<T>(
        job: &Job,
        f: impl FnOnce() -> Result<T, CiflowError>,
    ) -> Result<T, CiflowError> {
        catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            Err(CiflowError::StrategyPanicked {
                strategy: job.strategy_name(),
                message: panic_message(payload.as_ref()),
            })
        })
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu::EvkPolicy;

    #[test]
    fn verify_lints_queued_jobs_without_executing() {
        use crate::workload::{PipelineMode, Workload};

        let session = Session::new()
            .job(HksBenchmark::ARK, Dataflow::OutputCentric)
            .push(
                Job::workload(
                    Workload::rescaling_chain(HksBenchmark::BTS2, 3),
                    Dataflow::MaxParallel,
                    PipelineMode::Fused,
                )
                .with_rpu(RpuConfig::ciflow_baseline().with_memory_channels(4)),
            )
            .job(HksBenchmark::ARK, "zig-zag");
        let results = session.verify();
        assert_eq!(results.len(), 3);
        // Built and linted with no Error-severity finding.
        let clean = |r: &VerifyResult| matches!(&r.outcome, Ok(report) if !report.has_errors());
        assert!(clean(&results[0]), "{:?}", results[0].outcome);
        assert!(clean(&results[1]), "{:?}", results[1].outcome);
        // Unresolvable strategies fail their entry, like in `run`.
        assert!(!clean(&results[2]));
        assert!(matches!(
            results[2].outcome,
            Err(CiflowError::UnknownStrategy { .. })
        ));

        // verify_job reuses the session's schedule cache: the subsequent run
        // hands back the very same Arc'd schedule the verification linted.
        let job = Job::new(HksBenchmark::ARK, Dataflow::OutputCentric);
        let report = session.verify_job(&job).unwrap();
        assert!(!report.has_errors(), "{report}");
        let output = session.run_job(&job).unwrap();
        assert_eq!(output.strategy, "OC");
    }

    #[test]
    fn batch_runs_every_dataflow_benchmark_pair() {
        let mut session =
            Session::new().with_rpu(RpuConfig::ciflow_baseline().with_bandwidth(32.0));
        for benchmark in HksBenchmark::all() {
            for dataflow in Dataflow::all() {
                session = session.job(benchmark, dataflow);
            }
        }
        assert_eq!(session.job_count(), 15);
        let outcome = session.run();
        assert_eq!(outcome.len(), 15);
        assert!(
            outcome.all_ok(),
            "failures: {:?}",
            outcome
                .results
                .iter()
                .filter(|r| r.outcome.is_err())
                .count()
        );
        // Submission order is preserved.
        assert_eq!(outcome.results[0].strategy, "MP");
        assert_eq!(outcome.results[2].strategy, "OC");
        assert_eq!(outcome.results[0].benchmark, HksBenchmark::BTS1);
        for output in outcome.into_outputs().unwrap() {
            assert!(output.runtime_ms() > 0.0);
        }
    }

    #[test]
    fn unknown_strategy_fails_its_job_only() {
        let outcome = Session::new()
            .job(HksBenchmark::ARK, "OC")
            .job(HksBenchmark::ARK, "zig-zag")
            .run();
        assert_eq!(outcome.len(), 2);
        assert!(outcome.results[0].outcome.is_ok());
        assert!(matches!(
            outcome.results[1].outcome,
            Err(CiflowError::UnknownStrategy { .. })
        ));
        assert!(!outcome.all_ok());
        assert_eq!(
            outcome.results.iter().filter(|r| r.outcome.is_ok()).count(),
            1
        );
        assert_eq!(
            outcome
                .results
                .iter()
                .filter(|r| r.outcome.is_err())
                .count(),
            1
        );
    }

    #[test]
    fn per_job_rpu_overrides_the_session_rpu() {
        let outcome = Session::new()
            .with_rpu(RpuConfig::ciflow_baseline().with_bandwidth(64.0))
            .push(Job::new(HksBenchmark::ARK, "OC"))
            .push(
                Job::new(HksBenchmark::ARK, "OC")
                    .with_rpu(RpuConfig::ciflow_baseline().with_bandwidth(8.0))
                    .with_label("slow-memory"),
            )
            .run();
        let outputs: Vec<&JobOutput> = (outcome.results.iter())
            .map(|r| r.outcome.as_ref().unwrap())
            .collect();
        assert_eq!(outputs.len(), 2);
        assert!(outputs[1].runtime_ms() > outputs[0].runtime_ms());
        // Each output reports the configuration it actually executed on.
        assert_eq!(
            outputs[1].rpu,
            RpuConfig::ciflow_baseline().with_bandwidth(8.0)
        );
        assert_eq!(outcome.results[1].label, "slow-memory");
    }

    #[test]
    fn panicking_strategy_is_contained() {
        struct Exploding;
        impl ScheduleStrategy for Exploding {
            fn name(&self) -> &str {
                "exploding"
            }
            fn short_name(&self) -> &str {
                "BOOM"
            }
            fn build(
                &self,
                _shape: &HksShape,
                _config: &ScheduleConfig,
            ) -> Result<Schedule, CiflowError> {
                panic!("kaboom");
            }
        }
        let outcome = Session::new()
            .register(Arc::new(Exploding))
            .unwrap()
            .job(HksBenchmark::ARK, "BOOM")
            .job(HksBenchmark::ARK, "OC")
            .run();
        assert!(matches!(
            &outcome.results[0].outcome,
            Err(CiflowError::StrategyPanicked { message, .. }) if message.contains("kaboom")
        ));
        assert!(outcome.results[1].outcome.is_ok());
    }

    #[test]
    fn workload_jobs_run_in_batches_alongside_single_jobs() {
        let workload = Workload::rotation_batch(HksBenchmark::ARK, 4);
        let outcome = Session::new()
            .with_rpu(RpuConfig::ciflow_baseline().with_bandwidth(12.8))
            .job(HksBenchmark::ARK, "OC")
            .push(Job::workload(workload.clone(), "OC", PipelineMode::Fused))
            .push(Job::workload(workload, "OC", PipelineMode::BackToBack))
            .run();
        assert!(
            outcome.all_ok(),
            "failures: {:?}",
            outcome
                .results
                .iter()
                .filter(|r| r.outcome.is_err())
                .count()
        );
        let outputs: Vec<&JobOutput> = (outcome.results.iter())
            .map(|r| r.outcome.as_ref().unwrap())
            .collect();
        assert_eq!(outputs[0].kernels, 1);
        assert_eq!(outputs[1].kernels, 4);
        assert_eq!(outputs[2].kernels, 4);
        // Per-kernel shapes and forwarding are reported back.
        assert_eq!(outputs[0].kernel_benchmarks, vec![HksBenchmark::ARK]);
        assert_eq!(outputs[1].kernel_benchmarks, vec![HksBenchmark::ARK; 4]);
        assert_eq!(outputs[0].forwarded_bytes, 0);
        assert!(outputs[1].forwarded_bytes > 0, "fused ARK chain forwards");
        assert_eq!(outputs[2].forwarded_bytes, 0, "back-to-back never forwards");
        // The fused pipeline beats back-to-back, and per-kernel amortized
        // runtime beats the standalone kernel.
        assert!(outputs[1].runtime_ms() < outputs[2].runtime_ms());
        assert!(outputs[1].runtime_ms_per_kernel() < outputs[0].runtime_ms());
        assert!(outcome.results[1].label.contains("[fused]"));
        assert!(outcome.results[2].label.contains("[back-to-back]"));
    }

    #[test]
    fn a_poisoned_cache_lock_is_recovered() {
        // A thread that panics while holding a cache lock poisons it. The
        // entries are immutable and inserted whole, so later jobs recover
        // the lock instead of panicking on it.
        let session = Session::new();
        let job = Job::new(HksBenchmark::ARK, Dataflow::OutputCentric);
        let expected = session.run_job(&job).unwrap();
        let cache = Arc::clone(&session.cache);
        let slot = Arc::clone(&session.bound_slot);
        let poisoner = std::thread::spawn(move || {
            let _schedules = cache.lock().unwrap();
            let _bounds = slot.lock().unwrap();
            panic!("poisoning the session caches");
        });
        assert!(poisoner.join().is_err());
        assert!(session.cache.is_poisoned());
        let output = session.run_job(&job).unwrap();
        assert_eq!(output.stats, expected.stats);
        assert!(Arc::ptr_eq(&output.schedule, &expected.schedule));
        assert!(session.bounds_job(&job).is_ok());
    }

    #[test]
    fn an_empty_ladder_is_rejected_before_anything_else() {
        // Emptiness is checked first: the job's unknown strategy and its
        // invalid RPU are never looked at.
        let job = Job::new(HksBenchmark::ARK, "zig-zag")
            .with_rpu(RpuConfig::ciflow_baseline().with_modops(f64::NAN));
        match Session::new().run_ladder(&job, &[]) {
            Err(CiflowError::InvalidConfig { message }) => {
                assert_eq!(message, "bandwidth ladder is empty");
            }
            other => panic!("an empty ladder must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn a_subnormal_ladder_bandwidth_fails_like_the_engine_run_there() {
        // 5e-324 GB/s passes the bandwidth check, but every transfer then
        // takes `inf` seconds: the ladder reports the engine's own error
        // at that point, on one channel and on four, and never an `inf`
        // runtime or a panic.
        let session = Session::new();
        for channels in [1, 4] {
            let rpu = RpuConfig::ciflow_baseline().with_memory_channels(channels);
            let job = Job::new(HksBenchmark::ARK, Dataflow::OutputCentric).with_rpu(rpu.clone());
            let expected = session
                .run_job(&job.clone().with_rpu(rpu.with_bandwidth(5e-324)))
                .unwrap_err();
            assert!(
                matches!(
                    expected,
                    CiflowError::Engine(rpu::EngineError::NonFiniteTime { .. })
                ),
                "{expected}"
            );
            for ladder in [&[5e-324, 64.0][..], &[64.0, 5e-324, 8.0]] {
                assert_eq!(
                    session.run_ladder(&job, ladder).unwrap_err(),
                    expected,
                    "{channels} channels, ladder {ladder:?}"
                );
            }
        }
    }

    #[test]
    fn streaming_policy_flows_into_schedule_config() {
        let job = Job::new(HksBenchmark::ARK, "OC");
        let output = Session::new()
            .with_rpu(RpuConfig::ciflow_streaming())
            .run_job(&job)
            .unwrap();
        assert_eq!(output.rpu.evk_policy, EvkPolicy::Streamed);
        // Streamed evks appear as DRAM traffic in the schedule.
        let on_chip = Session::new().run_job(&job).unwrap();
        assert!(output.schedule.dram_bytes() > on_chip.schedule.dram_bytes());
    }
}
