//! Deterministic fault injection and failure handling for the serving
//! fleet.
//!
//! A [`FaultPlan`] describes everything that can go wrong in one serving
//! run — device crashes and restarts (scripted, or MTBF/MTTR-sampled from
//! the run seed), transient per-device bandwidth degradation windows, and
//! per-request transient failures — together with the machinery that
//! handles it: request deadlines, retry with capped exponential backoff,
//! failover re-dispatch of in-flight work lost to a crash, and admission
//! control with graceful degradation (shedding or downgrading requests to
//! a cheaper [`RequestClass`] instead of collapsing).
//!
//! Everything is driven by the same virtual clock as the fault-free
//! simulator and by dedicated RNG streams derived from `config.seed`, so a
//! faulted run is a pure, bit-reproducible function of
//! `(ServeConfig, FaultPlan, strategy)`. Two invariants are held to the
//! same standard as the fault-free layer and property-tested in
//! `tests/fault_tolerance.rs`:
//!
//! * **Zero-fault replay** — running [`try_fault_serve_in`] with
//!   [`FaultPlan::none`] produces a [`ResilienceReport`] whose embedded
//!   [`ServeReport`] is bit-for-bit the report
//!   [`try_serve_in`](super::try_serve_in) produces: `try_serve_in` *is*
//!   this path under an empty plan, so there is no second simulator (or
//!   second measurement) to drift.
//! * **Conservation** — every offered arrival is exactly one of
//!   completed, timed-out, or shed:
//!   `offered == serve.completed + timed_out + shed`.
//!
//! Degraded bandwidth windows re-derive service times through one
//! [`Session::run_ladder`] per class, so a degraded point
//! is bit-identical to re-measuring the class through the engine at the
//! reduced bandwidth. See `docs/SERVING.md` for the normative fault model.

use super::config::ServeConfig;
use super::report::{ServeReport, JSON_BYTES_PER_RECORD};
use super::sim;
use crate::api::{Session, StrategySpec};
use crate::error::CiflowError;
use crate::json;
use serde::Serialize;
use std::fmt::Write as _;

/// One scripted device outage: `device` goes down at `at_seconds` and comes
/// back `down_seconds` later.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CrashEvent {
    /// Device index (must be below the cluster size).
    pub device: usize,
    /// Virtual time at which the device crashes, in seconds.
    pub at_seconds: f64,
    /// How long the device stays down before restarting, in seconds (must
    /// be positive).
    pub down_seconds: f64,
}

/// How device crashes are injected.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum CrashPlan {
    /// No crashes.
    None,
    /// An explicit list of outages. Windows on the same device must not
    /// overlap.
    Scripted(Vec<CrashEvent>),
    /// Crashes sampled per device from the run seed: exponential up-times
    /// with mean `mtbf_seconds` alternating with exponential down-times
    /// with mean `mttr_seconds`. Each device gets its own RNG stream
    /// derived from `config.seed` and the device index, so the sample is
    /// independent of cluster size changes elsewhere in a sweep.
    Random {
        /// Mean time between failures, in virtual seconds (finite,
        /// positive).
        mtbf_seconds: f64,
        /// Mean time to repair, in virtual seconds (finite, positive).
        mttr_seconds: f64,
    },
}

/// One transient bandwidth-degradation window: while it is open, requests
/// *dispatched* to `device` run at `bandwidth_factor` times the configured
/// DRAM bandwidth (thermal throttling, a congested link). Service times
/// inside the window are re-derived from the class's parametric timeline,
/// so they are bit-identical to an engine run at the reduced bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DegradeWindow {
    /// Device index (must be below the cluster size).
    pub device: usize,
    /// Window start, in virtual seconds.
    pub start_seconds: f64,
    /// Window length, in virtual seconds (must be positive).
    pub duration_seconds: f64,
    /// Bandwidth multiplier in `(0, 1]`; `1.0` is a no-op window.
    pub bandwidth_factor: f64,
}

impl DegradeWindow {
    /// Whether the window is open at `time` (half-open interval
    /// `[start, start + duration)`).
    pub(crate) fn contains(&self, time: f64) -> bool {
        time >= self.start_seconds && time < self.start_seconds + self.duration_seconds
    }
}

/// Retry discipline for failed attempts (transient failures and work lost
/// to crashes). `max_attempts` bounds the total number of dispatches per
/// request, and the k-th retry waits
/// `min(backoff_base_seconds * 2^(k-1), backoff_cap_seconds)` after the
/// failure — capped exponential backoff. Crash failover skips the backoff
/// (the dispatcher observes the crash immediately) but still consumes an
/// attempt.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Total dispatch attempts a request may consume (>= 1; `1` disables
    /// retries).
    pub max_attempts: usize,
    /// Backoff before the first retry, in virtual seconds (>= 0).
    pub backoff_base_seconds: f64,
    /// Upper bound on any single backoff, in virtual seconds (>= 0).
    pub backoff_cap_seconds: f64,
}

impl RetryPolicy {
    /// No retries: a request gets exactly one attempt.
    pub fn disabled() -> Self {
        Self {
            max_attempts: 1,
            backoff_base_seconds: 0.0,
            backoff_cap_seconds: 0.0,
        }
    }

    /// Capped exponential backoff: up to `max_attempts` dispatches, the
    /// k-th retry waiting `min(base * 2^(k-1), cap)` seconds.
    pub fn capped_exponential(max_attempts: usize, base_seconds: f64, cap_seconds: f64) -> Self {
        Self {
            max_attempts,
            backoff_base_seconds: base_seconds,
            backoff_cap_seconds: cap_seconds,
        }
    }

    /// Backoff before the retry that follows `completed_attempts` failed
    /// attempts (1-based: after the first failure this is the base).
    pub(crate) fn backoff_seconds(&self, completed_attempts: usize) -> f64 {
        if self.backoff_base_seconds <= 0.0 {
            return 0.0;
        }
        let doublings = completed_attempts.saturating_sub(1).min(62) as i32;
        (self.backoff_base_seconds * 2.0f64.powi(doublings)).min(self.backoff_cap_seconds)
    }
}

/// Admission control: what happens to an arrival when the cluster is
/// struggling. Decisions are made once, at the arrival instant, against
/// the queue and device state at that instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AdmissionPolicy {
    /// Admit everything (the fault-free behaviour).
    Open,
    /// Shed (reject immediately) any arrival that finds `max_queue_depth`
    /// or more requests already waiting.
    ShedAboveDepth {
        /// Queue depth at or above which arrivals are shed (>= 1).
        max_queue_depth: usize,
    },
    /// Graceful degradation: an arrival that finds `degrade_depth` or more
    /// requests waiting is downgraded to `fallback_class` (a cheaper
    /// [`RequestClass`](super::RequestClass) index) instead of being rejected; with
    /// `shed_depth` set, arrivals above that deeper threshold are shed
    /// outright.
    DegradeAboveDepth {
        /// Queue depth at or above which arrivals are downgraded (>= 1).
        degrade_depth: usize,
        /// Index into `config.classes` the downgraded request is served
        /// as.
        fallback_class: usize,
        /// Optional deeper threshold at or above which arrivals are shed.
        shed_depth: Option<usize>,
    },
    /// Deadline-aware shedding: an arrival is shed when the queued work,
    /// spread over the currently-up devices, already exceeds the request
    /// deadline (it could not start in time), or when no device is up.
    /// Requires `deadline_seconds` to be set.
    DeadlineAware,
}

/// Everything that can go wrong in one serving run, plus the policies that
/// handle it. Validated against the [`ServeConfig`] before the simulation
/// starts, like the config itself.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Device crash/restart injection.
    pub crashes: CrashPlan,
    /// Transient per-device bandwidth-degradation windows.
    pub degradations: Vec<DegradeWindow>,
    /// Probability in `[0, 1)` that any single dispatch attempt fails at
    /// completion (the work is done, then discarded — a data-path error
    /// detected at the end). Drawn per attempt from a dedicated RNG
    /// stream.
    pub transient_failure_rate: f64,
    /// Optional request deadline: a request that cannot *start* within
    /// this many seconds of its arrival is timed out. `None` disables
    /// timeouts.
    pub deadline_seconds: Option<f64>,
    /// Retry discipline for failed attempts.
    pub retry: RetryPolicy,
    /// Admission control at the arrival instant.
    pub admission: AdmissionPolicy,
}

impl FaultPlan {
    /// The empty plan: no crashes, no degradation, no transient failures,
    /// no deadline, no retries needed, open admission. Running it replays
    /// the fault-free [`ServeReport`](super::ServeReport) bit-for-bit.
    pub fn none() -> Self {
        Self {
            crashes: CrashPlan::None,
            degradations: Vec::new(),
            transient_failure_rate: 0.0,
            deadline_seconds: None,
            retry: RetryPolicy::disabled(),
            admission: AdmissionPolicy::Open,
        }
    }

    /// Replaces the crash plan (builder style).
    pub fn with_crashes(mut self, crashes: CrashPlan) -> Self {
        self.crashes = crashes;
        self
    }

    /// Adds one degradation window (builder style).
    pub fn with_degradation(mut self, window: DegradeWindow) -> Self {
        self.degradations.push(window);
        self
    }

    /// Replaces the per-attempt transient failure rate (builder style).
    pub fn with_transient_failure_rate(mut self, rate: f64) -> Self {
        self.transient_failure_rate = rate;
        self
    }

    /// Sets the request deadline (builder style).
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        self.deadline_seconds = Some(seconds);
        self
    }

    /// Replaces the retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the admission policy (builder style).
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Scales the plan's fault *intensity* by a non-negative factor — the
    /// knob [`try_fault_sweep_in`](crate::sweep::try_fault_sweep_in) grids.
    /// `Random` crash rates scale as `mtbf / intensity` (MTTR fixed), the
    /// transient failure rate scales linearly (clamped below 1), and
    /// intensity `0` removes every injected fault while keeping the
    /// handling policies. Scripted crashes and degradation windows do not
    /// scale (they are absolute schedules) and are kept as-is for any
    /// positive intensity.
    pub fn scaled(&self, intensity: f64) -> FaultPlan {
        let mut plan = self.clone();
        if intensity <= 0.0 {
            plan.crashes = CrashPlan::None;
            plan.degradations.clear();
            plan.transient_failure_rate = 0.0;
            return plan;
        }
        if let CrashPlan::Random {
            mtbf_seconds,
            mttr_seconds,
        } = plan.crashes
        {
            plan.crashes = CrashPlan::Random {
                mtbf_seconds: mtbf_seconds / intensity,
                mttr_seconds,
            };
        }
        plan.transient_failure_rate = (self.transient_failure_rate * intensity).min(0.95);
        plan
    }

    /// Checks the plan against `config` for structural problems, mirroring
    /// [`ServeConfig::validate`]: out-of-range device or class indices,
    /// non-finite or non-positive times, overlapping windows on one
    /// device, probabilities outside `[0, 1)`, a zero-attempt retry
    /// policy, or a deadline-aware admission policy without a deadline.
    ///
    /// # Errors
    ///
    /// Returns [`CiflowError::InvalidConfig`] describing the first problem
    /// found.
    pub fn validate(&self, config: &ServeConfig) -> Result<(), CiflowError> {
        let invalid = |message: String| Err(CiflowError::InvalidConfig { message });
        let num_devices = config.cluster.num_devices;
        match &self.crashes {
            CrashPlan::None => {}
            CrashPlan::Scripted(events) => {
                let mut per_device: Vec<Vec<(f64, f64)>> = vec![Vec::new(); num_devices];
                for event in events {
                    if event.device >= num_devices {
                        return invalid(format!(
                            "scripted crash targets device {} but the cluster has {num_devices} \
                             devices",
                            event.device
                        ));
                    }
                    if !event.at_seconds.is_finite() || event.at_seconds < 0.0 {
                        return invalid(format!(
                            "scripted crash time {} is not finite and non-negative",
                            event.at_seconds
                        ));
                    }
                    if !event.down_seconds.is_finite() || event.down_seconds <= 0.0 {
                        return invalid(format!(
                            "scripted crash down-time {} is not finite and positive",
                            event.down_seconds
                        ));
                    }
                    per_device[event.device]
                        .push((event.at_seconds, event.at_seconds + event.down_seconds));
                }
                for (device, windows) in per_device.iter_mut().enumerate() {
                    windows.sort_by(|a, b| a.0.total_cmp(&b.0));
                    for pair in windows.windows(2) {
                        if pair[1].0 < pair[0].1 {
                            return invalid(format!(
                                "scripted crash windows overlap on device {device}"
                            ));
                        }
                    }
                }
            }
            CrashPlan::Random {
                mtbf_seconds,
                mttr_seconds,
            } => {
                if !mtbf_seconds.is_finite() || *mtbf_seconds <= 0.0 {
                    return invalid(format!(
                        "crash MTBF {mtbf_seconds} is not finite and positive"
                    ));
                }
                if !mttr_seconds.is_finite() || *mttr_seconds <= 0.0 {
                    return invalid(format!(
                        "crash MTTR {mttr_seconds} is not finite and positive"
                    ));
                }
            }
        }
        let mut per_device: Vec<Vec<(f64, f64)>> = vec![Vec::new(); num_devices];
        for window in &self.degradations {
            if window.device >= num_devices {
                return invalid(format!(
                    "degradation window targets device {} but the cluster has {num_devices} \
                     devices",
                    window.device
                ));
            }
            if !window.start_seconds.is_finite() || window.start_seconds < 0.0 {
                return invalid(format!(
                    "degradation window start {} is not finite and non-negative",
                    window.start_seconds
                ));
            }
            if !window.duration_seconds.is_finite() || window.duration_seconds <= 0.0 {
                return invalid(format!(
                    "degradation window duration {} is not finite and positive",
                    window.duration_seconds
                ));
            }
            if !window.bandwidth_factor.is_finite()
                || window.bandwidth_factor <= 0.0
                || window.bandwidth_factor > 1.0
            {
                return invalid(format!(
                    "degradation bandwidth factor {} is not in (0, 1]",
                    window.bandwidth_factor
                ));
            }
            per_device[window.device].push((
                window.start_seconds,
                window.start_seconds + window.duration_seconds,
            ));
        }
        for (device, windows) in per_device.iter_mut().enumerate() {
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
            for pair in windows.windows(2) {
                if pair[1].0 < pair[0].1 {
                    return invalid(format!("degradation windows overlap on device {device}"));
                }
            }
        }
        if !self.transient_failure_rate.is_finite()
            || !(0.0..1.0).contains(&self.transient_failure_rate)
        {
            return invalid(format!(
                "transient failure rate {} is not in [0, 1)",
                self.transient_failure_rate
            ));
        }
        if let Some(deadline) = self.deadline_seconds {
            if !deadline.is_finite() || deadline <= 0.0 {
                return invalid(format!(
                    "request deadline {deadline} is not finite and positive"
                ));
            }
        }
        if self.retry.max_attempts == 0 {
            return invalid("retry policy allows zero attempts per request".to_string());
        }
        if !self.retry.backoff_base_seconds.is_finite() || self.retry.backoff_base_seconds < 0.0 {
            return invalid(format!(
                "retry backoff base {} is not finite and non-negative",
                self.retry.backoff_base_seconds
            ));
        }
        if !self.retry.backoff_cap_seconds.is_finite() || self.retry.backoff_cap_seconds < 0.0 {
            return invalid(format!(
                "retry backoff cap {} is not finite and non-negative",
                self.retry.backoff_cap_seconds
            ));
        }
        match self.admission {
            AdmissionPolicy::Open => {}
            AdmissionPolicy::ShedAboveDepth { max_queue_depth } => {
                if max_queue_depth == 0 {
                    return invalid("shed-above-depth threshold is zero".to_string());
                }
            }
            AdmissionPolicy::DegradeAboveDepth {
                degrade_depth,
                fallback_class,
                shed_depth,
            } => {
                if degrade_depth == 0 {
                    return invalid("degrade-above-depth threshold is zero".to_string());
                }
                if fallback_class >= config.classes.len() {
                    return invalid(format!(
                        "degradation fallback class {fallback_class} is out of range (the mix \
                         has {} classes)",
                        config.classes.len()
                    ));
                }
                if let Some(shed_at) = shed_depth {
                    if shed_at < degrade_depth {
                        return invalid(format!(
                            "shed depth {shed_at} is below the degrade depth {degrade_depth}"
                        ));
                    }
                }
            }
            AdmissionPolicy::DeadlineAware => {
                if self.deadline_seconds.is_none() {
                    return invalid(
                        "deadline-aware admission requires deadline_seconds".to_string(),
                    );
                }
            }
        }
        Ok(())
    }
}

/// Per-class service times a serving simulation draws from: the baseline
/// per-class times, plus one re-derived row per degradation window.
pub(crate) struct ServiceTable {
    /// Short name of the strategy the classes were measured under.
    pub(crate) strategy: String,
    /// `base[class]` — service time at the configured bandwidth.
    pub(crate) base: Vec<f64>,
    /// `degraded[window][class]` — service time at
    /// `bandwidth * degradations[window].bandwidth_factor`, evaluated from
    /// the class's parametric timeline.
    pub(crate) degraded: Vec<Vec<f64>>,
}

impl ServiceTable {
    /// Measures every class of `config` under `spec` on the cluster's
    /// device: one stats-only engine run per class for the base row and,
    /// only when `plan` has degradation windows, one
    /// [`Session::run_ladder`] per class over the windows' bandwidths for
    /// the degraded rows. A plan without windows derives no timeline.
    pub(crate) fn measure(
        session: &Session,
        config: &ServeConfig,
        plan: &FaultPlan,
        spec: &StrategySpec,
    ) -> Result<Self, CiflowError> {
        let bandwidth = config.cluster.rpu.dram_bandwidth_gbps;
        let windows: Vec<f64> = plan
            .degradations
            .iter()
            .map(|window| bandwidth * window.bandwidth_factor)
            .collect();
        let measured = crate::parallel::map(config.classes.clone(), |class| {
            let job = class.job(spec.clone()).with_rpu(config.cluster.rpu.clone());
            let base = session.run_job(&job)?;
            let degraded = if windows.is_empty() {
                Vec::new()
            } else {
                session.run_ladder(&job, &windows)?.1
            };
            Ok::<_, CiflowError>((base, degraded))
        });
        let mut table = Self {
            strategy: spec.display_name(),
            base: Vec::with_capacity(measured.len()),
            degraded: vec![Vec::with_capacity(measured.len()); windows.len()],
        };
        for row in measured {
            let (base, degraded) = row?;
            table.strategy = base.strategy;
            table.base.push(base.stats.runtime_seconds);
            for (column, stats) in table.degraded.iter_mut().zip(degraded) {
                column.push(stats.runtime_seconds);
            }
        }
        Ok(table)
    }
}

/// Availability of one device over a faulted run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DeviceAvailability {
    /// Device index.
    pub device: usize,
    /// Crashes the device suffered.
    pub crashes: usize,
    /// Virtual seconds the device spent down.
    pub down_seconds: f64,
    /// Fraction of the makespan the device was up (1.0 = never down).
    pub availability: f64,
}

/// The outcome of one faulted serving run: the fault-free-shaped
/// [`ServeReport`] over the *completed* requests, plus the resilience
/// ledger — what was offered, lost, retried, shed, degraded, and wasted.
///
/// Conservation invariant:
/// `offered == serve.completed + timed_out + shed`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResilienceReport {
    /// The serving report over completed requests. Record ids keep their
    /// issue order but are no longer dense when requests timed out.
    pub serve: ServeReport,
    /// Arrivals the arrival process offered to the cluster.
    pub offered: usize,
    /// Requests that gave up: deadline expired before they could start, or
    /// the retry budget ran out.
    pub timed_out: usize,
    /// Arrivals rejected by admission control.
    pub shed: usize,
    /// Completions served as the downgraded fallback class.
    pub degraded: usize,
    /// Completions that finished after their deadline (they still count as
    /// completed, not as goodput).
    pub late: usize,
    /// Dispatch attempts beyond each request's first (failover and backoff
    /// retries alike, counted once per attempt).
    pub retries: usize,
    /// Attempts that failed transiently at completion.
    pub transient_failures: usize,
    /// In-flight attempts lost to device crashes.
    pub crash_losses: usize,
    /// Virtual device-seconds spent on work that was thrown away (partial
    /// executions lost to crashes plus fully-executed failed attempts).
    pub wasted_seconds: f64,
    /// *Useful* completions (on time, full fidelity) per virtual second —
    /// compare with `serve.throughput_rps`, which counts every completion.
    pub goodput_rps: f64,
    /// Per-device availability, indexed by device.
    pub availability: Vec<DeviceAvailability>,
}

impl ResilienceReport {
    /// Completions per virtual second, degraded and late ones included.
    pub fn throughput_rps(&self) -> f64 {
        self.serve.throughput_rps
    }

    /// Mean device availability across the cluster.
    pub fn mean_availability(&self) -> f64 {
        if self.availability.is_empty() {
            return 1.0;
        }
        self.availability
            .iter()
            .map(|d| d.availability)
            .sum::<f64>()
            / self.availability.len() as f64
    }

    /// Whether the arrival-conservation invariant holds (it always should;
    /// the property tests call this).
    pub fn conserves_arrivals(&self) -> bool {
        self.offered == self.serve.completed + self.timed_out + self.shed
    }

    /// Renders the report as one `ciflow.resilience_report.v1` JSON
    /// document, streamed into one buffer, with the serving report embedded
    /// verbatim by [`ServeReport::write_json`].
    pub fn to_json(&self) -> String {
        let records = self.serve.records.len();
        let mut out = String::with_capacity(1024 + JSON_BYTES_PER_RECORD * records);
        let _ = write!(
            out,
            "{{\"schema\":\"ciflow.resilience_report.v1\",\"offered\":{},\"completed\":{},\
             \"timed_out\":{},\"shed\":{},\"degraded\":{},\"late\":{},\"retries\":{},\
             \"transient_failures\":{},\"crash_losses\":{},\"wasted_seconds\":{},\
             \"goodput_rps\":{},\"throughput_rps\":{},\"mean_availability\":{},\
             \"availability\":",
            self.offered,
            self.serve.completed,
            self.timed_out,
            self.shed,
            self.degraded,
            self.late,
            self.retries,
            self.transient_failures,
            self.crash_losses,
            self.wasted_seconds,
            self.goodput_rps,
            self.serve.throughput_rps,
            self.mean_availability(),
        );
        json::write_array(&mut out, &self.availability, |out, d| {
            let _ = write!(
                out,
                "{{\"device\":{},\"crashes\":{},\"down_seconds\":{},\"availability\":{}}}",
                d.device, d.crashes, d.down_seconds, d.availability
            );
        });
        out.push_str(",\"serve\":");
        self.serve.write_json(&mut out);
        out.push('}');
        out
    }
}

impl std::fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} offered -> {} ok ({} degraded, {} late) / {} timed out / {} shed; \
             {:.1} goodput vs {:.1} throughput req/s, {} retries, {:.2} ms wasted, \
             availability {:.1}%",
            self.offered,
            self.serve.completed,
            self.degraded,
            self.late,
            self.timed_out,
            self.shed,
            self.goodput_rps,
            self.serve.throughput_rps,
            self.retries,
            self.wasted_seconds * 1e3,
            self.mean_availability() * 100.0,
        )
    }
}

/// The standard adverse fault plan, scaled to `tick` (a request mix's mean
/// service time): seeded random crashes with a 40-tick MTBF and a 5-tick
/// MTTR, 2% transient failures, up to 8 attempts with capped exponential
/// backoff (0.5 to 4 ticks), open admission.
pub fn standard_fault_plan(tick: f64) -> FaultPlan {
    FaultPlan::none()
        .with_crashes(CrashPlan::Random {
            mtbf_seconds: 40.0 * tick,
            mttr_seconds: 5.0 * tick,
        })
        .with_transient_failure_rate(0.02)
        .with_retry(RetryPolicy::capped_exponential(8, 0.5 * tick, 4.0 * tick))
}

/// Runs one faulted serving simulation inside a [`Session`] (pass
/// `&Session::new()` for the built-in strategies; share one session to
/// reuse its strategy registry and schedule cache).
///
/// Baseline service times are one stats-only engine run per class, and
/// each degradation window's service times are read off the class's
/// parametric timeline at the degraded bandwidth. Under
/// [`FaultPlan::none`] this is exactly [`try_serve_in`](super::try_serve_in),
/// which makes the zero-fault replay bit-exact by construction.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] for structurally invalid
/// configurations or plans, [`CiflowError::StrategyPanicked`] for a
/// panicking strategy, and propagates schedule-construction errors.
pub fn try_fault_serve_in(
    session: &Session,
    config: &ServeConfig,
    plan: &FaultPlan,
    strategy: impl Into<StrategySpec>,
) -> Result<ResilienceReport, CiflowError> {
    config.validate()?;
    plan.validate(config)?;
    let services = ServiceTable::measure(session, config, plan, &strategy.into())?;
    Ok(resilience_with_service_times(config, plan, &services))
}

/// The measurement-free half of [`try_fault_serve_in`]: plays the faulted
/// simulation against a measured [`ServiceTable`]. The serving and fault
/// sweeps ([`try_serve_sweep_in`](crate::sweep::try_serve_sweep_in),
/// [`try_fault_sweep_in`](crate::sweep::try_fault_sweep_in)) measure once
/// and replay here at every grid point.
pub(crate) fn resilience_with_service_times(
    config: &ServeConfig,
    plan: &FaultPlan,
    services: &ServiceTable,
) -> ResilienceReport {
    let (outcome, counters) = sim::simulate_resilient(config, plan, services);
    let serve = sim::finish(config, services.strategy.clone(), &services.base, outcome);
    let makespan = serve.makespan_seconds;
    let goodput_rps = if makespan > 0.0 {
        counters.useful as f64 / makespan
    } else {
        0.0
    };
    let availability = counters
        .device_faults
        .iter()
        .enumerate()
        .map(|(device, stats)| DeviceAvailability {
            device,
            crashes: stats.crashes,
            down_seconds: stats.down_seconds,
            availability: if makespan > 0.0 {
                (1.0 - stats.down_seconds / makespan).max(0.0)
            } else {
                1.0
            },
        })
        .collect();
    ResilienceReport {
        serve,
        offered: counters.offered,
        timed_out: counters.timed_out,
        shed: counters.shed,
        degraded: counters.degraded,
        late: counters.late,
        retries: counters.retries,
        transient_failures: counters.transient_failures,
        crash_losses: counters.crash_losses,
        wasted_seconds: counters.wasted_seconds,
        goodput_rps,
        availability,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ArrivalProcess, RequestClass};
    use super::*;
    use crate::benchmark::HksBenchmark;

    /// Whether the plan injects no faults at all (handling knobs like
    /// deadlines or admission control may still be set).
    fn injects_nothing(plan: &FaultPlan) -> bool {
        matches!(plan.crashes, CrashPlan::None)
            && plan.degradations.is_empty()
            && plan.transient_failure_rate == 0.0
    }

    fn base_config() -> ServeConfig {
        ServeConfig::new(
            2,
            RequestClass::standard_mix(HksBenchmark::ARK),
            ArrivalProcess::ClosedLoop {
                concurrency: 4,
                requests: 16,
            },
        )
    }

    #[test]
    fn empty_plan_is_valid_and_injects_nothing() {
        let plan = FaultPlan::none();
        plan.validate(&base_config()).expect("empty plan is valid");
        assert!(injects_nothing(&plan));
    }

    #[test]
    fn invalid_plans_are_rejected_with_specific_messages() {
        let config = base_config();
        let cases: Vec<(FaultPlan, &str)> = vec![
            (
                FaultPlan::none().with_crashes(CrashPlan::Scripted(vec![CrashEvent {
                    device: 7,
                    at_seconds: 0.1,
                    down_seconds: 0.1,
                }])),
                "targets device 7",
            ),
            (
                FaultPlan::none().with_crashes(CrashPlan::Scripted(vec![
                    CrashEvent {
                        device: 0,
                        at_seconds: 0.1,
                        down_seconds: 0.2,
                    },
                    CrashEvent {
                        device: 0,
                        at_seconds: 0.2,
                        down_seconds: 0.1,
                    },
                ])),
                "overlap on device 0",
            ),
            (
                FaultPlan::none().with_crashes(CrashPlan::Random {
                    mtbf_seconds: 0.0,
                    mttr_seconds: 1.0,
                }),
                "MTBF",
            ),
            (
                FaultPlan::none().with_degradation(DegradeWindow {
                    device: 0,
                    start_seconds: 0.0,
                    duration_seconds: 1.0,
                    bandwidth_factor: 1.5,
                }),
                "not in (0, 1]",
            ),
            (
                FaultPlan::none().with_transient_failure_rate(1.0),
                "not in [0, 1)",
            ),
            (FaultPlan::none().with_deadline(-1.0), "deadline"),
            (
                FaultPlan::none().with_retry(RetryPolicy {
                    max_attempts: 0,
                    backoff_base_seconds: 0.0,
                    backoff_cap_seconds: 0.0,
                }),
                "zero attempts",
            ),
            (
                FaultPlan::none().with_admission(AdmissionPolicy::DegradeAboveDepth {
                    degrade_depth: 4,
                    fallback_class: 9,
                    shed_depth: None,
                }),
                "fallback class 9",
            ),
            (
                FaultPlan::none().with_admission(AdmissionPolicy::DeadlineAware),
                "requires deadline_seconds",
            ),
        ];
        for (plan, needle) in cases {
            match plan.validate(&config) {
                Err(CiflowError::InvalidConfig { message }) => assert!(
                    message.contains(needle),
                    "message {message:?} should mention {needle:?}"
                ),
                other => panic!("plan must be rejected ({needle:?}), got {other:?}"),
            }
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let retry = RetryPolicy::capped_exponential(5, 0.010, 0.060);
        assert_eq!(retry.backoff_seconds(1), 0.010);
        assert_eq!(retry.backoff_seconds(2), 0.020);
        assert_eq!(retry.backoff_seconds(3), 0.040);
        assert_eq!(retry.backoff_seconds(4), 0.060, "capped");
        assert_eq!(RetryPolicy::disabled().backoff_seconds(1), 0.0);
    }

    #[test]
    fn scaling_adjusts_random_rates_and_zero_clears_injection() {
        let plan = FaultPlan::none()
            .with_crashes(CrashPlan::Random {
                mtbf_seconds: 1.0,
                mttr_seconds: 0.25,
            })
            .with_transient_failure_rate(0.10)
            .with_deadline(0.5);
        let doubled = plan.scaled(2.0);
        match doubled.crashes {
            CrashPlan::Random { mtbf_seconds, .. } => assert_eq!(mtbf_seconds, 0.5),
            ref other => panic!("expected random crashes, got {other:?}"),
        }
        assert_eq!(doubled.transient_failure_rate, 0.20);
        let off = plan.scaled(0.0);
        assert!(injects_nothing(&off));
        assert_eq!(off.deadline_seconds, Some(0.5), "handling knobs survive");
    }
}
