//! Fleet-scale serving simulator: a served-traffic layer over the RPU
//! cluster model.
//!
//! The rest of the crate answers "how long does one key-switch workload take
//! on one RPU?". This module answers the next question up the stack: "what
//! throughput and latency does a *fleet* of RPUs sustain under a stream of
//! mixed requests?" — the serving view of the paper's design space.
//!
//! A serving run is described by a [`ServeConfig`]:
//!
//! * a [`ClusterConfig`] — `N` identical RPUs sharing one device
//!   configuration (bandwidth, MODOPS, channels, evk policy);
//! * a request mix — weighted [`RequestClass`]es built from the crate's
//!   workload presets (rotation batches, relinearizations, bootstrap
//!   key-switches, rescaling chains);
//! * an [`ArrivalProcess`] — open-loop Poisson-like traffic at a fixed rate,
//!   or a closed loop of fixed-concurrency clients;
//! * a [`DispatchPolicy`] — FIFO, least-loaded, or class-affinity batching;
//! * a `u64` seed.
//!
//! Requests never execute instruction-by-instruction inside the serving
//! loop. Every run measures its classes once into a table of service times:
//! each distinct class is executed **once**, stats-only, through
//! [`Session::run_job`] (hitting the session schedule cache), and the
//! resulting deterministic runtime becomes the class's service time. Only
//! the bandwidths a run needs beyond that — degradation windows, or the
//! ladder of a serving sweep — are read off the class's parametric timeline
//! (bit-identical to the engine). A virtual-clock event simulation then
//! plays the arrival stream against the fleet — no wall-clock anywhere — so
//! a [`ServeReport`] is a pure, bit-reproducible function of the
//! configuration and seed.
//!
//! ```
//! use ciflow::api::Session;
//! use ciflow::benchmark::HksBenchmark;
//! use ciflow::serve::{try_serve_in, ArrivalProcess, RequestClass, ServeConfig};
//!
//! let config = ServeConfig::new(
//!     4,
//!     RequestClass::standard_mix(HksBenchmark::ARK),
//!     ArrivalProcess::ClosedLoop { concurrency: 8, requests: 64 },
//! );
//! let report = try_serve_in(&Session::new(), &config, "OC").unwrap();
//! assert_eq!(report.completed, 64);
//! assert!(report.throughput_rps > 0.0);
//! ```
//!
//! The fleet above is perfectly reliable; production fleets are not. The
//! fault layer runs the *same* event loop under a [`FaultPlan`] —
//! seeded device crashes and restarts, bandwidth-degradation windows,
//! transient per-attempt failures — handled by deadlines, capped-backoff
//! retries, crash failover, and admission control with graceful
//! degradation. [`try_fault_serve_in`] returns a [`ResilienceReport`]; a
//! zero-fault plan replays the plain [`ServeReport`] bit-for-bit, and
//! [`standard_fault_plan`] is the adverse plan the serving gallery and the
//! benchmark run.
//!
//! See `docs/SERVING.md` for the model in depth, and
//! [`try_serve_sweep_in`](crate::sweep::try_serve_sweep_in) /
//! [`try_fault_sweep_in`](crate::sweep::try_fault_sweep_in) for sweeping
//! cluster size, bandwidth, and fault intensity in one call.

mod arrival;
mod config;
mod dispatch;
mod fault;
mod report;
mod request;
mod sim;

pub use arrival::ArrivalProcess;
pub use config::{ClusterConfig, ServeConfig};
pub use dispatch::DispatchPolicy;
pub(crate) use fault::{resilience_with_service_times, ServiceTable};
pub use fault::{
    standard_fault_plan, try_fault_serve_in, AdmissionPolicy, CrashEvent, CrashPlan, DegradeWindow,
    DeviceAvailability, FaultPlan, ResilienceReport, RetryPolicy,
};
pub use report::{
    ClassUsage, DeviceUsage, LatencySummary, QueueSummary, RequestRecord, ServeReport,
};
pub use request::{ClassWork, RequestClass};

use crate::api::{Session, StrategySpec};
use crate::error::CiflowError;

/// Runs one serving simulation inside a [`Session`] (pass `&Session::new()`
/// for the built-in strategies; when running many configurations, or a
/// sweep, share one session so class schedules are built once).
///
/// The session's own RPU configuration is ignored — every request runs on
/// the cluster's per-device [`RpuConfig`](rpu::RpuConfig) — but its schedule
/// cache and strategy registry are used, so repeated calls (a bandwidth
/// sweep, a policy comparison) re-plan each request class only when the
/// cached schedule cannot be reused. This is the serve report of
/// [`try_fault_serve_in`] under [`FaultPlan::none`]: one stats-only engine
/// run per class, then the event loop with nothing injected.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] when the configuration fails
/// [`ServeConfig::validate`], [`CiflowError::StrategyPanicked`] for a
/// panicking strategy, and propagates schedule-construction errors.
pub fn try_serve_in(
    session: &Session,
    config: &ServeConfig,
    strategy: impl Into<StrategySpec>,
) -> Result<ServeReport, CiflowError> {
    Ok(try_fault_serve_in(session, config, &FaultPlan::none(), strategy)?.serve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::HksBenchmark;

    #[test]
    fn closed_loop_run_completes_every_request() {
        let config = ServeConfig::new(
            2,
            RequestClass::standard_mix(HksBenchmark::ARK),
            ArrivalProcess::ClosedLoop {
                concurrency: 4,
                requests: 24,
            },
        );
        let report = try_serve_in(&Session::new(), &config, "OC").expect("serving run succeeds");
        assert_eq!(report.completed, 24);
        assert_eq!(report.records.len(), 24);
        assert_eq!(report.devices.len(), 2);
        assert_eq!(
            report.devices.iter().map(|d| d.served).sum::<usize>(),
            24,
            "every request is attributed to a device"
        );
        assert!(report.makespan_seconds > 0.0);
        assert!(report.throughput_rps > 0.0);
        assert!(report.latency.p50_ms <= report.latency.p95_ms);
        assert!(report.latency.p95_ms <= report.latency.p99_ms);
        assert!(report.latency.p99_ms <= report.latency.max_ms);
    }

    #[test]
    fn invalid_configs_error_before_any_execution() {
        let config = ServeConfig::new(
            0,
            RequestClass::standard_mix(HksBenchmark::ARK),
            ArrivalProcess::ClosedLoop {
                concurrency: 1,
                requests: 1,
            },
        );
        assert!(matches!(
            try_serve_in(&Session::new(), &config, "OC"),
            Err(CiflowError::InvalidConfig { .. })
        ));
    }

    /// The fault-free report of `config` with every class taking no time.
    fn instant(config: &ServeConfig) -> ServeReport {
        let services = ServiceTable {
            strategy: "OC".to_string(),
            base: vec![0.0; config.classes.len()],
            degraded: Vec::new(),
        };
        resilience_with_service_times(config, &FaultPlan::none(), &services).serve
    }

    #[test]
    fn zero_duration_service_times_complete_without_dividing_by_zero() {
        // Degenerate but legal for the virtual clock: a class that takes no
        // time at all. Every request completes at its arrival instant, the
        // queue never forms, and no summary statistic divides by zero.
        let config = ServeConfig::new(
            1,
            vec![
                RequestClass::single(HksBenchmark::ARK, 0.5),
                RequestClass::relinearize(HksBenchmark::ARK, 0.5),
            ],
            ArrivalProcess::OpenLoop {
                rate_rps: 100.0,
                requests: 12,
            },
        );
        let report = instant(&config);
        assert_eq!(report.completed, 12);
        assert!(report.makespan_seconds > 0.0, "arrivals still take time");
        assert!(report.throughput_rps.is_finite());
        // Arrivals pass through the queue for an instant (depth is sampled
        // after insertion, before same-instant dispatch) but accumulate no
        // waiting time.
        assert!(report.queue.max_depth <= 1);
        assert_eq!(
            report.queue.mean_depth, 0.0,
            "zero-width intervals add no area"
        );
        assert_eq!(report.latency.max_ms, 0.0);
        for record in &report.records {
            assert_eq!(record.wait_seconds, 0.0);
            assert_eq!(record.service_seconds, 0.0);
        }
        for device in &report.devices {
            assert_eq!(device.busy_seconds, 0.0);
            assert_eq!(device.utilization, 0.0);
        }

        // A closed loop of instant requests collapses to a single instant:
        // the makespan is zero and rates are reported as zero, not NaN.
        let closed = ServeConfig::new(
            1,
            vec![RequestClass::single(HksBenchmark::ARK, 1.0)],
            ArrivalProcess::ClosedLoop {
                concurrency: 2,
                requests: 8,
            },
        );
        let report = instant(&closed);
        assert_eq!(report.completed, 8);
        assert_eq!(report.makespan_seconds, 0.0);
        assert_eq!(
            report.throughput_rps, 0.0,
            "zero makespan reports zero throughput, not NaN or infinity"
        );
        assert!(report.queue.mean_depth.is_finite());
    }

    #[test]
    fn every_policy_completes_an_open_loop_run() {
        for policy in DispatchPolicy::all() {
            let config = ServeConfig::new(
                1,
                vec![
                    RequestClass::rotation_batch(HksBenchmark::ARK, 4, 0.5),
                    RequestClass::relinearize(HksBenchmark::ARK, 0.5),
                ],
                ArrivalProcess::OpenLoop {
                    rate_rps: 50.0,
                    requests: 16,
                },
            )
            .with_policy(policy);
            let report =
                try_serve_in(&Session::new(), &config, "OC").expect("serving run succeeds");
            assert_eq!(report.completed, 16, "policy {policy} completes the run");
        }
    }
}
