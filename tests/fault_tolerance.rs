//! Integration tests of the fault-injection and failure-handling layer.
//!
//! The load-bearing invariants (the ISSUE-10 acceptance properties):
//!
//! 1. **Zero-fault replay** — [`try_fault_serve_in`] under
//!    [`FaultPlan::none`] embeds a [`ServeReport`] bit-identical to the
//!    plain [`try_serve_in`] report, with every resilience counter zero.
//! 2. **Determinism** — a [`ResilienceReport`] is a pure function of
//!    `(ServeConfig, FaultPlan, strategy)`: same seed ⇒ identical report.
//! 3. **Conservation** — every offered arrival is exactly one of
//!    completed / timed-out / shed, across random fault plans × dispatch
//!    policies × cluster sizes.
//! 4. **Retries pay for themselves** — under injected crashes on an
//!    overloaded device, goodput with retries strictly exceeds the
//!    retry-disabled baseline.

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow::serve::{
    standard_fault_plan, try_fault_serve_in, try_serve_in, AdmissionPolicy, ArrivalProcess,
    ClassUsage, CrashEvent, CrashPlan, DegradeWindow, DeviceAvailability, DeviceUsage,
    DispatchPolicy, FaultPlan, LatencySummary, QueueSummary, RequestClass, RequestRecord,
    ResilienceReport, RetryPolicy, ServeConfig, ServeReport,
};
use ciflow::sweep::{try_fault_sweep_in, try_serve_sweep_in, FaultSweepPoint, ServeSweepPoint};
use ciflow::CiflowError;
use proptest::prelude::*;

/// A cheap two-class mix (no multi-kernel pipelines) so property tests stay
/// fast: the classes are measured once per session and replayed.
fn light_mix() -> Vec<RequestClass> {
    vec![
        RequestClass::single(HksBenchmark::ARK, 0.7),
        RequestClass::relinearize(HksBenchmark::BTS1, 0.3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: the faulted simulator under an empty plan *is* the
    /// fault-free simulator — same loop, same arithmetic, same report.
    #[test]
    fn zero_fault_plan_replays_the_serve_report_bit_for_bit(
        num_devices in 1usize..4,
        policy_index in 0usize..3,
        closed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let policy = DispatchPolicy::all()[policy_index];
        let arrival = if closed {
            ArrivalProcess::ClosedLoop { concurrency: 3, requests: 18 }
        } else {
            ArrivalProcess::OpenLoop { rate_rps: 300.0, requests: 18 }
        };
        let config = ServeConfig::new(num_devices, light_mix(), arrival)
            .with_policy(policy)
            .with_seed(seed);

        let session = Session::new();
        let plain = try_serve_in(&session, &config, "OC").unwrap();
        let faulted = try_fault_serve_in(&session, &config, &FaultPlan::none(), "OC").unwrap();

        prop_assert_eq!(&faulted.serve, &plain, "zero-fault run must replay the report");
        prop_assert_eq!(faulted.offered, plain.completed);
        prop_assert_eq!(faulted.timed_out, 0);
        prop_assert_eq!(faulted.shed, 0);
        prop_assert_eq!(faulted.degraded, 0);
        prop_assert_eq!(faulted.retries, 0);
        prop_assert_eq!(faulted.transient_failures, 0);
        prop_assert_eq!(faulted.crash_losses, 0);
        prop_assert_eq!(faulted.wasted_seconds.to_bits(), 0.0f64.to_bits());
        prop_assert_eq!(
            faulted.goodput_rps.to_bits(),
            plain.throughput_rps.to_bits(),
            "with nothing lost, goodput equals throughput bit-for-bit"
        );
        prop_assert!(faulted.availability.iter().all(|d| d.availability == 1.0));
    }

    /// Invariant 3 (and 2): conservation and same-seed determinism across
    /// random fault plans × dispatch policies × cluster sizes.
    #[test]
    fn arrivals_are_conserved_across_random_plans_policies_and_sizes(
        num_devices in 1usize..4,
        policy_index in 0usize..3,
        admission_index in 0usize..4,
        mtbf_ticks in 1u32..40,
        mttr_ticks in 1u32..20,
        transient_milli in 0u32..400,
        attempts in 1usize..4,
        deadline_on in any::<bool>(),
        deadline_ticks in 1u32..30,
        closed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let policy = DispatchPolicy::all()[policy_index];
        let arrival = if closed {
            ArrivalProcess::ClosedLoop { concurrency: 4, requests: 24 }
        } else {
            ArrivalProcess::OpenLoop { rate_rps: 500.0, requests: 24 }
        };
        let config = ServeConfig::new(num_devices, light_mix(), arrival)
            .with_policy(policy)
            .with_seed(seed);

        // Scale fault times to the service scale so crashes actually land
        // mid-run: one "tick" is one ARK key-switch service time.
        let session = Session::new();
        let probe = ServeConfig::new(
            1,
            vec![RequestClass::single(HksBenchmark::ARK, 1.0)],
            ArrivalProcess::ClosedLoop { concurrency: 1, requests: 1 },
        );
        let tick = try_serve_in(&session, &probe, "OC").unwrap().records[0].service_seconds;

        // A deadline must exist before deadline-aware admission is legal.
        let deadline = deadline_on.then(|| f64::from(deadline_ticks) * tick);
        let admission = match admission_index {
            0 => AdmissionPolicy::Open,
            1 => AdmissionPolicy::ShedAboveDepth { max_queue_depth: 3 },
            2 => AdmissionPolicy::DegradeAboveDepth {
                degrade_depth: 2,
                fallback_class: 0,
                shed_depth: Some(6),
            },
            _ if deadline.is_some() => AdmissionPolicy::DeadlineAware,
            _ => AdmissionPolicy::Open,
        };
        let mut plan = FaultPlan::none()
            .with_crashes(CrashPlan::Random {
                mtbf_seconds: f64::from(mtbf_ticks) * tick,
                mttr_seconds: f64::from(mttr_ticks) * tick,
            })
            .with_transient_failure_rate(f64::from(transient_milli) / 1000.0)
            .with_retry(RetryPolicy::capped_exponential(attempts, tick * 0.1, tick))
            .with_admission(admission);
        plan.deadline_seconds = deadline;

        let report = try_fault_serve_in(&session, &config, &plan, "OC").unwrap();
        prop_assert!(
            report.conserves_arrivals(),
            "offered {} != completed {} + timed_out {} + shed {}",
            report.offered, report.serve.completed, report.timed_out, report.shed
        );
        prop_assert_eq!(report.offered, 24, "the full budget is always offered");
        prop_assert_eq!(
            report.serve.completed,
            report.serve.records.len(),
            "the embedded report covers exactly the completed requests"
        );
        prop_assert!(report.serve.devices.iter().map(|d| d.served).sum::<usize>()
            == report.serve.completed);

        // Invariant 2: replaying the same plan reproduces the report.
        let replay = try_fault_serve_in(&session, &config, &plan, "OC").unwrap();
        prop_assert_eq!(report, replay, "same seed and plan must reproduce bit-identically");
    }
}

/// Invariant 4: the overload scenario. One device, open-loop overload, a
/// crash mid-run that loses in-flight work: with retries the lost request
/// is re-dispatched and completes; without, it is dropped. Completions are
/// strictly higher with retries, and so is goodput (the denominator grows
/// by at most the re-served work while the numerator gains the whole
/// request).
#[test]
fn retries_strictly_beat_no_retries_under_crashes_on_overload() {
    let classes = vec![RequestClass::single(HksBenchmark::ARK, 1.0)];
    let session = Session::new();
    let probe = ServeConfig::new(
        1,
        classes.clone(),
        ArrivalProcess::ClosedLoop {
            concurrency: 1,
            requests: 1,
        },
    );
    let service = try_serve_in(&session, &probe, "OC").unwrap().records[0].service_seconds;

    let config = ServeConfig::new(
        1,
        classes,
        ArrivalProcess::OpenLoop {
            rate_rps: 4.0 / service,
            requests: 40,
        },
    )
    .with_seed(5);
    // Three crashes land inside the busy period, each losing the attempt
    // in flight at that instant.
    let crashes = CrashPlan::Scripted(vec![
        CrashEvent {
            device: 0,
            at_seconds: 3.5 * service,
            down_seconds: 0.5 * service,
        },
        CrashEvent {
            device: 0,
            at_seconds: 9.25 * service,
            down_seconds: 0.5 * service,
        },
        CrashEvent {
            device: 0,
            at_seconds: 17.75 * service,
            down_seconds: 0.5 * service,
        },
    ]);

    let with_retries = try_fault_serve_in(
        &session,
        &config,
        &FaultPlan::none()
            .with_crashes(crashes.clone())
            .with_retry(RetryPolicy::capped_exponential(3, 0.0, 0.0)),
        "OC",
    )
    .unwrap();
    let without_retries = try_fault_serve_in(
        &session,
        &config,
        &FaultPlan::none()
            .with_crashes(crashes)
            .with_retry(RetryPolicy::disabled()),
        "OC",
    )
    .unwrap();

    assert!(
        without_retries.crash_losses >= 1,
        "the scripted crashes must lose in-flight work (saw {})",
        without_retries.crash_losses
    );
    assert!(
        without_retries.timed_out >= 1,
        "without retries, lost work is dropped"
    );
    assert_eq!(
        with_retries.timed_out, 0,
        "three attempts are enough to absorb every scripted crash"
    );
    assert!(
        with_retries.serve.completed > without_retries.serve.completed,
        "retries must complete strictly more requests ({} vs {})",
        with_retries.serve.completed,
        without_retries.serve.completed
    );
    assert!(
        with_retries.goodput_rps > without_retries.goodput_rps,
        "goodput with retries ({}) must strictly exceed the retry-disabled \
         baseline ({})",
        with_retries.goodput_rps,
        without_retries.goodput_rps
    );
    assert!(with_retries.retries >= without_retries.crash_losses);
    assert!(with_retries.conserves_arrivals());
    assert!(without_retries.conserves_arrivals());
}

/// Degraded service times are re-derived through the parametric timeline,
/// so a request dispatched inside a window is bit-identical to an engine
/// run at the reduced bandwidth.
#[test]
fn degradation_windows_apply_timeline_exact_service_times() {
    let session = Session::new();
    let config = ServeConfig::new(
        1,
        vec![RequestClass::single(HksBenchmark::ARK, 1.0)],
        ArrivalProcess::ClosedLoop {
            concurrency: 1,
            requests: 4,
        },
    );
    let bandwidth = config.cluster.rpu.dram_bandwidth_gbps;
    let factor = 0.5;
    let plan = FaultPlan::none().with_degradation(DegradeWindow {
        device: 0,
        start_seconds: 0.0,
        duration_seconds: 1e9,
        bandwidth_factor: factor,
    });
    let report = try_fault_serve_in(&session, &config, &plan, "OC").unwrap();

    let job = ciflow::Job::new(HksBenchmark::ARK, "OC").with_rpu(config.cluster.rpu.clone());
    let expected = session
        .run_analytic(&job, bandwidth * factor, bandwidth)
        .unwrap()
        .timeline
        .evaluate(bandwidth * factor)
        .runtime_seconds;
    assert_eq!(report.serve.completed, 4);
    for record in &report.serve.records {
        assert_eq!(
            record.service_seconds.to_bits(),
            expected.to_bits(),
            "window service time must be timeline-exact"
        );
    }
    // Degraded *bandwidth* slows requests but does not downgrade them.
    assert_eq!(report.degraded, 0);
    assert!(report.serve.makespan_seconds > 0.0);
}

/// A degradation factor small enough that the window's bandwidth is
/// subnormal passes validation (any factor in `(0, 1]` does), but every
/// transfer then takes `inf` seconds: the run fails with the engine's own
/// error at that bandwidth instead of serving with an infinite service time.
#[test]
fn a_subnormal_degradation_window_fails_with_the_engines_error() {
    let session = Session::new();
    let config = ServeConfig::new(
        2,
        vec![RequestClass::single(HksBenchmark::ARK, 1.0)],
        ArrivalProcess::ClosedLoop {
            concurrency: 2,
            requests: 4,
        },
    );
    let window = |device, bandwidth_factor| DegradeWindow {
        device,
        start_seconds: 0.0,
        duration_seconds: 1e9,
        bandwidth_factor,
    };
    let factor = 1e-320;
    // A second, ordinary window makes the degraded ladder span a range.
    let plan = FaultPlan::none()
        .with_degradation(window(0, 0.5))
        .with_degradation(window(1, factor));
    let bandwidth = config.cluster.rpu.dram_bandwidth_gbps;
    let rpu = config
        .cluster
        .rpu
        .clone()
        .with_bandwidth(bandwidth * factor);
    let expected = session
        .run_job(&ciflow::Job::new(HksBenchmark::ARK, "OC").with_rpu(rpu))
        .unwrap_err();
    assert!(
        matches!(
            expected,
            CiflowError::Engine(rpu::EngineError::NonFiniteTime { .. })
        ),
        "{expected}"
    );
    assert_eq!(
        try_fault_serve_in(&session, &config, &plan, "OC").unwrap_err(),
        expected
    );
}

/// Deadlines time out requests that cannot start in time; admission
/// policies shed or downgrade instead of collapsing. Conservation holds
/// through all of it.
#[test]
fn deadlines_shedding_and_degradation_handle_overload_gracefully() {
    let session = Session::new();
    let classes = vec![
        RequestClass::bootstrap_key_switch(HksBenchmark::ARK, 0.8),
        RequestClass::single(HksBenchmark::ARK, 0.2),
    ];
    let probe = ServeConfig::new(
        1,
        classes.clone(),
        ArrivalProcess::ClosedLoop {
            concurrency: 1,
            requests: 1,
        },
    );
    let heavy = try_serve_in(&session, &probe, "OC").unwrap().records[0].service_seconds;

    let config = ServeConfig::new(
        1,
        classes,
        ArrivalProcess::OpenLoop {
            rate_rps: 6.0 / heavy,
            requests: 30,
        },
    )
    .with_seed(3);

    // Tight deadline: queued requests expire before the single device gets
    // to them.
    let deadline_plan = FaultPlan::none().with_deadline(1.5 * heavy);
    let timed = try_fault_serve_in(&session, &config, &deadline_plan, "OC").unwrap();
    assert!(timed.timed_out > 0, "a 6x overload must blow the deadline");
    assert!(timed.conserves_arrivals());

    // Shedding bounds the queue instead.
    let shed_plan =
        FaultPlan::none().with_admission(AdmissionPolicy::ShedAboveDepth { max_queue_depth: 2 });
    let shed = try_fault_serve_in(&session, &config, &shed_plan, "OC").unwrap();
    assert!(shed.shed > 0, "a 6x overload must shed above depth 2");
    assert!(shed.serve.queue.max_depth <= 3);
    assert!(shed.conserves_arrivals());

    // Graceful degradation downgrades heavy requests to the cheap class.
    let degrade_plan = FaultPlan::none().with_admission(AdmissionPolicy::DegradeAboveDepth {
        degrade_depth: 1,
        fallback_class: 1,
        shed_depth: None,
    });
    let degraded = try_fault_serve_in(&session, &config, &degrade_plan, "OC").unwrap();
    assert!(
        degraded.degraded > 0,
        "overload must downgrade heavy requests to the fallback class"
    );
    assert_eq!(degraded.shed, 0, "no shed threshold was configured");
    assert!(degraded.conserves_arrivals());
    assert!(
        degraded.goodput_rps < degraded.serve.throughput_rps,
        "downgraded completions count for throughput but not goodput"
    );
    // The downgraded requests really were served as the fallback class.
    assert_eq!(
        degraded.serve.classes[1].served,
        degraded
            .serve
            .records
            .iter()
            .filter(|r| r.class == 1)
            .count()
    );
    assert!(degraded.serve.classes[1].served > 0);
}

/// A run that completes no request: its one device is down for the whole
/// arrival window and every queued request outlives a 1 ns deadline. Its
/// latency summary is all zeros, every arrival is accounted for, and both
/// JSON renderings carry the zeros (and match the `format!` reference).
#[test]
fn a_run_that_completes_no_request_reports_zero_latencies() {
    let session = Session::new();
    let config = ServeConfig::new(
        1,
        light_mix(),
        ArrivalProcess::OpenLoop {
            rate_rps: 300.0,
            requests: 8,
        },
    );
    let outage = CrashEvent {
        device: 0,
        at_seconds: 0.0,
        down_seconds: 1.0,
    };
    let plan = FaultPlan::none()
        .with_crashes(CrashPlan::Scripted(vec![outage]))
        .with_deadline(1e-9);
    let report = try_fault_serve_in(&session, &config, &plan, "OC").unwrap();
    assert_eq!(report.serve.completed, 0);
    assert_eq!((report.offered, report.timed_out), (8, 8));
    assert!(report.conserves_arrivals());
    let zero = LatencySummary {
        mean_ms: 0.0,
        p50_ms: 0.0,
        p95_ms: 0.0,
        p99_ms: 0.0,
        max_ms: 0.0,
    };
    assert_eq!(report.serve.latency, zero);
    assert!(report.serve.latency.mean_ms.is_sign_positive());
    let latency = "\"latency\":{\"mean_ms\":0,\"p50_ms\":0,\"p95_ms\":0,\"p99_ms\":0,\"max_ms\":0}";
    let serve_json = report.serve.to_json();
    assert!(serve_json.contains(latency), "{serve_json}");
    assert!(serve_json.ends_with("\"records\":[]}"), "{serve_json}");
    assert_eq!(serve_json, reference::serve_json(&report.serve));
    assert_eq!(report.to_json(), reference::resilience_json(&report));
}

/// The fault sweep grids intensity × cluster size deterministically, keeps
/// conservation at every point, and its zero-intensity column reproduces
/// the fault-free bound.
#[test]
fn fault_sweep_is_deterministic_and_conserves_at_every_point() {
    let session = Session::new();
    let base = ServeConfig::new(
        2,
        light_mix(),
        ArrivalProcess::ClosedLoop {
            concurrency: 4,
            requests: 24,
        },
    )
    .with_seed(9);
    let probe = ServeConfig::new(
        1,
        vec![RequestClass::single(HksBenchmark::ARK, 1.0)],
        ArrivalProcess::ClosedLoop {
            concurrency: 1,
            requests: 1,
        },
    );
    let tick = try_serve_in(&session, &probe, "OC").unwrap().records[0].service_seconds;
    let plan = FaultPlan::none()
        .with_crashes(CrashPlan::Random {
            mtbf_seconds: 10.0 * tick,
            mttr_seconds: 2.0 * tick,
        })
        .with_transient_failure_rate(0.05)
        .with_retry(RetryPolicy::capped_exponential(3, 0.1 * tick, tick));
    let intensities = [0.0, 0.5, 1.0, 2.0];
    let sizes = [1usize, 2, 4];

    let sweep = try_fault_sweep_in(&session, &base, &plan, "OC", &intensities, &sizes)
        .expect("fault sweep succeeds");
    assert_eq!(sweep.points.len(), intensities.len() * sizes.len());
    for point in &sweep.points {
        assert_eq!(
            point.offered,
            point.completed + point.timed_out + point.shed,
            "conservation must hold at intensity {} x{}",
            point.intensity,
            point.num_devices
        );
        assert!(point.goodput_rps <= point.throughput_rps + 1e-12);
        assert!(point.mean_availability > 0.0 && point.mean_availability <= 1.0);
    }
    // Zero intensity is the fault-free bound: nothing lost, wasted, or
    // retried.
    for point in sweep.points.iter().filter(|p| p.intensity == 0.0) {
        assert_eq!(point.completed, point.offered);
        assert_eq!(point.retries, 0);
        assert_eq!(point.wasted_seconds, 0.0);
        assert_eq!(point.mean_availability, 1.0);
    }

    let replay = try_fault_sweep_in(&session, &base, &plan, "OC", &intensities, &sizes)
        .expect("replay succeeds");
    assert_eq!(sweep, replay, "the fault sweep must be bit-reproducible");

    // The goodput fraction under the standard adverse plan of the serving
    // gallery and the benchmark: retries are generous and admission open,
    // so faults cost goodput but never all of it.
    let standard = standard_fault_plan(tick);
    let fault_free = try_serve_in(&session, &base, "OC").unwrap();
    let faulted = try_fault_serve_in(&session, &base, &standard, "OC").unwrap();
    let goodput_fraction = faulted.goodput_rps / fault_free.throughput_rps;
    assert!(
        goodput_fraction > 0.0 && goodput_fraction <= 1.0,
        "faults can only cost goodput ({goodput_fraction})"
    );
}

/// The sweeps measure once and replay the table at every grid point; each
/// point must still be exactly what the direct run at that point reports.
/// Compared through `Debug`, which prints every `f64` in its shortest
/// round-trip form, so equal text is equal bits.
#[test]
fn sweep_points_equal_the_direct_runs_bit_for_bit() {
    let session = Session::new();
    let base = ServeConfig::new(
        2,
        light_mix(),
        ArrivalProcess::OpenLoop {
            rate_rps: 2000.0,
            requests: 48,
        },
    )
    .with_seed(5);
    let sizes = [1usize, 3];

    // Serving sweep vs `try_serve_in` at every (size, bandwidth), on an
    // unsorted ladder with a duplicate.
    let bandwidths = [64.0, 8.0, 25.6, 8.0];
    let sweep = try_serve_sweep_in(&session, &base, "OC", &sizes, &bandwidths).unwrap();
    let grid = sizes
        .iter()
        .flat_map(|&n| bandwidths.iter().map(move |&bw| (n, bw)));
    assert_eq!(sweep.points.len(), sizes.len() * bandwidths.len());
    for (point, (num_devices, bandwidth)) in sweep.points.iter().zip(grid) {
        let mut config = base.clone();
        config.cluster.num_devices = num_devices;
        config.cluster.rpu = base.cluster.rpu.clone().with_bandwidth(bandwidth);
        let report = try_serve_in(&session, &config, "OC").unwrap();
        let direct = ServeSweepPoint {
            num_devices: report.num_devices,
            bandwidth_gbps: report.bandwidth_gbps,
            throughput_rps: report.throughput_rps,
            mean_utilization: report.mean_utilization(),
            p50_ms: report.latency.p50_ms,
            p95_ms: report.latency.p95_ms,
            p99_ms: report.latency.p99_ms,
            max_queue_depth: report.queue.max_depth,
        };
        assert_eq!(format!("{point:?}"), format!("{direct:?}"));
        assert_eq!(sweep.strategy, report.strategy);
    }

    // Fault sweep vs `try_fault_serve_in` under `base_plan.scaled(i)`, with
    // a degradation window so the table has a timeline-derived row.
    let tick = try_serve_in(&session, &base, "OC").unwrap().latency.p50_ms * 1e-3;
    let base_plan = standard_fault_plan(tick).with_degradation(DegradeWindow {
        device: 0,
        start_seconds: 2.0 * tick,
        duration_seconds: 10.0 * tick,
        bandwidth_factor: 0.25,
    });
    let intensities = [0.0, 1.0, 2.5];
    let sweep =
        try_fault_sweep_in(&session, &base, &base_plan, "OC", &intensities, &sizes).unwrap();
    let grid = sizes
        .iter()
        .flat_map(|&n| intensities.iter().map(move |&i| (n, i)));
    assert_eq!(sweep.points.len(), sizes.len() * intensities.len());
    for (point, (num_devices, intensity)) in sweep.points.iter().zip(grid) {
        let mut config = base.clone();
        config.cluster.num_devices = num_devices;
        let plan = base_plan.scaled(intensity);
        let report = try_fault_serve_in(&session, &config, &plan, "OC").unwrap();
        let direct = FaultSweepPoint {
            intensity,
            num_devices: report.serve.num_devices,
            offered: report.offered,
            completed: report.serve.completed,
            timed_out: report.timed_out,
            shed: report.shed,
            degraded: report.degraded,
            retries: report.retries,
            goodput_rps: report.goodput_rps,
            throughput_rps: report.serve.throughput_rps,
            mean_availability: report.mean_availability(),
            wasted_seconds: report.wasted_seconds,
            p99_ms: report.serve.latency.p99_ms,
        };
        assert_eq!(format!("{point:?}"), format!("{direct:?}"));
        assert_eq!(sweep.strategy, report.serve.strategy);
    }
}

/// Invalid plans and ladders surface as typed errors on both the direct
/// and the sweep path.
#[test]
fn invalid_plans_error_on_both_paths() {
    let session = Session::new();
    let config = ServeConfig::new(
        2,
        light_mix(),
        ArrivalProcess::ClosedLoop {
            concurrency: 2,
            requests: 8,
        },
    );
    let bad_plan = FaultPlan::none().with_crashes(CrashPlan::Scripted(vec![CrashEvent {
        device: 5,
        at_seconds: 0.0,
        down_seconds: 1.0,
    }]));
    match try_fault_serve_in(&session, &config, &bad_plan, "OC") {
        Err(CiflowError::InvalidConfig { message }) => {
            assert!(message.contains("targets device 5"), "got {message:?}");
        }
        other => panic!("out-of-range crash device must be rejected, got {other:?}"),
    }

    assert!(matches!(
        try_fault_sweep_in(&session, &config, &FaultPlan::none(), "OC", &[], &[2]),
        Err(CiflowError::InvalidConfig { .. })
    ));
    assert!(matches!(
        try_fault_sweep_in(
            &session,
            &config,
            &FaultPlan::none(),
            "OC",
            &[f64::NAN],
            &[2]
        ),
        Err(CiflowError::InvalidConfig { .. })
    ));
    assert!(matches!(
        try_fault_sweep_in(&session, &config, &FaultPlan::none(), "OC", &[1.0], &[]),
        Err(CiflowError::InvalidConfig { .. })
    ));
    // A scripted crash valid at the probe size but not at a smaller grid
    // size fails that point.
    let sized_plan = FaultPlan::none().with_crashes(CrashPlan::Scripted(vec![CrashEvent {
        device: 1,
        at_seconds: 0.0,
        down_seconds: 1.0,
    }]));
    assert!(matches!(
        try_fault_sweep_in(&session, &config, &sized_plan, "OC", &[1.0], &[2, 1]),
        Err(CiflowError::InvalidConfig { .. })
    ));
}

/// The JSON renderings carry their schemas and balanced structure.
#[test]
fn resilience_json_is_schema_tagged_and_balanced() {
    let session = Session::new();
    let config = ServeConfig::new(
        2,
        light_mix(),
        ArrivalProcess::ClosedLoop {
            concurrency: 3,
            requests: 12,
        },
    );
    let plan = FaultPlan::none()
        .with_transient_failure_rate(0.2)
        .with_retry(RetryPolicy::capped_exponential(3, 1e-4, 1e-3));
    let report = try_fault_serve_in(&session, &config, &plan, "OC").unwrap();

    let serve_json = report.serve.to_json();
    assert!(serve_json.starts_with("{\"schema\":\"ciflow.serve_report.v1\""));
    for key in [
        "\"strategy\"",
        "\"policy\"",
        "\"completed\"",
        "\"throughput_rps\"",
        "\"latency\"",
        "\"queue\"",
        "\"devices\"",
        "\"classes\"",
        "\"records\"",
    ] {
        assert!(serve_json.contains(key), "serve JSON missing {key}");
    }
    let json = report.to_json();
    assert!(json.starts_with("{\"schema\":\"ciflow.resilience_report.v1\""));
    for key in [
        "\"offered\"",
        "\"timed_out\"",
        "\"shed\"",
        "\"degraded\"",
        "\"retries\"",
        "\"transient_failures\"",
        "\"crash_losses\"",
        "\"wasted_seconds\"",
        "\"goodput_rps\"",
        "\"availability\"",
        "\"serve\"",
    ] {
        assert!(json.contains(key), "resilience JSON missing {key}");
    }
    for text in [&serve_json, &json] {
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "braces must balance"
        );
        assert_eq!(
            text.matches('[').count(),
            text.matches(']').count(),
            "brackets must balance"
        );
        assert_eq!(text.matches('"').count() % 2, 0, "quotes must pair");
    }
}

/// SplitMix64: the seeded generator behind the rendering oracle.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A float from the edge cases that stress shortest round-trip
    /// rendering, or an arbitrary finite bit pattern.
    fn float(&mut self) -> f64 {
        const EDGES: [f64; 12] = [
            0.0,
            -0.0,
            5e-324,
            2.2250738585072014e-308 / 3.0,
            1e-7,
            1e21,
            f64::MAX,
            -f64::MAX,
            0.1,
            1.0,
            123_456.789,
            3.0e-3,
        ];
        if self.below(3) == 0 {
            let value = f64::from_bits(self.next());
            if value.is_finite() {
                return value;
            }
        }
        EDGES[self.below(EDGES.len())]
    }

    /// A name with characters JSON must escape (no control characters:
    /// those are the one deliberate change, pinned separately below).
    fn name(&mut self) -> String {
        const PIECES: [&str; 6] = ["ARK", "\"q\"", "back\\slash", "BTS2 relin", "é", ""];
        (0..self.below(3) + 1)
            .map(|_| PIECES[self.below(PIECES.len())])
            .collect()
    }
}

/// A seeded `ServeReport`: empty and populated device / class / record
/// lists, service times interleaved across classes (mostly constant per
/// class, sometimes not), runs of repeated waits including `0.0` next to
/// `-0.0`, and record classes beyond the class list.
fn random_serve_report(rng: &mut SplitMix) -> ServeReport {
    let classes: Vec<ClassUsage> = (0..rng.below(5))
        .map(|_| ClassUsage {
            name: rng.name(),
            served: rng.below(1000),
            service_ms: rng.float(),
        })
        .collect();
    let class_service: Vec<f64> = (0..classes.len().max(1)).map(|_| rng.float()).collect();
    let mut wait = rng.float();
    let records = (0..[0, 1, 7, 300][rng.below(4)])
        .map(|id| {
            let class = rng.below(classes.len() + 2);
            if rng.below(3) == 0 {
                wait = rng.float();
            }
            RequestRecord {
                id: if rng.below(8) == 0 {
                    rng.next() as usize
                } else {
                    id
                },
                class,
                device: rng.below(16),
                arrival_seconds: rng.float(),
                wait_seconds: wait,
                service_seconds: if rng.below(10) == 0 {
                    rng.float()
                } else {
                    class_service[class % class_service.len()]
                },
            }
        })
        .collect();
    ServeReport {
        strategy: rng.name(),
        policy: DispatchPolicy::all()[rng.below(3)],
        seed: rng.next(),
        num_devices: rng.below(9),
        bandwidth_gbps: rng.float(),
        completed: rng.below(100_000),
        makespan_seconds: rng.float(),
        throughput_rps: rng.float(),
        latency: LatencySummary {
            mean_ms: rng.float(),
            p50_ms: rng.float(),
            p95_ms: rng.float(),
            p99_ms: rng.float(),
            max_ms: rng.float(),
        },
        queue: QueueSummary {
            max_depth: rng.below(500),
            mean_depth: rng.float(),
        },
        devices: (0..rng.below(5))
            .map(|device| DeviceUsage {
                device,
                served: rng.below(1000),
                busy_seconds: rng.float(),
                utilization: rng.float(),
            })
            .collect(),
        classes,
        records,
    }
}

fn random_resilience_report(rng: &mut SplitMix) -> ResilienceReport {
    ResilienceReport {
        serve: random_serve_report(rng),
        offered: rng.below(100_000),
        timed_out: rng.below(100),
        shed: rng.below(100),
        degraded: rng.below(100),
        late: rng.below(100),
        retries: rng.below(1000),
        transient_failures: rng.below(100),
        crash_losses: rng.below(100),
        wasted_seconds: rng.float(),
        goodput_rps: rng.float(),
        availability: (0..rng.below(5))
            .map(|device| DeviceAvailability {
                device,
                crashes: rng.below(10),
                down_seconds: rng.float(),
                availability: rng.float(),
            })
            .collect(),
    }
}

/// The field-by-field `format!` renderer the streamed writer replaced,
/// kept as the byte-identity reference (its escape handles only `\` and
/// `"`, which is all the generated names contain).
mod reference {
    use super::{ResilienceReport, ServeReport};

    fn escape(raw: &str) -> String {
        raw.replace('\\', "\\\\").replace('"', "\\\"")
    }

    pub fn serve_json(report: &ServeReport) -> String {
        let devices = report
            .devices
            .iter()
            .map(|d| {
                format!(
                    "{{\"device\":{},\"served\":{},\"busy_seconds\":{},\"utilization\":{}}}",
                    d.device, d.served, d.busy_seconds, d.utilization
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let classes = report
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":\"{}\",\"served\":{},\"service_ms\":{}}}",
                    escape(&c.name),
                    c.served,
                    c.service_ms
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let records = report
            .records
            .iter()
            .map(|r| {
                format!(
                    "{{\"id\":{},\"class\":{},\"device\":{},\"arrival_seconds\":{},\
                     \"wait_seconds\":{},\"service_seconds\":{}}}",
                    r.id, r.class, r.device, r.arrival_seconds, r.wait_seconds, r.service_seconds
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"ciflow.serve_report.v1\",\"strategy\":\"{}\",\"policy\":\"{}\",\
             \"seed\":{},\"num_devices\":{},\"bandwidth_gbps\":{},\"completed\":{},\
             \"makespan_seconds\":{},\"throughput_rps\":{},\
             \"latency\":{{\"mean_ms\":{},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\
             \"max_ms\":{}}},\"queue\":{{\"max_depth\":{},\"mean_depth\":{}}},\
             \"devices\":[{devices}],\"classes\":[{classes}],\"records\":[{records}]}}",
            escape(&report.strategy),
            report.policy,
            report.seed,
            report.num_devices,
            report.bandwidth_gbps,
            report.completed,
            report.makespan_seconds,
            report.throughput_rps,
            report.latency.mean_ms,
            report.latency.p50_ms,
            report.latency.p95_ms,
            report.latency.p99_ms,
            report.latency.max_ms,
            report.queue.max_depth,
            report.queue.mean_depth,
        )
    }

    pub fn resilience_json(report: &ResilienceReport) -> String {
        let availability = report
            .availability
            .iter()
            .map(|d| {
                format!(
                    "{{\"device\":{},\"crashes\":{},\"down_seconds\":{},\"availability\":{}}}",
                    d.device, d.crashes, d.down_seconds, d.availability
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"ciflow.resilience_report.v1\",\"offered\":{},\"completed\":{},\
             \"timed_out\":{},\"shed\":{},\"degraded\":{},\"late\":{},\"retries\":{},\
             \"transient_failures\":{},\"crash_losses\":{},\"wasted_seconds\":{},\
             \"goodput_rps\":{},\"throughput_rps\":{},\"mean_availability\":{},\
             \"availability\":[{availability}],\"serve\":{}}}",
            report.offered,
            report.serve.completed,
            report.timed_out,
            report.shed,
            report.degraded,
            report.late,
            report.retries,
            report.transient_failures,
            report.crash_losses,
            report.wasted_seconds,
            report.goodput_rps,
            report.serve.throughput_rps,
            report.mean_availability(),
            serve_json(&report.serve)
        )
    }
}

/// The streamed renderers are byte-identical to the `format!` reference on
/// seeded reports, and on real simulator output.
#[test]
fn streamed_json_matches_the_format_reference_byte_for_byte() {
    let mut rng = SplitMix(0x5EED_CAFE);
    for case in 0..200 {
        let report = random_resilience_report(&mut rng);
        assert_eq!(
            report.serve.to_json(),
            reference::serve_json(&report.serve),
            "serve report, case {case}"
        );
        assert_eq!(
            report.to_json(),
            reference::resilience_json(&report),
            "resilience report, case {case}"
        );
        let mut embedded = String::from("[");
        report.serve.write_json(&mut embedded);
        assert_eq!(embedded[1..], reference::serve_json(&report.serve));
    }

    let session = Session::new();
    let config = ServeConfig::new(
        3,
        light_mix(),
        ArrivalProcess::OpenLoop {
            rate_rps: 4e4,
            requests: 400,
        },
    );
    let plan = FaultPlan::none()
        .with_transient_failure_rate(0.1)
        .with_retry(RetryPolicy::capped_exponential(3, 1e-5, 1e-4));
    let served = try_serve_in(&session, &config, "OC").unwrap();
    assert_eq!(served.to_json(), reference::serve_json(&served));
    let faulted = try_fault_serve_in(&session, &config, &plan, "OC").unwrap();
    assert_eq!(faulted.to_json(), reference::resilience_json(&faulted));
}

/// A class or strategy name with control characters renders as valid JSON:
/// no raw control bytes, every string escaped and closed.
#[test]
fn control_characters_in_names_are_escaped() {
    let mut rng = SplitMix(7);
    let mut report = random_resilience_report(&mut rng);
    let name = "a\n\"b\\";
    report.serve.strategy = name.to_string();
    report.serve.classes = vec![ClassUsage {
        name: format!("{name}\t\u{1}"),
        served: 1,
        service_ms: 0.5,
    }];
    for json in [report.serve.to_json(), report.to_json()] {
        assert!(
            !json.chars().any(|c| (c as u32) < 0x20),
            "raw control character in {json}"
        );
        assert!(json.contains(r#""strategy":"a\n\"b\\""#));
        assert!(json.contains(r#""name":"a\n\"b\\\t\u0001""#));
        // Outside string literals, braces and brackets balance and every
        // literal closes.
        let (mut depth, mut in_string, mut escaped) = (0i64, false, false);
        for c in json.chars() {
            match (in_string, c) {
                (true, _) if escaped => escaped = false,
                (true, '\\') => escaped = true,
                (true, '"') | (false, '"') => in_string = !in_string,
                (false, '{' | '[') => depth += 1,
                (false, '}' | ']') => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in {json}");
        }
        assert!(!in_string, "unterminated string in {json}");
        assert_eq!(depth, 0, "unbalanced structure in {json}");
    }
}
