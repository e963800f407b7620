//! Integration tests of the fleet-scale serving simulator.
//!
//! The load-bearing invariants:
//!
//! 1. **Exact replay** — a closed-loop, concurrency-1, single-class run is an
//!    exact replay of the plain [`Session`] path: every request's latency is
//!    *bit-identical* to the engine-simulated runtime of its class.
//! 2. **Determinism** — a [`ServeReport`] is a pure function of
//!    `(ServeConfig, strategy)`: same seed ⇒ identical report (down to
//!    `PartialEq`), different seed ⇒ different arrival order.
//! 3. **Validation** — structurally invalid configurations surface as
//!    [`CiflowError::InvalidConfig`] on both the direct and the sweep path.

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::serve::{try_serve_in, ArrivalProcess, DispatchPolicy, RequestClass, ServeConfig};
use ciflow::sweep::{try_serve_sweep_in, BANDWIDTH_LADDER};
use ciflow::CiflowError;
use proptest::prelude::*;
use rpu::RpuConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 1: with one client, one class and any cluster size, the
    /// serving layer degenerates to running the class back-to-back through
    /// the plain session path — every latency equals the engine runtime to
    /// the bit, and the makespan is exactly `requests × service`.
    #[test]
    fn closed_loop_concurrency_one_replays_the_plain_session(
        benchmark_index in 0usize..5,
        dataflow_index in 0usize..3,
        bandwidth_index in 0usize..BANDWIDTH_LADDER.len(),
        requests in 1usize..12,
        seed in any::<u64>(),
    ) {
        let benchmark = HksBenchmark::all()[benchmark_index];
        let dataflow = Dataflow::all()[dataflow_index];
        let rpu = RpuConfig::ciflow_baseline()
            .with_bandwidth(BANDWIDTH_LADDER[bandwidth_index]);

        let session = Session::new();
        let reference = session
            .run_job(
                &ciflow::Job::new(benchmark, dataflow).with_rpu(rpu.clone()),
            )
            .unwrap();

        let config = ServeConfig::new(
            1,
            vec![RequestClass::single(benchmark, 1.0)],
            ArrivalProcess::ClosedLoop { concurrency: 1, requests },
        )
        .with_rpu(rpu)
        .with_seed(seed);
        let report = try_serve_in(&session, &config, dataflow).unwrap();

        prop_assert_eq!(report.completed, requests);
        for record in &report.records {
            prop_assert_eq!(record.wait_seconds.to_bits(), 0.0f64.to_bits());
            prop_assert_eq!(
                record.latency_ms().to_bits(),
                reference.runtime_ms().to_bits(),
                "request latency must replay the plain session bit-for-bit"
            );
        }
        let expected_makespan = requests as f64 * reference.stats.runtime_seconds;
        prop_assert!((report.makespan_seconds - expected_makespan).abs()
            <= expected_makespan * 1e-12);
    }
}

#[test]
fn same_seed_reproduces_the_report_and_different_seeds_differ() {
    let config = ServeConfig::new(
        3,
        RequestClass::standard_mix(HksBenchmark::ARK),
        ArrivalProcess::OpenLoop {
            rate_rps: 200.0,
            requests: 48,
        },
    )
    .with_policy(DispatchPolicy::LeastLoaded)
    .with_seed(42);

    let session = Session::new();
    let a = try_serve_in(&session, &config, "OC").unwrap();
    let b = try_serve_in(&session, &config, "OC").unwrap();
    assert_eq!(a, b, "same config and seed must reproduce bit-identically");

    let c = try_serve_in(&session, &config.clone().with_seed(43), "OC").unwrap();
    assert_ne!(
        a.records, c.records,
        "a different seed must change the arrival sequence"
    );
}

#[test]
fn invalid_configurations_error_on_the_direct_path() {
    let session = Session::new();
    let valid_arrival = ArrivalProcess::ClosedLoop {
        concurrency: 2,
        requests: 8,
    };
    let mix = RequestClass::standard_mix(HksBenchmark::ARK);

    // Zero devices.
    let zero_devices = ServeConfig::new(0, mix.clone(), valid_arrival);
    assert!(matches!(
        try_serve_in(&session, &zero_devices, "OC"),
        Err(CiflowError::InvalidConfig { .. })
    ));

    // No request classes.
    let no_classes = ServeConfig::new(2, Vec::new(), valid_arrival);
    assert!(matches!(
        try_serve_in(&session, &no_classes, "OC"),
        Err(CiflowError::InvalidConfig { .. })
    ));

    // Non-finite arrival rate.
    let nan_rate = ServeConfig::new(
        2,
        mix.clone(),
        ArrivalProcess::OpenLoop {
            rate_rps: f64::NAN,
            requests: 8,
        },
    );
    assert!(matches!(
        try_serve_in(&session, &nan_rate, "OC"),
        Err(CiflowError::InvalidConfig { .. })
    ));

    // Degenerate weights.
    let mut nan_weight = ServeConfig::new(2, mix.clone(), valid_arrival);
    nan_weight.classes[0].weight = f64::NAN;
    assert!(matches!(
        try_serve_in(&session, &nan_weight, "OC"),
        Err(CiflowError::InvalidConfig { .. })
    ));

    // The rejection names the offending value, on the direct path...
    let mut zero_weights = ServeConfig::new(2, mix.clone(), valid_arrival);
    for class in &mut zero_weights.classes {
        class.weight = 0.0;
    }
    match try_serve_in(&session, &zero_weights, "OC") {
        Err(CiflowError::InvalidConfig { message }) => {
            assert!(message.contains("weights sum to 0"), "got {message:?}");
        }
        other => panic!("zero-weight mix must be rejected, got {other:?}"),
    }
    let mut negative_rate = ServeConfig::new(2, mix.clone(), valid_arrival);
    negative_rate.arrival = ArrivalProcess::OpenLoop {
        rate_rps: -5.0,
        requests: 8,
    };
    match try_serve_in(&session, &negative_rate, "OC") {
        Err(CiflowError::InvalidConfig { message }) => {
            assert!(
                message.contains("rate -5 req/s is not positive"),
                "got {message:?}"
            );
        }
        other => panic!("negative rate must be rejected, got {other:?}"),
    }
    let mut bad_bandwidth = ServeConfig::new(2, mix, valid_arrival);
    bad_bandwidth.cluster.rpu.dram_bandwidth_gbps = f64::NAN;
    match try_serve_in(&session, &bad_bandwidth, "OC") {
        Err(CiflowError::InvalidConfig { message }) => {
            assert!(message.contains("DRAM bandwidth NaN"), "got {message:?}");
        }
        other => panic!("NaN bandwidth must be rejected, got {other:?}"),
    }
}

#[test]
fn invalid_configurations_error_on_the_sweep_path() {
    let session = Session::new();
    let base = ServeConfig::new(
        2,
        RequestClass::standard_mix(HksBenchmark::ARK),
        ArrivalProcess::ClosedLoop {
            concurrency: 2,
            requests: 8,
        },
    );

    // Empty ladders are rejected before any execution.
    assert!(matches!(
        try_serve_sweep_in(&session, &base, "OC", &[], &[8.0]),
        Err(CiflowError::InvalidConfig { .. })
    ));
    assert!(matches!(
        try_serve_sweep_in(&session, &base, "OC", &[2], &[]),
        Err(CiflowError::InvalidConfig { .. })
    ));

    // A zero cluster size inside the ladder fails per-point validation.
    assert!(matches!(
        try_serve_sweep_in(&session, &base, "OC", &[2, 0], &[8.0]),
        Err(CiflowError::InvalidConfig { .. })
    ));

    // An invalid base config (zero classes) fails every point.
    let mut no_classes = base.clone();
    no_classes.classes.clear();
    assert!(matches!(
        try_serve_sweep_in(&session, &no_classes, "OC", &[2], &[8.0]),
        Err(CiflowError::InvalidConfig { .. })
    ));

    // Unknown strategies surface the registry error, not a panic.
    assert!(matches!(
        try_serve_sweep_in(&session, &base, "not-a-strategy", &[2], &[8.0]),
        Err(CiflowError::UnknownStrategy { .. })
    ));

    // The sweep path carries the same specific message as the direct path.
    let mut zero_weights = base.clone();
    for class in &mut zero_weights.classes {
        class.weight = 0.0;
    }
    match try_serve_sweep_in(&session, &zero_weights, "OC", &[2], &[8.0]) {
        Err(CiflowError::InvalidConfig { message }) => {
            assert!(message.contains("weights sum to 0"), "got {message:?}");
        }
        other => panic!("zero-weight mix must fail the sweep, got {other:?}"),
    }
}

/// The ISSUE acceptance sweep: ≥2 cluster sizes × the Fig-4 bandwidth
/// ladder × ≥2 strategies, deterministic across repeated calls, with sane
/// latency ordering and utilization at every point.
#[test]
fn serve_sweep_is_deterministic_across_sizes_bandwidths_and_strategies() {
    let base = ServeConfig::new(
        2,
        RequestClass::standard_mix(HksBenchmark::ARK),
        ArrivalProcess::ClosedLoop {
            concurrency: 6,
            requests: 24,
        },
    )
    .with_policy(DispatchPolicy::ClassAffinity)
    .with_seed(7);
    let sizes = [2usize, 4];

    let session = Session::new();
    for strategy in ["MP", "OC"] {
        let sweep = try_serve_sweep_in(&session, &base, strategy, &sizes, &BANDWIDTH_LADDER)
            .expect("acceptance sweep succeeds");
        assert_eq!(sweep.strategy, strategy);
        assert_eq!(sweep.points.len(), sizes.len() * BANDWIDTH_LADDER.len());
        for point in &sweep.points {
            assert!(point.throughput_rps > 0.0);
            assert!(
                point.mean_utilization > 0.0 && point.mean_utilization <= 1.0 + 1e-12,
                "utilization {} out of range",
                point.mean_utilization
            );
            assert!(point.p50_ms <= point.p95_ms);
            assert!(point.p95_ms <= point.p99_ms);
        }
        // Per (size, strategy): more per-device bandwidth never hurts
        // throughput (service times shrink or saturate).
        for chunk in sweep.points.chunks(BANDWIDTH_LADDER.len()) {
            for w in chunk.windows(2) {
                assert!(
                    w[1].throughput_rps >= w[0].throughput_rps * (1.0 - 1e-9),
                    "throughput regressed from {} to {} GB/s",
                    w[0].bandwidth_gbps,
                    w[1].bandwidth_gbps
                );
            }
        }

        let replay = try_serve_sweep_in(&session, &base, strategy, &sizes, &BANDWIDTH_LADDER)
            .expect("replay succeeds");
        assert_eq!(sweep, replay, "the sweep must be bit-reproducible");
    }
}

#[test]
fn overload_grows_the_queue_and_devices_relieve_it() {
    let classes = vec![RequestClass::single(HksBenchmark::ARK, 1.0)];
    let session = Session::new();

    // Find the single-device service rate, then offer 8x that load.
    let probe = ServeConfig::new(
        1,
        classes.clone(),
        ArrivalProcess::ClosedLoop {
            concurrency: 1,
            requests: 1,
        },
    );
    let service_seconds = try_serve_in(&session, &probe, "OC").unwrap().records[0].service_seconds;
    let overload_rate = 8.0 / service_seconds;

    let overloaded = ServeConfig::new(
        1,
        classes.clone(),
        ArrivalProcess::OpenLoop {
            rate_rps: overload_rate,
            requests: 40,
        },
    );
    let report = try_serve_in(&session, &overloaded, "OC").unwrap();
    assert!(
        report.queue.max_depth >= 10,
        "an 8x-overloaded open loop must build a deep queue (saw {})",
        report.queue.max_depth
    );
    assert!(report.queue.mean_depth > 1.0);

    // The same offered load on a big-enough cluster keeps queues shallow
    // and finishes sooner.
    let mut fleet = overloaded.clone();
    fleet.cluster.num_devices = 8;
    let fleet_report = try_serve_in(&session, &fleet, "OC").unwrap();
    assert!(fleet_report.queue.max_depth < report.queue.max_depth);
    assert!(fleet_report.makespan_seconds < report.makespan_seconds);
    assert!(fleet_report.latency.p99_ms < report.latency.p99_ms);
}

/// A closed loop with more clients than the request budget: only
/// `requests` arrivals are ever issued, so the effective concurrency is
/// the budget and the run still terminates cleanly.
#[test]
fn closed_loop_concurrency_beyond_the_budget_issues_only_the_budget() {
    let session = Session::new();
    let config = ServeConfig::new(
        2,
        vec![RequestClass::single(HksBenchmark::ARK, 1.0)],
        ArrivalProcess::ClosedLoop {
            concurrency: 16,
            requests: 3,
        },
    );
    let report = try_serve_in(&session, &config, "OC").unwrap();
    assert_eq!(report.completed, 3, "the budget caps the issued requests");
    assert_eq!(report.records.len(), 3);
    // All three arrive at time zero (the 16-client ramp is truncated), two
    // dispatch immediately on the two devices, one waits for the first
    // completion.
    assert!(report
        .records
        .iter()
        .all(|r| r.arrival_seconds.to_bits() == 0.0f64.to_bits()));
    assert_eq!(report.queue.max_depth, 1);
    let service = report.records[0].service_seconds;
    assert!((report.makespan_seconds - 2.0 * service).abs() <= service * 1e-12);
}

/// Queue-depth accounting on a single overloaded device: the reported
/// time-weighted mean depth is exactly the integral of the per-request
/// waiting intervals, and the max depth matches the maximum interval
/// overlap — both reconstructed independently from the records.
#[test]
fn queue_depth_accounting_matches_the_records() {
    let session = Session::new();
    let classes = vec![RequestClass::single(HksBenchmark::ARK, 1.0)];
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
            rate_rps: 6.0 / service,
            requests: 30,
        },
    )
    .with_seed(17);
    let report = try_serve_in(&session, &config, "OC").unwrap();
    assert_eq!(report.completed, 30);

    // ∫ depth dt = Σ wait: each queued request contributes exactly its
    // waiting interval to the depth integral.
    let wait_integral: f64 = report.records.iter().map(|r| r.wait_seconds).sum();
    let reported_area = report.queue.mean_depth * report.makespan_seconds;
    assert!(
        (reported_area - wait_integral).abs() <= wait_integral.abs() * 1e-9,
        "mean depth x makespan ({reported_area}) must equal the summed \
         waits ({wait_integral})"
    );

    // Max depth = max overlap of the waiting intervals [arrival, dispatch).
    let mut events: Vec<(f64, i64)> = Vec::new();
    for r in &report.records {
        if r.wait_seconds > 0.0 {
            events.push((r.arrival_seconds, 1));
            events.push((r.arrival_seconds + r.wait_seconds, -1));
        }
    }
    // Half-open intervals: departures at t leave before arrivals at t join.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut depth = 0i64;
    let mut max_overlap = 0i64;
    for (_, delta) in events {
        depth += delta;
        max_overlap = max_overlap.max(depth);
    }
    assert_eq!(
        usize::try_from(max_overlap).unwrap(),
        report.queue.max_depth,
        "reported max depth must equal the reconstructed interval overlap"
    );
    assert!(report.queue.max_depth >= 5, "a 6x overload queues deeply");
}

#[test]
fn dispatch_policies_preserve_work_and_differ_only_in_waiting() {
    let config = ServeConfig::new(
        3,
        RequestClass::standard_mix(HksBenchmark::ARK),
        ArrivalProcess::OpenLoop {
            rate_rps: 400.0,
            requests: 36,
        },
    )
    .with_seed(11);
    let session = Session::new();

    let mut total_busy: Vec<f64> = Vec::new();
    for policy in DispatchPolicy::all() {
        let report = try_serve_in(&session, &config.clone().with_policy(policy), "OC").unwrap();
        assert_eq!(report.completed, 36, "{policy} completes the run");
        // Policies choose placement/order only: the per-class service times
        // (and so the summed busy time, up to summation order) are
        // policy-invariant.
        total_busy.push(report.devices.iter().map(|d| d.busy_seconds).sum::<f64>());
    }
    assert!(
        total_busy
            .windows(2)
            .all(|w| (w[0] - w[1]).abs() <= w[0].abs() * 1e-9),
        "total busy time must not depend on the dispatch policy: {total_busy:?}"
    );
}
