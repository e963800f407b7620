//! Integration tests of the `ciflow::api` session layer: registry
//! round-trips with an out-of-crate strategy, parallel batch execution with
//! per-job results, and cross-strategy invariants over the built-in
//! dataflows.

use ciflow::api::{Job, ScheduleStrategy, Session, StrategyRegistry};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::error::CiflowError;
use ciflow::hks_shape::HksShape;
use ciflow::schedule::{Schedule, ScheduleConfig};
use ciflow::serve::{
    try_fault_serve_in, try_serve_in, ArrivalProcess, FaultPlan, RequestClass, ServeConfig,
};
use ciflow::workload::{PipelineMode, Workload};
use rpu::{ComputeKind, EvkPolicy, MemoryDirection, RpuConfig, TaskGraph};
use std::sync::Arc;

/// A deliberately naive out-of-crate strategy: stream everything, reuse
/// nothing. It is built purely from the public `rpu` task-graph API — no
/// access to anything `pub(crate)` inside `ciflow` — which is exactly the
/// situation of a downstream crate plugging in a new dataflow.
struct NoReuse;

impl ScheduleStrategy for NoReuse {
    fn name(&self) -> &str {
        "no-reuse"
    }

    fn short_name(&self) -> &str {
        "NR"
    }

    fn description(&self) -> &str {
        "worst case: every stage round-trips its operands through DRAM"
    }

    fn build(&self, shape: &HksShape, config: &ScheduleConfig) -> Result<Schedule, CiflowError> {
        let mut graph = TaskGraph::new();
        let mut spill_bytes = 0;
        let mut previous = None;
        // One load -> compute -> store round trip per stage, sized by the
        // whole working set: a strict upper bound on any real dataflow.
        let stage_ops = [
            ("ModUp-P1", shape.modup_ops() / 2),
            ("ModUp-P5", shape.modup_ops() - shape.modup_ops() / 2),
            ("ModDown-P1", shape.moddown_ops() / 2),
            ("ModDown-P4", shape.moddown_ops() - shape.moddown_ops() / 2),
        ];
        let round_trip = shape.input_bytes() + shape.output_bytes() + shape.evk_bytes();
        for (stage, ops) in stage_ops {
            let load = graph.push_memory(
                MemoryDirection::Load,
                round_trip,
                previous.map(|p| vec![p]).unwrap_or_default(),
                format!("reload working set ({stage})"),
                stage,
            );
            let compute = graph.push_compute(ComputeKind::Ntt, ops, vec![load], "stage", stage);
            let store = graph.push_memory(
                MemoryDirection::Store,
                round_trip,
                vec![compute],
                format!("writeback working set ({stage})"),
                stage,
            );
            spill_bytes += 2 * round_trip;
            previous = Some(store);
        }
        let _ = config;
        Ok(Schedule {
            strategy: self.short_name().to_string(),
            graph,
            peak_on_chip_bytes: 0,
            spill_bytes,
        })
    }
}

/// A strategy whose generator is buggy on purpose: it hands back a task list
/// with a cross-queue ordering cycle, the kind of schedule the engine would
/// reject as a deadlock. `TaskGraph::from_tasks` refuses to construct it, and
/// the strategy propagates that as a typed error.
struct Deadlocking;

impl ScheduleStrategy for Deadlocking {
    fn name(&self) -> &str {
        "deadlocking"
    }
    fn short_name(&self) -> &str {
        "DL"
    }
    fn build(&self, _shape: &HksShape, _config: &ScheduleConfig) -> Result<Schedule, CiflowError> {
        // Compute task 0 depends on memory task 1: a forward dependency that
        // would wedge the in-order queues against each other.
        let tasks = vec![
            rpu::Task {
                id: 0,
                kind: rpu::TaskKind::Compute {
                    kind: ComputeKind::Ntt,
                    ops: 1,
                },
                dependencies: vec![1],
                label: "stuck compute".into(),
                stage: "ModUp-P1".into(),
                channel: None,
            },
            rpu::Task {
                id: 1,
                kind: rpu::TaskKind::Memory {
                    direction: MemoryDirection::Load,
                    bytes: 1,
                },
                dependencies: vec![0],
                label: "stuck load".into(),
                stage: "ModUp-P1".into(),
                channel: None,
            },
        ];
        let graph = TaskGraph::from_tasks(tasks)?;
        Ok(Schedule {
            strategy: self.short_name().to_string(),
            graph,
            peak_on_chip_bytes: 0,
            spill_bytes: 0,
        })
    }
}

/// A strategy that always fails, for error-path coverage.
struct Refusing;

impl ScheduleStrategy for Refusing {
    fn name(&self) -> &str {
        "refusing"
    }
    fn short_name(&self) -> &str {
        "NO"
    }
    fn build(&self, _shape: &HksShape, _config: &ScheduleConfig) -> Result<Schedule, CiflowError> {
        Err(CiflowError::ScheduleBuild {
            strategy: "NO".to_string(),
            message: "this strategy never schedules anything".to_string(),
        })
    }
}

/// A strategy whose generator panics, for panic-boundary coverage.
struct Panicking;

impl ScheduleStrategy for Panicking {
    fn name(&self) -> &str {
        "panicking"
    }
    fn short_name(&self) -> &str {
        "PN"
    }
    fn build(&self, _shape: &HksShape, _config: &ScheduleConfig) -> Result<Schedule, CiflowError> {
        panic!("kaboom: this strategy panics instead of scheduling")
    }
}

#[test]
fn custom_strategy_round_trips_through_registry_and_session() {
    // Register out-of-crate, resolve by name (any casing), execute via the
    // session — without modifying anything inside `ciflow`.
    let session = Session::new()
        .register(Arc::new(NoReuse))
        .expect("NR is a fresh name");
    assert!(session.registry().contains("NR"));
    assert!(session.registry().contains("no-reuse"));
    assert_eq!(session.registry().len(), 4);

    let output = session
        .run_job(&Job::new(HksBenchmark::ARK, "nr"))
        .expect("custom strategy must execute");
    assert_eq!(output.strategy, "NR");
    assert!(output.runtime_ms() > 0.0);
    assert_eq!(
        output.stats.total_ops,
        HksShape::new(HksBenchmark::ARK).total_ops()
    );

    // The deliberately wasteful strategy must be slower than every built-in.
    for dataflow in Dataflow::all() {
        let builtin = session
            .run_job(&Job::new(HksBenchmark::ARK, dataflow))
            .unwrap();
        assert!(
            output.runtime_ms() > builtin.runtime_ms(),
            "NR ({:.2} ms) should lose to {dataflow} ({:.2} ms)",
            output.runtime_ms(),
            builtin.runtime_ms()
        );
    }
}

#[test]
fn registry_rejects_collisions_and_reports_unknown_names() {
    let mut registry = StrategyRegistry::builtin();
    registry.register(Arc::new(NoReuse)).unwrap();
    let err = registry.register(Arc::new(NoReuse)).unwrap_err();
    assert!(matches!(err, CiflowError::DuplicateStrategy { .. }));

    let err = registry.get("does-not-exist").map(|_| ()).unwrap_err();
    match err {
        CiflowError::UnknownStrategy { name, known } => {
            assert_eq!(name, "does-not-exist");
            assert_eq!(known, vec!["MP", "DC", "OC", "NR"]);
        }
        other => panic!("expected UnknownStrategy, got {other}"),
    }
}

#[test]
fn batch_of_twenty_jobs_executes_in_parallel_with_per_job_results() {
    // 5 benchmarks x 3 dataflows + 5 failing jobs = 20 jobs. The failures
    // must not disturb the successes, and order must be preserved.
    let mut session = Session::new()
        .with_rpu(RpuConfig::ciflow_with_policy(EvkPolicy::Streamed).with_bandwidth(64.0))
        .register(Arc::new(Refusing))
        .unwrap();
    for benchmark in HksBenchmark::all() {
        for dataflow in Dataflow::all() {
            session = session.job(benchmark, dataflow);
        }
        session = session
            .push(Job::new(benchmark, "NO").with_label(format!("{}-refused", benchmark.name)));
    }
    assert_eq!(session.job_count(), 20);

    let outcome = session.run();
    assert_eq!(outcome.len(), 20);
    assert_eq!(
        outcome.results.iter().filter(|r| r.outcome.is_ok()).count(),
        15
    );
    assert_eq!(
        outcome
            .results
            .iter()
            .filter(|r| r.outcome.is_err())
            .count(),
        5
    );
    assert!(!outcome.all_ok());

    for (i, benchmark) in HksBenchmark::all().into_iter().enumerate() {
        let chunk = &outcome.results[i * 4..(i + 1) * 4];
        for (result, dataflow) in chunk[..3].iter().zip(Dataflow::all()) {
            let output = result.outcome.as_ref().expect("built-ins succeed");
            assert_eq!(result.benchmark, benchmark);
            assert_eq!(output.strategy, dataflow.short_name());
            assert!(output.runtime_ms() > 0.0);
        }
        assert_eq!(chunk[3].label, format!("{}-refused", benchmark.name));
        assert!(matches!(
            chunk[3].outcome,
            Err(CiflowError::ScheduleBuild { .. })
        ));
    }
}

#[test]
fn builtin_strategies_agree_on_functional_work_per_benchmark() {
    // "The number of operations per HKS benchmark is independent of
    // dataflow" (paper §IV-D) — and the ModUp/ModDown split must agree too,
    // because all three dataflows compute the same function.
    let modup_moddown = |schedule: &Schedule| {
        let mut modup = 0u64;
        let mut moddown = 0u64;
        for task in schedule.graph.tasks() {
            if task.stage.starts_with("ModUp") {
                modup += task.ops();
            } else if task.stage.starts_with("ModDown") {
                moddown += task.ops();
            }
        }
        (modup, moddown)
    };

    let session = Session::new().with_rpu(RpuConfig::ciflow_streaming());
    for benchmark in HksBenchmark::all() {
        let shape = HksShape::new(benchmark);
        let mut splits = Vec::new();
        for dataflow in Dataflow::all() {
            let output = session.run_job(&Job::new(benchmark, dataflow)).unwrap();
            // Identical executed work...
            assert_eq!(
                output.stats.total_ops,
                shape.total_ops(),
                "{benchmark} {dataflow}"
            );
            splits.push(modup_moddown(&output.schedule));
        }
        // ...with an identical ModUp/ModDown split across all strategies.
        assert_eq!(splits[0], splits[1], "{benchmark}: MP vs DC split");
        assert_eq!(splits[1], splits[2], "{benchmark}: DC vs OC split");
        assert_eq!(
            splits[0].0 + splits[0].1,
            shape.total_ops(),
            "{benchmark}: stages must cover all ops"
        );
    }
}

#[test]
fn deadlocking_strategy_fails_its_own_jobs_without_poisoning_siblings() {
    // Engine-error-path coverage: a strategy whose generated schedule cannot
    // execute reports a per-job Err; sibling jobs in the same parallel batch
    // are untouched.
    let outcome = Session::new()
        .register(Arc::new(Deadlocking))
        .unwrap()
        .job(HksBenchmark::ARK, "OC")
        .job(HksBenchmark::ARK, "DL")
        .job(HksBenchmark::DPRIVE, "MP")
        .run();
    assert_eq!(outcome.len(), 3);
    assert!(outcome.results[0].outcome.is_ok());
    assert!(outcome.results[2].outcome.is_ok());
    let error = outcome.results[1].outcome.as_ref().unwrap_err();
    assert!(
        matches!(error, CiflowError::Graph(_)),
        "expected the invalid schedule to surface as a typed graph error, got {error}"
    );
    assert_eq!(
        outcome.results.iter().filter(|r| r.outcome.is_ok()).count(),
        2
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

/// The paper's RPU for `evk_policy`; a ladder replaces its bandwidth.
fn paper_rpu(evk_policy: EvkPolicy) -> RpuConfig {
    RpuConfig::ciflow_with_policy(evk_policy)
}

#[test]
fn empty_bandwidth_sweep_returns_a_well_formed_empty_series() {
    // An empty ladder is a typed error, like every other degenerate ladder.
    let job =
        Job::new(HksBenchmark::ARK, Dataflow::OutputCentric).with_rpu(paper_rpu(EvkPolicy::OnChip));
    match Session::new().run_ladder(&job, &[]) {
        Err(CiflowError::InvalidConfig { message }) => {
            assert_eq!(message, "bandwidth ladder is empty");
        }
        other => panic!("an empty ladder must be rejected, got {other:?}"),
    }
}

#[test]
fn sweeps_accept_custom_strategies() {
    // Registered strategies sweep *by name* through the owning session.
    let session = Session::new().register(Arc::new(NoReuse)).unwrap();
    let job = Job::new(HksBenchmark::DPRIVE, "NR").with_rpu(paper_rpu(EvkPolicy::Streamed));
    let (output, stats) = session
        .run_ladder(&job, &[8.0, 64.0, 1024.0])
        .expect("registered strategies sweep by name");
    assert_eq!(output.strategy, "NR");
    assert_eq!(stats.len(), 3);
    assert!(stats[2].runtime_ms() < stats[0].runtime_ms());
    // ...but not through a session that lacks the registration.
    assert!(matches!(
        Session::new().run_ladder(&job, &[8.0]),
        Err(CiflowError::UnknownStrategy { .. })
    ));
    // A channel-count point runs on the caller's session too, so the
    // registered strategy runs by name on every channel count.
    let workload = Job::workload(
        Workload::rotation_batch(HksBenchmark::DPRIVE, 2),
        "NR",
        PipelineMode::Fused,
    );
    for channels in [1, 2] {
        let rpu = paper_rpu(EvkPolicy::Streamed)
            .with_bandwidth(64.0)
            .with_memory_channels(channels);
        let output = session
            .run_job(&workload.clone().with_rpu(rpu))
            .expect("registered strategies run by name on every channel count");
        assert_eq!(output.rpu.memory_channel_count(), channels);
        assert!(output.runtime_ms() > 0.0);
    }
}

/// The session's panic rule, checked at every entry point a panicking
/// strategy can reach: the four single-job entry points themselves, and
/// every sweep and serving run built on them.
#[test]
fn sweeps_turn_a_strategy_panic_into_a_typed_error() {
    let panicking = || "PN";
    let workload = Workload::rotation_batch(HksBenchmark::ARK, 2);
    let chain = Workload::rescaling_chain(HksBenchmark::ARK, 2);
    let session = Session::new().register(Arc::new(Panicking)).unwrap();
    let (streamed, fused) = (EvkPolicy::Streamed, PipelineMode::Fused);
    let job = Job::new(HksBenchmark::ARK, panicking());
    let serve = ServeConfig::new(
        2,
        RequestClass::standard_mix(HksBenchmark::ARK),
        ArrivalProcess::ClosedLoop {
            concurrency: 2,
            requests: 8,
        },
    );
    let results = [
        ("run_job", session.run_job(&job).map(drop)),
        ("verify_job", session.verify_job(&job).map(drop)),
        ("bounds_job", session.bounds_job(&job).map(drop)),
        (
            "try_serve_in",
            try_serve_in(&session, &serve, panicking()).map(drop),
        ),
        (
            "try_fault_serve_in",
            try_fault_serve_in(&session, &serve, &FaultPlan::none(), panicking()).map(drop),
        ),
        (
            "serving sweep",
            ciflow::sweep::try_serve_sweep_in(&session, &serve, panicking(), &[1, 2], &[8.0, 64.0])
                .map(drop),
        ),
        (
            "fault sweep",
            ciflow::sweep::try_fault_sweep_in(
                &session,
                &serve,
                &FaultPlan::none(),
                panicking(),
                &[0.0, 1.0],
                &[1, 2],
            )
            .map(drop),
        ),
        (
            "run_ladder",
            session
                .run_ladder(&job.clone().with_rpu(paper_rpu(streamed)), &[8.0, 64.0])
                .map(drop),
        ),
        (
            "analytic sweep",
            ciflow::sweep::try_analytic_sweep_in(
                &session,
                &workload,
                panicking(),
                &[8.0, 64.0],
                streamed,
                1.0,
                fused,
            )
            .map(drop),
        ),
        (
            "heterogeneous ladder",
            session
                .run_ladder(
                    &Job::workload(chain, panicking(), PipelineMode::BackToBack)
                        .with_rpu(paper_rpu(streamed)),
                    &[8.0, 64.0],
                )
                .map(drop),
        ),
        (
            "channel point",
            session
                .run_job(
                    &Job::workload(workload.clone(), panicking(), fused).with_rpu(
                        paper_rpu(EvkPolicy::Streamed)
                            .with_bandwidth(64.0)
                            .with_memory_channels(2),
                    ),
                )
                .map(drop),
        ),
    ];
    for (entry, result) in results {
        match result {
            Err(CiflowError::StrategyPanicked { strategy, message }) => {
                assert_eq!(strategy, "PN", "{entry}");
                assert!(message.contains("kaboom"), "{entry}: {message:?}");
            }
            other => panic!("{entry} must report the panic, got {other:?}"),
        }
    }
}

#[test]
fn degenerate_rates_are_rejected_at_every_session_entry_point() {
    // NaN used to hang run_job, zero returned an infinite runtime, and -5 or
    // +inf a silently compute-only one. Each is now an InvalidConfig error
    // naming the value, on every single-job entry point.
    let session = Session::new();
    let base = RpuConfig::ciflow_baseline();
    for value in [f64::NAN, 0.0, -5.0, f64::INFINITY] {
        for rpu in [
            base.clone().with_bandwidth(value),
            base.clone().with_modops(value),
        ] {
            let job = Job::new(HksBenchmark::ARK, Dataflow::OutputCentric).with_rpu(rpu);
            let outcomes = [
                ("run_job", session.run_job(&job).map(|_| ())),
                ("verify_job", session.verify_job(&job).map(|_| ())),
                ("bounds_job", session.bounds_job(&job).map(|_| ())),
                (
                    "run_ladder",
                    session.run_ladder(&job, &[8.0, 64.0]).map(|_| ()),
                ),
            ];
            for (entry, outcome) in outcomes {
                match outcome {
                    Err(CiflowError::InvalidConfig { message }) => assert!(
                        message.contains(&value.to_string()),
                        "{entry}: {message:?} does not name {value}"
                    ),
                    other => panic!("{entry} accepted {value}: {other:?}"),
                }
            }
        }
    }
}
