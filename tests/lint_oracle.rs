//! Agreement oracle between `ciflow::lint` and the runtime engine.
//!
//! The deadlock lint (`D001`) claims to be an *exact* static
//! characterization of [`RpuEngine`]'s grant semantics: a schedule deadlocks
//! at runtime if and only if the augmented (dependency + in-order queue)
//! graph has a cycle for that placement. This suite stress-tests the claim
//! from both directions:
//!
//! 1. Random task graphs — valid ones and ones mutated with forward
//!    dependencies the validating constructor would reject — must get the
//!    same verdict from [`rpu::verify::lint_graph`] and from
//!    [`RpuEngine::execute_stats`], across 1/2/4/8 channels. No false
//!    negatives, no false positives.
//! 2. Real strategy schedules with targeted mutations: dropping a dependency
//!    edge must keep both sides green; reversing one must keep them in
//!    agreement whichever way it lands; eliding a pipeline boundary store or
//!    tampering with the spill accounting must surface as a lint *Error*
//!    even though the engine — which only sees timing — would run happily.

use ciflow::lint::{self, codes};
use ciflow::schedule::{build_schedule, ScheduleConfig};
use ciflow::workload::{build_workload, PipelineMode, Workload};
use ciflow::{Dataflow, HksBenchmark, HksShape};
use common::random_valid_tasks;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpu::{EngineError, EvkPolicy, RpuConfig, RpuEngine, TaskGraph};

#[path = "common/mod.rs"]
mod common;

/// True when the graph-level lint predicts a deadlock for this engine's
/// channel count and placement.
fn lint_predicts_deadlock(graph: &TaskGraph, engine: &RpuEngine) -> bool {
    rpu::verify::lint_graph(graph, engine)
        .iter()
        .any(|d| d.code == codes::DEADLOCK_CYCLE)
}

/// Asserts lint and engine agree on `graph` across the channel ladder.
fn assert_agreement(graph: &TaskGraph, context: &str) {
    for channels in [1usize, 2, 4, 8] {
        let engine = RpuEngine::new(RpuConfig::ciflow_baseline().with_memory_channels(channels));
        let predicted = lint_predicts_deadlock(graph, &engine);
        match engine.execute_stats(graph) {
            Ok(_) => assert!(
                !predicted,
                "{context} x{channels}: lint predicted deadlock, engine ran fine"
            ),
            Err(EngineError::Deadlock { .. }) => assert!(
                predicted,
                "{context} x{channels}: engine deadlocked, lint saw nothing (false negative)"
            ),
            Err(other) => panic!("{context} x{channels}: unexpected engine error: {other}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_graphs_get_the_same_verdict_statically_and_at_runtime(
        seed in 0u64..(1 << 32),
        mutate in 0u8..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(4usize..32);
        let mut tasks = random_valid_tasks(&mut rng, n);
        if mutate == 1 {
            // Inject a forward dependency — the class of bug from_tasks
            // exists to reject. Depending on where the two tasks land in the
            // queues this may or may not close an augmented cycle; the
            // oracle only demands that lint and engine agree.
            let at = rng.gen_range(0usize..n - 1);
            let target = rng.gen_range(at + 1..n);
            tasks[at].dependencies.push(target);
        }
        let graph = TaskGraph::from_tasks_unchecked(tasks);
        assert_agreement(&graph, &format!("seed {seed} mutate {mutate}"));
    }
}

#[test]
fn valid_strategy_schedules_never_deadlock_under_any_placement() {
    // The theorem behind D001: backward-only dependencies can never close an
    // augmented cycle, whatever the channel count or placement. Every
    // builtin schedule must therefore get a clean verdict from both sides.
    for dataflow in Dataflow::all() {
        let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, EvkPolicy::Streamed);
        let schedule = build_schedule(dataflow, &HksShape::new(HksBenchmark::ARK), &config);
        assert_agreement(&schedule.graph, &format!("{dataflow}"));
    }
}

#[test]
fn edge_dropped_schedules_stay_in_agreement() {
    // Dropping a dependency edge weakens ordering: it can produce *wrong
    // data* (which only functional validation sees) but never a deadlock.
    // Lint and engine must both stay green.
    let mut rng = StdRng::seed_from_u64(7);
    for dataflow in Dataflow::all() {
        let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, EvkPolicy::Streamed);
        let schedule = build_schedule(dataflow, &HksShape::new(HksBenchmark::BTS1), &config);
        let mut tasks = schedule.graph.tasks().to_vec();
        for _ in 0..8 {
            let at = rng.gen_range(0usize..tasks.len());
            if !tasks[at].dependencies.is_empty() {
                let drop = rng.gen_range(0usize..tasks[at].dependencies.len());
                tasks[at].dependencies.remove(drop);
            }
        }
        let graph = TaskGraph::from_tasks_unchecked(tasks);
        assert_agreement(&graph, &format!("{dataflow} edge-dropped"));
    }
}

#[test]
fn dep_reversed_schedules_stay_in_agreement() {
    // Reversing a dependency edge creates a forward dep; whether that
    // deadlocks depends on which queues the two tasks occupy. Either way
    // the static and runtime verdicts must match, channel count by channel
    // count.
    let mut rng = StdRng::seed_from_u64(11);
    for dataflow in Dataflow::all() {
        let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, EvkPolicy::OnChip);
        let schedule = build_schedule(dataflow, &HksShape::new(HksBenchmark::BTS1), &config);
        for _ in 0..6 {
            let mut tasks = schedule.graph.tasks().to_vec();
            let at = rng.gen_range(0usize..tasks.len());
            if tasks[at].dependencies.is_empty() {
                continue;
            }
            let which = rng.gen_range(0usize..tasks[at].dependencies.len());
            let dep = tasks[at].dependencies.remove(which);
            tasks[dep].dependencies.push(at); // now points forward
            let graph = TaskGraph::from_tasks_unchecked(tasks);
            assert_agreement(&graph, &format!("{dataflow} reversed {dep}<->{at}"));
        }
    }
}

#[test]
fn elided_boundary_store_is_a_lint_error_the_engine_cannot_see() {
    // Relabel one producer-side boundary store of a back-to-back pipeline,
    // simulating a stitcher bug that dropped the store while the consumer
    // still loads the tower from DRAM. The engine executes happily (timing
    // is oblivious to data), so only the static boundary pass can catch it.
    let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, EvkPolicy::Streamed);
    let mut pipeline = build_workload(
        &Workload::rotation_batch(HksBenchmark::ARK, 2),
        Dataflow::OutputCentric.strategy(),
        &config,
        PipelineMode::BackToBack,
    )
    .unwrap();
    let rpu = RpuConfig::ciflow_streaming();

    let clean = lint::lint_workload(&pipeline, &rpu);
    assert!(!clean.has_errors(), "{clean}");

    let mut tasks = pipeline.schedule.graph.tasks().to_vec();
    let victim = tasks
        .iter()
        .position(|t| &*t.label == "k0:store out1[0]")
        .expect("back-to-back pipelines materialize every boundary store");
    tasks[victim].label = "elided writeback".into();
    pipeline.schedule.graph = TaskGraph::from_tasks_unchecked(tasks);

    let report = lint::lint_workload(&pipeline, &rpu);
    assert!(
        report
            .errors()
            .any(|d| d.code == codes::HALF_FORWARDED_BOUNDARY),
        "expected B004, got:\n{report}"
    );
    // ...while the runtime path is none the wiser:
    let engine = RpuEngine::new(rpu);
    assert!(engine.execute_stats(&pipeline.schedule.graph).is_ok());
}

#[test]
fn tampered_spill_accounting_is_a_lint_error() {
    // Shrink the data memory until the OC schedule genuinely spills, then
    // understate its spill_bytes by one. The engine still charges the real
    // traffic; only the reconciliation pass notices the books are cooked.
    let config = ScheduleConfig::with_data_memory(4 * rpu::MIB, EvkPolicy::Streamed);
    let mut schedule = build_schedule(
        Dataflow::OutputCentric,
        &HksShape::new(HksBenchmark::BTS1),
        &config,
    );
    assert!(schedule.spill_bytes > 0, "fixture must actually spill");
    let rpu = RpuConfig::ciflow_streaming().with_vector_memory(4 * rpu::MIB);

    let clean = lint::lint_schedule(&schedule, &rpu);
    assert!(!clean.has_errors(), "{clean}");

    schedule.spill_bytes -= 1;
    let report = lint::lint_schedule(&schedule, &rpu);
    assert!(
        report
            .errors()
            .any(|d| d.code == codes::SPILL_UNDERREPORTED),
        "expected A001, got:\n{report}"
    );
}
