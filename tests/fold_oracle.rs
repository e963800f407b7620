//! Differential oracle of the one-channel program-order fold.
//!
//! On one memory channel the event loop's timeline of a graph whose
//! dependencies all point backward is one program-order max-plus fold
//! (`rpu::engine` module docs), and the parametric timeline evaluates it
//! that way. This suite holds the timeline to the engine on random graphs:
//! `analyze` fails exactly as the engine's run at the top of its range, and
//! every evaluation equals the engine's `ExecutionStats` bit for bit. It
//! also holds the engine's statistics-only runs to its traced runs, equal
//! statistics or the same `EngineError`. The graphs are random valid graphs
//! plus mutations the timeline must hand to the event loop:
//!
//! - a forward dependency that does not deadlock, which the fold would time
//!   wrongly;
//! - a forward dependency that deadlocks, and a dangling one;
//! - NaN and zero MODOPS and bandwidth, whose non-finite times only the
//!   loop reports (with the first task to issue one).
//!
//! A second property stresses the pull walk the timeline evaluates with,
//! which reads one edge per task (its latest dependency in the other queue):
//! wide fan-in mostly on the task's own queue, so many tasks have no
//! dependency in the other queue, unsorted lists with repeats, and tasks of
//! zero size whose finish equals their queue's free time exactly.
//! `evaluate`, `evaluate_many` over ladders of every length around the
//! eight-lane chunk (and an unsorted one with repeats), `execute_stats` and
//! `sampled_times` must all match the engine bit for bit there.

use common::{assert_stats_bit_identical, random_valid_tasks};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpu::{
    ComputeKind, EngineError, EvkPolicy, ExecutionStats, RpuConfig, RpuEngine, Task, TaskGraph,
    TaskKind, Verb,
};

#[path = "common/mod.rs"]
mod common;

/// 1 Gop/s compute on one memory channel, at `bandwidth_gbps` and a MODOPS
/// multiplier of `modops`; neither rate is validated.
fn one_channel(bandwidth_gbps: f64, modops: f64) -> RpuConfig {
    RpuConfig {
        num_hples: 1,
        vector_length: 1,
        clock_ghz: 1.0,
        vector_memory_bytes: 1 << 30,
        key_memory_bytes: 0,
        scalar_memory_bytes: 0,
        dram_bandwidth_gbps: bandwidth_gbps,
        num_memory_channels: 1,
        modops_multiplier: modops,
        evk_policy: EvkPolicy::Streamed,
    }
}

/// Adds a forward dependency that cannot deadlock: the head of one queue
/// loses its dependencies, and an earlier task on the other queue waits for
/// it. `None` when the graph has only one kind of task.
fn forward_without_deadlock(mut tasks: Vec<Task>) -> Option<Vec<Task>> {
    let head = (1..tasks.len()).find(|&j| tasks[j].is_compute() != tasks[0].is_compute())?;
    tasks[head].dependencies.clear();
    tasks[0].dependencies.push(head);
    Some(tasks)
}

/// Adds a forward dependency that deadlocks: a task waits for a later task
/// of its own in-order queue. `None` when no queue holds two tasks.
fn forward_with_deadlock(mut tasks: Vec<Task>) -> Option<Vec<Task>> {
    let last = tasks.len().checked_sub(1)?;
    let first = (0..last).find(|&i| tasks[i].is_compute() == tasks[last].is_compute())?;
    tasks[first].dependencies.push(last);
    Some(tasks)
}

/// Adds a dependency on a task the graph does not have.
fn dangling(mut tasks: Vec<Task>) -> Vec<Task> {
    let past_the_end = tasks.len() + 3;
    let last = tasks.len() - 1;
    tasks[last].dependencies.push(past_the_end);
    tasks
}

/// Asserts two runs agree: equal statistics (and runtime bits), or the
/// same error. Errors compare by their `Debug` form, because a NaN in
/// `NonFiniteTime` is not `==` to itself.
fn assert_same(
    got: &Result<ExecutionStats, EngineError>,
    looped: &Result<ExecutionStats, EngineError>,
    context: &str,
) {
    match (got, looped) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "{context}");
            assert_eq!(
                a.runtime_seconds.to_bits(),
                b.runtime_seconds.to_bits(),
                "{context}"
            );
        }
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{context}"),
        _ => panic!("{context}: {got:?} vs the traced run's {looped:?}"),
    }
}

/// Checks one graph on every configuration: stats-only against traced
/// execution, and the timeline against the engine.
fn check(tasks: Vec<Task>, context: &str) {
    let graph = TaskGraph::from_tasks_unchecked(tasks);
    let configs = [
        one_channel(8.0, 1.0),
        one_channel(64.0, 1.0),
        one_channel(f64::NAN, 1.0),
        one_channel(0.0, 1.0),
        one_channel(8.0, f64::NAN),
        one_channel(8.0, 0.0),
    ];
    for config in configs {
        let context = format!(
            "{context} at {} GB/s, MODOPS x{}",
            config.dram_bandwidth_gbps, config.modops_multiplier
        );
        let engine = RpuEngine::new(config);
        let plan = engine.plan(&graph);
        let stats_only = engine.execute_stats_plan(&graph, &plan);
        let looped = engine.execute_plan(&graph, &plan).map(|run| run.stats);
        assert_same(&stats_only, &looped, &context);
        assert_same(&engine.execute_stats(&graph), &looped, &context);
    }

    // The timeline is derived at the top of its range and evaluated below.
    let (lo, hi) = (4.0, 64.0);
    let engine = RpuEngine::new(one_channel(hi, 1.0));
    let at_hi = engine.execute(&graph).map(|run| run.stats);
    match engine.analyze(&graph, lo, hi) {
        Err(err) => assert_same(&Err(err), &at_hi, context),
        Ok(timeline) => {
            assert!(
                at_hi.is_ok(),
                "{context}: analyze succeeded, the engine did not"
            );
            for bw in [lo, 8.0, hi] {
                let looped = RpuEngine::new(one_channel(bw, 1.0))
                    .execute(&graph)
                    .map(|run| run.stats);
                assert_same(&Ok(timeline.evaluate(bw)), &looped, context);
            }
        }
    }
}

/// A valid graph of `n` tasks that stresses the pull walk: each task
/// draws up to 24 dependencies, four in five from its own queue, kept
/// unsorted and with repeats, and about one task in three has zero ops or
/// bytes.
fn wide_fan_in_tasks(rng: &mut StdRng, n: usize) -> Vec<Task> {
    let mut tasks: Vec<Task> = Vec::with_capacity(n);
    for id in 0..n {
        let compute = rng.gen_bool(0.5);
        let (own, other): (Vec<usize>, Vec<usize>) =
            (0..id).partition(|&j| tasks[j].is_compute() == compute);
        let fan_in = if id == 0 { 0 } else { rng.gen_range(0..=24) };
        let dependencies = (0..fan_in)
            .map(|_| {
                let pool = if other.is_empty() || (!own.is_empty() && rng.gen_bool(0.8)) {
                    &own
                } else {
                    &other
                };
                pool[rng.gen_range(0..pool.len())]
            })
            .collect();
        let size = if rng.gen_bool(0.3) {
            0
        } else {
            rng.gen_range(1u64..10_000)
        };
        tasks.push(Task {
            id,
            kind: if compute {
                TaskKind::Compute {
                    kind: ComputeKind::Ntt,
                    ops: size,
                }
            } else {
                TaskKind::Memory {
                    verb: Verb::Load,
                    bytes: size,
                }
            },
            dependencies,
            label: format!("t{id}").into(),
            stage: "P1".into(),
            channel: None,
            kernel: None,
        });
    }
    tasks
}

/// The ladder lengths the pull walk is held at: one point, and one under,
/// at and over one and two whole eight-lane chunks.
const LADDER_LENGTHS: [usize; 7] = [1, 7, 8, 9, 15, 16, 17];

/// Holds a folding timeline to the engine at 17 bandwidths, inside and
/// above the analyzed range: at each, the statistics-only run, the traced
/// run and per-point `evaluate` agree bit for bit, and every task's
/// `sampled_times` span is the traced run's. Then `evaluate_many` over the
/// first 1, 7, 8, 9, 15, 16 and 17 of them, and over an unsorted ladder with
/// repeats, returns each point's statistics bit for bit.
fn check_pull_walk(tasks: Vec<Task>, context: &str) {
    let graph = TaskGraph::from_tasks(tasks).expect("every dependency points backward");
    let timeline = RpuEngine::new(one_channel(64.0, 1.0))
        .analyze(&graph, 4.0, 64.0)
        .expect("a valid one-channel graph runs");
    assert_eq!(
        timeline.segments().len(),
        1,
        "{context}: the timeline folds"
    );
    let base: Vec<f64> = (0..17).map(|i| 4.0 * 1.3f64.powi(i)).collect();
    let mut reference = Vec::with_capacity(base.len());
    for &bw in &base {
        let engine = RpuEngine::new(one_channel(bw, 1.0));
        let run = engine
            .execute(&graph)
            .expect("a valid one-channel graph runs");
        let stats = engine.execute_stats(&graph).expect("the traced run ran");
        assert_same(&Ok(stats.clone()), &Ok(run.stats.clone()), context);
        assert_stats_bit_identical(&stats, &run.stats);
        assert_stats_bit_identical(&timeline.evaluate(bw), &run.stats);
        let spans = timeline
            .sampled_times(&graph, bw)
            .expect("the timeline folds");
        assert_eq!(spans.len(), graph.len(), "{context}");
        let mut engine_spans = vec![None; graph.len()];
        for record in run.trace.records() {
            engine_spans[record.task] = Some((record.start_seconds, record.end_seconds));
        }
        for span in &spans {
            let (start, end) = engine_spans[span.task].expect("the engine ran every task");
            assert_eq!(
                (span.start_seconds.to_bits(), span.end_seconds.to_bits()),
                (start.to_bits(), end.to_bits()),
                "{context}: task {} at {bw} GB/s",
                span.task
            );
        }
        reference.push(stats);
    }
    let unsorted = [9, 3, 16, 3, 0, 12, 9, 9, 5, 16, 1, 0, 7];
    let ladders =
        (LADDER_LENGTHS.iter().map(|&n| (0..n).collect::<Vec<_>>())).chain([unsorted.to_vec()]);
    for points in ladders {
        let ladder: Vec<f64> = points.iter().map(|&i| base[i]).collect();
        let laned = timeline.evaluate_many(&ladder);
        assert_eq!(laned.len(), ladder.len(), "{context}");
        for (&i, laned) in points.iter().zip(&laned) {
            let context = format!(
                "{context}: {} GB/s in a {}-point ladder",
                base[i],
                ladder.len()
            );
            assert_same(&Ok(laned.clone()), &Ok(reference[i].clone()), &context);
            assert_stats_bit_identical(laned, &reference[i]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pull walk through each task's one kept dependency agrees with
    /// the event loop where most edges stay in one queue, many tasks have
    /// no dependency in the other queue and many finishes tie, at every
    /// ladder length around the eight-lane chunk.
    #[test]
    fn the_pull_walk_matches_the_event_loop_on_every_ladder_shape(seed in 0u64..1024, n in 1usize..96) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_pull_walk(wide_fan_in_tasks(&mut rng, n), &format!("seed {seed}, {n} tasks"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The timeline's fold and the event loop agree on random graphs and on
    /// every mutation the fold must hand to the loop.
    #[test]
    fn stats_only_runs_match_the_event_loop_on_random_graphs(seed in 0u64..1024, n in 1usize..48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tasks = random_valid_tasks(&mut rng, n);
        check(tasks.clone(), "valid");
        if let Some(mutant) = forward_without_deadlock(tasks.clone()) {
            let graph = TaskGraph::from_tasks_unchecked(mutant.clone());
            let run = RpuEngine::new(one_channel(8.0, 1.0)).execute(&graph);
            prop_assert!(run.is_ok(), "the harmless forward dependency deadlocked");
            check(mutant, "forward dependency");
        }
        if let Some(mutant) = forward_with_deadlock(tasks.clone()) {
            let graph = TaskGraph::from_tasks_unchecked(mutant.clone());
            let run = RpuEngine::new(one_channel(8.0, 1.0)).execute(&graph);
            prop_assert!(
                matches!(run, Err(EngineError::Deadlock { .. })),
                "the queue-order forward dependency did not deadlock"
            );
            check(mutant, "deadlocking forward dependency");
        }
        check(dangling(tasks), "dangling dependency");
    }
}

/// `TaskGraph::push` only debug-asserts that dependencies point backward:
/// a debug build panics on a forward one, a release build accepts it. The
/// engine times the compute after the load it waits for (1 µs each at
/// 8 GB/s and 1 Gop/s), and the plan must keep the timeline off the fold.
#[test]
fn a_forward_dependency_pushed_in_a_release_build_runs_through_the_event_loop() {
    let pushed = std::panic::catch_unwind(|| {
        let mut graph = TaskGraph::new();
        graph.push_compute(ComputeKind::Ntt, 1000, vec![1], "compute", "P1");
        graph.push_memory(Verb::Load, 8000, vec![], "load", "P1");
        graph
    });
    assert_eq!(
        pushed.is_err(),
        cfg!(debug_assertions),
        "the debug assertion, and only it, rejects the forward dependency"
    );
    let Ok(graph) = pushed else {
        return;
    };
    let stats = RpuEngine::new(one_channel(8.0, 1.0))
        .execute_stats(&graph)
        .expect("the forward dependency does not deadlock");
    assert_eq!(stats.runtime_seconds, 2e-6);
    check(graph.tasks().to_vec(), "pushed forward dependency");
}
