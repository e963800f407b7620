//! Integration tests of the multi-channel memory model through the public
//! session, sweep and workload APIs, including the acceptance claims:
//! the `workload_pipelines` channel sweep's fused compute-idle fraction is
//! monotonically non-increasing from 1 to 8 channels, and single-channel
//! results are bit-identical to the default configuration. The placement
//! oracle holds every compiled plan's queues to `ChannelMap::channel_for`,
//! the reference placement.

use ciflow::api::{Job, JobOutput, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::CHANNEL_LADDER;
use ciflow::workload::{PipelineMode, Workload};
use common::streaming_at;
use rpu::EvkPolicy;

#[path = "common/mod.rs"]
mod common;

/// The exact scenarios the `workload_pipelines` binary prints in its
/// memory-channel sweep section.
const SWEEP_BANDWIDTHS: [f64; 4] = [12.8, 25.6, 64.0, 128.0];

/// The channel sweep the binary prints: the OC 8-rotation pipeline of
/// `benchmark` with streamed evks at one aggregate bandwidth, one engine job
/// per count of [`CHANNEL_LADDER`].
fn channel_sweep(
    session: &Session,
    benchmark: HksBenchmark,
    bandwidth: f64,
    mode: PipelineMode,
) -> Vec<JobOutput> {
    let job = Job::workload(
        Workload::rotation_batch(benchmark, 8),
        Dataflow::OutputCentric,
        mode,
    );
    CHANNEL_LADDER
        .iter()
        .map(|&channels| {
            let rpu = streaming_at(bandwidth).with_memory_channels(channels);
            session.run_job(&job.clone().with_rpu(rpu)).unwrap()
        })
        .collect()
}

fn idle(output: &JobOutput) -> f64 {
    output.stats.compute_idle_fraction()
}

fn channels(output: &JobOutput) -> usize {
    output.rpu.memory_channel_count()
}

#[test]
fn channel_sweep_idle_fraction_is_monotonically_non_increasing() {
    let session = Session::new();
    // The acceptance criterion: for the fused 8-rotation pipeline with
    // streamed evks, adding pseudo-channels (at a fixed aggregate bandwidth)
    // never increases the compute-idle fraction, and at HBM-class bandwidth
    // it visibly decreases it.
    for benchmark in [HksBenchmark::ARK, HksBenchmark::DPRIVE] {
        for &bandwidth in &SWEEP_BANDWIDTHS {
            let points = channel_sweep(&session, benchmark, bandwidth, PipelineMode::Fused);
            assert_eq!(points.len(), CHANNEL_LADDER.len());
            for w in points.windows(2) {
                assert!(
                    idle(&w[1]) <= idle(&w[0]),
                    "{} @ {bandwidth} GB/s: idle rose from {:.4} ({} ch) to {:.4} ({} ch)",
                    benchmark.name,
                    idle(&w[0]),
                    channels(&w[0]),
                    idle(&w[1]),
                    channels(&w[1])
                );
                assert!(
                    w[1].runtime_ms() <= w[0].runtime_ms(),
                    "{} @ {bandwidth} GB/s: runtime rose from {:.3} ms ({} ch) to {:.3} ms ({} ch)",
                    benchmark.name,
                    w[0].runtime_ms(),
                    channels(&w[0]),
                    w[1].runtime_ms(),
                    channels(&w[1])
                );
            }
        }
        // At 128 GB/s the head-of-line bypass is worth several idle points.
        let points = channel_sweep(&session, benchmark, 128.0, PipelineMode::Fused);
        assert!(
            idle(points.last().unwrap()) < idle(&points[0]) - 0.05,
            "{}: idle {:.4} (1 ch) vs {:.4} (8 ch)",
            benchmark.name,
            idle(&points[0]),
            idle(points.last().unwrap())
        );
    }
}

#[test]
fn single_channel_is_bit_identical_to_the_default_configuration() {
    // `num_memory_channels = 1` must reproduce the classic single-queue
    // engine exactly: same runtime bits, same busy times, for single kernels
    // and fused pipelines alike.
    for benchmark in [HksBenchmark::ARK, HksBenchmark::BTS3] {
        for dataflow in Dataflow::all() {
            let base_rpu = streaming_at(25.6);
            let session = Session::new();
            let default_run = session
                .run_job(&Job::new(benchmark, dataflow).with_rpu(base_rpu.clone()))
                .unwrap();
            let one_channel = session
                .run_job(
                    &Job::new(benchmark, dataflow)
                        .with_rpu(base_rpu.clone().with_memory_channels(1)),
                )
                .unwrap();
            assert_eq!(
                default_run.stats.runtime_seconds.to_bits(),
                one_channel.stats.runtime_seconds.to_bits(),
                "{} {dataflow}: single-channel runtime differs from default",
                benchmark.name
            );
            assert_eq!(
                default_run.stats.memory_busy_seconds.to_bits(),
                one_channel.stats.memory_busy_seconds.to_bits()
            );
            assert_eq!(
                default_run.stats.compute_busy_seconds.to_bits(),
                one_channel.stats.compute_busy_seconds.to_bits()
            );
        }
    }
    // Fused pipeline path too.
    let workload = Workload::rotation_batch(HksBenchmark::ARK, 6);
    let session = Session::new().with_rpu(streaming_at(12.8));
    let default_run = session
        .run_job(&Job::workload(workload.clone(), "OC", PipelineMode::Fused))
        .unwrap();
    let one_channel = Session::new()
        .with_rpu(streaming_at(12.8).with_memory_channels(1))
        .run_job(&Job::workload(workload, "OC", PipelineMode::Fused))
        .unwrap();
    assert_eq!(
        default_run.stats.runtime_seconds.to_bits(),
        one_channel.stats.runtime_seconds.to_bits()
    );
}

#[test]
fn channel_accounting_sums_to_total_memory_busy_through_the_session() {
    // Regression: per-channel busy accounting must cover the aggregate
    // exactly, through the full session path (schedule-derived channel map).
    for channels in CHANNEL_LADDER {
        let output = Session::new()
            .with_rpu(streaming_at(25.6).with_memory_channels(channels))
            .run_job(&Job::workload(
                Workload::rotation_batch(HksBenchmark::ARK, 4),
                "OC",
                PipelineMode::Fused,
            ))
            .unwrap();
        assert_eq!(output.stats.memory_channel_busy_seconds.len(), channels);
        let sum: f64 = output.stats.memory_channel_busy_seconds.iter().sum();
        assert!(
            (sum - output.stats.memory_busy_seconds).abs()
                <= 1e-9 * output.stats.memory_busy_seconds,
            "{channels} channels: per-channel sum {sum} != {}",
            output.stats.memory_busy_seconds
        );
        // The shared data path is never over-committed.
        assert!(output.stats.memory_busy_seconds <= output.stats.runtime_seconds + 1e-12);
        // With more than one channel every channel receives some traffic
        // (the schedule-derived map balances evk and limb groups).
        if channels > 1 {
            for (channel, &busy) in output.stats.memory_channel_busy_seconds.iter().enumerate() {
                assert!(
                    busy > 0.0,
                    "channel {channel} of {channels} received no traffic"
                );
            }
        }
    }
}

#[test]
fn channel_count_never_hurts_the_printed_pipeline_scenarios() {
    let session = Session::new();
    // The unfused baseline also benefits (or at worst ties): its boundary
    // stores and next-kernel evk loads are serialized by the barrier, so
    // bypass opportunities are rarer but never harmful in these scenarios.
    for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
        let points = channel_sweep(&session, HksBenchmark::ARK, 64.0, mode);
        for w in points.windows(2) {
            assert!(
                w[1].runtime_ms() <= w[0].runtime_ms() + 1e-9,
                "{mode}: runtime rose from {:.3} to {:.3} ms",
                w[0].runtime_ms(),
                w[1].runtime_ms()
            );
        }
    }
}

/// Every memory task of `graph` sits in exactly one queue of `plan`: the
/// channel hint, else `map.channel_for(buffer)` of the buffer the task's
/// label names, reduced modulo the plan's channel count — the public
/// reference placement.
fn assert_placement_matches_the_reference(
    name: &str,
    graph: &rpu::TaskGraph,
    map: &rpu::ChannelMap,
    plan: &rpu::ExecPlan,
) {
    let tasks = graph.tasks();
    let channels = plan.channels();
    let mut placed = vec![None; tasks.len()];
    for (channel, queue) in plan.memory_queues().iter().enumerate() {
        assert!(
            queue.windows(2).all(|w| w[0] < w[1]),
            "{name}: program order"
        );
        for &t in queue {
            assert!(
                placed[t as usize].replace(channel).is_none(),
                "{name}: task {t} twice"
            );
        }
    }
    for (t, task) in tasks.iter().enumerate() {
        let expected = task
            .is_memory()
            .then(|| task.channel.unwrap_or_else(|| map.channel_for(&task.label)) % channels);
        assert_eq!(
            placed[t], expected,
            "{name} x{channels}: task {t} `{}`",
            task.label
        );
    }
}

#[test]
fn placement_oracle_agrees_with_channel_for_on_every_preset() {
    use ciflow::schedule::{build_schedule, Schedule, ScheduleConfig};
    use ciflow::workload::build_workload;
    use ciflow::HksShape;
    use rpu::ExecPlan;

    let mut schedules: Vec<(String, Schedule)> = Vec::new();
    for benchmark in HksBenchmark::all() {
        for dataflow in Dataflow::all() {
            for policy in [EvkPolicy::OnChip, EvkPolicy::Streamed] {
                let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, policy);
                schedules.push((
                    format!("{} {dataflow} {policy:?}", benchmark.name),
                    build_schedule(dataflow, &HksShape::new(benchmark), &config),
                ));
            }
        }
    }
    let bench = HksBenchmark::all()[0];
    for workload in [
        Workload::rotation_batch(bench, 3),
        Workload::mul_rot_block(bench, 2),
        Workload::bootstrap_key_switch(bench),
        Workload::rescaling_chain(bench, 3),
    ] {
        for dataflow in Dataflow::all() {
            let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, EvkPolicy::Streamed);
            let pipeline =
                build_workload(&workload, &dataflow, &config, PipelineMode::Fused).unwrap();
            schedules.push((format!("{} {dataflow}", workload.name), pipeline.schedule));
        }
    }
    for (name, schedule) in &schedules {
        let graph = &schedule.graph;
        // A fresh compile per channel count, and rechannels of one core (the
        // session's path), whose interned buffers are shared.
        let single = ExecPlan::new(graph, &schedule.channel_map(1), 1);
        for channels in [1, 2, 4, 8] {
            let map = schedule.channel_map(channels);
            let fresh = ExecPlan::new(graph, &map, channels);
            assert_placement_matches_the_reference(name, graph, &map, &fresh);
            let shared = single.rechannel(graph, &map, channels);
            assert_eq!(shared.memory_queues(), fresh.memory_queues(), "{name}");
        }
    }
}

#[test]
fn placement_oracle_covers_hints_prefixes_and_custom_labels() {
    use ciflow::lint::buffer;
    use rpu::{AppendAction, ChannelMap, ExecPlan, TaskGraph, Verb};

    // Each transfer is appended as its own one-task graph, so it can carry
    // a kernel of a stitched pipeline.
    let mut g = TaskGraph::new();
    let memory = |g: &mut TaskGraph, kernel, verb, buffer: &str, hint| {
        let mut one = TaskGraph::new();
        one.push_memory_on(verb, 64, vec![], buffer, "P1", hint);
        g.append_offset(&one, kernel, |_| AppendAction::keep())
            .unwrap();
    };
    use Verb::{Load, Park, Spill, Store};
    memory(&mut g, None, Load, "acc0[10]", None); // loaded before its spill
    memory(&mut g, None, Spill, "acc0[10]", None);
    memory(&mut g, Some(12), Load, "acc0[10]", Some(5));
    memory(&mut g, Some(12), Load, "evk[d0][t1]", None);
    memory(&mut g, Some(3), Load, "evk[d0][t1]", Some(2));
    memory(&mut g, None, Load, "evk[d0][t1]", None); // two redundant reloads
    memory(&mut g, None, Load, "kx:in[0]", None); // its own buffer
    memory(&mut g, None, Load, "in[0]", Some(7));
    memory(&mut g, Some(1), Park, "in[0]", None);
    memory(&mut g, Some(1), Load, "in[0]", None);
    memory(&mut g, None, Spill, "acc0[2]", None); // never reloaded
    memory(&mut g, None, Park, "Z[0]", Some(1)); // never reloaded, sorts first
    memory(&mut g, None, Load, "reload working set (ModUp-P1)", None);
    memory(
        &mut g,
        None,
        Store,
        "writeback working set (ModUp-P1)",
        Some(3),
    );
    memory(&mut g, None, Load, "k:in[0]", None); // its own buffer
    memory(&mut g, None, Store, "out1[0]", None);
    memory(&mut g, None, Load, "loadin[0]", None); // its own buffer
    g.push_compute(rpu::ComputeKind::Ntt, 10, vec![0], "ntt", "P1");

    let maps = [
        ChannelMap::hashed(4),
        ChannelMap::evk_split(2, || (1, 2)),
        ChannelMap::evk_split(4, || (1, 2)),
        ChannelMap::evk_split(8, || (1, 8)),
    ];
    let mut single = None;
    for channels in [1, 2, 4, 8] {
        for map in &maps {
            let fresh = ExecPlan::new(&g, map, channels);
            assert_placement_matches_the_reference("hand-built", &g, map, &fresh);
            let core = single.get_or_insert_with(|| ExecPlan::new(&g, map, 1));
            let shared = core.rechannel(&g, map, channels);
            assert_placement_matches_the_reference("hand-built", &g, map, &shared);
        }
    }

    // The buffer pass reports in buffer-name (byte) order, with the tasks,
    // labels and messages the string-keyed pass gave.
    let plan = single.expect("plans were compiled");
    let found: Vec<(&str, Vec<usize>, String, String)> = buffer::lint(&g, &plan)
        .into_iter()
        .map(|d| (d.code, d.tasks, d.label.unwrap().to_string(), d.message))
        .collect();
    let expected = [
        (
            "B002",
            vec![11],
            "spill Z[0]",
            "buffer `Z[0]` is spilled/parked (task 11) but never reloaded: the writeback \
             is wasted traffic (release it instead)",
        ),
        (
            "B001",
            vec![0, 1],
            "load acc0[10]",
            "buffer `acc0[10]` is loaded (task 0) before its first write (task 1): nothing \
             has put it in DRAM yet",
        ),
        (
            "B002",
            vec![10],
            "spill acc0[2]",
            "buffer `acc0[2]` is spilled/parked (task 10) but never reloaded: the \
             writeback is wasted traffic (release it instead)",
        ),
        (
            "B003",
            vec![3, 4],
            "load evk[d0][t1]",
            "buffer `evk[d0][t1]` is reloaded 2 time(s) with no intervening write (first: \
             tasks 3 then 4): caching it on-chip would elide the repeat traffic",
        ),
    ]
    .map(|(code, tasks, label, message)| (code, tasks, label.to_string(), message.to_string()));
    assert_eq!(found, expected);
}

#[test]
fn custom_buffer_names_keep_kernel_like_prefixes() {
    // A custom strategy's buffer `k7:x` is its own buffer, not kernel 7's
    // copy of `x`: it is interned, placed and linted apart from `x`.
    use ciflow::lint::buffer;
    use rpu::{ChannelMap, ExecPlan, TaskGraph, Verb};

    let mut g = TaskGraph::new();
    let spill = g.push_memory(Verb::Spill, 64, vec![], "k7:x", "P1");
    g.push_memory(Verb::Spill, 64, vec![], "x", "P1");
    g.push_memory(Verb::Load, 64, vec![], "x", "P1");
    let map = ChannelMap::hashed(1 << 16);
    let plan = ExecPlan::new(&g, &map, 1 << 16);
    let keys = plan.buffer_keys(&g);
    let names: Vec<&str> = (0..keys.buffer_count() as u32)
        .map(|b| keys.name(&g, b))
        .collect();
    assert_eq!(names, ["k7:x", "x"]);
    assert_ne!(map.channel_for("k7:x"), map.channel_for("x"));
    assert_placement_matches_the_reference("k7:x", &g, &map, &plan);
    let diagnostics = buffer::lint(&g, &plan);
    assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
    assert_eq!(
        (diagnostics[0].code, &diagnostics[0].tasks),
        ("B002", &vec![spill])
    );
}
