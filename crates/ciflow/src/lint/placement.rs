//! Placement and accounting pass (`P003`, `A001`/`A002`).
//!
//! Checks the channel placement the schedule will actually run under — the
//! plan's queues, channel hints included — against the schedule's real
//! memory traffic, and reconciles the builder's spill accounting against the
//! labeled spill/park tasks:
//!
//! * **`P003` channel imbalance** (Warning): the placement concentrates
//!   traffic so heavily that one channel carries more than 4× its fair
//!   share (once there are at least 4 memory tasks per channel),
//!   forfeiting the head-of-line bypass benefit multiple channels exist to
//!   provide.
//! * **`A001`/`A002` spill reconciliation**: the builder's
//!   [`Schedule::spill_bytes`] vs the sum of `spill`/`park`-labeled store
//!   traffic. Labeled traffic *exceeding* the report is an Error (`A001` —
//!   the accounting undercounts DRAM traffic the engine will charge);
//!   a report exceeding the labels is only a Warning (`A002` — custom
//!   strategies may account spills without using the canonical verbs).

use rpu::channel::Verb;
use rpu::verify::Diagnostic;
use rpu::ExecPlan;

use super::codes;
use crate::schedule::Schedule;

/// `max channel bytes / fair share` above which `P003` warns.
const IMBALANCE_RATIO: f64 = 4.0;
/// Minimum memory tasks per channel before `P003` is meaningful.
const IMBALANCE_MIN_TASKS_PER_CHANNEL: usize = 4;

/// Runs the placement/accounting pass for `schedule` under the channel map
/// and channel count compiled into `plan` (the schedule graph's plan).
pub fn lint(schedule: &Schedule, plan: &ExecPlan) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();

    // P003's per-channel byte totals come straight off the plan's queues;
    // one walk over the plan's memory keys feeds A001/A002 (labeled
    // spill/park traffic).
    let graph = &schedule.graph;
    let tasks = graph.tasks();
    let channels = plan.channels();
    let channel_bytes: Vec<u64> = plan
        .memory_queues()
        .iter()
        .map(|queue| queue.iter().map(|&t| tasks[t as usize].bytes()).sum())
        .collect();
    let keys = plan.buffer_keys(graph);
    let memory_tasks = keys.memory_task_count();
    let labeled_spill_bytes: u64 = keys
        .memory_tasks(graph)
        .filter(|(_, _, key)| key.verb.is_some_and(Verb::is_spill))
        .map(|(_, task, _)| task.bytes())
        .sum();

    // P003: one channel hoards the traffic.
    let total_bytes: u64 = channel_bytes.iter().sum();
    if channels > 1 && memory_tasks >= IMBALANCE_MIN_TASKS_PER_CHANNEL * channels && total_bytes > 0
    {
        let fair_share = total_bytes as f64 / channels as f64;
        let (worst, &max_bytes) = channel_bytes
            .iter()
            .enumerate()
            .max_by_key(|&(_, b)| *b)
            .expect("channels > 1");
        if max_bytes as f64 > IMBALANCE_RATIO * fair_share {
            diagnostics.push(Diagnostic::warning(
                codes::CHANNEL_IMBALANCE,
                format!(
                    "channel {worst} carries {max_bytes} of {total_bytes} B \
                     ({:.0}x its fair share across {channels} channels): the placement \
                     forfeits most of the head-of-line bypass benefit",
                    max_bytes as f64 / fair_share,
                ),
            ));
        }
    }

    // A001/A002: reconcile the builder's spill accounting.
    let reported = schedule.spill_bytes;
    if labeled_spill_bytes > reported {
        diagnostics.push(Diagnostic::error(
            codes::SPILL_UNDERREPORTED,
            format!(
                "spill/park tasks move {labeled_spill_bytes} B but the schedule reports \
                 spill_bytes = {reported}: the accounting undercounts DRAM traffic the \
                 engine will charge"
            ),
        ));
    } else if reported > labeled_spill_bytes {
        diagnostics.push(Diagnostic::warning(
            codes::SPILL_OVERREPORTED,
            format!(
                "schedule reports spill_bytes = {reported} but only {labeled_spill_bytes} B \
                 of spill/park-labeled traffic exists (coarse or custom accounting?)"
            ),
        ));
    }

    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu::{ChannelMap, MemoryDirection, RpuConfig, RpuEngine, TaskGraph};

    fn schedule(graph: TaskGraph, spill_bytes: u64) -> Schedule {
        Schedule {
            strategy: "test".into(),
            graph,
            peak_on_chip_bytes: 0,
            spill_bytes,
        }
    }

    fn engine_with(map: ChannelMap) -> RpuEngine {
        let channels = map.num_channels();
        RpuEngine::new(RpuConfig::ciflow_baseline().with_memory_channels(channels))
            .with_channel_map(map)
    }

    fn lint_under(schedule: &Schedule, engine: &RpuEngine) -> Vec<Diagnostic> {
        lint(schedule, &engine.plan(&schedule.graph))
    }

    #[test]
    fn pinning_everything_to_one_of_many_channels_is_imbalanced() {
        let mut g = TaskGraph::new();
        for t in 0..64 {
            g.push_memory_on(
                MemoryDirection::Load,
                1000,
                vec![],
                format!("load in[{t}]"),
                "P1",
                Some(0),
            );
        }
        let engine = engine_with(ChannelMap::hashed(8));
        let diagnostics = lint_under(&schedule(g, 0), &engine);
        assert!(
            diagnostics
                .iter()
                .any(|d| d.code == codes::CHANNEL_IMBALANCE),
            "{diagnostics:?}"
        );
    }

    #[test]
    fn hashed_placement_of_many_buffers_is_balanced() {
        let mut g = TaskGraph::new();
        for t in 0..64 {
            g.push_memory(
                MemoryDirection::Load,
                1000,
                vec![],
                format!("load in[{t}]"),
                "P1",
            );
        }
        let engine = engine_with(ChannelMap::hashed(4));
        assert!(lint_under(&schedule(g, 0), &engine).is_empty());
    }

    #[test]
    fn spill_accounting_reconciles_both_directions() {
        let mut g = TaskGraph::new();
        g.push_memory(MemoryDirection::Store, 150, vec![], "spill acc0[0]", "P1");
        g.push_memory(MemoryDirection::Store, 50, vec![], "park in[3]", "P1");
        g.push_memory(MemoryDirection::Load, 150, vec![], "load acc0[0]", "P1");
        g.push_memory(MemoryDirection::Load, 50, vec![], "load in[3]", "P1");
        let engine = engine_with(ChannelMap::hashed(1));

        // Exact accounting: clean.
        assert!(lint_under(&schedule(g.clone(), 200), &engine).is_empty());

        // Under-reporting is an error: the engine will move more spill bytes
        // than the schedule claims.
        let under = lint_under(&schedule(g.clone(), 100), &engine);
        assert_eq!(under.len(), 1);
        assert_eq!(under[0].code, codes::SPILL_UNDERREPORTED);
        assert_eq!(under[0].severity, rpu::Severity::Error);

        // Over-reporting (e.g. a custom strategy with coarse labels) is only
        // a warning.
        let over = lint_under(&schedule(g, 300), &engine);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].code, codes::SPILL_OVERREPORTED);
        assert_eq!(over[0].severity, rpu::Severity::Warning);
    }
}
