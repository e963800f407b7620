//! Placement and accounting pass (`P001`–`P003`, `A001`/`A002`).
//!
//! Checks the channel placement the schedule will actually run under —
//! resolved pin rules plus the hash fallback — against the schedule's real
//! memory traffic, and reconciles the builder's spill accounting against the
//! labeled spill/park tasks:
//!
//! * **`P001` shadowed pin rule** (Error): rules win in insertion order and
//!   match by substring, so a rule whose pattern *contains* an earlier rule's
//!   pattern can never fire — every label it would match is already claimed.
//!   [`ChannelMap::with_pin`](rpu::ChannelMap::with_pin) debug-asserts this
//!   at construction; the lint proves it for maps built in release mode or
//!   deserialized.
//! * **`P002` dead pin rule** (Warning): a reachable rule that matches none
//!   of this schedule's buffers — usually a typo in the pattern.
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

use rpu::channel::{canonical_label, split_label};
use rpu::verify::Diagnostic;
use rpu::ExecPlan;

use super::codes;
use crate::schedule::Schedule;

/// `max channel bytes / fair share` above which `P003` warns.
const IMBALANCE_RATIO: f64 = 4.0;
/// Minimum memory tasks per channel before `P003` is meaningful.
const IMBALANCE_MIN_TASKS_PER_CHANNEL: usize = 4;

/// Indices of rules that can never match because an earlier rule's pattern is
/// a substring of theirs. Pure so the lint is testable without constructing
/// an (asserted-against) shadowed [`rpu::ChannelMap`].
fn shadowed_rules(patterns: &[&str]) -> Vec<(usize, usize)> {
    let mut shadowed = Vec::new();
    for (later, pattern) in patterns.iter().enumerate() {
        if let Some(earlier) = patterns[..later]
            .iter()
            .position(|prior| pattern.contains(prior))
        {
            shadowed.push((later, earlier));
        }
    }
    shadowed
}

/// Runs the placement/accounting pass for `schedule` under the channel map
/// and channel count compiled into `plan` (the schedule graph's plan).
pub fn lint(schedule: &Schedule, plan: &ExecPlan) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let map = plan.channel_map();
    let rules: Vec<(&str, &[usize])> = map.rules().collect();
    let patterns: Vec<&str> = rules.iter().map(|(p, _)| *p).collect();

    // P001: statically unreachable rules.
    for (later, earlier) in shadowed_rules(&patterns) {
        diagnostics.push(
            Diagnostic::error(
                codes::SHADOWED_PIN_RULE,
                format!(
                    "pin rule #{later} (pattern {:?}) can never match: rule #{earlier} \
                     (pattern {:?}) precedes it and matches a superset of its labels \
                     (rules win in insertion order)",
                    patterns[later], patterns[earlier],
                ),
            )
            .with_label(patterns[later].into()),
        );
    }

    // P003's per-channel byte totals come straight off the plan's queues;
    // one walk over the memory tasks feeds P002 (per-rule match counts under
    // first-match semantics) and A001/A002 (labeled spill/park traffic).
    let tasks = schedule.graph.tasks();
    let channels = plan.channels();
    let channel_bytes: Vec<u64> = plan
        .memory_queues()
        .iter()
        .map(|queue| queue.iter().map(|&t| tasks[t as usize].bytes()).sum())
        .collect();
    let mut rule_matches = vec![0usize; patterns.len()];
    let mut memory_tasks = 0usize;
    let mut labeled_spill_bytes = 0u64;
    for task in tasks.iter().filter(|t| t.is_memory()) {
        memory_tasks += 1;
        let canonical = canonical_label(&task.label);
        if let Some(hit) = patterns.iter().position(|p| canonical.contains(p)) {
            rule_matches[hit] += 1;
        }
        if matches!(split_label(&task.label).0, Some("spill") | Some("park")) {
            labeled_spill_bytes += task.bytes();
        }
    }

    // P002: reachable rules that matched nothing (vacuous without traffic).
    if memory_tasks > 0 {
        let shadowed: Vec<usize> = shadowed_rules(&patterns).iter().map(|&(j, _)| j).collect();
        for (at, matches) in rule_matches.iter().enumerate() {
            if *matches == 0 && !shadowed.contains(&at) {
                diagnostics.push(
                    Diagnostic::warning(
                        codes::DEAD_PIN_RULE,
                        format!(
                            "pin rule #{at} (pattern {:?}) matches none of the schedule's \
                             {memory_tasks} memory-task buffers",
                            patterns[at],
                        ),
                    )
                    .with_label(patterns[at].into()),
                );
            }
        }
    }

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
    fn shadowing_detection_is_order_sensitive() {
        // "evk" after the catch-all can never match; before it, it can.
        assert_eq!(shadowed_rules(&["", "evk"]), vec![(1, 0)]);
        assert!(shadowed_rules(&["evk", ""]).is_empty());
        assert_eq!(shadowed_rules(&["in", "in["]), vec![(1, 0)]);
    }

    #[test]
    fn dead_rule_is_flagged_and_live_rules_are_not() {
        let mut g = TaskGraph::new();
        for t in 0..4 {
            g.push_memory(
                MemoryDirection::Load,
                100,
                vec![],
                format!("load in[{t}]"),
                "P1",
            );
        }
        let engine = engine_with(ChannelMap::hashed(2).with_pin("zzz-typo", [0]));
        let diagnostics = lint_under(&schedule(g, 0), &engine);
        assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
        assert_eq!(diagnostics[0].code, codes::DEAD_PIN_RULE);
        assert!(diagnostics[0].message.contains("zzz-typo"));
    }

    #[test]
    fn pinning_everything_to_one_of_many_channels_is_imbalanced() {
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
        let engine = engine_with(ChannelMap::hashed(8).with_pin("", [0]));
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
