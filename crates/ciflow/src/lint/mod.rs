//! `ciflow::lint` — static verification of schedules before execution.
//!
//! Every correctness property of the simulator used to be enforced
//! *dynamically*: a malformed task graph surfaced as an
//! [`EngineError::Deadlock`](rpu::EngineError) mid-run, a forwarding splice
//! that dropped a needed store only showed up as wrong traffic totals, and a
//! channel pin rule that matched nothing failed silently. This module proves
//! the same properties *without executing*, emitting structured
//! [`Diagnostic`]s a caller can gate on — the discipline ordering-sensitive
//! memory systems apply to their consistency invariants.
//!
//! Six composable passes analyze a [`Schedule`] (its
//! [`TaskGraph`](rpu::TaskGraph), the derived [`ChannelMap`] and the target
//! [`RpuConfig`]):
//!
//! 1. **structural** ([`rpu::verify::lint_structural`]) — id mismatches,
//!    dangling/duplicate dependency edges, self and forward dependencies
//!    (`S001`–`S005`).
//! 2. **deadlock** ([`rpu::verify::lint_deadlock`]) — an abstract
//!    interpretation of the engine's per-channel in-order grant semantics:
//!    proves the queues cannot cross-block for this channel count and
//!    placement, subsuming the runtime deadlock check (`D001`).
//! 3. **buffer hazards** ([mod@buffer]) — per-buffer lifetime analysis over
//!    the canonical labels: loads of spilled buffers before any write,
//!    spills never reloaded, redundant back-to-back loads (`B001`–`B003`);
//!    plus the kernel-boundary forwarding check ([mod@pipeline],
//!    `B004`/`B005`).
//! 4. **capacity** ([mod@capacity]) — peak on-chip residency vs the target's
//!    data memory (`C001`/`C002`).
//! 5. **placement/accounting** ([mod@placement]) — unreachable or dead pin
//!    rules, pathological channel imbalance, and spill-traffic
//!    reconciliation (`P001`–`P003`, `A001`/`A002`).
//! 6. **performance** ([mod@perf]) — static roofline analysis over
//!    [`rpu::bound`]: queue-order-dominated critical paths, late
//!    prefetches, structural utilization ceilings and bandwidth
//!    overprovisioning above the knee (`R001`–`R004`, see `docs/BOUNDS.md`).
//!
//! Entry points: [`lint_schedule`] for a single-kernel schedule,
//! [`lint_workload`] for a stitched pipeline (adds the boundary pass), and
//! [`Session::verify`](crate::api::Session::verify) to lint a whole queued
//! batch exactly as it would run. Thresholds (capacity headroom, imbalance
//! ratio, the `R`-code ratios) are tunable through [`LintConfig`] via
//! [`lint_with_config`]; the plain entry points use [`LintConfig::default`],
//! which preserves the historical behaviour. The `schedule_lint` binary (in
//! `ciflow-bench`) sweeps the preset gallery and exits nonzero on any
//! Error (or, with `--deny-warnings`, any Warning) — CI runs it, archiving
//! the machine-readable `--json` report ([`LintReport::to_json`]).
//!
//! Every code is catalogued with a minimal triggering example in
//! `docs/LINTS.md`.

use crate::benchmark::HksBenchmark;
use crate::json;
use crate::schedule::Schedule;
use crate::workload::WorkloadSchedule;
use rpu::{ChannelMap, RpuConfig, RpuEngine};
use serde::Serialize;
use std::fmt::Write as _;

pub use rpu::verify::{Diagnostic, Severity};

pub mod buffer;
pub mod capacity;
pub mod perf;
pub mod pipeline;
pub mod placement;

/// Stable codes for the schedule-level passes (the graph-level `S...`/`D001`
/// codes live in [`rpu::verify::codes`]).
pub mod codes {
    pub use rpu::verify::codes::*;

    /// A spilled/parked buffer is loaded before anything ever wrote it.
    pub const LOAD_BEFORE_STORE: &str = "B001";
    /// A spill/park store is never reloaded — wasted DRAM traffic.
    pub const DEAD_STORE: &str = "B002";
    /// The same buffer is loaded twice with no intervening write — a missed
    /// caching opportunity.
    pub const REDUNDANT_LOAD: &str = "B003";
    /// A kernel boundary loads a chained tower that was neither stored by
    /// the producer nor forwarded on-chip.
    pub const HALF_FORWARDED_BOUNDARY: &str = "B004";
    /// A producer stores a chained tower its consumer never loads.
    pub const UNCONSUMED_BOUNDARY_STORE: &str = "B005";
    /// Peak on-chip residency exceeds the target's data memory.
    pub const CAPACITY_EXCEEDED: &str = "C001";
    /// Peak on-chip residency is within 5% of the target's data memory.
    pub const NEAR_CAPACITY: &str = "C002";
    /// A pin rule can never match: an earlier rule's pattern is a substring
    /// of its pattern (rules win in insertion order).
    pub const SHADOWED_PIN_RULE: &str = "P001";
    /// A pin rule matches none of the schedule's buffers.
    pub const DEAD_PIN_RULE: &str = "P002";
    /// The placement concentrates traffic on few channels.
    pub const CHANNEL_IMBALANCE: &str = "P003";
    /// Labeled spill/park traffic exceeds the schedule's reported
    /// `spill_bytes` — the accounting under-counts real traffic.
    pub const SPILL_UNDERREPORTED: &str = "A001";
    /// Reported `spill_bytes` exceeds the labeled spill/park traffic.
    pub const SPILL_OVERREPORTED: &str = "A002";
    /// The critical path is dominated by same-channel queue-order edges
    /// rather than true dependencies — the placement serializes work the
    /// dataflow does not require.
    pub const QUEUE_ORDER_CRITICAL: &str = "R001";
    /// A load is dependency-ready far ahead of its latest start yet its
    /// in-order queue position issues it too late — a missed prefetch.
    pub const LATE_PREFETCH: &str = "R002";
    /// Structural utilization ceiling: the critical path provably idles
    /// both the compute pipeline and the data path at *every* bandwidth.
    pub const UTILIZATION_CEILING: &str = "R003";
    /// The configured bandwidth sits above the static roofline knee — the
    /// schedule is bandwidth-insensitive here.
    pub const ABOVE_ROOFLINE_KNEE: &str = "R004";
}

/// Tunable thresholds for the lint passes. [`LintConfig::default`] matches
/// the historical hard-coded behaviour, so [`lint_schedule`] /
/// [`lint_workload`] / [`lint_with`] are unchanged; pass a custom
/// configuration through [`lint_with_config`] to tighten or relax a gate.
#[derive(Debug, Clone, PartialEq)]
pub struct LintConfig {
    /// Fraction of data memory above which `C002` notes thin headroom
    /// (default 0.95).
    pub near_capacity_fraction: f64,
    /// `max channel bytes / fair share` above which `P003` warns
    /// (default 4.0).
    pub imbalance_ratio: f64,
    /// Minimum memory tasks per channel before `P003` is meaningful
    /// (default 4).
    pub imbalance_min_tasks_per_channel: usize,
    /// Queue-augmented bound over the largest placement-independent bound,
    /// above which `R001` warns that queue-order edges dominate the critical
    /// path (default 1.75: the intrinsic load/compute interleave of the
    /// in-order queues costs the preset gallery up to ~1.5x on one channel,
    /// while a genuine serialization pathology — e.g. a load/compute zigzag
    /// that defeats all overlap — costs 2x or more).
    pub queue_path_ratio: f64,
    /// Fraction of the dependency bound a load's slack must reach — while
    /// its queue position still makes it critical — before `R002` flags a
    /// late prefetch (default 0.25).
    pub prefetch_slack_fraction: f64,
    /// Fraction of the graph's total DRAM traffic that must be serialized
    /// with the full compute chain before `R003` reports a structural
    /// utilization ceiling (default 0.5). Below it, the residue is a benign
    /// head-of-pipeline prefetch, not a ceiling.
    pub ceiling_residual_fraction: f64,
    /// `configured bandwidth / knee bandwidth` at or above which `R004`
    /// notes the schedule is bandwidth-insensitive (default 1.0).
    pub knee_headroom_ratio: f64,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            near_capacity_fraction: 0.95,
            imbalance_ratio: 4.0,
            imbalance_min_tasks_per_channel: 4,
            queue_path_ratio: 1.75,
            prefetch_slack_fraction: 0.25,
            ceiling_residual_fraction: 0.5,
            knee_headroom_ratio: 1.0,
        }
    }
}

/// The outcome of linting one schedule: every diagnostic from every pass, in
/// pass order.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LintReport {
    /// All findings, most severe passes first within each pass's order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True when no pass found anything at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// The Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.of_severity(Severity::Error)
    }

    /// The Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.of_severity(Severity::Warning)
    }

    /// The Note-severity findings.
    pub fn notes(&self) -> impl Iterator<Item = &Diagnostic> {
        self.of_severity(Severity::Note)
    }

    fn of_severity(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// `(errors, warnings, notes)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.errors().count(),
            self.warnings().count(),
            self.notes().count(),
        )
    }

    /// The most severe finding's severity, or `None` for a clean report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// The distinct codes present, in first-occurrence order.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = Vec::new();
        for d in &self.diagnostics {
            if !codes.contains(&d.code) {
                codes.push(d.code);
            }
        }
        codes
    }

    /// Renders the report as a machine-readable JSON document
    /// (`ciflow.lint_report.v1`): counts plus one object per diagnostic
    /// with its code, severity, tasks, optional label and message, streamed
    /// into one buffer with [`crate::json`]. The `schedule_lint` binary's
    /// `--json` mode archives these from CI.
    pub fn to_json(&self) -> String {
        let (errors, warnings, notes) = self.counts();
        let mut out = String::with_capacity(128 + self.diagnostics.len() * 96);
        let _ = write!(
            out,
            "{{\"schema\":\"ciflow.lint_report.v1\",\
             \"counts\":{{\"errors\":{errors},\"warnings\":{warnings},\"notes\":{notes}}},\
             \"diagnostics\":"
        );
        json::write_array(&mut out, &self.diagnostics, |out, d| {
            out.push_str("{\"code\":");
            json::write_str(out, d.code);
            let _ = write!(out, ",\"severity\":\"{}\",\"tasks\":", d.severity);
            json::write_array(out, d.tasks.iter().copied(), json::write_uint);
            out.push_str(",\"label\":");
            match &d.label {
                Some(label) => json::write_str(out, label),
                None => out.push_str("null"),
            }
            out.push_str(",\"message\":");
            json::write_str(out, &d.message);
            out.push('}');
        });
        out.push('}');
        out
    }
}

impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean (no diagnostics)");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Lints a single-kernel schedule against the target configuration, deriving
/// the same channel placement [`Session`](crate::api::Session) would install
/// ([`Schedule::channel_map`]).
pub fn lint_schedule(schedule: &Schedule, rpu: &RpuConfig) -> LintReport {
    let map = schedule.channel_map(rpu.memory_channel_count());
    lint_with(schedule, &[], rpu, &map)
}

/// Lints a stitched workload pipeline: everything [`lint_schedule`] checks,
/// plus the per-boundary forwarding consistency pass over the kernel ladder.
pub fn lint_workload(pipeline: &WorkloadSchedule, rpu: &RpuConfig) -> LintReport {
    let map = pipeline.schedule.channel_map(rpu.memory_channel_count());
    lint_with(&pipeline.schedule, &pipeline.kernel_benchmarks, rpu, &map)
}

/// The fully-parameterized entry point: lints `schedule` as it would execute
/// on `rpu` under `channel_map`, with the kernel-boundary pass enabled when
/// `kernel_benchmarks` describes a multi-kernel pipeline. This is what
/// [`Session::verify`](crate::api::Session::verify) calls with the session's
/// cached plan and placement.
pub fn lint_with(
    schedule: &Schedule,
    kernel_benchmarks: &[HksBenchmark],
    rpu: &RpuConfig,
    channel_map: &ChannelMap,
) -> LintReport {
    lint_with_config(
        schedule,
        kernel_benchmarks,
        rpu,
        channel_map,
        &LintConfig::default(),
    )
}

/// [`lint_with`] with explicit thresholds: every pass that gates on a ratio
/// or fraction reads it from `config` instead of a built-in constant.
pub fn lint_with_config(
    schedule: &Schedule,
    kernel_benchmarks: &[HksBenchmark],
    rpu: &RpuConfig,
    channel_map: &ChannelMap,
    config: &LintConfig,
) -> LintReport {
    let engine = RpuEngine::new(rpu.clone()).with_channel_map(channel_map.clone());
    let mut diagnostics = rpu::verify::lint_graph(&schedule.graph, &engine);
    diagnostics.extend(buffer::lint(&schedule.graph));
    diagnostics.extend(capacity::lint(schedule, rpu, config));
    diagnostics.extend(placement::lint(schedule, &engine, config));
    if kernel_benchmarks.len() > 1 {
        diagnostics.extend(pipeline::lint(&schedule.graph, kernel_benchmarks));
    }
    diagnostics.extend(perf::lint(&schedule.graph, &engine, config));
    LintReport { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Dataflow;
    use crate::hks_shape::HksShape;
    use crate::schedule::{build_schedule, ScheduleConfig};
    use rpu::EvkPolicy;

    #[test]
    fn every_builtin_schedule_lints_without_errors() {
        for bench in HksBenchmark::all() {
            for dataflow in [
                Dataflow::MaxParallel,
                Dataflow::DigitCentric,
                Dataflow::OutputCentric,
            ] {
                for policy in [EvkPolicy::OnChip, EvkPolicy::Streamed] {
                    let config = ScheduleConfig::with_data_memory(32 * rpu::MIB, policy);
                    let schedule = build_schedule(dataflow, &HksShape::new(bench), &config);
                    for channels in [1, 2, 4, 8] {
                        let rpu = rpu::RpuConfig::ciflow_with_policy(policy)
                            .with_memory_channels(channels);
                        let report = lint_schedule(&schedule, &rpu);
                        assert!(
                            !report.has_errors(),
                            "{} {dataflow} {policy:?} x{channels}:\n{report}",
                            bench.name,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_builtin_workload_pipeline_lints_without_errors() {
        use crate::workload::{build_workload, PipelineMode, Workload};

        let bench = HksBenchmark::all()[0];
        let workloads = [
            Workload::rotation_batch(bench, 3),
            Workload::mul_rot_block(bench, 2),
            Workload::bootstrap_key_switch(bench),
            Workload::rescaling_chain(bench, 3),
        ];
        for workload in &workloads {
            for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
                for dataflow in Dataflow::all() {
                    let config =
                        ScheduleConfig::with_data_memory(32 * rpu::MIB, EvkPolicy::Streamed);
                    let pipeline =
                        build_workload(workload, dataflow.strategy(), &config, mode).unwrap();
                    for channels in [1, 2, 4, 8] {
                        let rpu = rpu::RpuConfig::ciflow_baseline().with_memory_channels(channels);
                        let report = lint_workload(&pipeline, &rpu);
                        assert!(
                            !report.has_errors(),
                            "{} {dataflow} {mode:?} x{channels}:\n{report}",
                            workload.name,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn report_formats_and_counts() {
        let report = LintReport {
            diagnostics: vec![
                Diagnostic::error(codes::CAPACITY_EXCEEDED, "too big"),
                Diagnostic::warning(codes::DEAD_STORE, "never reloaded"),
                Diagnostic::note(codes::NEAR_CAPACITY, "tight"),
            ],
        };
        assert_eq!(report.counts(), (1, 1, 1));
        assert!(report.has_errors());
        let text = report.to_string();
        assert!(text.contains("error[C001]") && text.contains("warning[B002]"));
        assert!(LintReport::default().is_clean());
        assert_eq!(LintReport::default().to_string(), "clean (no diagnostics)");
    }

    #[test]
    fn max_severity_and_codes_summarize_the_report() {
        assert_eq!(LintReport::default().max_severity(), None);
        let report = LintReport {
            diagnostics: vec![
                Diagnostic::note(codes::NEAR_CAPACITY, "tight"),
                Diagnostic::warning(codes::DEAD_STORE, "never reloaded"),
                Diagnostic::warning(codes::DEAD_STORE, "again"),
            ],
        };
        assert_eq!(report.max_severity(), Some(Severity::Warning));
        // Distinct codes in first-occurrence order, duplicates folded.
        assert_eq!(
            report.codes(),
            vec![codes::NEAR_CAPACITY, codes::DEAD_STORE]
        );
    }

    #[test]
    fn json_report_follows_the_schema_and_escapes_content() {
        let report = LintReport {
            diagnostics: vec![
                Diagnostic::error(codes::CAPACITY_EXCEEDED, "peak \"quoted\"\nline")
                    .with_tasks([3, 7])
                    .with_label("load in[0]".into()),
                Diagnostic::note(codes::NEAR_CAPACITY, "tight"),
            ],
        };
        let json = report.to_json();
        // Schema envelope and counts.
        assert!(json.starts_with("{\"schema\":\"ciflow.lint_report.v1\""));
        assert!(json.contains("\"counts\":{\"errors\":1,\"warnings\":0,\"notes\":1}"));
        // Per-diagnostic fields, with escaping applied.
        assert!(json.contains("\"code\":\"C001\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"tasks\":[3,7]"));
        assert!(json.contains("\"label\":\"load in[0]\""));
        assert!(json.contains("peak \\\"quoted\\\"\\nline"));
        assert!(json.contains("\"label\":null"));
        // Structural sanity: balanced braces/brackets and even quote count
        // once escapes are stripped.
        let stripped = json.replace("\\\"", "").replace("\\\\", "");
        assert_eq!(stripped.matches('{').count(), stripped.matches('}').count());
        assert_eq!(stripped.matches('[').count(), stripped.matches(']').count());
        assert_eq!(stripped.matches('"').count() % 2, 0);
        assert!(json.ends_with("]}"));
        let empty = LintReport::default().to_json();
        assert!(empty.contains("\"diagnostics\":[]"));
    }
}
