//! Per-task execution traces.
//!
//! Traces record when each task started and finished and on which pipeline it
//! ran. The `fig2_timing_diagrams` harness renders these as the per-stage
//! timing diagrams of the paper's Figure 2.

use crate::task::{Label, TaskId};
use serde::{Deserialize, Serialize};

/// Which engine resource executed a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineQueue {
    /// The HPLE compute pipeline.
    Compute,
    /// One of the in-order DRAM pseudo-channels, identified by its index
    /// (always 0 under the classic single-channel model).
    Memory(usize),
}

impl EngineQueue {
    /// True for memory channels.
    pub fn is_memory(&self) -> bool {
        matches!(self, EngineQueue::Memory(_))
    }

    /// The memory channel index, or `None` for the compute pipeline.
    pub fn channel(&self) -> Option<usize> {
        match self {
            EngineQueue::Compute => None,
            EngineQueue::Memory(c) => Some(*c),
        }
    }
}

/// Start/end record of one executed task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Task id in the executed graph.
    pub task: TaskId,
    /// Which queue executed it.
    pub queue: EngineQueue,
    /// Start time in seconds from kernel start.
    pub start_seconds: f64,
    /// End time in seconds from kernel start.
    pub end_seconds: f64,
    /// Label shared with the task (interned; see [`Label`]).
    pub label: Label,
    /// Stage name shared with the task (e.g. "ModUp-P2").
    pub stage: Label,
}

impl TaskRecord {
    /// Duration of the task in seconds.
    pub fn duration(&self) -> f64 {
        self.end_seconds - self.start_seconds
    }
}

/// A full execution trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    records: Vec<TaskRecord>,
}

impl ExecutionTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: TaskRecord) {
        self.records.push(record);
    }

    /// All records in completion order of issue.
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Start and end times of each distinct stage, in first-appearance order:
    /// `(stage, first_start, last_end)`.
    pub(crate) fn stage_spans(&self) -> Vec<(String, f64, f64)> {
        let mut order: Vec<Label> = Vec::new();
        let mut spans: std::collections::HashMap<Label, (f64, f64)> =
            std::collections::HashMap::new();
        for r in &self.records {
            let entry = spans
                .entry(r.stage.clone())
                .or_insert((r.start_seconds, r.end_seconds));
            entry.0 = entry.0.min(r.start_seconds);
            entry.1 = entry.1.max(r.end_seconds);
            if !order.iter().any(|s| s == &r.stage) {
                order.push(r.stage.clone());
            }
        }
        order
            .into_iter()
            .map(|s| {
                let (a, b) = spans[&s];
                (s.as_ref().to_owned(), a, b)
            })
            .collect()
    }

    /// Renders an ASCII timeline with one row per stage, `width` characters
    /// wide — the textual analogue of the paper's Figure 2.
    pub fn render_ascii(&self, width: usize) -> String {
        let spans = self.stage_spans();
        let total_end = self
            .records
            .iter()
            .map(|r| r.end_seconds)
            .fold(0.0f64, f64::max);
        if total_end <= 0.0 || spans.is_empty() {
            return String::from("(empty trace)\n");
        }
        let mut out = String::new();
        let label_width = spans.iter().map(|(s, _, _)| s.len()).max().unwrap_or(8);
        for (stage, start, end) in spans {
            let s = ((start / total_end) * width as f64).round() as usize;
            let e = (((end / total_end) * width as f64).round() as usize).max(s + 1);
            let mut row = vec![' '; width.max(e)];
            for c in row.iter_mut().take(e.min(width)).skip(s.min(width)) {
                *c = '#';
            }
            let bar: String = row.into_iter().take(width).collect();
            out.push_str(&format!("{stage:<label_width$} |{bar}|\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(task: TaskId, stage: &str, start: f64, end: f64) -> TaskRecord {
        TaskRecord {
            task,
            queue: EngineQueue::Compute,
            start_seconds: start,
            end_seconds: end,
            label: format!("t{task}").into(),
            stage: stage.into(),
        }
    }

    #[test]
    fn stage_spans_are_merged_and_ordered() {
        let mut trace = ExecutionTrace::new();
        trace.push(record(0, "P1", 0.0, 1.0));
        trace.push(record(1, "P2", 1.0, 2.0));
        trace.push(record(2, "P1", 2.0, 3.0));
        let spans = trace.stage_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].0, "P1");
        assert!((spans[0].1 - 0.0).abs() < 1e-12);
        assert!((spans[0].2 - 3.0).abs() < 1e-12);
        assert_eq!(spans[1].0, "P2");
    }

    #[test]
    fn duration_and_render() {
        let mut trace = ExecutionTrace::new();
        trace.push(record(0, "ModUp-P1", 0.0, 0.5));
        trace.push(record(1, "ModUp-P2", 0.5, 1.0));
        assert!((trace.records()[0].duration() - 0.5).abs() < 1e-12);
        let ascii = trace.render_ascii(20);
        assert!(ascii.contains("ModUp-P1"));
        assert!(ascii.contains('#'));
        let lines: Vec<&str> = ascii.lines().collect();
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let trace = ExecutionTrace::new();
        assert_eq!(trace.render_ascii(10), "(empty trace)\n");
    }
}
