//! Kernel-boundary forwarding pass (`B004`/`B005`).
//!
//! A stitched multi-kernel pipeline chains kernel `i`'s output limbs
//! (`k{i}:store out1[t]`) into kernel `i+1`'s input limbs
//! (`k{i+1}:load in[t]`). The pass reads each memory task's
//! [`kernel`](rpu::Task::kernel), verb and buffer through the chained-tower
//! reader workload fusion uses. The fused stitcher forwards chained towers
//! on-chip by splicing out *both* halves of the round trip; the back-to-back
//! stitcher keeps *both*. Either way the boundary must stay consistent: a
//! chained tower whose DRAM load survived but whose producing store was
//! elided would read data nothing ever wrote.
//!
//! * **`B004` half-forwarded boundary** (Error): for a chained tower
//!   `t < min(ℓ_producer, ℓ_consumer)`, the consumer's `load in[t]` is
//!   present but the producer's `store out1[t]` is not. The load's presence
//!   proves the tower was *not* forwarded on-chip, so the store is required.
//! * **`B005` unconsumed boundary store** (Warning): the mirror image — the
//!   producer stores a chained tower the consumer never loads. Correct
//!   data-wise (DRAM keeps it), but the writeback is dead traffic across
//!   this boundary. Only a Warning because a custom consumer strategy may
//!   load its inputs under other buffer names.
//!
//! Towers `t ≥ min(ℓ_p, ℓ_c)` are exempt: rescaling between kernels
//! legitimately drops top towers (producer stores them for the caller, the
//! consumer never wants them).

use rpu::verify::Diagnostic;
use rpu::{LabelText, TaskGraph, Verb};
use std::collections::BTreeSet;

use super::codes;
use crate::benchmark::HksBenchmark;
use crate::hks_shape::HksShape;
use crate::schedule::Buf;
use crate::workload::{chained_tower, ChainedTower};

/// Runs the boundary pass over a stitched pipeline graph. `kernel_benchmarks`
/// is the per-kernel parameter ladder ([`crate::workload::WorkloadSchedule`]'s
/// `kernel_benchmarks`); boundaries are consecutive pairs.
pub fn lint(graph: &TaskGraph, kernel_benchmarks: &[HksBenchmark]) -> Vec<Diagnostic> {
    // One scan: the chained towers each kernel stores (`store out1[t]`) and
    // loads (`load in[t]`).
    let kernels = kernel_benchmarks.len();
    let mut stored = vec![BTreeSet::new(); kernels];
    let mut loaded = vec![BTreeSet::new(); kernels];
    for task in graph.tasks() {
        let Some(kernel) = task.kernel.map(|k| k as usize).filter(|&k| k < kernels) else {
            continue;
        };
        match chained_tower(task) {
            Some(ChainedTower::Output(tower)) => {
                stored[kernel].insert(tower);
            }
            Some(ChainedTower::Input(tower)) => {
                loaded[kernel].insert(tower);
            }
            None => {}
        }
    }

    // A boundary transfer as the task shows it (`k0:store out1[3]`).
    let text = |kernel: usize, verb, buf: Buf| {
        let label = buf.to_string();
        LabelText {
            kernel: Some(kernel as u32),
            verb: Some(verb),
            label: &label,
        }
        .to_string()
    };
    let mut diagnostics = Vec::new();
    for (producer, pair) in kernel_benchmarks.windows(2).enumerate() {
        let consumer = producer + 1;
        let chained = HksShape::new(pair[0])
            .ell()
            .min(HksShape::new(pair[1]).ell());
        // A chained tower with only one half of its round trip, in tower
        // order.
        for &tower in loaded[consumer].symmetric_difference(&stored[producer]) {
            if tower >= chained {
                break;
            }
            let store = text(producer, Verb::Store, Buf::Out(1, tower));
            let load = text(consumer, Verb::Load, Buf::In(tower));
            diagnostics.push(if loaded[consumer].contains(&tower) {
                Diagnostic::error(
                    codes::HALF_FORWARDED_BOUNDARY,
                    format!(
                        "boundary k{producer}->k{consumer}: tower {tower} is loaded \
                         from DRAM (`{load}`) but the producing store (`{store}`) was \
                         elided — the load reads data nothing wrote"
                    ),
                )
                .with_label(load.into())
            } else {
                Diagnostic::warning(
                    codes::UNCONSUMED_BOUNDARY_STORE,
                    format!(
                        "boundary k{producer}->k{consumer}: tower {tower} is stored \
                         (`{store}`) but never loaded by the consumer — dead traffic \
                         across this boundary"
                    ),
                )
                .with_label(store.into())
            });
        }
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu::{AppendAction, TaskGraph, Verb};

    fn two_kernels() -> [HksBenchmark; 2] {
        let b = HksBenchmark::all()[0];
        [b, b]
    }

    /// A pipeline graph of one-task kernels: `(kernel, verb, buffer)` each.
    fn graph_with(transfers: &[(u32, Verb, String)]) -> TaskGraph {
        let mut g = TaskGraph::new();
        for (kernel, verb, buffer) in transfers {
            let mut one = TaskGraph::new();
            one.push_memory(*verb, 100, vec![], buffer.as_str(), "P1");
            g.append_offset(&one, Some(*kernel), |_| AppendAction::keep())
                .unwrap();
        }
        g
    }

    fn store(kernel: u32, tower: usize) -> (u32, Verb, String) {
        (kernel, Verb::Store, format!("out1[{tower}]"))
    }

    fn load(kernel: u32, tower: usize) -> (u32, Verb, String) {
        (kernel, Verb::Load, format!("in[{tower}]"))
    }

    #[test]
    fn fully_forwarded_and_fully_materialized_boundaries_are_clean() {
        let kernels = two_kernels();
        // Forwarded: neither half present.
        assert!(lint(&graph_with(&[]), &kernels).is_empty());
        // Back-to-back: both halves present for every chained tower.
        let ell = HksShape::new(kernels[0]).ell();
        let transfers: Vec<_> = (0..ell).flat_map(|t| [store(0, t), load(1, t)]).collect();
        assert!(lint(&graph_with(&transfers), &kernels).is_empty());
    }

    #[test]
    fn surviving_load_without_its_store_is_an_error() {
        let kernels = two_kernels();
        let diagnostics = lint(&graph_with(&[load(1, 0)]), &kernels);
        assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
        assert_eq!(diagnostics[0].code, codes::HALF_FORWARDED_BOUNDARY);
        assert_eq!(diagnostics[0].label.as_deref(), Some("k1:load in[0]"));
        assert_eq!(diagnostics[0].severity, rpu::Severity::Error);
    }

    #[test]
    fn store_without_a_consumer_load_is_a_warning() {
        let kernels = two_kernels();
        let diagnostics = lint(&graph_with(&[store(0, 2)]), &kernels);
        assert_eq!(diagnostics.len(), 1);
        assert_eq!(diagnostics[0].code, codes::UNCONSUMED_BOUNDARY_STORE);
        assert_eq!(diagnostics[0].label.as_deref(), Some("k0:store out1[2]"));
        assert_eq!(diagnostics[0].severity, rpu::Severity::Warning);
    }

    #[test]
    fn towers_beyond_the_chained_range_are_exempt() {
        let kernels = two_kernels();
        let ell = HksShape::new(kernels[0]).ell();
        // A store above min(ell_p, ell_c) is the caller's output, not a
        // boundary tower.
        assert!(lint(&graph_with(&[store(0, ell)]), &kernels).is_empty());
    }
}
