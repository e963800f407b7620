//! Kernel-boundary forwarding pass (`B004`/`B005`).
//!
//! A stitched multi-kernel pipeline chains kernel `i`'s output limbs
//! (`k{i}:store out1[t]`) into kernel `i+1`'s input limbs
//! (`k{i+1}:load in[t]`). The fused stitcher forwards chained towers
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
//!   load its inputs under non-canonical labels.
//!
//! Towers `t ≥ min(ℓ_p, ℓ_c)` are exempt: rescaling between kernels
//! legitimately drops top towers (producer stores them for the caller, the
//! consumer never wants them).

use rpu::verify::Diagnostic;
use rpu::TaskGraph;
use std::collections::BTreeSet;

use super::codes;
use crate::benchmark::HksBenchmark;
use crate::hks_shape::HksShape;
use crate::workload::{kernel_label, tower_index};

/// Runs the boundary pass over a stitched pipeline graph. `kernel_benchmarks`
/// is the per-kernel parameter ladder ([`crate::workload::WorkloadSchedule`]'s
/// `kernel_benchmarks`); boundaries are consecutive pairs.
pub fn lint(graph: &TaskGraph, kernel_benchmarks: &[HksBenchmark]) -> Vec<Diagnostic> {
    // One scan: the chained towers each kernel stores (`store out1[t]`) and
    // loads (`load in[t]`).
    let kernels = kernel_benchmarks.len();
    let mut stored = vec![BTreeSet::new(); kernels];
    let mut loaded = vec![BTreeSet::new(); kernels];
    for task in graph.tasks().iter().filter(|t| t.is_memory()) {
        let Some((kernel, local)) = kernel_label(&task.label).filter(|&(k, _)| k < kernels) else {
            continue;
        };
        if let Some(tower) = tower_index(local, "store out1[") {
            stored[kernel].insert(tower);
        } else if let Some(tower) = tower_index(local, "load in[") {
            loaded[kernel].insert(tower);
        }
    }

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
            let store = format!("k{producer}:store out1[{tower}]");
            let load = format!("k{consumer}:load in[{tower}]");
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
    use rpu::{MemoryDirection, TaskGraph};

    fn two_kernels() -> [HksBenchmark; 2] {
        let b = HksBenchmark::all()[0];
        [b, b]
    }

    fn graph_with(labels: &[&str]) -> TaskGraph {
        let mut g = TaskGraph::new();
        for label in labels {
            g.push_memory(MemoryDirection::Load, 100, vec![], *label, "P1");
        }
        g
    }

    #[test]
    fn fully_forwarded_and_fully_materialized_boundaries_are_clean() {
        let kernels = two_kernels();
        // Forwarded: neither half present.
        assert!(lint(&graph_with(&[]), &kernels).is_empty());
        // Back-to-back: both halves present for every chained tower.
        let ell = HksShape::new(kernels[0]).ell();
        let mut labels = Vec::new();
        for t in 0..ell {
            labels.push(format!("k0:store out1[{t}]"));
            labels.push(format!("k1:load in[{t}]"));
        }
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        assert!(lint(&graph_with(&refs), &kernels).is_empty());
    }

    #[test]
    fn surviving_load_without_its_store_is_an_error() {
        let kernels = two_kernels();
        let diagnostics = lint(&graph_with(&["k1:load in[0]"]), &kernels);
        assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
        assert_eq!(diagnostics[0].code, codes::HALF_FORWARDED_BOUNDARY);
        assert_eq!(diagnostics[0].severity, rpu::Severity::Error);
    }

    #[test]
    fn store_without_a_consumer_load_is_a_warning() {
        let kernels = two_kernels();
        let diagnostics = lint(&graph_with(&["k0:store out1[2]"]), &kernels);
        assert_eq!(diagnostics.len(), 1);
        assert_eq!(diagnostics[0].code, codes::UNCONSUMED_BOUNDARY_STORE);
        assert_eq!(diagnostics[0].severity, rpu::Severity::Warning);
    }

    #[test]
    fn towers_beyond_the_chained_range_are_exempt() {
        let kernels = two_kernels();
        let ell = HksShape::new(kernels[0]).ell();
        // A store above min(ell_p, ell_c) is the caller's output, not a
        // boundary tower.
        let label = format!("k0:store out1[{ell}]");
        assert!(lint(&graph_with(&[label.as_str()]), &kernels).is_empty());
    }
}
