//! The Output-Centric (OC) schedule generator — the paper's proposal.
//!
//! OC computes one *output tower* of the key switch at a time (paper §IV-C,
//! Figure 2c). The ModUp phase is split into two sections:
//!
//! * **Section 1** produces the output towers in modulo `Q`. Output towers
//!   are processed grouped by the digit they belong to: for the group of
//!   digit `g`, the digit's own towers are bypassed while every *other* digit
//!   contributes one BConv *slice* per output tower (never the full `β`
//!   expansion). Only the `ℓ − α` INTT outputs of the other digits need to be
//!   resident at a time — 30 towers instead of 45 for BTS3 — which is what
//!   lets OC fit in a 32 MB data memory.
//! * **Section 2** produces the output towers in modulo `P`, for which every
//!   digit contributes a slice; it proceeds digit-by-digit, reusing the INTT
//!   outputs already on-chip and loading the final digit last, exactly as the
//!   paper describes.
//!
//! ModDown follows the same one-output-tower-at-a-time principle, which
//! removes the ModDown-P2 expansion entirely. The result is a dramatically
//! smaller intermediate working set and far less off-chip traffic, at an
//! identical total operation count.

use super::{Buf, Schedule, ScheduleBuilder, ScheduleConfig};
use crate::dataflow::Dataflow;
use crate::hks_shape::{HksShape, HksStage};
use rpu::{ComputeKind, TaskId};

/// Tracks which input towers have been INTT'd so far and the per-digit BConv
/// scaling tasks, so each is computed exactly once regardless of the order in
/// which output-tower groups request them.
struct ModUpState {
    intt_done: Vec<bool>,
    bypass_done: Vec<bool>,
    digit_scale: Vec<Option<TaskId>>,
    /// True when the data memory cannot hold both the evaluation-domain
    /// inputs and all INTT outputs at once; in that case the INTT outputs get
    /// priority (the paper's "prioritize storing the INTT outputs" rule) and
    /// the originals are reloaded for their single bypass use.
    tight: bool,
}

impl ModUpState {
    fn new(shape: &HksShape, config: &ScheduleConfig) -> Self {
        let resident_everything =
            (2 * shape.ell() as u64 + 8) * shape.tower_bytes() <= config.data_memory_bytes;
        Self {
            intt_done: vec![false; shape.ell()],
            bypass_done: vec![false; shape.ell()],
            digit_scale: vec![None; shape.dnum()],
            tight: !resident_everything,
        }
    }

    /// Ensures tower `t`'s INTT output is available on-chip, computing it on
    /// first use and reloading it from DRAM if it was parked since. Returns a
    /// dependency for consumers.
    fn ensure_intt(&mut self, b: &mut ScheduleBuilder<'_>, shape: &HksShape, t: usize) -> TaskId {
        if !self.intt_done[t] {
            let dep = b.acquire(Buf::In(t), HksStage::ModUpIntt);
            let intt = b.compute(
                ComputeKind::Intt,
                shape.ntt_ops(),
                vec![dep],
                format_args!("intt in[{t}]"),
                HksStage::ModUpIntt,
            );
            if self.bypass_done[t] {
                // Both uses of the original tower are finished; free it.
                b.release(Buf::In(t));
            } else if self.tight {
                // The evaluation-domain original is only needed again for the
                // bypass in its own group; release it so INTT outputs get the
                // on-chip space, and accept one reload later.
                b.release(Buf::In(t));
                b.declare_dram_input(Buf::In(t), shape.tower_bytes());
            }
            b.produce(Buf::Intt(t), shape.tower_bytes(), intt, HksStage::ModUpIntt);
            self.intt_done[t] = true;
        }
        b.acquire(Buf::Intt(t), HksStage::ModUpBconv)
    }

    /// Ensures the per-digit BConv scaling pass has been emitted and returns
    /// its task id.
    fn ensure_scale(
        &mut self,
        b: &mut ScheduleBuilder<'_>,
        shape: &HksShape,
        digit: usize,
        intt_deps: &[TaskId],
    ) -> TaskId {
        if let Some(scale) = self.digit_scale[digit] {
            return scale;
        }
        let scale = b.compute(
            ComputeKind::BasisConversion,
            shape.bconv_scale_ops(shape.digit_width(digit)),
            intt_deps.to_vec(),
            format_args!("bconv scale digit {digit}"),
            HksStage::ModUpBconv,
        );
        self.digit_scale[digit] = Some(scale);
        scale
    }
}

/// Emits the contribution of digit `j` to output tower `t` and returns the
/// task producing the running accumulator for that tower.
#[allow(clippy::too_many_arguments)]
fn accumulate_digit(
    b: &mut ScheduleBuilder<'_>,
    shape: &HksShape,
    j: usize,
    t: usize,
    d_dep: TaskId,
    prev: Option<TaskId>,
) -> TaskId {
    let mut deps = vec![d_dep];
    deps.extend(b.acquire_evk(j, t, HksStage::ModUpApplyKey));
    let mul = b.compute(
        ComputeKind::PointwiseMul,
        2 * shape.pointwise_ops(),
        deps,
        format_args!("apply evk d{j} t{t}"),
        HksStage::ModUpApplyKey,
    );
    match prev {
        None => mul,
        Some(prev) => b.compute(
            ComputeKind::PointwiseAdd,
            2 * shape.pointwise_ops(),
            vec![mul, prev],
            format_args!("accumulate d{j} t{t}"),
            HksStage::ModUpReduce,
        ),
    }
}

/// Emits a BConv slice of digit `j` aimed at extended tower `t`, followed by
/// its NTT, returning the task that produces the evaluation-domain slice.
fn slice_and_ntt(
    b: &mut ScheduleBuilder<'_>,
    shape: &HksShape,
    state: &mut ModUpState,
    j: usize,
    t: usize,
) -> TaskId {
    let mut intt_deps = Vec::with_capacity(shape.digit_width(j));
    for s in shape.benchmark.digit_range(j) {
        intt_deps.push(state.ensure_intt(b, shape, s));
    }
    let scale = state.ensure_scale(b, shape, j, &intt_deps);
    let mut deps = intt_deps;
    deps.push(scale);
    let slice = b.compute(
        ComputeKind::BasisConversion,
        shape.bconv_slice_ops(shape.digit_width(j)),
        deps,
        format_args!("bconv slice d{j} -> t{t}"),
        HksStage::ModUpBconv,
    );
    b.compute(
        ComputeKind::Ntt,
        shape.ntt_ops(),
        vec![slice],
        format_args!("ntt d{j} -> t{t}"),
        HksStage::ModUpNtt,
    )
}

/// Builds the Output-Centric schedule for one hybrid key switch.
pub fn build_output_centric(shape: &HksShape, config: &ScheduleConfig) -> Schedule {
    let mut b = ScheduleBuilder::new(shape, config);
    let shape = *shape;
    let ell = shape.ell();
    let k = shape.k();
    let dnum = shape.dnum();
    let tower = shape.tower_bytes();
    let mut state = ModUpState::new(&shape, config);

    for t in 0..ell {
        b.declare_dram_input(Buf::In(t), tower);
    }

    // ------------------------------------------------------------------
    // ModUp Section 1: output towers in modulo Q, grouped by owning digit.
    // ------------------------------------------------------------------
    for g in 0..dnum {
        // The INTT outputs of the group's own digit are not needed while its
        // outputs are being produced; when memory is tight, park any that are
        // resident to make room for the other digits' INTT outputs.
        if state.tight {
            for t in shape.benchmark.digit_range(g) {
                if b.is_resident(Buf::Intt(t)) {
                    b.park(Buf::Intt(t), HksStage::ModUpIntt);
                }
            }
        }
        for t in shape.benchmark.digit_range(g) {
            let mut acc: Option<TaskId> = None;
            for j in 0..dnum {
                let d_dep = if j == g {
                    // Bypass: the original evaluation-domain tower.
                    b.acquire(Buf::In(t), HksStage::ModUpApplyKey)
                } else {
                    slice_and_ntt(&mut b, &shape, &mut state, j, t)
                };
                acc = Some(accumulate_digit(&mut b, &shape, j, t, d_dep, acc));
            }
            // The evaluation-domain original is dead after its bypass *if*
            // its INTT has already been taken; otherwise keep its DRAM copy
            // reachable (and, under memory pressure, drop the on-chip copy
            // without a store, since the DRAM copy is still valid).
            state.bypass_done[t] = true;
            if state.intt_done[t] {
                b.release(Buf::In(t));
            } else if state.tight {
                b.release(Buf::In(t));
                b.declare_dram_input(Buf::In(t), tower);
            }
            // The finished modulo-Q accumulator towers are only needed again
            // at ModDown P4. Under memory pressure they are written back to
            // DRAM immediately (the paper: "only store back the accumulation
            // result") so the on-chip space stays available for the INTT
            // outputs; with ample memory they simply stay resident.
            let acc = acc.expect("at least one digit");
            b.produce(Buf::Acc(0, t), tower, acc, HksStage::ModUpReduce);
            b.produce(Buf::Acc(1, t), tower, acc, HksStage::ModUpReduce);
            if state.tight {
                b.park(Buf::Acc(0, t), HksStage::ModUpReduce);
                b.park(Buf::Acc(1, t), HksStage::ModUpReduce);
            }
        }
    }

    // ------------------------------------------------------------------
    // ModUp Section 2: output towers in modulo P, digit by digit. The first
    // dnum-1 digits' INTT outputs are mostly resident already; the final
    // digit is brought on-chip last (paper §IV-C).
    // ------------------------------------------------------------------
    let mut p_acc: Vec<Option<TaskId>> = vec![None; k];
    for j in 0..dnum {
        for (p_idx, acc_slot) in p_acc.iter_mut().enumerate() {
            let t = ell + p_idx;
            // If a previous digit's partial accumulator was spilled, bring it
            // back before adding this digit's contribution.
            let prev = match *acc_slot {
                Some(task) => Some(task),
                None if j > 0 => {
                    let p0 = b.acquire(Buf::Pacc(0, p_idx), HksStage::ModUpReduce);
                    let _p1 = b.acquire(Buf::Pacc(1, p_idx), HksStage::ModUpReduce);
                    Some(p0)
                }
                None => None,
            };
            let slice = slice_and_ntt(&mut b, &shape, &mut state, j, t);
            let acc = accumulate_digit(&mut b, &shape, j, t, slice, prev);
            *acc_slot = Some(acc);
            if j + 1 < dnum {
                b.release(Buf::Pacc(0, p_idx));
                b.release(Buf::Pacc(1, p_idx));
                b.produce(Buf::Pacc(0, p_idx), tower, acc, HksStage::ModUpReduce);
                b.produce(Buf::Pacc(1, p_idx), tower, acc, HksStage::ModUpReduce);
                // Invalidate the cached task handle if the buffer was spilled;
                // the next digit will acquire it again.
                if !b.is_resident(Buf::Pacc(0, p_idx)) || !b.is_resident(Buf::Pacc(1, p_idx)) {
                    *acc_slot = None;
                }
            } else {
                b.release(Buf::Pacc(0, p_idx));
                b.release(Buf::Pacc(1, p_idx));
                b.produce(Buf::Acc(0, t), tower, acc, HksStage::ModUpReduce);
                b.produce(Buf::Acc(1, t), tower, acc, HksStage::ModUpReduce);
            }
        }
        // A digit's INTT outputs are dead once its Section-2 contribution has
        // been accumulated (Section 1 already consumed them).
        for t in shape.benchmark.digit_range(j) {
            b.release(Buf::Intt(t));
        }
    }

    // ------------------------------------------------------------------
    // ModDown, one output polynomial and one output tower at a time. The K
    // auxiliary towers of the current polynomial are INTT'd once and kept
    // resident (K towers, not 2K); each output tower then needs only one
    // BConv slice, one NTT, and the combination with the corresponding
    // modulo-Q accumulator tower. The ModDown-P2 expansion never
    // materializes.
    // ------------------------------------------------------------------
    for poly in 0..2usize {
        let mut mdintt_deps = Vec::with_capacity(k);
        for i in 0..k {
            let name = Buf::Acc(poly, ell + i);
            let dep = b.acquire(name, HksStage::ModDownIntt);
            let intt = b.compute(
                ComputeKind::Intt,
                shape.ntt_ops(),
                vec![dep],
                format_args!("moddown intt c{poly} p-tower {i}"),
                HksStage::ModDownIntt,
            );
            b.release(name);
            b.produce(Buf::MdIntt(poly, i), tower, intt, HksStage::ModDownIntt);
            mdintt_deps.push(intt);
        }
        let md_scale = b.compute(
            ComputeKind::BasisConversion,
            shape.bconv_scale_ops(k),
            mdintt_deps,
            format_args!("moddown bconv scale c{poly}"),
            HksStage::ModDownBconv,
        );
        for t in 0..ell {
            let mut deps = Vec::with_capacity(k + 1);
            for i in 0..k {
                deps.push(b.acquire(Buf::MdIntt(poly, i), HksStage::ModDownBconv));
            }
            deps.push(md_scale);
            let slice = b.compute(
                ComputeKind::BasisConversion,
                shape.bconv_slice_ops(k),
                deps,
                format_args!("moddown bconv slice c{poly} {t}"),
                HksStage::ModDownBconv,
            );
            let ntt = b.compute(
                ComputeKind::Ntt,
                shape.ntt_ops(),
                vec![slice],
                format_args!("moddown ntt c{poly} {t}"),
                HksStage::ModDownNtt,
            );
            let acc_dep = b.acquire(Buf::Acc(poly, t), HksStage::ModDownCombine);
            let combine = b.compute(
                ComputeKind::ScalarMul,
                2 * shape.pointwise_ops(),
                vec![ntt, acc_dep],
                format_args!("moddown combine c{poly} {t}"),
                HksStage::ModDownCombine,
            );
            b.release(Buf::Acc(poly, t));
            b.store_output(
                format_args!("out{poly}[{t}]"),
                tower,
                combine,
                HksStage::ModDownCombine,
            );
        }
        for i in 0..k {
            b.release(Buf::MdIntt(poly, i));
        }
    }

    b.finish(Dataflow::OutputCentric.short_name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::HksBenchmark;
    use crate::schedule::build_max_parallel;
    use rpu::EvkPolicy;

    fn streamed_32mb() -> ScheduleConfig {
        ScheduleConfig {
            data_memory_bytes: 32 * rpu::MIB,
            evk_policy: EvkPolicy::Streamed,
        }
    }

    #[test]
    fn oc_natural_working_set_is_far_smaller_than_mp() {
        // With unlimited capacity, the peak resident footprint reveals each
        // dataflow's natural working set. OC's must be a small fraction of
        // MP's — that is the paper's central claim.
        let unlimited = ScheduleConfig {
            data_memory_bytes: u64::MAX / 4,
            evk_policy: EvkPolicy::Streamed,
        };
        for bench in [HksBenchmark::BTS3, HksBenchmark::ARK, HksBenchmark::BTS2] {
            let shape = HksShape::new(bench);
            let oc = build_output_centric(&shape, &unlimited);
            let mp = build_max_parallel(&shape, &unlimited);
            assert!(
                oc.peak_on_chip_bytes * 3 <= mp.peak_on_chip_bytes * 2,
                "{}: OC peak {} vs MP peak {}",
                bench.name,
                oc.peak_on_chip_bytes,
                mp.peak_on_chip_bytes
            );
        }
    }

    #[test]
    fn oc_arithmetic_intensity_improvement_matches_table_ii_band() {
        // Table II reports OC improving arithmetic intensity by 1.43x-2.4x
        // over MP and 1.43x-1.98x over DC (with evks streamed and 32 MB of
        // data memory). Require every benchmark to land in a band around
        // those ratios.
        use crate::schedule::build_digit_centric;
        for bench in HksBenchmark::all() {
            let shape = HksShape::new(bench);
            let oc = build_output_centric(&shape, &streamed_32mb()).arithmetic_intensity();
            let mp = build_max_parallel(&shape, &streamed_32mb()).arithmetic_intensity();
            let dc = build_digit_centric(&shape, &streamed_32mb()).arithmetic_intensity();
            let vs_mp = oc / mp;
            let vs_dc = oc / dc;
            assert!(
                (1.3..=3.5).contains(&vs_mp),
                "{}: OC/MP AI ratio {vs_mp:.2} outside the expected band",
                bench.name
            );
            assert!(
                (1.05..=3.0).contains(&vs_dc),
                "{}: OC/DC AI ratio {vs_dc:.2} outside the expected band",
                bench.name
            );
        }
    }

    #[test]
    fn oc_never_materializes_the_bconv_expansion() {
        // No OC memory task may move a BConv intermediate: expansion buffers
        // simply do not exist in this schedule.
        let schedule = build_output_centric(&HksShape::new(HksBenchmark::BTS3), &streamed_32mb());
        for task in schedule.graph.tasks() {
            if task.is_memory() {
                assert!(
                    !task.label.contains("bconv"),
                    "unexpected BConv spill: {}",
                    task.label
                );
            }
        }
    }

    #[test]
    fn oc_section_structure_present() {
        let schedule = build_output_centric(&HksShape::new(HksBenchmark::ARK), &streamed_32mb());
        let slices = schedule
            .graph
            .tasks()
            .iter()
            .filter(|t| t.is_compute() && &*t.stage == "ModUp-P2" && t.label.contains("slice"))
            .count();
        let shape = HksShape::new(HksBenchmark::ARK);
        // Section 1: (dnum-1) slices per Q output tower; Section 2: dnum per
        // P output tower.
        let expected = (shape.dnum() - 1) * shape.ell() + shape.dnum() * shape.k();
        assert_eq!(slices, expected);
    }

    #[test]
    fn oc_intt_is_computed_exactly_once_per_tower() {
        for bench in HksBenchmark::all() {
            let shape = HksShape::new(bench);
            let schedule = build_output_centric(&shape, &streamed_32mb());
            let modup_intts = schedule
                .graph
                .tasks()
                .iter()
                .filter(|t| t.is_compute() && &*t.stage == "ModUp-P1")
                .count();
            assert_eq!(modup_intts, shape.ell(), "{}", bench.name);
        }
    }
}
