//! The Max-Parallel (MP) schedule generator.
//!
//! MP executes each HKS stage over *all* towers before starting the next
//! stage (paper §IV-A, Figure 2a). This exposes maximal parallelism but
//! materializes every stage's full output at once: the post-BConv extension
//! (`dnum × β` towers) and the post-Apply-Key partial products
//! (`2 × dnum × (ℓ+K)` towers) dwarf a 32 MB data memory, so most
//! intermediates spill to DRAM and are reloaded by the next stage. This is
//! the baseline dataflow used by prior accelerators such as Cheetah and HEAX.

use super::{
    emit_digit_bconv, emit_digit_ntt, emit_extended_apply_evk, emit_moddown_stagewise, Buf,
    Schedule, ScheduleBuilder, ScheduleConfig,
};
use crate::dataflow::Dataflow;
use crate::hks_shape::{HksShape, HksStage};
use rpu::ComputeKind;

/// Builds the Max-Parallel schedule for one hybrid key switch.
pub(super) fn build_max_parallel(shape: &HksShape, config: &ScheduleConfig) -> Schedule {
    let mut b = ScheduleBuilder::new(shape, config);
    let shape = *shape;
    let ell = shape.ell();
    let dnum = shape.dnum();
    let tower = shape.tower_bytes();
    let two_towers = 2 * tower;

    // The key-switch input polynomial starts in DRAM, one tower per buffer.
    for t in 0..ell {
        b.declare_dram_input(Buf::In(t), tower);
    }

    // ModUp P1: INTT every input tower.
    for t in 0..ell {
        let dep = b.acquire(Buf::In(t), HksStage::ModUpIntt);
        let intt = b.compute(
            ComputeKind::Intt,
            shape.ntt_ops(),
            vec![dep],
            format_args!("intt in[{t}]"),
            HksStage::ModUpIntt,
        );
        b.produce(Buf::Intt(t), tower, intt, HksStage::ModUpIntt);
    }

    // ModUp P2: basis-convert every digit from alpha to beta towers.
    for j in 0..dnum {
        emit_digit_bconv(&mut b, j);
        // The INTT outputs of this digit are dead once its BConv is done.
        for t in shape.benchmark.digit_range(j) {
            b.release(Buf::Intt(t));
        }
    }

    // ModUp P3: NTT every extended tower.
    for j in 0..dnum {
        emit_digit_ntt(&mut b, j);
    }

    // ModUp P4: point-wise multiply each digit's extended polynomial with its
    // evk pair, over all ℓ+K towers.
    for j in 0..dnum {
        for t in 0..shape.extended() {
            let mul = emit_extended_apply_evk(&mut b, j, t);
            if dnum == 1 {
                // A single digit needs no reduction (the paper notes BTS1
                // lacks the Reduce step); the product is the accumulator.
                b.produce(Buf::Acc(0, t), tower, mul, HksStage::ModUpApplyKey);
                b.produce(Buf::Acc(1, t), tower, mul, HksStage::ModUpApplyKey);
            } else {
                b.produce(Buf::Part(j, t), two_towers, mul, HksStage::ModUpApplyKey);
            }
        }
        // The extended towers of this digit and the bypassed originals are
        // dead after P4.
        for e in 0..shape.beta(j) {
            b.release(Buf::Ext(j, e));
        }
        for t in shape.benchmark.digit_range(j) {
            b.release(Buf::In(t));
        }
    }

    // ModUp P5: reduce the dnum partial products per extended tower (skipped
    // entirely for single-digit parameter sets, which have no partial
    // products to reduce).
    for t in 0..shape.extended() {
        if dnum == 1 {
            break;
        }
        let mut deps = Vec::with_capacity(dnum);
        for j in 0..dnum {
            deps.push(b.acquire(Buf::Part(j, t), HksStage::ModUpReduce));
        }
        let add = b.compute(
            ComputeKind::PointwiseAdd,
            2 * (dnum as u64 - 1) * shape.pointwise_ops(),
            deps,
            format_args!("reduce t{t}"),
            HksStage::ModUpReduce,
        );
        for j in 0..dnum {
            b.release(Buf::Part(j, t));
        }
        b.produce(Buf::Acc(0, t), tower, add, HksStage::ModUpReduce);
        b.produce(Buf::Acc(1, t), tower, add, HksStage::ModUpReduce);
    }

    // ModDown P1-P4 (shared stage-wise implementation).
    emit_moddown_stagewise(&mut b);

    b.finish(Dataflow::MaxParallel.short_name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::HksBenchmark;
    use rpu::EvkPolicy;

    #[test]
    fn mp_spills_heavily_with_small_memory() {
        let shape = HksShape::new(HksBenchmark::BTS3);
        let small = build_max_parallel(
            &shape,
            &ScheduleConfig {
                data_memory_bytes: 32 * rpu::MIB,
                evk_policy: EvkPolicy::Streamed,
            },
        );
        let huge = build_max_parallel(
            &shape,
            &ScheduleConfig {
                data_memory_bytes: u64::MAX / 4,
                evk_policy: EvkPolicy::Streamed,
            },
        );
        assert!(small.spill_bytes > 0);
        assert_eq!(huge.spill_bytes, 0);
        assert!(small.dram_bytes() > huge.dram_bytes());
    }

    #[test]
    fn mp_task_counts_match_shape() {
        let shape = HksShape::new(HksBenchmark::ARK);
        let schedule = build_max_parallel(&shape, &ScheduleConfig::default());
        // INTT tasks: ell (ModUp) + K (ModDown, fused pairs) ... count compute
        // tasks by stage label instead of total.
        let intt_tasks = schedule
            .graph
            .tasks()
            .iter()
            .filter(|t| t.is_compute() && &*t.stage == "ModUp-P1")
            .count();
        assert_eq!(intt_tasks, shape.ell());
        let apply_key_tasks = schedule
            .graph
            .tasks()
            .iter()
            .filter(|t| t.is_compute() && &*t.stage == "ModUp-P4")
            .count();
        assert_eq!(apply_key_tasks, shape.dnum() * shape.extended());
    }

    #[test]
    fn single_digit_benchmark_skips_reduce_compute() {
        let shape = HksShape::new(HksBenchmark::BTS1);
        let schedule = build_max_parallel(&shape, &ScheduleConfig::default());
        let reduce_compute = schedule
            .graph
            .tasks()
            .iter()
            .filter(|t| t.is_compute() && &*t.stage == "ModUp-P5")
            .count();
        assert_eq!(reduce_compute, 0, "BTS1 lacks the ModUp Reduce step");
    }
}
