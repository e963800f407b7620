//! The Digit-Centric (DC) schedule generator.
//!
//! DC adopts a "one digit at a time" approach (paper §IV-B, Figure 2b): each
//! digit is loaded and carried through ModUp P1–P5 before the next digit is
//! touched, maximizing reuse of the digit's data. The per-digit BConv
//! expansion (`β` towers) and the running partial product (`2 × (ℓ+K)`
//! towers) still have to live somewhere: when they fit on-chip DC saves
//! bandwidth over MP, and when they do not (the large BTS2/BTS3 points) DC
//! converges towards MP — both behaviours the paper reports. This dataflow is
//! analogous to the one used by MAD (MICRO'23).

use super::{emit_moddown_stagewise, Buf, Schedule, ScheduleBuilder, ScheduleConfig};
use crate::dataflow::Dataflow;
use crate::hks_shape::{HksShape, HksStage};
use rpu::ComputeKind;

/// Builds the Digit-Centric schedule for one hybrid key switch.
pub fn build_digit_centric(shape: &HksShape, config: &ScheduleConfig) -> Schedule {
    // With a single digit there is nothing to iterate over: the paper notes
    // that MP and DC share the same implementation for BTS1. Reuse the MP
    // generator so the two schedules are bit-identical in that case.
    if shape.dnum() == 1 {
        let mut schedule = super::build_max_parallel(shape, config);
        schedule.strategy = Dataflow::DigitCentric.short_name().to_string();
        return schedule;
    }
    let mut b = ScheduleBuilder::new(shape, config);
    let shape = *shape;
    let ell = shape.ell();
    let dnum = shape.dnum();
    let tower = shape.tower_bytes();

    for t in 0..ell {
        b.declare_dram_input(Buf::In(t), tower);
    }

    for j in 0..dnum {
        let alpha_j = shape.digit_width(j);
        let beta_j = shape.beta(j);
        let range = shape.benchmark.digit_range(j);

        // P1: load and INTT only this digit's towers.
        let mut digit_deps = Vec::with_capacity(alpha_j);
        for t in range.clone() {
            let dep = b.acquire(Buf::In(t), HksStage::ModUpIntt);
            let intt = b.compute(
                ComputeKind::Intt,
                shape.ntt_ops(),
                vec![dep],
                format_args!("intt d{j} in[{t}]"),
                HksStage::ModUpIntt,
            );
            b.produce(Buf::Intt(t), tower, intt, HksStage::ModUpIntt);
        }
        for t in range.clone() {
            digit_deps.push(b.acquire(Buf::Intt(t), HksStage::ModUpBconv));
        }

        // P2 + P3: extend this digit and bring the extension back to the
        // evaluation domain.
        let scale = b.compute(
            ComputeKind::BasisConversion,
            shape.bconv_scale_ops(alpha_j),
            digit_deps.clone(),
            format_args!("bconv scale digit {j}"),
            HksStage::ModUpBconv,
        );
        for e in 0..beta_j {
            let mut deps = digit_deps.clone();
            deps.push(scale);
            let slice = b.compute(
                ComputeKind::BasisConversion,
                shape.bconv_slice_ops(alpha_j),
                deps,
                format_args!("bconv d{j} ext{e}"),
                HksStage::ModUpBconv,
            );
            b.produce(Buf::Bconv(j, e), tower, slice, HksStage::ModUpBconv);
        }
        for e in 0..beta_j {
            let dep = b.acquire(Buf::Bconv(j, e), HksStage::ModUpNtt);
            let ntt = b.compute(
                ComputeKind::Ntt,
                shape.ntt_ops(),
                vec![dep],
                format_args!("ntt d{j} ext{e}"),
                HksStage::ModUpNtt,
            );
            b.release(Buf::Bconv(j, e));
            b.produce(Buf::Ext(j, e), tower, ntt, HksStage::ModUpNtt);
        }

        // P4 + P5: apply this digit's evk towers and fold the result into the
        // running accumulator.
        let mut ext_index = 0usize;
        for t in 0..shape.extended() {
            let d_dep = if t < ell && range.contains(&t) {
                b.acquire(Buf::In(t), HksStage::ModUpApplyKey)
            } else {
                let dep = b.acquire(Buf::Ext(j, ext_index), HksStage::ModUpApplyKey);
                ext_index += 1;
                dep
            };
            let mut deps = vec![d_dep];
            deps.extend(b.acquire_evk(j, t, HksStage::ModUpApplyKey));
            let mul = b.compute(
                ComputeKind::PointwiseMul,
                2 * shape.pointwise_ops(),
                deps,
                format_args!("apply evk d{j} t{t}"),
                HksStage::ModUpApplyKey,
            );
            if j == 0 {
                b.produce(Buf::Acc(0, t), tower, mul, HksStage::ModUpApplyKey);
                b.produce(Buf::Acc(1, t), tower, mul, HksStage::ModUpApplyKey);
            } else {
                let acc0_dep = b.acquire(Buf::Acc(0, t), HksStage::ModUpReduce);
                let acc1_dep = b.acquire(Buf::Acc(1, t), HksStage::ModUpReduce);
                let add = b.compute(
                    ComputeKind::PointwiseAdd,
                    2 * shape.pointwise_ops(),
                    vec![mul, acc0_dep, acc1_dep],
                    format_args!("accumulate d{j} t{t}"),
                    HksStage::ModUpReduce,
                );
                b.release(Buf::Acc(0, t));
                b.release(Buf::Acc(1, t));
                b.produce(Buf::Acc(0, t), tower, add, HksStage::ModUpReduce);
                b.produce(Buf::Acc(1, t), tower, add, HksStage::ModUpReduce);
            }
        }

        // This digit's data is dead once its contribution is accumulated.
        for t in range {
            b.release(Buf::Intt(t));
            b.release(Buf::In(t));
        }
        for e in 0..beta_j {
            b.release(Buf::Ext(j, e));
        }
    }

    emit_moddown_stagewise(&mut b);
    b.finish(Dataflow::DigitCentric.short_name())
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
    fn dc_never_moves_more_than_mp() {
        for bench in HksBenchmark::all() {
            let shape = HksShape::new(bench);
            let dc = build_digit_centric(&shape, &streamed_32mb());
            let mp = build_max_parallel(&shape, &streamed_32mb());
            assert!(
                dc.dram_bytes() <= mp.dram_bytes(),
                "{}: DC {} vs MP {}",
                bench.name,
                dc.dram_bytes(),
                mp.dram_bytes()
            );
        }
    }

    #[test]
    fn dc_and_mp_coincide_for_single_digit_benchmarks() {
        // With one digit there is nothing to iterate over, so the paper notes
        // MP and DC share the same implementation; our generated traffic
        // should be very close (identical op counts, near-identical bytes).
        let shape = HksShape::new(HksBenchmark::BTS1);
        let dc = build_digit_centric(&shape, &streamed_32mb());
        let mp = build_max_parallel(&shape, &streamed_32mb());
        assert_eq!(dc.total_ops(), mp.total_ops());
        assert_eq!(dc.dram_bytes(), mp.dram_bytes());
        assert_eq!(
            dc.strategy,
            crate::dataflow::Dataflow::DigitCentric.short_name()
        );
    }

    #[test]
    fn dc_accumulator_requires_less_memory_for_small_benchmarks() {
        // ARK's accumulator (2 x 30 towers x 0.5 MiB = 30 MiB) almost fits;
        // its spill volume must be far below BTS3's.
        let ark = build_digit_centric(&HksShape::new(HksBenchmark::ARK), &streamed_32mb());
        let bts3 = build_digit_centric(&HksShape::new(HksBenchmark::BTS3), &streamed_32mb());
        assert!(ark.spill_bytes * 4 < bts3.spill_bytes);
    }
}
