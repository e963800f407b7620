//! Integration tests of the dataflow taxonomy: every dataflow performs the
//! same computation (operation parity), the Table II ordering holds, and the
//! working-set / spill behaviour matches the paper's qualitative claims.

use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::hks_shape::HksShape;
use ciflow::schedule::build_schedule;
use common::streamed;
use proptest::prelude::*;

#[path = "common/mod.rs"]
mod common;

#[test]
fn operation_parity_across_dataflows_and_benchmarks() {
    for bench in HksBenchmark::all() {
        let shape = HksShape::new(bench);
        let reference = shape.total_ops();
        for dataflow in Dataflow::all() {
            for mem in [16u64, 32, 256] {
                let schedule = build_schedule(dataflow, &shape, &streamed(mem));
                assert_eq!(
                    schedule.total_ops(),
                    reference,
                    "{} {dataflow} @ {mem} MiB",
                    bench.name
                );
            }
        }
    }
}

#[test]
fn table2_ordering_holds_at_the_paper_operating_point() {
    for bench in HksBenchmark::all() {
        let shape = HksShape::new(bench);
        let traffic = |d| build_schedule(d, &shape, &streamed(32)).dram_bytes();
        let mp = traffic(Dataflow::MaxParallel);
        let dc = traffic(Dataflow::DigitCentric);
        let oc = traffic(Dataflow::OutputCentric);
        assert!(oc < dc, "{}: OC {oc} vs DC {dc}", bench.name);
        assert!(dc <= mp, "{}: DC {dc} vs MP {mp}", bench.name);
        // Minimum possible traffic: input + output + streamed keys.
        let floor = shape.input_bytes() + shape.output_bytes() + shape.evk_bytes();
        assert!(oc >= floor, "{}: OC below the physical floor", bench.name);
    }
}

#[test]
fn oc_traffic_is_close_to_the_compulsory_floor_for_small_benchmarks() {
    // For ARK and DPRIVE the paper's OC numbers (180 / 170 MB) are within
    // ~25% of the compulsory traffic; require the same of our schedules.
    for bench in [HksBenchmark::ARK, HksBenchmark::DPRIVE] {
        let shape = HksShape::new(bench);
        let oc = build_schedule(Dataflow::OutputCentric, &shape, &streamed(32)).dram_bytes();
        let floor = shape.input_bytes() + shape.output_bytes() + shape.evk_bytes();
        assert!(
            (oc as f64) < 1.4 * floor as f64,
            "{}: OC {} vs floor {}",
            bench.name,
            oc,
            floor
        );
    }
}

#[test]
fn spills_vanish_with_enough_memory_for_every_dataflow() {
    for bench in HksBenchmark::all() {
        let shape = HksShape::new(bench);
        for dataflow in Dataflow::all() {
            let schedule = build_schedule(dataflow, &shape, &streamed(4096));
            assert_eq!(schedule.spill_bytes, 0, "{} {dataflow}", bench.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for any (valid) synthetic benchmark shape and any memory
    /// capacity, OC never moves more DRAM data than MP, and compute work is
    /// identical across all three dataflows.
    #[test]
    fn oc_never_exceeds_mp_traffic(
        log_n in 13u32..=16,
        q_towers in 4usize..=24,
        dnum in 1usize..=4,
        mem_mib in 8u64..=128,
    ) {
        prop_assume!(dnum <= q_towers);
        // Skip degenerate splits where a trailing digit would be empty (they
        // do not occur in practice: dnum is chosen so every digit has towers).
        prop_assume!((dnum - 1) * q_towers.div_ceil(dnum) < q_towers);
        let p_towers = q_towers.div_ceil(dnum).max(2);
        let bench = HksBenchmark {
            name: "PROP",
            log_ring_degree: log_n,
            q_towers,
            p_towers,
            dnum,
        };
        let shape = HksShape::new(bench);
        let config = streamed(mem_mib);
        let mp = build_schedule(Dataflow::MaxParallel, &shape, &config);
        let oc = build_schedule(Dataflow::OutputCentric, &shape, &config);
        let dc = build_schedule(Dataflow::DigitCentric, &shape, &config);
        prop_assert!(oc.dram_bytes() <= mp.dram_bytes());
        prop_assert_eq!(oc.total_ops(), mp.total_ops());
        prop_assert_eq!(dc.total_ops(), mp.total_ops());
        // All three schedules must execute without deadlock.
        let engine = rpu::RpuEngine::new(rpu::RpuConfig::ciflow_streaming());
        prop_assert!(engine.execute(&mp.graph).is_ok());
        prop_assert!(engine.execute(&dc.graph).is_ok());
        prop_assert!(engine.execute(&oc.graph).is_ok());
    }
}

/// FNV-1a (64-bit) over an explicit byte encoding, so the digest depends on
/// nothing but the schedules themselves (not on `std`'s hasher or layout).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn schedule(&mut self, schedule: &ciflow::Schedule) -> usize {
        use rpu::{ComputeKind, MemoryDirection, TaskKind};
        self.str(&schedule.strategy);
        self.u64(schedule.peak_on_chip_bytes);
        self.u64(schedule.spill_bytes);
        let tasks = schedule.graph.tasks();
        self.u64(tasks.len() as u64);
        for task in tasks {
            self.u64(task.id as u64);
            match task.kind {
                TaskKind::Compute { kind, ops } => {
                    let code = match kind {
                        ComputeKind::Intt => 0u8,
                        ComputeKind::Ntt => 1,
                        ComputeKind::BasisConversion => 2,
                        ComputeKind::PointwiseMul => 3,
                        ComputeKind::PointwiseMac => 4,
                        ComputeKind::PointwiseAdd => 5,
                        ComputeKind::ScalarMul => 6,
                    };
                    self.bytes(&[0, code]);
                    self.u64(ops);
                }
                TaskKind::Memory { direction, bytes } => {
                    let code = match direction {
                        MemoryDirection::Load => 0u8,
                        MemoryDirection::Store => 1,
                    };
                    self.bytes(&[1, code]);
                    self.u64(bytes);
                }
            }
            self.u64(task.dependencies.len() as u64);
            for &dep in &task.dependencies {
                self.u64(dep as u64);
            }
            self.str(&task.label);
            self.str(&task.stage);
            match task.channel {
                None => self.bytes(&[0]),
                Some(c) => {
                    self.bytes(&[1]);
                    self.u64(c as u64);
                }
            }
        }
        tasks.len()
    }
}

/// Every task the built-in generators emit — ids, kinds, costs, dependencies,
/// labels, stages and channel hints — plus each schedule's peak and spill, is
/// pinned by one digest: the 30-schedule design-space grid (benchmarks x
/// dataflows x evk placement) at five data-memory sizes, and two workload
/// pipelines per dataflow, fused and back-to-back, with evks streamed. Any change
/// to how schedules are built must leave this constant alone unless it means
/// to change the schedules.
#[test]
fn schedules_match_the_golden_digest() {
    use ciflow::workload::{build_workload, PipelineMode, Workload};
    use rpu::EvkPolicy;

    let mut digest = Fnv1a::new();
    let mut tasks = 0usize;
    let policies = [EvkPolicy::OnChip, EvkPolicy::Streamed];
    for mib in [4u64, 16, 32, 64, 512] {
        for bench in HksBenchmark::all() {
            let shape = HksShape::new(bench);
            for dataflow in Dataflow::all() {
                for evk in policies {
                    let config = ciflow::ScheduleConfig::with_data_memory(mib * rpu::MIB, evk);
                    tasks += digest.schedule(&build_schedule(dataflow, &shape, &config));
                }
            }
        }
    }
    let workloads = [
        Workload::rescaling_chain(HksBenchmark::BTS2, 6),
        Workload::rotation_batch(HksBenchmark::ARK, 3),
    ];
    for workload in &workloads {
        for dataflow in Dataflow::all() {
            for mode in [PipelineMode::Fused, PipelineMode::BackToBack] {
                let ws = build_workload(workload, dataflow.strategy(), &streamed(32), mode)
                    .expect("built-in workloads build");
                tasks += digest.schedule(&ws.schedule);
                digest.u64(ws.boundary_forwarded_bytes.len() as u64);
                for &bytes in &ws.boundary_forwarded_bytes {
                    digest.u64(bytes);
                }
            }
        }
    }
    assert_eq!(
        (tasks, digest.0),
        (288_109, 0x4a44_a3c1_1af6_a4cc),
        "schedule drift: {tasks} tasks hash to {:#018x}",
        digest.0
    );
}
