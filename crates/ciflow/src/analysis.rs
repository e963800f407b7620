//! Analytical model: DRAM traffic, arithmetic intensity and on-chip memory
//! requirements per dataflow (the quantities behind Tables II and III and the
//! §IV-D discussion).

use crate::benchmark::{HksBenchmark, MIB};
use crate::dataflow::Dataflow;
use crate::hks_shape::HksShape;
use crate::schedule::{build_schedule, Schedule, ScheduleConfig};
use rpu::EvkPolicy;
use serde::Serialize;

/// One row of the Table II analogue: DRAM traffic and arithmetic intensity of
/// a benchmark under one scheduling strategy.
#[derive(Debug, Clone, Serialize)]
pub struct TrafficRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Strategy short name (taken from the schedule, so it also covers
    /// custom strategies).
    pub dataflow: String,
    /// Total DRAM traffic in bytes (including streamed evks).
    pub dram_bytes: u64,
    /// Arithmetic intensity in modular operations per DRAM byte.
    pub arithmetic_intensity: f64,
    /// Total modular operations (dataflow independent).
    pub total_ops: u64,
    /// Peak on-chip data-memory residency in bytes.
    pub peak_on_chip_bytes: u64,
}

impl TrafficRow {
    /// DRAM traffic in binary megabytes (the unit of Table II).
    pub fn dram_mib(&self) -> f64 {
        self.dram_bytes as f64 / MIB as f64
    }
}

/// Computes the Table II analogue (DRAM transfers and arithmetic intensity
/// with 32 MB of data memory and streamed evks) for one benchmark under one
/// dataflow.
fn traffic_row(benchmark: HksBenchmark, dataflow: Dataflow) -> TrafficRow {
    let shape = HksShape::new(benchmark);
    let config = ScheduleConfig {
        data_memory_bytes: 32 * rpu::MIB,
        evk_policy: EvkPolicy::Streamed,
    };
    let schedule = build_schedule(dataflow, &shape, &config);
    summarize(benchmark, &schedule)
}

/// Summarizes an already-built schedule into a [`TrafficRow`]; the strategy
/// label comes from the schedule itself, so rows cannot desync from the
/// schedule they describe.
fn summarize(benchmark: HksBenchmark, schedule: &Schedule) -> TrafficRow {
    TrafficRow {
        benchmark: benchmark.name,
        dataflow: schedule.strategy.clone(),
        dram_bytes: schedule.dram_bytes(),
        arithmetic_intensity: schedule.arithmetic_intensity(),
        total_ops: schedule.total_ops(),
        peak_on_chip_bytes: schedule.peak_on_chip_bytes,
    }
}

/// The full Table II analogue: every benchmark under every dataflow.
pub fn table2_rows() -> Vec<TrafficRow> {
    let mut rows = Vec::new();
    for benchmark in HksBenchmark::all() {
        for dataflow in Dataflow::all() {
            rows.push(traffic_row(benchmark, dataflow));
        }
    }
    rows
}

/// Minimum on-chip data memory (in bytes) for a dataflow to run without any
/// intermediate spills, determined by probing the schedule generator. The
/// probe uses the evk-on-chip policy so the answer reflects data buffers only
/// (key memory is accounted separately, as in the paper's 392 MB = 32 + 360
/// split).
pub fn min_memory_without_spills(benchmark: HksBenchmark, dataflow: Dataflow) -> u64 {
    let shape = HksShape::new(benchmark);
    // Binary search on the data-memory capacity between one tower and the
    // full temp-data footprint.
    let mut lo = benchmark.tower_bytes();
    let mut hi = benchmark.temp_data_bytes() + 4 * benchmark.tower_bytes();
    let spills = |capacity: u64| {
        let config = ScheduleConfig {
            data_memory_bytes: capacity,
            evk_policy: EvkPolicy::OnChip,
        };
        build_schedule(dataflow, &shape, &config).spill_bytes
    };
    if spills(hi) > 0 {
        // Should not happen, but fall back gracefully.
        return hi;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if spills(mid) == 0 {
            hi = mid;
        } else {
            lo = mid + benchmark.tower_bytes().max(1);
        }
    }
    hi
}

/// One row of the Table III analogue.
#[derive(Debug, Clone, Serialize)]
pub struct ParameterRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// log2 of the ring degree.
    pub log_n: u32,
    /// Live Q towers.
    pub q_towers: usize,
    /// Auxiliary P towers.
    pub p_towers: usize,
    /// Digits.
    pub dnum: usize,
    /// Digit width.
    pub alpha: usize,
    /// Evaluation key size in MiB.
    pub evk_mib: f64,
    /// Intermediate data footprint in MiB.
    pub temp_mib: f64,
}

/// The Table III analogue.
pub fn table3_rows() -> Vec<ParameterRow> {
    HksBenchmark::all()
        .into_iter()
        .map(|b| ParameterRow {
            benchmark: b.name,
            log_n: b.log_ring_degree,
            q_towers: b.q_towers,
            p_towers: b.p_towers,
            dnum: b.dnum,
            alpha: b.alpha(),
            evk_mib: b.evk_bytes() as f64 / MIB as f64,
            temp_mib: b.temp_data_bytes() as f64 / MIB as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_15_rows_with_constant_ops_per_benchmark() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 15);
        for benchmark in HksBenchmark::all() {
            let ops: Vec<u64> = rows
                .iter()
                .filter(|r| r.benchmark == benchmark.name)
                .map(|r| r.total_ops)
                .collect();
            assert_eq!(ops.len(), 3);
            assert!(ops.windows(2).all(|w| w[0] == w[1]), "{}", benchmark.name);
        }
    }

    #[test]
    fn oc_rows_have_best_intensity() {
        let rows = table2_rows();
        for benchmark in HksBenchmark::all() {
            let get = |d: Dataflow| {
                rows.iter()
                    .find(|r| r.benchmark == benchmark.name && r.dataflow == d.short_name())
                    .unwrap()
                    .arithmetic_intensity
            };
            assert!(get(Dataflow::OutputCentric) > get(Dataflow::MaxParallel));
            assert!(get(Dataflow::OutputCentric) > get(Dataflow::DigitCentric) - 1e-9);
        }
    }

    #[test]
    fn min_memory_ordering_matches_paper_claims() {
        // The paper: MP needs ~675 MB for BTS3 to avoid excessive off-chip
        // traffic, DC needs ~255 MB (62% less), OC fits in far less. Require
        // OC < DC < MP for the multi-digit benchmarks without pinning exact
        // values.
        for benchmark in [HksBenchmark::BTS3, HksBenchmark::ARK] {
            let mp = min_memory_without_spills(benchmark, Dataflow::MaxParallel);
            let dc = min_memory_without_spills(benchmark, Dataflow::DigitCentric);
            let oc = min_memory_without_spills(benchmark, Dataflow::OutputCentric);
            assert!(oc < dc, "{}: OC {oc} vs DC {dc}", benchmark.name);
            assert!(dc < mp, "{}: DC {dc} vs MP {mp}", benchmark.name);
        }
    }

    #[test]
    fn bts3_mp_needs_hundreds_of_megabytes() {
        // Sanity-check the magnitude of the MP requirement for the largest
        // benchmark (paper: at least 675 MB including keys; our data-only
        // number must be in the hundreds of MiB).
        let mp = min_memory_without_spills(HksBenchmark::BTS3, Dataflow::MaxParallel);
        assert!(mp > 300 * MIB, "MP BTS3 min memory {} MiB", mp / MIB);
    }

    #[test]
    fn table3_matches_benchmark_constants() {
        let rows = table3_rows();
        assert_eq!(rows.len(), 5);
        let bts3 = rows.iter().find(|r| r.benchmark == "BTS3").unwrap();
        assert_eq!(bts3.alpha, 15);
        assert!((bts3.evk_mib - 360.0).abs() < 1e-9);
    }
}
