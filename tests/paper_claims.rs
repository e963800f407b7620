//! End-to-end checks of the paper's quantitative claims (shape, not exact
//! numbers): the abstract's headline results and the per-section takeaways.

use ciflow::analysis::{min_memory_without_spills, table2_rows};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::{
    ark_saturation_point, baseline_runtime_ms, min_bandwidth_for_runtime, runtime_with,
    streaming_equivalence_row, table4_rows, table5_rows, BASELINE_BANDWIDTH_GBPS,
};
use rpu::{EvkPolicy, RpuConfig};

#[test]
fn headline_speedup_over_mp_is_substantial_and_largest_for_ark() {
    // Abstract: "up to 4.16x speedup over the MP dataflow", achieved on ARK.
    let rows = table4_rows();
    let ark = rows.iter().find(|r| r.benchmark == "ARK").unwrap();
    let best = rows.iter().map(|r| r.oc_speedup).fold(0.0f64, f64::max);
    assert!(ark.oc_speedup > 2.5, "ARK speedup {:.2}", ark.oc_speedup);
    assert!((best - ark.oc_speedup).abs() < 1e-9 || ark.oc_speedup > 0.8 * best);
    // And every benchmark sees some speedup at its OCbase point.
    for row in &rows {
        assert!(row.oc_speedup >= 1.0, "{}", row.benchmark);
    }
}

#[test]
fn headline_sram_saving_is_12_25x() {
    let on_chip = RpuConfig::ciflow_baseline();
    let streaming = RpuConfig::ciflow_streaming();
    let saving = (on_chip.vector_memory_bytes + on_chip.key_memory_bytes) as f64
        / (streaming.vector_memory_bytes + streaming.key_memory_bytes) as f64;
    assert!((saving - 12.25).abs() < 1e-9);
    // Streaming keys costs only a bounded amount of extra bandwidth at the
    // OCbase operating point (paper: 1.3x - 2.9x).
    for bench in HksBenchmark::all() {
        let row = streaming_equivalence_row(bench);
        assert!(
            row.extra_bandwidth <= 6.0,
            "{}: extra bandwidth {:.2}",
            bench.name,
            row.extra_bandwidth
        );
    }
}

#[test]
fn headline_bandwidth_saving_versus_mp_baseline() {
    // Abstract / §VI-B: OC with streamed keys still saves bandwidth relative
    // to the MP implementation with keys on-chip at 64 GB/s (paper: 1.4x up
    // to 3.3x). Require a saving > 1.2x for the small benchmarks.
    for bench in [HksBenchmark::ARK, HksBenchmark::DPRIVE, HksBenchmark::BTS2] {
        let baseline = baseline_runtime_ms(bench);
        let needed = min_bandwidth_for_runtime(
            bench,
            Dataflow::OutputCentric,
            EvkPolicy::Streamed,
            1.0,
            baseline,
            4.0,
            1024.0,
        );
        let saving = BASELINE_BANDWIDTH_GBPS / needed;
        assert!(
            saving > 1.2,
            "{}: bandwidth saving {:.2}x",
            bench.name,
            saving
        );
    }
}

#[test]
fn arithmetic_intensity_gains_are_in_the_paper_band() {
    // §IV-D: OC gives 1.43x-2.4x more arithmetic intensity than MP and
    // 1.43x-1.98x more than DC. Allow a generous band around that.
    let rows = table2_rows();
    for bench in HksBenchmark::all() {
        let get = |d: Dataflow| {
            rows.iter()
                .find(|r| r.benchmark == bench.name && r.dataflow == d.short_name())
                .unwrap()
                .arithmetic_intensity
        };
        let vs_mp = get(Dataflow::OutputCentric) / get(Dataflow::MaxParallel);
        let vs_dc = get(Dataflow::OutputCentric) / get(Dataflow::DigitCentric);
        assert!(
            (1.3..=3.5).contains(&vs_mp),
            "{}: OC/MP {:.2}",
            bench.name,
            vs_mp
        );
        assert!(
            (1.0..=3.0).contains(&vs_dc),
            "{}: OC/DC {:.2}",
            bench.name,
            vs_dc
        );
    }
}

#[test]
fn dc_sits_between_mp_and_oc_in_memory_requirements() {
    // §IV-B: DC requires 62% less on-chip memory than MP for BTS3; OC far
    // less still. Require the ordering and that DC saves at least 30%.
    let mp = min_memory_without_spills(HksBenchmark::BTS3, Dataflow::MaxParallel);
    let dc = min_memory_without_spills(HksBenchmark::BTS3, Dataflow::DigitCentric);
    let oc = min_memory_without_spills(HksBenchmark::BTS3, Dataflow::OutputCentric);
    assert!(oc < dc && dc < mp);
    assert!((dc as f64) < 0.7 * mp as f64, "DC {} vs MP {}", dc, mp);
}

#[test]
fn saturation_point_analysis_matches_the_papers_ordering() {
    // §VI-C / Table V: to match ARK's saturation performance at 2x MODOPS,
    // OC needs the least bandwidth, then DC, then MP; and the saturation
    // point itself is bounded by the compute roof.
    let rows = table5_rows();
    let get = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .unwrap()
            .bandwidth_gbps
    };
    assert!(get("OC") <= get("DC"));
    assert!(get("DC") <= get("MP"));
    assert!(
        get("OC") < 128.0,
        "OC should need far less than the saturation bandwidth"
    );

    let (_, sat_runtime) = ark_saturation_point();
    // The saturation runtime must be close to the pure compute bound.
    let shape = ciflow::hks_shape::HksShape::new(HksBenchmark::ARK);
    let compute_bound_ms =
        shape.total_ops() as f64 / RpuConfig::ciflow_baseline().modops_per_second() * 1e3;
    assert!(sat_runtime >= compute_bound_ms * 0.999);
    assert!(sat_runtime <= compute_bound_ms * 1.6);
}

#[test]
fn figure4_low_bandwidth_gap_and_high_bandwidth_convergence() {
    // The defining shape of Figure 4: a large OC advantage at 8 GB/s that
    // shrinks towards parity at very high bandwidth, for every benchmark.
    for bench in HksBenchmark::all() {
        let runtime = |d: Dataflow, bw: f64| runtime_with(bench, d, bw, EvkPolicy::OnChip, 1.0);
        let gap_low = runtime(Dataflow::MaxParallel, 8.0) / runtime(Dataflow::OutputCentric, 8.0);
        let gap_high =
            runtime(Dataflow::MaxParallel, 1024.0) / runtime(Dataflow::OutputCentric, 1024.0);
        assert!(
            gap_low > 1.2,
            "{}: low-bandwidth gap {:.2}",
            bench.name,
            gap_low
        );
        assert!(gap_high < gap_low, "{}", bench.name);
        assert!(
            gap_high < 1.35,
            "{}: high-bandwidth gap {:.2}",
            bench.name,
            gap_high
        );
    }
}
