//! End-to-end checks of the paper's quantitative claims (shape, not exact
//! numbers): the abstract's headline results and the per-section takeaways,
//! plus the consistency of the typed paper tables in `ciflow_bench::paper`.

use ciflow::api::{Job, Session};
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::hks_shape::HksShape;
use ciflow::schedule::{build_schedule, ScheduleConfig};
use ciflow::sweep::BASELINE_BANDWIDTH_GBPS;
use ciflow_bench::figures::{
    ark_saturation_point, baseline_runtime_ms, min_bandwidth_for_runtime,
    streaming_equivalence_row, table2_rows, table4_rows, table5_rows,
};
use ciflow_bench::paper;
use rpu::{EvkPolicy, RpuConfig};

#[test]
fn paper_table2_implies_one_op_count_per_benchmark() {
    // Table II's MB x AI is the benchmark's op count (in millions), which
    // the paper's model makes the same for MP, DC and OC. Each printed cell
    // is rounded (MB to the unit, AI to two decimals), so each dataflow
    // pins the count to an interval; the three intervals must overlap.
    for row in paper::TABLE2 {
        let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
        for dataflow in Dataflow::all() {
            let cell = row.traffic(dataflow);
            let mb = f64::from(cell.dram_mb);
            lo = lo.max((mb - 0.5) * (cell.ops_per_byte - 0.005));
            hi = hi.min((mb + 0.5) * (cell.ops_per_byte + 0.005));
        }
        assert!(
            lo <= hi,
            "{}: the MP/DC/OC op counts disagree ({lo:.1} > {hi:.1} M ops)",
            row.benchmark
        );
    }
}

#[test]
fn paper_values_derived_from_others_agree() {
    // Table IV's saved bandwidth is the 64 GB/s baseline over OCbase.
    for row in paper::TABLE4 {
        assert!(
            (row.saved_bandwidth - BASELINE_BANDWIDTH_GBPS / row.ocbase_gbps).abs() < 1e-9,
            "{}: saved bandwidth {} vs 64 / {}",
            row.benchmark,
            row.saved_bandwidth,
            row.ocbase_gbps
        );
    }
    // Tables II and IV list the same benchmarks, in the model's order.
    let names: Vec<&str> = HksBenchmark::all().iter().map(|b| b.name).collect();
    assert_eq!(paper::TABLE2.map(|r| r.benchmark).to_vec(), names);
    assert_eq!(paper::TABLE4.map(|r| r.benchmark).to_vec(), names);
}

#[test]
fn model_op_count_deviation_from_table2_is_pinned() {
    // A known deviation, not a match: the model's dataflow-independent op
    // count over the count Table II implies (MP's MB x AI). A model change
    // that moves a ratio updates its pin here.
    let pinned = [
        ("BTS1", 0.9496),
        ("BTS2", 0.9423),
        ("BTS3", 0.9001),
        ("ARK", 0.7455),
        ("DPRIVE", 0.7276),
    ];
    for (row, (name, pin)) in paper::TABLE2.iter().zip(pinned) {
        assert_eq!(row.benchmark, name);
        let benchmark = HksBenchmark::by_name(name).unwrap();
        let paper_ops = f64::from(row.mp.dram_mb) * row.mp.ops_per_byte * 1e6;
        let ratio = HksShape::new(benchmark).total_ops() as f64 / paper_ops;
        assert!(
            (ratio - pin).abs() < 1e-4,
            "{name}: model / paper op count {ratio:.4}, pinned at {pin}"
        );
    }
}

#[test]
fn headline_speedup_over_mp_is_substantial_and_largest_for_ark() {
    // Abstract: "up to 4.16x speedup over the MP dataflow", achieved on ARK.
    let session = Session::new();
    let rows = table4_rows(&session);
    assert_eq!(paper::best_oc_speedup().benchmark, "ARK");
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
    let session = Session::new();
    let on_chip = RpuConfig::ciflow_baseline();
    let streaming = RpuConfig::ciflow_streaming();
    let saving = (on_chip.vector_memory_bytes + on_chip.key_memory_bytes) as f64
        / (streaming.vector_memory_bytes + streaming.key_memory_bytes) as f64;
    assert!((saving - paper::SRAM_SAVING).abs() < 1e-9);
    // Streaming keys costs only a bounded amount of extra bandwidth at the
    // OCbase operating point (paper: 1.3x - 2.9x).
    for bench in HksBenchmark::all() {
        let row = streaming_equivalence_row(&session, bench);
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
    let session = Session::new();
    for bench in [HksBenchmark::ARK, HksBenchmark::DPRIVE, HksBenchmark::BTS2] {
        let baseline = baseline_runtime_ms(&session, bench);
        let needed = min_bandwidth_for_runtime(
            &session,
            bench,
            Dataflow::OutputCentric,
            EvkPolicy::Streamed,
            1.0,
            baseline,
            4.0,
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

/// Smallest data-memory capacity, to one tower, at which `dataflow`'s
/// schedule for `benchmark` spills nothing (evks on chip, so the figure
/// counts data buffers only).
fn min_data_memory_without_spills(benchmark: HksBenchmark, dataflow: Dataflow) -> u64 {
    let shape = HksShape::new(benchmark);
    let spills = |capacity: u64| {
        let config = ScheduleConfig::with_data_memory(capacity, EvkPolicy::OnChip);
        build_schedule(dataflow, &shape, &config).spill_bytes
    };
    let tower = benchmark.tower_bytes().max(1);
    let (mut lo, mut hi) = (tower, benchmark.temp_data_bytes() + 4 * tower);
    assert_eq!(
        spills(hi),
        0,
        "{}: spills with all temp data on chip",
        benchmark.name
    );
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if spills(mid) == 0 {
            hi = mid;
        } else {
            lo = mid + tower;
        }
    }
    hi
}

#[test]
fn dc_sits_between_mp_and_oc_in_memory_requirements() {
    // §IV-B: DC requires 62% less on-chip memory than MP for BTS3; OC far
    // less still. Require the ordering and that DC saves at least 30%.
    let mp = min_data_memory_without_spills(HksBenchmark::BTS3, Dataflow::MaxParallel);
    let dc = min_data_memory_without_spills(HksBenchmark::BTS3, Dataflow::DigitCentric);
    let oc = min_data_memory_without_spills(HksBenchmark::BTS3, Dataflow::OutputCentric);
    assert!(oc < dc && dc < mp, "OC {oc} DC {dc} MP {mp}");
    assert!((dc as f64) < 0.7 * mp as f64, "DC {} vs MP {}", dc, mp);
}

#[test]
fn saturation_point_analysis_matches_the_papers_ordering() {
    // §VI-C / Table V: to match ARK's saturation performance at 2x MODOPS,
    // OC needs the least bandwidth, then DC, then MP; and the saturation
    // point itself is bounded by the compute roof.
    let session = Session::new();
    let rows = table5_rows(&session);
    let get = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .unwrap()
            .bandwidth_gbps
    };
    assert!(get("OC") <= get("DC"));
    assert!(get("DC") <= get("MP"));
    assert!(
        get("OC") < paper::SATURATION_POINT.bandwidth_gbps,
        "OC should need far less than the saturation bandwidth"
    );

    let (_, sat_runtime) = ark_saturation_point(&session);
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
    let session = Session::new();
    for bench in HksBenchmark::all() {
        let runtime = |d: Dataflow, bw: f64| {
            let rpu = RpuConfig::ciflow_with_policy(EvkPolicy::OnChip).with_bandwidth(bw);
            session
                .run_job(&Job::new(bench, d).with_rpu(rpu))
                .expect("built-in dataflow runs are infallible")
                .runtime_ms()
        };
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
