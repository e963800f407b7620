//! The paper's published numbers, typed: Tables II, IV and V, the Figure 7
//! range and the headline claims. This is the one place they are written
//! down; every regenerator, [`figures`](crate::figures) helper and test
//! reads them here. Each field names its unit as the paper prints it, and
//! each headline claim that follows from a table is derived from it.

use ciflow::dataflow::Dataflow;

/// One dataflow's cells in Table II.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// DRAM transfers in decimal megabytes, as printed.
    pub dram_mb: u32,
    /// Arithmetic intensity in modular operations per DRAM byte, as printed
    /// (two decimals).
    pub ops_per_byte: f64,
}

/// One row of Table II: DRAM transfers and arithmetic intensity of one
/// benchmark under each dataflow, with 32 MB of on-chip data memory and
/// evks streamed from DRAM.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Max-Parallel.
    pub mp: Traffic,
    /// Digit-Centric.
    pub dc: Traffic,
    /// Output-Centric.
    pub oc: Traffic,
}

impl Table2Row {
    /// The cells of one dataflow.
    pub fn traffic(&self, dataflow: Dataflow) -> Traffic {
        match dataflow {
            Dataflow::MaxParallel => self.mp,
            Dataflow::DigitCentric => self.dc,
            Dataflow::OutputCentric => self.oc,
        }
    }
}

const fn cells(dram_mb: u32, ops_per_byte: f64) -> Traffic {
    Traffic {
        dram_mb,
        ops_per_byte,
    }
}

/// Table II.
pub const TABLE2: [Table2Row; 5] = [
    Table2Row {
        benchmark: "BTS1",
        mp: cells(600, 1.81),
        dc: cells(600, 1.81),
        oc: cells(420, 2.59),
    },
    Table2Row {
        benchmark: "BTS2",
        mp: cells(1352, 1.14),
        dc: cells(1278, 1.20),
        oc: cells(716, 2.15),
    },
    Table2Row {
        benchmark: "BTS3",
        mp: cells(1850, 1.00),
        dc: cells(1766, 1.04),
        oc: cells(1119, 1.65),
    },
    Table2Row {
        benchmark: "ARK",
        mp: cells(432, 1.05),
        dc: cells(356, 1.27),
        oc: cells(180, 2.52),
    },
    Table2Row {
        benchmark: "DPRIVE",
        mp: cells(365, 1.26),
        dc: cells(336, 1.37),
        oc: cells(170, 2.71),
    },
];

/// One row of Table IV: the bandwidth at which OC (evks on-chip) matches the
/// MP baseline at 64 GB/s, and OC's speedup over MP there.
#[derive(Debug, Clone, Copy)]
pub struct Table4Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// OCbase bandwidth in GB/s.
    pub ocbase_gbps: f64,
    /// Bandwidth saving relative to the 64 GB/s baseline (64 / OCbase).
    pub saved_bandwidth: f64,
    /// OC speedup over MP at the OCbase bandwidth.
    pub oc_speedup: f64,
}

/// Table IV.
pub const TABLE4: [Table4Row; 5] = [
    Table4Row {
        benchmark: "BTS1",
        ocbase_gbps: 25.6,
        saved_bandwidth: 2.5,
        oc_speedup: 1.30,
    },
    Table4Row {
        benchmark: "BTS2",
        ocbase_gbps: 12.8,
        saved_bandwidth: 5.0,
        oc_speedup: 2.42,
    },
    Table4Row {
        benchmark: "BTS3",
        ocbase_gbps: 32.0,
        saved_bandwidth: 2.0,
        oc_speedup: 1.37,
    },
    Table4Row {
        benchmark: "ARK",
        ocbase_gbps: 8.0,
        saved_bandwidth: 8.0,
        oc_speedup: 4.16,
    },
    Table4Row {
        benchmark: "DPRIVE",
        ocbase_gbps: 12.8,
        saved_bandwidth: 5.0,
        oc_speedup: 2.96,
    },
];

/// One row of Table V: a configuration matching ARK's saturation-point
/// performance.
#[derive(Debug, Clone, Copy)]
pub struct Table5Row {
    /// Dataflow short name, or "Sat. Point" for the saturation point itself.
    pub label: &'static str,
    /// Bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// MODOPS multiplier.
    pub modops: f64,
}

/// Table V; its first row is the saturation point.
pub const TABLE5: [Table5Row; 4] = [
    Table5Row {
        label: "Sat. Point",
        bandwidth_gbps: 128.0,
        modops: 1.0,
    },
    Table5Row {
        label: "OC",
        bandwidth_gbps: 12.8,
        modops: 2.0,
    },
    Table5Row {
        label: "DC",
        bandwidth_gbps: 54.64,
        modops: 2.0,
    },
    Table5Row {
        label: "MP",
        bandwidth_gbps: 128.0,
        modops: 2.0,
    },
];

/// ARK's saturation point: the bandwidth beyond which OC (evks on-chip, 1×
/// MODOPS) no longer improves.
pub const SATURATION_POINT: Table5Row = TABLE5[0];

/// Figure 7: the extra bandwidth OC pays to stream evks at its OCbase point,
/// least (BTS1) and most (ARK).
pub const STREAMING_EXTRA_BANDWIDTH: [(&str, f64); 2] = [("BTS1", 1.3), ("ARK", 2.9)];

/// Abstract: the SRAM saving of streaming evks (392 MB of on-chip memory
/// down to 32 MB).
pub const SRAM_SAVING: f64 = 12.25;

/// Abstract: the largest bandwidth saving of OC with evks streamed against
/// MP with evks on-chip at 64 GB/s.
pub const MAX_STREAMED_BANDWIDTH_SAVING: f64 = 3.3;

/// Abstract: "up to" OC's speedup over MP, the Table IV row with the
/// largest speedup.
pub fn best_oc_speedup() -> Table4Row {
    TABLE4
        .into_iter()
        .max_by(|a, b| a.oc_speedup.total_cmp(&b.oc_speedup))
        .expect("Table IV has rows")
}

/// §IV-D: the least and greatest arithmetic-intensity gain of OC over
/// `baseline` across Table II's benchmarks, at the paper's two decimals.
pub fn oc_intensity_gain(baseline: Dataflow) -> (f64, f64) {
    TABLE2
        .iter()
        .map(|row| {
            let gain = row.oc.ops_per_byte / row.traffic(baseline).ops_per_byte;
            (gain * 100.0).round() / 100.0
        })
        .fold((f64::INFINITY, 0.0), |(lo, hi), g| (lo.min(g), hi.max(g)))
}
