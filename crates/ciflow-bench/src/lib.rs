//! The paper's tables and figures, regenerated from the `ciflow` model.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper.
//! Run them with `cargo run -p ciflow-bench --release --bin <name>`; they
//! print markdown tables / CSV series to stdout (and an ASCII sketch of the
//! figure where applicable). The crate has three parts, one job each:
//!
//! * [`paper`] — the paper's own numbers (Tables II, IV and V, the Figure 7
//!   range and the headline claims), the only place they are written down;
//! * [`figures`] — the model's rows for Tables II–V and the quantities
//!   behind Figures 7–9;
//! * [`report`] — every renderer: markdown tables of both, and CSV and
//!   ASCII sweep series.
//!
//! All regenerators drive the [`ciflow::api::Session`] API (directly or
//! through the sweep drivers built on it): a batch fans its jobs out across
//! cores, and a bandwidth curve reads every point off one parametric
//! timeline. The RPU configurations they share live here, in one place.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod paper;
pub mod report;
pub mod serving;

use ciflow::api::Session;
use ciflow::benchmark::HksBenchmark;
use ciflow::dataflow::Dataflow;
use ciflow::sweep::SweepSeries;
use figures::bandwidth_sweep;
use rpu::{EvkPolicy, RpuConfig};

/// Prints a titled section to stdout.
pub fn section(title: &str) {
    println!("\n## {title}\n");
}

/// The paper's baseline RPU (evks on-chip) at a given off-chip bandwidth —
/// the configuration every figure regenerator starts from.
pub fn rpu_at(bandwidth_gbps: f64) -> RpuConfig {
    RpuConfig::ciflow_baseline().with_bandwidth(bandwidth_gbps)
}

/// The paper's RPU for a given evk placement at a given bandwidth.
pub fn rpu_for(evk_policy: EvkPolicy, bandwidth_gbps: f64) -> RpuConfig {
    RpuConfig::ciflow_with_policy(evk_policy).with_bandwidth(bandwidth_gbps)
}

/// A [`Session`] on the baseline RPU at a given bandwidth, with the built-in
/// strategies registered.
pub fn session_at(bandwidth_gbps: f64) -> Session {
    Session::new().with_rpu(rpu_at(bandwidth_gbps))
}

/// The bandwidth points used for the small-range sweeps of Figure 4
/// (8 GB/s – 64 GB/s, DDR4/DDR5 territory).
pub fn ddr_bandwidths() -> Vec<f64> {
    vec![8.0, 12.8, 16.0, 25.6, 32.0, 48.0, 64.0]
}

/// The extended bandwidth points (up to 1 TB/s, HBM3) used for ARK and BTS3.
pub fn extended_bandwidths() -> Vec<f64> {
    vec![
        8.0, 12.8, 16.0, 25.6, 32.0, 48.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
    ]
}

/// Runs the three dataflows of one benchmark over a bandwidth ladder on
/// `session`.
pub fn sweep_all_dataflows(
    session: &Session,
    benchmark: HksBenchmark,
    bandwidths: &[f64],
    evk_policy: EvkPolicy,
) -> Vec<SweepSeries> {
    Dataflow::all()
        .into_iter()
        .map(|d| bandwidth_sweep(session, benchmark, d, bandwidths, evk_policy, 1.0))
        .collect()
}

/// Formats a floating point value with a fixed number of decimals, for table
/// cells.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_ladders_are_increasing() {
        for ladder in [ddr_bandwidths(), extended_bandwidths()] {
            assert!(ladder.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sweep_all_dataflows_returns_three_series() {
        let series = sweep_all_dataflows(
            &Session::new(),
            HksBenchmark::ARK,
            &[8.0, 64.0],
            EvkPolicy::OnChip,
        );
        assert_eq!(series.len(), 3);
        assert!(series.iter().all(|s| s.points.len() == 2));
    }

    #[test]
    fn shared_rpu_helpers_match_the_paper_configurations() {
        assert_eq!(rpu_at(12.8).dram_bandwidth_gbps, 12.8);
        assert_eq!(rpu_at(12.8).evk_policy, EvkPolicy::OnChip);
        assert_eq!(rpu_for(EvkPolicy::Streamed, 64.0).key_memory_bytes, 0);
        assert_eq!(session_at(8.0).rpu().dram_bandwidth_gbps, 8.0);
        assert_eq!(session_at(8.0).registry().len(), 3);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}
