//! RPU hardware configuration.
//!
//! The RPU (Ring Processing Unit, ISPASS'23) is a vector processor for
//! ring-LWE workloads. The CiFlow paper evaluates its dataflows on an RPU
//! configuration with 128 HPLEs (high-performance large-arithmetic-word
//! engines), a 1 K-element vector length ("B1K" ISA), a 1.7 GHz clock and a
//! 32 MB on-chip vector data memory, sweeping the off-chip bandwidth and the
//! computational throughput (MODOPS).

use serde::{Deserialize, Serialize};

/// Number of bytes in one mebibyte — on-chip SRAM capacities in the paper are
/// quoted in binary megabytes.
pub const MIB: u64 = 1024 * 1024;

/// Policy for where evaluation keys live during a key switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvkPolicy {
    /// All evks are preloaded into a dedicated on-chip key memory before the
    /// kernel starts (the paper's 392 MB configuration: 32 MB data + 360 MB
    /// keys).
    OnChip,
    /// Evks are streamed from DRAM as they are needed, sharing the off-chip
    /// bandwidth with data traffic; only the 32 MB data memory remains
    /// on-chip.
    Streamed,
}

impl std::fmt::Display for EvkPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvkPolicy::OnChip => write!(f, "evk-on-chip"),
            EvkPolicy::Streamed => write!(f, "evk-streamed"),
        }
    }
}

/// Full configuration of a simulated RPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RpuConfig {
    /// Number of HPLE lanes (modular multipliers); the paper uses 128.
    pub num_hples: usize,
    /// Vector length in elements (the modified "B1K" ISA uses 1024).
    pub vector_length: usize,
    /// Core clock in GHz (1.7 for the RPU).
    pub clock_ghz: f64,
    /// On-chip vector data memory in bytes (32 MB in the paper).
    pub vector_memory_bytes: u64,
    /// On-chip key memory in bytes (360 MB when evks are preloaded, 0 when
    /// streamed).
    pub key_memory_bytes: u64,
    /// On-chip scalar memory in bytes (1 MB; not performance-critical).
    pub scalar_memory_bytes: u64,
    /// Off-chip DRAM bandwidth in GB/s (decimal gigabytes). This is the
    /// *aggregate* across all memory channels; each of the
    /// [`num_memory_channels`](Self::num_memory_channels) pseudo-channels
    /// sustains `1/N` of it.
    pub dram_bandwidth_gbps: f64,
    /// Number of independent in-order DRAM pseudo-channels the aggregate
    /// bandwidth is split over (HBM parts expose 8–32). `1` reproduces the
    /// classic single-queue memory model exactly. Both the
    /// [`with_memory_channels`](Self::with_memory_channels) setter and the
    /// [`memory_channel_count`](Self::memory_channel_count) accessor clamp
    /// to at least 1, so a hand-constructed `0` never propagates.
    pub num_memory_channels: usize,
    /// Computational-throughput multiplier relative to the 128-HPLE baseline
    /// (the paper's 1×/2×/4×/8×/16× MODOPS sweep).
    pub modops_multiplier: f64,
    /// Where evaluation keys live.
    pub evk_policy: EvkPolicy,
}

impl Default for RpuConfig {
    fn default() -> Self {
        Self::ciflow_baseline()
    }
}

impl RpuConfig {
    /// The configuration used throughout the CiFlow evaluation: 128 HPLEs,
    /// B1K vectors, 1.7 GHz, 32 MB data memory, 64 GB/s DDR5-class bandwidth
    /// and evks preloaded into a 360 MB key memory.
    pub fn ciflow_baseline() -> Self {
        Self {
            num_hples: 128,
            vector_length: 1024,
            clock_ghz: 1.7,
            vector_memory_bytes: 32 * MIB,
            key_memory_bytes: 360 * MIB,
            scalar_memory_bytes: MIB,
            dram_bandwidth_gbps: 64.0,
            num_memory_channels: 1,
            modops_multiplier: 1.0,
            evk_policy: EvkPolicy::OnChip,
        }
    }

    /// Baseline with the evks streamed from DRAM instead of preloaded
    /// (32 MB total on-chip SRAM — the 12.25× SRAM reduction configuration).
    pub fn ciflow_streaming() -> Self {
        Self {
            key_memory_bytes: 0,
            evk_policy: EvkPolicy::Streamed,
            ..Self::ciflow_baseline()
        }
    }

    /// The CiFlow evaluation configuration for a given evk placement:
    /// [`RpuConfig::ciflow_baseline`] for [`EvkPolicy::OnChip`],
    /// [`RpuConfig::ciflow_streaming`] for [`EvkPolicy::Streamed`].
    ///
    /// ```
    /// use rpu::{EvkPolicy, RpuConfig};
    /// let c = RpuConfig::ciflow_with_policy(EvkPolicy::Streamed);
    /// assert_eq!(c.key_memory_bytes, 0);
    /// ```
    pub fn ciflow_with_policy(evk_policy: EvkPolicy) -> Self {
        match evk_policy {
            EvkPolicy::OnChip => Self::ciflow_baseline(),
            EvkPolicy::Streamed => Self::ciflow_streaming(),
        }
    }

    /// Returns a copy with a different *aggregate* off-chip bandwidth.
    ///
    /// ```
    /// use rpu::RpuConfig;
    /// let c = RpuConfig::ciflow_baseline().with_bandwidth(12.8);
    /// assert!((c.dram_bytes_per_second() - 12.8e9).abs() < 1.0);
    /// ```
    pub fn with_bandwidth(mut self, gbps: f64) -> Self {
        self.dram_bandwidth_gbps = gbps;
        self
    }

    /// Returns a copy with a different MODOPS multiplier.
    ///
    /// ```
    /// use rpu::RpuConfig;
    /// let c = RpuConfig::ciflow_baseline().with_modops(2.0);
    /// assert!((c.modops_per_second() - 2.0 * 217.6e9).abs() < 1e6);
    /// ```
    pub fn with_modops(mut self, multiplier: f64) -> Self {
        self.modops_multiplier = multiplier;
        self
    }

    /// Returns a copy with a different vector data memory capacity.
    ///
    /// ```
    /// use rpu::{RpuConfig, MIB};
    /// let c = RpuConfig::ciflow_baseline().with_vector_memory(64 * MIB);
    /// assert_eq!(c.vector_memory_bytes, 64 * MIB);
    /// ```
    pub fn with_vector_memory(mut self, bytes: u64) -> Self {
        self.vector_memory_bytes = bytes;
        self
    }

    /// Returns a copy with the aggregate bandwidth split over `channels`
    /// independent in-order pseudo-channels. The total bandwidth is
    /// unchanged — more channels mean narrower channels. `channels` is
    /// clamped to at least 1 *in the stored field* (a zero-channel RPU would
    /// have no DRAM interface), so the field, the
    /// [`memory_channel_count`](Self::memory_channel_count) accessor and
    /// [`channel_bytes_per_second`](Self::channel_bytes_per_second) always
    /// agree:
    ///
    /// ```
    /// use rpu::RpuConfig;
    /// let c = RpuConfig::ciflow_baseline().with_memory_channels(8);
    /// assert_eq!(c.memory_channel_count(), 8);
    /// assert!((c.channel_bytes_per_second() - c.dram_bytes_per_second() / 8.0).abs() < 1.0);
    /// let degenerate = RpuConfig::ciflow_baseline().with_memory_channels(0);
    /// assert_eq!(degenerate.num_memory_channels, 1);
    /// ```
    pub fn with_memory_channels(mut self, channels: usize) -> Self {
        self.num_memory_channels = channels.max(1);
        self
    }

    /// Checks the two swept rates every task duration divides by: the DRAM
    /// bandwidth and the MODOPS multiplier must be finite and positive (a
    /// zero rate means infinite durations, a negative or infinite one
    /// silently drops that resource from the model).
    ///
    /// # Errors
    ///
    /// A message naming the offending field and value.
    pub fn validate(&self) -> Result<(), String> {
        validate_bandwidth(self.dram_bandwidth_gbps)?;
        validate_rate("MODOPS multiplier", self.modops_multiplier, "")
    }

    /// Peak modular operations per second (MODOPS): one modular multiply per
    /// HPLE per cycle, scaled by the MODOPS multiplier.
    pub fn modops_per_second(&self) -> f64 {
        self.num_hples as f64 * self.clock_ghz * 1e9 * self.modops_multiplier
    }

    /// Aggregate off-chip bandwidth in bytes per second (decimal GB).
    pub fn dram_bytes_per_second(&self) -> f64 {
        self.dram_bandwidth_gbps * 1e9
    }

    /// Number of memory channels, clamped to at least 1 (a zero-channel RPU
    /// would have no DRAM interface at all).
    pub fn memory_channel_count(&self) -> usize {
        self.num_memory_channels.max(1)
    }

    /// Sustained bandwidth of one pseudo-channel in bytes per second: the
    /// aggregate divided by the channel count. The channels time-share one
    /// full-rate data path (see `docs/MEMORY_MODEL.md`), so this is the
    /// fair-share rate a channel sustains when all channels stream
    /// continuously — an individual granted transfer still bursts at the
    /// full aggregate rate. With one channel this is exactly
    /// [`dram_bytes_per_second`](Self::dram_bytes_per_second) (the division
    /// by 1.0 is lossless).
    pub fn channel_bytes_per_second(&self) -> f64 {
        self.dram_bytes_per_second() / self.memory_channel_count() as f64
    }

    /// Total on-chip SRAM (vector data + key + scalar memories) in bytes.
    pub fn total_sram_bytes(&self) -> u64 {
        self.vector_memory_bytes + self.key_memory_bytes + self.scalar_memory_bytes
    }

    /// Estimated die area in mm² of the on-chip memories plus compute, using
    /// the paper's figures: the 392 MB configuration occupies 401.85 mm² and
    /// the 32 MB streaming configuration 41.85 mm², i.e. roughly 1 mm² per MB
    /// of SRAM on top of a ~9.5 mm² compute/frontend floor.
    pub fn estimated_area_mm2(&self) -> f64 {
        const AREA_PER_MIB: f64 = 1.0;
        const COMPUTE_FLOOR: f64 = 9.85;
        let sram_mib = (self.vector_memory_bytes + self.key_memory_bytes) as f64 / MIB as f64;
        COMPUTE_FLOOR + sram_mib * AREA_PER_MIB * self.modops_multiplier.max(1.0).sqrt()
    }
}

/// [`RpuConfig::validate`]'s rule for a DRAM bandwidth in GB/s: finite and
/// positive. Bandwidth ladders are checked with it too, so every entry
/// point rejects a bad bandwidth with the same message.
///
/// # Errors
///
/// A message naming the value.
pub fn validate_bandwidth(bandwidth_gbps: f64) -> Result<(), String> {
    validate_rate("DRAM bandwidth", bandwidth_gbps, " GB/s")
}

fn validate_rate(name: &str, value: f64, unit: &str) -> Result<(), String> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(format!("{name} {value}{unit} is not finite and positive"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_configuration() {
        let c = RpuConfig::ciflow_baseline();
        assert_eq!(c.num_hples, 128);
        assert_eq!(c.vector_length, 1024);
        assert_eq!(c.vector_memory_bytes, 32 * MIB);
        assert_eq!(c.key_memory_bytes, 360 * MIB);
        assert!((c.clock_ghz - 1.7).abs() < 1e-9);
        assert_eq!(c.evk_policy, EvkPolicy::OnChip);
        // 128 lanes at 1.7 GHz = 217.6 G modops/s.
        assert!((c.modops_per_second() - 217.6e9).abs() < 1e6);
    }

    #[test]
    fn streaming_configuration_drops_key_memory() {
        let c = RpuConfig::ciflow_streaming();
        assert_eq!(c.key_memory_bytes, 0);
        assert_eq!(c.evk_policy, EvkPolicy::Streamed);
        // 392 MB -> 32 MB is the paper's 12.25x SRAM saving.
        let on_chip = RpuConfig::ciflow_baseline();
        let ratio = (on_chip.vector_memory_bytes + on_chip.key_memory_bytes) as f64
            / (c.vector_memory_bytes + c.key_memory_bytes) as f64;
        assert!((ratio - 12.25).abs() < 1e-9);
    }

    #[test]
    fn with_builders_update_fields() {
        let c = RpuConfig::ciflow_baseline()
            .with_bandwidth(12.8)
            .with_modops(2.0)
            .with_vector_memory(64 * MIB);
        assert!((c.dram_bandwidth_gbps - 12.8).abs() < 1e-9);
        assert!((c.modops_per_second() - 2.0 * 217.6e9).abs() < 1e6);
        assert_eq!(c.vector_memory_bytes, 64 * MIB);
        assert!((c.dram_bytes_per_second() - 12.8e9).abs() < 1.0);
    }

    #[test]
    fn channel_bandwidth_derivation() {
        let c = RpuConfig::ciflow_baseline();
        assert_eq!(c.memory_channel_count(), 1);
        // One channel: per-channel bandwidth IS the aggregate, bit for bit.
        assert_eq!(
            c.channel_bytes_per_second().to_bits(),
            c.dram_bytes_per_second().to_bits()
        );
        let eight = c.clone().with_memory_channels(8);
        assert_eq!(eight.memory_channel_count(), 8);
        assert!((eight.channel_bytes_per_second() - 8e9).abs() < 1.0);
        // The aggregate is conserved.
        assert!(
            (8.0 * eight.channel_bytes_per_second() - eight.dram_bytes_per_second()).abs() < 1.0
        );
        // Degenerate zero-channel configurations clamp to one channel.
        assert_eq!(c.clone().with_memory_channels(0).memory_channel_count(), 1);
    }

    #[test]
    fn zero_channel_setter_keeps_field_accessor_and_bandwidth_consistent() {
        // Regression: with_memory_channels(0) used to store 0 while
        // memory_channel_count() silently clamped to 1, so the stored field,
        // the accessor and channel_bytes_per_second() disagreed (and any code
        // reading the field directly — serialization, reports — saw an RPU
        // with no DRAM interface). The setter now clamps.
        let c = RpuConfig::ciflow_baseline().with_memory_channels(0);
        assert_eq!(c.num_memory_channels, 1);
        assert_eq!(c.memory_channel_count(), c.num_memory_channels);
        assert_eq!(
            c.channel_bytes_per_second().to_bits(),
            c.dram_bytes_per_second().to_bits()
        );
        // The clamped config is indistinguishable from an explicit 1-channel
        // one.
        assert_eq!(c, RpuConfig::ciflow_baseline().with_memory_channels(1));
    }

    #[test]
    fn area_model_matches_paper_endpoints() {
        let big = RpuConfig::ciflow_baseline();
        let small = RpuConfig::ciflow_streaming();
        assert!((big.estimated_area_mm2() - 401.85).abs() < 1.0);
        assert!((small.estimated_area_mm2() - 41.85).abs() < 1.0);
    }
}
