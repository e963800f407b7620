//! Buffer-to-channel mapping for the multi-channel memory model.
//!
//! Real HBM parts expose 8–32 *pseudo-channels*: independent in-order command
//! queues that share the die's total bandwidth. The engine models them as `N`
//! in-order command queues time-sharing one full-rate data path (see
//! `docs/MEMORY_MODEL.md`). Which channel a transfer uses is decided by
//! *data placement*: every memory task names the buffer it moves, and a
//! [`ChannelMap`] deterministically maps that buffer label to a channel.
//!
//! The default placement hashes the canonical buffer label over all channels,
//! which spreads the many per-tower buffers of an HKS schedule roughly
//! uniformly. The schedule builders split the channels instead: evk towers
//! hash over a top channel group sized by their share of the traffic, and
//! every other buffer over the rest, so a fused pipeline's cross-kernel evk
//! prefetch never queues behind the current kernel's limb writebacks:
//!
//! ```
//! use rpu::ChannelMap;
//!
//! // 4 channels, a quarter of the bytes evk: evk towers on channel 3,
//! // everything else on channels 0-2.
//! let map = ChannelMap::evk_split(4, || (25, 100));
//! assert_eq!(map.channel_for("load evk[d0][t3]"), 3);
//! assert!(map.channel_for("load in[5]") < 3);
//! // Kernel prefixes from fused pipelines are ignored: the buffer is the
//! // same DRAM data regardless of which kernel touches it.
//! assert_eq!(map.channel_for("k3:load in[5]"), map.channel_for("load in[5]"));
//! ```

/// Deterministic mapping from buffer labels to memory channels.
///
/// Under an evk split, a buffer whose canonical name contains `evk` is
/// hashed over the top `evk_channels` channels and every other buffer over
/// the bottom `num_channels - evk_channels`; without one, every buffer is
/// hashed over all channels. A single transfer goes elsewhere only through
/// its task's channel hint ([`Task::channel`](crate::Task::channel)).
///
/// # Invariants
///
/// * [`ChannelMap::channel_for`] always returns a channel `< num_channels`.
/// * `evk_channels < num_channels`, so the bottom group is never empty.
/// * The mapping is a pure function of the label: the same label maps to the
///   same channel on every call and every run (the hash is FNV-1a, not
///   `DefaultHasher`, so it is stable across processes and Rust versions).
/// * Labels are canonicalized by stripping a leading `k<digits>:` kernel
///   prefix, so fused multi-kernel pipelines place a buffer on the same
///   channel no matter which kernel's copy of the schedule touches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMap {
    num_channels: usize,
    /// Size of the top channel group evk buffers hash over; 0 without a
    /// split.
    evk_channels: usize,
}

impl ChannelMap {
    /// A map that hashes every label uniformly over `num_channels` channels
    /// (clamped to at least 1).
    ///
    /// ```
    /// use rpu::ChannelMap;
    /// let map = ChannelMap::hashed(8);
    /// assert!(map.channel_for("load in[3]") < 8);
    /// // One channel means every buffer maps to channel 0.
    /// assert_eq!(ChannelMap::hashed(1).channel_for("anything"), 0);
    /// ```
    pub fn hashed(num_channels: usize) -> Self {
        Self {
            num_channels: num_channels.max(1),
            evk_channels: 0,
        }
    }

    /// The evk split over `num_channels` channels (clamped to at least 1)
    /// for memory traffic of `traffic()` `(evk, total)` bytes: the top
    /// `round(n * evk / total)` channels, clamped to `[1, n - 1]`, take the
    /// evk buffers. One channel, no evk traffic or only evk traffic leaves
    /// nothing to split, so the map is [`ChannelMap::hashed`]; one channel
    /// does not call `traffic` at all.
    pub fn evk_split(num_channels: usize, traffic: impl FnOnce() -> (u64, u64)) -> Self {
        let n = num_channels.max(1);
        if n == 1 {
            return Self::hashed(1);
        }
        let (evk_bytes, total_bytes) = traffic();
        if evk_bytes == 0 || evk_bytes == total_bytes {
            return Self::hashed(n);
        }
        let share = evk_bytes as f64 / total_bytes as f64;
        Self {
            num_channels: n,
            evk_channels: ((n as f64 * share).round() as usize).clamp(1, n - 1),
        }
    }

    /// Number of channels this map distributes over (always at least 1).
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// The channel the named buffer lives on. Always `< num_channels`.
    pub fn channel_for(&self, label: &str) -> usize {
        let canonical = canonical_label(label);
        self.channel_for_buffer(canonical, fnv1a(canonical.as_bytes()))
    }

    /// The channel of an already canonical buffer name whose [`fnv1a`] hash
    /// is `hash`: the one placement rule [`ChannelMap::channel_for`] and the
    /// execution plan's per-buffer placement share.
    pub(crate) fn channel_for_buffer(&self, canonical: &str, hash: u64) -> usize {
        let split = self.num_channels - self.evk_channels;
        if self.evk_channels > 0 && is_evk(canonical) {
            split + (hash % self.evk_channels as u64) as usize
        } else {
            (hash % split as u64) as usize
        }
    }
}

/// True when a label or buffer name belongs to an evaluation key: it
/// contains `evk`. The one test behind [`ChannelMap::evk_split`]'s
/// placement and the traffic share the schedule builders split by. A
/// byte-window scan: on labels this short it runs in about half the time
/// `str::contains` takes (0.55 vs 1.18 ms over the 30 preset schedules,
/// x86-64).
pub fn is_evk(name: &str) -> bool {
    name.as_bytes().windows(3).any(|w| w == b"evk")
}

/// Canonicalizes a task label down to the buffer it names: strips the
/// `k<digits>:` prefix fused pipelines prepend, then the operation verb
/// (`load` / `store` / `spill` / `park`) the schedule builders emit. Channel
/// placement keys on the buffer identity — the same DRAM data lives on the
/// same channel no matter which kernel instance or operation touches it, so
/// a spilled buffer's writeback and its later reload share a channel.
fn canonical_label(label: &str) -> &str {
    split_label(label).1
}

/// The operation verb of a memory-task label, as [`split_label`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `load`: DRAM to on-chip.
    Load,
    /// `store`: a final write to DRAM.
    Store,
    /// `spill`: a freshly produced buffer written to DRAM because it does
    /// not fit on-chip.
    Spill,
    /// `park`: a resident buffer evicted to DRAM with its value kept.
    Park,
}

impl Verb {
    /// The verb [`split_label`] returned as a string.
    pub(crate) fn named(verb: &str) -> Self {
        match verb {
            "load" => Self::Load,
            "store" => Self::Store,
            "spill" => Self::Spill,
            "park" => Self::Park,
            _ => unreachable!("split_label yields no verb {verb:?}"),
        }
    }

    /// True for the spill-family writes (`spill`/`park`), the ones that
    /// promise a later reload.
    pub fn is_spill(self) -> bool {
        matches!(self, Self::Spill | Self::Park)
    }
}

/// Splits a task label into its operation verb and the canonical buffer it
/// names, after stripping a `k<digits>:` kernel prefix. Labels that carry no
/// recognized verb (custom strategies are free to label however they like)
/// return `(None, stripped label)`. This is the shared vocabulary between
/// the schedule builders, the channel placement and the `ciflow::lint`
/// buffer-lifetime pass.
///
/// ```
/// use rpu::channel::split_label;
/// assert_eq!(split_label("k2:spill acc0[1]"), (Some("spill"), "acc0[1]"));
/// assert_eq!(split_label("load in[3]"), (Some("load"), "in[3]"));
/// assert_eq!(split_label("ntt tower 3"), (None, "ntt tower 3"));
/// ```
pub fn split_label(label: &str) -> (Option<&'static str>, &str) {
    let label = if let Some(rest) = label.strip_prefix('k') {
        match rest.split_once(':') {
            Some((digits, tail))
                if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) =>
            {
                tail
            }
            _ => label,
        }
    } else {
        label
    };
    for verb in ["load", "store", "spill", "park"] {
        if let Some(buffer) = label.strip_prefix(verb).and_then(|r| r.strip_prefix(' ')) {
            return (Some(verb), buffer);
        }
    }
    (None, label)
}

/// 64-bit FNV-1a: stable across runs, platforms and Rust versions (unlike
/// `DefaultHasher`, whose output is explicitly unspecified).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashed_map_is_deterministic_and_in_range() {
        let map = ChannelMap::hashed(8);
        for label in ["load in[0]", "store out1[7]", "load evk[d2][t9]", ""] {
            let c = map.channel_for(label);
            assert!(c < 8);
            assert_eq!(c, map.channel_for(label), "mapping must be stable");
        }
    }

    #[test]
    fn zero_channels_clamps_to_one() {
        let map = ChannelMap::hashed(0);
        assert_eq!(map.num_channels(), 1);
        assert_eq!(map.channel_for("x"), 0);
    }

    #[test]
    fn many_tower_labels_spread_over_all_channels() {
        // The per-tower labels of a real schedule must not collapse onto a
        // few channels: with 48 towers over 4 channels every channel should
        // receive several buffers.
        let map = ChannelMap::hashed(4);
        let mut histogram = [0usize; 4];
        for t in 0..48 {
            histogram[map.channel_for(&format!("load in[{t}]"))] += 1;
        }
        for (channel, &count) in histogram.iter().enumerate() {
            assert!(count >= 4, "channel {channel} got only {count}/48 buffers");
        }
    }

    #[test]
    fn evk_split_places_evk_on_the_top_group_and_the_rest_below() {
        let evk: Vec<String> = (0..32)
            .map(|t| format!("load evk[d{}][t{t}]", t % 3))
            .collect();
        let other: Vec<String> = (0..32)
            .flat_map(|t| [format!("load in[{t}]"), format!("k2:spill acc1[{t}]")])
            .collect();
        for n in 2..=8usize {
            for (evk_bytes, total_bytes) in [(1, 1000), (1, 4), (1, 2), (2, 3), (999, 1000)] {
                let share = evk_bytes as f64 / total_bytes as f64;
                let k = ((n as f64 * share).round() as usize).clamp(1, n - 1);
                let map = ChannelMap::evk_split(n, || (evk_bytes, total_bytes));
                assert_eq!(map.num_channels(), n);
                for label in &evk {
                    let c = map.channel_for(label);
                    assert!((n - k..n).contains(&c), "{label} on {c}, n {n}, k {k}");
                }
                for label in &other {
                    let c = map.channel_for(label);
                    assert!(c < n - k, "{label} on {c}, n {n}, k {k}");
                }
            }
            // Nothing to split: the plain hash.
            for traffic in [(0, 100), (100, 100)] {
                assert_eq!(ChannelMap::evk_split(n, || traffic), ChannelMap::hashed(n));
            }
        }
        // One channel never asks for the traffic.
        let one = ChannelMap::evk_split(1, || unreachable!("one channel needs no split"));
        assert_eq!(one, ChannelMap::hashed(1));
        assert_eq!(ChannelMap::evk_split(0, || (1, 2)), ChannelMap::hashed(1));
    }

    #[test]
    fn kernel_prefixes_and_verbs_are_canonicalized_away() {
        let map = ChannelMap::hashed(8);
        assert_eq!(
            map.channel_for("k12:load in[3]"),
            map.channel_for("load in[3]")
        );
        // Placement keys on the buffer: a spilled buffer's writeback and its
        // reload, and the same buffer touched by different kernels, all
        // share a channel.
        assert_eq!(
            map.channel_for("spill acc0[1]"),
            map.channel_for("load acc0[1]")
        );
        assert_eq!(canonical_label("k0:spill acc0[1]"), "acc0[1]");
        assert_eq!(canonical_label("store out1[7]"), "out1[7]");
        // Non-kernel prefixes that merely look similar are left alone.
        assert_ne!(canonical_label("kx:load in[0]"), "in[0]");
    }
}
