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
//! uniformly. Scheduling layers can override it with *pin rules* — e.g. pin
//! evk towers and spill buffers to disjoint channel groups so a fused
//! pipeline's cross-kernel evk prefetch never queues behind the current
//! kernel's limb writebacks:
//!
//! ```
//! use rpu::ChannelMap;
//!
//! // 4 channels: evk towers on channels 2-3, everything else on 0-1.
//! let map = ChannelMap::hashed(4)
//!     .with_pin("evk", 2..4)
//!     .with_pin("", 0..2); // catch-all: the empty pattern matches any label
//! assert!(map.channel_for("load evk[d0][t3]") >= 2);
//! assert!(map.channel_for("load in[5]") < 2);
//! // Kernel prefixes from fused pipelines are ignored: the buffer is the
//! // same DRAM data regardless of which kernel touches it.
//! assert_eq!(map.channel_for("k3:load in[5]"), map.channel_for("load in[5]"));
//! ```

use serde::{Deserialize, Serialize};

/// One pin rule: labels containing `pattern` map onto the listed channels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct PinRule {
    pattern: String,
    channels: Vec<usize>,
}

/// Deterministic mapping from buffer labels to memory channels.
///
/// Rules are consulted in insertion order; the first rule whose `pattern`
/// occurs in the canonical label wins, and the transfer is hashed over that
/// rule's channel set. A label matching no rule is hashed over all channels.
///
/// # Invariants
///
/// * [`ChannelMap::channel_for`] always returns a channel `< num_channels`.
/// * The mapping is a pure function of the label: the same label maps to the
///   same channel on every call and every run (the hash is FNV-1a, not
///   `DefaultHasher`, so it is stable across processes and Rust versions).
/// * Labels are canonicalized by stripping a leading `k<digits>:` kernel
///   prefix, so fused multi-kernel pipelines place a buffer on the same
///   channel no matter which kernel's copy of the schedule touches it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelMap {
    num_channels: usize,
    rules: Vec<PinRule>,
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
            rules: Vec::new(),
        }
    }

    /// Adds a pin rule: labels containing `pattern` are hashed over
    /// `channels` instead of the full channel set. Channel indices outside
    /// `0..num_channels` are dropped; a rule left with no valid channels is
    /// ignored. The empty pattern matches every label, making it a catch-all
    /// for the remaining traffic.
    ///
    /// Rules win in insertion order, so a rule added *after* one whose
    /// pattern is a substring of it (in particular, after a catch-all) can
    /// never match; that is always a construction bug and is rejected by a
    /// debug assertion (and flagged as lint `P001` by `ciflow::lint`).
    pub fn with_pin(
        mut self,
        pattern: impl Into<String>,
        channels: impl IntoIterator<Item = usize>,
    ) -> Self {
        let pattern = pattern.into();
        debug_assert!(
            !self
                .rules
                .iter()
                .any(|rule| pattern.contains(rule.pattern.as_str())),
            "pin rule {pattern:?} is unreachable: an earlier rule's pattern is a substring of \
             it, so every label it matches is already claimed (rules win in insertion order)",
        );
        let channels: Vec<usize> = channels
            .into_iter()
            .filter(|&c| c < self.num_channels)
            .collect();
        if !channels.is_empty() {
            self.rules.push(PinRule { pattern, channels });
        }
        self
    }

    /// Number of channels this map distributes over (always at least 1).
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// The pin rules in match order, as `(pattern, channels)` pairs. Lint
    /// passes use this to prove every rule is reachable and matches traffic.
    pub fn rules(&self) -> impl Iterator<Item = (&str, &[usize])> {
        self.rules
            .iter()
            .map(|rule| (rule.pattern.as_str(), rule.channels.as_slice()))
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
        match self.rule_for(canonical) {
            Some(at) => {
                let channels = &self.rules[at].channels;
                channels[(hash % channels.len() as u64) as usize]
            }
            None => (hash % self.num_channels as u64) as usize,
        }
    }

    /// The index, in [`ChannelMap::rules`] order, of the first pin rule
    /// whose pattern occurs in the canonical buffer name, if any.
    pub fn rule_for(&self, canonical: &str) -> Option<usize> {
        self.rules
            .iter()
            .position(|rule| canonical.contains(rule.pattern.as_str()))
    }
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
    fn pin_rules_win_in_insertion_order() {
        let map = ChannelMap::hashed(4)
            .with_pin("evk", [3])
            .with_pin("", 0..3);
        for t in 0..16 {
            assert_eq!(map.channel_for(&format!("load evk[d0][t{t}]")), 3);
            assert!(map.channel_for(&format!("load in[{t}]")) < 3);
        }
    }

    #[test]
    fn invalid_pin_channels_are_dropped() {
        // Out-of-range channels vanish; an entirely invalid rule is ignored
        // and the label falls through to the hash.
        let map = ChannelMap::hashed(2)
            .with_pin("evk", [5, 1])
            .with_pin("in", [9]);
        assert_eq!(map.channel_for("load evk[d0][t0]"), 1);
        assert!(map.channel_for("load in[0]") < 2);
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
