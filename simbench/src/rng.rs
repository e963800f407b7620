//! The benchmark's own input generator: SplitMix64, so the inputs depend on
//! nothing but `--seed` (not on the library's RNG shim, whose stream a later
//! change may legitimately alter).

/// A SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    /// The stream for one call of one workload: distinct `(seed, workload,
    /// call)` triples give independent streams.
    pub fn for_call(seed: u64, workload: &str, call: usize) -> Self {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in workload.bytes() {
            h = mix(h ^ u64::from(b));
        }
        Self(mix(h ^ (call as u64).wrapping_mul(0xd1b5_4a32_d192_ed03)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
