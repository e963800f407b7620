//! The five HKS benchmark parameterizations of Table III.
//!
//! The paper evaluates its dataflows on parameter points taken from recent
//! accelerators — BTS (three points), ARK and the DARPA DPRIVE program — all
//! providing 128-bit security. These are *shape* parameters: ring degree,
//! tower counts, digit count. The actual prime values are irrelevant to the
//! dataflow analysis (and are generated separately when functional execution
//! is needed).

use serde::Serialize;

/// Bytes per residue word; the paper's CiFlow configuration uses 64-bit RNS
/// moduli (half the original RPU word size).
pub const WORD_BYTES: u64 = 8;

/// Bytes per binary megabyte, the unit of every capacity in the paper.
pub const MIB: u64 = 1024 * 1024;

/// One HKS benchmark parameter point (a row of Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct HksBenchmark {
    /// Benchmark name as used in the paper.
    pub name: &'static str,
    /// `log2 N` (16 or 17).
    pub log_ring_degree: u32,
    /// Number of live `Q` towers (`k_l` in Table III).
    pub q_towers: usize,
    /// Number of auxiliary `P` towers (`k_p` in Table III).
    pub p_towers: usize,
    /// Number of key-switching digits.
    pub dnum: usize,
}

impl HksBenchmark {
    /// BTS1: `N = 2^17`, 28 + 28 towers, a single digit.
    pub const BTS1: Self = Self {
        name: "BTS1",
        log_ring_degree: 17,
        q_towers: 28,
        p_towers: 28,
        dnum: 1,
    };

    /// BTS2: `N = 2^17`, 40 + 20 towers, two digits.
    pub const BTS2: Self = Self {
        name: "BTS2",
        log_ring_degree: 17,
        q_towers: 40,
        p_towers: 20,
        dnum: 2,
    };

    /// BTS3: `N = 2^17`, 45 + 15 towers, three digits (the largest benchmark).
    pub const BTS3: Self = Self {
        name: "BTS3",
        log_ring_degree: 17,
        q_towers: 45,
        p_towers: 15,
        dnum: 3,
    };

    /// ARK: `N = 2^16`, 24 + 6 towers, four digits (the smallest benchmark).
    pub const ARK: Self = Self {
        name: "ARK",
        log_ring_degree: 16,
        q_towers: 24,
        p_towers: 6,
        dnum: 4,
    };

    /// DPRIVE: `N = 2^16`, 26 + 7 towers, three digits.
    pub const DPRIVE: Self = Self {
        name: "DPRIVE",
        log_ring_degree: 16,
        q_towers: 26,
        p_towers: 7,
        dnum: 3,
    };

    /// All five benchmarks in the order the paper's tables list them.
    pub fn all() -> [Self; 5] {
        [Self::BTS1, Self::BTS2, Self::BTS3, Self::ARK, Self::DPRIVE]
    }

    /// Looks a benchmark up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::all()
            .into_iter()
            .find(|b| b.name.eq_ignore_ascii_case(name))
    }

    /// A copy of this parameter point with the live tower count rescaled to
    /// `q_towers` — the shape a ciphertext takes after `k_l − q_towers`
    /// rescaling levels have been consumed. The ring degree and auxiliary
    /// towers are unchanged; the digit count is clamped so no digit is left
    /// entirely empty (`dnum ≤ ℓ`), mirroring how CKKS libraries shrink the
    /// key-switch decomposition as the modulus chain drains. `q_towers` is
    /// clamped to at least 1 (a ciphertext below level 0 does not exist).
    ///
    /// ```
    /// use ciflow::HksBenchmark;
    /// let rescaled = HksBenchmark::ARK.at_q_towers(20);
    /// assert_eq!(rescaled.q_towers, 20);
    /// assert_eq!(rescaled.p_towers, HksBenchmark::ARK.p_towers);
    /// assert_eq!(rescaled.dnum, 4);
    /// assert_eq!(HksBenchmark::ARK.at_q_towers(2).dnum, 2);
    /// ```
    pub fn at_q_towers(&self, q_towers: usize) -> Self {
        let q_towers = q_towers.max(1);
        Self {
            q_towers,
            dnum: self.dnum.min(q_towers),
            ..*self
        }
    }

    /// Ring degree `N`.
    pub fn ring_degree(&self) -> usize {
        1usize << self.log_ring_degree
    }

    /// Digit width `α = ⌈k_l / dnum⌉`.
    pub fn alpha(&self) -> usize {
        self.q_towers.div_ceil(self.dnum)
    }

    /// Extended tower count `k_l + k_p`.
    fn extended_towers(&self) -> usize {
        self.q_towers + self.p_towers
    }

    /// Bytes occupied by a single tower (`N` words).
    pub fn tower_bytes(&self) -> u64 {
        self.ring_degree() as u64 * WORD_BYTES
    }

    /// Size of the evaluation key in bytes:
    /// `dnum × 2 × N × (k_l + k_p)` words (the "evk Size" column of
    /// Table III).
    pub fn evk_bytes(&self) -> u64 {
        self.dnum as u64 * 2 * self.extended_towers() as u64 * self.tower_bytes()
    }

    /// Approximate intermediate ("Temp data") footprint in bytes: the input
    /// polynomial, its INTT outputs, the BConv/NTT-extended digits and the
    /// post-`Apply Key` partial products, matching the "Temp data" column of
    /// Table III to within rounding.
    pub fn temp_data_bytes(&self) -> u64 {
        let ell = self.q_towers as u64;
        let beta_total: u64 = (0..self.dnum)
            .map(|j| (self.extended_towers() - self.digit_width(j)) as u64)
            .sum();
        let apply_key = 2 * self.dnum as u64 * self.extended_towers() as u64;
        (ell + ell + beta_total + apply_key) * self.tower_bytes()
    }

    /// Width (in towers) of digit `j`: `α` for all but possibly the last
    /// digit, which absorbs the remainder. Trailing digits can be empty for
    /// degenerate `(q_towers, dnum)` combinations; they report width 0.
    pub fn digit_width(&self, j: usize) -> usize {
        self.digit_range(j).len()
    }

    /// Tower index range of digit `j` (possibly empty for trailing digits of
    /// degenerate parameter combinations).
    pub fn digit_range(&self, j: usize) -> std::ops::Range<usize> {
        assert!(j < self.dnum, "digit index out of range");
        let alpha = self.alpha();
        let start = (j * alpha).min(self.q_towers);
        let end = ((j + 1) * alpha).min(self.q_towers);
        start..end
    }
}

impl std::fmt::Display for HksBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (N=2^{}, k_l={}, k_p={}, dnum={}, alpha={})",
            self.name,
            self.log_ring_degree,
            self.q_towers,
            self.p_towers,
            self.dnum,
            self.alpha()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_matches_table_iii() {
        assert_eq!(HksBenchmark::BTS1.alpha(), 28);
        assert_eq!(HksBenchmark::BTS2.alpha(), 20);
        assert_eq!(HksBenchmark::BTS3.alpha(), 15);
        assert_eq!(HksBenchmark::ARK.alpha(), 6);
        assert_eq!(HksBenchmark::DPRIVE.alpha(), 9);
    }

    #[test]
    fn evk_sizes_match_table_iii() {
        assert_eq!(HksBenchmark::BTS1.evk_bytes(), 112 * MIB);
        assert_eq!(HksBenchmark::BTS2.evk_bytes(), 240 * MIB);
        assert_eq!(HksBenchmark::BTS3.evk_bytes(), 360 * MIB);
        assert_eq!(HksBenchmark::ARK.evk_bytes(), 120 * MIB);
        assert_eq!(HksBenchmark::DPRIVE.evk_bytes(), 99 * MIB);
    }

    #[test]
    fn temp_data_sizes_match_table_iii_within_rounding() {
        // Paper: 196, 400, 585, 192, 163 MB. The DPRIVE digit split is
        // slightly irregular (9+9+8), so allow a couple of MB of slack.
        let expected = [
            (HksBenchmark::BTS1, 196.0),
            (HksBenchmark::BTS2, 400.0),
            (HksBenchmark::BTS3, 585.0),
            (HksBenchmark::ARK, 192.0),
            (HksBenchmark::DPRIVE, 163.0),
        ];
        for (b, mb) in expected {
            let got = b.temp_data_bytes() as f64 / MIB as f64;
            assert!(
                (got - mb).abs() <= 2.5,
                "{}: temp data {got:.1} MB vs paper {mb} MB",
                b.name
            );
        }
    }

    #[test]
    fn digit_partition_covers_q_towers() {
        for b in HksBenchmark::all() {
            let mut covered = Vec::new();
            for j in 0..b.dnum {
                covered.extend(b.digit_range(j));
                assert_eq!(b.digit_range(j).len(), b.digit_width(j));
            }
            assert_eq!(covered, (0..b.q_towers).collect::<Vec<_>>(), "{}", b.name);
        }
    }

    #[test]
    fn degenerate_digit_counts_do_not_panic() {
        // q_towers = 5, dnum = 4 gives alpha = 2 and an empty fourth digit;
        // the accessors must report it as empty rather than overflowing.
        let odd = HksBenchmark {
            name: "ODD",
            log_ring_degree: 13,
            q_towers: 5,
            p_towers: 2,
            dnum: 4,
        };
        assert_eq!(odd.digit_width(2), 1);
        assert_eq!(odd.digit_width(3), 0);
        assert!(odd.digit_range(3).is_empty());
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(HksBenchmark::by_name("ark"), Some(HksBenchmark::ARK));
        assert_eq!(HksBenchmark::by_name("BTS3"), Some(HksBenchmark::BTS3));
        assert_eq!(HksBenchmark::by_name("unknown"), None);
    }

    #[test]
    fn display_is_informative() {
        let s = HksBenchmark::DPRIVE.to_string();
        assert!(s.contains("DPRIVE"));
        assert!(s.contains("dnum=3"));
    }
}
