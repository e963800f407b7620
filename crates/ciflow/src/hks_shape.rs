//! The stage-by-stage geometry and cost of one hybrid key switch.
//!
//! [`HksShape`] turns a benchmark parameter point into the per-stage tower
//! counts, byte sizes, and modular-operation counts that the schedule
//! generators and the analytical model both consume. Keeping this in one
//! place guarantees that all three dataflows are charged *exactly* the same
//! total work — as the paper notes, "the number of operations per HKS
//! benchmark is independent of dataflow".

use crate::benchmark::HksBenchmark;
use serde::Serialize;

/// The nine HKS stages, used to label tasks and group timing diagrams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum HksStage {
    /// ModUp P1: INTT of the input towers.
    ModUpIntt,
    /// ModUp P2: basis conversion of each digit from `α` to `β` towers.
    ModUpBconv,
    /// ModUp P3: NTT of the extended towers.
    ModUpNtt,
    /// ModUp P4: point-wise multiplication with the evk.
    ModUpApplyKey,
    /// ModUp P5: reduction (summation of the per-digit partial products).
    ModUpReduce,
    /// ModDown P1: INTT of the `K` auxiliary towers.
    ModDownIntt,
    /// ModDown P2: basis conversion from `P` back to `Q_ℓ`.
    ModDownBconv,
    /// ModDown P3: NTT of the converted towers.
    ModDownNtt,
    /// ModDown P4: subtraction, scaling by `P^{-1}` and final summation.
    ModDownCombine,
}

impl HksStage {
    /// All stages in execution order.
    pub fn all() -> [HksStage; 9] {
        use HksStage::*;
        [
            ModUpIntt,
            ModUpBconv,
            ModUpNtt,
            ModUpApplyKey,
            ModUpReduce,
            ModDownIntt,
            ModDownBconv,
            ModDownNtt,
            ModDownCombine,
        ]
    }

    /// Short name used in task labels and figures (e.g. `ModUp-P2`).
    pub fn label(&self) -> &'static str {
        match self {
            HksStage::ModUpIntt => "ModUp-P1",
            HksStage::ModUpBconv => "ModUp-P2",
            HksStage::ModUpNtt => "ModUp-P3",
            HksStage::ModUpApplyKey => "ModUp-P4",
            HksStage::ModUpReduce => "ModUp-P5",
            HksStage::ModDownIntt => "ModDown-P1",
            HksStage::ModDownBconv => "ModDown-P2",
            HksStage::ModDownNtt => "ModDown-P3",
            HksStage::ModDownCombine => "ModDown-P4",
        }
    }
}

impl std::fmt::Display for HksStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Stage-level geometry of one hybrid key switch for a benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HksShape {
    /// The benchmark this shape was derived from.
    pub benchmark: HksBenchmark,
}

impl HksShape {
    /// Builds the shape for a benchmark.
    pub fn new(benchmark: HksBenchmark) -> Self {
        Self { benchmark }
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.benchmark.ring_degree()
    }

    /// Live `Q` towers `ℓ` (the paper's `k_l`).
    pub fn ell(&self) -> usize {
        self.benchmark.q_towers
    }

    /// Auxiliary towers `K`.
    pub fn k(&self) -> usize {
        self.benchmark.p_towers
    }

    /// Number of digits.
    pub fn dnum(&self) -> usize {
        self.benchmark.dnum
    }

    /// Width of digit `j` in towers.
    pub fn digit_width(&self, j: usize) -> usize {
        self.benchmark.digit_width(j)
    }

    /// Extension width of digit `j`: `β_j = ℓ + K − α_j`.
    pub fn beta(&self, j: usize) -> usize {
        self.ell() + self.k() - self.digit_width(j)
    }

    /// Extended tower count `ℓ + K`.
    pub fn extended(&self) -> usize {
        self.ell() + self.k()
    }

    /// Bytes per tower.
    pub fn tower_bytes(&self) -> u64 {
        self.benchmark.tower_bytes()
    }

    /// Bytes of two evk towers for one digit and one extended tower index
    /// (the `b` and `a` components loaded together when streaming keys).
    pub fn evk_tower_pair_bytes(&self) -> u64 {
        2 * self.tower_bytes()
    }

    // ----- per-unit compute costs ------------------------------------------

    /// Modular operations of one (i)NTT of a single tower: `(N/2)·log2 N`
    /// butterflies at 2 modops each.
    pub fn ntt_ops(&self) -> u64 {
        (self.n() as u64 / 2) * u64::from(self.n().trailing_zeros()) * 2
    }

    /// Modular operations of the per-digit BConv *scaling* pass
    /// (`y_i = [a_i·(Q_j/q_i)^{-1}]_{q_i}` over the digit's `α_j` towers).
    pub fn bconv_scale_ops(&self, source_towers: usize) -> u64 {
        self.n() as u64 * source_towers as u64
    }

    /// Modular operations of one BConv *slice*: producing one target tower
    /// from `source_towers` scaled towers (a multiply-accumulate per source
    /// tower per coefficient).
    pub fn bconv_slice_ops(&self, source_towers: usize) -> u64 {
        2 * self.n() as u64 * source_towers as u64
    }

    /// Modular operations of one point-wise multiply of a single tower.
    pub fn pointwise_ops(&self) -> u64 {
        self.n() as u64
    }

    // ----- whole-kernel totals ---------------------------------------------

    /// Total modular operations of the ModUp phase (all digits).
    pub fn modup_ops(&self) -> u64 {
        let mut total = 0u64;
        // P1: INTT of every live tower.
        total += self.ell() as u64 * self.ntt_ops();
        for j in 0..self.dnum() {
            let alpha_j = self.digit_width(j);
            let beta_j = self.beta(j);
            // P2: scaling + beta_j slices.
            total += self.bconv_scale_ops(alpha_j);
            total += beta_j as u64 * self.bconv_slice_ops(alpha_j);
            // P3: NTT of the beta_j extended towers.
            total += beta_j as u64 * self.ntt_ops();
            // P4: multiply with the two evk polynomials over ℓ+K towers.
            total += 2 * self.extended() as u64 * self.pointwise_ops();
        }
        // P5: reduce dnum partial products into one, for both output polys.
        if self.dnum() > 1 {
            total += 2 * (self.dnum() as u64 - 1) * self.extended() as u64 * self.pointwise_ops();
        }
        total
    }

    /// Total modular operations of the ModDown phase (both output polys).
    pub fn moddown_ops(&self) -> u64 {
        let mut total = 0u64;
        // P1: INTT of the K auxiliary towers of both polynomials.
        total += 2 * self.k() as u64 * self.ntt_ops();
        // P2: BConv from K to ℓ towers for both polynomials.
        total += 2
            * (self.bconv_scale_ops(self.k()) + self.ell() as u64 * self.bconv_slice_ops(self.k()));
        // P3: NTT of the ℓ converted towers of both polynomials.
        total += 2 * self.ell() as u64 * self.ntt_ops();
        // P4: subtract and scale by P^{-1} (two point-wise passes per tower).
        total += 2 * self.ell() as u64 * 2 * self.pointwise_ops();
        total
    }

    /// Total modular operations of one hybrid key switch.
    pub fn total_ops(&self) -> u64 {
        self.modup_ops() + self.moddown_ops()
    }

    // ----- data sizes -------------------------------------------------------

    /// Bytes of the key-switch input polynomial (`ℓ` towers).
    pub fn input_bytes(&self) -> u64 {
        self.ell() as u64 * self.tower_bytes()
    }

    /// Bytes of the key-switch output (two polynomials of `ℓ` towers).
    pub fn output_bytes(&self) -> u64 {
        2 * self.ell() as u64 * self.tower_bytes()
    }

    /// Bytes of the full evaluation key.
    pub fn evk_bytes(&self) -> u64 {
        self.benchmark.evk_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu::MIB;

    #[test]
    fn stage_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            HksStage::all().iter().map(super::HksStage::label).collect();
        assert_eq!(labels.len(), 9);
        assert_eq!(HksStage::ModUpBconv.to_string(), "ModUp-P2");
    }

    #[test]
    fn beta_matches_paper_definition() {
        // BTS3: alpha = 15, beta = 45 + 15 - 15 = 45.
        let s = HksShape::new(HksBenchmark::BTS3);
        for j in 0..3 {
            assert_eq!(s.beta(j), 45);
        }
        // DPRIVE digits are 9, 9, 8 wide.
        let d = HksShape::new(HksBenchmark::DPRIVE);
        assert_eq!(d.digit_width(0), 9);
        assert_eq!(d.digit_width(2), 8);
        assert_eq!(d.beta(2), 26 + 7 - 8);
    }

    #[test]
    fn figure1_parameterization_shape() {
        // Figure 1 uses ℓ = 33, dnum = 3, α = 11; verify our derived widths
        // for an equivalent custom benchmark.
        let custom = HksBenchmark {
            name: "FIG1",
            log_ring_degree: 16,
            q_towers: 33,
            p_towers: 11,
            dnum: 3,
        };
        let s = HksShape::new(custom);
        assert_eq!(custom.alpha(), 11);
        for j in 0..3 {
            assert_eq!(s.digit_width(j), 11);
            assert_eq!(s.beta(j), 33);
        }
        assert_eq!(s.extended(), 44);
        // One NTT of N = 1024: 512 butterflies per level, 10 levels, 2 modops each.
        let n1024 = HksShape::new(HksBenchmark {
            log_ring_degree: 10,
            ..custom
        });
        assert_eq!(n1024.ntt_ops(), 512 * 10 * 2);
    }

    #[test]
    fn operation_totals_scale_with_benchmark_size() {
        let small = HksShape::new(HksBenchmark::ARK).total_ops();
        let large = HksShape::new(HksBenchmark::BTS3).total_ops();
        assert!(large > 4 * small, "BTS3 must be much larger than ARK");
    }

    #[test]
    fn data_sizes_are_consistent_with_table_iii() {
        let s = HksShape::new(HksBenchmark::ARK);
        assert_eq!(s.evk_bytes(), 120 * MIB);
        assert_eq!(s.input_bytes(), 24 * s.tower_bytes());
        assert_eq!(s.output_bytes(), 48 * s.tower_bytes());
    }

    #[test]
    fn modup_dominates_moddown_for_multi_digit_benchmarks() {
        for b in [HksBenchmark::BTS3, HksBenchmark::ARK, HksBenchmark::DPRIVE] {
            let s = HksShape::new(b);
            assert!(s.modup_ops() > s.moddown_ops(), "{}", b.name);
        }
    }

    #[test]
    fn single_digit_benchmark_has_no_reduce_work() {
        let bts1 = HksShape::new(HksBenchmark::BTS1);
        // With dnum = 1 the P5 reduction term is zero; verify by comparing
        // against a manual recomputation without the reduce term.
        let manual = bts1.ell() as u64 * bts1.ntt_ops()
            + bts1.bconv_scale_ops(28)
            + bts1.beta(0) as u64 * bts1.bconv_slice_ops(28)
            + bts1.beta(0) as u64 * bts1.ntt_ops()
            + 2 * bts1.extended() as u64 * bts1.pointwise_ops();
        assert_eq!(bts1.modup_ops(), manual);
    }
}
