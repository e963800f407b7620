//! Fast RNS basis conversion (`BConv`).
//!
//! Basis conversion takes a polynomial known by its residues modulo a source
//! basis `{q_0, …, q_{ℓ-1}}` and produces its residues modulo a disjoint
//! target basis `{p_0, …, p_{k-1}}` *without* reconstructing the big integer.
//! This is the `BConv` kernel of the hybrid key-switching ModUp (P2) and
//! ModDown (P2) stages, and is the stage whose intermediate expansion the
//! CiFlow dataflows manage.
//!
//! We implement the standard *fast (approximate) base conversion* of the full
//! RNS CKKS variant (Cheon et al., SAC'18): for coefficient `a` with residues
//! `a_i`,
//!
//! ```text
//! Conv(a)_j = Σ_i  [a_i · (Q/q_i)^{-1}]_{q_i} · (Q/q_i)  mod p_j
//! ```
//!
//! which equals `a + e·Q (mod p_j)` for some small overshoot `0 ≤ e < ℓ`. The
//! exact (Garner) conversion is also provided for verification.

use crate::modulus::Modulus;
use crate::poly::RnsBasis;
use std::sync::Arc;

/// Precomputed tables for converting residues from a source RNS basis to a
/// target RNS basis.
///
/// # Examples
///
/// ```
/// use hemath::{basis::BasisConverter, modulus::Modulus, poly::RnsBasis, primes::generate_ntt_primes};
/// use std::sync::Arc;
///
/// let n = 64;
/// let qs = generate_ntt_primes(40, n, 2, &[]).unwrap();
/// let ps = generate_ntt_primes(41, n, 2, &qs).unwrap();
/// let to_mod = |v: &Vec<u64>| v.iter().map(|&q| Modulus::new(q).unwrap()).collect::<Vec<_>>();
/// let source = Arc::new(RnsBasis::new(n, to_mod(&qs)).unwrap());
/// let target = Arc::new(RnsBasis::new(n, to_mod(&ps)).unwrap());
/// let conv = BasisConverter::new(source, target);
/// assert_eq!(conv.source().tower_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BasisConverter {
    source: Arc<RnsBasis>,
    target: Arc<RnsBasis>,
    /// `[(Q/q_i)^{-1}]_{q_i}` for each source tower `i`.
    q_hat_inv: Vec<u64>,
    /// Shoup companions of `q_hat_inv`.
    q_hat_inv_shoup: Vec<u64>,
    /// `(Q/q_i) mod p_j`, indexed `[i][j]`.
    q_hat_mod_target: Vec<Vec<u64>>,
}

impl BasisConverter {
    /// Precomputes the conversion tables from `source` to `target`.
    ///
    /// # Panics
    ///
    /// Panics if the two bases share a modulus or have different ring degrees;
    /// both indicate a parameterization bug.
    pub fn new(source: Arc<RnsBasis>, target: Arc<RnsBasis>) -> Self {
        assert_eq!(source.degree(), target.degree(), "degree mismatch");
        for qs in source.moduli() {
            for pt in target.moduli() {
                assert_ne!(
                    qs.value(),
                    pt.value(),
                    "source and target moduli must be disjoint"
                );
            }
        }
        let ell = source.tower_count();
        // q_hat_inv[i] = prod_{k != i} q_k ^{-1} mod q_i
        let mut q_hat_inv = Vec::with_capacity(ell);
        let mut q_hat_inv_shoup = Vec::with_capacity(ell);
        for (i, qi) in source.moduli().iter().enumerate() {
            let mut prod = 1u64;
            for (k, qk) in source.moduli().iter().enumerate() {
                if k != i {
                    prod = qi.mul(prod, qi.reduce(qk.value()));
                }
            }
            let inv = qi.inv(prod);
            q_hat_inv.push(inv);
            q_hat_inv_shoup.push(qi.shoup(inv));
        }
        // q_hat_mod_target[i][j] = prod_{k != i} q_k mod p_j
        let mut q_hat_mod_target = Vec::with_capacity(ell);
        for i in 0..ell {
            let mut row = Vec::with_capacity(target.tower_count());
            for pj in target.moduli() {
                let mut prod = 1u64;
                for (k, qk) in source.moduli().iter().enumerate() {
                    if k != i {
                        prod = pj.mul(prod, pj.reduce(qk.value()));
                    }
                }
                row.push(prod);
            }
            q_hat_mod_target.push(row);
        }
        Self {
            source,
            target,
            q_hat_inv,
            q_hat_inv_shoup,
            q_hat_mod_target,
        }
    }

    /// The source basis.
    pub fn source(&self) -> &Arc<RnsBasis> {
        &self.source
    }

    /// The target basis.
    pub fn target(&self) -> &Arc<RnsBasis> {
        &self.target
    }

    /// Fast (approximate) basis conversion of raw coefficient-domain towers.
    ///
    /// `input[i]` must hold the residues modulo the `i`-th source modulus. The
    /// output holds one tower per target modulus. The result represents
    /// `a + e·Q` for a per-coefficient overshoot `0 ≤ e < ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if the number or length of the input towers disagrees with the
    /// source basis.
    pub fn convert_towers(&self, input: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let ell = self.source.tower_count();
        let n = self.source.degree();
        assert_eq!(input.len(), ell, "expected {ell} source towers");
        for (i, t) in input.iter().enumerate() {
            assert_eq!(t.len(), n, "source tower {i} has wrong length");
        }
        // Step 1: y_i = [a_i * q_hat_inv_i]_{q_i}
        let mut scaled = vec![vec![0u64; n]; ell];
        for i in 0..ell {
            let qi = &self.source.moduli()[i];
            let w = self.q_hat_inv[i];
            let ws = self.q_hat_inv_shoup[i];
            for (dst, &src) in scaled[i].iter_mut().zip(&input[i]) {
                *dst = qi.mul_shoup(src, w, ws);
            }
        }
        // Step 2: out_j = sum_i y_i * (Q/q_i mod p_j) mod p_j
        let k = self.target.tower_count();
        let mut out = vec![vec![0u64; n]; k];
        for (j, out_tower) in out.iter_mut().enumerate() {
            let pj = &self.target.moduli()[j];
            for (scaled_tower, factors) in scaled.iter().zip(&self.q_hat_mod_target) {
                let factor = factors[j];
                let fs = pj.shoup(factor);
                for (o, &y) in out_tower.iter_mut().zip(scaled_tower) {
                    let term = pj.mul_shoup(pj.reduce(y), factor, fs);
                    *o = pj.add(*o, term);
                }
            }
        }
        out
    }

    /// Number of modular multiplications one conversion performs:
    /// `N·ℓ` for the scaling pass plus `N·ℓ·k` for the accumulation.
    ///
    /// This is the cost the CiFlow performance model charges per `BConv`
    /// task (the paper quotes `N·α·β` for the dominant second pass).
    pub fn modmul_count(degree: usize, source_towers: usize, target_towers: usize) -> u64 {
        let n = degree as u64;
        n * source_towers as u64 + n * source_towers as u64 * target_towers as u64
    }
}

/// Exact CRT conversion of a single coefficient via Garner's mixed-radix
/// algorithm: given residues `a_i` modulo pairwise-coprime `q_i`, returns the
/// residue of the unique `a < Q` modulo `target`.
///
/// A declared oracle: the basis-conversion tests (this module's and
/// `crates/hemath/tests/properties.rs`) bound the approximate converter's
/// overshoot against it.
pub fn exact_crt_residue(residues: &[u64], moduli: &[Modulus], target: &Modulus) -> u64 {
    assert_eq!(residues.len(), moduli.len());
    let ell = moduli.len();
    // Garner: compute mixed-radix digits v_i with
    // a = v_0 + v_1 q_0 + v_2 q_0 q_1 + ...
    let mut digits = vec![0u64; ell];
    for i in 0..ell {
        let qi = &moduli[i];
        // t = a_i - (v_0 + v_1 q_0 + ... + v_{i-1} q_0..q_{i-2}) mod q_i
        let mut acc = 0u64;
        let mut radix = 1u64;
        for k in 0..i {
            acc = qi.add(acc, qi.mul(qi.reduce(digits[k]), radix));
            radix = qi.mul(radix, qi.reduce(moduli[k].value()));
        }
        let t = qi.sub(qi.reduce(residues[i]), acc);
        // v_i = t * (q_0 ... q_{i-1})^{-1} mod q_i
        digits[i] = qi.mul(t, qi.inv(radix));
    }
    // Evaluate the mixed-radix form modulo the target.
    let mut result = 0u64;
    let mut radix = 1u64;
    for i in 0..ell {
        result = target.add(result, target.mul(target.reduce(digits[i]), radix));
        radix = target.mul(radix, target.reduce(moduli[i].value()));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::{Representation, RnsPolynomial};
    use crate::primes::generate_ntt_primes;
    use rand::{Rng, SeedableRng};

    impl BasisConverter {
        /// Fast basis conversion of an [`RnsPolynomial`] in the coefficient
        /// domain, returning a polynomial over the target basis (also in the
        /// coefficient domain).
        ///
        /// # Panics
        ///
        /// Panics if the polynomial is not over the source basis or not in
        /// the coefficient domain (basis conversion is only meaningful there).
        fn convert(&self, poly: &RnsPolynomial) -> RnsPolynomial {
            assert!(
                poly.basis().same_basis(&self.source),
                "polynomial is not over the converter's source basis"
            );
            assert_eq!(
                poly.representation(),
                Representation::Coefficient,
                "basis conversion requires the coefficient domain"
            );
            let towers: Vec<Vec<u64>> = (0..poly.tower_count())
                .map(|i| poly.tower(i).to_vec())
                .collect();
            let out = self.convert_towers(&towers);
            RnsPolynomial::from_towers(self.target.clone(), out, Representation::Coefficient)
        }
    }

    /// `Q mod p`, where `Q` is the product of `moduli`.
    fn product_mod(moduli: &[Modulus], p: &Modulus) -> u64 {
        moduli
            .iter()
            .fold(1u64, |acc, q| p.mul(acc, p.reduce(q.value())))
    }

    fn make_bases(n: usize, ell: usize, k: usize) -> (Arc<RnsBasis>, Arc<RnsBasis>) {
        let qs = generate_ntt_primes(40, n, ell, &[]).unwrap();
        let ps = generate_ntt_primes(41, n, k, &qs).unwrap();
        let to_mod = |v: &[u64]| {
            v.iter()
                .map(|&q| Modulus::new(q).unwrap())
                .collect::<Vec<_>>()
        };
        (
            Arc::new(RnsBasis::new(n, to_mod(&qs)).unwrap()),
            Arc::new(RnsBasis::new(n, to_mod(&ps)).unwrap()),
        )
    }

    #[test]
    fn exact_crt_reconstructs_small_values() {
        let (source, target) = make_bases(8, 3, 1);
        let value = 123_456_789u64;
        let residues: Vec<u64> = source.moduli().iter().map(|m| m.reduce(value)).collect();
        let got = exact_crt_residue(&residues, source.moduli(), &target.moduli()[0]);
        assert_eq!(got, target.moduli()[0].reduce(value));
    }

    #[test]
    fn exact_crt_reconstructs_multi_limb_values() {
        // A value that spans more than one modulus: build it with UBig.
        use crate::bigint::UBig;
        let (source, target) = make_bases(8, 3, 2);
        // ~100-bit value, safely below the ~120-bit product of three 40-bit primes.
        let value = UBig::from_u128(0x0000_0012_3456_789a_bcde_f012_3456_789a);
        let residues: Vec<u64> = source
            .moduli()
            .iter()
            .map(|m| value.rem_u64(m.value()))
            .collect();
        for t in target.moduli() {
            let got = exact_crt_residue(&residues, source.moduli(), t);
            assert_eq!(got, value.rem_u64(t.value()));
        }
    }

    #[test]
    fn fast_conversion_overshoot_is_bounded_multiple_of_q() {
        let n = 32;
        let ell = 4;
        let (source, target) = make_bases(n, ell, 3);
        let conv = BasisConverter::new(source.clone(), target.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let towers: Vec<Vec<u64>> = source
            .moduli()
            .iter()
            .map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect())
            .collect();
        let fast = conv.convert_towers(&towers);
        for (j, pj) in target.moduli().iter().enumerate() {
            let q_mod_p = product_mod(source.moduli(), pj);
            for c in 0..n {
                let residues: Vec<u64> = (0..ell).map(|i| towers[i][c]).collect();
                let exact = exact_crt_residue(&residues, source.moduli(), pj);
                // fast = exact + e*Q (mod p_j) with 0 <= e < ell
                let found = (0..ell as u64)
                    .any(|e| pj.add(exact, pj.mul(pj.reduce(e), q_mod_p)) == fast[j][c]);
                assert!(found, "coefficient {c}, target {j}: overshoot out of range");
            }
        }
    }

    #[test]
    fn conversion_of_zero_is_zero() {
        let (source, target) = make_bases(16, 3, 2);
        let conv = BasisConverter::new(source.clone(), target);
        let zero = RnsPolynomial::zero(source, Representation::Coefficient);
        let out = conv.convert(&zero);
        assert!(out.iter().all(|(_, t)| t.iter().all(|&x| x == 0)));
    }

    #[test]
    fn conversion_preserves_small_constants_exactly() {
        // Small values have zero overshoot probability only when residues are
        // identical and small; the canonical test is value << q_i for all i,
        // where the fast conversion is exact because each y_i*Qhat_i sums to
        // exactly a (no wraparound occurs for a < min q_i with the chosen
        // scaling). We verify against the exact CRT instead of assuming.
        let (source, target) = make_bases(8, 2, 2);
        let conv = BasisConverter::new(source.clone(), target.clone());
        let value = 7u64;
        let towers: Vec<Vec<u64>> = source
            .moduli()
            .iter()
            .map(|m| vec![m.reduce(value); 8])
            .collect();
        let out = conv.convert_towers(&towers);
        for (j, pj) in target.moduli().iter().enumerate() {
            let q_mod_p = product_mod(source.moduli(), pj);
            for &got in &out[j] {
                let ok = (0..source.tower_count() as u64)
                    .any(|e| pj.add(value, pj.mul(pj.reduce(e), q_mod_p)) == got);
                assert!(ok);
            }
        }
    }

    #[test]
    fn modmul_count_formula() {
        // N * ell + N * ell * k
        assert_eq!(
            BasisConverter::modmul_count(1024, 11, 22),
            1024 * 11 + 1024 * 11 * 22
        );
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_bases_rejected() {
        let n = 16;
        let qs = generate_ntt_primes(40, n, 2, &[]).unwrap();
        let to_mod = |v: &[u64]| {
            v.iter()
                .map(|&q| Modulus::new(q).unwrap())
                .collect::<Vec<_>>()
        };
        let a = Arc::new(RnsBasis::new(n, to_mod(&qs)).unwrap());
        let b = Arc::new(RnsBasis::new(n, to_mod(&qs)).unwrap());
        let _ = BasisConverter::new(a, b);
    }

    #[test]
    #[should_panic(expected = "coefficient domain")]
    fn evaluation_domain_input_rejected() {
        let (source, target) = make_bases(16, 2, 1);
        let conv = BasisConverter::new(source.clone(), target);
        let mut p = RnsPolynomial::zero(source, Representation::Coefficient);
        p.to_evaluation();
        let _ = conv.convert(&p);
    }
}
