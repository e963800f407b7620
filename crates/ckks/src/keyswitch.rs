//! Hybrid key switching (HKS) — the functional reference implementation.
//!
//! This module implements the ModUp / ModDown phases exactly as the CiFlow
//! paper describes them (§III):
//!
//! * **ModUp** — P1 `INTT` per digit tower, P2 `BConv` extending each digit
//!   from `α` to `β = ℓ + K − α` towers, P3 `NTT` of the extended towers,
//!   P4 pointwise multiplication with the evaluation key, P5 reduction
//!   (accumulation over digits).
//! * **ModDown** — P1 `INTT` of the `K` auxiliary towers, P2 `BConv` from `P`
//!   back to `Q_ℓ`, P3 `NTT`, P4 subtraction and scaling by `P^{-1}`.
//!
//! The `ciflow` crate schedules these same stages under different dataflows;
//! this module defines their *semantics* and is used to validate that every
//! dataflow computes the same function.

use crate::context::CkksContext;
use crate::keys::EvaluationKey;
use hemath::poly::{Representation, RnsPolynomial};

/// The pair of polynomials produced by a key switch, to be added to the
/// ciphertext's `(c0, c1)`.
pub type KeySwitchOutput = (RnsPolynomial, RnsPolynomial);

/// ModUp for a single digit (stages P1–P3): extends digit `j` of `d` from its
/// own towers to the full extended basis `Q_ℓ ∪ P`, returning the result in
/// the evaluation domain.
///
/// The towers belonging to the digit itself are passed through unchanged
/// (the "bypass" the paper's Output-Centric discussion relies on); the other
/// towers are produced by `INTT → BConv → NTT`.
///
/// # Panics
///
/// Panics if `d` is not in the evaluation domain over the live `Q` towers of
/// `level`, or if the digit is empty at this level.
fn modup_digit(ctx: &CkksContext, d: &RnsPolynomial, level: usize, digit: usize) -> RnsPolynomial {
    assert_eq!(d.representation(), Representation::Evaluation);
    assert_eq!(d.tower_count(), level + 1, "input must have level+1 towers");
    let params = ctx.params();
    let range = params.digit_towers(digit, level);
    assert!(!range.is_empty(), "digit {digit} is empty at level {level}");

    // P1: INTT of the digit's towers.
    let converter = ctx.modup_converter(digit, level);
    let digit_indices: Vec<usize> = range.clone().collect();
    let mut digit_coeff_towers = Vec::with_capacity(digit_indices.len());
    for &i in &digit_indices {
        let mut tower = d.tower(i).to_vec();
        ctx.basis_q().ntt_table(i).inverse(&mut tower);
        digit_coeff_towers.push(tower);
    }

    // P2: BConv from the digit's basis to the complement basis (other live Q
    // towers followed by the P towers).
    let converted = converter.convert_towers(&digit_coeff_towers);

    // P3: NTT of the converted towers.
    let complement: Vec<usize> = (0..=level).filter(|i| !range.contains(i)).collect();
    let k = params.aux_tower_count();
    let mut converted_eval = converted;
    for (pos, tower) in converted_eval.iter_mut().enumerate() {
        if pos < complement.len() {
            ctx.basis_q().ntt_table(complement[pos]).forward(tower);
        } else {
            ctx.basis_p()
                .ntt_table(pos - complement.len())
                .forward(tower);
        }
    }

    // Assemble the extended polynomial over Q_ℓ ∪ P in evaluation domain:
    // digit towers are bypassed from `d`, complement and P towers come from
    // the conversion.
    let mut towers: Vec<Vec<u64>> = Vec::with_capacity(level + 1 + k);
    let mut complement_pos = 0usize;
    for i in 0..=level {
        if range.contains(&i) {
            towers.push(d.tower(i).to_vec());
        } else {
            towers.push(converted_eval[complement_pos].clone());
            complement_pos += 1;
        }
    }
    for p_idx in 0..k {
        towers.push(converted_eval[complement.len() + p_idx].clone());
    }
    RnsPolynomial::from_towers(
        ctx.basis_qp_at_level(level),
        towers,
        Representation::Evaluation,
    )
}

/// ModDown (stages P1–P4): reduces a polynomial over `Q_ℓ ∪ P` back to `Q_ℓ`,
/// dividing by `P`.
///
/// # Panics
///
/// Panics if `x` is not in the evaluation domain over the extended basis of
/// `level`.
pub fn moddown(ctx: &CkksContext, x: &RnsPolynomial, level: usize) -> RnsPolynomial {
    assert_eq!(x.representation(), Representation::Evaluation);
    let k = ctx.params().aux_tower_count();
    assert_eq!(
        x.tower_count(),
        level + 1 + k,
        "input must be over the extended basis of the level"
    );

    // P1: INTT of the K auxiliary towers.
    let mut p_towers = Vec::with_capacity(k);
    for i in 0..k {
        let mut tower = x.tower(level + 1 + i).to_vec();
        ctx.basis_p().ntt_table(i).inverse(&mut tower);
        p_towers.push(tower);
    }

    // P2: BConv from P to the live Q towers.
    let converter = ctx.moddown_converter(level);
    let converted = converter.convert_towers(&p_towers);

    // P3: NTT of the converted towers.
    let mut converted_eval = converted;
    for (i, tower) in converted_eval.iter_mut().enumerate() {
        ctx.basis_q().ntt_table(i).forward(tower);
    }

    // P4: out_i = (x_i - conv_i) * P^{-1} mod q_i.
    let mut towers = Vec::with_capacity(level + 1);
    for (i, conv_tower) in converted_eval.iter().enumerate().take(level + 1) {
        let qi = &ctx.basis_q().moduli()[i];
        let p_inv = ctx.p_inv_mod_q()[i];
        let p_inv_shoup = qi.shoup(p_inv);
        let tower: Vec<u64> = x
            .tower(i)
            .iter()
            .zip(conv_tower)
            .map(|(&a, &b)| qi.mul_shoup(qi.sub(a, b), p_inv, p_inv_shoup))
            .collect();
        towers.push(tower);
    }
    RnsPolynomial::from_towers(
        ctx.basis_q_at_level(level),
        towers,
        Representation::Evaluation,
    )
}

/// Full hybrid key switching of a polynomial `d` (in the evaluation domain
/// over the live `Q` towers) with the given evaluation key.
///
/// Returns `(k0, k1)` over `Q_ℓ` such that `k0 + k1·s ≈ d·s'`, where `s'` is
/// the key the evaluation key switches from.
///
/// # Panics
///
/// Panics if `d` has a tower count inconsistent with `level`, or if the key's
/// digit count disagrees with the parameters.
pub fn hybrid_key_switch(
    ctx: &CkksContext,
    d: &RnsPolynomial,
    level: usize,
    evk: &EvaluationKey,
) -> KeySwitchOutput {
    assert_eq!(
        evk.digit_count(),
        ctx.params().dnum(),
        "evaluation key digit count mismatch"
    );
    let live_digits = ctx.params().live_digits(level);
    let extended_basis = ctx.basis_qp_at_level(level);
    let mut acc0 = RnsPolynomial::zero(extended_basis.clone(), Representation::Evaluation);
    let mut acc1 = RnsPolynomial::zero(extended_basis, Representation::Evaluation);
    for j in 0..live_digits {
        // ModUp P1-P3 for this digit.
        let extended = modup_digit(ctx, d, level, j);
        // ModUp P4 (apply key) + P5 (reduce / accumulate).
        let (b_j, a_j) = evk.digit_at_level(ctx, j, level);
        acc0.mul_acc(&extended, &b_j).expect("same basis");
        acc1.mul_acc(&extended, &a_j).expect("same basis");
    }
    // ModDown P1-P4 for both accumulator polynomials.
    let k0 = moddown(ctx, &acc0, level);
    let k1 = moddown(ctx, &acc1, level);
    (k0, k1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{EvaluationKeyKind, KeyGenerator};
    use crate::params::CkksParametersBuilder;
    use hemath::sampler::sample_uniform;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn make_ctx(dnum: usize) -> Arc<CkksContext> {
        let params = CkksParametersBuilder::new()
            .ring_degree(1 << 8)
            .q_tower_bits(vec![45, 36, 36, 36, 36, 36])
            .p_tower_bits(vec![45, 45])
            .dnum(dnum)
            .scale_bits(36)
            .build()
            .unwrap();
        CkksContext::new(params).unwrap()
    }

    /// Maximum centred residue of `poly` (which must be small for a correct
    /// key switch identity).
    fn max_centered(poly: &RnsPolynomial) -> u64 {
        let mut p = poly.clone();
        p.to_coefficient();
        let mut max = 0u64;
        for (m, tower) in p.iter() {
            for &x in tower {
                let centered = if x > m.value() / 2 { m.value() - x } else { x };
                max = max.max(centered);
            }
        }
        max
    }

    fn key_switch_identity_error(ctx: &Arc<CkksContext>, level: usize, dnum: usize) -> u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7 + dnum as u64 + level as u64);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        // A second, independent "source" secret s'.
        let sk_prime = keygen.secret_key(&mut rng);
        let s_prime_qp = sk_prime.evaluation_form_qp();
        let ksk = keygen.key_switching_key(
            &mut rng,
            &sk,
            &s_prime_qp,
            EvaluationKeyKind::Relinearization,
        );
        // Random input polynomial d over the live towers.
        let basis = ctx.basis_q_at_level(level);
        let d = sample_uniform(&mut rng, basis, Representation::Evaluation);
        let (k0, k1) = hybrid_key_switch(ctx, &d, level, &ksk);
        // Check k0 + k1*s - d*s' is small.
        let s = sk.evaluation_form_q(ctx, level);
        let s_prime = sk_prime.evaluation_form_q(ctx, level);
        let lhs = k0.add(&k1.mul(&s).unwrap()).unwrap();
        let rhs = d.mul(&s_prime).unwrap();
        let diff = lhs.sub(&rhs).unwrap();
        max_centered(&diff)
    }

    #[test]
    fn key_switch_identity_at_full_level() {
        // Hybrid key switching is only correct when P covers a digit
        // (`log P ≳ α · log q`), so scale the Q chain with dnum to keep
        // α = 2 towers of at most 36 bits against a 90-bit P.
        for dnum in [1usize, 2, 3] {
            let params = CkksParametersBuilder::new()
                .ring_degree(1 << 8)
                .q_tower_bits(vec![36; 2 * dnum])
                .p_tower_bits(vec![45, 45])
                .dnum(dnum)
                .scale_bits(36)
                .build()
                .unwrap();
            let ctx = CkksContext::new(params).unwrap();
            let level = ctx.params().max_level();
            let err = key_switch_identity_error(&ctx, level, dnum);
            // Error bound: dnum * N * eta * q_digit / P plus rounding; with
            // these parameters anything below 2^24 is decisively "small"
            // compared to the 36-bit moduli.
            assert!(
                err < 1 << 24,
                "dnum={dnum}: key switch error {err} too large"
            );
        }
    }

    #[test]
    fn key_switch_identity_at_lower_levels() {
        let ctx = make_ctx(3);
        for level in [1usize, 2, 4] {
            let err = key_switch_identity_error(&ctx, level, 3);
            assert!(
                err < 1 << 24,
                "level={level}: key switch error {err} too large"
            );
        }
    }

    #[test]
    fn modup_digit_preserves_digit_towers() {
        let ctx = make_ctx(3);
        let level = ctx.params().max_level();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let d = sample_uniform(&mut rng, ctx.basis_q().clone(), Representation::Evaluation);
        for digit in 0..ctx.params().dnum() {
            let extended = modup_digit(&ctx, &d, level, digit);
            assert_eq!(
                extended.tower_count(),
                level + 1 + ctx.params().aux_tower_count()
            );
            for i in ctx.params().digit_towers(digit, level) {
                assert_eq!(
                    extended.tower(i),
                    d.tower(i),
                    "digit tower {i} must be bypassed"
                );
            }
        }
    }

    #[test]
    fn moddown_inverts_multiplication_by_p() {
        // Take a polynomial x over Q_ℓ, multiply every tower by P (so the
        // extended representation is P·x with zero P-part), and check that
        // ModDown returns approximately x.
        let ctx = make_ctx(2);
        let level = ctx.params().max_level();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let x = sample_uniform(
            &mut rng,
            ctx.basis_q_at_level(level),
            Representation::Evaluation,
        );
        let k = ctx.params().aux_tower_count();
        let mut towers: Vec<Vec<u64>> = Vec::new();
        for i in 0..=level {
            let qi = &ctx.basis_q().moduli()[i];
            let p_mod = ctx.p_mod_q()[i];
            towers.push(x.tower(i).iter().map(|&v| qi.mul(v, p_mod)).collect());
        }
        for _ in 0..k {
            towers.push(vec![0u64; ctx.params().ring_degree()]);
        }
        let extended = RnsPolynomial::from_towers(
            ctx.basis_qp_at_level(level),
            towers,
            Representation::Evaluation,
        );
        let down = moddown(&ctx, &extended, level);
        let diff = down.sub(&x).unwrap();
        // P·x has an exactly zero P-part, so the only error is the BConv
        // overshoot divided by P — at most K small units per coefficient.
        assert!(max_centered(&diff) <= ctx.params().aux_tower_count() as u64 + 1);
    }

    #[test]
    fn single_digit_parameters_have_no_complement_towers_in_q() {
        // dnum = 1: the digit covers all of Q, so ModUp only extends into P.
        let ctx = make_ctx(1);
        let level = ctx.params().max_level();
        let conv = ctx.modup_converter(0, level);
        assert_eq!(conv.source().tower_count(), level + 1);
        assert_eq!(conv.target().tower_count(), ctx.params().aux_tower_count());
    }
}
