//! Key material: secret, public, and evaluation (key-switching) keys.
//!
//! Evaluation keys follow the hybrid key-switching construction: for each of
//! the `dnum` digits the key holds a ring-LWE encryption of `P·s'` masked to
//! the towers of that digit, over the extended modulus `Q·P`. Relinearization
//! uses `s' = s²`; rotation keys use `s' = σ_g(s)`.

use crate::context::CkksContext;
use crate::galois::{apply_galois, rotation_galois_element};
use hemath::poly::{Representation, RnsPolynomial};
use hemath::sampler::{sample_error, sample_ternary, sample_uniform};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// The secret key `s`, stored in the coefficient domain over the full `Q·P`
/// basis so that Galois automorphisms can be applied directly.
#[derive(Debug, Clone)]
pub struct SecretKey {
    s_coeff: RnsPolynomial,
}

impl SecretKey {
    /// The secret in the coefficient domain over `Q·P`.
    fn coefficient_form(&self) -> &RnsPolynomial {
        &self.s_coeff
    }

    /// The secret in the evaluation domain, restricted to the first
    /// `level + 1` `Q` towers.
    pub fn evaluation_form_q(&self, ctx: &CkksContext, level: usize) -> RnsPolynomial {
        let towers: Vec<Vec<u64>> = (0..=level)
            .map(|i| self.s_coeff.tower(i).to_vec())
            .collect();
        let mut p = RnsPolynomial::from_towers(
            ctx.basis_q_at_level(level),
            towers,
            Representation::Coefficient,
        );
        p.to_evaluation();
        p
    }

    /// The secret in the evaluation domain over the full `Q·P` basis.
    pub fn evaluation_form_qp(&self) -> RnsPolynomial {
        let mut p = self.s_coeff.clone();
        p.to_evaluation();
        p
    }
}

/// The public encryption key `(b, a)` with `b = -a·s + e` over `Q`.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `b = -a·s + e`, evaluation domain over `Q`.
    pub b: RnsPolynomial,
    /// Uniform `a`, evaluation domain over `Q`.
    pub a: RnsPolynomial,
}

/// What a key-switching key re-encrypts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvaluationKeyKind {
    /// Relinearization: switches from `s²` to `s`.
    Relinearization,
    /// Rotation by the contained number of slots (switches from `σ_g(s)`).
    Rotation(i64),
    /// Slot conjugation.
    Conjugation,
}

/// A hybrid key-switching key: one `(b_j, a_j)` pair per digit over `Q·P`.
#[derive(Debug, Clone)]
pub struct EvaluationKey {
    kind: EvaluationKeyKind,
    digits: Vec<(RnsPolynomial, RnsPolynomial)>,
}

impl EvaluationKey {
    /// What this key switches from.
    pub fn kind(&self) -> EvaluationKeyKind {
        self.kind
    }

    /// Number of digits (`dnum`).
    pub fn digit_count(&self) -> usize {
        self.digits.len()
    }

    /// The `(b_j, a_j)` pair for digit `j` over the full `Q·P` basis.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn digit(&self, j: usize) -> (&RnsPolynomial, &RnsPolynomial) {
        let (b, a) = &self.digits[j];
        (b, a)
    }

    /// The `(b_j, a_j)` pair restricted to the live `Q` towers of `level`
    /// followed by all `P` towers, i.e. the extended basis at that level.
    pub fn digit_at_level(
        &self,
        ctx: &CkksContext,
        j: usize,
        level: usize,
    ) -> (RnsPolynomial, RnsPolynomial) {
        let restrict = |poly: &RnsPolynomial| -> RnsPolynomial {
            let max_level = ctx.params().max_level();
            if level == max_level {
                return poly.clone();
            }
            let k = ctx.params().aux_tower_count();
            let total = max_level + 1 + k;
            let mut towers: Vec<Vec<u64>> = Vec::with_capacity(level + 1 + k);
            for i in 0..=level {
                towers.push(poly.tower(i).to_vec());
            }
            for i in total - k..total {
                towers.push(poly.tower(i).to_vec());
            }
            RnsPolynomial::from_towers(
                ctx.basis_qp_at_level(level),
                towers,
                Representation::Evaluation,
            )
        };
        let (b, a) = &self.digits[j];
        (restrict(b), restrict(a))
    }

    /// Size of the key in bytes (`dnum × 2 × N × (L + 1 + K) × 8`), the
    /// quantity reported in Table III of the paper.
    pub fn byte_size(&self) -> u64 {
        self.digits
            .iter()
            .map(|(b, a)| b.byte_size() + a.byte_size())
            .sum()
    }
}

/// Generates secret, public, and evaluation keys for a context.
///
/// ```
/// use ckks::keys::{EvaluationKeyKind, KeyGenerator};
/// use ckks::params::CkksParametersBuilder;
/// use ckks::CkksContext;
/// use rand::SeedableRng;
///
/// let params = CkksParametersBuilder::new()
///     .ring_degree(1 << 6)
///     .q_tower_bits(vec![40, 40])
///     .p_tower_bits(vec![45])
///     .dnum(2)
///     .scale_bits(30)
///     .build()
///     .unwrap();
/// let keygen = KeyGenerator::new(CkksContext::new(params).unwrap());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let sk = keygen.secret_key(&mut rng);
/// // The keys `ops::multiply` and `ops::rotate` switch with.
/// let rlk = keygen.relinearization_key(&mut rng, &sk);
/// let rotations = keygen.rotation_keys(&mut rng, &sk, &[1, 2]);
/// assert_eq!(rlk.kind(), EvaluationKeyKind::Relinearization);
/// assert_eq!(rotations[&2].kind(), EvaluationKeyKind::Rotation(2));
/// // The generic key switching from another secret to `sk`, one digit per
/// // `dnum`.
/// let other = keygen.secret_key(&mut rng);
/// let ksk = keygen.key_switching_key(
///     &mut rng,
///     &sk,
///     &other.evaluation_form_qp(),
///     EvaluationKeyKind::Relinearization,
/// );
/// assert_eq!(ksk.digit_count(), 2);
/// ```
#[derive(Debug)]
pub struct KeyGenerator {
    ctx: Arc<CkksContext>,
}

impl KeyGenerator {
    /// Creates a key generator for the given context.
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        Self { ctx }
    }

    /// Samples a fresh ternary secret key.
    pub fn secret_key<R: Rng + ?Sized>(&self, rng: &mut R) -> SecretKey {
        let s_coeff = sample_ternary(
            rng,
            self.ctx.basis_qp().clone(),
            self.ctx.params().secret_hamming_weight(),
        );
        SecretKey { s_coeff }
    }

    /// Derives the public key from a secret key.
    pub fn public_key<R: Rng + ?Sized>(&self, rng: &mut R, sk: &SecretKey) -> PublicKey {
        let level = self.ctx.params().max_level();
        let s = sk.evaluation_form_q(&self.ctx, level);
        let a = sample_uniform(rng, self.ctx.basis_q().clone(), Representation::Evaluation);
        let mut e = sample_error(
            rng,
            self.ctx.basis_q().clone(),
            self.ctx.params().error_eta(),
        );
        e.to_evaluation();
        // b = -a*s + e
        let mut b = a.mul(&s).expect("same basis");
        b.negate();
        b.add_assign(&e).expect("same basis");
        PublicKey { b, a }
    }

    /// Generates the relinearization key (switches `s² → s`).
    pub fn relinearization_key<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sk: &SecretKey,
    ) -> EvaluationKey {
        let s_qp = sk.evaluation_form_qp();
        let s_squared = s_qp.mul(&s_qp).expect("same basis");
        self.key_switching_key(rng, sk, &s_squared, EvaluationKeyKind::Relinearization)
    }

    /// Generates a rotation key for a left rotation by `steps` slots.
    pub fn rotation_key<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sk: &SecretKey,
        steps: i64,
    ) -> EvaluationKey {
        let g = rotation_galois_element(steps, self.ctx.params().ring_degree());
        let mut rotated = apply_galois(sk.coefficient_form(), g);
        rotated.to_evaluation();
        self.key_switching_key(rng, sk, &rotated, EvaluationKeyKind::Rotation(steps))
    }

    /// Generates rotation keys for a set of steps, keyed by step count.
    pub fn rotation_keys<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sk: &SecretKey,
        steps: &[i64],
    ) -> HashMap<i64, EvaluationKey> {
        steps
            .iter()
            .map(|&s| (s, self.rotation_key(rng, sk, s)))
            .collect()
    }

    /// The generic hybrid key-switching key from `s_prime` to `s`.
    ///
    /// For each digit `j`, the key is
    /// `(b_j, a_j) = (-a_j·s + e_j + P·1_j·s', a_j)` over `Q·P`, where `1_j`
    /// is the indicator of digit `j`'s towers (so the added term is `P·s'` on
    /// the digit's towers and zero elsewhere).
    pub fn key_switching_key<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sk: &SecretKey,
        s_prime: &RnsPolynomial,
        kind: EvaluationKeyKind,
    ) -> EvaluationKey {
        assert_eq!(s_prime.representation(), Representation::Evaluation);
        assert!(s_prime.basis().same_basis(self.ctx.basis_qp()));
        let params = self.ctx.params();
        let s = sk.evaluation_form_qp();
        let max_level = params.max_level();
        let q_towers = max_level + 1;
        let k = params.aux_tower_count();
        let mut digits = Vec::with_capacity(params.dnum());
        for j in 0..params.dnum() {
            let range = params.digit_towers(j, max_level);
            let a_j = sample_uniform(rng, self.ctx.basis_qp().clone(), Representation::Evaluation);
            let mut e_j = sample_error(rng, self.ctx.basis_qp().clone(), params.error_eta());
            e_j.to_evaluation();
            // b_j = -a_j*s + e_j + factor_j ⊙ s'
            let mut b_j = a_j.mul(&s).expect("same basis");
            b_j.negate();
            b_j.add_assign(&e_j).expect("same basis");
            // factor per tower: P mod q_i on the digit's towers, 0 elsewhere.
            let mut factors = vec![0u64; q_towers + k];
            for i in range {
                factors[i] = self.ctx.p_mod_q()[i];
            }
            let mut masked = s_prime.clone();
            masked.scale_per_tower(&factors);
            b_j.add_assign(&masked).expect("same basis");
            digits.push((b_j, a_j));
        }
        EvaluationKey { kind, digits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParametersBuilder;
    use rand::SeedableRng;

    fn ctx() -> Arc<CkksContext> {
        let params = CkksParametersBuilder::new()
            .ring_degree(1 << 8)
            .q_tower_bits(vec![45, 36, 36, 36])
            .p_tower_bits(vec![45, 45])
            .dnum(2)
            .scale_bits(36)
            .build()
            .unwrap();
        CkksContext::new(params).unwrap()
    }

    #[test]
    fn secret_key_is_ternary_over_qp() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sk = KeyGenerator::new(c.clone()).secret_key(&mut rng);
        let s = sk.coefficient_form();
        assert_eq!(s.tower_count(), c.basis_qp().tower_count());
        for (m, tower) in s.iter() {
            for &x in tower {
                assert!(x == 0 || x == 1 || x == m.value() - 1);
            }
        }
    }

    #[test]
    fn public_key_decrypts_to_small_error() {
        // b + a*s = e must be small.
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let keygen = KeyGenerator::new(c.clone());
        let sk = keygen.secret_key(&mut rng);
        let pk = keygen.public_key(&mut rng, &sk);
        let s = sk.evaluation_form_q(&c, c.params().max_level());
        let mut noise = pk.b.add(&pk.a.mul(&s).unwrap()).unwrap();
        noise.to_coefficient();
        let eta = c.params().error_eta() as u64;
        for (m, tower) in noise.iter() {
            for &x in tower {
                let centered = if x > m.value() / 2 { m.value() - x } else { x };
                assert!(centered <= eta, "public key noise too large: {centered}");
            }
        }
    }

    #[test]
    fn evaluation_key_has_expected_shape_and_size() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let keygen = KeyGenerator::new(c.clone());
        let sk = keygen.secret_key(&mut rng);
        let rlk = keygen.relinearization_key(&mut rng, &sk);
        assert_eq!(rlk.kind(), EvaluationKeyKind::Relinearization);
        assert_eq!(rlk.digit_count(), 2);
        let n = c.params().ring_degree() as u64;
        let towers = (c.params().max_level() + 1 + c.params().aux_tower_count()) as u64;
        assert_eq!(rlk.byte_size(), 2 * 2 * n * towers * 8);
    }

    #[test]
    fn evaluation_key_digit_identity_holds() {
        // For each digit: b_j + a_j*s - P*1_j*s' must equal the small error e_j.
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let keygen = KeyGenerator::new(c.clone());
        let sk = keygen.secret_key(&mut rng);
        let s_qp = sk.evaluation_form_qp();
        let s_sq = s_qp.mul(&s_qp).unwrap();
        let rlk =
            keygen.key_switching_key(&mut rng, &sk, &s_sq, EvaluationKeyKind::Relinearization);
        let max_level = c.params().max_level();
        for j in 0..rlk.digit_count() {
            let (b, a) = rlk.digit(j);
            let mut lhs = b.add(&a.mul(&s_qp).unwrap()).unwrap();
            // subtract P*1_j*s'
            let mut factors = vec![0u64; c.basis_qp().tower_count()];
            for i in c.params().digit_towers(j, max_level) {
                factors[i] = c.p_mod_q()[i];
            }
            let mut masked = s_sq.clone();
            masked.scale_per_tower(&factors);
            lhs = lhs.sub(&masked).unwrap();
            lhs.to_coefficient();
            let eta = c.params().error_eta() as u64;
            for (m, tower) in lhs.iter() {
                for &x in tower {
                    let centered = if x > m.value() / 2 { m.value() - x } else { x };
                    assert!(centered <= eta, "digit {j} residual too large: {centered}");
                }
            }
        }
    }

    #[test]
    fn digit_restriction_to_level_keeps_prefix_and_aux_towers() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let keygen = KeyGenerator::new(c.clone());
        let sk = keygen.secret_key(&mut rng);
        let rlk = keygen.relinearization_key(&mut rng, &sk);
        let level = 1;
        let (b_full, _) = rlk.digit(0);
        let (b_restricted, _) = rlk.digit_at_level(&c, 0, level);
        assert_eq!(
            b_restricted.tower_count(),
            level + 1 + c.params().aux_tower_count()
        );
        assert_eq!(b_restricted.tower(0), b_full.tower(0));
        assert_eq!(b_restricted.tower(1), b_full.tower(1));
        // The last towers must be the P towers of the full key.
        let full_towers = b_full.tower_count();
        assert_eq!(
            b_restricted.tower(level + 1),
            b_full.tower(full_towers - c.params().aux_tower_count())
        );
    }

    #[test]
    fn rotation_keys_generated_per_step() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let keygen = KeyGenerator::new(c.clone());
        let sk = keygen.secret_key(&mut rng);
        let keys = keygen.rotation_keys(&mut rng, &sk, &[1, 2, 4]);
        assert_eq!(keys.len(), 3);
        assert_eq!(keys[&2].kind(), EvaluationKeyKind::Rotation(2));
    }
}
