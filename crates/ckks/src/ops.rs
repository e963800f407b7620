//! Homomorphic operations: addition, multiplication with relinearization,
//! rescaling, and slot rotation.
//!
//! Multiplication and rotation both end in a hybrid key switch; these are the
//! call sites whose dataflow the CiFlow analysis optimizes.

use crate::ciphertext::{Ciphertext, TripleCiphertext};
use crate::context::CkksContext;
use crate::galois::{apply_galois, rotation_galois_element};
use crate::keys::{EvaluationKey, EvaluationKeyKind};
use crate::keyswitch::hybrid_key_switch;
use hemath::poly::{Representation, RnsPolynomial};

/// Errors raised by homomorphic operations.
#[derive(Debug, Clone, PartialEq)]
pub enum OpsError {
    /// The operands are at different levels.
    LevelMismatch {
        /// Level of the left operand.
        left: usize,
        /// Level of the right operand.
        right: usize,
    },
    /// The operand scales differ by more than a factor of two.
    ScaleMismatch {
        /// Scale of the left operand.
        left: f64,
        /// Scale of the right operand.
        right: f64,
    },
    /// The ciphertext has no tower left to rescale away.
    CannotRescale,
    /// The supplied key does not match the requested operation.
    WrongKey {
        /// What the operation needed.
        expected: &'static str,
        /// What was supplied.
        found: EvaluationKeyKind,
    },
}

impl std::fmt::Display for OpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpsError::LevelMismatch { left, right } => {
                write!(f, "ciphertext levels differ: {left} vs {right}")
            }
            OpsError::ScaleMismatch { left, right } => {
                write!(f, "ciphertext scales differ: {left} vs {right}")
            }
            OpsError::CannotRescale => write!(f, "ciphertext is already at level 0"),
            OpsError::WrongKey { expected, found } => {
                write!(f, "expected a {expected} key, found {found:?}")
            }
        }
    }
}

impl std::error::Error for OpsError {}

fn check_binary(a: &Ciphertext, b: &Ciphertext) -> Result<(), OpsError> {
    if a.level != b.level {
        return Err(OpsError::LevelMismatch {
            left: a.level,
            right: b.level,
        });
    }
    let ratio = a.scale / b.scale;
    if !(0.5..=2.0).contains(&ratio) {
        return Err(OpsError::ScaleMismatch {
            left: a.scale,
            right: b.scale,
        });
    }
    Ok(())
}

/// Homomorphic addition.
///
/// # Errors
///
/// Returns [`OpsError::LevelMismatch`] or [`OpsError::ScaleMismatch`] when the
/// operands are incompatible.
pub fn add(a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, OpsError> {
    check_binary(a, b)?;
    Ok(Ciphertext {
        c0: a.c0.add(&b.c0).expect("same basis"),
        c1: a.c1.add(&b.c1).expect("same basis"),
        scale: a.scale.max(b.scale),
        level: a.level,
    })
}

/// Homomorphic subtraction.
///
/// # Errors
///
/// Same as [`add`].
pub fn sub(a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, OpsError> {
    check_binary(a, b)?;
    Ok(Ciphertext {
        c0: a.c0.sub(&b.c0).expect("same basis"),
        c1: a.c1.sub(&b.c1).expect("same basis"),
        scale: a.scale.max(b.scale),
        level: a.level,
    })
}

/// Multiplies two ciphertexts without relinearizing, returning the
/// three-component result.
///
/// # Errors
///
/// Same as [`add`].
fn multiply_raw(a: &Ciphertext, b: &Ciphertext) -> Result<TripleCiphertext, OpsError> {
    check_binary(a, b)?;
    let d0 = a.c0.mul(&b.c0).expect("same basis");
    let mut d1 = a.c0.mul(&b.c1).expect("same basis");
    d1.add_assign(&a.c1.mul(&b.c0).expect("same basis"))
        .expect("same basis");
    let d2 = a.c1.mul(&b.c1).expect("same basis");
    Ok(TripleCiphertext {
        d0,
        d1,
        d2,
        scale: a.scale * b.scale,
        level: a.level,
    })
}

/// Relinearizes a three-component ciphertext back to two components using the
/// relinearization key (this is one hybrid key switch).
///
/// # Errors
///
/// Returns [`OpsError::WrongKey`] if the key is not a relinearization key.
pub fn relinearize(
    ctx: &CkksContext,
    triple: &TripleCiphertext,
    rlk: &EvaluationKey,
) -> Result<Ciphertext, OpsError> {
    if rlk.kind() != EvaluationKeyKind::Relinearization {
        return Err(OpsError::WrongKey {
            expected: "relinearization",
            found: rlk.kind(),
        });
    }
    let (k0, k1) = hybrid_key_switch(ctx, &triple.d2, triple.level, rlk);
    Ok(Ciphertext {
        c0: triple.d0.add(&k0).expect("same basis"),
        c1: triple.d1.add(&k1).expect("same basis"),
        scale: triple.scale,
        level: triple.level,
    })
}

/// Homomorphic multiplication with relinearization (no rescale).
///
/// # Errors
///
/// Returns the errors of [`add`] for incompatible operands and those of
/// [`relinearize`].
pub fn multiply(
    ctx: &CkksContext,
    a: &Ciphertext,
    b: &Ciphertext,
    rlk: &EvaluationKey,
) -> Result<Ciphertext, OpsError> {
    let triple = multiply_raw(a, b)?;
    relinearize(ctx, &triple, rlk)
}

/// Rescales the ciphertext by its last prime: drops one tower and divides the
/// scale by that prime, keeping the plaintext value unchanged.
///
/// # Errors
///
/// Returns [`OpsError::CannotRescale`] at level 0.
pub fn rescale(ctx: &CkksContext, ct: &Ciphertext) -> Result<Ciphertext, OpsError> {
    if ct.level == 0 {
        return Err(OpsError::CannotRescale);
    }
    let last = ct.level;
    let q_last = ctx.basis_q().moduli()[last];
    let new_level = ct.level - 1;
    let new_basis = ctx.basis_q_at_level(new_level);
    let rescale_poly = |poly: &RnsPolynomial| -> RnsPolynomial {
        let mut coeff = poly.clone();
        coeff.to_coefficient();
        let last_tower = coeff.tower(last).to_vec();
        let half = q_last.value() / 2;
        let mut towers = Vec::with_capacity(new_level + 1);
        for i in 0..=new_level {
            let qi = &ctx.basis_q().moduli()[i];
            let inv = qi.inv(qi.reduce(q_last.value()));
            let inv_shoup = qi.shoup(inv);
            let tower: Vec<u64> = coeff
                .tower(i)
                .iter()
                .zip(&last_tower)
                .map(|(&c, &c_last)| {
                    // Centre-lift c_last into q_i before subtracting so the
                    // rounding error stays at most 1/2.
                    let lifted = if c_last > half {
                        qi.neg(qi.reduce(q_last.value() - c_last))
                    } else {
                        qi.reduce(c_last)
                    };
                    qi.mul_shoup(qi.sub(c, lifted), inv, inv_shoup)
                })
                .collect();
            towers.push(tower);
        }
        let mut out =
            RnsPolynomial::from_towers(new_basis.clone(), towers, Representation::Coefficient);
        out.to_evaluation();
        out
    };
    Ok(Ciphertext {
        c0: rescale_poly(&ct.c0),
        c1: rescale_poly(&ct.c1),
        scale: ct.scale / q_last.value() as f64,
        level: new_level,
    })
}

/// Rotates the message slots left by `steps` using the matching rotation key
/// (one Galois automorphism plus one hybrid key switch).
///
/// # Errors
///
/// Returns [`OpsError::WrongKey`] if the key was generated for a different
/// step count.
pub fn rotate(
    ctx: &CkksContext,
    ct: &Ciphertext,
    steps: i64,
    rotation_key: &EvaluationKey,
) -> Result<Ciphertext, OpsError> {
    match rotation_key.kind() {
        EvaluationKeyKind::Rotation(s) if s == steps => {}
        other => {
            return Err(OpsError::WrongKey {
                expected: "matching rotation",
                found: other,
            })
        }
    }
    let g = rotation_galois_element(steps, ct.ring_degree());
    let rotate_poly = |poly: &RnsPolynomial| -> RnsPolynomial {
        let mut coeff = poly.clone();
        coeff.to_coefficient();
        let mut rotated = apply_galois(&coeff, g);
        rotated.to_evaluation();
        rotated
    };
    let c0_rot = rotate_poly(&ct.c0);
    let c1_rot = rotate_poly(&ct.c1);
    // c1_rot is encrypted under σ_g(s); switch it back to s.
    let (k0, k1) = hybrid_key_switch(ctx, &c1_rot, ct.level, rotation_key);
    Ok(Ciphertext {
        c0: c0_rot.add(&k0).expect("same basis"),
        c1: k1,
        scale: ct.scale,
        level: ct.level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{CkksEncoder, Complex};
    use crate::encrypt::{decrypt, encrypt};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParametersBuilder;
    use rand::SeedableRng;
    use std::sync::Arc;

    struct Fixture {
        ctx: Arc<CkksContext>,
        encoder: CkksEncoder,
        keygen: KeyGenerator,
        rng: rand::rngs::StdRng,
    }

    fn fixture() -> Fixture {
        let params = CkksParametersBuilder::new()
            .ring_degree(1 << 8)
            .q_tower_bits(vec![50, 40, 40, 40])
            .p_tower_bits(vec![50, 50])
            .dnum(2)
            .scale_bits(40)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let encoder = CkksEncoder::new(ctx.params());
        let keygen = KeyGenerator::new(ctx.clone());
        Fixture {
            ctx,
            encoder,
            keygen,
            rng: rand::rngs::StdRng::seed_from_u64(2024),
        }
    }

    fn message_a(slots: usize) -> Vec<Complex> {
        (0..slots)
            .map(|i| Complex::new((i as f64 * 0.1).sin(), (i as f64 * 0.05).cos() * 0.5))
            .collect()
    }

    fn message_b(slots: usize) -> Vec<Complex> {
        (0..slots)
            .map(|i| Complex::new(0.3 + i as f64 * 0.002, -0.2))
            .collect()
    }

    fn max_error(expected: &[Complex], actual: &[Complex]) -> f64 {
        expected
            .iter()
            .zip(actual)
            .map(|(e, a)| e.distance(*a))
            .fold(0.0, f64::max)
    }

    #[test]
    fn homomorphic_addition_and_subtraction() {
        let mut f = fixture();
        let slots = f.encoder.slot_count();
        let (ma, mb) = (message_a(slots), message_b(slots));
        let scale = f.ctx.params().scale();
        let sk = f.keygen.secret_key(&mut f.rng);
        let pk = f.keygen.public_key(&mut f.rng, &sk);
        let cta = encrypt(
            &f.ctx,
            &mut f.rng,
            &pk,
            &f.encoder.encode(&ma, scale, f.ctx.basis_q().clone()),
        );
        let ctb = encrypt(
            &f.ctx,
            &mut f.rng,
            &pk,
            &f.encoder.encode(&mb, scale, f.ctx.basis_q().clone()),
        );
        let sum = add(&cta, &ctb).unwrap();
        let diff = sub(&cta, &ctb).unwrap();
        let dec_sum = f.encoder.decode(&decrypt(&f.ctx, &sk, &sum));
        let dec_diff = f.encoder.decode(&decrypt(&f.ctx, &sk, &diff));
        let expected_sum: Vec<Complex> = ma.iter().zip(&mb).map(|(a, b)| a.add(*b)).collect();
        let expected_diff: Vec<Complex> = ma.iter().zip(&mb).map(|(a, b)| a.sub(*b)).collect();
        assert!(max_error(&expected_sum, &dec_sum) < 1e-3);
        assert!(max_error(&expected_diff, &dec_diff) < 1e-3);
    }

    #[test]
    fn homomorphic_multiplication_with_relinearization_and_rescale() {
        let mut f = fixture();
        let slots = f.encoder.slot_count();
        let (ma, mb) = (message_a(slots), message_b(slots));
        let scale = f.ctx.params().scale();
        let sk = f.keygen.secret_key(&mut f.rng);
        let pk = f.keygen.public_key(&mut f.rng, &sk);
        let rlk = f.keygen.relinearization_key(&mut f.rng, &sk);
        let cta = encrypt(
            &f.ctx,
            &mut f.rng,
            &pk,
            &f.encoder.encode(&ma, scale, f.ctx.basis_q().clone()),
        );
        let ctb = encrypt(
            &f.ctx,
            &mut f.rng,
            &pk,
            &f.encoder.encode(&mb, scale, f.ctx.basis_q().clone()),
        );
        let prod = multiply(&f.ctx, &cta, &ctb, &rlk).unwrap();
        assert_eq!(prod.level, f.ctx.params().max_level());
        let rescaled = rescale(&f.ctx, &prod).unwrap();
        assert_eq!(rescaled.level, f.ctx.params().max_level() - 1);
        let expected: Vec<Complex> = ma.iter().zip(&mb).map(|(a, b)| a.mul(*b)).collect();
        let decoded = f.encoder.decode(&decrypt(&f.ctx, &sk, &rescaled));
        let err = max_error(&expected, &decoded);
        assert!(err < 1e-2, "multiplication error too large: {err}");
    }

    #[test]
    fn rotation_rotates_slots_left() {
        let mut f = fixture();
        let slots = f.encoder.slot_count();
        let ma = message_a(slots);
        let scale = f.ctx.params().scale();
        let sk = f.keygen.secret_key(&mut f.rng);
        let pk = f.keygen.public_key(&mut f.rng, &sk);
        for steps in [1i64, 3, 8] {
            let rot_key = f.keygen.rotation_key(&mut f.rng, &sk, steps);
            let ct = encrypt(
                &f.ctx,
                &mut f.rng,
                &pk,
                &f.encoder.encode(&ma, scale, f.ctx.basis_q().clone()),
            );
            let rotated = rotate(&f.ctx, &ct, steps, &rot_key).unwrap();
            let decoded = f.encoder.decode(&decrypt(&f.ctx, &sk, &rotated));
            let expected: Vec<Complex> = (0..slots)
                .map(|i| ma[(i + steps as usize) % slots])
                .collect();
            let err = max_error(&expected, &decoded);
            assert!(err < 1e-3, "rotation by {steps}: error {err}");
        }
    }

    #[test]
    fn multiplication_then_rotation_at_lower_level() {
        let mut f = fixture();
        let slots = f.encoder.slot_count();
        let (ma, mb) = (message_a(slots), message_b(slots));
        let scale = f.ctx.params().scale();
        let sk = f.keygen.secret_key(&mut f.rng);
        let pk = f.keygen.public_key(&mut f.rng, &sk);
        let rlk = f.keygen.relinearization_key(&mut f.rng, &sk);
        let rot_key = f.keygen.rotation_key(&mut f.rng, &sk, 2);
        let cta = encrypt(
            &f.ctx,
            &mut f.rng,
            &pk,
            &f.encoder.encode(&ma, scale, f.ctx.basis_q().clone()),
        );
        let ctb = encrypt(
            &f.ctx,
            &mut f.rng,
            &pk,
            &f.encoder.encode(&mb, scale, f.ctx.basis_q().clone()),
        );
        let prod = rescale(&f.ctx, &multiply(&f.ctx, &cta, &ctb, &rlk).unwrap()).unwrap();
        let rotated = rotate(&f.ctx, &prod, 2, &rot_key).unwrap();
        let decoded = f.encoder.decode(&decrypt(&f.ctx, &sk, &rotated));
        let expected: Vec<Complex> = (0..slots)
            .map(|i| {
                let j = (i + 2) % slots;
                ma[j].mul(mb[j])
            })
            .collect();
        let err = max_error(&expected, &decoded);
        assert!(err < 2e-2, "mult+rotate error too large: {err}");
    }

    #[test]
    fn error_conditions_are_reported() {
        let mut f = fixture();
        let slots = f.encoder.slot_count();
        let ma = message_a(slots);
        let scale = f.ctx.params().scale();
        let sk = f.keygen.secret_key(&mut f.rng);
        let pk = f.keygen.public_key(&mut f.rng, &sk);
        let rlk = f.keygen.relinearization_key(&mut f.rng, &sk);
        let rot1 = f.keygen.rotation_key(&mut f.rng, &sk, 1);
        let ct = encrypt(
            &f.ctx,
            &mut f.rng,
            &pk,
            &f.encoder.encode(&ma, scale, f.ctx.basis_q().clone()),
        );
        let lower = rescale(&f.ctx, &multiply(&f.ctx, &ct, &ct, &rlk).unwrap()).unwrap();
        assert!(matches!(
            add(&ct, &lower),
            Err(OpsError::LevelMismatch { .. })
        ));
        assert!(matches!(
            rotate(&f.ctx, &ct, 2, &rot1),
            Err(OpsError::WrongKey { .. })
        ));
        // Rescaling to level 0 then once more must fail.
        let mut current = ct;
        while current.level > 0 {
            current = rescale(&f.ctx, &current).unwrap();
        }
        assert_eq!(
            rescale(&f.ctx, &current).unwrap_err(),
            OpsError::CannotRescale
        );
    }
}
