//! Encryption and decryption.

use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::encoding::Plaintext;
use crate::keys::{PublicKey, SecretKey};
use hemath::sampler::{sample_error, sample_ternary};
use rand::Rng;

/// Encrypts a plaintext under the public key.
///
/// The fresh ciphertext is at the maximum level with the plaintext's scale.
pub fn encrypt<R: Rng + ?Sized>(
    ctx: &CkksContext,
    rng: &mut R,
    pk: &PublicKey,
    plaintext: &Plaintext,
) -> Ciphertext {
    let basis = ctx.basis_q().clone();
    let mut m = plaintext.poly.clone();
    assert!(
        m.basis().same_basis(&basis),
        "plaintext must be encoded over the full Q basis"
    );
    m.to_evaluation();
    let mut u = sample_ternary(rng, basis.clone(), None);
    u.to_evaluation();
    let mut e0 = sample_error(rng, basis.clone(), ctx.params().error_eta());
    e0.to_evaluation();
    let mut e1 = sample_error(rng, basis.clone(), ctx.params().error_eta());
    e1.to_evaluation();
    // c0 = b*u + e0 + m ; c1 = a*u + e1
    let mut c0 = pk.b.mul(&u).expect("same basis");
    c0.add_assign(&e0).expect("same basis");
    c0.add_assign(&m).expect("same basis");
    let mut c1 = pk.a.mul(&u).expect("same basis");
    c1.add_assign(&e1).expect("same basis");
    Ciphertext {
        c0,
        c1,
        scale: plaintext.scale,
        level: ctx.params().max_level(),
    }
}

/// Decrypts a ciphertext into a plaintext (`c0 + c1·s`).
pub fn decrypt(ctx: &CkksContext, sk: &SecretKey, ciphertext: &Ciphertext) -> Plaintext {
    let s = sk.evaluation_form_q(ctx, ciphertext.level);
    let mut m = ciphertext
        .c0
        .add(&ciphertext.c1.mul(&s).expect("same basis"))
        .expect("same basis");
    m.to_coefficient();
    Plaintext {
        poly: m,
        scale: ciphertext.scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{CkksEncoder, Complex};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParametersBuilder;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (
        Arc<CkksContext>,
        CkksEncoder,
        KeyGenerator,
        rand::rngs::StdRng,
    ) {
        let params = CkksParametersBuilder::new()
            .ring_degree(1 << 8)
            .q_tower_bits(vec![45, 36, 36, 36])
            .p_tower_bits(vec![45, 45])
            .dnum(2)
            .scale_bits(36)
            .build()
            .unwrap();
        let ctx = CkksContext::new(params).unwrap();
        let encoder = CkksEncoder::new(ctx.params());
        let keygen = KeyGenerator::new(ctx.clone());
        let rng = rand::rngs::StdRng::seed_from_u64(99);
        (ctx, encoder, keygen, rng)
    }

    fn ramp(encoder: &CkksEncoder) -> Vec<Complex> {
        (0..encoder.slot_count())
            .map(|i| Complex::new(i as f64 * 0.01 - 0.5, (i as f64 * 0.02).cos()))
            .collect()
    }

    /// Returns an upper bound on the decryption noise of a ciphertext that
    /// encrypts `expected` (in slot space): the maximum slot-wise distance.
    fn decryption_error(
        ctx: &CkksContext,
        encoder: &CkksEncoder,
        sk: &SecretKey,
        ciphertext: &Ciphertext,
        expected: &[Complex],
    ) -> f64 {
        let decoded = encoder.decode(&decrypt(ctx, sk, ciphertext));
        expected
            .iter()
            .zip(decoded.iter())
            .map(|(e, d)| e.distance(*d))
            .fold(0.0, f64::max)
    }

    #[test]
    fn public_key_encryption_round_trip() {
        let (ctx, encoder, keygen, mut rng) = setup();
        let sk = keygen.secret_key(&mut rng);
        let pk = keygen.public_key(&mut rng, &sk);
        let msg = ramp(&encoder);
        let pt = encoder.encode(&msg, ctx.params().scale(), ctx.basis_q().clone());
        let ct = encrypt(&ctx, &mut rng, &pk, &pt);
        let err = decryption_error(&ctx, &encoder, &sk, &ct, &msg);
        assert!(err < 1e-3, "decryption error too large: {err}");
    }

    #[test]
    fn decryption_with_wrong_key_fails() {
        let (ctx, encoder, keygen, mut rng) = setup();
        let sk = keygen.secret_key(&mut rng);
        let pk = keygen.public_key(&mut rng, &sk);
        let wrong = keygen.secret_key(&mut rng);
        let msg = ramp(&encoder);
        let pt = encoder.encode(&msg, ctx.params().scale(), ctx.basis_q().clone());
        let ct = encrypt(&ctx, &mut rng, &pk, &pt);
        let err = decryption_error(&ctx, &encoder, &wrong, &ct, &msg);
        assert!(err > 1.0, "wrong key should not decrypt: error {err}");
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let (ctx, encoder, keygen, mut rng) = setup();
        let sk = keygen.secret_key(&mut rng);
        let pk = keygen.public_key(&mut rng, &sk);
        let msg = ramp(&encoder);
        let pt = encoder.encode(&msg, ctx.params().scale(), ctx.basis_q().clone());
        let ct1 = encrypt(&ctx, &mut rng, &pk, &pt);
        let ct2 = encrypt(&ctx, &mut rng, &pk, &pt);
        assert_ne!(ct1.c0.tower(0), ct2.c0.tower(0));
    }
}
