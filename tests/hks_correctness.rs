//! Cross-crate integration tests: the functional CKKS scheme (built on
//! `hemath`) computes correct results through operations that exercise hybrid
//! key switching end to end, and the Output-Centric decomposition used by the
//! scheduler computes the identical function.

use ciflow::functional::output_centric_key_switch;
use ckks::context::CkksContext;
use ckks::encoding::{CkksEncoder, Complex};
use ckks::encrypt::{decrypt, encrypt};
use ckks::keys::{EvaluationKeyKind, KeyGenerator};
use ckks::ops;
use ckks::params::CkksParametersBuilder;
use hemath::poly::Representation;
use hemath::sampler::sample_uniform;
use rand::SeedableRng;
use std::sync::Arc;

fn context(ring_degree: usize, dnum: usize) -> Arc<CkksContext> {
    CkksParametersBuilder::new()
        .ring_degree(ring_degree)
        .q_tower_bits(vec![50, 40, 40, 40])
        .p_tower_bits(vec![50, 50])
        .dnum(dnum)
        .scale_bits(40)
        .build()
        .map(CkksContext::new)
        .unwrap()
        .unwrap()
}

fn max_error(expected: &[Complex], actual: &[Complex]) -> f64 {
    expected
        .iter()
        .zip(actual)
        .map(|(e, a)| e.distance(*a))
        .fold(0.0, f64::max)
}

#[test]
fn dot_product_via_rotations_and_multiplications() {
    // Compute the sliding sum x[i] + x[i+1] + x[i+2] homomorphically using
    // two rotations and additions, then square it — a miniature version of
    // the convolution pattern that makes key switching dominant in private
    // inference.
    let ctx = context(1 << 9, 2);
    let encoder = CkksEncoder::new(ctx.params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let pk = keygen.public_key(&mut rng, &sk);
    let rlk = keygen.relinearization_key(&mut rng, &sk);
    let rot_keys = keygen.rotation_keys(&mut rng, &sk, &[1, 2]);

    let slots = encoder.slot_count();
    let x: Vec<f64> = (0..slots).map(|i| ((i % 7) as f64) * 0.1).collect();
    let pt = encoder.encode_real(&x, ctx.params().scale(), ctx.basis_q().clone());
    let ct = encrypt(&ctx, &mut rng, &pk, &pt);

    let r1 = ops::rotate(&ctx, &ct, 1, &rot_keys[&1]).unwrap();
    let r2 = ops::rotate(&ctx, &ct, 2, &rot_keys[&2]).unwrap();
    let window = ops::add(&ops::add(&ct, &r1).unwrap(), &r2).unwrap();
    let squared =
        ops::rescale(&ctx, &ops::multiply(&ctx, &window, &window, &rlk).unwrap()).unwrap();

    let decoded = encoder.decode(&decrypt(&ctx, &sk, &squared));
    let expected: Vec<Complex> = (0..slots)
        .map(|i| {
            let s = x[i] + x[(i + 1) % slots] + x[(i + 2) % slots];
            Complex::new(s * s, 0.0)
        })
        .collect();
    let err = max_error(&expected, &decoded);
    assert!(err < 5e-2, "sliding-window square error too large: {err}");
}

#[test]
fn repeated_rotations_accumulate_correctly() {
    // Rotating by 1 four times equals rotating by 4: exercises four chained
    // key switches and their accumulated noise.
    let ctx = context(1 << 9, 2);
    let encoder = CkksEncoder::new(ctx.params());
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let pk = keygen.public_key(&mut rng, &sk);
    let key1 = keygen.rotation_key(&mut rng, &sk, 1);

    let slots = encoder.slot_count();
    let x: Vec<f64> = (0..slots).map(|i| (i as f64 * 0.03).sin()).collect();
    let pt = encoder.encode_real(&x, ctx.params().scale(), ctx.basis_q().clone());
    let mut ct = encrypt(&ctx, &mut rng, &pk, &pt);
    for _ in 0..4 {
        ct = ops::rotate(&ctx, &ct, 1, &key1).unwrap();
    }
    let decoded = encoder.decode(&decrypt(&ctx, &sk, &ct));
    let expected: Vec<Complex> = (0..slots)
        .map(|i| Complex::new(x[(i + 4) % slots], 0.0))
        .collect();
    let err = max_error(&expected, &decoded);
    assert!(err < 1e-2, "chained rotation error too large: {err}");
}

#[test]
fn output_centric_key_switch_is_bit_identical_to_reference() {
    for dnum in [1usize, 2, 4] {
        let ctx = CkksParametersBuilder::new()
            .ring_degree(1 << 7)
            .q_tower_bits(vec![36; 2 * dnum])
            .p_tower_bits(vec![45, 45])
            .dnum(dnum)
            .scale_bits(36)
            .build()
            .map(CkksContext::new)
            .unwrap()
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7 + dnum as u64);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let other = keygen.secret_key(&mut rng);
        let ksk = keygen.key_switching_key(
            &mut rng,
            &sk,
            &other.evaluation_form_qp(),
            EvaluationKeyKind::Relinearization,
        );
        let level = ctx.params().max_level();
        let d = sample_uniform(
            &mut rng,
            ctx.basis_q_at_level(level),
            Representation::Evaluation,
        );
        let reference = ckks::keyswitch::hybrid_key_switch(&ctx, &d, level, &ksk);
        let oc = output_centric_key_switch(&ctx, &d, level, &ksk).unwrap();
        assert_eq!(reference.0, oc.0, "dnum={dnum}");
        assert_eq!(reference.1, oc.1, "dnum={dnum}");
    }
}
