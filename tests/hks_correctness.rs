//! Cross-crate integration tests: the functional CKKS scheme (built on
//! `hemath`) computes correct results through operations that exercise hybrid
//! key switching end to end, and the Output-Centric decomposition used by the
//! scheduler computes the identical function.
//!
//! The schedule generators only reorder *when* each slice of work happens;
//! they assume that computing hybrid key switching one output tower at a time
//! yields the same ciphertext as the reference stage-by-stage implementation
//! in the `ckks` crate. [`output_centric_key_switch`] below proves that
//! assumption by computing the key switch output-tower-by-output-tower with
//! per-tower basis conversion slices and comparing against
//! [`ckks::keyswitch::hybrid_key_switch`] bit for bit.

use ciflow::CiflowError;
use ckks::context::CkksContext;
use ckks::encoding::{CkksEncoder, Complex};
use ckks::encrypt::{decrypt, encrypt};
use ckks::keys::{EvaluationKey, EvaluationKeyKind, KeyGenerator};
use ckks::ops;
use ckks::params::CkksParametersBuilder;
use hemath::basis::BasisConverter;
use hemath::poly::{Representation, RnsBasis, RnsPolynomial};
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

/// Hybrid key switching computed in Output-Centric order: one output tower at
/// a time, using a single-target basis-conversion slice per (digit, tower)
/// pair, exactly as the OC dataflow schedules it.
///
/// Returns `(k0, k1)` over the live `Q` towers, identical (bit for bit) to
/// the reference implementation.
///
/// # Errors
///
/// Returns [`CiflowError::InvalidConfig`] if `d` is not in the evaluation
/// domain over the live towers of `level`, or if the evaluation key's digit
/// count disagrees with the context parameters.
fn output_centric_key_switch(
    ctx: &CkksContext,
    d: &RnsPolynomial,
    level: usize,
    evk: &EvaluationKey,
) -> Result<(RnsPolynomial, RnsPolynomial), CiflowError> {
    if d.representation() != Representation::Evaluation {
        return Err(CiflowError::InvalidConfig {
            message: format!(
                "key-switch input must be in the evaluation domain, found {:?}",
                d.representation()
            ),
        });
    }
    if d.tower_count() != level + 1 {
        return Err(CiflowError::InvalidConfig {
            message: format!(
                "key-switch input has {} towers but level {level} requires {}",
                d.tower_count(),
                level + 1
            ),
        });
    }
    if evk.digit_count() != ctx.params().dnum() {
        return Err(CiflowError::InvalidConfig {
            message: format!(
                "evaluation key has {} digits but the parameters use dnum = {}",
                evk.digit_count(),
                ctx.params().dnum()
            ),
        });
    }
    let params = ctx.params();
    let n = params.ring_degree();
    let live_digits = params.live_digits(level);
    let k = params.aux_tower_count();
    let extended = level + 1 + k;

    // Precompute, per digit: the coefficient-domain (INTT'd) digit towers and
    // a single-target BasisConverter per extended output tower.
    let mut digit_coeffs: Vec<Vec<Vec<u64>>> = Vec::with_capacity(live_digits);
    for j in 0..live_digits {
        let range = params.digit_towers(j, level);
        let towers: Vec<Vec<u64>> = range
            .clone()
            .map(|i| {
                let mut tower = d.tower(i).to_vec();
                ctx.basis_q().ntt_table(i).inverse(&mut tower);
                tower
            })
            .collect();
        digit_coeffs.push(towers);
    }

    // Per-digit evk restricted to the level.
    let evk_digits: Vec<_> = (0..live_digits)
        .map(|j| evk.digit_at_level(ctx, j, level))
        .collect();

    // Accumulators over the extended basis, filled one tower at a time.
    let mut acc0_towers: Vec<Vec<u64>> = Vec::with_capacity(extended);
    let mut acc1_towers: Vec<Vec<u64>> = Vec::with_capacity(extended);

    // Modulus of extended-basis tower index `t`.
    let tower_modulus = |t: usize| {
        if t <= level {
            ctx.basis_q().moduli()[t]
        } else {
            ctx.basis_p().moduli()[t - level - 1]
        }
    };
    let tower_basis = |t: usize| -> Arc<RnsBasis> {
        if t <= level {
            Arc::new(ctx.basis_q().subset(&[t]))
        } else {
            Arc::new(ctx.basis_p().subset(&[t - level - 1]))
        }
    };

    for t in 0..extended {
        let modulus = tower_modulus(t);
        let mut acc0 = vec![0u64; n];
        let mut acc1 = vec![0u64; n];
        for j in 0..live_digits {
            let range = params.digit_towers(j, level);
            // D_j[t]: the bypassed original tower when t belongs to digit j,
            // otherwise a one-tower basis-conversion slice followed by an NTT.
            let d_tower: Vec<u64> = if t <= level && range.contains(&t) {
                d.tower(t).to_vec()
            } else {
                let digit_indices: Vec<usize> = range.clone().collect();
                let source = Arc::new(ctx.basis_q().subset(&digit_indices));
                let target = tower_basis(t);
                let converter = BasisConverter::new(source, target);
                let mut slice = converter.convert_towers(&digit_coeffs[j]).remove(0);
                if t <= level {
                    ctx.basis_q().ntt_table(t).forward(&mut slice);
                } else {
                    ctx.basis_p().ntt_table(t - level - 1).forward(&mut slice);
                }
                slice
            };
            // Apply the evk towers and accumulate (ModUp P4 + P5 for this
            // single output tower).
            let (b_j, a_j) = &evk_digits[j];
            let b_tower = b_j.tower(t);
            let a_tower = a_j.tower(t);
            for c in 0..n {
                acc0[c] = modulus.mul_add(d_tower[c], b_tower[c], acc0[c]);
                acc1[c] = modulus.mul_add(d_tower[c], a_tower[c], acc1[c]);
            }
        }
        acc0_towers.push(acc0);
        acc1_towers.push(acc1);
    }

    // ModDown (reference implementation): assemble the extended polynomials
    // and reduce. The OC ordering of ModDown is a pure reordering of the same
    // per-tower arithmetic, so reusing the reference here keeps the
    // comparison focused on the ModUp decomposition.
    let extended_basis = ctx.basis_qp_at_level(level);
    let acc0 = RnsPolynomial::from_towers(
        extended_basis.clone(),
        acc0_towers,
        Representation::Evaluation,
    );
    let acc1 = RnsPolynomial::from_towers(extended_basis, acc1_towers, Representation::Evaluation);
    let k0 = ckks::keyswitch::moddown(ctx, &acc0, level);
    let k1 = ckks::keyswitch::moddown(ctx, &acc1, level);
    Ok((k0, k1))
}

fn tower_context(dnum: usize, towers: usize) -> Arc<CkksContext> {
    let params = CkksParametersBuilder::new()
        .ring_degree(1 << 7)
        .q_tower_bits(vec![36; towers])
        .p_tower_bits(vec![45, 45])
        .dnum(dnum)
        .scale_bits(36)
        .build()
        .unwrap();
    CkksContext::new(params).unwrap()
}

#[test]
fn output_centric_matches_reference_bit_for_bit() {
    for (dnum, towers) in [(1usize, 2usize), (2, 4), (3, 6)] {
        let ctx = tower_context(dnum, towers);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31 + dnum as u64);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let sk_prime = keygen.secret_key(&mut rng);
        let ksk = keygen.key_switching_key(
            &mut rng,
            &sk,
            &sk_prime.evaluation_form_qp(),
            EvaluationKeyKind::Relinearization,
        );
        let level = ctx.params().max_level();
        let d = sample_uniform(
            &mut rng,
            ctx.basis_q_at_level(level),
            Representation::Evaluation,
        );
        let (ref0, ref1) = ckks::keyswitch::hybrid_key_switch(&ctx, &d, level, &ksk);
        let (oc0, oc1) = output_centric_key_switch(&ctx, &d, level, &ksk).unwrap();
        assert_eq!(ref0, oc0, "dnum={dnum}: c0 mismatch");
        assert_eq!(ref1, oc1, "dnum={dnum}: c1 mismatch");
    }
}

#[test]
fn invalid_inputs_yield_typed_errors() {
    let ctx = tower_context(2, 4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let sk_prime = keygen.secret_key(&mut rng);
    let ksk = keygen.key_switching_key(
        &mut rng,
        &sk,
        &sk_prime.evaluation_form_qp(),
        EvaluationKeyKind::Relinearization,
    );
    let level = ctx.params().max_level();
    // Wrong representation: coefficient-domain input.
    let d = sample_uniform(
        &mut rng,
        ctx.basis_q_at_level(level),
        Representation::Coefficient,
    );
    let err = output_centric_key_switch(&ctx, &d, level, &ksk).unwrap_err();
    assert!(matches!(err, CiflowError::InvalidConfig { .. }), "{err}");
    // Wrong tower count for the level.
    let d = sample_uniform(
        &mut rng,
        ctx.basis_q_at_level(level - 1),
        Representation::Evaluation,
    );
    let err = output_centric_key_switch(&ctx, &d, level, &ksk).unwrap_err();
    assert!(err.to_string().contains("towers"), "{err}");
}

#[test]
fn output_centric_matches_reference_at_lower_level() {
    let ctx = tower_context(3, 6);
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let sk_prime = keygen.secret_key(&mut rng);
    let ksk = keygen.key_switching_key(
        &mut rng,
        &sk,
        &sk_prime.evaluation_form_qp(),
        EvaluationKeyKind::Relinearization,
    );
    for level in [1usize, 3] {
        let d = sample_uniform(
            &mut rng,
            ctx.basis_q_at_level(level),
            Representation::Evaluation,
        );
        let (ref0, ref1) = ckks::keyswitch::hybrid_key_switch(&ctx, &d, level, &ksk);
        let (oc0, oc1) = output_centric_key_switch(&ctx, &d, level, &ksk).unwrap();
        assert_eq!(ref0, oc0, "level={level}");
        assert_eq!(ref1, oc1, "level={level}");
    }
}
