//! Galois automorphisms of the cyclotomic ring.
//!
//! The automorphism `σ_g : X ↦ X^g` (for odd `g` coprime to `2N`) permutes the
//! CKKS message slots. With the power-of-five slot ordering used by the
//! encoder, `g = 5^r mod 2N` rotates the slots left by `r`, and `g = 2N - 1`
//! conjugates them. Rotations change the key from `s` to `σ_g(s)`, which is
//! why every homomorphic rotation is followed by a key switch.

use hemath::poly::{Representation, RnsPolynomial};

/// Returns the Galois element `5^steps mod 2N` that rotates the message slots
/// left by `steps` positions (negative steps rotate right).
pub fn rotation_galois_element(steps: i64, ring_degree: usize) -> u64 {
    let m = 2 * ring_degree as u64;
    let slots = ring_degree as i64 / 2;
    let steps = steps.rem_euclid(slots) as u64;
    let mut g = 1u64;
    for _ in 0..steps {
        g = (g * 5) % m;
    }
    g
}

/// Applies the automorphism `X ↦ X^g` to a coefficient-domain polynomial.
///
/// # Panics
///
/// Panics if the polynomial is in the evaluation domain (apply the
/// automorphism before the NTT, or convert first), or if `g` is even.
pub fn apply_galois(poly: &RnsPolynomial, galois_element: u64) -> RnsPolynomial {
    assert_eq!(
        poly.representation(),
        Representation::Coefficient,
        "galois automorphism expects the coefficient domain"
    );
    assert!(galois_element % 2 == 1, "galois element must be odd");
    let n = poly.degree();
    let m = 2 * n as u64;
    let g = galois_element % m;
    let mut out = RnsPolynomial::zero(poly.basis().clone(), Representation::Coefficient);
    for t in 0..poly.tower_count() {
        let modulus = poly.basis().moduli()[t];
        let src = poly.tower(t);
        let dst = out.tower_mut(t);
        for (i, &coeff) in src.iter().enumerate() {
            let target = (i as u64 * g) % m;
            if target < n as u64 {
                dst[target as usize] = modulus.add(dst[target as usize], coeff);
            } else {
                let idx = (target - n as u64) as usize;
                dst[idx] = modulus.sub(dst[idx], coeff);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemath::modulus::Modulus;
    use hemath::poly::RnsBasis;
    use hemath::primes::generate_ntt_primes;
    use std::sync::Arc;

    fn basis(n: usize, towers: usize) -> Arc<RnsBasis> {
        let primes = generate_ntt_primes(40, n, towers, &[]).unwrap();
        let moduli = primes
            .into_iter()
            .map(|q| Modulus::new(q).unwrap())
            .collect();
        Arc::new(RnsBasis::new(n, moduli).unwrap())
    }

    #[test]
    fn galois_element_of_zero_steps_is_identity() {
        assert_eq!(rotation_galois_element(0, 1 << 10), 1);
    }

    #[test]
    fn galois_elements_are_odd_and_periodic() {
        let n = 1usize << 8;
        let slots = n as i64 / 2;
        for steps in [1i64, 2, 5, -1, -3] {
            let g = rotation_galois_element(steps, n);
            assert_eq!(g % 2, 1);
            assert_eq!(g, rotation_galois_element(steps + slots, n));
        }
    }

    #[test]
    fn identity_automorphism_preserves_polynomial() {
        let b = basis(64, 2);
        let mut p = RnsPolynomial::zero(b, Representation::Coefficient);
        p.tower_mut(0)[3] = 17;
        p.tower_mut(1)[60] = 23;
        let q = apply_galois(&p, 1);
        assert_eq!(p, q);
    }

    #[test]
    fn automorphism_composition_matches_product_of_elements() {
        let n = 64;
        let b = basis(n, 2);
        let mut p = RnsPolynomial::zero(b, Representation::Coefficient);
        for i in 0..n {
            p.tower_mut(0)[i] = (i as u64 * 7 + 1) % 97;
            p.tower_mut(1)[i] = (i as u64 * 13 + 5) % 89;
        }
        let g1 = 5u64;
        let g2 = 25u64;
        let once = apply_galois(&apply_galois(&p, g1), g1);
        let twice = apply_galois(&p, g2);
        assert_eq!(once, twice);
    }

    #[test]
    fn automorphism_maps_monomials_with_sign() {
        // X^1 under X -> X^g becomes X^g, and wraps negatively past X^N.
        let n = 16;
        let b = basis(n, 1);
        let q = b.moduli()[0];
        let mut p = RnsPolynomial::zero(b.clone(), Representation::Coefficient);
        p.tower_mut(0)[1] = 1;
        // g = 2N-1: X -> X^{2N-1} = X^{-1} = -X^{N-1}
        let conj = apply_galois(&p, 2 * n as u64 - 1);
        let mut expected = RnsPolynomial::zero(b, Representation::Coefficient);
        expected.tower_mut(0)[n - 1] = q.neg(1);
        assert_eq!(conj, expected);
    }

    #[test]
    #[should_panic(expected = "coefficient domain")]
    fn evaluation_domain_rejected() {
        let b = basis(16, 1);
        let mut p = RnsPolynomial::zero(b, Representation::Coefficient);
        p.to_evaluation();
        let _ = apply_galois(&p, 5);
    }
}
