//! Property-based tests of the arithmetic substrate: algebraic laws that must
//! hold for arbitrary inputs, checked with proptest.

use hemath::basis::{exact_crt_residue, BasisConverter};
use hemath::bigint::UBig;
use hemath::modulus::Modulus;
use hemath::ntt::{negacyclic_multiply_schoolbook, NttTable};
use hemath::poly::{Representation, RnsBasis, RnsPolynomial};
use hemath::primes::{generate_ntt_primes, is_prime};
use proptest::prelude::*;
use std::sync::Arc;

/// A strategy producing valid (prime-friendly) moduli for quick arithmetic
/// checks: a mix of small primes and generated NTT primes.
fn arb_modulus() -> impl Strategy<Value = Modulus> {
    prop_oneof![
        Just(Modulus::new(65537).unwrap()),
        Just(Modulus::new(0x3fff_ffff_ffe8_0001).unwrap()),
        Just(Modulus::new(1152921504598720513).unwrap()),
        Just(Modulus::new(2013265921).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn modular_ring_axioms(m in arb_modulus(), a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (m.reduce(a), m.reduce(b), m.reduce(c));
        // Commutativity.
        prop_assert_eq!(m.add(a, b), m.add(b, a));
        prop_assert_eq!(m.mul(a, b), m.mul(b, a));
        // Associativity.
        prop_assert_eq!(m.add(m.add(a, b), c), m.add(a, m.add(b, c)));
        prop_assert_eq!(m.mul(m.mul(a, b), c), m.mul(a, m.mul(b, c)));
        // Distributivity.
        prop_assert_eq!(m.mul(a, m.add(b, c)), m.add(m.mul(a, b), m.mul(a, c)));
        // Additive inverse and subtraction consistency.
        prop_assert_eq!(m.add(a, m.neg(a)), 0);
        prop_assert_eq!(m.sub(a, b), m.add(a, m.neg(b)));
        // Reference check against u128 arithmetic.
        let q = m.value() as u128;
        prop_assert_eq!(m.mul(a, b) as u128, (a as u128 * b as u128) % q);
    }

    #[test]
    fn modular_inverse_and_exponentiation(m in arb_modulus(), a in 1u64..u64::MAX) {
        let a = m.reduce(a);
        prop_assume!(a != 0);
        let inv = m.inv(a);
        prop_assert_eq!(m.mul(a, inv), 1);
        // Fermat: a^(q-1) = 1 for prime q.
        prop_assert_eq!(m.pow(a, m.value() - 1), 1);
        // Shoup multiplication agrees with plain multiplication.
        let w = m.reduce(a.rotate_left(7));
        prop_assert_eq!(m.mul_shoup(a, w, m.shoup(w)), m.mul(a, w));
    }

    #[test]
    fn barrett_reduction_matches_reference(m in arb_modulus(), hi in any::<u64>(), lo in any::<u64>()) {
        // Restrict to < q^2 which is the documented domain.
        let q = m.value() as u128;
        let x = ((hi as u128) << 64 | lo as u128) % (q * q);
        prop_assert_eq!(m.reduce_u128(x) as u128, x % q);
    }

    #[test]
    fn ubig_mul_add_matches_u128(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let big = UBig::from_u64(a).mul(&UBig::from_u64(b)).add(&UBig::from_u64(c));
        prop_assert_eq!(big.to_u128(), Some(a as u128 * b as u128 + c as u128));
    }

    #[test]
    fn ubig_div_rem_reconstructs(a0 in any::<u64>(), a1 in any::<u64>(), d in 1u64..u64::MAX) {
        let value = UBig::from_u128(((a1 as u128) << 64) | a0 as u128);
        let divisor = UBig::from_u64(d);
        let (q, r) = value.div_rem(&divisor);
        prop_assert!(r < divisor);
        prop_assert_eq!(value.rem_u64(d), r.to_u128().unwrap() as u64);
        prop_assert_eq!(q.mul(&divisor).add(&r), value);
    }

    #[test]
    fn primality_of_products_is_rejected(a in 2u64..1_000_000, b in 2u64..1_000_000) {
        prop_assert!(!is_prime(a.saturating_mul(b)));
    }
}

/// Multiplies two polynomials in `Z_q[X]/(X^N+1)` through the NTT: both
/// operands forward, pointwise products, one inverse.
fn negacyclic_multiply(table: &NttTable, a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut fa = a.to_vec();
    let mut fb = b.to_vec();
    table.forward(&mut fa);
    table.forward(&mut fb);
    let q = table.modulus();
    for (x, y) in fa.iter_mut().zip(fb.iter()) {
        *x = q.mul(*x, *y);
    }
    table.inverse(&mut fa);
    fa
}

/// Strategies for ring-level properties (fixed small degree for speed).
fn ring_setup(towers: usize) -> (Arc<RnsBasis>, usize) {
    let n = 64usize;
    let primes = generate_ntt_primes(40, n, towers, &[]).unwrap();
    let moduli = primes
        .into_iter()
        .map(|q| Modulus::new(q).unwrap())
        .collect();
    (Arc::new(RnsBasis::new(n, moduli).unwrap()), n)
}

fn arb_poly(basis: Arc<RnsBasis>) -> impl Strategy<Value = RnsPolynomial> {
    let n = basis.degree();
    let moduli: Vec<u64> = basis.moduli().iter().map(hemath::Modulus::value).collect();
    proptest::collection::vec(any::<u64>(), n * moduli.len()).prop_map(move |raw| {
        let towers: Vec<Vec<u64>> = moduli
            .iter()
            .enumerate()
            .map(|(i, &q)| raw[i * n..(i + 1) * n].iter().map(|&x| x % q).collect())
            .collect();
        RnsPolynomial::from_towers(basis.clone(), towers, Representation::Coefficient)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ntt_round_trip_and_convolution_theorem(seed in any::<u64>()) {
        let n = 128usize;
        let q = generate_ntt_primes(45, n, 1, &[]).unwrap()[0];
        let table = NttTable::new(n, Modulus::new(q).unwrap()).unwrap();
        // Deterministic pseudo-random polynomials derived from the seed.
        let gen = |salt: u64| -> Vec<u64> {
            (0..n as u64).map(|i| {
                let x = seed.wrapping_mul(6364136223846793005).wrapping_add(salt.wrapping_mul(1442695040888963407).wrapping_add(i));
                x % q
            }).collect()
        };
        let a = gen(1);
        let b = gen(2);
        // Round trip.
        let mut t = a.clone();
        table.forward(&mut t);
        table.inverse(&mut t);
        prop_assert_eq!(&t, &a);
        // Convolution theorem: NTT multiplication equals schoolbook negacyclic.
        let fast = negacyclic_multiply(&table, &a, &b);
        let slow = negacyclic_multiply_schoolbook(table.modulus(), &a, &b);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn rns_polynomials_form_a_commutative_ring(seed in any::<u64>()) {
        let (basis, _) = ring_setup(3);
        use proptest::strategy::ValueTree;
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let strategy = (arb_poly(basis.clone()), arb_poly(basis.clone()), arb_poly(basis.clone()));
        let tree = strategy.new_tree(&mut runner).unwrap();
        let (a, b, c) = tree.current();
        let _ = seed; // the polynomials are already pseudo-random; seed keeps cases distinct
        // Addition laws in coefficient domain.
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
        prop_assert_eq!(a.add(&b).unwrap().add(&c).unwrap(), a.add(&b.add(&c).unwrap()).unwrap());
        prop_assert_eq!(a.sub(&a).unwrap(), RnsPolynomial::zero(basis.clone(), Representation::Coefficient));
        // Multiplication laws in evaluation domain.
        let (mut ae, mut be, mut ce) = (a.clone(), b.clone(), c.clone());
        ae.to_evaluation();
        be.to_evaluation();
        ce.to_evaluation();
        prop_assert_eq!(ae.mul(&be).unwrap(), be.mul(&ae).unwrap());
        let left = ae.mul(&be.add(&ce).unwrap()).unwrap();
        let right = ae.mul(&be).unwrap().add(&ae.mul(&ce).unwrap()).unwrap();
        prop_assert_eq!(left, right);
        // NTT is a ring isomorphism: (a*b) in eval domain equals negacyclic
        // convolution in coefficient domain (checked per tower above; here we
        // just check the round trip through representations).
        let mut back = ae.clone();
        back.to_coefficient();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn basis_conversion_overshoot_is_a_small_multiple_of_q(coeff_seed in any::<u64>()) {
        let n = 16usize;
        let qs = generate_ntt_primes(38, n, 3, &[]).unwrap();
        let ps = generate_ntt_primes(39, n, 2, &qs).unwrap();
        let to_mod = |v: &[u64]| v.iter().map(|&q| Modulus::new(q).unwrap()).collect::<Vec<_>>();
        let source = Arc::new(RnsBasis::new(n, to_mod(&qs)).unwrap());
        let target = Arc::new(RnsBasis::new(n, to_mod(&ps)).unwrap());
        let converter = BasisConverter::new(source.clone(), target.clone());
        let towers: Vec<Vec<u64>> = source
            .moduli()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (0..n as u64)
                    .map(|c| coeff_seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(c * 31 + i as u64 * 7) % m.value())
                    .collect()
            })
            .collect();
        let converted = converter.convert_towers(&towers);
        for (j, pj) in target.moduli().iter().enumerate() {
            let q_mod_p = source
                .moduli()
                .iter()
                .fold(1u64, |acc, q| pj.mul(acc, pj.reduce(q.value())));
            for c in 0..n {
                let residues: Vec<u64> = (0..source.tower_count()).map(|i| towers[i][c]).collect();
                let exact = exact_crt_residue(&residues, source.moduli(), pj);
                let ok = (0..=source.tower_count() as u64)
                    .any(|e| pj.add(exact, pj.mul(pj.reduce(e), q_mod_p)) == converted[j][c]);
                prop_assert!(ok, "overshoot outside [0, ell] at coefficient {}", c);
            }
        }
    }
}
