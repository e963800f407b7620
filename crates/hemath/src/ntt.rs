//! Negacyclic number-theoretic transforms over `Z_q[X]/(X^N + 1)`.
//!
//! The forward transform maps a polynomial from the *coefficient* domain to
//! the *evaluation* domain (values at the odd powers of a primitive `2N`-th
//! root of unity), where ring multiplication becomes pointwise. The inverse
//! transform maps back. Both are `O(N log N)` iterative butterflies with
//! precomputed, bit-reverse-ordered twiddle factors and Shoup companions.
//!
//! These are the `(I)NTT` kernels whose per-tower invocations the CiFlow
//! dataflows schedule (ModUp P1/P3, ModDown P1/P3).

use crate::modulus::Modulus;
use crate::primes::primitive_root_of_unity;

/// Precomputed tables for the negacyclic NTT of a fixed ring degree and
/// modulus.
///
/// # Examples
///
/// ```
/// use hemath::{modulus::Modulus, ntt::NttTable, primes::generate_ntt_primes};
///
/// let n = 1usize << 10;
/// let q = generate_ntt_primes(40, n, 1, &[]).unwrap()[0];
/// let table = NttTable::new(n, Modulus::new(q).unwrap()).unwrap();
/// let mut poly: Vec<u64> = (0..n as u64).collect();
/// let original = poly.clone();
/// table.forward(&mut poly);
/// table.inverse(&mut poly);
/// assert_eq!(poly, original);
/// ```
#[derive(Debug, Clone)]
pub struct NttTable {
    degree: usize,
    modulus: Modulus,
    /// psi^brv(i) in bit-reversed order, psi a primitive 2N-th root.
    roots: Vec<u64>,
    roots_shoup: Vec<u64>,
    /// psi^{-brv(i)} in bit-reversed order.
    inv_roots: Vec<u64>,
    inv_roots_shoup: Vec<u64>,
    /// N^{-1} mod q and its Shoup companion.
    n_inv: u64,
    n_inv_shoup: u64,
}

/// Error returned when constructing an [`NttTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NttError {
    /// The ring degree is not a power of two (or is smaller than 2).
    DegreeNotPowerOfTwo(usize),
    /// The modulus is not congruent to 1 modulo `2N`.
    IncompatibleModulus {
        /// The offending modulus value.
        modulus: u64,
        /// The requested ring degree.
        degree: usize,
    },
}

impl std::fmt::Display for NttError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NttError::DegreeNotPowerOfTwo(n) => {
                write!(f, "ring degree {n} is not a power of two >= 2")
            }
            NttError::IncompatibleModulus { modulus, degree } => write!(
                f,
                "modulus {modulus} is not congruent to 1 mod {}",
                2 * degree
            ),
        }
    }
}

impl std::error::Error for NttError {}

/// Reverses the lowest `bits` bits of `x`.
#[inline]
fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

impl NttTable {
    /// Builds the twiddle-factor tables for ring degree `degree` (a power of
    /// two) and the given modulus.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::DegreeNotPowerOfTwo`] or
    /// [`NttError::IncompatibleModulus`] when the parameters cannot support a
    /// negacyclic NTT.
    pub fn new(degree: usize, modulus: Modulus) -> Result<Self, NttError> {
        if degree < 2 || !degree.is_power_of_two() {
            return Err(NttError::DegreeNotPowerOfTwo(degree));
        }
        if !(modulus.value() - 1).is_multiple_of(2 * degree as u64) {
            return Err(NttError::IncompatibleModulus {
                modulus: modulus.value(),
                degree,
            });
        }
        let psi = primitive_root_of_unity(&modulus, 2 * degree as u64);
        let psi_inv = modulus.inv(psi);
        let bits = degree.trailing_zeros();

        let mut roots = vec![0u64; degree];
        let mut inv_roots = vec![0u64; degree];
        let mut power = 1u64;
        let mut power_inv = 1u64;
        for i in 0..degree {
            let r = bit_reverse(i, bits);
            roots[r] = power;
            inv_roots[r] = power_inv;
            power = modulus.mul(power, psi);
            power_inv = modulus.mul(power_inv, psi_inv);
        }
        let roots_shoup = roots.iter().map(|&w| modulus.shoup(w)).collect();
        let inv_roots_shoup = inv_roots.iter().map(|&w| modulus.shoup(w)).collect();
        let n_inv = modulus.inv(degree as u64 % modulus.value());
        let n_inv_shoup = modulus.shoup(n_inv);
        Ok(Self {
            degree,
            modulus,
            roots,
            roots_shoup,
            inv_roots,
            inv_roots_shoup,
            n_inv,
            n_inv_shoup,
        })
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Modulus the table was built for.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation domain),
    /// Cooley–Tukey decimation-in-time with merged psi powers.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the table's ring degree.
    pub fn forward(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.degree, "input length must equal N");
        let q = &self.modulus;
        let n = self.degree;
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t >>= 1;
            for i in 0..m {
                let w = self.roots[m + i];
                let ws = self.roots_shoup[m + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = values[j];
                    let v = q.mul_shoup(values[j + t], w, ws);
                    values[j] = q.add(u, v);
                    values[j + t] = q.sub(u, v);
                }
            }
            m <<= 1;
        }
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient domain),
    /// Gentleman–Sande decimation-in-frequency, including the final `N^{-1}`
    /// scaling.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the table's ring degree.
    pub fn inverse(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.degree, "input length must equal N");
        let q = &self.modulus;
        let n = self.degree;
        let mut t = 1usize;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = self.inv_roots[h + i];
                let ws = self.inv_roots_shoup[h + i];
                for j in j1..j1 + t {
                    let u = values[j];
                    let v = values[j + t];
                    values[j] = q.add(u, v);
                    values[j + t] = q.mul_shoup(q.sub(u, v), w, ws);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for v in values.iter_mut() {
            *v = q.mul_shoup(*v, self.n_inv, self.n_inv_shoup);
        }
    }

    /// Number of modular multiplications performed by one forward or inverse
    /// transform: `(N/2)·log2(N)` butterflies plus the inverse scaling.
    ///
    /// This is the cost the CiFlow performance model charges per `(I)NTT`
    /// task.
    pub fn modmul_count(degree: usize) -> u64 {
        let n = degree as u64;
        (n / 2) * degree.trailing_zeros() as u64 + n
    }
}

/// Schoolbook negacyclic multiplication, `O(N^2)`. A declared oracle: the
/// NTT tests (this module's and `crates/hemath/tests/properties.rs`) diff
/// NTT-based products against it.
pub fn negacyclic_multiply_schoolbook(modulus: &Modulus, a: &[u64], b: &[u64]) -> Vec<u64> {
    let n = a.len();
    assert_eq!(n, b.len());
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let prod = modulus.mul(ai, bj);
            let idx = i + j;
            if idx < n {
                out[idx] = modulus.add(out[idx], prod);
            } else {
                out[idx - n] = modulus.sub(out[idx - n], prod);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;
    use rand::{Rng, SeedableRng};

    /// Multiplies two polynomials in `Z_q[X]/(X^N+1)` through the NTT.
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

    fn table(n: usize, bits: u32) -> NttTable {
        let q = generate_ntt_primes(bits, n, 1, &[]).unwrap()[0];
        NttTable::new(n, Modulus::new(q).unwrap()).unwrap()
    }

    #[test]
    fn construction_errors() {
        let q = Modulus::new(65537).unwrap();
        assert!(matches!(
            NttTable::new(3, q),
            Err(NttError::DegreeNotPowerOfTwo(3))
        ));
        assert!(matches!(
            NttTable::new(1, q),
            Err(NttError::DegreeNotPowerOfTwo(1))
        ));
        // 65537 = 2^16 + 1 supports degree up to 2^15; degree 2^16 must fail.
        assert!(matches!(
            NttTable::new(1 << 16, q),
            Err(NttError::IncompatibleModulus { .. })
        ));
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for log_n in [3usize, 6, 10] {
            let n = 1usize << log_n;
            let t = table(n, 45);
            let q = t.modulus().value();
            let original: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let mut v = original.clone();
            t.forward(&mut v);
            assert_ne!(v, original, "forward transform should change data");
            t.inverse(&mut v);
            assert_eq!(v, original);
        }
    }

    #[test]
    fn constant_polynomial_transforms_to_constant_vector() {
        let n = 64;
        let t = table(n, 40);
        // The polynomial "3" evaluates to 3 at every evaluation point.
        let mut v = vec![0u64; n];
        v[0] = 3;
        t.forward(&mut v);
        assert!(v.iter().all(|&x| x == 3));
    }

    #[test]
    fn ntt_multiplication_matches_schoolbook() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 128;
        let t = table(n, 40);
        let q = t.modulus().value();
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let fast = negacyclic_multiply(&t, &a, &b);
        let slow = negacyclic_multiply_schoolbook(t.modulus(), &a, &b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn x_times_x_pow_n_minus_1_wraps_negatively() {
        // In Z_q[X]/(X^N+1): X * X^{N-1} = X^N = -1.
        let n = 32;
        let t = table(n, 40);
        let q = t.modulus();
        let mut a = vec![0u64; n];
        a[1] = 1;
        let mut b = vec![0u64; n];
        b[n - 1] = 1;
        let prod = negacyclic_multiply(&t, &a, &b);
        let mut expected = vec![0u64; n];
        expected[0] = q.neg(1);
        assert_eq!(prod, expected);
    }

    #[test]
    fn linearity_of_forward_transform() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 256;
        let t = table(n, 45);
        let q = t.modulus();
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.add(x, y)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fsum = sum.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fsum);
        let combined: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.add(x, y)).collect();
        assert_eq!(fsum, combined);
    }

    #[test]
    fn modmul_count_formula() {
        assert_eq!(NttTable::modmul_count(8), 4 * 3 + 8);
        assert_eq!(
            NttTable::modmul_count(1 << 16),
            (1u64 << 15) * 16 + (1 << 16)
        );
    }

    #[test]
    #[should_panic(expected = "input length must equal N")]
    fn wrong_length_panics() {
        let t = table(16, 40);
        let mut v = vec![0u64; 8];
        t.forward(&mut v);
    }
}
