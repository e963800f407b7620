//! CKKS encoding and decoding via the canonical embedding.
//!
//! A complex message vector of length `n ≤ N/2` is mapped to a real
//! polynomial of degree `< N` whose evaluations at the primitive `2N`-th
//! roots of unity (indexed by powers of 5, the "rotation group") equal the
//! message. Scaling by `Δ` and rounding gives the integer plaintext
//! polynomial; decoding reverses the process.
//!
//! The slot ordering follows HEAAN/SEAL conventions, so a Galois automorphism
//! `X ↦ X^{5^r}` rotates the message slots left by `r`.

use crate::params::CkksParameters;
use hemath::bigint::UBig;
use hemath::poly::{RnsBasis, RnsPolynomial};
use std::sync::Arc;

/// A complex number; kept minimal to avoid external dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from its real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real complex number.
    pub fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Complex multiplication.
    #[allow(clippy::should_implement_trait)] // compat: kept alongside the std op impls
    pub fn mul(self, other: Complex) -> Complex {
        Complex {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    /// Complex addition.
    #[allow(clippy::should_implement_trait)] // compat: kept alongside the std op impls
    pub fn add(self, other: Complex) -> Complex {
        Complex {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    /// Complex subtraction.
    #[allow(clippy::should_implement_trait)] // compat: kept alongside the std op impls
    pub fn sub(self, other: Complex) -> Complex {
        Complex {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }

    /// Magnitude of the difference to another complex number: the error
    /// metric of a decoding.
    ///
    /// ```
    /// use ckks::Complex;
    /// assert_eq!(Complex::new(3.0, 4.0).distance(Complex::default()), 5.0);
    /// ```
    pub fn distance(self, other: Complex) -> f64 {
        let d = self.sub(other);
        (d.re * d.re + d.im * d.im).sqrt()
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, other: Complex) -> Complex {
        Complex::add(self, other)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, other: Complex) -> Complex {
        Complex::sub(self, other)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, other: Complex) -> Complex {
        Complex::mul(self, other)
    }
}

/// Encoder/decoder for a fixed parameter set.
#[derive(Debug, Clone)]
pub struct CkksEncoder {
    ring_degree: usize,
    slots: usize,
    /// `exp(i·π·k/N)` for `k` in `0..2N` (the `2N`-th roots of unity).
    roots: Vec<Complex>,
    /// Rotation group: `5^j mod 2N` for `j` in `0..N/2`.
    rot_group: Vec<usize>,
}

/// A plaintext: an RNS polynomial together with its encoding scale.
#[derive(Debug, Clone)]
pub struct Plaintext {
    /// The encoded polynomial (coefficient or evaluation domain).
    pub poly: RnsPolynomial,
    /// The scale `Δ` the message was multiplied by.
    pub scale: f64,
}

impl CkksEncoder {
    /// Builds an encoder for the given parameters (uses the full `N/2` slot
    /// count).
    pub fn new(params: &CkksParameters) -> Self {
        let n = params.ring_degree();
        let m = 2 * n;
        let roots = (0..m)
            .map(|k| {
                let angle = 2.0 * std::f64::consts::PI * (k as f64) / (m as f64);
                Complex::new(angle.cos(), angle.sin())
            })
            .collect();
        let mut rot_group = Vec::with_capacity(n / 2);
        let mut five_pow = 1usize;
        for _ in 0..n / 2 {
            rot_group.push(five_pow);
            five_pow = (five_pow * 5) % m;
        }
        Self {
            ring_degree: n,
            slots: n / 2,
            roots,
            rot_group,
        }
    }

    /// Number of message slots (`N/2`).
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// The HEAAN-style "special" forward FFT used during decoding: maps
    /// coefficient-side values to slot values.
    fn fft_special(&self, vals: &mut [Complex]) {
        let size = vals.len();
        let m = 2 * self.ring_degree;
        // Bit-reverse permutation.
        let bits = size.trailing_zeros();
        for i in 0..size {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                vals.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= size {
            let lenh = len >> 1;
            let lenq = len << 2;
            for i in (0..size).step_by(len) {
                for j in 0..lenh {
                    let idx = (self.rot_group[j] % lenq) * (m / lenq);
                    let u = vals[i + j];
                    let v = vals[i + j + lenh].mul(self.roots[idx]);
                    vals[i + j] = u.add(v);
                    vals[i + j + lenh] = u.sub(v);
                }
            }
            len <<= 1;
        }
    }

    /// The inverse special FFT used during encoding: maps slot values to
    /// coefficient-side values.
    fn fft_special_inv(&self, vals: &mut [Complex]) {
        let size = vals.len();
        let m = 2 * self.ring_degree;
        let mut len = size;
        while len >= 1 {
            if len == 1 {
                break;
            }
            let lenh = len >> 1;
            let lenq = len << 2;
            for i in (0..size).step_by(len) {
                for j in 0..lenh {
                    let idx = (lenq - (self.rot_group[j] % lenq)) * (m / lenq);
                    let u = vals[i + j].add(vals[i + j + lenh]);
                    let v = vals[i + j].sub(vals[i + j + lenh]).mul(self.roots[idx]);
                    vals[i + j] = u;
                    vals[i + j + lenh] = v;
                }
            }
            len >>= 1;
        }
        // Bit-reverse permutation.
        let bits = size.trailing_zeros();
        for i in 0..size {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                vals.swap(i, j);
            }
        }
        let scale = 1.0 / size as f64;
        for v in vals.iter_mut() {
            v.re *= scale;
            v.im *= scale;
        }
    }

    /// Encodes a complex message (length at most `N/2`, padded with zeros)
    /// into a plaintext over `basis` at the given scale.
    ///
    /// # Panics
    ///
    /// Panics if the message is longer than the slot count.
    pub(crate) fn encode(
        &self,
        message: &[Complex],
        scale: f64,
        basis: Arc<RnsBasis>,
    ) -> Plaintext {
        assert!(
            message.len() <= self.slots,
            "message length {} exceeds slot count {}",
            message.len(),
            self.slots
        );
        let mut slots = vec![Complex::default(); self.slots];
        slots[..message.len()].copy_from_slice(message);
        self.fft_special_inv(&mut slots);
        let n = self.ring_degree;
        let nh = n / 2;
        // Real parts go to coefficients [0, N/2), imaginary parts to [N/2, N).
        let mut coeffs = vec![0i64; n];
        for (i, s) in slots.iter().enumerate() {
            coeffs[i] = (s.re * scale).round() as i64;
            coeffs[i + nh] = (s.im * scale).round() as i64;
        }
        let poly = RnsPolynomial::from_signed_coefficients(basis, &coeffs);
        Plaintext { poly, scale }
    }

    /// Encodes a real-valued message.
    pub fn encode_real(&self, message: &[f64], scale: f64, basis: Arc<RnsBasis>) -> Plaintext {
        let complex: Vec<Complex> = message.iter().map(|&x| Complex::real(x)).collect();
        self.encode(&complex, scale, basis)
    }

    /// Decodes a plaintext back into complex slot values.
    ///
    /// The plaintext polynomial may be in either representation; decoding
    /// internally works on a coefficient-domain copy and reconstructs the
    /// centred value of each coefficient exactly via the CRT before dividing
    /// by the scale.
    pub fn decode(&self, plaintext: &Plaintext) -> Vec<Complex> {
        let mut poly = plaintext.poly.clone();
        poly.to_coefficient();
        let n = self.ring_degree;
        let nh = n / 2;
        let moduli = poly.basis().moduli().to_vec();
        let q_product = UBig::product(
            &moduli
                .iter()
                .map(hemath::Modulus::value)
                .collect::<Vec<_>>(),
        );
        let half_q = {
            let (half, _) = q_product.div_rem(&UBig::from_u64(2));
            half
        };
        // Exact centred reconstruction of each coefficient.
        let signed_coeff = |idx: usize| -> f64 {
            // CRT-reconstruct via Garner into the product basis using UBig.
            let mut value = UBig::zero();
            let mut radix = UBig::one();
            // Garner digits
            let mut digits = vec![0u64; moduli.len()];
            for i in 0..moduli.len() {
                let qi = &moduli[i];
                let mut acc = 0u64;
                let mut r = 1u64;
                for k in 0..i {
                    acc = qi.add(acc, qi.mul(qi.reduce(digits[k]), r));
                    r = qi.mul(r, qi.reduce(moduli[k].value()));
                }
                let t = qi.sub(poly.tower(i)[idx], acc);
                digits[i] = qi.mul(t, qi.inv(r));
            }
            for (i, &d) in digits.iter().enumerate() {
                value = value.add(&radix.mul_u64(d));
                radix = radix.mul_u64(moduli[i].value());
            }
            if value > half_q {
                -(q_product.sub(&value).to_f64())
            } else {
                value.to_f64()
            }
        };
        let mut slots = vec![Complex::default(); self.slots];
        for i in 0..self.slots.min(nh) {
            slots[i] = Complex::new(
                signed_coeff(i) / plaintext.scale,
                signed_coeff(i + nh) / plaintext.scale,
            );
        }
        self.fft_special(&mut slots);
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParametersBuilder;
    use hemath::modulus::Modulus;

    fn setup() -> (CkksParameters, CkksEncoder, Arc<RnsBasis>) {
        let params = CkksParametersBuilder::new()
            .ring_degree(1 << 8)
            .q_tower_bits(vec![50, 40, 40])
            .p_tower_bits(vec![50])
            .dnum(3)
            .scale_bits(40)
            .build()
            .unwrap();
        let encoder = CkksEncoder::new(&params);
        let moduli = params
            .q_moduli()
            .iter()
            .map(|&q| Modulus::new(q).unwrap())
            .collect();
        let basis = Arc::new(RnsBasis::new(params.ring_degree(), moduli).unwrap());
        (params, encoder, basis)
    }

    #[test]
    fn encode_decode_round_trip_real() {
        let (params, encoder, basis) = setup();
        let message: Vec<f64> = (0..encoder.slot_count())
            .map(|i| (i as f64 * 0.37).sin() * 3.0)
            .collect();
        let pt = encoder.encode_real(&message, params.scale(), basis);
        let decoded = encoder.decode(&pt);
        for (i, &m) in message.iter().enumerate() {
            assert!(
                (decoded[i].re - m).abs() < 1e-6,
                "slot {i}: {} vs {m}",
                decoded[i].re
            );
            assert!(decoded[i].im.abs() < 1e-6);
        }
    }

    #[test]
    fn encode_decode_round_trip_complex() {
        let (params, encoder, basis) = setup();
        let message: Vec<Complex> = (0..encoder.slot_count())
            .map(|i| Complex::new((i as f64).cos(), (i as f64 * 0.5).sin()))
            .collect();
        let pt = encoder.encode(&message, params.scale(), basis);
        let decoded = encoder.decode(&pt);
        for (i, m) in message.iter().enumerate() {
            assert!(decoded[i].distance(*m) < 1e-6, "slot {i}");
        }
    }

    #[test]
    fn short_messages_are_zero_padded() {
        let (params, encoder, basis) = setup();
        let message = vec![1.5, -2.5, 3.25];
        let pt = encoder.encode_real(&message, params.scale(), basis);
        let decoded = encoder.decode(&pt);
        assert!((decoded[0].re - 1.5).abs() < 1e-6);
        assert!((decoded[1].re + 2.5).abs() < 1e-6);
        assert!((decoded[2].re - 3.25).abs() < 1e-6);
        for slot in decoded.iter().skip(3) {
            assert!(slot.distance(Complex::default()) < 1e-6);
        }
    }

    #[test]
    fn plaintext_addition_is_slotwise() {
        // Encoding is linear: encode(a) + encode(b) decodes to a + b.
        let (params, encoder, basis) = setup();
        let a: Vec<f64> = (0..encoder.slot_count()).map(|i| i as f64 * 0.01).collect();
        let b: Vec<f64> = (0..encoder.slot_count())
            .map(|i| 1.0 - i as f64 * 0.02)
            .collect();
        let pa = encoder.encode_real(&a, params.scale(), basis.clone());
        let pb = encoder.encode_real(&b, params.scale(), basis);
        let sum_poly = pa.poly.add(&pb.poly).unwrap();
        let decoded = encoder.decode(&Plaintext {
            poly: sum_poly,
            scale: params.scale(),
        });
        for i in 0..encoder.slot_count() {
            assert!((decoded[i].re - (a[i] + b[i])).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds slot count")]
    fn oversized_message_panics() {
        let (params, encoder, basis) = setup();
        let message = vec![1.0; encoder.slot_count() + 1];
        let _ = encoder.encode_real(&message, params.scale(), basis);
    }
}
