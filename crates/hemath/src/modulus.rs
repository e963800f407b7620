//! Word-sized prime moduli and Barrett-reduction modular arithmetic.
//!
//! Every residue-number-system (RNS) tower in the library is defined over a
//! prime modulus `q < 2^62`. The [`Modulus`] type packages the prime together
//! with the precomputed constants needed for fast reduction so that the hot
//! kernels (NTT butterflies, basis conversion inner loops, pointwise
//! multiplication) never perform a hardware division.
//!
//! The reduction strategy is classic Barrett reduction over `u128`
//! intermediates, which is exact for operands `< q^2` when `q < 2^62`.

use serde::{Deserialize, Serialize};

/// Maximum supported modulus bit width.
///
/// Keeping two bits of headroom below the machine word lets additions of two
/// reduced values and the Barrett quotient estimate stay exact in `u64`/`u128`.
pub const MAX_MODULUS_BITS: u32 = 62;

/// A prime modulus with precomputed Barrett constants.
///
/// # Examples
///
/// ```
/// use hemath::modulus::Modulus;
///
/// let q = Modulus::new(0x1000_0000_0600_0001).unwrap();
/// let a = 0x0fff_ffff_ffff_fff0u64 % q.value();
/// let b = 12345u64;
/// assert_eq!(q.mul(a, b), ((a as u128 * b as u128) % q.value() as u128) as u64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Modulus {
    value: u64,
    /// ⌊2^128 / q⌋ split into (high, low) 64-bit words.
    barrett_hi: u64,
    barrett_lo: u64,
    bits: u32,
}

/// Error returned when constructing a [`Modulus`] from an unsupported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModulusError {
    /// The value was zero or one.
    TooSmall,
    /// The value exceeded [`MAX_MODULUS_BITS`] bits.
    TooLarge,
}

impl std::fmt::Display for ModulusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModulusError::TooSmall => write!(f, "modulus must be at least 2"),
            ModulusError::TooLarge => {
                write!(f, "modulus must fit in {MAX_MODULUS_BITS} bits")
            }
        }
    }
}

impl std::error::Error for ModulusError {}

impl Modulus {
    /// Creates a new modulus and precomputes its Barrett constants.
    ///
    /// The value does not need to be prime for plain modular arithmetic, but
    /// NTT construction and inversion assume primality.
    ///
    /// # Errors
    ///
    /// Returns [`ModulusError::TooSmall`] for values below 2 and
    /// [`ModulusError::TooLarge`] for values wider than [`MAX_MODULUS_BITS`].
    pub fn new(value: u64) -> Result<Self, ModulusError> {
        if value < 2 {
            return Err(ModulusError::TooSmall);
        }
        if 64 - value.leading_zeros() > MAX_MODULUS_BITS {
            return Err(ModulusError::TooLarge);
        }
        // Compute floor(2^128 / value) without u256: long division of
        // 2^128 - 1 by value, then adjust (2^128 - 1 = q*value + r, and
        // floor(2^128/value) = q when r + 1 < value, else q + 1).
        let max = u128::MAX;
        let q = max / value as u128;
        let r = max % value as u128;
        let quotient = if r as u64 + 1 == value { q + 1 } else { q };
        Ok(Self {
            value,
            barrett_hi: (quotient >> 64) as u64,
            barrett_lo: quotient as u64,
            bits: 64 - value.leading_zeros(),
        })
    }

    /// The modulus value `q`.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Bit width of the modulus.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Reduces an arbitrary `u64` into `[0, q)`.
    #[inline]
    pub fn reduce(&self, a: u64) -> u64 {
        if a < self.value {
            a
        } else {
            a % self.value
        }
    }

    /// Reduces a `u128` product into `[0, q)` using Barrett reduction.
    ///
    /// Exact for any `a < q^2`, and in fact for any `a < 2^124` given the
    /// 62-bit modulus bound.
    ///
    /// ```
    /// use hemath::modulus::Modulus;
    /// let q = Modulus::new(65537).unwrap();
    /// let a = 65536u128 * 65535;
    /// assert_eq!(u128::from(q.reduce_u128(a)), a % 65537);
    /// ```
    #[inline]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        // Estimate the quotient using the precomputed floor(2^128/q):
        // quot ~= (a * floor(2^128/q)) >> 128.
        let a_lo = a as u64;
        let a_hi = (a >> 64) as u64;
        // (a_hi*2^64 + a_lo) * (b_hi*2^64 + b_lo) >> 128
        let lo_lo = (a_lo as u128 * self.barrett_lo as u128) >> 64;
        let lo_hi = a_lo as u128 * self.barrett_hi as u128;
        let hi_lo = a_hi as u128 * self.barrett_lo as u128;
        let mid = lo_lo + (lo_hi & 0xFFFF_FFFF_FFFF_FFFF) + (hi_lo & 0xFFFF_FFFF_FFFF_FFFF);
        let quot =
            (a_hi as u128 * self.barrett_hi as u128) + (lo_hi >> 64) + (hi_lo >> 64) + (mid >> 64);
        let mut r = (a - quot * self.value as u128) as u64;
        while r >= self.value {
            r -= self.value;
        }
        r
    }

    /// Modular addition of two already-reduced operands.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// Modular subtraction of two already-reduced operands.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        if a >= b {
            a - b
        } else {
            a + self.value - b
        }
    }

    /// Modular negation of an already-reduced operand.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// Modular multiplication of two already-reduced operands.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Fused multiply-add: `(a * b + c) mod q`.
    #[inline]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value && c < self.value);
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Modular exponentiation by square-and-multiply.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce(base);
        let mut acc = 1u64 % self.value;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero. The result is only a true inverse when the
    /// modulus is prime and `a` is not a multiple of it.
    pub fn inv(&self, a: u64) -> u64 {
        assert!(
            !a.is_multiple_of(self.value),
            "cannot invert zero modulo {}",
            self.value
        );
        self.pow(a, self.value - 2)
    }

    /// Precomputes the "shoup" companion word used for the lazy multiplication
    /// by a constant (`w`): `⌊w · 2^64 / q⌋`.
    #[inline]
    pub fn shoup(&self, w: u64) -> u64 {
        debug_assert!(w < self.value);
        (((w as u128) << 64) / self.value as u128) as u64
    }

    /// Shoup modular multiplication by a constant `w` whose companion word
    /// `w_shoup` was produced by [`Modulus::shoup`].
    ///
    /// The result is fully reduced into `[0, q)`.
    #[inline]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        debug_assert!(a < self.value);
        let q = ((a as u128 * w_shoup as u128) >> 64) as u64;
        let r = (a.wrapping_mul(w)).wrapping_sub(q.wrapping_mul(self.value));
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }
}

impl std::fmt::Display for Modulus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PRIMES: [u64; 4] = [
        65537,
        0x3fff_ffff_ffe8_0001, // 62-bit NTT-friendly prime
        1152921504598720513,
        2013265921,
    ];

    #[test]
    fn new_rejects_bad_values() {
        assert_eq!(Modulus::new(0).unwrap_err(), ModulusError::TooSmall);
        assert_eq!(Modulus::new(1).unwrap_err(), ModulusError::TooSmall);
        assert_eq!(Modulus::new(1 << 63).unwrap_err(), ModulusError::TooLarge);
        assert!(Modulus::new(2).is_ok());
        assert!(Modulus::new((1 << 62) - 1).is_ok());
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        for &p in &PRIMES {
            let m = Modulus::new(p).unwrap();
            let a = p / 3;
            let b = p - 1;
            assert_eq!(m.add(a, b), ((a as u128 + b as u128) % p as u128) as u64);
            assert_eq!(
                m.sub(a, b),
                ((a as i128 - b as i128).rem_euclid(p as i128)) as u64
            );
            assert_eq!(m.add(m.sub(a, b), b), a);
            assert_eq!(m.add(a, m.neg(a)), 0);
        }
    }

    #[test]
    fn mul_matches_u128_reference() {
        for &p in &PRIMES {
            let m = Modulus::new(p).unwrap();
            let samples = [0u64, 1, 2, p / 2, p - 1, p / 3, 0xdead_beef % p];
            for &a in &samples {
                for &b in &samples {
                    let expected = ((a as u128 * b as u128) % p as u128) as u64;
                    assert_eq!(m.mul(a, b), expected, "a={a} b={b} p={p}");
                }
            }
        }
    }

    #[test]
    fn reduce_u128_handles_large_inputs() {
        let m = Modulus::new(PRIMES[1]).unwrap();
        let big = (PRIMES[1] as u128 - 1) * (PRIMES[1] as u128 - 1);
        assert_eq!(m.reduce_u128(big), (big % PRIMES[1] as u128) as u64);
        assert_eq!(m.reduce_u128(0), 0);
        assert_eq!(m.reduce_u128(PRIMES[1] as u128), 0);
    }

    #[test]
    fn pow_and_inv() {
        for &p in &PRIMES {
            let m = Modulus::new(p).unwrap();
            assert_eq!(m.pow(3, 0), 1);
            assert_eq!(m.pow(0, 5), 0);
            assert_eq!(m.pow(2, 10), 1024 % p);
            for a in [1u64, 2, 7, p - 1, p / 2] {
                let inv = m.inv(a);
                assert_eq!(m.mul(a, inv), 1, "a={a} p={p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn inv_zero_panics() {
        let m = Modulus::new(65537).unwrap();
        let _ = m.inv(0);
    }

    #[test]
    fn shoup_multiplication_matches_plain() {
        for &p in &PRIMES {
            let m = Modulus::new(p).unwrap();
            for w in [1u64, 2, p - 1, p / 7, 0x1234_5678 % p] {
                let ws = m.shoup(w);
                for a in [0u64, 1, p - 1, p / 5] {
                    assert_eq!(m.mul_shoup(a, w, ws), m.mul(a, w));
                }
            }
        }
    }

    #[test]
    fn mul_add_matches_reference() {
        let m = Modulus::new(PRIMES[1]).unwrap();
        let p = PRIMES[1] as u128;
        let (a, b, c) = (PRIMES[1] - 3, PRIMES[1] - 7, PRIMES[1] - 11);
        let expected = ((a as u128 * b as u128 + c as u128) % p) as u64;
        assert_eq!(m.mul_add(a, b, c), expected);
    }
}
