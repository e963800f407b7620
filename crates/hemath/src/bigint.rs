//! A minimal arbitrary-precision unsigned integer.
//!
//! The library only needs big integers in two cold paths: exact CRT
//! reconstruction (decoding and correctness tests) and computing modulus
//! products for parameter reporting. To stay inside the approved dependency
//! list we implement a small little-endian `u64`-limb integer with exactly the
//! operations those paths need.

use std::cmp::Ordering;

/// An unsigned big integer stored as little-endian 64-bit limbs with no
/// trailing zero limbs (canonical form; zero is the empty limb vector).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UBig {
    limbs: Vec<u64>,
}

impl UBig {
    /// The value zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// Builds a big integer from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }

    /// Builds a big integer from a `u128`. With [`UBig::to_u128`] a declared
    /// oracle bridge: `crates/hemath/tests/properties.rs` diffs `UBig`
    /// arithmetic against native `u128` arithmetic through the pair.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = Self {
            limbs: vec![lo, hi],
        };
        out.normalize();
        out
    }

    /// True when the value is zero.
    fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u32 - 1) * 64 + (64 - top.leading_zeros()),
        }
    }

    /// Converts to `u128`, returning `None` on overflow (the other half of
    /// the [`UBig::from_u128`] oracle bridge).
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Lossy conversion to `f64` (used for reporting only).
    pub fn to_f64(&self) -> f64 {
        self.limbs
            .iter()
            .rev()
            .fold(0.0f64, |acc, &limb| acc * 2f64.powi(64) + limb as f64)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Adds `other` to `self`.
    pub fn add(&self, other: &UBig) -> UBig {
        let mut limbs = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u64;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = *self.limbs.get(i).unwrap_or(&0) as u128;
            let b = *other.limbs.get(i).unwrap_or(&0) as u128;
            let sum = a + b + carry as u128;
            limbs.push(sum as u64);
            carry = (sum >> 64) as u64;
        }
        if carry > 0 {
            limbs.push(carry);
        }
        let mut out = UBig { limbs };
        out.normalize();
        out
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &UBig) -> UBig {
        assert!(self >= other, "UBig subtraction underflow");
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i128;
            let b = *other.limbs.get(i).unwrap_or(&0) as i128;
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            limbs.push(d as u64);
        }
        let mut out = UBig { limbs };
        out.normalize();
        out
    }

    /// Multiplies by a `u64`.
    pub fn mul_u64(&self, factor: u64) -> UBig {
        if factor == 0 || self.is_zero() {
            return UBig::zero();
        }
        let mut limbs = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let prod = l as u128 * factor as u128 + carry;
            limbs.push(prod as u64);
            carry = prod >> 64;
        }
        if carry > 0 {
            limbs.push(carry as u64);
        }
        UBig { limbs }
    }

    /// Full multiplication (schoolbook).
    pub fn mul(&self, other: &UBig) -> UBig {
        if self.is_zero() || other.is_zero() {
            return UBig::zero();
        }
        let mut limbs = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = limbs[i + j] as u128 + a as u128 * b as u128 + carry;
                limbs[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = limbs[k] as u128 + carry;
                limbs[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut out = UBig { limbs };
        out.normalize();
        out
    }

    /// Remainder modulo a `u64` divisor.
    ///
    /// ```
    /// use hemath::bigint::UBig;
    /// let big = UBig::from_u64(u64::MAX).mul(&UBig::from_u64(10));
    /// assert_eq!(big.rem_u64(7), ((u64::MAX as u128 * 10) % 7) as u64);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn rem_u64(&self, divisor: u64) -> u64 {
        assert!(divisor != 0, "division by zero");
        let mut rem = 0u128;
        for &l in self.limbs.iter().rev() {
            rem = ((rem << 64) | l as u128) % divisor as u128;
        }
        rem as u64
    }

    /// Shifts left by `bits`.
    fn shl(&self, bits: u32) -> UBig {
        if self.is_zero() {
            return UBig::zero();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                limbs.push(carry);
            }
        }
        let mut out = UBig { limbs };
        out.normalize();
        out
    }

    /// Division with remainder by another big integer (binary long division).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &UBig) -> (UBig, UBig) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (UBig::zero(), self.clone());
        }
        let shift = self.bits() - divisor.bits();
        let mut remainder = self.clone();
        let mut quotient = UBig::zero();
        for s in (0..=shift).rev() {
            let candidate = divisor.shl(s);
            if remainder >= candidate {
                remainder = remainder.sub(&candidate);
                quotient = quotient.add(&UBig::one().shl(s));
            }
        }
        (quotient, remainder)
    }

    /// Product of a slice of `u64` factors.
    pub fn product(factors: &[u64]) -> UBig {
        factors.iter().fold(UBig::one(), |acc, &f| acc.mul_u64(f))
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl std::fmt::Display for UBig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits = Vec::new();
        let mut cur = self.clone();
        let chunk_big = UBig::from_u64(CHUNK);
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(&chunk_big);
            digits.push(r.to_u128().unwrap() as u64);
            cur = q;
        }
        write!(f, "{}", digits.pop().unwrap())?;
        for d in digits.iter().rev() {
            write!(f, "{d:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert!(UBig::zero().is_zero());
        assert_eq!(UBig::from_u64(42).to_u128(), Some(42));
        assert_eq!(UBig::from_u128(u128::MAX).to_u128(), Some(u128::MAX));
        assert_eq!(UBig::from_u64(0), UBig::zero());
        assert_eq!(UBig::zero().bits(), 0);
        assert_eq!(UBig::from_u64(1).bits(), 1);
        assert_eq!(UBig::from_u64(255).bits(), 8);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = UBig::from_u128(u128::MAX - 5);
        let b = UBig::from_u128(u128::MAX / 3);
        let sum = a.add(&b);
        assert_eq!(sum.sub(&b), a);
        assert_eq!(sum.sub(&a), b);
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xdead_beef_1234_5678u64;
        let b = 0xfeed_face_9abc_def0u64;
        let prod = UBig::from_u64(a).mul(&UBig::from_u64(b));
        assert_eq!(prod.to_u128(), Some(a as u128 * b as u128));
        assert_eq!(UBig::from_u64(a).mul_u64(b), prod);
    }

    #[test]
    fn rem_u64_matches_reference() {
        let a = UBig::from_u128(0x1234_5678_9abc_def0_1111_2222_3333_4444);
        let m = 0x3fff_ffff_ffc0_0001u64;
        assert_eq!(
            a.rem_u64(m) as u128,
            0x1234_5678_9abc_def0_1111_2222_3333_4444u128 % m as u128
        );
    }

    #[test]
    fn div_rem_reconstructs() {
        let a = UBig::product(&[0x3fff_ffff_ffc0_0001, 0x3fff_ffff_ff28_0001, 12345]);
        let d = UBig::from_u64(0x3fff_ffff_ff28_0001);
        let (q, r) = a.div_rem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }

    #[test]
    fn product_and_rem_consistency() {
        let primes = [65537u64, 786433, 995329];
        let prod = UBig::product(&primes);
        for &p in &primes {
            assert_eq!(prod.rem_u64(p), 0);
        }
        assert_eq!(prod.rem_u64(11), (65537u128 * 786433 * 995329 % 11) as u64);
    }

    #[test]
    fn display_matches_decimal() {
        assert_eq!(UBig::zero().to_string(), "0");
        assert_eq!(UBig::from_u64(12345).to_string(), "12345");
        let v = u128::MAX;
        assert_eq!(UBig::from_u128(v).to_string(), v.to_string());
    }

    #[test]
    fn ordering() {
        let small = UBig::from_u64(5);
        let big = UBig::from_u128(1u128 << 100);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(small.cmp(&UBig::from_u64(5)), Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = UBig::from_u64(1).sub(&UBig::from_u64(2));
    }
}
