//! Primality testing and generation of NTT-friendly primes.
//!
//! Negacyclic NTTs over `Z_q[X]/(X^N + 1)` require a primitive `2N`-th root of
//! unity modulo `q`, which exists exactly when `q ≡ 1 (mod 2N)`. The RNS
//! moduli chains used by CKKS are therefore built from primes of the form
//! `q = k·2N + 1` close to a requested bit width.

use crate::modulus::Modulus;

/// Deterministic Miller–Rabin primality test, exact for all `u64` values.
///
/// Uses the standard witness set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
/// 37}` which is known to be sufficient below `3.3 × 10^24`.
///
/// # Examples
///
/// ```
/// use hemath::primes::is_prime;
/// assert!(is_prime(0x3fff_ffff_ffe8_0001));
/// assert!(!is_prime(0x3fff_ffff_ffe8_0005));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    let mulmod = |a: u64, b: u64| ((a as u128 * b as u128) % n as u128) as u64;
    let powmod = |mut base: u64, mut exp: u64| {
        let mut acc = 1u64;
        base %= n;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mulmod(acc, base);
            }
            base = mulmod(base, base);
            exp >>= 1;
        }
        acc
    };
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = powmod(a, d);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mulmod(x, x);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Error returned by the prime generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimeError {
    /// No prime of the requested form exists in the searchable range.
    Exhausted {
        /// Requested bit width.
        bits: u32,
        /// Requested congruence step (`2N`).
        step: u64,
    },
    /// The requested bit width is outside the supported `[20, 62]` range.
    UnsupportedBits(u32),
}

impl std::fmt::Display for PrimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrimeError::Exhausted { bits, step } => write!(
                f,
                "no prime congruent to 1 mod {step} found near {bits} bits"
            ),
            PrimeError::UnsupportedBits(bits) => {
                write!(f, "unsupported prime bit width {bits}; expected 20..=62")
            }
        }
    }
}

impl std::error::Error for PrimeError {}

/// Generates `count` distinct NTT-friendly primes of roughly `bits` bits for a
/// ring of degree `ring_degree` (i.e. `q ≡ 1 mod 2·ring_degree`).
///
/// Primes are returned in decreasing order starting just below `2^bits`,
/// skipping any value present in `exclude`.
///
/// # Errors
///
/// Returns [`PrimeError::UnsupportedBits`] for widths outside `[20, 62]` and
/// [`PrimeError::Exhausted`] when the search space below `2^bits` cannot
/// provide enough primes.
///
/// # Examples
///
/// ```
/// use hemath::primes::generate_ntt_primes;
/// let primes = generate_ntt_primes(40, 1 << 12, 3, &[]).unwrap();
/// assert_eq!(primes.len(), 3);
/// for q in primes {
///     assert_eq!(q % (2 << 12), 1);
/// }
/// ```
pub fn generate_ntt_primes(
    bits: u32,
    ring_degree: usize,
    count: usize,
    exclude: &[u64],
) -> Result<Vec<u64>, PrimeError> {
    if !(20..=62).contains(&bits) {
        return Err(PrimeError::UnsupportedBits(bits));
    }
    let step = 2 * ring_degree as u64;
    let upper = 1u64 << bits;
    // Largest candidate of the form k*step + 1 strictly below 2^bits.
    let mut candidate = (upper - 2) / step * step + 1;
    let lower = 1u64 << (bits - 1);
    let mut found = Vec::with_capacity(count);
    while found.len() < count && candidate > lower {
        if is_prime(candidate) && !exclude.contains(&candidate) && !found.contains(&candidate) {
            found.push(candidate);
        }
        match candidate.checked_sub(step) {
            Some(next) => candidate = next,
            None => break,
        }
    }
    if found.len() < count {
        return Err(PrimeError::Exhausted { bits, step });
    }
    Ok(found)
}

/// Finds a generator of the multiplicative group modulo a prime `q`, then
/// derives a primitive `order`-th root of unity.
///
/// # Panics
///
/// Panics if `order` does not divide `q - 1` (the ring degree is incompatible
/// with the prime) — this indicates a programming error upstream, since all
/// primes are generated with [`generate_ntt_primes`].
pub fn primitive_root_of_unity(modulus: &Modulus, order: u64) -> u64 {
    let q = modulus.value();
    assert!(
        (q - 1).is_multiple_of(order),
        "order {order} does not divide q-1 for q={q}"
    );
    let cofactor = (q - 1) / order;
    // Find a group generator by checking candidates against the prime
    // factorization of q - 1.
    let factors = factorize(q - 1);
    let mut g = 2u64;
    loop {
        let mut is_generator = true;
        for &f in &factors {
            if modulus.pow(g, (q - 1) / f) == 1 {
                is_generator = false;
                break;
            }
        }
        if is_generator {
            break;
        }
        g += 1;
    }
    let root = modulus.pow(g, cofactor);
    debug_assert_eq!(modulus.pow(root, order), 1);
    debug_assert_ne!(modulus.pow(root, order / 2), 1);
    root
}

/// Returns the distinct prime factors of `n` by trial division with Pollard's
/// rho fallback for large factors.
fn factorize(mut n: u64) -> Vec<u64> {
    let mut factors = Vec::new();
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
        if n.is_multiple_of(p) {
            factors.push(p);
            while n.is_multiple_of(p) {
                n /= p;
            }
        }
    }
    let mut stack = vec![n];
    while let Some(m) = stack.pop() {
        if m == 1 {
            continue;
        }
        if is_prime(m) {
            if !factors.contains(&m) {
                factors.push(m);
            }
            continue;
        }
        let d = pollard_rho(m);
        stack.push(d);
        stack.push(m / d);
    }
    factors
}

/// Pollard's rho with Brent's cycle detection; expects a composite input.
fn pollard_rho(n: u64) -> u64 {
    if n.is_multiple_of(2) {
        return 2;
    }
    let mulmod = |a: u64, b: u64| ((a as u128 * b as u128) % n as u128) as u64;
    let mut c = 1u64;
    loop {
        let f = |x: u64| (mulmod(x, x) + c) % n;
        let mut x = 2u64;
        let mut y = 2u64;
        let mut d = 1u64;
        while d == 1 {
            x = f(x);
            y = f(f(y));
            d = gcd(x.abs_diff(y), n);
        }
        if d != n {
            return d;
        }
        c += 1;
    }
}

/// Greatest common divisor.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primality() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 65537, 2013265921];
        let composites = [0u64, 1, 4, 6, 9, 15, 91, 65536, 2013265923];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn large_primality() {
        assert!(is_prime(0x3fff_ffff_ffe8_0001));
        assert!(is_prime(1152921504598720513));
        // Carmichael-like / strong pseudoprime stressors
        assert!(!is_prime(3215031751));
        assert!(!is_prime(3825123056546413051));
    }

    #[test]
    fn generated_primes_have_ntt_form() {
        let n = 1usize << 13;
        let primes = generate_ntt_primes(45, n, 5, &[]).unwrap();
        assert_eq!(primes.len(), 5);
        let mut seen = std::collections::HashSet::new();
        for q in primes {
            assert!(is_prime(q));
            assert_eq!(q % (2 * n as u64), 1);
            assert_eq!(64 - q.leading_zeros(), 45);
            assert!(seen.insert(q), "primes must be distinct");
        }
    }

    #[test]
    fn exclusion_is_respected() {
        let n = 1usize << 12;
        let first = generate_ntt_primes(40, n, 2, &[]).unwrap();
        let second = generate_ntt_primes(40, n, 2, &first).unwrap();
        for q in &second {
            assert!(!first.contains(q));
        }
    }

    #[test]
    fn unsupported_bits_rejected() {
        assert_eq!(
            generate_ntt_primes(10, 1 << 12, 1, &[]).unwrap_err(),
            PrimeError::UnsupportedBits(10)
        );
        assert_eq!(
            generate_ntt_primes(63, 1 << 12, 1, &[]).unwrap_err(),
            PrimeError::UnsupportedBits(63)
        );
    }

    #[test]
    fn primitive_roots_have_exact_order() {
        let n = 1u64 << 12;
        let q = generate_ntt_primes(40, n as usize, 1, &[]).unwrap()[0];
        let m = Modulus::new(q).unwrap();
        let root = primitive_root_of_unity(&m, 2 * n);
        assert_eq!(m.pow(root, 2 * n), 1);
        assert_ne!(m.pow(root, n), 1);
        // odd powers never hit 1 before the full order
        assert_ne!(m.pow(root, n / 2), 1);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 5), 1);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
    }
}
