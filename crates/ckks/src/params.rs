//! CKKS parameter sets.
//!
//! Parameters follow the notation of the CiFlow paper (Table I): ring degree
//! `N`, the RNS moduli chain for `Q` (the ciphertext modulus), the auxiliary
//! moduli `P` used by hybrid key switching, the number of digits `dnum` and
//! the derived digit width `α = ⌈(L+1)/dnum⌉`.

use hemath::primes::{generate_ntt_primes, PrimeError};
use serde::{Deserialize, Serialize};

/// A complete CKKS parameter set.
///
/// Construct with [`CkksParametersBuilder`]; the five accelerator benchmark
/// points of the paper (Table III) are provided by the `ciflow` crate's
/// benchmark module as *shape-only* parameters, while this type carries real
/// prime moduli for functional execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CkksParameters {
    ring_degree: usize,
    q_moduli: Vec<u64>,
    p_moduli: Vec<u64>,
    dnum: usize,
    scale_bits: u32,
    error_eta: u32,
    secret_hamming_weight: Option<usize>,
}

/// Errors raised while building a parameter set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParameterError {
    /// The ring degree is not a power of two of at least 8.
    InvalidRingDegree(usize),
    /// The modulus chain was empty.
    EmptyModulusChain,
    /// `dnum` must be between 1 and the number of `Q` towers.
    InvalidDnum {
        /// Requested number of digits.
        dnum: usize,
        /// Number of `Q` towers available.
        q_towers: usize,
    },
    /// There are fewer `P` towers than the largest digit; hybrid key
    /// switching would overflow the auxiliary modulus.
    InsufficientAuxiliaryModuli {
        /// Number of `P` towers provided.
        p_towers: usize,
        /// Digit width `α` that must be covered.
        alpha: usize,
    },
    /// Prime generation failed for the requested widths.
    PrimeGeneration(String),
}

impl std::fmt::Display for ParameterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParameterError::InvalidRingDegree(n) => {
                write!(f, "ring degree {n} must be a power of two >= 8")
            }
            ParameterError::EmptyModulusChain => write!(f, "modulus chain must not be empty"),
            ParameterError::InvalidDnum { dnum, q_towers } => {
                write!(f, "dnum {dnum} must be in 1..={q_towers}")
            }
            ParameterError::InsufficientAuxiliaryModuli { p_towers, alpha } => write!(
                f,
                "hybrid key switching needs at least alpha={alpha} auxiliary moduli, got {p_towers}"
            ),
            ParameterError::PrimeGeneration(msg) => write!(f, "prime generation failed: {msg}"),
        }
    }
}

impl std::error::Error for ParameterError {}

impl From<PrimeError> for ParameterError {
    fn from(value: PrimeError) -> Self {
        ParameterError::PrimeGeneration(value.to_string())
    }
}

impl CkksParameters {
    /// Ring degree `N`.
    pub fn ring_degree(&self) -> usize {
        self.ring_degree
    }

    /// Number of message slots (`N/2`).
    pub fn slot_count(&self) -> usize {
        self.ring_degree / 2
    }

    /// The `Q` RNS moduli (`L + 1` towers, index 0 is the base tower that is
    /// never rescaled away).
    pub fn q_moduli(&self) -> &[u64] {
        &self.q_moduli
    }

    /// The auxiliary `P` moduli (`K` towers).
    pub fn p_moduli(&self) -> &[u64] {
        &self.p_moduli
    }

    /// Maximum multiplicative level `L` (one less than the number of `Q`
    /// towers).
    pub fn max_level(&self) -> usize {
        self.q_moduli.len() - 1
    }

    /// Number of auxiliary towers `K`.
    pub fn aux_tower_count(&self) -> usize {
        self.p_moduli.len()
    }

    /// Number of digits `dnum` used by hybrid key switching.
    pub fn dnum(&self) -> usize {
        self.dnum
    }

    /// Digit width `α = ⌈(L+1)/dnum⌉`.
    pub fn alpha(&self) -> usize {
        self.q_moduli.len().div_ceil(self.dnum)
    }

    /// The default encoding scale `Δ = 2^scale_bits`.
    pub fn scale(&self) -> f64 {
        2f64.powi(self.scale_bits as i32)
    }

    /// Bit width of the default encoding scale.
    pub fn scale_bits(&self) -> u32 {
        self.scale_bits
    }

    /// Centred-binomial parameter for error sampling.
    pub fn error_eta(&self) -> u32 {
        self.error_eta
    }

    /// Hamming weight for sparse ternary secrets (`None` = dense ternary).
    pub fn secret_hamming_weight(&self) -> Option<usize> {
        self.secret_hamming_weight
    }

    /// Indices of the `Q` towers belonging to digit `j` at level `level`
    /// (i.e. with `level + 1` live towers).
    ///
    /// # Panics
    ///
    /// Panics if `j >= dnum` or `level > max_level()`.
    pub fn digit_towers(&self, j: usize, level: usize) -> std::ops::Range<usize> {
        assert!(j < self.dnum, "digit index out of range");
        assert!(level <= self.max_level(), "level out of range");
        let alpha = self.alpha();
        let live = level + 1;
        let start = (j * alpha).min(live);
        let end = ((j + 1) * alpha).min(live);
        start..end
    }

    /// Number of digits that are non-empty at the given level.
    pub fn live_digits(&self, level: usize) -> usize {
        let alpha = self.alpha();
        (level + 1).div_ceil(alpha)
    }
}

/// Builder for [`CkksParameters`].
///
/// # Examples
///
/// ```
/// use ckks::params::CkksParametersBuilder;
///
/// let params = CkksParametersBuilder::new()
///     .ring_degree(1 << 12)
///     .q_tower_bits(vec![50, 40, 40, 40])
///     .p_tower_bits(vec![50, 50])
///     .dnum(2)
///     .scale_bits(40)
///     .build()
///     .unwrap();
/// assert_eq!(params.max_level(), 3);
/// assert_eq!(params.alpha(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CkksParametersBuilder {
    ring_degree: usize,
    q_tower_bits: Vec<u32>,
    p_tower_bits: Vec<u32>,
    dnum: usize,
    scale_bits: u32,
    error_eta: u32,
    secret_hamming_weight: Option<usize>,
}

impl Default for CkksParametersBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CkksParametersBuilder {
    /// Starts a builder with conservative defaults (`N = 2^12`, four 40-bit
    /// `Q` towers under a 50-bit base, two 50-bit `P` towers, `dnum = 2`).
    pub fn new() -> Self {
        Self {
            ring_degree: 1 << 12,
            q_tower_bits: vec![50, 40, 40, 40],
            p_tower_bits: vec![50, 50],
            dnum: 2,
            scale_bits: 40,
            error_eta: 8,
            secret_hamming_weight: None,
        }
    }

    /// Sets the ring degree `N` (a power of two).
    pub fn ring_degree(mut self, n: usize) -> Self {
        self.ring_degree = n;
        self
    }

    /// Sets the bit widths of the `Q` towers, base tower first.
    pub fn q_tower_bits(mut self, bits: Vec<u32>) -> Self {
        self.q_tower_bits = bits;
        self
    }

    /// Sets the bit widths of the auxiliary `P` towers.
    pub fn p_tower_bits(mut self, bits: Vec<u32>) -> Self {
        self.p_tower_bits = bits;
        self
    }

    /// Sets the number of key-switching digits `dnum`.
    pub fn dnum(mut self, dnum: usize) -> Self {
        self.dnum = dnum;
        self
    }

    /// Sets the default encoding scale to `2^bits`.
    pub fn scale_bits(mut self, bits: u32) -> Self {
        self.scale_bits = bits;
        self
    }

    /// Sets the centred-binomial error parameter.
    pub fn error_eta(mut self, eta: u32) -> Self {
        self.error_eta = eta;
        self
    }

    /// Uses a sparse ternary secret of the given Hamming weight.
    pub fn secret_hamming_weight(mut self, weight: usize) -> Self {
        self.secret_hamming_weight = Some(weight);
        self
    }

    /// Generates the prime moduli and assembles the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParameterError`] describing the first constraint violated.
    pub fn build(self) -> Result<CkksParameters, ParameterError> {
        if self.ring_degree < 8 || !self.ring_degree.is_power_of_two() {
            return Err(ParameterError::InvalidRingDegree(self.ring_degree));
        }
        if self.q_tower_bits.is_empty() {
            return Err(ParameterError::EmptyModulusChain);
        }
        if self.dnum == 0 || self.dnum > self.q_tower_bits.len() {
            return Err(ParameterError::InvalidDnum {
                dnum: self.dnum,
                q_towers: self.q_tower_bits.len(),
            });
        }
        let alpha = self.q_tower_bits.len().div_ceil(self.dnum);
        if self.p_tower_bits.len() < alpha.min(1) || self.p_tower_bits.is_empty() {
            return Err(ParameterError::InsufficientAuxiliaryModuli {
                p_towers: self.p_tower_bits.len(),
                alpha,
            });
        }
        // Generate primes, grouping by bit width so equal widths get distinct
        // primes.
        let mut taken: Vec<u64> = Vec::new();
        let gen = |bits: u32, taken: &mut Vec<u64>| -> Result<u64, ParameterError> {
            let p = generate_ntt_primes(bits, self.ring_degree, 1, taken)?[0];
            taken.push(p);
            Ok(p)
        };
        let mut q_moduli = Vec::with_capacity(self.q_tower_bits.len());
        for &bits in &self.q_tower_bits {
            q_moduli.push(gen(bits, &mut taken)?);
        }
        let mut p_moduli = Vec::with_capacity(self.p_tower_bits.len());
        for &bits in &self.p_tower_bits {
            p_moduli.push(gen(bits, &mut taken)?);
        }
        Ok(CkksParameters {
            ring_degree: self.ring_degree,
            q_moduli,
            p_moduli,
            dnum: self.dnum,
            scale_bits: self.scale_bits,
            error_eta: self.error_eta,
            secret_hamming_weight: self.secret_hamming_weight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CkksParameters {
        CkksParametersBuilder::new()
            .ring_degree(1 << 8)
            .q_tower_bits(vec![45, 36, 36, 36, 36, 36])
            .p_tower_bits(vec![45, 45])
            .dnum(3)
            .scale_bits(36)
            .build()
            .unwrap()
    }

    #[test]
    fn derived_quantities() {
        let p = small();
        assert_eq!(p.ring_degree(), 256);
        assert_eq!(p.slot_count(), 128);
        assert_eq!(p.max_level(), 5);
        assert_eq!(p.aux_tower_count(), 2);
        assert_eq!(p.dnum(), 3);
        assert_eq!(p.alpha(), 2);
        assert!(p.scale() == 2f64.powi(36));
    }

    #[test]
    fn all_moduli_are_distinct_ntt_primes() {
        let p = small();
        let mut all: Vec<u64> = p.q_moduli().to_vec();
        all.extend_from_slice(p.p_moduli());
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        for &q in &all {
            assert!(hemath::primes::is_prime(q));
            assert_eq!(q % (2 * p.ring_degree() as u64), 1);
        }
    }

    #[test]
    fn digit_tower_partition_covers_all_levels() {
        let p = small();
        // At full level the three digits must partition 0..6.
        let mut covered = Vec::new();
        for j in 0..p.dnum() {
            covered.extend(p.digit_towers(j, p.max_level()));
        }
        assert_eq!(covered, (0..6).collect::<Vec<_>>());
        // At level 2 (3 live towers) only the first two digits are non-empty.
        assert_eq!(p.digit_towers(0, 2), 0..2);
        assert_eq!(p.digit_towers(1, 2), 2..3);
        assert_eq!(p.digit_towers(2, 2), 3..3);
        assert_eq!(p.live_digits(2), 2);
        assert_eq!(p.live_digits(p.max_level()), 3);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(matches!(
            CkksParametersBuilder::new().ring_degree(100).build(),
            Err(ParameterError::InvalidRingDegree(100))
        ));
        assert!(matches!(
            CkksParametersBuilder::new().q_tower_bits(vec![]).build(),
            Err(ParameterError::EmptyModulusChain)
        ));
        assert!(matches!(
            CkksParametersBuilder::new()
                .q_tower_bits(vec![40, 40])
                .dnum(5)
                .build(),
            Err(ParameterError::InvalidDnum { .. })
        ));
        assert!(matches!(
            CkksParametersBuilder::new().p_tower_bits(vec![]).build(),
            Err(ParameterError::InsufficientAuxiliaryModuli { .. })
        ));
    }

    #[test]
    fn clone_and_equality() {
        let p = small();
        let q = p.clone();
        assert_eq!(p, q);
        let r = CkksParametersBuilder::new()
            .ring_degree(1 << 8)
            .q_tower_bits(vec![45, 36])
            .p_tower_bits(vec![45])
            .dnum(1)
            .build()
            .unwrap();
        assert_ne!(p, r);
    }
}
