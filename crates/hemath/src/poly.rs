//! Residue-number-system (RNS) polynomials.
//!
//! A ciphertext polynomial in `R_Q = Z_Q[X]/(X^N + 1)` with `Q = q_0·q_1·…`
//! is stored as a matrix of *towers*: one length-`N` residue vector per small
//! modulus `q_i`. This mirrors the `(N × ℓ)` matrix view the CiFlow paper uses
//! when reasoning about per-tower dataflow.

use crate::modulus::Modulus;
use crate::ntt::NttTable;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Domain a polynomial's towers are currently expressed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Representation {
    /// Coefficient domain (required for basis conversion and decoding).
    Coefficient,
    /// Evaluation (NTT) domain (required for pointwise multiplication).
    Evaluation,
}

impl std::fmt::Display for Representation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Representation::Coefficient => write!(f, "coefficient"),
            Representation::Evaluation => write!(f, "evaluation"),
        }
    }
}

/// An ordered RNS basis: the moduli and the NTT tables for each of them.
///
/// Bases are shared (via [`Arc`]) between every polynomial defined over them,
/// so the expensive twiddle-factor tables are built exactly once per modulus.
#[derive(Debug, Clone)]
pub struct RnsBasis {
    degree: usize,
    moduli: Vec<Modulus>,
    ntt_tables: Vec<Arc<NttTable>>,
}

/// Errors produced by RNS basis and polynomial operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RnsError {
    /// Two operands were defined over different bases or degrees.
    BasisMismatch,
    /// The operation required a specific representation.
    WrongRepresentation {
        /// Representation the operation needed.
        expected: Representation,
        /// Representation the operand was actually in.
        found: Representation,
    },
    /// A tower index was out of range.
    TowerOutOfRange {
        /// The requested tower index.
        index: usize,
        /// The number of towers available.
        towers: usize,
    },
    /// Underlying NTT construction failed.
    Ntt(String),
}

impl std::fmt::Display for RnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RnsError::BasisMismatch => write!(f, "operands use different RNS bases"),
            RnsError::WrongRepresentation { expected, found } => {
                write!(f, "expected {expected} representation, found {found}")
            }
            RnsError::TowerOutOfRange { index, towers } => {
                write!(f, "tower index {index} out of range (have {towers})")
            }
            RnsError::Ntt(msg) => write!(f, "ntt construction failed: {msg}"),
        }
    }
}

impl std::error::Error for RnsError {}

impl RnsBasis {
    /// Builds a basis from a list of NTT-friendly prime moduli.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::Ntt`] if any modulus cannot support a negacyclic
    /// NTT of the requested degree.
    pub fn new(degree: usize, moduli: Vec<Modulus>) -> Result<Self, RnsError> {
        let mut ntt_tables = Vec::with_capacity(moduli.len());
        for &m in &moduli {
            let table = NttTable::new(degree, m).map_err(|e| RnsError::Ntt(e.to_string()))?;
            ntt_tables.push(Arc::new(table));
        }
        Ok(Self {
            degree,
            moduli,
            ntt_tables,
        })
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of towers (moduli) in the basis.
    #[inline]
    pub fn tower_count(&self) -> usize {
        self.moduli.len()
    }

    /// The moduli in order.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The NTT table for tower `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn ntt_table(&self, i: usize) -> &NttTable {
        &self.ntt_tables[i]
    }

    /// Returns a new basis containing only the towers selected by `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Self {
        let moduli = indices.iter().map(|&i| self.moduli[i]).collect();
        let ntt_tables = indices
            .iter()
            .map(|&i| self.ntt_tables[i].clone())
            .collect();
        Self {
            degree: self.degree,
            moduli,
            ntt_tables,
        }
    }

    /// Concatenates two bases over the same ring degree (`self` towers first).
    ///
    /// # Panics
    ///
    /// Panics if the degrees differ.
    pub fn concat(&self, other: &RnsBasis) -> Self {
        assert_eq!(
            self.degree, other.degree,
            "cannot concat bases of different degree"
        );
        let mut moduli = self.moduli.clone();
        moduli.extend_from_slice(&other.moduli);
        let mut ntt_tables = self.ntt_tables.clone();
        ntt_tables.extend(other.ntt_tables.iter().cloned());
        Self {
            degree: self.degree,
            moduli,
            ntt_tables,
        }
    }

    /// True when the two bases share degree and the exact same moduli order.
    pub fn same_basis(&self, other: &RnsBasis) -> bool {
        self.degree == other.degree
            && self.moduli.len() == other.moduli.len()
            && self
                .moduli
                .iter()
                .zip(other.moduli.iter())
                .all(|(a, b)| a.value() == b.value())
    }
}

/// A polynomial in RNS form: one residue vector ("tower") per modulus.
#[derive(Debug, Clone)]
pub struct RnsPolynomial {
    basis: Arc<RnsBasis>,
    towers: Vec<Vec<u64>>,
    representation: Representation,
}

impl RnsPolynomial {
    /// The all-zero polynomial over `basis` in the given representation.
    pub fn zero(basis: Arc<RnsBasis>, representation: Representation) -> Self {
        let towers = vec![vec![0u64; basis.degree()]; basis.tower_count()];
        Self {
            basis,
            towers,
            representation,
        }
    }

    /// Builds a polynomial from raw tower data.
    ///
    /// # Panics
    ///
    /// Panics if the number of towers or any tower length disagrees with the
    /// basis, or if any residue is not reduced modulo its tower's modulus.
    pub fn from_towers(
        basis: Arc<RnsBasis>,
        towers: Vec<Vec<u64>>,
        representation: Representation,
    ) -> Self {
        assert_eq!(towers.len(), basis.tower_count(), "tower count mismatch");
        for (i, t) in towers.iter().enumerate() {
            assert_eq!(t.len(), basis.degree(), "tower {i} has wrong length");
            let q = basis.moduli()[i].value();
            debug_assert!(t.iter().all(|&x| x < q), "tower {i} not reduced");
        }
        Self {
            basis,
            towers,
            representation,
        }
    }

    /// Lifts a signed integer coefficient vector into every tower of `basis`.
    ///
    /// Negative coefficients are mapped to `q_i - |c|` per tower, which is the
    /// standard centred embedding used for secret keys and noise.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the ring degree.
    pub fn from_signed_coefficients(basis: Arc<RnsBasis>, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), basis.degree());
        let towers = basis
            .moduli()
            .iter()
            .map(|m| {
                coeffs
                    .iter()
                    .map(|&c| {
                        if c >= 0 {
                            m.reduce(c as u64)
                        } else {
                            m.neg(m.reduce(c.unsigned_abs()))
                        }
                    })
                    .collect()
            })
            .collect();
        Self {
            basis,
            towers,
            representation: Representation::Coefficient,
        }
    }

    /// The basis this polynomial is defined over.
    #[inline]
    pub fn basis(&self) -> &Arc<RnsBasis> {
        &self.basis
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.basis.degree()
    }

    /// Number of towers.
    #[inline]
    pub fn tower_count(&self) -> usize {
        self.towers.len()
    }

    /// Current representation (coefficient or evaluation domain).
    #[inline]
    pub fn representation(&self) -> Representation {
        self.representation
    }

    /// Borrow of tower `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn tower(&self, i: usize) -> &[u64] {
        &self.towers[i]
    }

    /// Mutable borrow of tower `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn tower_mut(&mut self, i: usize) -> &mut Vec<u64> {
        &mut self.towers[i]
    }

    /// Iterator over `(modulus, tower)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Modulus, &[u64])> {
        self.basis
            .moduli()
            .iter()
            .zip(self.towers.iter().map(Vec::as_slice))
    }

    /// Converts every tower to the evaluation domain (forward NTT). No-op if
    /// already there.
    pub fn to_evaluation(&mut self) {
        if self.representation == Representation::Evaluation {
            return;
        }
        for (i, tower) in self.towers.iter_mut().enumerate() {
            self.basis.ntt_table(i).forward(tower);
        }
        self.representation = Representation::Evaluation;
    }

    /// Converts every tower to the coefficient domain (inverse NTT). No-op if
    /// already there.
    pub fn to_coefficient(&mut self) {
        if self.representation == Representation::Coefficient {
            return;
        }
        for (i, tower) in self.towers.iter_mut().enumerate() {
            self.basis.ntt_table(i).inverse(tower);
        }
        self.representation = Representation::Coefficient;
    }

    /// Checks that `self` and `other` are compatible for pointwise arithmetic.
    fn check_compatible(&self, other: &Self) -> Result<(), RnsError> {
        if !self.basis.same_basis(&other.basis) {
            return Err(RnsError::BasisMismatch);
        }
        if self.representation != other.representation {
            return Err(RnsError::WrongRepresentation {
                expected: self.representation,
                found: other.representation,
            });
        }
        Ok(())
    }

    /// Pointwise (per-tower) addition.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::BasisMismatch`] or
    /// [`RnsError::WrongRepresentation`] when the operands disagree.
    pub fn add(&self, other: &Self) -> Result<Self, RnsError> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        out.add_assign(other)?;
        Ok(out)
    }

    /// In-place pointwise addition.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPolynomial::add`].
    pub fn add_assign(&mut self, other: &Self) -> Result<(), RnsError> {
        self.check_compatible(other)?;
        for (i, (mine, theirs)) in self.towers.iter_mut().zip(&other.towers).enumerate() {
            let m = &self.basis.moduli()[i];
            for (a, &b) in mine.iter_mut().zip(theirs) {
                *a = m.add(*a, b);
            }
        }
        Ok(())
    }

    /// Pointwise (per-tower) subtraction.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPolynomial::add`].
    pub fn sub(&self, other: &Self) -> Result<Self, RnsError> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        for (i, (mine, theirs)) in out.towers.iter_mut().zip(&other.towers).enumerate() {
            let m = &self.basis.moduli()[i];
            for (a, &b) in mine.iter_mut().zip(theirs) {
                *a = m.sub(*a, b);
            }
        }
        Ok(out)
    }

    /// Pointwise (per-tower) multiplication. Both operands must be in the
    /// evaluation domain.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::WrongRepresentation`] if either operand is in the
    /// coefficient domain, or [`RnsError::BasisMismatch`].
    pub fn mul(&self, other: &Self) -> Result<Self, RnsError> {
        if self.representation != Representation::Evaluation {
            return Err(RnsError::WrongRepresentation {
                expected: Representation::Evaluation,
                found: self.representation,
            });
        }
        self.check_compatible(other)?;
        let mut out = self.clone();
        for (i, (mine, theirs)) in out.towers.iter_mut().zip(&other.towers).enumerate() {
            let m = &self.basis.moduli()[i];
            for (a, &b) in mine.iter_mut().zip(theirs) {
                *a = m.mul(*a, b);
            }
        }
        Ok(out)
    }

    /// Fused multiply-accumulate: `self += a * b` pointwise. All three must be
    /// in the evaluation domain over the same basis.
    ///
    /// # Errors
    ///
    /// Same as [`RnsPolynomial::mul`].
    pub fn mul_acc(&mut self, a: &Self, b: &Self) -> Result<(), RnsError> {
        if self.representation != Representation::Evaluation {
            return Err(RnsError::WrongRepresentation {
                expected: Representation::Evaluation,
                found: self.representation,
            });
        }
        self.check_compatible(a)?;
        self.check_compatible(b)?;
        for i in 0..self.towers.len() {
            let m = &self.basis.moduli()[i];
            let (ta, tb) = (&a.towers[i], &b.towers[i]);
            for (j, acc) in self.towers[i].iter_mut().enumerate() {
                *acc = m.mul_add(ta[j], tb[j], *acc);
            }
        }
        Ok(())
    }

    /// Negates every residue in place.
    pub fn negate(&mut self) {
        for (i, tower) in self.towers.iter_mut().enumerate() {
            let m = &self.basis.moduli()[i];
            for a in tower.iter_mut() {
                *a = m.neg(*a);
            }
        }
    }

    /// Multiplies every tower by a per-tower scalar (`scalars[i]` applied to
    /// tower `i`).
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len()` differs from the tower count.
    pub fn scale_per_tower(&mut self, scalars: &[u64]) {
        assert_eq!(scalars.len(), self.towers.len());
        for (i, tower) in self.towers.iter_mut().enumerate() {
            let m = &self.basis.moduli()[i];
            let s = m.reduce(scalars[i]);
            let s_shoup = m.shoup(s);
            for a in tower.iter_mut() {
                *a = m.mul_shoup(*a, s, s_shoup);
            }
        }
    }

    /// Size of this polynomial in bytes when stored as 8-byte words, the unit
    /// the CiFlow memory model uses.
    pub fn byte_size(&self) -> u64 {
        (self.degree() as u64) * (self.tower_count() as u64) * 8
    }
}

impl PartialEq for RnsPolynomial {
    fn eq(&self, other: &Self) -> bool {
        self.representation == other.representation
            && self.basis.same_basis(&other.basis)
            && self.towers == other.towers
    }
}

impl Eq for RnsPolynomial {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;
    use rand::{Rng, SeedableRng};

    fn basis(n: usize, towers: usize) -> Arc<RnsBasis> {
        let primes = generate_ntt_primes(40, n, towers, &[]).unwrap();
        let moduli = primes
            .into_iter()
            .map(|q| Modulus::new(q).unwrap())
            .collect();
        Arc::new(RnsBasis::new(n, moduli).unwrap())
    }

    fn random_poly(basis: &Arc<RnsBasis>, seed: u64) -> RnsPolynomial {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let towers = basis
            .moduli()
            .iter()
            .map(|m| {
                (0..basis.degree())
                    .map(|_| rng.gen_range(0..m.value()))
                    .collect()
            })
            .collect();
        RnsPolynomial::from_towers(basis.clone(), towers, Representation::Coefficient)
    }

    #[test]
    fn zero_polynomial_properties() {
        let b = basis(64, 3);
        let z = RnsPolynomial::zero(b.clone(), Representation::Coefficient);
        assert_eq!(z.tower_count(), 3);
        assert_eq!(z.degree(), 64);
        assert_eq!(z.byte_size(), 64 * 3 * 8);
        assert!(z.iter().all(|(_, t)| t.iter().all(|&x| x == 0)));
    }

    #[test]
    fn add_sub_are_inverse() {
        let b = basis(64, 3);
        let a = random_poly(&b, 1);
        let c = random_poly(&b, 2);
        let sum = a.add(&c).unwrap();
        let back = sum.sub(&c).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn signed_lift_round_trips_small_values() {
        let b = basis(32, 2);
        let coeffs: Vec<i64> = (0..32)
            .map(|i| if i % 3 == 0 { -(i as i64) } else { i as i64 })
            .collect();
        let p = RnsPolynomial::from_signed_coefficients(b.clone(), &coeffs);
        for (m, tower) in p.iter() {
            for (j, &c) in coeffs.iter().enumerate() {
                let expected = if c >= 0 {
                    c as u64 % m.value()
                } else {
                    m.value() - (c.unsigned_abs() % m.value())
                };
                assert_eq!(tower[j], expected);
            }
        }
    }

    #[test]
    fn representation_round_trip() {
        let b = basis(128, 4);
        let p = random_poly(&b, 3);
        let mut q = p.clone();
        q.to_evaluation();
        assert_eq!(q.representation(), Representation::Evaluation);
        q.to_coefficient();
        assert_eq!(q, p);
    }

    #[test]
    fn multiplication_requires_evaluation_domain() {
        let b = basis(64, 2);
        let a = random_poly(&b, 4);
        let c = random_poly(&b, 5);
        assert!(matches!(
            a.mul(&c),
            Err(RnsError::WrongRepresentation { .. })
        ));
        let mut ae = a.clone();
        let mut ce = c.clone();
        ae.to_evaluation();
        ce.to_evaluation();
        assert!(ae.mul(&ce).is_ok());
    }

    #[test]
    fn eval_domain_multiplication_matches_negacyclic_convolution() {
        let b = basis(64, 2);
        let a = random_poly(&b, 6);
        let c = random_poly(&b, 7);
        let mut ae = a.clone();
        let mut ce = c.clone();
        ae.to_evaluation();
        ce.to_evaluation();
        let mut prod = ae.mul(&ce).unwrap();
        prod.to_coefficient();
        for i in 0..b.tower_count() {
            let expected =
                crate::ntt::negacyclic_multiply_schoolbook(&b.moduli()[i], a.tower(i), c.tower(i));
            assert_eq!(prod.tower(i), &expected[..]);
        }
    }

    #[test]
    fn mul_acc_accumulates() {
        let b = basis(32, 2);
        let mut a = random_poly(&b, 8);
        let mut c = random_poly(&b, 9);
        a.to_evaluation();
        c.to_evaluation();
        let mut acc = RnsPolynomial::zero(b.clone(), Representation::Evaluation);
        acc.mul_acc(&a, &c).unwrap();
        acc.mul_acc(&a, &c).unwrap();
        let single = a.mul(&c).unwrap();
        let double = single.add(&single).unwrap();
        assert_eq!(acc, double);
    }

    #[test]
    fn basis_mismatch_detected() {
        let b1 = basis(32, 2);
        let b2 = basis(32, 3);
        let a = random_poly(&b1, 10);
        let c = random_poly(&b2, 11);
        assert_eq!(a.add(&c).unwrap_err(), RnsError::BasisMismatch);
    }

    #[test]
    fn subset_and_concat_round_trip() {
        let b = basis(32, 4);
        let front = b.subset(&[0, 1]);
        let back = b.subset(&[2, 3]);
        let rejoined = front.concat(&back);
        assert!(rejoined.same_basis(&b));
    }

    #[test]
    fn scale_per_tower_applies_distinct_scalars() {
        let b = basis(32, 2);
        let mut p = random_poly(&b, 13);
        let original = p.clone();
        let scalars = vec![3u64, 5u64];
        p.scale_per_tower(&scalars);
        for (i, &scalar) in scalars.iter().enumerate() {
            let m = &b.moduli()[i];
            for j in 0..32 {
                assert_eq!(p.tower(i)[j], m.mul(original.tower(i)[j], scalar));
            }
        }
    }
}
