//! Completely positive, trace-non-increasing superoperators in Kraus form.

use qsim_linalg::{lowner_le, CMatrix};

/// A superoperator `E(ρ) = Σₖ Eₖ ρ Eₖ†` between Hilbert spaces of
/// dimensions `dim_in` and `dim_out` (Section 3.1; Kraus form by reference 43 of
/// the paper).
///
/// Superoperators compose with [`Superoperator::compose`] (note the
/// paper's convention `(E₁ ∘ E₂)(ρ) = E₂(E₁(ρ))` — left-to-right), sum
/// with [`Superoperator::sum`], and dualize with [`Superoperator::dual`].
///
/// # Examples
///
/// ```
/// use qsim_quantum::{gates, states, Superoperator};
///
/// let h = Superoperator::from_unitary(&gates::hadamard());
/// let rho = states::basis_density(2, 0);
/// let plus = h.apply(&rho);
/// assert!((plus[(0, 1)].re - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Superoperator {
    dim_in: usize,
    dim_out: usize,
    kraus: Vec<CMatrix>,
}

impl Superoperator {
    /// Builds a superoperator from Kraus operators.
    ///
    /// # Panics
    ///
    /// Panics if the operators have inconsistent shapes.
    pub fn from_kraus(dim_in: usize, dim_out: usize, kraus: Vec<CMatrix>) -> Superoperator {
        for k in &kraus {
            assert_eq!(k.rows(), dim_out, "Kraus operator row mismatch");
            assert_eq!(k.cols(), dim_in, "Kraus operator column mismatch");
        }
        Superoperator {
            dim_in,
            dim_out,
            kraus,
        }
    }

    /// The identity superoperator on dimension `dim`.
    pub fn identity(dim: usize) -> Superoperator {
        Superoperator::from_kraus(dim, dim, vec![CMatrix::identity(dim)])
    }

    /// The zero superoperator on dimension `dim`.
    pub fn zero(dim: usize) -> Superoperator {
        Superoperator::from_kraus(dim, dim, Vec::new())
    }

    /// The unitary superoperator `ρ ↦ U ρ U†`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not square.
    pub fn from_unitary(u: &CMatrix) -> Superoperator {
        assert!(u.is_square(), "unitary must be square");
        Superoperator::from_kraus(u.rows(), u.rows(), vec![u.clone()])
    }

    /// The constant superoperator `C_A(ρ) = tr(ρ)·A` for a PSD `A`
    /// (Definition 7.2 of the paper — the semantic carrier of quantum
    /// predicates in the path model).
    ///
    /// Kraus operators: `{√λₖ |vₖ⟩⟨i|}` over the spectral decomposition
    /// `A = Σ λₖ|vₖ⟩⟨vₖ|` and the computational basis `|i⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square, Hermitian, and PSD within `1e-7`.
    pub fn constant(a: &CMatrix) -> Superoperator {
        assert!(a.is_square(), "constant superoperator needs a square A");
        assert!(a.is_hermitian(1e-7), "constant superoperator needs A = A†");
        let dim = a.rows();
        let eig = qsim_linalg::eigen::hermitian_eigen(a);
        let mut kraus = Vec::new();
        for (k, &val) in eig.values.iter().enumerate() {
            assert!(val > -1e-7, "constant superoperator needs a PSD A");
            if val <= 1e-12 {
                continue;
            }
            let v = eig.vector(k);
            for i in 0..dim {
                let mut basis = vec![qsim_linalg::Complex::ZERO; dim];
                basis[i] = qsim_linalg::Complex::ONE;
                kraus
                    .push(CMatrix::outer(&v, &basis).scale(qsim_linalg::Complex::from(val.sqrt())));
            }
        }
        Superoperator::from_kraus(dim, dim, kraus)
    }

    /// Input dimension.
    pub fn dim_in(&self) -> usize {
        self.dim_in
    }

    /// Output dimension.
    pub fn dim_out(&self) -> usize {
        self.dim_out
    }

    /// The Kraus operators.
    pub fn kraus(&self) -> &[CMatrix] {
        &self.kraus
    }

    /// Applies the superoperator to a (partial) density operator.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply(&self, rho: &CMatrix) -> CMatrix {
        assert_eq!(rho.rows(), self.dim_in);
        assert_eq!(rho.cols(), self.dim_in);
        let mut out = CMatrix::zeros(self.dim_out, self.dim_out);
        for k in &self.kraus {
            out = &out + &(&(k * rho) * &k.adjoint());
        }
        out
    }

    /// Sequential composition in the paper's convention:
    /// `(self ∘ then)(ρ) = then(self(ρ))`.
    ///
    /// # Panics
    ///
    /// Panics if `self.dim_out() != then.dim_in()`.
    pub fn compose(&self, then: &Superoperator) -> Superoperator {
        assert_eq!(self.dim_out, then.dim_in, "composition dimension mismatch");
        let mut kraus = Vec::with_capacity(self.kraus.len() * then.kraus.len());
        for k2 in &then.kraus {
            for k1 in &self.kraus {
                kraus.push(k2 * k1);
            }
        }
        Superoperator::from_kraus(self.dim_in, then.dim_out, kraus)
    }

    /// The sum `E₁ + E₂` (defined when the result is still
    /// trace-non-increasing; this constructor does not enforce that —
    /// use [`Superoperator::is_trace_nonincreasing`] to check).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sum(&self, other: &Superoperator) -> Superoperator {
        assert_eq!(self.dim_in, other.dim_in);
        assert_eq!(self.dim_out, other.dim_out);
        let mut kraus = self.kraus.clone();
        kraus.extend(other.kraus.iter().cloned());
        Superoperator::from_kraus(self.dim_in, self.dim_out, kraus)
    }

    /// The Schrödinger–Heisenberg dual `E†(ρ) = Σ Eₖ† ρ Eₖ`.
    pub fn dual(&self) -> Superoperator {
        Superoperator::from_kraus(
            self.dim_out,
            self.dim_in,
            self.kraus.iter().map(CMatrix::adjoint).collect(),
        )
    }

    /// `Σ Eₖ† Eₖ` — equals `I` for trace-preserving maps.
    pub fn kraus_sum(&self) -> CMatrix {
        let mut s = CMatrix::zeros(self.dim_in, self.dim_in);
        for k in &self.kraus {
            s = &s + &(&k.adjoint() * k);
        }
        s
    }

    /// Whether `Σ Eₖ†Eₖ ⊑ I` within `tol`.
    pub fn is_trace_nonincreasing(&self, tol: f64) -> bool {
        lowner_le(&self.kraus_sum(), &CMatrix::identity(self.dim_in), tol)
    }

    /// Whether `Σ Eₖ†Eₖ = I` within `tol`.
    pub fn is_trace_preserving(&self, tol: f64) -> bool {
        self.kraus_sum()
            .approx_eq(&CMatrix::identity(self.dim_in), tol)
    }

    /// The Liouville (natural) representation: the
    /// `dim_out² × dim_in²` matrix `L = Σ Eₖ ⊗ Ēₖ` acting on
    /// column-vectorized densities, `vec(E(ρ)) = L·vec(ρ)` with
    /// row-major vectorization.
    pub fn liouville(&self) -> CMatrix {
        let mut l = CMatrix::zeros(self.dim_out * self.dim_out, self.dim_in * self.dim_in);
        for k in &self.kraus {
            l = &l + &k.kron(&k.conj());
        }
        l
    }

    /// Functional equality on a spanning set of inputs, within `tol`.
    ///
    /// Two Kraus decompositions can look completely different and still
    /// denote the same map; this compares the Liouville matrices, unless
    /// the Kraus lists are identical. That is the common case — the
    /// encoder re-binding a gate name to the same gate — and it skips
    /// building two `d² × d²` matrices (64 KiB each at three qubits).
    pub fn approx_eq(&self, other: &Superoperator, tol: f64) -> bool {
        self.dim_in == other.dim_in
            && self.dim_out == other.dim_out
            && (self.kraus == other.kraus || self.liouville().approx_eq(&other.liouville(), tol))
    }

    /// Reconstructs a Kraus form from a Liouville matrix (row-major
    /// vectorization convention, endomorphisms only) via the Choi matrix:
    /// `J[(i·d+k), (j·d+m)] = ⟨k|E(|i⟩⟨j|)|m⟩`, whose spectral
    /// decomposition yields Kraus operators `K[k][i] = √λ · v[i·d+k]`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not `d² × d²` or does not describe a completely
    /// positive map (non-Hermitian or non-PSD Choi matrix, within `1e-7`).
    pub fn from_liouville(dim: usize, l: &CMatrix) -> Superoperator {
        assert_eq!(l.rows(), dim * dim, "Liouville matrix dimension mismatch");
        assert_eq!(l.cols(), dim * dim, "Liouville matrix dimension mismatch");
        // Choi: E(|i⟩⟨j|) = unvec(L · vec(|i⟩⟨j|)); vec(|i⟩⟨j|) is the unit
        // vector at index i·d + j (row-major).
        let mut choi = CMatrix::zeros(dim * dim, dim * dim);
        for i in 0..dim {
            for j in 0..dim {
                for k in 0..dim {
                    for m in 0..dim {
                        // E(|i⟩⟨j|)[k][m] = L[(k·d+m), (i·d+j)].
                        choi[(i * dim + k, j * dim + m)] = l[(k * dim + m, i * dim + j)];
                    }
                }
            }
        }
        assert!(
            choi.is_hermitian(1e-7),
            "Liouville matrix is not Hermiticity-preserving"
        );
        let eig = qsim_linalg::eigen::hermitian_eigen(&choi);
        let mut kraus = Vec::new();
        for (idx, &val) in eig.values.iter().enumerate() {
            assert!(val > -1e-7, "Liouville matrix is not completely positive");
            if val <= 1e-10 {
                continue;
            }
            let v = eig.vector(idx);
            let mut k = CMatrix::zeros(dim, dim);
            for i in 0..dim {
                for row in 0..dim {
                    k[(row, i)] = v[i * dim + row] * val.sqrt();
                }
            }
            kraus.push(k);
        }
        Superoperator::from_kraus(dim, dim, kraus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::states;

    #[test]
    fn unitary_superoperator_is_trace_preserving() {
        let h = Superoperator::from_unitary(&gates::hadamard());
        assert!(h.is_trace_preserving(1e-12));
        assert!(h.is_trace_nonincreasing(1e-12));
        let rho = states::basis_density(2, 0);
        let out = h.apply(&rho);
        assert!((out.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn composition_convention_is_left_to_right() {
        // Paper: (E1 ∘ E2)(ρ) = E2(E1(ρ)).
        let x = Superoperator::from_unitary(&gates::pauli_x());
        let h = Superoperator::from_unitary(&gates::hadamard());
        let xh = x.compose(&h);
        let rho = states::basis_density(2, 0);
        let direct = h.apply(&x.apply(&rho));
        assert!(xh.apply(&rho).approx_eq(&direct, 1e-12));
    }

    #[test]
    fn dual_is_adjoint_with_respect_to_trace_pairing() {
        // tr(A · E(ρ)) = tr(E†(A) · ρ) for all A, ρ.
        let mut seed = 3;
        let e = Superoperator::from_unitary(&gates::hadamard()).sum(&Superoperator::zero(2));
        for _ in 0..5 {
            let rho = states::random_density(2, &mut seed);
            let a = states::random_density(2, &mut seed); // any PSD works
            let lhs = (&a * &e.apply(&rho)).trace();
            let rhs = (&e.dual().apply(&a) * &rho).trace();
            assert!(lhs.approx_eq(rhs, 1e-10));
        }
    }

    #[test]
    fn liouville_representation_acts_as_the_map() {
        let e = Superoperator::from_unitary(&gates::hadamard());
        let l = e.liouville();
        let rho = states::basis_density(2, 1);
        // Row-major vectorization.
        let mut vec_rho = Vec::new();
        for i in 0..2 {
            for j in 0..2 {
                vec_rho.push(rho[(i, j)]);
            }
        }
        let out_vec = l.mul_vec(&vec_rho);
        let out = e.apply(&rho);
        let mut k = 0;
        for i in 0..2 {
            for j in 0..2 {
                assert!(out_vec[k].approx_eq(out[(i, j)], 1e-12));
                k += 1;
            }
        }
    }

    #[test]
    fn measurement_branch_sum_is_trace_preserving() {
        let m = crate::Measurement::computational_basis(2);
        let total = m.branch(0).sum(&m.branch(1));
        assert!(total.is_trace_preserving(1e-12));
        assert!(!m.branch(0).is_trace_preserving(1e-12));
        assert!(m.branch(0).is_trace_nonincreasing(1e-12));
    }

    #[test]
    fn liouville_kraus_roundtrip() {
        // Round-trip a mixed map through its Liouville matrix.
        let m = crate::Measurement::computational_basis(2);
        let h = Superoperator::from_unitary(&gates::hadamard());
        let e = m.branch(0).compose(&h).sum(&m.branch(1));
        let back = Superoperator::from_liouville(2, &e.liouville());
        assert!(back.approx_eq(&e, 1e-8));
        let mut seed = 17;
        let rho = states::random_density(2, &mut seed);
        assert!(back.apply(&rho).approx_eq(&e.apply(&rho), 1e-8));
    }

    #[test]
    fn functional_equality_ignores_kraus_presentation() {
        // ρ ↦ ρ with Kraus {I} equals Kraus {I/√2, I/√2}·? No — that's a
        // different map; instead compare {X}·{X} with identity.
        let x = Superoperator::from_unitary(&gates::pauli_x());
        let xx = x.compose(&x);
        assert!(xx.approx_eq(&Superoperator::identity(2), 1e-12));
        assert!(!x.approx_eq(&Superoperator::identity(2), 1e-12));
    }
}
