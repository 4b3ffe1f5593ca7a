//! Denotational semantics `⟦P⟧` (Section 4.2, after Ying).
//!
//! Two complementary realizations:
//!
//! * [`Program::run`] — applies `⟦P⟧` to one density operator directly
//!   (`d × d` work; loops iterate until the live mass falls under a
//!   tolerance). This scales to the QSP construction of Appendix B.
//! * [`Program::denotation`] — the full superoperator as a `d² × d²`
//!   Liouville matrix ([`Denotation`]), with loops resolved by Neumann
//!   summation with doubling. Exact object for equality checks and duals;
//!   costs `d⁶`-ish, so meant for small `d`.
//!
//! Both are cross-validated against each other in the tests.

use crate::program::Program;
use qsim_linalg::CMatrix;
use qsim_quantum::Superoperator;

/// Tolerance/iteration budget for while-loop fixpoints.
const LOOP_TOL: f64 = 1e-12;
const LOOP_MAX_ITER: usize = 100_000;

impl Program {
    /// Applies `⟦P⟧` to a (partial) density operator.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn run(&self, rho: &CMatrix) -> CMatrix {
        match self {
            Program::Skip(_) => rho.clone(),
            Program::Abort(d) => CMatrix::zeros(*d, *d),
            Program::Elementary(_, op) => op.apply(rho),
            Program::Seq(a, b) => b.run(&a.run(rho)),
            Program::Case(m, branches) => {
                let mut out = CMatrix::zeros(self.dim(), self.dim());
                for (i, branch) in branches.iter().enumerate() {
                    let collapsed = m.branch(i).apply(rho);
                    out = &out + &branch.run(&collapsed);
                }
                out
            }
            Program::While(m, body) => {
                let mut out = CMatrix::zeros(self.dim(), self.dim());
                let mut live = rho.clone();
                for _ in 0..LOOP_MAX_ITER {
                    out = &out + &m.branch(0).apply(&live);
                    live = body.run(&m.branch(1).apply(&live));
                    if live.trace().re <= LOOP_TOL {
                        break;
                    }
                }
                out
            }
        }
    }

    /// The full denotation `⟦P⟧` as a Liouville matrix.
    ///
    /// # Panics
    ///
    /// Panics on non-convergent loops only through iteration exhaustion
    /// (the result is then the truncated sum, which for valid programs is
    /// within `1e-9` of the limit).
    pub fn denotation(&self) -> Denotation {
        match self {
            Program::Skip(d) => Denotation::identity(*d),
            Program::Abort(d) => Denotation::zero(*d),
            Program::Elementary(_, op) => Denotation::from_superoperator(op),
            Program::Seq(a, b) => a.denotation().compose(&b.denotation()),
            Program::Case(m, branches) => {
                let mut out = Denotation::zero(self.dim());
                for (i, branch) in branches.iter().enumerate() {
                    let piece =
                        Denotation::from_superoperator(m.branch(i)).compose(&branch.denotation());
                    out = out.sum(&piece);
                }
                out
            }
            Program::While(m, body) => {
                // ⟦while⟧ = Σₙ (M₁ ∘ ⟦P⟧)ⁿ ∘ M₀ — resolve the Neumann sum
                // S = Σ Tⁿ by doubling: S ← S + Tᵏ·S, T ← T².
                let m1_then_body =
                    Denotation::from_superoperator(m.branch(1)).compose(&body.denotation());
                let mut sum = Denotation::identity(self.dim());
                let mut power = m1_then_body;
                for _ in 0..60 {
                    let step = power.compose(&sum);
                    let next = sum.sum(&step);
                    let delta = (&next.liou - &sum.liou).max_abs();
                    sum = next;
                    power = power.compose(&power);
                    if delta <= 1e-13 {
                        break;
                    }
                }
                sum.compose(&Denotation::from_superoperator(m.branch(0)))
            }
        }
    }
}

/// A superoperator in Liouville form (`d² × d²`, row-major vectorization).
///
/// Used as the exact carrier for denotational semantics: composition and
/// sums are matrix operations, the Schrödinger–Heisenberg dual is the
/// adjoint matrix, and equality of denotations is matrix equality.
///
/// # Examples
///
/// ```
/// use nka_qprog::{Denotation, Program};
/// use qsim_quantum::gates;
///
/// let h = Program::unitary("h", &gates::hadamard());
/// let hh = h.then(&h);
/// assert!(hh.denotation().approx_eq(&Denotation::identity(2), 1e-10));
/// ```
#[derive(Debug, Clone)]
pub struct Denotation {
    dim: usize,
    liou: CMatrix,
}

impl Denotation {
    /// The identity map.
    pub fn identity(dim: usize) -> Denotation {
        Denotation {
            dim,
            liou: CMatrix::identity(dim * dim),
        }
    }

    /// The zero map.
    pub fn zero(dim: usize) -> Denotation {
        Denotation {
            dim,
            liou: CMatrix::zeros(dim * dim, dim * dim),
        }
    }

    /// From a Kraus-form superoperator.
    pub fn from_superoperator(e: &Superoperator) -> Denotation {
        assert_eq!(e.dim_in(), e.dim_out(), "denotations are endomorphisms");
        Denotation {
            dim: e.dim_in(),
            liou: e.liouville(),
        }
    }

    /// Hilbert-space dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The Liouville matrix.
    pub fn liouville(&self) -> &CMatrix {
        &self.liou
    }

    /// Sequential composition, paper convention: `self` first.
    pub fn compose(&self, then: &Denotation) -> Denotation {
        assert_eq!(self.dim, then.dim);
        Denotation {
            dim: self.dim,
            liou: &then.liou * &self.liou,
        }
    }

    /// Pointwise sum.
    pub fn sum(&self, other: &Denotation) -> Denotation {
        assert_eq!(self.dim, other.dim);
        Denotation {
            dim: self.dim,
            liou: &self.liou + &other.liou,
        }
    }

    /// The Schrödinger–Heisenberg dual (adjoint Liouville matrix).
    pub fn dual(&self) -> Denotation {
        Denotation {
            dim: self.dim,
            liou: self.liou.adjoint(),
        }
    }

    /// Applies the map to a matrix.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply(&self, rho: &CMatrix) -> CMatrix {
        assert_eq!(rho.rows(), self.dim);
        assert_eq!(rho.cols(), self.dim);
        let mut vec_rho = Vec::with_capacity(self.dim * self.dim);
        for i in 0..self.dim {
            for j in 0..self.dim {
                vec_rho.push(rho[(i, j)]);
            }
        }
        let out_vec = self.liou.mul_vec(&vec_rho);
        let mut out = CMatrix::zeros(self.dim, self.dim);
        let mut k = 0;
        for i in 0..self.dim {
            for j in 0..self.dim {
                out[(i, j)] = out_vec[k];
                k += 1;
            }
        }
        out
    }

    /// Functional equality within `tol`.
    pub fn approx_eq(&self, other: &Denotation, tol: f64) -> bool {
        self.dim == other.dim && self.liou.approx_eq(&other.liou, tol)
    }

    /// Converts back to Kraus form (via the Choi matrix; exact up to
    /// numerics). Only valid for completely positive denotations.
    ///
    /// # Panics
    ///
    /// Panics if the map is not completely positive within `1e-7`.
    pub fn to_superoperator(&self) -> Superoperator {
        Superoperator::from_liouville(self.dim, &self.liou)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_quantum::{gates, states, Measurement};

    fn coin_flip_loop() -> Program {
        let meas = Measurement::computational_basis(2);
        let h = Program::unitary("h", &gates::hadamard());
        Program::while_loop(["m0", "m1"], &meas, h)
    }

    #[test]
    fn skip_abort_semantics() {
        let rho = states::maximally_mixed(2);
        assert!(Program::skip(2).run(&rho).approx_eq(&rho, 1e-12));
        assert!(Program::abort(2).run(&rho).max_abs() < 1e-12);
    }

    #[test]
    fn case_semantics_sums_branches() {
        let meas = Measurement::computational_basis(2);
        let x = Program::unitary("x", &gates::pauli_x());
        let c = Program::case(["m0", "m1"], &meas, vec![x, Program::skip(2)]);
        // |0⟩ measures 0, branch X flips → |1⟩; |1⟩ measures 1, skip → |1⟩.
        let out0 = c.run(&states::basis_density(2, 0));
        let out1 = c.run(&states::basis_density(2, 1));
        assert!(out0.approx_eq(&states::basis_density(2, 1), 1e-10));
        assert!(out1.approx_eq(&states::basis_density(2, 1), 1e-10));
    }

    #[test]
    fn while_loop_terminates_almost_surely() {
        let w = coin_flip_loop();
        let out = w.run(&states::basis_density(2, 1));
        // Exits only through outcome 0, so the output is |0⟩⟨0| with the
        // full input mass.
        assert!(out.approx_eq(&states::basis_density(2, 0), 1e-9));
    }

    #[test]
    fn nonterminating_loop_loses_mass() {
        // while M = 1 do skip done on |1⟩ never exits: output 0.
        let meas = Measurement::computational_basis(2);
        let w = Program::while_loop(["m0", "m1"], &meas, Program::skip(2));
        let out = w.run(&states::basis_density(2, 1));
        assert!(out.max_abs() < 1e-9);
        // … while |0⟩ exits immediately.
        let out0 = w.run(&states::basis_density(2, 0));
        assert!(out0.approx_eq(&states::basis_density(2, 0), 1e-12));
    }

    #[test]
    fn denotation_agrees_with_run() {
        let w = coin_flip_loop();
        let den = w.denotation();
        let mut seed = 23;
        for _ in 0..5 {
            let rho = states::random_density(2, &mut seed);
            assert!(den.apply(&rho).approx_eq(&w.run(&rho), 1e-8));
        }
        // Trace-non-increasing (here: preserving, loop exits a.s.).
        assert!(den.to_superoperator().is_trace_preserving(1e-7));
    }

    #[test]
    fn dual_pairing() {
        // tr(A·⟦P⟧(ρ)) = tr(⟦P⟧†(A)·ρ).
        let w = coin_flip_loop();
        let den = w.denotation();
        let dual = den.dual();
        let mut seed = 31;
        let rho = states::random_density(2, &mut seed);
        let a = states::random_density(2, &mut seed);
        let lhs = (&a * &den.apply(&rho)).trace();
        let rhs = (&dual.apply(&a) * &rho).trace();
        assert!(lhs.approx_eq(rhs, 1e-9));
    }

    #[test]
    fn seq_composes() {
        let x = Program::unitary("x", &gates::pauli_x());
        let both = x.then(&x);
        assert!(both.denotation().approx_eq(&Denotation::identity(2), 1e-10));
    }
}
