//! Quantum path actions (Definitions 3.4–3.5).

use crate::ext_pos::ExtPosOp;
use qsim_linalg::{CMatrix, Subspace};
use qsim_quantum::Superoperator;
use std::rc::Rc;

/// Evaluation policy for [`Action::star`] (eq. 3.3.5): the countable sum
/// `A* = Σₙ Aⁿ` is computed as a limit of partial sums.
///
/// Divergence is detected by a *stall criterion*: the mass of the `n`-th
/// term behaves like `|λ|ⁿ·poly(n)` for eigenvalues `λ` of the Liouville
/// representation of the (lifted fragments of the) action, so the series
/// converges iff the per-window mass ratio eventually drops below 1. When
/// the ratio stays above `stall_ratio` across `stall_window` iterations
/// (after a `warmup`), the supports of the recent terms are declared
/// divergent directions, compressed away, and iteration continues on the
/// remainder.
///
/// The criterion is exact for the behaviours NKA interpretations produce;
/// the documented caveat is a loop contracting *slower* than
/// `stall_ratio^(1/stall_window)` per step, which would be flagged
/// divergent — such loops would also need more than `max_iterations` to
/// converge numerically, so the default parameters are self-consistent.
#[derive(Debug, Clone)]
pub struct StarPolicy {
    /// Tail trace below which the partial sums are declared converged.
    pub tolerance: f64,
    /// Hard iteration bound.
    pub max_iterations: usize,
    /// Window length (iterations) for the stall comparison.
    pub stall_window: usize,
    /// Mass-ratio threshold across a window above which the series is
    /// declared stalled (divergent).
    pub stall_ratio: f64,
    /// Iterations before stall detection starts (transient damping).
    pub warmup: usize,
    /// Support eigenvalue threshold when extracting divergent directions.
    pub support_tol: f64,
}

impl Default for StarPolicy {
    fn default() -> Self {
        StarPolicy {
            tolerance: 1e-10,
            max_iterations: 4096,
            stall_window: 16,
            stall_ratio: 0.99,
            warmup: 32,
            support_tol: 1e-8,
        }
    }
}

#[derive(Debug)]
enum Node {
    Zero,
    Id,
    Lift(Superoperator),
    Sum(Action, Action),
    /// `Seq(a, b)` is the paper's `a ; b` — apply `a` first.
    Seq(Action, Action),
    Star(Action),
}

/// A quantum path action: an element of `P(H)` presented as a term over
/// lifted superoperators, evaluated lazily on canonical forms.
///
/// Cloning is cheap (terms are reference-counted).
///
/// # Examples
///
/// ```
/// use nka_qpath::{Action, ExtPosOp};
/// use qsim_quantum::{gates, states, Superoperator};
///
/// let h = Action::lift(Superoperator::from_unitary(&gates::hadamard()));
/// let rho = ExtPosOp::from_operator(&states::basis_density(2, 0));
/// let out = h.seq(&h).apply(&rho); // H;H = identity
/// assert!(out.approx_eq(&rho));
/// ```
#[derive(Debug, Clone)]
pub struct Action {
    dim: usize,
    node: Rc<Node>,
}

impl Action {
    /// The zero action `O_H`.
    pub fn zero(dim: usize) -> Action {
        Action {
            dim,
            node: Rc::new(Node::Zero),
        }
    }

    /// The identity action `I_H`.
    pub fn identity(dim: usize) -> Action {
        Action {
            dim,
            node: Rc::new(Node::Id),
        }
    }

    /// Path lifting `⟨E⟩↑` (Definition 3.7).
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an endomorphism (`dim_in == dim_out`).
    pub fn lift(e: Superoperator) -> Action {
        assert_eq!(
            e.dim_in(),
            e.dim_out(),
            "path lifting needs an endo-superoperator"
        );
        Action {
            dim: e.dim_in(),
            node: Rc::new(Node::Lift(e)),
        }
    }

    /// Pointwise sum (eq. 3.3.3 restricted to two operands).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn plus(&self, other: &Action) -> Action {
        assert_eq!(self.dim, other.dim);
        Action {
            dim: self.dim,
            node: Rc::new(Node::Sum(self.clone(), other.clone())),
        }
    }

    /// Sequential composition `self ; other` (eq. 3.3.4): `self` first.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn seq(&self, other: &Action) -> Action {
        assert_eq!(self.dim, other.dim);
        Action {
            dim: self.dim,
            node: Rc::new(Node::Seq(self.clone(), other.clone())),
        }
    }

    /// The reversed composition `self ⋄ other = other ; self`
    /// (Definition 3.5), used by the dual interpretation of Section 7.
    pub fn diamond(&self, other: &Action) -> Action {
        other.seq(self)
    }

    /// Kleene star `A* = Σₙ Aⁿ` (eq. 3.3.5).
    pub fn star(&self) -> Action {
        Action {
            dim: self.dim,
            node: Rc::new(Node::Star(self.clone())),
        }
    }

    /// Hilbert-space dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Applies the action to a canonical form with the default
    /// [`StarPolicy`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply(&self, x: &ExtPosOp) -> ExtPosOp {
        self.apply_with(x, &StarPolicy::default())
    }

    /// Applies the action under an explicit star policy.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply_with(&self, x: &ExtPosOp, policy: &StarPolicy) -> ExtPosOp {
        assert_eq!(x.dim(), self.dim, "dimension mismatch");
        match &*self.node {
            Node::Zero => ExtPosOp::zero(self.dim),
            Node::Id => x.clone(),
            Node::Lift(e) => apply_lifted(e, x),
            Node::Sum(a, b) => a.apply_with(x, policy).add(&b.apply_with(x, policy)),
            Node::Seq(a, b) => b.apply_with(&a.apply_with(x, policy), policy),
            Node::Star(a) => apply_star(a, x, policy),
        }
    }
}

/// `⟨E⟩↑ (V, A) = (supp E(P_V), P_{W'} E(A) P_{W'})`.
///
/// Derivation: `ψ` keeps finite weight iff `supp E†(ψψ*) ⊆ W`, which for
/// PSD arguments is `⟨ψ|E(P_V)|ψ⟩ = 0`; and for `B` supported on `W`,
/// `tr(ρᵢ B) = tr(P_W ρᵢ P_W B)`, so the compressed image of the finite
/// part is exactly `E(A)` compressed (Definition 3.7, Section 3.2).
fn apply_lifted(e: &Superoperator, x: &ExtPosOp) -> ExtPosOp {
    let pv = x.divergence().projector();
    let image_div = e.apply(&pv);
    let div = Subspace::support_of_psd(&image_div, 1e-9);
    let fin = e.apply(x.finite_part());
    ExtPosOp::from_parts(div, &fin)
}

fn apply_star(a: &Action, x: &ExtPosOp, policy: &StarPolicy) -> ExtPosOp {
    // Σₙ Aⁿ(x), starting with the n = 0 term.
    let mut total = x.clone();
    let mut current = x.clone();
    let mut quiet_steps = 0usize;
    // Projected masses and finite parts of recent terms, for the stall
    // criterion (see StarPolicy docs).
    let mut mass_history: Vec<f64> = Vec::new();
    let mut recent_terms: Vec<CMatrix> = Vec::new();

    for iter in 1..=policy.max_iterations {
        current = a.apply_with(&current, policy);
        // Judge convergence on mass that is genuinely new: compress the
        // incoming term against the already-divergent subspace.
        let projected = ExtPosOp::from_parts(total.divergence().clone(), current.finite_part());
        let mass = projected.finite_trace();
        mass_history.push(mass);
        recent_terms.push(projected.finite_part().clone());
        if recent_terms.len() > policy.stall_window {
            recent_terms.remove(0);
        }
        total = total.add(&current);

        let new_divergence = !current
            .divergence()
            .is_subspace_of(total.divergence(), 1e-7);
        if mass <= policy.tolerance && !new_divergence {
            quiet_steps += 1;
            if quiet_steps >= 2 {
                break;
            }
            continue;
        }
        quiet_steps = 0;

        let stalled = iter >= policy.warmup
            && mass_history.len() > policy.stall_window
            && mass > policy.tolerance
            && mass
                >= policy.stall_ratio * mass_history[mass_history.len() - 1 - policy.stall_window];
        if stalled {
            // The recurring terms' supports span the divergent directions.
            let mut div = total.divergence().clone();
            for term in &recent_terms {
                let supp = Subspace::support_of_psd(term, policy.support_tol * mass.max(1.0));
                div = div.join(&supp);
            }
            total = ExtPosOp::from_parts(div, total.finite_part());
            mass_history.clear();
            recent_terms.clear();
        }
    }
    total
}

/// A PSD probing family spanning Hermitian matrix space, plus one purely
/// divergent probe per basis direction. Two actions built from lifted
/// superoperators by `+`, `;`, `*` that agree on all probes agree as maps
/// (their finite behaviour is determined by linearity on a spanning PSD
/// set, their divergence behaviour by monotonicity over the probe cone).
pub fn probe_family(dim: usize) -> Vec<ExtPosOp> {
    use qsim_linalg::Complex;
    let mut probes = Vec::new();
    let ket = |k: usize| {
        let mut v = vec![Complex::ZERO; dim];
        v[k] = Complex::ONE;
        v
    };
    for i in 0..dim {
        probes.push(ExtPosOp::from_operator(&CMatrix::outer(&ket(i), &ket(i))));
    }
    for i in 0..dim {
        for j in (i + 1)..dim {
            let mut plus = vec![Complex::ZERO; dim];
            plus[i] = Complex::ONE;
            plus[j] = Complex::ONE;
            probes.push(ExtPosOp::from_operator(
                &CMatrix::outer(&plus, &plus).scale(Complex::from(0.5)),
            ));
            let mut phase = vec![Complex::ZERO; dim];
            phase[i] = Complex::ONE;
            phase[j] = Complex::I;
            probes.push(ExtPosOp::from_operator(
                &CMatrix::outer(&phase, &phase).scale(Complex::from(0.5)),
            ));
        }
    }
    for i in 0..dim {
        probes.push(ExtPosOp::divergent(
            dim,
            Subspace::from_spanning(dim, &[ket(i)]),
        ));
    }
    probes
}

/// Whether two actions agree on the whole [`probe_family`].
pub fn actions_approx_eq(a: &Action, b: &Action) -> bool {
    assert_eq!(a.dim(), b.dim());
    probe_family(a.dim())
        .iter()
        .all(|x| a.apply(x).approx_eq(&b.apply(x)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_linalg::Complex;
    use qsim_quantum::{gates, states, Measurement};

    fn constant_superop(target: &CMatrix) -> Superoperator {
        // C_A(ρ) = tr(ρ)·A for a PSD A with spectral decomposition
        // Σ λ_k |v_k><v_k|: Kraus operators {√λ_k |v_k⟩⟨i|}_{k,i}.
        let dim = target.rows();
        let eig = qsim_linalg::eigen::hermitian_eigen(target);
        let mut kraus = Vec::new();
        for (k, &val) in eig.values.iter().enumerate() {
            if val <= 1e-12 {
                continue;
            }
            let v = eig.vector(k);
            for i in 0..dim {
                let mut basis = vec![Complex::ZERO; dim];
                basis[i] = Complex::ONE;
                kraus.push(CMatrix::outer(&v, &basis).scale(Complex::from(val.sqrt())));
            }
        }
        Superoperator::from_kraus(dim, dim, kraus)
    }

    #[test]
    fn identity_star_diverges_everywhere_reachable() {
        let id = Action::lift(Superoperator::identity(2));
        let rho = ExtPosOp::from_operator(&states::basis_density(2, 0));
        let out = id.star().apply(&rho);
        // Σₙ |0⟩⟨0| diverges exactly along |0⟩.
        assert_eq!(out.divergence().dim(), 1);
        let mixed = ExtPosOp::from_operator(&states::maximally_mixed(2));
        let out2 = id.star().apply(&mixed);
        assert_eq!(out2.divergence().dim(), 2);
    }

    #[test]
    fn measurement_loop_converges() {
        // (M1; …)* M0 with a Hadamard in the loop: a terminating quantum
        // while-loop; the star sum must converge to a finite class.
        let m = Measurement::computational_basis(2);
        let h = Superoperator::from_unitary(&gates::hadamard());
        let body = Action::lift(m.branch(1)).seq(&Action::lift(h));
        let loop_action = body.star().seq(&Action::lift(m.branch(0)));
        let rho = ExtPosOp::from_operator(&states::maximally_mixed(2));
        let out = loop_action.apply(&rho);
        assert!(out.is_finite());
        // Total probability of eventually exiting a measure-H loop is 1.
        assert!((out.finite_trace() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn star_of_constant_map_diverges_on_target_support() {
        // C_{|0⟩⟨0|}* at [ρ]: ρ + ∞·|0⟩⟨0|.
        let c0 = Action::lift(constant_superop(&states::basis_density(2, 0)));
        let c1 = Action::lift(constant_superop(&states::basis_density(2, 1)));
        let rho = ExtPosOp::from_operator(&states::maximally_mixed(2));
        let out0 = c0.star().apply(&rho);
        let out1 = c1.star().apply(&rho);
        assert_eq!(out0.divergence().dim(), 1);
        assert!(!out0.approx_eq(&out1));
        // Finite remainder: the ρ-component orthogonal to the divergence.
        assert!((out0.finite_trace() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn lifting_is_functorial() {
        // Lemma 3.8.(iii): ⟨E1 ∘ E2⟩↑ = ⟨E1⟩↑ ; ⟨E2⟩↑.
        let e1 = Superoperator::from_unitary(&gates::hadamard());
        let e2 = Measurement::computational_basis(2).branch(0);
        let composed = Action::lift(e1.compose(&e2));
        let sequential = Action::lift(e1).seq(&Action::lift(e2));
        assert!(actions_approx_eq(&composed, &sequential));
    }

    #[test]
    fn lifting_is_injective() {
        // Lemma 3.8.(ii).
        let h = Action::lift(Superoperator::from_unitary(&gates::hadamard()));
        let x = Action::lift(Superoperator::from_unitary(&gates::pauli_x()));
        assert!(!actions_approx_eq(&h, &x));
    }

    #[test]
    fn fixed_point_law_holds_in_the_model() {
        // 1 + a·a* = a* evaluated on probes (Theorem 3.6 instance),
        // for a trace-decreasing lifted action.
        let m = Measurement::computational_basis(2);
        let h = Superoperator::from_unitary(&gates::hadamard());
        let a = Action::lift(m.branch(1).compose(&h));
        let lhs = Action::identity(2).plus(&a.seq(&a.star()));
        let rhs = a.star();
        assert!(actions_approx_eq(&lhs, &rhs));
    }

    #[test]
    fn sliding_law_holds_in_the_model() {
        // (ab)* a = a (ba)*.
        let m = Measurement::computational_basis(2);
        let a = Action::lift(
            m.branch(0)
                .compose(&Superoperator::from_unitary(&gates::hadamard())),
        );
        let b = Action::lift(m.branch(1));
        let lhs = a.seq(&b).star().seq(&a);
        let rhs = a.seq(&b.seq(&a).star());
        assert!(actions_approx_eq(&lhs, &rhs));
    }

    #[test]
    fn divergent_input_through_lifted_action() {
        // ⟨H⟩↑ maps Σ|0⟩⟨0| to Σ|+⟩⟨+|.
        let h = Action::lift(Superoperator::from_unitary(&gates::hadamard()));
        let div0 = ExtPosOp::divergent(
            2,
            Subspace::from_spanning(2, &[vec![Complex::ONE, Complex::ZERO]]),
        );
        let out = h.apply(&div0);
        assert_eq!(out.divergence().dim(), 1);
        let plus = vec![
            Complex::from(std::f64::consts::FRAC_1_SQRT_2),
            Complex::from(std::f64::consts::FRAC_1_SQRT_2),
        ];
        assert!(out.divergence().contains(&plus, 1e-8));
    }

    #[test]
    fn zero_action_annihilates() {
        let z = Action::zero(2);
        let mixed = ExtPosOp::from_operator(&states::maximally_mixed(2));
        assert!(z.apply(&mixed).approx_eq(&ExtPosOp::zero(2)));
        assert!(z.star().apply(&mixed).approx_eq(&mixed)); // 0* = 1
    }
}
