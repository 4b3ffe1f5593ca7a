//! The program AST.

use qsim_linalg::CMatrix;
use qsim_quantum::{Measurement, Superoperator};
use std::fmt;
use std::sync::Arc;

/// A measurement whose outcomes carry encoder names (the symbols the
/// branches will receive under `Enc`, Definition 4.4), and the branch
/// superoperators `ρ ↦ Mᵢ ρ Mᵢ†` the encoder binds those names to.
///
/// Cloning is cheap: the names, operators and branches are shared.
#[derive(Debug, Clone)]
pub struct NamedMeasurement(Arc<NamedOutcomes>);

#[derive(Debug)]
struct NamedOutcomes {
    names: Vec<String>,
    meas: Measurement,
    branches: Vec<Arc<Superoperator>>,
}

impl NamedMeasurement {
    /// Pairs a measurement with one name per outcome.
    ///
    /// # Panics
    ///
    /// Panics if the name count differs from the outcome count.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(
        names: I,
        meas: &Measurement,
    ) -> NamedMeasurement {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert_eq!(
            names.len(),
            meas.outcome_count(),
            "one name per measurement outcome"
        );
        let branches = (0..names.len()).map(|i| Arc::new(meas.branch(i))).collect();
        NamedMeasurement(Arc::new(NamedOutcomes {
            names,
            meas: meas.clone(),
            branches,
        }))
    }

    /// The underlying measurement.
    pub fn measurement(&self) -> &Measurement {
        &self.0.meas
    }

    /// The encoder name of outcome `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.0.names[i]
    }

    /// The branch superoperator of outcome `i`, shared by every clone.
    pub fn branch(&self, i: usize) -> &Arc<Superoperator> {
        &self.0.branches[i]
    }

    /// Number of outcomes.
    pub fn outcome_count(&self) -> usize {
        self.0.names.len()
    }
}

/// A quantum while-program over a fixed Hilbert space (operators are
/// stored already embedded in the full space; use
/// [`qsim_quantum::RegisterSpace::embed`] to build them).
///
/// Cloning is cheap: subprograms are reference-counted.
#[derive(Debug, Clone)]
pub enum Program {
    /// `skip` — does nothing.
    Skip(usize),
    /// `abort` — halts without a result (the zero superoperator).
    Abort(usize),
    /// An elementary statement (`q := |0⟩` or `q̄ := U[q̄]`) with its
    /// encoder name (shared, so cloning a statement copies no text).
    Elementary(Arc<str>, Arc<Superoperator>),
    /// `P₁; P₂`.
    Seq(Arc<Program>, Arc<Program>),
    /// `case M[q̄] →ᵢ Pᵢ end`.
    Case(NamedMeasurement, Vec<Program>),
    /// `while M[q̄] = 1 do P done` — outcome 1 continues, outcome 0 exits.
    While(NamedMeasurement, Arc<Program>),
}

impl Program {
    /// `skip` on a `dim`-dimensional space.
    pub fn skip(dim: usize) -> Program {
        Program::Skip(dim)
    }

    /// `abort` on a `dim`-dimensional space.
    pub fn abort(dim: usize) -> Program {
        Program::Abort(dim)
    }

    /// An elementary unitary statement `q̄ := U[q̄]`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not unitary within `1e-8`.
    pub fn unitary(name: &str, u: &CMatrix) -> Program {
        assert!(u.is_unitary(1e-8), "Program::unitary needs a unitary");
        Program::Elementary(Arc::from(name), Arc::new(Superoperator::from_unitary(u)))
    }

    /// An elementary statement from an arbitrary superoperator — used for
    /// initializations `q := |0⟩` (and, in the normal-form construction,
    /// classical-guard assignments).
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an endomorphism or not trace-non-increasing.
    pub fn elementary(name: &str, op: Superoperator) -> Program {
        assert_eq!(op.dim_in(), op.dim_out(), "program operators are endo");
        assert!(
            op.is_trace_nonincreasing(1e-7),
            "elementary superoperators must be trace-non-increasing"
        );
        Program::Elementary(Arc::from(name), Arc::new(op))
    }

    /// The initialization `q := |0⟩` on a register of dimension `reg_dim`
    /// embedded by the caller — convenience for the common whole-space
    /// case: `Σᵢ |0⟩⟨i| ρ |i⟩⟨0|`.
    pub fn init_whole_space(name: &str, dim: usize) -> Program {
        let kraus = (0..dim)
            .map(|i| {
                let ket0 = CMatrix::basis_ket(dim, 0);
                let keti = CMatrix::basis_ket(dim, i);
                &ket0 * &keti.adjoint()
            })
            .collect();
        Program::Elementary(
            Arc::from(name),
            Arc::new(Superoperator::from_kraus(dim, dim, kraus)),
        )
    }

    /// `self; then`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn then(&self, then: &Program) -> Program {
        assert_eq!(self.dim(), then.dim(), "sequencing dimension mismatch");
        Program::Seq(Arc::new(self.clone()), Arc::new(then.clone()))
    }

    /// `case M[q̄] →ᵢ branches[i] end` with outcome names.
    ///
    /// # Panics
    ///
    /// Panics if branch count ≠ outcome count or dimensions mismatch.
    pub fn case<S: Into<String>, I: IntoIterator<Item = S>>(
        names: I,
        meas: &Measurement,
        branches: Vec<Program>,
    ) -> Program {
        let named = NamedMeasurement::new(names, meas);
        assert_eq!(
            named.outcome_count(),
            branches.len(),
            "one branch per outcome"
        );
        for b in &branches {
            assert_eq!(b.dim(), meas.dim(), "branch dimension mismatch");
        }
        Program::Case(named, branches)
    }

    /// `while M[q̄] = 1 do body done` — `names` are the encoder names of
    /// outcomes (0 = exit, 1 = continue).
    ///
    /// # Panics
    ///
    /// Panics unless the measurement has exactly two outcomes of the
    /// body's dimension.
    pub fn while_loop<S: Into<String>, I: IntoIterator<Item = S>>(
        names: I,
        meas: &Measurement,
        body: Program,
    ) -> Program {
        let named = NamedMeasurement::new(names, meas);
        assert_eq!(named.outcome_count(), 2, "while needs a 2-outcome test");
        assert_eq!(body.dim(), meas.dim(), "body dimension mismatch");
        Program::While(named, Arc::new(body))
    }

    /// `if M[q̄] = 1 then p1 else p2` — syntax sugar for a two-branch case
    /// (footnote 3 of the paper).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Program::case`].
    pub fn if_then_else<S: Into<String>, I: IntoIterator<Item = S>>(
        names: I,
        meas: &Measurement,
        p1: Program,
        p0: Program,
    ) -> Program {
        // case order matches outcome order: branch 0 = else, branch 1 = then.
        Program::case(names, meas, vec![p0, p1])
    }

    /// The Hilbert-space dimension the program acts on.
    pub fn dim(&self) -> usize {
        match self {
            Program::Skip(d) | Program::Abort(d) => *d,
            Program::Elementary(_, op) => op.dim_in(),
            Program::Seq(a, _) => a.dim(),
            Program::Case(m, _) => m.measurement().dim(),
            Program::While(m, _) => m.measurement().dim(),
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Program::Skip(_) | Program::Abort(_) | Program::Elementary(..) => 1,
            Program::Seq(a, b) => 1 + a.size() + b.size(),
            Program::Case(_, branches) => 1 + branches.iter().map(Program::size).sum::<usize>(),
            Program::While(_, body) => 1 + body.size(),
        }
    }

    /// Whether the program contains no `while` loop.
    pub fn is_while_free(&self) -> bool {
        match self {
            Program::Skip(_) | Program::Abort(_) | Program::Elementary(..) => true,
            Program::Seq(a, b) => a.is_while_free() && b.is_while_free(),
            Program::Case(_, branches) => branches.iter().all(Program::is_while_free),
            Program::While(..) => false,
        }
    }

    /// Number of `while` loops in the program.
    pub fn loop_count(&self) -> usize {
        match self {
            Program::Skip(_) | Program::Abort(_) | Program::Elementary(..) => 0,
            Program::Seq(a, b) => a.loop_count() + b.loop_count(),
            Program::Case(_, branches) => branches.iter().map(Program::loop_count).sum(),
            Program::While(_, body) => 1 + body.loop_count(),
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Program::Skip(_) => write!(f, "skip"),
            Program::Abort(_) => write!(f, "abort"),
            Program::Elementary(name, _) => write!(f, "{name}"),
            Program::Seq(a, b) => write!(f, "{a}; {b}"),
            Program::Case(m, branches) => {
                write!(f, "case ")?;
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{} → {b}", m.name(i))?;
                }
                write!(f, " end")
            }
            Program::While(m, body) => {
                write!(f, "while {} do {body} done", m.name(1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_quantum::gates;

    #[test]
    fn structure_metrics() {
        let meas = Measurement::computational_basis(2);
        let h = Program::unitary("h", &gates::hadamard());
        let w = Program::while_loop(["m0", "m1"], &meas, h.clone());
        let seq = w.then(&h);
        assert_eq!(seq.size(), 4);
        assert_eq!(seq.loop_count(), 1);
        assert!(!seq.is_while_free());
        assert!(h.is_while_free());
        assert_eq!(seq.dim(), 2);
    }

    #[test]
    fn display_reads_like_the_paper() {
        let meas = Measurement::computational_basis(2);
        let h = Program::unitary("h", &gates::hadamard());
        let w = Program::while_loop(["m0", "m1"], &meas, h);
        assert_eq!(w.to_string(), "while m1 do h done");
    }

    #[test]
    #[should_panic(expected = "unitary")]
    fn non_unitary_rejected() {
        let not_unitary = CMatrix::from_real(&[&[1.0, 1.0], &[0.0, 1.0]]);
        let _ = Program::unitary("bad", &not_unitary);
    }

    #[test]
    fn init_whole_space_resets() {
        let init = Program::init_whole_space("reset", 3);
        let rho = qsim_quantum::states::maximally_mixed(3);
        let out = init.run(&rho);
        assert!(out.approx_eq(&qsim_quantum::states::basis_density(3, 0), 1e-10));
    }
}
