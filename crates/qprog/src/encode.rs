//! The encoder `Enc` from programs to NKA expressions (Definition 4.4).

use crate::program::Program;
use nka_qpath::Interpretation;
use nka_syntax::{Expr, Symbol};
use qsim_quantum::Superoperator;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Error raised when an encoder setting would not be injective
/// (Definition 4.4 requires a *unique* symbol per elementary
/// superoperator).
#[derive(Debug, Clone)]
pub struct EncodeError {
    name: String,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "encoder name {:?} is already bound to a different superoperator",
            self.name
        )
    }
}

impl std::error::Error for EncodeError {}

/// An encoder setting `E`: the bijection between elementary superoperators
/// (including measurement branches) and alphabet symbols, built up while
/// encoding one or more programs (the paper defines `E` jointly for all
/// programs under comparison).
///
/// The setting shares the program's superoperators rather than copying
/// them. Re-binding a name to the very same `Arc` (every occurrence of a
/// surface statement lowers to one shared superoperator) is a pointer
/// comparison; only a different `Arc` is compared by value.
///
/// # Examples
///
/// See the [crate docs](crate).
#[derive(Debug, Clone)]
pub struct EncoderSetting {
    dim: usize,
    map: HashMap<Symbol, Arc<Superoperator>>,
}

impl EncoderSetting {
    /// An empty setting for programs over a `dim`-dimensional space.
    pub fn new(dim: usize) -> EncoderSetting {
        EncoderSetting {
            dim,
            map: HashMap::new(),
        }
    }

    /// The symbols assigned so far.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.map.keys().copied()
    }

    /// The superoperator a symbol stands for (`E⁻¹`).
    pub fn superoperator(&self, sym: Symbol) -> Option<&Superoperator> {
        self.map.get(&sym).map(|op| &**op)
    }

    fn bind(&mut self, name: &str, op: &Arc<Superoperator>) -> Result<Symbol, EncodeError> {
        let sym = Symbol::intern(name);
        match self.map.get(&sym) {
            Some(existing) if Arc::ptr_eq(existing, op) || existing.approx_eq(op, 1e-8) => Ok(sym),
            Some(_) => Err(EncodeError {
                name: name.to_owned(),
            }),
            None => {
                self.map.insert(sym, Arc::clone(op));
                Ok(sym)
            }
        }
    }

    /// `Enc(P)` — encodes a program, extending this setting.
    ///
    /// # Errors
    ///
    /// Fails if a name is reused for a different superoperator (the
    /// setting must stay injective).
    pub fn encode(&mut self, p: &Program) -> Result<Expr, EncodeError> {
        match p {
            Program::Skip(_) => Ok(Expr::one()),
            Program::Abort(_) => Ok(Expr::zero()),
            Program::Elementary(name, op) => {
                let sym = self.bind(name, op)?;
                Ok(Expr::atom(sym))
            }
            Program::Seq(a, b) => {
                let ea = self.encode(a)?;
                let eb = self.encode(b)?;
                Ok(ea.mul(&eb))
            }
            Program::Case(m, branches) => {
                let mut terms = Vec::new();
                for (i, branch) in branches.iter().enumerate() {
                    let sym = self.bind(m.name(i), m.branch(i))?;
                    let eb = self.encode(branch)?;
                    terms.push(Expr::atom(sym).mul(&eb));
                }
                Ok(Expr::sum(terms))
            }
            Program::While(m, body) => {
                let m0 = self.bind(m.name(0), m.branch(0))?;
                let m1 = self.bind(m.name(1), m.branch(1))?;
                let eb = self.encode(body)?;
                Ok(Expr::atom(m1).mul(&eb).star().mul(&Expr::atom(m0)))
            }
        }
    }

    /// The quantum interpretation `int = (H, E⁻¹)` of Theorem 4.5.
    pub fn interpretation(&self) -> Interpretation {
        let mut int = Interpretation::new(self.dim);
        for (&sym, op) in &self.map {
            int.assign(sym, (**op).clone());
        }
        int
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nka_qpath::{action::actions_approx_eq, Action, ExtPosOp};
    use qsim_quantum::{gates, states, Measurement};

    fn coin_flip_loop() -> Program {
        let meas = Measurement::computational_basis(2);
        let h = Program::unitary("h", &gates::hadamard());
        Program::while_loop(["m0", "m1"], &meas, h)
    }

    #[test]
    fn encoding_shapes_match_definition_4_4() {
        let mut setting = EncoderSetting::new(2);
        let meas = Measurement::computational_basis(2);
        let x = Program::unitary("x", &gates::pauli_x());
        let h = Program::unitary("h", &gates::hadamard());

        assert_eq!(setting.encode(&Program::skip(2)).unwrap(), Expr::one());
        assert_eq!(setting.encode(&Program::abort(2)).unwrap(), Expr::zero());
        let seq = x.then(&h);
        assert_eq!(setting.encode(&seq).unwrap().to_string(), "x h");
        let case = Program::case(["m0", "m1"], &meas, vec![x.clone(), h.clone()]);
        assert_eq!(setting.encode(&case).unwrap().to_string(), "m0 x + m1 h");
        let w = coin_flip_loop();
        assert_eq!(setting.encode(&w).unwrap().to_string(), "(m1 h)* m0");
    }

    #[test]
    fn setting_rejects_name_collisions() {
        let mut setting = EncoderSetting::new(2);
        let x = Program::unitary("gate", &gates::pauli_x());
        let h = Program::unitary("gate", &gates::hadamard());
        setting.encode(&x).unwrap();
        assert!(setting.encode(&h).is_err());
    }

    #[test]
    fn setting_shares_symbols_for_equal_superoperators() {
        let mut setting = EncoderSetting::new(2);
        let x1 = Program::unitary("x", &gates::pauli_x());
        let x2 = Program::unitary("x", &gates::pauli_x());
        let e1 = setting.encode(&x1).unwrap();
        let e2 = setting.encode(&x2).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(setting.symbols().count(), 1);
    }

    #[test]
    fn theorem_4_5_lifting_of_denotation() {
        // Qint(Enc(P)) = ⟨⟦P⟧⟩↑ — check on the probe family.
        let w = coin_flip_loop();
        let mut setting = EncoderSetting::new(2);
        let expr = setting.encode(&w).unwrap();
        let int = setting.interpretation();
        let encoded_action = int.action(&expr);
        let denot_action = Action::lift(w.denotation().to_superoperator());
        assert!(actions_approx_eq(&encoded_action, &denot_action));
    }

    #[test]
    fn theorem_4_5_on_branching_program() {
        let meas = Measurement::computational_basis(2);
        let x = Program::unitary("x", &gates::pauli_x());
        let h = Program::unitary("h", &gates::hadamard());
        let p = Program::case(["m0", "m1"], &meas, vec![x.then(&h), Program::abort(2)]);
        let mut setting = EncoderSetting::new(2);
        let expr = setting.encode(&p).unwrap();
        assert_eq!(expr.to_string(), "m0 (x h) + m1 0");
        let int = setting.interpretation();
        let lhs = int.action(&expr);
        let rhs = Action::lift(p.denotation().to_superoperator());
        assert!(actions_approx_eq(&lhs, &rhs));
        // And the action applied to a state matches run().
        let rho = states::maximally_mixed(2);
        let out = lhs.apply(&ExtPosOp::from_operator(&rho));
        assert!(out.finite_part().approx_eq(&p.run(&rho), 1e-8));
    }
}
