//! The decision procedure for the equational theory of NKA.
//!
//! `⊢NKA e = f  ⇔  {{e}} = {{f}}` (Theorem A.6), and series equality is
//! decided by comparing ∞-supports as regular languages and finite parts as
//! Q-weighted automata. See the crate documentation for the pipeline.

use crate::engine::Decider;
use crate::nfa::DeterminizeOverflow;
use nka_syntax::Expr;
use std::fmt;

/// Error raised by [`decide_eq`] when a resource bound is exceeded.
///
/// The equational theory of NKA is PSPACE-hard (Remark 2.1): subset
/// construction on the ∞-support can blow up exponentially, and so can
/// the restriction product of the finite part. The procedure is exact
/// whenever it answers; this error reports that it ran out of its state
/// budget, or that a finite path count outgrew `u64`, instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecideError {
    cause: Cause,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Cause {
    Determinize(DeterminizeOverflow),
    Product { max_states: usize },
    CountOverflow,
}

impl DecideError {
    /// The restriction product needed more than `max_states` states.
    pub(crate) fn product_overflow(max_states: usize) -> DecideError {
        DecideError {
            cause: Cause::Product { max_states },
        }
    }

    /// A finite weight of a compiled automaton exceeded `u64::MAX`.
    pub(crate) fn count_overflow() -> DecideError {
        DecideError {
            cause: Cause::CountOverflow,
        }
    }
}

impl fmt::Display for DecideError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NKA decision procedure out of budget: ")?;
        match &self.cause {
            Cause::Determinize(overflow) => write!(f, "{overflow}"),
            Cause::Product { max_states } => {
                write!(f, "restriction product exceeded {max_states} states")
            }
            Cause::CountOverflow => write!(f, "a finite path count overflowed u64"),
        }
    }
}

impl std::error::Error for DecideError {}

impl From<DeterminizeOverflow> for DecideError {
    fn from(overflow: DeterminizeOverflow) -> Self {
        DecideError {
            cause: Cause::Determinize(overflow),
        }
    }
}

/// Options for [`decide_eq_with`].
#[derive(Debug, Clone)]
pub struct DecideOptions {
    /// State budget for each subset construction, and for the
    /// restriction product of the finite-part check (default 100 000).
    pub max_dfa_states: usize,
    /// Entry budget for the star-free fast path (`crate::starfree`):
    /// a star-free query whose word multisets would exceed this many
    /// distinct words per map falls back to the generic automaton
    /// pipeline. `0` disables the fast path entirely — every query
    /// takes the generic path, which differential tests use to force
    /// the two pipelines against each other. Default 8192.
    pub starfree_max_words: usize,
}

impl Default for DecideOptions {
    fn default() -> Self {
        DecideOptions {
            max_dfa_states: 100_000,
            starfree_max_words: 8192,
        }
    }
}

/// Decides `⊢NKA e = f`.
///
/// # Errors
///
/// Returns [`DecideError`] if a subset construction or the restriction
/// product exceeds the default state budget; use [`decide_eq_with`] to
/// raise it.
///
/// # Examples
///
/// ```
/// use nka_wfa::decide_eq;
/// use nka_syntax::Expr;
///
/// // product-star (Figure 2a): 1 + p(qp)*q = (pq)*
/// let lhs: Expr = "1 + p (q p)* q".parse()?;
/// let rhs: Expr = "(p q)*".parse()?;
/// assert!(decide_eq(&lhs, &rhs)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn decide_eq(e: &Expr, f: &Expr) -> Result<bool, DecideError> {
    decide_eq_with(e, f, &DecideOptions::default())
}

/// [`decide_eq`] with explicit resource options.
///
/// This is a one-shot convenience over [`Decider`]: it builds a fresh
/// engine, decides, and throws the caches away. Callers with more than one
/// query should hold a [`Decider`] and reuse it.
///
/// # Errors
///
/// Returns [`DecideError`] if a subset construction or the restriction
/// product exceeds `opts.max_dfa_states`.
pub fn decide_eq_with(e: &Expr, f: &Expr, opts: &DecideOptions) -> Result<bool, DecideError> {
    Decider::with_options(opts.clone()).decide(e, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq(l: &str, r: &str) -> bool {
        decide_eq(&l.parse().unwrap(), &r.parse().unwrap()).unwrap()
    }

    #[test]
    fn semiring_axioms_hold() {
        assert!(eq("p + (q + r)", "(p + q) + r"));
        assert!(eq("p + q", "q + p"));
        assert!(eq("p + 0", "p"));
        assert!(eq("p (q r)", "(p q) r"));
        assert!(eq("1 p", "p"));
        assert!(eq("p 1", "p"));
        assert!(eq("0 p", "0"));
        assert!(eq("p 0", "0"));
        assert!(eq("p (q + r)", "p q + p r"));
        assert!(eq("(p + q) r", "p r + q r"));
    }

    #[test]
    fn figure_2a_theorems_hold() {
        assert!(eq("1 + p p*", "p*"));
        assert!(eq("1 + p* p", "p*"));
        assert!(eq("1 + p (q p)* q", "(p q)*"));
        assert!(eq("(p q)* p", "p (q p)*"));
        assert!(eq("(p + q)*", "(p* q)* p*"));
        assert!(eq("(p + q)*", "p* (q p*)*"));
    }

    #[test]
    fn figure_2b_theorems_hold() {
        assert!(eq("(p p)* (1 + p)", "p*"));
    }

    #[test]
    fn ka_only_laws_fail() {
        // The idempotent law and its consequences are NOT NKA theorems.
        assert!(!eq("p + p", "p"));
        assert!(!eq("p* p*", "p*"));
        assert!(!eq("(p*)*", "p*"));
        assert!(!eq("1 + 1", "1"));
    }

    #[test]
    fn infinite_coefficient_expressions() {
        assert!(eq("1* 1*", "1*"));
        assert!(eq("1*", "1* + 1"));
        assert!(eq("1*", "1* + 1*"));
        assert!(!eq("1* p", "p"));
        assert!(eq("1* p", "1* p + p"));
        // Divergence in different "directions" must be distinguished
        // (cf. Remark 3.1: Σ|0⟩⟨0| vs Σ|1⟩⟨1|).
        assert!(!eq("1* p", "1* q"));
        assert!(!eq("1* p + q", "p + 1* q"));
    }

    #[test]
    fn star_height_two() {
        assert!(eq("((p)*)* q", "1* (p* q)")); // hmm-check via oracle below
    }

    #[test]
    fn non_theorems_with_close_series() {
        assert!(!eq("(p q)*", "(q p)*"));
        assert!(!eq("p q", "q p"));
        assert!(!eq("p* q*", "q* p*"));
    }

    #[test]
    fn decision_agrees_with_truncated_series_oracle() {
        use nka_series::eval;
        use nka_syntax::{random_expr, ExprGenConfig};

        let alphabet = vec![
            nka_syntax::Symbol::intern("a"),
            nka_syntax::Symbol::intern("b"),
        ];
        let config = ExprGenConfig::new(alphabet.clone()).with_target_size(8);
        let mut seed = 0x5EED_1234_5678_9ABC;
        let mut exprs = Vec::new();
        for _ in 0..40 {
            exprs.push(random_expr(&config, &mut seed));
        }
        for i in 0..exprs.len() {
            for j in i..exprs.len() {
                let decided = decide_eq(&exprs[i], &exprs[j]).unwrap();
                let se = eval(&exprs[i], &alphabet, 4);
                let sf = eval(&exprs[j], &alphabet, 4);
                if decided {
                    assert_eq!(
                        se, sf,
                        "decision said equal but truncated series differ: {} vs {}",
                        exprs[i], exprs[j]
                    );
                } else if se != sf {
                    // Consistent: truly different.
                } else {
                    // The oracle cannot refute at this truncation; nothing
                    // to check (the decision procedure may see longer words).
                }
            }
        }
    }
}
