//! ε-free weighted automata.

use crate::matrix::{dot, SparseMatrix};
use crate::nfa::Nfa;
use nka_semiring::{BigRational, ExtNat, Semiring};
use nka_syntax::{Symbol, Word};
use std::collections::{BTreeMap, BTreeSet};

/// An ε-free weighted finite automaton over a semiring `S`: an initial row
/// vector, a final column vector, and one sparse transition matrix per
/// symbol (symbols without a matrix have the zero matrix).
///
/// The recognized series is `w ↦ ι^T · M_{w₁} ⋯ M_{wₖ} · φ`.
///
/// # Examples
///
/// ```
/// use nka_wfa::position::position_automaton;
/// use nka_syntax::{Expr, Symbol, Word};
/// use nka_semiring::ExtNat;
///
/// let e: Expr = "a a + a a".parse()?;
/// let wfa = position_automaton(&e)?;
/// let aa = Word::from_symbols([Symbol::intern("a"), Symbol::intern("a")]);
/// assert_eq!(wfa.coefficient(&aa), ExtNat::from(2u64));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Wfa<S> {
    state_count: usize,
    initial: Vec<S>,
    final_weights: Vec<S>,
    transitions: BTreeMap<Symbol, SparseMatrix<S>>,
}

impl<S: Semiring> Wfa<S> {
    /// Assembles an automaton from its parts.
    ///
    /// # Panics
    ///
    /// Panics if vector/matrix dimensions disagree with `state_count`.
    pub fn new(
        state_count: usize,
        initial: Vec<S>,
        final_weights: Vec<S>,
        transitions: BTreeMap<Symbol, SparseMatrix<S>>,
    ) -> Self {
        assert_eq!(initial.len(), state_count);
        assert_eq!(final_weights.len(), state_count);
        for m in transitions.values() {
            assert_eq!(m.rows(), state_count);
            assert_eq!(m.cols(), state_count);
        }
        Wfa {
            state_count,
            initial,
            final_weights,
            transitions,
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// The initial weight row vector.
    pub fn initial(&self) -> &[S] {
        &self.initial
    }

    /// The final weight column vector.
    pub fn final_weights(&self) -> &[S] {
        &self.final_weights
    }

    /// The transition matrix of `sym`, if any edge carries it.
    pub fn transition(&self, sym: Symbol) -> Option<&SparseMatrix<S>> {
        self.transitions.get(&sym)
    }

    /// Symbols with at least one (possibly zero-weight) transition entry.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.transitions.keys().copied()
    }

    /// The coefficient of `word` in the recognized series.
    pub fn coefficient(&self, word: &Word) -> S {
        let mut v = self.initial.clone();
        for &sym in word.symbols() {
            match self.transitions.get(&sym) {
                Some(m) => v = m.vec_mul(&v),
                None => return S::zero(),
            }
        }
        dot(&v, &self.final_weights)
    }

    /// The disjoint union with `other`, with `other`'s final weights mapped
    /// through `negate`. Over a ring (e.g. `i128` or [`BigRational`]) with
    /// `negate = -1`, the result recognizes the *difference* of the two
    /// series; its zeroness is then tested by [`crate::zeroness`].
    pub fn difference(&self, other: &Wfa<S>, negate: impl Fn(&S) -> S) -> Wfa<S> {
        let n = self.state_count + other.state_count;
        let mut initial = self.initial.clone();
        initial.extend(other.initial.iter().cloned());
        let mut final_weights = self.final_weights.clone();
        final_weights.extend(other.final_weights.iter().map(&negate));
        let symbols: BTreeSet<Symbol> = self
            .transitions
            .keys()
            .chain(other.transitions.keys())
            .copied()
            .collect();
        let transitions = symbols
            .into_iter()
            .map(|sym| {
                let mut m = SparseMatrix::new(n);
                for (part, offset) in [(self, 0), (other, self.state_count)] {
                    for i in 0..part.state_count {
                        let row = part.transitions.get(&sym).map_or(&[][..], |a| a.row(i));
                        m.push_row(row.iter().map(|(j, w)| (offset + j, w.clone())));
                    }
                }
                (sym, m)
            })
            .collect();
        Wfa::new(n, initial, final_weights, transitions)
    }
}

impl Wfa<ExtNat> {
    /// The regular language of words with coefficient `∞`, as an NFA.
    ///
    /// A word of length `k` has at most `state_count^k` accepting paths and
    /// every weight is non-negative, so its coefficient is `∞` **iff** some
    /// accepting path of non-zero weights crosses an `∞` weight (edge,
    /// initial, or final). The NFA tracks a "seen ∞" flag: state `2q`
    /// means "at `q`, no ∞ seen yet", `2q + 1` means "at `q`, ∞ seen".
    ///
    /// An automaton with no `∞` weight at all (every program encoding:
    /// no starred body of one is nullable) gets the empty NFA, with no
    /// state and the same empty language, so its subset construction
    /// yields the one-state DFA that accepts nothing.
    pub fn infinity_support(&self) -> Nfa {
        if !self.has_infinite_weight() {
            return Nfa::new(0);
        }
        let n = self.state_count;
        let mut nfa = Nfa::new(2 * n);
        for (q, w) in self.initial.iter().enumerate() {
            if w.is_zero() {
                continue;
            }
            nfa.add_initial(2 * q + usize::from(w.is_infinite()));
        }
        for (q, w) in self.final_weights.iter().enumerate() {
            if w.is_zero() {
                continue;
            }
            // Accept from the flagged copy always; from the unflagged copy
            // only if the final weight itself is ∞.
            nfa.add_accepting(2 * q + 1);
            if w.is_infinite() {
                nfa.add_accepting(2 * q);
            }
        }
        for (&sym, m) in &self.transitions {
            for (i, j, w) in m.entries() {
                // Unflagged source: flag becomes (inf).
                nfa.add_transition(2 * i, sym, 2 * j + usize::from(w.is_infinite()));
                // Flagged source stays flagged.
                nfa.add_transition(2 * i + 1, sym, 2 * j + 1);
            }
        }
        nfa
    }

    /// Whether any initial, final or transition weight is `∞`.
    pub(crate) fn has_infinite_weight(&self) -> bool {
        self.initial
            .iter()
            .chain(&self.final_weights)
            .chain(
                self.transitions
                    .values()
                    .flat_map(|m| m.entries().map(|(_, _, w)| w)),
            )
            .any(|w| w.is_infinite())
    }

    /// The finite part: all `∞` weights replaced by zero and the
    /// remaining natural-number weights embedded into `T`.
    ///
    /// On any word *outside* the ∞-support this recognizes exactly the same
    /// (finite) coefficient: a path through an `∞` weight on such a word
    /// must also cross a zero weight, so it contributed nothing anyway.
    /// The decision engine reads its automata's weights this way, into
    /// `i128`, as it builds the restriction product, without building
    /// the finite part.
    pub fn finite_part<T: Semiring + From<u64>>(&self) -> Wfa<T> {
        let conv = |w: &ExtNat| T::from(w.finite().unwrap_or(0));
        let initial = self.initial.iter().map(conv).collect();
        let final_weights = self.final_weights.iter().map(conv).collect();
        let transitions = self
            .transitions
            .iter()
            .map(|(&sym, m)| (sym, m.map_nonzero(conv)))
            .collect();
        Wfa::new(self.state_count, initial, final_weights, transitions)
    }

    /// The finite part embedded into Q ([`Wfa::finite_part`]).
    pub fn rational_part(&self) -> Wfa<BigRational> {
        self.finite_part()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thompson;
    use nka_syntax::Expr;

    fn wfa_of(src: &str) -> Wfa<ExtNat> {
        let e: Expr = src.parse().unwrap();
        thompson(&e).eliminate_epsilon()
    }

    fn word(names: &[&str]) -> Word {
        Word::from_symbols(names.iter().map(|n| Symbol::intern(n)))
    }

    #[test]
    fn infinity_support_of_star_one() {
        let wfa = wfa_of("1* a");
        let nfa = wfa.infinity_support();
        let alphabet = [Symbol::intern("a")];
        let dfa = nfa.determinize(&alphabet, 10_000).unwrap();
        assert!(dfa.accepts(word(&["a"]).symbols()));
        assert!(!dfa.accepts(word(&[]).symbols()));
        assert!(!dfa.accepts(word(&["a", "a"]).symbols()));
    }

    #[test]
    fn infinity_support_empty_for_finite_series() {
        let wfa = wfa_of("(a b)* a");
        let nfa = wfa.infinity_support();
        let alphabet = [Symbol::intern("a"), Symbol::intern("b")];
        let dfa = nfa.determinize(&alphabet, 10_000).unwrap();
        assert!(dfa.is_empty_language());
    }

    #[test]
    fn an_automaton_without_infinite_weights_has_the_empty_support_nfa() {
        let finite = wfa_of("(a b)* a + (a a)*");
        assert!(!finite.has_infinite_weight());
        assert_eq!(finite.infinity_support().state_count(), 0);
        let dfa = finite
            .infinity_support()
            .determinize(&[Symbol::intern("a"), Symbol::intern("b")], 1)
            .unwrap();
        assert_eq!(dfa.state_count(), 1);
        assert!(dfa.is_empty_language());
        // A zero budget still fails on the empty NFA.
        assert!(finite.infinity_support().determinize(&[], 0).is_err());
        assert!(wfa_of("(1 + a)* b").has_infinite_weight());
    }

    #[test]
    fn rational_part_matches_on_finite_words() {
        let wfa = wfa_of("a a + a a + b");
        let q = wfa.rational_part();
        assert_eq!(q.coefficient(&word(&["a", "a"])), BigRational::from(2u64));
        assert_eq!(q.coefficient(&word(&["b"])), BigRational::from(1u64));
        assert_eq!(q.coefficient(&word(&["a"])), BigRational::zero());
    }

    #[test]
    fn difference_automaton_recognizes_difference() {
        let a = wfa_of("a + a").rational_part();
        let b = wfa_of("a").rational_part();
        let diff = a.difference(&b, |w| -w.clone());
        assert_eq!(diff.coefficient(&word(&["a"])), BigRational::from(1u64));
        let zero_diff = a.difference(&a, |w| -w.clone());
        assert_eq!(zero_diff.coefficient(&word(&["a"])), BigRational::zero());
    }
}
