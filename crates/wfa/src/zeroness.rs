//! Zeroness of Q-weighted automata (Tzeng / Schützenberger forward basis).
//!
//! A Q-weighted automaton recognizes the zero series iff the final vector is
//! orthogonal to the *reachable row space* `span{ ι^T·M_w : w ∈ Σ* }`. The
//! forward-basis algorithm computes that span in at most `n` extensions
//! (its dimension is bounded by the state count), so zeroness is decided in
//! polynomial time — with **exact rational arithmetic**, since the pivots
//! produced by Gaussian elimination on exponentially large path weights
//! overflow any fixed-precision representation.

use crate::automaton::Wfa;
use crate::matrix::dot;
use crate::nfa::Dfa;
use nka_semiring::BigRational;
use nka_syntax::Symbol;
use std::collections::BTreeMap;

/// Reduces `v` against the row-echelon `basis` in place; returns the pivot
/// column if a non-zero residual remains.
fn reduce(v: &mut [BigRational], basis: &[(usize, Vec<BigRational>)]) -> Option<usize> {
    for (pivot, row) in basis {
        if !v[*pivot].is_zero() {
            let factor = v[*pivot].clone();
            for (x, r) in v.iter_mut().zip(row) {
                *x = &*x - &(&factor * r);
            }
        }
    }
    v.iter().position(|x| !x.is_zero())
}

fn normalize(v: &mut [BigRational], pivot: usize) {
    let inv = v[pivot].recip();
    for x in v.iter_mut() {
        *x = &*x * &inv;
    }
}

/// Decides whether `wfa` recognizes the identically-zero series.
///
/// # Examples
///
/// ```
/// use nka_wfa::{thompson, zeroness::is_zero_series};
/// use nka_syntax::Expr;
///
/// let e: Expr = "a b".parse()?;
/// let f: Expr = "a b".parse()?;
/// let (we, wf) = (
///     thompson(&e).eliminate_epsilon().rational_part(),
///     thompson(&f).eliminate_epsilon().rational_part(),
/// );
/// let diff = we.difference(&wf, |w| -w.clone());
/// assert!(is_zero_series(&diff));
/// # Ok::<(), nka_syntax::ParseExprError>(())
/// ```
pub fn is_zero_series(wfa: &Wfa<BigRational>) -> bool {
    let n = wfa.state_count();
    let symbols: Vec<Symbol> = wfa.symbols().collect();
    let mut basis: Vec<(usize, Vec<BigRational>)> = Vec::new();
    let mut worklist: Vec<Vec<BigRational>> = vec![wfa.initial().to_vec()];

    while let Some(mut v) = worklist.pop() {
        let Some(pivot) = reduce(&mut v, &basis) else {
            continue;
        };
        if !dot(&v, wfa.final_weights()).is_zero() {
            return false;
        }
        normalize(&mut v, pivot);
        for &sym in &symbols {
            let m = wfa.transition(sym).expect("listed symbol has a matrix");
            worklist.push(m.vec_mul(&v));
        }
        basis.push((pivot, v));
        debug_assert!(basis.len() <= n, "basis larger than state count");
    }
    true
}

/// Restricts `wfa` to the language of `dfa`: the product automaton
/// recognizes `w ↦ wfa(w)·[w ∈ L(dfa)]`.
///
/// Used to test zeroness of the difference series only *outside* the
/// ∞-support (pass the complement DFA of the support).
pub fn restrict_to_language(wfa: &Wfa<BigRational>, dfa: &Dfa) -> Wfa<BigRational> {
    let n = wfa.state_count();
    let d = dfa.state_count();
    let idx = |q: usize, s: usize| q * d + s;
    let mut initial = vec![BigRational::zero(); n * d];
    for (q, w) in wfa.initial().iter().enumerate() {
        initial[idx(q, 0)] = w.clone();
    }
    let mut final_weights = vec![BigRational::zero(); n * d];
    for (q, w) in wfa.final_weights().iter().enumerate() {
        for s in 0..d {
            if dfa.is_accepting(s) {
                final_weights[idx(q, s)] = w.clone();
            }
        }
    }
    let mut transitions = BTreeMap::new();
    for sym in wfa.symbols() {
        let Some(ai) = dfa.alphabet().iter().position(|&s| s == sym) else {
            // The DFA's alphabet lacks this symbol: words using it are not
            // in L(dfa), so the product simply has no such transitions.
            continue;
        };
        let m = wfa.transition(sym).expect("listed symbol has a matrix");
        let mut prod = crate::matrix::SMatrix::zeros(n * d, n * d);
        for s in 0..d {
            let s2 = dfa.step(s, ai);
            for i in 0..n {
                for j in 0..n {
                    let w = m[(i, j)].clone();
                    if !w.is_zero() {
                        prod[(idx(i, s), idx(j, s2))] = w;
                    }
                }
            }
        }
        transitions.insert(sym, prod);
    }
    Wfa::new(n * d, initial, final_weights, transitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thompson;
    use nka_syntax::{Expr, Word};

    fn rational_wfa(src: &str) -> Wfa<BigRational> {
        let e: Expr = src.parse().unwrap();
        thompson(&e).eliminate_epsilon().rational_part()
    }

    #[test]
    fn equal_series_difference_is_zero() {
        let cases = [
            ("(a b)* a", "a (b a)*"),
            ("(a + b)*", "(a* b)* a*"),
            ("1 + a a*", "a*"),
            ("(a a)* (1 + a)", "a*"),
        ];
        for (l, r) in cases {
            let diff = rational_wfa(l).difference(&rational_wfa(r), |w| -w.clone());
            assert!(is_zero_series(&diff), "{l} vs {r}");
        }
    }

    #[test]
    fn unequal_series_detected() {
        let cases = [
            ("a + a", "a"),
            ("a*", "1 + a"),
            ("a b", "b a"),
            ("(a + b)*", "a* b*"),
        ];
        for (l, r) in cases {
            let diff = rational_wfa(l).difference(&rational_wfa(r), |w| -w.clone());
            assert!(!is_zero_series(&diff), "{l} vs {r}");
        }
    }

    #[test]
    fn restriction_kills_coefficients_outside_language() {
        let wfa = rational_wfa("a* b");
        // DFA for the single word "b" over {a, b}.
        let mut nfa = crate::nfa::Nfa::new(2);
        nfa.add_initial(0);
        nfa.add_accepting(1);
        nfa.add_transition(0, Symbol::intern("b"), 1);
        let alphabet = [Symbol::intern("a"), Symbol::intern("b")];
        let dfa = nfa.determinize(&alphabet, 100).unwrap();
        let restricted = restrict_to_language(&wfa, &dfa);
        let b_word = Word::from_symbols([Symbol::intern("b")]);
        let ab_word = Word::from_symbols([Symbol::intern("a"), Symbol::intern("b")]);
        assert_eq!(restricted.coefficient(&b_word), BigRational::from(1u64));
        assert_eq!(restricted.coefficient(&ab_word), BigRational::zero());
    }
}
