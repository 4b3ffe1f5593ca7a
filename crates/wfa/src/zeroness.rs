//! Zeroness of Q-weighted automata (Tzeng / Schützenberger forward basis),
//! and the restriction of an automaton to a regular language.
//!
//! A Q-weighted automaton recognizes the zero series iff the final vector is
//! orthogonal to the *reachable row space* `span{ ι^T·M_w : w ∈ Σ* }`. The
//! forward-basis algorithm computes that span in at most `n` extensions
//! (its dimension is bounded by the state count), so zeroness is decided in
//! polynomial time — with **exact rational arithmetic**, since the pivots
//! produced by Gaussian elimination on exponentially large path weights
//! overflow any fixed-precision representation. Basis rows are kept
//! sparse, and each extension multiplies one of them by a sparse
//! transition matrix, so the pass costs time in non-zero entries.
//!
//! The decision procedure tests zeroness only outside the ∞-support, on
//! the product of the difference automaton with a DFA. That product is
//! built on the fly ([`restrict_to_language`]): a breadth-first search
//! from the initial states creates a state pair `(q, s)` only when a
//! non-zero edge reaches it, and never enters a DFA state from which no
//! accepting state can be reached. Out of the `n·d` pairs only the
//! reachable ones exist, and the engine charges each one against its
//! state budget.

use crate::automaton::Wfa;
use crate::decide::DecideError;
use crate::matrix::{dot, SparseMatrix};
use crate::nfa::Dfa;
use nka_semiring::BigRational;
use nka_syntax::Symbol;
use std::collections::{BTreeMap, HashMap};

/// A basis row: its pivot column and its non-zero entries, sorted by
/// column, with weight 1 at the pivot.
type BasisRow = (usize, Vec<(usize, BigRational)>);

/// Reduces `v` against the row-echelon `basis` in place; returns the pivot
/// column if a non-zero residual remains.
fn reduce(v: &mut [BigRational], basis: &[BasisRow]) -> Option<usize> {
    for (pivot, row) in basis {
        if !v[*pivot].is_zero() {
            let factor = v[*pivot].clone();
            for (j, r) in row {
                v[*j] -= &(&factor * r);
            }
        }
    }
    v.iter().position(|x| !x.is_zero())
}

/// The non-zero entries of `v`, scaled so that the pivot entry is 1.
fn normalize(v: &[BigRational], pivot: usize) -> Vec<(usize, BigRational)> {
    let inv = v[pivot].recip();
    v.iter()
        .enumerate()
        .filter(|(_, x)| !x.is_zero())
        .map(|(j, x)| (j, x * &inv))
        .collect()
}

/// The sparse row vector `v` times `m`, as a dense vector.
fn sparse_vec_mul(v: &[(usize, BigRational)], m: &SparseMatrix<BigRational>) -> Vec<BigRational> {
    let mut out = vec![BigRational::zero(); m.cols()];
    for (i, x) in v {
        for (j, w) in m.row(*i) {
            out[*j] += &(x * w);
        }
    }
    out
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
    let matrices: Vec<&SparseMatrix<BigRational>> = wfa
        .symbols()
        .filter_map(|sym| wfa.transition(sym))
        .collect();
    let mut basis: Vec<BasisRow> = Vec::new();
    // Extensions still to reduce, as (basis row, matrix) pairs: the
    // product is formed only when it is popped.
    let mut pending: Vec<(usize, usize)> = Vec::new();
    let mut next = Some(wfa.initial().to_vec());
    while let Some(mut v) = next {
        if let Some(pivot) = reduce(&mut v, &basis) {
            if !dot(&v, wfa.final_weights()).is_zero() {
                return false;
            }
            basis.push((pivot, normalize(&v, pivot)));
            debug_assert!(
                basis.len() <= wfa.state_count(),
                "basis larger than state count"
            );
            pending.extend((0..matrices.len()).map(|m| (basis.len() - 1, m)));
        }
        next = pending
            .pop()
            .map(|(row, m)| sparse_vec_mul(&basis[row].1, matrices[m]));
    }
    true
}

/// Restricts `wfa` to the language of `dfa`: the product automaton
/// recognizes `w ↦ wfa(w)·[w ∈ L(dfa)]`.
///
/// Used to test zeroness of the difference series only *outside* the
/// ∞-support (pass the complement DFA of the support). Only the state
/// pairs reachable through non-zero edges, and from which `dfa` can
/// still accept, are built (see the [module docs](self)). Their number
/// is not bounded here; the engine's own call charges them against its
/// state budget.
pub fn restrict_to_language(wfa: &Wfa<BigRational>, dfa: &Dfa) -> Wfa<BigRational> {
    restrict_within(wfa, dfa, |s| dfa.is_accepting(s), usize::MAX)
        .expect("an unbounded product cannot overflow its budget")
}

/// [`restrict_to_language`] with the DFA's acceptance read through
/// `accepting` (the engine passes the negation, restricting to the
/// complement without building it) and at most `max_states` product
/// states.
///
/// # Errors
///
/// Returns [`DecideError`] if the product needs more than `max_states`
/// states.
pub(crate) fn restrict_within(
    wfa: &Wfa<BigRational>,
    dfa: &Dfa,
    accepting: impl Fn(usize) -> bool,
    max_states: usize,
) -> Result<Wfa<BigRational>, DecideError> {
    // Symbols the DFA's alphabet lacks have no product edges: words
    // using them are not in L(dfa).
    let moves: Vec<(Symbol, usize, &SparseMatrix<BigRational>)> = wfa
        .symbols()
        .filter_map(|sym| {
            let ai = dfa.alphabet().iter().position(|&s| s == sym)?;
            Some((sym, ai, wfa.transition(sym)?))
        })
        .collect();
    let used: Vec<usize> = moves.iter().map(|&(_, ai, _)| ai).collect();
    let alive = co_reachable(dfa, &accepting, &used);

    let mut product = Product {
        index: HashMap::new(),
        pairs: Vec::new(),
        max_states,
    };
    let mut initial = Vec::new();
    if alive[0] {
        for (q, w) in wfa.initial().iter().enumerate() {
            if !w.is_zero() {
                product.state((q, 0))?;
                initial.push(w.clone());
            }
        }
    }
    // Breadth-first: state k is expanded k-th, so each symbol's rows are
    // produced in state order.
    let mut rows: Vec<Vec<Vec<(usize, BigRational)>>> = vec![Vec::new(); moves.len()];
    let mut next = 0;
    while let Some(&(q, s)) = product.pairs.get(next) {
        for (&(_, ai, m), rows) in moves.iter().zip(&mut rows) {
            let s2 = dfa.step(s, ai);
            let mut row = Vec::new();
            if alive[s2] {
                for (j, w) in m.row(q) {
                    row.push((product.state((*j, s2))?, w.clone()));
                }
            }
            rows.push(row);
        }
        next += 1;
    }

    let k = product.pairs.len();
    initial.resize(k, BigRational::zero());
    let final_weights = product
        .pairs
        .iter()
        .map(|&(q, s)| {
            if accepting(s) {
                wfa.final_weights()[q].clone()
            } else {
                BigRational::zero()
            }
        })
        .collect();
    let transitions: BTreeMap<Symbol, SparseMatrix<BigRational>> = moves
        .iter()
        .zip(rows)
        .map(|(&(sym, _, _), rows)| {
            let mut m = SparseMatrix::new(k);
            for row in rows {
                m.push_row(row);
            }
            (sym, m)
        })
        .collect();
    Ok(Wfa::new(k, initial, final_weights, transitions))
}

/// The restriction product's states under construction: `(wfa state,
/// dfa state)` pairs numbered in discovery order.
struct Product {
    index: HashMap<(usize, usize), usize>,
    pairs: Vec<(usize, usize)>,
    max_states: usize,
}

impl Product {
    /// The number of `pair`, creating it if it is new.
    fn state(&mut self, pair: (usize, usize)) -> Result<usize, DecideError> {
        if let Some(&k) = self.index.get(&pair) {
            return Ok(k);
        }
        if self.pairs.len() >= self.max_states {
            return Err(DecideError::product_overflow(self.max_states));
        }
        let k = self.pairs.len();
        self.pairs.push(pair);
        self.index.insert(pair, k);
        Ok(k)
    }
}

/// The DFA states from which an `accepting` state can be reached using
/// only the alphabet indices in `used`.
fn co_reachable(dfa: &Dfa, accepting: impl Fn(usize) -> bool, used: &[usize]) -> Vec<bool> {
    let d = dfa.state_count();
    let mut predecessors = vec![Vec::new(); d];
    for s in 0..d {
        for &ai in used {
            predecessors[dfa.step(s, ai)].push(s);
        }
    }
    let mut alive: Vec<bool> = (0..d).map(&accepting).collect();
    let mut stack: Vec<usize> = (0..d).filter(|&s| alive[s]).collect();
    while let Some(t) = stack.pop() {
        for &s in &predecessors[t] {
            if !alive[s] {
                alive[s] = true;
                stack.push(s);
            }
        }
    }
    alive
}

/// The dense kernel the sparse one replaced, kept as a test oracle: the
/// full `n·d`-state product as dense matrices, and the forward basis on
/// dense vectors.
#[cfg(test)]
mod dense_reference {
    use crate::automaton::Wfa;
    use crate::matrix::{dot, SMatrix};
    use crate::nfa::Dfa;
    use nka_semiring::BigRational;

    pub(super) struct DenseWfa {
        states: usize,
        initial: Vec<BigRational>,
        final_weights: Vec<BigRational>,
        transitions: Vec<SMatrix<BigRational>>,
    }

    fn vec_mul(m: &SMatrix<BigRational>, v: &[BigRational]) -> Vec<BigRational> {
        let mut out = vec![BigRational::zero(); v.len()];
        for (i, x) in v.iter().enumerate() {
            if x.is_zero() {
                continue;
            }
            for (j, o) in out.iter_mut().enumerate() {
                *o = &*o + &(x * &m[(i, j)]);
            }
        }
        out
    }

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

    pub(super) fn is_zero_series(wfa: &DenseWfa) -> bool {
        let mut basis: Vec<(usize, Vec<BigRational>)> = Vec::new();
        let mut worklist: Vec<Vec<BigRational>> = vec![wfa.initial.clone()];
        while let Some(mut v) = worklist.pop() {
            let Some(pivot) = reduce(&mut v, &basis) else {
                continue;
            };
            if !dot(&v, &wfa.final_weights).is_zero() {
                return false;
            }
            let inv = v[pivot].recip();
            for x in v.iter_mut() {
                *x = &*x * &inv;
            }
            for m in &wfa.transitions {
                worklist.push(vec_mul(m, &v));
            }
            basis.push((pivot, v));
            assert!(basis.len() <= wfa.states, "basis larger than state count");
        }
        true
    }

    pub(super) fn restrict_to_language(wfa: &Wfa<BigRational>, dfa: &Dfa) -> DenseWfa {
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
        let mut transitions = Vec::new();
        for sym in wfa.symbols() {
            let Some(ai) = dfa.alphabet().iter().position(|&s| s == sym) else {
                continue;
            };
            let m = wfa.transition(sym).expect("listed symbol has a matrix");
            let mut prod = SMatrix::zeros(n * d, n * d);
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
            transitions.push(prod);
        }
        DenseWfa {
            states: n * d,
            initial,
            final_weights,
            transitions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thompson;
    use nka_syntax::{random_expr, Expr, ExprGenConfig, Word};
    use proptest::prelude::*;

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

    /// The DFA of the single word "b" over {a, b}.
    fn only_b() -> Dfa {
        let mut nfa = crate::nfa::Nfa::new(2);
        nfa.add_initial(0);
        nfa.add_accepting(1);
        nfa.add_transition(0, Symbol::intern("b"), 1);
        let alphabet = [Symbol::intern("a"), Symbol::intern("b")];
        nfa.determinize(&alphabet, 100).unwrap()
    }

    #[test]
    fn restriction_kills_coefficients_outside_language() {
        let wfa = rational_wfa("a* b");
        let restricted = restrict_to_language(&wfa, &only_b());
        let b_word = Word::from_symbols([Symbol::intern("b")]);
        let ab_word = Word::from_symbols([Symbol::intern("a"), Symbol::intern("b")]);
        assert_eq!(restricted.coefficient(&b_word), BigRational::from(1u64));
        assert_eq!(restricted.coefficient(&ab_word), BigRational::zero());
        // Only pairs that reach the one accepting DFA state exist: reading
        // `a` first leads to the DFA's dead state, which is never entered.
        assert!(restricted.state_count() < wfa.state_count() * only_b().state_count());
        assert!(restricted
            .transition(Symbol::intern("a"))
            .unwrap()
            .row(0)
            .is_empty());
    }

    #[test]
    fn a_dfa_that_never_accepts_gives_the_empty_product() {
        let never = restrict_within(&rational_wfa("a* b"), &only_b(), |_| false, 100).unwrap();
        assert_eq!(never.state_count(), 0);
        assert!(is_zero_series(&never));
    }

    /// Every word over `alphabet` of length at most `max_len`.
    fn words_up_to(alphabet: &[Symbol], max_len: usize) -> Vec<Vec<Symbol>> {
        let mut words = vec![Vec::new()];
        let mut layer = vec![Vec::new()];
        for _ in 0..max_len {
            layer = layer
                .iter()
                .flat_map(|w: &Vec<Symbol>| {
                    alphabet.iter().map(move |&a| {
                        let mut longer = w.clone();
                        longer.push(a);
                        longer
                    })
                })
                .collect();
            words.extend(layer.iter().cloned());
        }
        words
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The sparse on-the-fly product and zeroness pass agree with the
        /// dense kernel on random starred pairs, and the product's series
        /// is the difference series cut down to the language.
        #[test]
        fn sparse_kernel_matches_the_dense_reference(seed in any::<u64>(), accept_support in any::<bool>()) {
            let alphabet = vec![Symbol::intern("a"), Symbol::intern("b")];
            let config = ExprGenConfig::new(alphabet.clone()).with_target_size(7);
            let mut seed = seed;
            let (e, f) = (random_expr(&config, &mut seed), random_expr(&config, &mut seed));
            let (we, wf) = (thompson(&e).eliminate_epsilon(), thompson(&f).eliminate_epsilon());
            let diff = we.rational_part().difference(&wf.rational_part(), |w| -w.clone());
            let support = we.infinity_support().determinize(&alphabet, 10_000).unwrap();
            let dfa = if accept_support { support } else { support.complement() };

            let sparse = restrict_to_language(&diff, &dfa);
            let dense = dense_reference::restrict_to_language(&diff, &dfa);
            prop_assert_eq!(
                is_zero_series(&sparse),
                dense_reference::is_zero_series(&dense),
                "{} vs {}", e, f
            );
            let complement = dfa.complement();
            let negated = restrict_within(&diff, &complement, |s| !complement.is_accepting(s), usize::MAX).unwrap();
            prop_assert_eq!(negated.state_count(), sparse.state_count());
            for word in words_up_to(&alphabet, 4) {
                let expected = if dfa.accepts(&word) {
                    diff.coefficient(&Word::from_symbols(word.iter().copied()))
                } else {
                    BigRational::zero()
                };
                let word = Word::from_symbols(word);
                prop_assert_eq!(sparse.coefficient(&word), expected.clone(), "{} vs {}", e, f);
                prop_assert_eq!(negated.coefficient(&word), expected, "{} vs {}", e, f);
            }
        }
    }
}
