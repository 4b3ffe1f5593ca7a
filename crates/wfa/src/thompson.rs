//! Thompson construction: expression → ε-WFA over `N̄`.
//!
//! The construction is the classical one, read *quantitatively*: the series
//! recognized by the automaton assigns to each word the (possibly infinite)
//! sum of path weights over **all** accepting paths, counted with
//! multiplicity. For Thompson automata every edge has weight 1, so the
//! coefficient of `w` is the number of accepting runs — which coincides
//! with `{{e}}[w]` by a routine induction on `e` (each run corresponds to
//! one way of deriving `w` from the expression). Multiplicity is exactly
//! what distinguishes NKA from KA: `1 + 1` has *two* ε-runs.

use crate::automaton::Wfa;
use crate::decide::DecideError;
use crate::matrix::{SMatrix, SparseMatrix};
use nka_semiring::{ExtNat, Semiring, StarSemiring};
use nka_syntax::{Expr, ExprNode, Symbol};
use std::collections::BTreeMap;

/// A weighted automaton over `N̄` with ε-transitions, as produced by the
/// Thompson construction. Convert to an ε-free [`Wfa`] with
/// [`EpsWfa::eliminate_epsilon`].
#[derive(Debug, Clone)]
pub struct EpsWfa {
    state_count: usize,
    start: usize,
    accept: usize,
    /// `(from, to)` ε-edges, each of weight 1 (parallel edges allowed).
    eps_edges: Vec<(usize, usize)>,
    /// `(from, symbol, to)` letter edges, each of weight 1.
    sym_edges: Vec<(usize, Symbol, usize)>,
}

impl EpsWfa {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// The number of ε-edges (useful for size statistics in benchmarks).
    pub fn eps_edge_count(&self) -> usize {
        self.eps_edges.len()
    }

    /// Eliminates ε-transitions, producing an equivalent ε-free [`Wfa`].
    ///
    /// The panicking form of [`EpsWfa::eliminate_epsilon_checked`].
    ///
    /// # Panics
    ///
    /// Panics if a *finite* path count overflows `u64`, e.g. the 2⁶⁴
    /// ε-paths of `(1 + 1)` multiplied by itself 64 times.
    pub fn eliminate_epsilon(&self) -> Wfa<ExtNat> {
        self.eliminate_epsilon_checked()
            .expect("ExtNat path count overflow in ε-elimination")
    }

    /// Eliminates ε-transitions, producing an equivalent ε-free [`Wfa`].
    ///
    /// Computes the star `E*` of the ε-weight matrix with Kleene's all-pairs
    /// algebraic-path algorithm (Floyd–Warshall shape, scalar star of `N̄`
    /// at the pivot) in a dense workspace. ε-cycles of weight ≥ 1 correctly
    /// produce `∞` entries, which is how expressions like `1*` acquire
    /// infinite coefficients. Each symbol's matrix `M_a · E*` is then
    /// stored sparse: row `i` is the sum of the closure rows of the
    /// `a`-successors of `i`, non-zero entries only.
    ///
    /// # Errors
    ///
    /// Returns [`DecideError`] if a *finite* path count overflows `u64`
    /// (conflating it with `∞` would make the decision procedure unsound).
    pub fn eliminate_epsilon_checked(&self) -> Result<Wfa<ExtNat>, DecideError> {
        let add = |a: ExtNat, b: ExtNat| a.checked_add(b).ok_or_else(DecideError::count_overflow);
        let mul = |a: ExtNat, b: ExtNat| a.checked_mul(b).ok_or_else(DecideError::count_overflow);
        let one = ExtNat::one_const();
        let n = self.state_count;
        // W[i][j] accumulates the weight of all nonempty ε-paths i→j whose
        // intermediate states are among those already pivoted.
        let mut w = SMatrix::<ExtNat>::zeros(n, n);
        for &(i, j) in &self.eps_edges {
            w[(i, j)] = add(w[(i, j)], one)?;
        }
        for k in 0..n {
            let skk = w[(k, k)].star();
            let row_k: Vec<(usize, ExtNat)> = (0..n)
                .map(|j| (j, w[(k, j)]))
                .filter(|(_, x)| !x.is_zero())
                .collect();
            for i in 0..n {
                // Row i is updated only here, so w[(i, k)] is still the
                // value from before this pivot.
                let left = mul(w[(i, k)], skk)?;
                if left.is_zero() {
                    continue;
                }
                for &(j, x) in &row_k {
                    w[(i, j)] = add(w[(i, j)], mul(left, x)?)?;
                }
            }
        }
        // closure = E* = I + W
        let mut closure = w;
        for i in 0..n {
            closure[(i, i)] = add(closure[(i, i)], one)?;
        }

        // Initial row: ι^T E*  (ι = unit at start).
        let initial = closure.row(self.start).to_vec();
        // Final column: unit at accept.
        let mut final_weights = vec![ExtNat::zero_const(); n];
        final_weights[self.accept] = one;

        // Per-symbol matrices M'_a = M_a · E*, built row by row.
        let mut edges = self.sym_edges.clone();
        edges.sort_unstable_by_key(|&(i, a, j)| (a, i, j));
        let mut transitions = BTreeMap::new();
        for by_symbol in edges.chunk_by(|x, y| x.1 == y.1) {
            let mut m = SparseMatrix::new(n);
            for from_i in by_symbol.chunk_by(|x, y| x.0 == y.0) {
                while m.rows() < from_i[0].0 {
                    m.push_row([]);
                }
                let mut row = vec![ExtNat::zero_const(); n];
                for &(_, _, j) in from_i {
                    for (acc, &x) in row.iter_mut().zip(closure.row(j)) {
                        *acc = add(*acc, x)?;
                    }
                }
                m.push_row(row.into_iter().enumerate());
            }
            while m.rows() < n {
                m.push_row([]);
            }
            transitions.insert(by_symbol[0].1, m);
        }

        Ok(Wfa::new(n, initial, final_weights, transitions))
    }
}

/// Builds the Thompson ε-WFA of an expression.
///
/// # Examples
///
/// ```
/// use nka_wfa::thompson;
/// use nka_syntax::Expr;
/// let e: Expr = "(a b)*".parse()?;
/// let auto = thompson(&e);
/// assert!(auto.state_count() >= 4);
/// # Ok::<(), nka_syntax::ParseExprError>(())
/// ```
pub fn thompson(expr: &Expr) -> EpsWfa {
    let mut builder = Builder {
        state_count: 0,
        eps_edges: Vec::new(),
        sym_edges: Vec::new(),
    };
    let (start, accept) = builder.build(expr);
    EpsWfa {
        state_count: builder.state_count,
        start,
        accept,
        eps_edges: builder.eps_edges,
        sym_edges: builder.sym_edges,
    }
}

struct Builder {
    state_count: usize,
    eps_edges: Vec<(usize, usize)>,
    sym_edges: Vec<(usize, Symbol, usize)>,
}

impl Builder {
    fn fresh(&mut self) -> usize {
        let s = self.state_count;
        self.state_count += 1;
        s
    }

    fn build(&mut self, expr: &Expr) -> (usize, usize) {
        match expr.node() {
            ExprNode::Zero => {
                let s = self.fresh();
                let t = self.fresh();
                (s, t)
            }
            ExprNode::One => {
                let s = self.fresh();
                let t = self.fresh();
                self.eps_edges.push((s, t));
                (s, t)
            }
            ExprNode::Atom(a) => {
                let s = self.fresh();
                let t = self.fresh();
                self.sym_edges.push((s, a, t));
                (s, t)
            }
            ExprNode::Add(l, r) => {
                let (ls, la) = self.build(&l);
                let (rs, ra) = self.build(&r);
                let s = self.fresh();
                let t = self.fresh();
                self.eps_edges.push((s, ls));
                self.eps_edges.push((s, rs));
                self.eps_edges.push((la, t));
                self.eps_edges.push((ra, t));
                (s, t)
            }
            ExprNode::Mul(l, r) => {
                let (ls, la) = self.build(&l);
                let (rs, ra) = self.build(&r);
                self.eps_edges.push((la, rs));
                (ls, ra)
            }
            ExprNode::Star(inner) => {
                let (is, ia) = self.build(&inner);
                let s = self.fresh();
                let t = self.fresh();
                self.eps_edges.push((s, is)); // enter the loop
                self.eps_edges.push((ia, is)); // iterate
                self.eps_edges.push((s, t)); // zero iterations
                self.eps_edges.push((ia, t)); // exit
                (s, t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nka_syntax::Word;

    fn coeff(src: &str, word: &[&str]) -> ExtNat {
        let e: Expr = src.parse().unwrap();
        let wfa = thompson(&e).eliminate_epsilon();
        let w = Word::from_symbols(word.iter().map(|n| Symbol::intern(n)));
        wfa.coefficient(&w)
    }

    #[test]
    fn constants() {
        assert_eq!(coeff("0", &[]), ExtNat::from(0u64));
        assert_eq!(coeff("1", &[]), ExtNat::from(1u64));
        assert_eq!(coeff("a", &["a"]), ExtNat::from(1u64));
        assert_eq!(coeff("a", &[]), ExtNat::from(0u64));
        assert_eq!(coeff("a", &["b"]), ExtNat::from(0u64));
    }

    #[test]
    fn multiplicity_of_sum() {
        assert_eq!(coeff("1 + 1", &[]), ExtNat::from(2u64));
        assert_eq!(coeff("a + a + a", &["a"]), ExtNat::from(3u64));
    }

    #[test]
    fn star_of_one_is_infinite() {
        assert_eq!(coeff("1*", &[]), ExtNat::INFINITY);
        assert_eq!(coeff("(1 + 1)*", &[]), ExtNat::INFINITY);
    }

    #[test]
    fn plain_star_counts_one_run_per_word() {
        for n in 0..5 {
            let word: Vec<&str> = std::iter::repeat_n("a", n).collect();
            assert_eq!(coeff("a*", &word), ExtNat::from(1u64), "a^{n}");
        }
    }

    #[test]
    fn branching_star_counts_exponentially() {
        // {{(a + a)*}}[a^n] = 2^n.
        for n in 0..6u32 {
            let word: Vec<&str> = std::iter::repeat_n("a", n as usize).collect();
            assert_eq!(coeff("(a + a)*", &word), ExtNat::from(2u64.pow(n)), "a^{n}");
        }
    }

    #[test]
    fn product_counts_splits() {
        // {{a* a*}}[a^n] = n + 1.
        for n in 0..5u64 {
            let word: Vec<&str> = std::iter::repeat_n("a", n as usize).collect();
            assert_eq!(coeff("a* a*", &word), ExtNat::from(n + 1));
        }
    }

    #[test]
    fn infinity_through_concatenation() {
        assert_eq!(coeff("1* a", &["a"]), ExtNat::INFINITY);
        assert_eq!(coeff("1* 0", &[]), ExtNat::from(0u64));
    }
}
