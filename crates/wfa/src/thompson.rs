//! Thompson construction: expression → ε-WFA over `N̄`, and
//! ε-elimination.
//!
//! This is the reference construction. The engine compiles expressions
//! to position automata ([`crate::position`]), which recognize the same
//! series without the states that only ε-edges leave; this module stays
//! as the oracle they are tested against, and for the benchmark's replay
//! of the decision pipeline.
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
use crate::matrix::SparseMatrix;
use nka_semiring::ExtNat;
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
    /// The weight of the ε-free step `i → j` is entry `(i, j)` of the
    /// closure `E*` over `N̄`: the number of ε-paths from `i` to `j`. Only
    /// the rows the result needs are computed: the start state's (the
    /// initial vector) and each letter edge's target's. A Thompson state
    /// has at most one letter edge, so row `i` of `M_a · E*` is the
    /// closure row of the target of `i`'s `a`-edge.
    ///
    /// A row is a path count on the sparse ε-graph: collect the states
    /// ε-reachable from the source, then add counts forward in Kahn's
    /// topological order from it. A reached state whose in-degree never
    /// drops to zero lies on or below an ε-cycle, so it has infinitely
    /// many paths: `∞`, which is how expressions like `1*` acquire
    /// infinite coefficients. A row costs time in what it reaches.
    ///
    /// # Errors
    ///
    /// Returns [`DecideError`] if a *finite* path count overflows `u64`
    /// (conflating it with `∞` would make the decision procedure unsound).
    pub fn eliminate_epsilon_checked(&self) -> Result<Wfa<ExtNat>, DecideError> {
        let n = self.state_count;
        let mut closure = EpsClosure::new(n, &self.eps_edges);
        let mut initial = vec![ExtNat::zero_const(); n];
        for (j, w) in closure.row(self.start)? {
            initial[j] = w;
        }
        let mut final_weights = vec![ExtNat::zero_const(); n];
        final_weights[self.accept] = ExtNat::one_const();

        // Per-symbol matrices M'_a = M_a · E*, built row by row.
        let mut edges = self.sym_edges.clone();
        edges.sort_unstable_by_key(|&(i, a, _)| (a, i));
        let mut transitions = BTreeMap::new();
        for by_symbol in edges.chunk_by(|x, y| x.1 == y.1) {
            let mut m = SparseMatrix::new(n);
            for &(i, _, j) in by_symbol {
                while m.rows() < i {
                    m.push_row([]);
                }
                debug_assert_eq!(m.rows(), i, "a Thompson state has one letter edge");
                m.push_row(closure.row(j)?);
            }
            while m.rows() < n {
                m.push_row([]);
            }
            transitions.insert(by_symbol[0].1, m);
        }

        Ok(Wfa::new(n, initial, final_weights, transitions))
    }
}

/// Rows of the ε-closure `E*`, counted as paths on the ε-graph, in a
/// per-state workspace shared by all rows.
struct EpsClosure {
    /// The ε-successors of state `i` are `succ[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    succ: Vec<usize>,
    /// Per reached state: in-edges from reached states not yet counted.
    pending: Vec<usize>,
    /// Per reached state: paths counted so far, `None` once past `u64`.
    count: Vec<Option<u64>>,
    /// The states the last row reached.
    reached: Vec<usize>,
}

impl EpsClosure {
    fn new(n: usize, eps_edges: &[(usize, usize)]) -> Self {
        let mut edges = eps_edges.to_vec();
        edges.sort_unstable();
        EpsClosure {
            starts: (0..=n)
                .map(|i| edges.partition_point(|&(from, _)| from < i))
                .collect(),
            succ: edges.into_iter().map(|(_, j)| j).collect(),
            pending: vec![0; n],
            count: vec![None; n],
            reached: Vec::new(),
        }
    }

    /// The non-zero entries of row `src` of `E*`.
    fn row(&mut self, src: usize) -> Result<Vec<(usize, ExtNat)>, DecideError> {
        for v in self.reached.drain(..) {
            self.pending[v] = 0;
        }
        // Breadth-first from `src`: a state is new at its first in-edge.
        self.reached.push(src);
        let mut next = 0;
        while let Some(&u) = self.reached.get(next) {
            next += 1;
            for &v in &self.succ[self.starts[u]..self.starts[u + 1]] {
                self.pending[v] += 1;
                if self.pending[v] == 1 && v != src {
                    self.count[v] = Some(0);
                    self.reached.push(v);
                }
            }
        }
        // Kahn's order, from the one reached state that may lack in-edges.
        self.count[src] = Some(1);
        let mut ready = Vec::from_iter((self.pending[src] == 0).then_some(src));
        while let Some(u) = ready.pop() {
            let paths = self.count[u];
            for &v in &self.succ[self.starts[u]..self.starts[u + 1]] {
                self.count[v] = paths.zip(self.count[v]).and_then(|(p, c)| c.checked_add(p));
                self.pending[v] -= 1;
                if self.pending[v] == 0 {
                    ready.push(v);
                }
            }
        }
        // A count past `u64` errs only if its state is finite.
        let entry = |v: usize| match (self.pending[v], self.count[v]) {
            (0, Some(c)) => Ok((v, ExtNat::from(c))),
            (0, None) => Err(DecideError::count_overflow()),
            _ => Ok((v, ExtNat::INFINITY)),
        };
        self.reached.iter().map(|&v| entry(v)).collect()
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

    /// Builds `expr` bottom-up, left before right, with an explicit stack
    /// of pending nodes: a flat chain of thousands of factors must not
    /// overflow a worker thread's stack.
    fn build(&mut self, expr: &Expr) -> (usize, usize) {
        // (node, whether its operands are already built)
        let mut pending = vec![(*expr, false)];
        // (start, accept) of every built node not yet consumed
        let mut built: Vec<(usize, usize)> = Vec::new();
        while let Some((e, operands_built)) = pending.pop() {
            let mut operand = || built.pop().expect("operands are built first");
            let fragment = match (e.node(), operands_built) {
                (ExprNode::Add(l, r) | ExprNode::Mul(l, r), false) => {
                    pending.extend([(e, true), (r, false), (l, false)]);
                    continue;
                }
                (ExprNode::Star(inner), false) => {
                    pending.extend([(e, true), (inner, false)]);
                    continue;
                }
                (ExprNode::Zero, _) => (self.fresh(), self.fresh()),
                (ExprNode::One, _) => {
                    let (s, t) = (self.fresh(), self.fresh());
                    self.eps_edges.push((s, t));
                    (s, t)
                }
                (ExprNode::Atom(a), _) => {
                    let (s, t) = (self.fresh(), self.fresh());
                    self.sym_edges.push((s, a, t));
                    (s, t)
                }
                (ExprNode::Add(..), true) => {
                    let ((rs, ra), (ls, la)) = (operand(), operand());
                    let (s, t) = (self.fresh(), self.fresh());
                    self.eps_edges.extend([(s, ls), (s, rs), (la, t), (ra, t)]);
                    (s, t)
                }
                (ExprNode::Mul(..), true) => {
                    let ((rs, ra), (ls, la)) = (operand(), operand());
                    self.eps_edges.push((la, rs));
                    (ls, ra)
                }
                (ExprNode::Star(_), true) => {
                    let (is, ia) = operand();
                    let (s, t) = (self.fresh(), self.fresh());
                    self.eps_edges.extend([
                        (s, is),  // enter the loop
                        (ia, is), // iterate
                        (s, t),   // zero iterations
                        (ia, t),  // exit
                    ]);
                    (s, t)
                }
            };
            built.push(fragment);
        }
        built.pop().expect("the root is built")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nka_semiring::{Semiring, StarSemiring};
    use nka_syntax::{random_expr, ExprGenConfig, Word};
    use proptest::prelude::*;

    /// The dense closure the graph count replaced, kept as an oracle:
    /// Kleene's all-pairs algorithm (Floyd–Warshall shape, the `N̄` star
    /// at each pivot) over the full `n × n` ε-matrix. A finite overflow
    /// is an error, or `∞` when `saturate` is set.
    fn floyd_warshall(eps: &EpsWfa, saturate: bool) -> Result<Wfa<ExtNat>, DecideError> {
        let lift = |x: Option<ExtNat>| match x {
            Some(x) => Ok(x),
            None if saturate => Ok(ExtNat::INFINITY),
            None => Err(DecideError::count_overflow()),
        };
        let add = |a: ExtNat, b: ExtNat| lift(a.checked_add(b));
        let mul = |a: ExtNat, b: ExtNat| lift(a.checked_mul(b));
        let one = ExtNat::one_const();
        let n = eps.state_count;
        // w[i][j]: the nonempty ε-paths i→j through pivoted states only.
        let mut w = vec![vec![ExtNat::zero_const(); n]; n];
        for &(i, j) in &eps.eps_edges {
            w[i][j] = add(w[i][j], one)?;
        }
        for k in 0..n {
            let skk = w[k][k].star();
            let row_k = w[k].clone();
            for row in &mut w {
                let left = mul(row[k], skk)?;
                if left.is_zero() {
                    continue;
                }
                for (x, &y) in row.iter_mut().zip(&row_k) {
                    *x = add(*x, mul(left, y)?)?;
                }
            }
        }
        // E* = I + W
        for (i, row) in w.iter_mut().enumerate() {
            row[i] = add(row[i], one)?;
        }
        let mut final_weights = vec![ExtNat::zero_const(); n];
        final_weights[eps.accept] = one;
        let mut edges = eps.sym_edges.clone();
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
                    for (acc, &x) in row.iter_mut().zip(&w[j]) {
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
        Ok(Wfa::new(
            n,
            w[eps.start].clone(),
            final_weights,
            transitions,
        ))
    }

    /// Checks the graph count against the dense oracle on one expression.
    /// Where the oracle counts, the two agree. Where it overflows — it
    /// also counts rows the result never uses, and adds partial sums of
    /// states that turn out `∞` — the graph count may still succeed, but
    /// only if no emitted count was clamped: the saturating oracle, which
    /// is exact below `u64::MAX` and `∞` above, must then agree too.
    fn check_against_oracle(e: &Expr) {
        let eps = thompson(e);
        let graph = eps.eliminate_epsilon_checked();
        match floyd_warshall(&eps, false) {
            Ok(dense) => assert_eq!(graph.as_ref(), Ok(&dense), "{e}"),
            Err(_) => {
                if let Ok(graph) = graph {
                    let saturated = floyd_warshall(&eps, true).expect("saturating never errs");
                    assert_eq!(graph, saturated, "{e}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The graph count agrees with the dense Floyd–Warshall closure on
        /// random expressions of 4–64 nodes, star- and constant-heavy ones
        /// included.
        #[test]
        fn graph_closure_matches_the_dense_oracle(
            seed in any::<u64>(),
            size in 4usize..65,
            star_weight in 0u32..7,
            constant_weight in 0u32..5,
        ) {
            let alphabet = vec![Symbol::intern("a"), Symbol::intern("b")];
            let config = ExprGenConfig::new(alphabet)
                .with_target_size(size)
                .with_star_weight(star_weight)
                .with_constant_weight(constant_weight);
            let mut seed = seed;
            check_against_oracle(&random_expr(&config, &mut seed));
        }
    }

    #[test]
    fn overflow_boundary_matches_the_dense_oracle() {
        let doubled = |count: usize| -> Expr { vec!["(1 + 1)"; count].join(" ").parse().unwrap() };
        let at = thompson(&doubled(63));
        let wfa = at.eliminate_epsilon_checked().unwrap();
        assert_eq!(Ok(&wfa), floyd_warshall(&at, false).as_ref());
        assert_eq!(wfa.coefficient(&Word::epsilon()), ExtNat::from(1u64 << 63));
        let past = thompson(&doubled(64));
        assert!(past.eliminate_epsilon_checked().is_err());
        assert!(floyd_warshall(&past, false).is_err());
        // Past `u64` only behind an ε-cycle: every emitted count is `∞`,
        // and only the oracle, which also counts unused rows, overflows.
        let behind = thompson(&Expr::one().star().mul(&doubled(64)));
        let wfa = behind.eliminate_epsilon_checked().unwrap();
        assert!(floyd_warshall(&behind, false).is_err());
        assert_eq!(Ok(wfa), floyd_warshall(&behind, true));
    }

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
