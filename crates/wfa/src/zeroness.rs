//! Zeroness of integer- and rational-weighted automata (Tzeng /
//! Schützenberger forward basis, run modulo primes), and the restriction
//! of an automaton, or of the difference of two, to a regular language.
//!
//! An automaton recognizes the zero series iff the final vector is
//! orthogonal to the *reachable row space* `span{ ι^T·M_w : w ∈ Σ* }`. The
//! forward-basis algorithm computes that span in at most `n` extensions
//! (its dimension is bounded by the state count `n`), so zeroness is
//! decided in polynomial time. Basis rows are kept sparse, and each
//! extension multiplies one of them by a sparse transition row, so the
//! pass costs time in non-zero entries.
//!
//! # Exact multi-modular zeroness
//!
//! The decision procedure needs zeroness only of the restricted
//! difference automaton, whose weights are integers: finite `N̄` path
//! counts, with the subtracted side's final weights negated. Its series
//! is `Z`-valued, and the basis runs over the fields `F_p` with machine
//! words instead of over `Q` with big integers. This is deterministic
//! and exact, not a randomized identity test:
//!
//! * a `Z`-series that is zero is zero modulo every prime;
//! * a non-zero one has a non-zero coefficient on some word of length
//!   `< n` (the forward spaces of words of length `≤ k` stop growing by
//!   `k = n − 1`), and that coefficient's magnitude is at most `B`,
//!   the vector bound below;
//! * so once `∏ pᵢ > B`, a coefficient divisible by every `pᵢ` is zero,
//!   and the series is zero over `Q` iff it is zero over every `F_pᵢ`.
//!
//! The vector bound takes one step per word length:
//! `U₀ = |ι|`, `Uₖ₊₁ = maxₐ Uₖ·|Mₐ|` (absolute values and the maximum
//! taken componentwise), and `B = max_{k<n} Uₖ·|φ|`. By induction on
//! `w`, `|ι·M_w| ≤ U_|w|` componentwise, so every coefficient of a word
//! `w` shorter than `n` is at most `U_|w|·|φ| ≤ B`. It is computed in
//! `f64`, each sum scaled up past its rounding error
//! (`vector_bound_bits`). Where the row-sum bound `‖ι‖₁ · R^(n−1) · ‖φ‖∞`
//! (`R` the largest absolute row sum) charges every step the worst row
//! of any symbol, this one follows the vector: on path-count automata it
//! is usually a few bits instead of hundreds. The row-sum bound,
//! computed in integers, remains the fallback if the vector overflows
//! `f64`.
//!
//! The kernel reads one compressed table of the transitions (`Table`),
//! which the restriction product writes directly; each prime only
//! reduces its weights. The primes are the largest ones below `2^61`: a
//! `const` table covers bounds of up to 3840 bits, and further primes
//! are found downward by deterministic Miller–Rabin and memoized for the
//! process. The first prime runs before the bound is computed: a
//! non-zero coefficient it finds answers *not zero* at once, so a
//! refuted pair never pays for the bound's `n` steps. Only a series
//! that is zero modulo the first prime computes the bound, runs the
//! remaining primes, and answers *zero* after all of them. Rational
//! weights (the public [`is_zero_series`]) first have their denominators
//! cleared: `ι`, `φ` and each `M_a` are scaled by the LCM of their own
//! denominators, which multiplies every word's coefficient by a non-zero
//! constant.
//!
//! # Restriction
//!
//! The decision procedure tests zeroness only outside the ∞-support, on
//! the product of the difference automaton with a DFA. That product is
//! built on the fly, in one pass (`restrict_within`): the two compiled
//! `N̄` automata are read as one disjoint union, each weight is mapped as
//! it is read (`∞` to 0, and the right side's final weights negated), and
//! a breadth-first search from the initial states creates a state pair
//! `(q, s)` only when a non-zero edge reaches it, never entering a DFA
//! state from which no accepting state can be reached. Out of the `n·d`
//! pairs only the reachable ones exist, indexed by a hash of their
//! numbers, and the engine charges each one against its state budget.
//! Each discovered state's rows go straight into the kernel's table. When
//! the ∞-support is empty — always, for a pair with no `∞` weight, such
//! as every program encoding — its DFA is the one-state DFA that accepts
//! nothing, and the product is just the part of the difference automaton
//! reachable through non-zero edges. The public [`restrict_to_language`]
//! is the same pass over one automaton, with no negation.

use crate::automaton::Wfa;
use crate::decide::DecideError;
use crate::matrix::SparseMatrix;
use crate::nfa::Dfa;
use nka_semiring::{BigInt, BigRational, Semiring};
use nka_syntax::Symbol;
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};
use std::collections::BinaryHeap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Neg, Range};
use std::sync::{Mutex, PoisonError};

/// An exact integer weight, as the modular kernel reads it: through its
/// residues, and through its magnitude for the coefficient bound.
pub(crate) trait IntegerWeight: Semiring {
    /// The residue of `self` modulo the prime `p`, in `0..p`.
    fn residue(&self, p: u64) -> u64;
    /// `|self|`, if it fits in a `u128`.
    fn magnitude(&self) -> Option<u128>;
    /// The bit length of `|self|`: `|self| < 2^bit_len`.
    fn bit_len(&self) -> u64;
}

impl IntegerWeight for i128 {
    fn residue(&self, p: u64) -> u64 {
        match u64::try_from(*self) {
            Ok(x) if x < p => x,
            _ => self.rem_euclid(i128::from(p)) as u64,
        }
    }
    fn magnitude(&self) -> Option<u128> {
        Some(self.unsigned_abs())
    }
    fn bit_len(&self) -> u64 {
        u64::from(u128::BITS - self.unsigned_abs().leading_zeros())
    }
}

impl IntegerWeight for BigInt {
    fn residue(&self, p: u64) -> u64 {
        self.rem_euclid_u64(p)
    }
    fn magnitude(&self) -> Option<u128> {
        self.to_i128().map(i128::unsigned_abs)
    }
    fn bit_len(&self) -> u64 {
        BigInt::bit_len(self) as u64
    }
}

/// A weighted automaton in the compressed form the zeroness kernel
/// reads: the non-zero entries of state `i` under the `m`-th symbol are
/// the indices `row(i, m)` into `columns` and `weights`, and the rows lie
/// state by state, each state's symbols in order — the order in which
/// the restriction product discovers and expands its states.
pub(crate) struct Table<W> {
    symbols: Vec<Symbol>,
    /// The non-zero initial weights, by state.
    initial: Vec<(usize, W)>,
    final_weights: Vec<W>,
    /// Row `(i, m)` is `starts[i·k + m]..starts[i·k + m + 1]`, for `k`
    /// symbols.
    starts: Vec<usize>,
    columns: Vec<usize>,
    weights: Vec<W>,
}

impl<W: Semiring> Table<W> {
    /// The table of `wfa`'s transitions.
    pub(crate) fn of(wfa: &Wfa<W>) -> Table<W> {
        let matrices: Vec<(Symbol, &SparseMatrix<W>)> = wfa
            .symbols()
            .filter_map(|sym| Some((sym, wfa.transition(sym)?)))
            .collect();
        let mut table = Table {
            symbols: matrices.iter().map(|&(sym, _)| sym).collect(),
            initial: sparse(wfa.initial()),
            final_weights: wfa.final_weights().to_vec(),
            starts: vec![0],
            columns: Vec::new(),
            weights: Vec::new(),
        };
        for i in 0..wfa.state_count() {
            for (_, m) in &matrices {
                for (j, w) in m.row(i) {
                    table.columns.push(*j);
                    table.weights.push(w.clone());
                }
                table.starts.push(table.columns.len());
            }
        }
        table
    }

    /// The same automaton as a [`Wfa`].
    pub(crate) fn into_wfa(self) -> Wfa<W> {
        let n = self.states();
        let mut initial = vec![W::zero(); n];
        for (q, w) in &self.initial {
            initial[*q] = w.clone();
        }
        let transitions = self
            .symbols
            .iter()
            .enumerate()
            .map(|(m, &sym)| {
                let mut matrix = SparseMatrix::new(n);
                for i in 0..n {
                    matrix.push_row(
                        self.row(i, m)
                            .map(|e| (self.columns[e], self.weights[e].clone())),
                    );
                }
                (sym, matrix)
            })
            .collect();
        Wfa::new(n, initial, self.final_weights, transitions)
    }
}

impl<W> Table<W> {
    /// Number of states.
    pub(crate) fn states(&self) -> usize {
        self.final_weights.len()
    }

    /// The entry indices of state `i` under the `m`-th symbol.
    fn row(&self, i: usize, m: usize) -> Range<usize> {
        let k = i * self.symbols.len() + m;
        self.starts[k]..self.starts[k + 1]
    }

    /// Every entry as `(symbol, source, entry)`, grouped by symbol, so
    /// that a pass over one symbol's entries skips its empty rows.
    fn entries_by_symbol(&self) -> Vec<(usize, usize, usize)> {
        (0..self.symbols.len())
            .flat_map(|m| {
                (0..self.states()).flat_map(move |i| self.row(i, m).map(move |e| (m, i, e)))
            })
            .collect()
    }
}

/// The non-zero entries of a dense vector.
fn sparse<W: Semiring>(v: &[W]) -> Vec<(usize, W)> {
    v.iter()
        .enumerate()
        .filter(|(_, w)| !w.is_zero())
        .map(|(q, w)| (q, w.clone()))
        .collect()
}

/// The least `b` with `x ≤ 2^b`.
fn ceil_log2(x: u128) -> u64 {
    if x <= 1 {
        0
    } else {
        u64::from(u128::BITS - (x - 1).leading_zeros())
    }
}

/// The least `b` with `Σ |w| ≤ 2^b` over `weights` (0 for an empty or
/// all-zero list): exact while the sum fits in a `u128`, otherwise from
/// the bit lengths, since `Σ |w| < count · 2^max_bit_len`.
fn log2_norm<'a, W: IntegerWeight + 'a>(weights: impl IntoIterator<Item = &'a W>) -> u64 {
    let (mut sum, mut count, mut bits) = (Some(0u128), 0u128, 0);
    for w in weights {
        sum = sum.zip(w.magnitude()).and_then(|(s, m)| s.checked_add(m));
        count += 1;
        bits = bits.max(w.bit_len());
    }
    sum.map_or(bits + ceil_log2(count), ceil_log2)
}

/// The row-sum bound `‖ι‖₁ · R^(n−1) · ‖φ‖∞`, as a bit length: every
/// coefficient of a word shorter than the state count has magnitude at
/// most `2^bound_bits`. Looser than the vector bound, but computed in
/// integers, so it is the fallback when that one overflows `f64`.
fn bound_bits<W: IntegerWeight>(table: &Table<W>) -> u64 {
    let row_sums = table
        .starts
        .windows(2)
        .map(|row| log2_norm(&table.weights[row[0]..row[1]]))
        .max()
        .unwrap_or(0);
    let final_max = table
        .final_weights
        .iter()
        .map(|w| log2_norm([w]))
        .max()
        .unwrap_or(0);
    let steps = table.states().saturating_sub(1) as u64;
    log2_norm(table.initial.iter().map(|(_, w)| w))
        .saturating_add(steps.saturating_mul(row_sums))
        .saturating_add(final_max)
}

/// The least `b` with `x ≤ 2^b`, for a finite `x ≥ 0`.
fn ceil_log2_f64(x: f64) -> u64 {
    if x <= 1.0 {
        return 0;
    }
    // `x > 1` is a normal float: `x = 1.m · 2^e`, so `x ≤ 2^b` from
    // `b = e` when the mantissa `m` is zero and `b = e + 1` otherwise.
    let bits = x.to_bits();
    let exponent = (bits >> 52) - 1023;
    exponent + u64::from(bits & ((1 << 52) - 1) != 0)
}

/// The vector bound of the [module docs](self) as a bit length, or
/// `None` if a magnitude or an entry of some `Uₖ` does not fit an `f64`.
///
/// Each sum is computed in round-to-nearest `f64` and then scaled up by
/// `up = 1 + (n + 3)·2^−51`. A sum of at most `n` products of converted
/// magnitudes, then scaled, goes through at most `n + 2` roundings, each
/// off by a factor of at most `1 − 2^−53` for non-negative terms, and
/// `up` exceeds `(1 − 2^−53)^−(n+2)`; so no computed entry is below the
/// exact one, and by monotonicity no computed `Uₖ` is below the exact
/// one.
fn vector_bound_bits<W: IntegerWeight>(table: &Table<W>) -> Option<u64> {
    let n = table.states();
    let up = 1.0 + (n as f64 + 3.0) * 2.0 * f64::EPSILON;
    // `u64` to `f64` is one instruction, `u128` to `f64` a library call.
    let magnitude = |w: &W| {
        w.magnitude()
            .map(|m| u64::try_from(m).map_or(m as f64, |m| m as f64))
    };
    // (symbol, source, column, |weight|), grouped by symbol.
    let entries = table
        .entries_by_symbol()
        .into_iter()
        .map(|(m, i, e)| Some((m, i, table.columns[e], magnitude(&table.weights[e])?)))
        .collect::<Option<Vec<(usize, usize, usize, f64)>>>()?;
    let phi = table
        .final_weights
        .iter()
        .map(magnitude)
        .collect::<Option<Vec<f64>>>()?;
    let mut u = vec![0.0; n];
    for (q, w) in &table.initial {
        u[*q] = magnitude(w)? * up;
    }
    let (mut next, mut sum) = (vec![0.0; n], vec![0.0; n]);
    let mut touched = Vec::new();
    let mut bound: f64 = 0.0;
    for k in 0..n {
        // An infinite entry of `Uₖ` makes this product infinite, or NaN
        // against a zero final weight.
        let d = u.iter().zip(&phi).map(|(x, y)| x * y).sum::<f64>() * up;
        if !d.is_finite() {
            return None;
        }
        bound = bound.max(d);
        if k + 1 == n {
            break;
        }
        next.fill(0.0);
        for by_symbol in entries.chunk_by(|x, y| x.0 == y.0) {
            for &(_, i, j, w) in by_symbol {
                if sum[j] == 0.0 {
                    touched.push(j);
                }
                sum[j] += u[i] * w;
            }
            for j in touched.drain(..) {
                next[j] = f64::max(next[j], std::mem::take(&mut sum[j]) * up);
            }
        }
        std::mem::swap(&mut u, &mut next);
    }
    Some(ceil_log2_f64(bound))
}

#[cfg(test)]
thread_local! {
    /// Calls of [`coefficient_bound_bits`] on this thread, so that tests
    /// can see which zeroness calls computed the bound.
    static BOUND_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The bit length of the coefficient bound the kernel covers with
/// primes: the vector bound, or the row-sum bound if that overflows.
fn coefficient_bound_bits<W: IntegerWeight>(table: &Table<W>) -> u64 {
    #[cfg(test)]
    BOUND_CALLS.with(|calls| calls.set(calls.get() + 1));
    vector_bound_bits(table).unwrap_or_else(|| bound_bits(table))
}

/// Offsets `c` of the 64 largest primes `2^61 − c`, largest prime
/// first. Each prime exceeds `2^60`, so `k` of them cover a bound of
/// `60·k` bits.
const PRIME_OFFSETS: [u64; 64] = [
    1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579, 675, 759, 799, 819, 829, 843, 859, 939,
    985, 1015, 1153, 1195, 1215, 1281, 1299, 1351, 1371, 1425, 1489, 1525, 1533, 1543, 1609, 1621,
    1669, 1741, 1753, 1813, 1845, 1849, 1855, 1863, 1869, 1909, 1921, 1923, 1945, 1959, 2023, 2083,
    2115, 2133, 2185, 2371, 2373, 2383, 2385, 2401, 2539, 2551, 2595, 2605,
];

/// Bits of the bound that each prime covers.
const BITS_PER_PRIME: u64 = 60;

/// Offsets stay below `2^20`: more than 20 000 primes, and the range in
/// which [`Field::reduce`]'s two folds suffice.
const MAX_OFFSET: u64 = 1 << 20;

/// The offset of the `i`-th largest prime below `2^61`. Past the table,
/// primes are found downward by Miller–Rabin and memoized for the
/// process.
fn prime_offset(i: usize) -> u64 {
    if let Some(&c) = PRIME_OFFSETS.get(i) {
        return c;
    }
    static MORE: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let mut more = MORE.lock().unwrap_or_else(PoisonError::into_inner);
    while more.len() <= i - PRIME_OFFSETS.len() {
        let mut c = more.last().unwrap_or(&PRIME_OFFSETS[63]) + 2;
        while !is_prime((1 << 61) - c) {
            c += 2;
        }
        assert!(
            c < MAX_OFFSET,
            "zeroness bound needs more primes than exist near 2^61"
        );
        more.push(c);
    }
    more[i - PRIME_OFFSETS.len()]
}

/// `a · b mod m` for any `m`.
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    (u128::from(a) * u128::from(b) % u128::from(m)) as u64
}

/// `base^exp` under the multiplication `mul`, by square-and-multiply.
fn pow(base: u64, exp: u64, mul: impl Fn(u64, u64) -> u64) -> u64 {
    (0..64 - exp.leading_zeros()).rev().fold(1, |x, bit| {
        let x = mul(x, x);
        if exp >> bit & 1 == 1 {
            mul(x, base)
        } else {
            x
        }
    })
}

/// Deterministic Miller–Rabin: these twelve bases decide every `u64`.
fn is_prime(n: u64) -> bool {
    const BASES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    if n < 2 {
        return false;
    }
    if let Some(&b) = BASES.iter().find(|&&b| n % b == 0) {
        return n == b;
    }
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    BASES.iter().all(|&a| {
        let mut x = pow(a, d, |x, y| mul_mod(x, y, n));
        if x == 1 || x == n - 1 {
            return true;
        }
        (1..s).any(|_| {
            x = mul_mod(x, x, n);
            x == n - 1
        })
    })
}

/// Arithmetic in `F_p` for a prime `p = 2^61 − c` with `c < 2^20`.
#[derive(Debug, Clone, Copy)]
struct Field {
    p: u64,
    c: u64,
}

impl Field {
    fn new(c: u64) -> Field {
        Field {
            p: (1 << 61) - c,
            c,
        }
    }

    /// `x mod p` for `x < 2^122`, using `2^61 ≡ c`: two folds leave less
    /// than `2p`.
    fn reduce(self, x: u128) -> u64 {
        const MASK: u128 = (1 << 61) - 1;
        let fold = |x: u128| (x & MASK) + (x >> 61) * u128::from(self.c);
        let y = fold(fold(x)) as u64;
        if y >= self.p {
            y - self.p
        } else {
            y
        }
    }

    fn mul(self, a: u64, b: u64) -> u64 {
        self.reduce(u128::from(a) * u128::from(b))
    }

    fn add(self, a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= self.p {
            s - self.p
        } else {
            s
        }
    }

    fn neg(self, a: u64) -> u64 {
        if a == 0 {
            0
        } else {
            self.p - a
        }
    }

    /// `a^(p−2) = a⁻¹` for `a ≠ 0` (Fermat).
    fn inv(self, a: u64) -> u64 {
        pow(a, self.p - 2, |x, y| self.mul(x, y))
    }
}

/// An automaton's weights reduced modulo one prime; `weights[e]` is the
/// residue of the table's entry `e`.
struct Residues {
    initial: Vec<(usize, u64)>,
    final_weights: Vec<u64>,
    weights: Vec<u64>,
}

impl Residues {
    fn of<W: IntegerWeight>(table: &Table<W>, p: u64) -> Residues {
        Residues {
            initial: table
                .initial
                .iter()
                .map(|(q, w)| (*q, w.residue(p)))
                .filter(|&(_, x)| x != 0)
                .collect(),
            final_weights: table.final_weights.iter().map(|w| w.residue(p)).collect(),
            weights: table.weights.iter().map(|w| w.residue(p)).collect(),
        }
    }
}

/// A dense vector over `F_p` that remembers its touched coordinates in
/// a min-heap, so reducing it against the basis visits columns left to
/// right and costs time in non-zero entries.
struct Accumulator {
    values: Vec<u64>,
    queued: Vec<bool>,
    heap: BinaryHeap<Reverse<usize>>,
}

impl Accumulator {
    fn new(n: usize) -> Accumulator {
        Accumulator {
            values: vec![0; n],
            queued: vec![false; n],
            heap: BinaryHeap::new(),
        }
    }

    fn add(&mut self, f: Field, j: usize, x: u64) {
        self.values[j] = f.add(self.values[j], x);
        if !self.queued[j] {
            self.queued[j] = true;
            self.heap.push(Reverse(j));
        }
    }

    /// Empties the vector into its residual against the echelon `basis`
    /// (each row zero left of its pivot, which comes first with weight
    /// 1; `pivot_row[c]` is the row with pivot `c`). Returns the
    /// residual's non-zero entries in column order, if any remain.
    fn reduce(
        &mut self,
        f: Field,
        basis: &[Vec<(usize, u64)>],
        pivot_row: &[usize],
    ) -> Option<Vec<(usize, u64)>> {
        let mut residual = Vec::new();
        while let Some(Reverse(c)) = self.heap.pop() {
            self.queued[c] = false;
            let x = std::mem::take(&mut self.values[c]);
            if x == 0 {
                continue;
            }
            match basis.get(pivot_row[c]) {
                // The row's other entries lie right of `c`, so the scan
                // never revisits a column it has passed.
                Some(row) => {
                    for &(j, w) in &row[1..] {
                        self.add(f, j, f.neg(f.mul(x, w)));
                    }
                }
                None => residual.push((c, x)),
            }
        }
        (!residual.is_empty()).then_some(residual)
    }
}

/// The forward basis over `F_p`: whether every coefficient of the
/// series is divisible by `p`.
fn is_zero_mod<W>(table: &Table<W>, r: &Residues, f: Field) -> bool {
    let n = r.final_weights.len();
    let mut acc = Accumulator::new(n);
    let mut basis: Vec<Vec<(usize, u64)>> = Vec::new();
    let mut pivot_row = vec![usize::MAX; n];
    // Extensions still to reduce, as (basis row, symbol) pairs: the
    // product is formed only when it is popped.
    let mut pending: Vec<(usize, usize)> = Vec::new();
    for &(q, x) in &r.initial {
        acc.add(f, q, x);
    }
    loop {
        if let Some(mut row) = acc.reduce(f, &basis, &pivot_row) {
            let coefficient = row
                .iter()
                .fold(0, |s, &(j, x)| f.add(s, f.mul(x, r.final_weights[j])));
            if coefficient != 0 {
                return false;
            }
            let inv = f.inv(row[0].1);
            for (_, x) in &mut row {
                *x = f.mul(*x, inv);
            }
            pivot_row[row[0].0] = basis.len();
            basis.push(row);
            debug_assert!(basis.len() <= n, "basis larger than state count");
            pending.extend((0..table.symbols.len()).map(|m| (basis.len() - 1, m)));
        }
        let Some((b, m)) = pending.pop() else {
            return true;
        };
        for &(i, x) in &basis[b] {
            for e in table.row(i, m) {
                let w = r.weights[e];
                if w != 0 {
                    acc.add(f, table.columns[e], f.mul(x, w));
                }
            }
        }
    }
}

/// Decides whether the integer-weighted automaton `table` recognizes
/// the zero series: the forward basis modulo the first prime, and only
/// if that finds no non-zero coefficient, modulo each further prime up
/// to those that cover [`coefficient_bound_bits`] (see the [module
/// docs](self)).
pub(crate) fn is_zero_integer<W: IntegerWeight>(table: &Table<W>) -> bool {
    let zero_mod = |i: usize| {
        let f = Field::new(prime_offset(i));
        is_zero_mod(table, &Residues::of(table, f.p), f)
    };
    if !zero_mod(0) {
        return false;
    }
    let primes = coefficient_bound_bits(table).div_ceil(BITS_PER_PRIME);
    (1..primes as usize).all(zero_mod)
}

/// `wfa` with `ι`, `φ` and each `M_a` scaled by the LCM of their own
/// denominators: integer weights, and every word's coefficient
/// multiplied by a non-zero constant, so zeroness is unchanged.
fn clear_denominators(wfa: &Wfa<BigRational>) -> Wfa<BigInt> {
    // Integer weights (denominator 1, the common case) skip the
    // big-integer division.
    fn lcm<'a>(weights: impl IntoIterator<Item = &'a BigRational>) -> BigInt {
        weights.into_iter().fold(BigInt::from(1u64), |l, w| {
            let d = w.denom();
            if *d == l {
                l
            } else {
                &l.div_rem(&l.gcd(d)).0 * d
            }
        })
    }
    let scale = |w: &BigRational, l: &BigInt| {
        if w.denom() == l {
            w.numer().clone()
        } else {
            w.numer() * &l.div_rem(w.denom()).0
        }
    };
    let scaled = |ws: &[BigRational]| -> Vec<BigInt> {
        let l = lcm(ws);
        ws.iter().map(|w| scale(w, &l)).collect()
    };
    let transitions = wfa
        .symbols()
        .filter_map(|sym| Some((sym, wfa.transition(sym)?)))
        .map(|(sym, m)| {
            let l = lcm(m.entries().map(|(_, _, w)| w));
            (sym, m.map_nonzero(|w| scale(w, &l)))
        })
        .collect();
    Wfa::new(
        wfa.state_count(),
        scaled(wfa.initial()),
        scaled(wfa.final_weights()),
        transitions,
    )
}

/// Decides whether `wfa` recognizes the identically-zero series, exactly:
/// denominators are cleared and the integer automaton goes through the
/// multi-modular kernel (see the [module docs](self)).
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
    is_zero_integer(&Table::of(&clear_denominators(wfa)))
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
    restrict_within(
        wfa,
        None,
        BigRational::clone,
        dfa,
        |s| dfa.is_accepting(s),
        usize::MAX,
    )
    .expect("an unbounded product cannot overflow its budget")
    .into_wfa()
}

/// The product of `left − right` (or of `left` alone) with `dfa`, as
/// the kernel's table: [`restrict_to_language`] with the two automata
/// read as one disjoint union, every weight mapped through `weight` as
/// it is read (zeros dropped, so the engine maps `∞` to 0 here), the
/// right side's final weights negated, the DFA's acceptance read through
/// `accepting` (the engine passes the negation, restricting to the
/// complement without building it), and at most `max_states` product
/// states.
///
/// # Errors
///
/// Returns [`DecideError`] if the product needs more than `max_states`
/// states.
pub(crate) fn restrict_within<S: Semiring, W: Semiring + Neg<Output = W>>(
    left: &Wfa<S>,
    right: Option<&Wfa<S>>,
    weight: impl Fn(&S) -> W,
    dfa: &Dfa,
    accepting: impl Fn(usize) -> bool,
    max_states: usize,
) -> Result<Table<W>, DecideError> {
    // A state `q` of the union is `left`'s `q`, or `right`'s `q − split`.
    let split = left.state_count();
    // The last field indexes a move's pair of matrices.
    let side = |q: usize| match right {
        Some(r) if q >= split => (r, q - split, split, 1),
        _ => (left, q, 0, 0),
    };
    // Symbols the DFA's alphabet lacks have no product edges: words
    // using them are not in L(dfa).
    let moves: Vec<_> = dfa
        .alphabet()
        .iter()
        .enumerate()
        .filter_map(|(ai, &sym)| {
            let matrices = [left.transition(sym), right.and_then(|r| r.transition(sym))];
            matrices
                .iter()
                .any(Option::is_some)
                .then_some((sym, ai, matrices))
        })
        .collect();
    let used: Vec<usize> = moves.iter().map(|&(_, ai, _)| ai).collect();
    let alive = co_reachable(dfa, &accepting, &used);

    let mut product = Product {
        index: HashMap::default(),
        pairs: Vec::new(),
        dfa_states: dfa.state_count(),
        max_states,
    };
    let mut initial = Vec::new();
    if alive[0] {
        for (part, offset) in std::iter::once((left, 0)).chain(right.map(|r| (r, split))) {
            for (q, w) in part.initial().iter().enumerate() {
                let x = weight(w);
                if !x.is_zero() {
                    initial.push((product.state(offset + q, 0)?, x));
                }
            }
        }
    }
    let mut table = Table {
        symbols: moves.iter().map(|&(sym, _, _)| sym).collect(),
        initial,
        final_weights: Vec::new(),
        starts: vec![0],
        columns: Vec::new(),
        weights: Vec::new(),
    };
    // Breadth-first: state k is expanded k-th, so its rows come k-th.
    let mut next = 0;
    while let Some(&(q, s)) = product.pairs.get(next) {
        let (part, local, offset, which) = side(q);
        for (_, ai, matrices) in &moves {
            let s2 = dfa.step(s, *ai);
            if let (true, Some(m)) = (alive[s2], matrices[which]) {
                for (j, w) in m.row(local) {
                    let x = weight(w);
                    if !x.is_zero() {
                        table.columns.push(product.state(offset + j, s2)?);
                        table.weights.push(x);
                    }
                }
            }
            table.starts.push(table.columns.len());
        }
        let phi = if accepting(s) {
            weight(&part.final_weights()[local])
        } else {
            W::zero()
        };
        table
            .final_weights
            .push(if which == 1 { -phi } else { phi });
        next += 1;
    }
    Ok(table)
}

/// Hashes a product state's number `q·d + s` with one multiplication.
/// The keys are state numbers this module assigns, dense and small, not
/// bytes from outside the program, so SipHash's protection against
/// crafted collisions buys nothing here.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("product states hash as one u64");
    }
    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        // The table's bucket comes from the low bits: give it the
        // product's well-mixed middle ones.
        self.0.rotate_left(26)
    }
}

/// The restriction product's states under construction: `(union state,
/// dfa state)` pairs numbered in discovery order.
struct Product {
    index: HashMap<u64, usize, BuildHasherDefault<PairHasher>>,
    pairs: Vec<(usize, usize)>,
    dfa_states: usize,
    max_states: usize,
}

impl Product {
    /// The number of the pair `(q, s)`, creating it if it is new.
    fn state(&mut self, q: usize, s: usize) -> Result<usize, DecideError> {
        let key = (q as u64) * (self.dfa_states as u64) + s as u64;
        let k = self.pairs.len();
        match self.index.entry(key) {
            Entry::Occupied(hit) => Ok(*hit.get()),
            Entry::Vacant(slot) => {
                if k >= self.max_states {
                    return Err(DecideError::product_overflow(self.max_states));
                }
                slot.insert(k);
                self.pairs.push((q, s));
                Ok(k)
            }
        }
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
/// full `n·d`-state product as dense rows, and the forward basis on dense
/// vectors.
#[cfg(test)]
mod dense_reference {
    use crate::automaton::Wfa;
    use crate::matrix::dot;
    use crate::nfa::Dfa;
    use nka_semiring::BigRational;

    pub(super) struct DenseWfa {
        states: usize,
        initial: Vec<BigRational>,
        final_weights: Vec<BigRational>,
        transitions: Vec<Vec<Vec<BigRational>>>,
    }

    fn vec_mul(m: &[Vec<BigRational>], v: &[BigRational]) -> Vec<BigRational> {
        let mut out = vec![BigRational::zero(); v.len()];
        for (i, x) in v.iter().enumerate() {
            if x.is_zero() {
                continue;
            }
            for (o, w) in out.iter_mut().zip(&m[i]) {
                *o = &*o + &(x * w);
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
            let mut prod = vec![vec![BigRational::zero(); n * d]; n * d];
            for s in 0..d {
                let s2 = dfa.step(s, ai);
                for i in 0..n {
                    for j in 0..n {
                        let w = m[(i, j)].clone();
                        if !w.is_zero() {
                            prod[idx(i, s)][idx(j, s2)] = w;
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

/// The exact `BigRational` forward basis the modular kernel replaced,
/// kept as a test oracle.
#[cfg(test)]
mod rational_reference {
    use crate::automaton::Wfa;
    use crate::matrix::{dot, SparseMatrix};
    use nka_semiring::BigRational;

    /// A basis row: its pivot column and its non-zero entries, sorted by
    /// column, with weight 1 at the pivot.
    type BasisRow = (usize, Vec<(usize, BigRational)>);

    /// Reduces `v` against the row-echelon `basis` in place; returns the
    /// pivot column if a non-zero residual remains.
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
    fn sparse_vec_mul(
        v: &[(usize, BigRational)],
        m: &SparseMatrix<BigRational>,
    ) -> Vec<BigRational> {
        let mut out = vec![BigRational::zero(); m.cols()];
        for (i, x) in v {
            for (j, w) in m.row(*i) {
                out[*j] += &(x * w);
            }
        }
        out
    }

    pub(super) fn is_zero_series(wfa: &Wfa<BigRational>) -> bool {
        let matrices: Vec<&SparseMatrix<BigRational>> = wfa
            .symbols()
            .filter_map(|sym| wfa.transition(sym))
            .collect();
        let mut basis: Vec<BasisRow> = Vec::new();
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut next = Some(wfa.initial().to_vec());
        while let Some(mut v) = next {
            if let Some(pivot) = reduce(&mut v, &basis) {
                if !dot(&v, wfa.final_weights()).is_zero() {
                    return false;
                }
                basis.push((pivot, normalize(&v, pivot)));
                assert!(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::position::position_automaton;
    use crate::thompson;
    use nka_semiring::ExtNat;
    use nka_syntax::{random_expr, Expr, ExprGenConfig, Word};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        let never = restrict_within(
            &rational_wfa("a* b"),
            None,
            BigRational::clone,
            &only_b(),
            |_| false,
            100,
        )
        .unwrap()
        .into_wfa();
        assert_eq!(never.state_count(), 0);
        assert!(is_zero_series(&never));
    }

    /// The engine's product for two expressions with no `∞` weight: their
    /// position automata against the one-state empty ∞-support DFA.
    fn restricted_difference(l: &str, r: &str) -> Table<i128> {
        let compile = |x: &str| position_automaton(&x.parse().unwrap()).unwrap();
        let empty = crate::nfa::Nfa::new(0)
            .determinize(&[Symbol::intern("a"), Symbol::intern("b")], 1)
            .unwrap();
        let finite = |w: &ExtNat| w.finite().map_or(0, i128::from);
        let outside = |s| !empty.is_accepting(s);
        restrict_within(&compile(l), Some(&compile(r)), finite, &empty, outside, 100).unwrap()
    }

    #[test]
    fn a_refuted_pair_returns_before_the_bound_is_computed() {
        let calls = || BOUND_CALLS.with(std::cell::Cell::get);
        let before = calls();
        assert!(!is_zero_integer(&restricted_difference(
            "(a b)* a",
            "a (b a)* + a"
        )));
        assert!(!is_zero_integer(&restricted_difference("a b + b a", "b a")));
        assert_eq!(calls(), before, "the first prime refuted both pairs");
        let equal = restricted_difference("(a b)* a", "a (b a)*");
        assert_eq!(equal.states(), 8);
        assert!(is_zero_integer(&equal));
        assert_eq!(calls(), before + 1, "a zero series covers its bound");
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
            let negated = restrict_within(&diff, None, BigRational::clone, &complement, |s| !complement.is_accepting(s), usize::MAX).unwrap().into_wfa();
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

    /// The `i`-th prime of the kernel.
    fn prime(i: usize) -> u64 {
        Field::new(prime_offset(i)).p
    }

    /// One state whose only coefficient, on the empty word, is `c`.
    fn constant<W: Semiring>(c: W) -> Wfa<W> {
        Wfa::new(1, vec![W::one()], vec![c], BTreeMap::new())
    }

    /// Two states whose only coefficient, on the word `a`, is `x · y`.
    fn product_on_a<W: Semiring>(x: W, y: W) -> Wfa<W> {
        let mut m = SparseMatrix::new(2);
        m.push_row([(1, y)]);
        m.push_row([]);
        let transitions = BTreeMap::from([(Symbol::intern("a"), m)]);
        Wfa::new(
            2,
            vec![x, W::zero()],
            vec![W::zero(), W::one()],
            transitions,
        )
    }

    #[test]
    fn the_prime_table_lists_the_largest_primes_below_2_61() {
        let table: Vec<u64> = (1..=PRIME_OFFSETS[63])
            .filter(|&c| is_prime((1 << 61) - c))
            .collect();
        assert_eq!(table, PRIME_OFFSETS);
        // The Miller–Rabin continuation picks up where the table stops.
        let next = prime_offset(64);
        assert!(next > PRIME_OFFSETS[63] && is_prime((1 << 61) - next));
        assert!(((PRIME_OFFSETS[63] + 1)..next).all(|c| !is_prime((1 << 61) - c)));
        assert_eq!(prime_offset(65), prime_offset(65), "memoized");
        assert!(prime(63) > 1 << BITS_PER_PRIME);
    }

    #[test]
    fn field_arithmetic_matches_u128_remainders() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for c in [PRIME_OFFSETS[0], PRIME_OFFSETS[63], prime_offset(70)] {
            let f = Field::new(c);
            for _ in 0..1000 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (a, b) = ((seed >> 3) % f.p, seed.rotate_left(29) % f.p);
                assert_eq!(f.mul(a, b), mul_mod(a, b, f.p));
                assert_eq!(
                    f.add(a, b),
                    ((u128::from(a) + u128::from(b)) % u128::from(f.p)) as u64
                );
                if a != 0 {
                    assert_eq!(f.mul(a, f.inv(a)), 1);
                }
            }
            assert_eq!(f.reduce(u128::from(f.p - 1) * u128::from(f.p - 1)), 1);
        }
    }

    #[test]
    fn a_coefficient_divisible_by_the_first_primes_is_still_refuted() {
        let (p1, p2) = (i128::from(prime(0)), i128::from(prime(1)));
        // 61 bits need two primes: p₁ sees zero, p₂ does not.
        assert!(!is_zero_integer(&Table::of(&constant(p1))));
        assert!(!is_zero_integer(&Table::of(&constant(-p1))));
        // 122 bits need three.
        assert!(!is_zero_integer(&Table::of(&constant(p1 * p2))));
        assert!(!is_zero_integer(&Table::of(&product_on_a(p1, p2))));
        assert!(is_zero_integer(&Table::of(&constant(0i128))));
        assert!(is_zero_integer(&Table::of(&product_on_a(p1, 0))));
        // The same automata through the public rational entry point.
        let q = |x: i128| BigRational::from(BigInt::from(x));
        assert!(!is_zero_series(&constant(q(p1))));
        assert!(!is_zero_series(&product_on_a(q(p1), q(p2))));
        assert!(!is_zero_series(&product_on_a(q(p1 * p2), q(p1 * p2))));
        assert!(is_zero_series(&product_on_a(q(p1 * p2), q(0))));
    }

    #[test]
    fn the_bound_covers_what_f64_rounds_away() {
        let big = (1i128 << 60) + 1;
        // `2^60 + 1` converts to the float `2^60`, and `2^60 + 1` sums to
        // it: without the rounding margin either bound would read 60 bits.
        let sum = Wfa::new(2, vec![1, 1], vec![1 << 60, 1], BTreeMap::new());
        for wfa in [constant(big), sum] {
            let bits = coefficient_bound_bits(&Table::of(&wfa));
            assert_eq!(wfa.coefficient(&Word::from_symbols([])), big);
            assert!(bits >= 61, "{big} > 2^{bits}");
        }
    }

    #[test]
    fn a_bound_past_the_f64_range_falls_back_to_the_row_sums() {
        // A chain 0 → 1 → … → 11 on `a` with every edge weight 2^100 + 1:
        // `U₁₁` is about 2^1100 at state 11, past the `f64` range. State
        // 11 ends the overflowing path; with final weight 0 its infinite
        // entry meets that weight as NaN, with final weight 1 as `∞`.
        let n = 12;
        let a = Symbol::intern("a");
        let chain = |last: i64| {
            let mut m = SparseMatrix::new(n);
            for i in 0..n {
                let edge = (i + 1 < n).then(|| (i + 1, BigInt::from((1i128 << 100) + 1)));
                m.push_row(edge);
            }
            let mut initial = vec![BigInt::zero(); n];
            initial[0] = BigInt::one();
            let mut final_weights = vec![BigInt::one(); n];
            final_weights[n - 1] = BigInt::from(last);
            Wfa::new(n, initial, final_weights, BTreeMap::from([(a, m)]))
        };
        for last in [0, 1] {
            let wfa = chain(last);
            let table = Table::of(&wfa);
            assert_eq!(vector_bound_bits(&table), None, "final weight {last}");
            let bits = coefficient_bound_bits(&table);
            assert_eq!(bits, bound_bits(&table));
            let largest = (0..n)
                .map(|k| wfa.coefficient(&Word::from_symbols(vec![a; k])).bit_len() as u64)
                .max()
                .unwrap();
            // a¹⁰ has coefficient (2^100 + 1)^10, of 1001 bits.
            assert!(largest >= 1001);
            assert!(bits >= largest, "{bits} < {largest} bits");
        }
    }

    #[test]
    fn rational_weights_clear_their_denominators() {
        let r = |n: i64, d: i64| BigRational::new(n.into(), d.into());
        // ι = (1/2, 1/2), M_a = diag(2/3, 2/3), φ = (1/3, −1/3): every
        // coefficient cancels, though no weight is an integer.
        let automaton = |phi1: BigRational| {
            let mut m = SparseMatrix::new(2);
            m.push_row([(0, r(2, 3))]);
            m.push_row([(1, r(2, 3))]);
            let transitions = BTreeMap::from([(Symbol::intern("a"), m)]);
            Wfa::new(2, vec![r(1, 2), r(1, 2)], vec![r(1, 3), phi1], transitions)
        };
        for (phi1, zero) in [(r(-1, 3), true), (r(-1, 5), false), (r(-2, 6), true)] {
            let wfa = automaton(phi1);
            assert_eq!(is_zero_series(&wfa), zero);
            assert_eq!(rational_reference::is_zero_series(&wfa), zero);
        }
    }

    /// A deterministic stream of test numbers.
    fn next(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// A random automaton over {a, b} with weights from `weight`.
    fn random_wfa<W: Semiring>(
        seed: &mut u64,
        states: usize,
        mut weight: impl FnMut(&mut u64) -> W,
    ) -> Wfa<W> {
        let mut sparse = |seed: &mut u64| {
            if next(seed) % 3 == 0 {
                W::zero()
            } else {
                weight(seed)
            }
        };
        let initial = (0..states).map(|_| sparse(seed)).collect();
        let final_weights = (0..states).map(|_| sparse(seed)).collect();
        let transitions = ["a", "b"]
            .iter()
            .map(|name| {
                let mut m = SparseMatrix::new(states);
                for _ in 0..states {
                    let row: Vec<_> = (0..states).map(|j| (j, sparse(seed))).collect();
                    m.push_row(row);
                }
                (Symbol::intern(name), m)
            })
            .collect();
        Wfa::new(states, initial, final_weights, transitions)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The modular kernel agrees with the `BigRational` oracle on the
        /// engine's integer product and on the public rational one, for
        /// random starred pairs restricted to the ∞-support and to its
        /// complement.
        #[test]
        fn modular_kernel_matches_the_rational_oracle(seed in any::<u64>(), shape in 0u8..3) {
            let alphabet = vec![Symbol::intern("a"), Symbol::intern("b")];
            let config = ExprGenConfig::new(alphabet.clone()).with_target_size(7);
            let mut seed = seed;
            let (e, f) = (random_expr(&config, &mut seed), random_expr(&config, &mut seed));
            // Unequal pairs, and two kinds of equal ones.
            let (e, f): (Expr, Expr) = match shape {
                0 => (e, f),
                1 => (format!("{e} + {f}").parse().unwrap(), format!("{f} + {e}").parse().unwrap()),
                _ => (format!("({e}) ({f})*").parse().unwrap(), format!("({e}) (1 + ({f})* ({f}))").parse().unwrap()),
            };
            let (we, wf) = (thompson(&e).eliminate_epsilon(), thompson(&f).eliminate_epsilon());
            let integer = we.finite_part::<i128>().difference(&wf.finite_part(), |w| -w);
            let rational = we.rational_part().difference(&wf.rational_part(), |w| -w.clone());
            let support = we.infinity_support().determinize(&alphabet, 10_000).unwrap();
            for dfa in [support.complement(), support] {
                let expected = rational_reference::is_zero_series(&restrict_to_language(&rational, &dfa));
                let restricted = restrict_within(&integer, None, |w| *w, &dfa, |s| dfa.is_accepting(s), usize::MAX).unwrap();
                prop_assert_eq!(is_zero_integer(&restricted), expected, "{} vs {}", e, f);
                prop_assert_eq!(is_zero_series(&restrict_to_language(&rational, &dfa)), expected, "{} vs {}", e, f);
                if shape != 0 {
                    prop_assert!(expected, "{} vs {}", e, f);
                }
            }
        }

        /// Random rational automata, and their differences with
        /// themselves and with a perturbed copy, agree with the oracle.
        #[test]
        fn rational_automata_match_the_oracle(seed in any::<u64>(), states in 1usize..5) {
            let mut seed = seed;
            let mut weight = |seed: &mut u64| {
                let num = next(seed) as i64 % 7 - 3;
                BigRational::new(num.into(), (next(seed) as i64 % 4 + 1).into())
            };
            let wfa = random_wfa(&mut seed, states, &mut weight);
            let other = random_wfa(&mut seed, states, &mut weight);
            for candidate in [
                wfa.clone(),
                wfa.difference(&wfa, |w| -w.clone()),
                wfa.difference(&other, |w| -w.clone()),
            ] {
                prop_assert_eq!(is_zero_series(&candidate), rational_reference::is_zero_series(&candidate));
            }
        }

        /// Every coefficient of a word shorter than the state count is
        /// within the kernel's bound.
        #[test]
        fn coefficients_stay_within_the_bound(seed in any::<u64>(), states in 1usize..5, big in any::<bool>()) {
            let mut seed = seed;
            let range = if big { 1 << 20 } else { 4 };
            let wfa = random_wfa(&mut seed, states, |seed| {
                next(seed) as i128 % (2 * range + 1) - range
            });
            let bits = coefficient_bound_bits(&Table::of(&wfa));
            let alphabet = [Symbol::intern("a"), Symbol::intern("b")];
            for word in words_up_to(&alphabet, states - 1) {
                let coefficient = wfa.coefficient(&Word::from_symbols(word)).unsigned_abs();
                prop_assert!(bits >= 127 || coefficient <= 1u128 << bits, "{} > 2^{}", coefficient, bits);
            }
        }
    }
}
