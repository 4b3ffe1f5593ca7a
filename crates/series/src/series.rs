//! Truncated formal power series and the semantics map `{{−}}`.

use nka_semiring::{ExtNat, Semiring, StarSemiring};
use nka_syntax::{Expr, ExprNode, Symbol, Word};
use std::collections::BTreeMap;
use std::fmt;

/// A formal power series over `N̄`, truncated to words of length ≤ `max_len`
/// over a fixed alphabet.
///
/// Only non-zero coefficients are stored. All operations (including
/// [`Series::star`]) are exact on the retained prefix: truncation commutes
/// with `+`, `·` and `*` because the coefficient of a word only depends on
/// coefficients of words that are no longer.
///
/// # Examples
///
/// ```
/// use nka_series::Series;
/// use nka_syntax::{Symbol, Word};
/// use nka_semiring::ExtNat;
///
/// let a = Symbol::intern("a");
/// let atom = Series::atom(a, 4);
/// let star = atom.star();
/// // {{a*}}[a^n] = 1 for every n.
/// for n in 0..=4 {
///     let w = Word::from_symbols(std::iter::repeat(a).take(n));
///     assert_eq!(star.coeff(&w), ExtNat::from(1u64));
/// }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Series {
    max_len: usize,
    coeffs: BTreeMap<Word, ExtNat>,
}

/// Enumerates all words of length ≤ `max_len` over `alphabet`, shortest
/// first.
pub fn all_words(alphabet: &[Symbol], max_len: usize) -> Vec<Word> {
    let mut out = vec![Word::epsilon()];
    let mut frontier = vec![Word::epsilon()];
    for _ in 0..max_len {
        let mut next = Vec::with_capacity(frontier.len() * alphabet.len());
        for w in &frontier {
            for &s in alphabet {
                let mut w2 = w.clone();
                w2.push(s);
                next.push(w2);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

impl Series {
    /// The zero series.
    pub fn zero(max_len: usize) -> Series {
        Series {
            max_len,
            coeffs: BTreeMap::new(),
        }
    }

    /// The unit series `1ε`.
    pub fn one(max_len: usize) -> Series {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(Word::epsilon(), ExtNat::from(1u64));
        Series { max_len, coeffs }
    }

    /// The series `1a` for an atom.
    pub fn atom(sym: Symbol, max_len: usize) -> Series {
        let mut coeffs = BTreeMap::new();
        if max_len >= 1 {
            coeffs.insert(Word::from_symbols([sym]), ExtNat::from(1u64));
        }
        Series { max_len, coeffs }
    }

    /// The truncation length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// The coefficient of `word` (zero if beyond the truncation length —
    /// callers should only query words of length ≤ [`Series::max_len`]).
    pub fn coeff(&self, word: &Word) -> ExtNat {
        self.coeffs
            .get(word)
            .copied()
            .unwrap_or(ExtNat::zero_const())
    }

    /// The non-zero coefficients, in word order.
    pub fn iter(&self) -> impl Iterator<Item = (&Word, ExtNat)> {
        self.coeffs.iter().map(|(w, &c)| (w, c))
    }

    /// The support (words with non-zero coefficient).
    pub fn support_len(&self) -> usize {
        self.coeffs.len()
    }

    fn insert_add(&mut self, word: Word, value: ExtNat) {
        if value.is_zero() || word.len() > self.max_len {
            return;
        }
        let entry = self.coeffs.entry(word).or_insert(ExtNat::zero_const());
        *entry += value;
    }

    /// Pointwise sum (Definition A.3, eq. A.0.1).
    ///
    /// # Panics
    ///
    /// Panics if the truncation lengths differ.
    pub fn add(&self, other: &Series) -> Series {
        assert_eq!(self.max_len, other.max_len, "mismatched truncation length");
        let mut out = self.clone();
        for (w, c) in other.iter() {
            out.insert_add(w.clone(), c);
        }
        out
    }

    /// Cauchy product (Definition A.3, eq. A.0.2), truncated.
    ///
    /// # Panics
    ///
    /// Panics if the truncation lengths differ.
    pub fn mul(&self, other: &Series) -> Series {
        assert_eq!(self.max_len, other.max_len, "mismatched truncation length");
        let mut out = Series::zero(self.max_len);
        for (u, cu) in self.iter() {
            if cu.is_zero() {
                continue;
            }
            for (v, cv) in other.iter() {
                if u.len() + v.len() > self.max_len {
                    continue;
                }
                out.insert_add(u.concat(v), cu * cv);
            }
        }
        out
    }

    /// Kleene star (Definition A.3, eq. A.0.3), truncated.
    ///
    /// Computed from the least-solution recurrence
    /// `(f*)[w] = f[ε]* · ( [w = ε] + Σ_{uv=w, u≠ε} f[u]·(f*)[v] )`,
    /// which agrees with the path-summation definition over the countably
    /// complete semiring `N̄`.
    pub fn star(&self) -> Series {
        let eps_star = self.coeff(&Word::epsilon()).star();
        let mut out = Series::zero(self.max_len);
        out.insert_add(Word::epsilon(), eps_star);
        // Process words in order of increasing length; a word's coefficient
        // depends only on coefficients of strictly shorter suffixes.
        for len in 1..=self.max_len {
            let mut new_coeffs: BTreeMap<Word, ExtNat> = BTreeMap::new();
            for (u, cu) in self.iter() {
                if u.is_empty() || u.len() > len {
                    continue;
                }
                let suffix_len = len - u.len();
                let known: Vec<(Word, ExtNat)> = out
                    .coeffs
                    .iter()
                    .filter(|(w, _)| w.len() == suffix_len)
                    .map(|(w, &c)| (w.clone(), c))
                    .collect();
                for (v, cv) in known {
                    let w = u.concat(&v);
                    let add = cu * cv;
                    if add.is_zero() {
                        continue;
                    }
                    let entry = new_coeffs.entry(w).or_insert(ExtNat::zero_const());
                    *entry += add;
                }
            }
            for (w, c) in new_coeffs {
                out.insert_add(w, eps_star * c);
            }
        }
        out
    }
}

impl fmt::Debug for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Series(≤{}; ", self.max_len)?;
        let mut first = true;
        for (w, c) in self.iter() {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            write!(f, "{c}·{w}")?;
        }
        if first {
            write!(f, "0")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The semantics map `{{−}} : ExpΣ → N̄⟨⟨Σ*⟩⟩` of Definition A.4, truncated
/// to words of length ≤ `max_len`.
///
/// The `alphabet` is only used to document the intended Σ; atoms outside it
/// are still handled (they simply contribute their own letters).
///
/// Runs on an explicit stack without a memo: each subterm's series is
/// consumed by its parent, so only operands waiting for a sibling stay
/// alive.
pub fn eval(expr: &Expr, _alphabet: &[Symbol], max_len: usize) -> Series {
    // `true` marks a subterm whose children are pushed.
    let mut stack = vec![(*expr, false)];
    let mut values: Vec<Series> = Vec::new();
    while let Some((e, expanded)) = stack.pop() {
        let mut operand = || values.pop().expect("a finished operand");
        let value = match e.node() {
            ExprNode::Add(l, r) | ExprNode::Mul(l, r) if !expanded => {
                stack.extend([(e, true), (r, false), (l, false)]);
                continue;
            }
            ExprNode::Star(inner) if !expanded => {
                stack.extend([(e, true), (inner, false)]);
                continue;
            }
            ExprNode::Zero => Series::zero(max_len),
            ExprNode::One => Series::one(max_len),
            ExprNode::Atom(s) => Series::atom(s, max_len),
            ExprNode::Star(_) => operand().star(),
            ExprNode::Add(..) => {
                let r = operand();
                operand().add(&r)
            }
            ExprNode::Mul(..) => {
                let r = operand();
                operand().mul(&r)
            }
        };
        values.push(value);
    }
    values.pop().expect("the root's series")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn ev(src: &str, len: usize) -> Series {
        let e: Expr = src.parse().unwrap();
        eval(&e, &[], len)
    }

    fn w(names: &[&str]) -> Word {
        Word::from_symbols(names.iter().map(|n| sym(n)))
    }

    #[test]
    fn unit_series() {
        let one = ev("1", 3);
        assert_eq!(one.coeff(&Word::epsilon()), ExtNat::from(1u64));
        assert_eq!(one.coeff(&w(&["a"])), ExtNat::zero_const());
        let zero = ev("0", 3);
        assert_eq!(zero.support_len(), 0);
    }

    #[test]
    fn non_idempotent_addition() {
        // {{a + a}}[a] = 2 — the load-bearing difference from KA.
        let s = ev("a + a", 2);
        assert_eq!(s.coeff(&w(&["a"])), ExtNat::from(2u64));
    }

    #[test]
    fn cauchy_product_counts_splits() {
        let s = ev("a* a*", 4);
        for n in 0..=4usize {
            let word = Word::from_symbols(std::iter::repeat_n(sym("a"), n));
            assert_eq!(s.coeff(&word), ExtNat::from(n as u64 + 1));
        }
    }

    #[test]
    fn star_of_one_is_infinite() {
        let s = ev("1*", 2);
        assert_eq!(s.coeff(&Word::epsilon()), ExtNat::INFINITY);
    }

    #[test]
    fn star_of_one_plus_atom() {
        // {{(1 + a)*}}[w] = ∞ for every w ∈ a*.
        let s = ev("(1 + a)*", 3);
        for n in 0..=3usize {
            let word = Word::from_symbols(std::iter::repeat_n(sym("a"), n));
            assert_eq!(s.coeff(&word), ExtNat::INFINITY, "length {n}");
        }
        assert_eq!(s.coeff(&w(&["b"])), ExtNat::zero_const());
    }

    #[test]
    fn fixed_point_law_holds() {
        // a* = 1 + a a*  as truncated series.
        let lhs = ev("a*", 5);
        let rhs = ev("1 + a a*", 5);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn denesting_law_holds() {
        let lhs = ev("(a + b)*", 4);
        let rhs = ev("(a* b)* a*", 4);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn sliding_law_holds() {
        let lhs = ev("(a b)* a", 5);
        let rhs = ev("a (b a)*", 5);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn idempotence_fails() {
        assert_ne!(ev("a + a", 3), ev("a", 3));
        // ... but every theorem of NKA relates them monotonically; not checked here.
    }

    #[test]
    fn star_weights_count_decompositions() {
        // {{(a a)* (1 + a)}}[a^n] = 1 — unrolling (Fig. 2b) target shape.
        let lhs = ev("(a a)* (1 + a)", 6);
        let rhs = ev("a*", 6);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn infinite_coefficient_propagates_through_product() {
        // {{1* a}}[a] = ∞, and {{1* a b}} gives ∞ on "ab".
        let s = ev("1* a", 2);
        assert_eq!(s.coeff(&w(&["a"])), ExtNat::INFINITY);
        // ∞ · 0 = 0: {{1* 0}} is the zero series.
        let z = ev("1* 0", 2);
        assert_eq!(z.support_len(), 0);
    }

    #[test]
    fn all_words_enumeration() {
        let alphabet = [sym("a"), sym("b")];
        let words = all_words(&alphabet, 2);
        assert_eq!(words.len(), 1 + 2 + 4);
        assert_eq!(words[0], Word::epsilon());
    }

    #[test]
    fn star_handles_infinite_entry_coefficients() {
        // f = 1* a has f[a] = ∞; (f)*[a] must be ∞, coefficient on ε is 1.
        let s = ev("(1* a)*", 2);
        assert_eq!(s.coeff(&Word::epsilon()), ExtNat::from(1u64));
        assert_eq!(s.coeff(&w(&["a"])), ExtNat::INFINITY);
    }
}
