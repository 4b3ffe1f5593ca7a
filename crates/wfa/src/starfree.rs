//! The star-free fast path: finite word-multiset semantics for
//! loop-free equivalence queries.
//!
//! A star-free expression denotes a power series with **finite support
//! and finite coefficients** — by induction on Definition 2.2: `0`, `1`,
//! and atoms are finite maps, and `+`/`·` of finite maps are finite maps
//! (the Cauchy product of finitely supported series is finitely
//! supported, and `N` is closed under finite sums and products; only
//! `(-)*` can introduce infinite support or the coefficient `∞`). By
//! Theorem A.6 `⊢NKA e = f` iff the series coincide, so for star-free
//! `e`, `f` the whole decision reduces to comparing two finite
//! `Word → N` maps — no Thompson construction, no ε-elimination, no
//! subset construction, no zeroness pass. The `nka-qprog` encoder
//! emits a star under `Program::While` only, so every loop-free surface
//! program lands on this path.
//!
//! Two tiers, both exact:
//!
//! * **Tier 2 — prefix normalization** ([`prefix_normalize`]): flatten
//!   both sides' `·`-spines into factor lists, strip the common prefix
//!   factor-by-factor (by interned id), and bail at the first divergent
//!   *atom* head. Refuted long pairs cost O(divergence point); equal
//!   sequential compositions cost one id-comparison per gate.
//! * **Tier 1 — multiset evaluation** ([`eval_product`]): expand the
//!   residual factors into their `Word → u64` multiplicity maps
//!   (DAG-memoized over [`ExprId`] in a memo the caller owns) and compare
//!   maps. A size budget and checked arithmetic make the evaluator total:
//!   exceeding either reports `None` and the caller falls back to the
//!   generic pipeline.
//!
//! Both tiers are pure functions of the two terms. The engine passes a
//! fresh memo per query, so shared subterms evaluate once per query and
//! nothing outlives it; the verdict cache memoizes the answer per pair.
//!
//! # Why stripping a common prefix is sound
//!
//! For series with all coefficients finite (the star-free case), a
//! common nonzero left factor cancels: if `u ≠ 0` and `u·x = u·y` with
//! `u`, `x`, `y` finite-coefficient, then `x = y`. Suppose not, and let
//! `w` be the length-lex-least word with `x[w] ≠ y[w]`, and `x₀` the
//! length-lex-least word of `supp(u)`. Every split `s·t = x₀·w` with
//! `u[s] ≠ 0` other than `s = x₀` has `|s| > |x₀|` (a same-length prefix
//! of the same word *is* `x₀`), hence `|t| < |w|` and `x[t] = y[t]` by
//! minimality of `w`. So `(u·x)[x₀w]` and `(u·y)[x₀w]` are finite sums
//! agreeing term-by-term except for `u[x₀]·x[w]` vs `u[x₀]·y[w]`, which
//! differ because `0 < u[x₀] < ∞` — contradiction. (Over `N̄` the
//! argument needs the finiteness: a single `∞` term would equate both
//! sums. `1*·a = 1*·(a + a)` is exactly such a non-cancellable instance,
//! which is why the tiers guard on star-freeness.)
//!
//! If a common factor is the **zero** series both products are `0` and
//! the sides are equal, which is why [`prefix_normalize`] decides
//! zero-series sides up front — afterwards every factor on both sides is
//! a nonzero series, and since positivity rules out zero divisors
//! (`(u·v)[x₀y₀] ≥ u[x₀]·v[y₀] > 0`), so is every residual product.
//! Divergent atom heads `a ≠ b` therefore refute outright: the residual
//! supports are nonempty subsets of `aΣ*` vs `bΣ*`.

use nka_syntax::{Expr, ExprId, ExprNode, Folded, Word};
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::sync::Arc;

/// The finite `Word → multiplicity` map of a star-free expression —
/// Definition A.4 restricted to the star-free fragment, with
/// coefficients in `u64 ⊂ N` (overflow falls back to the generic
/// pipeline). `BTreeMap` so equality and iteration order are canonical.
pub type WordMultiset = BTreeMap<Word, u64>;

/// Factor-list length cap for [`prefix_normalize`]: a `·`-spine is a
/// *tree* reading, so a heavily shared DAG (`x·x` squared 20 times) can
/// flatten exponentially even though the DAG-memoized tier-1 evaluator
/// handles it linearly. Past the cap, tier 2 hands the unflattened
/// expressions straight to tier 1.
const MAX_FACTORS: usize = 4096;

/// Whether `e` denotes the zero series, decided structurally (total on
/// all expressions, memoized over the interned DAG): `0` is zero, sums
/// need both sides zero, products either side, and `1`, atoms, and
/// stars never are (a star's ε-coefficient is ≥ 1).
#[must_use]
pub fn is_zero_series(e: &Expr) -> bool {
    let Ok(zero) = e.fold(&mut HashMap::new(), |_, node| {
        Ok::<bool, Infallible>(match node {
            Folded::Zero => true,
            Folded::One | Folded::Atom(_) | Folded::Star(_) => false,
            Folded::Add(l, r) => *l && *r,
            Folded::Mul(l, r) => *l || *r,
        })
    });
    zero
}

/// The outcome of tier-2 prefix normalization on a star-free pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixOutcome {
    /// The tier decided the query outright (see [`prefix_normalize`]).
    Decided(bool),
    /// Equality of the original pair is equivalent to equality of these
    /// residual factor products (empty list = the one series `{ε ↦ 1}`);
    /// tier 1 takes over.
    Residual(Vec<Expr>, Vec<Expr>),
}

/// Appends the `·`-spine factors of `e` to `out`, dropping unit (`1`)
/// factors. Returns `false` (leaving `out` truncated at [`MAX_FACTORS`])
/// if the spine's tree reading is too large to flatten.
fn flatten_factors(e: Expr, out: &mut Vec<Expr>) -> bool {
    let mut stack = vec![e];
    while let Some(e) = stack.pop() {
        match e.node() {
            ExprNode::One => {}
            ExprNode::Mul(l, r) => stack.extend([r, l]),
            _ if out.len() >= MAX_FACTORS => return false,
            _ => out.push(e),
        }
    }
    true
}

/// Tier 2: incremental equivalence for sequential compositions.
///
/// Decides the pair outright when either side is the zero series (equal
/// iff both are), when the factor lists cancel completely (equal), or
/// when the first divergent factors are *distinct atoms* — or one side
/// runs out while the other's head is an atom (refuted: the residual
/// products are nonzero with disjoint supports; see the module docs for
/// why stripping the common prefix is sound). Anything else — compound
/// divergent heads like `h·(x + y)` vs `h·(y + x)` — returns the
/// residual factor lists for tier-1 multiset comparison.
///
/// The caller must ensure both sides are star-free.
#[must_use]
pub fn prefix_normalize(e: &Expr, f: &Expr) -> PrefixOutcome {
    let (ze, zf) = (is_zero_series(e), is_zero_series(f));
    if ze || zf {
        return PrefixOutcome::Decided(ze == zf);
    }
    let (mut fe, mut ff) = (Vec::new(), Vec::new());
    if !(flatten_factors(*e, &mut fe) && flatten_factors(*f, &mut ff)) {
        // Spine too large to flatten: skip cancellation, let the
        // DAG-memoized evaluator (or the generic pipeline) take the
        // originals whole.
        return PrefixOutcome::Residual(vec![*e], vec![*f]);
    }
    let common = fe
        .iter()
        .zip(&ff)
        .take_while(|(a, b)| a.id() == b.id())
        .count();
    let (re, rf) = (&fe[common..], &ff[common..]);
    let atom_head = |side: &[Expr]| {
        side.first()
            .is_some_and(|h| matches!(h.node(), ExprNode::Atom(_)))
    };
    match (re.first(), rf.first()) {
        // Full cancellation: both residuals are the one series.
        (None, None) => PrefixOutcome::Decided(true),
        // {ε ↦ 1} against a nonzero product all of whose words start
        // with the head atom: disjoint nonempty supports.
        (Some(_), None) if atom_head(re) => PrefixOutcome::Decided(false),
        (None, Some(_)) if atom_head(rf) => PrefixOutcome::Decided(false),
        // Divergent atom heads a ≠ b (distinct ids ⇒ distinct symbols):
        // nonzero products with supports inside aΣ* vs bΣ*.
        (Some(_), Some(_)) if atom_head(re) && atom_head(rf) => PrefixOutcome::Decided(false),
        _ => PrefixOutcome::Residual(re.to_vec(), rf.to_vec()),
    }
}

/// `{ε ↦ 1}` — the multiset of the empty product.
fn one_multiset() -> WordMultiset {
    let mut m = WordMultiset::new();
    m.insert(Word::epsilon(), 1);
    m
}

/// Pointwise sum `a + b`, `None` on coefficient overflow or a result
/// exceeding `max_words` entries.
fn union(a: &WordMultiset, b: &WordMultiset, max_words: usize) -> Option<WordMultiset> {
    let mut out = a.clone();
    for (w, &c) in b {
        let entry = out.entry(w.clone()).or_insert(0);
        *entry = entry.checked_add(c)?;
    }
    (out.len() <= max_words).then_some(out)
}

/// Cauchy product `a · b`: every concatenation with multiplied
/// multiplicities, summed over coinciding concatenations (this summation
/// is where non-idempotence lives — `(a + a)·b` yields `a·b ↦ 2`).
/// `None` on overflow or a result exceeding `max_words` entries.
fn cauchy(a: &WordMultiset, b: &WordMultiset, max_words: usize) -> Option<WordMultiset> {
    let mut out = WordMultiset::new();
    for (u, &cu) in a {
        for (v, &cv) in b {
            let c = cu.checked_mul(cv)?;
            let entry = out.entry(u.concat(v)).or_insert(0);
            *entry = entry.checked_add(c)?;
        }
        if out.len() > max_words {
            return None;
        }
    }
    Some(out)
}

/// The word multiset of star-free `e`, memoized in `memo` per interned
/// id (so shared subterms evaluate once per memo). `None` if any
/// intermediate exceeds `max_words` entries, any coefficient overflows
/// `u64`, or a star is encountered; partial memo entries remain valid
/// either way. `scratch_inserts` counts memo insertions under scratch
/// ids.
pub fn eval_multiset(
    e: &Expr,
    memo: &mut HashMap<ExprId, Arc<WordMultiset>>,
    max_words: usize,
    scratch_inserts: &mut usize,
) -> Option<Arc<WordMultiset>> {
    e.fold(memo, |e, node| {
        let m = match node {
            Folded::Zero => WordMultiset::new(),
            Folded::One => one_multiset(),
            Folded::Atom(s) => {
                let mut m = WordMultiset::new();
                m.insert(Word::from_symbols([s]), 1);
                m
            }
            Folded::Add(l, r) => union(l, r, max_words).ok_or(())?,
            Folded::Mul(l, r) => cauchy(l, r, max_words).ok_or(())?,
            // Not star-free; the caller guards on star height, but stay
            // total rather than panic.
            Folded::Star(_) => return Err(()),
        };
        if e.id().is_scratch() {
            *scratch_inserts += 1;
        }
        Ok(Arc::new(m))
    })
    .ok()
}

/// The word multiset of a factor-list product (tier 1 on a tier-2
/// residual); the empty list is the one series. Each factor is memoized
/// via [`eval_multiset`]; the running product is not (partial products
/// have no interned identity). Same `None`-on-budget contract.
pub fn eval_product(
    factors: &[Expr],
    memo: &mut HashMap<ExprId, Arc<WordMultiset>>,
    max_words: usize,
    scratch_inserts: &mut usize,
) -> Option<WordMultiset> {
    let mut acc = one_multiset();
    for factor in factors {
        let m = eval_multiset(factor, memo, max_words, scratch_inserts)?;
        acc = cauchy(&acc, &m, max_words)?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nka_semiring::ExtNat;
    use nka_series::eval as series_eval;
    use nka_syntax::Symbol;

    fn e(src: &str) -> Expr {
        src.parse().unwrap()
    }

    fn multiset_of(src: &str) -> WordMultiset {
        let expr = e(src);
        eval_multiset(&expr, &mut HashMap::new(), 1 << 20, &mut 0)
            .unwrap_or_else(|| panic!("{src} should evaluate"))
            .as_ref()
            .clone()
    }

    #[test]
    fn constants_atoms_and_multiplicities() {
        assert!(multiset_of("0").is_empty());
        assert_eq!(multiset_of("1"), one_multiset());
        let a = multiset_of("a");
        assert_eq!(a.get(&Word::from_symbols([Symbol::intern("a")])), Some(&1));
        // Non-idempotence: a + a has multiplicity 2, (a + a)(b + b) has 4.
        let aa = multiset_of("a + a");
        assert_eq!(aa.values().copied().collect::<Vec<_>>(), vec![2]);
        let prod = multiset_of("(a + a) (b + b)");
        assert_eq!(prod.values().copied().collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn agrees_with_truncated_series_semantics() {
        // The multiset evaluator must match Definition A.4 (the
        // reference evaluator in `nka-series`) exactly on star-free
        // terms — their support is finite, so a truncation beyond the
        // longest word is the whole series.
        let alphabet = vec![Symbol::intern("a"), Symbol::intern("b")];
        for src in [
            "0",
            "1",
            "a",
            "a b",
            "a + a",
            "(a + b) (a + b)",
            "(a + 1) (b + a b) + a (1 + b)",
            "(a + a) (b + b) (a + 1)",
            "a b a b a b",
        ] {
            let m = multiset_of(src);
            let truncation = m.keys().map(Word::len).max().unwrap_or(0) + 1;
            let series = series_eval(&e(src), &alphabet, truncation);
            for (w, &c) in &m {
                assert_eq!(
                    series.coeff(w),
                    ExtNat::from(c),
                    "{src}: coefficient of {w}"
                );
            }
            // And nothing beyond the multiset's support.
            let total: u64 = m.values().sum();
            let series_total: ExtNat = series
                .iter()
                .map(|(_, c)| c)
                .fold(ExtNat::zero_const(), |acc, c| acc + c);
            assert_eq!(series_total, ExtNat::from(total), "{src}: support mismatch");
        }
    }

    #[test]
    fn zero_series_detection() {
        assert!(is_zero_series(&e("0")));
        assert!(is_zero_series(&e("0 a + b 0")));
        assert!(is_zero_series(&e("(0 + 0 a) b")));
        assert!(!is_zero_series(&e("1")));
        assert!(!is_zero_series(&e("a 0 + b")));
        assert!(!is_zero_series(&e("0*")));
    }

    #[test]
    fn prefix_normalization_decides_and_strips() {
        // Zero sides decide outright.
        assert_eq!(
            prefix_normalize(&e("0 a"), &e("b 0")),
            PrefixOutcome::Decided(true)
        );
        assert_eq!(
            prefix_normalize(&e("0 a"), &e("b")),
            PrefixOutcome::Decided(false)
        );
        // Full cancellation (units dropped): equal.
        assert_eq!(
            prefix_normalize(&e("1 a b"), &e("a 1 b")),
            PrefixOutcome::Decided(true)
        );
        // First divergent atoms refute, at any depth.
        assert_eq!(
            prefix_normalize(&e("a b c d"), &e("a b x d")),
            PrefixOutcome::Decided(false)
        );
        // Prefix-of-the-other refutes when the longer side's head is an
        // atom.
        assert_eq!(
            prefix_normalize(&e("a b"), &e("a b c")),
            PrefixOutcome::Decided(false)
        );
        // Compound divergent heads hand residuals to tier 1.
        let PrefixOutcome::Residual(re, rf) = prefix_normalize(&e("a (b + c)"), &e("a (c + b)"))
        else {
            panic!("expected residuals");
        };
        assert_eq!(re, vec![e("b + c")]);
        assert_eq!(rf, vec![e("c + b")]);
    }

    #[test]
    fn eval_product_matches_whole_expression() {
        let factors = [e("a"), e("b + c"), e("a + a")];
        let whole = multiset_of("a (b + c) (a + a)");
        assert_eq!(
            eval_product(&factors, &mut HashMap::new(), 1 << 20, &mut 0).unwrap(),
            whole
        );
        assert_eq!(
            eval_product(&[], &mut HashMap::new(), 16, &mut 0).unwrap(),
            one_multiset()
        );
    }

    #[test]
    fn budget_and_overflow_report_none_not_panic() {
        // (a + b)^4 has 16 words; a 10-word budget must refuse.
        let expr = e("(a + b) (a + b) (a + b) (a + b)");
        assert!(eval_multiset(&expr, &mut HashMap::new(), 10, &mut 0).is_none());
        assert!(eval_multiset(&expr, &mut HashMap::new(), 16, &mut 0).is_some());
        // Coefficient overflow: (1 + 1)^64 overflows u64 on the ε
        // coefficient; must be a clean fallback, not an ExtNat panic.
        let mut doubling = e("1 + 1");
        for _ in 0..6 {
            doubling = doubling.mul(&doubling);
        }
        assert!(eval_multiset(&doubling, &mut HashMap::new(), 1 << 20, &mut 0).is_none());
    }

    #[test]
    fn shared_dag_spines_stay_linear() {
        // x·x squared 20 times: tree reading ~2M factors, DAG footprint
        // 21 nodes. Flattening must refuse (cap) and evaluation must
        // stay linear via memoization — the word x^(2^20) exceeds no
        // budget because each memoized level holds exactly one word.
        let mut sq = e("x");
        for _ in 0..20 {
            sq = sq.mul(&sq);
        }
        let other = sq.mul(&e("x"));
        match prefix_normalize(&sq, &other) {
            PrefixOutcome::Residual(re, rf) => {
                assert_eq!(re, vec![sq]);
                assert_eq!(rf, vec![other]);
            }
            PrefixOutcome::Decided(_) => panic!("capped flatten must not decide"),
        }
        let m = eval_multiset(&sq, &mut HashMap::new(), 16, &mut 0).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.keys().next().unwrap().len(), 1 << 20);
    }

    #[test]
    fn scratch_inserts_are_counted() {
        let persistent = e("scount_a scount_b");
        let mut memo = HashMap::new();
        let mut scratch_inserts = 0;
        let _scope = nka_syntax::ScratchScope::enter();
        let scratch = persistent.mul(&e("scount_a"));
        assert!(scratch.id().is_scratch());
        assert!(eval_multiset(&scratch, &mut memo, 1 << 10, &mut scratch_inserts).is_some());
        // Exactly the scratch-keyed memo entries are counted.
        let scratch_keyed = memo.keys().filter(|id| id.is_scratch()).count();
        assert_eq!(scratch_inserts, scratch_keyed);
        assert!(scratch_inserts >= 1);
    }
}
