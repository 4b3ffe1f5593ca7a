//! The idempotent fragment: Kleene algebra inside NKA (Remark 2.1).
//!
//! Remark 2.1 of the paper observes that the subset
//! `1*K = {1*·p : p ∈ K}` of any NKA satisfies the **Kleene algebra**
//! axioms — multiplying by `1*` saturates every non-zero coefficient to
//! `∞`, and `∞ + ∞ = ∞` restores the idempotent law that NKA drops. In
//! the rational-power-series model this is exact:
//!
//! ```text
//! {{1*·e}}[w] = ∞ · {{e}}[w]  =  ∞ if w ∈ L(e), 0 otherwise,
//! ```
//!
//! so `⊢NKA 1*e = 1*f` **iff** `L(e) = L(f)` **iff** `⊢KA e = f` (the last
//! step is Kozen's completeness theorem for KA). This module makes the
//! embedding executable:
//!
//! * [`support_nfa`] — the support `L(e) = {w : {{e}}[w] > 0}` of an
//!   ε-free WFA over `N̄`, as an NFA (weights are non-negative, so no
//!   cancellation: the support is the underlying unweighted automaton).
//! * [`ka_equiv`] — decides `⊢KA e = f` by comparing support DFAs.
//! * [`saturate`] — the syntactic embedding `e ↦ 1*·e`.
//!
//! Together with [`crate::decide::decide_eq`] this gives two *independent*
//! decision procedures whose agreement on the embedding is itself a
//! theorem (`ka_equiv(e, f) ⇔ decide_eq(1*e, 1*f)`), property-tested in
//! this module and exercised in `examples/ka_vs_nka.rs`.
//!
//! # Examples
//!
//! Idempotence separates the two theories and the embedding repairs it:
//!
//! ```
//! use nka_wfa::{decide_eq, ka::{ka_equiv, saturate}};
//! use nka_syntax::Expr;
//!
//! let pp: Expr = "p + p".parse()?;
//! let p: Expr = "p".parse()?;
//! assert!(!decide_eq(&pp, &p)?);                       // not an NKA theorem
//! assert!(ka_equiv(&pp, &p)?);                         // a KA theorem
//! assert!(decide_eq(&saturate(&pp), &saturate(&p))?);  // Remark 2.1
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::automaton::Wfa;
use crate::decide::DecideError;
use crate::nfa::Nfa;
use nka_semiring::{ExtNat, Semiring};
use nka_syntax::{Expr, Symbol};

/// The support `{w : coefficient(w) > 0}` of an ε-free WFA over `N̄`.
///
/// Weights in `N̄` are non-negative and addition cannot cancel, so a word
/// has non-zero coefficient iff it has *some* accepting path all of whose
/// weights (initial, edges, final) are non-zero. That is exactly the
/// language of the unweighted automaton obtained by keeping non-zero
/// entries.
pub fn support_nfa(wfa: &Wfa<ExtNat>) -> Nfa {
    let n = wfa.state_count();
    let mut nfa = Nfa::new(n);
    for (q, w) in wfa.initial().iter().enumerate() {
        if !w.is_zero() {
            nfa.add_initial(q);
        }
    }
    for (q, w) in wfa.final_weights().iter().enumerate() {
        if !w.is_zero() {
            nfa.add_accepting(q);
        }
    }
    for sym in wfa.symbols() {
        let m = wfa.transition(sym).expect("symbol listed by symbols()");
        for (i, j, _) in m.entries() {
            nfa.add_transition(i, sym, j);
        }
    }
    nfa
}

/// Decides `⊢KA e = f`, i.e. language equivalence `L(e) = L(f)` of the
/// underlying regular expressions (Kozen's completeness theorem for KA).
///
/// This is the decision procedure for the idempotent image `1*K` of
/// Remark 2.1: `⊢KA e = f` holds iff `⊢NKA 1*e = 1*f` (tested against
/// [`crate::decide::decide_eq`] in this module's tests).
///
/// # Errors
///
/// Returns [`DecideError`] if a subset construction exceeds the default
/// state budget (100 000 subsets).
///
/// # Examples
///
/// ```
/// use nka_wfa::ka::ka_equiv;
/// use nka_syntax::Expr;
///
/// // (p + q)* = (p* q*)* needs idempotence: KA-valid, NKA-invalid.
/// let lhs: Expr = "(p + q)*".parse()?;
/// let rhs: Expr = "(p* q*)*".parse()?;
/// assert!(ka_equiv(&lhs, &rhs)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn ka_equiv(e: &Expr, f: &Expr) -> Result<bool, DecideError> {
    ka_equiv_with(e, f, 100_000)
}

/// [`ka_equiv`] with an explicit subset-construction state budget.
///
/// # Errors
///
/// Returns [`DecideError`] if a subset construction exceeds
/// `max_dfa_states`.
pub fn ka_equiv_with(e: &Expr, f: &Expr, max_dfa_states: usize) -> Result<bool, DecideError> {
    crate::engine::Decider::with_budget(max_dfa_states).ka_equiv(e, f)
}

/// The syntactic embedding `e ↦ 1*·e` of Remark 2.1.
///
/// In the power-series model `{{1*}} = ∞·ε`, so `{{1*e}}` is the `∞`-
/// saturation of `{{e}}`: every non-zero coefficient becomes `∞`. The
/// image of `saturate` therefore lives in the idempotent subalgebra
/// `1*K`.
pub fn saturate(e: &Expr) -> Expr {
    Expr::one().star().mul(e)
}

/// Checks `w ∈ L(e)` directly on the support DFA.
///
/// # Errors
///
/// Returns [`DecideError`] on subset-construction overflow.
pub fn ka_accepts(e: &Expr, word: &[Symbol]) -> Result<bool, DecideError> {
    crate::engine::Decider::new().ka_accepts(e, word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::decide_eq;
    use nka_syntax::Expr;

    fn e(src: &str) -> Expr {
        src.parse().unwrap()
    }

    #[test]
    fn support_of_simple_expressions() {
        let a = Symbol::intern("a");
        let b = Symbol::intern("b");
        assert!(ka_accepts(&e("a b"), &[a, b]).unwrap());
        assert!(!ka_accepts(&e("a b"), &[b, a]).unwrap());
        assert!(ka_accepts(&e("a*"), &[]).unwrap());
        assert!(ka_accepts(&e("a*"), &[a, a, a]).unwrap());
        assert!(!ka_accepts(&e("0"), &[]).unwrap());
        assert!(ka_accepts(&e("1"), &[]).unwrap());
    }

    #[test]
    fn support_ignores_multiplicity() {
        // a + a has coefficient 2 on "a": same support as a.
        assert!(ka_equiv(&e("a + a"), &e("a")).unwrap());
        // 1* has coefficient ∞ on ε: same support as 1.
        assert!(ka_equiv(&e("1*"), &e("1")).unwrap());
        // (a + 1)(a + 1) has coefficient 2 on "a": support {ε, a, aa}.
        assert!(ka_equiv(&e("(a + 1)(a + 1)"), &e("1 + a + a a")).unwrap());
    }

    #[test]
    fn idempotence_valid_in_ka_invalid_in_nka() {
        assert!(ka_equiv(&e("p + p"), &e("p")).unwrap());
        assert!(!decide_eq(&e("p + p"), &e("p")).unwrap());
    }

    #[test]
    fn star_of_sum_valid_in_ka_invalid_in_nka() {
        // (p + q)* = (p* q*)* — the classic identity needing idempotence.
        let lhs = e("(p + q)*");
        let rhs = e("(p* q*)*");
        assert!(ka_equiv(&lhs, &rhs).unwrap());
        assert!(!decide_eq(&lhs, &rhs).unwrap());
    }

    #[test]
    fn star_star_valid_in_ka_invalid_in_nka() {
        // p** = p* holds in KA; in NKA p** multiplies coefficients.
        assert!(ka_equiv(&e("p * *"), &e("p*")).unwrap());
        assert!(!decide_eq(&e("p * *"), &e("p*")).unwrap());
    }

    #[test]
    fn remark_2_1_embedding_on_ka_theorems() {
        // On each pair: KA-valid, and valid in NKA after 1*-saturation.
        let pairs = [
            ("p + p", "p"),
            ("(p + q)*", "(p* q*)*"),
            ("p * *", "p*"),
            ("(p + q)*", "p* (q p*)*"),
            ("(p q)* p", "p (q p)*"),
            ("1 + p p*", "p*"),
        ];
        for (l, r) in pairs {
            let (l, r) = (e(l), e(r));
            assert!(ka_equiv(&l, &r).unwrap(), "KA should accept {l} = {r}");
            assert!(
                decide_eq(&saturate(&l), &saturate(&r)).unwrap(),
                "NKA should accept 1*({l}) = 1*({r})"
            );
        }
    }

    #[test]
    fn embedding_preserves_refutations() {
        // Language-inequivalent pairs stay inequivalent after saturation.
        let pairs = [("p", "q"), ("p q", "q p"), ("p*", "p"), ("1", "0")];
        for (l, r) in pairs {
            let (l, r) = (e(l), e(r));
            assert!(!ka_equiv(&l, &r).unwrap());
            assert!(!decide_eq(&saturate(&l), &saturate(&r)).unwrap());
        }
    }

    #[test]
    fn idempotent_law_holds_in_the_image() {
        // 1*p + 1*p = 1*p is an NKA theorem (∞ + ∞ = ∞).
        for src in ["p", "p q", "(p + q)*", "p* q"] {
            let sp = saturate(&e(src));
            assert!(decide_eq(&sp.add(&sp), &sp).unwrap(), "failed on {src}");
        }
    }

    #[test]
    fn saturation_is_a_closure() {
        // 1*·1*·e = 1*·e (the image is closed under the embedding).
        let p = e("p (q + 1)*");
        assert!(decide_eq(&saturate(&saturate(&p)), &saturate(&p)).unwrap());
    }

    #[test]
    fn empty_alphabet_edge_cases() {
        assert!(ka_equiv(&e("1"), &e("1 + 0")).unwrap());
        assert!(!ka_equiv(&e("1"), &e("0")).unwrap());
        assert!(ka_equiv(&e("0*"), &e("1")).unwrap());
    }

    /// Remark 2.1 as an executable theorem: the two *independent*
    /// decision procedures — the support-DFA KA check and the weighted
    /// NKA pipeline on the `1*`-saturated pair — agree on random
    /// expressions.
    #[test]
    fn ka_equiv_agrees_with_saturated_nka_on_random_expressions() {
        use nka_syntax::{random_expr, ExprGenConfig};
        let alphabet = vec![Symbol::intern("a"), Symbol::intern("b")];
        let config = ExprGenConfig::new(alphabet).with_target_size(9);
        let mut seed = 0xD1CEu64;
        let mut exprs = Vec::new();
        for _ in 0..14 {
            exprs.push(random_expr(&config, &mut seed));
        }
        let mut agreements = 0usize;
        let mut equal_pairs = 0usize;
        for x in &exprs {
            for y in &exprs {
                let ka = ka_equiv(x, y).unwrap();
                let nka = decide_eq(&saturate(x), &saturate(y)).unwrap();
                assert_eq!(ka, nka, "disagreement on {x} vs {y}");
                agreements += 1;
                if ka {
                    equal_pairs += 1;
                }
            }
        }
        // Sanity: the sample must exercise both outcomes.
        assert!(agreements > 0 && equal_pairs > exprs.len());
        assert!(equal_pairs < agreements);
    }
}
