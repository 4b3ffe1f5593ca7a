//! DECIDE-SCALE support: the decision procedure against the truncated
//! power-series oracle, and the N̄-specific separations that make NKA
//! non-idempotent.

use nka_quantum::semiring::ExtNat;
use nka_quantum::series::{all_words, eval};
use nka_quantum::syntax::{random_expr, Expr, ExprGenConfig, Symbol};
use nka_quantum::wfa::{decide_eq, thompson, Decider};

fn e(src: &str) -> Expr {
    src.parse().unwrap()
}

#[test]
fn thompson_coefficients_match_series_on_random_expressions() {
    let alphabet = vec![Symbol::intern("a"), Symbol::intern("b")];
    let config = ExprGenConfig::new(alphabet.clone()).with_target_size(9);
    let mut seed = 0xABCDEF;
    for _ in 0..60 {
        let expr = random_expr(&config, &mut seed);
        let series = eval(&expr, &alphabet, 3);
        let wfa = thompson(&expr).eliminate_epsilon();
        for word in all_words(&alphabet, 3) {
            assert_eq!(
                wfa.coefficient(&word),
                series.coeff(&word),
                "coefficient mismatch for {expr} at {word}"
            );
        }
    }
}

#[test]
fn decision_procedure_is_reflexive_and_symmetric() {
    let alphabet = vec![Symbol::intern("a"), Symbol::intern("b")];
    let config = ExprGenConfig::new(alphabet).with_target_size(10);
    let mut seed = 0x5715;
    for _ in 0..25 {
        let x = random_expr(&config, &mut seed);
        let y = random_expr(&config, &mut seed);
        assert!(decide_eq(&x, &x).unwrap(), "reflexivity failed for {x}");
        assert_eq!(
            decide_eq(&x, &y).unwrap(),
            decide_eq(&y, &x).unwrap(),
            "symmetry failed for {x}, {y}"
        );
    }
}

#[test]
fn congruence_of_contexts() {
    // If e = f is decided, then C[e] = C[f] for sample contexts.
    let pairs = [("(a b)* a", "a (b a)*"), ("1 + a a*", "a*")];
    for (l, r) in pairs {
        let (l, r) = (e(l), e(r));
        assert!(decide_eq(&l, &r).unwrap());
        let c1l = l.add(&e("b")).star();
        let c1r = r.add(&e("b")).star();
        assert!(decide_eq(&c1l, &c1r).unwrap(), "star context for {l}");
        let c2l = e("b").mul(&l);
        let c2r = e("b").mul(&r);
        assert!(decide_eq(&c2l, &c2r).unwrap(), "product context for {l}");
    }
}

#[test]
fn multiplicity_separations() {
    // The quantitative separations that distinguish NKA from KA, decided
    // as one batch on the shared engine (the repeated subterms hit the
    // compiled-automaton cache).
    let unequal = [
        ("a + a", "a"),
        ("a + a", "a + a + a"),
        ("(a + a)*", "a*"),
        ("a* + a*", "a*"),
        ("(a a)* + a (a a)*", "a* + a*"),
    ];
    let mut engine = Decider::new();
    let pairs: Vec<(Expr, Expr)> = unequal.iter().map(|(l, r)| (e(l), e(r))).collect();
    for ((l, r), verdict) in unequal.iter().zip(engine.decide_all(&pairs)) {
        assert!(!verdict.unwrap(), "{l} vs {r}");
    }
    // … while their KA-shadows (supports) are equal: the same pairs are
    // support-equivalent, so the refutation really is about multiplicity.
    let alphabet = [Symbol::intern("a")];
    for (l, r) in unequal {
        let sl = eval(&e(l), &alphabet, 4);
        let sr = eval(&e(r), &alphabet, 4);
        for word in all_words(&alphabet, 4) {
            assert_eq!(
                sl.coeff(&word) == ExtNat::from(0u64),
                sr.coeff(&word) == ExtNat::from(0u64),
                "support mismatch at {word} for {l} vs {r}"
            );
        }
    }
}

#[test]
fn infinity_support_separations() {
    let unequal = [
        ("1* a", "a"),
        ("1* a", "1* b"),
        ("1* a + b", "a + 1* b"),
        ("(1 + a)*", "a*"),
    ];
    let equal = [
        ("1* 1*", "1*"),
        ("1* + 1*", "1*"),
        ("1* a 1*", "1* (a 1*)"),
        ("(1 + 1)*", "1*"),
        ("(a* )*", "(a* a*)*"),
    ];
    // One batch through the engine; `decide_all` keeps input order, so the
    // expected verdicts line up positionally.
    let mut engine = Decider::new();
    let pairs: Vec<(Expr, Expr)> = unequal
        .iter()
        .chain(&equal)
        .map(|(l, r)| (e(l), e(r)))
        .collect();
    let verdicts = engine.decide_all(&pairs);
    assert_eq!(verdicts.len(), unequal.len() + equal.len());
    for ((l, r), verdict) in unequal.iter().chain(&equal).zip(&verdicts) {
        let expected = !unequal.iter().any(|(ul, ur)| ul == l && ur == r);
        assert_eq!(
            *verdict.as_ref().unwrap(),
            expected,
            "{l} vs {r} (batch order preserved)"
        );
    }
    assert!(engine.stats().compile_misses > 0);
}
