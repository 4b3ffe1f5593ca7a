//! The position automaton: expression → ε-free WFA over `N̄`, directly.
//!
//! This is the Glushkov construction read quantitatively: Caron and
//! Flouret's weighted form of it for series, and the position automaton
//! of Kappé, Silva and Wagemaker, *Kleene Algebra*. Its states are a
//! start state and one state per atom occurrence (a *position*); every
//! edge into a position reads that position's atom. Four quantities of
//! each subterm `e` define it, all over `N̄`:
//!
//! * the constant term `c(e)`, the coefficient of the empty word;
//! * `first(e)`: for each position `p`, the weight with which a word of
//!   `e` can start at `p`;
//! * `last(e)`: the weight with which a word of `e` can end at `p`;
//! * `follow`: the weight with which `q` can come right after `p`.
//!
//! For `e·f`, `first(f)` enters scaled by `c(e)` and `last(e)` by `c(f)`,
//! and each pair of `last(e) × first(f)` follows with the product of its
//! weights. For `e*` with `s = c(e)*` — which is `∞` when `c(e) ≥ 1`, the
//! `N̄` star — the constant term is `s`, `first` and `last` are scaled by
//! `s`, and `p ∈ last(e)` is followed by `q ∈ first(e)` with weight
//! `last_p · s · first_q`, added to any weight the pair already has. The
//! automaton starts at the start state; the start state's final weight is
//! `c(e)`, a position's is its `last` weight, the start state steps to `p`
//! with `first_p`, and `p` steps to `q` with `follow(p, q)`. Summing path
//! weights then gives the same series as the Thompson automaton after
//! ε-elimination (the reference construction in [`mod@crate::thompson`]),
//! without the states that only ε-edges leave.
//!
//! Arithmetic is exact: a finite value past `u64` stays an error unless
//! it meets a `0` or an `∞` before it reaches the automaton, so a weight
//! of the result is never a silently clamped count.

use crate::automaton::Wfa;
use crate::decide::DecideError;
use crate::matrix::SparseMatrix;
use nka_semiring::{ExtNat, StarSemiring};
use nka_syntax::{Expr, ExprNode, Symbol};
use std::collections::BTreeMap;

/// An `N̄` weight under construction: `None` is a finite value past
/// `u64`, exact again once multiplied by `0` or `∞`, added to `∞`, or
/// starred.
type Count = Option<ExtNat>;

fn add(x: Count, y: Count) -> Count {
    match (x, y) {
        (Some(a), Some(b)) => a.checked_add(b),
        (Some(ExtNat::Inf), None) | (None, Some(ExtNat::Inf)) => Some(ExtNat::Inf),
        _ => None,
    }
}

fn mul(x: Count, y: Count) -> Count {
    match (x, y) {
        (Some(a), Some(b)) => a.checked_mul(b),
        (Some(ExtNat::Fin(0)), None) | (None, Some(ExtNat::Fin(0))) => Some(ExtNat::Fin(0)),
        (Some(ExtNat::Inf), None) | (None, Some(ExtNat::Inf)) => Some(ExtNat::Inf),
        _ => None,
    }
}

/// `c*`: `1` for `c = 0` and `∞` otherwise, a too-large finite `c`
/// included.
fn star(c: Count) -> Count {
    Some(c.map_or(ExtNat::Inf, |c| c.star()))
}

const ZERO: Count = Some(ExtNat::Fin(0));
const ONE: Count = Some(ExtNat::Fin(1));

/// The non-zero `first` or `last` weights of a subterm, one per position.
type Weights = Vec<(usize, Count)>;

/// The construction's values for one subterm occurrence.
struct Fragment {
    constant: Count,
    first: Weights,
    last: Weights,
}

/// Every entry of `list` multiplied by `c`.
fn scale(c: Count, mut list: Weights) -> Weights {
    if c == ZERO {
        list.clear();
    } else if c != ONE {
        for (_, w) in &mut list {
            *w = mul(c, *w);
        }
    }
    list
}

/// The union of two lists over disjoint positions: the shorter is
/// appended to the longer, so a flat sum of `k` terms costs `O(k)`.
fn union(a: Weights, b: Weights) -> Weights {
    let (mut long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    long.extend(short);
    long
}

/// Builds the position automaton of `expr`: state 0 is the start state
/// and state `p ≥ 1` the `p`-th atom occurrence from the left, so
/// `(a b)*` has 3 states.
///
/// The tree is walked on an explicit stack, once per *occurrence*: a
/// hash-consed subterm that occurs twice gets two sets of positions.
///
/// # Errors
///
/// Returns [`DecideError`] if a finite weight of the automaton exceeds
/// `u64::MAX`, e.g. the constant term `2⁶⁴` of `(1 + 1)` multiplied by
/// itself 64 times.
///
/// # Examples
///
/// ```
/// use nka_wfa::position::position_automaton;
/// use nka_syntax::{Expr, Symbol, Word};
/// use nka_semiring::ExtNat;
///
/// let e: Expr = "(a + a)* (1 + 1)".parse()?;
/// let wfa = position_automaton(&e)?;
/// assert_eq!(wfa.state_count(), 3);
/// let aa = Word::from_symbols([Symbol::intern("a"); 2]);
/// assert_eq!(wfa.coefficient(&aa), ExtNat::from(8u64));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn position_automaton(expr: &Expr) -> Result<Wfa<ExtNat>, DecideError> {
    // The atom of position `p` is `atoms[p - 1]`; state 0 is the start.
    let mut atoms: Vec<Symbol> = Vec::new();
    // `(from, to, weight)` edges, from the start state or a position.
    let mut edges: Vec<(usize, usize, Count)> = Vec::new();
    // (node, whether its operands are already built)
    let mut pending = vec![(*expr, false)];
    // The fragment of every built node not yet consumed.
    let mut built: Vec<Fragment> = Vec::new();
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
            (ExprNode::Zero, _) => Fragment {
                constant: ZERO,
                first: Vec::new(),
                last: Vec::new(),
            },
            (ExprNode::One, _) => Fragment {
                constant: ONE,
                first: Vec::new(),
                last: Vec::new(),
            },
            (ExprNode::Atom(a), _) => {
                atoms.push(a);
                let p = atoms.len();
                Fragment {
                    constant: ZERO,
                    first: vec![(p, ONE)],
                    last: vec![(p, ONE)],
                }
            }
            (ExprNode::Add(..), true) => {
                let (r, l) = (operand(), operand());
                Fragment {
                    constant: add(l.constant, r.constant),
                    first: union(l.first, r.first),
                    last: union(l.last, r.last),
                }
            }
            (ExprNode::Mul(..), true) => {
                let (r, l) = (operand(), operand());
                for &(p, x) in &l.last {
                    edges.extend(r.first.iter().map(|&(q, y)| (p, q, mul(x, y))));
                }
                Fragment {
                    constant: mul(l.constant, r.constant),
                    first: union(l.first, scale(l.constant, r.first)),
                    last: union(scale(r.constant, l.last), r.last),
                }
            }
            (ExprNode::Star(_), true) => {
                let body = operand();
                let s = star(body.constant);
                for &(p, x) in &body.last {
                    let xs = mul(x, s);
                    edges.extend(body.first.iter().map(|&(q, y)| (p, q, mul(xs, y))));
                }
                Fragment {
                    constant: s,
                    first: scale(s, body.first),
                    last: scale(s, body.last),
                }
            }
        };
        built.push(fragment);
    }
    let root = built.pop().expect("the root is built");
    edges.extend(root.first.iter().map(|&(q, w)| (0, q, w)));

    let n = atoms.len() + 1;
    let weight = |w: Count| w.ok_or_else(DecideError::count_overflow);
    let mut initial = vec![ExtNat::zero_const(); n];
    initial[0] = ExtNat::one_const();
    let mut final_weights = vec![ExtNat::zero_const(); n];
    final_weights[0] = weight(root.constant)?;
    for &(p, w) in &root.last {
        final_weights[p] = weight(w)?;
    }
    // One matrix per atom, rows in state order; nested stars add to a
    // pair's weight more than once.
    edges.sort_unstable_by_key(|&(p, q, _)| (atoms[q - 1], p, q));
    let mut transitions = BTreeMap::new();
    for by_atom in edges.chunk_by(|x, y| atoms[x.1 - 1] == atoms[y.1 - 1]) {
        let mut m = SparseMatrix::new(n);
        for row in by_atom.chunk_by(|x, y| x.0 == y.0) {
            while m.rows() < row[0].0 {
                m.push_row([]);
            }
            let mut entries = Vec::with_capacity(row.len());
            for pair in row.chunk_by(|x, y| x.1 == y.1) {
                let sum = pair.iter().fold(ZERO, |acc, &(_, _, w)| add(acc, w));
                entries.push((pair[0].1, weight(sum)?));
            }
            m.push_row(entries);
        }
        while m.rows() < n {
            m.push_row([]);
        }
        transitions.insert(atoms[by_atom[0].1 - 1], m);
    }
    Ok(Wfa::new(n, initial, final_weights, transitions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::DecideOptions;
    use crate::engine::Decider;
    use crate::thompson::thompson;
    use crate::zeroness::{is_zero_integer, restrict_within};
    use nka_syntax::{random_expr, ExprGenConfig, Folded, Word};
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::convert::Infallible;

    fn e(src: &str) -> Expr {
        src.parse().unwrap()
    }

    /// Atom occurrences of `x`, shared subterms counted once per
    /// occurrence.
    fn occurrences(x: &Expr) -> usize {
        let Ok(n) = x.fold(&mut HashMap::new(), |_, node| {
            Ok::<usize, Infallible>(match node {
                Folded::Zero | Folded::One => 0,
                Folded::Atom(_) => 1,
                Folded::Add(l, r) | Folded::Mul(l, r) => l + r,
                Folded::Star(inner) => *inner,
            })
        });
        n
    }

    /// Every word over `alphabet` of length at most `max_len`.
    fn words_up_to(alphabet: &[Symbol], max_len: usize) -> Vec<Word> {
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
        words.into_iter().map(Word::from_symbols).collect()
    }

    /// The verdict of the pipeline on Thompson automata after
    /// ε-elimination: ∞-support DFAs, then the finite parts' difference
    /// restricted to the complement of the support.
    fn thompson_verdict(l: &Expr, r: &Expr, alphabet: &[Symbol]) -> bool {
        let (wl, wr) = (
            thompson(l).eliminate_epsilon(),
            thompson(r).eliminate_epsilon(),
        );
        let support = wl
            .infinity_support()
            .determinize(alphabet, 100_000)
            .unwrap();
        if !support.equivalent(
            &wr.infinity_support()
                .determinize(alphabet, 100_000)
                .unwrap(),
        ) {
            return false;
        }
        let diff = wl
            .finite_part::<i128>()
            .difference(&wr.finite_part(), |w| -w);
        let outside = |s| !support.is_accepting(s);
        is_zero_integer(
            &restrict_within(&diff, None, |w| *w, &support, outside, usize::MAX).unwrap(),
        )
    }

    #[test]
    fn a_state_per_atom_occurrence() {
        for (src, states) in [("(a b)*", 3), ("0", 1), ("1*", 1), ("(a + a) a", 4)] {
            assert_eq!(
                position_automaton(&e(src)).unwrap().state_count(),
                states,
                "{src}"
            );
        }
        // A hash-consed subterm gets positions per occurrence.
        let ab = e("a b");
        let twice = ab.mul(&ab.star());
        assert_eq!(position_automaton(&twice).unwrap().state_count(), 5);
        assert_eq!(occurrences(&twice), 4);
    }

    #[test]
    fn a_finite_weight_past_u64_is_an_error_unless_it_meets_zero_or_infinity() {
        let doubled = vec!["(1 + 1)"; 64].join(" ");
        for src in [
            doubled.clone(),
            format!("({doubled}) a"),
            format!("a ({doubled})"),
        ] {
            assert!(position_automaton(&e(&src)).is_err(), "{src}");
        }
        let word = |n: usize| Word::from_symbols(vec![Symbol::intern("a"); n]);
        // `2⁶⁴` starred, times `∞`, or times `0` is exact again.
        for (src, coefficient) in [
            (format!("({doubled})*"), ExtNat::INFINITY),
            (format!("1* ({doubled})"), ExtNat::INFINITY),
            (format!("({doubled}) 0 + a"), ExtNat::zero_const()),
        ] {
            let wfa = position_automaton(&e(&src)).expect(&src);
            assert_eq!(wfa.coefficient(&word(0)), coefficient, "{src}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The position automaton recognizes the same `N̄` series as the
        /// Thompson automaton after ε-elimination, on random expressions
        /// with `0`, `1` and stars of nullable bodies, and has one state
        /// per atom occurrence plus the start state.
        #[test]
        fn position_automaton_matches_thompson(
            seed in any::<u64>(),
            size in 1usize..24,
            star_weight in 0u32..5,
            constant_weight in 0u32..4,
        ) {
            let alphabet = vec![Symbol::intern("a"), Symbol::intern("b")];
            let config = ExprGenConfig::new(alphabet.clone())
                .with_target_size(size)
                .with_star_weight(star_weight)
                .with_constant_weight(constant_weight);
            let mut seed = seed;
            let x = random_expr(&config, &mut seed);
            let position = position_automaton(&x).unwrap();
            let reference = thompson(&x).eliminate_epsilon();
            prop_assert_eq!(position.state_count(), 1 + occurrences(&x), "{}", x);
            for word in words_up_to(&alphabet, 4) {
                prop_assert_eq!(position.coefficient(&word), reference.coefficient(&word), "{} on {:?}", x, word);
            }
            // An `∞` weight of the position automaton is one of the
            // Thompson automaton too. The converse fails only off every
            // accepting path: in `1* 0` ε-elimination keeps the `∞` of the
            // start state's closure, which the position automaton has no
            // state for. The ∞-supports are the same language.
            prop_assert!(!position.has_infinite_weight() || reference.has_infinite_weight(), "{}", x);
            let support = |w: &Wfa<ExtNat>| w.infinity_support().determinize(&alphabet, 100_000).unwrap();
            prop_assert!(support(&position).equivalent(&support(&reference)), "{}", x);
        }

        /// The engine, on position automata, answers random pairs as the
        /// pipeline on Thompson automata does. Half of the pairs are equal
        /// by construction.
        #[test]
        fn the_engine_agrees_with_the_thompson_pipeline(seed in any::<u64>(), shape in 0u8..4) {
            let alphabet = vec![Symbol::intern("a"), Symbol::intern("b")];
            let config = ExprGenConfig::new(alphabet.clone())
                .with_target_size(8)
                .with_star_weight(2)
                .with_constant_weight(2);
            let mut seed = seed;
            let (x, y) = (random_expr(&config, &mut seed), random_expr(&config, &mut seed));
            let (l, r) = match shape {
                0 | 1 => (x, y),
                2 => (x.add(&y), y.add(&x)),
                _ => (x.mul(&y.star()), x.mul(&e("1").add(&y.star().mul(&y)))),
            };
            let mut engine = Decider::with_options(DecideOptions {
                starfree_max_words: 0,
                ..DecideOptions::default()
            });
            let verdict = engine.decide(&l, &r).unwrap();
            prop_assert_eq!(verdict, thompson_verdict(&l, &r, &alphabet), "{} vs {}", l, r);
            if shape >= 2 {
                prop_assert!(verdict, "{} vs {}", l, r);
            }
        }
    }
}
