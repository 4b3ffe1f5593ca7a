//! Weighted finite automata and the decision procedure for the equational
//! theory of NKA (Remark 2.1 / Theorem A.6 of Peng–Ying–Wu, PLDI 2022).
//!
//! By Theorem A.6, `⊢NKA e = f` iff the rational power series `{{e}}` and
//! `{{f}}` over `N̄ = N ∪ {∞}` coincide. This crate decides that equality:
//!
//! 1. **Position automaton** ([`position::position_automaton`]):
//!    expression → ε-free [`Wfa`] over `N̄` whose path weights sum to the
//!    series coefficients (with multiplicity — this is where
//!    non-idempotence lives). It is the weighted Glushkov construction: a
//!    start state plus one state per atom occurrence, weighted by the
//!    subterms' constant terms and first, last and follow weights, with
//!    `c* = ∞` for a starred body of constant term `c ≥ 1` (the `N̄` star).
//!    A finite weight past `u64` is an error, never a silent `∞`. The
//!    Thompson construction with ε-elimination ([`thompson()`]) builds the
//!    same series and is kept as the reference it is tested against.
//! 2. **∞-support** ([`Wfa::infinity_support`]): the words with coefficient
//!    `∞` form a regular language (a word has finitely many accepting paths
//!    in an ε-free automaton, so its coefficient is `∞` iff some accepting
//!    path crosses an `∞` weight); supports are compared as DFAs. An
//!    automaton with no `∞` weight — every program encoding, since no
//!    starred body of one is nullable — has the empty NFA, whose subset
//!    construction is the one-state DFA accepting nothing; a pair with
//!    one such side is then an emptiness test of the other's support.
//! 3. **Finite part** ([`zeroness`]): with `∞` weights read as 0, each
//!    automaton is N-weighted, and their difference (path counts, with
//!    the right side's final weights negated) is `Z`-weighted. One pass
//!    builds it already restricted to the complement of the ∞-support: a
//!    breadth-first search over the two automata read as one disjoint
//!    union creates a (state, DFA state) pair only when a non-zero edge
//!    reaches it and the DFA can still accept from it, so only reachable
//!    pairs exist, each counted against the state budget, and writes
//!    their rows straight into the zeroness kernel's table; against the
//!    one-state empty DFA these are the difference's reachable states.
//!    Zeroness is the forward-basis (Tzeng/Schützenberger) algorithm
//!    **modulo primes** below `2^61`, exactly: a non-zero series has a
//!    non-zero coefficient on a word shorter than the state count `n`, of
//!    magnitude at most the vector bound `B = max_{k<n} Uₖ·|φ|` with
//!    `U₀ = |ι|` and `Uₖ₊₁ = maxₐ Uₖ·|Mₐ|` (componentwise), so primes
//!    whose product exceeds `B` cannot all miss it. The first prime runs
//!    before `B` is computed, so a refuted pair never computes it. The
//!    basis pass multiplies sparse basis rows by the sparse transition
//!    rows.
//!
//! **Star-free** pairs — loop-free program encodings — never reach this
//! pipeline: their series have finite support and finite coefficients, so
//! the tiered fast path in [`starfree`] decides them by prefix
//! normalization and finite word-multiset comparison, falling back here
//! only past its size budget.
//!
//! The top-level entry point for a single query is [`decide::decide_eq`];
//! repeated queries should go through the memoizing, budgeted
//! [`engine::Decider`], which owns the resource policy ([`DecideOptions`])
//! and caches compiled automata, determinized DFAs, and verdicts.
//!
//! # Examples
//!
//! ```
//! use nka_wfa::decide::decide_eq;
//! use nka_syntax::Expr;
//!
//! let lhs: Expr = "(p q)* p".parse()?;
//! let rhs: Expr = "p (q p)*".parse()?;
//! assert!(decide_eq(&lhs, &rhs)?);           // sliding — a theorem
//!
//! let idem: Expr = "p + p".parse()?;
//! let p: Expr = "p".parse()?;
//! assert!(!decide_eq(&idem, &p)?);           // idempotence — not a theorem
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod automaton;
pub mod decide;
pub mod engine;
pub mod ka;
pub mod matrix;
pub mod nfa;
pub mod position;
pub mod starfree;
pub mod thompson;
pub mod zeroness;

pub use automaton::Wfa;
pub use decide::{decide_eq, DecideError, DecideOptions};
pub use engine::{Decider, DeciderStats};
pub use ka::{ka_equiv, saturate};
pub use thompson::{thompson, EpsWfa};
