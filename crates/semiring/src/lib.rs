//! Semirings and exact arithmetic for the NKA decision procedure.
//!
//! This crate provides the scalar algebra underlying the semantic models of
//! non-idempotent Kleene algebra (Peng, Ying, Wu — PLDI 2022):
//!
//! * [`ExtNat`] — the extended natural numbers `N̄ = N ∪ {∞}` of
//!   Definition A.1, the coefficient semiring of formal power series.
//! * [`BigInt`] / [`BigRational`] — arbitrary-precision exact arithmetic
//!   for the public rational-weighted automaton API. The decision
//!   procedure itself tests zeroness of an `i128`-weighted automaton
//!   modulo word-sized primes (see `nka_wfa::zeroness`), exactly and
//!   without big numbers. The offline dependency set contains no bignum
//!   crate, hence the from-scratch implementation here.
//! * The [`Semiring`] and [`StarSemiring`] traits tying them together.
//!
//! # Examples
//!
//! ```
//! use nka_semiring::{ExtNat, Semiring, StarSemiring};
//!
//! let two = ExtNat::from(2u64);
//! assert_eq!(two.star(), ExtNat::INFINITY);           // n* = ∞ for n ≥ 1
//! assert_eq!(ExtNat::zero().star(), ExtNat::one());   // 0* = 1
//! assert_eq!(ExtNat::INFINITY * ExtNat::zero(), ExtNat::zero()); // ∞·0 = 0
//! ```

mod bigint;
mod extnat;
mod rational;
mod traits;

pub use bigint::BigInt;
pub use extnat::ExtNat;
pub use rational::BigRational;
pub use traits::{Semiring, StarSemiring};

/// The Boolean semiring `({false, true}, ∨, ∧)`.
///
/// Used for the support automata (NFA view) inside the decision procedure.
///
/// # Examples
///
/// ```
/// use nka_semiring::{Boolean, Semiring, StarSemiring};
/// assert_eq!(Boolean(true).add(&Boolean(false)), Boolean(true));
/// assert_eq!(Boolean(false).star(), Boolean(true));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Boolean(pub bool);

impl Semiring for Boolean {
    fn zero() -> Self {
        Boolean(false)
    }
    fn one() -> Self {
        Boolean(true)
    }
    fn add(&self, other: &Self) -> Self {
        Boolean(self.0 || other.0)
    }
    fn mul(&self, other: &Self) -> Self {
        Boolean(self.0 && other.0)
    }
    fn is_zero(&self) -> bool {
        !self.0
    }
}

impl StarSemiring for Boolean {
    fn star(&self) -> Self {
        Boolean(true)
    }
}

impl std::fmt::Display for Boolean {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", if self.0 { "1" } else { "0" })
    }
}

/// The ring `Z` on `i128`: finite `N̄` path counts (each below `2^64`)
/// with the subtracted side's final weights negated, the weights of the
/// decision procedure's difference automaton.
///
/// # Panics
///
/// Like [`ExtNat`], addition and multiplication panic on overflow
/// rather than wrap: a wrapped coefficient would be a wrong one.
///
/// # Examples
///
/// ```
/// use nka_semiring::Semiring;
/// assert_eq!(3i128.mul(&-2), -6);
/// assert!(Semiring::is_zero(&(5i128.add(&-5))));
/// ```
impl Semiring for i128 {
    fn zero() -> Self {
        0
    }
    fn one() -> Self {
        1
    }
    fn add(&self, other: &Self) -> Self {
        self.checked_add(*other).expect("i128 weight overflow")
    }
    fn mul(&self, other: &Self) -> Self {
        self.checked_mul(*other).expect("i128 weight overflow")
    }
    fn is_zero(&self) -> bool {
        *self == 0
    }
}
