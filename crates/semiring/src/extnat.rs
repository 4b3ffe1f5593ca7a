//! The extended natural numbers `N̄ = N ∪ {∞}` (Definition A.1).

use crate::{Semiring, StarSemiring};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, MulAssign};

/// An element of `N̄ = N ∪ {∞}`, the coefficient semiring of formal power
/// series over which NKA is sound and complete (Theorem A.6).
///
/// Arithmetic follows Definition A.1 of the paper:
///
/// * `0 + ∞ = ∞`, `n + ∞ = ∞`
/// * `0 · ∞ = ∞ · 0 = 0`, `n · ∞ = ∞ · n = ∞` for `n ≥ 1`
/// * `0* = 1`, `n* = ∞` for `n ≥ 1` (including `∞* = ∞`)
///
/// # Panics
///
/// Finite values are stored in a `u64`. Additions and multiplications whose
/// exact finite result would exceed `u64::MAX` panic rather than silently
/// saturating to infinity: conflating a huge finite coefficient with `∞`
/// would make the decision procedure unsound. All constructions in this
/// repository keep finite coefficients far below this bound.
///
/// # Examples
///
/// ```
/// use nka_semiring::ExtNat;
/// let n = ExtNat::from(3u64);
/// assert_eq!(n + ExtNat::INFINITY, ExtNat::INFINITY);
/// assert_eq!(ExtNat::zero_const() * ExtNat::INFINITY, ExtNat::zero_const());
/// assert!(n < ExtNat::INFINITY);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtNat {
    /// A finite natural number.
    Fin(u64),
    /// The top element `∞`.
    Inf,
}

impl ExtNat {
    /// The top element `∞`.
    pub const INFINITY: ExtNat = ExtNat::Inf;

    /// `0`, usable in `const` contexts (see also [`Semiring::zero`]).
    pub const fn zero_const() -> ExtNat {
        ExtNat::Fin(0)
    }

    /// `1`, usable in `const` contexts.
    pub const fn one_const() -> ExtNat {
        ExtNat::Fin(1)
    }

    /// Whether this is `∞`.
    pub fn is_infinite(self) -> bool {
        matches!(self, ExtNat::Inf)
    }

    /// Whether this is a finite natural.
    pub fn is_finite(self) -> bool {
        !self.is_infinite()
    }

    /// The finite value, if any.
    pub fn finite(self) -> Option<u64> {
        match self {
            ExtNat::Fin(n) => Some(n),
            ExtNat::Inf => None,
        }
    }

    /// `self + rhs`, or `None` if a finite sum exceeds `u64::MAX`.
    pub fn checked_add(self, rhs: ExtNat) -> Option<ExtNat> {
        match (self, rhs) {
            (ExtNat::Fin(a), ExtNat::Fin(b)) => a.checked_add(b).map(ExtNat::Fin),
            _ => Some(ExtNat::Inf),
        }
    }

    /// `self · rhs`, or `None` if a finite product exceeds `u64::MAX`.
    pub fn checked_mul(self, rhs: ExtNat) -> Option<ExtNat> {
        match (self, rhs) {
            (ExtNat::Fin(0), _) | (_, ExtNat::Fin(0)) => Some(ExtNat::Fin(0)),
            (ExtNat::Fin(a), ExtNat::Fin(b)) => a.checked_mul(b).map(ExtNat::Fin),
            _ => Some(ExtNat::Inf),
        }
    }

    /// Saturating conversion for display/statistics; `∞` maps to `u64::MAX`.
    pub fn to_saturating_u64(self) -> u64 {
        match self {
            ExtNat::Fin(n) => n,
            ExtNat::Inf => u64::MAX,
        }
    }
}

impl From<u64> for ExtNat {
    fn from(n: u64) -> Self {
        ExtNat::Fin(n)
    }
}

impl From<u32> for ExtNat {
    fn from(n: u32) -> Self {
        ExtNat::Fin(u64::from(n))
    }
}

impl Default for ExtNat {
    fn default() -> Self {
        ExtNat::Fin(0)
    }
}

impl PartialOrd for ExtNat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ExtNat {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (ExtNat::Fin(a), ExtNat::Fin(b)) => a.cmp(b),
            (ExtNat::Fin(_), ExtNat::Inf) => Ordering::Less,
            (ExtNat::Inf, ExtNat::Fin(_)) => Ordering::Greater,
            (ExtNat::Inf, ExtNat::Inf) => Ordering::Equal,
        }
    }
}

impl Add for ExtNat {
    type Output = ExtNat;
    fn add(self, rhs: ExtNat) -> ExtNat {
        self.checked_add(rhs).expect("ExtNat addition overflow")
    }
}

impl AddAssign for ExtNat {
    fn add_assign(&mut self, rhs: ExtNat) {
        *self = *self + rhs;
    }
}

impl Mul for ExtNat {
    type Output = ExtNat;
    fn mul(self, rhs: ExtNat) -> ExtNat {
        self.checked_mul(rhs)
            .expect("ExtNat multiplication overflow")
    }
}

impl MulAssign for ExtNat {
    fn mul_assign(&mut self, rhs: ExtNat) {
        *self = *self * rhs;
    }
}

impl Sum for ExtNat {
    fn sum<I: Iterator<Item = ExtNat>>(iter: I) -> ExtNat {
        iter.fold(ExtNat::Fin(0), Add::add)
    }
}

impl fmt::Display for ExtNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtNat::Fin(n) => write!(f, "{n}"),
            ExtNat::Inf => write!(f, "∞"),
        }
    }
}

impl Semiring for ExtNat {
    fn zero() -> Self {
        ExtNat::Fin(0)
    }
    fn one() -> Self {
        ExtNat::Fin(1)
    }
    fn add(&self, other: &Self) -> Self {
        *self + *other
    }
    fn mul(&self, other: &Self) -> Self {
        *self * *other
    }
    fn is_zero(&self) -> bool {
        matches!(self, ExtNat::Fin(0))
    }
}

impl StarSemiring for ExtNat {
    fn star(&self) -> Self {
        match self {
            ExtNat::Fin(0) => ExtNat::Fin(1),
            _ => ExtNat::Inf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinity_absorbs_addition() {
        assert_eq!(ExtNat::Fin(5) + ExtNat::Inf, ExtNat::Inf);
        assert_eq!(ExtNat::Inf + ExtNat::Fin(0), ExtNat::Inf);
        assert_eq!(ExtNat::Inf + ExtNat::Inf, ExtNat::Inf);
    }

    #[test]
    fn zero_annihilates_infinity() {
        assert_eq!(ExtNat::Fin(0) * ExtNat::Inf, ExtNat::Fin(0));
        assert_eq!(ExtNat::Inf * ExtNat::Fin(0), ExtNat::Fin(0));
    }

    #[test]
    fn nonzero_times_infinity_is_infinity() {
        assert_eq!(ExtNat::Fin(3) * ExtNat::Inf, ExtNat::Inf);
        assert_eq!(ExtNat::Inf * ExtNat::Fin(1), ExtNat::Inf);
        assert_eq!(ExtNat::Inf * ExtNat::Inf, ExtNat::Inf);
    }

    #[test]
    fn star_definition_a1() {
        assert_eq!(ExtNat::Fin(0).star(), ExtNat::Fin(1));
        assert_eq!(ExtNat::Fin(1).star(), ExtNat::Inf);
        assert_eq!(ExtNat::Fin(7).star(), ExtNat::Inf);
        assert_eq!(ExtNat::Inf.star(), ExtNat::Inf);
    }

    #[test]
    fn order_extends_naturals() {
        assert!(ExtNat::Fin(3) < ExtNat::Fin(4));
        assert!(ExtNat::Fin(u64::MAX) < ExtNat::Inf);
        assert_eq!(ExtNat::Inf.cmp(&ExtNat::Inf), Ordering::Equal);
    }

    #[test]
    fn sum_of_iterator() {
        let total: ExtNat = (1u64..=4).map(ExtNat::from).sum();
        assert_eq!(total, ExtNat::Fin(10));
        let with_inf: ExtNat = [ExtNat::Fin(1), ExtNat::Inf].into_iter().sum();
        assert_eq!(with_inf, ExtNat::Inf);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn finite_overflow_panics() {
        let _ = ExtNat::Fin(u64::MAX) + ExtNat::Fin(1);
    }

    #[test]
    fn star_unfold_law_on_samples() {
        for a in [ExtNat::Fin(0), ExtNat::Fin(1), ExtNat::Fin(9), ExtNat::Inf] {
            // a* = 1 + a·a*
            assert_eq!(a.star(), ExtNat::Fin(1) + a * a.star());
        }
    }
}
