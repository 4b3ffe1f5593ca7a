//! Exact rational numbers over [`BigInt`].

use crate::{BigInt, Semiring};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number, always stored in lowest terms with a positive
/// denominator.
///
/// Q forms a field. The finite part of an N̄-rational series embeds in Q,
/// and the public rational-weighted automaton API (`rational_part`,
/// `is_zero_series` in `nka_wfa`) uses it as a weight domain; the decision
/// engine itself works on integer weights modulo primes.
///
/// # Examples
///
/// ```
/// use nka_semiring::BigRational;
/// let half = BigRational::new(1i64.into(), 2i64.into());
/// let third = BigRational::new(1i64.into(), 3i64.into());
/// assert_eq!((&half + &third).to_string(), "5/6");
/// assert_eq!((&half * &third).to_string(), "1/6");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigRational {
    num: BigInt,
    den: BigInt,
}

impl BigRational {
    /// Creates `num/den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "BigRational with zero denominator");
        let mut num = num;
        let mut den = den;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        if num.is_zero() {
            return BigRational {
                num,
                den: BigInt::from(1u64),
            };
        }
        let g = num.gcd(&den);
        if g != BigInt::from(1u64) {
            num = num.div_rem(&g).0;
            den = den.div_rem(&g).0;
        }
        BigRational { num, den }
    }

    /// The rational zero.
    pub fn zero() -> Self {
        BigRational {
            num: BigInt::new(),
            den: BigInt::from(1u64),
        }
    }

    /// The rational one.
    pub fn one() -> Self {
        BigRational {
            num: BigInt::from(1u64),
            den: BigInt::from(1u64),
        }
    }

    /// Whether this rational is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// The numerator (in lowest terms).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// The denominator (in lowest terms, always positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Self {
        assert!(!self.is_zero(), "reciprocal of zero rational");
        BigRational::new(self.den.clone(), self.num.clone())
    }

    /// Lossy conversion to `f64` (diagnostics only).
    pub fn to_f64(&self) -> f64 {
        self.num.to_f64() / self.den.to_f64()
    }
}

impl Default for BigRational {
    fn default() -> Self {
        BigRational::zero()
    }
}

impl From<BigInt> for BigRational {
    fn from(v: BigInt) -> Self {
        BigRational {
            num: v,
            den: BigInt::from(1u64),
        }
    }
}

impl From<i64> for BigRational {
    fn from(v: i64) -> Self {
        BigRational::from(BigInt::from(v))
    }
}

impl From<u64> for BigRational {
    fn from(v: u64) -> Self {
        BigRational::from(BigInt::from(v))
    }
}

impl Add for &BigRational {
    type Output = BigRational;
    fn add(self, rhs: &BigRational) -> BigRational {
        BigRational::new(
            &(&self.num * &rhs.den) + &(&rhs.num * &self.den),
            &self.den * &rhs.den,
        )
    }
}

impl Sub for &BigRational {
    type Output = BigRational;
    fn sub(self, rhs: &BigRational) -> BigRational {
        BigRational::new(
            &(&self.num * &rhs.den) - &(&rhs.num * &self.den),
            &self.den * &rhs.den,
        )
    }
}

impl Mul for &BigRational {
    type Output = BigRational;
    fn mul(self, rhs: &BigRational) -> BigRational {
        BigRational::new(&self.num * &rhs.num, &self.den * &rhs.den)
    }
}

impl Div for &BigRational {
    type Output = BigRational;
    fn div(self, rhs: &BigRational) -> BigRational {
        assert!(!rhs.is_zero(), "BigRational division by zero");
        BigRational::new(&self.num * &rhs.den, &self.den * &rhs.num)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigRational {
            type Output = BigRational;
            fn $method(self, rhs: BigRational) -> BigRational {
                $trait::$method(&self, &rhs)
            }
        }
        impl $trait<&BigRational> for BigRational {
            type Output = BigRational;
            fn $method(self, rhs: &BigRational) -> BigRational {
                $trait::$method(&self, rhs)
            }
        }
        impl $trait<BigRational> for &BigRational {
            type Output = BigRational;
            fn $method(self, rhs: BigRational) -> BigRational {
                $trait::$method(self, &rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);

impl AddAssign<&BigRational> for BigRational {
    fn add_assign(&mut self, rhs: &BigRational) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigRational> for BigRational {
    fn sub_assign(&mut self, rhs: &BigRational) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigRational> for BigRational {
    fn mul_assign(&mut self, rhs: &BigRational) {
        *self = &*self * rhs;
    }
}

impl Neg for &BigRational {
    type Output = BigRational;
    fn neg(self) -> BigRational {
        BigRational {
            num: -self.num.clone(),
            den: self.den.clone(),
        }
    }
}

impl Neg for BigRational {
    type Output = BigRational;
    fn neg(mut self) -> BigRational {
        self.num = -self.num;
        self
    }
}

impl PartialOrd for BigRational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigRational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Denominators are positive, so cross-multiplying preserves order.
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl fmt::Display for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == BigInt::from(1u64) {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for BigRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigRational({self})")
    }
}

impl Semiring for BigRational {
    fn zero() -> Self {
        BigRational::zero()
    }
    fn one() -> Self {
        BigRational::one()
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn is_zero(&self) -> bool {
        BigRational::is_zero(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> BigRational {
        BigRational::new(n.into(), d.into())
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, -7), BigRational::zero());
    }

    #[test]
    fn field_arithmetic() {
        assert_eq!(&r(1, 2) + &r(1, 3), r(5, 6));
        assert_eq!(&r(1, 2) - &r(1, 3), r(1, 6));
        assert_eq!(&r(2, 3) * &r(3, 4), r(1, 2));
        assert_eq!(&r(2, 3) / &r(4, 9), r(3, 2));
        assert_eq!(r(3, 7).recip(), r(7, 3));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 1) > r(13, 2));
    }

    #[test]
    fn display() {
        assert_eq!(r(4, 2).to_string(), "2");
        assert_eq!(r(-3, 9).to_string(), "-1/3");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = BigRational::new(1i64.into(), 0i64.into());
    }
}
