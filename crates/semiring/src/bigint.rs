//! Arbitrary-precision signed integers.
//!
//! The decision procedure for NKA equations reduces to a zeroness check on
//! an integer-weighted automaton, and it runs that check modulo machine-word
//! primes: a non-zero series over `Z` has a non-zero coefficient on a word
//! shorter than the state count `n`, of magnitude at most
//! `B = ‖ι‖₁ · R^(n−1) · ‖φ‖∞`, so primes whose product exceeds `B` decide
//! zeroness exactly without big numbers. Big integers remain for the
//! public rational API — [`crate::BigRational`] weights, whose
//! denominators are cleared (and residues taken with
//! [`BigInt::rem_euclid_u64`]) before the same modular check — and for
//! tests. No bignum crate is available offline, so this module implements
//! sign-magnitude big integers on 64-bit limbs (little-endian), with
//! schoolbook multiplication and Knuth Algorithm D division.

use crate::Semiring;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// A signed arbitrary-precision integer.
///
/// # Examples
///
/// ```
/// use nka_semiring::BigInt;
/// let a = BigInt::from(1u64 << 62);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), "21267647932558653966460912964485513216");
/// assert_eq!((&b - &b), BigInt::from(0i64));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    /// -1, 0, or 1; zero iff `mag` is empty.
    sign: i8,
    /// Little-endian 64-bit limbs with no trailing (most-significant) zeros.
    mag: Vec<u64>,
}

fn trim(mag: &mut Vec<u64>) {
    while mag.last() == Some(&0) {
        mag.pop();
    }
}

fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u128;
    for (i, &limb) in long.iter().enumerate() {
        let s = carry + u128::from(limb) + u128::from(*short.get(i).unwrap_or(&0));
        out.push(s as u64);
        carry = s >> 64;
    }
    if carry != 0 {
        out.push(carry as u64);
    }
    out
}

/// Computes `a - b`; requires `a >= b` in magnitude.
fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(cmp_mag(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i128;
    for (i, &limb) in a.iter().enumerate() {
        let d = i128::from(limb) - i128::from(*b.get(i).unwrap_or(&0)) - borrow;
        if d < 0 {
            out.push((d + (1i128 << 64)) as u64);
            borrow = 1;
        } else {
            out.push(d as u64);
            borrow = 0;
        }
    }
    debug_assert_eq!(borrow, 0);
    trim(&mut out);
    out
}

fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = u128::from(out[i + j]) + u128::from(ai) * u128::from(bj) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let cur = u128::from(out[k]) + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    trim(&mut out);
    out
}

fn shl_bits(a: &[u64], shift: u32) -> Vec<u64> {
    debug_assert!(shift < 64);
    if shift == 0 {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry = 0u64;
    for &limb in a {
        out.push((limb << shift) | carry);
        carry = limb >> (64 - shift);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

fn shr_bits(a: &[u64], shift: u32) -> Vec<u64> {
    debug_assert!(shift < 64);
    if shift == 0 {
        return a.to_vec();
    }
    let mut out = vec![0u64; a.len()];
    for i in 0..a.len() {
        out[i] = a[i] >> shift;
        if i + 1 < a.len() {
            out[i] |= a[i + 1] << (64 - shift);
        }
    }
    trim(&mut out);
    out
}

/// Long division of magnitudes: returns `(quotient, remainder)`.
fn div_rem_mag(u: &[u64], v: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!v.is_empty(), "division by zero magnitude");
    if cmp_mag(u, v) == Ordering::Less {
        return (Vec::new(), u.to_vec());
    }
    if v.len() == 1 {
        let d = u128::from(v[0]);
        let mut q = vec![0u64; u.len()];
        let mut rem: u128 = 0;
        for i in (0..u.len()).rev() {
            let cur = (rem << 64) | u128::from(u[i]);
            q[i] = (cur / d) as u64;
            rem = cur % d;
        }
        trim(&mut q);
        let mut r = vec![rem as u64];
        trim(&mut r);
        return (q, r);
    }

    // Knuth TAOCP vol. 2, Algorithm D.
    let shift = v.last().unwrap().leading_zeros();
    let vn = shl_bits(v, shift);
    debug_assert_eq!(vn.len(), v.len());
    let mut un = shl_bits(u, shift);
    un.resize(u.len() + 1, 0);
    let n = vn.len();
    let m = un.len() - n - 1;
    let mut q = vec![0u64; m + 1];
    let vtop = u128::from(vn[n - 1]);
    let vsecond = u128::from(vn[n - 2]);
    for j in (0..=m).rev() {
        let top = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
        let mut qhat = top / vtop;
        let mut rhat = top % vtop;
        while qhat >> 64 != 0 || qhat * vsecond > ((rhat << 64) | u128::from(un[j + n - 2])) {
            qhat -= 1;
            rhat += vtop;
            if rhat >> 64 != 0 {
                break;
            }
        }
        // Multiply and subtract: un[j..j+n+1] -= qhat * vn.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * u128::from(vn[i]) + carry;
            carry = p >> 64;
            let d = i128::from(un[i + j]) - i128::from(p as u64) - borrow;
            if d < 0 {
                un[i + j] = (d + (1i128 << 64)) as u64;
                borrow = 1;
            } else {
                un[i + j] = d as u64;
                borrow = 0;
            }
        }
        let d = i128::from(un[j + n]) - i128::from(carry as u64) - borrow;
        if d < 0 {
            // qhat was one too large: add back.
            un[j + n] = (d + (1i128 << 64)) as u64;
            qhat -= 1;
            let mut carry2 = 0u128;
            for i in 0..n {
                let s = u128::from(un[i + j]) + u128::from(vn[i]) + carry2;
                un[i + j] = s as u64;
                carry2 = s >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(carry2 as u64);
        } else {
            un[j + n] = d as u64;
        }
        q[j] = qhat as u64;
    }
    trim(&mut q);
    let mut rem = un[..n].to_vec();
    trim(&mut rem);
    (q, shr_bits(&rem, shift))
}

impl BigInt {
    /// The integer zero.
    pub fn new() -> Self {
        BigInt {
            sign: 0,
            mag: Vec::new(),
        }
    }

    fn from_mag(sign: i8, mut mag: Vec<u64>) -> Self {
        trim(&mut mag);
        if mag.is_empty() {
            BigInt::new()
        } else {
            BigInt { sign, mag }
        }
    }

    /// Whether this integer is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == 0
    }

    /// Whether this integer is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign < 0
    }

    /// Whether this integer is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign > 0
    }

    /// Sign as -1, 0, or 1.
    pub fn signum(&self) -> i8 {
        self.sign
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt::from_mag(if self.sign == 0 { 0 } else { 1 }, self.mag.clone())
    }

    /// Euclidean division: `(self / rhs, self % rhs)` with truncation toward
    /// zero (like Rust's `/` and `%` on primitives).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_rem(&self, rhs: &BigInt) -> (BigInt, BigInt) {
        assert!(!rhs.is_zero(), "BigInt division by zero");
        if self.is_zero() {
            return (BigInt::new(), BigInt::new());
        }
        let (q, r) = div_rem_mag(&self.mag, &rhs.mag);
        (
            BigInt::from_mag(self.sign * rhs.sign, q),
            BigInt::from_mag(self.sign, r),
        )
    }

    /// Greatest common divisor (always non-negative).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let (_, r) = a.div_rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Conversion to `i128` if it fits.
    pub fn to_i128(&self) -> Option<i128> {
        match self.mag.len() {
            0 => Some(0),
            1 => Some(i128::from(self.sign) * i128::from(self.mag[0])),
            2 => {
                let v = (u128::from(self.mag[1]) << 64) | u128::from(self.mag[0]);
                if self.sign > 0 && v <= i128::MAX as u128 {
                    Some(v as i128)
                } else if self.sign < 0 && v <= (i128::MAX as u128) + 1 {
                    Some((v as i128).wrapping_neg())
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Lossy conversion to `f64` (used only for diagnostics, never for the
    /// exact decision procedure).
    pub fn to_f64(&self) -> f64 {
        let mut x = 0.0f64;
        for &limb in self.mag.iter().rev() {
            x = x * 1.8446744073709552e19 + limb as f64;
        }
        f64::from(self.sign) * x
    }

    /// Number of significant bits of the magnitude (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.mag.last() {
            None => 0,
            Some(top) => 64 * self.mag.len() - top.leading_zeros() as usize,
        }
    }

    /// The residue of `self` modulo `m`, in `0..m` (also for negative
    /// values).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use nka_semiring::BigInt;
    /// assert_eq!(BigInt::from(-7i64).rem_euclid_u64(5), 3);
    /// let big = &BigInt::from(1u64 << 63) * &BigInt::from(6u64);
    /// assert_eq!(big.rem_euclid_u64(7), 6);
    /// ```
    pub fn rem_euclid_u64(&self, m: u64) -> u64 {
        assert!(m != 0, "BigInt residue modulo zero");
        let r = self.mag.iter().rev().fold(0u64, |r, &limb| {
            (((u128::from(r) << 64) | u128::from(limb)) % u128::from(m)) as u64
        });
        if self.sign < 0 && r != 0 {
            m - r
        } else {
            r
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::new()
    }
}

/// The ring `Z`: the weights of an automaton whose denominators were
/// cleared before its zeroness test.
impl Semiring for BigInt {
    fn zero() -> Self {
        BigInt::new()
    }
    fn one() -> Self {
        BigInt::from(1u64)
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn is_zero(&self) -> bool {
        BigInt::is_zero(self)
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        BigInt::from(i128::from(v))
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        BigInt::from_mag(1, vec![v])
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(i128::from(v))
    }
}

impl From<i128> for BigInt {
    fn from(v: i128) -> Self {
        let sign = match v.cmp(&0) {
            Ordering::Less => -1,
            Ordering::Equal => 0,
            Ordering::Greater => 1,
        };
        let mag = v.unsigned_abs();
        BigInt::from_mag(sign, vec![mag as u64, (mag >> 64) as u64])
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.sign.cmp(&other.sign) {
            Ordering::Equal => {}
            ord => return ord,
        }
        match self.sign {
            0 => Ordering::Equal,
            1 => cmp_mag(&self.mag, &other.mag),
            _ => cmp_mag(&other.mag, &self.mag),
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: -self.sign,
            mag: self.mag.clone(),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        self.sign = -self.sign;
        self
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if self.is_zero() {
            return rhs.clone();
        }
        if rhs.is_zero() {
            return self.clone();
        }
        if self.sign == rhs.sign {
            BigInt::from_mag(self.sign, add_mag(&self.mag, &rhs.mag))
        } else {
            match cmp_mag(&self.mag, &rhs.mag) {
                Ordering::Equal => BigInt::new(),
                Ordering::Greater => BigInt::from_mag(self.sign, sub_mag(&self.mag, &rhs.mag)),
                Ordering::Less => BigInt::from_mag(rhs.sign, sub_mag(&rhs.mag, &self.mag)),
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs.clone())
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        BigInt::from_mag(self.sign * rhs.sign, mul_mag(&self.mag, &rhs.mag))
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                $trait::$method(&self, &rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                $trait::$method(&self, rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                $trait::$method(self, &rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&BigInt> for BigInt {
    fn mul_assign(&mut self, rhs: &BigInt) {
        *self = &*self * rhs;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        if self.sign < 0 {
            write!(f, "-")?;
        }
        // Repeated short division by 10^19 (the largest power of ten < 2^64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut mag = self.mag.clone();
        let mut chunks = Vec::new();
        while !mag.is_empty() {
            let (q, r) = div_rem_mag(&mag, &[CHUNK]);
            chunks.push(r.first().copied().unwrap_or(0));
            mag = q;
        }
        let mut iter = chunks.iter().rev();
        if let Some(first) = iter.next() {
            write!(f, "{first}")?;
        }
        for chunk in iter {
            write!(f, "{chunk:019}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

/// Error returned when parsing a [`BigInt`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError;

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid big integer syntax")
    }
}

impl std::error::Error for ParseBigIntError {}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError);
        }
        let ten = BigInt::from(10u64);
        let mut acc = BigInt::new();
        for b in digits.bytes() {
            acc = &(&acc * &ten) + &BigInt::from(u64::from(b - b'0'));
        }
        Ok(if neg { -acc } else { acc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn small_arithmetic_matches_i128() {
        let samples: Vec<i128> = vec![0, 1, -1, 7, -13, 1 << 40, -(1 << 63), 999_999_999_999];
        for &x in &samples {
            for &y in &samples {
                assert_eq!((&b(x) + &b(y)).to_i128(), Some(x + y), "{x}+{y}");
                assert_eq!((&b(x) - &b(y)).to_i128(), Some(x - y), "{x}-{y}");
                if let (Some(p), true) = (x.checked_mul(y), true) {
                    assert_eq!((&b(x) * &b(y)).to_i128(), Some(p), "{x}*{y}");
                }
                if y != 0 {
                    let (q, r) = b(x).div_rem(&b(y));
                    assert_eq!(q.to_i128(), Some(x / y), "{x}/{y}");
                    assert_eq!(r.to_i128(), Some(x % y), "{x}%{y}");
                }
            }
        }
    }

    #[test]
    fn multi_limb_multiplication_and_division_roundtrip() {
        let a: BigInt = "123456789012345678901234567890123456789".parse().unwrap();
        let d: BigInt = "987654321098765432109".parse().unwrap();
        let prod = &a * &d;
        let (q, r) = prod.div_rem(&d);
        assert_eq!(q, a);
        assert!(r.is_zero());
        let with_rem = &prod + &BigInt::from(17u64);
        let (q2, r2) = with_rem.div_rem(&d);
        assert_eq!(q2, a);
        assert_eq!(r2, BigInt::from(17u64));
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "18446744073709551616",
            "-340282366920938463463374607431768211456",
            "99999999999999999999999999999999999999999999",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn gcd_examples() {
        assert_eq!(b(12).gcd(&b(18)), b(6));
        assert_eq!(b(-12).gcd(&b(18)), b(6));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        let a: BigInt = "123456789012345678901234567890".parse().unwrap();
        let g = a.gcd(&(&a * &b(77)));
        assert_eq!(g, a);
    }

    #[test]
    fn comparison_total_order() {
        let mut values = vec![b(-100), b(-1), b(0), b(1), b(2), b(1 << 70)];
        let sorted = values.clone();
        values.reverse();
        values.sort();
        assert_eq!(values, sorted);
    }

    #[test]
    fn knuth_d_add_back_branch() {
        // Crafted operands that exercise the rare "add back" correction in
        // Algorithm D: u = (2^128 - 1) * 2^64, v = 2^128 - 2^64 - ... pick
        // values near the qhat-overestimation boundary.
        let u = BigInt::from_mag(1, vec![0, u64::MAX, u64::MAX - 1]);
        let v = BigInt::from_mag(1, vec![u64::MAX, u64::MAX - 1]);
        let (q, r) = u.div_rem(&v);
        let recomposed = &(&q * &v) + &r;
        assert_eq!(recomposed, u);
        assert!(r.cmp(&v) == Ordering::Less);
    }

    #[test]
    fn bit_len() {
        assert_eq!(b(0).bit_len(), 0);
        assert_eq!(b(1).bit_len(), 1);
        assert_eq!(b(255).bit_len(), 8);
        assert_eq!(BigInt::from(1u64 << 63).bit_len(), 64);
        let big: BigInt = "18446744073709551616".parse().unwrap(); // 2^64
        assert_eq!(big.bit_len(), 65);
    }
}
